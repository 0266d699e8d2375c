"""Deterministic, seeded fault injection for campaign chaos testing.

The runtime's fault-tolerance story (retries, per-cell timeouts, pool
resurrection, crash-consistent stores) is only trustworthy if it is
*exercised*, and exercised reproducibly.  This module is the harness:
a picklable :class:`FaultPlan` that decides -- as a pure function of
``(fault_seed, site, cell fingerprint, attempt)`` -- whether a given
evaluation or store write fails, and how:

``raise``
    An :class:`InjectedFault` thrown inside the worker stage (between
    realisation and simulation), indistinguishable from a kernel crash
    to everything above it.
``kill``
    ``os._exit`` in the worker **process** -- a hard death the parent
    only sees as a broken pool.  In the parent process itself (serial
    executor, degraded-serial fallback) a kill degrades to ``raise``:
    the campaign must survive its own chaos harness.
``delay`` / ``hang``
    ``time.sleep`` for :attr:`FaultPlan.delay_s` (a slow cell) or
    :attr:`FaultPlan.hang_s` (a stuck cell, long enough to trip the
    per-cell timeout watchdog; raises afterwards as a failsafe so an
    un-watched hang still resolves to a retryable error).
``fail`` / ``torn`` (store site)
    A store write that raises before the record lands, or after writing
    a *torn prefix* of it -- the two ways a crash can interrupt an
    append.  The store backends apply these themselves (the JSONL
    backend leaves real torn bytes on disk; SQLite commits a corrupt
    payload row) so recovery exercises the actual quarantine path.

Determinism contract: decisions depend only on the plan's seed and the
``(site, token, attempt)`` triple -- never on wall clock, process,
thread, execution order, or prior draws -- so two runs with the same
plan inject the same faults at the same cells, and the chaos gate in
``ci/gate.sh`` can assert that a fault-riddled campaign's
``summary.json`` is byte-identical to an undisturbed run.  Injection
is **off by default and zero-overhead when off**: the per-cell check
is a single module-global ``None`` test, and no fingerprint is ever
hashed unless a plan is active.

Attempt numbers come from the executor (thread-local, see
:func:`attempt_scope`): a fault fires only while ``attempt <=
max_attempt`` (default: first attempt only), which guarantees a
bounded retry policy always recovers -- the property the determinism
gate stands on.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.utils.rng import derive_seed

__all__ = [
    "CELL_FAULT_KINDS",
    "STORE_FAULT_KINDS",
    "KILL_EXIT_CODE",
    "InjectedFault",
    "FaultPlan",
    "active_plan",
    "activate",
    "allow_kill",
    "kill_allowed",
    "current_attempt",
    "attempt_scope",
    "check_fault",
    "evaluate_cell_under_plan",
    "plan_to_dict",
    "plan_from_dict",
]

#: Fault kinds the cell (kernel) site understands.
CELL_FAULT_KINDS = ("raise", "kill", "delay", "hang")
#: Fault kinds the store-write site understands.
STORE_FAULT_KINDS = ("fail", "torn")
#: Exit status of an injected worker kill (diagnosable in pool logs).
KILL_EXIT_CODE = 113


class InjectedFault(RuntimeError):
    """A failure raised by the fault-injection harness (retryable)."""


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible fault schedule (picklable, immutable).

    ``decide`` is a pure function of ``(seed, site, token, attempt)``;
    everything else is how each decision is *applied*.  ``rate`` is the
    per-(cell, attempt) fault probability at the kernel site;
    ``store_rate`` (default: same as ``rate``) the per-record one at
    the store site.  Faults fire only while ``attempt <= max_attempt``,
    so any retry policy with ``max_attempts > max_attempt`` recovers
    every injected fault by construction.
    """

    seed: int
    rate: float
    kinds: tuple = ("raise", "kill", "delay")
    store_kinds: tuple = STORE_FAULT_KINDS
    store_rate: Optional[float] = None
    max_attempt: int = 1
    delay_s: float = 0.02
    hang_s: float = 30.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must lie in [0, 1], got {self.rate}")
        if self.store_rate is not None and not 0.0 <= self.store_rate <= 1.0:
            raise ValueError(
                f"store fault rate must lie in [0, 1], got {self.store_rate}"
            )
        if self.max_attempt < 0:
            raise ValueError("max_attempt must be >= 0 (0 disables injection)")
        unknown = set(self.kinds) - set(CELL_FAULT_KINDS)
        if unknown:
            raise ValueError(
                f"unknown cell fault kinds {sorted(unknown)}; "
                f"expected a subset of {CELL_FAULT_KINDS}"
            )
        unknown = set(self.store_kinds) - set(STORE_FAULT_KINDS)
        if unknown:
            raise ValueError(
                f"unknown store fault kinds {sorted(unknown)}; "
                f"expected a subset of {STORE_FAULT_KINDS}"
            )

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a default plan from the CLI's ``SEED:RATE`` syntax."""
        parts = str(spec).split(":")
        try:
            if len(parts) != 2:
                raise ValueError(spec)
            seed, rate = int(parts[0]), float(parts[1])
        except ValueError:
            raise ValueError(
                f"fault spec must look like 'SEED:RATE' (e.g. 7:0.15), "
                f"got {spec!r}"
            ) from None
        return cls(seed=seed, rate=rate)

    # -- the pure decision function --------------------------------------
    def decide(self, site: str, token: str, attempt: int) -> Optional[str]:
        """The fault (or ``None``) for one ``(site, token, attempt)``.

        Pure: the same arguments always return the same kind, in any
        process, at any time, in any call order.
        """
        if attempt > self.max_attempt:
            return None
        if site == "store":
            kinds, rate = self.store_kinds, (
                self.rate if self.store_rate is None else self.store_rate
            )
        else:
            kinds, rate = self.kinds, self.rate
        if not kinds or rate <= 0.0:
            return None
        rng = np.random.default_rng(
            derive_seed(self.seed, "fault", site, str(token), int(attempt))
        )
        if rng.random() >= rate:
            return None
        return kinds[int(rng.integers(len(kinds)))]

    # -- application -----------------------------------------------------
    def apply_cell(self, fingerprint: str) -> None:
        """Fire this attempt's kernel-site fault for a cell, if any."""
        attempt = current_attempt()
        kind = self.decide("kernel", fingerprint, attempt)
        if kind is None:
            return
        from repro.runtime.telemetry import counter_add

        counter_add("injected_faults")
        if kind == "delay":
            time.sleep(self.delay_s)
            return
        if kind == "hang":
            time.sleep(self.hang_s)
            # Failsafe: without a timeout watchdog the hang must still
            # resolve to a retryable error, never a silent slow success.
        elif kind == "kill":
            if multiprocessing.parent_process() is not None or _KILL_ALLOWED:
                os._exit(KILL_EXIT_CODE)
            kind = "kill->raise"  # the parent process must survive
        raise InjectedFault(
            f"injected fault {kind!r} at cell {fingerprint} "
            f"(seed={self.seed}, attempt={attempt})"
        )

    def store_fault(self, key: str) -> Optional[str]:
        """The store-site fault for one record key on this attempt."""
        return self.decide("store", key, current_attempt())


# ----------------------------------------------------------------------
# Per-process plumbing (plan installation, attempt tracking)
# ----------------------------------------------------------------------
#: The process-wide active plan (installed per worker call by
#: :func:`evaluate_cell_under_plan`, which crosses pickle boundaries).
_PLAN: Optional[FaultPlan] = None

#: Whether an injected ``kill`` may hard-exit *this* process even when
#: it is not a multiprocessing pool child.  Off by default -- a
#: campaign's own process must survive its chaos harness -- and armed
#: only by dedicated worker processes (``scenarios work``) whose death
#: the lease coordinator is built to reclaim.
_KILL_ALLOWED = False

_TLS = threading.local()


def active_plan() -> Optional[FaultPlan]:
    return _PLAN


@contextmanager
def activate(plan: Optional[FaultPlan]):
    """Install ``plan`` as this process's active plan for the block."""
    global _PLAN
    prev = _PLAN
    _PLAN = plan
    try:
        yield
    finally:
        _PLAN = prev


def allow_kill(flag: bool = True) -> None:
    """Arm (or disarm) hard ``kill`` faults for this whole process.

    Pool children always honour kills; any other process degrades them
    to ``raise`` unless it opts in here.  ``scenarios work`` opts in:
    a lease worker's death is exactly what the coordinator's reclaim
    path exists to absorb, so its chaos runs must die for real.
    """
    global _KILL_ALLOWED
    _KILL_ALLOWED = bool(flag)


def kill_allowed() -> bool:
    """Whether this process honours injected hard kills (see above)."""
    return _KILL_ALLOWED or multiprocessing.parent_process() is not None


def current_attempt() -> int:
    """The executing attempt number of this thread (1-based)."""
    return getattr(_TLS, "attempt", 1)


@contextmanager
def attempt_scope(attempt: int):
    """Mark the current thread as executing ``attempt`` (the executor
    wraps every task call; the campaign wraps store writes)."""
    prev = getattr(_TLS, "attempt", 1)
    _TLS.attempt = int(attempt)
    try:
        yield
    finally:
        _TLS.attempt = prev


def check_fault(site: str, spec) -> None:
    """The kernel-site injection hook (called inside ``evaluate_cell``).

    Zero-overhead default: a single ``None`` check when no plan is
    active -- the fingerprint is only hashed under an active plan.
    """
    if _PLAN is None:
        return
    from repro.runtime.store import spec_fingerprint

    _PLAN.apply_cell(spec_fingerprint(spec))


def plan_to_dict(plan: FaultPlan) -> dict:
    """A JSON-safe dict round-trippable through :func:`plan_from_dict`.

    Lease coordinators hand their exact plan to ``scenarios work``
    subprocesses this way (the CLI's ``SEED:RATE`` shorthand cannot
    express custom kinds or attempt ceilings)."""
    import dataclasses

    return dataclasses.asdict(plan)


def plan_from_dict(payload: dict) -> FaultPlan:
    """Rebuild a :class:`FaultPlan` serialised by :func:`plan_to_dict`."""
    data = dict(payload)
    for field in ("kinds", "store_kinds"):
        if field in data and data[field] is not None:
            data[field] = tuple(data[field])
    return FaultPlan(**data)


def evaluate_cell_under_plan(plan: FaultPlan, scenario):
    """Worker function for fault-injected campaigns (picklable via
    ``functools.partial(evaluate_cell_under_plan, plan)``): installs
    the plan in the executing process, then runs the normal cell
    evaluation with injection live."""
    from repro.scenarios.runner import evaluate_cell

    with activate(plan):
        return evaluate_cell(scenario)
