"""Single regulated end host simulation (the paper's Simulation I).

Figure 3 of the paper: a source feeds K real-time flows through one
(sigma, rho, lambda)/(sigma, rho)-regulated end host towards a sink;
Figure 4 plots the measured worst-case delay of both regulator families
against the flows' average input rate.  :func:`simulate_regulated_host`
is that topology as a function: traces in, per-flow worst-case delays
out.

Control modes
-------------
``"sigma-rho"``
    per-flow token buckets feeding the MUX (the baseline).
``"sigma-rho-lambda"``
    the adaptive controller's staggered vacation regulators.
``"none"``
    no regulation (used by the capacity-aware scheme, where the tree --
    not a regulator -- limits load).
``"adaptive"``
    let :class:`~repro.core.adaptive.AdaptiveController` pick one of the
    first two from the measured average rate (the full algorithm).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.calculus.envelope import ArrivalEnvelope
from repro.core.adaptive import AdaptiveController, ControlMode
from repro.simulation.batched import (
    PRIMED_MODES,
    BatchMuxServer,
    BatchVacationComponent,
    _stagger_schedule,
    primed_adversarial_host,
)
from repro.simulation.engine import Simulator
from repro.simulation.flow import PacketTrace
from repro.simulation.measures import DelayRecorder, DelayStats
from repro.simulation.mux_sim import MuxServer
from repro.simulation.packet import Packet
from repro.simulation.regulator_sim import TokenBucketComponent, VacationComponent
from repro.utils.validation import check_positive

__all__ = [
    "HostResult",
    "simulate_regulated_host",
    "build_regulated_host",
    "inject_trace",
    "resolve_mode",
]

#: Control-mode strings accepted by the builders.
MODES = ("sigma-rho", "sigma-rho-lambda", "none", "adaptive")

#: DES engines: ``"batched"`` (window-batched components plus the
#: closed-form primed fast paths, the default), ``"evented"`` (the
#: same window-batched components but *no* closed-form shortcuts --
#: the PR-3 behaviour, kept as the mid-rung of the equivalence ladder
#: and as the benchmark baseline the primed paths are measured
#: against) or ``"legacy"`` (the per-packet event chain, kept only as
#: the test oracle of the batched-vs-legacy equivalence suite).
ENGINES = ("batched", "evented", "legacy")

#: Engines built from the window-batched components.
_BATCH_ENGINES = ("batched", "evented")


@dataclass(frozen=True)
class HostResult:
    """Outcome of a single-host simulation."""

    mode: str
    worst_case_delay: float
    per_flow: tuple[DelayStats, ...]
    events: int
    #: Cancelled events popped off the heap (regulator wakeup churn);
    #: batch harnesses report it next to ``events`` so event-rate
    #: figures account for the lazy-cancellation residue.
    cancelled_events: int = 0
    #: Whether the cell resolved on a closed-form primed fast path
    #: (no event loop); the cost model prices primed cells separately.
    primed: bool = False

    def worst_flow(self) -> int:
        """Index of the flow with the largest worst-case delay."""
        return max(range(len(self.per_flow)), key=lambda i: self.per_flow[i].worst)


def inject_trace(
    sim: Simulator, trace: PacketTrace, flow_id: int, sink
) -> None:
    """Schedule every packet of ``trace`` for delivery into ``sink``.

    Uses the engine's batch-schedule API: one validation pass for the
    whole train, and time-sorted traces load the heap without per-event
    sift-ups.
    """
    sim.schedule_batch(
        trace.times,
        sink.receive,
        (
            (Packet(flow_id=flow_id, size=float(s), t_emit=float(t)),)
            for t, s in zip(trace.times, trace.sizes)
        ),
    )


def resolve_mode(
    mode: str, envelopes: Sequence[ArrivalEnvelope], capacity: float
) -> str:
    """Resolve ``"adaptive"`` into a concrete control mode, exactly the
    way :func:`build_regulated_host` does."""
    if mode != "adaptive":
        return mode
    ctrl = AdaptiveController(envelopes, capacity)
    return (
        "sigma-rho"
        if ctrl.select_mode() is ControlMode.SIGMA_RHO
        else "sigma-rho-lambda"
    )


def build_regulated_host(
    sim: Simulator,
    envelopes: Sequence[ArrivalEnvelope],
    sink,
    *,
    mode: str = "adaptive",
    capacity: float = 1.0,
    discipline: str = "priority",
    stagger_phase: float = 0.0,
    engine: str = "batched",
):
    """Assemble regulators + MUX for one end host; return per-flow entry points.

    This is the evented pipeline: FIFO and priority cells, and the
    ``"evented"``/``"legacy"`` oracles.  Adversarial cells whose traffic
    is fully known never build it under the batched engine -- they run
    the closed-form passes of :mod:`repro.simulation.batched`.

    Parameters
    ----------
    sim, envelopes, sink:
        Simulator, per-flow (sigma, rho) envelopes, downstream sink
        (single component or ``flow_id -> component`` mapping).
    mode:
        One of :data:`MODES`.
    capacity:
        MUX service rate ``C``.
    discipline:
        MUX discipline; ``"priority"`` with flow index as priority
        realises the adversarial *general MUX* (the last flow is the
        tagged worst-case flow), ``"fifo"`` the benign one.
    stagger_phase:
        Fraction of the stagger period added to every vacation-regulator
        offset (used by multi-hop chains to de-synchronise consecutive
        hosts' window schedules).
    engine:
        One of :data:`ENGINES`: ``"batched"`` commits whole busy trains
        per event (window-batched vacation service, commit-on-receive
        MUX drains) and is the only engine eligible for the primed
        closed-form fast paths; ``"evented"`` uses the same components
        but never shortcuts the event loop (the equivalence ladder's
        mid-rung); ``"legacy"`` is the per-packet event chain.  The
        equivalence contract (``tests/test_des_batched_equivalence``):
        bit-identical delays for FIFO/priority disciplines; under the
        adversarial discipline the batched engines release held batches
        deterministically at zero-backlog instants (the fluid backend's
        semantics), so their delays are pointwise <= the legacy
        engine's (whose release at exact ties was an event-order race).
        ``"priority"`` MUXes always use the legacy server (a strict
        priority order cannot be committed ahead of arrivals).

    Returns
    -------
    (entries, mux):
        ``entries`` -- one entry component per flow (regulator, or the
        MUX itself in mode ``"none"``); ``mux`` -- the MUX server.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    check_positive(capacity, "capacity")
    controller = AdaptiveController(envelopes, capacity)
    if mode == "adaptive":
        mode = (
            "sigma-rho"
            if controller.select_mode() is ControlMode.SIGMA_RHO
            else "sigma-rho-lambda"
        )
    priorities = {i: i for i in range(len(envelopes))}
    if engine in _BATCH_ENGINES and discipline in ("fifo", "adversarial"):
        mux = BatchMuxServer(
            sim, capacity, sink, discipline=discipline, priorities=priorities
        )
    else:
        mux = MuxServer(
            sim, capacity, sink, discipline=discipline, priorities=priorities
        )
    if mode == "none":
        entries: list = [mux] * len(envelopes)
    elif mode == "sigma-rho":
        entries = [
            TokenBucketComponent(sim, e.sigma, e.rho / capacity, mux)
            for e in envelopes
        ]
    else:  # sigma-rho-lambda
        vacation_cls = (
            BatchVacationComponent
            if engine in _BATCH_ENGINES
            else VacationComponent
        )
        entries = [
            vacation_cls(sim, reg, mux, offset=off, out_rate=capacity)
            for reg, off in zip(*_stagger_schedule(controller, stagger_phase))
        ]
    return entries, mux


def simulate_regulated_host(
    traces: Sequence[PacketTrace],
    envelopes: Sequence[ArrivalEnvelope],
    *,
    mode: str = "adaptive",
    capacity: float = 1.0,
    discipline: str = "priority",
    stagger_phase: float = 0.0,
    horizon: Optional[float] = None,
    drain: bool = True,
    engine: str = "batched",
) -> HostResult:
    """Run the Fig.-3 topology: K flows through one regulated host.

    Parameters
    ----------
    traces:
        One packet trace per flow (same indices as ``envelopes``).
    envelopes:
        Per-flow (sigma, rho) descriptions used to configure regulators.
    stagger_phase:
        Fraction of the stagger period added to every vacation-regulator
        offset (the bounds hold for *any* phase; adversarial scenario
        tests sweep it).
    horizon:
        Injection stops here (defaults to the longest trace).
    drain:
        Keep running after the horizon until every queued packet is
        delivered, so worst-case delays are not truncated.
    engine:
        ``"batched"`` (default), ``"evented"`` or ``"legacy"`` -- see
        :func:`build_regulated_host`.  For *any* regulated host under
        the adversarial discipline the batched engine skips the event
        loop entirely: all arrivals are known up front, so the cell
        collapses into the array fast path
        (:func:`repro.simulation.batched.primed_adversarial_host`) --
        token-bucket and vacation departures are both closed form --
        with bit-identical delays and orders of magnitude fewer
        events.

    Returns
    -------
    HostResult
        Worst-case delay over all flows and per-flow statistics.
    """
    if len(traces) != len(envelopes):
        raise ValueError("traces and envelopes must align")
    if not traces:
        raise ValueError("at least one flow is required")
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    # Resolve the effective mode up front (the builders resolve it the
    # same way; needed here to route the primed fast paths).
    effective_mode = resolve_mode(mode, envelopes, capacity)
    if horizon is None:
        horizon = max(tr.times[-1] + 1e-9 for tr in traces if len(tr))
    if (
        engine == "batched"
        and effective_mode in PRIMED_MODES
        and discipline == "adversarial"
    ):
        restricted = [tr.restrict(horizon) for tr in traces]
        outcome = primed_adversarial_host(
            [(tr.times, tr.sizes) for tr in restricted],
            envelopes,
            effective_mode,
            capacity=capacity,
            stagger_phase=stagger_phase,
            horizon=horizon,
            drain=drain,
        )
        per_flow = tuple(
            DelayStats.from_delays(d) for d in outcome.per_flow_delays
        )
        return HostResult(
            mode=effective_mode,
            worst_case_delay=max((s.worst for s in per_flow), default=0.0),
            per_flow=per_flow,
            events=outcome.batch_events,
            cancelled_events=0,
            primed=True,
        )
    sim = Simulator()
    recorder = DelayRecorder(sim)
    entries, _mux = build_regulated_host(
        sim, envelopes, recorder, mode=mode, capacity=capacity,
        discipline=discipline, stagger_phase=stagger_phase, engine=engine,
    )
    for flow_id, (trace, entry) in enumerate(zip(traces, entries)):
        inject_trace(sim, trace.restrict(horizon), flow_id, entry)
    sim.run(until=None if drain else horizon)
    # Function-local import: the simulation layer stays importable
    # without the runtime package at module-load time.
    from repro.runtime.telemetry import record_engine

    record_engine(sim)
    per_flow = tuple(recorder.stats(i) for i in range(len(traces)))
    worst = max((s.worst for s in per_flow), default=0.0)
    return HostResult(
        mode=effective_mode,
        worst_case_delay=worst,
        per_flow=per_flow,
        events=sim.events_processed,
        cancelled_events=sim.cancelled_events,
    )
