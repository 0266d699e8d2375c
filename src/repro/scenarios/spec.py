"""Declarative scenario specifications and the scenario registry.

A :class:`Scenario` is a single frozen record that composes everything
one analytic-vs-simulation cross-validation cell needs:

* **workload** -- per-flow stream kinds (the paper's audio/video plus
  the generic CBR / Poisson / on-off families), the aggregate
  utilisation, trace sharing (synchronised bursts) and optional
  per-flow start-time skew (adversarial staggered starts);
* **regulator configuration** -- control mode ((sigma, rho),
  (sigma, rho, lambda) or the adaptive algorithm) and the vacation
  stagger phase (the bounds hold for *any* phase, so scenarios sweep it
  adversarially);
* **topology** -- a single regulated host, a Theorem-7 critical-path
  chain, or a DSCT tree built over a transit-stub underlay whose
  critical path is reduced to a chain;
* **execution** -- backend (vectorised fluid or packet DES), horizon,
  grid resolution and seed.

Scenarios are *specs*, not runs: :mod:`repro.scenarios.tracebatch`
realises their traces, and :mod:`repro.scenarios.runner` evaluates the
analytic side in one vectorised pass and the simulated side per
scenario, and issues the soundness verdict ``measured <= bound + eps``.

The module also hosts the process-wide registry the curated corpus
(:mod:`repro.scenarios.corpus`) and the CLI ``scenarios list`` use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.calculus.envelope import ArrivalEnvelope
from repro.core.adaptive import resolve_mode
from repro.utils.validation import (
    check_non_negative,
    check_non_negative_int,
    check_positive,
    check_positive_int,
)
from repro.workloads.profiles import MIX_KINDS, TrafficMix, make_mix

__all__ = [
    "TOPOLOGIES",
    "BACKENDS",
    "DISCIPLINES",
    "SCENARIO_MODES",
    "Scenario",
    "scenario_from_dict",
    "register_scenario",
    "get_scenario",
    "registered_scenarios",
    "scenario_names",
    "clear_registry",
]

#: Topology families a scenario can request.
TOPOLOGIES = ("host", "chain", "tree")
#: Simulation backends.  ``tree_des`` runs the packet DES over the
#: *whole* DSCT tree (replication at every member) instead of the
#: critical-path chain reduction.  Both DES backends run closed-form
#: passes in every discipline.
BACKENDS = ("fluid", "des", "tree_des")
#: MUX service disciplines of the measurement.
DISCIPLINES = ("adversarial", "fifo", "priority")
#: Control modes (``adaptive`` resolves per realisation).
SCENARIO_MODES = ("sigma-rho", "sigma-rho-lambda", "adaptive")


@dataclass(frozen=True)
class Scenario:
    """One declarative cross-validation scenario.

    Attributes
    ----------
    name:
        Unique label (registry key; shows up in reports and test ids).
    kinds:
        Per-flow stream kinds, one entry per group flow
        (:data:`repro.workloads.profiles.MIX_KINDS`).
    utilization:
        Aggregate sustained rate ``sum_i rho_i / C``.  Unstable values
        are legal with ``mode="sigma-rho"`` only (their bounds are
        infinite, so the cells are vacuously sound): the staggered
        vacation regulators of ``"sigma-rho-lambda"`` and
        ``"adaptive"`` (which resolves to lambda above 1) need
        ``utilization <= 1``, and ``< 1`` for a single flow.
    mode:
        Regulator family, or ``"adaptive"`` to let the controller pick.
    topology:
        ``"host"`` -- the Fig.-3 single regulated host; ``"chain"`` --
        a Theorem-7 critical path of ``hops`` regulated hosts; ``"tree"``
        -- a DSCT tree over a transit-stub underlay, reduced to its
        critical path by the runner.
    hops:
        Chain length (``topology="chain"`` only; 1 elsewhere).
    tree_members:
        Group size for ``topology="tree"`` (0 elsewhere).
    backend:
        ``"fluid"`` (vectorised, default), ``"des"`` (packet-exact on
        the critical-path reduction) or ``"tree_des"`` (packet-exact
        over the whole DSCT tree with per-member replication; requires
        ``topology="tree"`` and ``mode="sigma-rho"`` -- the vacation
        window fit of the (sigma, rho, lambda) DES regulator does not
        scale to a hundred member pipelines).
    discipline:
        Worst-case service discipline for the measurement; the default
        adversarial accounting realises the general-MUX worst case.
    horizon:
        Traffic injection window in seconds.
    dt:
        Fluid grid resolution (ignored by the DES backend).
    seed:
        Base seed; all randomness is derived from it via
        :func:`repro.utils.rng.derive_seed`.
    shared:
        Reuse one realisation per stream kind (the paper's synchronised
        bursts -- the adversarial default).
    stagger_phase:
        Fraction of the stagger period added to every vacation-regulator
        offset, in ``[0, 1)``.
    start_offsets:
        Optional per-flow start-time skew in seconds (adversarial
        staggered starts); empty means no skew.
    propagation:
        Per-hop underlay propagation delay (chain topology only, 0
        elsewhere; tree scenarios derive it from the underlay instead).
    capacity:
        Output link capacity ``C``.
    perf_budget:
        Optional wall-clock budget for realising + simulating this
        cell, in seconds (0 disables).  The runtime flags cells over
        budget as perf regressions -- a verdict on the *simulator*,
        separate from the soundness verdict on the bounds.
    tags:
        Free-form labels (``scenarios list`` filters on them).
    """

    name: str
    kinds: tuple[str, ...]
    utilization: float
    mode: str = "sigma-rho-lambda"
    topology: str = "host"
    hops: int = 1
    tree_members: int = 0
    backend: str = "fluid"
    discipline: str = "adversarial"
    horizon: float = 2.0
    dt: float = 2e-3
    seed: int = 0
    shared: bool = True
    stagger_phase: float = 0.0
    start_offsets: tuple[float, ...] = ()
    propagation: float = 0.0
    capacity: float = 1.0
    perf_budget: float = 0.0
    tags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a scenario needs a name")
        if not self.kinds:
            raise ValueError("a scenario needs at least one flow kind")
        for kind in self.kinds:
            if kind not in MIX_KINDS:
                raise ValueError(
                    f"unknown stream kind {kind!r}; expected one of {MIX_KINDS}"
                )
        check_positive(self.utilization, "utilization")
        if self.mode not in SCENARIO_MODES:
            raise ValueError(
                f"mode must be one of {SCENARIO_MODES}, got {self.mode!r}"
            )
        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"topology must be one of {TOPOLOGIES}, got {self.topology!r}"
            )
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if self.discipline not in DISCIPLINES:
            raise ValueError(
                f"discipline must be one of {DISCIPLINES}, "
                f"got {self.discipline!r}"
            )
        # Past full load the vacation windows cannot tile the stagger
        # period (a single flow's rho must stay below 1), so the cell
        # would fail inside the regulator.
        k = len(self.kinds)
        if self.mode != "sigma-rho" and (
            self.utilization > 1.0 or (k == 1 and self.utilization >= 1.0)
        ):
            raise ValueError(
                f"utilization={self.utilization} overloads mode "
                f"{self.mode!r} with K={k}: its vacation regulators need "
                f"utilization {'< 1' if k == 1 else '<= 1'}; "
                f"use mode='sigma-rho' for unstable cells"
            )
        # Exact types: True and 1.0 would run seed 1's computation (or
        # fail inside realisation) under a different cell key.
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise TypeError(f"seed must be an int, got {self.seed!r}")
        if not isinstance(self.shared, bool):
            raise TypeError(f"shared must be a bool, got {self.shared!r}")
        if not isinstance(self.tags, tuple) or not all(
            isinstance(tag, str) for tag in self.tags
        ):
            raise TypeError(
                f"tags must be a tuple of strings, got {self.tags!r}"
            )
        check_positive_int(self.hops, "hops")
        check_non_negative_int(self.tree_members, "tree_members")
        if self.topology == "tree" and self.tree_members < 4:
            raise ValueError("tree scenarios need tree_members >= 4")
        if self.backend == "tree_des":
            if self.topology != "tree":
                raise ValueError(
                    f"backend {self.backend!r} requires topology 'tree'"
                )
            if self.mode != "sigma-rho":
                raise ValueError(
                    f"backend {self.backend!r} requires mode 'sigma-rho'"
                )
        check_positive(self.horizon, "horizon")
        check_positive(self.dt, "dt")
        check_positive(self.capacity, "capacity")
        if not 0.0 <= self.stagger_phase < 1.0:
            raise ValueError(
                f"stagger_phase must lie in [0, 1), got {self.stagger_phase}"
            )
        if self.start_offsets:
            if len(self.start_offsets) != len(self.kinds):
                raise ValueError("start_offsets must have one entry per flow")
            for i, off in enumerate(self.start_offsets):
                check_non_negative(off, f"start_offsets[{i}]")
        check_non_negative(self.propagation, "propagation")
        check_non_negative(self.perf_budget, "perf_budget")
        # A field the topology ignores would run the default's
        # computation under a different cell key.
        if self.topology != "chain":
            if self.hops != 1:
                raise ValueError(
                    f"hops applies to topology 'chain' only, got "
                    f"hops={self.hops} on topology {self.topology!r}"
                )
            if self.propagation != 0.0:
                raise ValueError(
                    f"propagation applies to topology 'chain' only, got "
                    f"propagation={self.propagation} on topology "
                    f"{self.topology!r}"
                )
        if self.topology != "tree" and self.tree_members != 0:
            raise ValueError(
                f"tree_members applies to topology 'tree' only, got "
                f"tree_members={self.tree_members} on topology "
                f"{self.topology!r}"
            )

    # -- derived ---------------------------------------------------------
    @property
    def k(self) -> int:
        """Number of group flows at each regulated host."""
        return len(self.kinds)

    @property
    def is_homogeneous(self) -> bool:
        return len(set(self.kinds)) == 1

    # -- realisation ------------------------------------------------------
    def mix(self) -> TrafficMix:
        """The workload as a utilisation-scaled :class:`TrafficMix`."""
        return make_mix(self.name, self.kinds).at_utilization(
            self.utilization, self.capacity
        )

    def effective_mode(self, envelopes: Sequence[ArrivalEnvelope]) -> str:
        """Resolve ``"adaptive"`` exactly the way the simulators do."""
        return resolve_mode(self.mode, envelopes, self.capacity)


#: Scenario fields serialised as JSON arrays that the dataclass holds
#: as tuples (JSON round-trips lose the distinction).
_TUPLE_FIELDS = ("kinds", "start_offsets", "tags")


def scenario_from_dict(payload: dict) -> Scenario:
    """Rebuild a :class:`Scenario` from its ``dataclasses.asdict`` form.

    The inverse of the ``spec`` field stored in campaign records
    (:func:`repro.runtime.campaign.outcome_record`): JSON arrays are
    restored to the tuples the frozen dataclass expects, unknown keys
    are rejected (a spec that drifted past this code version must not
    silently drop fields), and full ``__post_init__`` validation runs.
    """
    if not isinstance(payload, dict):
        raise TypeError(
            f"scenario payload must be a dict, got {type(payload).__name__}"
        )
    from dataclasses import fields as dc_fields

    known = {f.name for f in dc_fields(Scenario)}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ValueError(
            f"scenario payload has unknown keys {unknown}; "
            f"expected a subset of {sorted(known)}"
        )
    kwargs = dict(payload)
    for name in _TUPLE_FIELDS:
        if name in kwargs and isinstance(kwargs[name], list):
            kwargs[name] = tuple(kwargs[name])
    return Scenario(**kwargs)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, Scenario] = {}


def register_scenario(scenario: Scenario, *, replace: bool = False) -> Scenario:
    """Add a scenario to the process-wide registry (returned unchanged)."""
    if not replace and scenario.name in _REGISTRY:
        raise ValueError(f"scenario {scenario.name!r} is already registered")
    _REGISTRY[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def registered_scenarios(tag: Optional[str] = None) -> list[Scenario]:
    """All registered scenarios (optionally filtered by tag), name-sorted."""
    out = [
        sc
        for _, sc in sorted(_REGISTRY.items())
        if tag is None or tag in sc.tags
    ]
    return out


def scenario_names() -> list[str]:
    return sorted(_REGISTRY)


def clear_registry() -> None:
    """Empty the registry (test isolation helper)."""
    _REGISTRY.clear()
