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

Every flow's trace is known up front, so the host runs no event loop
under any MUX discipline: regulators and MUX are the closed-form passes
of :func:`repro.simulation.batched.primed_host`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.calculus.envelope import ArrivalEnvelope
from repro.core.adaptive import resolve_mode
from repro.simulation.batched import primed_host
from repro.simulation.flow import PacketTrace
from repro.simulation.measures import DelayStats

__all__ = ["HostResult", "simulate_regulated_host"]

#: Control-mode strings accepted by the simulators.
MODES = ("sigma-rho", "sigma-rho-lambda", "none", "adaptive")


@dataclass(frozen=True)
class HostResult:
    """Outcome of a single-host simulation."""

    mode: str
    worst_case_delay: float
    per_flow: tuple[DelayStats, ...]
    events: int
    #: Cancelled events popped off an event heap; 0 here, where no
    #: event loop runs (campaign records keep the field).
    cancelled_events: int = 0
    #: Whether the cell resolved on a closed-form primed fast path
    #: (no event loop); the cost model prices primed cells separately.
    primed: bool = False

    def worst_flow(self) -> int:
        """Index of the flow with the largest worst-case delay."""
        return max(range(len(self.per_flow)), key=lambda i: self.per_flow[i].worst)


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
) -> HostResult:
    """Run the Fig.-3 topology: K flows through one regulated host.

    Parameters
    ----------
    traces:
        One packet trace per flow (same indices as ``envelopes``).
    envelopes:
        Per-flow (sigma, rho) descriptions used to configure regulators.
    discipline:
        ``"adversarial"``, ``"fifo"`` or ``"priority"`` (flow ``i`` at
        priority ``i``, so the last flow is served last).  All arrivals
        are known up front, so every discipline collapses into the
        array fast path (:func:`repro.simulation.batched.primed_host`)
        -- token-bucket and vacation departures are both closed form,
        the MUX one merged pass -- with no event loop.
    stagger_phase:
        Fraction of the stagger period added to every vacation-regulator
        offset (the bounds hold for *any* phase; adversarial scenario
        tests sweep it).
    horizon:
        Injection stops here (defaults to the longest trace).
    drain:
        Keep running after the horizon until every queued packet is
        delivered, so worst-case delays are not truncated.

    Returns
    -------
    HostResult
        Worst-case delay over all flows and per-flow statistics.
    """
    if len(traces) != len(envelopes):
        raise ValueError("traces and envelopes must align")
    if not traces:
        raise ValueError("at least one flow is required")
    effective_mode = resolve_mode(mode, envelopes, capacity)
    if horizon is None:
        horizon = max(tr.times[-1] + 1e-9 for tr in traces if len(tr))
    restricted = [tr.restrict(horizon) for tr in traces]
    outcome = primed_host(
        [(tr.times, tr.sizes) for tr in restricted],
        envelopes,
        effective_mode,
        discipline=discipline,
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
