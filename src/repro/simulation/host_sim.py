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
from repro.core.adaptive import AdaptiveController, resolve_mode
from repro.simulation.batched import (
    PRIMED_DISCIPLINES,
    BatchMuxServer,
    BatchVacationComponent,
    _stagger_schedule,
    primed_host,
)
from repro.simulation.engine import Simulator
from repro.simulation.flow import PacketTrace
from repro.simulation.measures import DelayRecorder, DelayStats
from repro.simulation.mux_sim import MuxServer
from repro.simulation.packet import Packet
from repro.simulation.regulator_sim import TokenBucketComponent
from repro.utils.validation import check_positive

__all__ = [
    "HostResult",
    "simulate_regulated_host",
    "build_regulated_host",
    "inject_trace",
]

#: Control-mode strings accepted by the builders.
MODES = ("sigma-rho", "sigma-rho-lambda", "none", "adaptive")


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


def build_regulated_host(
    sim: Simulator,
    envelopes: Sequence[ArrivalEnvelope],
    sink,
    *,
    mode: str = "adaptive",
    capacity: float = 1.0,
    discipline: str = "priority",
    stagger_phase: float = 0.0,
):
    """Assemble regulators + MUX for one end host; return per-flow entry points.

    This is the evented pipeline of priority cells.  FIFO and
    adversarial cells never build it: their traffic is fully known, so
    they run the closed-form passes of :mod:`repro.simulation.batched`.
    It still wires FIFO hosts, the evented builder that
    :class:`~repro.simulation.loss.LossyLink` pipelines and the test
    oracle compose; only the adversarial discipline is rejected.

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
        ``"fifo"`` (a :class:`~repro.simulation.batched.BatchMuxServer`)
        or ``"priority"`` (a :class:`~repro.simulation.mux_sim.MuxServer`
        giving flow ``i`` priority ``i``, so the last flow is served
        last; a strict priority order cannot be committed ahead of
        arrivals).
    stagger_phase:
        Fraction of the stagger period added to every vacation-regulator
        offset (used by multi-hop chains to de-synchronise consecutive
        hosts' window schedules).

    Returns
    -------
    (entries, mux):
        ``entries`` -- one entry component per flow (regulator, or the
        MUX itself in mode ``"none"``); ``mux`` -- the MUX server.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    check_positive(capacity, "capacity")
    mode = resolve_mode(mode, envelopes, capacity)
    if discipline == "fifo":
        mux = BatchMuxServer(sim, capacity, sink)
    elif discipline == "priority":
        mux = MuxServer(
            sim, capacity, sink, discipline="priority",
            priorities={i: i for i in range(len(envelopes))},
        )
    else:
        raise ValueError(
            "evented hosts serve the 'fifo' or 'priority' discipline, got "
            f"{discipline!r} (adversarial hosts run closed form)"
        )
    if mode == "none":
        entries: list = [mux] * len(envelopes)
    elif mode == "sigma-rho":
        entries = [
            TokenBucketComponent(sim, e.sigma, e.rho / capacity, mux)
            for e in envelopes
        ]
    else:  # sigma-rho-lambda
        controller = AdaptiveController(envelopes, capacity)
        entries = [
            BatchVacationComponent(sim, reg, mux, offset=off, out_rate=capacity)
            for reg, off in zip(*_stagger_schedule(controller, stagger_phase))
        ]
    return entries, mux


def _serve_tagged_last(mux, discipline: str, k: int) -> None:
    """Under the priority discipline, make ``mux`` serve tagged flow 0
    last: the adversarial general MUX of chains and trees.
    :class:`MuxServer` serves lower values first, so flow 0 gets ``k``."""
    if discipline == "priority":
        mux.priorities = {0: k, **{f: f for f in range(1, k)}}


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
        ``"adversarial"``, ``"fifo"`` or ``"priority"``.  It alone picks
        the pipeline: all arrivals are known up front, so FIFO and
        adversarial cells collapse into the array fast path
        (:func:`repro.simulation.batched.primed_host`) -- token-bucket
        and vacation departures are both closed form, the MUX one
        merged pass -- with no event loop; priority cells run the
        evented pipeline of :func:`build_regulated_host` (a strict
        priority order cannot be committed ahead of arrivals).
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
    if discipline in PRIMED_DISCIPLINES:
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
    sim = Simulator()
    recorder = DelayRecorder(sim)
    entries, _mux = build_regulated_host(
        sim, envelopes, recorder, mode=mode, capacity=capacity,
        discipline=discipline, stagger_phase=stagger_phase,
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
