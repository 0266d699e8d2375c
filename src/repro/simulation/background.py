"""Co-existing background traffic (the paper's conclusion scenario).

"When the flow co-exist with other traffic, the number of input traffic
at the end host is changed and the flows' average input rate may be
increased or decreased for the changed traffic load. ... the same
process of adaptive control algorithm can be implemented to control the
traffic and its co-existed flows when the traffic priority is ignored."

:func:`simulate_host_with_background` realises that setting: the K
group flows pass their (adaptively chosen) regulators while additional
*background* flows enter the multiplexer unregulated.  The effective
capacity left for the groups shrinks by the background's sustained
rate, so the adaptive controller is handed the *residual* capacity --
exactly the paper's "average input rate may be increased ... for the
changed traffic load" adjustment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.calculus.envelope import ArrivalEnvelope
from repro.simulation.flow import PacketTrace
from repro.simulation.fluid import (
    _adversarial_worst,
    _default_drain_margin,
    _regulator_stage,
    _trace_cum,
    fluid_next_empty,
)
from repro.utils.validation import check_positive

__all__ = ["BackgroundResult", "simulate_host_with_background"]


@dataclass(frozen=True)
class BackgroundResult:
    """Outcome of a host simulation with co-existing background traffic."""

    mode: str
    worst_case_delay: float          #: worst over the regulated group flows
    per_flow_worst: tuple[float, ...]
    background_rate: float
    residual_capacity: float


def simulate_host_with_background(
    traces: Sequence[PacketTrace],
    envelopes: Sequence[ArrivalEnvelope],
    background_traces: Sequence[PacketTrace],
    background_rates: Sequence[float],
    *,
    mode: str = "adaptive",
    capacity: float = 1.0,
    dt: float = 1e-3,
    horizon: Optional[float] = None,
) -> BackgroundResult:
    """Group flows through regulators; background straight into the MUX.

    Parameters
    ----------
    traces, envelopes:
        The K group flows (as in
        :func:`repro.simulation.fluid.simulate_fluid_host`).
    background_traces, background_rates:
        Unregulated co-existing flows and their sustained rates; the
        adaptive controller sees only the residual capacity
        ``C - sum(background_rates)``.
    mode:
        ``"adaptive"`` (the paper's algorithm on the residual capacity)
        or an explicit regulator family.

    Returns
    -------
    BackgroundResult
        Adversarial (general-MUX) worst-case delays of the group flows;
        background flows are load, not measurement targets.
    """
    check_positive(capacity, "capacity")
    if len(traces) != len(envelopes):
        raise ValueError("traces and envelopes must align")
    if len(background_traces) != len(background_rates):
        raise ValueError("background traces and rates must align")
    bg_rate = float(sum(background_rates))
    residual = capacity - bg_rate
    if residual <= 0:
        raise ValueError(
            f"background rate {bg_rate} saturates the capacity {capacity}"
        )
    if horizon is None:
        horizon = max(
            float(tr.times[-1])
            for tr in [*traces, *background_traces] if len(tr)
        ) + dt
    margin = _default_drain_margin(envelopes, residual)
    total = horizon + margin
    n_bins = int(np.ceil(total / dt))
    t_grid = dt * np.arange(n_bins + 1)

    group_arr = [_trace_cum(tr, horizon, dt, total) for tr in traces]
    bg_arr = [_trace_cum(tr, horizon, dt, total) for tr in background_traces]
    # The regulators are sized against the residual capacity: the
    # controller normalises rho by what is actually available.
    eff_mode, shaped = _regulator_stage(
        group_arr, t_grid, envelopes, mode, residual, 0.0
    )
    agg = np.sum(shaped + bg_arr, axis=0) if bg_arr else np.sum(shaped, axis=0)
    next_empty = fluid_next_empty(t_grid, agg, capacity)
    per_flow = tuple(
        _adversarial_worst(t_grid, group_arr[f], shaped[f], next_empty)
        for f in range(len(traces))
    )
    return BackgroundResult(
        mode=eff_mode,
        worst_case_delay=max(per_flow),
        per_flow_worst=per_flow,
        background_rate=bg_rate,
        residual_capacity=residual,
    )
