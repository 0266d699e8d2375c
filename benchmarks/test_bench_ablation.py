"""Ablation benches for the reproduction's main design choices.

1. **Cluster size base k** -- the paper fixes k = 3; sweep k in {2..5}
   and report the height/per-hop trade-off.
2. **MUX discipline** -- the theory holds for *any* work-conserving
   discipline; compare FIFO / priority / adversarial measurements and
   check the dominance ordering.
3. **Stagger policy** -- the (sigma, rho, lambda) gain at heavy load
   should come from *staggering* the vacations; compare the staggered
   plan against deliberately synchronised offsets.
4. **Fluid grid resolution** -- dt sensitivity of the measured WDB.
5. **Shared vs independent streams** -- the paper feeds identical
   streams to all groups; independent realisations de-synchronise the
   bursts and weaken the (sigma, rho) worst case.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import run_once
from repro.calculus.envelope import ArrivalEnvelope
from repro.core.adaptive import AdaptiveController
from repro.experiments.report import render_table
from repro.overlay.groups import MultiGroupNetwork
from repro.simulation.flow import VBRVideoSource
from repro.simulation.fluid import (
    fluid_mux,
    fluid_next_empty,
    fluid_vacation_regulator,
    simulate_fluid_host,
    _adversarial_worst,
)
from repro.topology.attach import attach_hosts
from repro.topology.backbone import fig5_backbone


def _scenario(u=0.9, k=3, horizon=15.0, seed=1):
    rho = u / k
    src = VBRVideoSource(rho)
    trace = src.generate(horizon, rng=seed).fragment(0.002)
    sigma = max(trace.empirical_sigma(rho), 1e-6)
    envs = [ArrivalEnvelope(sigma, rho)] * k
    return [trace] * k, envs


def test_ablation_cluster_k(benchmark, artifact_report):
    """Tree height vs k: larger clusters flatten the hierarchy."""
    bb = fig5_backbone()
    net = attach_hosts(bb, 665, rng=5)
    mgn = MultiGroupNetwork.fully_joined(net, 3, rng=5)

    def sweep():
        rows = []
        for k in (2, 3, 4, 5):
            trees = mgn.build_all_trees("dsct", k=k, rng=7)
            rows.append([k, max(t.height for t in trees),
                         float(np.mean([t.max_fanout() for t in trees]))])
        return rows

    rows = run_once(benchmark, sweep)
    artifact_report.append(
        render_table(["k", "max height", "mean max fan-out"], rows,
                     title="== Ablation: cluster size base k (DSCT, 665 hosts) ==")
    )
    heights = [r[1] for r in rows]
    assert heights[0] >= heights[-1]  # k=2 at least as tall as k=5


def test_ablation_mux_discipline(benchmark, artifact_report):
    """FIFO <= priority <= adversarial measured WDB on the same input."""
    traces, envs = _scenario()

    def measure():
        out = {}
        for disc in ("fifo", "priority", "adversarial"):
            res = simulate_fluid_host(
                traces, envs, mode="sigma-rho", discipline=disc, dt=1e-3
            )
            out[disc] = res.worst_case_delay
        return out

    out = run_once(benchmark, measure)
    artifact_report.append(
        render_table(["discipline", "WDB [s]"], [[d, v] for d, v in out.items()],
                     title="== Ablation: MUX discipline ((sigma,rho), u=0.9) ==")
    )
    assert out["fifo"] <= out["priority"] * 1.001 + 1e-3
    assert out["priority"] <= out["adversarial"] * 1.001 + 1e-3


def test_ablation_stagger_policy(benchmark, artifact_report):
    """Staggered vs synchronised vacations at heavy load.

    With synchronised offsets every flow's working window collides in
    the MUX; the staggered plan is the paper's mechanism and must be
    strictly better at heavy load.
    """
    traces, envs = _scenario(u=0.9)
    k = len(envs)
    dt = 1e-3
    horizon = float(traces[0].times[-1]) + dt

    def measure():
        ctrl = AdaptiveController(envs)
        plan = ctrl.build_stagger_plan()
        total = horizon + 30.0
        n = int(np.ceil(total / dt))
        t = dt * np.arange(n + 1)
        arrs = [
            np.concatenate(([0.0], np.cumsum(tr.binned_arrivals(dt, total))))
            for tr in traces
        ]
        out = {}
        for label, offsets in (
            ("staggered", plan.offsets),
            ("synchronised", tuple(0.0 for _ in plan.offsets)),
        ):
            shaped = [
                fluid_vacation_regulator(a, t, reg, offset=off)
                for a, reg, off in zip(arrs, plan.regulators, offsets)
            ]
            agg = np.sum(shaped, axis=0)
            ne = fluid_next_empty(t, agg, 1.0)
            worst = max(
                _adversarial_worst(t, arrs[f], shaped[f], ne) for f in range(k)
            )
            out[label] = worst
        return out

    out = run_once(benchmark, measure)
    artifact_report.append(
        render_table(["policy", "WDB [s]"], [[p, v] for p, v in out.items()],
                     title="== Ablation: vacation stagger policy (u=0.9) ==")
    )
    assert out["staggered"] < out["synchronised"]


def test_ablation_grid_resolution(benchmark, artifact_report):
    """The fluid WDB converges as dt shrinks (O(dt) quantisation)."""
    traces, envs = _scenario(u=0.8, horizon=8.0)

    def measure():
        return {
            dt: simulate_fluid_host(
                traces, envs, mode="sigma-rho", discipline="adversarial", dt=dt
            ).worst_case_delay
            for dt in (4e-3, 2e-3, 1e-3, 5e-4)
        }

    out = run_once(benchmark, measure)
    artifact_report.append(
        render_table(["dt", "WDB [s]"], [[f"{d:g}", v] for d, v in out.items()],
                     title="== Ablation: fluid grid resolution ==")
    )
    values = list(out.values())
    finest = values[-1]
    assert abs(values[-2] - finest) <= max(0.05 * finest, 4e-3)


def test_ablation_shared_vs_independent_streams(benchmark, artifact_report):
    """Independent per-group streams de-synchronise the bursts."""
    u, k = 0.9, 3
    rho = u / k
    src = VBRVideoSource(rho)
    shared_trace = src.generate(15.0, rng=11).fragment(0.002)
    indep = [src.generate(15.0, rng=100 + i).fragment(0.002) for i in range(k)]
    sigma = max(shared_trace.empirical_sigma(rho), 1e-6)
    envs = [ArrivalEnvelope(sigma, rho)] * k

    def measure():
        out = {}
        out["shared"] = simulate_fluid_host(
            [shared_trace] * k, envs, mode="sigma-rho",
            discipline="adversarial", dt=1e-3,
        ).worst_case_delay
        envs_i = [
            ArrivalEnvelope(max(tr.empirical_sigma(rho), 1e-6), rho)
            for tr in indep
        ]
        out["independent"] = simulate_fluid_host(
            indep, envs_i, mode="sigma-rho",
            discipline="adversarial", dt=1e-3,
        ).worst_case_delay
        return out

    out = run_once(benchmark, measure)
    artifact_report.append(
        render_table(["streams", "WDB [s]"], [[s, v] for s, v in out.items()],
                     title="== Ablation: shared vs independent group streams ==")
    )
    # Synchronised bursts realise the worse case.
    assert out["shared"] >= out["independent"] * 0.8
