"""Batched-vs-legacy DES engine benchmarks (the PR-3 tentpole numbers).

The expensive scenario cells are DES-backed: vacation-regulator hosts
and whole-tree runs dominate campaign wall-clock (the ROADMAP's
10-100x observation).  These benchmarks measure exactly those cells on
both engines and assert the batched engine's speedup floors (events/sec,
cells/sec, campaign wall-clock, parallel speedup; the frozen
``BENCH_pr3.json`` at the repo root holds their history).

Timing uses best-of-N wall clocks around the same calls both engines
get; the floors leave generous headroom under the observed numbers so
CI noise does not flake (observed: ~15-30x on the vacation host,
~1.5-2x on whole trees).
"""

from __future__ import annotations

import dataclasses
import os
import time

import pytest

from benchmarks.conftest import run_once
from repro.calculus.envelope import ArrivalEnvelope
from repro.runtime import CellCostModel, ProcessExecutor
from repro.scenarios import generate_scenarios, run_batch
from repro.simulation.flow import VBRVideoSource
from repro.simulation.host_sim import simulate_regulated_host
from repro.simulation.tree_sim import simulate_multicast_tree

#: Asserted speedup floor for the vacation-regulator host cell.
VACATION_SPEEDUP_FLOOR = 5.0
#: Asserted speedup floor for the whole-tree cell (replication-bound:
#: per-packet child-fanout events are irreducible, so gains are
#: engine-overhead only; observed ~1.5x, floor kept low for CI noise).
TREE_SPEEDUP_FLOOR = 1.1


def _best_of(n: int, fn, *args, **kwargs):
    """(best wall seconds, last result) over ``n`` runs."""
    best = float("inf")
    result = None
    for _ in range(n):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best, result


@pytest.fixture(scope="module")
def vacation_workload():
    rho = 0.3
    trace = VBRVideoSource(rho).generate(10.0, rng=1).fragment(0.002)
    envs = [ArrivalEnvelope(max(trace.empirical_sigma(rho), 1e-6), rho)] * 3
    return [trace] * 3, envs


def test_vacation_host_batched_speedup(benchmark, bench_pr3, artifact_report,
                                       vacation_workload):
    """The dearest scenario family: staggered vacation regulators into
    the adversarial general MUX.  The batched engine collapses it into
    the primed window-kernel fast path."""
    traces, envs = vacation_workload
    kwargs = dict(mode="sigma-rho-lambda", discipline="adversarial")
    t_legacy, legacy = _best_of(
        3, simulate_regulated_host, traces, envs, engine="legacy", **kwargs
    )
    batched = run_once(
        benchmark, simulate_regulated_host, traces, envs,
        engine="batched", **kwargs,
    )
    t_batched, _ = _best_of(
        3, simulate_regulated_host, traces, envs, engine="batched", **kwargs
    )
    assert batched.worst_case_delay <= legacy.worst_case_delay + 1e-15
    packets = sum(len(tr) for tr in traces)
    speedup = t_legacy / t_batched
    legacy_events_per_sec = (legacy.events + legacy.cancelled_events) / t_legacy
    packets_per_sec = packets / t_batched
    bench_pr3["vacation_host"] = {
        "packets": packets,
        "legacy_seconds": round(t_legacy, 5),
        "batched_seconds": round(t_batched, 5),
        "speedup_x": round(speedup, 2),
        "legacy_events": legacy.events,
        "batched_events": batched.events,
        "legacy_events_per_sec": round(legacy_events_per_sec),
        "batched_packets_per_sec": round(packets_per_sec),
    }
    benchmark.extra_info.update(bench_pr3["vacation_host"])
    artifact_report.append(
        "== Batched DES: vacation-regulator host ==\n"
        f"packets: {packets}\n"
        f"legacy:  {t_legacy * 1e3:.1f} ms ({legacy.events} events, "
        f"{legacy_events_per_sec / 1e3:.0f}k ev/s)\n"
        f"batched: {t_batched * 1e3:.1f} ms ({batched.events} batch events, "
        f"{packets_per_sec / 1e3:.0f}k packets/s)\n"
        f"speedup: {speedup:.1f}x"
    )
    assert speedup >= VACATION_SPEEDUP_FLOOR, (
        f"vacation-host batched engine only {speedup:.2f}x over legacy"
    )


def test_tree_des_batched_speedup(bench_pr3, artifact_report):
    """Whole-tree DES: every member runs the full pipeline for all K
    flows; the batched MUX removes the per-packet finish events."""
    from repro.overlay.groups import MultiGroupNetwork
    from repro.topology.attach import attach_hosts
    from repro.topology.transit_stub import transit_stub_backbone

    g = transit_stub_backbone(3, 2, 3, rng=1)
    net = attach_hosts(g, 16, rng=2)
    mgn = MultiGroupNetwork.fully_joined(net, 3, rng=3)
    tree = mgn.build_tree(0, "dsct", rng=4)
    traces = [
        VBRVideoSource(0.25).generate(1.5, rng=i).fragment(0.002)
        for i in range(3)
    ]
    envs = [
        ArrivalEnvelope(max(t.empirical_sigma(0.25), 1e-6), 0.25)
        for t in traces
    ]
    args = ([tree] * 3, 0, traces, envs, mgn.latency)
    kwargs = dict(mode="sigma-rho", discipline="adversarial")
    t_legacy, legacy = _best_of(
        3, simulate_multicast_tree, *args, engine="legacy", **kwargs
    )
    t_batched, batched = _best_of(
        3, simulate_multicast_tree, *args, engine="batched", **kwargs
    )
    for host, worst in batched.per_receiver_worst.items():
        assert worst <= legacy.per_receiver_worst[host] + 1e-15
    speedup = t_legacy / t_batched
    bench_pr3["tree_des"] = {
        "members": tree.size,
        "legacy_seconds": round(t_legacy, 5),
        "batched_seconds": round(t_batched, 5),
        "speedup_x": round(speedup, 2),
        "legacy_events_per_sec": round(legacy.events / t_legacy),
        "batched_events_per_sec": round(batched.events / t_batched),
    }
    artifact_report.append(
        "== Batched DES: whole-tree (16 members) ==\n"
        f"legacy:  {t_legacy * 1e3:.1f} ms ({legacy.events} events)\n"
        f"batched: {t_batched * 1e3:.1f} ms ({batched.events} events)\n"
        f"speedup: {speedup:.2f}x"
    )
    assert speedup >= TREE_SPEEDUP_FLOOR, (
        f"tree_des batched engine only {speedup:.2f}x over legacy"
    )


def _des_heavy_matrix(count: int):
    """A generated matrix forced onto the DES backend (host/chain)."""
    cells = []
    for sc in generate_scenarios(count * 2, seed=11, horizon=0.8):
        if sc.topology == "tree":
            continue
        cells.append(
            dataclasses.replace(sc, backend="des", mode="sigma-rho")
        )
        if len(cells) == count:
            break
    return cells


def test_des_campaign_cells_per_sec(bench_pr3, artifact_report):
    """DES-heavy campaign throughput plus cost-scheduled parallel speedup."""
    cells = _des_heavy_matrix(48)
    t0 = time.perf_counter()
    serial = run_batch(cells)
    serial_elapsed = time.perf_counter() - t0
    assert not serial.violations
    jobs = 4
    cores = os.cpu_count() or 1
    t0 = time.perf_counter()
    parallel = run_batch(
        cells,
        executor=ProcessExecutor(jobs=jobs),
        cost_model=CellCostModel(),
    )
    parallel_elapsed = time.perf_counter() - t0
    assert not parallel.violations
    assert [o.measured for o in parallel.outcomes] == [
        o.measured for o in serial.outcomes
    ]
    speedup = serial_elapsed / parallel_elapsed
    bench_pr3["des_campaign"] = {
        "cells": len(cells),
        "serial_seconds": round(serial_elapsed, 3),
        "serial_cells_per_sec": round(serial.scenarios_per_sec, 1),
        "parallel_jobs": jobs,
        "parallel_seconds": round(parallel_elapsed, 3),
        "parallel_cells_per_sec": round(parallel.scenarios_per_sec, 1),
        "parallel_speedup_x": round(speedup, 2),
        # Context next to the number it qualifies: a sub-1x speedup on
        # a box with fewer cores than jobs is expected, not a
        # regression, and the floor is only asserted on >= 4 cores.
        "cpu_count": cores,
        "floor_asserted": cores >= jobs,
    }
    artifact_report.append(
        "== DES-heavy campaign (48 cells, cost-scheduled) ==\n"
        f"serial:   {serial.scenarios_per_sec:.1f} cells/s "
        f"({serial_elapsed:.2f}s)\n"
        f"parallel: {parallel.scenarios_per_sec:.1f} cells/s "
        f"({parallel_elapsed:.2f}s, {jobs} jobs, {cores} cores)\n"
        f"speedup:  {speedup:.2f}x"
        + ("" if cores >= jobs else "  (floor not asserted: too few cores)")
    )
    if cores >= jobs:
        assert speedup >= 1.3, (
            f"cost-scheduled {jobs}-job campaign only {speedup:.2f}x"
        )


@pytest.mark.scenario
def test_thousand_cell_campaign_wall_clock(bench_pr3, artifact_report):
    """The full 1024-cell campaign wall-clock (opt-in: ``-m scenario``)."""
    from repro.runtime import CampaignConfig, build_campaign, run_campaign

    config = CampaignConfig.from_file(
        os.path.join(os.path.dirname(__file__), "..",
                     "examples", "campaign_thousand.json")
    )
    scenarios = build_campaign(config)
    jobs = min(4, os.cpu_count() or 1)
    t0 = time.perf_counter()
    campaign = run_campaign(
        scenarios, executor=ProcessExecutor(jobs=jobs), cost_model="auto"
    )
    elapsed = time.perf_counter() - t0
    assert campaign.clean
    bench_pr3["thousand_cell_campaign"] = {
        "cells": len(scenarios),
        "jobs": jobs,
        "wall_seconds": round(elapsed, 2),
        "cells_per_sec": round(len(scenarios) / elapsed, 1),
    }
    artifact_report.append(
        "== Thousand-cell campaign ==\n"
        f"{len(scenarios)} cells, {jobs} jobs: {elapsed:.1f}s "
        f"({len(scenarios) / elapsed:.1f} cells/s)"
    )
