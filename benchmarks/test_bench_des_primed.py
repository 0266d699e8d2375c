"""Primed fast-path benchmarks (the PR-5 tentpole numbers).

PR 3 made the vacation host cheap; PR 5 makes the *rest* of the DES
hot paths array-first: the sigma-rho host collapses into closed-form
token-bucket kernels, chain hop 0 resolves without an event loop, and
whole-tree replication commits one fanout event per busy period per
child with all cross traffic folded into the MUXes as zero-event
background trains.  These benchmarks measure exactly those cells (the
frozen ``BENCH_pr5.json`` at the repo root holds their history).

Floors (generous headroom under observed numbers so CI noise does not
flake; observed on the 1-core reference container: ~8-9x primed
sigma-rho host over the evented batched path, ~6-7x whole tree at 16
members and ~10-11x at 64 members over legacy):

* primed sigma-rho host >= 5x over the evented batched path;
* whole tree (16 members) >= 3x over legacy;
* whole tree (64 members) >= 3x over legacy.

The parallel-campaign section records ``cpu_count`` next to its
speedup and asserts the floor only on >= 4 cores (process parallelism
cannot win on fewer; the number is reported as-is there).
"""

from __future__ import annotations

import dataclasses
import os
import time

import pytest

from benchmarks.conftest import PARALLEL_JOBS, run_once
from repro.calculus.envelope import ArrivalEnvelope
from repro.runtime import CellCostModel, ProcessExecutor
from repro.scenarios import generate_scenarios, run_batch
from repro.simulation.flow import VBRVideoSource
from repro.simulation.host_sim import simulate_regulated_host
from repro.simulation.tree_sim import simulate_multicast_tree

#: Asserted floor: primed sigma-rho host vs the evented batched path.
SIGMA_RHO_PRIMED_FLOOR = 5.0
#: Asserted floor: whole-tree busy-period fanout vs the legacy engine.
TREE_SPEEDUP_FLOOR = 3.0
#: The parallel-campaign job count comes from benchmarks.conftest
#: (PARALLEL_JOBS): one constant drives the worker count, the floor
#: skip rule, and the context block's parallel_floors_asserted flag.


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
def sigma_rho_workload():
    rho = 0.3
    trace = VBRVideoSource(rho).generate(10.0, rng=1).fragment(0.002)
    envs = [ArrivalEnvelope(max(trace.empirical_sigma(rho), 1e-6), rho)] * 3
    return [trace] * 3, envs


def test_sigma_rho_host_primed_speedup(benchmark, bench_pr5, artifact_report,
                                       sigma_rho_workload):
    """The primed token-bucket host: closed-form departures + one
    merged adversarial MUX pass, no event loop at all."""
    traces, envs = sigma_rho_workload
    kwargs = dict(mode="sigma-rho", discipline="adversarial")
    t_evented, evented = _best_of(
        3, simulate_regulated_host, traces, envs, engine="evented", **kwargs
    )
    t_legacy, legacy = _best_of(
        3, simulate_regulated_host, traces, envs, engine="legacy", **kwargs
    )
    primed = run_once(
        benchmark, simulate_regulated_host, traces, envs,
        engine="batched", **kwargs,
    )
    t_primed, _ = _best_of(
        3, simulate_regulated_host, traces, envs, engine="batched", **kwargs
    )
    # sigma-rho adversarial cells are in the bit-identical class.
    assert primed.worst_case_delay == evented.worst_case_delay
    assert primed.worst_case_delay == legacy.worst_case_delay
    packets = sum(len(tr) for tr in traces)
    speedup = t_evented / t_primed
    bench_pr5["sigma_rho_host"] = {
        "packets": packets,
        "evented_seconds": round(t_evented, 5),
        "legacy_seconds": round(t_legacy, 5),
        "primed_seconds": round(t_primed, 5),
        "speedup_vs_evented_x": round(speedup, 2),
        "speedup_vs_legacy_x": round(t_legacy / t_primed, 2),
        "primed_packets_per_sec": round(packets / t_primed),
    }
    benchmark.extra_info.update(bench_pr5["sigma_rho_host"])
    artifact_report.append(
        "== Primed DES: sigma-rho host ==\n"
        f"packets: {packets}\n"
        f"legacy:  {t_legacy * 1e3:.1f} ms\n"
        f"evented: {t_evented * 1e3:.1f} ms\n"
        f"primed:  {t_primed * 1e3:.1f} ms "
        f"({packets / t_primed / 1e3:.0f}k packets/s)\n"
        f"speedup: {speedup:.1f}x vs evented, "
        f"{t_legacy / t_primed:.1f}x vs legacy"
    )
    assert speedup >= SIGMA_RHO_PRIMED_FLOOR, (
        f"primed sigma-rho host only {speedup:.2f}x over the evented path"
    )


def _tree_fixture(members: int, horizon: float):
    from repro.overlay.groups import MultiGroupNetwork
    from repro.topology.attach import attach_hosts
    from repro.topology.transit_stub import transit_stub_backbone

    g = transit_stub_backbone(3, 2, 3, rng=1)
    net = attach_hosts(g, members, rng=2)
    mgn = MultiGroupNetwork.fully_joined(net, 3, rng=3)
    tree = mgn.build_tree(0, "dsct", rng=4)
    traces = [
        VBRVideoSource(0.25).generate(horizon, rng=i).fragment(0.002)
        for i in range(3)
    ]
    envs = [
        ArrivalEnvelope(max(t.empirical_sigma(0.25), 1e-6), 0.25)
        for t in traces
    ]
    return ([tree] * 3, 0, traces, envs, mgn.latency), tree.size


@pytest.mark.parametrize("members,horizon,rounds", [(16, 1.5, 3), (64, 1.5, 2)])
def test_tree_busy_period_fanout_speedup(bench_pr5, artifact_report,
                                         members, horizon, rounds):
    """Whole-tree DES with busy-period replication and background-folded
    cross traffic, against the legacy per-packet chain."""
    args, size = _tree_fixture(members, horizon)
    kwargs = dict(mode="sigma-rho", discipline="adversarial")
    t_legacy, legacy = _best_of(
        rounds, simulate_multicast_tree, *args, engine="legacy", **kwargs
    )
    t_batched, batched = _best_of(
        rounds, simulate_multicast_tree, *args, engine="batched", **kwargs
    )
    for host, worst in batched.per_receiver_worst.items():
        assert worst <= legacy.per_receiver_worst[host] + 1e-15
    speedup = t_legacy / t_batched
    bench_pr5[f"tree_des_{members}"] = {
        "members": size,
        "legacy_seconds": round(t_legacy, 5),
        "batched_seconds": round(t_batched, 5),
        "speedup_x": round(speedup, 2),
        "legacy_events": legacy.events,
        "batched_events": batched.events,
    }
    artifact_report.append(
        f"== Primed DES: whole tree ({size} members) ==\n"
        f"legacy:  {t_legacy * 1e3:.1f} ms ({legacy.events} events)\n"
        f"batched: {t_batched * 1e3:.1f} ms ({batched.events} events)\n"
        f"speedup: {speedup:.2f}x"
    )
    assert speedup >= TREE_SPEEDUP_FLOOR, (
        f"{size}-member tree batched engine only {speedup:.2f}x over legacy"
    )


def _des_forced_matrix(count: int):
    """Generated host/chain cells forced onto the DES backend; the
    default adversarial discipline routes them to the primed paths."""
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


def test_primed_campaign_cells_per_sec(bench_pr5, artifact_report):
    """DES-forced campaign throughput on the primed paths, plus the
    cost-scheduled parallel speedup with its cpu_count context."""
    cells = _des_forced_matrix(48)
    t0 = time.perf_counter()
    serial = run_batch(cells)
    serial_elapsed = time.perf_counter() - t0
    assert not serial.violations
    jobs = PARALLEL_JOBS
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
    bench_pr5["des_campaign"] = {
        "cells": len(cells),
        "serial_seconds": round(serial_elapsed, 3),
        "serial_cells_per_sec": round(serial.scenarios_per_sec, 1),
        "parallel_jobs": jobs,
        "parallel_seconds": round(parallel_elapsed, 3),
        "parallel_cells_per_sec": round(parallel.scenarios_per_sec, 1),
        "parallel_speedup_x": round(speedup, 2),
        "cpu_count": cores,
        "floor_asserted": cores >= jobs,
    }
    artifact_report.append(
        "== DES-forced campaign (48 cells, primed paths) ==\n"
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
