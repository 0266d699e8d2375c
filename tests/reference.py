"""The per-cell reference evaluation: the oracle of the production path.

Production realises every cell through the batch realiser
(:func:`repro.scenarios.tracebatch.realise_batch`) and simulates it
through the cell matrix's one dispatch
(:func:`repro.scenarios.cellmatrix.simulate_cells`), group kernels
included.  This module keeps the earlier per-cell path as the oracle
both are compared against: one ``TrafficMix.generate_traces`` call and
one ``PacketTrace.empirical_sigma`` per flow (:func:`realise`), then
the scalar simulators of ``runner._simulate`` (:func:`reference_cell`).
It shares only ``runner._realise_from`` (backend fallback,
fragmentation, topology) and the ``CellResult`` constructor with
production.

It also keeps the store summary's earlier form, :func:`load_summary_bytes`:
``summary.json`` aggregated from a full ``load()``, the oracle of the
streamed ``ResultStore.write_summary``.
"""

from __future__ import annotations

import json
import math
from typing import Optional, Sequence

from repro.calculus.envelope import ArrivalEnvelope
from repro.scenarios.runner import (
    CellResult,
    _cell_result,
    _Realised,
    _realise_from,
    _simulate,
)
from repro.scenarios.spec import Scenario
from repro.simulation.flow import PacketTrace
from repro.utils.rng import derive_seed
from repro.workloads.profiles import DEFAULT_MTU


def realise_traces(
    sc: Scenario, mtu: Optional[float] = DEFAULT_MTU
) -> list[PacketTrace]:
    """Generate the per-flow packet traces (start skew applied)."""
    mix = sc.mix()
    traces = mix.generate_traces(
        sc.horizon,
        derive_seed(sc.seed, "scenario", sc.name),
        shared=sc.shared,
        mtu=mtu,
    )
    if sc.start_offsets:
        traces = [
            tr.shifted(off) if off > 0 else tr
            for tr, off in zip(traces, sc.start_offsets)
        ]
    return traces


def realise_envelopes(
    sc: Scenario, traces: Sequence[PacketTrace]
) -> list[ArrivalEnvelope]:
    """Empirical (sigma_i, rho_i) envelopes of the realised traces.

    The regulators are configured from these, and -- crucially for
    soundness -- the analytic bounds are evaluated on the *same*
    parameters, so every trace conforms to the envelope its bound
    assumes (time skew does not change burstiness).
    """
    mix = sc.mix()
    return [
        ArrivalEnvelope(max(tr.empirical_sigma(src.rate), 1e-9), src.rate)
        for tr, src in zip(traces, mix.sources)
    ]


def realise(sc: Scenario) -> _Realised:
    raw = realise_traces(sc, mtu=None)
    # Empirical envelopes are fragmentation-invariant (fragments share
    # the original emission times), so measure them once on raw traces.
    envelopes = realise_envelopes(sc, raw)
    return _realise_from(sc, raw, envelopes)


def reference_cell(sc: Scenario) -> CellResult:
    """``sc`` realised per cell and simulated by the scalar simulators."""
    r = realise(sc)
    return _cell_result(r, *_simulate(r))


def load_summary_bytes(store) -> bytes:
    """The ``summary.json`` bytes of ``store`` aggregated from every full
    record ``store.load()`` returns (quarantining as it goes)."""
    records = store.load()
    finite = [
        r["tightness"]
        for r in records.values()
        if isinstance(r.get("tightness"), (int, float))
        and not math.isnan(r["tightness"])
    ]
    summary = {
        "v": 2,
        "cells": len(records),
        "sound": sum(1 for r in records.values() if r.get("sound")),
        "unsound": sum(
            1
            for r in records.values()
            if not r.get("sound") and not r.get("error")
        ),
        "errors": sum(1 for r in records.values() if r.get("error")),
        "budget_violations": sum(
            1 for r in records.values() if r.get("budget_ok") is False
        ),
        "max_tightness": max(finite, default=0.0),
        "quarantined_rows": store.quarantined,
    }
    return (json.dumps(summary, indent=2) + "\n").encode()
