"""The curated adversarial scenario corpus.

Hand-picked configurations that historically stress worst-case-bound
reproductions the hardest:

* **synchronised bursts** -- every group fed the same realisation (the
  paper's own evaluation setup), which aligns burst arrivals and pushes
  the measured worst case towards the analytic bound;
* **worst-phase regulator staggering** -- the vacation schedule shifted
  through the cycle, including the half-period phase where a burst
  lands just after its window closes (the ``2 lambda sigma / rho``
  term of Lemma 1 is exactly this wait);
* **heavy-load band** -- aggregate rates at the top of the Theorem 5
  band ``rho_bar in [1/K - 1/K^(n+1), 1/K)``, the regime the paper's
  ``O(K^n)`` improvement claim lives in;
* **staggered starts** -- synchronised streams skewed per flow so
  cross-traffic bursts collide with the tagged flow mid-chain;
* **multi-hop** -- Theorem-7 critical-path chains and a DSCT tree over
  a transit-stub underlay, in both backends;
* **an unstable cell** -- ``sum rho_i > C`` with infinite bounds, kept
  to pin the vacuous-soundness path of the batch runner.

Importing :mod:`repro.scenarios` registers the corpus.

Store-driven curation
---------------------
The hand-picked corpus above is static; campaigns generate thousands
of cells and record each one's *tightness* (measured / bound).  Cells
with tightness near 1 are exactly the adversarial configurations worth
keeping, so :func:`curate_records` promotes them from any result store
(v2 records carry the full spec), :func:`save_curated` /
:func:`load_curated` round-trip the promoted set through a JSON corpus
file, and ``scenarios curate`` / ``scenarios run --corpus FILE`` drive
the loop from the shell: sweep, promote, and re-run the promoted cells
as a standing regression corpus.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Iterable, Mapping, Optional, Sequence, Union

from repro.core.delay_bounds import theorem5_band
from repro.scenarios.spec import Scenario, scenario_from_dict

__all__ = [
    "adversarial_corpus",
    "curate_records",
    "save_curated",
    "load_curated",
]


def _heavy_band_utilization(k: int, n: int) -> float:
    """An aggregate utilisation at the top of the Theorem 5 band."""
    lo, hi = theorem5_band(k, n)
    return min(k * (lo + 0.8 * (hi - lo)), 0.96)


def adversarial_corpus() -> tuple[Scenario, ...]:
    """The curated corpus (fresh tuple; registration happens on import)."""
    scenarios = [
        # -- synchronised bursts (the paper's own setup) ----------------
        Scenario(
            name="sync-burst-video",
            kinds=("video",) * 3,
            utilization=0.9,
            mode="sigma-rho-lambda",
            seed=101,
            tags=("corpus", "sync-burst"),
        ),
        Scenario(
            name="sync-burst-audio",
            kinds=("audio",) * 3,
            utilization=0.85,
            mode="sigma-rho",
            seed=102,
            tags=("corpus", "sync-burst"),
        ),
        # -- worst-phase vacation staggering ----------------------------
        *(
            Scenario(
                name=f"worst-phase-{int(phase * 100):02d}",
                kinds=("video",) * 3,
                utilization=0.88,
                mode="sigma-rho-lambda",
                stagger_phase=phase,
                seed=103,
                tags=("corpus", "worst-phase"),
            )
            for phase in (0.25, 0.5, 0.75)
        ),
        # -- Theorem 5 heavy-load band ----------------------------------
        Scenario(
            name="heavy-band-k2-n2",
            kinds=("onoff",) * 2,
            utilization=_heavy_band_utilization(2, 2),
            mode="sigma-rho-lambda",
            seed=104,
            tags=("corpus", "heavy-band"),
        ),
        Scenario(
            name="heavy-band-k3-n2",
            kinds=("video",) * 3,
            utilization=_heavy_band_utilization(3, 2),
            mode="sigma-rho-lambda",
            seed=105,
            tags=("corpus", "heavy-band"),
        ),
        Scenario(
            name="heavy-band-k4-n1",
            kinds=("audio",) * 4,
            utilization=_heavy_band_utilization(4, 1),
            mode="sigma-rho-lambda",
            seed=106,
            tags=("corpus", "heavy-band"),
        ),
        # -- adversarial staggered starts -------------------------------
        Scenario(
            name="staggered-start-skew",
            kinds=("onoff",) * 4,
            utilization=0.8,
            mode="sigma-rho-lambda",
            start_offsets=(0.0, 0.05, 0.1, 0.15),
            seed=107,
            tags=("corpus", "staggered-start"),
        ),
        Scenario(
            name="staggered-start-video",
            kinds=("video",) * 3,
            utilization=0.75,
            mode="sigma-rho",
            start_offsets=(0.0, 0.02, 0.11),
            seed=108,
            tags=("corpus", "staggered-start"),
        ),
        # -- adaptive controller on both sides of the threshold ---------
        Scenario(
            name="adaptive-light",
            kinds=("video", "audio", "audio"),
            utilization=0.4,
            mode="adaptive",
            seed=109,
            tags=("corpus", "adaptive"),
        ),
        Scenario(
            name="adaptive-heavy",
            kinds=("video", "audio", "audio"),
            utilization=0.92,
            mode="adaptive",
            seed=110,
            tags=("corpus", "adaptive"),
        ),
        # -- multi-hop: Theorem-7 chains and a DSCT tree ----------------
        Scenario(
            name="chain-3hop-video",
            kinds=("video",) * 3,
            utilization=0.85,
            mode="sigma-rho-lambda",
            topology="chain",
            hops=3,
            propagation=0.005,
            seed=111,
            tags=("corpus", "chain"),
        ),
        Scenario(
            name="chain-2hop-hetero",
            kinds=("video", "onoff", "audio"),
            utilization=0.8,
            mode="sigma-rho",
            topology="chain",
            hops=2,
            seed=112,
            tags=("corpus", "chain"),
        ),
        Scenario(
            name="tree-dsct-16",
            kinds=("video",) * 3,
            utilization=0.8,
            mode="sigma-rho-lambda",
            topology="tree",
            tree_members=16,
            seed=113,
            tags=("corpus", "tree"),
        ),
        # -- whole-tree packet DES (no critical-path reduction) ---------
        Scenario(
            name="tree-des-full-12",
            kinds=("video", "audio", "audio"),
            utilization=0.75,
            mode="sigma-rho",
            topology="tree",
            tree_members=12,
            backend="tree_des",
            horizon=1.0,
            seed=118,
            tags=("corpus", "tree", "tree-des"),
        ),
        # -- packet-exact DES slice -------------------------------------
        Scenario(
            name="des-host-lambda",
            kinds=("video",) * 3,
            utilization=0.9,
            mode="sigma-rho-lambda",
            backend="des",
            seed=114,
            tags=("corpus", "des"),
        ),
        Scenario(
            name="des-host-sigma-rho",
            kinds=("audio",) * 3,
            utilization=0.8,
            mode="sigma-rho",
            backend="des",
            seed=115,
            tags=("corpus", "des"),
        ),
        Scenario(
            name="des-chain-2hop",
            kinds=("video",) * 3,
            utilization=0.8,
            mode="sigma-rho",
            topology="chain",
            hops=2,
            backend="des",
            seed=116,
            tags=("corpus", "des", "chain"),
        ),
        # -- unstable cell: infinite bounds, vacuously sound ------------
        Scenario(
            name="unstable-sigma-rho",
            kinds=("cbr",) * 3,
            utilization=1.05,
            mode="sigma-rho",
            horizon=1.0,
            seed=117,
            tags=("corpus", "unstable"),
        ),
    ]
    return tuple(scenarios)


# ----------------------------------------------------------------------
# Store-driven curation
# ----------------------------------------------------------------------
def curate_records(
    records: Iterable[Mapping[str, Any]],
    *,
    min_tightness: float = 0.9,
    limit: Optional[int] = None,
) -> list[Scenario]:
    """Promote store records with tightness close to 1 into scenarios.

    Selects sound, error-free records whose finite tightness
    (measured / bound) reaches ``min_tightness``, rebuilds their specs
    (v2 records carry the full spec; v1 records without one are
    skipped), and returns them sorted tightest-first, deduplicated by
    name, capped at ``limit``.

    Promoted specs are returned **unchanged**: every spec field (tags
    included) enters ``cell_key``/``spec_fingerprint``, so any
    decoration would re-key the cell -- re-running a curated corpus
    against the store it came from must resume/diff in perfect
    alignment with the original records.

    Unstable and error cells can never be promoted: their tightness is
    recorded as 0, and a malformed spec is skipped rather than raised
    (curation runs over real, possibly hand-edited stores).
    """
    if not 0.0 < min_tightness:
        raise ValueError(f"min_tightness must be > 0, got {min_tightness}")
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    candidates: list[tuple[float, Mapping[str, Any]]] = []
    for rec in records:
        if not isinstance(rec, Mapping) or rec.get("error"):
            continue
        if not rec.get("sound"):
            continue
        tightness = rec.get("tightness")
        if not isinstance(tightness, (int, float)):
            continue
        tightness = float(tightness)
        if not (tightness == tightness and tightness >= min_tightness):
            continue
        if not isinstance(rec.get("spec"), Mapping):
            continue  # v1 record: no spec to re-materialise
        candidates.append((tightness, rec))
    candidates.sort(key=lambda pair: -pair[0])
    promoted: list[Scenario] = []
    seen: set[str] = set()
    for tightness, rec in candidates:
        try:
            sc = scenario_from_dict(dict(rec["spec"]))
        except (TypeError, ValueError):
            continue  # drifted or hand-edited spec: skip, never raise
        if sc.name in seen:
            continue
        seen.add(sc.name)
        promoted.append(sc)
        if limit is not None and len(promoted) >= limit:
            break
    return promoted


def save_curated(
    scenarios: Sequence[Scenario], path: Union[str, Path]
) -> Path:
    """Write a curated corpus file (JSON, one spec per scenario)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "v": 1,
        "scenarios": [dataclasses.asdict(sc) for sc in scenarios],
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_curated(path: Union[str, Path]) -> tuple[Scenario, ...]:
    """Load a curated corpus file back into validated scenarios."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict) or "scenarios" not in payload:
        raise ValueError(
            f"curated corpus {path} must be a JSON object with 'scenarios'"
        )
    return tuple(
        scenario_from_dict(spec) for spec in payload["scenarios"]
    )
