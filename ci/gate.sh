#!/usr/bin/env bash
# Nightly/CI baseline gate: run the tier-1 smoke campaign (the same
# 24-cell matrix tests/test_runtime_campaign.py keeps alive) against
# the pinned baseline store checked in at ci/baseline_smoke, and fail
# on any soundness or perf-budget regression.  Then re-run the same
# matrix serially -- the grouped (structure-of-arrays) evaluator with
# batch realisation, the only in-process path -- on both store
# backends and require each summary to match the pinned baseline byte
# for byte: the grouped path's bit-identity contract, gated end to end.
#
# Usage: ci/gate.sh [STORE_DIR]
#   STORE_DIR  where to write the fresh campaign store
#              (default: a temporary directory)
#
# Exit status: 0 when the campaign is clean AND the diff against the
# pinned baseline shows no regression AND the serial grouped
# summaries match it byte for byte AND every cell record of every
# store the gate writes (pool, serial, telemetry-off, chaos and
# coordinator runs) carries the baseline's measured/bound/
# baseline_bound/eps/sound values AND telemetry collection is invisible
# to summaries (telemetry-on == telemetry-off == pinned baseline,
# byte for byte, with `scenarios report` rendering the telemetry-on
# store); 1 otherwise (the CLI's --baseline flag gates the first part
# in one shot).
#
# To re-pin the baseline after an intentional change:
#   PYTHONPATH=src python -m repro.experiments.cli scenarios run \
#     --count 24 --seed 11 --no-corpus --store ci/baseline_smoke
set -euo pipefail
cd "$(dirname "$0")/.."

STORE="${1:-$(mktemp -d)/smoke}"

# Per-cell values, not only the summary (which holds verdict counts and
# max tightness): each store named must hold exactly the baseline's
# cell keys, with equal measured/bound/baseline_bound/eps/sound in
# every record.  Usage: per_cell_gate LABEL STORE...
per_cell_gate() {
  PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python - "$@" <<'EOF'
import json
import sys

from repro.runtime import open_store

FIELDS = ("measured", "bound", "baseline_bound", "eps", "sound")


def rows(target):
    records = open_store(target, must_exist=True).load()
    # json renders floats exactly (and NaN/inf as tokens), so equal
    # strings mean bit-equal values.
    return {k: json.dumps([r.get(f) for f in FIELDS]) for k, r in records.items()}


label, targets = sys.argv[1], sys.argv[2:]
baseline = rows("ci/baseline_smoke")
for target in targets:
    fresh = rows(target)
    if fresh.keys() != baseline.keys():
        print(f"per-cell gate: FAILED ({target}: cell keys differ from the baseline)",
              file=sys.stderr)
        sys.exit(1)
    drifted = sorted(k for k in fresh if fresh[k] != baseline[k])
    if drifted:
        print(f"per-cell gate: FAILED ({target}: {len(drifted)} cells drifted, "
              f"first {drifted[0]}: {fresh[drifted[0]]} != {baseline[drifted[0]]})",
              file=sys.stderr)
        sys.exit(1)
print(f"per-cell gate: clean ({label}: {len(baseline)} cells equal the pinned "
      f"baseline in each of {len(targets)} store(s))")
EOF
}

PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.experiments.cli \
  scenarios run \
  --count 24 --seed 11 --no-corpus \
  --jobs 2 \
  --store "$STORE" \
  --baseline ci/baseline_smoke

echo "baseline gate: clean (store: $STORE)"

# Serial grouped path vs the pinned baseline: the same matrix with no
# --jobs (grouped evaluation, batch realisation), on both store
# backends, byte-identical summary.json required.
SERIAL_DIR="$(mktemp -d)"
for backend in jsonl sqlite; do
  PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.experiments.cli \
    scenarios run \
    --count 24 --seed 11 --no-corpus \
    --store "$backend:$SERIAL_DIR/$backend" >/dev/null
  if ! cmp "$SERIAL_DIR/$backend/summary.json" ci/baseline_smoke/summary.json; then
    echo "grouped gate: FAILED ($backend serial summary drifted from pinned baseline)" >&2
    exit 1
  fi
done
echo "grouped gate: clean (serial grouped == pinned baseline, both backends)"

per_cell_gate "pool and serial" \
  "$STORE" "jsonl:$SERIAL_DIR/jsonl" "sqlite:$SERIAL_DIR/sqlite"

# Telemetry invisibility: collection is on by default, so the smoke
# store above already carries telemetry; a --no-telemetry rerun of the
# same matrix must produce a byte-identical summary.json, and both
# must still match the pinned baseline byte for byte (telemetry never
# leaks into the determinism surface).
TEL_DIR="$(mktemp -d)"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.experiments.cli \
  scenarios run \
  --count 24 --seed 11 --no-corpus \
  --jobs 2 --no-telemetry \
  --store "$TEL_DIR/off" >/dev/null
if ! cmp "$STORE/summary.json" "$TEL_DIR/off/summary.json"; then
  echo "telemetry gate: FAILED (telemetry-on and -off summaries differ)" >&2
  exit 1
fi
if ! cmp "$STORE/summary.json" ci/baseline_smoke/summary.json; then
  echo "telemetry gate: FAILED (summary drifted from pinned baseline)" >&2
  exit 1
fi
if [ -e "$TEL_DIR/off/telemetry.jsonl" ]; then
  echo "telemetry gate: FAILED (--no-telemetry store has telemetry.jsonl)" >&2
  exit 1
fi
per_cell_gate "telemetry off" "$TEL_DIR/off"

# The report lens must render the telemetry the smoke run collected.
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.experiments.cli \
  scenarios report "$STORE" \
  | grep "Phase breakdown per backend" >/dev/null || {
  echo "telemetry gate: FAILED (scenarios report missing phase breakdown)" >&2
  exit 1
}
echo "telemetry gate: clean (on == off == pinned baseline, report renders)"

# -- chaos gate: retries never change results ------------------------------
# Re-run the same 24-cell smoke under deterministic fault injection
# (worker kills, kernel raises, delays, torn/failed store writes at a
# >=10% rate) with bounded retries.  The campaign must recover every
# cell and write a summary.json byte-identical to the pinned baseline
# -- on both store backends.  This is the PR 8 invariant: cell seeds
# derive from the spec alone, so retries are invisible to results.
CHAOS_DIR="$(mktemp -d)"
for backend in jsonl sqlite; do
  PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.experiments.cli \
    scenarios run \
    --count 24 --seed 11 --no-corpus \
    --jobs 2 \
    --retries 3 --cell-timeout 30 --inject-faults 7:0.15 \
    --store "$backend:$CHAOS_DIR/$backend" >/dev/null
  if ! cmp "$CHAOS_DIR/$backend/summary.json" ci/baseline_smoke/summary.json; then
    echo "chaos gate: FAILED ($backend summary diverged under fault injection)" >&2
    exit 1
  fi
done
per_cell_gate "chaos" "jsonl:$CHAOS_DIR/jsonl" "sqlite:$CHAOS_DIR/sqlite"
echo "chaos gate: clean (fault-injected summaries byte-identical, both backends)"

# -- coordinator chaos gate: leases never change results -------------------
# The same 24-cell smoke through the lease-based coordinator: 2
# workers, deterministic fault injection SIGKILLing workers mid-lease
# (real kills -- `scenarios work` arms them).  Expired leases must be
# stolen, split, and re-run until the store converges to a
# summary.json byte-identical to the pinned baseline -- on both store
# backends -- and `scenarios report` must render the lease ledger the
# recovery left behind.
COORD_DIR="$(mktemp -d)"
for backend in jsonl sqlite; do
  PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.experiments.cli \
    scenarios run \
    --count 24 --seed 11 --no-corpus \
    --coordinator 2 --lease-ttl 5 \
    --retries 3 --inject-faults 7:0.15 \
    --store "$backend:$COORD_DIR/$backend" >/dev/null
  if ! cmp "$COORD_DIR/$backend/summary.json" ci/baseline_smoke/summary.json; then
    echo "coordinator gate: FAILED ($backend summary diverged under worker kills)" >&2
    exit 1
  fi
done
per_cell_gate "coordinator" "jsonl:$COORD_DIR/jsonl" "sqlite:$COORD_DIR/sqlite"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.experiments.cli \
  scenarios report "sqlite:$COORD_DIR/sqlite" \
  | grep "Lease ledger" >/dev/null || {
  echo "coordinator gate: FAILED (scenarios report missing lease ledger)" >&2
  exit 1
}
echo "coordinator gate: clean (worker-killing chaos byte-identical, both backends)"
