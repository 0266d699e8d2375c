#!/usr/bin/env bash
# Nightly/CI baseline gate: run the tier-1 smoke campaign (the same
# 24-cell matrix tests/test_runtime_campaign.py keeps alive) against
# the pinned baseline store checked in at ci/baseline_smoke, and fail
# on any soundness or perf-budget regression.  Then re-run the same
# matrix serially -- the grouped (structure-of-arrays) evaluator with
# batch realisation, the only in-process path -- on both store
# backends and require each summary to match the pinned baseline byte
# for byte: the grouped path's bit-identity contract, gated end to end.
# Each serial store, and the pool run's workers, must also report all
# 24 cells grouped.
#
# Usage: ci/gate.sh [STORE_DIR]
#   STORE_DIR  where to write the fresh campaign store
#              (default: a temporary directory)
#
# Exit status: 0 when the campaign is clean AND the diff against the
# pinned baseline shows no regression AND the pool run's cell
# telemetry counts all 24 cells grouped in its workers AND the serial
# grouped
# summaries match it byte for byte AND each serial store's
# grouping_summary reports all 24 cells grouped (the smoke matrix's
# chains and trees are adversarial fluid cells, which the chain group
# takes, so a silent fallback shows) AND a clean --coordinator 2 run
# on both backends matches the baseline byte for byte with all 24 cells
# grouped in its lease workers AND every cell record of every
# store the gate writes (pool, serial, telemetry-off, chaos and
# coordinator runs) carries the baseline's measured/bound/
# baseline_bound/eps/sound values AND telemetry collection is invisible
# to summaries (telemetry-on == telemetry-off == pinned baseline,
# byte for byte, with `scenarios report` rendering the telemetry-on
# store) AND `scenarios report` renders the retry ledger of both chaos
# pool stores and the lease and retry ledgers of both chaos coordinator
# stores AND the DES corpus, run serially and with --jobs 2, matches
# ci/baseline_des the same way AND a 600-cell matrix, which spans
# three 256-cell slices serially, writes the same summary.json and
# per-cell values serially and with --jobs 2, with all 600 cells in the
# serial store's grouping_summary, AND re-summarising copies of both
# pinned stores with the current code writes their pinned summary.json
# byte for byte; 1 otherwise (the CLI's --baseline flag gates the first
# part in one shot).
#
# To re-pin the baseline after an intentional change:
#   PYTHONPATH=src python -m repro.experiments.cli scenarios run \
#     --count 24 --seed 11 --no-corpus --store ci/baseline_smoke
#
# The smoke matrix is all fluid cells, so a second leg gates the packet
# DES: the 44 cells of ci/des_corpus.json, run serially and with
# --jobs 2 against the pinned ci/baseline_des store.  In file order,
# from generate_scenarios(200, seed=11, horizon=0.8): the first 24
# non-tree cells forced to backend "des" (every 4th one FIFO, the rest
# adversarial); the first 4 tree cells as tree_des sigma-rho cells (the
# 4th FIFO); the next 8 non-tree cells forced to "des" with the
# priority discipline; the 5th-8th tree cells as tree_des sigma-rho
# FIFO cells; the 9th-12th tree cells as tree_des sigma-rho priority
# cells.  Forcing a backend also renames its tag.  Both
# summaries must match the baseline byte for byte, and every record its
# measured/bound/baseline_bound/eps/sound.  The corpus file is a
# save_curated file: build the cells above, reseed each with
# derive_seed(11, "cell", spec_fingerprint(cell)), pass them to
# repro.scenarios.corpus.save_curated, then re-pin with
#   PYTHONPATH=src python -m repro.experiments.cli scenarios run \
#     --count 0 --no-corpus --corpus ci/des_corpus.json --no-telemetry \
#     --store ci/baseline_des --resume
# (--resume keeps the records already pinned and appends new cells).
set -euo pipefail
cd "$(dirname "$0")/.."

STORE="${1:-$(mktemp -d)/smoke}"

# Per-cell values, not only the summary (which holds verdict counts and
# max tightness): each store named must hold exactly the baseline's
# cell keys, with equal measured/bound/baseline_bound/eps/sound in
# every record.  Usage: per_cell_gate LABEL BASELINE STORE...
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


label, pinned, targets = sys.argv[1], sys.argv[2], sys.argv[3:]
baseline = rows(pinned)
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

# `scenarios report` on a store must render every named section (the
# ledgers a recovery leaves behind, on both backends and both paths).
# Usage: report_gate LABEL STORE SECTION...
report_gate() {
  local label="$1" target="$2" report section
  shift 2
  report="$(PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.experiments.cli \
    scenarios report "$target")"
  for section in "$@"; do
    if ! grep -qF "$section" <<<"$report"; then
      echo "$label: FAILED (scenarios report on $target missing $section)" >&2
      exit 1
    fi
  done
}

PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.experiments.cli \
  scenarios run \
  --count 24 --seed 11 --no-corpus \
  --jobs 2 \
  --store "$STORE" \
  --baseline ci/baseline_smoke

echo "baseline gate: clean (store: $STORE)"

# The pool must group too: each --jobs worker evaluates its chunk
# through the grouped cell matrix, so the cell telemetry of the pool
# run above must count all 24 smoke cells grouped.  Results are the
# same either way, so a silent return to per-cell evaluation would
# pass every other leg.
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python - "$STORE" <<'EOF'
import sys

from repro.runtime import open_store

target = sys.argv[1]
grouped = sum(
    r.get("counters", {}).get("grouped_cells", 0)
    for r in open_store(target, must_exist=True).load_telemetry()
    if r.get("kind") == "cell"
)
if grouped != 24:
    print(f"pool grouping gate: FAILED ({target}: {grouped} of 24 cells "
          f"grouped in the pool workers)", file=sys.stderr)
    sys.exit(1)
EOF
echo "pool grouping gate: clean (24 of 24 smoke cells grouped in the pool workers)"

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

# Every smoke cell must run in a group kernel: the matrix's 14 hosts
# join the fluid host packs and its 6 chains and 4 trees (all
# adversarial fluid cells) the chain group, so a cell that silently
# falls back to per-cell simulation fails here.
for backend in jsonl sqlite; do
  PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python - "$backend:$SERIAL_DIR/$backend" <<'EOF'
import sys

from repro.runtime import open_store

target = sys.argv[1]
summaries = [
    r for r in open_store(target, must_exist=True).load_telemetry()
    if r.get("kind") == "grouping_summary"
]
if not summaries:
    print(f"grouping gate: FAILED ({target}: no grouping_summary record)", file=sys.stderr)
    sys.exit(1)
s = summaries[-1]
if (s.get("grouped_cells"), s.get("cells")) != (24, 24):
    print(f"grouping gate: FAILED ({target}: {s.get('grouped_cells')} of "
          f"{s.get('cells')} cells grouped, fallbacks {s.get('fallback_reasons')})",
          file=sys.stderr)
    sys.exit(1)
EOF
done
echo "grouping gate: clean (24 of 24 smoke cells grouped, both backends)"

per_cell_gate "pool and serial" ci/baseline_smoke \
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
per_cell_gate "telemetry off" ci/baseline_smoke "$TEL_DIR/off"

# The report lens must render the telemetry the smoke run collected.
report_gate "telemetry gate" "$STORE" "Phase breakdown per backend"
echo "telemetry gate: clean (on == off == pinned baseline, report renders)"

# -- chaos gate: retries never change results ------------------------------
# Re-run the same 24-cell smoke under deterministic fault injection
# (worker kills, kernel raises, delays, torn/failed store writes at a
# >=10% rate) with bounded retries.  The campaign must recover every
# cell and write a summary.json byte-identical to the pinned baseline
# -- on both store backends -- and `scenarios report` must render the
# retry ledger each store's recovery left.  This is the campaign
# invariant: cell seeds derive from the spec alone, so retries are
# invisible to results.
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
per_cell_gate "chaos" ci/baseline_smoke "jsonl:$CHAOS_DIR/jsonl" "sqlite:$CHAOS_DIR/sqlite"
for backend in jsonl sqlite; do
  report_gate "chaos gate" "$backend:$CHAOS_DIR/$backend" "Retry ledger"
done
echo "chaos gate: clean (fault-injected summaries byte-identical, retry ledgers render, both backends)"

# -- clean coordinator gate: grouped leases keep the serial bytes ----------
# The same 24-cell smoke through the lease coordinator with no faults:
# its 2 forked workers evaluate each lease through the grouped cell
# matrix (the chaos leg below runs cell by cell, because an armed fault
# plan forces that path).  Both backends must write the pinned
# summary.json byte for byte and every record's verdict fields, and
# the workers' cell telemetry must show all 24 cells grouped.
CLEAN_COORD_DIR="$(mktemp -d)"
for backend in jsonl sqlite; do
  PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.experiments.cli \
    scenarios run \
    --count 24 --seed 11 --no-corpus \
    --coordinator 2 \
    --store "$backend:$CLEAN_COORD_DIR/$backend" >/dev/null
  if ! cmp "$CLEAN_COORD_DIR/$backend/summary.json" ci/baseline_smoke/summary.json; then
    echo "clean coordinator gate: FAILED ($backend summary drifted from pinned baseline)" >&2
    exit 1
  fi
  PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python - "$backend:$CLEAN_COORD_DIR/$backend" <<'EOF'
import sys

from repro.runtime import open_store

target = sys.argv[1]
grouped = sum(
    r.get("counters", {}).get("grouped_cells", 0)
    for r in open_store(target, must_exist=True).load_telemetry()
    if r.get("kind") == "cell"
)
if grouped != 24:
    print(f"clean coordinator gate: FAILED ({target}: {grouped} of 24 cells "
          f"grouped in the lease workers)", file=sys.stderr)
    sys.exit(1)
EOF
done
per_cell_gate "clean coordinator" ci/baseline_smoke \
  "jsonl:$CLEAN_COORD_DIR/jsonl" "sqlite:$CLEAN_COORD_DIR/sqlite"
echo "clean coordinator gate: clean (grouped leases byte-identical, both backends)"

# -- coordinator chaos gate: leases never change results -------------------
# The same 24-cell smoke through the lease-based coordinator: 2
# workers, deterministic fault injection SIGKILLing workers mid-lease
# (real kills -- the forked workers arm them).  Expired leases must be
# stolen, split, and re-run until the store converges to a
# summary.json byte-identical to the pinned baseline -- on both store
# backends -- and `scenarios report` must render, on both, the lease
# and retry ledgers the recovery left behind.
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
per_cell_gate "coordinator" ci/baseline_smoke "jsonl:$COORD_DIR/jsonl" "sqlite:$COORD_DIR/sqlite"
for backend in jsonl sqlite; do
  report_gate "coordinator gate" "$backend:$COORD_DIR/$backend" \
    "Lease ledger" "Retry ledger"
done
echo "coordinator gate: clean (worker-killing chaos byte-identical, ledgers render, both backends)"

# -- DES gate: the packet simulators against their pinned baseline ---------
# The curated DES corpus (hosts, chains and whole trees; adversarial and
# FIFO) serially and through the process pool.  Each run gates against
# ci/baseline_des (--baseline), must write its summary.json byte for
# byte, and must reproduce every record's verdict fields.
DES_DIR="$(mktemp -d)"
for run in serial jobs2; do
  jobs=""
  if [ "$run" = jobs2 ]; then
    jobs="--jobs 2"
  fi
  # shellcheck disable=SC2086  # $jobs is empty or two words
  PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.experiments.cli \
    scenarios run \
    --count 0 --no-corpus --corpus ci/des_corpus.json $jobs \
    --store "$DES_DIR/$run" \
    --baseline ci/baseline_des >/dev/null
  if ! cmp "$DES_DIR/$run/summary.json" ci/baseline_des/summary.json; then
    echo "DES gate: FAILED ($run summary drifted from pinned baseline)" >&2
    exit 1
  fi
done
per_cell_gate "DES corpus" ci/baseline_des "$DES_DIR/serial" "$DES_DIR/jobs2"
echo "DES gate: clean (serial and --jobs 2 byte-identical to ci/baseline_des)"

# -- slice gate: a serial run that spans several slices -------------------
# Both matrices above fit in one SLICE_CELLS (256-cell) slice.  600
# cells span 3 slices serially, and chunks of at most 16 cells with
# --jobs 2: the two stores must write the same summary.json and the same
# per-cell values, and the serial store's grouping_summary must count
# all 600 cells, summed over its slices.
SLICE_DIR="$(mktemp -d)"
for run in serial jobs2; do
  jobs=""
  if [ "$run" = jobs2 ]; then
    jobs="--jobs 2"
  fi
  # shellcheck disable=SC2086  # $jobs is empty or two words
  PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro.experiments.cli \
    scenarios run \
    --count 600 --seed 11 --no-corpus $jobs \
    --store "$SLICE_DIR/$run" >/dev/null 2>&1
done
if ! cmp "$SLICE_DIR/serial/summary.json" "$SLICE_DIR/jobs2/summary.json"; then
  echo "slice gate: FAILED (serial and --jobs 2 summaries of 600 cells differ)" >&2
  exit 1
fi
per_cell_gate "slices" "$SLICE_DIR/serial" "$SLICE_DIR/jobs2"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python - "$SLICE_DIR/serial" <<'EOF'
import sys

from repro.runtime import open_store

target = sys.argv[1]
summaries = [
    r for r in open_store(target, must_exist=True).load_telemetry()
    if r.get("kind") == "grouping_summary"
]
counts = [(s.get("cells"), s.get("batch_realised_cells")) for s in summaries]
if counts != [(600, 600)]:
    print(f"slice gate: FAILED ({target}: grouping_summary (cells, realised) "
          f"{counts}, expected [(600, 600)])", file=sys.stderr)
    sys.exit(1)
EOF
echo "slice gate: clean (600 cells: serial slices == --jobs 2 chunks, all 600 in the grouping summary)"

# -- re-summarise gate: the streamed summary on stores earlier code wrote --
# write_summary reads a store one record at a time.  Copies of both
# pinned stores, their summary.json removed, are re-summarised with the
# current code and must reproduce the pinned summary.json byte for byte.
RESUM_DIR="$(mktemp -d)"
for pinned in baseline_smoke baseline_des; do
  cp -r "ci/$pinned" "$RESUM_DIR/$pinned"
  rm "$RESUM_DIR/$pinned/summary.json"
  PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -c \
    'import sys; from repro.runtime import open_store; open_store(sys.argv[1], must_exist=True).write_summary()' \
    "$RESUM_DIR/$pinned"
  if ! cmp "$RESUM_DIR/$pinned/summary.json" "ci/$pinned/summary.json"; then
    echo "re-summarise gate: FAILED (ci/$pinned re-summarised differently)" >&2
    exit 1
  fi
done
echo "re-summarise gate: clean (both pinned stores re-summarise byte for byte)"
