#!/bin/sh
# Distributed thousand-cell campaign: a lease-based coordinator forks
# local workers that claim, renew, and steal cost-sized fingerprint
# leases from one shared store -- then an extra late-joining worker
# attaches by hand, exactly as a second host would.
#
# The lease queue balances work dynamically: a slow, dead, or hung
# worker's lease lapses and a live peer steals it.  Every cell's RNG
# derives from (campaign seed, spec fingerprint), so no matter which
# worker runs a cell -- or how many times it is re-run after a steal --
# the store converges to records and a summary.json byte-identical to a
# serial `scenarios run` over the same matrix.
#
# Usage: examples/campaign_distributed.sh [STORE_DIR] [BASELINE_STORE]
set -e

STORE="sqlite:${1:-campaigns/distributed}"
BASELINE="${2:-}"
CAMPAIGN="$(dirname "$0")/campaign_thousand.json"

# The coordinator: plans leases over the missing cells, forks two
# supervised workers, respawns dead ones, reaps hung ones, and exits
# once every cell has a record.  Keep --lease-ttl comfortably above
# the slowest group kernel of one lease and the slowest cell's full
# attempt budget; renewals happen between cells only.
python -m repro.experiments.cli scenarios run \
    --campaign "$CAMPAIGN" \
    --store "$STORE" --resume \
    --coordinator 2 --lease-ttl 30 --retries 3 &
COORD=$!

# A late-joining worker (this is all a second host would run): it
# claims open leases from the same store until none remain.  The
# worker id only labels the lease/heartbeat ledgers.
sleep 2
python -m repro.experiments.cli scenarios work "$STORE" \
    --worker-id extra-1 --lease-ttl 30 --retries 3 || true

wait "$COORD"

# The lease ledger: per-lease worker, deaths, steals, disposition,
# plus the coordinator digest and the poison channel (if any).
python -m repro.experiments.cli scenarios report "$STORE"

if [ -n "$BASELINE" ]; then
    # CI gate: exit 1 on any soundness/perf-budget regression.
    python -m repro.experiments.cli scenarios diff --strict \
        "$BASELINE" "$STORE"
fi
