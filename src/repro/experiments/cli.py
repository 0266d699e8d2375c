"""Command-line entry point: ``repro-experiments <experiment>``.

Regenerates any paper artefact from the shell::

    repro-experiments fig4b            # Fig 4(b): 3 video streams, one host
    repro-experiments fig6a --quick    # Fig 6(a) at reduced scale
    repro-experiments table2           # Table II
    repro-experiments theory           # thresholds + improvement ratios
    repro-experiments all --quick      # everything, CI scale

and drives the scenario-matrix cross-validation subsystem::

    repro-experiments scenarios list                     # curated corpus
    repro-experiments scenarios run --count 200 --seed 0 # matrix sweep
    repro-experiments scenarios run \\
        --campaign examples/campaign_thousand.json \\
        --jobs 4 --store campaigns/nightly --resume      # process pool
    repro-experiments scenarios run \\
        --campaign examples/campaign_thousand.json \\
        --store sqlite:campaigns/shared --coordinator 4  # lease workers
    repro-experiments scenarios work sqlite:campaigns/shared \\
        --worker-id host2-a                              # late joiner
    repro-experiments scenarios diff campaigns/a campaigns/b
    repro-experiments scenarios curate campaigns/nightly \\
        --out corpus_curated.json                        # promote tight cells

Stores are named by URL or path: ``sqlite:DIR`` opens the WAL-mode
SQLite backend (the store for concurrent coordinator workers),
``jsonl:DIR`` the append-only JSONL directory, and a bare path
auto-detects whichever backend already lives there (JSONL for fresh
directories).

Output is plain text shaped like the paper's figures/tables; the
``scenarios run`` exit status is non-zero when any soundness or
perf-budget verdict fails (or, with ``--baseline STORE``, on any
regression against that pinned store), and ``scenarios diff`` is
non-zero on any soundness/perf-budget regression between the two
campaign stores -- with ``--strict``, also on baseline cells missing
from the candidate -- so both gate CI directly.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.config import Fig4Config, Fig6Config, TableConfig
from repro.experiments.multigroup import run_fig6
from repro.experiments.report import format_series, render_table
from repro.experiments.single_host import run_fig4
from repro.experiments.theory import (
    height_bound_table,
    improvement_ratio_table,
    threshold_table,
)
from repro.experiments.trees import run_tree_table
from repro.workloads.profiles import AUDIO_MIX, HETEROGENEOUS_MIX, VIDEO_MIX

_FIG_MIXES = {"a": AUDIO_MIX, "b": VIDEO_MIX, "c": HETEROGENEOUS_MIX}
_TABLE_MIXES = {"1": "3xaudio", "2": "3xvideo", "3": "1video+2audio"}

EXPERIMENTS = (
    "fig4a", "fig4b", "fig4c",
    "fig6a", "fig6b", "fig6c",
    "table1", "table2", "table3",
    "theory", "validate", "all",
)

#: Subcommand families dispatched before the flat experiment parser.
SUBCOMMANDS = ("scenarios",)


def _print_validation(quick: bool) -> None:
    from repro.experiments.validation import validate_bounds

    cells = validate_bounds(
        utilizations=(0.6, 0.9) if quick else (0.5, 0.7, 0.9),
        horizon=5.0 if quick else 10.0,
    )
    headers = ["mix", "mode", "u", "measured", "bound", "tightness", "sound"]
    rows = [
        [c.mix_name, c.mode, c.utilization, c.measured, c.bound,
         c.tightness, "yes" if c.sound else "NO"]
        for c in cells
    ]
    print(render_table(headers, rows,
                       title="== Measured vs analytic bounds =="))
    unsound = [c for c in cells if not c.sound]
    print(f"unsound cells: {len(unsound)}")


def _print_fig4(panel: str, quick: bool) -> None:
    config = Fig4Config.quick() if quick else Fig4Config()
    mix = _FIG_MIXES[panel]
    res = run_fig4(mix, config)
    print(f"== Figure 4({panel}) -- {res.mix_name}, single regulated host ==")
    print("utilization:  " + " ".join(f"{u:7.2f}" for u in res.utilizations))
    print(format_series("(sigma,rho) WDB [s]", res.utilizations, res.sigma_rho_series))
    print(format_series("(sigma,rho,lambda) WDB [s]", res.utilizations,
                        res.sigma_rho_lambda_series))
    print(f"crossover (simulated threshold): {res.crossover}")
    print(f"theoretical aggregate threshold: "
          f"{res.theoretical_threshold_aggregate:.3f}")
    print(f"max improvement: {res.max_improvement:.2f}x at "
          f"{res.max_improvement_at}")


def _print_fig6(panel: str, quick: bool) -> None:
    config = Fig6Config.quick() if quick else Fig6Config()
    mix = _FIG_MIXES[panel]
    res = run_fig6(mix, config)
    print(f"== Figure 6({panel}) -- {res.mix_name}, multi-group network ==")
    print("utilization:  " + " ".join(f"{u:7.2f}" for u in res.utilizations))
    for scheme in res.schemes:
        print(format_series(scheme, res.utilizations, res.series(scheme)))
    print(f"DSCT crossover (simulated threshold): {res.crossover_dsct}")
    print(f"theoretical aggregate threshold: "
          f"{res.theoretical_threshold_aggregate:.3f}")
    print(f"max DSCT improvement: {res.max_improvement_dsct:.2f}x")


def _print_table(which: str, quick: bool) -> None:
    config = TableConfig.quick() if quick else TableConfig()
    res = run_tree_table(_TABLE_MIXES[which], config)
    headers = ["scheme", *(f"{u:.2f}" for u in res.utilizations)]
    print(render_table(headers, res.rows(),
                       title=f"== Table {which} -- {res.mix_name} =="))
    print(f"capacity-aware grows with rate: {res.capacity_aware_grows}")
    print(f"regulated height constant:      {res.regulated_constant}")


def _print_theory() -> None:
    tt = threshold_table()
    headers = ["K", "hom K*rho*", "het K*rho*", "het quadratic"]
    rows = [
        [r["k"], r["homogeneous"], r["heterogeneous"], r["heterogeneous_quadratic"]]
        for r in tt["rows"]
    ]
    print(render_table(headers, rows, title="== Rate thresholds (Theorems 3/4) ==",
                       float_fmt="{:.4f}"))
    print(f"limits: homogeneous {tt['limit_homogeneous']:.4f} "
          f"(0.73C), heterogeneous {tt['limit_heterogeneous']:.4f} (0.79C)")
    print(f"control ranges: hom {tt['control_range_homogeneous']:.4f} (~0.27), "
          f"het {tt['control_range_heterogeneous']:.4f} (~0.21)")
    irt = improvement_ratio_table()
    headers = ["K", "n", "rho", "ratio Dg/D^g", "O(K^n) lower bound"]
    rows = [[r["k"], r["n"], r["rho"], r["ratio"], r["lower_bound"]] for r in irt]
    print(render_table(headers, rows,
                       title="== Improvement ratio (Theorems 5/6) ==",
                       float_fmt="{:.4f}"))
    hbt = height_bound_table()
    headers = ["n", "k", "height bound (Lemma 2)"]
    rows = [[r["n"], r["k"], r["height_bound"]] for r in hbt]
    print(render_table(headers, rows, title="== DSCT height bound (Lemma 2) =="))


def executor_for_jobs(jobs: int):
    """``scenarios run --jobs N``'s executor: ``None`` (in process) for
    one job, else the process pool."""
    from repro.runtime import ProcessExecutor

    return None if jobs == 1 else ProcessExecutor(jobs=jobs)


def _scenarios_main(argv: list[str]) -> int:
    """The ``scenarios`` subcommand: batched cross-validation at scale."""
    import dataclasses
    import json

    from repro.runtime import (
        CampaignConfig,
        backend_profile,
        build_campaign,
        diff_stores,
        open_store,
        outcome_record,
        run_campaign,
    )
    from repro.scenarios import (
        adversarial_corpus,
        curate_records,
        generate_scenarios,
        load_curated,
        registered_scenarios,
        save_curated,
    )

    parser = argparse.ArgumentParser(
        prog="repro-experiments scenarios",
        description="Batched analytic-vs-simulation scenario matrix.",
    )
    sub = parser.add_subparsers(dest="action", required=True)
    p_run = sub.add_parser("run", help="evaluate a scenario matrix")
    p_run.add_argument(
        "--count", type=int, default=50,
        help="number of generated scenarios (default 50)",
    )
    p_run.add_argument("--seed", type=int, default=0, help="generator seed")
    p_run.add_argument(
        "--campaign", default=None, metavar="FILE",
        help="JSON campaign config (replaces --count/--seed generation "
        "and skips the corpus)",
    )
    p_run.add_argument(
        "--jobs", type=int, default=1,
        help="process-pool workers (default 1: serial)",
    )
    p_run.add_argument(
        "--store", default=None, metavar="URL",
        help="persistent result store: a directory (JSONL), sqlite:DIR "
        "(WAL-mode SQLite, safe for concurrent coordinator workers), or "
        "jsonl:DIR",
    )
    p_run.add_argument(
        "--resume", action="store_true",
        help="skip cells already completed in --store",
    )
    p_run.add_argument(
        "--baseline", default=None, metavar="URL",
        help="pinned baseline store: after the run, diff the --store "
        "against it and fail on any soundness/perf-budget regression "
        "(requires --store)",
    )
    p_run.add_argument(
        "--corpus", default=None, metavar="FILE",
        help="also run the scenarios of a curated corpus file "
        "(see 'scenarios curate')",
    )
    p_run.add_argument(
        "--budget", type=float, default=0.0, metavar="SECONDS",
        help="per-cell wall-clock budget verdict (0 disables)",
    )
    p_run.add_argument(
        "--no-corpus", action="store_true",
        help="skip the curated adversarial corpus",
    )
    p_run.add_argument(
        "--profile", action="store_true",
        help="print a per-backend cell-cost breakdown after the run "
        "(from the store when given, else from this run's cells)",
    )
    p_run.add_argument(
        "--verbose", action="store_true",
        help="print every cell, not just the summary",
    )
    p_run.add_argument(
        "--no-telemetry", action="store_true",
        help="disable per-cell telemetry collection (spans, counters; "
        "on by default, near-zero overhead, never affects verdicts "
        "or summary.json)",
    )
    p_run.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write this run's cells as Chrome trace-event JSON "
        "(open in chrome://tracing or Perfetto: one track per worker, "
        "one slice per cell/phase)",
    )
    p_run.add_argument(
        "--progress", action="store_true",
        help="single rewriting status line on stderr: done/total, "
        "cells/s, ETA (seeded from the cost model, then observed rate)",
    )
    p_run.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="retry a failed cell up to N times (bounded exponential "
        "backoff with seeded jitter; retries never change results -- "
        "cell seeds derive from the spec, not the attempt)",
    )
    p_run.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECONDS",
        help="per-attempt wall-clock cap on a cell (SIGALRM in the "
        "executing process, plus a parent-side watchdog on process "
        "pools); a timed-out attempt is retryable like any failure",
    )
    p_run.add_argument(
        "--inject-faults", default=None, metavar="SEED:RATE",
        help="arm the deterministic chaos harness: inject worker "
        "kills, kernel raises, delays and store-write faults at RATE "
        "on a schedule that is a pure function of (SEED, cell "
        "fingerprint); pair with --retries to prove recovery "
        "(the CI chaos gate runs 7:0.15 with --retries 3)",
    )
    p_run.add_argument(
        "--coordinator", type=int, default=None, metavar="N",
        help="run the campaign through the lease-based work-stealing "
        "coordinator with N forked local worker processes (requires "
        "--store; workers claim cost-sized leases from the store, expired "
        "leases are stolen, and summary.json stays byte-identical to "
        "a serial run)",
    )
    p_run.add_argument(
        "--lease-ttl", type=float, default=None, metavar="SECONDS",
        help="coordinator lease time-to-live (default 30; keep it "
        "above the slowest group kernel of one lease and the slowest "
        "cell's full attempt budget -- workers renew between cells, "
        "so a hung cell lapses its lease)",
    )
    p_work = sub.add_parser(
        "work",
        help="drain leases from a coordinated campaign store (the "
        "worker half of 'run --coordinator'; runs until no open or "
        "active lease remains)",
    )
    p_work.add_argument("store", help="campaign store (path or URL)")
    p_work.add_argument(
        "--worker-id", required=True, metavar="ID",
        help="unique worker identity (lease ownership + heartbeats)",
    )
    p_work.add_argument(
        "--lease-ttl", type=float, default=None, metavar="SECONDS",
        help="lease time-to-live while this worker holds one "
        "(default 30)",
    )
    p_work.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="retry a failed cell up to N times (as in 'run')",
    )
    p_work.add_argument(
        "--retry-seed", type=int, default=0, metavar="SEED",
        help="backoff-jitter seed (timing only, never results)",
    )
    p_work.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECONDS",
        help="per-attempt wall-clock cap on a cell",
    )
    p_work.add_argument(
        "--inject-faults", default=None, metavar="SEED:RATE",
        help="arm the chaos harness in this worker; unlike 'run', "
        "injected kills hard-exit the worker process (the "
        "coordinator's reclaim path is the recovery story)",
    )
    p_work.add_argument(
        "--max-leases", type=int, default=None, metavar="N",
        help="stop after N leases (default: drain the store)",
    )
    p_work.add_argument(
        "--no-telemetry", action="store_true",
        help="disable telemetry collection in this worker",
    )
    p_list = sub.add_parser("list", help="list registered scenarios")
    p_list.add_argument("--tag", default=None, help="filter by tag")
    p_report = sub.add_parser(
        "report",
        help="campaign telemetry digest over a store: slowest cells, "
        "per-backend phase breakdown, engine counters, cost-model "
        "calibration, grouping efficiency",
    )
    p_report.add_argument("store", help="campaign store (path or URL)")
    p_report.add_argument(
        "baseline", nargs="?", default=None,
        help="optional second store: print cross-campaign telemetry "
        "deltas of STORE relative to BASELINE (per-cell phase-time "
        "ratios, cost-model calibration drift) instead of the "
        "single-store digest",
    )
    p_report.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="how many slowest cells to list (default 10)",
    )
    p_diff = sub.add_parser(
        "diff",
        help="compare two campaign stores cell-by-cell (exit 1 on any "
        "soundness or perf-budget regression: the CI baseline gate)",
    )
    p_diff.add_argument("old", help="baseline campaign store (path or URL)")
    p_diff.add_argument("new", help="candidate campaign store (path or URL)")
    p_diff.add_argument(
        "--strict", action="store_true",
        help="also fail when baseline cells are missing from the "
        "candidate (coverage loss)",
    )
    p_diff.add_argument(
        "--json", default=None, metavar="FILE", dest="json_out",
        help="additionally write the machine-readable diff to FILE",
    )
    p_curate = sub.add_parser(
        "curate",
        help="promote store cells with tightness close to 1 into a "
        "curated corpus file (re-runnable via 'run --corpus')",
    )
    p_curate.add_argument("store", help="campaign store (path or URL)")
    p_curate.add_argument(
        "--min-tightness", type=float, default=0.9, metavar="T",
        help="promotion threshold on measured/bound (default 0.9)",
    )
    p_curate.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="keep at most the N tightest cells",
    )
    p_curate.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the curated corpus JSON here (default: print names only)",
    )
    args = parser.parse_args(argv)

    if args.action == "list":
        rows = [
            [sc.name, ",".join(sc.kinds), sc.mode, sc.topology,
             sc.backend, f"{sc.utilization:.2f}", ",".join(sc.tags)]
            for sc in registered_scenarios(tag=args.tag)
        ]
        print(render_table(
            ["name", "kinds", "mode", "topology", "backend", "u", "tags"],
            rows, title="== Registered scenarios ==",
        ))
        print(f"{len(rows)} scenarios")
        return 0

    def _reference_store(target):
        """Open a store consumed as a reference: a typo'd or empty path
        must fail the command loudly, never pass a gate by comparing
        against nothing."""
        try:
            return open_store(target, must_exist=True)
        except FileNotFoundError as exc:
            parser.error(str(exc))

    if args.action == "work":
        from repro.runtime import RetryPolicy, faults, work_store
        from repro.runtime.coordinator import DEFAULT_LEASE_TTL

        if args.retries < 0:
            parser.error("--retries must be >= 0")
        if args.cell_timeout is not None and args.cell_timeout <= 0:
            parser.error("--cell-timeout must be > 0 seconds")
        if args.lease_ttl is not None and args.lease_ttl <= 0:
            parser.error("--lease-ttl must be > 0 seconds")
        if args.max_leases is not None and args.max_leases < 1:
            parser.error("--max-leases must be >= 1")
        retry = (
            RetryPolicy(max_attempts=args.retries + 1, seed=args.retry_seed)
            if args.retries
            else None
        )
        fault_plan = None
        if args.inject_faults:
            from repro.runtime import FaultPlan

            try:
                fault_plan = FaultPlan.parse(args.inject_faults)
            except ValueError as exc:
                parser.error(str(exc))
        if fault_plan is not None:
            # A lease worker's death is what the coordinator's reclaim
            # path exists to absorb: injected kills must be real here.
            faults.allow_kill(True)
        if args.no_telemetry:
            from repro.runtime import set_telemetry_enabled

            set_telemetry_enabled(False)
        report = work_store(
            _reference_store(args.store),
            args.worker_id,
            lease_ttl=(
                args.lease_ttl
                if args.lease_ttl is not None
                else DEFAULT_LEASE_TTL
            ),
            retry=retry,
            cell_timeout=args.cell_timeout,
            fault_plan=fault_plan,
            max_leases=args.max_leases,
        )
        print("== Lease worker ==")
        for line in report.summary_lines():
            print(line)
        return 0

    if args.action == "report":
        from repro.runtime import telemetry as tele

        if args.top < 1:
            parser.error("--top must be >= 1")
        report_store = _reference_store(args.store)
        records = report_store.load_telemetry()

        def _ms_opt(seconds) -> str:
            return (
                f"{1e3 * float(seconds):.2f}"
                if isinstance(seconds, (int, float))
                else "-"
            )

        if args.baseline:
            base_records = _reference_store(args.baseline).load_telemetry()
            print(
                f"== Cross-campaign telemetry diff "
                f"({args.store} vs {args.baseline}) =="
            )
            missing = [
                name
                for name, recs in (
                    (args.store, records),
                    (args.baseline, base_records),
                )
                if not recs
            ]
            if missing:
                print(
                    "no telemetry records in: " + ", ".join(missing)
                    + " (run a campaign without --no-telemetry first)"
                )
                return 1
            delta = tele.report_delta(base_records, records)
            rows = [
                [
                    r["backend"], r["phase"],
                    _ms_opt(r.get("base_per_cell")),
                    _ms_opt(r.get("cand_per_cell")),
                    f"{r['ratio']:.2f}x" if "ratio" in r else "-",
                ]
                for r in delta["phases"]
            ]
            print(render_table(
                ["backend", "phase", "base [ms/cell]", "cand [ms/cell]",
                 "ratio"],
                rows, title="== Phase time per cell (cand vs base) ==",
            ))
            rows = [
                [
                    r["backend"],
                    f"{r['base_median_ratio']:.2f}"
                    if r.get("base_median_ratio") is not None else "-",
                    f"{r['cand_median_ratio']:.2f}"
                    if r.get("cand_median_ratio") is not None else "-",
                    f"{r['drift']:+.2f}" if "drift" in r else "-",
                ]
                for r in delta["calibration"]
            ]
            if rows:
                print(render_table(
                    ["backend", "base actual/pred", "cand actual/pred",
                     "drift"],
                    rows, title="== Cost-model calibration drift ==",
                ))
            return 0

        def _poison_section() -> int:
            """Render the store's poison channel; returns the count."""
            poison = report_store.load_poison()
            if not poison:
                return 0
            rows = [
                [
                    p.get("name") or p.get("key") or "?",
                    p.get("attempts", "?"),
                    p.get("worker") or "-",
                    str(p.get("error_head") or "")[:80],
                ]
                for p in poison
            ]
            print(render_table(
                ["cell", "attempts", "worker", "last error"],
                rows, title="== Poison channel ==",
            ))
            return len(poison)

        print(f"== Campaign telemetry report ({args.store}) ==")
        if not records:
            # A crashed or chaos-heavy campaign can leave a store with
            # nothing but poison diagnoses or partial (error) records;
            # the report must still say something useful, not
            # traceback or pretend the store is fine.
            n_poison = _poison_section()
            n_partial = sum(
                1 for r in report_store.load().values() if r.get("error")
            )
            if n_poison or n_partial:
                print(
                    f"no telemetry records; store holds {n_poison} poison "
                    f"diagnoses and {n_partial} partial (error) records"
                )
                return 0
            print(
                "no telemetry records (run a campaign against this store "
                "without --no-telemetry first)"
            )
            return 1
        cells = [r for r in records if r.get("kind") == "cell"]
        print(f"telemetry records: {len(records)} ({len(cells)} cells)")

        def _ms(seconds) -> str:
            return f"{1e3 * float(seconds):.2f}"

        rows = [
            [
                r.get("name") or "?",
                r.get("eff_backend") or "?",
                _ms(r.get("dur") or 0.0),
                " ".join(
                    f"{name}={_ms(secs)}"
                    for name, secs in sorted(
                        (r.get("phases") or {}).items(),
                        key=lambda kv: -kv[1],
                    )
                ),
            ]
            for r in tele.top_slowest(records, args.top)
        ]
        print(render_table(
            ["cell", "backend", "dur [ms]", "phases [ms]"],
            rows, title=f"== Top {min(args.top, len(cells))} slowest cells ==",
        ))

        breakdown = tele.phase_breakdown(records)
        phase_names = sorted({p for row in breakdown for p in row["phases"]})
        rows = [
            [row["backend"], row["cells"]]
            + [_ms(row["phases"].get(p, 0.0)) for p in phase_names]
            + [_ms(row["total"])]
            for row in breakdown
        ]
        print(render_table(
            ["backend", "cells", *(f"{p} [ms]" for p in phase_names),
             "total [ms]"],
            rows, title="== Phase breakdown per backend ==",
        ))

        totals = tele.counter_totals(records)
        if totals:
            rows = [[name, n] for name, n in sorted(totals.items())]
            print(render_table(
                ["counter", "total"], rows, title="== Engine counters ==",
            ))

        attempts = tele.attempt_rows(records)
        if attempts:
            rows = [
                [
                    a.get("name") or "?",
                    a.get("attempts", 1),
                    a.get("disposition") or "?",
                    "; ".join(str(f) for f in (a.get("faults") or []))[:80],
                ]
                for a in attempts
            ]
            recovered = sum(
                1 for a in attempts if a.get("disposition") == "recovered"
            )
            print(render_table(
                ["cell", "attempts", "disposition", "attempt errors"],
                rows, title="== Retry ledger ==",
            ))
            print(
                f"retried cells: {len(attempts)} "
                f"({recovered} recovered, {len(attempts) - recovered} poison)"
            )
        for sr in tele.store_retry_rows(records):
            print(
                f"store-write retries ({sr.get('source', '?')}): "
                f"{sr.get('append_retries', 0)} append, "
                f"{sr.get('busy_retries', 0)} sqlite-busy"
            )

        lease_entries = tele.lease_rows(records)
        lease_digest = tele.lease_summary(records)
        if lease_entries or lease_digest:
            rows = [
                [
                    entry.get("lease", "?"),
                    entry.get("worker") or "?",
                    entry.get("cells", 0),
                    entry.get("deaths", 0),
                    entry.get("steals", 0),
                    "stolen" if entry.get("stolen") else "-",
                    entry.get("disposition") or "done",
                ]
                for entry in lease_entries
            ]
            print(render_table(
                ["lease", "worker", "cells", "deaths", "steals",
                 "reclaimed", "disposition"],
                rows, title="== Lease ledger ==",
            ))
            reclaimed = sum(1 for e in lease_entries if e.get("deaths"))
            print(
                f"leases run: {len(lease_entries)} "
                f"({reclaimed} reclaimed after worker deaths)"
            )
            if lease_digest:
                print(
                    f"coordinator: {lease_digest.get('planned', 0)} leases "
                    f"planned across {lease_digest.get('workers', 0)} "
                    f"workers, {lease_digest.get('stolen', 0)} stolen "
                    f"({lease_digest.get('worker_deaths', 0)} worker "
                    f"deaths), {lease_digest.get('respawns', 0)} respawns, "
                    f"{lease_digest.get('poison', 0)} poisoned"
                )

        _poison_section()

        calib = tele.calibration_rows(records)
        if calib:
            rows = [
                [
                    row["backend"], row["cells"],
                    _ms(row.get("actual_total", 0.0)),
                    _ms(row.get("predicted_total", 0.0)),
                    f"{row['median_ratio']:.2f}"
                    if "median_ratio" in row else "-",
                    f"{row['p10_ratio']:.2f}/{row['p90_ratio']:.2f}"
                    if "p10_ratio" in row else "-",
                ]
                for row in calib
            ]
            print(render_table(
                ["backend", "cells", "actual [ms]", "predicted [ms]",
                 "actual/pred median", "p10/p90"],
                rows, title="== Cost-model calibration ==",
            ))

        grouping = tele.grouping_rows(records)
        if grouping["groups"] or grouping["summary"]:
            rows = [
                [
                    g.get("backend") or "?", g.get("topology") or "-",
                    g.get("mode") or "?",
                    g.get("cells", 0), g.get("packs", "-"),
                    g.get("lanes", "-"),
                    f"{100.0 * g['padding_waste']:.1f}%"
                    if isinstance(g.get("padding_waste"), float) else "-",
                    # Chain group: grid points simulated over every
                    # cut attempt, against the full grids'.
                    f"{100.0 * g['sim_bins'] / g['grid_bins']:.1f}%"
                    if g.get("grid_bins") else "-",
                    _ms(g.get("kernel_s", 0.0)),
                ]
                for g in grouping["groups"]
            ]
            print(render_table(
                ["backend", "topology", "mode", "cells", "packs", "lanes",
                 "pad waste", "grid kept", "kernel [ms]"],
                rows, title="== Grouping efficiency ==",
            ))
            s = grouping["summary"]
            if s:
                print(
                    f"grouped cells: {s.get('grouped_cells', 0)}/"
                    f"{s.get('cells', 0)}, fallbacks: "
                    f"{s.get('fallback_cells', 0)} "
                    f"{s.get('fallback_reasons', {})}"
                )
                hits = s.get("source_cache_hits", 0)
                misses = s.get("source_cache_misses", 0)
                if hits or misses:
                    print(
                        f"source cache: {hits} hits / {misses} misses "
                        f"({100.0 * hits / max(hits + misses, 1):.0f}% hit rate)"
                    )
                # Older summaries from runs with batch realisation
                # switched off record 0 cells: no line for them.
                if s.get("batch_realised_cells"):
                    line = (
                        f"batch realise: {s.get('batch_realised_cells', 0)} "
                        f"cells, {s.get('batch_lanes_generated', 0)} lanes "
                        f"in {_ms_opt(s.get('batch_realise_s', 0.0))} ms"
                    )
                    if isinstance(
                        s.get("predicted_realise_s"), (int, float)
                    ):
                        line += (
                            f" (cost model predicted "
                            f"{_ms_opt(s['predicted_realise_s'])} ms)"
                        )
                    print(line)

        for fit in tele.fit_rows(records):
            print(
                f"cost-model refit: {fit.get('accepted', 0)}/"
                f"{fit.get('records', 0)} samples accepted, "
                f"{fit.get('dropped', 0)} degenerate dropped "
                f"{fit.get('dropped_reasons', {})}"
            )
        return 0

    if args.action == "diff":
        old_store = _reference_store(args.old)
        new_store = _reference_store(args.new)
        diff = diff_stores(old_store, new_store)
        print("== Campaign diff ==")
        for label, side in ((args.old, old_store), (args.new, new_store)):
            # A store can legitimately hold zero completed records (a
            # campaign that crashed early, or poison diagnoses only);
            # say so in one line rather than diffing silence.
            if not side.load():
                n_poison = len(side.load_poison())
                print(
                    f"note: {label} has no result records"
                    + (f" ({n_poison} poison diagnoses)" if n_poison else "")
                )
        for line in diff.summary_lines():
            print(line)
        if args.strict and diff.removed:
            print(f"STRICT: {len(diff.removed)} baseline cells missing")
        if args.json_out:
            from pathlib import Path

            Path(args.json_out).write_text(
                json.dumps(diff.to_dict(), indent=2) + "\n"
            )
        return 0 if diff.gate(strict=args.strict) else 1

    if args.action == "curate":
        if args.min_tightness <= 0:
            parser.error("--min-tightness must be > 0")
        if args.limit is not None and args.limit < 1:
            parser.error("--limit must be >= 1")
        promoted = curate_records(
            _reference_store(args.store).load().values(),
            min_tightness=args.min_tightness,
            limit=args.limit,
        )
        print("== Store-driven curation ==")
        print(
            f"promoted {len(promoted)} cells with tightness >= "
            f"{args.min_tightness}"
        )
        for sc in promoted:
            print(f"  {sc.name}")
        if args.out:
            save_curated(promoted, args.out)
            print(f"curated corpus written: {args.out}")
        return 0

    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.coordinator is not None:
        if args.coordinator < 1:
            parser.error("--coordinator must be >= 1 workers")
        if not args.store:
            parser.error("--coordinator requires --store")
    if args.lease_ttl is not None:
        if args.lease_ttl <= 0:
            parser.error("--lease-ttl must be > 0 seconds")
        if args.coordinator is None:
            parser.error("--lease-ttl requires --coordinator")
    if args.resume and not args.store:
        parser.error("--resume requires --store")
    if args.baseline and not args.store:
        parser.error("--baseline requires --store")
    if args.baseline:
        _reference_store(args.baseline)  # fail before the run, not after
    if args.budget < 0:
        parser.error("--budget must be >= 0")
    if args.campaign:
        config = CampaignConfig.from_file(args.campaign)
        if args.budget:
            config = dataclasses.replace(config, perf_budget=args.budget)
        scenarios = build_campaign(config)
    else:
        if args.count < 0:
            parser.error("--count must be >= 0")
        scenarios = [] if args.no_corpus else list(adversarial_corpus())
        if args.budget:
            scenarios = [
                dataclasses.replace(sc, perf_budget=args.budget)
                for sc in scenarios
            ]
        if args.count:
            scenarios += generate_scenarios(
                args.count, seed=args.seed, perf_budget=args.budget
            )
        if not scenarios and not args.corpus:
            parser.error("nothing to run (--count 0 together with --no-corpus)")
    if args.corpus:
        try:
            curated = list(load_curated(args.corpus))
        except (OSError, ValueError, TypeError) as exc:
            parser.error(f"cannot load --corpus {args.corpus}: {exc}")
        if args.budget:
            # Safe to restamp: perf_budget is a verdict-only knob, so
            # the curated cells keep their store keys and seeds.
            curated = [
                dataclasses.replace(sc, perf_budget=args.budget)
                for sc in curated
            ]
        scenarios += curated
    if args.trace and args.no_telemetry:
        parser.error("--trace needs telemetry (drop --no-telemetry)")
    if args.coordinator is not None and (args.trace or args.verbose):
        parser.error(
            "--trace/--verbose need in-process outcomes; coordinated "
            "cells run in worker processes (use 'scenarios report' on "
            "the store instead)"
        )

    retry = None
    if args.retries:
        if args.retries < 0:
            parser.error("--retries must be >= 0")
        from repro.runtime import RetryPolicy

        # Jitter seeded from the campaign seed: replayable schedules.
        retry = RetryPolicy(max_attempts=args.retries + 1, seed=args.seed)
    if args.cell_timeout is not None and args.cell_timeout <= 0:
        parser.error("--cell-timeout must be > 0 seconds")
    fault_plan = None
    if args.inject_faults:
        from repro.runtime import FaultPlan

        try:
            fault_plan = FaultPlan.parse(args.inject_faults)
        except ValueError as exc:
            parser.error(str(exc))

    tick = None
    progress = None
    if args.progress:
        import time

        from repro.runtime import CellCostModel

        # ETA before the first completion comes from the cost model's
        # predicted total; once cells finish, the observed rate takes
        # over (it folds in this machine's actual speed).
        predicted_s = float(
            CellCostModel().estimate_many(scenarios).sum()
        ) / max(args.jobs, 1)
        t_start = time.perf_counter()

        def _status(done: int, total: int) -> None:
            elapsed = time.perf_counter() - t_start
            rate = done / elapsed if elapsed > 0 and done else 0.0
            eta = (
                (total - done) / rate
                if rate > 0
                else max(predicted_s - elapsed, 0.0)
            )
            end = "\n" if done == total else ""
            print(
                f"\r  {done}/{total} cells  {rate:5.1f} cells/s  "
                f"ETA {eta:4.0f}s ",
                end=end, file=sys.stderr, flush=True,
            )

        tick = _status
        # The finalise stage re-reports per cell; route it into the
        # same status line (run_campaign's progress= hook).
        progress = lambda i, n, outcome: _status(i + 1, n)  # noqa: E731
    elif len(scenarios) >= 100:
        # Live in-flight ticker on stderr (chunk granularity) so long
        # campaigns are not silent until the summary.
        def tick(done: int, total: int) -> None:
            end = "\n" if done == total else ""
            print(f"\r  {done}/{total} cells", end=end, file=sys.stderr, flush=True)

    from repro.runtime import set_telemetry_enabled, telemetry_enabled

    if args.coordinator is not None:
        from repro.runtime import run_coordinator
        from repro.runtime.coordinator import DEFAULT_LEASE_TTL

        telemetry_was = telemetry_enabled()
        set_telemetry_enabled(not args.no_telemetry)
        try:
            coord = run_coordinator(
                scenarios,
                store=args.store,
                workers=args.coordinator,
                lease_ttl=(
                    args.lease_ttl
                    if args.lease_ttl is not None
                    else DEFAULT_LEASE_TTL
                ),
                retry=retry,
                cell_timeout=args.cell_timeout,
                fault_plan=fault_plan,
            )
        finally:
            set_telemetry_enabled(telemetry_was)
        print("== Coordinated campaign summary ==")
        for line in coord.summary_lines():
            print(line)
        baseline_clean = True
        if args.baseline:
            diff = diff_stores(_reference_store(args.baseline), args.store)
            print(f"== Baseline gate (vs {args.baseline}) ==")
            for line in diff.summary_lines():
                print(line)
            baseline_clean = diff.clean
        return 0 if coord.clean and baseline_clean else 1

    telemetry_was = telemetry_enabled()
    set_telemetry_enabled(not args.no_telemetry)
    try:
        campaign = run_campaign(
            scenarios,
            executor=executor_for_jobs(args.jobs),
            store=args.store,
            resume=args.resume,
            tick=tick,
            progress=progress,
            retry=retry,
            cell_timeout=args.cell_timeout,
            fault_plan=fault_plan,
        )
    finally:
        set_telemetry_enabled(telemetry_was)

    if args.trace:
        from repro.runtime.telemetry import cell_record, write_chrome_trace

        trace_records = [
            cell_record(o.telemetry, eff_backend=o.eff_backend)
            for o in campaign.report.outcomes
            if o.telemetry is not None
        ]
        n_events = write_chrome_trace(args.trace, trace_records)
        print(
            f"trace written: {args.trace} ({n_events} events, "
            "open in chrome://tracing or Perfetto)",
            file=sys.stderr,
        )
    if args.verbose:
        rows = [
            [o.scenario.name, o.eff_mode, o.eff_backend, o.hops,
             o.measured, o.bound, o.tightness, "yes" if o.sound else "NO"]
            for o in campaign.report.outcomes
        ]
        print(render_table(
            ["scenario", "mode", "backend", "hops", "measured", "bound",
             "tightness", "sound"],
            rows, title="== Scenario matrix cross-validation ==",
        ))
    print("== Scenario matrix summary ==")
    for line in campaign.summary_lines():
        print(line)
    if args.profile:
        if args.store:
            records = list(open_store(args.store).load().values())
        else:
            records = [outcome_record(o) for o in campaign.report.outcomes]
        rows = [
            [r["backend"], r["cells"], r["wall_total"], r["wall_mean"],
             r["wall_max"], f"{100.0 * r['share']:.1f}%"]
            for r in backend_profile(records)
        ]
        print(render_table(
            ["backend", "cells", "wall total [s]", "mean [s]", "max [s]",
             "share"],
            rows, title="== Per-backend cell cost (from store) =="
            if args.store else "== Per-backend cell cost (this run) ==",
        ))
        fit = campaign.cost_fit
        if fit is not None:
            line = (
                f"cost-model refit: {fit.get('accepted', 0)}/"
                f"{fit.get('records', 0)} samples accepted"
            )
            if fit.get("dropped"):
                line += (
                    f"; WARNING: {fit['dropped']} degenerate samples "
                    f"dropped {fit.get('dropped_reasons', {})}"
                )
            print(line)
    baseline_clean = True
    if args.baseline:
        diff = diff_stores(_reference_store(args.baseline), args.store)
        print(f"== Baseline gate (vs {args.baseline}) ==")
        for line in diff.summary_lines():
            print(line)
        baseline_clean = diff.clean
    return 0 if campaign.clean and baseline_clean else 1


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in SUBCOMMANDS:
        return _scenarios_main(list(argv[1:]))
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's figures and tables.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced scale (shorter horizons, fewer sweep points)",
    )
    args = parser.parse_args(argv)
    exp = args.experiment
    if exp == "all":
        for panel in "abc":
            _print_fig4(panel, args.quick)
        for panel in "abc":
            _print_fig6(panel, args.quick)
        for which in "123":
            _print_table(which, args.quick)
        _print_theory()
        return 0
    if exp.startswith("fig4"):
        _print_fig4(exp[-1], args.quick)
    elif exp.startswith("fig6"):
        _print_fig6(exp[-1], args.quick)
    elif exp.startswith("table"):
        _print_table(exp[-1], args.quick)
    elif exp == "theory":
        _print_theory()
    elif exp == "validate":
        _print_validation(args.quick)
    return 0


if __name__ == "__main__":
    sys.exit(main())
