"""Campaign benchmark harness: five canonical workloads, repeated runs.

Three ways to run it, all from the repository root:

``python3 bench/run.py [--seed S] [--repeats 5] [--workload NAME] [--out FILE]``
    Runs every workload (or one) ``--repeats`` times, each run a fresh
    child interpreter started one at a time, rotating the workload
    order every round; then one traced run per workload for the
    per-layer numbers.  Prints each metric with its unit, median,
    quartiles and run count, checks every result, and writes the whole
    record (plus the traced spans) to ``--out``.

``python3 bench/run.py --workload NAME --seed S --seconds N --trace 0|1``
    One workload for about ``N`` seconds: as many fresh-interpreter
    runs as fit, reported as medians.  With ``--trace 1`` traced and
    untraced runs alternate and the per-layer metrics are reported.
    The last line of standard output is one JSON object with the keys
    ``correct``, ``attempted``, ``failed`` and ``metrics``.

``python3 bench/run.py --compare BASE.json NEW.json``
    One row per (workload, metric) of two ``--out`` files, judged under
    the bounds in ``BENCHMARK.json`` (see :func:`bench.stats.verdict`).

The harness writes only inside a temporary directory under
``.bench_tmp/`` in the repository (removed when it finishes) and to
``--out``.  It exits 1 when any correctness check fails and 2 when it
cannot run at all (for example, without the library sources).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if __name__ == "__main__":
    sys.path[:0] = [str(ROOT), str(SRC)]

from bench.stats import spread_share, summarise, verdict  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

#: Metric declarations (names, units, directions, bounds).
SPEC_PATH = ROOT / "BENCHMARK.json"
#: Digests pinned at each workload's default seed.
PINS_PATH = ROOT / "bench" / "pins.json"
#: Parent of every temporary directory the harness creates.
TMP_ROOT = ROOT / ".bench_tmp"
#: Hard cap on one child run; a run that takes longer is killed.
CHILD_TIMEOUT_S = 150.0
#: Relative tolerance of the cross-executor result comparison (see
#: :func:`_cross_checks`).
CROSS_RTOL = 1e-12
#: Harness-level metric outside ``BENCHMARK.json``: that file's
#: end-to-end metrics must never read 0, which a failure fraction does
#: on every good run.  Any increase is a regression (bound 0).
FAILED_FRAC = {"name": "failed_frac", "unit": "frac", "better": "lower", "bound": 0.0}


class HarnessError(RuntimeError):
    """The benchmark could not run (as opposed to a failed check)."""


# ----------------------------------------------------------------------
# Child side: one campaign in a fresh interpreter
# ----------------------------------------------------------------------
def _rusage() -> tuple[float, float, int]:
    """CPU seconds of self and of waited-for children, and peak RSS (KiB)."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (
        me.ru_utime + me.ru_stime,
        kids.ru_utime + kids.ru_stime,
        max(me.ru_maxrss, kids.ru_maxrss),
    )


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def child_main(payload: dict) -> None:
    """Run one workload once and write its measurements as JSON.

    ``setup_s`` runs from the parent's spawn call to the campaign call:
    interpreter start, imports, matrix build and store open.
    """
    t_spawn = payload["t_spawn"]
    import numpy

    from repro.runtime import open_store

    from bench import trace, workloads

    t_import = time.perf_counter()
    w = WORKLOADS[payload["workload"]]
    cells = workloads.build_matrix(w.matrix, payload["seed"])
    t_build = time.perf_counter()
    rep_dir = Path(payload["dir"])
    store = f"{w.store_scheme}{rep_dir / 'store'}"
    open_store(store).close()
    t_setup = time.perf_counter()

    tracer = trace.Tracer(run_id=rep_dir.name) if payload["trace"] else None
    if tracer is not None:
        tracer.install()
    cpu0, kids0, _ = _rusage()
    t0 = time.perf_counter()
    report = workloads.run_workload(w.executor, cells, store)
    wall = time.perf_counter() - t0
    cpu1, kids1, peak_kib = _rusage()
    if tracer is not None:
        tracer.uninstall()

    st = open_store(store)
    records = st.load()
    check = workloads.check_records(cells, records)
    if hasattr(report, "report"):
        # The store round trip must keep every verdict field exactly.
        # (The coordinator's report holds no outcomes: its workers do.)
        check["roundtrip_ok"] = (
            workloads.outcomes_digest(report.report.outcomes) == check["digest"]
        )
    out = {
        "workload": w.name,
        "seed": payload["seed"],
        "check": check,
        "numpy": numpy.__version__,
        "metrics": {
            "cells_per_s": check["records"] / wall,
            "setup_s": t_setup - t_spawn,
            "cpu_ms_per_cell": 1e3 * ((cpu1 - cpu0) + (kids1 - kids0)) / len(cells),
            "peak_rss_mb": peak_kib / 1024.0,
            "import_s": t_import - t_spawn,
            "generator.build_s": t_build - t_import,
        },
    }
    if tracer is not None:
        telemetry = st.load_telemetry()
        root = next(i for i, s in enumerate(tracer.spans) if s[0] == "campaign")
        out["layers"] = trace.layer_metrics(
            tracer.spans,
            root,
            telemetry,
            workers=1 if w.executor == "serial" else 2,
            store_bytes=_dir_bytes(rep_dir / "store"),
            busy_retries=sum(
                int(r.get("busy_retries", 0))
                for r in telemetry
                if r.get("kind") == "store_retries"
            ),
            quarantined=st.quarantined,
        )
        out["spans"] = tracer.spans
    if payload.get("keep_values"):
        out["values"] = {
            k: [r.get(f) for f in ("measured", "bound", "baseline_bound", "eps", "sound")]
            for k, r in records.items()
        }
    st.close()
    Path(payload["result"]).write_text(json.dumps(out))


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}


@contextmanager
def run_tmp():
    """A fresh temporary directory under ``.bench_tmp/``, removed after."""
    TMP_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another harness run still uses it


def _kill_group(proc: subprocess.Popen) -> None:
    """SIGKILL the child's process group and reap the child."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def spawn_rep(
    tmp: Path, tag: str, workload: str, seed: int, *, trace: bool, keep_values: bool = False
) -> dict:
    """Run one child interpreter to completion and return its record.

    The child runs in its own process group; if it overruns
    :data:`CHILD_TIMEOUT_S` the whole group (pool and lease workers
    included) is killed and waited for.
    """
    rep_dir = tmp / tag
    rep_dir.mkdir()
    result = rep_dir / "result.json"
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]),
        PYTHONHASHSEED="0",
        TMPDIR=str(rep_dir),
    )
    payload = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "dir": str(rep_dir),
        "result": str(result),
        "keep_values": keep_values,
    }
    payload["t_spawn"] = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--child", json.dumps(payload)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _kill_group(proc)
        raise HarnessError(f"{workload} run {tag} exceeded {CHILD_TIMEOUT_S:.0f} s")
    except BaseException:
        _kill_group(proc)
        raise
    _kill_group(proc)  # anything the child started and left behind
    if proc.returncode != 0 or not result.exists():
        tail = err.decode(errors="replace").strip().splitlines()[-15:]
        raise HarnessError(
            f"{workload} run {tag} failed (exit {proc.returncode}):\n" + "\n".join(tail)
        )
    rec = json.loads(result.read_text())
    shutil.rmtree(rep_dir / "store", ignore_errors=True)
    return rec


def rep_failures(rec: dict) -> list[str]:
    """The correctness checks one run failed (empty when it passed)."""
    c = rec["check"]
    out = []
    for field in ("unsound", "errors", "missing"):
        if c[field]:
            out.append(f"{c[field]} {field}")
    if c.get("roundtrip_ok") is False:
        out.append("store round trip changed a verdict field")
    return out


def failed_count(recs: list[dict]) -> int:
    """Unsound, errored and missing cells, plus failed round trips."""
    c = [r["check"] for r in recs]
    return sum(x["unsound"] + x["errors"] + x["missing"] + (x.get("roundtrip_ok") is False) for x in c)


def digest_failures(recs: list[dict], pins: dict) -> list[str]:
    """Every run of one workload and seed must give one digest, and at
    the default seed it must be the pinned one."""
    digests = {r["check"]["digest"] for r in recs}
    out = []
    if len(digests) > 1:
        out.append(f"{recs[0]['workload']}: runs disagree on results ({len(digests)} digests)")
    pin = pins.get("digests", {}).get(recs[0]["workload"])
    if pin and recs[0]["seed"] == pin["seed"] and digests != {pin["digest"]}:
        out.append(f"{recs[0]['workload']}: digest differs from the pinned one")
    return out


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _meta(recs: list[dict], seeds: dict) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": recs[0]["numpy"] if recs else None,
        "platform": platform.platform(),
        "commit": git_commit(),
        "seeds": seeds,
    }


# -- timed mode (one workload, the BENCHMARK.json form) -------------
def timed_main(args, spec: dict) -> int:
    """Runs for about ``--seconds``; prints the BENCHMARK.json result line."""
    w = WORKLOADS[args.workload]
    seed = w.default_seed if args.seed is None else args.seed
    pattern = [False, True] if args.trace else [False]
    plain: list[dict] = []
    traced: list[dict] = []
    with run_tmp() as tmp:
        t_begin = time.perf_counter()
        i = 0
        while True:
            is_traced = pattern[i % len(pattern)]
            rec = spawn_rep(tmp, f"rep{i}", w.name, seed, trace=is_traced)
            (traced if is_traced else plain).append(rec)
            i += 1
            # Start another run only if one of average length still ends
            # within the budget.
            elapsed = time.perf_counter() - t_begin
            if i >= len(pattern) and elapsed * (i + 1) / i > args.seconds:
                break
    recs = plain + traced
    mismatches = digest_failures(recs, load_pins())
    problems = [p for r in recs for p in rep_failures(r)] + mismatches
    if args.trace:
        metrics = _layer_summary(spec, plain, traced)
    else:
        metrics = {
            m["name"]: dict(summarise([r["metrics"][m["name"]] for r in plain]), unit=m["unit"])
            for m in spec["end_to_end"]
        }
    for name, s in metrics.items():
        print(
            f"{w.name:14s} {name:34s} {s['median']:14.6g} {s['unit']:8s} "
            f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}] n={s['n']}"
        )
    for p in problems:
        print(f"CHECK FAILED: {p}")
    failed = failed_count(recs) + len(mismatches)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": sum(r["check"]["requested"] for r in recs),
                "failed": failed,
                "metrics": {
                    name: {"value": s["median"], "unit": s["unit"]}
                    for name, s in metrics.items()
                },
            }
        )
    )
    return 0 if failed == 0 else 1


def _layer_summary(spec: dict, plain: list[dict], traced: list[dict]) -> dict:
    """Per-layer medians over traced runs (plus set-up timings and the
    tracing overhead against the untraced runs)."""
    out = {}
    plain_cps = summarise([r["metrics"]["cells_per_s"] for r in plain])["median"]
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "trace_overhead_frac":
            values = [1.0 - r["metrics"]["cells_per_s"] / plain_cps for r in traced]
        elif name in ("import_s", "generator.build_s"):
            values = [r["metrics"][name] for r in traced]
        else:
            values = [r["layers"][name] for r in traced]
        out[name] = dict(summarise(values), unit=m["unit"])
    return out


# -- repeats mode (the full campaign benchmark) ------------------------
def _cross_checks(values: dict[str, dict]) -> tuple[dict[str, list[str]], dict]:
    """The parallel executors must reproduce the serial ``thousand`` run.

    ``jobs2`` must match bit for bit.  ``coord2`` must give the same
    soundness verdicts and every float within :data:`CROSS_RTOL`: its
    workers finalise one lease at a time, and the vectorised bound
    kernel pads each batch to its widest cell, so a bound can differ
    in the last bit from the whole-matrix batch.  Whether it did is
    reported as ``coord2_bit_identical``.  Returns the failures by
    workload and that information.
    """
    import math

    problems: dict[str, list[str]] = {}
    info: dict = {}
    base = values.get("thousand")
    if base is None:
        return problems, info
    for name in ("jobs2", "coord2"):
        other = values.get(name)
        if other is None:
            continue
        exact = other == base
        info[f"{name}_bit_identical"] = exact
        if exact:
            continue
        if name == "jobs2" or set(other) != set(base):
            problems[name] = [f"{name} results differ from thousand"]
            continue
        for key, row in base.items():
            theirs = other[key]
            if row[4] != theirs[4] or not all(
                a == b or math.isclose(a, b, rel_tol=CROSS_RTOL)
                for a, b in zip(row[:4], theirs[:4])
            ):
                problems[name] = [f"{name} results differ from thousand beyond {CROSS_RTOL:g}"]
                break
    return problems, info


def repeats_main(args, spec: dict) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    seeds = {
        n: WORKLOADS[n].default_seed if args.seed is None else args.seed for n in names
    }
    e2e = spec["end_to_end"]
    plain: dict[str, list[dict]] = {n: [] for n in names}
    traced: dict[str, dict] = {}
    values: dict[str, dict] = {}
    with run_tmp() as tmp:
        for rnd in range(args.repeats):
            order = names[rnd % len(names):] + names[: rnd % len(names)]
            for n in order:
                keep = rnd == 0 and WORKLOADS[n].matrix == "thousand"
                rec = spawn_rep(tmp, f"{n}-r{rnd}", n, seeds[n], trace=False, keep_values=keep)
                values.update({n: rec.pop("values")} if keep else {})
                plain[n].append(rec)
                print(
                    f"round {rnd + 1}/{args.repeats} {n:14s} "
                    f"{rec['metrics']['cells_per_s']:10.1f} cells/s",
                    file=sys.stderr,
                )
        for n in names:
            traced[n] = spawn_rep(tmp, f"{n}-traced", n, seeds[n], trace=True)

    pins = load_pins()
    cross, info = _cross_checks(values)
    problems: list[str] = []
    result: dict = {"meta": _meta(plain[names[0]], seeds), "workloads": {}}
    for n in names:
        recs = plain[n] + [traced[n]]
        mismatches = digest_failures(recs, pins) + cross.get(n, [])
        problems += [f"{n}: {p}" for r in recs for p in rep_failures(r)] + mismatches
        requested = sum(r["check"]["requested"] for r in recs)
        frac = (failed_count(recs) + len(mismatches)) / requested
        runs = [dict(r["metrics"], failed_frac=frac) for r in plain[n]]
        summary = {
            m["name"]: dict(summarise([r[m["name"]] for r in runs]), unit=m["unit"])
            for m in e2e + [FAILED_FRAC]
        }
        layers = _layer_summary(spec, plain[n], [traced[n]])
        result["workloads"][n] = {
            "seed": seeds[n],
            "runs": runs,
            "summary": summary,
            "layers": {k: v["median"] for k, v in layers.items()},
            "digest": plain[n][0]["check"]["digest"],
        }
    result["checks"] = {"passed": not problems, "problems": problems, **info}

    print(f"{'workload':14s} {'metric':34s} {'median':>14s} {'unit':8s} quartiles")
    for n in names:
        for name, s in result["workloads"][n]["summary"].items():
            print(
                f"{n:14s} {name:34s} {s['median']:14.6g} {s['unit']:8s} "
                f"[{s['q1']:.6g}, {s['q3']:.6g}] n={s['n']} "
                f"spread {spread_share(s):.1%}"
            )
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    print("\nper-layer (one traced run per workload)")
    for name in units:
        row = " ".join(
            f"{result['workloads'][n]['layers'][name]:12.6g}" for n in names
        )
        print(f"{name:34s} {units[name]:6s} {row}")
    print("workloads: " + " ".join(names))
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(f"checks: {'passed' if not problems else 'FAILED'}")

    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result, indent=1) + "\n")
        spans = {n: traced[n]["spans"] for n in names}
        out.with_name(out.stem + ".spans.json").write_text(json.dumps(spans) + "\n")
    return 0 if not problems else 1


# -- compare mode ------------------------------------------------------
def compare_main(base_path: str, new_path: str, spec: dict) -> int:
    base = json.loads(Path(base_path).read_text())["workloads"]
    new = json.loads(Path(new_path).read_text())["workloads"]
    print(
        f"{'workload':14s} {'metric':18s} {'base median [q1, q3]':>34s} "
        f"{'new median [q1, q3]':>34s} {'ratio':>7s}  verdict"
    )
    for n in (w for w in WORKLOADS if w in base and w in new):
        for m in spec["end_to_end"] + [FAILED_FRAC]:
            b = [r[m["name"]] for r in base[n]["runs"]]
            c = [r[m["name"]] for r in new[n]["runs"]]
            row = verdict(b, c, m["better"], m["bound"])
            sb, sn = row["base"], row["new"]
            ratio = f"{row['ratio']:.3f}" if row["ratio"] is not None else "-"
            cols = [
                f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}]" for s in (sb, sn)
            ]
            print(
                f"{n:14s} {m['name']:18s} {cols[0]:>34s} {cols[1]:>34s} "
                f"{ratio:>7s}  {row['verdict']}"
            )
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, help="replaces every workload's default seed")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--out", help="write the full record (repeats mode) here")
    ap.add_argument("--seconds", type=float, help="timed mode: run for about this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.child:
        child_main(json.loads(args.child))
        return 0
    if not (SRC / "repro" / "__init__.py").exists():
        print(f"bench: no library sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    try:
        if args.compare:
            return compare_main(*args.compare, spec)
        if args.seconds is not None:
            if not args.workload:
                ap.error("--seconds needs --workload")
            return timed_main(args, spec)
        if args.repeats < 1:
            ap.error("--repeats must be >= 1")
        return repeats_main(args, spec)
    except HarnessError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
