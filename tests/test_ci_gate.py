"""The nightly baseline gate, wired end to end (PR-5 satellite).

The PR-4 mechanism (``scenarios run --baseline`` / ``scenarios diff``)
is only a regression net if a pinned baseline store actually exists
and matches what a fresh run of the same matrix produces.  These tests
keep the checked-in ``ci/baseline_smoke`` store honest:

* it must load cleanly, cover exactly the tier-1 smoke campaign's 24
  cells (``generate_scenarios(24, seed=11)``, the same matrix
  ``tests/test_runtime_campaign.py`` runs), and contain no failures;
* a fresh evaluation of that matrix must gate cleanly against it --
  cell keys are content hashes, so any drift in spec hashing, seeding
  or verdicts breaks the diff loudly here rather than at night;
* ``ci/gate.sh`` must keep pointing at the pinned store and matrix,
  and the matrix must keep the adversarial fluid chains and trees (σ-ρ
  and λ) whose grouping the gate checks;
* the gate must require the first ``--jobs 2`` run's pool workers to
  group all 24 smoke cells;
* the gate must run the lease coordinator both clean (grouped leases)
  and under worker-killing chaos (per-cell leases);
* ``scenarios report`` must render the retry ledger of both chaos pool
  stores and the lease and retry ledgers of both chaos coordinator
  stores, so the ledgers hold on both backends and both commit paths;
* the DES leg's curated corpus (``ci/des_corpus.json``) must reproduce
  every verdict field of its pinned ``ci/baseline_des`` store;
* the gate must run a matrix that spans several ``SLICE_CELLS`` slices
  serially and with ``--jobs 2`` and compare the two stores;
* both pinned stores, re-summarised by the current code, must give
  their pinned ``summary.json`` byte for byte, and the gate must check
  that too;
* production code must not reach into the test oracle: no module under
  ``src/repro`` imports ``tests`` or the evented DES that lives there.
"""

import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro.scenarios.cellmatrix as cellmatrix_mod
from repro.runtime import diff_records, open_store, run_campaign
from repro.runtime.store import cell_key
from repro.scenarios import generate_scenarios
from repro.scenarios.corpus import load_curated

pytestmark = pytest.mark.runtime

REPO = Path(__file__).resolve().parents[1]
BASELINE = REPO / "ci" / "baseline_smoke"
GATE = REPO / "ci" / "gate.sh"
DES_CORPUS = REPO / "ci" / "des_corpus.json"
DES_BASELINE = REPO / "ci" / "baseline_des"
SRC = REPO / "src"

#: Modules of the evented DES, which moved to ``tests/evented`` (or, for
#: ``loss``, were deleted), and the names they defined.
ORACLE_MODULES = tuple(
    f"repro.simulation.{name}"
    for name in ("engine", "packet", "regulator_sim", "loss")
)
ORACLE_NAMES = {
    "Simulator",
    "Packet",
    "TokenBucketComponent",
    "BatchVacationComponent",
    "BatchMuxServer",
    "DelayRecorder",
    "LossyLink",
    "LossAccountant",
}

#: The tier-1 smoke campaign (must match ci/gate.sh and
#: tests/test_runtime_campaign.py).
N_SMOKE, SMOKE_SEED = 24, 11


@pytest.fixture(scope="module")
def pinned():
    store = open_store(BASELINE, must_exist=True)
    return store.load()


def test_pinned_baseline_covers_the_smoke_matrix(pinned):
    matrix = generate_scenarios(N_SMOKE, seed=SMOKE_SEED)
    assert set(pinned) == {cell_key(sc) for sc in matrix}
    assert all(rec["sound"] and not rec["error"] for rec in pinned.values())
    assert all(rec.get("budget_ok", True) for rec in pinned.values())


def test_fresh_smoke_run_gates_clean_against_pinned(pinned, tmp_path):
    matrix = generate_scenarios(N_SMOKE, seed=SMOKE_SEED)
    campaign = run_campaign(matrix, store=tmp_path / "fresh")
    assert campaign.clean
    fresh = open_store(tmp_path / "fresh").load()
    diff = diff_records(pinned, fresh)
    # strict: coverage loss is a regression too.
    assert diff.gate(strict=True), diff.summary_lines()
    assert not diff.added and not diff.removed


def test_pinned_baseline_keeps_adversarial_fluid_chains_and_trees(pinned):
    """The smoke matrix must keep exercising the fluid chain group:
    ``ci/gate.sh`` requires all 24 cells grouped, which only shows a
    silent fallback of chain or tree cells while the matrix has them,
    in both the σ-ρ and the λ mode."""
    seen = {
        (rec["topology"], rec["eff_mode"])
        for rec in pinned.values()
        if rec["eff_backend"] == "fluid" and rec["discipline"] == "adversarial"
    }
    for topology in ("chain", "tree"):
        for mode in ("sigma-rho", "sigma-rho-lambda"):
            assert (topology, mode) in seen, (topology, mode)
    assert "grouping gate" in GATE.read_text()


def test_gate_script_targets_the_pinned_store():
    text = GATE.read_text()
    assert "ci/baseline_smoke" in text
    assert f"--count {N_SMOKE}" in text and f"--seed {SMOKE_SEED}" in text
    assert "--baseline" in text
    assert GATE.stat().st_mode & 0o111, "ci/gate.sh must be executable"


def _gate_commands(text: str) -> list[str]:
    """The gate script's shell commands, continuation lines joined."""
    return [cmd.strip() for cmd in text.replace("\\\n", " ").splitlines()]


def test_gate_script_runs_clean_and_chaos_coordinator_legs():
    """The coordinator is gated twice: clean, where the lease workers
    take the grouped path, and under worker-killing chaos, where an
    armed fault plan sends every lease down the per-cell loop."""
    text = GATE.read_text()
    coordinated = [
        cmd
        for cmd in _gate_commands(text)
        if "scenarios run" in cmd and "--coordinator 2" in cmd
    ]
    clean = [cmd for cmd in coordinated if "--inject-faults" not in cmd]
    chaos = [cmd for cmd in coordinated if "--inject-faults" in cmd]
    assert len(clean) == 1 and len(chaos) == 1
    assert f"--count {N_SMOKE} --seed {SMOKE_SEED}" in clean[0]
    assert 'per_cell_gate "clean coordinator" ci/baseline_smoke' in text
    assert "grouped in the lease workers" in text


def test_gate_script_renders_the_chaos_ledgers_on_both_backends():
    """The chaos legs check what ``scenarios report`` renders of each
    store they write: the pool's retry ledger, and the coordinator's
    lease and retry ledgers, on JSONL and SQLite alike."""
    text = GATE.read_text()
    assert "report_gate() {" in text
    chaos = text.split("# -- chaos gate")[1].split("# -- clean coordinator")[0]
    coord = text.split("# -- coordinator chaos gate")[1].split("# -- DES gate")[0]
    for leg, store_dir, sections in (
        (chaos, "$CHAOS_DIR", '"Retry ledger"'),
        (coord, "$COORD_DIR", '"Lease ledger" "Retry ledger"'),
    ):
        gate = " ".join(
            cmd for cmd in _gate_commands(leg) if cmd.startswith("report_gate")
        )
        assert "for backend in jsonl sqlite; do" in leg
        assert f'"$backend:{store_dir}/$backend"' in gate
        assert gate.endswith(sections)


def test_gate_script_requires_the_pool_to_group():
    """The first ``--jobs 2`` smoke run's workers evaluate their chunks
    grouped; the gate sums its cell telemetry's ``grouped_cells`` and
    fails unless all 24 cells count, right after that run."""
    text = GATE.read_text()
    commands = _gate_commands(text)
    first_pool = next(
        cmd
        for cmd in commands
        if "scenarios run" in cmd and "--jobs 2" in cmd
    )
    assert '--store "$STORE"' in first_pool
    check = text.index("pool grouping gate: FAILED")
    assert text.index('python - "$STORE"') < check
    assert "grouped in the pool workers" in text
    assert check < text.index("SERIAL_DIR=")


def test_gate_script_runs_a_matrix_that_spans_several_slices():
    """Both pinned matrices fit in one ``SLICE_CELLS`` slice, so a slice
    leg runs 600 cells serially (3 slices) and with ``--jobs 2``, and
    compares the two stores with each other."""
    text = GATE.read_text()
    leg = text.split("# -- slice gate")[1].split("# -- re-summarise gate")[0]
    (run,) = [cmd for cmd in _gate_commands(leg) if "scenarios run" in cmd]
    assert "--count 600 --seed 11 --no-corpus $jobs" in run
    assert 600 > 2 * cellmatrix_mod.SLICE_CELLS
    assert 'jobs="--jobs 2"' in leg
    assert (
        'cmp "$SLICE_DIR/serial/summary.json" "$SLICE_DIR/jobs2/summary.json"'
        in leg
    )
    assert 'per_cell_gate "slices" "$SLICE_DIR/serial" "$SLICE_DIR/jobs2"' in leg
    assert "expected [(600, 600)]" in leg


def test_des_corpus_reproduces_its_pinned_baseline(tmp_path):
    cells = load_curated(DES_CORPUS)
    assert len(cells) == 44
    assert {sc.backend for sc in cells} == {"des", "tree_des"}
    trees = [sc for sc in cells if sc.backend == "tree_des"]
    assert len(trees) == 12
    assert sum(sc.discipline == "fifo" for sc in trees) == 5
    assert {sc.discipline for sc in cells} == {"adversarial", "fifo", "priority"}
    priority = [sc for sc in cells if sc.discipline == "priority"]
    assert len(priority) == 12
    assert sum(sc.backend == "tree_des" for sc in priority) == 4
    campaign = run_campaign(cells, store=tmp_path / "des")
    assert campaign.clean
    fields = ("measured", "bound", "baseline_bound", "eps", "sound")

    def rows(store):
        # json renders floats exactly: equal strings are bit-equal values.
        return {
            key: json.dumps([rec.get(f) for f in fields])
            for key, rec in open_store(store, must_exist=True).load().items()
        }

    assert rows(tmp_path / "des") == rows(DES_BASELINE)
    text = GATE.read_text()
    assert "ci/des_corpus.json" in text and "ci/baseline_des" in text


@pytest.mark.parametrize("pinned", [BASELINE, DES_BASELINE], ids=lambda p: p.name)
def test_pinned_stores_resummarise_byte_for_byte(pinned, tmp_path):
    """The streamed summary, on stores earlier code wrote, gives the
    pinned bytes; ``ci/gate.sh`` re-summarises both copies too."""
    copy = tmp_path / pinned.name
    shutil.copytree(pinned, copy)
    (copy / "summary.json").unlink()
    open_store(copy, must_exist=True).write_summary()
    assert (copy / "summary.json").read_bytes() == (
        pinned / "summary.json"
    ).read_bytes()
    leg = GATE.read_text().split("# -- re-summarise gate")[1]
    assert "for pinned in baseline_smoke baseline_des" in leg
    assert "write_summary()" in leg
    assert 'cmp "$RESUM_DIR/$pinned/summary.json" "ci/$pinned/summary.json"' in leg


def _is_test_code(module: str) -> bool:
    return any(
        module == m or module.startswith(m + ".")
        for m in ("tests", *ORACLE_MODULES)
    )


def _layering_faults(path: Path) -> list[str]:
    """Imports of test code, and oracle names defined or imported, in
    one source file."""
    # The package a relative import in this file starts from.
    package = ".".join(path.relative_to(SRC).with_suffix("").parts[:-1])
    faults = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        imported: list[str] = []
        if isinstance(node, ast.Import):
            imported = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package.rsplit(".", node.level - 1)[0]
                base = f"{parent}.{base}" if base else parent
            imported = [base] + [f"{base}.{a.name}" for a in node.names]
            faults += [
                f"imports {a.name}" for a in node.names if a.name in ORACLE_NAMES
            ]
        elif isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            if node.name in ORACLE_NAMES:
                faults.append(f"defines {node.name}")
        bad = [name for name in imported if _is_test_code(name)]
        if bad:
            faults.append(f"imports {bad[0]}")
    return [f"{path.relative_to(REPO)}: {f}" for f in faults]


def test_src_imports_no_test_code():
    faults = [
        fault
        for path in sorted((SRC / "repro").rglob("*.py"))
        for fault in _layering_faults(path)
    ]
    assert not faults, "\n".join(faults)
    # The entry points load nothing from tests/, even with the repo
    # root (where ``tests`` resolves) on sys.path.
    code = (
        "import sys\n"
        "import repro.simulation, repro.scenarios, repro.runtime\n"
        "import repro.experiments.cli\n"
        "print(*sorted(m for m in sys.modules"
        " if m == 'tests' or m.startswith('tests.')))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )}
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=REPO, env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout.split() == []
