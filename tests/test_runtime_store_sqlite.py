"""SQLite store backend: concurrent writers and quarantine parity.

The backend's reason to exist is multi-writer safety: N worker
processes filling one store must lose nothing and corrupt nothing,
where concurrent JSONL appends could tear lines.  These tests drive
real OS processes at one database, and pin the quarantine semantics
(corrupt payloads moved aside, never fatal) that the JSONL backend
established.
"""

import json
import multiprocessing
import sqlite3

import pytest

from repro.runtime.store import JsonlResultStore, open_store
from repro.runtime.store_sqlite import SqliteResultStore
from tests.reference import load_summary_bytes

pytestmark = pytest.mark.runtime


def _rec(key, *, sound=True, tightness=0.5):
    return {
        "key": key,
        "sound": sound,
        "error": None,
        "budget_ok": True,
        "tightness": tightness,
        "wall_time": 0.1,
    }


def _writer(root: str, prefix: str, n: int) -> None:
    """Child-process entry: batch-append ``n`` records to one store."""
    store = SqliteResultStore(root)
    store.append_many(_rec(f"{prefix}{i:03d}") for i in range(n))
    store.close()


class TestWalMode:
    def test_database_runs_wal_journal(self, tmp_path):
        store = SqliteResultStore(tmp_path)
        store.append(_rec("a"))
        mode = store._connect().execute("PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"

    def test_reopen_sees_committed_records(self, tmp_path):
        first = SqliteResultStore(tmp_path)
        first.append(_rec("a"))
        first.close()
        assert set(SqliteResultStore(tmp_path).load()) == {"a"}


class TestConcurrentWriters:
    def test_two_processes_one_store_lose_nothing(self, tmp_path):
        """Two OS processes batch-append to one database concurrently;
        the union must be exact -- no lost, torn, or duplicated rows."""
        root = str(tmp_path / "shared")
        ctx = multiprocessing.get_context("spawn")
        procs = [
            ctx.Process(target=_writer, args=(root, prefix, 40))
            for prefix in ("a", "b")
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        records = SqliteResultStore(root).load()
        assert len(records) == 80
        assert {k for k in records if k.startswith("a")} == {
            f"a{i:03d}" for i in range(40)
        }

    def test_concurrent_fill_summarises_like_serial(self, tmp_path):
        """Concurrent writers + summary refresh == serial JSONL run,
        byte for byte (the store contract's determinism claim)."""
        root = str(tmp_path / "shared")
        ctx = multiprocessing.get_context("spawn")
        procs = [
            ctx.Process(target=_writer, args=(root, prefix, 25))
            for prefix in ("x", "y")
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        SqliteResultStore(root).write_summary()  # refresh over the union
        serial = JsonlResultStore(tmp_path / "serial")
        serial.append_many(
            [_rec(f"{prefix}{i:03d}") for prefix in ("x", "y") for i in range(25)]
        )
        serial.write_summary()
        assert (
            SqliteResultStore(root).summary_path.read_bytes()
            == serial.summary_path.read_bytes()
        )


class TestQuarantine:
    def _corrupt(self, store: SqliteResultStore, key: str, payload: str):
        with store._connect() as conn:
            conn.execute(
                "INSERT OR REPLACE INTO results (key, v, record) "
                "VALUES (?, 2, ?)",
                (key, payload),
            )

    def test_corrupt_payloads_quarantined_not_fatal(self, tmp_path):
        store = SqliteResultStore(tmp_path)
        store.append(_rec("aa"))
        self._corrupt(store, "zz", "{torn json!!")     # unparseable
        self._corrupt(store, "yy", '{"sound": true}')  # keyless payload
        store.append(_rec("bb"))
        records = store.load()
        assert set(records) == {"aa", "bb"}
        assert store.quarantined == 2
        assert "{torn json!!" in store.quarantine_lines()
        # The table is clean afterwards: a second load sees no rot.
        assert store.load() == records
        assert store.quarantined == 0

    def test_quarantine_counted_in_summary(self, tmp_path):
        store = SqliteResultStore(tmp_path)
        store.append(_rec("aa"))
        self._corrupt(store, "zz", "not json")
        summary = store.write_summary()
        assert summary["cells"] == 1
        assert summary["quarantined_rows"] == 1

    def test_streamed_summary_quarantines_like_load(self, tmp_path, monkeypatch):
        """The streamed summary hands a corrupt payload to load(), once:
        the quarantine table, the surviving rows and summary.json are
        load()'s."""
        twins = [SqliteResultStore(tmp_path / name) for name in ("oracle", "streamed")]
        for store in twins:
            store.append(_rec("aa", tightness=0.25))
            self._corrupt(store, "zz", "{torn json!!")     # unparseable
            store.append_many([_rec("bb", sound=False), _rec("cc", tightness=0.75)])
            self._corrupt(store, "yy", '{"sound": true}')  # keyless payload
        oracle, streamed = twins
        expected = load_summary_bytes(oracle)
        loads = []
        real_load = streamed.load

        def counted_load():
            loads.append(1)
            return real_load()

        monkeypatch.setattr(streamed, "load", counted_load)
        summary = streamed.write_summary()
        assert loads == [1]
        assert summary["quarantined_rows"] == streamed.quarantined == 2
        assert streamed.summary_path.read_bytes() == expected
        assert streamed.quarantine_lines() == oracle.quarantine_lines()
        assert real_load() == oracle.load()
        # Healed: the next summary streams without load() and counts 0.
        assert streamed.write_summary()["quarantined_rows"] == 0
        assert loads == [1]

    def test_quarantine_parity_with_jsonl(self, tmp_path):
        """Both backends eat the same corrupt payload the same way."""
        sq = SqliteResultStore(tmp_path / "sq")
        sq.append(_rec("aa"))
        self._corrupt(sq, "zz", "{torn json!!")
        js = JsonlResultStore(tmp_path / "js")
        js.append(_rec("aa"))
        with js.results_path.open("a") as fh:
            fh.write("{torn json!!\n")
        assert sq.load() == js.load()
        assert sq.quarantined == js.quarantined == 1
        assert sq.quarantine_lines() == js.quarantine_path.read_text().splitlines()


class TestSchema:
    def test_cell_keys_are_primary_keys(self, tmp_path):
        store = SqliteResultStore(tmp_path)
        store.append(_rec("aa", sound=False))
        store.append(_rec("aa", sound=True))   # REPLACE, not a second row
        conn = sqlite3.connect(store.db_path)
        (count,) = conn.execute("SELECT COUNT(*) FROM results").fetchone()
        assert count == 1
        (pk,) = conn.execute(
            "SELECT name FROM pragma_table_info('results') WHERE pk = 1"
        ).fetchone()
        assert pk == "key"
        conn.close()

    def test_nonfinite_floats_roundtrip_as_json_text(self, tmp_path):
        store = SqliteResultStore(tmp_path)
        store.append({"key": "inf", "bound": float("inf")})
        raw = (
            sqlite3.connect(store.db_path)
            .execute("SELECT record FROM results")
            .fetchone()[0]
        )
        assert "Infinity" in raw            # same wire format as JSONL
        assert json.loads(raw)["bound"] == float("inf")

    def test_url_prefix_tolerated_in_constructor(self, tmp_path):
        store = SqliteResultStore(f"sqlite:{tmp_path / 'camp'}")
        assert store.root == tmp_path / "camp"
        assert isinstance(open_store(f"sqlite:{tmp_path / 'camp'}"),
                          SqliteResultStore)
