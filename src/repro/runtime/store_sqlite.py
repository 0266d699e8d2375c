"""SQLite result-store backend: safe concurrent writers for campaigns.

The JSONL backend is single-writer: two processes appending to one
``results.jsonl`` can interleave mid-line and tear records.  This
backend keeps the exact store contract (records, last-write-wins keys,
quarantine, deterministic ``summary.json``) on an SQLite file instead:

* **WAL journal + busy timeout** -- readers never block writers and
  concurrent writers serialise at commit granularity, so the lease
  coordinator's N worker processes (or hosts sharing a filesystem)
  fill one store safely; ``append_many`` commits a whole batch of cells in one
  transaction, which is also what makes ingest fast.
* **content-hashed cell keys as primary keys** -- ``INSERT OR
  REPLACE`` gives the JSONL backend's duplicate-key semantics (the
  last record for a key wins) directly in the schema.
* **corrupt-row quarantine parity** -- record payloads are stored as
  canonical JSON text; a row whose payload no longer parses (manual
  edits, partial restores) is moved to a ``quarantine`` table on
  :meth:`load`, counted, and never raised -- the same recovery story
  as ``quarantine.jsonl``.  Both backends share the store's one parse
  loop: this one only supplies the rows (a cursor read one row at a
  time, so the streamed summary never holds every payload) and the
  quarantine move.

The JSON-text payload keeps the two backends bit-compatible: a record
round-trips through either backend to the identical Python dict
(non-finite floats included), so summaries and diffs never see which
backend held the data.
"""

from __future__ import annotations

import json
import sqlite3
import time
from pathlib import Path
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Union,
)

from repro.runtime.faults import InjectedFault, active_plan
from repro.runtime.store import ResultStore, _canonical_json, _coerce_root

__all__ = [
    "SqliteResultStore",
    "LeaseTable",
    "LEASE_STATES",
    "LEASE_UNFINISHED",
]

#: Milliseconds a writer waits on a locked database before erroring;
#: generous because campaign processes commit whole cell batches.
BUSY_TIMEOUT_MS = 30_000

#: Bounded busy-retry on top of SQLite's own busy timeout: attempts of
#: the whole transaction after a ``database is locked/busy`` error.
BUSY_RETRIES = 4
#: First busy-retry backoff (seconds); doubles per retry, capped below.
BUSY_BACKOFF_S = 0.05
BUSY_BACKOFF_MAX_S = 1.0

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    key    TEXT PRIMARY KEY,
    v      INTEGER NOT NULL,
    record TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS quarantine (
    line TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS telemetry (
    id     INTEGER PRIMARY KEY,
    kind   TEXT NOT NULL,
    record TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS poison (
    id     INTEGER PRIMARY KEY,
    key    TEXT NOT NULL,
    record TEXT NOT NULL
);
"""

#: Lease-coordination tables (PR 10): workers claim cost-sized cell
#: leases and renew heartbeats through the same WAL database the
#: results land in, so "who owns what" and "what is done" share one
#: crash-consistency story.  ``CREATE TABLE IF NOT EXISTS`` throughout:
#: any pre-coordinator store upgrades in place on first connect.
_LEASE_SCHEMA = """
CREATE TABLE IF NOT EXISTS leases (
    id       INTEGER PRIMARY KEY,
    state    TEXT NOT NULL DEFAULT 'open',
    worker   TEXT,
    cost     REAL NOT NULL DEFAULT 0,
    deadline REAL,
    deaths   INTEGER NOT NULL DEFAULT 0,
    steals   INTEGER NOT NULL DEFAULT 0,
    cells    TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS heartbeats (
    worker TEXT PRIMARY KEY,
    beat   REAL NOT NULL,
    lease  INTEGER,
    pid    INTEGER
);
"""

_SCHEMA += _LEASE_SCHEMA


def _is_busy_error(exc: sqlite3.OperationalError) -> bool:
    msg = str(exc).lower()
    return "locked" in msg or "busy" in msg


def _busy_retry(op: Callable[[], Any], tally: Callable[[], None]) -> Any:
    """Run one whole transaction with bounded backoff on lock
    contention (on top of SQLite's own ``busy_timeout``, which a
    writer-starved WAL checkpoint can still exhaust)."""
    delay = BUSY_BACKOFF_S
    for attempt in range(BUSY_RETRIES + 1):
        try:
            return op()
        except sqlite3.OperationalError as exc:
            if not _is_busy_error(exc) or attempt >= BUSY_RETRIES:
                raise
            tally()
            time.sleep(delay)
            delay = min(delay * 2.0, BUSY_BACKOFF_MAX_S)


class SqliteResultStore(ResultStore):
    """WAL-mode SQLite store under one campaign directory.

    Two files: ``results.sqlite`` (records + quarantine tables) and the
    shared ``summary.json``.  Open one instance per process; SQLite's
    locking makes cross-process writes safe, and every operation here
    is a single transaction.
    """

    RESULTS = "results.sqlite"

    kind = "sqlite"

    def __init__(self, root: Union[str, Path]):
        self.root = _coerce_root(root, "sqlite")
        self.root.mkdir(parents=True, exist_ok=True)
        self.quarantined = 0
        #: Busy-retry accounting: transactions re-run after a
        #: ``database is locked/busy`` error (surfaced as a
        #: ``store_retries`` telemetry record by campaign runs).
        self.busy_retries = 0
        self._conn: sqlite3.Connection | None = None
        self._leases: "LeaseTable | None" = None

    def _with_busy_retry(self, op: Callable[[], Any]) -> Any:
        """See :func:`_busy_retry`; retries land in ``busy_retries``."""

        def _tally() -> None:
            self.busy_retries += 1

        return _busy_retry(op, _tally)

    @property
    def db_path(self) -> Path:
        return self.root / self.RESULTS

    def _connect(self) -> sqlite3.Connection:
        if self._conn is None:
            conn = sqlite3.connect(self.db_path, timeout=BUSY_TIMEOUT_MS / 1000)
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
            conn.executescript(_SCHEMA)
            conn.commit()
            self._conn = conn
        return self._conn

    def close(self) -> None:
        """Close the result and lease connections; both reconnect lazily
        on next use (a lease coordinator closes them before each fork)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None
        if self._leases is not None:
            self._leases.close()

    # -- writing ---------------------------------------------------------
    @staticmethod
    def _row(record: Mapping[str, Any]) -> tuple[str, int, str]:
        rec = ResultStore._stamp(record)
        return (str(rec["key"]), int(rec["v"]), _canonical_json(rec))

    def append(self, record: Mapping[str, Any]) -> None:
        self.append_many([record])

    def append_many(self, records: Iterable[Mapping[str, Any]]) -> None:
        rows = [self._row(rec) for rec in records]
        if not rows:
            return
        plan = active_plan()
        torn_exc = None
        if plan is not None:
            # Chaos-harness path: an injected "fail" drops the whole
            # uncommitted transaction (what a crash mid-commit does);
            # an injected "torn" commits the batch with the victim's
            # payload truncated (what a corrupted page recovers to) --
            # a retry's INSERT OR REPLACE heals it, an abandoned store
            # quarantines it on the next load.
            for i, (key, v, raw) in enumerate(rows):
                kind = plan.store_fault(key)
                if kind == "fail":
                    raise InjectedFault(
                        f"injected store failure before record {key!r}"
                    )
                if kind == "torn":
                    rows[i] = (key, v, raw[: max(1, len(raw) // 2)])
                    torn_exc = InjectedFault(
                        f"injected torn payload at record {key!r}"
                    )
                    break

        def _commit():
            conn = self._connect()
            with conn:  # one transaction per batch, however large
                conn.executemany(
                    "INSERT OR REPLACE INTO results (key, v, record) "
                    "VALUES (?, ?, ?)",
                    rows,
                )

        self._with_busy_retry(_commit)
        if torn_exc is not None:
            raise torn_exc

    def append_telemetry(self, records: Iterable[Mapping[str, Any]]) -> None:
        rows = [
            (str(rec.get("kind", "cell")), _canonical_json(dict(rec)))
            for rec in records
        ]
        if not rows:
            return

        def _commit():
            conn = self._connect()
            with conn:
                conn.executemany(
                    "INSERT INTO telemetry (kind, record) VALUES (?, ?)",
                    rows,
                )

        self._with_busy_retry(_commit)

    def load_telemetry(self) -> list[dict[str, Any]]:
        if not self.db_path.exists():
            return []
        out: list[dict[str, Any]] = []
        for (raw,) in self._connect().execute(
            "SELECT record FROM telemetry ORDER BY id"
        ):
            try:
                rec = json.loads(raw)
            except json.JSONDecodeError:
                continue  # telemetry is best-effort: skip bad rows
            if isinstance(rec, dict):
                out.append(rec)
        return out

    def append_poison(self, records: Iterable[Mapping[str, Any]]) -> None:
        rows = [
            (str(rec.get("key", "")), _canonical_json(dict(rec)))
            for rec in records
        ]
        if not rows:
            return

        def _commit():
            conn = self._connect()
            with conn:
                conn.executemany(
                    "INSERT INTO poison (key, record) VALUES (?, ?)",
                    rows,
                )

        self._with_busy_retry(_commit)

    def load_poison(self) -> list[dict[str, Any]]:
        if not self.db_path.exists():
            return []
        out: list[dict[str, Any]] = []
        for (raw,) in self._connect().execute(
            "SELECT record FROM poison ORDER BY id"
        ):
            try:
                rec = json.loads(raw)
            except json.JSONDecodeError:
                continue  # diagnosis channel: best-effort like telemetry
            if isinstance(rec, dict):
                out.append(rec)
        return out

    # -- reading ---------------------------------------------------------
    def _rows(self) -> Iterator[tuple[str, str]]:
        if not self.db_path.exists():
            return
        cur = self._connect().execute(
            "SELECT key, record FROM results ORDER BY rowid"
        )
        try:
            yield from cur
        finally:
            cur.close()

    def _quarantine(
        self, records: Mapping[str, Any], bad: list[tuple[str, str]]
    ) -> None:
        conn = self._connect()

        def _commit():
            with conn:
                conn.executemany(
                    "INSERT INTO quarantine (line) VALUES (?)",
                    [(raw,) for _, raw in bad],
                )
                conn.executemany(
                    "DELETE FROM results WHERE key = ?",
                    [(key,) for key, _ in bad],
                )

        self._with_busy_retry(_commit)

    def quarantine_lines(self) -> list[str]:
        """Raw payloads moved aside so far (parity with ``quarantine.jsonl``)."""
        if not self.db_path.exists():
            return []
        return [
            line
            for (line,) in self._connect().execute(
                "SELECT line FROM quarantine ORDER BY rowid"
            )
        ]

    def leases(self) -> "LeaseTable":
        """This store's lease table, living inside ``results.sqlite``
        itself -- claims, results, and heartbeats commit through one
        WAL database (old stores grow the tables on first connect)."""
        if self._leases is None:
            self._leases = LeaseTable(self.db_path)
        return self._leases


# ----------------------------------------------------------------------
# Lease coordination (PR 10)
# ----------------------------------------------------------------------
#: Lease lifecycle: ``open`` (plannable) -> ``active`` (a worker holds
#: it until ``deadline``) -> ``done`` | ``split`` (re-issued as
#: single-cell children after a reclaim) | ``poison`` (killed too many
#: workers; cells routed to the poison channel) | ``reclaimed`` (a
#: restarted coordinator superseded it with a fresh plan).
LEASE_STATES = ("open", "active", "done", "split", "poison", "reclaimed")

#: Lease states that still represent outstanding work.
LEASE_UNFINISHED = ("open", "active")


class LeaseTable:
    """Atomic lease + heartbeat operations over one SQLite database.

    The coordination half of the distributed-campaign story: the
    SQLite result store hosts these tables inside ``results.sqlite``;
    the single-writer JSONL store delegates to a ``leases.sqlite``
    sidecar in the same campaign directory, so coordination is always
    multi-writer-safe regardless of where the records land.

    Every mutation is a single transaction under the same bounded
    busy-retry as the result tables.  Claim and steal are atomic
    compare-and-swap ``UPDATE``s: two racing workers can never both win
    a lease, and a worker that lost its lease to the reclaim path finds
    out at its next renew (rowcount 0) and abandons the work -- the
    records it may already have appended are harmless, because cell
    records are keyed last-record-wins and seeds derive from the spec,
    never the worker.

    All clocks are caller-supplied unix timestamps (``now``): the table
    stores and compares them but never reads the wall clock itself,
    which keeps expiry logic deterministic under test.
    """

    def __init__(self, db_path: Union[str, Path]):
        self.db_path = Path(db_path)
        self.busy_retries = 0
        self._conn: sqlite3.Connection | None = None

    def _connect(self) -> sqlite3.Connection:
        if self._conn is None:
            self.db_path.parent.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(self.db_path, timeout=BUSY_TIMEOUT_MS / 1000)
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
            conn.executescript(_LEASE_SCHEMA)
            conn.commit()
            self._conn = conn
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def _retry(self, op: Callable[[], Any]) -> Any:
        def _tally() -> None:
            self.busy_retries += 1

        return _busy_retry(op, _tally)

    # -- rows ------------------------------------------------------------
    _COLS = "id, state, worker, cost, deadline, deaths, steals, cells"

    @staticmethod
    def _to_row(raw: tuple) -> dict[str, Any]:
        lease_id, state, worker, cost, deadline, deaths, steals, cells = raw
        try:
            parsed = json.loads(cells)
        except json.JSONDecodeError:
            parsed = []
        return {
            "id": int(lease_id),
            "state": str(state),
            "worker": worker,
            "cost": float(cost),
            "deadline": float(deadline) if deadline is not None else None,
            "deaths": int(deaths),
            "steals": int(steals),
            "cells": parsed if isinstance(parsed, list) else [],
        }

    def _fetch(self, lease_id: int) -> Optional[dict[str, Any]]:
        raw = (
            self._connect()
            .execute(
                f"SELECT {self._COLS} FROM leases WHERE id = ?", (lease_id,)
            )
            .fetchone()
        )
        return self._to_row(raw) if raw is not None else None

    def rows(self) -> list[dict[str, Any]]:
        """Every lease, in plan order (reporting / monitoring)."""
        if not self.db_path.exists():
            return []
        return [
            self._to_row(raw)
            for raw in self._connect().execute(
                f"SELECT {self._COLS} FROM leases ORDER BY id"
            )
        ]

    def counts(self) -> dict[str, int]:
        """Lease count per state (only states present appear)."""
        if not self.db_path.exists():
            return {}
        return {
            str(state): int(n)
            for state, n in self._connect().execute(
                "SELECT state, COUNT(*) FROM leases GROUP BY state"
            )
        }

    def unfinished(self) -> int:
        """Leases still representing outstanding work (open or active)."""
        (n,) = (
            self._connect()
            .execute(
                "SELECT COUNT(*) FROM leases WHERE state IN (?, ?)",
                LEASE_UNFINISHED,
            )
            .fetchone()
        )
        return int(n)

    # -- planning --------------------------------------------------------
    def add_many(self, leases: Iterable[Mapping[str, Any]]) -> list[int]:
        """Insert open leases (``{"cells": [...], "cost": float}`` each,
        optional inherited ``deaths``); returns their ids in order."""
        rows = [
            (
                float(lease.get("cost", 0.0)),
                int(lease.get("deaths", 0)),
                _canonical_json(list(lease["cells"])),
            )
            for lease in leases
        ]
        if not rows:
            return []

        def _commit() -> list[int]:
            conn = self._connect()
            ids: list[int] = []
            with conn:
                for cost, deaths, cells in rows:
                    cur = conn.execute(
                        "INSERT INTO leases (state, cost, deaths, cells) "
                        "VALUES ('open', ?, ?, ?)",
                        (cost, deaths, cells),
                    )
                    ids.append(int(cur.lastrowid))
            return ids

        return self._retry(_commit)

    def supersede_incomplete(self) -> list[dict[str, Any]]:
        """Mark every open/active lease ``reclaimed`` and return them.

        The coordinator-restart path: a fresh plan over the store's
        missing cells replaces whatever a dead coordinator left behind,
        and the returned rows let it carry each cell's accumulated
        death count into the new plan (a cell's kill history must
        survive the coordinator that observed it).
        """

        def _commit() -> list[dict[str, Any]]:
            conn = self._connect()
            with conn:
                stale = [
                    self._to_row(raw)
                    for raw in conn.execute(
                        f"SELECT {self._COLS} FROM leases "
                        "WHERE state IN (?, ?)",
                        LEASE_UNFINISHED,
                    )
                ]
                conn.execute(
                    "UPDATE leases SET state = 'reclaimed', deadline = NULL "
                    "WHERE state IN (?, ?)",
                    LEASE_UNFINISHED,
                )
            return stale

        return self._retry(_commit)

    # -- the worker protocol ---------------------------------------------
    def claim(
        self, worker: str, ttl: float, now: float
    ) -> Optional[dict[str, Any]]:
        """Atomically claim the dearest open lease (or ``None``).

        Dearest-first mirrors the planner: expensive leases start the
        moment a worker is free, cheap tail leases backfill.
        """

        def _op() -> Optional[dict[str, Any]]:
            conn = self._connect()
            while True:
                raw = conn.execute(
                    "SELECT id FROM leases WHERE state = 'open' "
                    "ORDER BY cost DESC, id LIMIT 1"
                ).fetchone()
                if raw is None:
                    return None
                lease_id = int(raw[0])
                with conn:
                    cur = conn.execute(
                        "UPDATE leases SET state = 'active', worker = ?, "
                        "deadline = ? WHERE id = ? AND state = 'open'",
                        (worker, now + ttl, lease_id),
                    )
                if cur.rowcount == 1:
                    return self._fetch(lease_id)
                # Raced: another worker won this lease; try the next.

        return self._retry(_op)

    def steal(
        self, worker: str, ttl: float, now: float
    ) -> Optional[dict[str, Any]]:
        """Atomically take over the dearest *expired* active lease.

        The work-stealing half of fault tolerance: a lease whose holder
        stopped renewing (SIGKILLed, hung, partitioned) becomes fair
        game once its deadline passes.  ``deaths`` counts the takeovers
        -- the cells' exposure ledger -- and the expiry re-check inside
        the UPDATE guards against a holder that renewed in between.
        """

        def _op() -> Optional[dict[str, Any]]:
            conn = self._connect()
            while True:
                raw = conn.execute(
                    "SELECT id FROM leases WHERE state = 'active' "
                    "AND deadline IS NOT NULL AND deadline < ? "
                    "ORDER BY cost DESC, id LIMIT 1",
                    (now,),
                ).fetchone()
                if raw is None:
                    return None
                lease_id = int(raw[0])
                with conn:
                    cur = conn.execute(
                        "UPDATE leases SET worker = ?, deadline = ?, "
                        "deaths = deaths + 1, steals = steals + 1 "
                        "WHERE id = ? AND state = 'active' "
                        "AND deadline IS NOT NULL AND deadline < ?",
                        (worker, now + ttl, lease_id, now),
                    )
                if cur.rowcount == 1:
                    return self._fetch(lease_id)

        return self._retry(_op)

    def renew(self, lease_id: int, worker: str, ttl: float, now: float) -> bool:
        """Extend a held lease's deadline; ``False`` means the lease was
        stolen or finished elsewhere and the worker must abandon it."""

        def _op() -> bool:
            conn = self._connect()
            with conn:
                cur = conn.execute(
                    "UPDATE leases SET deadline = ? "
                    "WHERE id = ? AND worker = ? AND state = 'active'",
                    (now + ttl, lease_id, worker),
                )
            return cur.rowcount == 1

        return self._retry(_op)

    def finish(
        self, lease_id: int, worker: Optional[str], state: str = "done"
    ) -> bool:
        """Move an active lease to a terminal state (holder-checked when
        ``worker`` is given)."""
        if state not in LEASE_STATES or state in LEASE_UNFINISHED:
            raise ValueError(f"not a terminal lease state: {state!r}")

        def _op() -> bool:
            conn = self._connect()
            with conn:
                if worker is None:
                    cur = conn.execute(
                        "UPDATE leases SET state = ?, deadline = NULL "
                        "WHERE id = ? AND state = 'active'",
                        (state, lease_id),
                    )
                else:
                    cur = conn.execute(
                        "UPDATE leases SET state = ?, deadline = NULL "
                        "WHERE id = ? AND worker = ? AND state = 'active'",
                        (state, lease_id, worker),
                    )
            return cur.rowcount == 1

        return self._retry(_op)

    def split(
        self,
        lease_id: int,
        worker: str,
        children: Iterable[Mapping[str, Any]],
    ) -> list[int]:
        """Replace a held multi-cell lease with open single-cell children.

        Culprit isolation after a reclaim (the pool-death resurrection
        idiom, lifted to leases): a stolen lease's cells re-enter the
        queue one per lease, so whichever cell kills workers is cornered
        alone while its innocent chunk-mates complete normally.
        """
        rows = [
            (
                float(child.get("cost", 0.0)),
                int(child.get("deaths", 0)),
                _canonical_json(list(child["cells"])),
            )
            for child in children
        ]

        def _commit() -> list[int]:
            conn = self._connect()
            ids: list[int] = []
            with conn:
                cur = conn.execute(
                    "UPDATE leases SET state = 'split', deadline = NULL "
                    "WHERE id = ? AND worker = ? AND state = 'active'",
                    (lease_id, worker),
                )
                if cur.rowcount != 1:
                    return []  # lost the lease mid-split: abandon
                for cost, deaths, cells in rows:
                    cur = conn.execute(
                        "INSERT INTO leases (state, cost, deaths, cells) "
                        "VALUES ('open', ?, ?, ?)",
                        (cost, deaths, cells),
                    )
                    ids.append(int(cur.lastrowid))
            return ids

        return self._retry(_commit)

    # -- heartbeats ------------------------------------------------------
    def beat(
        self,
        worker: str,
        now: float,
        lease_id: Optional[int] = None,
        pid: Optional[int] = None,
    ) -> None:
        """Record a worker's liveness (idle polls beat too, so a hung
        *cell* is distinguishable from a dead *process*)."""

        def _commit() -> None:
            conn = self._connect()
            with conn:
                conn.execute(
                    "INSERT OR REPLACE INTO heartbeats "
                    "(worker, beat, lease, pid) VALUES (?, ?, ?, ?)",
                    (worker, now, lease_id, pid),
                )

        self._retry(_commit)

    def heartbeat_rows(self) -> list[dict[str, Any]]:
        if not self.db_path.exists():
            return []
        return [
            {
                "worker": str(worker),
                "beat": float(beat),
                "lease": int(lease) if lease is not None else None,
                "pid": int(pid) if pid is not None else None,
            }
            for worker, beat, lease, pid in self._connect().execute(
                "SELECT worker, beat, lease, pid FROM heartbeats "
                "ORDER BY worker"
            )
        ]
