"""Pluggable persistent campaign result stores.

A campaign's results live in a *store*: one record per evaluated cell,
keyed by a sha256 content hash of the cell's spec, plus an aggregate
``summary.json``.  Two interchangeable backends implement the
:class:`ResultStore` contract:

:class:`JsonlResultStore` (``jsonl:DIR`` or a plain directory)
    Append-only ``results.jsonl`` under a campaign directory: the
    original backend, human-greppable and diff-friendly.  Every write
    to one of its JSONL files holds an exclusive ``flock`` on that file,
    so concurrent writers (lease workers, a campaign beside them) append
    whole batches and never interleave within a line.
:class:`SqliteResultStore` (``sqlite:DIR``)
    ``results.sqlite`` under a campaign directory, WAL-journaled, cell
    keys as primary keys; concurrent writers serialise at commit
    granularity, and it hosts the lease tables itself.

:func:`open_store` is the factory: it accepts a store instance, a
``scheme:path`` URL, or a bare directory (auto-detected by the files
present, defaulting to JSONL).  Everything above the store -- resume,
cost-model refit, perf-budget verdicts, ``diff_stores`` -- is
backend-agnostic.

Shared semantics (the backend contract)
---------------------------------------
* ``append`` / ``append_many`` persist records carrying a ``key``;
  duplicate keys are legal and the **last** record wins.
* ``load`` returns all valid records keyed by cell key.  Corrupt rows
  (torn JSONL lines, manually edited SQLite payloads) are moved to the
  backend's quarantine (``quarantine.jsonl`` file / ``quarantine``
  table), counted in :attr:`ResultStore.quarantined`, and never raised.
* Two side channels sit beside the records: run telemetry
  (``append_telemetry``/``load_telemetry``) and poison diagnoses
  (``append_poison``/``load_poison``).  Both are append-only and
  best-effort (an unparseable row is skipped on load), and neither
  feeds the summary.  They are written once, on :class:`ResultStore`,
  over two backend hooks: append rows to a channel, read its rows.
* ``write_summary`` rewrites ``summary.json`` from the records.  The
  summary is **deterministic**: it aggregates only content-derived
  fields (verdict counts, tightness), never wall clocks -- so a
  campaign spread over N concurrent worker processes produces a
  ``summary.json`` bit-identical to the serial single-process run.
  It streams: :meth:`ResultStore.verdicts` parses the store one record
  at a time and keeps, per cell key, only the four fields the summary
  aggregates (``sound``, ``error``, ``budget_ok``, ``tightness``), so
  summarising never holds the full records.  Its first corrupt row
  hands over to ``load``, whose quarantine then runs as described.

Cell record schema (``v`` = 2)::

    {"v": 2,
     "key": <sha256 prefix over the full scenario spec, seed included>,
     "fingerprint": <sha256 prefix over the spec minus its seed>,
     "name": str, "sound": bool, "error": str | null,
     "measured": float, "bound": float, "baseline_bound": float,
     "eps": float, "tightness": float,
     "eff_mode": str, "eff_backend": str, "hops": int,
     "propagation_total": float, "events": int, "cancelled_events": int,
     "height_ok": bool, "wall_time": float,
     "perf_budget": float, "budget_ok": bool, "tags": [str, ...],
     "backend": str, "k": int, "tree_members": int,
     "horizon": float, "dt": float,
     "spec": {<full Scenario spec as a JSON object>}}

``v2`` adds ``spec`` -- the complete scenario spec -- so a store is
self-contained: ``scenarios curate`` re-materialises promising cells
from it without the generating code, and any cell can be re-run from
its record alone.  ``v1`` records (no ``spec``) load fine.

``key`` identifies *the evaluation*: it hashes every field that can
change a realised trace or a measured delay (any such change
re-evaluates), but **not** ``perf_budget`` -- a budget only moves the
verdict threshold, so tightening it must neither invalidate stored
measurements nor decouple two otherwise-identical campaigns under
``diff``.  ``fingerprint`` additionally drops the seed: it names the
configuration alone, is what deterministic per-cell seed derivation
hashes (:func:`repro.scenarios.generator.generate_scenarios`).  Keys
are content hashes, so two campaigns are diffable cell-by-cell no
matter how their matrices were ordered, chunked, or leased.
"""

from __future__ import annotations

import dataclasses
import fcntl
import hashlib
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    Mapping,
    NamedTuple,
    Optional,
    TextIO,
    Union,
)

from repro.runtime.faults import InjectedFault, active_plan

__all__ = [
    "SCHEMA_VERSION",
    "spec_fingerprint",
    "cell_key",
    "ResultStore",
    "JsonlResultStore",
    "open_store",
    "CampaignDiff",
    "diff_records",
    "diff_stores",
]

SCHEMA_VERSION = 2

#: Hex digits kept from the sha256 digest (64 bits: ample for campaign
#: sizes while keeping keys human-greppable).
_KEY_LEN = 16


def _canonical_json(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _fsync_dir(path: Path) -> None:
    """fsync a directory so a just-renamed entry survives power loss
    (best-effort: not every filesystem supports directory fds)."""
    try:
        fd = os.open(path, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _atomic_write(path: Path, text: str) -> None:
    """Replace ``path`` by a file holding ``text``, crash-consistently.

    The text goes to a temporary sibling, which is fsynced and renamed
    over ``path``; the directory is fsynced after the rename.  A reader,
    a racing writer or a resume after SIGKILL therefore never sees a
    truncated file, the new one survives a power cut at any instant, and
    a write that fails leaves ``path`` as it was.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _fsync_dir(path.parent)


@contextmanager
def _locked(path: Path) -> Iterator[TextIO]:
    """``path`` opened for appending under an exclusive ``flock``.

    Every JSONL write goes through here, so concurrent writers append
    whole batches in turn.  A writer that waited while a quarantine
    replaced the file holds the lock of the replaced inode, where its
    rows would be lost: it reopens the file until the lock it holds is
    the current file's.  Closing the file flushes it, then releases the
    lock.
    """
    while True:
        fh = path.open("a+")
        try:
            fcntl.flock(fh, fcntl.LOCK_EX)
            current = os.path.samestat(os.fstat(fh.fileno()), os.stat(path))
        except FileNotFoundError:
            current = False
        except BaseException:
            fh.close()
            raise
        if current:
            break
        fh.close()
    with fh:
        yield fh


def _end_line(fh: TextIO) -> None:
    """Start the next row on a fresh line.

    A crash (or an injected torn write) can leave a file ending
    mid-line; a row appended straight after would merge into that
    residue and be lost with it.  Called under :func:`_locked`, where a
    missing newline can only be such residue, never a peer mid-append.
    """
    size = os.fstat(fh.fileno()).st_size
    if size and os.pread(fh.fileno(), 1, size - 1) != b"\n":
        fh.write("\n")


def _append_lines(path: Path, lines: Iterable[str]) -> None:
    """Append ``lines`` (one row each) to ``path`` under its lock."""
    with _locked(path) as fh:
        _end_line(fh)
        fh.write("".join(line + "\n" for line in lines))


def _jsonl_lines(path: Path) -> Iterator[str]:
    """The non-blank lines of a JSONL file, read one at a time (none
    when the file does not exist)."""
    if not path.exists():
        return
    with path.open() as fh:
        for physical in fh:
            # str.splitlines() also breaks at \f, \x1c, \u2028 and the
            # like, which only a corrupt line holds raw: split each
            # physical line the same way, so every line counts as it
            # would in the whole file's splitlines().
            for line in physical.splitlines():
                if line.strip():
                    yield line


def _coerce_root(root: Any, scheme: str) -> Path:
    """Validate and normalise a store constructor's ``root`` argument.

    Only strings and path-likes (``os.PathLike``) are acceptable:
    anything else (a :class:`ResultStore` instance, an outcome object,
    ...) used to be ``str()``-coerced into a literal
    ``<... object at 0x...>`` directory on disk.  Such targets now
    fail loudly with the routing advice (``open_store`` passes
    instances through).
    """
    if isinstance(root, os.PathLike):
        return Path(os.fspath(root))
    if not isinstance(root, str):
        raise TypeError(
            f"store root must be a str or path-like, got {type(root).__name__}"
            + (
                "; pass existing store instances through open_store()"
                if isinstance(root, ResultStore)
                else ""
            )
        )
    if root.startswith(scheme + ":"):
        root = root[len(scheme) + 1:]
    return Path(root)


def _spec_dict(spec: Any) -> dict[str, Any]:
    """A spec's fields as a fresh top-level dict.

    Dataclass specs are read field by field, without the recursive deep
    copy of ``dataclasses.asdict``: scenario fields are scalars or
    tuples of scalars, so both dicts serialise to the same canonical
    JSON (the same keys, fingerprints and stored bytes).
    """
    if dataclasses.is_dataclass(spec) and not isinstance(spec, type):
        return {f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)}
    if isinstance(spec, Mapping):
        return dict(spec)
    raise TypeError(
        f"spec must be a dataclass instance or mapping, got {type(spec).__name__}"
    )


#: Spec fields that cannot change a realised trace or measured delay
#: (verdict-threshold knobs); excluded from both hashes so execution
#: details never re-key or re-seed a cell.
_VERDICT_ONLY_FIELDS = ("perf_budget",)


def _hash_fields(fields: Mapping[str, Any]) -> str:
    digest = hashlib.sha256(_canonical_json(dict(fields)).encode()).hexdigest()
    return digest[:_KEY_LEN]


def spec_fingerprint(spec: Any) -> str:
    """Content hash of a scenario spec **excluding seed and verdict knobs**.

    The fingerprint names a cell's configuration; the deterministic
    seed derivation ``derive_seed(campaign_seed, fingerprint)`` then
    gives every cell an RNG stream that depends only on *what* the cell
    is, never on where or when it executes or how it is verdicted.
    """
    fields = _spec_dict(spec)
    fields.pop("seed", None)
    for name in _VERDICT_ONLY_FIELDS:
        fields.pop(name, None)
    return _hash_fields(fields)


def cell_key(spec: Any) -> str:
    """Content hash of the evaluation-relevant spec (seed included).

    Verdict-only knobs (``perf_budget``) are excluded: they cannot
    change a measurement, so budget changes neither invalidate stored
    results on resume nor break cell alignment across ``diff``.
    """
    fields = _spec_dict(spec)
    for name in _VERDICT_ONLY_FIELDS:
        fields.pop(name, None)
    return _hash_fields(fields)


class _Verdict(NamedTuple):
    """What :meth:`ResultStore.write_summary` aggregates of one record."""

    sound: bool
    error: bool
    over_budget: bool
    #: The record's ``tightness`` if numeric (``NaN`` included), else ``None``.
    tightness: Optional[float]


def _verdict(rec: Mapping[str, Any]) -> _Verdict:
    tightness = rec.get("tightness")
    return _Verdict(
        bool(rec.get("sound")),
        bool(rec.get("error")),
        rec.get("budget_ok") is False,
        tightness if isinstance(tightness, (int, float)) else None,
    )


# ----------------------------------------------------------------------
# The store contract
# ----------------------------------------------------------------------
class ResultStore:
    """Backend contract for persistent campaign result stores.

    Calling the base class dispatches through :func:`open_store`, so
    ``ResultStore(target)`` keeps working as the one-stop constructor
    for paths and URLs::

        ResultStore("campaigns/nightly")          # JSONL (default)
        ResultStore("sqlite:campaigns/nightly")   # SQLite backend

    (An existing store *instance* must go through :func:`open_store`
    instead: ``type.__call__`` would re-run the instance's ``__init__``
    after the dispatching ``__new__`` returned it.)

    Subclasses implement ``append_many``, the raw-row read ``_rows``,
    the quarantine move ``_quarantine`` and the side-channel hooks
    ``_append_rows`` and ``_channel_rows``, plus the ``kind`` label;
    everything else (the parse loop behind ``load`` and the summary,
    completed keys, the side channels) is shared and backend-agnostic.
    """

    SUMMARY = "summary.json"
    #: Sidecar SQLite database holding the lease + heartbeat tables for
    #: backends whose results file is not itself multi-writer-safe.
    LEASES = "leases.sqlite"

    #: Backend label (CLI/report lines, ``open_store`` schemes).
    kind: str = "abstract"
    #: Campaign directory.
    root: Path
    #: Number of corrupt rows moved aside by the last :meth:`load`.
    quarantined: int = 0

    def __new__(cls, target: Union[str, Path, None] = None, *args, **kwargs):
        if cls is ResultStore:
            if target is None:
                raise TypeError("ResultStore needs a target path or URL")
            if isinstance(target, ResultStore):
                raise TypeError(
                    "pass existing store instances to open_store(); "
                    "ResultStore(instance) would re-run its __init__"
                )
            return open_store(target)
        return super().__new__(cls)

    @property
    def summary_path(self) -> Path:
        return self.root / self.SUMMARY

    def append(self, record: Mapping[str, Any]) -> None:
        """Persist one cell record (must carry a ``key``)."""
        self.append_many([record])

    # -- backend hooks ---------------------------------------------------
    def append_many(self, records: Iterable[Mapping[str, Any]]) -> None:
        """Persist cell records (each must carry a ``key``) in one
        write."""
        raise NotImplementedError

    def _rows(self) -> Iterator[tuple[Any, str]]:
        """Every stored record row as ``(row id, raw JSON text)``, in
        store order, read one at a time (the row id is whatever
        :meth:`_quarantine` needs to move the row aside)."""
        raise NotImplementedError

    def _quarantine(
        self, records: dict[str, Any], bad: list[tuple[Any, str]]
    ) -> tuple[dict[str, Any], list[tuple[Any, str]]]:
        """Move corrupt rows aside; returns the valid records and the
        rows moved.  ``records`` and ``bad`` are a :meth:`_parse` of the
        store; a backend that must re-read it first (to keep rows a peer
        appended since) returns its own."""
        raise NotImplementedError

    def _append_rows(
        self, channel: str, rows: list[tuple[dict[str, Any], str]]
    ) -> None:
        """Append ``(record, JSON text)`` rows to a side channel
        (``"telemetry"`` or ``"poison"``).  A no-op here, so store-like
        test doubles ignore the side channels for free."""

    def _channel_rows(self, channel: str) -> Iterable[str]:
        """A side channel's raw JSON rows, in append order."""
        return ()

    def _parse(
        self, project: Optional[Callable[[dict], Any]] = None
    ) -> tuple[dict[str, Any], list[tuple[Any, str]]]:
        """The one parse loop: valid records keyed by cell key (last
        record wins) and the corrupt rows, each as its ``_rows`` pair.

        With ``project``, each valid record is kept as ``project(rec)``
        and the read stops at the first corrupt row (the caller then
        falls back to :meth:`load`).
        """
        records: dict[str, Any] = {}
        bad: list[tuple[Any, str]] = []
        rows = self._rows()
        try:
            for row_id, raw in rows:
                try:
                    rec = json.loads(raw)
                    key = rec["key"]
                except (json.JSONDecodeError, TypeError, KeyError):
                    bad.append((row_id, raw))
                    if project is not None:
                        break
                    continue
                records[str(key)] = rec if project is None else project(rec)
        finally:
            rows.close()
        return records, bad

    def load(self) -> dict[str, dict[str, Any]]:
        """All valid records keyed by cell key (last record wins).

        Corrupt rows are moved to the backend's quarantine and counted
        in :attr:`quarantined` -- never raised.
        """
        records, bad = self._parse()
        if bad:
            records, bad = self._quarantine(records, bad)
        self.quarantined = len(bad)
        return records

    def verdicts(self) -> dict[str, _Verdict]:
        """What the summary aggregates of each record, keyed by cell key.

        One streamed read: records are parsed one at a time and only
        their :class:`_Verdict` fields kept, in :meth:`load`'s key
        order.  At the
        first corrupt row this falls back to :meth:`load`, which
        quarantines it; :attr:`quarantined` is set as ``load`` sets it.
        """
        verdicts, bad = self._parse(_verdict)
        if bad:
            return {key: _verdict(rec) for key, rec in self.load().items()}
        self.quarantined = 0
        return verdicts

    # -- side channels ---------------------------------------------------
    def append_telemetry(self, records: Iterable[Mapping[str, Any]]) -> None:
        """Persist run telemetry records (spans/counters/grouping/fit).

        A separate channel from cell records: telemetry is run-local
        observability data, never feeds :meth:`write_summary` (which
        must stay deterministic), and needs no keys -- records
        accumulate append-only across runs.
        """
        self._append_channel("telemetry", records)

    def load_telemetry(self) -> list[dict[str, Any]]:
        """All telemetry records, in append order (unparseable rows are
        skipped -- telemetry must never fail a load)."""
        return list(self.iter_telemetry())

    def iter_telemetry(self) -> Iterator[dict[str, Any]]:
        """:meth:`load_telemetry`'s records, parsed one at a time."""
        return self._channel("telemetry")

    def append_poison(self, records: Iterable[Mapping[str, Any]]) -> None:
        """Persist poison-cell records (cells that failed all retries).

        A dedicated quarantine-like channel, separate from results so a
        ``--resume`` can retry exactly the poisoned cells while the
        diagnosis (attempt count, last error) survives next to the
        campaign.  Appends accumulate.
        """
        self._append_channel("poison", records)

    def load_poison(self) -> list[dict[str, Any]]:
        """All poison records, in append order (best-effort parse)."""
        return list(self._channel("poison"))

    def _append_channel(
        self, channel: str, records: Iterable[Mapping[str, Any]]
    ) -> None:
        rows = [(rec, _canonical_json(rec)) for rec in map(dict, records)]
        if rows:
            self._append_rows(channel, rows)

    def _channel(self, channel: str) -> Iterator[dict[str, Any]]:
        for raw in self._channel_rows(channel):
            try:
                rec = json.loads(raw)
            except json.JSONDecodeError:
                continue  # best-effort: a torn row never fails a load
            if isinstance(rec, dict):
                yield rec

    def close(self) -> None:
        """Release backend resources: the lease table's connection (file
        backends hold no other).  It reconnects lazily on next use."""
        table = getattr(self, "_lease_table", None)
        if table is not None:
            table.close()

    def leases(self):
        """This store's lease/heartbeat table (the distributed-campaign
        coordination surface, see
        :class:`repro.runtime.store_sqlite.LeaseTable`).

        The SQLite backend hosts the tables inside ``results.sqlite``;
        every other backend (including this base implementation)
        delegates to a ``leases.sqlite`` sidecar in the campaign
        directory, whose transactions make claims atomic.
        """
        table = getattr(self, "_lease_table", None)
        if table is None:
            from repro.runtime.store_sqlite import LeaseTable

            table = LeaseTable(self.root / self.LEASES)
            self._lease_table = table
        return table

    # -- shared ----------------------------------------------------------
    @staticmethod
    def _stamp(record: Mapping[str, Any]) -> dict[str, Any]:
        if "key" not in record:
            raise ValueError("a cell record needs a 'key'")
        return {"v": SCHEMA_VERSION, **record}

    def completed_keys(self) -> set[str]:
        """Keys of cells whose evaluation finished without a crash."""
        return {key for key, v in self.verdicts().items() if not v.error}

    def write_summary(
        self,
        extra: Optional[Mapping[str, Any]] = None,
        *,
        verdicts: Optional[Mapping[str, _Verdict]] = None,
    ) -> dict:
        """Aggregate the store into ``summary.json`` (and return it).

        Deterministic by construction: only content-derived verdict
        aggregates enter the summary (never wall clocks or run-local
        accounting), so any partitioning of a campaign over concurrent
        writers summarises bit-identically to the serial run.  Volatile
        run facts (throughput, worker wall time) live in the run report
        (:class:`repro.runtime.campaign.CampaignReport`) instead.

        ``verdicts`` (optional) is a :meth:`verdicts` read the caller
        just made, with :attr:`quarantined` as it left it; without one
        the store is read here.
        """
        if verdicts is None:
            verdicts = self.verdicts()
        cells = verdicts.values()
        summary = {
            "v": SCHEMA_VERSION,
            "cells": len(verdicts),
            "sound": sum(1 for v in cells if v.sound),
            "unsound": sum(1 for v in cells if not v.sound and not v.error),
            "errors": sum(1 for v in cells if v.error),
            "budget_violations": sum(1 for v in cells if v.over_budget),
            # NaN is skipped: max() over NaN would depend on the key
            # order, which differs between backends, and a NaN
            # tightness belongs to a cell already counted unsound or
            # as an error.
            "max_tightness": max(
                (
                    v.tightness
                    for v in cells
                    if v.tightness is not None and not math.isnan(v.tightness)
                ),
                default=0.0,
            ),
            "quarantined_rows": self.quarantined,
        }
        if extra:
            summary.update(extra)
        # Concurrent campaign processes each rewrite the summary as they
        # finish; none may leave a reader a truncated file.
        _atomic_write(self.summary_path, json.dumps(summary, indent=2) + "\n")
        return summary


# ----------------------------------------------------------------------
# JSONL backend
# ----------------------------------------------------------------------
class JsonlResultStore(ResultStore):
    """Append-only JSONL store under one campaign directory.

    ``results.jsonl`` (the source of truth), ``quarantine.jsonl``
    (lines that failed to parse -- torn writes, manual edits),
    ``summary.json`` and the side channels ``telemetry.jsonl`` and
    ``poison.jsonl``.  Every write to a JSONL file holds an exclusive
    ``flock`` on that file (see :func:`_locked`), so any number of
    processes may append to one store; the quarantine rewrites
    ``results.jsonl`` under that lock through a temporary file and a
    rename.
    """

    RESULTS = "results.jsonl"
    QUARANTINE = "quarantine.jsonl"
    TELEMETRY = "telemetry.jsonl"
    POISON = "poison.jsonl"

    kind = "jsonl"

    def __init__(self, root: Union[str, Path], *, fsync: bool = False):
        self.root = _coerce_root(root, "jsonl")
        self.root.mkdir(parents=True, exist_ok=True)
        self.quarantined = 0
        #: Durability knob: fsync ``results.jsonl`` after every append
        #: batch, trading throughput for power-loss safety.  Off by
        #: default -- locked appends plus the quarantine already cover
        #: process-kill crashes, the common failure.
        self.fsync = bool(fsync)

    @property
    def results_path(self) -> Path:
        return self.root / self.RESULTS

    @property
    def quarantine_path(self) -> Path:
        return self.root / self.QUARANTINE

    # -- writing ---------------------------------------------------------
    def append_many(self, records: Iterable[Mapping[str, Any]]) -> None:
        records = list(records)
        lines = [_canonical_json(self._stamp(rec)) + "\n" for rec in records]
        if not lines:
            return
        plan = active_plan()
        with _locked(self.results_path) as fh:
            _end_line(fh)
            if plan is None:
                fh.write("".join(lines))
            else:
                # Chaos-harness path: write record by record so an
                # injected failure leaves the same on-disk states a
                # real crash would -- nothing ("fail") or a torn line
                # ("torn").  Retrying re-appends the whole batch:
                # duplicates resolve last-record-wins and the torn
                # residue is quarantined on the next load.
                for rec, line in zip(records, lines):
                    kind = plan.store_fault(str(rec.get("key", "")))
                    if kind == "fail":
                        raise InjectedFault(
                            f"injected store failure before record "
                            f"{rec.get('key')!r}"
                        )
                    if kind == "torn":
                        fh.write(line[: max(1, len(line) // 2)])
                        raise InjectedFault(
                            f"injected torn write at record "
                            f"{rec.get('key')!r}"
                        )
                    fh.write(line)
            if self.fsync:
                fh.flush()
                os.fsync(fh.fileno())

    def _append_rows(
        self, channel: str, rows: list[tuple[dict[str, Any], str]]
    ) -> None:
        _append_lines(self.root / f"{channel}.jsonl", (raw for _, raw in rows))

    # -- reading ---------------------------------------------------------
    def _rows(self) -> Iterator[tuple[None, str]]:
        for line in _jsonl_lines(self.results_path):
            yield None, line

    def _channel_rows(self, channel: str) -> Iterator[str]:
        return _jsonl_lines(self.root / f"{channel}.jsonl")

    def _quarantine(
        self, records: dict[str, Any], bad: list[tuple[None, str]]
    ) -> tuple[dict[str, Any], list[tuple[None, str]]]:
        with _locked(self.results_path):
            # Re-read under the lock: a row a peer appended after the
            # caller's read must survive the rewrite, and a row that was
            # only mid-append then is whole now.
            records, bad = self._parse()
            if bad:
                _append_lines(self.quarantine_path, (line for _, line in bad))
                kept = (_canonical_json(r) + "\n" for r in records.values())
                _atomic_write(self.results_path, "".join(kept))
        return records, bad


# ----------------------------------------------------------------------
# Factory
# ----------------------------------------------------------------------
def open_store(
    target: Union[str, Path, "ResultStore"], *, must_exist: bool = False
) -> "ResultStore":
    """Open a result store from an instance, a URL, or a directory.

    * a :class:`ResultStore` instance is returned as-is;
    * ``sqlite:DIR`` / ``jsonl:DIR`` URLs force the named backend;
    * a bare path is auto-detected by the files already present
      (``results.sqlite`` -> SQLite, otherwise JSONL) -- so resuming or
      diffing an existing store never needs the URL spelled out.

    ``must_exist=True`` refuses to open a target with no results file
    on disk (``FileNotFoundError``) instead of silently creating an
    empty store.  Anything consumed as a *reference* -- a pinned
    baseline, a diff side, a curation source -- should pass it: a
    typo'd path must fail the gate loudly, never pass it by comparing
    against nothing.
    """
    if isinstance(target, ResultStore):
        return target
    if not isinstance(target, (str, os.PathLike)):
        # A stray object would be str()-coerced into a literal
        # "<... object at 0x...>" directory; fail loudly instead.
        raise TypeError(
            "open_store expects a ResultStore instance, a URL, or a "
            f"path; got {type(target).__name__}"
        )
    from repro.runtime.store_sqlite import SqliteResultStore

    spec = os.fspath(target) if isinstance(target, os.PathLike) else target
    if spec.startswith("sqlite:"):
        cls, root = SqliteResultStore, Path(spec[len("sqlite:"):])
    elif spec.startswith("jsonl:"):
        cls, root = JsonlResultStore, Path(spec[len("jsonl:"):])
    elif (Path(spec) / SqliteResultStore.RESULTS).exists():
        cls, root = SqliteResultStore, Path(spec)
    else:
        cls, root = JsonlResultStore, Path(spec)
    # A store that never appended a record still writes summary.json
    # (a campaign can legitimately evaluate zero cells), and a campaign
    # that crashed before any result landed may hold only telemetry or
    # poison diagnoses -- all of it is evidence of a real store that a
    # reference consumer (report, diff, curate) must be able to open.
    # Checked before construction: the constructor would mkdir the
    # (possibly typo'd) directory, and a reference store must never be
    # conjured empty.
    evidence = [root / cls.RESULTS, root / cls.SUMMARY]
    for attr in ("TELEMETRY", "POISON", "LEASES"):
        name = getattr(cls, attr, None)
        if name:
            evidence.append(root / name)
    if must_exist and not any(path.exists() for path in evidence):
        raise FileNotFoundError(
            f"no result store at {spec!r} (missing {root / cls.RESULTS})"
        )
    return cls(root)


# ----------------------------------------------------------------------
# Campaign diffing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignDiff:
    """Cell-level comparison of two campaigns (keys are cell keys)."""

    regressions: tuple[str, ...]          # sound -> unsound/error
    fixes: tuple[str, ...]                # unsound/error -> sound
    budget_regressions: tuple[str, ...]   # within budget -> over budget
    added: tuple[str, ...]                # only in the new campaign
    removed: tuple[str, ...]              # only in the old campaign

    @property
    def clean(self) -> bool:
        """No soundness or perf-budget regression (the CI gate)."""
        return not self.regressions and not self.budget_regressions

    def gate(self, *, strict: bool = False) -> bool:
        """The baseline-gate verdict: ``clean``, and under ``strict``
        additionally no baseline cells missing from the candidate
        (coverage loss is a regression too)."""
        return self.clean and (not strict or not self.removed)

    def to_dict(self) -> dict:
        """Machine-readable form (``scenarios diff --json``)."""
        return {
            "clean": self.clean,
            "regressions": list(self.regressions),
            "fixes": list(self.fixes),
            "budget_regressions": list(self.budget_regressions),
            "added": list(self.added),
            "removed": list(self.removed),
        }

    def summary_lines(self) -> list[str]:
        lines = [
            f"soundness regressions: {len(self.regressions)}",
            f"soundness fixes: {len(self.fixes)}",
            f"perf-budget regressions: {len(self.budget_regressions)}",
            f"cells added: {len(self.added)}, removed: {len(self.removed)}",
        ]
        lines.extend(f"  REGRESSION {key}" for key in self.regressions)
        lines.extend(
            f"  BUDGET-REGRESSION {key}" for key in self.budget_regressions
        )
        return lines


def _is_sound(rec: Mapping[str, Any]) -> bool:
    return bool(rec.get("sound")) and not rec.get("error")


def diff_records(
    old: Mapping[str, Mapping[str, Any]],
    new: Mapping[str, Mapping[str, Any]],
) -> CampaignDiff:
    """Compare two record maps cell by cell (content-hash aligned)."""
    both = sorted(set(old) & set(new))
    regressions = tuple(
        k for k in both if _is_sound(old[k]) and not _is_sound(new[k])
    )
    fixes = tuple(
        k for k in both if not _is_sound(old[k]) and _is_sound(new[k])
    )
    budget_regressions = tuple(
        k
        for k in both
        if old[k].get("budget_ok") is not False
        and new[k].get("budget_ok") is False
    )
    return CampaignDiff(
        regressions=regressions,
        fixes=fixes,
        budget_regressions=budget_regressions,
        added=tuple(sorted(set(new) - set(old))),
        removed=tuple(sorted(set(old) - set(new))),
    )


def diff_stores(
    old: Union[str, Path, ResultStore], new: Union[str, Path, ResultStore]
) -> CampaignDiff:
    """Diff two campaign stores (paths, URLs, or instances; backends
    may differ -- the diff is over records, not files)."""
    return diff_records(open_store(old).load(), open_store(new).load())
