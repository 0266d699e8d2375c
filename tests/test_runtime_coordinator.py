"""Lease-based work-stealing coordination (repro.runtime.coordinator).

The contract under test is the PR's headline invariant: leases change
*who* runs a cell, never its seed or record, so ``summary.json`` after
any combination of steals, splits, injected worker kills, hangs and
coordinator restarts is byte-identical to an undisturbed serial run.
"""

import time

import pytest

from repro.runtime import (
    FaultPlan,
    LeaseTable,
    RetryPolicy,
    open_store,
    run_campaign,
)
from repro.runtime.coordinator import (
    allowed_deaths,
    plan_campaign_leases,
    run_coordinator,
    work_store,
)
from repro.runtime.cost import CellCostModel, plan_leases
from repro.runtime.store import cell_key
from repro.runtime.telemetry import lease_rows, lease_summary
from repro.scenarios import generate_scenarios

pytestmark = pytest.mark.runtime

N_CELLS = 12
SEED = 7


@pytest.fixture(scope="module")
def matrix():
    return generate_scenarios(N_CELLS, seed=SEED, horizon=0.6)


@pytest.fixture(scope="module")
def reference_summary(matrix, tmp_path_factory):
    """summary.json bytes from an undisturbed serial run."""
    root = tmp_path_factory.mktemp("reference")
    report = run_campaign(matrix, store=root)
    assert report.clean
    return (root / "summary.json").read_bytes()


def _summary_bytes(store_root) -> bytes:
    return (store_root / "summary.json").read_bytes()


# ----------------------------------------------------------------------
# The lease table (CAS claim/steal/renew/finish/split, synthetic clock)
# ----------------------------------------------------------------------
class TestLeaseTable:
    def _table(self, tmp_path) -> LeaseTable:
        return LeaseTable(tmp_path / "leases.sqlite")

    @staticmethod
    def _lease(cost, n_cells=1, deaths=0):
        return {
            "cells": [{"key": f"k{cost}-{i}"} for i in range(n_cells)],
            "cost": cost,
            "deaths": deaths,
        }

    def test_claim_is_dearest_first_cas(self, tmp_path):
        lt = self._table(tmp_path)
        lt.add_many([self._lease(1.0), self._lease(3.0), self._lease(2.0)])
        a = lt.claim("wa", ttl=10.0, now=100.0)
        b = lt.claim("wb", ttl=10.0, now=100.0)
        assert (a["cost"], b["cost"]) == (3.0, 2.0)
        assert a["state"] == "active" and a["worker"] == "wa"
        assert a["deadline"] == 110.0
        lt.claim("wc", ttl=10.0, now=100.0)
        assert lt.claim("wd", ttl=10.0, now=100.0) is None

    def test_steal_waits_for_the_deadline(self, tmp_path):
        lt = self._table(tmp_path)
        lt.add_many([self._lease(1.0)])
        held = lt.claim("wa", ttl=10.0, now=100.0)
        assert lt.steal("wb", ttl=10.0, now=105.0) is None
        stolen = lt.steal("wb", ttl=10.0, now=111.0)
        assert stolen["id"] == held["id"]
        assert stolen["worker"] == "wb"
        assert stolen["deaths"] == 1 and stolen["steals"] == 1
        assert stolen["deadline"] == 121.0

    def test_renew_is_holder_checked(self, tmp_path):
        lt = self._table(tmp_path)
        (lid,) = lt.add_many([self._lease(1.0)])
        lt.claim("wa", ttl=10.0, now=100.0)
        assert lt.renew(lid, "wa", ttl=10.0, now=105.0)
        assert not lt.renew(lid, "wb", ttl=10.0, now=105.0)
        # A renew that lands after the steal tells the old holder to
        # abandon: the thief owns the cells now.
        lt.steal("wb", ttl=10.0, now=120.0)
        assert not lt.renew(lid, "wa", ttl=10.0, now=121.0)

    def test_finish_is_holder_checked_and_terminal(self, tmp_path):
        lt = self._table(tmp_path)
        (lid,) = lt.add_many([self._lease(1.0)])
        lt.claim("wa", ttl=10.0, now=100.0)
        assert not lt.finish(lid, "wb")
        assert lt.finish(lid, "wa")
        assert lt.rows()[0]["state"] == "done"
        assert lt.unfinished() == 0
        with pytest.raises(ValueError):
            lt.finish(lid, "wa", state="open")

    def test_split_replaces_a_held_lease_with_children(self, tmp_path):
        lt = self._table(tmp_path)
        (lid,) = lt.add_many([self._lease(6.0, n_cells=3)])
        lease = lt.claim("wa", ttl=10.0, now=100.0)
        children = lt.split(
            lid,
            "wa",
            [
                {"cells": [c], "cost": 2.0, "deaths": 1}
                for c in lease["cells"]
            ],
        )
        assert len(children) == 3
        states = {r["id"]: r["state"] for r in lt.rows()}
        assert states[lid] == "split"
        assert all(states[c] == "open" for c in children)
        child = lt.claim("wb", ttl=10.0, now=101.0)
        assert child["deaths"] == 1  # kill history survives the split

    def test_supersede_incomplete_reclaims_open_and_active(self, tmp_path):
        lt = self._table(tmp_path)
        ids = lt.add_many(
            [self._lease(1.0), self._lease(2.0, deaths=2), self._lease(3.0)]
        )
        lt.claim("wa", ttl=10.0, now=100.0)
        lt.finish(ids[2], None, "done")  # claim took the dearest: ids[2]
        stale = lt.supersede_incomplete()
        assert {r["id"] for r in stale} == set(ids[:2])
        assert max(r["deaths"] for r in stale) == 2
        states = {r["id"]: r["state"] for r in lt.rows()}
        assert states[ids[0]] == states[ids[1]] == "reclaimed"
        assert states[ids[2]] == "done"
        assert lt.unfinished() == 0

    def test_heartbeats_upsert_per_worker(self, tmp_path):
        lt = self._table(tmp_path)
        lt.beat("wa", 100.0, None, 123)
        lt.beat("wa", 105.0, 7, 123)
        lt.beat("wb", 101.0)
        rows = {hb["worker"]: hb for hb in lt.heartbeat_rows()}
        assert rows["wa"]["beat"] == 105.0 and rows["wa"]["lease"] == 7
        assert rows["wb"]["pid"] is None

    def test_tables_upgrade_old_stores_in_place(self, tmp_path):
        # A pre-PR-10 store has no lease tables; .leases() must create
        # them on connect without touching existing records.
        st = open_store(f"sqlite:{tmp_path / 'camp'}")
        st.append({"key": "aa", "sound": True})
        lt = st.leases()
        lt.add_many([self._lease(1.0)])
        assert lt.unfinished() == 1
        assert set(st.load()) == {"aa"}
        st.close()

    def test_jsonl_backend_uses_a_sidecar(self, tmp_path):
        st = open_store(f"jsonl:{tmp_path / 'camp'}")
        st.leases().add_many([self._lease(1.0)])
        assert (st.root / "leases.sqlite").exists()
        # The sidecar alone is store evidence: workers may open a
        # coordinated store before the first record lands.
        again = open_store(st.root, must_exist=True)
        assert again.kind == "jsonl"
        st.close()


# ----------------------------------------------------------------------
# Lease planning
# ----------------------------------------------------------------------
class TestLeasePlanning:
    def test_plan_leases_is_an_exact_cover(self):
        costs = [float(1 + (i * 7) % 5) for i in range(37)]
        for workers in (1, 2, 5, 50):
            groups = plan_leases(costs, workers, max_cells=8)
            flat = [i for g in groups for i in g]
            assert sorted(flat) == list(range(len(costs)))
            assert all(1 <= len(g) <= 8 for g in groups)

    def test_plan_leases_leads_with_the_dearest_work(self):
        costs = [1.0, 9.0, 2.0, 8.0, 3.0]
        groups = plan_leases(costs, 2, max_cells=2)
        lease_costs = [sum(costs[i] for i in g) for g in groups]
        assert lease_costs[0] == max(lease_costs)
        assert lease_costs[-1] == min(lease_costs)

    def test_plan_campaign_leases_rows(self, matrix, tmp_path):
        st = open_store(f"sqlite:{tmp_path / 'camp'}")
        poisoned = cell_key(matrix[0])
        ids = plan_campaign_leases(
            st, matrix, 2, deaths={poisoned: 3}
        )
        rows = {r["id"]: r for r in st.leases().rows()}
        assert set(ids) == set(rows)
        cells = [c for r in rows.values() for c in r["cells"]]
        assert sorted(c["key"] for c in cells) == sorted(
            cell_key(sc) for sc in matrix
        )
        spec_fields = set(cells[0]["spec"])
        assert {"name", "seed"} <= spec_fields  # self-contained payloads
        inherited = {
            r["deaths"]
            for r in rows.values()
            if any(c["key"] == poisoned for c in r["cells"])
        }
        assert inherited == {3}
        assert plan_campaign_leases(st, [], 2) == []
        st.close()

    def test_death_budget_tracks_retry_policy(self):
        assert allowed_deaths(None) == 2
        assert allowed_deaths(RetryPolicy(max_attempts=1)) == 2
        assert allowed_deaths(RetryPolicy(max_attempts=5)) == 5


# ----------------------------------------------------------------------
# Workers (in-process, injectable clock)
# ----------------------------------------------------------------------
class TestWorkStore:
    def test_single_worker_drain_matches_serial(
        self, matrix, tmp_path, reference_summary
    ):
        url = f"sqlite:{tmp_path / 'camp'}"
        st = open_store(url)
        planned = plan_campaign_leases(st, matrix, 2)
        report = work_store(url, "w1", lease_ttl=30.0)
        assert report.leases_done == len(planned)
        assert report.cells_evaluated == N_CELLS
        assert report.leases_stolen == 0 and report.leases_poisoned == 0
        lt = st.leases()
        assert lt.unfinished() == 0
        assert lt.counts() == {"done": len(planned)}
        st.write_summary()
        assert _summary_bytes(st.root) == reference_summary
        st.close()

    def test_steal_split_rerun_matches_serial(
        self, matrix, tmp_path, reference_summary
    ):
        """A SIGKILLed holder's lease is stolen, split for culprit
        isolation, re-run with the death on record -- byte-identically."""
        url = f"jsonl:{tmp_path / 'camp'}"
        st = open_store(url)
        plan_campaign_leases(st, matrix, 1)  # workers=1 -> multi-cell head
        # A ghost worker claimed leases -- dearest first, up to and
        # including a multi-cell one -- and died: every deadline it
        # held is already far in the past.
        held = []
        while True:
            lease = st.leases().claim("ghost", ttl=5.0, now=time.time() - 1000)
            assert lease is not None, "no multi-cell lease in the plan"
            held.append(lease)
            if len(lease["cells"]) > 1:
                break
        reclaimed_cells = sum(len(l["cells"]) for l in held)
        report = work_store(
            url, "thief", lease_ttl=30.0, retry=RetryPolicy(max_attempts=2)
        )
        assert report.leases_stolen == len(held)
        assert report.leases_split == 1
        assert report.cells_evaluated == N_CELLS
        assert st.leases().unfinished() == 0
        st.write_summary()
        assert _summary_bytes(st.root) == reference_summary
        # The reclaim is visible in telemetry: attempt-ledger entries
        # citing the lease death plus one kind="lease" row per lease.
        tele = st.load_telemetry()
        ledger = [
            t
            for t in tele
            if t.get("kind") == "attempts"
            and any("reclaimed" in f for f in t.get("faults", ()))
        ]
        assert len(ledger) == reclaimed_cells
        assert all(t["disposition"] == "recovered" for t in ledger)
        leases = lease_rows(tele)
        assert sum(r["deaths"] for r in leases) == reclaimed_cells
        st.close()

    def test_death_budget_routes_cells_to_poison(self, matrix, tmp_path):
        url = f"sqlite:{tmp_path / 'camp'}"
        st = open_store(url)
        killer = matrix[0]
        plan_campaign_leases(
            st, [killer], 1, deaths={cell_key(killer): 2}
        )
        report = work_store(url, "w1", lease_ttl=30.0)
        assert report.leases_poisoned == 1 and report.cells_poisoned == 1
        assert report.leases_done == 0
        assert st.leases().counts() == {"poison": 1}
        record = st.load()[cell_key(killer)]
        assert "poison channel" in record["error"]
        (diag,) = st.load_poison()
        assert diag["key"] == cell_key(killer)
        assert diag["worker"] == "w1" and diag["attempts"] == 2
        # The error record keeps the cell resumable: a later campaign
        # with a bigger budget retries exactly this cell.
        assert st.completed_keys() == set()
        st.close()

    def test_worker_returns_when_no_work_remains(self, tmp_path):
        url = f"sqlite:{tmp_path / 'camp'}"
        open_store(url).close()
        report = work_store(url, "w1", lease_ttl=1.0)
        assert report.leases_done == 0 and report.cells_evaluated == 0


# ----------------------------------------------------------------------
# The coordinator (real worker subprocesses, injected chaos)
# ----------------------------------------------------------------------
class TestCoordinator:
    def test_clean_coordinated_run_matches_serial(
        self, matrix, tmp_path, reference_summary
    ):
        coord = run_coordinator(
            matrix, store=f"sqlite:{tmp_path / 'camp'}", workers=2,
            lease_ttl=20.0,
        )
        assert coord.converged and coord.clean
        assert coord.summary["cells"] == N_CELLS
        assert _summary_bytes(tmp_path / "camp") == reference_summary
        # Resume for free: a second coordinator plans nothing.
        again = run_coordinator(
            matrix, store=f"sqlite:{tmp_path / 'camp'}", workers=2,
            lease_ttl=20.0,
        )
        assert again.skipped == N_CELLS and again.planned_leases == 0
        assert _summary_bytes(tmp_path / "camp") == reference_summary

    @pytest.mark.parametrize("backend", ["jsonl", "sqlite"])
    def test_killed_workers_mid_lease_converge_byte_identical(
        self, matrix, tmp_path, reference_summary, backend
    ):
        """Real SIGKILLs mid-lease: the fault plan kills the worker
        process between renewals; survivors steal and converge."""
        plan = FaultPlan(seed=SEED, rate=0.3, kinds=("kill",), store_rate=0.0)
        coord = run_coordinator(
            matrix,
            store=f"{backend}:{tmp_path / 'camp'}",
            workers=2,
            lease_ttl=2.0,
            retry=RetryPolicy(max_attempts=4, seed=SEED),
            fault_plan=plan,
        )
        assert coord.converged and coord.clean
        assert coord.worker_deaths >= 1  # chaos actually fired
        assert coord.stolen_leases >= 1
        assert _summary_bytes(tmp_path / "camp") == reference_summary
        st = open_store(tmp_path / "camp")
        digest = lease_summary(st.load_telemetry())
        assert digest["converged"] and digest["stolen"] == coord.stolen_leases
        st.close()

    def test_hung_worker_heartbeat_lapse_is_stolen(
        self, matrix, tmp_path, reference_summary
    ):
        """A hung cell never renews its lease: the deadline lapses, a
        live worker steals, and the woken holder abandons cleanly."""
        plan = FaultPlan(
            seed=SEED, rate=0.25, kinds=("hang",), store_rate=0.0, hang_s=2.5
        )
        coord = run_coordinator(
            matrix,
            store=f"sqlite:{tmp_path / 'camp'}",
            workers=2,
            lease_ttl=1.0,
            retry=RetryPolicy(max_attempts=4, seed=SEED),
            fault_plan=plan,
        )
        assert coord.converged and coord.clean
        assert coord.stolen_leases >= 1
        assert _summary_bytes(tmp_path / "camp") == reference_summary

    def test_restarted_coordinator_supersedes_and_converges(
        self, matrix, tmp_path, reference_summary
    ):
        """A dead coordinator's plan -- open leases plus one a worker
        still held -- is superseded wholesale by its successor."""
        url = f"sqlite:{tmp_path / 'camp'}"
        st = open_store(url)
        planned = plan_campaign_leases(st, matrix, 2)
        st.leases().claim("orphan", ttl=300.0, now=time.time())
        st.close()
        coord = run_coordinator(matrix, store=url, workers=2, lease_ttl=20.0)
        assert coord.superseded_leases == len(planned)
        assert coord.converged and coord.clean
        assert _summary_bytes(tmp_path / "camp") == reference_summary

    def test_rejects_zero_workers(self, matrix, tmp_path):
        with pytest.raises(ValueError):
            run_coordinator(matrix, store=tmp_path / "camp", workers=0)


# ----------------------------------------------------------------------
# CLI surface (scenarios work / scenarios run --coordinator)
# ----------------------------------------------------------------------
class TestCoordinatorCli:
    def test_work_drains_a_planned_store(self, matrix, tmp_path, capsys):
        from repro.experiments.cli import main

        url = f"sqlite:{tmp_path / 'camp'}"
        st = open_store(url)
        plan_campaign_leases(st, matrix, 2)
        st.close()
        assert main(["scenarios", "work", url, "--worker-id", "w1"]) == 0
        out = capsys.readouterr().out
        assert "Lease worker" in out
        assert f"{N_CELLS} cells evaluated" in out

    def test_run_coordinator_flag(self, tmp_path, capsys):
        from repro.experiments.cli import main

        assert (
            main(
                ["scenarios", "run", "--count", "6", "--seed", "3",
                 "--no-corpus", "--store", str(tmp_path / "camp"),
                 "--coordinator", "2", "--lease-ttl", "20"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Coordinated campaign summary" in out
        assert "leases:" in out

    def test_coordinator_validations(self, tmp_path):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit):  # needs a store
            main(["scenarios", "run", "--count", "2", "--coordinator", "2"])
        with pytest.raises(SystemExit):  # lease TTL is a coordinator knob
            main(["scenarios", "run", "--count", "2", "--lease-ttl", "5",
                  "--store", str(tmp_path / "c")])
        with pytest.raises(SystemExit):  # worker id is mandatory
            main(["scenarios", "work", str(tmp_path / "c")])
