"""Integration: the instrumented engine layers, driven by the paper's data."""

import pytest

from repro import obs
from repro.core import StaticDatabase, TemporalDatabase
from repro.errors import TransactionStateError
from repro.tquel import Session
from repro.tquel.evaluator import KEY_HISTORY_ACCESS
from repro.time import Instant

from tests.conftest import build_faculty


class TestCommitInstrumentation:
    def test_faculty_history_counts(self):
        with obs.recording() as inst:
            database, _ = build_faculty(TemporalDatabase)
        counters = inst.metrics.snapshot()["counters"]
        # define + six DML transactions.
        assert counters["commit.batches"] == 7
        assert counters["commit.operations"] == 7
        # Tom's correction, Merrie's promotion, Mike's departure each
        # close a row; the three inserts open one each, and each of the
        # two replaces plus the postactive delete opens a superseding
        # version — Figure 8's seven recorded rows.
        assert counters["commit.rows_closed"] == 3
        assert counters["commit.rows_opened"] == 7
        summary = inst.metrics.snapshot()["histograms"]["commit.apply_seconds"]
        assert summary["count"] == 7
        assert summary["max"] > 0.0

    def test_commit_spans_recorded(self):
        with obs.recording() as inst:
            build_faculty(TemporalDatabase)
        aggregate = inst.tracer.aggregate()
        assert aggregate["commit.apply"]["count"] == 7

    def test_failed_commit_counted(self):
        from repro.txn.transaction import Operation
        with obs.recording() as inst:
            database, _ = build_faculty(TemporalDatabase)
            # A duplicate define sneaked past the front-door check fails
            # inside the applier and must be counted there.
            op = Operation("define", "faculty",
                           {"schema": database.schema("faculty"),
                            "constraints": (), "event": False})
            with pytest.raises(Exception):
                database.manager.run([op])
        counters = inst.metrics.snapshot()["counters"]
        assert counters["commit.failed"] == 1


class TestTransactionInstrumentation:
    def test_begin_commit_counts_and_active_gauge(self):
        with obs.recording() as inst:
            database, _ = build_faculty(StaticDatabase)
        snapshot = inst.metrics.snapshot()
        assert snapshot["counters"]["txn.begin"] == 7
        assert snapshot["counters"]["txn.commit"] == 7
        assert "txn.abort" not in snapshot["counters"]
        assert snapshot["gauges"]["txn.active"] == 0

    def test_abort_counts(self):
        with obs.recording() as inst:
            database, _ = build_faculty(StaticDatabase)
            txn = database.begin()
            assert inst.metrics.gauge("txn.active").value == 1
            txn.abort()
        snapshot = inst.metrics.snapshot()
        assert snapshot["counters"]["txn.abort"] == 1
        assert snapshot["gauges"]["txn.active"] == 0

    def test_failed_commit_is_an_abort(self):
        with obs.recording() as inst:
            database, _ = build_faculty(StaticDatabase)
            txn = database.begin()
            from repro.txn.transaction import Operation
            txn.add(Operation("define", "faculty",
                              {"schema": database.schema("faculty"),
                               "constraints": (), "event": False}))
            with pytest.raises(Exception):
                txn.commit()
        snapshot = inst.metrics.snapshot()
        assert snapshot["counters"]["txn.abort"] == 1
        assert snapshot["gauges"]["txn.active"] == 0


class TestIndexCacheInstrumentation:
    def test_registry_mirrors_plain_counters(self):
        """Regression vs. the PR 1 cache tests: both views must agree."""
        with obs.recording() as inst:
            database, clock = build_faculty(TemporalDatabase)
            database.rollback("faculty", "12/10/82")  # miss: builds
            database.rollback("faculty", "12/10/82")  # hit
            clock.set("06/01/85")
            database.insert("faculty", {"name": "New", "rank": "assistant"},
                            valid_from="06/01/85")
            database.rollback("faculty", "12/10/82")  # hit after patch
        cache = database.index_cache
        counters = inst.metrics.snapshot()["counters"]
        assert cache.hits >= 1
        assert counters["index.cache.hits"] == cache.hits
        assert counters["index.cache.misses"] == cache.misses
        assert counters["index.cache.patches"] == cache.incremental_updates
        assert cache.incremental_updates >= 1

    def test_tree_size_gauge_tracks_history(self):
        with obs.recording() as inst:
            database, _ = build_faculty(TemporalDatabase)
            database.rollback("faculty", "12/10/82")
        gauges = inst.metrics.snapshot()["gauges"]
        # Figure 8: five recorded versions of the faculty relation.
        assert gauges["index.tree.size.faculty"] == \
            len(database.temporal("faculty"))


class TestTQuelInstrumentation:
    def test_phase_spans_nest_under_statement(self):
        with obs.recording() as inst:
            database, _ = build_faculty(TemporalDatabase)
            session = Session(database)
            session.execute("range of f is faculty")
            session.execute('retrieve (f.rank) where f.name = "Merrie"')
        spans = inst.tracer.spans()
        statements = [s for s in spans if s.name == "tquel.statement"]
        assert len(statements) == 2
        retrieve = statements[-1]
        phases = {s.name for s in spans if s.parent_id == retrieve.span_id}
        assert phases == {"tquel.lex", "tquel.parse", "tquel.analyze",
                          "tquel.evaluate"}

    def test_candidate_and_emit_counters(self):
        with obs.recording() as inst:
            database, _ = build_faculty(TemporalDatabase)
            session = Session(database)
            session.execute("range of f is faculty")
            session.execute('retrieve (f.rank) where f.name = "Merrie"')
        counters = inst.metrics.snapshot()["counters"]
        assert counters["tquel.statements"] == 2
        assert counters["tquel.candidates_enumerated"] >= \
            counters["tquel.rows_emitted"] >= 1

    def test_explain_reports_phases_and_index_decision(self):
        database, _ = build_faculty(TemporalDatabase)
        session = Session(database)
        session.execute("range of f is faculty")
        plan = session.explain_plan(
            'retrieve (f.rank) where f.name = "Merrie" as of "12/10/82"')
        assert list(plan["phases"]) == ["lex", "parse", "analyze", "plan"]
        assert all(duration >= 0.0 for duration in plan["phases"].values())
        # The name is the key: the read walks Merrie's versions only.
        stream = plan["variables"]["f"]
        assert stream["index"] == KEY_HISTORY_ACCESS
        assert stream["plan_reason"] == "key lookup: name bound by ="
        assert stream["candidates"] == 1
        text = session.explain(
            'retrieve (f.rank) where f.name = "Merrie" as of "12/10/82"')
        assert f"access path: {KEY_HISTORY_ACCESS}" in text
        assert "phases: lex" in text

    def test_explain_scan_when_index_disabled(self):
        # plan="naive" is the scan: the store walks every stored row.
        database, _ = build_faculty(TemporalDatabase)
        session = Session(database, plan="naive")
        session.execute("range of f is faculty")
        stream = session.explain_plan(
            'retrieve (f.rank) as of "12/10/82"')["variables"]["f"]
        assert stream["plan_reason"] == "forced plan 'naive'"
        assert stream["candidates"] == len(database.store("faculty").visible(
            Instant.parse("12/10/82")))

    def test_explain_leaves_global_registry_untouched(self):
        with obs.recording() as inst:
            database, _ = build_faculty(TemporalDatabase)
            before = dict(inst.metrics.snapshot()["counters"])
            session = Session(database)
            session.execute("range of f is faculty")
            before["tquel.statements"] = \
                inst.metrics.counter("tquel.statements").value
            session.explain_plan('retrieve (f.rank)')
            after = inst.metrics.snapshot()["counters"]
        # explain runs under a private instrumentation: no new counters.
        assert after.get("tquel.statements") == before["tquel.statements"]


class TestStatsAPI:
    def test_db_stats_reads_current_instrumentation(self):
        with obs.recording():
            database, _ = build_faculty(TemporalDatabase)
            stats = database.stats()
            assert stats["instrumentation_enabled"] is True
            assert stats["metrics"]["counters"]["commit.batches"] == 7
            assert stats["spans"]["commit.apply"]["count"] == 7
        disabled = database.stats()
        assert disabled["instrumentation_enabled"] is False
        assert disabled["metrics"]["counters"] == {}

    def test_workload_driver_records(self):
        from repro.workload import FacultyWorkload, apply_workload
        from repro.time import SimulatedClock
        with obs.recording() as inst:
            database = TemporalDatabase(clock=SimulatedClock("01/01/79"))
            transactions = apply_workload(database,
                                          FacultyWorkload(people=4, seed=3))
        snapshot = inst.metrics.snapshot()
        assert snapshot["counters"]["workload.transactions"] == transactions
        assert snapshot["counters"]["workload.steps"] >= transactions
        assert inst.tracer.aggregate()["workload.apply"]["count"] == 1
