"""Commit lineage end-to-end: one cross-shard commit, one connected tree.

The acceptance criterion of docs/OBSERVABILITY.md's "Commit lineage"
section: after a replicated shard-stress run, the sample cross-shard
transaction's spans — session attempt, 2PC prepare/decide/apply, journal
appends, replication ship and the replica-side applies (which run on
*other* threads, parented over the wire) — must reconstruct into exactly
one rooted tree with no orphaned spans, from the exported JSONL alone.
"""

import json

import pytest

from repro.core import StaticDatabase
from repro.storage.faults import CrashPoint
from repro.workload import run_stress


def load_jsonl(path):
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def tree_shape(rows, txn):
    """(roots, orphans, names) of the span tree belonging to *txn*."""
    mine = [row for row in rows if row["trace_id"] == txn]
    ids = {row["span_id"] for row in mine}
    roots = [row for row in mine if row["parent_id"] is None]
    orphans = [row for row in mine
               if row["parent_id"] is not None
               and row["parent_id"] not in ids]
    return roots, orphans, [row["name"] for row in mine]


class TestLineageTree:
    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("lineage")
        trace_out = str(base / "spans.jsonl")
        events_out = str(base / "events.jsonl")
        report = run_stress(kind=StaticDatabase, shards=3, sessions=3,
                            transactions=20, keys=6, placement="scattered",
                            cross_ratio=0.4, seed=7, replicas=2,
                            directory=str(base / "store"),
                            trace_out=trace_out, events_out=events_out)
        return report, load_jsonl(trace_out), load_jsonl(events_out)

    def test_run_is_clean_and_replicated(self, run):
        report, _, _ = run
        assert report.ok, report.describe()
        assert report.replica_converged is True
        assert report.replica_digest_match is True
        assert report.sample_cross_txn is not None

    def test_sample_cross_txn_is_one_connected_tree(self, run):
        report, spans, _ = run
        roots, orphans, names = tree_shape(spans, report.sample_cross_txn)
        assert len(roots) == 1, [row["name"] for row in roots]
        assert roots[0]["name"] == "concurrency.run"
        assert orphans == []

    def test_tree_spans_every_lifecycle_layer(self, run):
        report, spans, _ = run
        _, _, names = tree_shape(spans, report.sample_cross_txn)
        for expected in ("concurrency.run", "concurrency.attempt",
                         "concurrency.commit", "sharding.cross_commit",
                         "sharding.prepare", "sharding.decide",
                         "sharding.apply", "commit.apply",
                         "journal.append", "replication.ship",
                         "replication.apply"):
            assert expected in names, (expected, sorted(set(names)))

    def test_replica_applies_parent_under_ship_spans(self, run):
        # The cross-thread handoff: apply spans run on the pump side and
        # must still attach under this transaction's ship spans.
        report, spans, _ = run
        mine = [row for row in spans
                if row["trace_id"] == report.sample_cross_txn]
        by_id = {row["span_id"]: row for row in mine}
        applies = [row for row in mine
                   if row["name"] == "replication.apply"]
        assert len(applies) >= 2  # both replicas saw the commit
        for row in applies:
            assert by_id[row["parent_id"]]["name"] == "replication.ship"

    def test_event_log_narrates_the_same_transaction(self, run):
        report, _, events = run
        kinds = {row["kind"] for row in events
                 if row["txn"] == report.sample_cross_txn}
        for expected in ("txn.begin", "txn.attempt", "2pc.prepare",
                         "2pc.decide", "2pc.apply", "journal.append",
                         "txn.commit", "replication.ship",
                         "replication.apply"):
            assert expected in kinds, (expected, sorted(kinds))

    def test_report_carries_the_export_paths(self, run):
        report, spans, events = run
        assert report.trace_path and report.events_path
        assert spans and events
        assert report.replicas == 2


class TestLineageUnderChaos:
    def test_chaos_run_cross_shard_commit_still_one_tree(self, tmp_path):
        # A mid-run crash must not sever the sample commit's lineage:
        # whatever committed before (or after recovery) still traces to
        # one root with no orphans.
        trace_out = str(tmp_path / "spans.jsonl")
        report = run_stress(kind=StaticDatabase, shards=3, sessions=3,
                            transactions=20, keys=6, placement="scattered",
                            cross_ratio=0.4, seed=3, replicas=1,
                            faults=CrashPoint.LOST_RECORD, fault_at=30,
                            directory=str(tmp_path / "store"),
                            trace_out=trace_out)
        assert report.ok, report.describe()
        assert report.crashed >= 1
        assert report.sample_cross_txn is not None
        roots, orphans, names = tree_shape(load_jsonl(trace_out),
                                           report.sample_cross_txn)
        assert len(roots) == 1
        assert orphans == []
        assert "sharding.cross_commit" in names
