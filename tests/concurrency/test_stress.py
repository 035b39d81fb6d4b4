"""The stress/chaos harness — including the acceptance-scale run."""

import time

import pytest

from repro.concurrency import AdmissionController, RetryPolicy
from repro.core import (HistoricalDatabase, RollbackDatabase, StaticDatabase,
                        TemporalDatabase)
from repro.storage.faults import CrashPoint
from repro.workload import StressReport, run_stress

ALL_KINDS = [StaticDatabase, RollbackDatabase, HistoricalDatabase,
             TemporalDatabase]


class TestStress:
    def test_acceptance_eight_sessions_two_hundred_txns(self):
        report = run_stress(kind=TemporalDatabase, sessions=8,
                            transactions=200, keys=8, seed=0)
        assert report.ok, report.describe()
        assert report.committed == 8 * 200
        assert report.lost_updates == 0
        assert report.applied_increments == 8 * 200
        assert report.commit_times_monotone
        assert report.serial_equivalent

    @pytest.mark.parametrize("kind", ALL_KINDS,
                             ids=lambda cls: cls.__name__)
    def test_every_database_kind_survives_contention(self, kind):
        report = run_stress(kind=kind, sessions=4, transactions=30,
                            keys=2, seed=11)
        assert report.ok, report.describe()
        assert report.committed == 4 * 30
        assert report.conflicts == report.retries  # every conflict retried

    def test_single_session_run_is_deterministic(self):
        first = run_stress(sessions=1, transactions=40, keys=3, seed=5)
        second = run_stress(sessions=1, transactions=40, keys=3, seed=5)
        left, right = first.describe(), second.describe()
        # Wall time, throughput, the latency quantiles, the
        # commit-latency histogram and the SLO health are measurements,
        # not outcomes — everything else must replay identically.
        for timing in ("wall_s", "tps", "latency_p50_s", "latency_p95_s",
                       "latency_p99_s", "commit_latency", "slo"):
            left.pop(timing), right.pop(timing)
        assert left == right

    def test_overload_sheds_without_losing_committed_work(self):
        report = run_stress(
            sessions=8, transactions=20, keys=2, seed=3,
            retry=RetryPolicy(max_attempts=1, seed=3),
            admission=AdmissionController(max_active=1, max_queue=0),
            work=lambda: time.sleep(0.0005))
        assert report.shed > 0  # the tiny gate really shed load
        assert report.ok, report.describe()
        # Every attempt is accounted for — nothing vanished.
        assert (report.committed + report.shed + report.failed
                + report.deadline_exceeded == report.attempted)

    def test_report_describe_round_trips_to_plain_data(self):
        report = run_stress(sessions=2, transactions=5, keys=1, seed=9)
        data = report.describe()
        assert isinstance(report, StressReport)
        assert data["ok"] is True
        assert data["sessions"] == 2
        assert data["shards"] is None  # a plain database: one pipeline


    def test_transfers_conserve_the_sum_on_one_pipeline(self):
        report = run_stress(sessions=3, transactions=20, keys=4,
                            cross_ratio=0.5, seed=13)
        assert report.ok, report.describe()
        assert report.sum_delta == 0
        assert report.acknowledged_increments < report.committed
        assert report.cross_shard_commits == 0  # one pipeline: no 2PC
        assert report.per_shard == []

    def test_replication_is_per_shard(self):
        with pytest.raises(ValueError, match="shards"):
            run_stress(replicas=1)


class TestChaos:
    @pytest.mark.parametrize("crash", [CrashPoint.TORN_RECORD,
                                       CrashPoint.LOST_RECORD],
                             ids=lambda c: c.value)
    def test_crash_under_load_leaves_a_recoverable_prefix(self, crash,
                                                          tmp_path):
        report = run_stress(
            kind=StaticDatabase, sessions=4, transactions=40, keys=4,
            seed=1, faults=crash, fault_at=25, directory=str(tmp_path))
        assert report.ok, report.describe()
        assert report.crashed >= 1  # at least one worker saw the crash
        assert report.recovery_is_durable_prefix
        assert report.recovered_records <= 2 + report.committed + 1

    def test_durable_clean_run_audits_the_unsharded_manager(self, tmp_path):
        # The product path behind ``repro serve --dir``: a plain
        # database journaling through DurabilityManager, no faults.
        from repro.storage import DurabilityManager, audit_directory
        report = run_stress(kind=TemporalDatabase, sessions=2,
                            transactions=10, keys=3, seed=6,
                            directory=str(tmp_path))
        assert report.ok, report.describe()
        assert report.crashed == 0 and report.recovered_records is None
        recovered, recovery = DurabilityManager(str(tmp_path)).recover(
            TemporalDatabase)
        assert recovery.records_total == 2 + report.committed
        assert sum(row["v"] for row in recovered.snapshot("counters")) \
            == report.applied_increments
        assert audit_directory(str(tmp_path)).clean

    def test_chaos_mode_requires_a_directory(self):
        with pytest.raises(ValueError):
            run_stress(faults=CrashPoint.LOST_RECORD)
