"""The one stress harness, pointed at sharded stores: clean and chaotic."""

import dataclasses

import pytest

from repro.core import (HistoricalDatabase, RollbackDatabase, StaticDatabase,
                        TemporalDatabase)
from repro.storage.faults import CrashPoint
from repro.workload import run_stress

ALL_KINDS = [StaticDatabase, RollbackDatabase, HistoricalDatabase,
             TemporalDatabase]


class TestCleanRuns:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda c: c.__name__)
    def test_every_kind_passes_the_audit(self, kind):
        report = run_stress(kind=kind, shards=3, sessions=3,
                            transactions=15, keys=6, cross_ratio=0.1,
                            placement="scattered", seed=3)
        assert report.ok, dataclasses.asdict(report)
        assert report.committed == report.attempted
        assert report.lost_updates == 0
        assert report.sum_delta == 0

    def test_cross_shard_transfers_happen_and_conserve_the_sum(self):
        report = run_stress(kind=StaticDatabase, shards=4, sessions=4,
                            transactions=40, keys=8, cross_ratio=0.5,
                            placement="scattered", seed=1)
        assert report.ok
        assert report.cross_shard_commits > 0
        assert report.sum_delta == 0

    def test_aligned_placement_pins_workers_to_shards(self):
        report = run_stress(kind=StaticDatabase, shards=4, sessions=4,
                            transactions=20, keys=4, cross_ratio=0.0,
                            placement="aligned", seed=2)
        assert report.ok
        assert report.placement == "aligned"
        assert report.conflicts == 0  # disjoint shards: no false sharing

    def test_shared_keys_contend_across_shards(self):
        # Every worker draws from one pool: real write-write conflicts,
        # caught per ``relation@shard`` and retried to completion.
        report = run_stress(kind=StaticDatabase, shards=3, sessions=4,
                            transactions=25, keys=3, cross_ratio=0.2,
                            placement="shared", seed=8)
        assert report.ok, report.describe()
        assert report.committed == 4 * 25
        assert report.conflicts == report.retries
        assert sum(entry["commits"] for entry in report.per_shard) \
            >= report.committed

    def test_report_describe_round_trips(self):
        report = run_stress(kind=StaticDatabase, shards=2, sessions=2,
                            transactions=10, keys=4, cross_ratio=0.1,
                            placement="scattered", seed=4)
        described = report.describe()
        assert described["ok"] is True
        assert described["shards"] == 2
        assert described["tps"] > 0
        assert described["latency_p95_s"] >= described["latency_p50_s"] >= 0


class TestChaosRuns:
    @pytest.mark.parametrize("crash", [CrashPoint.LOST_RECORD,
                                       CrashPoint.TORN_RECORD],
                             ids=lambda c: c.value)
    def test_crash_mid_run_loses_no_acknowledged_update(self, tmp_path,
                                                        crash):
        report = run_stress(kind=StaticDatabase, shards=3, sessions=3,
                            transactions=30, keys=6, cross_ratio=0.3,
                            placement="scattered", seed=5,
                            faults=crash, fault_at=40,
                            directory=str(tmp_path))
        assert report.crash_injected
        assert report.lost_updates == 0
        assert report.ok, dataclasses.asdict(report)
        assert report.recovery_is_durable_prefix is not False

    def test_durable_clean_run_survives_recovery(self, tmp_path):
        report = run_stress(kind=StaticDatabase, shards=2, sessions=2,
                            transactions=10, keys=4, cross_ratio=0.1,
                            placement="scattered", seed=6,
                            directory=str(tmp_path))
        assert report.ok
        assert report.crashed == 0
