"""Serving loadgen acceptance: clean runs, the fault matrix, failover.

These are the end-to-end invariants ``repro loadgen`` ships with: no
acknowledged write is ever lost, read-your-writes holds across replica
routing and failover, and every failure a client sees is a typed
:class:`~repro.errors.ReproError` — under a clean wire, under every
fault kind the chaos pipe injects, and across a mid-run primary kill.
"""

import pytest

from repro.server import ChaosConfig
from repro.workload import run_serving


class TestCleanRuns:
    def test_clean_run_is_fully_audited_ok(self):
        report = run_serving(clients=3, requests=8, seed=42,
                             budget_ms=10000.0)
        assert report.ok, report.describe()
        assert report.attempted == 24
        assert report.acked_writes > 0
        assert report.acked_writes_lost == 0
        assert report.unexpected_failures == 0
        assert report.failover_performed is False

    def test_report_describe_is_json_shaped(self):
        report = run_serving(clients=2, requests=4, seed=1,
                             budget_ms=10000.0)
        data = report.describe()
        assert data["ok"] == report.ok
        assert set(data) >= {"acked_writes", "acked_writes_lost",
                             "ryw_violations", "server", "chaos"}


class TestChaosMatrix:
    @pytest.mark.parametrize("fault", [
        {"drop": 0.1}, {"delay": 0.1}, {"split": 0.3},
        {"corrupt": 0.05}, {"disconnect": 0.03},
    ])
    def test_each_fault_kind_preserves_the_invariants(self, fault):
        # A dropped frame costs one attempt's share of the budget on a
        # real timer (budget / 8 attempts), so the budget is kept small.
        chaos = ChaosConfig(seed=9, delay_s=0.005, **fault)
        report = run_serving(clients=3, requests=8, seed=9,
                             budget_ms=1000.0, chaos=chaos)
        assert report.ok, (fault, report.describe())
        # The run was actually hostile: the configured fault fired.
        kind = next(iter(fault))
        key = {"drop": "dropped", "delay": "delayed", "split": "split",
               "corrupt": "corrupted",
               "disconnect": "disconnects"}[kind]
        assert report.chaos.get(key, 0) > 0, report.chaos

    def test_chaos_runs_are_seed_reproducible_in_their_audit(self):
        chaos = dict(seed=5, drop=0.15, corrupt=0.1, delay_s=0.005)
        first = run_serving(clients=2, requests=6, seed=5,
                            budget_ms=1000.0,
                            chaos=ChaosConfig(**chaos))
        second = run_serving(clients=2, requests=6, seed=5,
                             budget_ms=1000.0,
                             chaos=ChaosConfig(**chaos))
        assert first.ok and second.ok
        # Event-loop interleaving may vary, but the invariants hold in
        # both runs and the request census matches.
        assert first.attempted == second.attempted


class TestFailover:
    def test_primary_kill_loses_nothing_acknowledged(self):
        report = run_serving(clients=4, requests=10, seed=3,
                             budget_ms=10000.0, replicas=2,
                             failover_at=5, ryw_ratio=0.5)
        assert report.failover_performed, report.describe()
        assert report.ok, report.describe()
        assert report.acked_writes_lost == 0
        assert report.ryw_checks > 0
        assert report.ryw_violations == 0
        # Clients actually moved: the standby served after the kill.
        assert report.client_failovers > 0
        assert report.unexpected_failures == 0
