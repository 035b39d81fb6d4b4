"""Unit tests for the commit log and the transaction manager."""

import pytest

from repro.errors import JournalError
from repro.time import Instant, SimulatedClock
from repro.txn import CommitLog, Operation, TransactionManager


def instant(chronon: int) -> Instant:
    return Instant.from_chronon(chronon + 700000)


class TestCommitLog:
    def test_append_and_read(self):
        log = CommitLog()
        record = log.append(instant(1), [Operation("insert", "r", {})])
        assert record.sequence == 0
        assert len(log) == 1
        assert log.last() is record

    def test_sequence_numbers_increase(self):
        log = CommitLog()
        first = log.append(instant(1), [])
        second = log.append(instant(2), [])
        assert (first.sequence, second.sequence) == (0, 1)

    def test_commit_times_must_advance(self):
        log = CommitLog()
        log.append(instant(5), [])
        with pytest.raises(JournalError, match="advance"):
            log.append(instant(5), [])
        with pytest.raises(JournalError):
            log.append(instant(4), [])

    def test_as_of_prefix(self):
        log = CommitLog()
        for chronon in (1, 3, 5):
            log.append(instant(chronon), [])
        assert len(log.as_of(instant(4))) == 2
        assert len(log.as_of(instant(0))) == 0
        assert len(log.as_of(instant(9))) == 3

    def test_empty(self):
        log = CommitLog()
        assert log.last() is None
        assert list(log) == []

    def test_describe(self):
        log = CommitLog()
        record = log.append(instant(1), [Operation("insert", "r", {"x": 1})])
        described = record.describe()
        assert described["sequence"] == 0
        assert described["operations"][0]["action"] == "insert"


class TestTransactionManager:
    def make(self):
        applied = []

        def applier(operations, commit_time):
            applied.append((tuple(operations), commit_time))

        manager = TransactionManager(applier, SimulatedClock("01/01/80"))
        return manager, applied

    def test_run_applies_and_logs(self):
        manager, applied = self.make()
        when = manager.run([Operation("insert", "r", {})])
        assert len(applied) == 1
        assert applied[0][1] == when
        assert len(manager.log) == 1

    def test_commit_times_strictly_increase(self):
        manager, _ = self.make()
        times = [manager.run([]) for _ in range(5)]
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_open_transactions_commit_in_commit_order(self):
        # No single-writer slot: any number may be open, and the serial
        # history is the order of commits, not of begin() calls.
        manager, applied = self.make()
        first, second = manager.begin(), manager.begin()
        assert first.txn_id < second.txn_id
        first.add(Operation("insert", "r", {"n": 1}))
        second.add(Operation("insert", "r", {"n": 2}))
        later, earlier = second.commit(), manager.run([])
        assert later < earlier < first.commit()
        assert [record.operations for record in manager.log] == [
            second.operations, (), first.operations]
        assert [ops for ops, _ in applied] == [
            second.operations, (), first.operations]

    def test_aborted_transaction_leaves_no_trace(self):
        manager, applied = self.make()
        txn = manager.begin()
        txn.add(Operation("insert", "r", {}))
        txn.abort()
        assert applied == []
        assert len(manager.log) == 0

    def test_failed_apply_not_logged(self):
        def applier(operations, commit_time):
            raise RuntimeError("boom")

        manager = TransactionManager(applier, SimulatedClock("01/01/80"))
        txn = manager.begin()
        with pytest.raises(RuntimeError):
            txn.commit()
        assert len(manager.log) == 0
        # A new transaction can start.
        manager.begin()

    def test_on_commit_hook(self):
        manager, _ = self.make()
        seen = []
        manager.on_commit = seen.append
        manager.run([Operation("insert", "r", {})])
        assert len(seen) == 1
        assert seen[0].operations[0].action == "insert"

    def test_now_reads_underlying_clock(self):
        manager, _ = self.make()
        assert manager.now() == Instant.parse("01/01/80")

    def test_concurrent_run_serializes(self):
        import threading
        applied = []
        lock = threading.Lock()

        def applier(operations, commit_time):
            with lock:
                applied.append(commit_time)

        manager = TransactionManager(applier, SimulatedClock("01/01/80"))

        def worker():
            for _ in range(25):
                manager.run([Operation("insert", "r", {})])

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(applied) == 100
        assert len(manager.log) == 100
        times = [record.commit_time for record in manager.log]
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_run_commits_while_an_explicit_transaction_is_open(self):
        manager, _ = self.make()
        txn = manager.begin()
        txn.add(Operation("insert", "r", {}))
        manager.run([Operation("insert", "r", {})])  # does not wait for txn
        assert len(manager.log) == 1 and txn.is_active
        txn.commit()
        assert len(manager.log) == 2
