"""The manager under concurrency: failure release, serialized run(),
and the validate seam the session layer builds on."""

import threading

import pytest

from repro.core import StaticDatabase
from repro.errors import ConflictError, ConstraintViolation, ReproError, \
    TransactionStateError
from repro.relational import Domain, Schema
from repro.time import SimulatedClock
from repro.txn.transaction import Operation


WAIT = 30  # seconds; a bound on every hand-off, never a pacing device


def fresh_db():
    database = StaticDatabase(clock=SimulatedClock("01/01/80"))
    database.define("r", Schema.of(key=["k"], k=Domain.STRING,
                                   v=Domain.INTEGER))
    return database


def insert_op(key, value=0):
    return Operation("insert", "r", {"values": {"k": key, "v": value}})


class TestFailureRelease:
    """A failed commit must never wedge the manager (the regression the
    concurrency layer depends on: retries begin new transactions)."""

    def test_applier_failure_releases_the_active_slot(self):
        database = fresh_db()
        database.insert("r", {"k": "a", "v": 0})
        with pytest.raises(ConstraintViolation):
            with database.begin() as txn:
                database.insert("r", {"k": "a", "v": 1}, txn=txn)
                # commit on exit applies and rejects the duplicate key
        assert not txn.is_active
        with database.begin() as replacement:  # must be accepted, and commit
            database.insert("r", {"k": "b", "v": 1}, txn=replacement)
        assert len(database.log) == 3  # define, the seed insert, replacement

    def test_on_commit_failure_releases_the_active_slot(self):
        database = fresh_db()
        database.manager.on_commit = lambda record: (_ for _ in ()).throw(
            RuntimeError("journal died"))
        with pytest.raises(RuntimeError):
            with database.begin() as txn:
                database.insert("r", {"k": "a", "v": 1}, txn=txn)
        database.manager.on_commit = None
        # The manager is not wedged: the next transaction begins and commits.
        with database.begin() as txn:
            database.insert("r", {"k": "b", "v": 2}, txn=txn)
        assert {row["k"] for row in database.snapshot("r")} == {"a", "b"}

    def test_failed_commit_marks_the_transaction_aborted(self):
        database = fresh_db()
        database.manager.on_commit = lambda record: (_ for _ in ()).throw(
            RuntimeError("journal died"))
        txn = database.begin()
        database.insert("r", {"k": "a", "v": 1}, txn=txn)
        with pytest.raises(RuntimeError):
            txn.commit()
        assert not txn.is_active
        with pytest.raises(TransactionStateError):
            txn.commit()  # dead is dead


class TestOpenTransactions:
    """There is no single-writer slot: open transactions buffer freely
    and serialize when they commit."""

    def test_two_threads_hold_open_transactions_and_both_commit(self):
        database = fresh_db()
        opened = [threading.Event(), threading.Event()]
        go = [threading.Event(), threading.Event()]
        times, failures = {}, []

        def writer(index):
            try:
                with database.begin() as txn:
                    database.insert("r", {"k": f"w{index}", "v": index},
                                    txn=txn)
                    opened[index].set()
                    assert go[index].wait(timeout=WAIT)
                times[index] = txn.commit_time
            except Exception as error:  # pragma: no cover - diagnostic
                failures.append(error)

        threads = [threading.Thread(target=writer, args=(i,), daemon=True)
                   for i in range(2)]
        for thread in threads:
            thread.start()
        # Both are open, with buffered writes, at the same time ...
        assert all(event.wait(timeout=WAIT) for event in opened)
        assert len(database.snapshot("r")) == 0
        # ... and commit in the order they are released, not begun.
        go[1].set()
        threads[1].join(timeout=WAIT)
        go[0].set()
        threads[0].join(timeout=WAIT)
        assert failures == [] and not any(t.is_alive() for t in threads)
        assert times[1] < times[0]
        assert [record.commit_time for record in database.log][-2:] == [
            times[1], times[0]]
        assert {row["k"] for row in database.snapshot("r")} == {"w0", "w1"}


class TestSingleWriter:
    def test_racing_run_calls_serialize_into_n_monotone_commits(self):
        database = fresh_db()
        threads_n, per_thread = 8, 20
        failures = []

        def worker(index):
            try:
                for j in range(per_thread):
                    database.manager.run(
                        [insert_op(f"w{index}-{j}")])
            except ReproError as error:  # pragma: no cover - diagnostic
                failures.append(error)

        threads = [threading.Thread(target=worker, args=(i,), daemon=True)
                   for i in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert failures == []
        assert len(database.log) == 1 + threads_n * per_thread
        times = [record.commit_time for record in database.log]
        assert all(a < b for a, b in zip(times, times[1:]))
        assert len(database.snapshot("r")) == threads_n * per_thread


class TestValidateSeam:
    def test_validate_runs_before_begin_and_can_reject(self):
        database = fresh_db()
        events = []

        def validate():
            events.append(database.manager.clock.last)
            raise ConflictError("rejected")

        before = database.manager.clock.last
        with pytest.raises(ConflictError):
            database.manager.run([insert_op("a")], validate=validate)
        assert events == [before]  # ran before the tick
        assert database.manager.clock.last == before
        assert len(database.log) == 1  # nothing ticked, nothing applied

    def test_validate_passing_lets_the_commit_through(self):
        database = fresh_db()
        commit_time = database.manager.run([insert_op("a")],
                                           validate=lambda: None)
        assert list(database.log)[-1].commit_time == commit_time

    def test_validate_is_atomic_with_the_commit_it_guards(self):
        """No other run() caller may commit between a session's validation
        and its apply — the heart of first-committer-wins."""
        database = fresh_db()
        in_validate = threading.Event()
        release = threading.Event()
        log_len_inside = []

        def stalling_validate():
            in_validate.set()
            release.wait(timeout=10.0)
            log_len_inside.append(len(database.log))

        def stalled_runner():
            database.manager.run([insert_op("stalled")],
                                 validate=stalling_validate)

        thread = threading.Thread(target=stalled_runner, daemon=True)
        thread.start()
        assert in_validate.wait(timeout=10.0)
        # A competing run() must block until the stalled one finishes.
        competitor = threading.Thread(
            target=lambda: database.manager.run([insert_op("competitor")]),
            daemon=True)
        competitor.start()
        competitor.join(timeout=0.2)
        assert competitor.is_alive()  # still waiting on the run lock
        release.set()
        thread.join(timeout=10.0)
        competitor.join(timeout=10.0)
        assert log_len_inside == [1]  # the competitor had not committed
        assert {row["k"] for row in database.snapshot("r")} == {
            "stalled", "competitor"}

    def test_explicit_commit_serializes_with_run_validation(self):
        """Regression: an explicit Transaction.commit must take the same
        serialization lock as run(), or it can land between a session's
        validation and its apply — a lost update the first-committer-wins
        check never sees."""
        database = fresh_db()
        in_validate = threading.Event()
        release = threading.Event()
        order = []

        def stalling_validate():
            order.append("validate-enter")
            in_validate.set()
            release.wait(timeout=10.0)
            order.append("validate-exit")

        def stalled_runner():
            try:
                database.manager.run([insert_op("stalled")],
                                     validate=stalling_validate)
            except TransactionStateError:
                # The explicit transaction below may own the
                # single-writer slot when this run() reaches begin().
                pass

        runner = threading.Thread(target=stalled_runner, daemon=True)
        runner.start()
        assert in_validate.wait(timeout=10.0)
        txn = database.begin()  # no txn is active during validate
        database.insert("r", {"k": "explicit", "v": 1}, txn=txn)
        committed = threading.Event()

        def explicit_commit():
            txn.commit()
            order.append("explicit-commit")
            committed.set()

        committer = threading.Thread(target=explicit_commit, daemon=True)
        committer.start()
        # The explicit commit must wait out the validate critical section.
        assert not committed.wait(timeout=0.2)
        release.set()
        assert committed.wait(timeout=10.0)
        runner.join(timeout=10.0)
        committer.join(timeout=10.0)
        assert order == ["validate-enter", "validate-exit",
                         "explicit-commit"]
        assert any(row["k"] == "explicit"
                   for row in database.snapshot("r"))

    def test_certify_serializes_reads_with_commits(self):
        database = fresh_db()
        in_certify = threading.Event()
        release = threading.Event()

        def holder():
            def blocker():
                in_certify.set()
                release.wait(timeout=10.0)
            database.manager.certify(blocker)

        thread = threading.Thread(target=holder, daemon=True)
        thread.start()
        assert in_certify.wait(timeout=10.0)
        competitor = threading.Thread(
            target=lambda: database.manager.run([insert_op("late")]),
            daemon=True)
        competitor.start()
        competitor.join(timeout=0.2)
        assert competitor.is_alive()  # commits wait for the certifier
        release.set()
        thread.join(timeout=10.0)
        competitor.join(timeout=10.0)
        assert any(row["k"] == "late" for row in database.snapshot("r"))

    def test_certify_rejection_propagates_without_a_commit(self):
        database = fresh_db()

        def reject():
            raise ConflictError("stale read set")

        with pytest.raises(ConflictError):
            database.manager.certify(reject)
        assert len(database.log) == 1  # no tick, no record
