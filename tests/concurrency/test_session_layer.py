"""The session layer: OCC footprints, first-committer-wins, deadlines."""

import threading

import pytest

from repro.concurrency import (AdmissionController, ConcurrentSession,
                              RetryPolicy, SessionLayer)
from repro.core import StaticDatabase, TemporalDatabase
from repro.errors import (ConflictError, DeadlineExceeded,
                         TransactionStateError)
from repro.relational import Domain, Schema
from repro.time import SimulatedClock
from repro.txn import TxnStatus


class FakeClock:
    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def counters_db(cls=StaticDatabase):
    database = cls(clock=SimulatedClock("01/01/80"))
    database.define("counters",
                    Schema.of(key=["k"], k=Domain.STRING, v=Domain.INTEGER))
    with database.begin() as txn:
        if database.kind.supports_historical_queries:
            database.insert("counters", {"k": "a", "v": 0},
                            valid_from="01/01/80", txn=txn)
        else:
            database.insert("counters", {"k": "a", "v": 0}, txn=txn)
    return database


def value(database, key="a"):
    return next(row["v"] for row in database.snapshot("counters")
                if row["k"] == key)


def fast_retry(**kwargs):
    kwargs.setdefault("max_attempts", 10)
    kwargs.setdefault("base_delay", 0.0)
    kwargs.setdefault("jitter", 0.0)
    kwargs.setdefault("seed", 0)
    return RetryPolicy(**kwargs)


class TestSessionBasics:
    def test_database_sessions_accessor_builds_a_layer(self):
        layer = counters_db().sessions()
        assert isinstance(layer, SessionLayer)
        assert isinstance(layer.begin(), ConcurrentSession)

    def test_buffered_writes_are_invisible_until_commit(self):
        database = counters_db()
        session = database.sessions().begin()
        session.replace("counters", {"k": "a"}, {"v": 1})
        assert value(database) == 0  # still buffered
        session.commit()
        assert value(database) == 1
        assert session.status is TxnStatus.COMMITTED
        assert session.commit_time is not None

    def test_reads_track_the_footprint(self):
        database = counters_db()
        session = database.sessions().begin()
        session.read("counters")
        assert "counters" in session.footprint
        assert session.conflicts() == []

    def test_read_only_session_commits_to_none(self):
        database = counters_db()
        session = database.sessions().begin()
        session.read("counters")
        assert session.commit() is None
        assert session.status is TxnStatus.COMMITTED
        assert len(database.log) == 2  # define + seed only

    def test_aborted_session_rejects_further_work(self):
        session = counters_db().sessions().begin()
        session.abort()
        with pytest.raises(TransactionStateError) as excinfo:
            session.replace("counters", {"k": "a"}, {"v": 1})
        assert str(session.session_id) in str(excinfo.value)

    def test_context_manager_commits_on_success_aborts_on_error(self):
        database = counters_db()
        layer = database.sessions()
        with layer.begin() as session:
            session.replace("counters", {"k": "a"}, {"v": 5})
        assert value(database) == 5
        with pytest.raises(RuntimeError):
            with layer.begin() as session:
                session.replace("counters", {"k": "a"}, {"v": 99})
                raise RuntimeError("application bug")
        assert value(database) == 5
        assert session.status is TxnStatus.ABORTED

    def test_temporal_kind_takes_valid_time_keywords(self):
        database = counters_db(TemporalDatabase)
        with database.sessions().begin() as session:
            session.insert("counters", {"k": "b", "v": 1},
                           valid_from="06/01/80")
        # The postactive insert is not yet valid "now"...
        assert {row["k"] for row in database.snapshot("counters")} == {"a"}
        # ...but the valid-time keyword went through: it holds at 07/01/80.
        later = database.timeslice("counters", "07/01/80")
        assert {row["k"] for row in later} == {"a", "b"}


class TestFirstCommitterWins:
    def test_second_committer_loses_and_is_aborted(self):
        database = counters_db()
        layer = database.sessions()
        loser = layer.begin()
        loser.read("counters")
        loser.replace("counters", {"k": "a"}, {"v": 1})
        winner = layer.begin()
        winner.replace("counters", {"k": "a"}, {"v": 2})
        winner.commit()
        with pytest.raises(ConflictError) as excinfo:
            loser.commit()
        assert excinfo.value.retryable
        assert "counters" in excinfo.value.relations
        assert loser.status is TxnStatus.ABORTED
        assert value(database) == 2  # winner stood

    def test_read_only_session_still_validates_its_reads(self):
        database = counters_db()
        layer = database.sessions()
        reader = layer.begin()
        reader.read("counters")
        database.replace("counters", {"k": "a"}, {"v": 7})  # out-of-band
        with pytest.raises(ConflictError):
            reader.commit()

    def test_read_only_certification_takes_the_serialization_lock(self):
        """Regression: a read-only commit must certify under the
        manager's serialization lock, not race an in-flight commit's
        apply and version bumps."""
        database = counters_db()
        layer = database.sessions()
        reader = layer.begin()
        reader.read("counters")
        in_certify = threading.Event()
        release = threading.Event()

        def holder():
            def blocker():
                in_certify.set()
                release.wait(timeout=10.0)
            database.manager.certify(blocker)

        lock_holder = threading.Thread(target=holder, daemon=True)
        lock_holder.start()
        assert in_certify.wait(timeout=10.0)
        certified = threading.Event()

        def read_only_commit():
            reader.commit()
            certified.set()

        committer = threading.Thread(target=read_only_commit, daemon=True)
        committer.start()
        # The read-only validation must wait for the lock holder.
        assert not certified.wait(timeout=0.2)
        release.set()
        assert certified.wait(timeout=10.0)
        lock_holder.join(timeout=10.0)
        committer.join(timeout=10.0)
        assert reader.status is TxnStatus.COMMITTED

    def test_disjoint_footprints_do_not_conflict(self):
        database = counters_db()
        database.define("other",
                        Schema.of(key=["k"], k=Domain.STRING,
                                  v=Domain.INTEGER))
        layer = database.sessions()
        session = layer.begin()
        session.replace("counters", {"k": "a"}, {"v": 3})
        database.insert("other", {"k": "x", "v": 1})  # a different relation
        session.commit()  # no conflict: footprints are disjoint
        assert value(database) == 3


class TestRun:
    def test_run_returns_the_closure_value_and_commits(self):
        database = counters_db()
        layer = database.sessions(retry=fast_retry())

        def bump(session):
            row = next(iter(session.read("counters")))
            session.replace("counters", {"k": "a"}, {"v": row["v"] + 1})
            return row["v"] + 1

        assert layer.run(bump) == 1
        assert value(database) == 1

    def test_run_retries_a_conflicted_closure_against_fresh_state(self):
        database = counters_db()
        layer = database.sessions(retry=fast_retry())
        invocations = []

        def contended(session):
            invocations.append(True)
            row = next(iter(session.read("counters")))
            if len(invocations) == 1:
                # An interloper commits after our read, before our commit:
                # first-committer-wins must abort us and retry the closure.
                database.replace("counters", {"k": "a"}, {"v": 100})
            session.replace("counters", {"k": "a"}, {"v": row["v"] + 1})
            return row["v"] + 1

        assert layer.run(contended) == 101  # re-read the interloper's 100
        assert len(invocations) == 2
        assert value(database) == 101

    def test_run_gives_up_after_exhausting_attempts(self):
        database = counters_db()
        layer = database.sessions(retry=fast_retry(max_attempts=2))

        def always_contended(session):
            session.read("counters")
            database.replace("counters", {"k": "a"}, {"v": 0})
            session.replace("counters", {"k": "a"}, {"v": 1})

        with pytest.raises(ConflictError):
            layer.run(always_contended)

    def test_deadline_prevents_a_late_commit(self):
        clock = FakeClock()
        database = counters_db()
        layer = SessionLayer(
            database, clock=clock,
            retry=fast_retry(clock=clock))

        def slow(session):
            session.replace("counters", {"k": "a"}, {"v": 9})
            clock.advance(10.0)  # the closure outlived its budget

        with pytest.raises(DeadlineExceeded):
            layer.run(slow, timeout=1.0)
        assert value(database) == 0  # nothing committed

    def test_admission_slot_is_released_on_every_path(self):
        database = counters_db()
        admission = AdmissionController(max_active=1, max_queue=0)
        layer = database.sessions(retry=fast_retry(max_attempts=1),
                                  admission=admission)
        with pytest.raises(RuntimeError):
            layer.run(lambda session: (_ for _ in ()).throw(
                RuntimeError("boom")))
        assert admission.active == 0
        layer.run(lambda session: session.read("counters"))  # still admits
        assert admission.active == 0


class TestSerializedCommits:
    def test_racing_threads_produce_exactly_n_monotone_commits(self):
        database = counters_db()
        layer = database.sessions(
            retry=fast_retry(max_attempts=200, base_delay=0.0001,
                             max_delay=0.001, jitter=0.5))
        threads_n, per_thread = 8, 25
        errors = []

        def bump(session):
            row = next(iter(session.read("counters")))
            session.replace("counters", {"k": "a"}, {"v": row["v"] + 1})

        def worker():
            try:
                for _ in range(per_thread):
                    layer.run(bump)
            except Exception as error:  # pragma: no cover - diagnostic
                errors.append(error)

        threads = [threading.Thread(target=worker, daemon=True)
                   for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert errors == []
        assert value(database) == threads_n * per_thread
        times = [record.commit_time for record in database.log]
        assert all(a < b for a, b in zip(times, times[1:]))
        assert len(times) == 2 + threads_n * per_thread  # define + seed + N


class TestTornReads:
    """Session reads are atomic with respect to a racing commit's apply.

    A replace closes the superseded version and opens the new one; a
    bare snapshot taken between those two steps sees *neither* version.
    Session reads go through the commit serialization lock
    (``ConcurrentSession._consistent``) so that torn intermediate state
    is never observable — this hammers the race that used to drop rows
    from ``session.read`` mid-replace.
    """

    @pytest.mark.parametrize("cls", [StaticDatabase, TemporalDatabase])
    def test_reader_never_sees_a_replaced_row_missing(self, cls):
        database = counters_db(cls)
        layer = SessionLayer(
            database, retry=RetryPolicy(max_attempts=50, base_delay=0.0001,
                                        max_delay=0.001, seed=0))
        writers_done = threading.Event()
        torn = []

        def bump(session):
            row = next(iter(session.read("counters")))
            session.replace("counters", {"k": "a"}, {"v": row["v"] + 1})

        def writer():
            for _ in range(150):
                layer.run(bump)

        def reader():
            while not writers_done.is_set():
                session = layer.begin()
                rows = list(session.read("counters"))
                session.abort()
                if not any(row["k"] == "a" for row in rows):
                    torn.append(rows)
                    return

        writers = [threading.Thread(target=writer, daemon=True)
                   for _ in range(2)]
        readers = [threading.Thread(target=reader, daemon=True)
                   for _ in range(2)]
        for thread in readers + writers:
            thread.start()
        for thread in writers:
            thread.join(timeout=120.0)
        writers_done.set()
        for thread in readers:
            thread.join(timeout=30.0)
        assert torn == []  # every read saw exactly one live "a" version
        assert value(database) == 300
