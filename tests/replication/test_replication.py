"""Journal shipping: replicas converge to the primary's exact state.

The core property mirrors the durability suite's: a replica that applied
the shipped commit order is *observationally identical* to the primary —
snapshots, rollbacks, timeslices and the paper's §4.1–§4.4 TQuel answers
all agree — whatever the transport did to the stream on the way there
(duplicates, reorderings, drops, delays).
"""

import pytest

from repro import obs
from repro.core import (HistoricalDatabase, RollbackDatabase, StaticDatabase,
                        TemporalDatabase)
from repro.errors import DivergenceError, ReplicaLagging
from repro.replication import (FaultyTransport, InProcessTransport, Primary,
                               Replica, state_digest)
from repro.storage import DurabilityManager
from repro.time import SimulatedClock

from tests.replication.digest_oracle import canonical_state
from tests.storage.probes import drive_faculty, observations, paper_answers

ALL_KINDS = [StaticDatabase, RollbackDatabase, HistoricalDatabase,
             TemporalDatabase]


def make_pair(kind=TemporalDatabase, transport=None, replica_count=1):
    """A primary plus attached replicas over a shared transport."""
    transport = transport if transport is not None else InProcessTransport()
    database = kind(clock=SimulatedClock(1))
    primary = Primary("primary", database, transport)
    replicas = [Replica(f"replica-{i}", kind, transport, "primary")
                for i in range(replica_count)]
    for replica in replicas:
        primary.add_replica(replica.node_id)
    return database, primary, replicas, transport


def converge(primary, replicas, rounds=500):
    """Pump both ends until every replica reaches the primary's seq."""
    for _ in range(rounds):
        if all(r.applied_seq >= primary.current_seq for r in replicas):
            return
        primary.pump()
        primary.heartbeat()
        for replica in replicas:
            replica.pump()
    raise AssertionError(
        "no convergence: primary at %d, replicas at %s" % (
            primary.current_seq, [r.applied_seq for r in replicas]))


class TestCleanStream:
    @pytest.mark.parametrize("db_class", ALL_KINDS)
    def test_replica_answers_paper_queries_identically(self, db_class):
        database, primary, (replica,), _ = make_pair(db_class)
        drive_faculty(database)
        replica.pump()
        assert replica.applied_seq == primary.current_seq == 7
        assert observations(replica.database) == observations(database)
        assert paper_answers(replica.database) == paper_answers(database)
        assert state_digest(replica.database) == state_digest(database)

    def test_two_replicas_get_the_same_stream(self):
        database, primary, replicas, _ = make_pair(replica_count=2)
        drive_faculty(database)
        for replica in replicas:
            replica.pump()
        digests = {state_digest(r.database) for r in replicas}
        assert digests == {state_digest(database)}

    def test_commit_times_are_preserved(self):
        database, _, (replica,), _ = make_pair()
        drive_faculty(database)
        replica.pump()
        assert [r.commit_time for r in replica.database.log] == \
            [r.commit_time for r in database.log]

    def test_heartbeat_digest_check_passes(self):
        database, primary, (replica,), _ = make_pair()
        drive_faculty(database)
        replica.pump()
        primary.heartbeat()
        replica.pump()
        assert not replica.diverged
        replica.check()  # does not raise


class TestStreamDiscipline:
    def test_duplicates_are_dropped_idempotently(self):
        transport = FaultyTransport(duplicate=1.0)
        database, primary, (replica,), _ = make_pair(transport=transport)
        with obs.recording() as instrumentation:
            drive_faculty(database)
            replica.pump()
        counters = instrumentation.metrics.snapshot()["counters"]
        assert counters["replication.duplicates_dropped"] == 7
        assert replica.applied_seq == 7
        assert state_digest(replica.database) == state_digest(database)

    def test_reordered_records_are_buffered_then_drained(self):
        transport = FaultyTransport(reorder=1.0)
        database, primary, (replica,), _ = make_pair(transport=transport)
        with obs.recording() as instrumentation:
            drive_faculty(database)
            replica.pump()
        counters = instrumentation.metrics.snapshot()["counters"]
        assert counters["replication.gaps_detected"] > 0
        assert replica.applied_seq == 7
        assert observations(replica.database) == observations(database)

    def test_dropped_records_heal_by_resend(self):
        transport = FaultyTransport(seed=3, drop=0.4)
        database, primary, (replica,), _ = make_pair(transport=transport)
        drive_faculty(database)
        converge(primary, [replica])
        assert replica.applied_seq == 7
        assert paper_answers(replica.database) == paper_answers(database)

    def test_delayed_records_arrive_late_but_in_order(self):
        transport = FaultyTransport(delay=1.0, delay_rounds=3)
        database, primary, (replica,), _ = make_pair(transport=transport)
        drive_faculty(database)
        converge(primary, [replica])
        assert state_digest(replica.database) == state_digest(database)

    def test_garbage_frames_are_rejected_not_fatal(self):
        database, primary, (replica,), transport = make_pair()
        transport.send("primary", "replica-0", "p1 nonsense")
        transport.send("primary", "replica-0", "not even a frame")
        with obs.recording() as instrumentation:
            replica.pump()
        counters = instrumentation.metrics.snapshot()["counters"]
        assert counters["replication.frames_rejected"] == 2
        drive_faculty(database)
        replica.pump()
        assert replica.applied_seq == 7  # the stream survived the garbage

    @pytest.mark.parametrize("seed", [1, 7, 1985])
    def test_hostile_schedule_property(self, seed):
        # Drop + duplicate + reorder + delay together, three seeds: the
        # stream must still converge to digest equality.
        transport = FaultyTransport(seed=seed, drop=0.2, duplicate=0.2,
                                    reorder=0.2, delay=0.2)
        database, primary, (replica,), _ = make_pair(transport=transport)
        drive_faculty(database)
        converge(primary, [replica])
        assert state_digest(replica.database) == state_digest(database)


class TestSnapshotCatchUp:
    def _checkpointed_primary(self, directory, transport):
        """A primary recovered from a checkpoint: its floor is above 0."""
        manager = DurabilityManager(directory)
        durable, _ = manager.recover(TemporalDatabase)
        drive_faculty(durable, stop=5)
        manager.checkpoint()
        drive_faculty(durable, start=5)
        recovered_manager = DurabilityManager(directory)
        recovered, report = recovered_manager.recover(TemporalDatabase)
        floor = report.records_total - len(recovered.log)
        assert floor == 5  # the checkpoint truncated the in-memory log
        return Primary("primary", recovered, transport, floor=floor)

    def test_cold_replica_catches_up_by_snapshot(self, tmp_path):
        transport = InProcessTransport()
        primary = self._checkpointed_primary(str(tmp_path / "dur"),
                                             transport)
        replica = Replica("cold", TemporalDatabase, transport, "primary")
        primary.add_replica("cold")
        with obs.recording() as instrumentation:
            replica.request_catchup()
            primary.pump()
            replica.pump()
        counters = instrumentation.metrics.snapshot()["counters"]
        assert counters["replication.snapshots_served"] == 1
        assert counters["replication.snapshots_loaded"] == 1
        assert replica.applied_seq == primary.current_seq == 7
        assert replica.log_floor == 7  # state came as a snapshot, not log
        assert state_digest(replica.database) == \
            state_digest(primary.database)
        assert paper_answers(replica.database) == \
            paper_answers(primary.database)

    def test_snapshot_replica_follows_the_stream_afterwards(self, tmp_path):
        transport = InProcessTransport()
        primary = self._checkpointed_primary(str(tmp_path / "dur"),
                                             transport)
        replica = Replica("cold", TemporalDatabase, transport, "primary")
        primary.add_replica("cold")
        replica.request_catchup()
        primary.pump()
        replica.pump()
        clock = primary.database.manager.clock.source
        clock.set("06/01/85")
        primary.database.insert("faculty", {"name": "Ada", "rank": "full"},
                                valid_from="06/01/85")
        replica.pump()
        assert replica.applied_seq == 8
        assert state_digest(replica.database) == \
            state_digest(primary.database)

    def test_resend_below_floor_falls_back_to_snapshot(self, tmp_path):
        # A replica that applied part of the pre-checkpoint history asks
        # for records the primary no longer retains.
        transport = InProcessTransport()
        primary = self._checkpointed_primary(str(tmp_path / "dur"),
                                             transport)
        replica = Replica("cold", TemporalDatabase, transport, "primary")
        replica.applied_seq = 2  # pretend: 2 records applied long ago
        primary.add_replica("cold")
        replica.request_catchup()
        primary.pump()  # 2 < floor of 5 -> snapshot, not records
        with obs.recording() as instrumentation:
            replica.pump()
        counters = instrumentation.metrics.snapshot()["counters"]
        assert counters["replication.snapshots_loaded"] == 1
        assert replica.applied_seq == 7


class TestDivergenceDetection:
    def test_local_corruption_latches_on_the_next_heartbeat(self):
        database, primary, (replica,), _ = make_pair()
        drive_faculty(database)
        replica.pump()
        # Corrupt the replica out-of-band: a local write no primary sent.
        clock = replica.database.manager.clock.source
        clock.set("01/01/85")
        replica.database.insert("faculty",
                                {"name": "Evil", "rank": "full"},
                                valid_from="01/01/85")
        primary.heartbeat()
        with obs.recording() as instrumentation:
            replica.pump()
        counters = instrumentation.metrics.snapshot()["counters"]
        assert counters["replication.divergence_detected"] == 1
        assert replica.diverged
        with pytest.raises(DivergenceError):
            replica.check()
        with pytest.raises(DivergenceError):
            replica.read("faculty")
        assert DivergenceError("x").retryable is False

    def test_healthy_replica_never_latches(self):
        database, primary, (replica,), _ = make_pair()
        for stop in range(1, 8):
            drive_faculty(database, start=stop - 1, stop=stop)
            replica.pump()
            primary.heartbeat()
            replica.pump()
        assert not replica.diverged


class TestLagAndTokens:
    def test_lag_gauges_report_records_and_chronons(self):
        database, primary, (replica,), transport = make_pair(
            transport=FaultyTransport())
        drive_faculty(database, stop=3)
        replica.pump()
        transport.partition("primary", "replica-0")
        drive_faculty(database, start=3)  # 4 more commits the link drops
        transport.heal()
        primary.heartbeat()  # advertises head seq + head chronon
        with obs.recording() as instrumentation:
            replica.pump()  # sees the head, still behind
        gauges = instrumentation.metrics.snapshot()["gauges"]
        assert gauges["replication.lag_records"] == 4
        assert gauges["replication.lag_chronons"] > 0
        records, chronons = replica.lag()
        assert records == 4 and chronons > 0
        primary.pump()  # serve the gap request the pump sent
        replica.pump()
        assert replica.lag() == (0, 0)

    def test_read_your_writes_token_gates_replica_reads(self):
        database, primary, (replica,), _ = make_pair()
        drive_faculty(database, stop=2)
        replica.pump()
        layer = database.sessions()

        def add_mike(session):
            session.insert("faculty", {"name": "Mike", "rank": "assistant"},
                           valid_from="01/01/83")

        clock = database.manager.clock.source
        clock.set("01/10/83")
        box = {}

        def closure(session, _box=box):
            _box["session"] = session
            add_mike(session)

        layer.run(closure)
        token = box["session"].commit_token
        assert token == 3
        # The replica has not applied the write yet: the token holds it.
        with pytest.raises(ReplicaLagging) as caught:
            replica.read("faculty", token=token)
        assert caught.value.retryable is True
        assert caught.value.token == 3 and caught.value.applied == 2
        replica.pump()
        rows = replica.read("faculty", token=token)
        assert any(row["name"] == "Mike" for row in rows)

    def test_timeslice_and_rollback_respect_the_token(self):
        database, primary, (replica,), _ = make_pair()
        drive_faculty(database, stop=2)
        replica.pump()
        drive_faculty(database, start=2, stop=3)  # not yet pumped
        with pytest.raises(ReplicaLagging):
            replica.timeslice("faculty", "12/10/82", token=3)
        with pytest.raises(ReplicaLagging):
            replica.rollback("faculty", "12/10/82", token=3)
        replica.pump()
        assert replica.timeslice("faculty", "12/10/82", token=3) is not None
        assert replica.rollback("faculty", "12/10/82", token=3) is not None


class TestDigest:
    def test_digest_is_recovery_stable(self, tmp_path):
        # The same history, never-crashed vs checkpoint-recovered vs
        # fully-replayed, hashes identically.
        reference = TemporalDatabase(clock=SimulatedClock(1))
        drive_faculty(reference)
        directory = str(tmp_path / "dur")
        manager = DurabilityManager(directory)
        durable, _ = manager.recover(TemporalDatabase)
        drive_faculty(durable, stop=4)
        manager.checkpoint()
        drive_faculty(durable, start=4)
        fast, _ = DurabilityManager(directory).recover(TemporalDatabase)
        slow, _ = DurabilityManager(directory).recover(
            TemporalDatabase, use_checkpoint=False)
        assert state_digest(reference) == state_digest(durable) == \
            state_digest(fast) == state_digest(slow)

    def test_digest_distinguishes_different_histories(self):
        a = TemporalDatabase(clock=SimulatedClock(1))
        b = TemporalDatabase(clock=SimulatedClock(1))
        drive_faculty(a)
        drive_faculty(b, stop=6)
        assert state_digest(a) != state_digest(b)

    def test_canonical_state_excludes_the_clock(self):
        database = TemporalDatabase(clock=SimulatedClock(1))
        drive_faculty(database)
        assert "clock_last" not in canonical_state(database)
