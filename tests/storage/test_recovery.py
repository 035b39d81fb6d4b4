"""Recovery tests: checkpoint + tail replay ≡ full replay ≡ never crashed.

The core acceptance property of the durability subsystem: for every
database kind, a database recovered from the latest checkpoint plus the
journal tail is observationally identical to one recovered by replaying
all of history, and to the original that never went down — snapshots,
rollbacks, timeslices, temporal rows and the paper's TQuel answers all
agree.
"""

import os

import pytest

from repro.core import (HistoricalDatabase, RollbackDatabase, StaticDatabase,
                        TemporalDatabase)
from repro.errors import JournalError
from repro.relational import Domain, Schema
from repro.replication import state_digest
from repro.storage import DurabilityManager, detect_kind
from repro.time import SimulatedClock
from repro.workload import FacultyWorkload, apply_workload

from tests.storage.probes import (EXPECTED_AS_OF, EXPECTED_BITEMPORAL,
                                  EXPECTED_STATIC, EXPECTED_WHEN,
                                  drive_faculty, observations, paper_answers)

ALL_KINDS = [StaticDatabase, RollbackDatabase, HistoricalDatabase,
             TemporalDatabase]


@pytest.fixture
def directory(tmp_path):
    return str(tmp_path / "dur")


class TestEquivalence:
    """Randomized: checkpoint+tail and full replay answer identically."""

    @pytest.mark.parametrize("db_class", ALL_KINDS)
    @pytest.mark.parametrize("seed", [7, 1985])
    def test_checkpoint_tail_equals_full_replay(self, db_class, seed,
                                                directory):
        workload = FacultyWorkload(people=6, events_per_person=3, seed=seed)
        steps = workload.steps()
        cuts = [len(steps) // 3, 2 * len(steps) // 3]

        # The reference database never crashes and never persists.
        reference = db_class(clock=SimulatedClock(1))
        apply_workload(reference, workload, steps=steps)

        # The durable database checkpoints twice mid-history.
        manager = DurabilityManager(directory)
        durable, _ = manager.recover(db_class)
        apply_workload(durable, workload, steps=steps[:cuts[0]])
        manager.checkpoint()
        apply_workload(durable, workload, steps=steps[cuts[0]:cuts[1]])
        manager.checkpoint()
        apply_workload(durable, workload, steps=steps[cuts[1]:])

        via_checkpoint, fast = DurabilityManager(directory).recover(db_class)
        via_replay, slow = DurabilityManager(directory).recover(
            db_class, use_checkpoint=False)

        expected = observations(reference, relation=workload.relation)
        assert observations(durable, relation=workload.relation) == expected
        assert observations(via_checkpoint,
                            relation=workload.relation) == expected
        assert observations(via_replay,
                            relation=workload.relation) == expected

        # The checkpoint did its job: the tail is strictly shorter.
        assert not fast.full_replay and slow.full_replay
        assert fast.records_replayed < slow.records_replayed
        assert fast.records_total == slow.records_total

    @pytest.mark.parametrize("db_class", ALL_KINDS)
    def test_recovered_database_continues_identically(self, db_class,
                                                      directory):
        # Crash-free stop after 4 faculty steps, recover, run the rest:
        # the result must equal a database that never went down at all.
        manager = DurabilityManager(directory)
        durable, _ = manager.recover(db_class)
        drive_faculty(durable, stop=4)
        manager.checkpoint()

        recovered_manager = DurabilityManager(directory)
        recovered, _ = recovered_manager.recover(db_class)
        drive_faculty(recovered, start=4)

        reference = db_class(clock=SimulatedClock(1))
        drive_faculty(reference)
        assert observations(recovered) == observations(reference)
        assert [r.commit_time for r in recovered_manager.database.log] == \
            [r.commit_time for r in reference.log][4:]


class TestRowOrderSurvivesARestart:
    """A store's printed row order, and what a later operation makes of
    it, are the same live, after a checkpoint and after a full replay."""

    FACTORIES = {
        "static": StaticDatabase,
        "rollback-interval": RollbackDatabase,
        "historical": HistoricalDatabase,
        "temporal": TemporalDatabase,
    }

    @staticmethod
    def _drive(database, steps):
        clock = database.manager.clock.source
        valid = ({"valid_from": 1}
                 if database.supports_historical_queries else {})
        for action, *arguments in steps:
            clock.set(clock.current() + 1)
            if action == "insert":
                database.insert("r", arguments[0], **valid)
            else:
                getattr(database, action)("r", *arguments)

    #: The commits after the checkpoint, and the rows (k, d) they leave
    #: in a store without transaction time: each replaced row in its
    #: place, as on the whole-state path.
    TAILS = {
        "no-tail": ([], [("e", "z"), ("a", "x"), ("b", "x")]),
        "tail": ([("replace", {"d": "x"}, {"d": "y"}),  # partial key
                  ("insert", {"k": "f", "d": "x", "v": 3}),
                  ("replace", {"k": "b", "d": "y"}, {"v": 4})],
                 [("e", "z"), ("a", "y"), ("b", "y"), ("f", "x")]),
    }

    @pytest.mark.parametrize("tail", sorted(TAILS))
    @pytest.mark.parametrize("kind", sorted(FACTORIES))
    def test_keyed_replace_checkpoint_then_a_partial_key_replace(
            self, kind, tail, directory):
        factory = self.FACTORIES[kind]
        manager = DurabilityManager(directory)
        live, _ = manager.recover(factory)
        live.manager.clock.source.set(2)
        live.define("r", Schema.of(key=["k", "d"], k=Domain.STRING,
                                   d=Domain.STRING, v=Domain.INTEGER))
        self._drive(live, [
            ("insert", {"k": "c", "d": "z", "v": 1}),
            ("insert", {"k": "a", "d": "x", "v": 1}),
            ("insert", {"k": "b", "d": "x", "v": 1}),
            ("replace", {"k": "a", "d": "x"}, {"v": 2}),   # keeps its key
            ("replace", {"k": "c", "d": "z"}, {"k": "e"}),  # changes it
        ])
        manager.checkpoint()
        steps, rows = self.TAILS[tail]
        self._drive(live, steps)
        expected = (live.store("r").current().pretty(), state_digest(live))
        via_checkpoint, report = DurabilityManager(directory).recover(factory)
        via_replay, _ = DurabilityManager(directory).recover(
            factory, use_checkpoint=False)
        assert not report.full_replay
        for recovered in (via_checkpoint, via_replay):
            assert (recovered.store("r").current().pretty(),
                    state_digest(recovered)) == expected
        if not live.supports_rollback:
            state = live.store("r").current()
            assert [(fact["k"], fact["d"]) for fact in (
                row.data if live.supports_historical_queries else row
                for row in state)] == rows


class TestPaperQueriesSurviveRecovery:
    @pytest.mark.parametrize("db_class", ALL_KINDS)
    def test_figures_2_to_9_answers(self, db_class, directory):
        manager = DurabilityManager(directory)
        durable, _ = manager.recover(db_class)
        drive_faculty(durable, stop=5)
        manager.checkpoint()
        drive_faculty(durable, start=5)

        recovered, report = DurabilityManager(directory).recover(db_class)
        assert report.checkpoint_index == 5
        answers = paper_answers(recovered)
        assert answers == paper_answers(durable)
        if not recovered.supports_historical_queries:
            # With valid time, a plain retrieve yields the whole history;
            # the exact Figure-2 answer applies to snapshot kinds only.
            assert answers["static"] == EXPECTED_STATIC
        if recovered.supports_rollback:
            assert answers["as_of"] == EXPECTED_AS_OF
        if recovered.supports_historical_queries:
            assert answers["when"] == EXPECTED_WHEN
        if recovered.supports_rollback and \
                recovered.supports_historical_queries:
            for as_of, expected in EXPECTED_BITEMPORAL.items():
                assert answers[f"bitemporal@{as_of}"] == expected


class TestManagerMechanics:
    def test_recover_empty_directory_is_fresh_database(self, directory):
        database, report = DurabilityManager(directory).recover(
            TemporalDatabase)
        assert report.full_replay and report.records_total == 0
        assert len(database.log) == 0

    def test_attach_backfills_existing_history(self, directory):
        from tests.conftest import build_faculty
        database, _ = build_faculty(TemporalDatabase)
        manager = DurabilityManager(directory)
        manager.attach(database)
        assert manager.record_count == len(database.log)
        rebuilt, report = DurabilityManager(directory).recover(
            TemporalDatabase)
        assert report.records_replayed == len(database.log)
        assert observations(rebuilt) == observations(database)

    def test_attach_over_existing_history_refused(self, directory):
        manager = DurabilityManager(directory)
        durable, _ = manager.recover(TemporalDatabase)
        drive_faculty(durable, stop=2)
        with pytest.raises(JournalError, match="recover"):
            DurabilityManager(directory).attach(
                TemporalDatabase(clock=SimulatedClock(1)))

    def test_checkpoint_rotates_segment_once(self, directory):
        manager = DurabilityManager(directory)
        durable, _ = manager.recover(TemporalDatabase)
        drive_faculty(durable, stop=3)
        manager.checkpoint()
        # Rotation creates the new segment eagerly (zero-length), so the
        # directory names its live segment before the first append.
        assert [start for start, _ in manager.segments()] == [0, 3]
        drive_faculty(durable, start=3, stop=5)
        assert [start for start, _ in manager.segments()] == [0, 3]
        manager.checkpoint()
        assert [start for start, _ in manager.segments()] == [0, 3, 5]
        # A checkpoint with no commits since the last one does not rotate.
        manager.checkpoint()
        assert [start for start, _ in manager.segments()] == [0, 3, 5]
        assert manager.checkpoints.indices() == [3, 5]

    def test_old_segments_can_be_pruned_after_checkpoint(self, directory):
        manager = DurabilityManager(directory)
        durable, _ = manager.recover(TemporalDatabase)
        drive_faculty(durable, stop=4)
        manager.checkpoint()
        drive_faculty(durable, start=4)
        # The operator compaction step DURABILITY.md documents.
        for start, path in manager.segments():
            if start < 4:
                os.remove(path)
        recovered, report = DurabilityManager(directory).recover(
            TemporalDatabase)
        assert report.checkpoint_index == 4
        reference = TemporalDatabase(clock=SimulatedClock(1))
        drive_faculty(reference)
        assert observations(recovered) == observations(reference)

    def test_detect_kind_reads_newest_checkpoint(self, directory):
        assert detect_kind(directory) is None
        manager = DurabilityManager(directory)
        durable, _ = manager.recover(RollbackDatabase)
        drive_faculty(durable, stop=2)
        manager.checkpoint()
        assert detect_kind(directory) == "static rollback"


class TestDamageHandling:
    def _durable_faculty(self, directory, checkpoint_at=4):
        manager = DurabilityManager(directory)
        durable, _ = manager.recover(TemporalDatabase)
        drive_faculty(durable, stop=checkpoint_at)
        manager.checkpoint()
        drive_faculty(durable, start=checkpoint_at)
        return manager

    def test_torn_tail_is_truncated_and_life_goes_on(self, directory):
        manager = self._durable_faculty(directory)
        _, live_path = manager.segments()[-1]
        with open(live_path, "ab") as handle:
            handle.write(b"r2 9999 deadbeef {\"torn")  # crashed append
        recovered_manager = DurabilityManager(directory)
        recovered, report = recovered_manager.recover(TemporalDatabase)
        assert report.torn_bytes_truncated > 0
        reference = TemporalDatabase(clock=SimulatedClock(1))
        drive_faculty(reference)
        assert observations(recovered) == observations(reference)
        # The repaired segment accepts new commits and recovers cleanly.
        recovered.manager.clock.source.set("06/01/85")
        recovered.insert("faculty", {"name": "New", "rank": "full"},
                         valid_from="06/01/85")
        again, report2 = DurabilityManager(directory).recover(
            TemporalDatabase)
        assert report2.torn_bytes_truncated == 0
        assert observations(again) == observations(recovered)

    def test_mid_journal_corruption_is_fatal(self, directory):
        manager = self._durable_faculty(directory, checkpoint_at=2)
        start, live_path = manager.segments()[-1]
        with open(live_path, "rb") as handle:
            lines = handle.read().splitlines(keepends=True)
        assert len(lines) >= 2
        lines[0] = b"r2 10 00000000 {\"bad\": 1}\n"  # wrong checksum
        with open(live_path, "wb") as handle:
            handle.writelines(lines)
        with pytest.raises(JournalError, match="not a torn tail"):
            DurabilityManager(directory).recover(TemporalDatabase)

    def test_damaged_checkpoint_falls_back_to_older(self, directory):
        manager = self._durable_faculty(directory, checkpoint_at=3)
        manager.checkpoint()  # a second checkpoint at the full history
        newest = manager.checkpoints.path_for(7)
        data = open(newest, "rb").read()
        with open(newest, "wb") as handle:
            handle.write(data[:len(data) // 3])
        recovered, report = DurabilityManager(directory).recover(
            TemporalDatabase)
        assert report.checkpoint_index == 3
        assert report.checkpoints_skipped == 1
        reference = TemporalDatabase(clock=SimulatedClock(1))
        drive_faculty(reference)
        assert observations(recovered) == observations(reference)

    def test_every_checkpoint_damaged_means_full_replay(self, directory):
        manager = self._durable_faculty(directory, checkpoint_at=3)
        for index in manager.checkpoints.indices():
            path = manager.checkpoints.path_for(index)
            with open(path, "wb") as handle:
                handle.write(b"c1 3 00000000 junk\n")
        recovered, report = DurabilityManager(directory).recover(
            TemporalDatabase)
        assert report.full_replay
        assert report.records_replayed == 7
        reference = TemporalDatabase(clock=SimulatedClock(1))
        drive_faculty(reference)
        assert observations(recovered) == observations(reference)


class TestEmptyTrailingSegment:
    """Regression: a crash between segment create and first append.

    Checkpoint rotation creates the new segment eagerly, so a crash in
    that window leaves a zero-length trailing segment file.  Recovery
    must classify it as a clean (empty) tail — not damage — place the
    next append correctly, and keep every durable record.
    """

    def test_rotation_crash_leaves_recoverable_empty_segment(self,
                                                             directory):
        manager = DurabilityManager(directory)
        durable, _ = manager.recover(TemporalDatabase)
        drive_faculty(durable, stop=4)
        manager.checkpoint()  # rotates; creates journal-00000004.seg empty
        start, live_path = manager.segments()[-1]
        assert start == 4 and os.path.getsize(live_path) == 0
        # "Crash" here: abandon the manager, recover the directory fresh.
        recovered, report = DurabilityManager(directory).recover(
            TemporalDatabase)
        assert report.records_total == 4
        assert report.records_replayed == 0
        assert report.torn_bytes_truncated == 0
        reference = TemporalDatabase(clock=SimulatedClock(1))
        drive_faculty(reference, stop=4)
        assert observations(recovered) == observations(reference)

    def test_appends_after_recovery_land_in_the_empty_segment(self,
                                                              directory):
        manager = DurabilityManager(directory)
        durable, _ = manager.recover(TemporalDatabase)
        drive_faculty(durable, stop=4)
        manager.checkpoint()
        fresh = DurabilityManager(directory)
        recovered, _ = fresh.recover(TemporalDatabase)
        drive_faculty(recovered, start=4)
        start, live_path = fresh.segments()[-1]
        assert start == 4 and os.path.getsize(live_path) > 0
        assert fresh.record_count == 7
        again, report = DurabilityManager(directory).recover(TemporalDatabase)
        assert report.records_total == 7
        reference = TemporalDatabase(clock=SimulatedClock(1))
        drive_faculty(reference)
        assert observations(again) == observations(reference)

    def test_zero_length_lone_segment_is_a_fresh_database(self, directory):
        os.makedirs(directory)
        open(os.path.join(directory, "journal-00000000.seg"), "wb").close()
        recovered, report = DurabilityManager(directory).recover(
            TemporalDatabase)
        assert report.records_total == 0
        assert report.segments_read == 1
        assert recovered.relation_names() == []

    def test_full_replay_tolerates_the_empty_tail_too(self, directory):
        manager = DurabilityManager(directory)
        durable, _ = manager.recover(TemporalDatabase)
        drive_faculty(durable, stop=4)
        manager.checkpoint()
        recovered, report = DurabilityManager(directory).recover(
            TemporalDatabase, use_checkpoint=False)
        assert report.full_replay
        assert report.records_total == 4
        reference = TemporalDatabase(clock=SimulatedClock(1))
        drive_faculty(reference, stop=4)
        assert observations(recovered) == observations(reference)
