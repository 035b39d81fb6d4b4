"""Fault injection: crash at every point of the matrix, then recover.

Each test drives the paper's faculty narrative into a durable database
whose writes go through a :class:`FaultyIO` that dies deterministically
at one crash point (docs/DURABILITY.md's matrix).  After the simulated
crash the directory is recovered with real I/O, the remaining
transactions are re-run, and the result must answer the paper's
Figure 2–9 queries identically to a database that never crashed.
"""

import os

import pytest

from repro.core import (HistoricalDatabase, RollbackDatabase, StaticDatabase,
                        TemporalDatabase)
from repro.errors import CheckpointError
from repro.storage import (ALL_CRASH_POINTS, CheckpointStore, CrashPoint,
                           DurabilityManager, FaultyIO, Journal,
                           SimulatedCrash, audit_directory,
                           detect_kind, flip_byte, read_checkpoint,
                           read_history)
from repro.time import SimulatedClock

from tests.storage.probes import (drive_faculty, faculty_steps, observations,
                                  paper_answers)

ALL_KINDS = [StaticDatabase, RollbackDatabase, HistoricalDatabase,
             TemporalDatabase]

#: Steps after which the driver checkpoints (0-based step indices).  No
#: row has closed by the first, so the second is the first to seal a
#: history file — in the kinds that keep transaction time.
CHECKPOINT_AFTER = (1, 4)

HISTORY_POINTS = (CrashPoint.TORN_HISTORY, CrashPoint.LOST_HISTORY)


def fault_for(point):
    """The injector that dies at *point*'s first interesting write: the
    fourth append, the second checkpoint publish, the first history
    file."""
    if point in (CrashPoint.TORN_RECORD, CrashPoint.LOST_RECORD):
        return FaultyIO(point, at=4)
    return FaultyIO(point, at=1 if point in HISTORY_POINTS else 2)


def history_files(directory):
    return CheckpointStore(directory).history_files()


def crash_faculty(db_class, directory, io):
    """Drive the faculty narrative through *io* until it kills us.

    Checkpoints after steps 1 and 4, so both record-level and
    checkpoint-level crash points get their chance.  Returns True if the
    injected crash fired."""
    manager = DurabilityManager(directory, io=io)
    database, _ = manager.recover(db_class)
    clock = database.manager.clock.source
    try:
        for index, (when, action) in enumerate(faculty_steps(database)):
            clock.set(when)
            action()
            if index in CHECKPOINT_AFTER:
                manager.checkpoint()
    except SimulatedCrash:
        return True
    return False


def recover_and_finish(db_class, directory):
    """Recover with real I/O and run the rest of the narrative.

    The durable record count tells us exactly which steps survived —
    each step is one commit — so the driver resumes from there."""
    manager = DurabilityManager(directory)
    database, report = manager.recover(db_class)
    drive_faculty(database, start=report.records_total)
    return database, report


@pytest.fixture
def directory(tmp_path):
    return str(tmp_path / "dur")


class TestCrashMatrix:
    """Every kind × every crash point: recovery ≡ never crashed."""

    @pytest.mark.parametrize("db_class", ALL_KINDS)
    @pytest.mark.parametrize("point", ALL_CRASH_POINTS,
                             ids=[p.value for p in ALL_CRASH_POINTS])
    def test_recovery_answers_paper_queries(self, db_class, point,
                                            directory):
        crashed = crash_faculty(db_class, directory, fault_for(point))
        # A kind without transaction time has no immutable past to seal:
        # it writes no history file, so a history crash point never fires.
        assert crashed == (point not in HISTORY_POINTS
                           or db_class.kind.supports_rollback)
        recovered, _ = recover_and_finish(db_class, directory)

        reference = db_class(clock=SimulatedClock(1))
        drive_faculty(reference)
        assert observations(recovered) == observations(reference)
        assert paper_answers(recovered) == paper_answers(reference)
        assert [r.commit_time for r in reference.log][-len(list(
            recovered.log)):] == [r.commit_time for r in recovered.log]

    @pytest.mark.parametrize("at", [1, 3, 7])
    @pytest.mark.parametrize("point",
                             [CrashPoint.TORN_RECORD,
                              CrashPoint.LOST_RECORD],
                             ids=["torn-record", "lost-record"])
    def test_record_crash_at_every_append(self, point, at, directory):
        # Whatever append dies — the very first, a middle one, the last —
        # exactly the commits before it survive, and finishing the
        # narrative converges on the uncrashed answers.
        assert crash_faculty(TemporalDatabase, directory,
                             FaultyIO(point, at=at))
        manager = DurabilityManager(directory)
        _, report = manager.recover(TemporalDatabase)
        assert report.records_total == at - 1
        drive_faculty(manager.database, start=at - 1)

        reference = TemporalDatabase(clock=SimulatedClock(1))
        drive_faculty(reference)
        assert observations(manager.database) == observations(reference)


class TestCrashResidue:
    """The on-disk damage left behind is exactly what the matrix says."""

    def test_torn_record_leaves_detectable_tail(self, directory):
        assert crash_faculty(TemporalDatabase, directory,
                             FaultyIO(CrashPoint.TORN_RECORD, at=4))
        manager = DurabilityManager(directory)
        _, live_path = manager.segments()[-1]
        _, damage = Journal(live_path).scan()
        assert damage is not None  # the torn bytes are visible pre-repair
        _, report = manager.recover(TemporalDatabase)
        assert report.torn_bytes_truncated > 0

    def test_lost_record_leaves_clean_but_shorter_journal(self, directory):
        assert crash_faculty(TemporalDatabase, directory,
                             FaultyIO(CrashPoint.LOST_RECORD, at=4))
        manager = DurabilityManager(directory)
        _, live_path = manager.segments()[-1]
        _, damage = Journal(live_path).scan()
        assert damage is None  # nothing reached disk: no tear to repair
        _, report = manager.recover(TemporalDatabase)
        assert report.torn_bytes_truncated == 0
        assert report.records_total == 3

    def test_torn_checkpoint_fails_validation(self, directory):
        assert crash_faculty(TemporalDatabase, directory,
                             FaultyIO(CrashPoint.TORN_CHECKPOINT, at=2))
        manager = DurabilityManager(directory)
        newest = max(manager.checkpoints.indices())
        with pytest.raises(CheckpointError):
            read_checkpoint(manager.checkpoints.path_for(newest))
        _, report = manager.recover(TemporalDatabase)
        assert report.checkpoints_skipped == 1
        assert report.checkpoint_index == 2  # fell back to the first one

    def test_lost_checkpoint_leaves_ignored_tmp(self, directory):
        assert crash_faculty(TemporalDatabase, directory,
                             FaultyIO(CrashPoint.LOST_CHECKPOINT, at=2))
        strays = [name for name in os.listdir(directory)
                  if name.endswith(".tmp")]
        assert strays  # the rename never happened
        manager = DurabilityManager(directory)
        assert max(manager.checkpoints.indices()) == 2
        _, report = manager.recover(TemporalDatabase)
        assert report.checkpoints_skipped == 0
        assert report.checkpoint_index == 2


class TestHistoryFileCrashes:
    """A checkpoint that seals rows is two publishes; a crash at, or
    between, either leaves nothing a later recovery trusts."""

    KINDS = [RollbackDatabase, TemporalDatabase]

    def reference(self, db_class):
        reference = db_class(clock=SimulatedClock(1))
        drive_faculty(reference)
        return reference

    @pytest.mark.parametrize("db_class", KINDS)
    @pytest.mark.parametrize("point", [CrashPoint.TORN_CHECKPOINT,
                                       CrashPoint.LOST_CHECKPOINT],
                             ids=["torn-checkpoint", "lost-checkpoint"])
    def test_orphan_history_file_is_resealed_identically(self, db_class,
                                                         point, directory):
        # Died after the history file, before the checkpoint naming it.
        assert crash_faculty(db_class, directory, FaultyIO(point, at=2))
        orphan = history_files(directory)
        assert len(orphan) == 1
        manager = DurabilityManager(directory)
        _, report = manager.recover(db_class)
        assert report.checkpoint_index == 2
        assert report.history_files_read == 0  # nothing names the orphan
        # The next checkpoint seals the same rows at the same index: the
        # same content, hence the same name — no second file.
        path = manager.checkpoint()
        assert history_files(directory) == orphan
        assert [item[0] for item in read_checkpoint(path)["history"]] == orphan
        assert audit_directory(directory).clean
        drive_faculty(manager.database, start=report.records_total)
        assert observations(manager.database) == observations(
            self.reference(db_class))

    @pytest.mark.parametrize("db_class", KINDS)
    def test_torn_history_file_is_an_orphan_nothing_reads(self, db_class,
                                                          directory):
        assert crash_faculty(db_class, directory,
                             FaultyIO(CrashPoint.TORN_HISTORY, at=1))
        (torn,) = history_files(directory)
        with pytest.raises(CheckpointError, match="damaged history file"):
            read_history(os.path.join(directory, torn))
        manager = DurabilityManager(directory)
        assert manager.checkpoints.indices() == [2]  # never published
        assert [f.kind for f in audit_directory(directory).findings] == [
            "history"]
        _, report = manager.recover(db_class)
        assert report.checkpoints_skipped == 0
        assert report.checkpoint_index == 2
        manager.checkpoint()  # rewrites the torn file: same name, whole
        assert history_files(directory) == [torn]
        assert audit_directory(directory).clean

    @pytest.mark.parametrize("db_class", KINDS)
    def test_lost_history_file_leaves_ignored_tmp(self, db_class, directory):
        assert crash_faculty(db_class, directory,
                             FaultyIO(CrashPoint.LOST_HISTORY, at=1))
        assert history_files(directory) == []
        assert [name for name in os.listdir(directory)
                if name.endswith(".hist.tmp")]
        assert audit_directory(directory).clean
        _, report = DurabilityManager(directory).recover(db_class)
        assert report.checkpoint_index == 2

    @pytest.mark.parametrize("db_class", KINDS)
    @pytest.mark.parametrize("damage", ["deleted", "bit-flipped"])
    def test_damaged_history_file_disables_its_checkpoint(self, db_class,
                                                          damage, directory):
        assert not crash_faculty(db_class, directory,
                                 FaultyIO(CrashPoint.LOST_RECORD, at=99))
        (name,) = history_files(directory)
        path = os.path.join(directory, name)
        if damage == "deleted":
            os.remove(path)
        else:
            flip_byte(path, os.path.getsize(path) // 2)
        manager = DurabilityManager(directory)
        newest = max(manager.checkpoints.indices())
        assert detect_kind(directory) == db_class.kind.value  # head is fine
        with pytest.raises(CheckpointError):
            read_checkpoint(manager.checkpoints.path_for(newest))
        recovered, report = manager.recover(db_class)
        assert report.checkpoints_skipped == 1
        assert report.checkpoint_index == 2  # the one that names no file
        assert report.records_total == 7
        reference = self.reference(db_class)
        assert observations(recovered) == observations(reference)
        assert paper_answers(recovered) == paper_answers(reference)


class TestInjector:
    def test_passthrough_after_firing(self, directory):
        io = FaultyIO(CrashPoint.LOST_RECORD, at=1)
        assert crash_faculty(TemporalDatabase, directory, io)
        assert io.fired
        # The machine "came back up": the same injector now writes for real.
        manager = DurabilityManager(directory, io=io)
        database, _ = manager.recover(TemporalDatabase)
        drive_faculty(database, stop=3)
        assert manager.record_count == 3

    def test_at_must_be_positive(self):
        with pytest.raises(ValueError):
            FaultyIO(CrashPoint.TORN_RECORD, at=0)

    def test_counts_only_matching_writes(self, directory):
        # Checkpoint writes do not advance a record-crash countdown.
        io = FaultyIO(CrashPoint.TORN_RECORD, at=5)
        assert crash_faculty(TemporalDatabase, directory, io)
        _, report = DurabilityManager(directory).recover(TemporalDatabase)
        assert report.records_total == 4  # died on the fifth append


class TestTransportFaultMatrix:
    """The wire-fault matrix, alongside the disk-fault matrix above.

    Storage faults crash the process and are healed by recovery;
    transport faults (see :mod:`repro.replication.transport`) never
    crash anything — each kind surfaces as a typed *retryable* error so
    callers can wait out the repair.  Fencing and divergence are the two
    deliberate exceptions: retrying cannot fix a deposed primary or a
    corrupted replica.
    """

    def test_every_transport_fault_maps_to_a_retryable_error(self):
        from repro.errors import ReplicationError
        from repro.replication import (ALL_TRANSPORT_FAULTS, fault_error)

        for fault in ALL_TRANSPORT_FAULTS:
            error_class = fault_error(fault)
            error = error_class(f"injected {fault.value}")
            assert isinstance(error, ReplicationError)
            assert error.retryable is True

    def test_fault_matrix_is_exhaustive(self):
        from repro.replication import (ALL_TRANSPORT_FAULTS, FAULT_ERRORS,
                                       TransportFault)

        assert set(ALL_TRANSPORT_FAULTS) == set(TransportFault)
        assert set(FAULT_ERRORS) == set(TransportFault)

    def test_fencing_and_divergence_are_not_retryable(self):
        from repro.errors import DivergenceError, FencedError

        assert FencedError("deposed").retryable is False
        assert DivergenceError("corrupt").retryable is False

    def test_transport_faults_do_not_overlap_crash_points(self):
        # The two matrices are disjoint vocabularies: a wire fault is
        # never spelled like a disk crash point.
        from repro.replication import ALL_TRANSPORT_FAULTS

        wire = {fault.value for fault in ALL_TRANSPORT_FAULTS}
        disk = {point.value for point in ALL_CRASH_POINTS}
        assert not wire & disk
