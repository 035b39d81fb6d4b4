"""At most two checkpoints: a new one retires all but the one before it.

A checkpoint is an optimization over the journal, so only the newest is
needed, and the one before it is kept to fall back on should the newest
turn out damaged.  Once a new checkpoint is published (renamed, then its
directory ``fsync``\\ ed), every ``checkpoint-*.ckpt`` older than the
previous one is unlinked (``StorageIO.retire``).  History files and
journal segments are never deleted.  A crash between the publish and the
unlink (``CrashPoint.UNRETIRED_CHECKPOINT``) leaves one checkpoint more,
each of them valid: restart and audit come back clean, and the next
checkpoint retires the extra one.
"""

import os

import pytest

from repro.core import RollbackDatabase, StaticDatabase, TemporalDatabase
from repro.storage import (CrashPoint, DurabilityManager, FaultyIO,
                           SimulatedCrash, audit_directory)
from repro.time import SimulatedClock

from tests.storage.probes import drive_faculty, faculty_steps, observations

KINDS = [StaticDatabase, RollbackDatabase, TemporalDatabase]


def files(directory, suffix):
    return sorted(name for name in os.listdir(directory)
                  if name.endswith(suffix))


def checkpoint_every_step(db_class, directory, io=None):
    """The faculty narrative, a checkpoint after every commit (twice after
    the fourth: the second republishes its index)."""
    manager = DurabilityManager(directory, io=io)
    database, _ = manager.recover(db_class)
    clock = database.manager.clock.source
    for index, (when, action) in enumerate(faculty_steps(database)):
        clock.set(when)
        action()
        manager.checkpoint()
        if index == 3:
            manager.checkpoint()
        assert len(files(directory, ".ckpt")) <= 2
    return manager


@pytest.mark.parametrize("db_class", KINDS)
def test_sixteen_checkpoints_leave_two(db_class, tmp_path):
    directory = str(tmp_path / "dur")
    manager = DurabilityManager(directory)
    database, _ = manager.recover(db_class)
    clock = database.manager.clock.source
    drive_faculty(database)
    segments = len(files(directory, ".seg"))
    for _ in range(16):
        clock.set(clock.current() + 1)
        database.define(f"r{len(database.relation_names())}",
                        database.schema("faculty"))
        manager.checkpoint()
    assert files(directory, ".ckpt") == [
        os.path.basename(manager.checkpoints.path_for(index))
        for index in manager.checkpoints.indices()[-2:]]
    assert len(manager.checkpoints.indices()) == 2
    # Nothing else goes: every segment the checkpoints rotated is there.
    assert len(files(directory, ".seg")) == segments + 16
    assert audit_directory(directory).clean
    recovered, report = DurabilityManager(directory).recover(db_class)
    assert report.checkpoint_index == manager.checkpoints.indices()[-1]
    assert observations(recovered) == observations(database)


@pytest.mark.parametrize("db_class", KINDS)
def test_history_files_are_never_retired(db_class, tmp_path):
    directory = str(tmp_path / "dur")
    manager = checkpoint_every_step(db_class, directory)
    names = files(directory, ".hist")
    assert bool(names) == db_class.kind.supports_rollback
    for name in names:  # each still named by a checkpoint on disk
        assert any(name in open(os.path.join(directory, ckpt),
                                encoding="utf-8").read()
                   for ckpt in files(directory, ".ckpt"))
    assert audit_directory(directory).clean
    recovered, _ = DurabilityManager(directory).recover(db_class)
    assert observations(recovered) == observations(manager.database)


@pytest.mark.parametrize("db_class", KINDS)
def test_a_crash_before_the_unlink_leaves_three_valid_files(db_class,
                                                            tmp_path):
    """Died after the third checkpoint's publish, before the first one was
    unlinked: three checkpoints, each valid; restart and audit are clean,
    and the next checkpoint retires the two it does not need."""
    directory = str(tmp_path / "dur")
    with pytest.raises(SimulatedCrash):
        checkpoint_every_step(db_class, directory, io=FaultyIO(
            CrashPoint.UNRETIRED_CHECKPOINT, at=3))
    assert len(files(directory, ".ckpt")) == 3
    audit = audit_directory(directory)
    assert audit.clean and audit.checkpoints_audited == 3
    manager = DurabilityManager(directory)
    database, report = manager.recover(db_class)
    assert report.checkpoint_index == max(manager.checkpoints.indices())
    assert report.checkpoints_skipped == 0
    drive_faculty(database, start=report.records_total)
    manager.checkpoint()
    assert len(files(directory, ".ckpt")) == 2
    assert audit_directory(directory).clean
    reference = db_class(clock=SimulatedClock(1))
    drive_faculty(reference)
    assert observations(database) == observations(reference)
