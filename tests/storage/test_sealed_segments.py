"""Sealed journal segments: a restart and an audit walk only the tail.

A journal segment that rotated behind a checkpoint never changes again —
transaction time is append-only, and a completed transaction's stamped
past "may not be altered" (§4.2, §4.4).  So a checkpoint records one
SHA-256 folded over the segments below its index, and recovery and audit
verify those by that one hash instead of re-hashing every record
(docs/INTEGRITY.md, "Sealed segments").

The fold changes what recovery and audit *cost*, never what they
*find*: every damage a record-by-record walk catches is still caught,
with the same findings, and segments that do not fold to the recorded
value are never accepted.  The reference for "the same findings" is the
same bytes audited under checkpoints that record no fold
(``probes.unsealed_twin``), which walks every record as the audit
always did.
"""

import json
import os

import pytest

from repro.core import TemporalDatabase
from repro.errors import ChainError
from repro.storage import (CHAINED_TAG, CHECKPOINT_TAG, GENESIS,
                           DurabilityManager, audit_directory, chain_entry,
                           flip_byte, frame, frame_record, parse_journal_line,
                           read_checkpoint_head, tamper_record)
from repro.storage import chain as chain_module
from repro.time import SimulatedClock

from tests.conftest import faculty_schema
from tests.storage.probes import (assert_refused, drive_faculty, findings,
                                  observations, unsealed_twin)

SEALED = "journal-00000000.seg"


@pytest.fixture
def directory(tmp_path):
    return str(tmp_path / "dur")


def build(directory, checkpoint_at=4):
    """The faculty narrative, checkpointed after *checkpoint_at* of its
    seven commits: journal-00000000.seg is sealed, the rest is the tail."""
    manager = DurabilityManager(directory)
    database, _ = manager.recover(TemporalDatabase)
    drive_faculty(database, stop=checkpoint_at)
    manager.checkpoint()
    drive_faculty(database, start=checkpoint_at)
    return manager, database


def reference():
    database = TemporalDatabase(clock=SimulatedClock(1))
    drive_faculty(database)
    return database


def rewrite_line(path, line_number, rewrite):
    """Replace one line of a segment with ``rewrite(entry)``."""
    lines = open(path, "rb").read().split(b"\n")
    entry = parse_journal_line(lines[line_number - 1].decode("utf-8"))
    lines[line_number - 1] = rewrite(entry).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(b"\n".join(lines))


def reformatted(entry):
    """The same record — same content hash, same chain fields — framed
    with other JSON separators (the journal writes compact ones): other
    bytes that walk clean."""
    return frame(json.dumps(entry, sort_keys=True, separators=(", ", ": ")),
                 tag=CHAINED_TAG)


def assert_found_as_unsealed(directory, tmp_path):
    """The audit's findings equal those of the same bytes with no fold."""
    report = audit_directory(directory)
    twin = audit_directory(unsealed_twin(directory, str(tmp_path / "twin")))
    assert not report.clean
    assert findings(report) == findings(twin)
    return report


class CountingContentHash:
    """Counts ``chain.content_hash`` calls (the per-record re-hash)."""

    def __init__(self, monkeypatch):
        self.calls = 0
        real = chain_module.content_hash

        def counted(entry):
            self.calls += 1
            return real(entry)

        monkeypatch.setattr(chain_module, "content_hash", counted)


# ---------------------------------------------------------------------------
# What a restart costs (docs/PERFORMANCE.md): records below the checkpoint
# are vouched for by the fold and never re-hashed.
# ---------------------------------------------------------------------------

KEYS = 16
TAIL = 8


def churn(database, commits):
    clock = database.manager.clock.source
    for step in range(commits):
        clock.set(clock.current() + 1)
        database.replace("faculty", {"name": f"n{step % KEYS:02d}"},
                         {"rank": ("assistant", "associate")[step % 2]},
                         valid_from="01/01/80")


def deep_directory(directory, history):
    """K keys, *history* commits, a checkpoint, then TAIL more commits."""
    manager = DurabilityManager(directory)
    database, _ = manager.recover(TemporalDatabase)
    database.manager.clock.source.set("01/01/81")
    database.define("faculty", faculty_schema())
    for key in range(KEYS):
        database.insert("faculty", {"name": f"n{key:02d}", "rank": "full"},
                        valid_from="01/01/80")
    churn(database, history)
    manager.checkpoint()
    churn(database, TAIL)
    return database


class TestRestartCost:
    def test_clean_recovery_rehashes_only_the_tail(self, tmp_path,
                                                   monkeypatch):
        calls = []
        for history in (64, 2048):
            directory = str(tmp_path / f"t{history}")
            live = deep_directory(directory, history)
            counter = CountingContentHash(monkeypatch)
            recovered, report = DurabilityManager(directory).recover(
                TemporalDatabase)
            monkeypatch.undo()
            assert report.records_replayed == TAIL
            assert counter.calls == report.records_replayed
            # Vouched-for records count as verified.
            assert report.chain_verified == report.records_total
            assert observations(recovered) == observations(live)
            calls.append(counter.calls)
        assert calls[0] == calls[1]

    def test_clean_audit_rehashes_only_unsealed_records(self, directory,
                                                        monkeypatch):
        deep_directory(directory, 256)
        counter = CountingContentHash(monkeypatch)
        report = audit_directory(directory)
        assert report.clean
        assert counter.calls == TAIL
        assert report.chain_verified == report.records_total

    def test_the_fold_is_one_constant_size_value(self, directory):
        manager, _ = build(directory)
        manager.checkpoint()  # a second one, over two sealed segments
        for index in manager.checkpoints.indices():
            fold = read_checkpoint_head(
                manager.checkpoints.path_for(index))["sealed_journal"]
            assert len(fold) == 64 and int(fold, 16) >= 0


# ---------------------------------------------------------------------------
# Tampering with a sealed segment: refused by recovery, found by audit
# exactly as the record-by-record walk finds it.
# ---------------------------------------------------------------------------

class TestSealedTamper:
    @pytest.mark.parametrize("line_number", [1, 2, 4])
    def test_flipped_byte(self, directory, tmp_path, line_number):
        build(directory)
        path = os.path.join(directory, SEALED)
        lines = open(path, "rb").read().split(b"\n")
        offset = sum(len(line) + 1 for line in lines[:line_number - 1])
        flip_byte(path, offset + len(lines[line_number - 1]) // 2)
        assert_refused(directory)
        report = assert_found_as_unsealed(directory, tmp_path)
        assert report.findings[0].file == SEALED

    def test_forged_prefix(self, directory, tmp_path):
        # Re-chained from genesis: every CRC and every link inside the
        # segment is consistent; only the checkpointed head pins history.
        build(directory)
        path = os.path.join(directory, SEALED)
        entries = [parse_journal_line(line) for line in
                   open(path).read().splitlines()]
        entries[1]["sequence"] += 500
        prev, lines = GENESIS, []
        for entry in entries:
            entry.pop("chain")
            chained = chain_entry(entry, prev)
            prev = chained["chain"]["commit"]
            lines.append(frame_record(chained, tag=CHAINED_TAG))
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        assert_refused(directory, ChainError)
        report = assert_found_as_unsealed(directory, tmp_path)
        assert any(f.kind == "chain-break" and "checkpoint" in f.detail
                   for f in report.findings)

    def test_bytes_that_walk_clean_are_still_refused(self, directory,
                                                     tmp_path):
        # The one rewrite a record walk cannot see: the same record in
        # other bytes.  The fold is the only witness, so this is the one
        # case whose findings differ from the unsealed twin's (clean).
        build(directory)
        rewrite_line(os.path.join(directory, SEALED), 2, reformatted)
        error = assert_refused(directory, ChainError)
        assert error.kind == "tamper" and SEALED in str(error)
        report = audit_directory(directory)
        assert findings(report) == [("chain-tamper", SEALED, None, 0)]
        assert report.verified_prefix == 0
        assert audit_directory(
            unsealed_twin(directory, str(tmp_path / "twin"))).clean

    @pytest.mark.parametrize("rewrite", [
        lambda path: tamper_record(path, 2),
        lambda path: rewrite_line(path, 2, reformatted),
    ], ids=["record-tamper", "same-record-other-bytes"])
    def test_rewrite_between_append_and_checkpoint_is_refused(
            self, directory, rewrite):
        # The fold is a running hash of what was appended: a rewrite
        # before the checkpoint is not sealed into it.  (A fold of the
        # bytes re-read at checkpoint time would vouch for the rewrite.)
        manager = DurabilityManager(directory)
        database, _ = manager.recover(TemporalDatabase)
        drive_faculty(database, stop=4)
        rewrite(os.path.join(directory, SEALED))
        manager.checkpoint()
        drive_faculty(database, start=4)
        assert_refused(directory, ChainError)
        assert not audit_directory(directory).clean

    def test_rewritten_older_checkpoint_head_is_a_chain_break(
            self, directory, tmp_path):
        manager, _ = build(directory, checkpoint_at=3)
        manager.checkpoint()  # the newest one vouches for both segments
        older = manager.checkpoints.path_for(3)
        head = read_checkpoint_head(older)
        head["chain_head"] = "f" * 64
        with open(older, "w") as handle:
            handle.write(frame_record(head, tag=CHECKPOINT_TAG) + "\n")
        report = assert_found_as_unsealed(directory, tmp_path)
        assert findings(report) == [
            ("chain-break", "checkpoint-00000003.ckpt", None, 3)]


# ---------------------------------------------------------------------------
# No fold applies: recovery and audit walk the segments, as before.
# ---------------------------------------------------------------------------

class TestNoFoldApplies:
    def test_pruned_prefix(self, directory):
        manager, _ = build(directory)
        os.remove(os.path.join(directory, SEALED))
        recovered, report = DurabilityManager(directory).recover(
            TemporalDatabase)
        assert report.checkpoint_index == 4 and report.records_total == 7
        assert observations(recovered) == observations(reference())
        assert audit_directory(directory).clean

    def test_adopted_snapshot_then_the_next_recovery_folds(
            self, directory, monkeypatch):
        from repro.storage import dump_database, load_database
        manager, database = build(directory)
        snapshot = load_database(dump_database(database))
        path = manager.adopt_snapshot(snapshot, manager.record_count,
                                      manager.chain_head)
        assert "sealed_journal" not in read_checkpoint_head(path)
        # Walked, as before: no fold to vouch for the segments below.
        fresh = DurabilityManager(directory)
        recovered, report = fresh.recover(TemporalDatabase)
        assert report.records_total == 7
        assert observations(recovered) == observations(reference())
        # That recovery verified every segment, so its checkpoint folds.
        recovered.manager.clock.source.set("06/01/85")
        recovered.insert("faculty", {"name": "New", "rank": "full"},
                         valid_from="06/01/85")
        assert "sealed_journal" in read_checkpoint_head(fresh.checkpoint())
        recovered.manager.clock.source.set("07/01/85")
        recovered.delete("faculty", {"name": "New"}, valid_from="07/01/85")
        counter = CountingContentHash(monkeypatch)
        again, report = DurabilityManager(directory).recover(
            TemporalDatabase)
        assert counter.calls == report.records_replayed == 1
        assert audit_directory(directory).clean

    def test_crash_before_rotation_never_grows_a_sealed_segment(
            self, directory):
        # The checkpoint at 4 was published but its rotated segment never
        # created: recovery starts it, so journal-00000000.seg stays the
        # bytes the checkpoint folded.
        manager = DurabilityManager(directory)
        database, _ = manager.recover(TemporalDatabase)
        drive_faculty(database, stop=4)
        manager.checkpoint()
        os.remove(os.path.join(directory, "journal-00000004.seg"))
        sealed = open(os.path.join(directory, SEALED), "rb").read()
        fresh = DurabilityManager(directory)
        recovered, _ = fresh.recover(TemporalDatabase)
        drive_faculty(recovered, start=4)
        assert open(os.path.join(directory, SEALED), "rb").read() == sealed
        assert [start for start, _ in fresh.segments()] == [0, 4]
        fresh.checkpoint()
        # Falling back to the older checkpoint still vouches for its fold.
        with open(fresh.checkpoints.path_for(7), "wb") as handle:
            handle.write(b"c1 3 00000000 junk\n")
        again, report = DurabilityManager(directory).recover(
            TemporalDatabase)
        assert report.checkpoint_index == 4 and report.records_total == 7
        assert observations(again) == observations(reference())
