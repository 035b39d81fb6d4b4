"""Corruption chaos: every injector, every position, detect → repair.

Two harnesses drive the integrity machinery the way an adversary (or a
failing disk) would:

- the **exhaustive flip sweep** XORs one byte at *every offset* of a
  journal segment, one at a time, and requires the audit to classify
  each flip — no offset may produce a clean report, and no mid-file
  record may silently vanish.  It runs twice: over a segment still
  open, and over one sealed behind a checkpoint, whose fold verifies it
  unflipped — there the findings must equal a record-by-record walk's
  and recovery must refuse every flip;
- the **detect-and-repair matrix** crosses every at-rest injector
  (bit-flip, mid-file truncation, chain-field tamper, CRC-valid record
  tamper, checkpoint tamper, history-file flip, history-file deletion)
  with every segment position (first, middle, last record) and requires each damaged directory to converge back to
  a digest-equal copy of its healthy peer with zero lost durable
  commits.

This file is the ``integrity-suite`` CI step's core workload.
"""

import os

import pytest

from repro.core import TemporalDatabase
from repro.errors import ChainError, JournalError
from repro.replication import state_digest
from repro.storage import (CheckpointStore, DurabilityManager, Scrubber,
                           audit_directory, flip_byte, tamper_chain_field,
                           tamper_record, truncate_file)
from repro.storage.scrub import DirectorySource

from tests.storage.probes import (drive_faculty, findings, observations,
                                  unsealed_twin)

#: The full damage taxonomy (docs/INTEGRITY.md).
TAXONOMY = {"torn", "corrupt", "chain-break", "chain-tamper", "gap",
            "checkpoint", "history", "history-missing", "manifest",
            "sidelog"}


def build(directory, stop=None, final_checkpoint=False):
    manager = DurabilityManager(directory)
    database, _ = manager.recover(TemporalDatabase)
    drive_faculty(database, stop=stop)
    if final_checkpoint:
        manager.checkpoint()
    return manager, database


def data_segment(directory):
    """The first (record-bearing) segment of *directory*."""
    return DurabilityManager(directory).segments()[0][1]


def line_spans(path):
    """``(start_offset, end_offset)`` of every line in *path*."""
    spans = []
    offset = 0
    with open(path, "rb") as handle:
        for line in handle.read().splitlines(keepends=True):
            spans.append((offset, offset + len(line)))
            offset += len(line)
    return spans


def flip_sweep(directory, check=lambda offset, report: None):
    """Flip every byte of *directory*'s data segment in turn; each flip
    must surface as a classified finding (and pass *check*)."""
    path = data_segment(directory)
    size = os.path.getsize(path)
    assert size > 0
    missed = []
    misclassified = []
    for offset in range(size):
        flip_byte(path, offset)
        report = audit_directory(directory)
        if report.clean:
            missed.append(offset)
        else:
            bad = [f.kind for f in report.findings
                   if f.kind not in TAXONOMY]
            if bad:
                misclassified.append((offset, bad))
        check(offset, report)
        flip_byte(path, offset)  # restore
    assert missed == [], (f"{len(missed)} of {size} byte flips were "
                          f"not detected: offsets {missed[:10]}...")
    assert misclassified == []
    # The restores were exact: the segment audits clean again.
    assert audit_directory(directory).clean


class TestExhaustiveFlipSweep:
    def test_every_single_byte_flip_is_detected_and_classified(
            self, tmp_path):
        # Satellite: the property sweep.  One small segment, one flip
        # per offset, every flip must surface as a classified finding.
        directory = str(tmp_path / "dur")
        build(directory, stop=4)
        flip_sweep(directory)

    def test_every_flip_in_a_sealed_segment_is_found_as_by_the_walk(
            self, tmp_path):
        # The same sweep over a segment a checkpoint sealed (verified by
        # its fold): every flip is found, with the findings of the same
        # bytes under a checkpoint that records no fold, which walks
        # them — and recovery refuses every one.
        directory = str(tmp_path / "dur")
        build(directory, stop=4, final_checkpoint=True)
        twin = unsealed_twin(directory, str(tmp_path / "twin"))
        twin_path = data_segment(twin)

        def same_as_walked(offset, report):
            flip_byte(twin_path, offset)
            assert findings(report) == findings(audit_directory(twin)), \
                f"flip at {offset}"
            flip_byte(twin_path, offset)
            with pytest.raises((JournalError, ChainError)):
                DurabilityManager(directory).recover(TemporalDatabase)

        flip_sweep(directory, same_as_walked)

    def test_no_mid_file_flip_silently_drops_a_record(self, tmp_path):
        # A flip inside record k must never yield an audit that claims
        # a fully-verified shorter history: the verified prefix stops at
        # or before k, and the damage is pinned to a finding.
        directory = str(tmp_path / "dur")
        build(directory, stop=4)
        path = data_segment(directory)
        for index, (start, end) in enumerate(line_spans(path)):
            offset = (start + end) // 2
            flip_byte(path, offset)
            report = audit_directory(directory)
            assert not report.clean
            assert report.verified_prefix <= index
            assert any(f.index is None or f.index <= index
                       for f in report.findings)
            flip_byte(path, offset)


def inject_bit_flip(directory, line_number):
    path = data_segment(directory)
    start, end = line_spans(path)[line_number - 1]
    flip_byte(path, (start + end) // 2)


def inject_truncation(directory, line_number):
    path = data_segment(directory)
    start, end = line_spans(path)[line_number - 1]
    truncate_file(path, (start + end) // 2)


def inject_chain_field(directory, line_number):
    tamper_chain_field(data_segment(directory), line_number)


def inject_record_tamper(directory, line_number):
    tamper_record(data_segment(directory), line_number)


def inject_checkpoint_tamper(directory, line_number):
    store = CheckpointStore(directory)
    flip_byte(store.path_for(store.indices()[-1]), 40 + line_number)


def history_file(directory):
    """The (one) sealed history file of *directory*."""
    (name,) = CheckpointStore(directory).history_files()
    return os.path.join(directory, name)


def inject_history_flip(directory, line_number):
    flip_byte(history_file(directory), 40 + line_number)


def inject_history_delete(directory, line_number):
    os.remove(history_file(directory))


INJECTORS = {
    "bit-flip": inject_bit_flip,
    "truncation": inject_truncation,
    "chain-field": inject_chain_field,
    "record-tamper": inject_record_tamper,
    "checkpoint-tamper": inject_checkpoint_tamper,
    "history-flip": inject_history_flip,
    "history-delete": inject_history_delete,
}

#: first / middle / last record of the 7-record faculty segment.
POSITIONS = {"first": 1, "middle": 4, "last": 7}


class TestDetectAndRepairMatrix:
    @pytest.mark.parametrize("position", sorted(POSITIONS))
    @pytest.mark.parametrize("injector", sorted(INJECTORS))
    def test_damage_is_detected_classified_and_repaired(
            self, tmp_path, injector, position):
        damaged_dir = str(tmp_path / "damaged")
        healthy_dir = str(tmp_path / "healthy")
        # A final checkpoint pins the full history, so even tail
        # truncation is detectable offline (and the checkpoint-tamper
        # injector has a checkpoint to damage).
        build(damaged_dir, final_checkpoint=True)
        _, healthy = build(healthy_dir, final_checkpoint=True)
        INJECTORS[injector](damaged_dir, POSITIONS[position])

        # Detect + classify: never clean, never outside the taxonomy.
        report = audit_directory(damaged_dir)
        assert not report.clean, f"{injector}@{position} went undetected"
        assert all(f.kind in TAXONOMY for f in report.findings)

        # Repair: converge with the healthy peer.
        repair = Scrubber(damaged_dir).repair(
            DirectorySource(healthy_dir, TemporalDatabase),
            TemporalDatabase)
        assert repair.digest_match is True
        assert repair.records_total == 7

        # Zero lost durable commits: the repaired directory recovers
        # cleanly to the same answers as the never-damaged peer.
        assert audit_directory(damaged_dir).clean
        recovered, recovery = DurabilityManager(damaged_dir).recover(
            TemporalDatabase)
        assert recovery.records_total == 7
        assert observations(recovered) == observations(healthy)
        assert state_digest(recovered) == state_digest(healthy)

    def test_crc_valid_tamper_is_invisible_to_frames_alone(self, tmp_path):
        # The headline acceptance case, stated as its own test: the
        # tampered record still frame-verifies; only the chain sees it.
        from repro.storage import Journal
        directory = str(tmp_path / "dur")
        build(directory)
        path = data_segment(directory)
        tamper_record(path, 4)
        assert len(Journal(path).read()) == 7  # frames all pass
        report = audit_directory(directory)
        assert [f.kind for f in report.findings] == ["chain-tamper"]
