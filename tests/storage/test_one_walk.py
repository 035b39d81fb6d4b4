"""One walk: recovery refuses exactly what the audit finds.

Recovery and the audit read a journal through the same segment walk
(:mod:`repro.storage.walk`), and the walk, ``Journal.scan`` and the 2PC
side logs classify lines with the same function
(:func:`repro.storage.framing.frame_lines`).  The agreement law, over
every single-byte flip of an open segment (xor 0x01 and 0x80), the
detect-and-repair matrix's journal injectors on the sealed layout, and
deleted sealed segments:

    ``recover()`` refuses — a typed error, every file byte-identical —
    exactly when the audit reports a finding in a journal segment other
    than a final ``torn`` or a ``gap`` wholly below the checkpoint
    recovery loads, or a ``chain-break`` filed under that checkpoint;
    otherwise, unless a gap was found, its ``records_total`` is the
    audit's ``verified_prefix``.

A byte that is not UTF-8 is torn only as an incomplete sequence at the
end of the last line, so a high-bit flip inside a complete final record
is refused, never truncated as a torn tail — in a segment and in the
decision log alike.
"""

import os

import pytest

from repro.core import StaticDatabase, TemporalDatabase
from repro.errors import ChainError, JournalError
from repro.sharding import ShardedDurabilityManager
from repro.storage import (CHAINED_TAG, GENESIS, CheckpointStore,
                           DurabilityManager, audit_directory, chain_entry,
                           dump_database, flip_byte, frame_record,
                           load_database, parse_journal_line)
from repro.storage.scrub import audit_sharded

from tests.sharding.test_two_phase import (pick_cross_shard_pair, seed_store,
                                           transfer)
from tests.storage.probes import assert_refused, drive_faculty, findings
from tests.storage.test_integrity_chaos import (INJECTORS, POSITIONS, build,
                                                data_segment, line_spans)

JOURNAL_INJECTORS = ("bit-flip", "truncation", "chain-field", "record-tamper")


def refused(finding, base):
    """Whether recovery from the checkpoint at *base* refuses *finding*
    (docs/DURABILITY.md, the refusal table)."""
    if finding.file.startswith("journal-"):
        start = int(finding.file[len("journal-"):-len(".seg")])
        return not (finding.kind == "torn" or finding.kind == "gap"
                    and finding.index < start <= base)
    return finding.kind == "chain-break" and finding.index == base


def assert_agree(directory, label=""):
    """The law, on *directory* as it is; returns the audit's report."""
    report = audit_directory(directory)
    loaded = CheckpointStore(directory).latest_loadable()
    base = loaded[0] if loaded is not None else 0
    if any(refused(finding, base) for finding in report.findings):
        assert_refused(directory)
    else:
        _, recovery = DurabilityManager(directory).recover(TemporalDatabase)
        if not any(finding.kind == "gap" for finding in report.findings):
            assert recovery.records_total == report.verified_prefix, label
    return report


class TestAgreementLaw:
    @pytest.mark.parametrize("xor", [0x01, 0x80], ids=["xor01", "xor80"])
    def test_every_flip_of_an_open_segment(self, tmp_path, xor):
        directory = str(tmp_path / "dur")
        build(directory, stop=4)
        path = data_segment(directory)
        pristine = open(path, "rb").read()
        for offset in range(len(pristine)):
            flipped = bytearray(pristine)
            flipped[offset] ^= xor
            with open(path, "wb") as handle:  # undoes any truncation too
                handle.write(flipped)
            assert not assert_agree(directory, f"flip at {offset}").clean

    @pytest.mark.parametrize("position", sorted(POSITIONS))
    @pytest.mark.parametrize("injector", JOURNAL_INJECTORS)
    def test_journal_injectors_on_the_sealed_layout(self, tmp_path, injector,
                                                    position):
        directory = str(tmp_path / "dur")
        build(directory, final_checkpoint=True)
        INJECTORS[injector](directory, POSITIONS[position])
        assert not assert_agree(directory).clean


def three_sealed(directory):
    """The faculty narrative checkpointed at 2, 4 and 7: segments 0, 2 and
    4 are sealed under the newest checkpoint, 7 is the empty live one."""
    manager = DurabilityManager(directory)
    database, _ = manager.recover(TemporalDatabase)
    for start, stop in ((0, 2), (2, 4), (4, None)):
        drive_faculty(database, start=start, stop=stop)
        manager.checkpoint()
    return manager, database


def segment(directory, start):
    return os.path.join(directory, f"journal-{start:08d}.seg")


def rechain_from_genesis(path):
    """Rewrite a segment's second record and re-chain it from GENESIS:
    every CRC and every link inside it stays consistent."""
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


class TestSealedSegmentsThatNoLongerFold:
    # A fold mismatch is never accepted: recovery raises the finding that
    # names it — the checkpoint's contradicted head, or a ``chain-tamper``
    # of its own when only a gap recovery steps over explains it.

    def test_a_rechained_prefix_is_the_break_the_audit_reports(self,
                                                               tmp_path):
        directory = str(tmp_path / "dur")
        build(directory, stop=4, final_checkpoint=True)
        rechain_from_genesis(data_segment(directory))
        assert findings(assert_agree(directory)) == [
            ("chain-break", "checkpoint-00000004.ckpt", None, 4)]
        assert assert_refused(directory, ChainError).kind == "break"

    # Only the oldest segments may be pruned.  A hole among the segments
    # a checkpoint folds is a gap recovery could step over, but the fold
    # no longer matches.
    @pytest.mark.parametrize("rechained", [False, True],
                             ids=["deleted", "deleted-and-rechained"])
    def test_a_hole_under_a_fold_is_refused(self, tmp_path, rechained):
        directory = str(tmp_path / "dur")
        three_sealed(directory)
        os.remove(segment(directory, 2))
        if rechained:
            rechain_from_genesis(segment(directory, 0))
        error = assert_refused(directory, ChainError)
        assert error.kind == "tamper"
        report = assert_agree(directory)
        assert ("gap", "journal-00000004.seg", None, 2) in findings(report)
        assert ("chain-tamper", "journal-00000000.seg", None, 0) in findings(
            report)

    def test_a_hole_under_no_fold_is_stepped_over(self, tmp_path):
        # Records missing wholly below a checkpoint that records no fold
        # (an adopted snapshot) are records it already holds.  The next
        # checkpoint folds the segments as they are, hole and all.
        directory = str(tmp_path / "dur")
        manager, database = three_sealed(directory)
        os.remove(segment(directory, 2))
        os.remove(segment(directory, 7))
        DurabilityManager(directory).adopt_snapshot(
            load_database(dump_database(database)), 7, manager.chain_head)
        assert findings(assert_agree(directory)) == [
            ("gap", "journal-00000004.seg", None, 2)]
        fresh = DurabilityManager(directory)
        recovered, report = fresh.recover(TemporalDatabase)
        assert report.records_total == 7
        recovered.manager.clock.source.set("06/01/85")
        recovered.insert("faculty", {"name": "New", "rank": "full"},
                         valid_from="06/01/85")
        fresh.checkpoint()
        assert findings(assert_agree(directory)) == [
            ("gap", "journal-00000004.seg", None, 2)]


class TestHighBitFlipIsNotATornTail:
    def test_in_the_last_record_of_a_segment(self, tmp_path):
        directory = str(tmp_path / "dur")
        build(directory, stop=4)
        path = data_segment(directory)
        start, end = line_spans(path)[3]
        flip_byte(path, (start + end) // 2, xor=0x80)
        assert [f.kind for f in audit_directory(directory).findings] == [
            "corrupt"]
        error = assert_refused(directory, JournalError)
        assert "line 4" in str(error) and "not a torn tail" in str(error)

    def test_in_a_commit_decision(self, tmp_path):
        directory = str(tmp_path / "sharded")
        _, store = seed_store(directory)
        transfer(store, *pick_cross_shard_pair(store))
        path = os.path.join(directory, "decisions.seg")
        lines = open(path, "rb").read().splitlines(keepends=True)
        assert b'"commit"' in lines[-1]  # the transfer's decision
        flip_byte(path, sum(map(len, lines[:-1])) + len(lines[-1]) // 2,
                  xor=0x80)
        (finding,) = audit_sharded(directory)["decision_log"]
        assert finding.kind == "sidelog"
        assert finding.detail.startswith("damaged 2PC record")
        assert_refused(directory, JournalError,
                       recover=lambda d: ShardedDurabilityManager(d).recover(
                           StaticDatabase))
