"""Scrubber tests: audit classification, quarantine, and repair.

The scrubber's contract (docs/INTEGRITY.md): every kind of at-rest
damage is *detected* and *classified* — never silently replayed — and a
damaged directory with a healthy peer converges back to a digest-equal
copy with zero lost durable commits.
"""

import json
import os
import re

import pytest

from repro import obs
from repro.core import StaticDatabase, TemporalDatabase
from repro.errors import ChainError, CheckpointError, JournalError
from repro.relational import Domain, Schema
from repro.storage import (CHAINED_TAG, CHECKPOINT_TAG, GENESIS,
                           CheckpointStore, DurabilityManager, Journal,
                           Scrubber, audit_directory, chain_entry, flip_byte,
                           frame_record, parse_frame, parse_journal_line,
                           read_checkpoint, read_checkpoint_head,
                           tamper_chain_field, tamper_record, truncate_file)
from repro.storage.scrub import (DirectorySource, audit_sharded,
                                 combined_root)

from tests.storage.probes import drive_faculty, observations


@pytest.fixture
def directory(tmp_path):
    return str(tmp_path / "dur")


@pytest.fixture
def source_dir(tmp_path):
    return str(tmp_path / "healthy")


def build(directory, checkpoint_at=None, kind=TemporalDatabase):
    """A durable faculty database; optionally checkpoint mid-history."""
    manager = DurabilityManager(directory)
    database, _ = manager.recover(kind)
    if checkpoint_at is None:
        drive_faculty(database)
    else:
        drive_faculty(database, stop=checkpoint_at)
        manager.checkpoint()
        drive_faculty(database, start=checkpoint_at)
    return manager, database


def segment_paths(directory):
    return [path for _, path in DurabilityManager(directory).segments()]


def rewrite_segment(path, rebuild):
    """Parse a segment's entries (chain stripped) and rewrite its lines."""
    entries = []
    for line in open(path):
        entry = parse_journal_line(line.rstrip("\n"))
        entry.pop("chain", None)
        entries.append(entry)
    with open(path, "w") as handle:
        for line in rebuild(entries):
            handle.write(line + "\n")


class TestAuditClassification:
    def test_clean_directory_audits_clean(self, directory):
        build(directory)
        report = audit_directory(directory)
        assert report.clean
        assert report.records_total == 7
        assert report.chain_verified == 7
        assert report.verified_prefix == 7
        assert report.chain_head is not None

    def test_audit_emits_events_and_metrics(self, directory):
        build(directory)
        with obs.recording() as instrumentation:
            audit_directory(directory)
        counters = instrumentation.metrics.snapshot()["counters"]
        assert counters["scrub.audits"] == 1
        kinds = instrumentation.events.aggregate()
        assert kinds["integrity.audit"] == 1

    def test_torn_final_record_is_benign_torn(self, directory):
        build(directory)
        path = segment_paths(directory)[-1]
        line = frame_record(chain_entry({"sequence": 99, "operations": []},
                                        GENESIS), tag=CHAINED_TAG)
        with open(path, "a") as handle:
            handle.write(line[:len(line) // 2])  # crashed mid-append
        report = audit_directory(directory)
        assert [f.kind for f in report.findings] == ["torn"]
        # The torn tail does not damage the verified prefix's records.
        assert report.chain_verified == 7

    def test_flipped_byte_is_corrupt(self, directory):
        build(directory)
        path = segment_paths(directory)[0]
        flip_byte(path, os.path.getsize(path) // 2)
        report = audit_directory(directory)
        assert any(f.kind == "corrupt" for f in report.findings)
        assert report.verified_prefix < 7

    def test_crc_valid_tamper_is_caught_by_the_chain_alone(self, directory):
        # The acceptance case: the frame is perfectly valid (length and
        # CRC recomputed), so checksum verification passes — only the
        # chain knows the record is not the one that committed.
        build(directory)
        path = segment_paths(directory)[0]
        tamper_record(path, 4)
        assert len(Journal(path).read()) == 7  # CRC sees nothing wrong
        report = audit_directory(directory)
        assert [f.kind for f in report.findings] == ["chain-tamper"]
        assert report.findings[0].line_number == 4
        assert report.verified_prefix == 3

    def test_edited_chain_field_is_classified(self, directory):
        build(directory)
        path = segment_paths(directory)[0]
        tamper_chain_field(path, 3, field="prev")
        report = audit_directory(directory)
        assert report.findings
        assert all(f.kind.startswith("chain-") for f in report.findings)

    def test_mid_file_truncation_is_not_mistaken_for_a_crash(
            self, directory):
        # Truncate an *inner* segment: its torn tail looks like crash
        # residue byte-wise, but no crash tears a mid-history file.
        build(directory, checkpoint_at=4)
        first = segment_paths(directory)[0]
        truncate_file(first, os.path.getsize(first) - 30)
        report = audit_directory(directory)
        assert any(f.kind == "corrupt" and "mid-file" in f.detail
                   for f in report.findings)
        assert not report.clean

    def test_tail_truncation_is_exposed_by_the_checkpoint(self, directory):
        # Cut whole records off the end of the journal: framing alone
        # reads a clean-but-shorter history, but the checkpoint already
        # incorporates more records than the journal now holds.
        manager, database = build(directory)
        manager.checkpoint()  # covers 7 records; rotates an empty tail
        data_segment, empty_tail = segment_paths(directory)
        os.unlink(empty_tail)
        lines = open(data_segment, "rb").read().splitlines(keepends=True)
        with open(data_segment, "wb") as handle:
            handle.writelines(lines[:-2])
        report = audit_directory(directory)
        assert any(f.kind == "gap" and "truncated" in f.detail
                   for f in report.findings)

    def test_tampered_checkpoint_is_classified(self, directory):
        build(directory, checkpoint_at=4)
        store = CheckpointStore(directory)
        index = store.indices()[-1]
        flip_byte(store.path_for(index), 40)
        report = audit_directory(directory)
        assert any(f.kind == "checkpoint" for f in report.findings)

    def test_damaged_history_file_and_its_dependents_are_classified(
            self, directory):
        # Two checkpoints stand on the first history file, one of them
        # on a second file too; damage to the first is one `history`
        # finding plus a `manifest` finding per dependent checkpoint.
        manager, database = build(directory, checkpoint_at=5)
        manager.checkpoint()
        first, second = manager.checkpoints.history_files()
        flip_byte(os.path.join(directory, first), 60)
        report = audit_directory(directory)
        assert report.history_files_audited == 2
        assert sorted((f.kind, f.file) for f in report.findings) == [
            ("history", first),
            ("manifest", "checkpoint-00000005.ckpt"),
            ("manifest", "checkpoint-00000007.ckpt")]

    def test_missing_history_file_is_classified(self, directory):
        manager, _ = build(directory, checkpoint_at=5)
        (name,) = manager.checkpoints.history_files()
        os.remove(os.path.join(directory, name))
        report = audit_directory(directory)
        assert [(f.kind, f.file, f.index) for f in report.findings] == [
            ("history-missing", "checkpoint-00000005.ckpt", 5)]
        assert name in report.findings[0].detail

    def test_substituted_history_file_is_a_manifest_mismatch(
            self, directory, source_dir):
        # A history file that is perfectly valid on its own — frame and
        # content hash — but is not the one the manifest was written
        # against: only the manifest's sha256 can tell.
        manager, _ = build(directory, checkpoint_at=5)
        other, _ = build(source_dir, checkpoint_at=4)
        (name,) = manager.checkpoints.history_files()
        (substitute,) = other.checkpoints.history_files()
        assert substitute != name
        os.remove(os.path.join(directory, name))
        os.replace(os.path.join(source_dir, substitute),
                   os.path.join(directory, substitute))
        head = read_checkpoint_head(manager.checkpoints.path_for(5))
        head["history"][0][0] = substitute  # re-point, keep the old hash
        with open(manager.checkpoints.path_for(5), "w") as handle:
            handle.write(frame_record(head, tag=CHECKPOINT_TAG) + "\n")
        report = audit_directory(directory)
        assert [(f.kind, f.file) for f in report.findings] == [
            ("manifest", "checkpoint-00000005.ckpt")]
        assert "sha256" in report.findings[0].detail
        with pytest.raises(CheckpointError, match="sha256"):
            read_checkpoint(manager.checkpoints.path_for(5))

    def test_orphan_history_file_is_audited_but_not_damage(self, directory):
        manager, _ = build(directory, checkpoint_at=5)
        os.remove(manager.checkpoints.path_for(5))
        report = audit_directory(directory)
        assert report.clean and report.history_files_audited == 1

    def test_rewritten_prefix_contradicts_the_checkpointed_head(
            self, directory):
        # Rewrite history *before* a checkpoint while keeping every CRC
        # and every chain link locally consistent (re-chained from
        # genesis).  Only the checkpointed head still pins the original
        # history.
        build(directory, checkpoint_at=4)
        path = segment_paths(directory)[0]

        def forge(entries):
            entries[1]["sequence"] = entries[1].get("sequence", 0) + 500
            prev = GENESIS
            for entry in entries:
                chained = chain_entry(entry, prev)
                prev = chained["chain"]["commit"]
                yield frame_record(chained, tag=CHAINED_TAG)

        rewrite_segment(path, lambda entries: list(forge(entries)))
        report = audit_directory(directory)
        assert any(f.kind == "chain-break" and "checkpoint" in f.detail
                   for f in report.findings)

    def test_damaged_sidelog_is_classified(self, directory):
        build(directory)
        side = os.path.join(directory, "2pc.seg")
        with open(side, "w") as handle:
            handle.write(frame_record({"kind": "prepare", "gid": "g1",
                                       "base": 0, "operations": []}) + "\n")
        flip_byte(side, 20)
        report = audit_directory(directory)
        assert any(f.kind == "sidelog" for f in report.findings)
        assert report.sidelogs_audited == 1


def downgrade_to_bare_json(entry):
    entry.pop("chain")
    return json.dumps(entry, sort_keys=True)


def downgrade_to_crc_only(entry):
    entry.pop("chain")
    return frame_record(entry)  # an ``r1`` frame, CRC recomputed


def downgrade_chain_dropped(entry):
    entry.pop("chain")
    return frame_record(entry, tag=CHAINED_TAG)


class TestDowngrade:
    """A record taken *out* of the chain is damage, never "legacy".

    The attack: rewrite one record's payload and re-emit it in a form
    that carries no chain fields — a bare-JSON line, a CRC-only ``r1``
    frame, or an ``r2`` frame with the ``chain`` key dropped — so a
    verifier that tolerated unchained generations would forget its head,
    re-anchor on the next record, and replay the forgery.
    """

    def salary_history(self, directory):
        """Five records: define, insert, then salary 200 / 300 / 400."""
        manager = DurabilityManager(directory)
        database, _ = manager.recover(TemporalDatabase)
        database.manager.clock.source.set("01/01/80")
        database.define("faculty", Schema.of(
            key=["name"], name=Domain.STRING, salary=Domain.INTEGER))
        database.insert("faculty", {"name": "Merrie", "salary": 100},
                        valid_from="01/01/80")
        for salary in (200, 300, 400):
            database.replace("faculty", {"name": "Merrie"},
                             {"salary": salary}, valid_from="01/01/80")
        assert manager.record_count == 5
        return segment_paths(directory)[0]

    @pytest.mark.parametrize("line_number", [1, 3, 5],
                             ids=["first", "middle", "last"])
    @pytest.mark.parametrize("downgrade", [
        downgrade_to_bare_json, downgrade_to_crc_only,
        downgrade_chain_dropped], ids=lambda f: f.__name__)
    def test_rewrite_is_detected_and_refused(self, directory, downgrade,
                                             line_number):
        path = self.salary_history(directory)
        lines = open(path).read().splitlines()
        entry = parse_frame(lines[line_number - 1], tag=CHAINED_TAG)
        entry["sequence"] += 1_000_000
        for operation in entry["operations"]:
            if "updates" in operation["arguments"]:
                operation["arguments"]["updates"]["salary"] = 999999
        lines[line_number - 1] = downgrade(entry)
        tampered = "\n".join(lines) + "\n"
        with open(path, "w") as handle:
            handle.write(tampered)

        report = audit_directory(directory)
        assert [f.kind for f in report.findings if f.index ==
                line_number - 1] in (["corrupt"], ["chain-tamper"])
        assert report.verified_prefix == line_number - 1
        assert report.chain_head is None
        with pytest.raises((JournalError, ChainError)):
            DurabilityManager(directory).recover(TemporalDatabase)
        # Refused, not "repaired": recovery truncated nothing.
        assert open(path).read() == tampered


class TestQuarantineAndRepair:
    def damage_and_repair(self, directory, source_dir, damage):
        """Build two identical directories, damage one, repair it."""
        build(directory)
        src_manager, src_database = build(source_dir)
        damage(directory)
        report = Scrubber(directory).repair(
            DirectorySource(source_dir, TemporalDatabase), TemporalDatabase)
        return report, src_database

    def test_quarantine_moves_never_deletes(self, directory):
        build(directory)
        path = segment_paths(directory)[0]
        tamper_record(path, 4)
        scrubber = Scrubber(directory)
        with obs.recording() as instrumentation:
            moved = scrubber.quarantine()
        assert moved == [os.path.basename(path)]
        quarantined = os.path.join(directory, "quarantine",
                                   os.path.basename(path))
        assert os.path.exists(quarantined)
        assert not os.path.exists(path)
        kinds = instrumentation.events.aggregate()
        assert kinds["integrity.quarantine"] == 1

    def test_quarantine_takes_a_damaged_history_file_and_its_dependents(
            self, directory):
        manager, database = build(directory, checkpoint_at=2)
        dependent = os.path.basename(manager.checkpoint())
        (sealed,) = manager.checkpoints.history_files()
        flip_byte(os.path.join(directory, sealed), 60)
        moved = Scrubber(directory).quarantine()
        # The file, and the one checkpoint standing on it — not the
        # older checkpoint, which names no history file at all.
        assert sorted(moved) == sorted([sealed, dependent])
        assert os.path.exists(os.path.join(directory, "quarantine", sealed))
        assert manager.checkpoints.indices() == [2]
        assert audit_directory(directory).clean
        recovered, report = DurabilityManager(directory).recover(
            TemporalDatabase)
        assert report.checkpoint_index == 2 and report.records_total == 7
        assert observations(recovered) == observations(database)

    def test_repair_by_record_resend(self, directory, source_dir):
        report, src_database = self.damage_and_repair(
            directory, source_dir,
            lambda d: tamper_record(segment_paths(d)[0], 4))
        assert not report.used_snapshot
        assert report.refetched_records > 0
        assert report.digest_match is True
        recovered, _ = DurabilityManager(directory).recover(TemporalDatabase)
        assert observations(recovered) == observations(src_database)

    def test_repair_by_snapshot_when_source_compacted(self, directory,
                                                      source_dir):
        # The source checkpointed and pruned its early segments, so the
        # damaged node's verified prefix is below the source's floor —
        # records cannot bridge it; a snapshot must.
        build(directory)
        src_manager, src_database = build(source_dir, checkpoint_at=4)
        for start, path in src_manager.segments()[:-1]:
            os.unlink(path)  # prune checkpointed-away history
        tamper_record(segment_paths(directory)[0], 2)
        report = Scrubber(directory).repair(
            DirectorySource(source_dir, TemporalDatabase), TemporalDatabase)
        assert report.used_snapshot
        assert report.digest_match is True
        recovered, _ = DurabilityManager(directory).recover(TemporalDatabase)
        assert observations(recovered) == observations(src_database)

    def test_repair_loses_zero_durable_commits(self, directory, source_dir):
        report, src_database = self.damage_and_repair(
            directory, source_dir,
            lambda d: flip_byte(segment_paths(d)[0], 30))
        recovered, recovery = DurabilityManager(directory).recover(
            TemporalDatabase)
        assert recovery.records_total == len(src_database.log)
        assert recovery.chain_verified == recovery.records_total

    def test_repaired_directory_keeps_committing(self, directory,
                                                 source_dir):
        self.damage_and_repair(
            directory, source_dir,
            lambda d: tamper_record(segment_paths(d)[0], 5))
        manager = DurabilityManager(directory)
        recovered, _ = manager.recover(TemporalDatabase)
        recovered.manager.clock.source.set("06/01/85")
        recovered.insert("faculty", {"name": "New", "rank": "full"},
                         valid_from="06/01/85")
        again, report = DurabilityManager(directory).recover(
            TemporalDatabase)
        assert report.records_total == 8
        assert report.chain_verified == 8

    def test_clean_repair_is_a_noop(self, directory, source_dir):
        build(directory)
        build(source_dir)
        report = Scrubber(directory).repair(
            DirectorySource(source_dir, TemporalDatabase), TemporalDatabase)
        assert report.findings == 0
        assert report.quarantined == ()
        assert report.refetched_records == 0


class TestShardedAudit:
    def build_sharded(self, tmp_path, name="shards"):
        from repro.sharding import ShardedDurabilityManager
        directory = str(tmp_path / name)
        manager = ShardedDurabilityManager(directory, shards=2)
        store, _ = manager.recover(StaticDatabase)
        store.define("counters",
                     Schema.of(key=["k"], k=Domain.STRING, v=Domain.INTEGER))
        for i in range(6):
            store.insert("counters", {"k": f"k{i}", "v": i})
        return directory, manager, store

    def test_sharded_audit_walks_every_shard(self, tmp_path):
        directory, manager, store = self.build_sharded(tmp_path)
        result = audit_sharded(directory)
        assert result["clean"]
        assert len(result["per_shard"]) == 2
        assert result["combined_root"] is not None
        assert result["combined_root"] == manager.combined_root()
        assert manager.chain_heads() == [r.chain_head
                                         for r in result["per_shard"]]

    def test_damage_in_one_shard_spoils_the_root(self, tmp_path):
        directory, manager, store = self.build_sharded(tmp_path)
        shard_dir = os.path.join(directory, "shard-00")
        seg = segment_paths(shard_dir)[0]
        tamper_record(seg, 1)
        result = audit_sharded(directory)
        assert not result["clean"]
        assert result["combined_root"] is None

    def test_combined_root_refuses_unknown_heads(self):
        assert combined_root([]) is None
        assert combined_root(["a" * 64, None]) is None
        assert combined_root(["a" * 64, "b" * 64]) is not None


class TestCliVerbs:
    def run_cli(self, argv, capsys):
        from repro.cli import repro_main
        code = repro_main(argv)
        return code, capsys.readouterr().out

    def test_audit_verb_clean_and_damaged(self, directory, capsys):
        build(directory)
        code, out = self.run_cli(["audit", "--dir", directory], capsys)
        assert code == 0
        assert re.search(r"^clean:\s+true$", out, re.MULTILINE)
        tamper_record(segment_paths(directory)[0], 4)
        code, out = self.run_cli(["audit", "--dir", directory, "--json"],
                                 capsys)
        assert code == 2
        data = json.loads(out)
        assert data["clean"] is False
        assert data["findings"][0]["kind"] == "chain-tamper"

    def test_scrub_verb_quarantines_without_a_source(self, directory,
                                                     capsys):
        build(directory)
        tamper_record(segment_paths(directory)[0], 4)
        code, out = self.run_cli(["scrub", "--dir", directory], capsys)
        assert code == 2
        assert re.search(r"^quarantined:\n  0:\s+journal-\d+\.seg$", out,
                         re.MULTILINE)
        assert os.path.isdir(os.path.join(directory, "quarantine"))

    def test_scrub_verb_repairs_from_a_source(self, directory, source_dir,
                                              capsys):
        build(directory)
        build(source_dir)
        tamper_record(segment_paths(directory)[0], 4)
        code, out = self.run_cli(
            ["scrub", "--dir", directory, "--repair-from", source_dir,
             "--json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["digest_match"] is True
        code, out = self.run_cli(["audit", "--dir", directory], capsys)
        assert code == 0

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_scrub_verb_exits_1_on_a_digest_mismatch(
            self, directory, source_dir, capsys, monkeypatch, as_json):
        build(directory)
        build(source_dir)
        tamper_record(segment_paths(directory)[0], 4)
        monkeypatch.setattr(DirectorySource, "digest",
                            lambda self: "0" * 64)
        code, out = self.run_cli(
            ["scrub", "--dir", directory, "--repair-from", source_dir]
            + ["--json"] * as_json, capsys)
        assert code == 1
        if as_json:
            assert json.loads(out)["digest_match"] is False
        else:
            assert re.search(r"^digest_match:\s+false$", out, re.MULTILINE)

    def test_sharded_audit_verb(self, tmp_path, capsys):
        directory, _, _ = TestShardedAudit().build_sharded(tmp_path)
        code, out = self.run_cli(
            ["audit", "--dir", directory, "--sharded"], capsys)
        assert code == 0
        assert re.search(r"^combined_root:\s+[0-9a-f]{64}$", out,
                         re.MULTILINE)
