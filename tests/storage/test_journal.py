"""Unit tests for the durable journal and replay."""

import json
import os

import pytest

from repro.core import (HistoricalDatabase, RollbackDatabase, StaticDatabase,
                        TemporalDatabase)
from repro.errors import JournalError
from repro.storage import Journal
from repro.time import Instant, SimulatedClock
from repro.workload import FacultyWorkload, apply_workload

from tests.conftest import build_faculty


@pytest.fixture
def journal_path(tmp_path):
    return str(tmp_path / "db.journal")


class TestRecording:
    def test_bind_journals_every_commit(self, journal_path):
        clock = SimulatedClock("01/01/77")
        database = TemporalDatabase(clock=clock)
        Journal(journal_path).bind(database)
        from tests.conftest import faculty_schema
        database.define("faculty", faculty_schema())
        clock.set("08/25/77")
        database.insert("faculty", {"name": "Merrie", "rank": "associate"},
                        valid_from="09/01/77")
        entries = Journal(journal_path).read()
        assert len(entries) == 2  # define + insert
        assert entries[1]["operations"][0]["action"] == "insert"

    def test_bind_late_captures_history(self, journal_path):
        database, _ = build_faculty(TemporalDatabase)
        Journal(journal_path).bind(database)
        entries = Journal(journal_path).read()
        assert len(entries) == len(database.log)

    def test_read_missing_file_is_empty(self, journal_path):
        assert Journal(journal_path).read() == []

    def test_corrupt_line_detected(self, journal_path):
        with open(journal_path, "w") as handle:
            handle.write("{not json\n")
        with pytest.raises(JournalError, match="corrupt"):
            Journal(journal_path).read()

    def test_entries_are_framed_lines(self, journal_path):
        # One record per line: tag, payload length, CRC32, JSON payload.
        from repro.storage import CHAINED_TAG, parse_frame
        database, _ = build_faculty(StaticDatabase)
        Journal(journal_path).bind(database)
        with open(journal_path) as handle:
            for line in handle:
                tag, length, checksum, payload = line.rstrip("\n").split(
                    " ", 3)
                assert tag == CHAINED_TAG
                assert int(length) == len(payload.encode("utf-8"))
                assert parse_frame(line.rstrip("\n"),
                                   tag=CHAINED_TAG) == json.loads(payload)


class TestReplay:
    @pytest.mark.parametrize("db_class", [
        StaticDatabase, RollbackDatabase, HistoricalDatabase,
        TemporalDatabase,
    ])
    def test_replay_reproduces_paper_scenario(self, db_class, journal_path):
        database, _ = build_faculty(db_class)
        Journal(journal_path).bind(database)
        rebuilt = Journal(journal_path).replay(db_class)
        assert rebuilt.kind is database.kind
        assert rebuilt.snapshot("faculty") == database.snapshot("faculty")
        if database.supports_rollback:
            for when in ("12/10/82", "06/01/83"):
                assert rebuilt.rollback("faculty", when) == \
                    database.rollback("faculty", when)
        if database.supports_historical_queries:
            assert rebuilt.history("faculty") == database.history("faculty")

    def test_replay_preserves_commit_times(self, journal_path):
        database, _ = build_faculty(TemporalDatabase)
        Journal(journal_path).bind(database)
        rebuilt = Journal(journal_path).replay(TemporalDatabase)
        original_times = [record.commit_time for record in database.log]
        replayed_times = [record.commit_time for record in rebuilt.log]
        assert replayed_times == original_times

    def test_replay_scale_workload(self, journal_path):
        workload = FacultyWorkload(people=10, events_per_person=3, seed=4)
        database = TemporalDatabase(clock=SimulatedClock("01/01/79"))
        Journal(journal_path).bind(database)
        apply_workload(database, workload)
        rebuilt = Journal(journal_path).replay(TemporalDatabase)
        assert rebuilt.temporal("faculty") == database.temporal("faculty")

    def test_bad_commit_time_detected(self, journal_path):
        from repro.storage import (CHAINED_TAG, GENESIS, chain_entry,
                                   frame_record)
        with open(journal_path, "w") as handle:
            handle.write(frame_record(chain_entry({
                "sequence": 0, "commit_time": "not-a-time",
                "operations": []}, GENESIS), tag=CHAINED_TAG) + "\n")
        with pytest.raises(JournalError, match="bad commit time"):
            Journal(journal_path).replay(TemporalDatabase)

    def test_event_flag_survives_replay(self, journal_path):
        from repro.relational import Domain, Schema
        clock = SimulatedClock("01/01/80")
        database = TemporalDatabase(clock=clock)
        Journal(journal_path).bind(database)
        database.define("pings", Schema.of(x=Domain.STRING), event=True)
        database.insert("pings", {"x": "hello"}, valid_at="01/02/80")
        rebuilt = Journal(journal_path).replay(TemporalDatabase)
        assert rebuilt.is_event_relation("pings")
        assert rebuilt.history("pings").rows[0].valid.is_instantaneous

    def test_corruption_error_names_line_and_offset(self, journal_path):
        # The error message must localize the damage: line number and
        # byte offset of the record that failed, so an operator can
        # inspect the file without bisecting it.
        database, _ = build_faculty(TemporalDatabase)
        Journal(journal_path).bind(database)
        with open(journal_path, "rb") as handle:
            lines = handle.read().splitlines(keepends=True)
        expected_offset = len(lines[0]) + len(lines[1])
        lines[2] = b"r2 5 00000000 {\"x\": 1}\n"  # bad length and CRC
        with open(journal_path, "wb") as handle:
            handle.writelines(lines)
        with pytest.raises(JournalError,
                           match=rf"line 3 \(byte offset {expected_offset}\)"):
            Journal(journal_path).read()

    def test_recover_mode_drops_only_a_trailing_tear(self, journal_path):
        database, _ = build_faculty(TemporalDatabase)
        Journal(journal_path).bind(database)
        intact = Journal(journal_path).read()
        with open(journal_path, "ab") as handle:
            handle.write(b"r2 400 0badf00d {\"torn")  # crashed append
        journal = Journal(journal_path)
        with pytest.raises(JournalError):
            journal.read()  # strict mode still refuses
        assert journal.read(recover=True) == intact
        dropped = journal.truncate_torn_tail()
        assert dropped > 0
        assert journal.read() == intact  # the file itself is repaired

    def test_continue_after_replay(self, journal_path):
        database, _ = build_faculty(TemporalDatabase)
        Journal(journal_path).bind(database)
        rebuilt = Journal(journal_path).replay(TemporalDatabase)
        # The replayed database accepts new, later transactions.
        rebuilt.manager.clock.source.set("06/01/85")
        when = rebuilt.insert("faculty", {"name": "New", "rank": "full"},
                              valid_from="06/01/85")
        assert when == Instant.parse("06/01/85")
