"""Failure injection: the system stays consistent when things go wrong.

Covers the abort paths the happy-path suites never hit:

- mid-batch failures leave *no* partial state in any database kind
  (the stage/install protocol);
- a failing on-commit journal hook does not corrupt the in-memory state;
- tampered journals are rejected loudly, never replayed silently;
- clock misuse surfaces as ClockError rather than corrupting order;
- evaluator errors during multi-row TQuel updates abort the whole
  statement.
"""

import pytest

from repro.core import (HistoricalDatabase, RollbackDatabase, StaticDatabase,
                        TemporalDatabase)
from repro.errors import (ClockError, ConstraintViolation, JournalError,
                          ReproError)
from repro.relational import Domain, Schema
from repro.storage import Journal
from repro.time import Instant, SimulatedClock
from repro.tquel import Session

from tests.conftest import build_faculty, faculty_schema

ALL_KINDS = [StaticDatabase, RollbackDatabase, HistoricalDatabase,
             TemporalDatabase]


class TestAtomicity:
    @pytest.mark.parametrize("db_class", ALL_KINDS)
    def test_failing_op_rolls_back_whole_batch(self, db_class):
        clock = SimulatedClock("01/01/80")
        database = db_class(clock=clock)
        database.define("faculty", faculty_schema())
        valid = ({"valid_from": "01/01/80"}
                 if database.supports_historical_queries else {})
        database.insert("faculty", {"name": "A", "rank": "full"}, **valid)

        state_before = database.log.records[-1].commit_time
        txn = database.begin()
        database.insert("faculty", {"name": "B", "rank": "full"},
                        txn=txn, **valid)
        database.insert("faculty", {"name": "A", "rank": "assistant"},
                        txn=txn, **valid)  # key violation at commit
        with pytest.raises(ConstraintViolation):
            txn.commit()

        # No partial effect anywhere: snapshot, log, history.
        assert database.snapshot("faculty").column("name") == ["A"]
        assert database.log.records[-1].commit_time == state_before
        if database.supports_rollback:
            # No phantom state visible at any probe after the failure.
            now = database.now()
            assert database.rollback("faculty", now) is not None
            names = ({row["name"] for row in
                      database.rollback("faculty", now)}
                     if db_class is RollbackDatabase else
                     {row.data["name"] for row in
                      database.rollback("faculty", now).rows})
            assert names == {"A"}

    @pytest.mark.parametrize("db_class", ALL_KINDS)
    def test_ddl_failure_mid_batch_rolls_back(self, db_class):
        clock = SimulatedClock("01/01/80")
        database = db_class(clock=clock)
        database.define("faculty", faculty_schema())
        from repro.txn.transaction import Operation
        txn = database.begin()
        txn.add(Operation("define", "extra",
                          {"schema": Schema.of(x=Domain.STRING),
                           "constraints": ()}))
        txn.add(Operation("define", "faculty",  # duplicate -> failure
                          {"schema": faculty_schema(), "constraints": ()}))
        with pytest.raises(ReproError):
            txn.commit()
        # The first definition of the batch was rolled back with the rest:
        # no schema, no store, and re-defining it later works cleanly.
        assert "extra" not in database.relation_names()
        database.define("extra", Schema.of(x=Domain.STRING))
        assert database.snapshot("extra").is_empty

    def test_event_flag_rolls_back_with_failed_batch(self):
        clock = SimulatedClock("01/01/80")
        database = HistoricalDatabase(clock=clock)
        database.define("faculty", faculty_schema())
        from repro.txn.transaction import Operation
        txn = database.begin()
        txn.add(Operation("define", "pings",
                          {"schema": Schema.of(x=Domain.STRING),
                           "constraints": (), "event": True}))
        txn.add(Operation("drop", "nowhere", {}))  # fails
        with pytest.raises(ReproError):
            txn.commit()
        # Re-define as an ordinary interval relation: no stale event flag.
        database.define("pings", Schema.of(x=Domain.STRING))
        assert not database.is_event_relation("pings")


class TestJournalFailures:
    def test_failing_hook_after_commit_propagates_but_state_is_durable(
            self, tmp_path):
        database, clock = build_faculty(TemporalDatabase)

        calls = {"n": 0}

        def exploding_hook(record):
            calls["n"] += 1
            raise OSError("disk full")

        database.manager.on_commit = exploding_hook
        clock.set("06/01/85")
        with pytest.raises(OSError):
            database.insert("faculty", {"name": "New", "rank": "assistant"},
                            valid_from="06/01/85")
        # The commit itself completed before the hook ran: state + log
        # both contain it (the journal is behind, which replay detects).
        assert calls["n"] == 1
        assert any(row.data["name"] == "New"
                   for row in database.history("faculty").rows)

    def test_tampered_journal_rejected(self, tmp_path):
        path = str(tmp_path / "db.journal")
        database, _ = build_faculty(TemporalDatabase)
        Journal(path).bind(database)

        # Tamper: swap two commit lines (violates monotone commit order).
        with open(path) as handle:
            lines = handle.readlines()
        lines[1], lines[2] = lines[2], lines[1]
        with open(path, "w") as handle:
            handle.writelines(lines)

        with pytest.raises(ReproError):
            Journal(path).replay(TemporalDatabase)

    def test_truncated_json_line_rejected(self, tmp_path):
        path = str(tmp_path / "db.journal")
        database, _ = build_faculty(TemporalDatabase)
        Journal(path).bind(database)
        with open(path) as handle:
            content = handle.read()
        with open(path, "w") as handle:
            handle.write(content[:-20])  # chop the final line
        with pytest.raises(JournalError, match="corrupt"):
            Journal(path).read()

    def test_edited_operation_detected_or_replayed_consistently(
            self, tmp_path):
        # A re-framed edit passes the checksum (the CRC detects damage,
        # not tampering — the journal is the source of truth), but
        # editing the *commit time* against the recorded order must
        # still fail replay on the drift check.
        from repro.storage import CHAINED_TAG, frame_record, parse_journal_line
        path = str(tmp_path / "db.journal")
        database, _ = build_faculty(TemporalDatabase)
        Journal(path).bind(database)
        entries = [parse_journal_line(line.rstrip("\n"))
                   for line in open(path)]
        entries[3]["commit_time"] = entries[0]["commit_time"]
        with open(path, "w") as handle:
            for entry in entries:
                handle.write(frame_record(entry, tag=CHAINED_TAG) + "\n")
        with pytest.raises(ReproError):
            Journal(path).replay(TemporalDatabase)

    def test_flipped_byte_fails_checksum(self, tmp_path):
        # Unlike a semantic edit, raw damage inside a record body is
        # caught by the frame CRC before replay even starts.
        path = str(tmp_path / "db.journal")
        database, _ = build_faculty(TemporalDatabase)
        Journal(path).bind(database)
        with open(path, "rb") as handle:
            data = bytearray(handle.read())
        quoted = data.index(b"Merrie")
        data[quoted] = ord("X")
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        with pytest.raises(JournalError, match="corrupt"):
            Journal(path).replay(TemporalDatabase)


class TestClockMisuse:
    def test_simulated_clock_cannot_go_backwards_mid_history(self):
        database, clock = build_faculty(TemporalDatabase)
        with pytest.raises(ClockError, match="backwards"):
            clock.set("01/01/80")
        # The database is unharmed and accepts the next forward commit.
        clock.set("06/01/85")
        database.insert("faculty", {"name": "New", "rank": "assistant"},
                        valid_from="06/01/85")

    def test_transaction_clock_survives_stalled_source(self):
        clock = SimulatedClock("01/01/80")
        database = StaticDatabase(clock=clock)
        database.define("r", Schema.of(x=Domain.INTEGER))
        commits = [database.insert("r", {"x": index}) for index in range(5)]
        assert all(a < b for a, b in zip(commits, commits[1:]))
        # now() never precedes the last commit despite the stalled source.
        assert database.now() >= commits[-1]


class TestTQuelUpdateAtomicity:
    def test_replace_with_poison_value_aborts_all_rows(self):
        database, clock = build_faculty(StaticDatabase)
        session = Session(database)
        session.execute("range of f is faculty")
        before = database.snapshot("faculty")
        # 'janitor' violates the rank enumeration for every matched row;
        # the statement must change nothing at all.
        with pytest.raises(ReproError):
            session.execute('replace f (rank = "janitor")')
        assert database.snapshot("faculty") == before

    def test_delete_with_failing_valid_clause_changes_nothing(self):
        database, clock = build_faculty(HistoricalDatabase)
        session = Session(database)
        session.execute("range of f is faculty")
        before = database.history("faculty")
        with pytest.raises(ReproError):
            session.execute('delete f valid from "13/45/99"')
        assert database.history("faculty") == before
