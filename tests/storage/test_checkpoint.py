"""Unit tests for checkpoint files and the checkpoint store."""

import json
import os
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (HistoricalDatabase, RollbackDatabase, StaticDatabase,
                        TemporalDatabase, vacuum_store)
from repro.core.transaction_time import TransactionTimeStore
from repro.errors import CheckpointError
from repro.relational import Domain, Schema
from repro.storage import (CHECKPOINT_TAG, CheckpointStore, DurabilityManager,
                           StorageIO, checkpoint_bytes, detect_kind,
                           dump_database, frame, load_database, parse_frame,
                           read_checkpoint, read_checkpoint_head, serializer)
from repro.time import Granularity, Instant, SimulatedClock

from tests.conftest import build_faculty, faculty_schema
from tests.storage.probes import drive_faculty, observations

ALL_KINDS = [StaticDatabase, RollbackDatabase, HistoricalDatabase,
             TemporalDatabase]


@pytest.fixture
def store(tmp_path):
    return CheckpointStore(str(tmp_path / "dur"))


def load_latest(store, clock=None):
    """``(commit_index, database)`` of the newest valid checkpoint:
    ``latest()`` finds it, ``read_checkpoint`` resolves its history."""
    commit_index, _ = store.latest()
    entry = read_checkpoint(store.path_for(commit_index))
    return commit_index, load_database(entry["database"], clock=clock)


class TestRoundTrip:
    @pytest.mark.parametrize("db_class", ALL_KINDS)
    def test_checkpoint_restores_every_kind(self, db_class, store):
        database, _ = build_faculty(db_class)
        store.write(database, len(database.log))
        commit_index, restored = load_latest(store)
        assert commit_index == len(database.log)
        assert observations(restored) == observations(database)

    def test_restored_database_accepts_new_commits(self, store):
        database, _ = build_faculty(TemporalDatabase)
        store.write(database, len(database.log))
        _, restored = load_latest(store)
        restored.manager.clock.source.set("06/01/85")
        restored.insert("faculty", {"name": "New", "rank": "full"},
                        valid_from="06/01/85")
        assert "New" in {row["name"] for row in restored.snapshot("faculty")}
        assert len(restored.log) == 1  # only the post-restore commit

    def test_write_is_atomic_no_tmp_left(self, store):
        database, _ = build_faculty(StaticDatabase)
        path = store.write(database, 7)
        assert os.path.exists(path)
        assert not [name for name in os.listdir(store.directory)
                    if name.endswith(".tmp")]


class TestValidation:
    def test_missing_file_raises(self, store):
        with pytest.raises(CheckpointError, match="cannot read"):
            read_checkpoint(store.path_for(3))

    def test_truncated_checkpoint_raises(self, store):
        database, _ = build_faculty(StaticDatabase)
        path = store.write(database, 7)
        data = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(data[:len(data) // 2])
        with pytest.raises(CheckpointError, match="damaged"):
            read_checkpoint(path)

    def test_unknown_format_raises(self, store):
        os.makedirs(store.directory, exist_ok=True)
        payload = '{"commit_index": 0, "database": {}, "format": 99}'
        with open(store.path_for(0), "w") as handle:
            handle.write(frame(payload, tag=CHECKPOINT_TAG) + "\n")
        with pytest.raises(CheckpointError, match="format"):
            read_checkpoint(store.path_for(0))

    def test_latest_skips_damaged_newest(self, store):
        database, clock = build_faculty(TemporalDatabase)
        store.write(database, 7)
        clock.set("06/01/85")
        database.insert("faculty", {"name": "New", "rank": "full"},
                        valid_from="06/01/85")
        newest = store.path_for(8)
        with open(newest, "wb") as handle:
            handle.write(checkpoint_bytes(database, 8, [])[:40])
        commit_index, entry = store.latest()
        assert commit_index == 7  # the torn newer one was skipped
        assert entry["commit_index"] == 7

    def test_stray_tmp_files_are_not_checkpoints(self, store):
        database, _ = build_faculty(StaticDatabase)
        store.write(database, 7)
        with open(store.path_for(9) + ".tmp", "wb") as handle:
            handle.write(b"half a checkpoint")
        assert store.indices() == [7]

    def test_empty_directory_has_no_latest(self, store):
        assert store.latest() is None
        assert store.latest_loadable() is None


class TestClockRestoration:
    def test_restored_clock_resumes_at_last_commit(self, store):
        database, _ = build_faculty(TemporalDatabase)
        store.write(database, 7)
        _, restored = load_latest(store, clock=SimulatedClock("02/25/84"))
        # A same-instant reading must still commit strictly after the
        # last recorded transaction (transaction time is monotone).
        when = restored.insert("faculty", {"name": "Ann", "rank": "full"},
                               valid_from="03/01/84")
        assert when > database.log.last().commit_time


# ---------------------------------------------------------------------------
# What a checkpoint costs (docs/PERFORMANCE.md): closed rows are sealed
# once, so a checkpoint is the open partition plus what closed since.
# ---------------------------------------------------------------------------

class RecordingIO(StorageIO):
    """Real writes, with every atomic publish remembered."""

    def __init__(self):
        self.published = []  # (file name, byte count)

    def write_atomic(self, path, data, fsync=False):
        self.published.append((os.path.basename(path), len(data)))
        super().write_atomic(path, data, fsync=fsync)


KEYS = 64
DELTA = 8


def churn(database, commits, start):
    """*commits* keyed replaces that leave the open state K rows wide
    (a temporal replace at a fixed valid time supersedes, never splits)."""
    clock = database.manager.clock.source
    valid = ({"valid_from": "01/01/80"}
             if database.kind.supports_historical_queries else {})
    ranks = ("assistant", "associate", "full")
    for step in range(start, start + commits):
        clock.set(clock.current() + 1)
        database.replace("faculty", {"name": f"n{step % KEYS:02d}"},
                         {"rank": ranks[(step // KEYS + step) % 3]}, **valid)


def second_checkpoint_cost(db_class, directory, history, monkeypatch):
    """``(bytes published, encode_value calls, files)`` of the second
    ``checkpoint()`` — K keys, *history* commits before the first one,
    DELTA commits between the two."""
    io = RecordingIO()
    manager = DurabilityManager(directory, io=io)
    database, _ = manager.recover(db_class)
    clock = database.manager.clock.source
    clock.set("01/01/81")
    database.define("faculty", faculty_schema())
    valid = ({"valid_from": "01/01/80"}
             if database.kind.supports_historical_queries else {})
    for key in range(KEYS):
        clock.set(clock.current() + 1)
        database.insert("faculty", {"name": f"n{key:02d}", "rank": "full"},
                        **valid)
    churn(database, history, 0)
    manager.checkpoint()
    churn(database, DELTA, history)
    del io.published[:]
    calls = []
    real = serializer.encode_value
    monkeypatch.setattr(serializer, "encode_value",
                        lambda value, memo=None: calls.append(1)
                        or real(value, memo))
    manager.checkpoint()
    monkeypatch.undo()
    assert database.store("faculty").open_count == KEYS
    return (sum(size for _, size in io.published), len(calls),
            [name for name, _ in io.published])


class TestCheckpointCost:
    @pytest.mark.parametrize("db_class", [RollbackDatabase, TemporalDatabase])
    def test_second_checkpoint_is_independent_of_history_depth(
            self, db_class, tmp_path, monkeypatch):
        shallow = second_checkpoint_cost(db_class, str(tmp_path / "t64"), 64,
                                         monkeypatch)
        deep = second_checkpoint_cost(db_class, str(tmp_path / "t2048"),
                                      2048, monkeypatch)
        # Two files: the DELTA rows that closed, then the open partition.
        assert [name.split("-")[0] for name in deep[2]] == ["history",
                                                            "checkpoint"]
        assert abs(deep[0] - shallow[0]) <= 0.01 * shallow[0]
        # Exactly the same values encoded: K open rows + DELTA closed.
        assert deep[1] == shallow[1]
        per_row = deep[1] / (KEYS + DELTA)
        assert per_row <= 10  # a row is ≤ 2 values + 2 periods of 3 calls

    def test_unchanged_index_republishes_only_the_open_partition(
            self, tmp_path):
        io = RecordingIO()
        manager = DurabilityManager(str(tmp_path / "dur"), io=io)
        database, _ = manager.recover(TemporalDatabase)
        drive_faculty(database)
        manager.checkpoint()
        first = list(io.published)
        manager.checkpoint()
        again = io.published[len(first):]
        assert [name.split("-")[0] for name, _ in first] == ["history",
                                                             "checkpoint"]
        # No short-circuit, no second history file: the same checkpoint,
        # serialised and published again.
        assert again == [first[1]]

    def test_restart_resumes_the_sealed_prefix(self, tmp_path):
        directory = str(tmp_path / "dur")
        manager = DurabilityManager(directory)
        database, _ = manager.recover(TemporalDatabase)
        drive_faculty(database, stop=5)
        manager.checkpoint()
        sealed = manager.checkpoints.history_files()
        io = RecordingIO()
        restarted = DurabilityManager(directory, io=io)
        database, report = restarted.recover(TemporalDatabase)
        assert report.history_files_read == len(sealed) == 1
        drive_faculty(database, start=5)
        path = restarted.checkpoint()
        # Only the rows closed since the restart were sealed; the first
        # file was neither rewritten nor dropped from the manifest.
        manifest = read_checkpoint_head(path)["history"]
        assert [item[0] for item in manifest][:1] == sealed
        assert len(manifest) == 2
        assert [name for name, _ in io.published] == [
            manifest[1][0], os.path.basename(path)]
        assert sum(sum(item[2].values()) for item in manifest) == len(
            database.store("faculty").closed_since())

    def test_redefined_relation_is_resealed_from_zero(self, tmp_path):
        manager = DurabilityManager(str(tmp_path / "dur"))
        database, _ = manager.recover(TemporalDatabase)
        drive_faculty(database)
        manager.checkpoint()
        clock = database.manager.clock.source
        clock.set("01/01/85")
        database.drop("faculty")
        clock.set("01/02/85")
        database.define("faculty", faculty_schema())
        clock.set("01/03/85")
        database.insert("faculty", {"name": "Ann", "rank": "full"},
                        valid_from="01/01/85")
        clock.set("01/04/85")
        database.delete("faculty", {"name": "Ann"}, valid_from="01/01/85")
        path = manager.checkpoint()
        # The old lineage's file left the manifest (it stays on disk for
        # the older checkpoint); only the new relation's rows are named.
        manifest = read_checkpoint_head(path)["history"]
        assert len(manager.checkpoints.history_files()) == 2
        assert [sum(item[2].values()) for item in manifest] == [1]
        restored = load_database(read_checkpoint(path)["database"])
        assert observations(restored) == observations(database)


# ---------------------------------------------------------------------------
# A checkpoint encodes only the rows that changed: every row it writes
# keeps its text for the next one, and the bytes stay the same.
# ---------------------------------------------------------------------------

def encoded_rows(monkeypatch):
    """The stored items a dump writes afresh as text, in order: every row
    handed to the row writer (:func:`serializer.write_texts`) from now on."""
    written = []
    real = serializer.write_texts

    def writer(items, *args):
        items = list(items)
        written.extend(items)
        return real(items, *args)
    monkeypatch.setattr(serializer, "write_texts", writer)
    return written


class TestCheckpointEncodesWhatChanged:
    @pytest.mark.parametrize("db_class", [RollbackDatabase, TemporalDatabase])
    def test_only_the_rows_opened_since_are_encoded(
            self, db_class, tmp_path, monkeypatch):
        directory = str(tmp_path / "dur")
        manager = DurabilityManager(directory)
        database, _ = manager.recover(db_class)
        clock = database.manager.clock.source
        clock.set("01/01/81")
        database.define("faculty", faculty_schema())
        valid = ({"valid_from": "01/01/80"}
                 if database.kind.supports_historical_queries else {})
        for key in range(KEYS):
            clock.set(clock.current() + 1)
            database.insert("faculty", {"name": f"n{key:02d}",
                                        "rank": "full"}, **valid)
        store = database.store("faculty")
        written = encoded_rows(monkeypatch)
        manager.checkpoint()
        assert len(written) == store.open_count == KEYS
        del written[:]
        manager.checkpoint()  # no commit since: nothing to encode
        assert written == []
        before = list(store.open_rows())
        for key in range(DELTA):  # DELTA keyed replaces, each a new row
            clock.set(clock.current() + 1)
            database.replace("faculty", {"name": f"n{key:02d}"},
                             {"rank": "assistant"}, **valid)
        store = database.store("faculty")
        opened = [row for row in store.open_rows()
                  if not any(row is old for old in before)]
        manager.checkpoint()
        assert len(opened) == DELTA
        assert sorted(map(id, written)) == sorted(map(id, opened))
        # A freshly recovered manager starts from nothing: every open row
        # once, then none again.
        monkeypatch.undo()
        restarted = DurabilityManager(directory)
        database, _ = restarted.recover(db_class)
        written = encoded_rows(monkeypatch)
        restarted.checkpoint()
        assert len(written) == database.store("faculty").open_count == KEYS
        del written[:]
        restarted.checkpoint()
        assert written == []


def oracle_bytes(database, entry):
    """What a checkpoint of *database* holding *entry*'s index, manifest,
    head and fold was before row texts were kept: its plain dump, one
    ``json.dumps`` over the whole body."""
    body = {key: entry[key] for key in ("format", "commit_index", "history",
                                        "chain_head", "sealed_journal")
            if key in entry}
    body["database"] = dump_database(database, closed=False)
    return (frame(json.dumps(body, ensure_ascii=False, sort_keys=True,
                             separators=(",", ":")), tag=CHECKPOINT_TAG)
            + "\n").encode("utf-8")


class ComparingIO(StorageIO):
    """Real writes; every checkpoint published is first compared with what
    the same writer makes of the same database with no texts kept."""

    def __init__(self):
        self.manager = None
        self.compared = 0

    def write_atomic(self, path, data, fsync=False):
        if os.path.basename(path).startswith("checkpoint-"):
            entry = parse_frame(data.decode("utf-8").rstrip("\n"),
                                tag=CHECKPOINT_TAG)
            database = self.manager.database
            assert data == checkpoint_bytes(
                database, entry["commit_index"], entry["history"],
                chain_head=entry.get("chain_head"),
                sealed_journal=entry.get("sealed_journal"))
            assert data == oracle_bytes(database, entry)
            self.compared += 1
        super().write_atomic(path, data, fsync=fsync)


def hour_clock(factory):
    """*factory* on a clock whose chronon is an hour, not a day."""
    return lambda clock: factory(
        clock=SimulatedClock(clock.current().chronon, Granularity.HOUR))


KEPT_FACTORIES = {
    "static": StaticDatabase,
    "rollback-interval": RollbackDatabase,
    "historical": HistoricalDatabase,
    "temporal": TemporalDatabase,
    "temporal-hours": hour_clock(TemporalDatabase),
}
RELATIONS = ("r", "e")  # "e" is an event relation where valid time is kept
ROW_KEYS = ("a", "b", "c")

histories = st.lists(st.one_of(
    st.tuples(st.just("dml"), st.sampled_from(RELATIONS),
              st.sampled_from(ROW_KEYS), st.integers(0, 5)),
    st.tuples(st.just("checkpoint")),
    st.tuples(st.just("restart")),
    st.tuples(st.sampled_from(["drop", "redefine"]),
              st.sampled_from(RELATIONS)),
    st.tuples(st.just("vacuum")),
), min_size=1, max_size=12)


class KeptHistory:
    """One durable database whose every checkpoint is compared."""

    def __init__(self, factory, directory):
        self.factory, self.directory = factory, directory
        self.restart()
        for name in RELATIONS:
            self.define(name)

    def restart(self):
        self.io = ComparingIO()
        self.manager = DurabilityManager(self.directory, io=self.io)
        self.io.manager = self.manager
        self.database, _ = self.manager.recover(self.factory)

    def tick(self):
        clock = self.database.manager.clock.source
        clock.set(clock.current() + 1)
        return clock.current()

    def define(self, name):
        self.tick()
        event = name == "e" and self.database.supports_historical_queries
        self.database.define(name, Schema.of(
            key=["k"], k=Domain.STRING, v=Domain.INTEGER, day=Domain.DATE),
            event=event)

    def dml(self, name, key, value):
        """Insert, replace or (value 0) delete — whichever *key* allows."""
        database = self.database
        if name not in database.relation_names():
            self.define(name)
        when = self.tick()
        valid = database.supports_historical_queries
        stamp = ({"valid_at": when} if valid and database.is_event_relation(
            name) else {"valid_from": when} if valid else {})
        day = Instant.parse("06/01/79") + value
        if not any(row["k"] == key for row in database.snapshot(name)):
            database.insert(name, {"k": key, "v": value, "day": day}, **stamp)
        elif value == 0:
            database.delete(name, {"k": key}, **stamp)
        else:
            database.replace(name, {"k": key}, {"v": value, "day": day},
                             **stamp)

    def drop(self, name):
        if name in self.database.relation_names():
            self.tick()
            self.database.drop(name)

    def redefine(self, name):
        self.drop(name)
        self.define(name)

    def vacuum(self):
        """Adopt a reloaded copy of the state, each store vacuumed to its
        middle commit, as the directory's new baseline (a checkpoint)."""
        self.dml("r", "a", 5)  # adoption rotates: one record to leave
        snapshot = load_database(dump_database(self.database))
        for name in snapshot.relation_names():
            store = snapshot.store(name)
            if not isinstance(store, TransactionTimeStore):
                continue
            times = store.commit_times()
            if times:
                snapshot._store[name] = vacuum_store(
                    store, times[len(times) // 2])
        self.manager.adopt_snapshot(snapshot, self.manager.record_count,
                                    self.manager.chain_head)
        self.database = snapshot


@pytest.mark.parametrize("kind", sorted(KEPT_FACTORIES))
@given(history=histories)
@settings(max_examples=25, deadline=None)
def test_every_checkpoint_is_the_bytes_of_an_empty_cache(kind, history):
    directory = tempfile.mkdtemp(prefix="repro-kept-")
    try:
        kept = KeptHistory(KEPT_FACTORIES[kind], directory)
        for step in history:
            compared = kept.io.compared
            if step[0] == "checkpoint":
                kept.manager.checkpoint()
                kept.manager.checkpoint()  # unchanged: every text kept
                assert kept.io.compared == compared + 2
            elif step[0] == "vacuum":
                kept.vacuum()
                assert kept.io.compared == compared + 1
            else:
                getattr(kept, step[0])(*step[1:])
        kept.manager.checkpoint()
    finally:
        shutil.rmtree(directory, ignore_errors=True)


class TestKindDetection:
    def test_detect_kind_reads_no_history_file(self, tmp_path, monkeypatch):
        directory = str(tmp_path / "dur")
        manager = DurabilityManager(directory)
        database, _ = manager.recover(RollbackDatabase)
        drive_faculty(database)
        manager.checkpoint()
        assert manager.checkpoints.history_files()
        opened = []
        real_open = open

        def spy(path, *args, **kwargs):
            opened.append(os.path.basename(str(path)))
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr("builtins.open", spy)
        assert detect_kind(directory) == "static rollback"
        monkeypatch.undo()
        assert opened == [os.path.basename(manager.checkpoints.path_for(7))]
