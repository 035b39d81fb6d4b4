"""The one-pass state digest: byte-identical to the plain oracle, and cheap.

:func:`~repro.replication.state_digest` writes the canonical form in one
pass (``serializer.canonical_dump`` → sort → splice → SHA-256); the
oracle in :mod:`tests.replication.digest_oracle` builds the whole dump,
sorts by re-serialising every row and serialises it all again.  Nothing
persists a digest, so byte identity with the oracle is the strongest
check there is: every kind, every value the codec knows, every way of
arriving at a state.

The cost guards count, never time: one uncached digest formats each
distinct instant of a DATE value once (a stamp is chronons, formatted
never) and writes each row's text once — the same counts on every call,
because no state survives from one call to the next.
"""

import datetime
import hashlib
import json
import shutil
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import (HistoricalDatabase, RollbackDatabase, StaticDatabase,
                        TemporalDatabase)
from repro.relational import Attribute, Domain, Schema
from repro.replication import state_digest
from repro.sharding import ShardedDatabase, sharded_digest
from repro.storage import DurabilityManager, dump_database, load_database
from repro.storage import serializer
from repro.time import NEG_INF, POS_INF, Granularity, Instant, Period
from repro.time import SimulatedClock
from repro.txn.log import CommitLog

from tests.replication.digest_oracle import oracle_digest, oracle_payload

FACTORIES = {
    "static": StaticDatabase,
    "rollback-interval": RollbackDatabase,
    "historical": HistoricalDatabase,
    "temporal": TemporalDatabase,
}

RANKS = Domain.enumeration("rank", "assistant", "associate", "full",
                           "émérite")
SCHEMA = Schema([
    Attribute("k", Domain.STRING),
    Attribute("n", Domain.INTEGER),
    Attribute("flag", Domain.BOOLEAN),
    Attribute("f", Domain.FLOAT),
    Attribute("rank", RANKS),
    Attribute("note", Domain.STRING, nullable=True),
    Attribute("day", Domain.DATE),
    Attribute("effective", Domain.user_defined_time("effective date")),
    Attribute("any", Domain.ANY, nullable=True),
], key=["k"])

#: Strings the encoder must escape, or must leave alone (non-ASCII).
TRICKY = ["", "plain", 'quo"te', "back\\slash", "new\nline", "tab\t",
          "nul\x00", "\x1f", "é", "日本語", "emoji 🙂", " ", "a], [b"]
strings = st.one_of(st.sampled_from(TRICKY), st.text(max_size=6))
floats = st.one_of(st.sampled_from([-0.0, 0.0, 1e300, -1e-300, 0.1, 2.5]),
                   st.floats(allow_nan=False))


#: Every granularity: the live state, the sharded store and every durable
#: path take them all (``decode_value`` reads back whatever
#: ``Granularity.format`` writes, ``2000-01`` and ``2000`` included).
ALL_UNITS = tuple(Granularity)


@st.composite
def instants(draw, units, finite_only=False):
    """An instant at one of *units*, or (unless *finite_only*) ±∞."""
    if not finite_only and draw(st.integers(0, 5)) == 0:
        return draw(st.sampled_from([POS_INF, NEG_INF]))
    when = draw(st.datetimes(min_value=datetime.datetime(1900, 1, 1),
                             max_value=datetime.datetime(2100, 1, 1)))
    return Instant.from_datetime(when, draw(st.sampled_from(units)))


@st.composite
def periods(draw, units):
    start = draw(instants(units, finite_only=True))
    if draw(st.booleans()):
        return Period(start, POS_INF)
    return Period(start, start + draw(st.integers(1, 400)))


@st.composite
def rows(draw, units, key):
    anything = st.one_of(st.none(), st.integers(), st.booleans(), floats,
                         strings, instants(units), periods(units))
    return {"k": key, "n": draw(st.integers()), "flag": draw(st.booleans()),
            "f": draw(floats), "rank": draw(st.sampled_from(RANKS.enum_values)),
            "note": draw(st.one_of(st.none(), strings)),
            "day": draw(instants(units, finite_only=True)),
            "effective": draw(instants(units)), "any": draw(anything)}


@st.composite
def plans(draw, units=ALL_UNITS):
    """Inserts of distinct keys, then replaces and deletes of some."""
    keys = draw(st.lists(strings, min_size=1, max_size=5, unique=True))
    inserts = [draw(rows(units, key)) for key in keys]
    changes = draw(st.lists(st.tuples(st.sampled_from(keys),
                                      st.one_of(st.none(), rows(units, ""))),
                            min_size=1, max_size=5))
    return inserts, changes


def tick(database):
    clock = database.manager.clock.source
    clock.set(clock.current() + 1)


def apply(database, steps):
    """Run *steps* (``("insert", values)`` / ``("change", key, values or
    None)``) against every relation of *database*."""
    valid = database.supports_historical_queries
    for name in database.relation_names():
        event = valid and database.is_event_relation(name)
        for step in steps:
            tick(database)
            when = database.manager.clock.source.current()
            stamp = ({"valid_at": when} if event else
                     {"valid_from": when} if valid else {})
            if step[0] == "insert":
                database.insert(name, step[1], **stamp)
                continue
            key, values = step[1:]
            if values is None:
                database.delete(name, {"k": key}, **stamp)
            else:
                values = {k: v for k, v in values.items() if k != "k"}
                database.replace(name, {"k": key}, values, **stamp)


def define(database):
    tick(database)
    database.define("facts", SCHEMA)
    if database.supports_historical_queries:
        tick(database)
        database.define("events", SCHEMA, event=True)


def steps_of(plan):
    inserts, changes = plan
    return ([("insert", values) for values in inserts]
            + [("change", key, values) for key, values in changes])


def assert_matches_oracle(database):
    digest = state_digest(database, cache=False)
    assert digest == oracle_digest(database)
    return digest


class TestDigestMatchesTheOracle:
    @given(kind=st.sampled_from(sorted(FACTORIES)), plan=plans())
    @settings(max_examples=150, deadline=None)
    def test_live_state(self, kind, plan):
        database = FACTORIES[kind](clock=SimulatedClock("01/01/80"))
        define(database)
        apply(database, steps_of(plan))
        assert_matches_oracle(database)

    @given(kind=st.sampled_from(sorted(FACTORIES)), plan=plans())
    @settings(max_examples=30, deadline=None)
    def test_every_path_to_the_state(self, kind, plan):
        """Live vs checkpoint + tail vs full replay vs an adopted
        snapshot: one digest, and the oracle's on every one of them."""
        factory = FACTORIES[kind]
        directory = tempfile.mkdtemp(prefix="repro-digest-")
        try:
            manager = DurabilityManager(directory)
            database, _ = manager.recover(factory)
            database.manager.clock.source.set("01/01/80")
            define(database)
            steps = steps_of(plan)
            half = len(steps) // 2
            apply(database, steps[:half])
            manager.checkpoint()
            apply(database, steps[half:])
            live = assert_matches_oracle(database)
            tail, report = DurabilityManager(directory).recover(factory)
            assert not report.full_replay
            replayed, report = DurabilityManager(directory).recover(
                factory, use_checkpoint=False)
            assert report.full_replay
            assert assert_matches_oracle(tail) == live
            assert assert_matches_oracle(replayed) == live
            snapshot = load_database(dump_database(database))
            manager.adopt_snapshot(snapshot, manager.record_count,
                                   manager.chain_head)
            adopted, _ = DurabilityManager(directory).recover(factory)
            assert assert_matches_oracle(snapshot) == live
            assert assert_matches_oracle(adopted) == live
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    @given(kind=st.sampled_from(sorted(FACTORIES)), plan=plans())
    @settings(max_examples=30, deadline=None)
    def test_sharded_digest_at_three_shards(self, kind, plan):
        clock = SimulatedClock("01/01/80")
        store = ShardedDatabase(FACTORIES[kind], shards=3, clock=clock)
        clock.set(clock.current() + 1)
        store.define("facts", SCHEMA)
        valid = store.supports_historical_queries
        for step in steps_of(plan):
            clock.set(clock.current() + 1)
            stamp = {"valid_from": clock.current()} if valid else {}
            if step[0] == "insert":
                store.insert("facts", step[1], **stamp)
            elif step[2] is None:
                store.delete("facts", {"k": step[1]}, **stamp)
            else:
                store.replace("facts", {"k": step[1]},
                              {k: v for k, v in step[2].items()
                               if k != "k"}, **stamp)
        shards = [oracle_digest(database)
                  for database in store.shard_databases]
        expected = hashlib.sha256(
            json.dumps(shards, sort_keys=True).encode("utf-8")).hexdigest()
        assert sharded_digest(store) == expected


def churn(database, keys=8, commits=200):
    """A bitemporal history: *keys* rows, then *commits* replaces — far
    fewer distinct instants than stamp occurrences."""
    tick(database)
    database.define("r", Schema.of(key=["k"], k=Domain.STRING,
                                   v=Domain.INTEGER, at=Domain.DATE))
    for key in range(keys):
        tick(database)
        database.insert("r", {"k": f"k{key}", "v": 0,
                              "at": Instant.parse("06/01/79")},
                        valid_from="01/01/79")
    for step in range(commits):
        tick(database)
        database.replace("r", {"k": f"k{step % keys}"}, {"v": step},
                         valid_from="01/01/79")
    return database


def churned():
    return churn(TemporalDatabase(clock=SimulatedClock("01/01/80")))


def date_values(database):
    """``(distinct, occurrences)`` of the finite instants the state's
    DATE-valued attributes hold.  A row's stamps are not among them: they
    are written as chronons, and formatted never."""
    seen = [value for row in database.store("r").rows
            for value in row[0].values
            if isinstance(value, Instant) and value.is_finite]
    return len(set(seen)), len(seen)


class TestDigestCost:
    def test_each_distinct_instant_is_formatted_once_per_call(
            self, monkeypatch):
        database = churned()
        distinct, occurrences = date_values(database)
        assert distinct < occurrences / 2
        calls = []
        real = Granularity.format
        monkeypatch.setattr(Granularity, "format",
                            lambda self, chronon: calls.append(1)
                            or real(self, chronon))
        state_digest(database, cache=False)
        first = len(calls)
        state_digest(database, cache=False)
        # No memo outlives a call: the second uncached digest re-reads
        # (and re-formats) the state exactly as the first did.
        assert first == len(calls) - first == distinct

    def test_each_row_is_written_once_per_call(self, monkeypatch, tmp_path):
        manager = DurabilityManager(str(tmp_path / "dur"))
        database, _ = manager.recover(TemporalDatabase)
        database.manager.clock.source.set("01/01/80")
        churn(database)
        written = []
        real = serializer.row_texts
        monkeypatch.setattr(serializer, "row_texts",
                            lambda rows, memo: written.append(
                                real(rows, memo)) or written[-1])

        def texts_of_one_call():
            del written[:]
            state_digest(database, cache=False)
            return [text for texts in written for text in texts]

        first = texts_of_one_call()
        stored = len(database.store("r").rows)
        assert len(first) == stored
        # Every text is a row of the hashed payload, as it stands.
        payload = oracle_payload(database)
        assert all(text in payload for text in first)
        # Serialising the rows elsewhere (a checkpoint, a dump) leaves
        # nothing behind for the next digest to reuse.
        manager.checkpoint()
        dump_database(database)
        assert texts_of_one_call() == first

    def test_a_plain_store_makes_no_per_row_encoder_call(self, monkeypatch):
        """A state of ``str`` / ``int`` values under day stamps is written a
        column at a time: an uncached digest hands no row to a JSON
        encoder, a stamp writer or a value encoder, so it makes as many
        such calls over 640 rows as over 64."""
        def encoder_calls(replaces):
            database = TemporalDatabase(clock=SimulatedClock("01/01/80"))
            tick(database)
            database.define("r", Schema.of(key=["k"], k=Domain.STRING,
                                           v=Domain.INTEGER))
            for key in range(8):
                tick(database)
                database.insert("r", {"k": f"k{key}", "v": 0},
                                valid_from="01/01/79")
            for step in range(replaces):
                tick(database)
                database.replace("r", {"k": f"k{step % 8}"},
                                 {"v": step + 1}, valid_from="01/01/79")
            assert len(database.store("r").rows) == 8 + replaces
            expected, calls = oracle_digest(database), []

            def counted(real):
                return lambda *args: calls.append(args) or real(*args)
            with monkeypatch.context() as patch:
                for name in ("period_stamp", "encode_value"):
                    patch.setattr(serializer, name,
                                  counted(getattr(serializer, name)))
                patch.setattr(json.JSONEncoder, "encode",
                              counted(json.JSONEncoder.encode))
                make = json.encoder.c_make_encoder
                patch.setattr(serializer, "c_make_encoder",
                              lambda *args: counted(make(*args)),
                              raising=False)
                assert state_digest(database, cache=False) == expected
            return len(calls)

        assert encoder_calls(56) == encoder_calls(632)

    def test_a_cached_digest_copies_no_log(self, monkeypatch):
        """The memo is keyed by the log's length and its last record,
        read without copying the log."""
        database = churned()

        def refuse(log):
            raise AssertionError("the whole log was copied")

        monkeypatch.setattr(CommitLog, "records", property(refuse))
        with obs.recording() as instrumentation:
            first = state_digest(database)
            assert state_digest(database) == first
        counters = instrumentation.metrics.snapshot()["counters"]
        assert counters["digest.cache_hits"] == 1
        assert first == state_digest(database, cache=False)
