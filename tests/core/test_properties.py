"""Property-based tests: the deep invariants of the four database kinds.

These are the load-bearing claims of the reproduction:

1. **Rollback vs. naive model** — the interval-stamped store (Figure 4)
   answers every rollback as an independent, dead-simple model of the
   cube of Figure 3 (snapshots recorded after every commit,
   ``tests/core/snapshot_model.py``) says, for arbitrary transaction
   sequences, and its ``states()`` view holds the model's state at every
   commit that stamped a row, so at every change.
2. **Figure 10 commutes** — dropping either capability commutes with
   the updates.
3. **Temporal = rollback of historical states** — a temporal database's
   rollback(t) equals the historical state an identically-driven
   historical database had at time t.
4. **Snapshot(now) agreement** — all four kinds agree on the current
   snapshot under workloads whose valid times never lead or trail their
   transaction times (where the kinds are defined to coincide).
5. **Coalescing preserves every timeslice.**
"""

from typing import Dict, List, Tuple as PyTuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (HistoricalDatabase, HistoricalRelation,
                        RollbackDatabase, StaticDatabase, TemporalDatabase)
from repro.core.historical import HistoricalRow
from repro.core.operations import changed_instants
from repro.relational import Domain, Schema, Tuple
from repro.time import NEG_INF, Instant, Period, SimulatedClock

from tests.core.snapshot_model import SnapshotModel

SCHEMA = Schema.of(name=Domain.STRING, grade=Domain.INTEGER)

BASE = Instant.parse("01/01/80").chronon

names = st.sampled_from(["a", "b", "c"])
grades = st.integers(min_value=0, max_value=2)


@st.composite
def operations(draw):
    """A random (commit-gap, op) sequence for the snapshot-update kinds."""
    ops = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        gap = draw(st.integers(min_value=1, max_value=5))
        kind = draw(st.sampled_from(["insert", "delete", "replace"]))
        name = draw(names)
        if kind == "insert":
            ops.append((gap, "insert", {"name": name, "grade": draw(grades)}))
        elif kind == "delete":
            ops.append((gap, "delete", {"name": name}))
        else:
            ops.append((gap, "replace", ({"name": name},
                                         {"grade": draw(grades)})))
    return ops


def drive_snapshot_ops(database, ops):
    """Apply random snapshot ops, tolerating key conflicts, returning commits."""
    clock = database.manager.clock.source
    commits = []
    for gap, kind, payload in ops:
        clock.advance(gap)
        try:
            if kind == "insert":
                when = database.insert("r", payload)
            elif kind == "delete":
                when = database.delete("r", payload)
            else:
                when = database.replace("r", payload[0], payload[1])
            commits.append(when)
        except Exception:
            continue  # key violations abort that transaction; fine
    return commits


class TestRollbackEquivalence:
    @given(operations())
    @settings(max_examples=60, deadline=None)
    def test_interval_equals_states_equals_model(self, ops):
        interval_db = RollbackDatabase(clock=SimulatedClock(BASE))
        # The naive model: the same ops into a static DB, snapshotting
        # after every commit.
        model = SnapshotModel(clock=SimulatedClock(BASE))
        for db in (interval_db, model):
            db.define("r", SCHEMA)
        commits = drive_snapshot_ops(interval_db, ops)
        assert drive_snapshot_ops(model, ops) == commits

        probes = [Instant.from_chronon(BASE + offset)
                  for offset in range(0, 80, 3)]
        for probe in probes:
            assert interval_db.rollback("r", probe) == model.state_at(
                "r", probe)
        # The states view: the model's state at every commit that stamped
        # a row, so at every change.
        model.check_view(interval_db.store("r").states(), "r")

    @given(operations())
    @settings(max_examples=40, deadline=None)
    def test_figure_10_square_commutes(self, ops):
        # One op stream into all four kinds, every fact valid over the
        # whole timeline in the two valid-time ones.  Dropping either
        # capability of Figure 10 must commute with the updates: static
        # after a prefix = rollback(t_prefix),
        # historical after it = temporal.rollback(t_prefix), and the
        # temporal diagonal — roll back, then timeslice anywhere — is the
        # rollback database's answer.
        static_db = StaticDatabase(clock=SimulatedClock(BASE))
        rollback_db = RollbackDatabase(clock=SimulatedClock(BASE))
        historical_db = HistoricalDatabase(clock=SimulatedClock(BASE))
        temporal_db = TemporalDatabase(clock=SimulatedClock(BASE))
        valid_time = (historical_db, temporal_db)
        everyone = (static_db, rollback_db, *valid_time)
        for db in everyone:
            db.define("r", SCHEMA)
        prefixes = []
        for gap, kind, payload in ops:
            commits = set()
            for db in everyone:
                db.manager.clock.source.advance(gap)
                if kind == "insert":
                    always = ({"valid_from": NEG_INF} if db in valid_time
                              else {})
                    commits.add(db.insert("r", payload, **always))
                elif kind == "delete":
                    commits.add(db.delete("r", payload))
                else:
                    commits.add(db.replace("r", payload[0], payload[1]))
            (when,) = commits  # the four clocks tick in lock step
            prefixes.append((when, static_db.snapshot("r"),
                             historical_db.history("r")))
        anywhere = [Instant.from_chronon(BASE + offset)
                    for offset in (-1000, 17, 100000)]
        for when, static_state, historical_state in prefixes:
            assert rollback_db.rollback("r", when) == static_state
            believed = temporal_db.rollback("r", when)
            assert believed == historical_state
            for valid_at in anywhere:
                assert believed.timeslice(valid_at) == static_state

    @given(operations())
    @settings(max_examples=40, deadline=None)
    def test_append_only_under_growth(self, ops):
        # Whatever new transactions do, old rollbacks never change.
        database = RollbackDatabase(clock=SimulatedClock(BASE))
        database.define("r", SCHEMA)
        drive_snapshot_ops(database, ops)
        probe = Instant.from_chronon(BASE + 20)
        before = database.rollback("r", probe)
        database.manager.clock.source.set(Instant.from_chronon(BASE + 1000))
        database.insert("r", {"name": "z", "grade": 0})
        assert database.rollback("r", probe) == before


@st.composite
def valid_time_operations(draw):
    """Random valid-time ops for historical/temporal kinds."""
    ops = []
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        gap = draw(st.integers(min_value=1, max_value=5))
        kind = draw(st.sampled_from(["insert", "delete", "replace"]))
        name = draw(names)
        from_offset = draw(st.integers(min_value=-20, max_value=40))
        to_offset = draw(st.one_of(
            st.none(), st.integers(min_value=1, max_value=30)))
        ops.append((gap, kind, name, draw(grades), from_offset, to_offset))
    return ops


def drive_valid_ops(database, ops):
    clock = database.manager.clock.source
    for gap, kind, name, grade, from_offset, to_offset in ops:
        clock.advance(gap)
        now_chronon = clock.current().chronon
        valid_from = Instant.from_chronon(now_chronon + from_offset)
        kwargs = {"valid_from": valid_from}
        if to_offset is not None:
            kwargs["valid_to"] = valid_from + to_offset
        try:
            if kind == "insert":
                database.insert("r", {"name": name, "grade": grade}, **kwargs)
            elif kind == "delete":
                database.delete("r", {"name": name}, **kwargs)
            else:
                database.replace("r", {"name": name}, {"grade": grade},
                                 **kwargs)
        except Exception:
            continue


class TestTemporalIsSequenceOfHistoricalStates:
    @given(valid_time_operations())
    @settings(max_examples=50, deadline=None)
    def test_rollback_reproduces_historical_evolution(self, ops):
        # Drive identical ops into a temporal DB and a historical DB,
        # snapshotting the historical DB's full state after each commit;
        # then check temporal.rollback(t) against the snapshots.
        temporal_db = TemporalDatabase(clock=SimulatedClock(BASE))
        historical_db = HistoricalDatabase(clock=SimulatedClock(BASE))
        temporal_db.define("r", SCHEMA)
        historical_db.define("r", SCHEMA)

        snapshots: List[PyTuple[Instant, HistoricalRelation]] = []
        clock_t = temporal_db.manager.clock.source
        clock_h = historical_db.manager.clock.source
        for gap, kind, name, grade, from_offset, to_offset in ops:
            clock_t.advance(gap)
            clock_h.advance(gap)
            now_chronon = clock_t.current().chronon
            valid_from = Instant.from_chronon(now_chronon + from_offset)
            kwargs = {"valid_from": valid_from}
            if to_offset is not None:
                kwargs["valid_to"] = valid_from + to_offset
            outcome_t = outcome_h = None
            try:
                if kind == "insert":
                    outcome_t = temporal_db.insert(
                        "r", {"name": name, "grade": grade}, **kwargs)
                elif kind == "delete":
                    outcome_t = temporal_db.delete("r", {"name": name},
                                                   **kwargs)
                else:
                    outcome_t = temporal_db.replace(
                        "r", {"name": name}, {"grade": grade}, **kwargs)
            except Exception:
                pass
            try:
                if kind == "insert":
                    outcome_h = historical_db.insert(
                        "r", {"name": name, "grade": grade}, **kwargs)
                elif kind == "delete":
                    outcome_h = historical_db.delete("r", {"name": name},
                                                     **kwargs)
                else:
                    outcome_h = historical_db.replace(
                        "r", {"name": name}, {"grade": grade}, **kwargs)
            except Exception:
                pass
            # The two kinds accept/reject identically (same sequenced-key rule).
            assert (outcome_t is None) == (outcome_h is None)
            if outcome_t is not None:
                snapshots.append((outcome_t, historical_db.history("r")))

        # The temporal relation's rollback reproduces every recorded state.
        for when, expected in snapshots:
            assert temporal_db.rollback("r", when) == expected
        # And the final current state agrees.
        assert temporal_db.history("r") == historical_db.history("r")

    @given(valid_time_operations())
    @settings(max_examples=30, deadline=None)
    def test_historical_states_method_agrees_with_rollback(self, ops):
        database = TemporalDatabase(clock=SimulatedClock(BASE))
        database.define("r", SCHEMA)
        drive_valid_ops(database, ops)
        relation = database.temporal("r")
        for when, state in relation.states():
            assert state == relation.rollback(when)


@st.composite
def small_histories(draw):
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        start = draw(st.integers(min_value=0, max_value=25))
        length = draw(st.integers(min_value=1, max_value=12))
        rows.append(HistoricalRow(
            Tuple(SCHEMA, {"name": draw(names), "grade": draw(grades)}),
            Period(Instant.from_chronon(BASE + start),
                   Instant.from_chronon(BASE + start + length))))
    return HistoricalRelation(SCHEMA, rows)


class TestTemporalSetAlgebra:
    """union/intersect/difference are snapshot homomorphisms."""

    PROBES = [Instant.from_chronon(BASE + offset) for offset in range(-1, 40)]

    @given(small_histories(), small_histories())
    @settings(max_examples=60, deadline=None)
    def test_union_homomorphic(self, a, b):
        combined = a.union(b)
        for probe in self.PROBES:
            assert combined.timeslice(probe) == \
                a.timeslice(probe).union(b.timeslice(probe))

    @given(small_histories(), small_histories())
    @settings(max_examples=60, deadline=None)
    def test_intersect_homomorphic(self, a, b):
        combined = a.intersect(b)
        for probe in self.PROBES:
            assert combined.timeslice(probe) == \
                a.timeslice(probe).intersect(b.timeslice(probe))

    @given(small_histories(), small_histories())
    @settings(max_examples=60, deadline=None)
    def test_difference_homomorphic(self, a, b):
        combined = a.difference(b)
        for probe in self.PROBES:
            assert combined.timeslice(probe) == \
                a.timeslice(probe).difference(b.timeslice(probe))

    @given(small_histories(), small_histories())
    @settings(max_examples=40, deadline=None)
    def test_intersect_via_double_difference(self, a, b):
        assert a.intersect(b) == a.difference(a.difference(b))

    @given(small_histories())
    @settings(max_examples=30, deadline=None)
    def test_self_difference_empty(self, a):
        assert a.difference(a).coalesce().is_empty

    @given(small_histories(), small_histories())
    @settings(max_examples=30, deadline=None)
    def test_intersect_commutative(self, a, b):
        assert a.intersect(b) == b.intersect(a)


class TestMigrationProperties:
    @given(operations())
    @settings(max_examples=40, deadline=None)
    def test_rollback_to_temporal_diagonal(self, ops):
        # For arbitrary update sequences, the migrated temporal database's
        # state-as-of-t, sliced at t, equals the source's rollback(t).
        from repro.core import migrate
        source = RollbackDatabase(clock=SimulatedClock(BASE))
        source.define("r", SCHEMA)
        drive_snapshot_ops(source, ops)
        target = migrate(source, TemporalDatabase)
        probes = [Instant.from_chronon(BASE + offset)
                  for offset in range(0, 80, 7)]
        for probe in probes:
            assert target.rollback("r", probe).timeslice(probe) == \
                source.rollback("r", probe), probe

    @given(valid_time_operations())
    @settings(max_examples=30, deadline=None)
    def test_historical_to_temporal_preserves_history(self, ops):
        from repro.core import migrate
        source = HistoricalDatabase(clock=SimulatedClock(BASE))
        source.define("r", SCHEMA)
        drive_valid_ops(source, ops)
        target = migrate(source, TemporalDatabase)
        assert target.history("r") == source.history("r")

    @given(operations())
    @settings(max_examples=30, deadline=None)
    def test_downgrade_to_static_keeps_snapshot(self, ops):
        from repro.core import migrate
        source = RollbackDatabase(clock=SimulatedClock(BASE))
        source.define("r", SCHEMA)
        drive_snapshot_ops(source, ops)
        target = migrate(source, StaticDatabase, allow_loss=True)
        assert target.snapshot("r") == source.snapshot("r")


class TestCoalescingPreservesSnapshots:
    @st.composite
    def historical_relations(draw):
        rows = []
        for _ in range(draw(st.integers(min_value=0, max_value=8))):
            start = draw(st.integers(min_value=0, max_value=30))
            length = draw(st.integers(min_value=1, max_value=15))
            rows.append(HistoricalRow(
                Tuple(SCHEMA, {"name": draw(names), "grade": draw(grades)}),
                Period(Instant.from_chronon(BASE + start),
                       Instant.from_chronon(BASE + start + length))))
        return HistoricalRelation(SCHEMA, rows)

    @given(historical_relations())
    @settings(max_examples=80, deadline=None)
    def test_every_timeslice_preserved(self, relation):
        coalesced = relation.coalesce()
        probes = changed_instants(relation) + [Instant.from_chronon(BASE - 1)]
        for probe in probes:
            assert coalesced.timeslice(probe) == relation.timeslice(probe)

    @given(historical_relations())
    @settings(max_examples=50, deadline=None)
    def test_coalesce_idempotent(self, relation):
        once = relation.coalesce()
        assert frozenset(once.rows) == frozenset(once.coalesce().rows)

    @given(historical_relations())
    @settings(max_examples=50, deadline=None)
    def test_equality_agrees_with_probed_equivalence(self, relation):
        shuffled = HistoricalRelation(SCHEMA, reversed(relation.rows))
        assert relation == shuffled
