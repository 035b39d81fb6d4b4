"""The access rule: what ``auto`` takes, forcing, and the explain contract.

``auto`` settles each range variable by one rule: the key probe when the
leading conjuncts pin the whole schema key of a current-state read, else
the transaction-time tree when one answers the statement's clauses, else
the scan.  A forced mode takes its path where the store has one and
otherwise degrades to the scan, saying so.
"""

import pytest

from repro import obs
from repro.core import (HistoricalDatabase, RollbackDatabase, StaticDatabase,
                        TemporalDatabase)
from repro.errors import TQuelSemanticError
from repro.relational import Domain, Schema
from repro.sharding import ShardedDatabase
from repro.time import SimulatedClock
from repro.tquel import Session
from repro.tquel.evaluator import KEY_HISTORY_ACCESS, PLAN_MODES, Evaluator

from tests.conftest import build_faculty

TREE = "auto: a transaction-time tree answers these clauses"
SCAN = "auto: no transaction-time tree answers these clauses"

KINDS = {
    "static": (StaticDatabase, {}),
    "rollback interval": (RollbackDatabase, {}),
    "historical": (HistoricalDatabase, {}),
    "temporal": (TemporalDatabase, {}),
    "sharded static": (ShardedDatabase,
                       {"factory": StaticDatabase, "shards": 3}),
    "sharded rollback interval": (ShardedDatabase,
                                  {"factory": RollbackDatabase, "shards": 3}),
    "sharded historical": (ShardedDatabase,
                           {"factory": HistoricalDatabase, "shards": 3}),
    "sharded temporal": (ShardedDatabase,
                         {"factory": TemporalDatabase, "shards": 3}),
}

CLAUSES = {
    "current": 'retrieve (f.name) where f.rank = "full"',
    "as of": 'retrieve (f.name) where f.rank = "full" as of "12/10/82"',
    "through": 'retrieve (f.name) where f.rank = "full" '
               'as of "12/02/82" through "12/20/82"',
}

#: kind -> mode -> the outcome under (current, as of, through): "tree" /
#: "scan" for the rule's two answers, "forced" for the forced path taken,
#: "degraded" for a forced path this store lacks, None where the analyzer
#: refuses the clause (the kind has no transaction time).
TABLE = {
    "static": {
        "auto": ("scan", None, None),
        "naive": ("forced", None, None),
        "index": ("degraded", None, None),
        "columnar": ("degraded", None, None)},
    "rollback interval": {
        "auto": ("scan", "tree", "tree"),
        "naive": ("forced",) * 3,
        "index": ("degraded", "forced", "forced"),
        "columnar": ("forced",) * 3},
    "historical": {
        "auto": ("scan", None, None),
        "naive": ("forced", None, None),
        "index": ("degraded", None, None),
        "columnar": ("forced", None, None)},
    "temporal": {
        "auto": ("tree",) * 3,
        "naive": ("forced",) * 3,
        "index": ("forced",) * 3,
        "columnar": ("forced",) * 3},
    # A sharded store reads each shard as that shard's kind would, and
    # concatenates; the facade keeps no column chunk of its own.
    "sharded static": {
        "auto": ("scan", None, None),
        "naive": ("forced", None, None),
        "index": ("degraded", None, None),
        "columnar": ("degraded", None, None)},
    "sharded rollback interval": {
        "auto": ("scan", "tree", "tree"),
        "naive": ("forced",) * 3,
        "index": ("degraded", "forced", "forced"),
        "columnar": ("degraded",) * 3},
    "sharded historical": {
        "auto": ("scan", None, None),
        "naive": ("forced", None, None),
        "index": ("degraded", None, None),
        "columnar": ("degraded", None, None)},
    "sharded temporal": {
        "auto": ("tree",) * 3,
        "naive": ("forced",) * 3,
        "index": ("forced",) * 3,
        "columnar": ("degraded",) * 3},
}


def expected(outcome, mode):
    """The ``(plan, plan_reason)`` pair an outcome of TABLE stands for."""
    return {"tree": ("index", TREE),
            "scan": ("naive", SCAN),
            "forced": (mode, f"forced plan {mode!r}"),
            "degraded": ("naive", f"forced plan {mode!r} unavailable here; "
                                  f"using naive")}[outcome]


def faculty(kind="temporal", plan="auto"):
    db_class, options = KINDS[kind]
    database, _ = build_faculty(db_class, **options)
    session = Session(database, plan=plan)
    session.execute("range of f is faculty")
    return session


def explained(session, text):
    return session.explain_plan(text, timings=False)["variables"]["f"]


class TestTheRule:
    @pytest.mark.parametrize("clause", sorted(CLAUSES))
    @pytest.mark.parametrize("mode", PLAN_MODES)
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_every_kind_mode_and_clause(self, kind, mode, clause):
        session = faculty(kind, mode)
        text = CLAUSES[clause]
        outcome = TABLE[kind][mode][list(CLAUSES).index(clause)]
        if outcome is None:
            with pytest.raises(TQuelSemanticError):
                session.explain_plan(text)
            with pytest.raises(TQuelSemanticError):
                session.query(text)
            return
        path, reason = expected(outcome, mode)
        info = explained(session, text)
        assert (info["plan"], info["plan_reason"]) == (path, reason)
        with obs.recording() as inst:
            result = session.query(text)
        counters = inst.metrics.snapshot()["counters"]
        assert {name: count for name, count in counters.items()
                if name.startswith("tquel.plan.")} == {f"tquel.plan.{path}": 1}
        if kind.startswith("sharded "):  # the rows and class of one store
            plain = faculty(kind.removeprefix("sharded "), mode).query(text)
            assert (type(result), result) == (type(plain), plain)

    @pytest.mark.parametrize("kind", ["historical", "temporal"])
    def test_a_sharded_store_matches_updates_as_one_store(self, kind):
        # A TQuel delete matches every fact of the current history, not
        # only those valid now: Ann's starts after the clock.
        for name in (kind, f"sharded {kind}"):
            session = faculty(name)
            session.execute('append to faculty (name = "Ann", rank = "full")'
                            ' valid from "01/01/90"')
            session.execute('delete f where f.name = "Ann"')
            history = session.database.history("faculty")
            assert "Ann" not in {row.data["name"] for row in history}, name

    def test_a_wide_historical_filter_is_scanned_not_packed(self):
        # No row count or conjunct count moves the rule: a historical
        # relation has no transaction-time tree, so `auto` scans it and
        # never builds a column chunk (only plan=columnar does).
        database = HistoricalDatabase(clock=SimulatedClock("01/01/80"))
        names = "abcde"
        database.define("facts", Schema.of(
            key=["k"], k=Domain.INTEGER,
            **{name: Domain.INTEGER for name in names}))
        batch = database.begin()
        for k in range(512):
            database.insert("facts", {"k": k, **dict.fromkeys(names, k)},
                            txn=batch, valid_from="01/01/80")
        batch.commit()
        session = Session(database)
        session.execute("range of f is facts")
        text = "retrieve (f.k) where " + " and ".join(
            f"f.{name} >= 100" for name in names)
        info = explained(session, text)
        assert (info["plan"], info["plan_reason"]) == ("naive", SCAN)
        assert len(session.query(text)) == 412
        assert database.columnar_cache.misses == 0


class TestChoose:
    def test_selective_as_of_stab_picks_index(self):
        info = explained(faculty(), 'retrieve (f.rank) as of "12/10/82"')
        assert (info["plan"], info["plan_reason"]) == ("index", TREE)

    def test_missing_index_is_not_offered(self):
        # A historical store keeps no transaction-time tree to stab.
        info = explained(faculty("historical"), "retrieve (f.rank)")
        assert info["plan"] != "index"

    def test_forced_mode_skips_costing(self):
        info = explained(faculty(plan="columnar"), "retrieve (f.rank)")
        assert info["plan"] == "columnar"
        assert info["plan_reason"] == "forced plan 'columnar'"

    def test_forced_unavailable_degrades_to_naive(self):
        info = explained(faculty("static", plan="index"), "retrieve (f.rank)")
        assert info["plan"] == "naive"
        assert info["plan_reason"] == \
            "forced plan 'index' unavailable here; using naive"

    def test_unknown_mode_rejected(self):
        database, _ = build_faculty(TemporalDatabase)
        with pytest.raises(ValueError, match="plan must be one of"):
            Evaluator(database, {"f": "faculty"}, plan="quantum")


class TestSessionKnob:
    def test_invalid_plan_rejected_with_modes_listed(self):
        assert PLAN_MODES == ("auto", "naive", "index", "columnar")
        database, _ = build_faculty(TemporalDatabase)
        with pytest.raises(ValueError) as err:
            Session(database, plan="speedy")
        assert str(err.value) == \
            f"plan must be one of {', '.join(PLAN_MODES)}; got 'speedy'"

    def test_plan_property_roundtrips(self):
        database, _ = build_faculty(TemporalDatabase)
        session = Session(database)
        assert session.plan == "auto"
        session.plan = "columnar"
        assert session.plan == "columnar"


class TestExplainContract:
    def session(self, db_class, plan="auto"):
        database, _ = build_faculty(db_class)
        session = Session(database, plan=plan)
        session.execute("range of f is faculty")
        return session

    def test_plan_keys_present_per_variable(self):
        session = self.session(TemporalDatabase)
        plan = session.explain_plan(
            'retrieve (f.rank) where f.name = "Merrie" as of "12/10/82"')
        info = plan["variables"]["f"]
        assert set(info) == {"relation", "candidates", "after_pushdown",
                             "pushed_conjuncts", "index", "plan",
                             "plan_reason"}
        # The key is bound: the read walks Merrie's versions only.
        assert info["plan"] == "index" and info["plan_reason"] == \
            "key lookup: name bound by ="
        assert info["index"] == KEY_HISTORY_ACCESS
        assert info["candidates"] == 1
        assert plan["planner_mode"] == "auto"

    def test_explain_reports_forced_mode(self):
        session = self.session(TemporalDatabase, plan="columnar")
        plan = session.explain_plan('retrieve (f.rank) as of "12/10/82"')
        assert plan["planner_mode"] == "columnar"
        assert plan["variables"]["f"]["plan"] == "columnar"
        assert plan["variables"]["f"]["plan_reason"] == \
            "forced plan 'columnar'"

    def test_explain_reports_degradation(self):
        session = self.session(StaticDatabase, plan="columnar")
        plan = session.explain_plan("retrieve (f.rank)")
        assert plan["variables"]["f"]["plan"] == "naive"
        assert "unavailable here" in plan["variables"]["f"]["plan_reason"]

    def test_timings_false_is_verbatim_stable(self):
        # The doc-sync transcripts in docs/QUERY_PLANNING.md rely on
        # this exact rendering; keep the two in lockstep.
        session = self.session(TemporalDatabase)
        text = session.explain(
            'retrieve (f.rank) where f.name = "Merrie" as of "12/10/82"',
            timings=False)
        assert text == session.explain(
            'retrieve (f.rank) where f.name = "Merrie" as of "12/10/82"',
            timings=False)
        assert text.splitlines() == [
            "retrieve on a temporal database -> temporal result "
            "(planner: auto)",
            "  f over faculty: 1 candidates -> 1, 1 conjunct(s) pushed",
            f"    access path: {KEY_HISTORY_ACCESS}",
            "    plan: index (key lookup: name bound by =)",
            "  product of 1 combination(s), 0 residual conjunct(s)",
            "  temporal clauses: as of 1982-12-10"]

    def test_timings_true_appends_phases(self):
        session = self.session(TemporalDatabase)
        plan = session.explain_plan('retrieve (f.rank) as of "12/10/82"')
        assert list(plan["phases"]) == ["lex", "parse", "analyze", "plan"]

    def test_explain_has_no_cache_side_effects(self):
        session = self.session(TemporalDatabase)
        session.explain_plan(
            'retrieve (f.rank) where f.name = "Merrie" as of "12/10/82"')
        assert len(session.database.result_cache) == 0

    def test_plan_counts_match_on_every_kind(self):
        for db_class in (StaticDatabase, RollbackDatabase,
                         HistoricalDatabase, TemporalDatabase):
            session = self.session(db_class)
            text = "retrieve (f.name)"
            info = session.explain_plan(text)["variables"]["f"]
            with obs.recording() as inst:
                session.query(text)
            counters = inst.metrics.snapshot()["counters"]
            assert counters[f"tquel.plan.{info['plan']}"] == 1, db_class
