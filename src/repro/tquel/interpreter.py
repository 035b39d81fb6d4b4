"""The TQuel session: the user-facing entry point of the language.

A :class:`Session` holds one database, the range-variable environment
(``range of f is faculty`` persists across statements, as in Quel), and
runs the full pipeline per statement: lex → parse → analyze → evaluate.

::

    from repro.core import TemporalDatabase
    from repro.tquel import Session

    session = Session(TemporalDatabase())
    session.execute('create faculty (name = string, rank = string) key (name)')
    session.execute('append to faculty (name = "Tom", rank = "associate") '
                    'valid from "12/05/82"')
    session.execute('range of f is faculty')
    result = session.execute('retrieve (f.rank) where f.name = "Tom"')
    print(session.render(result))
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.core.base import Database
from repro.core.historical import HistoricalRelation
from repro.core.temporal import TemporalRelation
from repro.obs import runtime as _obs
from repro.obs.runtime import Instrumentation
from repro.relational.relation import Relation
from repro.tquel.analyzer import analyze
from repro.tquel.ast import RangeStmt, Statement
from repro.tquel.evaluator import Evaluator, Result, plan_mode
from repro.tquel.lexer import tokenize
from repro.tquel.parser import parse_script, parse_tokens
from repro.tquel import printer


class Session:
    """An interactive TQuel session over one database.

    ``plan`` is the session-wide access-path knob: ``"auto"`` settles
    each range variable by one rule (:func:`repro.tquel.evaluator.plan_of`:
    the key probe, else the transaction-time tree where one answers, else
    the scan); ``"naive"``/``"index"``/``"columnar"`` force one path
    everywhere (the shell exposes this as ``.plan``).
    """

    def __init__(self, database: Database, plan: str = "auto",
                 ranges: Optional[Dict[str, str]] = None) -> None:
        self._db = database
        #: *ranges* seeds the range-variable environment — the serving
        #: layer keeps bindings per connection and rebuilds a Session
        #: per request (possibly against a replica's database), so the
        #: bindings must be injectable rather than only accreted.
        self._ranges: Dict[str, str] = dict(ranges) if ranges else {}
        self.plan = plan

    @property
    def database(self) -> Database:
        """The underlying database."""
        return self._db

    @property
    def plan(self) -> str:
        """The access-path mode every evaluator of this session uses."""
        return self._plan

    @plan.setter
    def plan(self, mode: str) -> None:
        self._plan = plan_mode(mode)

    @property
    def ranges(self) -> Dict[str, str]:
        """The live range-variable bindings (variable -> relation name)."""
        return dict(self._ranges)

    # -- execution -----------------------------------------------------------------

    def execute(self, source: str) -> Result:
        """Run one statement of TQuel source and return its result.

        Retrieves return a relation value of the kind the database produces
        (static / historical / temporal); updates and DDL return the commit
        time; ``range of`` returns ``None``.

        The four pipeline phases run under nested spans
        (``tquel.statement`` > ``tquel.lex`` / ``tquel.parse`` /
        ``tquel.analyze`` / ``tquel.evaluate``) — no-ops unless recording
        is on.
        """
        obs = _obs.current()
        with obs.tracer.span("tquel.statement"):
            obs.metrics.counter("tquel.statements").inc()
            with obs.tracer.span("tquel.lex"):
                tokens = tokenize(source)
            with obs.tracer.span("tquel.parse"):
                statement = parse_tokens(tokens)
            return self._execute_parsed(statement)

    def execute_statement(self, statement: Statement) -> Result:
        """Run one parsed statement (analyze, evaluate, update bindings)."""
        obs = _obs.current()
        with obs.tracer.span("tquel.statement"):
            obs.metrics.counter("tquel.statements").inc()
            return self._execute_parsed(statement)

    def _execute_parsed(self, statement: Statement) -> Result:
        """The analyze + evaluate tail shared by both entry points."""
        tracer = _obs.current().tracer
        with tracer.span("tquel.analyze"):
            analyze(statement, self._db, self._ranges)
        evaluator = Evaluator(self._db, self._ranges, plan=self._plan)
        with tracer.span("tquel.evaluate"):
            result = evaluator.execute(statement)
        if isinstance(statement, RangeStmt):
            self._ranges[statement.variable] = statement.relation
        return result

    def execute_script(self, source: str) -> List[Result]:
        """Run a multi-statement script, returning every result in order."""
        return [self.execute_statement(statement)
                for statement in parse_script(source)]

    # -- convenience ------------------------------------------------------------------

    def query(self, source: str) -> Union[Relation, HistoricalRelation,
                                          TemporalRelation]:
        """Run a retrieve and insist on a relation result."""
        result = self.execute(source)
        if not isinstance(result, (Relation, HistoricalRelation,
                                   TemporalRelation)):
            raise TypeError(f"{source!r} did not produce a relation")
        return result

    def explain_plan(self, source: str,
                     timings: bool = True) -> Dict[str, object]:
        """The raw explain plan, with measured pipeline-phase timings.

        Runs lex → parse → analyze → plan under a private (not installed)
        :class:`~repro.obs.Instrumentation` so the timings are recorded
        even when process-wide recording is off; of the global registry
        only ``tquel.parse.template_*`` and ``tquel.analyze.shape_*``
        count (explain parses and analyzes through the same shape table).
        The returned dict is the evaluator's plan
        (per-variable candidate counts, pushdown effect, the access path
        that ran and why) plus a ``"phases"`` map of phase name →
        seconds.  ``timings=False`` omits the ``"phases"`` key — every
        remaining field is a pure function of database state, so the
        plan (and its text rendering) can be asserted verbatim; the
        doc-sync transcripts in ``docs/QUERY_PLANNING.md`` rely on this.
        """
        local = Instrumentation(capacity=16)
        with local.tracer.span("lex"):
            tokens = tokenize(source)
        with local.tracer.span("parse"):
            statement = parse_tokens(tokens)
        with local.tracer.span("analyze"):
            analyze(statement, self._db, self._ranges)
        with local.tracer.span("plan"):
            plan = Evaluator(self._db, self._ranges,
                             plan=self._plan).explain(statement)
        if timings:
            plan["phases"] = {span.name: span.duration
                              for span in local.tracer.spans()}
        return plan

    def explain(self, source: str, timings: bool = True) -> str:
        """Describe how a retrieve would execute, as readable text.

        Shows the candidate source, count, index access path and chosen
        plan per range variable (before and after selection pushdown),
        the residual predicate size, the temporal clauses, the result
        kind, and the measured time of each pipeline phase — without
        forming the product.  With ``timings=False`` the output is fully
        deterministic (stable key order, no measured durations) and can
        be asserted verbatim — the contract ``docs/QUERY_PLANNING.md``'s
        annotated transcripts depend on.
        """
        plan = self.explain_plan(source, timings=timings)
        lines = [f"retrieve on a {plan['database_kind']} database "
                 f"-> {plan['result_kind']} result (planner: "
                 f"{plan['planner_mode']})"]
        for variable, info in plan["variables"].items():
            note = (f", {info['pushed_conjuncts']} conjunct(s) pushed"
                    if info["pushed_conjuncts"] else "")
            lines.append(
                f"  {variable} over {info['relation']}: "
                f"{info['candidates']} candidates -> "
                f"{info['after_pushdown']}{note}")
            lines.append(f"    access path: {info['index']}")
            lines.append(f"    plan: {info['plan']} ({info['plan_reason']})")
        lines.append(f"  product of {plan['product_size']} combination(s), "
                     f"{plan['residual_conjuncts']} residual conjunct(s)")
        clauses = []
        if plan["when"]:
            clauses.append("when")
        if plan["valid_clause"]:
            clauses.append("valid")
        if plan["as_of"]:
            clauses.append(f"as of {plan['as_of']}"
                           + (f" through {plan['through']}"
                              if plan["through"] else ""))
        if clauses:
            lines.append("  temporal clauses: " + ", ".join(clauses))
        if "phases" in plan:
            lines.append("  phases: " + ", ".join(
                f"{name} {duration * 1e6:.1f}us"
                for name, duration in plan["phases"].items()))
        return "\n".join(lines)

    def migrate_database(self, target_class, allow_loss: bool = False):
        """Migrate the session's database to another kind, in place.

        Range-variable bindings survive (relation names carry over).  See
        :func:`repro.core.migrate.migrate` for what each direction keeps.
        """
        from repro.core.migrate import migrate
        self._db = migrate(self._db, target_class, allow_loss=allow_loss)
        return self._db

    def render(self, result: Result, title: Optional[str] = None,
               event: bool = False) -> str:
        """Render a result the way the paper's figures do."""
        if result is None or not isinstance(
                result, (Relation, HistoricalRelation, TemporalRelation)):
            return printer.render(None, title)
        return printer.render(result, title, event=event)

    def show(self, source: str, title: Optional[str] = None) -> str:
        """Execute and render in one step (the REPL's workhorse)."""
        return self.render(self.execute(source), title=title)

    def __repr__(self) -> str:
        bindings = ", ".join(f"{var}→{rel}" for var, rel in
                             sorted(self._ranges.items())) or "no ranges"
        return f"Session({self._db.kind} database; {bindings})"
