"""The database: Figure 10's four kinds are one class and two flags.

A :class:`Database` is a set of named relations (schemas + stores), a
:class:`~repro.txn.manager.TransactionManager`, and a
position in the taxonomy (:attr:`Database.kind`).  Each method reads the
kind's two flags, and the kind picks its relations' stored form; the four
kinds in :mod:`repro.core` name their kind and nothing else:

======================  ==========  ==========  ===========  =========
operation               static      rollback    historical   temporal
======================  ==========  ==========  ===========  =========
``snapshot``            yes         yes         yes          yes
``rollback`` (as of)    —           yes         —            yes
``timeslice`` (valid)   —           —           yes          yes
``history``             —           —           yes          yes
======================  ==========  ==========  ===========  =========

The dashes are not missing features but *category errors*: the call
raises :class:`~repro.errors.RollbackNotSupportedError` /
:class:`~repro.errors.HistoricalNotSupportedError` with the database kind
named, which is Figure 11 of the paper enforced at runtime (and, for
TQuel, at analysis time).  One update API serves every kind: a fact
without valid time is a fact valid over all time.

DDL (``define``/``drop``) is immediate and journaled as its own
transaction; DML is buffered in transactions and applied atomically at a
system-assigned commit time.
"""

from __future__ import annotations

import itertools
from typing import (Any, Callable, Dict, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple as PyTuple, Union)

from repro.core.taxonomy import DatabaseKind
from repro.errors import (ConstraintViolation, DuplicateRelationError,
                          HistoricalNotSupportedError,
                          RollbackNotSupportedError, TemporalSupportError,
                          UnknownRelationError)
from repro.obs import runtime as _obs
from repro.relational.constraints import (CheckConstraint, Constraint,
                                          KeyConstraint, NotNullConstraint,
                                          check_all)
from repro.relational.relation import Predicate, Relation
from repro.relational.schema import Schema
from repro.relational.tuple import Tuple
from repro.time.clock import Clock
from repro.time.instant import Instant, instant as _coerce
from repro.time.period import Period
from repro.txn.log import CommitLog
from repro.txn.manager import TransactionManager
from repro.txn.transaction import Operation, Transaction

InstantLike = Union[Instant, str, int]

#: Catalog epochs: no two databases, nor one across DDL, share one.
_CATALOG_EPOCHS = itertools.count()


def _rows_examined(metrics):
    """The counter both commit passes feed (``metrics.handles`` binds it)."""
    return metrics.counter("commit.rows_examined")


class Read(NamedTuple):
    """A TQuel read's answer (:meth:`Database.read`): ``explain``'s words
    for the access path, whether an index (a tree, a key probe) answered,
    and one ``(data, valid, tt)`` per row, ``None`` on an axis not kept."""

    access: str
    indexed: bool
    candidates: Sequence[Any]


class Database:
    """The database of every kind: one update API, one commit path and
    the queries of Figure 11, each reading the kind's two flags."""

    #: The kind of database, per the taxonomy (set by each subclass).
    kind: DatabaseKind

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self._schemas: Dict[str, Schema] = {}
        self._constraints: Dict[str, List[Constraint]] = {}
        self._event_relations: set = set()
        #: name -> the value the kind keeps of the relation (immutable;
        #: a commit installs fresh values, never edits one in place).
        self._store: Dict[str, Any] = {}
        self._manager = TransactionManager(self._apply, clock)
        # Per-relation version counters: bumped once per committed batch
        # that touches the relation (DML, define, drop).  Monotone across
        # drop/redefine, so a version never aliases an older value.
        self._versions: Dict[str, int] = {}
        # Per-relation commit time of the latest touching batch.  The
        # result cache uses it to decide whether an as-of pin lies
        # entirely in the immutable past.
        self._last_change: Dict[str, Instant] = {}
        self._index_cache: Optional[Any] = None
        self._columnar_cache: Optional[Any] = None
        self._result_cache: Optional[Any] = None
        #: A new value per DDL batch: TQuel files its analyses under it.
        self.catalog_epoch = next(_CATALOG_EPOCHS)

    # -- capabilities ----------------------------------------------------------

    @property
    def supports_rollback(self) -> bool:
        """True if the database incorporates transaction time (Figure 11)."""
        return self.kind.supports_rollback

    @property
    def supports_historical_queries(self) -> bool:
        """True if the database incorporates valid time (Figure 11)."""
        return self.kind.supports_historical_queries

    def require_rollback(self, operation: str = "as of") -> None:
        """Raise unless this kind supports transaction time."""
        if not self.supports_rollback:
            raise RollbackNotSupportedError(
                f"{operation!r} requires transaction time, which a "
                f"{self.kind} database does not support"
            )

    def require_historical(self, operation: str = "when") -> None:
        """Raise unless this kind supports valid time."""
        if not self.supports_historical_queries:
            raise HistoricalNotSupportedError(
                f"{operation!r} requires valid time, which a "
                f"{self.kind} database does not support"
            )

    # -- bookkeeping --------------------------------------------------------------

    @property
    def manager(self) -> TransactionManager:
        """The transaction manager (clock + log)."""
        return self._manager

    @property
    def log(self) -> CommitLog:
        """The append-only commit log."""
        return self._manager.log

    def now(self) -> Instant:
        """The database clock's current reading."""
        return self._manager.now()

    def relation_version(self, name: str) -> int:
        """How many committed batches have touched *name* (0 if none).

        The counter keys the index cache: an index built for
        ``(name, version)`` stays valid until another commit touches that
        very relation — commits elsewhere no longer invalidate it.
        """
        return self._versions.get(name, 0)

    def last_change(self, name: str) -> Optional[Instant]:
        """The commit time of the latest batch that touched *name*.

        ``None`` before any commit has.  An ``as of`` pin at or before
        this instant reads only rows whose membership in the answer can
        no longer change — the immutability test behind the result
        cache's cache-forever flavor (see :mod:`repro.core.resultcache`;
        the evaluator additionally requires every contributing
        transaction period to be closed).
        """
        return self._last_change.get(name)

    @property
    def index_cache(self):
        """The live :class:`~repro.core.indexing.DatabaseIndexCache`.

        Built lazily on first use.  Every read of the past — ``rollback``,
        ``timeslice … as_of`` and TQuel's ``as of`` — goes through it.
        """
        if self._index_cache is None:
            from repro.core.indexing import DatabaseIndexCache  # avoid cycle
            self._index_cache = DatabaseIndexCache(self)
        return self._index_cache

    @property
    def columnar_cache(self):
        """The live :class:`~repro.core.columnar.ColumnarCache`.

        Built lazily on first use.
        """
        if self._columnar_cache is None:
            from repro.core.columnar import ColumnarCache  # avoid cycle
            self._columnar_cache = ColumnarCache(self)
        return self._columnar_cache

    @property
    def result_cache(self):
        """The live :class:`~repro.core.resultcache.ResultCache`.

        Built lazily on first use.
        """
        if self._result_cache is None:
            from repro.core.resultcache import ResultCache  # avoid cycle
            self._result_cache = ResultCache(self)
        return self._result_cache

    def relation_names(self) -> List[str]:
        """All defined relation names, sorted."""
        return sorted(self._schemas)

    def schema(self, name: str) -> Schema:
        """The schema of a relation."""
        self._require_defined(name)
        return self._schemas[name]

    def constraints(self, name: str) -> PyTuple[Constraint, ...]:
        """The declared constraints of a relation."""
        self._require_defined(name)
        return tuple(self._constraints[name])

    def store(self, name: str) -> Any:
        """The stored value of a relation: the kind's
        :class:`~repro.core.transaction_time.StateStore` (for display,
        benches and the acceleration caches)."""
        self._require_defined(name)
        return self._store[name]

    def __contains__(self, name: object) -> bool:
        return name in self._schemas

    def _require_defined(self, name: str) -> None:
        if name not in self._schemas:
            known = ", ".join(self.relation_names()) or "<none>"
            raise UnknownRelationError(
                f"no relation {name!r}; database has: {known}"
            )

    # -- DDL ----------------------------------------------------------------------------

    def define(self, name: str, schema: Schema,
               constraints: Sequence[Constraint] = (),
               event: bool = False) -> Instant:
        """Create a relation; returns the commit time of the DDL transaction.

        ``event=True`` declares an *event* relation (Figure 9): its valid
        time is a single instant per tuple (``valid_at``).  Only database
        kinds with valid time accept it.
        """
        return self._manager.run(
            [self.define_operation(name, schema, constraints, event)])

    def define_operation(self, name: str, schema: Schema,
                         constraints: Sequence[Constraint] = (),
                         event: bool = False) -> Operation:
        """The validated ``define`` operation (the sharded store commits
        it on every shard)."""
        if event:
            self.require_historical("an event relation")
        from repro.core.temporal_constraints import TemporalConstraint
        if any(isinstance(c, TemporalConstraint) for c in constraints):
            self.require_historical("a temporal constraint")
        if name in self._schemas:
            raise DuplicateRelationError(f"relation {name!r} already exists")
        return Operation("define", name,
                         {"schema": schema, "constraints": tuple(constraints),
                          "event": event})

    def is_event_relation(self, name: str) -> bool:
        """True if the relation was defined with ``event=True``."""
        self._require_defined(name)
        return name in self._event_relations

    def drop(self, name: str) -> Instant:
        """Remove a relation (and, in this implementation, its history)."""
        self._require_defined(name)
        return self._manager.run([Operation("drop", name, {})])

    # -- DML plumbing ------------------------------------------------------------------------

    def begin(self) -> Transaction:
        """Start a multi-operation transaction.

        Any number may be open at once: buffering holds nothing, and
        they serialize when they commit.  For conflict detection between
        concurrent callers use :meth:`sessions`.
        """
        return self._manager.begin()

    def commit_unit(self, expand: Callable[[Transaction], None]
                    ) -> Optional[Instant]:
        """Run *expand* and commit what it buffered, as one atomic unit.

        *expand* matches rows against the committed state and buffers
        the operations a statement expands to (pass the transaction as
        the DML methods' ``txn=``).  It runs under the store's
        serialization lock, and the batch commits while that lock is
        still held (reentrantly): no concurrent writer can change a
        matched row between match and apply — a full-row match that then
        matched nothing would be a silently dropped write.
        """
        def unit() -> Optional[Instant]:
            with self.begin() as batch:
                expand(batch)
            return batch.commit_time

        return self.manager.certify(unit)

    def sessions(self, retry: Optional[Any] = None,
                 admission: Optional[Any] = None, **kwargs: Any):
        """A concurrent session layer over this database.

        N threads may call :meth:`SessionLayer.run
        <repro.concurrency.layer.SessionLayer.run>` on the returned
        layer concurrently; commits validate optimistically
        (first-committer-wins) and still serialize into the paper's
        strictly-increasing transaction-time order.  ``retry`` /
        ``admission`` override the default
        :class:`~repro.concurrency.retry.RetryPolicy` and
        :class:`~repro.concurrency.admission.AdmissionController`;
        see docs/CONCURRENCY.md for the isolation contract.
        """
        from repro.concurrency import SessionLayer  # avoid cycle
        return SessionLayer(self, retry=retry, admission=admission, **kwargs)

    # -- the session seam (docs/CONCURRENCY.md) ----------------------------------------
    #
    # The four questions the one SessionLayer asks of a store: which
    # footprint keys an access touches, a key's current version, how to
    # validate-and-commit (or just certify) under the locks that
    # footprint needs, and what token / SLO class a commit earned.  Here
    # every answer is relation-granular over one pipeline;
    # ShardedDatabase answers the same questions per ``relation@shard``.

    def read_footprint(self, name: str,
                       key: Optional[Mapping[str, Any]] = None,
                       ) -> PyTuple[str, ...]:
        """The footprint keys a read of *name* depends on.

        *key* narrows the read to the rows it matches; at relation
        granularity that changes nothing.
        """
        return (name,)

    def write_footprint(self, operation: Operation) -> PyTuple[str, ...]:
        """The footprint keys buffering *operation* depends on."""
        return (operation.relation,)

    def footprint_version(self, key: str) -> int:
        """The current version of one footprint key."""
        return self._versions.get(key, 0)

    def commit(self, operations: Sequence[Operation],
               footprint: Sequence[str],
               validate: Optional[Any] = None) -> Instant:
        """Run *validate*, then commit *operations*, as one atomic step.

        The single serialization lock covers any *footprint*.
        """
        return self._manager.run(operations, validate=validate)

    def certify(self, footprint: Sequence[str], validate: Any) -> Any:
        """Run *validate* atomically against every commit to *footprint*;
        returns whatever it returns."""
        return self._manager.certify(validate)

    def commit_token(self) -> int:
        """The read-your-writes token: commits logged so far."""
        return len(self._manager.log)

    def op_class(self, operations: Sequence[Operation]) -> str:
        """The SLO class of a committed write batch (one pipeline here)."""
        return "single_shard_write"

    def get(self, name: str, key: Mapping[str, Any]) -> List[Tuple]:
        """The current rows of *name* agreeing with *key*, read atomically:
        where *key* binds the whole schema key, one probe of the key's
        open rows (those valid now), else a scan of the snapshot."""
        def rows() -> List[Tuple]:
            now = self.now()
            found = self.read(name, now, key=key)
            facts = (self.snapshot(name) if found is None else dict.fromkeys(
                data for data, valid, _ in found.candidates
                if valid is None or valid.contains(now)))
            return [row for row in facts if self._matches(row, key)]

        return self._manager.certify(rows)

    # -- the update API (one for every kind) ----------------------------------------------

    def insert(self, name: str, values: Mapping[str, Any],
               valid_from: Optional[InstantLike] = None,
               valid_to: Optional[InstantLike] = None,
               valid_at: Optional[InstantLike] = None,
               txn: Optional[Transaction] = None) -> Optional[Instant]:
        """Record a fact (a no-op if it is already recorded: set semantics).

        With valid time, interval relations take ``valid_from`` (required)
        and ``valid_to`` (default ∞), event relations ``valid_at``.
        """
        checked = self._checked_values(name, values)
        arguments = self._valid_args(name, valid_from, valid_to, valid_at,
                                     for_insert=True)
        arguments["values"] = checked
        return self._submit(Operation("insert", name, arguments), txn)

    def delete(self, name: str, match: Optional[Mapping[str, Any]] = None,
               valid_from: Optional[InstantLike] = None,
               valid_to: Optional[InstantLike] = None,
               valid_at: Optional[InstantLike] = None,
               txn: Optional[Transaction] = None) -> Optional[Instant]:
        """Remove the facts agreeing with *match* (all if ``None``) — with
        valid time, their validity within the given period.

        With no period, the facts are removed entirely — including from
        the past.  A historical database keeps no record of the
        correction; a temporal one keeps the previous belief on the
        transaction-time axis ("errors ... cannot be forgotten").
        """
        arguments = self._valid_args(name, valid_from, valid_to, valid_at,
                                     for_insert=False)
        arguments["match"] = self._checked_match(name, match or {})
        return self._submit(Operation("delete", name, arguments), txn)

    def replace(self, name: str, match: Mapping[str, Any],
                updates: Mapping[str, Any],
                valid_from: Optional[InstantLike] = None,
                valid_to: Optional[InstantLike] = None,
                valid_at: Optional[InstantLike] = None,
                txn: Optional[Transaction] = None) -> Optional[Instant]:
        """Change the attributes of the facts agreeing with *match* — with
        valid time, within the given period."""
        arguments = self._valid_args(name, valid_from, valid_to, valid_at,
                                     for_insert=False)
        arguments["match"] = self._checked_match(name, match)
        arguments["updates"] = self._checked_match(name, updates)
        return self._submit(Operation("replace", name, arguments), txn)

    def delete_where(self, name: str, predicate: Predicate,
                     txn: Optional[Transaction] = None) -> Optional[Instant]:
        """Delete by predicate (the kinds without valid time).

        The predicate is resolved against the *current* snapshot into
        concrete full-tuple matches, so the journaled operations are plain
        values and replay exactly.  Without *txn* the match and the commit
        are one atomic unit (:meth:`commit_unit`): no other writer can
        slip in between them.
        """
        if self.supports_historical_queries:
            raise TemporalSupportError(
                f"a {self.kind} database deletes facts within a valid "
                "period: use delete(match, valid_from, valid_to)")

        def expand(batch: Transaction) -> None:
            for row in self.snapshot(name).select(predicate):
                self.delete(name, dict(row), txn=batch)

        if txn is None:
            return self.commit_unit(expand)
        expand(txn)
        return None

    def _valid_args(self, name: str, valid_from, valid_to, valid_at,
                    for_insert: bool) -> Dict[str, Any]:
        """An operation's valid-time arguments, checked: none on a kind
        without valid time (there a fact holds over all time)."""
        arguments = {key: value for key, value in (
            ("valid_at", valid_at), ("valid_from", valid_from),
            ("valid_to", valid_to)) if value is not None}
        if arguments and not self.supports_historical_queries:
            self.require_historical("a valid period")
        if "valid_at" in arguments and len(arguments) > 1:
            raise ConstraintViolation(
                "give either valid_at or valid_from/valid_to, not both")
        if for_insert and valid_at is None:
            if name in self._event_relations:
                raise ConstraintViolation(
                    f"{name!r} is an event relation; inserts take valid_at")
            if valid_from is None and self.supports_historical_queries:
                raise ConstraintViolation(
                    f"inserting into a {self.kind} relation requires "
                    "valid_from (the instant the fact began to hold)")
        return {key: _coerce(value) for key, value in arguments.items()}

    def _submit(self, op: Operation,
                txn: Optional[Transaction]) -> Optional[Instant]:
        """Buffer *op* in *txn*, or run it as a single-op transaction.

        Returns the commit time when run immediately, ``None`` when
        buffered.
        """
        self._require_defined(op.relation)
        if txn is not None:
            txn.add(op)
            return None
        return self._manager.run([op])

    def _checked_values(self, name: str, values: Mapping[str, Any]) -> Dict[str, Any]:
        """Validate a full tuple of values against the relation schema."""
        self._require_defined(name)
        row = Tuple(self._schemas[name], values)  # raises on mismatch
        return dict(row)

    def _checked_match(self, name: str, match: Mapping[str, Any]) -> Dict[str, Any]:
        """Validate a partial equality-match against the relation schema."""
        self._require_defined(name)
        schema = self._schemas[name]
        for attribute in match:
            schema.attribute(attribute)
        return dict(match)

    @staticmethod
    def _matches(row: Tuple, match: Mapping[str, Any]) -> bool:
        """True if *row* agrees with every attribute in *match*."""
        return all(row[attribute] == value for attribute, value in match.items())

    # -- the applier -----------------------------------------------------------------------------

    def _apply(self, operations: Sequence[Operation],
               commit_time: Instant) -> None:
        """Apply a committed batch (called by the manager, under its lock).

        Installs what :meth:`_staged` built.  Any exception there aborts
        the whole batch with nothing half-updated: the stores and the
        schema/constraint/event-flag bookkeeping a batch produces are
        fresh values, made current only here, at the end.

        The whole batch runs inside a ``commit.apply`` span with the
        batch size timed into the ``commit.apply_seconds`` histogram
        (no-ops unless recording is on — see :mod:`repro.obs`).

        Durability note: this runs *before* the commit record is logged
        and journaled, so an exception here rejects the commit cleanly —
        nothing reaches the journal and nothing needs recovery.  Once
        ``_apply`` returns, the manager logs the record and fires
        ``on_commit``; only that journal append makes the commit durable
        (docs/DURABILITY.md).
        """
        obs = _obs.current()
        metrics = obs.metrics
        seconds, batches, applied = metrics.handles("commit.apply", lambda m: (
            m.histogram("commit.apply_seconds"), m.counter("commit.batches"),
            m.counter("commit.operations")))
        with obs.tracer.span("commit.apply", kind=str(self.kind),
                             operations=len(operations)), seconds.time():
            try:
                staged, bookkeeping = self._staged(operations, commit_time)
            except Exception:
                metrics.counter("commit.failed").inc()
                raise
            self._store = staged
            self._schemas, self._constraints, self._event_relations = \
                bookkeeping
            for name in {op.relation for op in operations}:
                self._versions[name] = self._versions.get(name, 0) + 1
                self._last_change[name] = commit_time
            redefined = [op.relation for op in operations
                         if op.action in ("define", "drop")]
            if redefined:
                # Bumped after the install: an analysis that read the old
                # catalog is filed under the old epoch only.
                self.catalog_epoch = next(_CATALOG_EPOCHS)
            if self._result_cache is not None:
                # DDL reuses names for unrelated stores, so even the
                # cache-forever entries of a dropped/redefined relation
                # must die with it.
                for name in redefined:
                    self._result_cache.purge(name)
        batches.inc()
        applied.inc(len(operations))

    def _staged(self, operations: Sequence[Operation],
                commit_time: Instant) -> PyTuple[Dict[str, Any], Any]:
        """Stage, execute and constraint-check one batch; install nothing.

        Returns what a commit makes current — the stores, and the
        ``(schemas, constraints, event relations)`` bookkeeping after the
        batch — and raises exactly when the batch cannot be applied.
        DDL is dispatched here; DML is handed to :meth:`_apply_dml`.
        The batch runs against working copies that stand in as
        ``self``'s bookkeeping while it does (DDL must be visible to
        later operations of the same batch, and to the constraint
        check); the installed values are put back whatever happens.

        Only the relations this batch replaced are checked (an untouched
        store is the very same immutable value that passed its checks
        when it was installed, and no declared constraint tightens as
        ``now`` advances), and of those only the rows under the schema-key
        values the batch touched where that suffices (:meth:`_check_store`).
        """
        installed = (self._schemas, self._constraints, self._event_relations)
        self._schemas, self._constraints, self._event_relations = (
            dict(self._schemas), dict(self._constraints),
            set(self._event_relations))
        staged = dict(self._store)
        touched: Dict[str, Dict[Any, Any]] = {}
        try:
            for op in operations:
                if op.action == "define":
                    if op.relation in self._schemas:
                        raise DuplicateRelationError(
                            f"relation {op.relation!r} already exists"
                        )
                    self._schemas[op.relation] = op.arguments["schema"]
                    self._constraints[op.relation] = list(
                        op.arguments["constraints"])
                    if op.arguments.get("event"):
                        self._event_relations.add(op.relation)
                    staged[op.relation] = STORE_CLASSES[self.kind](
                        op.arguments["schema"])
                elif op.action == "drop":
                    self._require_defined(op.relation)
                    del self._schemas[op.relation]
                    del self._constraints[op.relation]
                    self._event_relations.discard(op.relation)
                    staged.pop(op.relation, None)
                else:
                    self._apply_dml(staged, op, commit_time, touched)
            for name, store in staged.items():
                if store is not self._store.get(name):
                    self._check_store(name, store, touched.get(name))
            return staged, (self._schemas, self._constraints,
                            self._event_relations)
        finally:
            self._schemas, self._constraints, self._event_relations = \
                installed

    def rehearse(self, operations: Sequence[Operation],
                 commit_time: Instant) -> None:
        """Dry-run a batch: raise exactly when :meth:`_apply` would.

        Builds what the commit would install — constraint check included
        — and discards it: no install, no version bump, no observable
        state change.  The sharded store's two-phase commit rehearses
        each shard's part during *prepare*, so a participant only votes
        yes for a batch it can actually apply (a constraint violation
        surfaces before the commit decision is journaled, never after
        another shard already applied its part).  Callers must hold the
        commit serialization lock for the answer to remain true at apply
        time.
        """
        self._staged(operations, commit_time)

    # -- observability -----------------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """A snapshot of the process-local instrumentation.

        Metric names and the span taxonomy are documented in
        ``docs/OBSERVABILITY.md``.  All-empty (with
        ``instrumentation_enabled: False``) unless recording was turned
        on via :func:`repro.obs.enable` / :func:`repro.obs.recording`.
        """
        return _obs.stats()

    # -- the commit path ---------------------------------------------------------------

    def _apply_dml(self, staged: Dict[str, Any], op: Operation,
                   commit_time: Instant,
                   touched: Dict[str, Dict[Any, Any]]) -> None:
        """Apply one DML operation to the staged stores: the delta over
        the open rows its match can touch (O(Δ) for a key-bound match),
        the state from *commit_time* on — in place in a store the batch
        already replaced, its working copy; its keys go to *touched*."""
        store = staged.get(op.relation)
        if store is None:  # (an earlier operation of the batch dropped it)
            raise UnknownRelationError(f"no relation {op.relation!r}")
        candidates = store.candidates(op.arguments.get("match"))
        removed, added = self._delta(store, op, candidates)
        _obs.current().metrics.handles(
            "commit.rows_examined", _rows_examined).inc(len(candidates))
        staged[op.relation] = store.advance(
            removed, added, commit_time, touched.setdefault(op.relation, {}),
            store is not self._store.get(op.relation))

    def _delta(self, store: Any, op: Operation, candidates: Any
               ) -> PyTuple[List[Any], List[Any]]:
        """The elements one insert/delete/replace removes from and adds
        to *store*'s state, of the open rows *candidates* it can touch:
        :func:`~repro.core.historical.historical_delta`.  Without valid
        time each fact holds over all time, so no piece of it lies
        outside an operation's period and a replace changes all of it;
        the elements are the bare facts."""
        if self.supports_historical_queries:
            return historical_delta(store.schema, op, candidates,
                                    store.open_elements)
        return historical_delta(
            store.schema, op,
            [HistoricalRow(data, ALL_TIME)
             for data in map(store._data, candidates)],
            store.open_elements, fact=lambda data, valid: data)

    def _check_store(self, name: str, store: Any,
                     touched: Optional[Dict[Any, Any]]) -> None:
        """Enforce the relation's constraints on the *store* a commit is
        about to install: on the rows under the keys the batch touched
        where every constraint groups within the key (an untouched key's
        rows passed when installed), else on the whole state."""
        key = store.schema.key
        constraints = self._constraints[name]
        local = touched is not None and key and _local_to_key(constraints, key)
        rows = list(store.in_order(touched if local else None))
        _obs.current().metrics.handles(
            "commit.rows_examined", _rows_examined).inc(len(rows))
        if local and all(type(rule) is KeyConstraint for rule in constraints):
            facts = set(map(store._data, rows))
            if len(facts) == len(set(map(Tuple.key, facts))):
                return  # (only a key holding two facts could fail)
        self._check_state(name, store.state_in_force(rows))

    def _check_state(self, name: str, state: Any) -> None:
        """Enforce the relation's constraints on *state* (some keys'
        rows): the declared rules, and the schema key — a plain key on a
        state of facts, a sequenced key on a historical state (with the
        temporal rules as of this commit: the manager's last reading)."""
        constraints = self._constraints[name]
        if self.supports_historical_queries:
            check_historical_constraints(state, constraints,
                                         self._manager.clock.last)
            return
        key = state.schema.key
        check_all(state, [*constraints, KeyConstraint(key)] if key
                  else constraints)

    # -- queries: the capability matrix -----------------------------------------------------------------

    def snapshot(self, name: str) -> Relation:
        """The current static view of a relation (every kind): the state,
        or with valid time the facts valid now."""
        if self.supports_historical_queries:
            return self.timeslice(name, self.now())
        return self.store(name).current()

    def history(self, name: str):
        """The current historical state of the relation (a historical
        database's only one, a temporal database's newest)."""
        self.require_historical("history")
        return self.store(name).current()

    def temporal(self, name: str):
        """The full bitemporal relation (Figure 8)."""
        self.require_historical("temporal")
        self.require_rollback("temporal")
        return self.store(name)

    def access(self, as_of: Optional[Instant] = None,
               through: Optional[Instant] = None) -> str:
        """``explain``'s words for an unkeyed :meth:`read` of the clauses."""
        if self.supports_rollback and (
                as_of is not None or self.supports_historical_queries):
            return index_access("bitemporal index"
                                if self.supports_historical_queries
                                else "rollback index", through)
        return ("scan of recorded facts" if self.supports_historical_queries
                else "snapshot scan")

    def read(self, name: str, now: Instant, as_of: Optional[Instant] = None,
             through: Optional[Instant] = None, key: Any = None,
             indexed: bool = True) -> Optional[Read]:
        """A TQuel read of *name*: the rows in force at *now*, as of
        *as_of* or at some instant of ``[as_of, through]``, by the
        transaction-time index where *indexed*, else by the store's own
        walk (the executable specification); under the schema-key value
        *key*, that key's rows, or ``None`` where no probe answers.  The
        current state without both times is a scan of the state's rows,
        or under *key* one probe of the store's key index."""
        store = self.store(name)
        if self.supports_rollback and (as_of is not None or key is None
                                       and self.supports_historical_queries):
            return store.read(
                lambda: self.index_cache.transaction_time(name),
                self.access(as_of, through), now, as_of, through, key,
                indexed)
        if key is not None:
            return store.probe(key)
        return Read(self.access(), False,
                    store.as_candidates(list(store.in_order())))

    def _indexed(self, name: str):
        """The relation, behind its transaction-time tree (a stab
        instead of a scan of every row ever written)."""
        self._require_defined(name)
        return self.index_cache.transaction_time(name)

    def rollback(self, name: str, as_of: InstantLike):
        """The relation as of a past transaction time.

        Supported by static rollback and temporal databases only; the
        result is a static relation for the former — "a pure static
        relation" (§4.2), queried with the ordinary algebra — and a
        historical relation for the latter.  Both read it from the
        transaction-time index (``_indexed``).
        """
        self.require_rollback("rollback")
        return self._indexed(name).rollback(as_of)

    def rollback_range(self, name: str, from_: InstantLike,
                       through: InstantLike):
        """What belonged to some state over the inclusive transaction-time
        range — TQuel's ``as of t1 through t2``: a static relation, or
        with valid time a temporal one (both time axes kept)."""
        self.require_rollback("rollback_range")
        return self._indexed(name).visible_during(
            Period.from_inclusive(_coerce(from_), _coerce(through)))

    def timeslice(self, name: str, valid_at: InstantLike,
                  as_of: Optional[InstantLike] = None) -> Relation:
        """The facts valid at an instant of valid time, as a static
        relation, seen as of the past transaction time *as_of* if given.

        Supported by historical and temporal databases only, and with
        *as_of* by temporal ones only.
        """
        self.require_historical("timeslice")
        if as_of is not None:
            self.require_rollback("as of")
            return self._indexed(name).rollback(as_of).timeslice(valid_at)
        store = self.store(name)
        return facts_valid_at(store.schema, list(store.in_order()), valid_at)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({len(self._schemas)} relations, "
                f"{len(self.log)} commits)")


def _local_to_key(constraints: Sequence[Any], key: Sequence[str]) -> bool:
    """Can *constraints* be re-checked on the rows of the touched
    schema-key values alone: does every rule judge one row, one fact or
    one group no wider than the key?  Only the exact built-in types
    qualify (a user-defined subclass may look at anything)."""
    from repro.core import temporal_constraints as rules
    local = (NotNullConstraint, CheckConstraint, rules.NoFutureValidity,
             rules.BoundedValidity, rules.ValidityDuration)
    return all(set(key) <= set(rule.key)
               if type(rule) is rules.ContiguousHistory
               else set(key) <= set(rule.attributes)
               if type(rule) is KeyConstraint
               else type(rule) in local
               for rule in constraints)


# The stored forms and the valid-time semantics are built on this module's
# ``Database`` and ``Read``, so they are bound once it has defined them.
from repro.core.historical import (  # noqa: E402
    ALL_TIME, HistoricalRow, HistoricalStore, check_historical_constraints,
    facts_valid_at, historical_delta)
from repro.core.rollback import RollbackRelation  # noqa: E402
from repro.core.static import StaticStore  # noqa: E402
from repro.core.temporal import TemporalRelation  # noqa: E402
from repro.core.transaction_time import index_access  # noqa: E402

#: Each kind's stored form of a relation (Figures 2, 4, 6 and 8).
STORE_CLASSES = {DatabaseKind.STATIC: StaticStore,
                 DatabaseKind.STATIC_ROLLBACK: RollbackRelation,
                 DatabaseKind.HISTORICAL: HistoricalStore,
                 DatabaseKind.TEMPORAL: TemporalRelation}
