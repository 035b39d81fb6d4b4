"""The abstract database: what all four kinds share.

A :class:`Database` is a set of named relations (schemas + stores), a
:class:`~repro.txn.manager.TransactionManager`, and a
position in the taxonomy (:attr:`Database.kind`).  The four concrete kinds
in :mod:`repro.core` differ *only* in what history their stores keep and
which query operations they can therefore support:

======================  ==========  ==========  ===========  =========
operation               static      rollback    historical   temporal
======================  ==========  ==========  ===========  =========
``snapshot``            yes         yes         yes          yes
``rollback`` (as of)    —           yes         —            yes
``timeslice`` (valid)   —           —           yes          yes
``history``             —           —           yes          yes
======================  ==========  ==========  ===========  =========

The dashes are not missing features but *category errors*: the base class
raises :class:`~repro.errors.RollbackNotSupportedError` /
:class:`~repro.errors.HistoricalNotSupportedError` with the database kind
named, which is Figure 11 of the paper enforced at runtime (and, for
TQuel, at analysis time).

DDL (``define``/``drop``) is immediate and journaled as its own
transaction; DML is buffered in transactions and applied atomically at a
system-assigned commit time.
"""

from __future__ import annotations

import abc
import itertools
from typing import (Any, Callable, Dict, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple as PyTuple, Union)

from repro.core.taxonomy import DatabaseKind
from repro.errors import (DuplicateRelationError, HistoricalNotSupportedError,
                          RollbackNotSupportedError, UnknownRelationError)
from repro.obs import runtime as _obs
from repro.relational.constraints import (CheckConstraint, Constraint,
                                          KeyConstraint, NotNullConstraint)
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.tuple import Tuple
from repro.time.clock import Clock
from repro.time.instant import Instant
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


class Database(abc.ABC):
    """Base class of the four database kinds."""

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
                    self._create_store(staged, op.relation,
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

    # -- the kind-specific hooks -------------------------------------------------------


    @abc.abstractmethod
    def _create_store(self, staged: Dict[str, Any], name: str,
                      schema: Schema) -> None:
        """Create an empty store for a newly defined relation."""

    def _apply_dml(self, staged: Dict[str, Any], op: Operation,
                   commit_time: Instant,
                   touched: Dict[str, Dict[Any, Any]]) -> None:
        """Apply one DML operation to the staged stores: the kind's delta
        over the open rows its match can touch (O(Δ) for a key-bound
        match), the state from *commit_time* on — in place in a store the
        batch already replaced, its working copy; its keys go to *touched*."""
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

    @abc.abstractmethod
    def _delta(self, store: Any, op: Operation, candidates: Any
               ) -> PyTuple[List[Any], List[Any]]:
        """The elements one insert/delete/replace removes from and adds
        to *store*'s state, of the open rows *candidates* it can touch."""

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

    @abc.abstractmethod
    def _check_state(self, name: str, state: Any) -> None:
        """Enforce the relation's constraints on *state* (some keys' rows)."""

    # -- queries: the capability matrix -----------------------------------------------------------------

    @abc.abstractmethod
    def snapshot(self, name: str) -> Relation:
        """The current static view of a relation (available in every kind)."""

    #: ``explain``'s words for the scan :meth:`read` makes of the state.
    _scan_access = "snapshot scan"

    def access(self, as_of: Optional[Instant] = None,
               through: Optional[Instant] = None) -> str:
        """``explain``'s words for an unkeyed :meth:`read` of the clauses."""
        return self._scan_access

    def read(self, name: str, now: Instant, as_of: Optional[Instant] = None,
             through: Optional[Instant] = None, key: Any = None,
             indexed: bool = True) -> Optional[Read]:
        """A TQuel read of *name*: the rows in force at *now*, as of
        *as_of* or at some instant of ``[as_of, through]``, by the kind's
        index where *indexed* and it has one, else by the store's own walk
        (the executable specification); under the schema-key value *key*,
        that key's rows, or ``None`` where no probe answers.  Each kind
        answers from the times it keeps — here none: the current state's
        rows, or under *key* one probe of the store's key index."""
        store = self.store(name)
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
        kind's transaction-time index (``_indexed``).
        """
        self.require_rollback("rollback")
        return self._indexed(name).rollback(as_of)

    def timeslice(self, name: str, valid_at: InstantLike,
                  as_of: Optional[InstantLike] = None) -> Relation:
        """The tuples valid at an instant of valid time, as a static
        relation, seen as of the past transaction time *as_of* if given.

        Supported by historical and temporal databases only, and with
        *as_of* by temporal ones only.
        """
        self.require_historical("timeslice")
        raise NotImplementedError  # pragma: no cover - kinds override

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
