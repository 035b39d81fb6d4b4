"""The sharded database: one logical store over N per-shard databases.

A :class:`ShardedDatabase` presents the same surface as a single
:class:`~repro.core.base.Database` of any of the four taxonomy kinds —
``define``/``drop``, the kind's DML (valid-time keywords included),
``begin()`` transactions, ``snapshot``/``rollback``/``timeslice``/
``history`` queries, ``sessions()`` and the session seam behind it —
but stores every relation
partitioned by primary key across N independent shard databases
(:mod:`repro.sharding.partition`).  Each shard is a complete database of
the same kind with its *own* transaction manager, commit lock, clock,
commit log, journal stream and index cache, which is the whole point:
transactions that touch one shard commit through that shard's pipeline
alone, in parallel with every other shard (docs/SHARDING.md).

Semantics kept, and one deliberately weakened:

- **Schemas are global.**  DDL broadcasts — every shard holds every
  relation's schema — so routing can always consult shard 0's catalog.
- **Set semantics are exact.**  A row's key hashes to exactly one shard,
  so merged snapshots contain each logical row once; key constraints
  hold globally because both rows of any would-be duplicate key land on
  the same shard.
- **Declared non-key constraints become per-shard.**  A check constraint
  sees only its shard's rows; cross-row predicates (e.g. aggregates)
  therefore weaken to per-shard assertions — the documented trade.
- **Transaction time is per-shard.**  Each shard's clock assigns its own
  strictly-increasing commit times, so stamps order commits within a
  shard only: a commit on one shard may carry an earlier stamp than one
  made before it on another, and a ``rollback`` sees each shard at its
  own *as of*.  A cross-shard transaction's parts commit at different
  instants on different shards, so a ``rollback`` *as of* an instant
  between them sees the transaction on some shards and not others.
  Current-state reads are never affected (the coordinator's consistent
  cuts cover them); the 2PC decision log remains the authority on
  atomicity after a crash.
"""

from __future__ import annotations

import itertools
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple as PyTuple, Type)

from repro.core.base import Database, InstantLike, Read
from repro.core.temporal import TemporalDatabase
from repro.errors import ConflictError, ShardConfigError
from repro.obs import runtime as _obs
from repro.relational.constraints import Constraint
from repro.relational.schema import Schema
from repro.sharding.coordinator import ShardCoordinator
from repro.sharding.partition import Partitioner
from repro.time.clock import Clock
from repro.time.instant import Instant
from repro.txn.transaction import Operation, Transaction


class ShardLog:
    """A read-only, merged view of the per-shard commit logs.

    ``len()`` is the total commit count; iteration yields every shard's
    records ordered by commit time (ties broken by shard id), which is a
    *possible* serial order — per-shard order is exact, cross-shard
    interleaving is reconstructed from timestamps.  :meth:`vector` is
    the per-shard log lengths: the sharded store's commit token
    (docs/SHARDING.md).
    """

    def __init__(self, shard_dbs: Sequence[Database]) -> None:
        self._shards = shard_dbs

    def vector(self) -> PyTuple[int, ...]:
        """Per-shard commit counts — the vector commit token."""
        return tuple(len(db.log) for db in self._shards)

    def __len__(self) -> int:
        return sum(len(db.log) for db in self._shards)

    def __iter__(self):
        merged = sorted(((record.commit_time, sid, record)
                         for sid, db in enumerate(self._shards)
                         for record in db.log), key=lambda item: item[:2])
        return iter([record for _, _, record in merged])

    def __repr__(self) -> str:
        return f"ShardLog({self.vector()})"


class ShardedDatabase:
    """One logical database of any kind, hash-partitioned over N shards.

    ``factory`` is the kind class (:class:`TemporalDatabase` by
    default); each shard is ``factory(clock=clock)``, all
    sharing the base *clock* but each owning its transaction clock and
    manager.  Use :meth:`from_shards` to wrap pre-built shard databases
    (recovery does).
    """

    def __init__(self, factory: Type[Database] = TemporalDatabase,
                 shards: int = 4, clock: Optional[Clock] = None) -> None:
        self._init_from([factory(clock=clock) for _ in range(shards)])

    @classmethod
    def from_shards(cls, shard_dbs: Sequence[Database]) -> "ShardedDatabase":
        """Wrap existing per-shard databases (they must agree on kind)."""
        if not shard_dbs:
            raise ShardConfigError("a sharded store needs at least 1 shard")
        kinds = {type(db) for db in shard_dbs}
        if len(kinds) > 1:
            raise ShardConfigError(
                f"shards disagree on database kind: "
                f"{sorted(k.__name__ for k in kinds)}")
        store = cls.__new__(cls)
        store._init_from(list(shard_dbs))
        return store

    def _init_from(self, shard_dbs: List[Database]) -> None:
        self._shards = shard_dbs
        self.partitioner = Partitioner(len(shard_dbs))
        self.coordinator = ShardCoordinator(shard_dbs, self.partitioner)
        self._log = ShardLog(shard_dbs)
        self._txn_ids = itertools.count(1)

    # -- shape ------------------------------------------------------------------

    @property
    def shards(self) -> int:
        """How many shards the store is partitioned over."""
        return len(self._shards)

    @property
    def shard_databases(self) -> List[Database]:
        """The per-shard databases, in shard order (a copy)."""
        return list(self._shards)

    @property
    def kind(self):
        """The taxonomy kind (shared by every shard)."""
        return self._shards[0].kind

    supports_rollback = Database.supports_rollback
    supports_historical_queries = Database.supports_historical_queries

    @property
    def manager(self) -> ShardCoordinator:
        """The coordinator — the store's manager-shaped commit seam."""
        return self.coordinator

    @property
    def log(self) -> ShardLog:
        """The merged commit-log view (per-shard logs stay authoritative)."""
        return self._log

    def now(self) -> Instant:
        """The store's *now*: the latest of the shard clocks."""
        return self.coordinator.now()

    # -- catalog (delegated to shard 0; DDL broadcasts keep all equal) -----------

    def relation_names(self) -> List[str]:
        return self._shards[0].relation_names()

    def schema(self, name: str) -> Schema:
        return self._shards[0].schema(name)

    def constraints(self, name: str) -> PyTuple[Constraint, ...]:
        return self._shards[0].constraints(name)

    def is_event_relation(self, name: str) -> bool:
        return self._shards[0].is_event_relation(name)

    def __contains__(self, name: object) -> bool:
        return name in self._shards[0]

    @property
    def catalog_epoch(self) -> int:
        return self._shards[0].catalog_epoch

    def shard_of_key(self, name: str, values: Mapping[str, Any]) -> int:
        """The shard owning the row of *name* keyed by *values*.

        Raises :class:`~repro.errors.ShardConfigError` when *values*
        does not pin the relation's full key.
        """
        target = self.partitioner.shard_of_values(
            self.schema(name).key, values)
        if target is None:
            raise ShardConfigError(
                f"values {sorted(values)} do not pin the key "
                f"{list(self.schema(name).key)} of {name!r}")
        return target

    def relation_version(self, name: str) -> int:
        """Committed batches that touched *name*, summed over shards.

        A single-shard commit bumps exactly one shard's counter, so the
        sum moves iff *some* shard's version moved — the relation-level
        conflict signal.  Per-shard granularity is
        :meth:`footprint_version`.
        """
        return sum(db.relation_version(name) for db in self._shards)

    def spread(self, name: str) -> List[int]:
        """Current row count of *name* per shard (balance diagnostics)."""
        parts = self._read_all(lambda db: len(db.snapshot(name)))
        return list(parts)

    # -- DDL (broadcast) ---------------------------------------------------------

    def define(self, name: str, schema: Schema,
               constraints: Sequence[Constraint] = (),
               event: bool = False) -> Instant:
        """Create a relation on every shard; one broadcast transaction."""
        return self.coordinator.run([self._shards[0].define_operation(
            name, schema, constraints, event)])

    def drop(self, name: str) -> Instant:
        """Remove a relation (and its history) from every shard."""
        self._shards[0].schema(name)  # raises UnknownRelationError
        return self.coordinator.run([Operation("drop", name, {})])

    # -- DML: the one update API, checked by shard 0, routed at commit ------------

    insert, delete, replace = Database.insert, Database.delete, Database.replace

    def _checked_values(self, name: str, values: Mapping[str, Any]):
        return self._shards[0]._checked_values(name, values)

    def _checked_match(self, name: str, match: Mapping[str, Any]):
        return self._shards[0]._checked_match(name, match)

    def _valid_args(self, *args: Any, **kwargs: Any) -> Dict[str, Any]:
        return self._shards[0]._valid_args(*args, **kwargs)

    def _submit(self, op: Operation,
                txn: Optional[Transaction]) -> Optional[Instant]:
        """Buffer *op* in *txn*, or commit it alone; the coordinator routes
        it to its owning shard (a key rewrite: ``ShardRoutingError``)."""
        if txn is not None:
            txn.add(op)
            return None
        return self.coordinator.run([op])

    #: Delete by predicate, resolved against the *merged* snapshot into
    #: full-tuple matches, each routed to its owning shard (the kinds
    #: without valid time; the others refuse it as one store does).
    delete_where = Database.delete_where

    #: Match-and-apply as one atomic unit, over the coordinator's
    #: manager-shaped seam (every shard's lock is held across the match).
    commit_unit = Database.commit_unit

    # -- transactions ------------------------------------------------------------

    def begin(self) -> Transaction:
        """Start a multi-operation transaction spanning any shards.

        Like a single database's ``begin()`` it holds nothing while
        buffering; the commit routes the batch and runs the cross-shard
        protocol if it spans shards.  For conflict detection between
        concurrent callers use :meth:`sessions`.
        """
        return Transaction(next(self._txn_ids), self.coordinator.run)

    #: The same :class:`~repro.concurrency.layer.SessionLayer` as a plain
    #: database's; only the seam's answers below differ: footprints are
    #: per ``relation@shard``, so two sessions writing different shards
    #: of the same relation do **not** conflict — the false sharing of a
    #: single pipeline is cut by a factor of the shard count
    #: (docs/SHARDING.md).
    sessions = Database.sessions

    # -- the session seam (docs/CONCURRENCY.md) -----------------------------------

    def _footprint(self, name: str, shard: Optional[int]) -> PyTuple[str, ...]:
        """``name@shard``, or *name* on every shard when *shard* is None."""
        shards = range(len(self._shards)) if shard is None else (shard,)
        return tuple(f"{name}@{sid}" for sid in shards)

    @staticmethod
    def _footprint_shards(footprint: Sequence[str]) -> List[int]:
        """Every shard id named by *footprint*, ascending."""
        return sorted({int(key.rpartition("@")[2]) for key in footprint})

    def read_footprint(self, name: str,
                       key: Optional[Mapping[str, Any]] = None,
                       ) -> PyTuple[str, ...]:
        """The owning shard when *key* pins the full primary key (else
        :class:`~repro.errors.ShardConfigError`); every shard for a
        whole-relation read."""
        return self._footprint(
            name, None if key is None else self.shard_of_key(name, key))

    def write_footprint(self, operation: Operation) -> PyTuple[str, ...]:
        """The one shard *operation* routes to; every shard for a
        broadcast (DDL, partial-key match)."""
        return self._footprint(operation.relation,
                               self.coordinator.route(operation))

    def footprint_version(self, key: str) -> int:
        """Committed batches that touched the relation on that shard."""
        name, _, shard = key.rpartition("@")
        return self._shards[int(shard)].relation_version(name)

    def _tallied(self, validate: Callable[[], None]) -> Callable[[], None]:
        """*validate*, with a lost validation counted per stale shard."""
        def checked() -> Any:
            try:
                return validate()
            except ConflictError as error:
                metrics = _obs.current().metrics
                for key in error.relations:
                    metrics.counter(
                        f"shard.{key.rpartition('@')[2]}.conflicts").inc()
                raise
        return checked

    def commit(self, operations: Sequence[Operation],
               footprint: Sequence[str],
               validate: Callable[[], None]) -> Optional[Instant]:
        """Validate and commit under the *footprint*'s shard locks only:
        one shard takes its own pipeline, several run the two-phase
        protocol (:mod:`repro.sharding.coordinator`)."""
        return self.coordinator.run(
            operations, validate=self._tallied(validate),
            lock_shards=self._footprint_shards(footprint))

    def certify(self, footprint: Sequence[str],
                validate: Callable[[], Any]) -> Any:
        """Run *validate* under the *footprint*'s shard locks only."""
        return self.coordinator.certify(
            self._tallied(validate),
            lock_shards=self._footprint_shards(footprint))

    def commit_token(self) -> PyTuple[int, ...]:
        """The vector token — per-shard commit-log lengths — because a
        single integer cannot say which shard's replica must catch up."""
        return self._log.vector()

    def op_class(self, operations: Sequence[Operation]) -> str:
        """``cross_shard_write`` when the batch lands on more than one
        shard (any broadcast included), else ``single_shard_write``."""
        targets = {self.coordinator.route(op) for op in operations}
        return ("cross_shard_write" if None in targets or len(targets) > 1
                else "single_shard_write")

    def get(self, name: str, key: Mapping[str, Any]):
        """The rows of *name* matching *key*, read from their shard only
        (*key* must pin the full primary key)."""
        return self._shards[self.shard_of_key(name, key)].get(name, key)

    # -- queries (shard-merging, consistent cuts) ---------------------------------

    def _read_all(self, per_shard: Callable[[Database], Any]) -> List[Any]:
        """*per_shard* on every shard, atomically per shard, one cut overall."""

        return self.coordinator.consistent_read(
            lambda: [db.manager.certify(lambda db=db: per_shard(db))
                     for db in self._shards])

    def _merged(self, name: str, per_shard: Callable[[Database], Any]):
        """Merge per-shard relation values of the same type into one.

        Works for :class:`~repro.relational.relation.Relation`,
        :class:`~repro.core.historical.HistoricalRelation`,
        :class:`~repro.core.temporal.TemporalRelation` and
        :class:`~repro.core.rollback.RollbackRelation` alike: each
        constructs from ``(schema, rows)`` and iterates its rows, and
        shards never share a logical row, so concatenation is the union.
        """
        parts = self._read_all(per_shard)
        first = parts[0]
        return type(first)(self.schema(name),
                           [row for part in parts for row in part])

    #: The query caches are the shards' own: the facade keeps none.
    columnar_cache = result_cache = None

    def read(self, name: str, now: Instant, as_of: Optional[Instant] = None,
             through: Optional[Instant] = None, key: Any = None,
             indexed: bool = True) -> Optional[Read]:
        """The shards' reads (:meth:`Database.read <repro.core.base.
        Database.read>`), concatenated at one cut: a row lives on the
        shard its key hashes to, so no candidate is on two."""
        parts = self._read_all(
            lambda db: db.read(name, now, as_of, through, key, indexed))
        return parts[0] and parts[0]._replace(candidates=[
            candidate for part in parts for candidate in part.candidates])

    def snapshot(self, name: str):
        """The current merged state of *name* (all kinds); with valid time,
        the slice at the store's :meth:`now` (after a restart each shard's
        own clock resumes at its last commit)."""
        if self.supports_historical_queries:
            return self.timeslice(name, self.now())
        self.schema(name)
        return self._merged(name, lambda db: db.snapshot(name))

    def rollback(self, name: str, as_of: InstantLike):
        """The merged state as of a past transaction time.

        Each shard stamps its commits from its own transaction clock,
        so *as_of* is each shard's state at its own *as_of*: it orders
        commits within a shard only (docs/SHARDING.md "Consistent cuts").
        """
        return self._merged(name, lambda db: db.rollback(name, as_of))

    def timeslice(self, name: str, valid_at: InstantLike,
                  as_of: Optional[InstantLike] = None):
        """The merged valid-time slice (historical and temporal kinds),
        as of *as_of* if given (temporal kind)."""
        return self._merged(name,
                            lambda db: db.timeslice(name, valid_at, as_of))

    def history(self, name: str):
        """The merged current historical state (valid-time kinds)."""
        return self._merged(name, lambda db: db.history(name))

    def temporal(self, name: str):
        """The merged bitemporal relation (temporal kind)."""
        return self._merged(name, lambda db: db.temporal(name))

    def rollback_range(self, name: str, from_: InstantLike,
                       through: InstantLike):
        """The merged rows of every state over the inclusive tt range."""
        return self._merged(
            name, lambda db: db.rollback_range(name, from_, through))

    # -- observability -------------------------------------------------------------

    stats = Database.stats

    def __repr__(self) -> str:
        return (f"ShardedDatabase({type(self._shards[0]).__name__} × "
                f"{len(self._shards)}, {len(self._log)} commits)")
