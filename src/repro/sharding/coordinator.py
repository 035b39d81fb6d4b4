"""The shard coordinator: per-shard commit pipelines, cross-shard 2PC.

One :class:`ShardCoordinator` fronts the N per-shard databases of a
:class:`~repro.sharding.store.ShardedDatabase`.  It is the sharded
store's analogue of :class:`~repro.txn.manager.TransactionManager` — the
same ``run(operations, validate=)`` / ``certify(validate)`` shape, plus
the shards to lock, which the store derives from a session's footprint
— but where the manager owns *one* commit lock, the coordinator owns
none: every shard keeps its own serialization lock, journal stream and
transaction clock, so transactions whose footprint stays inside one
shard commit fully in parallel.  Only transactions that *span* shards
pay for coordination.

**Single-shard commits** (the common case) take exactly one lock — the
owning shard's — and are indistinguishable from a commit against an
unsharded database of that shard's kind.

**Cross-shard commits** run two-phase commit over the per-shard
serialization locks:

1. *Lock* every involved shard in ascending shard order (a global order,
   so two cross-shard transactions can never deadlock);
2. *Validate* the caller's first-committer-wins check under all of those
   locks, then **rehearse** each shard's batch
   (:meth:`~repro.core.base.Database.rehearse` — the applier's own
   staging, constraint check included) so a participant only votes yes
   for a batch it can actually apply — a constraint violation aborts
   here, before anything is journaled anywhere;
3. *Prepare*: journal a ``prepare`` record (gid, shard, journal position,
   operations) to each shard's 2PC log;
4. *Decide*: journal one ``commit`` decision record to the coordinator's
   decision log — **this append is the commit point** of the whole
   transaction;
5. *Apply*: commit each shard's batch through its own manager (the locks
   are already held, reentrantly), journaling normal commit records.

A crash before step 4 leaves prepares with no decision: recovery
(:mod:`repro.sharding.durability`) presumes abort and the transaction
never happened on any shard.  A crash after step 4 leaves a durable
decision: recovery re-applies the prepared operations on every shard
whose journal stops short of its prepare's recorded position.  Either
way all shards agree — the docs/SHARDING.md recovery contract.

**Consistent cuts.**  Readers never block writers: a shard-merging read
runs optimistically, sampling the coordinator's cross-commit epoch
before and after reading the shards (each shard read is individually
atomic under that shard's lock).  Single-shard commits may land between
two shard reads — any interleaving of independent per-shard histories
is a consistent cut — but if a *cross-shard* commit overlapped the read
window the epoch moved and the read retries, so a multi-shard
transaction is never observed half-applied.  After
``CONSISTENT_READ_RETRIES`` failed rounds the reader falls back to
locking all shards (bounded starvation).
"""

from __future__ import annotations

import itertools
import threading
import time
import uuid
from typing import (Any, Callable, Dict, List, Optional, Sequence,
                    TYPE_CHECKING)

from repro.obs import context as _trace
from repro.obs import runtime as _obs
from repro.storage.journal import encode_operation
from repro.txn.transaction import Operation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sharding.partition import Partitioner
    from repro.time.instant import Instant

#: Optimistic rounds before a consistent read falls back to locking.
CONSISTENT_READ_RETRIES = 64


class ShardCoordinator:
    """Commit router and 2PC coordinator over N per-shard databases.

    *shard_dbs* are the per-shard kind instances (every relation defined
    on all of them, rows partitioned by *partitioner*).  *two_phase* is
    the durable 2PC log seam — an object with ``prepare(shard, entry)``,
    ``decide(entry)`` and ``record_count(shard)`` (see
    :class:`~repro.sharding.durability.ShardedDurabilityManager`) — or
    ``None`` for an in-memory store, where the per-shard locks alone
    make the cross-shard commit atomic and there is no crash to recover.
    """

    def __init__(self, shard_dbs: Sequence[Any],
                 partitioner: "Partitioner",
                 two_phase: Optional[Any] = None) -> None:
        self._shards = list(shard_dbs)
        self.partitioner = partitioner
        self._two_phase = two_phase
        # Cross-commit epoch: guards shard-merging reads.  ``active`` is
        # how many cross-shard commits currently hold locks; ``done``
        # counts completed ones.  Both only ever move under ``_cut_lock``.
        self._cut_lock = threading.Lock()
        self._cross_active = 0
        self._cross_done = 0
        # Globally-unique-enough transaction ids: a per-construction
        # random boot token plus a counter, so gids from a previous
        # incarnation still sitting in an uncompacted 2PC log can never
        # alias a new transaction.
        self._boot = uuid.uuid4().hex[:8]
        self._gid_counter = itertools.count(1)

    # -- accessors ------------------------------------------------------------

    def attach_two_phase(self, two_phase: Any) -> None:
        """Bind the durable 2PC log (done by the durability manager)."""
        self._two_phase = two_phase

    def now(self) -> "Instant":
        """The store's notion of *now*: the latest of the shard nows."""
        return max(shard.manager.now() for shard in self._shards)

    def _next_gid(self) -> str:
        return f"x-{self._boot}-{next(self._gid_counter)}"

    # -- routing ----------------------------------------------------------------

    def route(self, operation: Operation) -> Optional[int]:
        """The one shard *operation* lands on, or ``None`` for a
        broadcast (DDL, partial-key match); schemas are global, so
        shard 0's catalog answers for all."""
        if operation.action in ("define", "drop"):
            return None
        return self.partitioner.shard_of_operation(
            self._shards[0].schema(operation.relation).key, operation)

    def group(self, operations: Sequence[Operation],
              ) -> Dict[int, List[Operation]]:
        """Partition a batch into per-shard batches, preserving order;
        a broadcast operation is appended to *every* shard's batch."""
        grouped: Dict[int, List[Operation]] = {}
        for op in operations:
            target = self.route(op)
            for sid in (range(len(self._shards)) if target is None
                        else (target,)):
                grouped.setdefault(sid, []).append(op)
        return grouped

    # -- locking ------------------------------------------------------------------

    def _acquire(self, shard_ids: Sequence[int]) -> List[int]:
        """Take the named shards' serialization locks in ascending order.

        Returns the acquired ids (for :meth:`_release`).  The per-shard
        ``shard.<i>.lock_waiters`` gauge counts threads currently
        waiting on that shard's commit pipeline (queue depth).
        """
        metrics = _obs.current().metrics
        held: List[int] = []
        try:
            for sid in sorted(shard_ids):
                gauge = metrics.gauge(f"shard.{sid}.lock_waiters")
                gauge.add(1)
                try:
                    self._shards[sid].manager.serialization_lock.acquire()
                finally:
                    gauge.add(-1)
                held.append(sid)
        except BaseException:
            self._release(held)
            raise
        return held

    def _release(self, held: Sequence[int]) -> None:
        for sid in reversed(list(held)):
            self._shards[sid].manager.serialization_lock.release()

    # -- the commit pipeline --------------------------------------------------------

    def commit(self, grouped: Dict[int, List[Operation]],
               lock_shards: Optional[Sequence[int]] = None,
               validate: Optional[Callable[[], None]] = None,
               ) -> Dict[int, "Instant"]:
        """Commit per-shard batches atomically; returns shard → commit time.

        *lock_shards* names every shard the transaction's footprint
        touches (defaults to the written shards); read-only members are
        locked and validated but receive no operations.  *validate*
        runs under all of those locks — the optimistic-concurrency seam,
        exactly as in :meth:`TransactionManager.run
        <repro.txn.manager.TransactionManager.run>` but spanning shards.
        """
        metrics = _obs.current().metrics
        write_shards = sorted(sid for sid, ops in grouped.items() if ops)
        involved = sorted(set(write_shards)
                          | set(lock_shards if lock_shards is not None
                                else ()))
        held = self._acquire(involved)
        try:
            if validate is not None:
                validate()
            if len(write_shards) <= 1:
                times: Dict[int, "Instant"] = {}
                if write_shards:
                    sid = write_shards[0]
                    times[sid] = self._shards[sid].manager.run(grouped[sid])
                    metrics.counter(f"shard.{sid}.commits").inc()
                return times
            return self._commit_cross(grouped, write_shards)
        finally:
            self._release(held)

    def _commit_cross(self, grouped: Dict[int, List[Operation]],
                      write_shards: List[int]) -> Dict[int, "Instant"]:
        """The 2PC leg of :meth:`commit`; all involved locks are held."""
        obs = _obs.current()
        metrics = obs.metrics
        txn = _trace.current_txn()
        with obs.tracer.span("sharding.cross_commit",
                             shards=len(write_shards)) as cross_span:
            # Prepare vote: rehearse every part before journaling
            # anything — an unappliable batch aborts the whole
            # transaction with no 2PC record on any shard.
            for sid in write_shards:
                database = self._shards[sid]
                database.rehearse(grouped[sid],
                                  database.manager.clock.peek())
            gid = self._next_gid()
            cross_span.set(gid=gid)
            if self._two_phase is not None:
                for sid in write_shards:
                    with obs.tracer.span("sharding.prepare", gid=gid,
                                         shard=sid):
                        self._two_phase.prepare(sid, {
                            "kind": "prepare",
                            "gid": gid,
                            "shard": sid,
                            "base": self._two_phase.record_count(sid),
                            "operations": [encode_operation(op)
                                           for op in grouped[sid]],
                        })
                    obs.events.emit("2pc.prepare", txn=txn, gid=gid,
                                    shard=sid)
                # The commit point: once this decision record is
                # durable the transaction commits on every shard, by
                # recovery if not by the applies below.
                with obs.tracer.span("sharding.decide", gid=gid):
                    self._two_phase.decide({
                        "kind": "decision",
                        "gid": gid,
                        "decision": "commit",
                        "shards": write_shards,
                    })
                obs.events.emit("2pc.decide", txn=txn, gid=gid,
                                shards=write_shards)
            with self._cut_lock:
                self._cross_active += 1
            times: Dict[int, "Instant"] = {}
            try:
                for sid in write_shards:
                    with obs.tracer.span("sharding.apply", gid=gid,
                                         shard=sid):
                        times[sid] = self._shards[sid].manager.run(
                            grouped[sid])
                    metrics.counter(f"shard.{sid}.commits").inc()
                    obs.events.emit("2pc.apply", txn=txn, gid=gid,
                                    shard=sid)
            finally:
                with self._cut_lock:
                    self._cross_active -= 1
                    self._cross_done += 1
            metrics.counter("sharding.cross_commits").inc()
            return times

    # -- the manager facade -----------------------------------------------------------

    def run(self, operations: Sequence[Operation],
            validate: Optional[Callable[[], None]] = None,
            lock_shards: Optional[Sequence[int]] = None,
            ) -> Optional["Instant"]:
        """The :meth:`TransactionManager.run`-shaped seam, shard-routed.

        *lock_shards* names the shards *validate* reads (the session
        layer passes its footprint's); the written shards are always
        locked too.  With *validate* given but no shard knowledge every
        shard is locked — the check may read any shard's versions, so
        the conservative footprint is all of them.  An empty batch still
        commits (and ticks) somewhere: shard 0, like everything else
        without a key.  Returns the latest of the assigned commit times
        (they differ across shards).
        """
        if not operations and validate is None:
            return self._shards[0].manager.run([])
        grouped = self.group(operations)
        if lock_shards is None and validate is not None:
            lock_shards = range(len(self._shards))
        times = self.commit(grouped, lock_shards=lock_shards,
                            validate=validate)
        return max(times.values()) if times else None

    def certify(self, validate: Callable[[], Any],
                lock_shards: Optional[Sequence[int]] = None) -> Any:
        """Run *validate* atomically against commits to *lock_shards*;
        returns whatever it returns.

        The analogue of :meth:`TransactionManager.certify
        <repro.txn.manager.TransactionManager.certify>`: the named
        shards' serialization locks are held (every shard's when
        *lock_shards* is ``None``), so no commit touching them — single-
        or cross-shard — can interleave with the check.
        """
        held = self._acquire(range(len(self._shards))
                             if lock_shards is None else lock_shards)
        try:
            return validate()
        finally:
            self._release(held)

    # -- consistent cuts -----------------------------------------------------------

    def _epoch(self) -> tuple:
        with self._cut_lock:
            return self._cross_active, self._cross_done

    def consistent_read(self, compute: Callable[[], Any]) -> Any:
        """Run *compute* against a consistent cut of the shards.

        *compute* must read each shard it touches under that shard's own
        serialization lock (e.g. via per-shard ``manager.certify``) and
        must be safe to re-run.  Optimistic: retried until no
        cross-shard commit overlapped the read window, then falls back
        to locking every shard after ``CONSISTENT_READ_RETRIES`` rounds.
        """
        metrics = _obs.current().metrics
        for _ in range(CONSISTENT_READ_RETRIES):
            active, done = self._epoch()
            if active:
                time.sleep(0)  # a cross-commit is mid-flight; yield
                continue
            result = compute()
            active_after, done_after = self._epoch()
            if active_after == 0 and done_after == done:
                return result
            metrics.counter("sharding.consistent_read_retries").inc()
        # Pathological cross-commit churn: take every lock and read a
        # cut nothing can move under.
        metrics.counter("sharding.consistent_read_fallbacks").inc()
        held = self._acquire(range(len(self._shards)))
        try:
            return compute()
        finally:
            self._release(held)

    def __repr__(self) -> str:
        return (f"ShardCoordinator({len(self._shards)} shards, "
                f"{self._cross_done} cross-shard commits)")
