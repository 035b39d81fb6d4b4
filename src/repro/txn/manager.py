"""The transaction manager: begin/commit/abort plus commit timestamps.

One :class:`TransactionManager` serves one database.  It owns the
:class:`~repro.time.clock.TransactionClock` (so commit times are strictly
increasing and system-assigned — the paper's append-only,
application-independent transaction time) and the
:class:`~repro.txn.log.CommitLog`.

The concurrency model is single-writer: one transaction may be active at a
time, matching the serial-history semantics the paper's figures assume (a
rollback relation *is* the serialized sequence of its transactions).
Attempting to begin a second concurrent transaction raises
:class:`~repro.errors.TransactionStateError` naming the holding
transaction.  Many *sessions* may nonetheless race toward the serialized
order through :mod:`repro.concurrency`, which funnels every commit
through :meth:`TransactionManager.run` — the ``validate`` hook there is
the optimistic-concurrency seam (docs/CONCURRENCY.md).  Explicit
commits take the same serialization lock as ``run()``, so a writer
bypassing the session layer can never slip between a session's
validation and its apply.

**Failure release.**  A failed commit never wedges the manager: the
active slot is released in a ``finally`` whether the applier, the log
append, or the ``on_commit`` hook raised, so the next ``begin()`` is
always accepted (the transaction itself is marked aborted by
:meth:`Transaction.commit`).

**Durability obligations.**  The manager itself persists nothing; the
:attr:`TransactionManager.on_commit` hook is the durability seam.  It
fires with each :class:`~repro.txn.log.CommitRecord` *after* the applier
succeeded and the record was logged, and — deliberately — *inside* the
commit lock, so concurrent sessions journal records in exactly the
serialized commit order (an out-of-order append would make replay
non-monotone).  A durable database
(:class:`~repro.storage.recovery.DurabilityManager`) journals the record
there, and the commit is durable only once that append returns.  A crash
between apply and append — including an ``on_commit`` hook that raises —
loses exactly that commit, which is the contract docs/DURABILITY.md
documents.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Optional, Sequence

from repro.errors import TransactionStateError
from repro.obs import runtime as _obs
from repro.time.clock import Clock, SystemClock, TransactionClock
from repro.time.instant import Instant
from repro.txn.log import CommitLog, CommitRecord
from repro.txn.transaction import Operation, Transaction

#: The database-side applier: given operations and the commit time, make
#: them durable.  Must raise (leaving state untouched) to reject the commit.
Applier = Callable[[Sequence[Operation], Instant], None]


class TransactionManager:
    """Coordinates transactions for one database."""

    def __init__(self, applier: Applier, clock: Optional[Clock] = None) -> None:
        self._applier = applier
        self._txn_clock = TransactionClock(clock if clock is not None
                                           else SystemClock())
        self._log = CommitLog()
        self._active: Optional[Transaction] = None
        self._next_id = 1
        self._lock = threading.Lock()
        # Reentrant: _commit re-acquires it under run(), which already
        # holds it around validate + begin + commit.
        self._run_lock = threading.RLock()
        #: Optional hook invoked with each CommitRecord after it is logged
        #: (used by the durable journal).
        self.on_commit: Optional[Callable[[CommitRecord], None]] = None

    # -- accessors ------------------------------------------------------------

    @property
    def log(self) -> CommitLog:
        """The append-only commit log."""
        return self._log

    @property
    def clock(self) -> TransactionClock:
        """The transaction clock (strictly monotone)."""
        return self._txn_clock

    @property
    def serialization_lock(self) -> threading.RLock:
        """The reentrant commit serialization lock.

        Every commit path — :meth:`run`, an explicit
        :meth:`Transaction.commit`, :meth:`certify` — acquires this
        lock, and it is reentrant, so a holder may still call
        :meth:`run` on this manager.  Exposed for *cross-manager*
        coordination: the sharded store's two-phase commit
        (:mod:`repro.sharding.coordinator`) takes several managers'
        locks in shard order to make one multi-shard commit atomic
        against every single-shard committer on the involved shards.
        Holders must acquire managers in a globally consistent order
        (ascending shard id) or risk deadlock.
        """
        return self._run_lock

    def now(self) -> Instant:
        """The database's notion of *now* (for ``now`` literals and defaults).

        This is the underlying clock's reading, floored at the last commit
        time: when a stalled simulated clock forces the monotone
        transaction clock to bump commit times past the raw reading,
        *now* follows — the present never precedes the latest commit.
        """
        reading = self._txn_clock.current()
        last = self._txn_clock.last
        if last is not None and last > reading:
            return last
        return reading

    @property
    def active(self) -> Optional[Transaction]:
        """The currently active transaction, if any."""
        if self._active is not None and not self._active.is_active:
            self._active = None
        return self._active

    # -- lifecycle ----------------------------------------------------------------

    def begin(self) -> Transaction:
        """Start a transaction (single-writer: only one may be active)."""
        with self._lock:
            if self.active is not None:
                raise TransactionStateError(
                    f"transaction {self._active.txn_id} is still active; "
                    f"the manager is single-writer"
                )
            txn = Transaction(self._next_id, self._commit)
            self._next_id += 1
            self._active = txn
            metrics = _obs.current().metrics
            metrics.counter("txn.begin").inc()
            metrics.gauge("txn.active").add(1)
            return txn

    def _commit(self, txn: Transaction) -> Instant:
        """Assign a commit time, apply, log and journal (via Transaction.commit).

        The active slot is released in the ``finally`` no matter which
        step raised — a failed commit must never wedge the manager (the
        transaction is marked aborted by its caller).  ``on_commit``
        fires *inside* the lock so durable journal appends happen in
        serialized commit order; if it raises, the commit is applied
        in memory but not durable, the documented crash-equivalent
        (docs/DURABILITY.md).

        Every commit — :meth:`run`'s or an explicit
        :meth:`Transaction.commit` — passes through ``_run_lock``
        (reentrant from :meth:`run`), so no commit can interleave
        between another caller's ``validate`` and its apply: the
        first-committer-wins check of the session layer holds against
        explicit transactions too, not just other ``run()`` callers.
        """
        with self._run_lock:
            with self._lock:
                try:
                    commit_time = self._txn_clock.tick()
                    self._applier(txn.operations, commit_time)
                    record = self._log.append(commit_time, txn.operations)
                    if self.on_commit is not None:
                        self.on_commit(record)
                finally:
                    self._active = None
        metrics = _obs.current().metrics
        metrics.counter("txn.commit").inc()
        metrics.gauge("txn.active").add(-1)
        return commit_time

    def run(self, operations: Sequence[Operation],
            validate: Optional[Callable[[], None]] = None) -> Instant:
        """Convenience: begin, buffer *operations*, and commit.

        Unlike interleaved explicit ``begin()`` calls (which the
        single-writer rule rejects), concurrent ``run()`` calls simply
        *serialize*: each whole-transaction convenience call takes its
        turn.

        *validate*, when given, runs under the serialization lock before
        anything begins; raising there rejects the transaction with no
        clock tick and no state change.  This is the optimistic-
        concurrency seam: the session layer passes its first-committer-
        wins check here, making validation atomic with the commit it
        guards against every other ``run()`` caller *and* every explicit
        :meth:`Transaction.commit` (``_commit`` takes the same lock).
        """
        with self._run_lock:
            if validate is not None:
                validate()
            txn = self.begin()
            try:
                for operation in operations:
                    txn.add(operation)
                return txn.commit()
            finally:
                if txn.is_active:
                    txn.abort()

    def certify(self, validate: Callable[[], Any]) -> Any:
        """Run *validate* atomically with respect to every commit;
        returns whatever it returns.

        The read-only counterpart of :meth:`run`: *validate* executes
        under the commit serialization lock — no ``run()`` caller and no
        explicit :meth:`Transaction.commit` can apply while it checks —
        but no transaction begins, the clock does not tick, and no
        commit record is produced.  The session layer certifies
        read-only sessions here (their whole read set held
        simultaneously at one point in the serial history).
        """
        with self._run_lock:
            return validate()

    def __repr__(self) -> str:
        return (f"TransactionManager({len(self._log)} commits, "
                f"active={self._active is not None})")
