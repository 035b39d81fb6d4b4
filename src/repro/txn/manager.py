"""The transaction manager: the one commit entry, plus commit timestamps.

One :class:`TransactionManager` serves one database.  It owns the
:class:`~repro.time.clock.TransactionClock` (so commit times are strictly
increasing and system-assigned — the paper's append-only,
application-independent transaction time), the
:class:`~repro.txn.log.CommitLog`, and the one serialization lock.

:meth:`TransactionManager.run` is the only code that commits: under the
lock it runs the caller's ``validate``, ticks the clock, calls the
applier, appends the commit record and fires ``on_commit``.  Every door
into the store ends there — a direct DML call, an explicit
:meth:`begin` transaction (a :class:`~repro.txn.transaction.Transaction`
whose commit function *is* ``run``), a session of
:mod:`repro.concurrency` (whose first-committer-wins check is the
``validate``), a shard's part of a two-phase commit, a replayed journal
record.  Open transactions hold nothing while they buffer, so any number
may be open at once; they serialize when they commit, and the serial
history the paper's figures assume is that order of commits (a rollback
relation *is* the serialized sequence of its transactions).  Because
there is one lock and one entry, no writer can slip between another's
validation and its apply (docs/CONCURRENCY.md).

**Failure.**  A commit that raises — in the applier, the log append or
the ``on_commit`` hook — leaves nothing behind in the manager: there is
no per-transaction state here to release, so the next commit is always
accepted (the failed :class:`Transaction` marks itself aborted).

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

import itertools
import threading
from typing import Any, Callable, Optional, Sequence

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
        self._ids = itertools.count(1)
        # Reentrant: a holder (commit_unit, a cross-shard commit) may
        # still call run() on this manager.
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

        :meth:`run` and :meth:`certify` acquire this lock, and it is
        reentrant, so a holder may still call :meth:`run` on this
        manager.  Exposed for *cross-manager* coordination: the sharded
        store's two-phase commit (:mod:`repro.sharding.coordinator`)
        takes several managers' locks in shard order to make one
        multi-shard commit atomic against every single-shard committer
        on the involved shards.  Holders must acquire managers in a
        globally consistent order (ascending shard id) or risk deadlock.
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

    # -- lifecycle ----------------------------------------------------------------

    def begin(self) -> Transaction:
        """An open transaction whose commit is :meth:`run`."""
        return Transaction(next(self._ids), self.run)

    def run(self, operations: Sequence[Operation],
            validate: Optional[Callable[[], None]] = None) -> Instant:
        """Commit *operations* as one transaction; returns its commit time.

        The one commit entry.  Under the serialization lock: *validate*
        (when given), then one clock tick, the applier, the log append
        and ``on_commit`` — so concurrent callers simply take turns, and
        durable journal appends happen in serialized commit order.

        *validate* raising rejects the transaction with no clock tick
        and no state change.  This is the optimistic-concurrency seam:
        the session layer passes its first-committer-wins check here,
        making validation atomic with the commit it guards against
        every other committer.  If ``on_commit`` raises, the commit is
        applied in memory but not durable, the documented
        crash-equivalent (docs/DURABILITY.md).
        """
        metrics = _obs.current().metrics
        begun, active, committed = metrics.handles("txn.run", lambda m: (
            m.counter("txn.begin"), m.gauge("txn.active"),
            m.counter("txn.commit")))
        with self._run_lock:
            if validate is not None:
                validate()
            begun.inc()
            active.add(1)
            try:
                commit_time = self._txn_clock.tick()
                self._applier(operations, commit_time)
                record = self._log.append(commit_time, operations)
                if self.on_commit is not None:
                    self.on_commit(record)
            except Exception:
                metrics.counter("txn.abort").inc()
                raise
            finally:
                active.add(-1)
        committed.inc()
        return commit_time

    def certify(self, validate: Callable[[], Any]) -> Any:
        """Run *validate* atomically with respect to every commit;
        returns whatever it returns.

        The read-only counterpart of :meth:`run`: *validate* executes
        under the commit serialization lock — nothing can apply while
        it checks — but the clock does not tick and no commit record is
        produced.  The session layer certifies read-only sessions here
        (their whole read set held simultaneously at one point in the
        serial history).
        """
        with self._run_lock:
            return validate()

    def __repr__(self) -> str:
        return f"TransactionManager({len(self._log)} commits)"
