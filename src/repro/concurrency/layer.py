"""The session layer: many sessions, one serialized commit order.

A :class:`SessionLayer` lets N threads run transactions against one
store concurrently while every commit still funnels through a
serialized commit pipeline — the
:class:`~repro.txn.manager.TransactionManager` of a plain database, or
the per-shard managers behind a sharded store's coordinator — so
transaction time stays append-only, system-assigned and strictly
increasing, exactly the paper's serial-history model ("each transaction
results in a new static relation being appended to the front of the
cube", §4.2).  The layer makes the race *safe* rather than the order
parallel:

1. **admission** (:class:`~repro.concurrency.admission.AdmissionController`)
   bounds how much work is in flight and sheds the excess fast;
2. each admitted transaction runs in an optimistic
   :class:`~repro.concurrency.session.ConcurrentSession` — no locks held
   while the application computes;
3. at commit, first-committer-wins validation runs under the locks the
   store takes for the session's footprint (its ``commit`` / ``certify``
   seam), atomically with the apply it guards;
4. a conflict raises a retryable :class:`~repro.errors.ConflictError`
   and the :class:`~repro.concurrency.retry.RetryPolicy` re-runs the
   whole closure — against the *new* committed state — with exponential
   backoff, never past the transaction's deadline.

There is one layer for every store: what a footprint key is, which
locks a commit takes and what the commit token looks like are the
store's answers (docs/CONCURRENCY.md, "The store seam"), so the sharded
store differs from a plain database by policy, not by session code.

Durability composes unchanged: the serialized commit stream is what the
:class:`~repro.storage.recovery.DurabilityManager` journals (appends
fire under the commit lock, in commit order), so the crash-safety
contract of docs/DURABILITY.md is oblivious to how many sessions raced.

Mixing rule: writers that bypass the layer (direct ``db.insert`` or an
explicit ``db.begin()`` transaction) commit through the same one entry,
under the same serialization lock, as the layer — they cannot slip
between a session's validation and its apply, so commits *through* the
layer always detect their interference; the bypassing writers
themselves get no conflict detection (docs/CONCURRENCY.md).
"""

from __future__ import annotations

import itertools
import time
from typing import Any, Callable, Optional, Sequence, TYPE_CHECKING

from repro.concurrency.admission import AdmissionController
from repro.concurrency.retry import RetryPolicy
from repro.concurrency.session import ConcurrentSession
from repro.errors import ConflictError, DeadlineExceeded, Overloaded
from repro.obs import context as _trace
from repro.obs import runtime as _obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.time.instant import Instant
    from repro.txn.transaction import Operation

#: A transaction closure: receives the session, returns the caller's value.
TransactionClosure = Callable[[ConcurrentSession], Any]


class SessionLayer:
    """Concurrent optimistic sessions over one store.

    Construct directly or via ``store.sessions()`` (a
    :class:`~repro.core.base.Database` of any kind or a
    :class:`~repro.sharding.store.ShardedDatabase`).  ``retry`` and ``admission``
    default to sensible bounded policies; pass explicitly-seeded ones
    for deterministic tests.  *clock* is the monotonic time source for
    deadlines (injectable).
    """

    def __init__(self, database, retry: Optional[RetryPolicy] = None,
                 admission: Optional[AdmissionController] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.database = database
        self.retry = retry if retry is not None else RetryPolicy()
        self.admission = (admission if admission is not None
                          else AdmissionController())
        self._clock = clock
        self._ids = itertools.count(1)

    # -- session lifecycle ----------------------------------------------------

    def begin(self) -> ConcurrentSession:
        """Start an optimistic session (no admission, no retry).

        The raw seam: the caller owns validation failures.  Application
        code normally wants :meth:`run`, which adds admission control,
        deadline enforcement, and conflict retry around this.
        """
        _obs.current().metrics.counter("concurrency.sessions").inc()
        return ConcurrentSession(self, next(self._ids))

    def commit_session(self, session: ConcurrentSession,
                       operations: Sequence[Operation],
                       deadline: Optional[float] = None) -> Optional["Instant"]:
        """Validate *session* and commit its *operations*; called by
        ``session.commit()``.

        First-committer-wins: the footprint check runs under the locks
        the store takes for that footprint, atomically with the apply.
        A transaction past its deadline aborts with
        :class:`~repro.errors.DeadlineExceeded` instead of committing
        late.  Read-only sessions (no buffered operations) validate via
        the store's ``certify`` — under the same locks as every commit
        to their footprint, so the check cannot interleave with an
        in-flight apply — and return ``None``: no commit record, but the
        whole read set is certified to have held simultaneously.
        """
        obs = _obs.current()
        metrics = obs.metrics
        if deadline is not None and self._clock() >= deadline:
            raise DeadlineExceeded(
                f"session {session.session_id} reached its deadline "
                f"before commit; aborting instead of committing late")

        def validate() -> None:
            stale = session.conflicts()
            if stale:
                metrics.counter("concurrency.conflicts").inc()
                obs.events.emit("txn.conflict", txn=session.txn_id,
                                relations=stale)
                raise ConflictError(
                    f"session {session.session_id} lost first-committer-"
                    f"wins validation: {', '.join(stale)} changed since "
                    f"it began", relations=stale)

        database = self.database
        footprint = tuple(session._footprint)
        if not operations:
            database.certify(footprint, validate)
            # A certified read-only session still gets a token: a
            # replica at this index has everything the session saw.
            session._commit_token = database.commit_token()
            obs.events.emit("txn.commit", txn=session.txn_id,
                            op_class="read", token=session._commit_token)
            return None
        with obs.tracer.span("concurrency.commit", txn=session.txn_id):
            with metrics.histogram("concurrency.commit_seconds").time():
                commit_time = database.commit(
                    operations, footprint, validate)
        # The read-your-writes token: replicas must apply at least this
        # many records before serving this session's writes.  Read after
        # the commit locks dropped, so it may over-count (a concurrent
        # commit landing first) — conservative, never stale.
        session._commit_token = database.commit_token()
        metrics.counter("concurrency.commits").inc()
        obs.events.emit("txn.commit", txn=session.txn_id,
                        op_class=session.op_class,
                        token=session._commit_token)
        return commit_time

    # -- the transactional entry point -----------------------------------------

    def run(self, closure: TransactionClosure,
            timeout: Optional[float] = None,
            deadline: Optional[float] = None, wait: bool = True) -> Any:
        """Run *closure* as one transaction: admit, execute, commit, retry.

        The closure receives a fresh :class:`ConcurrentSession` per
        attempt and is re-run from scratch on conflict (so it must be
        safe to repeat — pure reads plus buffered writes are).  Its
        return value is returned on commit.  ``timeout`` (seconds from
        now) or an absolute ``deadline`` (a reading of the layer's
        monotonic clock) bound the whole affair, retries and queueing
        included; past it the transaction aborts with
        :class:`~repro.errors.DeadlineExceeded` rather than commit late.
        Raises :class:`~repro.errors.Overloaded` when shed at admission,
        :class:`~repro.errors.ConflictError` when retries are exhausted.
        ``wait=False`` raises ``WouldWait`` instead of queueing or sleeping.
        """
        if deadline is None and timeout is not None:
            deadline = self._clock() + timeout
        obs = _obs.current()
        txn_id = _trace.new_txn_id()
        state = {"attempt": 0, "session": None}

        def attempt() -> Any:
            state["attempt"] += 1
            number = state["attempt"]
            obs.events.emit("txn.attempt", txn=txn_id, attempt=number)
            with obs.tracer.span("concurrency.attempt", attempt=number):
                try:
                    with self.admission.admit(deadline, wait):
                        session = self.begin()
                        state["session"] = session
                        try:
                            result = closure(session)
                            if session.is_active:
                                session.commit(deadline)
                            return result
                        finally:
                            if session.is_active:
                                session.abort()
                except Overloaded as error:
                    obs.events.emit("txn.shed", txn=txn_id,
                                    attempt=number,
                                    retry_after=error.retry_after)
                    raise

        # The root span *starts* this transaction's trace; attaching its
        # context makes txn_id ambient for every same-thread descendant
        # (events default their txn, journal appends find their owner)
        # and every retry attempt's session inherit the same txn_id.
        with obs.tracer.span("concurrency.run", trace_id=txn_id,
                             txn=txn_id) as root:
            with _trace.attach(root.context):
                obs.events.emit("txn.begin", txn=txn_id)
                started = self._clock()
                try:
                    result = self.retry.call(attempt, deadline, wait)
                except DeadlineExceeded:
                    obs.metrics.counter("concurrency.deadline_exceeded").inc()
                    obs.events.emit("txn.deadline", txn=txn_id,
                                    attempts=state["attempt"])
                    raise
                except Exception as error:
                    obs.events.emit("txn.abort", txn=txn_id,
                                    error=type(error).__name__,
                                    attempts=state["attempt"])
                    raise
                # End-to-end latency — admission queueing, every retry
                # attempt, validation and commit — against the class the
                # *committed* session fell into.
                session = state["session"]
                op_class = session.op_class if session is not None else "read"
                obs.slo.record(op_class, self._clock() - started)
                return result

    def __repr__(self) -> str:
        return (f"SessionLayer({self.database!r}, retry={self.retry!r}, "
                f"admission={self.admission!r})")
