"""Optimistic sessions: buffer against a snapshot, validate at commit.

A :class:`ConcurrentSession` is one transaction's view of a store under
the session layer (:mod:`repro.concurrency.layer`).  It never holds a
lock while the application thinks: reads go straight to the committed
state, writes are buffered as plain
:class:`~repro.txn.transaction.Operation` records, and the session
tracks its *footprint* — for every footprint key read or written, the
key's version counter at first touch.

Which keys an access touches is the **store's** policy, not the
session's (the seam in docs/CONCURRENCY.md): a
:class:`~repro.core.base.Database` answers with the relation name, so
two sessions writing different keys of the same relation still conflict
(one retries and then succeeds); a
:class:`~repro.sharding.store.ShardedDatabase` answers with
``relation@shard`` for the owning shard, so sessions on different
shards neither conflict nor share a commit lock.  Sharpening to
``(relation, key)`` granularity is likewise a store-side change.

At commit the layer re-checks the footprint under the locks the store
takes for it: if any touched key has a newer version, another
transaction committed first and this one loses — first-committer-wins —
with a retryable :class:`~repro.errors.ConflictError`.

Reads within a session see the latest *committed* state, not the
session's own buffered writes (no read-your-writes); validation then
guarantees that everything read still holds at commit time, which makes
a committed session serializable at the store's footprint granularity.
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Union)

from repro.obs import context as _trace
from repro.relational.tuple import Tuple as Row
from repro.time.instant import Instant
from repro.txn.transaction import Operation, Transaction

InstantLike = Union[Instant, str, int]


class ConcurrentSession(Transaction):
    """One optimistic transaction: buffered writes + a read/write footprint.

    The :class:`~repro.txn.transaction.Transaction` lifecycle (status,
    ``add``, ``operations``, ``abort``, ``with``) plus what is a
    session's own: the footprint, tracked reads, the commit token, and a
    ``commit`` that validates through the owning layer.  Obtained from
    :meth:`SessionLayer.begin <repro.concurrency.layer.SessionLayer.begin>`
    (or implicitly inside :meth:`SessionLayer.run`).  The DML methods
    mirror the database kind's own (``valid_from`` / ``valid_to``
    keywords where the kind supports valid time).
    """

    def __init__(self, layer, session_id: int) -> None:
        super().__init__(session_id)
        self._layer = layer
        self._database = layer.database
        self._deadline: Optional[float] = None
        #: footprint key -> version counter at first touch.
        self._footprint: Dict[str, int] = {}
        self._commit_token: Optional[Any] = None
        #: the correlation id tying this attempt to its logical
        #: transaction: inherited from the thread's attached trace
        #: context (every retry attempt of one SessionLayer.run shares
        #: it), or freshly minted for raw begin() use.
        self._txn_id = _trace.current_txn() or _trace.new_txn_id()

    # -- accessors ------------------------------------------------------------

    @property
    def session_id(self) -> int:
        """A layer-unique, increasing session identifier."""
        return self._id

    @property
    def txn_id(self) -> str:
        """The logical transaction's correlation id (``txn-N``).

        Shared by every retry attempt of one :meth:`SessionLayer.run`
        call; spans and lifecycle events carry it as ``trace_id`` /
        ``txn`` so ``repro trace --txn`` can reconstruct the commit's
        whole distributed lineage.
        """
        return self._txn_id

    @property
    def op_class(self) -> str:
        """The SLO operation class this session falls into.

        ``read`` while nothing is buffered; otherwise the store's
        verdict on the buffered batch (``single_shard_write`` or
        ``cross_shard_write``).
        """
        if not self._operations:
            return "read"
        return self._database.op_class(self._operations)

    @property
    def footprint(self) -> Dict[str, int]:
        """A copy of the read/write footprint (footprint key -> version)."""
        return dict(self._footprint)

    @property
    def commit_token(self) -> Optional[Any]:
        """The read-your-writes token assigned at commit (None before).

        The store's commit count once this session's commit landed — an
        integer for a single database, the per-shard vector for a
        sharded one; a replica must have applied at least this many
        records before it can serve this session's own writes
        (:meth:`Replica.read <repro.replication.replica.Replica.read>`
        raises a retryable :class:`~repro.errors.ReplicaLagging` until
        then).  The token may over-count — a concurrent commit landing
        just after bumps the log length — which is safe: waiting for
        *more* records than strictly needed never serves stale data.
        """
        return self._commit_token

    # -- footprint ---------------------------------------------------------------

    def touch(self, name: str) -> None:
        """Record a whole-relation dependency on *name*.

        Called automatically by every whole-relation read below; call it
        directly to declare a dependency the session reads through some
        other channel.
        """
        self._touch(self._database.read_footprint(name))

    def _touch(self, keys: Iterable[str]) -> None:
        """Record each footprint key at its version on first touch."""
        for key in keys:
            if key not in self._footprint:
                self._footprint[key] = self._database.footprint_version(key)

    def conflicts(self) -> List[str]:
        """The touched keys whose version has moved since first touch."""
        return sorted(key for key, version in self._footprint.items()
                      if self._database.footprint_version(key) != version)

    # -- reads --------------------------------------------------------------------

    def _read(self, name: str, compute: Callable[[], Any]) -> Any:
        """Touch *name* and run *compute*, both under its footprint's locks.

        A commit's apply (close the superseded version, open the new
        one) is atomic only to holders of the commit lock; a bare
        ``database.snapshot`` taken mid-apply can see *neither* version
        of a replaced row, so every session read goes through here.  The
        touch holds the lock too, so it records the version the read saw:
        a commit landing while this session waits is read, not a conflict.
        """
        keys = self._database.read_footprint(name)

        def touch_and_compute() -> Any:
            self._touch(keys)
            return compute()

        return self._database.certify(keys, touch_and_compute)

    def read(self, name: str):
        """The relation's current committed snapshot, footprint-tracked."""
        return self._read(name, lambda: self._database.snapshot(name))

    def timeslice(self, name: str, valid_at: InstantLike):
        """Valid-time slice of the committed state, footprint-tracked."""
        return self._read(
            name, lambda: self._database.timeslice(name, valid_at))

    def rollback(self, name: str, as_of: InstantLike):
        """Transaction-time rollback of the committed state, tracked."""
        return self._read(
            name, lambda: self._database.rollback(name, as_of))

    def get(self, name: str, key: Mapping[str, Any]) -> List[Row]:
        """The current rows of *name* matching *key* — the targeted read.

        Touches only the footprint keys *key* narrows the read to (on a
        sharded store: the owning shard alone, which is what keeps a
        single-key transaction off every other shard's pipeline).
        """
        self._touch(self._database.read_footprint(name, key))
        return self._database.get(name, key)

    # -- writes --------------------------------------------------------------------

    def add(self, operation: Operation) -> None:
        """Buffer one operation (the database's ``txn=`` recorder seam),
        touching exactly the footprint keys it lands on."""
        self._require_active()
        self._touch(self._database.write_footprint(operation))
        super().add(operation)

    # The DML methods hand the database the ``txn=`` seam and let
    # :meth:`add` check the status and touch the footprint: pre-touching
    # the whole relation here would broadcast every keyed write to all
    # of a sharded store's shards.

    def insert(self, name: str, values: Mapping[str, Any],
               **valid_bounds: Any) -> None:
        """Buffer an insert (valid-time keywords per the database kind)."""
        self._database.insert(name, values, txn=self, **valid_bounds)

    def delete(self, name: str, match: Optional[Mapping[str, Any]] = None,
               **valid_bounds: Any) -> None:
        """Buffer a delete of every tuple agreeing with *match*."""
        self._database.delete(name, match, txn=self, **valid_bounds)

    def replace(self, name: str, match: Mapping[str, Any],
                updates: Mapping[str, Any], **valid_bounds: Any) -> None:
        """Buffer a replace of every tuple agreeing with *match*."""
        self._database.replace(name, match, updates, txn=self, **valid_bounds)

    # -- lifecycle ----------------------------------------------------------------

    def commit(self, deadline: Optional[float] = None) -> Optional[Instant]:
        """Validate the footprint and commit through the layer.

        Raises :class:`~repro.errors.ConflictError` when first-committer-
        wins validation fails (the session is then aborted; begin a new
        one to retry — :meth:`SessionLayer.run` does this for you).
        """
        self._deadline = deadline
        return super().commit()

    def _commit(self, operations) -> Optional[Instant]:
        return self._layer.commit_session(self, operations, self._deadline)

    def __repr__(self) -> str:
        return (f"ConcurrentSession(id={self._id}, {self._status.value}, "
                f"{len(self._operations)} ops, "
                f"footprint={sorted(self._footprint)})")
