"""Transactions: atomic batches of update operations.

A :class:`Transaction` buffers :class:`Operation` records — plain,
serializable descriptions of inserts, deletes and replaces, including
their valid-time arguments where the database kind supports valid time —
and hands the batch to its owning database at commit.  The whole batch
takes effect at one commit instant, which is exactly the paper's model:
"each transaction results in a new static relation being appended to the
front of the cube" (§4.2).

Operations carry *values*, not predicates, so a committed transaction can
be journaled and replayed byte-for-byte.  Databases that accept predicate
deletes resolve the predicate to concrete matches *before* buffering.
This value-only rule is a durability obligation: every argument of every
:class:`Operation` must survive the tagged-JSON round-trip of
:mod:`repro.storage.serializer` — the one documented exception being
declared check constraints on ``define``, which are not journaled
(docs/DURABILITY.md).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import TransactionStateError
from repro.obs import runtime as _obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.time.instant import Instant


class TxnStatus(enum.Enum):
    """The lifecycle of a transaction."""

    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Operation:
    """One serializable update step inside a transaction.

    ``action`` is ``"define"``, ``"drop"``, ``"insert"``, ``"delete"`` or
    ``"replace"``; ``arguments`` is a plain dict whose meaning the database
    kind defines (tuple values, valid-time bounds, replacement updates).
    """

    __slots__ = ("action", "relation", "arguments")

    def __init__(self, action: str, relation: str,
                 arguments: Mapping[str, Any]) -> None:
        self.action = action
        self.relation = relation
        self.arguments = dict(arguments)

    def describe(self) -> Dict[str, Any]:
        """A plain-dict description (used by the journal)."""
        return {"action": self.action, "relation": self.relation,
                "arguments": dict(self.arguments)}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Operation):
            return NotImplemented
        return self.describe() == other.describe()

    def __repr__(self) -> str:
        return f"Operation({self.action} {self.relation} {self.arguments!r})"


class OperationRecorder:
    """A ``txn=`` stand-in that captures operations instead of running them.

    The kind databases validate arguments and build the
    :class:`Operation` inside their DML methods, then hand it to
    ``txn.add`` when a transaction is given.  Passing a recorder reuses
    all of that validation while leaving the commit to the caller (the
    sharded router, the TQuel evaluator's match-and-apply unit).
    """

    __slots__ = ("ops",)

    def __init__(self) -> None:
        self.ops: List[Operation] = []

    def add(self, operation: Operation) -> None:
        self.ops.append(operation)


class Transaction:
    """A buffered, atomically-committing batch of operations.

    Obtained from a database's ``begin()``.  Buffer operations with
    :meth:`add`, then :meth:`commit` (applying them all at one transaction
    time) or :meth:`abort` (discarding them).  A transaction can be used as
    a context manager: committing on clean exit, aborting on exception. ::

        with db.begin() as txn:
            db.insert("faculty", {"name": "Tom", "rank": "associate"}, txn=txn)
    """

    def __init__(self, txn_id: int, commit_callback) -> None:
        self._id = txn_id
        self._status = TxnStatus.ACTIVE
        self._operations: List[Operation] = []
        self._commit_callback = commit_callback
        self._commit_time: Optional["Instant"] = None

    # -- accessors ------------------------------------------------------------

    @property
    def txn_id(self) -> int:
        """A session-unique, increasing transaction identifier."""
        return self._id

    @property
    def status(self) -> TxnStatus:
        """The current lifecycle state."""
        return self._status

    @property
    def operations(self) -> Tuple[Operation, ...]:
        """The buffered operations, in order."""
        return tuple(self._operations)

    @property
    def commit_time(self) -> Optional["Instant"]:
        """The transaction time assigned at commit (None before commit)."""
        return self._commit_time

    @property
    def is_active(self) -> bool:
        """True while the transaction can still buffer operations."""
        return self._status is TxnStatus.ACTIVE

    # -- lifecycle ----------------------------------------------------------------

    def _require_active(self) -> None:
        if self._status is not TxnStatus.ACTIVE:
            raise TransactionStateError(
                f"transaction {self._id} is {self._status.value}, not active"
            )

    def add(self, operation: Operation) -> None:
        """Buffer one operation."""
        self._require_active()
        self._operations.append(operation)

    def commit(self) -> "Instant":
        """Apply every buffered operation at one commit time.

        Returns the assigned transaction time.  If application fails, the
        transaction is marked aborted and nothing has taken effect.
        """
        self._require_active()
        try:
            self._commit_time = self._commit_callback(self)
        except Exception:
            self._status = TxnStatus.ABORTED
            metrics = _obs.current().metrics
            metrics.counter("txn.abort").inc()
            metrics.gauge("txn.active").add(-1)
            raise
        self._status = TxnStatus.COMMITTED
        return self._commit_time

    def abort(self) -> None:
        """Discard the buffered operations."""
        self._require_active()
        self._operations.clear()
        self._status = TxnStatus.ABORTED
        metrics = _obs.current().metrics
        metrics.counter("txn.abort").inc()
        metrics.gauge("txn.active").add(-1)

    # -- context manager ---------------------------------------------------------------

    def __enter__(self) -> "Transaction":
        self._require_active()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            if self._status is TxnStatus.ACTIVE:
                self.abort()
            return False
        if self._status is TxnStatus.ACTIVE:
            self.commit()
        return False

    def __repr__(self) -> str:
        return (f"Transaction(id={self._id}, {self._status.value}, "
                f"{len(self._operations)} ops)")
