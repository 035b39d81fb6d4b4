"""Transactions: atomic batches of update operations.

A :class:`Transaction` buffers :class:`Operation` records — plain,
serializable descriptions of inserts, deletes and replaces, including
their valid-time arguments where the database kind supports valid time —
and hands the batch to a commit function ``operations -> Instant`` at
commit.  The whole batch takes effect at one commit instant, which is
exactly the paper's model: "each transaction results in a new static
relation being appended to the front of the cube" (§4.2).

There is one lifecycle class.  Who issues the batch — an explicit
``db.begin()``, an optimistic session, a TQuel statement's match-and-apply
unit, the sharded router — decides only which commit function is bound:
:meth:`TransactionManager.run <repro.txn.manager.TransactionManager.run>`
for one database, the coordinator's ``run`` for a sharded one, the
session layer's validate-then-commit for a session.  Buffering holds
nothing, so the serial history is the order of *commits*, not of
``begin()`` calls.

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
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Sequence, Tuple)

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
                 arguments: Dict[str, Any]) -> None:
        self.action = action
        self.relation = relation
        self.arguments = arguments  # the caller's own: kept, not copied

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


class Transaction:
    """A buffered, atomically-committing batch of operations.

    *The* lifecycle in this codebase: an explicit ``db.begin()``
    transaction is one of these bound to the store's ``run``, an
    optimistic session (:class:`~repro.concurrency.session.
    ConcurrentSession`) is a subclass that adds a footprint, and the
    ``txn=`` parameter of every DML method takes either.  Buffer
    operations with :meth:`add`, then :meth:`commit` (handing the whole
    batch to the bound commit function, which applies it at one
    transaction time) or :meth:`abort` (discarding it).  Any number may
    be open at once — nothing is held while buffering; they serialize
    at commit.  Usable as a context manager: committing on clean exit,
    aborting on exception. ::

        with db.begin() as txn:
            db.insert("faculty", {"name": "Tom", "rank": "associate"}, txn=txn)
    """

    def __init__(self, txn_id: int,
                 commit: Optional[Callable[[Sequence[Operation]],
                                           Optional["Instant"]]] = None,
                 ) -> None:
        self._id = txn_id
        self._status = TxnStatus.ACTIVE
        self._operations: List[Operation] = []
        if commit is not None:
            self._commit = commit
        self._commit_time: Optional["Instant"] = None
        _obs.current().metrics.gauge("txn.active").add(1)

    # -- accessors ------------------------------------------------------------

    @property
    def txn_id(self) -> int:
        """A store-unique, increasing transaction identifier."""
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

    def _commit(self, operations: Sequence[Operation]) -> Optional["Instant"]:
        """The commit function: the one given at construction, else a
        subclass's override (a method, where a stored closure over
        ``self`` would make every instance a reference cycle)."""
        raise TransactionStateError(
            f"transaction {self._id} has no commit function bound")

    def _finish(self, status: TxnStatus) -> None:
        self._status = status
        _obs.current().metrics.gauge("txn.active").add(-1)

    def add(self, operation: Operation) -> None:
        """Buffer one operation."""
        self._require_active()
        self._operations.append(operation)

    def commit(self) -> Optional["Instant"]:
        """Hand every buffered operation to the commit function.

        Returns the assigned transaction time.  If the commit function
        raises, the transaction is marked aborted and nothing has taken
        effect.
        """
        self._require_active()
        try:
            self._commit_time = self._commit(self.operations)
        except Exception:
            self._finish(TxnStatus.ABORTED)
            raise
        self._finish(TxnStatus.COMMITTED)
        return self._commit_time

    def abort(self) -> None:
        """Discard the buffered operations."""
        self._require_active()
        self._operations.clear()
        self._finish(TxnStatus.ABORTED)
        _obs.current().metrics.counter("txn.abort").inc()

    # -- context manager ---------------------------------------------------------------

    def __enter__(self) -> "Transaction":
        self._require_active()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self.is_active:
            if exc_type is None:
                self.commit()
            else:
                self.abort()
        return False

    def __repr__(self) -> str:
        return (f"Transaction(id={self._id}, {self._status.value}, "
                f"{len(self._operations)} ops)")
