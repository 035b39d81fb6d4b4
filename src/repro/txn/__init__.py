"""Transaction machinery.

The paper's transaction time is "the time the information was stored in
the database" — assigned by the system, strictly increasing, append-only.
This package supplies:

- :class:`~repro.txn.transaction.Transaction` — a buffered batch of update
  operations that commits atomically at a single transaction time;
- :class:`~repro.txn.log.CommitLog` — the in-memory append-only record of
  every committed transaction (the journal of
  :mod:`repro.storage.journal` persists it);
- :class:`~repro.txn.manager.TransactionManager` — ``run``, the one commit
  entry, stamped by a :class:`~repro.time.clock.TransactionClock`.

Every database kind in :mod:`repro.core` routes updates through this
machinery, which is how a *static rollback* or *temporal* database can
guarantee its past states were really the states the database went
through.
"""

from repro.txn.transaction import Operation, Transaction, TxnStatus
from repro.txn.log import CommitLog, CommitRecord
from repro.txn.manager import TransactionManager

__all__ = [
    "CommitLog",
    "CommitRecord",
    "Operation",
    "Transaction",
    "TransactionManager",
    "TxnStatus",
]
