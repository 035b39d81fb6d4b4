"""Replication: ship the commit journal, apply it like recovery would.

The paper's transaction time is append-only and system-assigned, which
makes the commit journal a *total order* that fully describes the
database — so replication here is nothing more exotic than streaming
that journal over a (faulty) transport and replaying it on the other
side through the exact apply path crash recovery uses.  A replica is
another consumer of ``storage/``'s recovery machinery.

The pieces (consistency contract in docs/REPLICATION.md):

- :mod:`~repro.replication.messages` — the framed, CRC-armored wire
  format (tag ``p1``), reusing :mod:`repro.storage.framing`;
- :mod:`~repro.replication.transport` — the injectable delivery seam:
  an honest in-process transport plus :class:`FaultyTransport`, a
  seeded injector of drop / duplicate / reorder / delay / partition in
  the spirit of :class:`~repro.storage.faults.FaultyIO`;
- :mod:`~repro.replication.primary` — streams records in serialized
  commit order (published only after the durable journal append),
  serves resends and checkpoint-style snapshot catch-up, heartbeats
  state digests;
- :mod:`~repro.replication.replica` — sequence-numbered idempotent
  apply (duplicates dropped, gaps re-requested), epoch fencing,
  divergence latching, lag metrics, token-gated read-your-writes reads;
- :mod:`~repro.replication.digest` — the canonical state digest both
  sides compare (also ``repro digest``);
- :mod:`~repro.replication.failover` — :class:`FailoverCoordinator`:
  fence, drain, prove the durable-prefix equality, promote under a
  fresh epoch.
"""

from repro.replication.digest import state_digest
from repro.replication.failover import (EPOCH_FILE, FailoverCoordinator,
                                        PromotionReport, read_epoch,
                                        write_epoch)
from repro.replication.messages import (REPLICATION_TAG, catchup_message,
                                        decode_message, digest_message,
                                        encode_message, gap_message,
                                        record_message, snapshot_message)
from repro.replication.primary import Primary
from repro.replication.replica import GAP_RETRY_EVERY, Replica
from repro.replication.transport import (ALL_TRANSPORT_FAULTS, FAULT_ERRORS,
                                         FaultyTransport, InProcessTransport,
                                         Transport, TransportFault,
                                         fault_error)

__all__ = [
    "ALL_TRANSPORT_FAULTS",
    "EPOCH_FILE",
    "FAULT_ERRORS",
    "FailoverCoordinator",
    "FaultyTransport",
    "GAP_RETRY_EVERY",
    "InProcessTransport",
    "Primary",
    "PromotionReport",
    "REPLICATION_TAG",
    "Replica",
    "Transport",
    "TransportFault",
    "catchup_message",
    "decode_message",
    "digest_message",
    "encode_message",
    "fault_error",
    "gap_message",
    "read_epoch",
    "record_message",
    "snapshot_message",
    "state_digest",
    "write_epoch",
]
