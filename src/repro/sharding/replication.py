"""Replication for the sharded store: one stream per shard.

Each shard's journal is an independent serialized commit stream, so the
sharded store replicates as N ordinary primary/replica pairs
(:mod:`repro.replication`) — shard *i*'s primary ships shard *i*'s
records to shard *i*'s replica, with per-shard sequence numbers,
divergence digests and catch-up, none of which had to change.  What is
new is the *composition*:

- **Vector tokens.**  Read-your-writes across shards needs one token
  per shard: a sharded store session's ``commit_token`` is the tuple
  of per-shard commit-log lengths, and :meth:`ShardedReplica.read`
  gates each shard's read on its component (a single integer could not
  say *which* shard's replica must catch up).
- **The combined digest.**  :func:`sharded_digest` names a sharded
  state: the SHA-256 over the per-shard canonical digests, in shard
  order.  Two sharded stores with equal shard counts hash equal iff
  every shard pair hashes equal — used by the chaos audits to compare a
  recovered store against a reference.

Note the replica's merged read is consistent per shard, not across
shards: shard streams advance independently, so a cross-shard
transaction may be visible on one shard's replica before the other's.
Gating on a vector token from the writing session restores
read-your-writes; cross-shard *cut* consistency on replicas would need
the decision log shipped too, which this module does not do (the
documented gap — docs/SHARDING.md).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, List, Optional, Sequence, Tuple

from repro.replication.digest import state_digest
from repro.replication.primary import Primary
from repro.replication.replica import Replica
from repro.replication.transport import Transport
from repro.sharding.store import ShardedDatabase


def _shard_node(node_id: str, shard: int) -> str:
    return f"{node_id}/s{shard}"


def combined_digest(databases: Sequence[Any]) -> str:
    """The SHA-256 naming an ordered sequence of database states."""
    digests = [state_digest(database) for database in databases]
    payload = json.dumps(digests, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def sharded_digest(store: ShardedDatabase) -> str:
    """The combined canonical digest of a sharded store's current state.

    Read at one consistent cut (every shard's digest taken under its
    lock inside one coordinator epoch), so a concurrent cross-shard
    commit can never tear the digest.
    """
    digests = store._read_all(state_digest)
    payload = json.dumps(list(digests), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ShardedPrimary:
    """N per-shard primaries fronting one sharded store."""

    def __init__(self, node_id: str, store: ShardedDatabase,
                 transport: Transport, epoch: int = 0) -> None:
        self.node_id = node_id
        self.store = store
        self.primaries: List[Primary] = [
            Primary(_shard_node(node_id, sid), database, transport,
                    epoch=epoch)
            for sid, database in enumerate(store.shard_databases)
        ]

    def add_replica(self, replica: "ShardedReplica") -> None:
        """Register a sharded replica (each shard pair wires up)."""
        for primary, shard_replica in zip(self.primaries, replica.replicas):
            primary.add_replica(shard_replica.node_id)

    def pump(self) -> int:
        """Service every shard's mailbox; returns messages handled."""
        return sum(primary.pump() for primary in self.primaries)

    def heartbeat(self) -> List[Tuple[int, str]]:
        """Each shard's ``(seq, digest)`` heartbeat, in shard order."""
        return [primary.heartbeat() for primary in self.primaries]

    def current_vector(self) -> Tuple[int, ...]:
        """The per-shard sequence numbers (compare to a vector token)."""
        return tuple(primary.current_seq for primary in self.primaries)

    def __repr__(self) -> str:
        return (f"ShardedPrimary({self.node_id!r}, "
                f"{len(self.primaries)} shards)")


class ShardedReplica:
    """N per-shard replicas composing one read-only sharded view."""

    def __init__(self, node_id: str, kind, transport: Transport,
                 primary_id: str, shards: int, epoch: int = 0) -> None:
        self.node_id = node_id
        self.replicas: List[Replica] = [
            Replica(_shard_node(node_id, sid), kind, transport,
                    _shard_node(primary_id, sid), epoch=epoch)
            for sid in range(shards)
        ]

    def request_catchup(self) -> None:
        """Cold-join every shard stream."""
        for replica in self.replicas:
            replica.request_catchup()

    def pump(self) -> int:
        """Drain every shard's mailbox; returns records applied."""
        return sum(replica.pump() for replica in self.replicas)

    def check(self) -> None:
        """Raise the first shard's divergence, if any stream diverged."""
        for replica in self.replicas:
            replica.check()

    def read(self, name: str,
             token: Optional[Sequence[int]] = None) -> List[Any]:
        """The merged current rows of *name*, gated on a vector token.

        *token* is a sharded session's ``commit_token``; each shard's
        read waits (raises :class:`~repro.errors.ReplicaLagging`) until
        that shard's replica applied its component.  Returns the merged
        row list — per-shard-consistent, see the module docstring.
        """
        rows: List[Any] = []
        for sid, replica in enumerate(self.replicas):
            part = replica.read(
                name, token=None if token is None else token[sid])
            rows.extend(part)
        return rows

    def digest(self) -> str:
        """The combined digest of the replica's current shard states."""
        return combined_digest([replica.database
                                for replica in self.replicas])

    def lag(self) -> List[Tuple[int, Optional[int]]]:
        """Each shard's ``(applied, head)`` lag pair, in shard order."""
        return [replica.lag() for replica in self.replicas]

    def applied_vector(self) -> Tuple[int, ...]:
        """Per-shard applied sequence numbers (compare to a token)."""
        return tuple(replica.applied_seq for replica in self.replicas)

    def __repr__(self) -> str:
        return (f"ShardedReplica({self.node_id!r}, "
                f"{len(self.replicas)} shards)")
