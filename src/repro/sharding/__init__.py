"""Sharding: per-shard commit pipelines under one logical store.

The transaction manager serializes every commit of a
database behind one lock — correct, and the wall the concurrency layer's
throughput flattens against.  This package breaks the wall by
*partitioning*: a :class:`ShardedDatabase` hash-partitions every
relation by primary key over N complete per-shard databases, each with
its own commit lock, clock, journal stream and index cache
(:mod:`repro.sharding.partition`, :mod:`repro.sharding.store`).
Single-shard transactions commit fully in parallel; cross-shard
transactions run a two-phase protocol over the per-shard locks
(:mod:`repro.sharding.coordinator`), made durable and crash-recoverable
by per-shard prepare logs plus a coordinator decision log
(:mod:`repro.sharding.durability`).  The one session layer
(:mod:`repro.concurrency`) validates optimistically at
``relation@shard`` granularity because that is how the store answers
its seam, and per-shard replication streams compose with a vector
commit token (:mod:`repro.sharding.replication`).  See docs/SHARDING.md.
"""

from repro.sharding.coordinator import ShardCoordinator
from repro.sharding.durability import (ShardedDurabilityManager,
                                       ShardedRecoveryReport)
from repro.sharding.partition import SCHEME, Partitioner, stable_hash
from repro.sharding.replication import (ShardedPrimary, ShardedReplica,
                                        combined_digest, sharded_digest)
from repro.sharding.store import ShardedDatabase, ShardLog

__all__ = [
    "SCHEME", "Partitioner", "stable_hash",
    "ShardCoordinator", "ShardedDatabase", "ShardLog",
    "ShardedDurabilityManager", "ShardedRecoveryReport",
    "ShardedPrimary", "ShardedReplica", "combined_digest", "sharded_digest",
]
