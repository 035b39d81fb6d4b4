"""Durability for the sharded store: N journals plus the 2PC logs.

One :class:`ShardedDurabilityManager` owns one directory::

    <dir>/shards.json       — {"shards": N, "scheme": "crc32-key-mod"}
    <dir>/decisions.seg     — the coordinator's 2PC decision log
    <dir>/shard-00/         — shard 0's DurabilityManager directory
    <dir>/shard-00/2pc.seg  — shard 0's prepare log
    <dir>/shard-01/ …

Each ``shard-NN/`` is a complete, independent
:class:`~repro.storage.recovery.DurabilityManager` directory — segmented
journal, checkpoints, torn-tail repair — so single-shard commits journal
through their own stream with no cross-shard ordering to maintain.  The
two side logs carry the cross-shard protocol
(:mod:`repro.sharding.coordinator`): a ``prepare`` record per involved
shard (with the operations and that shard's durable record count at
prepare time), then one ``decision`` record whose append is the commit
point.  All three file kinds use the same CRC32 framing, so a torn tail
anywhere is detected and means "this record never became durable".

**Recovery** (:meth:`ShardedDurabilityManager.recover`):

1. check ``shards.json`` against the requested shape
   (:class:`~repro.errors.ShardConfigError` on mismatch — a 4-shard
   directory opened as 8 shards would scatter every key);
2. recover every shard directory independently (checkpoint + tail
   replay, exactly the single-store algorithm);
3. resolve in-doubt 2PC state: scan the decision log (torn tail
   dropped — an undurable decision is no decision), then each shard's
   prepare log.  A prepare whose gid has **no** durable commit decision
   is presumed aborted and ignored.  A prepare whose gid **was** decided
   commits everywhere: if the shard's recovered journal has no record
   past the prepare's ``base`` count, the apply never journaled and the
   prepared operations are re-run (and re-journaled) now.  Because the
   coordinator holds the shard's serialization lock from prepare to
   apply, record ``base`` of that shard's journal can only ever be this
   transaction's commit record — "count > base" is exact, not a
   heuristic.  Re-running recovery is idempotent: once re-applied, the
   count exceeds ``base``.

**Compaction.**  :meth:`checkpoint` quiesces every shard (all
serialization locks held), checkpoints each shard directory, then
truncates both 2PC logs: with all locks held no transaction is between
prepare and apply, so every decided transaction is in some checkpoint
and the logs carry no live information.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ShardConfigError
from repro.obs import runtime as _obs
from repro.sharding.partition import SCHEME, Partitioner
from repro.sharding.store import ShardedDatabase
from repro.storage.framing import JOURNAL_TAG, frame_record
from repro.storage.io import REAL_IO, StorageIO
from repro.storage.journal import Journal, decode_operation
from repro.storage.recovery import DurabilityManager, RecoveryReport

_MANIFEST = "shards.json"
_DECISIONS = "decisions.seg"
_PREPARES = "2pc.seg"


class _SideLog(Journal):
    """An append-only framed log of plain dict records (the 2PC logs).

    A :class:`~repro.storage.journal.Journal` file for scanning and
    torn-tail repair — framing is framing, whatever the record schema —
    but of CRC-only ``r1`` records outside the commit hash chain,
    appended through the same :class:`StorageIO` seam, so the fault
    harness can tear and kill 2PC appends exactly like journal appends.
    """

    _tag = JOURNAL_TAG

    def append(self, entry: Dict[str, Any]) -> None:
        line = frame_record(entry)
        with self._append_lock:
            self._io.append(self._path, (line + "\n").encode("utf-8"),
                            fsync=self._fsync)

    def repair(self) -> int:
        """Drop a torn trailing record; returns bytes truncated."""
        if not os.path.exists(self._path):
            return 0
        return self.truncate_torn_tail()

    def clear(self) -> None:
        """Truncate to empty (compaction; caller guarantees quiescence)."""
        with self._append_lock:
            with open(self._path, "wb"):
                pass

    def size(self) -> int:
        return os.path.getsize(self._path) if os.path.exists(self._path) \
            else 0


@dataclasses.dataclass(frozen=True)
class ShardedRecoveryReport:
    """What one :meth:`ShardedDurabilityManager.recover` run did."""

    #: The store's shard count.
    shards: int
    #: Each shard directory's own recovery report, in shard order.
    per_shard: Tuple[RecoveryReport, ...]
    #: Durable commit decisions found in the decision log.
    decisions: int
    #: Prepares with no durable decision — presumed aborted and dropped.
    in_doubt_aborted: int
    #: Decided-but-unjournaled shard batches re-applied during resolution.
    reapplied: int

    def describe(self) -> Dict[str, Any]:
        """A plain dict (what ``repro recover --json`` prints)."""
        return {
            "shards": self.shards,
            "per_shard": [report.describe() for report in self.per_shard],
            "decisions": self.decisions,
            "in_doubt_aborted": self.in_doubt_aborted,
            "reapplied": self.reapplied,
            "records_total": sum(r.records_total for r in self.per_shard),
            "records_replayed": sum(r.records_replayed
                                    for r in self.per_shard),
        }


class ShardedDurabilityManager:
    """Checkpointed, crash-tolerant persistence for a sharded store.

    *shards* names the shape when creating a fresh directory; against an
    existing directory it is checked (``None`` adopts the recorded
    shape).  Also the coordinator's 2PC log seam: :meth:`prepare`,
    :meth:`decide` and :meth:`record_count` are what
    :class:`~repro.sharding.coordinator.ShardCoordinator` calls.
    """

    def __init__(self, directory: str, shards: Optional[int] = None,
                 fsync: bool = False, io: Optional[StorageIO] = None) -> None:
        self._directory = directory
        self._fsync = fsync
        self._io = io if io is not None else REAL_IO
        self._shards = self._resolve_shape(shards)
        self._managers = [
            DurabilityManager(self._shard_dir(sid), fsync=fsync,
                              io=self._io, shard=sid)
            for sid in range(self._shards)
        ]
        self._decisions = _SideLog(os.path.join(directory, _DECISIONS),
                                   fsync, self._io)
        self._prepares = [
            _SideLog(os.path.join(self._shard_dir(sid), _PREPARES),
                     fsync, self._io)
            for sid in range(self._shards)
        ]
        self._store: Optional[ShardedDatabase] = None

    def _shard_dir(self, sid: int) -> str:
        return os.path.join(self._directory, f"shard-{sid:02d}")

    def _manifest_path(self) -> str:
        return os.path.join(self._directory, _MANIFEST)

    def _resolve_shape(self, requested: Optional[int]) -> int:
        """Reconcile the requested shard count with ``shards.json``."""
        path = self._manifest_path()
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
            recorded = int(manifest.get("shards", 0))
            scheme = manifest.get("scheme")
            if scheme != SCHEME:
                raise ShardConfigError(
                    f"{self._directory} was partitioned with scheme "
                    f"{scheme!r}; this build understands {SCHEME!r}")
            if requested is not None and requested != recorded:
                raise ShardConfigError(
                    f"{self._directory} holds {recorded} shards; opening "
                    f"it as {requested} would re-hash every key — "
                    f"resharding is not a recovery-time operation")
            return recorded
        if requested is None:
            requested = 4
        if requested < 1:
            raise ShardConfigError("a sharded store needs at least 1 shard")
        return requested

    def _write_manifest(self) -> None:
        path = self._manifest_path()
        if not os.path.exists(path):
            os.makedirs(self._directory, exist_ok=True)
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(Partitioner(self._shards).describe(), handle,
                          sort_keys=True)
                handle.write("\n")

    # -- accessors ------------------------------------------------------------

    @property
    def directory(self) -> str:
        return self._directory

    @property
    def shards(self) -> int:
        """The directory's shard count."""
        return self._shards

    @property
    def store(self) -> Optional[ShardedDatabase]:
        """The attached sharded database (``None`` before recover)."""
        return self._store

    # -- the coordinator's 2PC log seam -----------------------------------------

    def prepare(self, shard: int, entry: Dict[str, Any]) -> None:
        """Journal one prepare record to *shard*'s 2PC log (durable on
        return)."""
        self._prepares[shard].append(entry)
        _obs.current().metrics.counter("sharding.prepares").inc()

    def decide(self, entry: Dict[str, Any]) -> None:
        """Journal the commit decision — the cross-shard commit point."""
        self._decisions.append(entry)
        _obs.current().metrics.counter("sharding.decisions").inc()

    def record_count(self, shard: int) -> int:
        """Durable journal records of one shard (the prepare ``base``)."""
        return self._managers[shard].record_count

    # -- recovery ----------------------------------------------------------------

    def recover(self, factory: Callable[..., Any],
                use_checkpoint: bool = True,
                ) -> Tuple[ShardedDatabase, ShardedRecoveryReport]:
        """Rebuild the sharded store from disk; returns (store, report).

        Works on an empty directory too (creating the manifest and the
        shard directories), so this is also how a durable sharded store
        is created.  The returned store is attached: single-shard
        commits journal through their shard's stream, cross-shard
        commits through the 2PC logs, from here on.
        """
        os.makedirs(self._directory, exist_ok=True)
        self._write_manifest()
        obs = _obs.current()
        with obs.tracer.span("sharding.recover", directory=self._directory,
                             shards=self._shards):
            reports: List[RecoveryReport] = []
            databases = []
            for manager in self._managers:
                database, report = manager.recover(
                    factory, use_checkpoint=use_checkpoint)
                databases.append(database)
                reports.append(report)
            store = ShardedDatabase.from_shards(databases)
            decisions, aborted, reapplied = self._resolve_two_phase(store)
            store.coordinator.attach_two_phase(self)
            self._store = store
            report = ShardedRecoveryReport(
                shards=self._shards,
                per_shard=tuple(reports),
                decisions=decisions,
                in_doubt_aborted=aborted,
                reapplied=reapplied,
            )
            obs.metrics.counter("sharding.recoveries").inc()
        return store, report

    def _resolve_two_phase(self,
                           store: ShardedDatabase) -> Tuple[int, int, int]:
        """Apply the recovery rules to the 2PC logs (docstring, step 3)."""
        metrics = _obs.current().metrics
        self._decisions.repair()  # a torn decision is no decision
        committed = {
            entry["gid"] for entry in self._decisions.read()
            if entry.get("kind") == "decision"
            and entry.get("decision") == "commit"
        }
        aborted = 0
        reapplied = 0
        for sid in range(self._shards):
            self._prepares[sid].repair()  # a torn prepare never voted
            shard_db = store.shard_databases[sid]
            for entry in self._prepares[sid].read():
                if entry.get("kind") != "prepare":
                    continue
                if entry["gid"] not in committed:
                    aborted += 1  # presumed abort
                    continue
                if self._managers[sid].record_count > int(entry["base"]):
                    continue  # the apply's commit record is durable
                operations = [decode_operation(op)
                              for op in entry["operations"]]
                # Re-run through the shard's own manager: the commit
                # gets a fresh (post-recovery) transaction time and —
                # because the shard manager is already attached — a
                # normal journal record, making this idempotent.
                shard_db.manager.run(operations)
                reapplied += 1
        if aborted:
            metrics.counter("sharding.in_doubt_aborted").inc(aborted)
        if reapplied:
            metrics.counter("sharding.reapplied").inc(reapplied)
        return len(committed), aborted, reapplied

    # -- checkpointing -------------------------------------------------------------

    def checkpoint(self) -> List[str]:
        """Checkpoint every shard at one quiesced cut; compact the 2PC logs.

        Takes every shard's serialization lock (so no commit — single-
        or cross-shard — is in flight anywhere), checkpoints each shard
        directory, then truncates the prepare and decision logs: under
        the locks every decided transaction has applied and
        checkpointed, so the logs carry no live information.  Returns
        the checkpoint paths, in shard order.
        """
        if self._store is None:
            raise ShardConfigError("no store attached; recover() first")
        paths: List[str] = []

        def checkpoint_all() -> None:
            for manager in self._managers:
                paths.append(manager.checkpoint())
            for side in self._prepares:
                side.clear()
            self._decisions.clear()

        self._store.coordinator.certify(checkpoint_all)
        _obs.current().metrics.counter("sharding.checkpoints").inc()
        return paths

    # -- observability ----------------------------------------------------------------

    def chain_heads(self) -> List[Optional[str]]:
        """Each shard's hash-chain head, in shard order.

        A head is None before that shard's recover() ran (nothing is
        attached to walk).  Per-shard streams chain independently;
        :meth:`combined_root` names the whole store.
        """
        return [manager.chain_head for manager in self._managers]

    def combined_root(self) -> Optional[str]:
        """One hash naming the whole sharded history: the per-shard
        chain heads folded in shard order (None when any is unknown).

        The sharded analogue of a single journal's chain head — two
        stores with equal roots hold byte-identical commit histories on
        every shard, checked in O(shards) instead of O(state).
        """
        from repro.storage.scrub import combined_root
        return combined_root(self.chain_heads())

    def journal_bytes(self, shard: int) -> int:
        """On-disk journal bytes of one shard (segments + its 2PC log)."""
        total = self._prepares[shard].size()
        for _, path in self._managers[shard].segments():
            if os.path.exists(path):
                total += os.path.getsize(path)
        return total

    def shard_stats(self) -> Dict[str, Any]:
        """Per-shard durability facts; also refreshes the obs gauges.

        Sets ``shard.<i>.journal_bytes`` and ``shard.<i>.records`` in
        the metrics registry (the ``stats`` CLI verb surfaces them
        alongside the counters the commit paths maintain).
        """
        metrics = _obs.current().metrics
        shards: List[Dict[str, Any]] = []
        for sid in range(self._shards):
            size = self.journal_bytes(sid)
            count = self._managers[sid].record_count
            metrics.gauge(f"shard.{sid}.journal_bytes").set(size)
            metrics.gauge(f"shard.{sid}.records").set(count)
            shards.append({
                "shard": sid,
                "records": count,
                "journal_bytes": size,
                "segments": len(self._managers[sid].segments()),
                "chain_head": self._managers[sid].chain_head,
            })
        return {
            "shards": self._shards,
            "decision_log_bytes": self._decisions.size(),
            "combined_root": self.combined_root(),
            "per_shard": shards,
        }

    def __repr__(self) -> str:
        total = sum(m.record_count for m in self._managers)
        return (f"ShardedDurabilityManager({self._directory!r}, "
                f"{self._shards} shards, {total} records)")
