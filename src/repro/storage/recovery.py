"""Recovery: checkpoint + tail replay over a segmented journal.

One :class:`DurabilityManager` owns one directory holding a database's
entire durable state:

- ``journal-<start>.seg`` — journal segments.  A segment's name is the
  **global index** of its first record; record *j* of the segment is
  global record ``start + j``.  Segments rotate at every checkpoint, so
  a checkpoint's tail is exactly the segments at or after its index.
- ``checkpoint-<index>.ckpt`` — atomic checkpoints
  (:mod:`repro.storage.checkpoint`): the open partition plus a manifest
  of the history files holding the closed rows; ``index`` counts the
  journal records the state incorporates.
- ``history-<index>-<hash>.hist`` — sealed history files: the rows whose
  transaction time closed between two checkpoints, written once.

**The recovery algorithm** (:meth:`DurabilityManager.recover`):

1. load the newest *usable* checkpoint, its history files verified
   against its manifest (a damaged checkpoint, one standing on a
   missing or damaged history file, or one whose rows do not decode, is
   skipped — the journal can always fill the gap); with none, start
   from an empty database of the requested kind;
2. walk the segments with the checkpoint's index as the base — the walk
   the audit makes (:mod:`repro.storage.walk`) — replaying each entry at
   or after it as it verifies, at its original commit instant;
3. raise the typed error of the first finding the walk refuses; else
   truncate a torn final record, then raise any replay error;
4. attach: new commits append to the live segment (or start the one a
   crash kept a checkpoint from rotating to), and
   :meth:`DurabilityManager.checkpoint` publishes a fresh checkpoint and
   rotates, folding in the old segment by the running hash of what was
   appended to it — never by re-reading it.

The recovered database is observationally identical to one that never
crashed (same snapshots, timeslices, rollbacks and TQuel answers) up to
the last *durable* commit — a commit whose record never reached the
journal is lost, which is the documented contract (docs/DURABILITY.md).

Checkpoints are pure optimization: ``recover(use_checkpoint=False)``
ignores them and replays all of history, and the equivalence tests in
``tests/storage/test_recovery.py`` hold the two paths to identical
answers for every database kind.  Segments strictly below the newest
checkpoint index may be deleted by an operator to reclaim space, oldest
first — history files may **not**: they are the only copy of the closed
rows outside those very segments.  This module never deletes anything.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import re
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import JournalError
from repro.obs import runtime as _obs
from repro.storage import chain as _chain
from repro.storage.checkpoint import CheckpointStore
from repro.storage.io import REAL_IO, StorageIO, listing
from repro.storage.journal import Journal, Replay
from repro.storage.walk import JournalWalk, fold_segment
from repro.time.clock import SimulatedClock

_SEGMENT = re.compile(r"^journal-(\d{8,})\.seg$")


@dataclasses.dataclass(frozen=True)
class RecoveryReport:
    """What one :meth:`DurabilityManager.recover` run did."""

    #: Commit index of the checkpoint used, or ``None`` for full replay.
    checkpoint_index: Optional[int]
    #: Journal records re-run (the tail; all of them on full replay).
    records_replayed: int
    #: Durable records on disk after repair (checkpointed + replayed).
    records_total: int
    #: Journal segments opened.
    segments_read: int
    #: Bytes of torn trailing record physically truncated (0 = clean).
    torn_bytes_truncated: int
    #: Checkpoint files present but newer than the one used (i.e. damaged,
    #: standing on a damaged history file, or not decoding, and skipped);
    #: nonzero means a checkpoint write was interrupted or damaged.
    checkpoints_skipped: int
    #: Chained records whose hash link was verified during the walk.
    chain_verified: int = 0
    #: The history's commit-hash chain head after recovery (``None``
    #: when operator-pruned prefix segments leave it unknown).
    chain_head: Optional[str] = None
    #: History files the checkpoint used stands on (each read and
    #: verified against its manifest).
    history_files_read: int = 0

    @property
    def full_replay(self) -> bool:
        """True when no checkpoint could be used."""
        return self.checkpoint_index is None

    def describe(self) -> Dict[str, Any]:
        """A plain dict (what ``repro recover --json`` prints)."""
        data = dataclasses.asdict(self)
        data["full_replay"] = self.full_replay
        return data


class DurabilityManager:
    """Checkpointed, crash-tolerant persistence for one database.

    ``fsync=True`` forces every journal append to the device (checkpoint
    publication always syncs).  ``io`` is the fault-injection seam; the
    default is the real filesystem.
    """

    def __init__(self, directory: str, fsync: bool = False,
                 io: Optional[StorageIO] = None,
                 shard: Optional[int] = None) -> None:
        self._directory = directory
        self._fsync = fsync
        self._io = io if io is not None else REAL_IO
        self._checkpoints = CheckpointStore(directory, io=self._io)
        self._database = None
        self._count = 0  # durable records; also the next global index
        self._live: Optional[Journal] = None
        self._live_start = 0
        # Commit-hash chain head of the durable stream (None = unknown:
        # pruned prefix segments and no checkpointed head yet).
        self._head: Optional[str] = None
        # The fold (fold_segment) of every segment before the live one,
        # from bytes this manager verified; None = not known.
        self._fold: Any = None
        #: which shard this journal stream serves (None when unsharded);
        #: purely an observability label on journal-append spans/events.
        self.shard = shard

    # -- accessors ------------------------------------------------------------

    @property
    def directory(self) -> str:
        """The durability directory."""
        return self._directory

    @property
    def database(self):
        """The attached database (``None`` before recover/attach)."""
        return self._database

    @property
    def record_count(self) -> int:
        """Durable journal records across all segments."""
        return self._count

    @property
    def checkpoints(self) -> CheckpointStore:
        """The directory's checkpoint store."""
        return self._checkpoints

    @property
    def chain_head(self) -> Optional[str]:
        """Commit-hash chain head of the durable history (``None`` when
        pruned prefix segments leave it unknown)."""
        return self._head

    def segments(self) -> List[Tuple[int, str]]:
        """``(start_index, path)`` of every segment, oldest first."""
        return sorted((int(match.group(1)), os.path.join(
            self._directory, match.group(0))) for match in map(
                _SEGMENT.match, listing(self._directory)) if match)

    def _segment_path(self, start: int) -> str:
        return os.path.join(self._directory, f"journal-{start:08d}.seg")

    # -- recovery ----------------------------------------------------------------

    def recover(self, factory: Callable[..., Any],
                use_checkpoint: bool = True):
        """Rebuild the database from disk; returns ``(database, report)``.

        Works on an empty (or absent) directory too, yielding a fresh
        database — so ``recover`` is also how a durable database is
        created.  The returned database is attached: its commits append
        to the live segment from here on.  ``use_checkpoint=False``
        forces a full-history replay (the benchmark baseline and the
        equivalence tests' reference path).
        """
        os.makedirs(self._directory, exist_ok=True)
        obs = _obs.current()
        with obs.tracer.span("recovery.recover",
                             directory=self._directory), \
                obs.metrics.histogram("recovery.recover_seconds").time():
            segments = self.segments()
            loaded = (self._checkpoints.latest_loadable() if use_checkpoint
                      else None)
            base, (database, ckpt) = (loaded if loaded is not None
                                      else (0, (None, {})))
            if loaded is not None:
                # What was just read is what is sealed: the next
                # checkpoint writes only the rows that close from here on.
                self._checkpoints.resume(database, ckpt["history"])
            else:
                database = factory(clock=SimulatedClock(1))
            clock = database.manager.clock.source
            if not isinstance(clock, SimulatedClock):
                raise JournalError(
                    "recovery drives a simulated clock; the factory must "
                    "accept clock=SimulatedClock(...)")
            replay = Replay(database, clock)
            with obs.tracer.span("recovery.tail_replay") as span:
                walk = JournalWalk(segments, base,
                                   heads={base: ckpt.get("chain_head")},
                                   sealed=ckpt.get("sealed_journal"),
                                   consume=replay)
                span.set(records=replay.count)
                if walk.refusal is not None:
                    raise walk.refusal
                total = max(base, walk.end)
                # No segment, or a crash cut a checkpoint's rotation
                # short: the next append starts the segment it would have
                # created, so no segment below a checkpoint grows.
                live_start, live_path, live_data = walk.live or (
                    total, self._segment_path(total), b"")
                truncated = 0
                if any(finding.kind == "torn" for finding in walk.findings):
                    truncated = Journal(live_path, io=self._io
                                        ).truncate_torn_tail()
                replay.flush()
            head = (walk.verifier.head if walk.end >= base
                    else ckpt.get("chain_head"))
            obs.metrics.counter("recovery.records_replayed").inc(
                replay.count)
            obs.metrics.counter("recovery.chain_links_verified").inc(
                walk.verifier.verified)
            obs.metrics.counter("recovery.runs").inc()

            self._database = database
            self._count = total
            self._head = head
            self._fold = walk.fold
            self._live_start = live_start
            self._live = Journal(live_path, fsync=self._fsync, io=self._io)
            self._live.resume(head, live_data)
            database.manager.on_commit = self._on_commit

            skipped = len([index for index in self._checkpoints.indices()
                           if loaded is None or index > base])
            report = RecoveryReport(
                checkpoint_index=base if loaded is not None else None,
                records_replayed=replay.count,
                records_total=total,
                segments_read=len(segments),
                torn_bytes_truncated=truncated,
                checkpoints_skipped=skipped if use_checkpoint else 0,
                chain_verified=walk.verifier.verified,
                chain_head=head,
                history_files_read=len(ckpt.get("history", ())),
            )
        return database, report

    def attach(self, database) -> None:
        """Adopt a live in-memory database into an *empty* directory.

        Its existing commit log is back-filled into segment 0 (so late
        attachment still captures full history, like ``Journal.bind``),
        then every future commit journals as it happens.  A directory
        that already holds durable state must be :meth:`recover`\\ ed
        instead — attaching over it would fork history.
        """
        if self.segments() or self._checkpoints.indices():
            raise JournalError(
                f"{self._directory} already holds a durable history; "
                f"recover() it instead of attaching over it")
        os.makedirs(self._directory, exist_ok=True)
        self._database = database
        self._count = 0
        self._live_start = 0
        self._head = _chain.GENESIS
        self._fold = hashlib.sha256()
        self._live = Journal(self._segment_path(0), fsync=self._fsync,
                             io=self._io)
        self._live.resume(self._head, b"")
        for commit in database.log:
            self._head = self._live.record(commit, prev_hash=self._head)
            self._count += 1
        database.manager.on_commit = self._on_commit

    def _on_commit(self, record) -> None:
        """The attached database's post-commit hook: journal the record.

        Runs after the commit applied in memory; the commit is durable
        only once this append returns (a crash in between loses exactly
        that commit — the documented contract).  The manager fires this
        under its commit lock, so concurrent sessions
        (:mod:`repro.concurrency`) append records in serialized commit
        order and the ``_count`` increment never races."""
        obs = _obs.current()
        with obs.tracer.span("journal.append", shard=self.shard,
                             record=self._count):
            prev = self._head if self._head is not None else _chain.GENESIS
            self._head = self._live.record(record, prev_hash=prev)
            self._count += 1
        obs.events.emit("journal.append", shard=self.shard,
                        records=self._count)

    # -- checkpointing ---------------------------------------------------------------

    def checkpoint(self) -> str:
        """Publish a checkpoint of the attached database; returns its path.

        The checkpoint covers every record journaled so far, and the
        journal rotates to a fresh segment starting at that index, so
        the next recovery replays only records committed after this
        call.  It costs O(open state + rows closed since the previous
        checkpoint): closed rows are sealed once, into a history file,
        and never serialised again (:mod:`repro.storage.checkpoint`).
        The segments below its index are sealed too: it records their
        fold, the segment it rotates away from by the running hash of
        what was appended to it, not by re-reading the file.
        Must run between transactions (single-writer system);
        under the concurrent session layer, quiesce the layer first —
        checkpointing races no individual commit (appends are ordered
        by the commit lock) but a checkpoint taken mid-burst may simply
        cover fewer records than the burst will leave behind.
        """
        if self._database is None:
            raise JournalError("no database attached; recover() or "
                               "attach() first")
        rotates = self._count != self._live_start
        fold = self._fold.copy() if self._fold is not None else None
        if fold is not None and rotates:
            fold_segment(fold, self._live.path, self._live.digest)
        path = self._checkpoints.write(
            self._database, self._count, chain_head=self._head,
            sealed_journal=fold.hexdigest() if fold is not None else None)
        if rotates:
            self._fold = fold
            self._rotate()
            _obs.current().metrics.counter("recovery.segments_rotated").inc()
        return path

    def _rotate(self) -> None:
        """Append from here on to a new segment at the record count,
        created now, empty, so the directory names its live segment
        before the first append (recovery reads an empty trailing
        segment as a clean tail).  Not routed through the io seam: an
        empty file is metadata, not a durability write, and must not
        consume a fault-injection crash budget."""
        self._live_start = self._count
        segment_path = self._segment_path(self._count)
        self._live = Journal(segment_path, fsync=self._fsync, io=self._io)
        self._live.resume(self._head, b"")
        with open(segment_path, "ab"):
            pass

    def adopt_snapshot(self, database, count: int,
                       chain_head: Optional[str] = None) -> str:
        """Install *database* — a trusted snapshot at global record
        *count* — as this directory's new baseline; returns the
        checkpoint path.

        The snapshot repair path (:mod:`repro.storage.scrub`): when a
        damaged suffix cannot be re-fetched record-by-record (the source
        compacted past its floor), the whole verified state arrives as a
        snapshot instead.  A checkpoint at *count* (carrying the
        source's *chain_head*) is published and the journal rotates
        there, so the next recovery starts from the snapshot and never
        rereads the quarantined range.  Segments the caller left behind
        below *count* are tolerated by recovery's gap rules; segments at
        or beyond *count* must have been quarantined first — they would
        overlap the rotated stream.
        """
        os.makedirs(self._directory, exist_ok=True)
        for start, path in self.segments():
            if start >= count:
                raise JournalError(
                    f"adopt_snapshot({count}) would overlap segment "
                    f"{os.path.basename(path)}; quarantine it first")
        self._database = database
        self._count = count
        self._head = chain_head
        # The segments left below *count* are not bytes this manager
        # verified: this checkpoint, and those after it until the next
        # recovery, record no fold of them.
        self._fold = None
        ckpt = self._checkpoints.write(database, count,
                                       chain_head=chain_head)
        self._rotate()
        database.manager.on_commit = self._on_commit
        _obs.current().metrics.counter("recovery.snapshots_adopted").inc()
        return ckpt

    def __repr__(self) -> str:
        return (f"DurabilityManager({self._directory!r}, "
                f"{self._count} records)")


def detect_kind(directory: str) -> Optional[str]:
    """The database kind recorded in the newest valid checkpoint.

    Reads that one small file and no history file.  ``None`` when the
    directory has no valid checkpoint (journal-only directories don't
    record the kind; callers fall back to asking)."""
    found = CheckpointStore(directory).latest()
    if found is None:
        return None
    return found[1]["database"].get("kind")
