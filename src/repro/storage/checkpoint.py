"""Checkpoints: the full database state, published atomically.

A checkpoint is a single framed record (:mod:`repro.storage.framing`,
tag ``c1``) holding :func:`~repro.storage.serializer.dump_database`
output plus the **commit index** — how many journal records the state
already incorporates.  Recovery loads the newest *valid* checkpoint and
replays only the journal records at or after that index, which is what
makes restart cost proportional to the journal tail instead of all of
history.

**Durability obligations.**  A checkpoint file is written atomically
(:meth:`~repro.storage.io.StorageIO.write_atomic`: temp file + rename),
so a reader sees the old checkpoint, the new one, or — after a crash —
a stray ``.tmp`` that is never read.  A checkpoint that *does* turn up
damaged (a torn non-atomic copy, bit rot) fails its length/CRC check and
is skipped by :meth:`CheckpointStore.latest`, never trusted; the journal
remains the source of truth and recovery simply replays more of it.
Checkpoints are an optimization, not a durability requirement: deleting
every checkpoint file loses no data.

File naming: ``checkpoint-<commit_index padded to 8>.ckpt`` inside the
durability directory, so the newest checkpoint is the lexicographically
largest name and the index is recoverable from the name alone.
"""

from __future__ import annotations

import json
import os
import re
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import CheckpointError
from repro.obs import runtime as _obs
from repro.storage.framing import (CHECKPOINT_TAG, FrameError, frame,
                                   parse_frame)
from repro.storage.io import REAL_IO, StorageIO
from repro.storage.serializer import dump_database, load_database

CHECKPOINT_FORMAT = 1

_NAME = re.compile(r"^checkpoint-(\d{8,})\.ckpt$")


def checkpoint_bytes(database, commit_index: int,
                     chain_head: Optional[str] = None) -> bytes:
    """The framed on-disk form of a checkpoint (exposed for tests).

    *chain_head* is the journal's commit-hash chain head at
    *commit_index* (:mod:`repro.storage.chain`); recovery verifies the
    replayed tail links onto it.  ``None`` (an unknown head: pruned
    prefix segments not yet re-anchored) omits the key — the format
    version stays 1 and old checkpoints stay loadable.
    """
    body: Dict[str, Any] = {
        "format": CHECKPOINT_FORMAT,
        "commit_index": commit_index,
        "database": dump_database(database),
    }
    if chain_head is not None:
        body["chain_head"] = chain_head
    payload = json.dumps(body, ensure_ascii=False, sort_keys=True)
    return (frame(payload, tag=CHECKPOINT_TAG) + "\n").encode("utf-8")


def read_checkpoint(path: str) -> Dict[str, Any]:
    """Parse and validate one checkpoint file.

    Raises :class:`~repro.errors.CheckpointError` when the file is
    missing, fails its frame (torn or corrupt), or is of an unknown
    format version.  Returns the payload dict with ``commit_index`` and
    ``database`` keys.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    try:
        entry = parse_frame(data.decode("utf-8", errors="strict").rstrip("\n"),
                            tag=CHECKPOINT_TAG)
    except (FrameError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"damaged checkpoint {path}: {exc}") from exc
    if entry.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"unsupported checkpoint format {entry.get('format')!r} in {path}")
    if not isinstance(entry.get("commit_index"), int):
        raise CheckpointError(f"checkpoint {path} lacks a commit index")
    return entry


class CheckpointStore:
    """The checkpoint files of one durability directory."""

    def __init__(self, directory: str,
                 io: Optional[StorageIO] = None) -> None:
        self._directory = directory
        self._io = io if io is not None else REAL_IO

    @property
    def directory(self) -> str:
        """The directory checkpoints live in."""
        return self._directory

    def path_for(self, commit_index: int) -> str:
        """The file name a checkpoint at *commit_index* gets."""
        return os.path.join(self._directory,
                            f"checkpoint-{commit_index:08d}.ckpt")

    def indices(self) -> List[int]:
        """Commit indices of every checkpoint file present, ascending.

        Purely name-based; files are not validated here."""
        found = []
        if os.path.isdir(self._directory):
            for name in os.listdir(self._directory):
                match = _NAME.match(name)
                if match:
                    found.append(int(match.group(1)))
        return sorted(found)

    def write(self, database, commit_index: int,
              chain_head: Optional[str] = None) -> str:
        """Atomically publish a checkpoint of *database*; returns its path.

        Must be called between transactions (the system is single-writer;
        the caller — :class:`~repro.storage.recovery.DurabilityManager` —
        guarantees no commit is in flight)."""
        os.makedirs(self._directory, exist_ok=True)
        path = self.path_for(commit_index)
        obs = _obs.current()
        with obs.tracer.span("recovery.checkpoint",
                             commit_index=commit_index), \
                obs.metrics.histogram("recovery.checkpoint_seconds").time():
            self._io.write_atomic(path,
                                  checkpoint_bytes(database, commit_index,
                                                   chain_head=chain_head),
                                  fsync=True)
        obs.metrics.counter("recovery.checkpoints_written").inc()
        return path

    def latest(self) -> Optional[Tuple[int, Dict[str, Any]]]:
        """The newest **valid** checkpoint, or ``None``.

        Damaged checkpoints are skipped (newest first, counting each skip
        into the ``recovery.checkpoints_skipped`` metric) rather than
        trusted — the journal can always fill the gap.
        """
        metrics = _obs.current().metrics
        for commit_index in reversed(self.indices()):
            try:
                entry = read_checkpoint(self.path_for(commit_index))
            except CheckpointError:
                metrics.counter("recovery.checkpoints_skipped").inc()
                continue
            return commit_index, entry
        return None

    def load_latest(self, clock=None):
        """Load the newest valid checkpoint into a live database.

        Returns ``(commit_index, database)`` or ``None`` when no usable
        checkpoint exists."""
        found = self.latest()
        if found is None:
            return None
        commit_index, entry = found
        return commit_index, load_database(entry["database"], clock=clock)

    def __repr__(self) -> str:
        return f"CheckpointStore({self._directory!r})"
