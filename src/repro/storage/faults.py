"""Deterministic fault injection for the durability subsystem.

The crash-safety contract in ``docs/DURABILITY.md`` names seven crash
points a process can die at while persisting state.  This module makes
each of them a reproducible event: a :class:`FaultyIO` wraps the real
:class:`~repro.storage.io.StorageIO` and, on the *n*-th matching write,
performs exactly the damaged write a crash at that point would leave
behind, then raises :class:`SimulatedCrash`.  Each member of
:class:`CrashPoint` says what it leaves on disk, and the crash-point
matrix of ``docs/DURABILITY.md`` what recovery makes of it.

A checkpoint of a database that keeps transaction time is two atomic
writes — the history file, then the checkpoint naming it — and each
pair of crash points counts only its own file: ``TORN_CHECKPOINT`` /
``LOST_CHECKPOINT`` at a checkpoint that sealed rows is therefore the
crash *after the history file and before the publish*.

:class:`SimulatedCrash` deliberately does **not** derive from
:class:`~repro.errors.ReproError`: no library code may catch it, just as
no library code survives ``SIGKILL``.  After the crash fires the
injector becomes a passthrough, so a test can keep using the same
manager object if it wants to model "the machine came back up".

The harness used by ``tests/storage/test_faults.py``: build a durable
database with ``DurabilityManager(directory, io=FaultyIO(kind, at=n))``,
drive a workload until :class:`SimulatedCrash`, then recover the
directory with real I/O and assert the recovered database answers the
paper's queries identically to an uncrashed database built from the
records that were durable at the crash point.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Dict, List, Optional

from repro.storage.checkpoint import is_history_file
from repro.storage.io import REAL_IO, StorageIO


class SimulatedCrash(Exception):
    """The injected process death.  Not a :class:`ReproError` on purpose:
    library code must never catch or survive it."""


class CrashPoint(enum.Enum):
    """The seven write-path crash points of the durability contract."""

    #: Die midway through appending a journal record (torn tail).
    TORN_RECORD = "torn-record"
    #: Die after the in-memory commit, before its record reached disk.
    LOST_RECORD = "lost-record"
    #: Die leaving a partial checkpoint at the final path (bad checksum).
    TORN_CHECKPOINT = "torn-checkpoint"
    #: Die between writing the checkpoint ``.tmp`` and the atomic rename.
    LOST_CHECKPOINT = "lost-checkpoint"
    #: Die leaving a partial history file at its final path.
    TORN_HISTORY = "torn-history"
    #: Die between writing a history file's ``.tmp`` and the rename.
    LOST_HISTORY = "lost-history"
    #: Die after a checkpoint's publish, before the ones it supersedes go.
    UNRETIRED_CHECKPOINT = "unretired-checkpoint"


#: The full matrix the fault suite iterates (name → CrashPoint).
ALL_CRASH_POINTS = tuple(CrashPoint)

#: Crash points that fire on journal appends (vs. atomic publishes).
_APPEND_POINTS = (CrashPoint.TORN_RECORD, CrashPoint.LOST_RECORD)
#: Crash points that fire on no atomic publish.
_NOT_PUBLISHES = _APPEND_POINTS + (CrashPoint.UNRETIRED_CHECKPOINT,)
#: Crash points that fire on a history file's publish (vs. a checkpoint's).
_HISTORY_POINTS = (CrashPoint.TORN_HISTORY, CrashPoint.LOST_HISTORY)
#: Crash points that leave a prefix at the final path (vs. a stray ``.tmp``).
_TORN_PUBLISHES = (CrashPoint.TORN_CHECKPOINT, CrashPoint.TORN_HISTORY)


class FaultyIO(StorageIO):
    """A :class:`StorageIO` that dies deterministically at one crash point.

    ``at`` counts *matching* writes: ``FaultyIO(CrashPoint.TORN_RECORD,
    at=3)`` lets two journal appends through untouched and tears the
    third.  Checkpoint and history crash points count the
    :meth:`write_atomic` calls publishing *their* kind of file the same
    way.  ``fraction`` controls how much of the damaged write's payload
    reaches the file (default: half, at least one byte).
    """

    def __init__(self, crash: CrashPoint, at: int = 1,
                 fraction: float = 0.5,
                 real: Optional[StorageIO] = None) -> None:
        if at < 1:
            raise ValueError("FaultyIO fires on the at-th write; at >= 1")
        self._crash = crash
        self._remaining = at
        self._fraction = fraction
        self._real = real if real is not None else REAL_IO
        self.fired = False

    def _trigger(self) -> bool:
        """Count one matching write; True when this is the fatal one."""
        if self.fired:
            return False
        self._remaining -= 1
        if self._remaining > 0:
            return False
        self.fired = True
        return True

    def _partial(self, data: bytes) -> bytes:
        return data[:max(1, int(len(data) * self._fraction))]

    def append(self, path: str, data: bytes, fsync: bool = False) -> None:
        if self._crash in _APPEND_POINTS and self._trigger():
            if self._crash is CrashPoint.TORN_RECORD:
                self._real.append(path, self._partial(data))
            raise SimulatedCrash(
                f"crashed at {self._crash.value} appending to {path}")
        self._real.append(path, data, fsync=fsync)

    def retire(self, directory: str, names: List[str]) -> None:
        if self._crash is CrashPoint.UNRETIRED_CHECKPOINT and self._trigger():
            raise SimulatedCrash(f"crashed at {self._crash.value} "
                                 f"in {directory}")
        self._real.retire(directory, names)

    def write_atomic(self, path: str, data: bytes,
                     fsync: bool = False) -> None:
        mine = (self._crash not in _NOT_PUBLISHES
                and (self._crash in _HISTORY_POINTS) == is_history_file(path))
        if not mine or not self._trigger():
            self._real.write_atomic(path, data, fsync=fsync)
            return
        if self._crash in _TORN_PUBLISHES:
            # Model a non-atomic writer dying at the destination itself:
            # the final path holds a prefix that must fail its checksum.
            with open(path, "wb") as handle:
                handle.write(self._partial(data))
        else:  # LOST_*: the .tmp is complete, the rename is not.
            with open(path + ".tmp", "wb") as handle:
                handle.write(data)
        raise SimulatedCrash(
            f"crashed at {self._crash.value} checkpointing {path}")

    def __repr__(self) -> str:
        state = "fired" if self.fired else f"in {self._remaining}"
        return f"FaultyIO({self._crash.value}, {state})"


# ---------------------------------------------------------------------------
# At-rest corruption.  FaultyIO models a process dying mid-write; these
# model what happens to bytes that were written *correctly* and then
# damaged afterwards — bit rot, a bad sector, or deliberate tampering.
# They are the raw material of the integrity chaos matrix
# (tests/storage/test_integrity_chaos.py): every injector's damage must
# be detected and classified by the scrubber (docs/INTEGRITY.md), never
# silently replayed.
# ---------------------------------------------------------------------------

def flip_byte(path: str, offset: int, xor: int = 0x01) -> int:
    """XOR one byte of *path* at *offset*; returns the original byte.

    The classic bit-rot model.  ``xor`` must be nonzero — flipping a
    byte to itself would be no damage at all."""
    if not 0 < xor < 256:
        raise ValueError("xor must flip at least one bit (1..255)")
    with open(path, "r+b") as handle:
        handle.seek(offset)
        original = handle.read(1)
        if len(original) != 1:
            raise ValueError(f"offset {offset} is beyond {path}")
        handle.seek(offset)
        handle.write(bytes([original[0] ^ xor]))
    return original[0]


def truncate_file(path: str, size: int) -> int:
    """Cut *path* down to *size* bytes; returns bytes removed.

    Mid-file truncation of a journal segment leaves a torn final record
    *and* silently removes whole records after it — exactly the damage
    a CRC alone cannot distinguish from a legitimate short history, and
    the chain (or the next segment's start index) can."""
    original = 0
    with open(path, "r+b") as handle:
        handle.seek(0, 2)
        original = handle.tell()
        if size > original:
            raise ValueError(f"cannot truncate {path} to {size} bytes; "
                             f"it has {original}")
        handle.truncate(size)
    return original - size


def _rewrite_line(path: str, line_number: int,
                  rewrite: Callable[[str], str]) -> None:
    with open(path, "rb") as handle:
        lines = handle.read().split(b"\n")
    index = line_number - 1
    if not 0 <= index < len(lines) or not lines[index].strip():
        raise ValueError(f"{path} has no record at line {line_number}")
    lines[index] = rewrite(lines[index].decode("utf-8")).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(b"\n".join(lines))


def tamper_record(path: str, line_number: int,
                  mutate: Optional[Callable[[Dict[str, Any]], None]] = None
                  ) -> None:
    """Rewrite one record's payload **with a recomputed CRC**.

    The adversarial case: the frame stays perfectly valid (length and
    checksum both match the new bytes), so CRC verification passes —
    only the hash chain can tell the record is no longer the one that
    was committed, because its content hash changed while the chain
    fields (and the next record's ``prev``) still pin the original.

    *mutate* edits the decoded entry in place; the default bumps the
    commit's ``sequence`` far out of range."""
    from repro.storage.framing import (CHAINED_TAG, frame_record,
                                       parse_journal_line)

    def rewrite(line: str) -> str:
        entry = parse_journal_line(line)
        if mutate is not None:
            mutate(entry)
        else:
            entry["sequence"] = entry.get("sequence", 0) + 1_000_000
        return frame_record(entry, tag=CHAINED_TAG)

    _rewrite_line(path, line_number, rewrite)


def tamper_chain_field(path: str, line_number: int, field: str = "prev",
                       value: str = "f" * 64) -> None:
    """Rewrite one chain field (``prev``/``content``/``commit``) of a
    chained record, with a recomputed CRC.

    Models an attacker trying to splice history by editing the chain
    itself; the verifier catches it because the three fields must hash
    together and link to the walked head."""
    from repro.errors import ChainError
    from repro.storage.chain import CHAIN_KEY
    from repro.storage.framing import (CHAINED_TAG, frame_record,
                                       parse_journal_line)

    def rewrite(line: str) -> str:
        entry = parse_journal_line(line)
        chain = entry.get(CHAIN_KEY)
        if not isinstance(chain, dict) or field not in chain:
            raise ChainError(
                f"record at {path}:{line_number} carries no chain "
                f"field {field!r} to tamper with")
        chain[field] = value
        return frame_record(entry, tag=CHAINED_TAG)

    _rewrite_line(path, line_number, rewrite)
