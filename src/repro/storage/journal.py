"""The durable journal: framed commit records in an append-only file.

Because transaction time is append-only and system-assigned, the sequence
of commit records *is* a complete description of a database: replaying the
journal through a fresh database of the same kind reproduces every store,
every transaction time, and therefore every rollback answer.  This module
makes that operational:

- :meth:`Journal.bind` hooks a live database so every commit is appended
  to the journal file as it happens;
- :meth:`Journal.replay` rebuilds a database from the file, driving a
  simulated clock so each transaction commits at its original instant.

**Durability obligations.**  One commit record is one framed line
(:mod:`repro.storage.framing`: length-prefixed, CRC32-checksummed, tag
``r2``) carrying its hash-chain fields (:mod:`repro.storage.chain`);
there is no other journal generation, and a line of any other shape is
damage.  Its payload is the chained record's canonical (sorted,
compact) JSON, encoded once (:func:`~repro.storage.chain.chained_text`);
older writers' spaced payloads read the same.  The
append is flushed to the operating system before :meth:`record` returns
— that is the commit's durability point against *process* crashes; pass
``fsync=True`` to also survive OS/power failure at the cost of a device
sync per commit.  A crash mid-append leaves a torn final record that
framing detects; :meth:`read` with ``recover=True`` drops exactly that
trailing tear (and :meth:`truncate_torn_tail` repairs the file), while
damage *before* the final record — or a final record whose bytes are
all present but wrong, which no crash produces — is never recoverable
and always raises :class:`~repro.errors.JournalError` with the failing
line number and byte offset.

Operations are serialized with the tagged-value scheme of
:mod:`repro.storage.serializer`.  ``define`` operations serialize their
schema; declared constraints other than the schema key are **not**
journaled (they close over arbitrary predicates) — replayed databases
re-enforce the key but not ad-hoc check constraints.  This is the one
documented exception to "the journal describes everything".
"""

from __future__ import annotations

import hashlib
import os
import threading
from typing import (Any, Callable, Dict, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple)

from repro.errors import JournalError
from repro.obs import runtime as _obs
from repro.storage import chain as _chain
from repro.storage.framing import (CHAINED_TAG, FrameDamage, FrameError,
                                   frame, frame_lines)
from repro.storage.io import REAL_IO, StorageIO
from repro.storage.serializer import (decode_value, encode_value,
                                      schema_from_dict, schema_to_dict)
from repro.time.clock import SimulatedClock
from repro.time.instant import Instant
from repro.txn.log import CommitRecord
from repro.txn.transaction import Operation


def _encode_arguments(arguments: Dict[str, Any]) -> Dict[str, Any]:
    encoded: Dict[str, Any] = {}
    for key, value in arguments.items():
        if key == "schema":
            encoded[key] = schema_to_dict(value)
        elif key == "constraints":
            encoded[key] = []  # documented: not journaled
        elif isinstance(value, dict):
            encoded[key] = {inner: encode_value(v) for inner, v in value.items()}
        else:
            encoded[key] = encode_value(value)
    return encoded


def _decode_arguments(arguments: Dict[str, Any]) -> Dict[str, Any]:
    decoded: Dict[str, Any] = {}
    for key, value in arguments.items():
        if key == "schema":
            decoded[key] = schema_from_dict(value)
        elif key == "constraints":
            decoded[key] = ()
        elif isinstance(value, dict) and not ("$instant" in value
                                              or "$period" in value):
            decoded[key] = {inner: decode_value(v) for inner, v in value.items()}
        else:
            decoded[key] = decode_value(value)
    return decoded


def encode_operation(op: Operation) -> Dict[str, Any]:
    """The plain-data form of one operation (journal and 2PC records)."""
    return {"action": op.action, "relation": op.relation,
            "arguments": _encode_arguments(op.arguments)}


def decode_operation(data: Dict[str, Any]) -> Operation:
    """Rebuild an :class:`Operation` from :func:`encode_operation` data."""
    return Operation(data["action"], data["relation"],
                     _decode_arguments(data["arguments"]))


def encode_commit(commit: CommitRecord) -> Dict[str, Any]:
    """The plain-data form of one commit record (what gets framed)."""
    return {
        "sequence": commit.sequence,
        "commit_time": encode_value(commit.commit_time),
        "operations": [encode_operation(op) for op in commit.operations],
    }


def apply_entries(database, clock: SimulatedClock,
                  entries: Sequence[Dict[str, Any]]) -> None:
    """Re-run journal *entries* against *database*, oldest first.

    *clock* must be the simulated clock the database's transaction clock
    reads: each entry sets it to the recorded commit time before the
    transaction re-runs, and a mismatch between the recorded and the
    re-assigned commit time raises :class:`JournalError` (replay drift —
    the journal and the database disagree about history).
    """
    for entry in entries:
        commit_time = decode_value(entry["commit_time"])
        if not isinstance(commit_time, Instant):
            raise JournalError(f"bad commit time in entry {entry!r}")
        clock.set(commit_time)
        operations = [decode_operation(op) for op in entry["operations"]]
        actual = database.manager.run(operations)
        if actual != commit_time:
            raise JournalError(
                f"replay drift: journal says {commit_time}, "
                f"database committed at {actual}"
            )


class Replay:
    """Applies the entries it is handed (:func:`apply_entries`) in runs
    of 16, a full replay's cheapest, so a reader holds no more of them.
    The first error stops it; the reader's last :meth:`flush` raises it."""

    def __init__(self, database, clock: SimulatedClock) -> None:
        self._database, self._clock = database, clock
        self._run: List[Dict[str, Any]] = []
        self.count = 0  # entries handed over
        self.error: Optional[Exception] = None

    def __call__(self, entry: Dict[str, Any]) -> None:
        self.count += 1
        self._run.append(entry)
        if len(self._run) == 16:
            self.flush(last=False)

    def flush(self, last: bool = True) -> None:
        """Apply the entries handed over since the last flush."""
        run, self._run = self._run, []
        try:
            if self.error is None:
                apply_entries(self._database, self._clock, run)
        except Exception as exc:
            self.error = exc
        if last and self.error is not None:
            raise self.error


def record_error(path: str, line_number: int, offset: int, reason: str,
                 torn: bool = False) -> JournalError:
    """The error naming a damaged journal record by file, line and byte
    offset; unless *torn*, its bytes cannot be crash residue."""
    return JournalError(
        f"corrupt journal record at line {line_number} (byte offset "
        f"{offset}) in {path}: {reason}"
        + ("" if torn else " — so this is not a torn tail"))


class TailDamage(NamedTuple):
    """A damaged final record: where it starts and why it failed."""

    line_number: int
    offset: int  # truncating the file here removes exactly the damage
    reason: str


class Journal:
    """A framed, append-only journal of commit records at *path*.

    ``fsync=True`` forces every record to the device (survives OS
    crashes); the default flushes to the OS only (survives process
    crashes).  ``io`` is the write seam the fault-injection harness
    replaces; production code leaves it alone.
    """

    #: The frame tag of the file's lines.  Journal segments hold chained
    #: ``r2`` records only; the 2PC side logs reuse the scanning and
    #: torn-tail repair below over their CRC-only ``r1`` records.
    _tag = CHAINED_TAG

    def __init__(self, path: str, fsync: bool = False,
                 io: Optional[StorageIO] = None) -> None:
        self._path = path
        self._fsync = fsync
        self._io = io if io is not None else REAL_IO
        # Appends are serialized: commits normally arrive already ordered
        # (on_commit fires under the manager's commit lock), but a journal
        # bound directly from several threads must still never interleave
        # bytes of two records.
        self._append_lock = threading.Lock()
        # Running commit hash of the file's last chained record; ``None``
        # until known (resolved lazily from disk on the first append, or
        # seeded by resume when the caller tracks the stream's head).
        self._head: Optional[str] = None
        self._sha = hashlib.sha256()  # of the file's bytes: see digest

    @property
    def path(self) -> str:
        """The journal file path."""
        return self._path

    @property
    def chain_head(self) -> Optional[str]:
        """The last appended record's commit hash (``None`` = unknown)."""
        return self._head

    @property
    def digest(self) -> str:
        """SHA-256 (hex) of the bytes :meth:`resume` seeded and
        :meth:`record` appended — never re-read from disk."""
        return self._sha.hexdigest()

    def resume(self, head: Optional[str], data: bytes) -> None:
        """Continue a stream whose head the caller tracks, in a file whose
        bytes so far, *data* (``b""`` for a new segment), it verified."""
        self._head = head
        self._sha = hashlib.sha256(data)

    # -- writing -------------------------------------------------------------------

    def _resolve_prev(self) -> str:
        """The ``prev_hash`` the next record should carry.

        Known head wins; an empty or absent file starts at GENESIS; an
        existing file is scanned once and its chain walked with an
        *unknown* seed (a rotated segment's first record links to the
        previous segment, not GENESIS).
        """
        if self._head is not None:
            return self._head
        head = _chain.head_of(self._entries(None), head=None)
        return head if head is not None else _chain.GENESIS

    def record(self, commit: CommitRecord,
               prev_hash: Optional[str] = None) -> str:
        """Append one chained, framed commit record; returns its commit
        hash.  Durable (per the ``fsync`` setting) when this returns.

        *prev_hash* overrides the journal's own head tracking — the
        durability manager threads the stream-wide head through rotated
        segments this way.  Left ``None``, the journal chains to its own
        last record.
        """
        entry = encode_commit(commit)
        with self._append_lock:
            prev = prev_hash if prev_hash is not None else self._resolve_prev()
            payload, head = _chain.chained_text(entry, prev)
            data = (frame(payload, tag=CHAINED_TAG) + "\n").encode("utf-8")
            self._io.append(self._path, data, fsync=self._fsync)
            self._sha.update(data)
            self._head = head
        _obs.current().metrics.counter("journal.records").inc()
        return head

    def bind(self, database) -> None:
        """Journal every future commit of *database*, and any past ones.

        Existing records in the database's in-memory log are written first
        so binding late still captures the full history.  From here on a
        commit is durable once its record is appended — a crash between
        the in-memory apply and the append loses that one commit (see
        docs/DURABILITY.md).
        """
        for commit in database.log:
            self.record(commit)
        database.manager.on_commit = self.record

    # -- reading --------------------------------------------------------------------

    def scan(self) -> Tuple[List[Dict[str, Any]], Optional[TailDamage]]:
        """Parse the journal, reporting trailing damage instead of raising.

        Returns ``(entries, damage)``.  ``damage`` is ``None`` for a
        clean file, or describes a **torn final** record (the residue of
        a crashed append).  A damaged record *followed by further
        records*, or a final record whose bytes are all present but
        wrong (a bad checksum, a retired frame generation), cannot be
        the residue of any crash — the append-only contract — and raises
        :class:`JournalError` naming the line and byte offset.
        """
        damage: List[TailDamage] = []
        return list(self._entries(damage.append)), next(iter(damage), None)

    def _entries(self, torn: Optional[Callable[[TailDamage], Any]]
                 ) -> Iterator[Dict[str, Any]]:
        """Each entry as it is parsed: a torn final record goes to *torn*
        (``None`` drops it), other damage raises (:meth:`scan`)."""
        data = b""
        if os.path.exists(self._path):
            with open(self._path, "rb") as handle:
                data = handle.read()
        for line_number, offset, entry in frame_lines(data, self._tag):
            if not isinstance(entry, FrameError):
                yield entry
            elif entry.damage is FrameDamage.TORN:  # the last line
                if torn is not None:
                    torn(TailDamage(line_number, offset, str(entry)))
            else:
                raise record_error(self._path, line_number, offset,
                                   str(entry))

    def _torn(self, damage: TailDamage) -> None:
        raise record_error(self._path, *damage, torn=True)

    def read(self, recover: bool = False) -> List[Dict[str, Any]]:
        """Every journal entry, oldest first.

        Strict by default: any damage raises :class:`JournalError` with
        the failing line number and byte offset.  With ``recover=True`` a
        damaged *final* record (the torn residue of a crashed append) is
        silently dropped; mid-journal damage still raises.
        """
        return list(self._entries(None if recover else self._torn))

    def truncate_torn_tail(self) -> int:
        """Physically remove a torn trailing record; returns bytes dropped.

        The repair that recovery applies before new commits append again:
        after it, the file holds exactly the durable records.  Returns 0
        when the journal is already clean.  Mid-journal corruption raises
        (from :meth:`scan`) — it is never repaired.
        """
        _, damage = self.scan()
        if damage is None:
            return 0
        size = os.path.getsize(self._path)
        with open(self._path, "r+b") as handle:
            handle.truncate(damage.offset)
        dropped = size - damage.offset
        _obs.current().metrics.counter(
            "recovery.torn_bytes_truncated").inc(dropped)
        return dropped

    def replay(self, factory: Callable[..., Any], recover: bool = False):
        """Rebuild a database by replaying the journal.

        *factory* is called as ``factory(clock=...)`` with a simulated
        clock the journal drives, e.g. ``TemporalDatabase`` itself.  Each
        transaction is re-run at its original commit time, so the rebuilt
        database is observationally identical — rollbacks included.
        ``recover=True`` tolerates (drops) a torn trailing record.
        """
        clock = SimulatedClock(1)
        database = factory(clock=clock)
        replay = Replay(database, clock)
        for entry in self._entries(None if recover else self._torn):
            replay(entry)
        replay.flush()
        return database

    def __repr__(self) -> str:
        return f"Journal({self._path!r})"
