"""Checkpoints: the open partition plus a manifest of sealed history.

The paper's rule for transaction time — once a transaction completes,
the stamped past "may not be altered" (§4.2, §4.4) — holds on disk the
way it holds in memory.  A row whose transaction period has closed is
written **once**, into a *history file*; a *checkpoint* then holds only
what can still change (the open rows, the schemas, event flags and
clock) plus a manifest of the history files it stands on.  Publishing a
checkpoint therefore costs O(current state + rows closed since the last
one), never O(all rows ever written).

Two kinds of file, each a single framed record
(:mod:`repro.storage.framing`):

``history-<commit_index padded to 8>-<first 16 hex of its sha256>.hist``
    Tag ``h1``, format 2.  ``{"format", "commit_index", "relations":
    {name: rows}}`` — for each relation that keeps transaction time, the
    rows (as :func:`~repro.storage.serializer.dump_database` writes them)
    that closed since the previous history file.  Immutable
    and named by content: a file is never rewritten with different bytes,
    so every checkpoint that names it keeps standing on what it saw.
``checkpoint-<commit_index padded to 8>.ckpt``
    Tag ``c1``, format 4.  ``{"format", "commit_index", "chain_head",
    "sealed_journal", "database", "history"}`` — ``database`` is
    ``dump_database(closed=False)`` (static and historical kinds have no
    immutable past and are dumped whole, as before); ``history`` is the
    manifest, a list of ``[file name, sha256, {relation: row count}]`` in
    sealing order.  ``commit_index`` counts the journal records the state
    incorporates; recovery replays only the records at or after it.
    ``sealed_journal`` folds the journal segments below ``commit_index``
    (:func:`~repro.storage.walk.fold_segment`) into one SHA-256;
    absent when the writer did not know their bytes (adopted snapshot).

A row's stamps — its valid and transaction periods — are written as
chronon integers, ``[start, end]`` (``null`` for an infinity, a
granularity other than day appended by name), so a load parses no date.
A file of an older format is skipped, as a damaged one is.

**Durability obligations.**  Both files are published atomically with
``fsync`` (:meth:`~repro.storage.io.StorageIO.write_atomic`), the history
file first, so a durable checkpoint never names a file that is not.  A
crash in between leaves an orphan history file, which nothing reads; the
next checkpoint seals the same rows again.  A checkpoint that turns up
damaged — or whose history file is missing, fails its frame, or is not
the bytes the manifest hashed, or whose rows do not decode — raises
:class:`~repro.errors.CheckpointError` from :func:`load_checkpoint` and
is skipped, never trusted; the journal remains the source of truth and
recovery simply replays more of it.  Checkpoints are an optimization, not
a durability requirement: deleting every checkpoint and history file
loses no data (but deleting a history file disables every checkpoint
that names it).
"""

from __future__ import annotations

import hashlib
import os
import re
from typing import (Any, Callable, Dict, Iterator, List, Mapping, Optional,
                    Tuple)

from repro.core.transaction_time import TransactionTimeStore
from repro.errors import CheckpointError, ReproError
from repro.obs import runtime as _obs
from repro.storage.framing import (CHECKPOINT_TAG, HISTORY_TAG, FrameError,
                                   frame, parse_frame)
from repro.storage.io import REAL_IO, StorageIO, listing
from repro.storage.serializer import (COMPACT, Texts, dump_database,
                                      load_database, restore_closed, spliced,
                                      write_texts)

CHECKPOINT_FORMAT = 4
HISTORY_FORMAT = 2

_NAME = re.compile(r"^checkpoint-(\d{8,})\.ckpt$")
_HISTORY_NAME = re.compile(r"^history-(\d{8,})-([0-9a-f]{16})\.hist$")

#: One manifest entry: ``[file name, sha256, {relation: rows taken}]``.
ManifestEntry = List[Any]


def is_history_file(path: str) -> bool:
    """Does *path* name a sealed history file?"""
    return _HISTORY_NAME.match(os.path.basename(path)) is not None


def _framed(body: Dict[str, Any], tag: str) -> bytes:
    """One framed record as file bytes.  Compact JSON: these files are
    mostly nested row lists, where the default separators' spaces are a
    tenth of the bytes (a journal record keeps ``frame_record``'s form)."""
    return (frame("".join(spliced(body, COMPACT)), tag=tag)
            + "\n").encode("utf-8")


def _read_framed(path: str, tag: str, what: str
                 ) -> Tuple[bytes, Dict[str, Any]]:
    """The bytes of a one-record file and the record they frame."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read {what} {path}: {exc}") from exc
    try:
        entry = parse_frame(data.decode("utf-8", errors="strict").rstrip("\n"),
                            tag=tag)
    except (FrameError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"damaged {what} {path}: {exc}") from exc
    if not isinstance(entry, dict):
        raise CheckpointError(f"damaged {what} {path}: not a record")
    return data, entry


def checkpoint_bytes(database, commit_index: int,
                     history: List[ManifestEntry],
                     chain_head: Optional[str] = None,
                     sealed_journal: Optional[str] = None,
                     texts: Optional[Tuple[Texts, Texts]] = None) -> bytes:
    """The framed on-disk form of a checkpoint (exposed for tests).

    Holds the open partition of *database*; its closed rows are the
    business of the files *history* names.  *chain_head* is the
    journal's commit-hash chain head at *commit_index*
    (:mod:`repro.storage.chain`); recovery verifies the replayed tail
    links onto it.  ``None`` (an unknown head: pruned prefix segments
    not yet re-anchored) omits the key.  *sealed_journal* is the fold
    of the journal segments below *commit_index*; ``None`` omits it.
    *texts* (:func:`~repro.storage.serializer.dump_database`) changes no byte.
    """
    body: Dict[str, Any] = {
        "format": CHECKPOINT_FORMAT,
        "commit_index": commit_index,
        "database": dump_database(database, False, texts or ({}, {})),
        "history": history,
    }
    if chain_head is not None:
        body["chain_head"] = chain_head
    if sealed_journal is not None:
        body["sealed_journal"] = sealed_journal
    return _framed(body, CHECKPOINT_TAG)


def read_checkpoint_head(path: str) -> Dict[str, Any]:
    """Parse and validate one checkpoint file, and nothing else.

    The payload as written: ``database`` holds open rows only and
    ``history`` is the manifest, unresolved — enough to name the
    checkpoint's kind, index, chain head and the files it depends on.
    Raises :class:`~repro.errors.CheckpointError` when the file is
    missing, fails its frame (torn or corrupt), or is of an unknown
    format version.
    """
    _, entry = _read_framed(path, CHECKPOINT_TAG, "checkpoint")
    if entry.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"unsupported checkpoint format {entry.get('format')!r} in {path}")
    if not isinstance(entry.get("commit_index"), int):
        raise CheckpointError(f"checkpoint {path} lacks a commit index")
    manifest = entry.get("history")
    if not (isinstance(manifest, list) and all(
            isinstance(item, list) and len(item) == 3
            and isinstance(item[0], str) and _HISTORY_NAME.match(item[0])
            and isinstance(item[2], dict) for item in manifest)):
        raise CheckpointError(f"checkpoint {path} lacks a history manifest")
    return entry


def read_history(path: str) -> Tuple[str, Dict[str, int], Dict[str, Any]]:
    """Verify one history file: ``(sha256, {relation: row count},
    {relation: encoded rows})``; rows that are no list have no count.

    Raises :class:`~repro.errors.CheckpointError` when the file is
    missing, fails its frame, or is not the content its name promises.
    """
    data, entry = _read_framed(path, HISTORY_TAG, "history file")
    digest = hashlib.sha256(data).hexdigest()
    name = _HISTORY_NAME.match(os.path.basename(path))
    if name is None or name.group(2) != digest[:16]:
        raise CheckpointError(
            f"damaged history file {path}: hashes to {digest[:16]}…, "
            f"which is not the content it is named for")
    relations = entry.get("relations")
    if entry.get("format") != HISTORY_FORMAT or not isinstance(relations,
                                                               dict):
        raise CheckpointError(
            f"unsupported history file format {entry.get('format')!r} "
            f"in {path}")
    return digest, {relation: len(rows) for relation, rows in
                    relations.items() if isinstance(rows, list)}, relations


def manifest_mismatch(entry: ManifestEntry, digest: str,
                      held: Mapping[str, int]) -> Optional[str]:
    """Why the verified file (*digest*, its row counts *held*) is not the
    one the manifest *entry* was written against, or ``None`` when it is."""
    name, expected, counts = entry
    if digest != expected:
        return (f"manifest pins {name} at sha256 {str(expected)[:12]}… but "
                f"the file hashes to {digest[:12]}…")
    for relation, count in counts.items():
        if relation not in held or held[relation] != count:
            return (f"manifest takes {count} row(s) of {relation!r} from "
                    f"{name}, which holds {held.get(relation, 'none')}")
    return None


def _sealable(database) -> Iterator[Tuple[str, TransactionTimeStore]]:
    """The relations of *database* with an immutable past to seal: those
    whose store keeps transaction time."""
    for name in database.relation_names():
        store = database.store(name)
        if isinstance(store, TransactionTimeStore):
            yield name, store


def read_checkpoint(path: str) -> Dict[str, Any]:
    """Parse and validate one checkpoint *and the history it stands on*.

    Every file the manifest names is read from the checkpoint's own
    directory and checked — frame, sha256 against the manifest, row
    counts against the manifest — and its rows are put back in front of
    the open ones, so ``["database"]`` is the whole
    :func:`~repro.storage.serializer.dump_database`-shaped dict (``
    ["history"]`` keeps the manifest).  Raises
    :class:`~repro.errors.CheckpointError` on any failure: a checkpoint
    with a missing or damaged history file is as unusable as a torn one.
    """
    entry = read_checkpoint_head(path)
    directory = os.path.dirname(path)
    closed: Dict[str, List[Any]] = {}
    for item in entry["history"]:
        digest, counts, relations = read_history(
            os.path.join(directory, item[0]))
        problem = manifest_mismatch(item, digest, counts)
        if problem is not None:
            raise CheckpointError(f"checkpoint {path}: {problem}")
        for relation in item[2]:
            closed.setdefault(relation, []).extend(relations[relation])
    try:
        restore_closed(entry["database"], closed)
    except (KeyError, TypeError) as exc:
        raise CheckpointError(
            f"checkpoint {path}: the manifest names a relation the "
            f"checkpoint does not hold ({exc})") from exc
    return entry


def load_payload(path: str, data: Dict[str, Any]):
    """The database the ``database`` field *data* of the checkpoint at
    *path* holds.  Rows that do not decode make the checkpoint as
    unusable as a torn one: :class:`~repro.errors.CheckpointError`."""
    try:
        return load_database(data)
    except (ReproError, LookupError, TypeError, ValueError,
            AttributeError) as exc:
        raise CheckpointError(
            f"checkpoint {path} does not decode: {exc}") from exc


def load_checkpoint(path: str) -> Tuple[Any, Dict[str, Any]]:
    """``(database, entry)``: :func:`read_checkpoint`, then the database
    it holds (:func:`load_payload`)."""
    entry = read_checkpoint(path)
    return load_payload(path, entry["database"]), entry


class CheckpointStore:
    """The checkpoint and history files of one durability directory.

    Remembers, per relation, how much of the installed store's closed
    partition is already in the files of the current manifest
    (:meth:`~repro.core.transaction_time.TransactionTimeStore.closed_mark`
    names that, lineage included), so each :meth:`write` seals only what
    closed since.  A relation of another lineage — redefined, vacuumed,
    arrived in a snapshot — is sealed again from zero, and the old
    lineage's files leave the manifest.
    """

    def __init__(self, directory: str,
                 io: Optional[StorageIO] = None) -> None:
        self._directory = directory
        self._io = io if io is not None else REAL_IO
        self._manifest: List[ManifestEntry] = []
        self._marks: Dict[str, Tuple[object, int]] = {}
        self._texts: Texts = {}  # the texts of the rows the last write wrote
        self._published: Optional[int] = None  # the last write's index

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
        return sorted(int(match.group(1)) for match in map(
            _NAME.match, listing(self._directory)) if match)

    def history_files(self) -> List[str]:
        """Names of every history file present, oldest first (name-based)."""
        return sorted(filter(_HISTORY_NAME.match, listing(self._directory)))

    def resume(self, database, manifest: List[ManifestEntry]) -> None:
        """Take *database*, just loaded from a checkpoint with *manifest*,
        as sealed: its closed rows are exactly the manifest's files."""
        self._manifest, self._texts = manifest, {}
        self._marks = {name: store.closed_mark()
                       for name, store in _sealable(database)}

    def _seal(self, database) -> Tuple[List[ManifestEntry],
                                       Dict[str, Tuple[object, int]],
                                       Dict[str, List[Any]]]:
        """``(manifest, marks, fresh)`` for a checkpoint of *database* now:
        the entries of the current manifest that still count, the marks
        once *fresh* (relation -> closed rows not yet in any of them) is
        on disk too."""
        marks: Dict[str, Tuple[object, int]] = {}
        fresh: Dict[str, List[Any]] = {}
        stale = set(self._marks)  # dropped, or no longer this lineage
        for name, store in _sealable(database):
            rows = store.closed_since(self._marks.get(name))
            if rows is None:
                rows = store.closed_since()
            else:
                stale.discard(name)
            if rows:
                fresh[name] = rows
            marks[name] = store.closed_mark()
        manifest = []
        for name, digest, counts in self._manifest:
            kept = {relation: count for relation, count in counts.items()
                    if relation not in stale}
            if kept:
                manifest.append([name, digest, kept])
        return manifest, marks, fresh

    def write(self, database, commit_index: int,
              chain_head: Optional[str] = None,
              sealed_journal: Optional[str] = None) -> str:
        """Atomically publish a checkpoint of *database*; returns its path.

        The rows that closed since the last one are sealed into a history
        file first (none when nothing closed); the checkpoint itself is
        the open partition and the manifest.  Then every checkpoint older
        than the one before it is unlinked (:meth:`StorageIO.retire`): a
        directory keeps the newest and one to fall back on.  Must be
        called between transactions (the caller —
        :class:`~repro.storage.recovery.DurabilityManager` — guarantees
        no commit is in flight)."""
        os.makedirs(self._directory, exist_ok=True)
        path = self.path_for(commit_index)
        obs = _obs.current()
        with obs.tracer.span("recovery.checkpoint",
                             commit_index=commit_index), \
                obs.metrics.histogram("recovery.checkpoint_seconds").time():
            (manifest, marks, fresh), kept = self._seal(database), {}
            if fresh:
                data = _framed({
                    "format": HISTORY_FORMAT,
                    "commit_index": commit_index,
                    "relations": {name: write_texts(rows, "rows", {}, COMPACT)
                                  for name, rows in fresh.items()},
                }, HISTORY_TAG)
                digest = hashlib.sha256(data).hexdigest()
                name = f"history-{commit_index:08d}-{digest[:16]}.hist"
                self._io.write_atomic(os.path.join(self._directory, name),
                                      data, fsync=True)
                manifest.append([name, digest, {
                    relation: len(rows) for relation, rows in fresh.items()}])
                obs.metrics.counter("recovery.history_files_written").inc()
            self._io.write_atomic(
                path, checkpoint_bytes(database, commit_index, manifest,
                                       chain_head=chain_head,
                                       sealed_journal=sealed_journal,
                                       texts=(self._texts, kept)),
                fsync=True)
        # Only now: a crash (or an injected one the caller survives)
        # between the two writes must leave the rows to be sealed again.
        self._manifest, self._marks, self._texts = manifest, marks, kept
        obs.metrics.counter("recovery.checkpoints_written").inc()
        if commit_index != self._published:  # (a republish retires none)
            older = [index for index in self.indices() if index < commit_index]
            self._io.retire(self._directory, [f"checkpoint-{index:08d}.ckpt"
                                              for index in older[:-1]])
        self._published = commit_index
        return path

    def _newest(self, read: Callable[[str], Any]
                ) -> Optional[Tuple[int, Any]]:
        metrics = _obs.current().metrics
        for commit_index in reversed(self.indices()):
            try:
                entry = read(self.path_for(commit_index))
            except CheckpointError:
                metrics.counter("recovery.checkpoints_skipped").inc()
                continue
            return commit_index, entry
        return None

    def latest(self) -> Optional[Tuple[int, Dict[str, Any]]]:
        """The newest checkpoint whose own file is valid, or ``None``:
        ``(commit_index, head)`` as :func:`read_checkpoint_head` gives it.
        Reads no history file, so it is cheap at any depth of history —
        and says nothing about whether the checkpoint can be loaded.
        """
        return self._newest(read_checkpoint_head)

    def latest_loadable(self
                        ) -> Optional[Tuple[int, Tuple[Any, Dict[str, Any]]]]:
        """The newest **usable** checkpoint, or ``None``: ``(commit_index,
        (database, entry))`` as :func:`load_checkpoint` gives them, the
        history resolved and every row decoded.

        Damaged checkpoints, checkpoints standing on a missing or damaged
        history file, and checkpoints whose rows do not decode are
        skipped (newest first, counting each skip into the
        ``recovery.checkpoints_skipped`` metric) rather than trusted —
        the journal can always fill the gap.
        """
        return self._newest(load_checkpoint)

    def __repr__(self) -> str:
        return f"CheckpointStore({self._directory!r})"
