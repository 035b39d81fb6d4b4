"""The segment walk: the one reading of a journal's segments.

Recovery (:meth:`~repro.storage.recovery.DurabilityManager.recover`),
the audit (:func:`~repro.storage.scrub.audit_directory`) and a repair
source all read a durability directory's journal through
:class:`JournalWalk`, so what recovery refuses is exactly what the
audit finds.  The walk never raises.  Over the segments, oldest first,
it

- classifies every line with :func:`~repro.storage.framing.frame_lines`:
  a short line is ``torn`` only as the final record of the *live*
  segment (the final one, when it starts at or after the walk's base);
  anything else wrong with a frame is ``corrupt``;
- checks that the segments are contiguous: a hole between two, an
  overlap, or a first segment starting above the base is a ``gap``;
- verifies every record's chain link (:mod:`repro.storage.chain`); a
  failure is ``chain-break`` or ``chain-tamper``;
- vouches for the segments below the base by a checkpoint's fold
  (:func:`fold_segment`): while they fold to its ``sealed_journal``
  none of their records is parsed or re-hashed.  When they do not, they
  are walked, and the mismatch is a ``chain-tamper`` of its own unless a
  finding recovery refuses already accounts for it.  A fold covers a
  journal from record 0, so none applies once an operator pruned the
  oldest segments;
- at every checkpoint mark, compares the walked chain head with the one
  the checkpoint recorded (a mismatch is a ``chain-break`` filed under
  the checkpoint) or, where the head is unknown, re-anchors on it.  A
  mark is checked at the record it precedes, or where the records stop.

It hands each entry at or after the base to a consumer once its frame
and chain link verify, keeping none, until the first finding recovery
refuses — every finding but a torn final record of the live segment, a
gap wholly below the base, and a chain break filed under a checkpoint
older than the base (docs/DURABILITY.md "The recovery algorithm").
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Set, Tuple)

from repro.errors import ChainError, JournalError, ReproError
from repro.storage.chain import CHAIN_KEY, GENESIS, ChainVerifier
from repro.storage.framing import (CHAINED_TAG, FrameDamage, FrameError,
                                   frame_lines, parse_journal_line)
from repro.storage.journal import record_error


def fold_segment(fold: Any, path: str, digest: str) -> None:
    """Fold one sealed segment into *fold* (a ``hashlib.sha256()``): its
    file name, then *digest*, the SHA-256 (hex) of its bytes.  A
    checkpoint's ``sealed_journal`` is the fold of every segment below
    its index, oldest first."""
    fold.update((os.path.basename(path) + digest).encode("ascii"))


@dataclasses.dataclass(frozen=True)
class Finding:
    """One classified integrity problem."""

    #: File the damage lives in (relative to the audited directory).
    file: str
    #: Damage kind (the taxonomy of :mod:`repro.storage.scrub`).
    kind: str
    #: 1-based line in the file, when the damage is line-addressable.
    line_number: Optional[int] = None
    #: Global record index the damage starts at, when known.
    index: Optional[int] = None
    #: Human-readable diagnosis.
    detail: str = ""

    def describe(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


def _commit_hash(line: bytes) -> str:
    return parse_journal_line(line.decode("utf-8"))[CHAIN_KEY]["commit"]


class JournalWalk:
    """One walk over *segments* (``(start index, path)``, oldest first).

    *base* is the index the caller's state starts at: records below it
    need not be present, the entries at or after it go to *consume*, and
    the segments below it are the ones *sealed* — a checkpoint's
    ``sealed_journal`` fold — vouches for.  *heads* maps checkpoint
    indices to their recorded heads.  Never raises, nor may *consume*.
    """

    def __init__(self, segments: Sequence[Tuple[int, str]], base: int = 0,
                 heads: Optional[Mapping[int, Optional[str]]] = None,
                 sealed: Optional[str] = None,
                 consume: Optional[Callable[..., Any]] = None) -> None:
        first = segments[0][0] if segments else base
        self._base = base
        self._heads = heads or {}
        self._reached: Set[int] = set()
        self._segment = (first, "")  # (start, name) being walked
        self._consume = consume or (lambda entry: None)
        #: Every finding, in walk order.
        self.findings: List[Finding] = []
        #: The typed error of the first finding recovery refuses, or
        #: ``None`` when it refuses none.
        self.refusal: Optional[ReproError] = None
        #: Records whose frames parsed, vouched-for ones included.
        self.records = 0
        #: One past the last record index the segments account for.
        self.end = 0
        self._expected: Optional[int] = None  # next index, once walking
        self.verifier = ChainVerifier(GENESIS if first == 0 else None)
        #: The fold of every segment but the live one; ``None`` when the
        #: journal does not start at record 0.
        self.fold = hashlib.sha256() if first == 0 else None
        #: ``(start, path, bytes)`` of the live segment, a torn final
        #: record cut off; ``None`` when the final segment is below the
        #: base (or there is none).
        self.live: Optional[Tuple[int, str, bytes]] = None
        self._walk(segments, sealed)

    def _damage(self, file: str, kind: str, line_number: Optional[int],
                index: int, error: ReproError, detail: str = "",
                refused: bool = True) -> None:
        self.findings.append(Finding(file, kind, line_number, index,
                                     detail or str(error)))
        if refused and self.refusal is None:
            self.refusal = error

    def _where(self, index: int) -> str:
        """The line record *index* holds, or would, in this segment."""
        start, name = self._segment
        return f"{name}:{index - start + 1}"

    def _reach(self, index: int, head: Optional[str]) -> None:
        """Cross-check *head*, the head walked to at record *index*, with
        the one a checkpoint recorded there — once per mark."""
        recorded = self._heads.get(index)
        if recorded is None or index in self._reached:
            return
        self._reached.add(index)
        if head is None:
            self.verifier.head = recorded
        elif head != recorded:
            error = ChainError(
                f"chain break at {self._where(index)}: checkpoint "
                f"{index} records head {recorded[:12]}… but the journal "
                f"walks to {head[:12]}…", kind="break")
            # Recovery checks only the head of the checkpoint it loads.
            self._damage(f"checkpoint-{index:08d}.ckpt", "chain-break", None,
                         index, error, refused=index >= self._base)

    def _enter(self, start: int, name: str) -> None:
        """Start a segment: it must continue where the last one ended."""
        if self._expected is None:
            if start > self._base:
                self._damage(name, "gap", None, self._base, JournalError(
                    f"journal gap: records {self._base}..{start} are in no "
                    f"segment (first segment is {name}); the history cannot "
                    f"be reconstructed"))
        elif start != self._expected:
            self._reach(self._expected, self.verifier.head)
            # A hole wholly below the base: records the checkpoint holds.
            self._damage(name, "gap", None, min(start, self._expected),
                         JournalError(
                             f"journal gap: segment {name} starts at record "
                             f"{start} but the previous segment ends at "
                             f"{self._expected}; records in between are in "
                             f"no segment"),
                         refused=not self._expected < start <= self._base)
            self.verifier.forget()
        self._segment = (start, name)

    def _scan(self, start: int, path: str) -> Callable[[], None]:
        """Fold a segment below the base, read once, a batch of lines at a
        time; returns its vouching: its records count as verified, and only
        its last line and the one before each checkpoint mark are parsed."""
        digest, index, last, marks = hashlib.sha256(), start, b"", {}
        heads = sorted(mark for mark in self._heads if mark > start)
        with open(path, "rb", buffering=1 << 16) as handle:
            for batch in iter(lambda: handle.readlines(1 << 16), []):
                digest.update(b"".join(batch))
                lines = [line for line in batch if not line.isspace()]
                for mark in heads:  # a checkpoint mark in this batch
                    if index <= mark < index + len(lines):
                        marks[mark] = (lines[mark - index - 1]
                                       if mark > index else last)
                index, last = index + len(lines), (lines or [last])[-1]
        fold_segment(self.fold, path, digest.hexdigest())

        def vouch() -> None:
            self._reach(start, self.verifier.head)
            for mark, before in marks.items():
                self._reach(mark, _commit_hash(before.rstrip()))
            if last:
                self.verifier.head = _commit_hash(last.rstrip())
            self.verifier.verified += index - start
            self.records += index - start
            self._expected = index
        return vouch

    def _lines(self, start: int, data: bytes, path: str, live: bool) -> None:
        """Walk one segment's records line by line."""
        name = os.path.basename(path)
        index = start
        for line_number, offset, entry in frame_lines(data, CHAINED_TAG,
                                                      final=live):
            self._reach(index, self.verifier.head)
            if isinstance(entry, FrameError):
                torn = entry.damage is FrameDamage.TORN  # the last line
                self._damage(
                    name, "torn" if torn else "corrupt", line_number, index,
                    record_error(path, line_number, offset, str(entry),
                                 torn=torn),
                    (f"torn final record (crash residue): {entry}" if torn
                     else str(entry)), refused=not torn)
                if torn:
                    data = data[:offset]
                    break
                # Records beyond a damaged line still parse, but their
                # global indices are no longer certain and the chain
                # cannot be followed across the hole.
                self.verifier.forget()
            else:
                try:
                    self.verifier.take(entry, where=f"{name}:{line_number}")
                    if index >= self._base and self.refusal is None:
                        self._consume(entry)
                except ChainError as exc:
                    self._damage(name, f"chain-{exc.kind}", line_number,
                                 index, exc)
                    self.verifier.forget()
                self.records += 1
            index += 1
        self._expected = index
        if live:
            self.live = (start, path, data)

    def _refuse_fold(self, below: Sequence[Tuple[int, str]],
                     sealed: str) -> None:
        """The segments below the base are not the bytes the checkpoint
        sealed: a ``chain-tamper``, refused — unless a finding recovery
        refuses already names the damage, or the mark at the base is
        about to say their head is not its head.  A gap alone never
        accounts for it: only pruning the oldest segments is allowed."""
        recorded, head = self._heads.get(self._base), self.verifier.head
        if self.refusal is not None or (self._expected == self._base
                                        and None not in (recorded, head)
                                        and recorded != head):
            return
        names = " … ".join(sorted({os.path.basename(below[0][1]),
                                   os.path.basename(below[-1][1])}))
        self._damage(os.path.basename(below[0][1]), "chain-tamper", None,
                     below[0][0], ChainError(
                         f"chain tamper in {names}: the segments below "
                         f"checkpoint {self._base} fold to "
                         f"{self.fold.hexdigest()[:12]}… but the checkpoint "
                         f"sealed {sealed[:12]}… — their bytes were "
                         f"rewritten, though every record in them walks "
                         f"clean", kind="tamper"))

    def _walk(self, segments: Sequence[Tuple[int, str]],
              sealed: Optional[str]) -> None:
        below = [segment for segment in segments if segment[0] < self._base]
        scans = ([self._scan(start, path) for start, path in below]
                 if sealed is not None and self.fold is not None else [])
        vouched = bool(scans) and self.fold.hexdigest() == sealed
        for position, (start, path) in enumerate(segments):
            self._enter(start, os.path.basename(path))
            live = position == len(segments) - 1 and start >= self._base
            if vouched and position < len(scans):
                scans[position]()
            else:
                with open(path, "rb") as handle:  # a segment not vouched for
                    data = handle.read()
                self._lines(start, data, path, live)
            if position == len(scans) - 1 and not vouched:
                self._refuse_fold(below, sealed)
            if self.fold is not None and position >= len(scans) and not live:
                fold_segment(self.fold, path, hashlib.sha256(data).hexdigest())
            self.end = max(self.end, self._expected)
        self._reach(self.end, self.verifier.head)
