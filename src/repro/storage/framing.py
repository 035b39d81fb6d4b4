"""Record framing: checksummed, length-prefixed lines.

Durable files in this system (journal segments, checkpoint files) are
built from *framed records*.  A framed record is one line of text::

    <tag> <length> <crc32> <payload>\\n

- ``tag`` names the record format (``r2`` for chained journal commit
  records, ``r1`` for the CRC-only 2PC side logs, ``c1`` for checkpoint
  bodies, ``h1`` for the sealed history files a checkpoint stands on), so
  a file identifies itself;
- ``length`` is the byte length of the UTF-8 encoded payload — a torn
  write (the process died mid-``write``) leaves fewer bytes than the
  prefix promises and is detected without parsing the payload;
- ``crc32`` (eight lowercase hex digits, :func:`zlib.crc32`) covers the
  payload bytes — bit rot or an overwritten tail fails the checksum even
  when the length happens to match.

The distinction matters for recovery: a record that fails *because the
file ends too early* (:attr:`FrameDamage.TORN`) is the expected residue
of a crash during an append and may be safely truncated when it is the
final record; a record whose bytes are all present but wrong
(:attr:`FrameDamage.CORRUPT`) is never silently dropped.  Every reader
of a multi-record file — journal segments, the 2PC side logs, the
segment walk — classifies its lines with :func:`frame_lines`, so the
distinction is drawn in one place.

There is **one journal generation**: a journal segment line is an
``r2`` frame or it is damage.  :func:`parse_journal_line` refuses the
retired generations (CRC-only ``r1`` frames, bare JSON objects) as
:attr:`FrameDamage.CORRUPT` — accepting them would let an attacker
*downgrade* a record out of the hash chain of
:mod:`repro.storage.chain` instead of having to forge it
(docs/INTEGRITY.md, "downgrade").

Nothing in this module touches the filesystem — it frames and parses
strings.  Durability (when bytes reach the disk) is the business of
:mod:`repro.storage.io`.
"""

from __future__ import annotations

import enum
import io
import json
import zlib
from typing import Any, Dict, Iterator, Tuple, Union

#: Frame tag of CRC-only records (the 2PC side logs; also the default).
JOURNAL_TAG = "r1"
#: Frame tag of chained journal commit records (payload carries the
#: ``chain`` field of :mod:`repro.storage.chain`).
CHAINED_TAG = "r2"
#: Frame tag of checkpoint bodies.
CHECKPOINT_TAG = "c1"
#: Frame tag of sealed history files (closed rows, written once).
HISTORY_TAG = "h1"


class FrameDamage(enum.Enum):
    """How a framed record can fail to parse."""

    #: The line ends before the promised payload length: the signature of
    #: a write that was cut short by a crash.  Recoverable when final.
    TORN = "torn"
    #: All bytes are present but wrong (bad checksum, malformed prefix,
    #: undecodable payload).  Never recoverable.
    CORRUPT = "corrupt"


class FrameError(ValueError):
    """A framed record could not be parsed.

    Carries :attr:`damage` so callers can distinguish a torn tail (safe
    to truncate during recovery) from mid-file corruption (never safe).
    """

    def __init__(self, message: str, damage: FrameDamage) -> None:
        super().__init__(message)
        self.damage = damage


def frame(payload: str, tag: str = JOURNAL_TAG) -> str:
    """Wrap *payload* in a one-line frame (no trailing newline)."""
    data = payload.encode("utf-8")
    return f"{tag} {len(data)} {zlib.crc32(data):08x} {payload}"


def frame_record(entry: Dict[str, Any], tag: str = JOURNAL_TAG) -> str:
    """Frame a JSON-serializable record (the journal's write path)."""
    return frame(json.dumps(entry, ensure_ascii=False, sort_keys=True),
                 tag=tag)


def parse_frame(line: str, tag: str = JOURNAL_TAG) -> Dict[str, Any]:
    """Parse one framed line back into its JSON record.

    Raises :class:`FrameError` tagged :attr:`FrameDamage.TORN` when the
    payload is shorter than the length prefix promises (a torn trailing
    write), and :attr:`FrameDamage.CORRUPT` for everything else that is
    wrong (bad tag, bad checksum, undecodable JSON).
    """
    parts = line.split(" ", 3)
    if parts[0] != tag:
        # A crash can cut an append at any byte, so a strict prefix of
        # the tag itself is still torn residue, not corruption.
        if len(parts) == 1 and line and tag.startswith(line):
            raise FrameError(f"torn record: header cut mid-tag ({line!r})",
                             FrameDamage.TORN)
        raise FrameError(
            f"not a {tag!r} frame (starts {line[:16]!r})",
            FrameDamage.CORRUPT)
    if len(parts) < 4:
        # Header fields missing entirely: torn if what *is* present is a
        # plausible prefix of a valid header, corrupt otherwise.
        plausible = (len(parts) < 2 or parts[1].isdigit() or parts[1] == "") \
            and (len(parts) < 3 or (len(parts[2]) <= 8 and all(
                c in "0123456789abcdef" for c in parts[2])))
        if plausible:
            raise FrameError(f"torn record: header ends early ({line!r})",
                             FrameDamage.TORN)
        raise FrameError(f"malformed frame prefix {line[:32]!r}",
                         FrameDamage.CORRUPT)
    # The header format is canonical — decimal length, exactly eight
    # lowercase hex checksum digits (what ``frame`` emits).  Lax parsing
    # here would let a flipped case bit in the checksum field (``a`` ->
    # ``A``) alias to the same value and mask real corruption.
    if not parts[1].isdigit() or len(parts[2]) != 8 or any(
            c not in "0123456789abcdef" for c in parts[2]):
        raise FrameError(f"malformed frame prefix {line[:32]!r}",
                         FrameDamage.CORRUPT)
    length = int(parts[1])
    checksum = int(parts[2], 16)
    payload = parts[3]
    data = payload.encode("utf-8")
    if len(data) < length:
        raise FrameError(
            f"torn record: frame promises {length} payload bytes, "
            f"only {len(data)} present", FrameDamage.TORN)
    if len(data) > length:
        raise FrameError(
            f"overlong record: frame promises {length} payload bytes, "
            f"{len(data)} present", FrameDamage.CORRUPT)
    if zlib.crc32(data) != checksum:
        raise FrameError(
            f"checksum mismatch: frame says {checksum:08x}, "
            f"payload hashes to {zlib.crc32(data):08x}",
            FrameDamage.CORRUPT)
    try:
        return json.loads(payload)
    except json.JSONDecodeError as exc:
        # The checksum matched, so this is a writer bug, not disk damage;
        # either way the record cannot be used.
        raise FrameError(f"framed payload is not JSON: {exc}",
                         FrameDamage.CORRUPT) from exc


def parse_journal_line(line: str) -> Dict[str, Any]:
    """Parse one journal-segment line: a chained ``r2`` frame or damage.

    Anything else — an ``r1`` frame, a bare-JSON line — raises
    :class:`FrameError` tagged :attr:`FrameDamage.CORRUPT`, however
    valid its own checksum: those generations carry no chain fields, so
    admitting them would admit unchained history.  A strict prefix of
    the tag is still torn residue, exactly as in :func:`parse_frame`.
    """
    return parse_frame(line, tag=CHAINED_TAG)


def _parse_bytes(chunk: bytes, tag: str) -> Dict[str, Any]:
    try:
        line = chunk.decode("utf-8")
    except UnicodeDecodeError as exc:
        # A crash can cut an append inside a multi-byte character, which
        # leaves an incomplete sequence at the very end; any other
        # undecodable byte was written wrong or rotted.
        torn = exc.reason == "unexpected end of data"
        raise FrameError(f"undecodable bytes: {exc}",
                         FrameDamage.TORN if torn else FrameDamage.CORRUPT
                         ) from exc
    return parse_frame(line, tag=tag)


def frame_lines(data: bytes, tag: str, final: bool = True
                ) -> Iterator[Tuple[int, int, Union[Dict[str, Any],
                                                    FrameError]]]:
    """Classify every record-bearing line of a framed file's bytes.

    Yields ``(line number, byte offset, record)`` per non-blank line, in
    order: *record* is the parsed payload, or the :class:`FrameError` the
    line failed with.  The error is :attr:`FrameDamage.TORN` only for the
    last such line, and only when *final* says the file ends its stream
    (no crash tears a record that later ones follow); a torn line
    anywhere else is CORRUPT.  Bytes that are not UTF-8 are TORN only as
    an incomplete sequence at the end of the line.
    """
    last = len(data)
    while last and data[last - 1:last].isspace():
        last -= 1  # the last record-bearing line holds byte last - 1
    offset = 0
    for number, chunk in enumerate(io.BytesIO(data), 1):  # no line list
        if chunk.strip():
            try:
                record: Union[Dict[str, Any], FrameError] = _parse_bytes(
                    chunk.rstrip(b"\n"), tag)
            except FrameError as exc:
                record = exc
                if exc.damage is FrameDamage.TORN and not (
                        final and offset + len(chunk) >= last):
                    record = FrameError(f"torn bytes mid-file — no crash "
                                        f"writes there: {exc}",
                                        FrameDamage.CORRUPT)
            yield number, offset, record
        offset += len(chunk)
