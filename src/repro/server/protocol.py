"""The serving wire format: framed requests, streamed replies, typed errors.

Every message between a client and the server is one framed line
(:mod:`repro.storage.framing`) under the serving tag ``s1`` — the same
length-prefix + CRC32 armor the journal and the replication stream
wear, so a mangled request is *detected and named*, never half-parsed.
The payload is a JSON object with a ``type`` field.

Client → server:

``query``
    One TQuel statement: ``id`` (the connection-local request id replies
    carry back), ``source``, optional ``budget_ms`` (the deadline,
    relative so clocks need not agree — the server pins it to its own
    monotonic clock on receipt), ``tenant`` (the admission-control
    scope), ``consistency`` (``primary`` | ``replica`` | ``ryw``) and
    ``token`` (the read-your-writes commit token a ``ryw`` read gates
    on).
``ping``
    A liveness probe; answered with ``pong`` (and it resets the idle
    timer, so pools can keep connections warm).

Server → client:

``rows``
    One bounded chunk of a retrieve's result: ``seq`` (0-based chunk
    number), ``rows`` (:func:`rows_to_wire`: tagged values, stamps as
    the two chronons a checkpoint writes) and, on the first chunk,
    ``columns``.  Results stream — a million-row retrieve never
    materializes as one frame.
``done``
    The terminal frame of a successful request: total ``row_count`` and
    ``chunks``, the ``token`` (read-your-writes commit token after a
    write; reads echo the token they were served at), ``commit_time``
    (DML/DDL), and ``served_by`` (``primary`` or ``replica:<node>``).
``error``
    The terminal frame of a failed request: the typed error object of
    :func:`encode_error`, which :func:`decode_error` maps back to the
    *same* :class:`~repro.errors.ReproError` subclass, triage bit and
    detail fields intact.
``pong``
    The ``ping`` answer.
``goodbye``
    A connection-level notice sent before the server closes the
    connection deliberately (idle timeout, drain completion, slow
    client) — so a well-behaved client can tell policy from crash.

A reply frame is only ever sent *before* the request's deadline; a
request whose deadline passed gets silence (the client owns its own
deadline and will have moved on — a late reply is wasted bytes at best
and a correctness hazard at worst).  See docs/SERVING.md.
"""

from __future__ import annotations

import functools
import json
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import ProtocolError, RemoteError, ReproError
from repro.storage.framing import FrameError, frame, parse_frame
from repro.storage.serializer import (Memo, decode_stamp, decode_value,
                                     encode_value, period_stamp)

#: Frame tag of serving protocol messages.
SERVING_TAG = "s1"

#: Hard ceiling on one frame line (header + payload), bytes.  A frame
#: whose *declared* length exceeds this is refused before any buffering
#: decision is made on its behalf.
MAX_FRAME_BYTES = 1 << 20

#: The request consistency modes a query may ask for.
CONSISTENCY_MODES = ("primary", "replica", "ryw")


def encode_message(message: Dict[str, Any]) -> bytes:
    """Frame one protocol message as one line of UTF-8 bytes."""
    line = frame(json.dumps(message, sort_keys=True, ensure_ascii=False),
                 tag=SERVING_TAG)
    return line.encode("utf-8") + b"\n"


def decode_message(line: bytes) -> Dict[str, Any]:
    """Parse one framed line; raises :class:`~repro.errors.ProtocolError`
    naming the damage on anything malformed.

    Frame-level failures (torn, bad CRC, oversized declared length,
    garbage) all map to ``ProtocolError`` — at the serving layer a
    "torn" line is not a crash residue to truncate but a peer that sent
    a length prefix its payload does not honor.
    """
    try:
        text = line.decode("utf-8").rstrip("\r\n")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"frame is not UTF-8: {exc}") from exc
    if not text:
        raise ProtocolError("empty frame line")
    declared = _declared_length(text)
    if declared is not None and declared > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame declares {declared} payload bytes, the protocol "
            f"ceiling is {MAX_FRAME_BYTES}")
    try:
        message = parse_frame(text, tag=SERVING_TAG)
    except FrameError as exc:
        raise ProtocolError(f"bad frame ({exc.damage.value}): {exc}") from exc
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError("frame payload is not a typed message object")
    return message


def _declared_length(text: str) -> Optional[int]:
    """The length prefix of a plausible ``s1`` frame header, if any."""
    parts = text.split(" ", 2)
    if len(parts) >= 2 and parts[0] == SERVING_TAG and parts[1].isdigit():
        return int(parts[1])
    return None


def parse_request(line: bytes) -> Dict[str, Any]:
    """Decode and validate one client request frame.

    Beyond :func:`decode_message`, enforces the request schema: a known
    ``type``, an integer ``id``, a string ``source`` for queries, and a
    known ``consistency`` mode.  Every violation is a typed
    :class:`~repro.errors.ProtocolError` carrying the offending field.
    """
    message = decode_message(line)
    kind = message.get("type")
    if kind not in ("query", "ping"):
        raise ProtocolError(f"unknown request type {kind!r}")
    request_id = message.get("id")
    if not isinstance(request_id, int):
        raise ProtocolError(f"request id must be an integer, "
                            f"got {request_id!r}")
    if kind == "query":
        if not isinstance(message.get("source"), str):
            raise ProtocolError("query carries no TQuel source string")
        budget = message.get("budget_ms")
        if budget is not None and (not isinstance(budget, (int, float))
                                   or budget <= 0):
            raise ProtocolError(f"budget_ms must be a positive number, "
                                f"got {budget!r}")
        consistency = message.get("consistency", "primary")
        if consistency not in CONSISTENCY_MODES:
            raise ProtocolError(
                f"unknown consistency {consistency!r} "
                f"(modes: {', '.join(CONSISTENCY_MODES)})")
        token = message.get("token")
        if token is not None and not isinstance(token, int):
            raise ProtocolError(f"token must be an integer, got {token!r}")
    return message


# ---------------------------------------------------------------------------
# Request builders (the client's side of the conversation)
# ---------------------------------------------------------------------------

def query_request(request_id: int, source: str,
                  budget_ms: Optional[float] = None,
                  tenant: str = "default",
                  consistency: str = "primary",
                  token: Optional[int] = None) -> bytes:
    """One TQuel statement with its deadline budget and routing hints."""
    message: Dict[str, Any] = {"type": "query", "id": request_id,
                               "source": source, "tenant": tenant,
                               "consistency": consistency}
    if budget_ms is not None:
        message["budget_ms"] = budget_ms
    if token is not None:
        message["token"] = token
    return encode_message(message)


def ping_request(request_id: int) -> bytes:
    """A liveness probe (also resets the server's idle timer)."""
    return encode_message({"type": "ping", "id": request_id})


# ---------------------------------------------------------------------------
# Reply builders (the server's side)
# ---------------------------------------------------------------------------

def rows_reply(request_id: int, seq: int, rows: List[Dict[str, Any]],
               columns: Optional[List[str]] = None) -> bytes:
    """One bounded chunk of result rows."""
    message: Dict[str, Any] = {"type": "rows", "id": request_id,
                               "seq": seq, "rows": rows}
    if columns is not None:
        message["columns"] = columns
    return encode_message(message)


def done_reply(request_id: int, row_count: int, chunks: int,
               token: Optional[int] = None,
               commit_time: Optional[str] = None,
               served_by: str = "primary") -> bytes:
    """The terminal success frame."""
    return encode_message({"type": "done", "id": request_id,
                           "row_count": row_count, "chunks": chunks,
                           "token": token, "commit_time": commit_time,
                           "served_by": served_by})


def error_reply(request_id: Optional[int], error: ReproError) -> bytes:
    """The terminal failure frame (typed; round-trips the error)."""
    return encode_message({"type": "error", "id": request_id,
                           "error": encode_error(error)})


def pong_reply(request_id: int) -> bytes:
    """The ``ping`` answer."""
    return encode_message({"type": "pong", "id": request_id})


def goodbye(reason: str) -> bytes:
    """A deliberate-close notice (idle timeout, drain, slow client)."""
    return encode_message({"type": "goodbye", "reason": reason})


# ---------------------------------------------------------------------------
# Typed error round-tripping
# ---------------------------------------------------------------------------

#: Detail attributes that travel with an error, when the instance has
#: them: the triage evidence (back-pressure hints, conflict sets,
#: read-your-writes positions, chain damage kind, source locations).
_DETAIL_FIELDS = ("retry_after", "relations", "token", "applied", "kind",
                  "line", "column", "queued", "active")


def _error_registry() -> Dict[str, type]:
    """Every :class:`ReproError` subclass, by name.

    Walked from the live class tree rather than a hand-kept table, so a
    new error type added anywhere in the library round-trips through
    the wire without this module changing.
    """
    registry: Dict[str, type] = {}
    stack = [ReproError]
    while stack:
        cls = stack.pop()
        registry[cls.__name__] = cls
        stack.extend(cls.__subclasses__())
    return registry


def encode_error(error: ReproError) -> Dict[str, Any]:
    """The wire form of a typed error: name, message, triage, details."""
    details: Dict[str, Any] = {}
    for field in _DETAIL_FIELDS:
        value = getattr(error, field, None)
        if value is not None:
            if isinstance(value, tuple):
                value = list(value)
            details[field] = value
    encoded: Dict[str, Any] = {
        "name": type(error).__name__,
        "message": str(error),
        "retryable": bool(error.retryable),
    }
    if details:
        encoded["details"] = details
    return encoded


def decode_error(data: Dict[str, Any]) -> ReproError:
    """Rebuild the typed error an ``error`` frame carries.

    The result is an instance of the *same* class that was raised on
    the server (so ``except ConflictError`` works across the wire),
    with the detail attributes restored.  A name this build does not
    know becomes :class:`~repro.errors.RemoteError` with the wire's
    triage bit — unknown errors still retry correctly.
    """
    name = data.get("name", "ReproError")
    message = data.get("message", "remote error")
    retryable = bool(data.get("retryable", False))
    details = data.get("details") or {}
    cls = _error_registry().get(name)
    if cls is None:
        return RemoteError(message, type_name=name, retryable=retryable)
    # Every ReproError subclass is constructible from the message alone
    # (extra constructor arguments all default); details are restored as
    # attributes afterwards so double-suffixing constructors (TQuel's
    # location formatting) never mangle the round-tripped message.
    try:
        error = cls(message)
    except TypeError:
        return RemoteError(message, type_name=name, retryable=retryable)
    for field, value in details.items():
        if field == "relations" and isinstance(value, list):
            value = tuple(value)
        setattr(error, field, value)
    if retryable != bool(cls.retryable):
        # The class's own triage bit wins for known types; flag the
        # disagreement rather than silently trusting the wire.
        error.retryable = retryable
    return error


# ---------------------------------------------------------------------------
# Result rows on the wire
# ---------------------------------------------------------------------------

#: The stamp fields a wire row may carry.
_STAMPS = ("valid", "transaction")


def rows_to_wire(result: Any) -> Tuple[List[str], List[Dict[str, Any]]]:
    """Flatten a retrieve result into ``(columns, wire rows)``.

    A wire row is ``{"values": {name: value}}`` plus a stamp for each of
    the row's ``valid`` and ``transaction`` periods.  Values keep the
    storage layer's tagged encoding (``encode_value``: a DATE value is an
    ``$instant`` object).  A stamp is written as a checkpoint writes it
    (``period_stamp``): ``[start, end]`` chronon integers, ``null`` for
    an infinity, the unit's name appended unless it is day — no date is
    formatted for it, and :func:`rows_from_wire` parses none.
    """
    if result is None:
        return [], []
    schema = getattr(result, "schema", None)
    columns = list(schema.names) if schema is not None else []
    encode = functools.partial(encode_value, memo={})
    wire: List[Dict[str, Any]] = []
    for row in _iter_rows(result):
        data = getattr(row, "data", row)
        entry: Dict[str, Any] = {
            "values": dict(zip(data.schema.names, map(encode, data.values)))}
        for field in _STAMPS:
            period = getattr(row, field, None)
            if period is not None:
                entry[field] = period_stamp(period)
        wire.append(entry)
    return columns, wire


def _iter_rows(result: Any) -> Iterable[Any]:
    rows = getattr(result, "rows", None)
    if rows is not None and not callable(rows):
        return rows
    try:
        return list(result)
    except TypeError:
        return []


def rows_from_wire(rows: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Decode wire rows (:func:`rows_to_wire`) into ``{"values", "valid"?,
    "transaction"?}`` dicts holding real instants and periods.

    One memo serves the call, so each distinct instant literal is parsed
    once and each distinct stamp is one ``Period`` (``decode_stamp``),
    shared by every row of the frame that carries it.  A row that does
    not decode raises :class:`~repro.errors.ProtocolError` naming the
    row's index and the field.
    """
    if type(rows) is not list:
        raise ProtocolError(f"rows frame carries {type(rows).__name__}, "
                            f"not a list of rows")
    memo: Memo = {}
    decoded = []
    for index, row in enumerate(rows):
        if type(row) is not dict:
            raise ProtocolError(f"wire row {index} is a "
                                f"{type(row).__name__}, not an object")
        field = "values"
        try:
            entry = {"values": {name: decode_value(value, memo)
                                for name, value in row["values"].items()}}
            for field in _STAMPS:
                if field in row:
                    entry[field] = decode_stamp(row[field], memo)
        except (ReproError, AttributeError, KeyError, TypeError,
                ValueError) as exc:
            raise ProtocolError(
                f"wire row {index}: cannot decode {field!r}: {exc}") from exc
        decoded.append(entry)
    return decoded
