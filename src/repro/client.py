"""The serving-layer client: pooled, retrying, failover-aware.

:class:`ReproClient` speaks the ``s1`` wire protocol of
:mod:`repro.server.protocol` over any stream the *connector* produces —
real TCP (the default, endpoints as ``"host:port"``) or in-process
:class:`~repro.server.chaos.MemoryPipe` pairs (tests, the loadgen).
The robustness posture mirrors the server's (docs/SERVING.md):

- **bounded retry with seeded jitter**: transport failures and typed
  *retryable* errors (:class:`~repro.errors.Overloaded`,
  :class:`~repro.errors.ConflictError`,
  :class:`~repro.errors.DrainingError`, …) are retried up to the
  :class:`~repro.concurrency.retry.RetryPolicy`'s attempt budget,
  backing off by the policy's jittered schedule — a server-supplied
  ``retry_after`` hint wins over the computed delay.  Non-retryable
  errors raise immediately, as the *same* exception class the server
  raised (the typed round-trip of ``decode_error``).
- **deadline ownership**: the client enforces ``budget_ms`` locally
  with its own clock (one timer around each attempt's whole exchange,
  however many frames the reply has).  An attempt may wait for the
  budget that remains divided over the attempts that remain — never the
  whole of it, or one dropped frame would spend the budget the retries
  exist to use; an attempt that overruns its share is retried like any
  transport failure, and a request that overruns its budget raises
  :class:`~repro.errors.DeadlineExceeded`.  Either way the connection is
  closed rather than reused (a late reply must never be read as the
  answer to the *next* request).  The server independently suppresses
  late replies, so neither side trusts the other's clock.
- **failover**: endpoints are an ordered list; connection failures and
  :class:`~repro.errors.DrainingError` rotate the preferred endpoint,
  so a drained primary hands its clients to the promoted replica
  without configuration changes.
- **read-your-writes**: every ``done`` token is folded into
  :attr:`last_token`; ``consistency="ryw"`` sends it, gating replica
  reads on the client's own write history.

One request is in flight per pooled connection; concurrency comes from
the pool, correlation ids stay trivially unambiguous.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

from repro.concurrency.retry import RetryPolicy
from repro.errors import (DeadlineExceeded, ProtocolError, ReproError,
                          TransportError)
from repro.server import protocol

#: Seconds one exchange may wait when the request carries no budget to
#: share out (also the connection preamble's bound): finite, so a dropped
#: frame costs a retry, never a hang.
UNBUDGETED_ATTEMPT_S = 5.0

#: A connector: endpoint spec -> ``(reader, writer)`` stream pair.
Connector = Callable[[str], Awaitable[Tuple[Any, Any]]]


async def tcp_connector(endpoint: str) -> Tuple[Any, Any]:
    """The default connector: ``"host:port"`` over asyncio TCP."""
    host, _, port = endpoint.rpartition(":")
    reader, writer = await asyncio.open_connection(
        host or "127.0.0.1", int(port),
        limit=protocol.MAX_FRAME_BYTES + 4096)
    return reader, writer


class QueryResult:
    """One successful query's answer, reassembled from the stream."""

    __slots__ = ("rows", "columns", "row_count", "token", "commit_time",
                 "served_by", "attempts")

    def __init__(self, rows: List[Dict[str, Any]], columns: List[str],
                 row_count: int, token: Optional[int],
                 commit_time: Optional[str], served_by: str,
                 attempts: int) -> None:
        self.rows = rows
        self.columns = columns
        self.row_count = row_count
        self.token = token
        self.commit_time = commit_time
        self.served_by = served_by
        self.attempts = attempts

    def __repr__(self) -> str:
        return (f"QueryResult({self.row_count} row(s), "
                f"served_by={self.served_by!r}, token={self.token})")


class _Conn:
    """One pooled connection; at most one request in flight."""

    def __init__(self, endpoint: str, reader: Any, writer: Any) -> None:
        self.endpoint = endpoint
        self.reader = reader
        self.writer = writer
        self.next_id = 1
        self.broken = False

    def close(self) -> None:
        self.broken = True
        try:
            self.writer.close()
        except (ConnectionError, OSError):
            pass


class ReproClient:
    """A pooled async client over one or more serving endpoints.

    *endpoints* is an ordered preference list; *connector* turns a spec
    into a stream pair (defaults to TCP).  *retry* supplies the attempt
    budget and the seeded backoff schedule — pass
    ``RetryPolicy(seed=...)`` for reproducible runs.  *tenant* scopes
    admission on the server.
    """

    def __init__(self, endpoints: Sequence[str],
                 connector: Optional[Connector] = None,
                 retry: Optional[RetryPolicy] = None,
                 tenant: str = "default",
                 default_budget_ms: Optional[float] = None,
                 pool_size: int = 4,
                 preamble: Optional[Sequence[str]] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if not endpoints:
            raise ValueError("at least one endpoint is required")
        self.endpoints = list(endpoints)
        #: Statements replayed on every fresh connection before it
        #: serves a request — ``range of`` bindings are connection
        #: state on the server, so a pool that reconnects (or fails
        #: over) must re-establish them.
        self.preamble = list(preamble) if preamble else []
        self.connector: Connector = (connector if connector is not None
                                     else tcp_connector)
        self.retry = retry if retry is not None else RetryPolicy()
        self.tenant = tenant
        self.default_budget_ms = default_budget_ms
        self.pool_size = pool_size
        self._clock = clock
        self._preferred = 0
        self._pool: Dict[str, List[_Conn]] = {}
        self._acked_tokens: List[int] = []
        self.last_token: Optional[int] = None
        self.stats: Dict[str, int] = {
            "requests": 0, "retries": 0, "failovers": 0,
            "timeouts": 0, "connects": 0, "typed_errors": 0,
        }

    # -- connection pool ------------------------------------------------------

    @property
    def preferred_endpoint(self) -> str:
        return self.endpoints[self._preferred % len(self.endpoints)]

    async def _checkout(self) -> _Conn:
        endpoint = self.preferred_endpoint
        pool = self._pool.setdefault(endpoint, [])
        while pool:
            connection = pool.pop()
            if not connection.broken:
                return connection
        try:
            reader, writer = await self.connector(endpoint)
        except (ConnectionError, OSError) as exc:
            raise TransportError(
                f"cannot connect to {endpoint}: {exc}") from exc
        self.stats["connects"] += 1
        connection = _Conn(endpoint, reader, writer)
        for statement in self.preamble:
            await self._exchange(connection, statement)
        return connection

    async def _exchange(self, connection: _Conn, source: str) -> None:
        """One fire-and-check statement of the connection preamble (the
        caller's timer bounds the wait); failures break the connection."""
        request_id = connection.next_id
        connection.next_id += 1
        try:
            connection.writer.write(protocol.query_request(
                request_id, source,
                budget_ms=UNBUDGETED_ATTEMPT_S * 1000.0,
                tenant=self.tenant))
            await connection.writer.drain()
            await self._collect(connection, request_id, 0)
        except BaseException:
            connection.close()
            raise

    def _checkin(self, connection: _Conn) -> None:
        if connection.broken:
            return
        pool = self._pool.setdefault(connection.endpoint, [])
        if len(pool) < self.pool_size:
            pool.append(connection)
        else:
            connection.close()

    def _fail_over(self) -> None:
        """Rotate the preferred endpoint (connection refused, drain)."""
        self._preferred = (self._preferred + 1) % len(self.endpoints)
        self.stats["failovers"] += 1

    async def close(self) -> None:
        for pool in self._pool.values():
            for connection in pool:
                connection.close()
        self._pool.clear()

    # -- the request loop -----------------------------------------------------

    async def query(self, source: str,
                    budget_ms: Optional[float] = None,
                    consistency: str = "primary",
                    token: Optional[int] = None) -> QueryResult:
        """Run one TQuel statement with retries, failover and deadline.

        ``consistency="ryw"`` gates replica reads on :attr:`last_token`
        (or an explicit *token*).  Raises the server's typed error for
        non-retryable failures, :class:`~repro.errors.DeadlineExceeded`
        on budget overrun, and the last retryable error when the
        attempt budget runs out.
        """
        budget_ms = (budget_ms if budget_ms is not None
                     else self.default_budget_ms)
        deadline = (self._clock() + budget_ms / 1000.0
                    if budget_ms is not None else None)
        if consistency == "ryw" and token is None:
            token = self.last_token
        self.stats["requests"] += 1
        last_error: Optional[BaseException] = None
        for attempt in range(self.retry.max_attempts):
            if attempt:
                self.stats["retries"] += 1
                pause = self._backoff(attempt - 1, last_error)
                if deadline is not None and \
                        self._clock() + pause >= deadline:
                    raise DeadlineExceeded(
                        f"retry backoff would overshoot the "
                        f"{budget_ms}ms budget") from last_error
                await asyncio.sleep(pause)
            if deadline is not None and self._clock() >= deadline:
                self.stats["timeouts"] += 1
                raise DeadlineExceeded(
                    f"request budget of {budget_ms}ms exhausted "
                    f"after {attempt} attempt(s)") from last_error
            try:
                return await self._attempt(source, budget_ms, deadline,
                                           consistency, token, attempt)
            except (TransportError, ConnectionError, OSError) as exc:
                last_error = exc
                self._fail_over()
                continue
            except ReproError as exc:
                if not exc.retryable:
                    raise
                self.stats["typed_errors"] += 1
                last_error = exc
                if type(exc).__name__ == "DrainingError":
                    self._fail_over()
                continue
        assert last_error is not None
        raise last_error

    async def ping(self, budget_ms: float = 1000.0) -> bool:
        """Round-trip a liveness probe to the preferred endpoint."""
        connection: Optional[_Conn] = None
        try:
            async with asyncio.timeout(budget_ms / 1000.0):
                connection = await self._checkout()
                request_id = connection.next_id
                connection.next_id += 1
                connection.writer.write(protocol.ping_request(request_id))
                await connection.writer.drain()
                line = await connection.reader.readline()
            message = protocol.decode_message(line)
            self._checkin(connection)
            return message.get("type") == "pong"
        except (TimeoutError, ConnectionError, OSError, ProtocolError):
            if connection is not None:
                connection.close()
            return False

    def _backoff(self, failure: int, error: Optional[BaseException]) -> float:
        """The pause before the next attempt: server hint, else policy."""
        hint = getattr(error, "retry_after", None)
        if hint is not None:
            return float(hint)
        return self.retry.delay(failure)

    async def _attempt(self, source: str, budget_ms: Optional[float],
                       deadline: Optional[float], consistency: str,
                       token: Optional[int], attempt: int) -> QueryResult:
        # The budget sent to the server is what *remains*, so a retried
        # request never asks the server to work past the client's own
        # deadline.  The attempt itself — connecting and the preamble
        # included — may wait only for its share of that.
        remaining_ms = budget_ms
        share = UNBUDGETED_ATTEMPT_S
        if deadline is not None:
            remaining = deadline - self._clock()
            remaining_ms = max(1.0, remaining * 1000.0)
            share = max(0.001, remaining
                        / (self.retry.max_attempts - attempt))
        connection: Optional[_Conn] = None
        try:
            async with asyncio.timeout(share):
                connection = await self._checkout()
                request_id = connection.next_id
                connection.next_id += 1
                connection.writer.write(protocol.query_request(
                    request_id, source, budget_ms=remaining_ms,
                    tenant=self.tenant, consistency=consistency,
                    token=token))
                await connection.writer.drain()
                result = await self._collect(connection, request_id,
                                             attempt)
        except TimeoutError:
            # Time ran out mid-exchange: the connection may still
            # deliver a (suppressed-or-not) late frame — burn it.
            if connection is not None:
                connection.close()
            self.stats["timeouts"] += 1
            if deadline is not None and self._clock() >= deadline:
                raise DeadlineExceeded(
                    f"no terminal reply within the {budget_ms}ms budget")
            raise TransportError(
                f"no terminal reply within this attempt's "
                f"{share * 1000.0:.0f}ms share of the budget")
        except (ConnectionError, OSError, ProtocolError):
            if connection is not None:
                connection.close()
            raise
        except ReproError:
            # Typed server error: the exchange terminated cleanly, the
            # connection is still framed — reuse it.
            if connection is not None:
                self._checkin(connection)
            raise
        self._checkin(connection)
        return result

    async def _collect(self, connection: _Conn, request_id: int,
                       attempt: int) -> QueryResult:
        """Reassemble one reply (the caller's timer bounds the wait)."""
        rows: List[Dict[str, Any]] = []
        columns: List[str] = []
        while True:
            line = await connection.reader.readline()
            if not line:
                connection.close()
                raise TransportError(
                    f"connection to {connection.endpoint} closed "
                    f"mid-request")
            message = protocol.decode_message(line)
            kind = message.get("type")
            if kind == "rows" and message.get("id") == request_id:
                rows.extend(protocol.rows_from_wire(message.get("rows")))
                if message.get("columns"):
                    columns = list(message["columns"])
            elif kind == "done" and message.get("id") == request_id:
                expected = message.get("row_count")
                if isinstance(expected, int) and expected != len(rows):
                    # A rows chunk vanished between the server and us;
                    # the done frame's census is the proof.  Trusting
                    # the truncated result would be silent data loss,
                    # and the stream that ate a frame is not worth
                    # keeping — close it and retry on a fresh one.
                    connection.close()
                    raise TransportError(
                        f"response truncated in transit: done frame "
                        f"promises {expected} row(s), {len(rows)} "
                        f"arrived")
                token = message.get("token")
                if isinstance(token, int):
                    self._fold_token(token, message)
                return QueryResult(rows, columns,
                                   message.get("row_count", len(rows)),
                                   token, message.get("commit_time"),
                                   message.get("served_by", "primary"),
                                   attempts=attempt + 1)
            elif kind == "error":
                error = protocol.decode_error(message.get("error") or {})
                if message.get("id") is None and isinstance(
                        error, ProtocolError):
                    # An id-less protocol error means the *frame* was
                    # mangled in transit (this client only sends
                    # well-formed frames) — wire damage, so retryable,
                    # unlike a genuine protocol violation.
                    raise TransportError(
                        f"request frame damaged in transit: {error}"
                    ) from error
                raise error
            elif kind == "goodbye":
                connection.close()
                raise TransportError(
                    f"server said goodbye: {message.get('reason')}")
            # Frames for other request ids (stale late replies on a
            # fresh connection cannot happen — one in-flight per
            # connection — but tolerate and skip rather than wedge).

    def _fold_token(self, token: int, message: Dict[str, Any]) -> None:
        if self.last_token is None or token > self.last_token:
            self.last_token = token
        if message.get("commit_time") is not None:
            # A write's token is an acknowledged commit — the audit
            # trail the loadgen checks against post-failover state.
            self._acked_tokens.append(token)

    @property
    def acked_tokens(self) -> List[int]:
        """Commit tokens of every acknowledged write, in ack order."""
        return list(self._acked_tokens)

    def __repr__(self) -> str:
        return (f"ReproClient({self.endpoints!r}, "
                f"preferred={self.preferred_endpoint!r}, "
                f"token={self.last_token})")
