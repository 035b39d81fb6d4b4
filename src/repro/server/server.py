"""The asyncio serving layer: the temporal engine behind a socket.

:class:`ReproServer` accepts framed-line connections (real TCP via
:meth:`ReproServer.serve` or in-process :class:`~repro.server.chaos.
MemoryPipe` pairs via :meth:`ReproServer.handle_connection`), parses
TQuel requests, executes them against the engine, and streams results
back in bounded chunks.  The robustness contract (docs/SERVING.md):

- **deadlines**: a request's ``budget_ms`` is pinned to the server's
  monotonic clock at receipt, propagated into
  :meth:`SessionLayer.run <repro.concurrency.layer.SessionLayer.run>`
  (admission queueing, retries and commit all respect it) *and*
  enforced at the socket — a reply to an expired request is suppressed,
  never sent;
- **admission per tenant**: each tenant gets its own
  :class:`~repro.concurrency.layer.SessionLayer` with a scoped
  :class:`~repro.concurrency.admission.AdmissionController`; shed work
  answers with a typed retryable :class:`~repro.errors.Overloaded`
  carrying ``retry_after`` and the queue depth that caused it;
- **backpressure**: replies go through ``drain()`` under a write-stall
  timer; a client that stops reading is sent a ``goodbye`` (best
  effort) and disconnected rather than allowed to pin server memory;
  a connection that sends nothing for ``idle_timeout`` is closed (one
  timer per connection, re-armed when it fires, not per frame);
- **pipelining, bounded**: up to ``max_pipeline`` requests run
  concurrently per connection; the excess is shed with ``Overloaded``;
- **graceful drain**: :meth:`drain` stops accepting, answers new
  requests with retryable :class:`~repro.errors.DrainingError`, lets
  in-flight work finish up to the grace period, then aborts what
  remains with the same typed error;
- **replica routing**: reads asking for ``replica``/``ryw``
  consistency are served from a caught-up, healthy replica (gated on
  the :attr:`~repro.concurrency.session.ConcurrentSession.commit_token`
  read-your-writes token), falling back to the primary when no replica
  is eligible — degraded service, never wrong answers.

Everything the engine does is synchronous and runs on the loop thread
(:meth:`ReproServer._work`), which alone touches server state: one serial
history gains nothing from threads.  A request that would wait — for
admission or a backoff — runs again on a worker thread instead.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from repro.concurrency.admission import AdmissionController, WouldWait
from repro.concurrency.layer import SessionLayer
from repro.concurrency.retry import RetryPolicy
from repro.errors import (DrainingError, Overloaded, ProtocolError,
                          ReproError, ServingError)
from repro.obs import runtime as _obs
from repro.server import protocol
from repro.tquel.ast import RetrieveStmt
from repro.tquel.interpreter import Session
from repro.tquel.lexer import tokenize
from repro.tquel.parser import parse_tokens


class ServerConfig:
    """Tunable limits of one :class:`ReproServer` (all have safe defaults).

    ``chunk_rows`` bounds one ``rows`` frame; ``max_pipeline`` bounds
    concurrent requests per connection; ``idle_timeout`` /
    ``write_stall_timeout`` are the slow-client defenses (seconds);
    ``drain_grace`` is how long :meth:`ReproServer.drain` lets in-flight
    work finish; ``max_active`` / ``max_queue`` / ``retry_after``
    parameterize each tenant's admission controller; ``default_budget``
    (seconds) applies when a request names no ``budget_ms``; ``plan``
    is the TQuel access-path mode; ``retry_seed`` seeds each tenant
    layer's backoff jitter for reproducible runs.  Requests that wait
    get ``max_active + max_queue`` worker threads.
    """

    def __init__(self, chunk_rows: int = 64, max_pipeline: int = 8,
                 idle_timeout: float = 30.0,
                 write_stall_timeout: float = 5.0,
                 drain_grace: float = 5.0,
                 max_active: int = 8, max_queue: int = 16,
                 retry_after: float = 0.05,
                 default_budget: Optional[float] = None,
                 plan: str = "auto",
                 retry_seed: Optional[int] = None) -> None:
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be at least 1")
        if max_pipeline < 1:
            raise ValueError("max_pipeline must be at least 1")
        self.chunk_rows = chunk_rows
        self.max_pipeline = max_pipeline
        self.idle_timeout = idle_timeout
        self.write_stall_timeout = write_stall_timeout
        self.drain_grace = drain_grace
        self.max_active = max_active
        self.max_queue = max_queue
        self.retry_after = retry_after
        self.default_budget = default_budget
        self.plan = plan
        self.retry_seed = retry_seed


class _Connection:
    """Per-connection state: streams, bindings, in-flight tasks."""

    _next_id = 0

    def __init__(self, reader: Any, writer: Any) -> None:
        _Connection._next_id += 1
        self.id = _Connection._next_id
        self.reader = reader
        self.writer = writer
        self.write_lock = asyncio.Lock()
        #: ``range of`` bindings are connection-scoped session state.
        self.ranges: Dict[str, str] = {}
        self.tasks: set = set()
        self.closed = False
        #: Loop time the last frame arrived, and the timer watching it.
        self.heard = 0.0
        self.idle_watch: Optional[asyncio.TimerHandle] = None


class ReproServer:
    """The asyncio server over one (possibly sharded) temporal database.

    *replicas* is an iterable of :class:`~repro.replication.replica.
    Replica` nodes eligible to serve reads; pass the live objects — the
    server consults :meth:`~repro.replication.replica.Replica.health`
    per request, so catch-up and degradation are honored in real time.
    *clock* must be the same monotonic time source the tenant layers
    use (injectable for simulated-time tests).
    """

    def __init__(self, database: Any,
                 config: Optional[ServerConfig] = None,
                 replicas: Iterable[Any] = (),
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.database = database
        self.config = config or ServerConfig()
        self.replicas = list(replicas)
        self._clock = clock
        self._layers: Dict[str, SessionLayer] = {}
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_active + self.config.max_queue,
            thread_name_prefix="repro-serve")
        self._connections: set = set()
        self._draining = False
        self._drain_deadline: Optional[float] = None
        self._tcp_server: Optional[asyncio.AbstractServer] = None
        self.stats: Dict[str, int] = {
            "connections": 0, "requests": 0, "replies": 0,
            "rows_sent": 0, "shed": 0, "pipeline_shed": 0,
            "protocol_errors": 0, "errors": 0, "late_suppressed": 0,
            "idle_closes": 0, "slow_client_aborts": 0,
            "replica_reads": 0, "primary_fallbacks": 0,
            "drain_rejected": 0, "drain_aborted": 0, "waited": 0,
        }

    # -- wiring ---------------------------------------------------------------

    def layer(self, tenant: str) -> SessionLayer:
        """The tenant's session layer (created on first use).

        Each tenant gets its own admission controller scoped
        ``tenant.<name>`` — one tenant's burst sheds *its* queue, and
        the scoped ``admission.tenant.<name>.*`` metrics say whose.
        """
        existing = self._layers.get(tenant)
        if existing is not None:
            return existing
        config = self.config
        layer = SessionLayer(
            self.database,
            retry=RetryPolicy(seed=config.retry_seed,
                              clock=self._clock),
            admission=AdmissionController(max_active=config.max_active,
                                          max_queue=config.max_queue,
                                          retry_after=config.retry_after,
                                          clock=self._clock,
                                          scope=f"tenant.{tenant}"),
            clock=self._clock)
        self._layers[tenant] = layer
        return layer

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def in_flight(self) -> int:
        return sum(len(connection.tasks)
                   for connection in self._connections)

    # -- TCP entry point ------------------------------------------------------

    async def serve(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Listen on TCP; returns the bound ``(host, port)``."""
        self._tcp_server = await asyncio.start_server(
            self.handle_connection, host, port,
            limit=protocol.MAX_FRAME_BYTES + 4096)
        address = self._tcp_server.sockets[0].getsockname()
        return address[0], address[1]

    async def wait_closed(self) -> None:
        if self._tcp_server is not None:
            await self._tcp_server.wait_closed()

    # -- connection lifecycle -------------------------------------------------

    async def handle_connection(self, reader: Any, writer: Any) -> None:
        """Serve one connection until EOF, timeout, fatal damage or drain.

        Works identically over asyncio TCP streams and MemoryPipe ends —
        only ``readline`` / ``write`` / ``drain`` / ``close`` are used.
        """
        if self._draining:
            # Late arrival during drain: turn it away politely.
            try:
                writer.write(protocol.goodbye("draining"))
                writer.close()
            except (ConnectionError, OSError):
                pass
            return
        connection = _Connection(reader, writer)
        self._connections.add(connection)
        self.stats["connections"] += 1
        metrics = _obs.current().metrics
        metrics.gauge("server.connections").set(len(self._connections))
        try:
            await self._read_loop(connection)
        finally:
            for task in list(connection.tasks):
                task.cancel()
            self._close_connection(connection)
            self._connections.discard(connection)
            metrics.gauge("server.connections").set(len(self._connections))

    async def _read_loop(self, connection: _Connection) -> None:
        loop = asyncio.get_running_loop()
        connection.heard = loop.time()
        self._watch_idle(connection)
        while not connection.closed:
            try:
                line = await connection.reader.readline()
            except ValueError:
                # The peer is streaming an unterminated torrent; there
                # is no frame boundary left to resynchronize on.
                self.stats["protocol_errors"] += 1
                await self._reply(connection, protocol.error_reply(
                    None, ProtocolError(
                        "line exceeds the frame ceiling with no "
                        "terminator; closing")), None)
                await self._say_goodbye(connection, "unframed stream")
                return
            except (ConnectionError, OSError):
                return
            if not line:
                return  # EOF: the peer's, or the idle watch closed us
            connection.heard = loop.time()
            if line.strip() == b"":
                continue  # bare keepalive newline
            await self._dispatch(connection, line)

    def _watch_idle(self, connection: _Connection) -> None:
        """The idle contract as one timer per connection.

        Armed once; when it fires it either finds the connection quiet
        for ``idle_timeout`` — goodbye (best effort: closing flushes what
        the transport took), close, and the read loop wakes on EOF — or
        re-arms itself for what is left.  A frame costs the timer nothing
        but the ``heard`` stamp.
        """
        timeout = self.config.idle_timeout
        if timeout is None or connection.closed:
            return
        loop = asyncio.get_running_loop()
        left = connection.heard + timeout - loop.time()
        if left > 0:
            connection.idle_watch = loop.call_later(
                left, self._watch_idle, connection)
            return
        self.stats["idle_closes"] += 1
        _obs.current().events.emit(
            "server.slow_client", connection=connection.id,
            reason="idle_timeout")
        try:
            connection.writer.write(protocol.goodbye("idle timeout"))
        except (ConnectionError, OSError):
            pass
        self._close_connection(connection)

    async def _dispatch(self, connection: _Connection, line: bytes) -> None:
        """Route one frame line: validate, answer, or spawn a request."""
        obs = _obs.current()
        try:
            message = protocol.parse_request(line)
        except ProtocolError as error:
            # Malformed-but-complete line: typed error, connection
            # survives — one mangled frame must not kill a pipeline.
            self.stats["protocol_errors"] += 1
            obs.metrics.counter("server.protocol_errors").inc()
            obs.events.emit("server.error", connection=connection.id,
                            error="ProtocolError", message=str(error))
            await self._reply(connection,
                              protocol.error_reply(None, error), None)
            return
        if message["type"] == "ping":
            await self._reply(connection,
                              protocol.pong_reply(message["id"]), None)
            return
        request_id = message["id"]
        if len(connection.tasks) >= self.config.max_pipeline:
            self.stats["pipeline_shed"] += 1
            overloaded = Overloaded(
                f"connection pipeline is full "
                f"({self.config.max_pipeline} requests in flight)",
                retry_after=self.config.retry_after,
                queued=len(connection.tasks))
            obs.events.emit("server.shed", connection=connection.id,
                            tenant=message.get("tenant", "default"),
                            reason="pipeline",
                            retry_after=self.config.retry_after,
                            queued=len(connection.tasks))
            await self._reply(connection,
                              protocol.error_reply(request_id, overloaded),
                              None)
            return
        task = asyncio.ensure_future(
            self._run_request(connection, message, self._clock()))
        connection.tasks.add(task)
        task.add_done_callback(connection.tasks.discard)

    # -- request execution ----------------------------------------------------

    async def _run_request(self, connection: _Connection,
                           message: Dict[str, Any], received: float) -> None:
        obs = _obs.current()
        request_id = message["id"]
        tenant = message.get("tenant", "default")
        budget_ms = message.get("budget_ms")
        budget = (budget_ms / 1000.0 if budget_ms is not None
                  else self.config.default_budget)
        deadline = received + budget if budget is not None else None
        self.stats["requests"] += 1
        obs.metrics.counter("server.requests").inc()
        obs.events.emit("server.request", connection=connection.id,
                        request=request_id, tenant=tenant,
                        consistency=message.get("consistency", "primary"))
        try:
            if self._draining:
                self.stats["drain_rejected"] += 1
                raise DrainingError(
                    "server is draining; retry against another node",
                    retry_after=self._drain_remaining())
            await self._execute(connection, message, deadline)
        except asyncio.CancelledError:
            # Drain abort or connection teardown: best-effort typed
            # error (suppressed if the deadline has already passed).
            self.stats["drain_aborted"] += 1
            error = DrainingError("request aborted by server drain",
                                  retry_after=self._drain_remaining())
            await asyncio.shield(self._reply(
                connection, protocol.error_reply(request_id, error),
                deadline))
            raise
        except ReproError as error:
            self.stats["errors"] += 1
            obs.metrics.counter("server.request_errors").inc()
            obs.events.emit("server.error", connection=connection.id,
                            request=request_id,
                            error=type(error).__name__,
                            retryable=bool(error.retryable))
            if isinstance(error, Overloaded):
                self.stats["shed"] += 1
                obs.events.emit("server.shed", connection=connection.id,
                                tenant=tenant, reason="admission",
                                retry_after=error.retry_after,
                                queued=error.queued)
            await self._reply(connection,
                              protocol.error_reply(request_id, error),
                              deadline)
        except Exception as error:  # noqa: BLE001 - the wire needs a type
            self.stats["errors"] += 1
            obs.events.emit("server.error", connection=connection.id,
                            request=request_id,
                            error=type(error).__name__, internal=True)
            wrapped = ServingError(
                f"internal error: {type(error).__name__}: {error}")
            await self._reply(connection,
                              protocol.error_reply(request_id, wrapped),
                              deadline)

    async def _execute(self, connection: _Connection,
                       message: Dict[str, Any],
                       deadline: Optional[float]) -> None:
        """Run one request on the loop, or on a worker if it waits."""
        layer = self.layer(message.get("tenant", "default"))
        try:
            done = self._work(layer, message, connection.ranges, deadline)
        except WouldWait as signal:
            self.stats["waited"] += 1
            done = await asyncio.get_running_loop().run_in_executor(
                self._executor, self._work, layer, message,
                connection.ranges, deadline, signal)
        result, connection.ranges, token, routed, replica = done
        if routed:
            outcome = ("primary_fallbacks" if replica is None
                       else "replica_reads")
            self.stats[outcome] += 1
            _obs.current().metrics.counter(f"server.{outcome}").inc()
        await self._stream_result(
            connection, message["id"], result, deadline, token,
            "primary" if replica is None else f"replica:{replica.node_id}")

    def _work(self, layer: SessionLayer, message: Dict[str, Any],
              ranges: Dict[str, str], deadline: Optional[float],
              waited: Optional[WouldWait] = None
              ) -> Tuple[Any, Dict[str, str], int, bool, Optional[Any]]:
        """Everything a request does: parse, route a ``replica``/``ryw``
        retrieve, run under the tenant's layer — without waiting on the
        loop, or on a worker after the backoff a request *waited* for.
        It changes no server or connection state — it returns ``(result,
        range bindings, reply token, was the read routed?, the replica
        that served it)`` and the loop thread applies them."""
        if waited is not None and waited.pause:
            layer.retry.sleeper(waited.pause)
        statement = parse_tokens(tokenize(message["source"]))
        routed = (isinstance(statement, RetrieveStmt) and message.get(
            "consistency", "primary") in ("replica", "ryw"))
        replica = self._pick_replica(message.get("token")) if routed else None
        plan = self.config.plan
        target_db = replica.database if replica is not None else self.database

        def closure(_session: Any) -> Tuple[Any, Dict[str, str], int]:
            # The interpreter session commits DML/DDL under the
            # manager's serialization lock (the documented mixing
            # rule); reads ride the layer's read-only certification.
            interpreter = Session(target_db, plan=plan, ranges=ranges)
            result = interpreter.execute_statement(statement)
            return result, interpreter.ranges, len(self.database.log)

        result, new_ranges, log_len = layer.run(
            closure, deadline=deadline, wait=waited is not None)
        return (result, new_ranges,
                replica.applied_seq if replica is not None else log_len,
                routed, replica)

    def _pick_replica(self, token: Optional[int]) -> Optional[Any]:
        """A healthy replica caught up past *token*, else ``None``.

        Eligibility is the read-your-writes gate of
        :meth:`Replica.read <repro.replication.replica.Replica.read>`:
        not degraded, not diverged, applied at least the token.  The
        caller falls back to the primary rather than surface a
        :class:`~repro.errors.ReplicaLagging` the client would only
        retry into the same lag.
        """
        for replica in self.replicas:
            health = replica.health()
            if health["degraded"] or health["diverged"]:
                continue
            if token is not None and health["applied_seq"] < token:
                continue
            return replica
        return None

    async def _stream_result(self, connection: _Connection,
                             request_id: int, result: Any,
                             deadline: Optional[float],
                             token: Optional[int],
                             served_by: str) -> None:
        columns, wire_rows = protocol.rows_to_wire(result)
        commit_time = None
        if result is not None and not wire_rows and not columns:
            # DML/DDL return the commit instant, not a relation.
            commit_time = str(result)
        # Bounded streaming: a write and a drain per ``chunk_rows`` rows,
        # except that the last ``rows`` frame waits for the ``done`` frame
        # — the usual reply is one write, and it arrives whole or (past
        # its deadline) not at all.
        chunk_size = self.config.chunk_rows
        pending, carried, chunks = b"", 0, 0
        for start in range(0, len(wire_rows), chunk_size):
            if pending:
                if not await self._reply(connection, pending, deadline):
                    return  # expired or connection gone: stop streaming
                self.stats["rows_sent"] += carried
            chunk = wire_rows[start:start + chunk_size]
            pending, carried = protocol.rows_reply(
                request_id, chunks, chunk,
                columns=columns if chunks == 0 else None), len(chunk)
            chunks += 1
        done = protocol.done_reply(request_id, row_count=len(wire_rows),
                                   chunks=chunks, token=token,
                                   commit_time=commit_time,
                                   served_by=served_by)
        if await self._reply(connection, pending + done, deadline):
            self.stats["rows_sent"] += carried
            self.stats["replies"] += 1
            obs = _obs.current()
            obs.metrics.counter("server.replies").inc()
            obs.events.emit("server.reply", connection=connection.id,
                            request=request_id, rows=len(wire_rows),
                            chunks=chunks, served_by=served_by)

    # -- the socket seam ------------------------------------------------------

    async def _reply(self, connection: _Connection, data: bytes,
                     deadline: Optional[float]) -> bool:
        """Write reply frame(s) in one ``write``, honoring deadline and
        backpressure.

        Returns ``False`` without writing when the deadline has passed
        (the late-reply suppression contract) or the connection is
        gone.  A drain that stalls past ``write_stall_timeout`` (a timer
        handle, armed only around the drain) marks the client slow and
        aborts the connection.
        """
        if connection.closed:
            return False
        async with connection.write_lock:
            if connection.closed:
                return False
            if deadline is not None and self._clock() >= deadline:
                self.stats["late_suppressed"] += 1
                _obs.current().metrics.counter(
                    "server.late_suppressed").inc()
                return False
            try:
                connection.writer.write(data)
                async with asyncio.timeout(self.config.write_stall_timeout):
                    await connection.writer.drain()
            except TimeoutError:
                self.stats["slow_client_aborts"] += 1
                obs = _obs.current()
                obs.metrics.counter("server.slow_client_aborts").inc()
                obs.events.emit("server.slow_client",
                                connection=connection.id,
                                reason="write_stall")
                self._close_connection(connection)
                return False
            except (ConnectionError, OSError):
                self._close_connection(connection)
                return False
            return True

    async def _say_goodbye(self, connection: _Connection,
                           reason: str) -> None:
        try:
            connection.writer.write(protocol.goodbye(reason))
            async with asyncio.timeout(0.5):
                await connection.writer.drain()
        except (TimeoutError, ConnectionError, OSError):
            pass
        self._close_connection(connection)

    def _close_connection(self, connection: _Connection) -> None:
        if connection.closed:
            return
        connection.closed = True
        if connection.idle_watch is not None:
            connection.idle_watch.cancel()
        try:
            connection.writer.close()
        except (ConnectionError, OSError):
            pass

    # -- drain ----------------------------------------------------------------

    def _drain_remaining(self) -> float:
        if self._drain_deadline is None:
            return self.config.retry_after
        return max(0.0, self._drain_deadline - self._clock())

    async def drain(self, grace: Optional[float] = None) -> Dict[str, int]:
        """Gracefully stop: no new work, finish in-flight, then abort.

        The SIGTERM path of ``repro serve``.  Stops accepting (TCP
        listener closed, new requests answered with retryable
        :class:`~repro.errors.DrainingError`), waits up to *grace*
        seconds for in-flight requests, cancels the stragglers (they
        answer with the same typed error), then closes every
        connection.  Returns the drain tally.
        """
        grace = self.config.drain_grace if grace is None else grace
        obs = _obs.current()
        self._draining = True
        self._drain_deadline = self._clock() + grace
        obs.events.emit("server.drain", phase="begin",
                        in_flight=self.in_flight, grace=grace)
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
        while self.in_flight and self._clock() < self._drain_deadline:
            await asyncio.sleep(0.005)
        aborted = 0
        for connection in list(self._connections):
            for task in list(connection.tasks):
                if not task.done():
                    task.cancel()
                    aborted += 1
        if aborted:
            # Give the cancelled handlers one loop pass to send their
            # typed DrainingError before the sockets close.
            await asyncio.sleep(0)
            await asyncio.sleep(0.01)
        for connection in list(self._connections):
            await self._say_goodbye(connection, "drain complete")
        for _ in range(3):
            # Transport closed -> EOF fed -> read loop returns: let the
            # handlers unwind before the caller tears the loop down.
            await asyncio.sleep(0)
        obs.events.emit("server.drain", phase="end", aborted=aborted)
        tally = {"aborted": aborted,
                 "completed": self.stats["replies"],
                 "rejected": self.stats["drain_rejected"]}
        return tally

    def shutdown(self) -> None:
        """Release the executor (call after :meth:`drain`)."""
        self._executor.shutdown(wait=False)

    # -- reporting ------------------------------------------------------------

    def report(self) -> Dict[str, Any]:
        """The serving counters plus per-tenant admission snapshots."""
        tenants = {}
        for tenant, layer in self._layers.items():
            admission = layer.admission
            tenants[tenant] = {"max_active": admission.max_active,
                               "max_queue": admission.max_queue}
        return {"stats": dict(self.stats), "tenants": tenants,
                "replicas": [replica.health()
                             for replica in self.replicas]}

    def __repr__(self) -> str:
        state = "draining" if self._draining else "serving"
        return (f"ReproServer({state}, {len(self._connections)} "
                f"connection(s), {self.in_flight} in flight)")
