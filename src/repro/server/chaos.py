"""Fault-injectable in-process connections for the serving layer.

Real sockets make bad test fixtures: kernel buffers hide backpressure,
and nothing on a loopback device drops, delays or tears bytes.  A
:class:`MemoryPipe` is one endpoint of an in-process duplex byte
stream that speaks the same duck-typed surface the server and client
use on real asyncio streams — ``readline`` / ``write`` / ``drain`` /
``close`` / ``wait_closed`` — with two properties sockets lack:

- **honest backpressure**: each direction has a bounded receive
  buffer; a writer's ``drain()`` blocks while the peer is not reading,
  so the server's slow-client defense is testable to the byte;
- **seeded chaos**: a :class:`ChaosConfig` injects the misbehaviours
  of real networks at frame-line granularity — **drop** (the line
  vanishes), **delay** (it arrives late), **split** (partial writes:
  the line lands in two separate deliveries), **corrupt** (one payload
  byte flipped — the CRC framing must catch it), **disconnect** (the
  connection dies mid-line) — decided by a :class:`random.Random`
  seeded per direction, in the spirit of
  :class:`~repro.replication.transport.FaultyTransport`: a fixed seed
  reproduces the fault schedule, so a chaos run is a test, not a
  lottery.

Injected faults are counted through :mod:`repro.obs`
(``server.chaos.*``) so a run's report can say how hostile it was.
"""

from __future__ import annotations

import asyncio
import random
from collections import deque
from typing import Any, Deque, Optional, Tuple

from repro.obs import runtime as _obs

#: Default receive-buffer capacity per direction (bytes).
DEFAULT_CAPACITY = 256 * 1024

#: Default longest frame line ``readline`` will buffer before refusing.
DEFAULT_LINE_LIMIT = (1 << 20) + 4096


class ChaosConfig:
    """Seeded per-line fault probabilities for one pipe.

    Probabilities are independent per line, drawn in a fixed order from
    one RNG per direction, so the schedule is a pure function of
    ``(seed, direction, line index)``.  ``delay_s`` is how long a
    delayed line is held; splits deliver the first half immediately and
    the rest after ``delay_s / 4``.
    """

    __slots__ = ("seed", "drop", "delay", "split", "corrupt", "disconnect",
                 "delay_s")

    def __init__(self, seed: int = 0, drop: float = 0.0, delay: float = 0.0,
                 split: float = 0.0, corrupt: float = 0.0,
                 disconnect: float = 0.0, delay_s: float = 0.02) -> None:
        for name, value in (("drop", drop), ("delay", delay),
                            ("split", split), ("corrupt", corrupt),
                            ("disconnect", disconnect)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, "
                                 f"got {value!r}")
        self.seed = seed
        self.drop = drop
        self.delay = delay
        self.split = split
        self.corrupt = corrupt
        self.disconnect = disconnect
        self.delay_s = delay_s

    @property
    def any_faults(self) -> bool:
        """True when at least one fault probability is non-zero."""
        return any((self.drop, self.delay, self.split, self.corrupt,
                    self.disconnect))

    def __repr__(self) -> str:
        return (f"ChaosConfig(seed={self.seed}, drop={self.drop}, "
                f"delay={self.delay}, split={self.split}, "
                f"corrupt={self.corrupt}, disconnect={self.disconnect})")


class _Buffer:
    """The receive side of one direction: bounded, line-aware, async."""

    def __init__(self, capacity: int) -> None:
        self._data = bytearray()
        self._eof = False
        self._capacity = capacity
        self._readable = asyncio.Event()
        self._drained = asyncio.Event()
        self._drained.set()

    @property
    def size(self) -> int:
        return len(self._data)

    @property
    def at_eof(self) -> bool:
        return self._eof and not self._data

    def feed(self, data: bytes) -> None:
        if self._eof:
            return
        self._data.extend(data)
        self._readable.set()
        if len(self._data) >= self._capacity:
            self._drained.clear()

    def feed_eof(self) -> None:
        self._eof = True
        self._readable.set()
        self._drained.set()  # a dead reader should not wedge the writer

    async def wait_drained(self) -> None:
        await self._drained.wait()

    async def readline(self, limit: int) -> bytes:
        """One ``\\n``-terminated line (terminator included), or what
        remains at EOF; raises ``ValueError`` past *limit* bytes with no
        terminator — the peer is streaming garbage, not lines."""
        while True:
            index = self._data.find(b"\n")
            if index >= 0:
                line = bytes(self._data[:index + 1])
                del self._data[:index + 1]
                self._after_read()
                return line
            if self._eof:
                line = bytes(self._data)
                self._data.clear()
                self._after_read()
                return line
            if len(self._data) > limit:
                raise ValueError(
                    f"line exceeds {limit} bytes with no terminator")
            self._readable.clear()
            await self._readable.wait()

    def _after_read(self) -> None:
        if len(self._data) < self._capacity:
            self._drained.set()
        if not self._data and not self._eof:
            self._readable.clear()


class MemoryPipe:
    """One endpoint of an in-process duplex stream (reader *and* writer).

    Pass the same object wherever a ``(reader, writer)`` pair is
    expected; it implements both halves of the asyncio stream surface
    the serving layer uses.
    """

    def __init__(self, name: str, capacity: int, limit: int,
                 chaos: Optional[ChaosConfig]) -> None:
        self.name = name
        self._in = _Buffer(capacity)
        self._peer: Optional["MemoryPipe"] = None
        self._limit = limit
        self._closed = False
        self._close_waiter: asyncio.Event = asyncio.Event()
        self._chaos = chaos
        self._rng = (random.Random(f"{chaos.seed}:{name}")
                     if chaos is not None else None)
        self._pending = bytearray()
        self._line_index = 0
        self._tasks: set = set()
        self._queue: Deque[Tuple[Optional[bytes], float]] = deque()
        self._queue_event: asyncio.Event = asyncio.Event()
        self._delivery_task: Optional[asyncio.Task] = None

    # -- reader surface ------------------------------------------------------

    async def readline(self) -> bytes:
        if self._closed:
            return b""
        return await self._in.readline(self._limit)

    def at_eof(self) -> bool:
        return self._in.at_eof

    # -- writer surface ------------------------------------------------------

    def write(self, data: bytes) -> None:
        """Queue *data* toward the peer, applying chaos per frame line."""
        if self._closed or self._peer is None or self._peer._closed:
            raise ConnectionResetError(f"pipe {self.name} is closed")
        if self._chaos is None or not self._chaos.any_faults:
            self._peer._in.feed(data)
            return
        self._pending.extend(data)
        while True:
            index = self._pending.find(b"\n")
            if index < 0:
                break
            line = bytes(self._pending[:index + 1])
            del self._pending[:index + 1]
            self._inject(line)

    async def drain(self) -> None:
        """Honest backpressure: wait for the peer to read below its
        high-water mark (returns immediately against a healthy reader)."""
        if self._peer is None or self._peer._closed:
            raise ConnectionResetError(f"peer of {self.name} is gone")
        await self._peer._in.wait_drained()
        if self._closed or self._peer._closed:
            raise ConnectionResetError(f"pipe {self.name} closed mid-drain")

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._close_waiter.set()
        for task in list(self._tasks):
            task.cancel()
        self._in.feed_eof()  # release writers blocked draining into us
        if self._peer is not None:
            self._peer._in.feed_eof()

    def abort(self) -> None:
        """Hard close both directions (the chaos disconnect / kill)."""
        self.close()
        if self._peer is not None:
            self._peer.close()

    def is_closing(self) -> bool:
        return self._closed

    async def wait_closed(self) -> None:
        await self._close_waiter.wait()

    def get_extra_info(self, name: str, default: Any = None) -> Any:
        if name == "peername":
            return ("memory", self.name)
        return default

    # -- chaos ---------------------------------------------------------------

    def _inject(self, line: bytes) -> None:
        """Decide this line's fate: one draw per fault, fixed order.

        Every surviving byte goes through one FIFO delivery queue per
        direction — a delayed or split line holds up everything behind
        it (head-of-line blocking), because a real TCP connection never
        reorders within the stream.
        """
        assert self._rng is not None and self._chaos is not None
        chaos, rng = self._chaos, self._rng
        metrics = _obs.current().metrics
        self._line_index += 1
        dropped = rng.random() < chaos.drop
        delayed = rng.random() < chaos.delay
        split = rng.random() < chaos.split
        corrupt = rng.random() < chaos.corrupt
        disconnect = rng.random() < chaos.disconnect
        if disconnect:
            # The cruellest cut: a prefix lands, then the stream dies.
            metrics.counter("server.chaos.disconnects").inc()
            cut = rng.randrange(0, len(line)) if len(line) > 1 else 0
            if cut:
                self._enqueue(line[:cut], 0.0)
            self._enqueue(None, 0.0)  # the close sentinel
            self._closed = True  # further writes fail immediately
            self._close_waiter.set()
            return
        if dropped:
            metrics.counter("server.chaos.dropped").inc()
            return
        if corrupt and len(line) > 2:
            metrics.counter("server.chaos.corrupted").inc()
            position = rng.randrange(0, len(line) - 1)
            flipped = line[position] ^ (1 << rng.randrange(0, 7)) or 0x20
            if flipped == 0x0A:  # never forge a line terminator
                flipped = 0x2A
            line = line[:position] + bytes((flipped,)) + line[position + 1:]
        if delayed:
            metrics.counter("server.chaos.delayed").inc()
            self._enqueue(line, chaos.delay_s)
            return
        if split and len(line) > 2:
            metrics.counter("server.chaos.split").inc()
            cut = rng.randrange(1, len(line) - 1)
            self._enqueue(line[:cut], 0.0)
            self._enqueue(line[cut:], chaos.delay_s / 4)
            return
        self._enqueue(line, 0.0)

    def _enqueue(self, data: Optional[bytes], pause: float) -> None:
        """Queue one in-order delivery (``None`` = abort the pipe)."""
        self._queue.append((data, pause))
        self._queue_event.set()
        if self._delivery_task is None or self._delivery_task.done():
            self._delivery_task = asyncio.ensure_future(self._deliver())
            self._tasks.add(self._delivery_task)
            self._delivery_task.add_done_callback(self._tasks.discard)

    async def _deliver(self) -> None:
        """The FIFO delivery pump for this direction."""
        while True:
            if not self._queue:
                self._queue_event.clear()
                await self._queue_event.wait()
                continue
            data, pause = self._queue.popleft()
            if pause:
                try:
                    await asyncio.sleep(pause)
                except asyncio.CancelledError:
                    return
            if data is None:
                # _inject already marked this end closed; finish the
                # teardown close() would have done, then kill the peer.
                self._close_waiter.set()
                self._in.feed_eof()
                if self._peer is not None:
                    self._peer.close()
                return
            if self._peer is not None and not self._peer._closed:
                self._peer._in.feed(data)

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"MemoryPipe({self.name!r}, {state}, " \
               f"{self._in.size} buffered)"


def open_pipe(chaos: Optional[ChaosConfig] = None,
              capacity: int = DEFAULT_CAPACITY,
              limit: int = DEFAULT_LINE_LIMIT,
              name: str = "conn") -> Tuple[MemoryPipe, MemoryPipe]:
    """A connected ``(client_end, server_end)`` pair.

    Chaos (when given) applies to *both* directions, each with its own
    deterministic RNG stream.  Capacity bounds each direction's receive
    buffer — the backpressure seam.
    """
    client = MemoryPipe(f"{name}:client", capacity, limit, chaos)
    server = MemoryPipe(f"{name}:server", capacity, limit, chaos)
    client._peer = server
    server._peer = client
    return client, server
