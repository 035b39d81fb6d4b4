"""The fault-injectable pipe: backpressure you can measure, chaos you
can replay.

The MemoryPipe is the serving layer's test substrate, so its own
contract must be airtight: bounded buffers that actually block
writers, line-granular faults decided by a seeded RNG (same seed →
same schedule), and closes that look like real dead sockets.
"""

import asyncio

import pytest

from repro.server import ChaosConfig, open_pipe
from repro.server.chaos import DEFAULT_CAPACITY, MemoryPipe


def run(coroutine):
    return asyncio.run(coroutine)


async def delivered(pipe):
    """Until *pipe*'s delivery pump has handed its peer every byte it
    queued: the queue is empty and the pump is waiting for more (a split
    line's second half is popped before its pause, so an empty queue
    alone is not enough), or the pump is gone.  It yields to the loop
    and never sleeps on a timer of its own."""
    while (pipe._delivery_task is not None
           and not pipe._delivery_task.done()
           and (pipe._queue or pipe._queue_event.is_set())):
        await asyncio.sleep(0)


class TestPipeBasics:
    def test_round_trip_both_directions(self):
        async def scenario():
            client, server = open_pipe()
            client.write(b"hello\n")
            assert await server.readline() == b"hello\n"
            server.write(b"world\n")
            assert await client.readline() == b"world\n"
        run(scenario())

    def test_close_is_eof_for_the_peer(self):
        async def scenario():
            client, server = open_pipe()
            client.write(b"last words\n")
            client.close()
            assert await server.readline() == b"last words\n"
            assert await server.readline() == b""
            assert server.at_eof()
            with pytest.raises(ConnectionResetError):
                server.write(b"to the dead\n")
        run(scenario())

    def test_partial_line_then_completion(self):
        async def scenario():
            client, server = open_pipe()
            client.write(b"half")
            reader = asyncio.ensure_future(server.readline())
            await asyncio.sleep(0.01)
            assert not reader.done()
            client.write(b"whole\n")
            assert await reader == b"halfwhole\n"
        run(scenario())

    def test_unterminated_torrent_hits_the_line_limit(self):
        async def scenario():
            client, server = open_pipe(limit=64)
            client.write(b"x" * 100)
            with pytest.raises(ValueError, match="no terminator"):
                await server.readline()
        run(scenario())


class TestBackpressure:
    def test_drain_blocks_until_the_reader_reads(self):
        async def scenario():
            client, server = open_pipe(capacity=32)
            client.write(b"a" * 40 + b"\n")  # over capacity: high water
            drain = asyncio.ensure_future(client.drain())
            await asyncio.sleep(0.01)
            assert not drain.done(), "drain returned against a full peer"
            assert await server.readline()  # the reader catches up
            await asyncio.wait_for(drain, 1.0)
        run(scenario())

    def test_drain_returns_immediately_against_a_healthy_reader(self):
        async def scenario():
            client, server = open_pipe()
            client.write(b"small\n")
            await asyncio.wait_for(client.drain(), 0.1)
        run(scenario())

    def test_peer_close_releases_a_blocked_writer(self):
        async def scenario():
            client, server = open_pipe(capacity=16)
            client.write(b"b" * 32 + b"\n")
            drain = asyncio.ensure_future(client.drain())
            await asyncio.sleep(0.01)
            server.close()  # a dead reader must not wedge the writer
            with pytest.raises(ConnectionResetError):
                await asyncio.wait_for(drain, 1.0)
        run(scenario())


class TestChaosInjection:
    def _deliveries(self, seed, lines, **faults):
        async def scenario():
            chaos = ChaosConfig(seed=seed, delay_s=0.002, **faults)
            client, server = open_pipe(chaos=chaos)
            for line in lines:
                try:
                    client.write(line)
                except ConnectionResetError:
                    break
            # Let delayed / split halves land before the close cancels
            # the pump.
            await asyncio.wait_for(delivered(client), 5.0)
            received = bytearray()
            client.close()
            while True:
                try:
                    chunk = await asyncio.wait_for(server.readline(), 0.1)
                except (asyncio.TimeoutError, ValueError):
                    break
                if not chunk:
                    break
                received.extend(chunk)
            return bytes(received)
        return run(scenario())

    def test_same_seed_same_schedule(self):
        lines = [f"line-{i}\n".encode() for i in range(30)]
        faults = dict(drop=0.2, delay=0.2, split=0.2, corrupt=0.2)
        first = self._deliveries(99, lines, **faults)
        second = self._deliveries(99, lines, **faults)
        assert first == second

    def test_different_seed_different_schedule(self):
        lines = [f"line-{i}\n".encode() for i in range(30)]
        faults = dict(drop=0.3, corrupt=0.3)
        assert (self._deliveries(1, lines, **faults)
                != self._deliveries(2, lines, **faults))

    def test_drop_loses_lines(self):
        lines = [f"line-{i}\n".encode() for i in range(20)]
        received = self._deliveries(7, lines, drop=0.5)
        assert 0 < len(received) < sum(len(line) for line in lines)

    def test_corruption_is_caught_by_the_frame_crc(self):
        from repro.errors import ProtocolError
        from repro.server import protocol

        async def scenario():
            chaos = ChaosConfig(seed=3, corrupt=1.0)
            client, server = open_pipe(chaos=chaos)
            client.write(protocol.ping_request(1))
            line = await asyncio.wait_for(server.readline(), 1.0)
            with pytest.raises(ProtocolError):
                protocol.decode_message(line)
        run(scenario())

    def test_disconnect_kills_both_directions_mid_line(self):
        async def scenario():
            chaos = ChaosConfig(seed=5, disconnect=1.0)
            client, server = open_pipe(chaos=chaos)
            client.write(b"doomed line\n")
            assert client.is_closing()
            # Whatever prefix landed, the stream then ends.
            data = await server.readline()
            assert not data.endswith(b"doomed line\n")
            assert await server.readline() == b""
        run(scenario())

    def test_split_still_delivers_every_byte(self):
        lines = [f"payload-number-{i:04d}\n".encode() for i in range(20)]
        received = self._deliveries(11, lines, split=1.0)
        assert received == b"".join(lines)

    def test_zero_fault_config_is_a_clean_wire(self):
        lines = [f"line-{i}\n".encode() for i in range(10)]
        assert self._deliveries(0, lines) == b"".join(lines)

    def test_probabilities_are_validated(self):
        with pytest.raises(ValueError):
            ChaosConfig(drop=1.5)

    def test_default_capacity_is_sane(self):
        assert DEFAULT_CAPACITY >= 64 * 1024
        assert isinstance(open_pipe()[0], MemoryPipe)
