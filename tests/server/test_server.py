"""The serving layer's robustness contract, exercised over MemoryPipes.

Every scenario here drives a real :class:`~repro.server.ReproServer`
through :meth:`~repro.server.ReproServer.handle_connection` — the same
code path TCP takes — over in-process pipes, so deadline suppression,
admission shed, pipeline bounds, slow-client aborts and graceful drain
are all observable to the byte.
"""

import asyncio
import threading
import time

import pytest

from repro import obs
from repro.core import TemporalDatabase
from repro.errors import ConflictError, DeadlineExceeded
from repro.server import ReproServer, ServerConfig, open_pipe, protocol
from repro.server import server as server_module
from repro.tquel import Session
from repro.tquel.ast import RetrieveStmt

CREATE = "create counters (k = string, v = string) key (k)"
RANGE = "range of c is counters"


def run(coroutine):
    return asyncio.run(coroutine)


class Harness:
    """One server plus as many pipe connections as a test wants."""

    def __init__(self, config=None, replicas=()):
        self.database = TemporalDatabase()
        self.server = ReproServer(self.database, config,
                                  replicas=replicas)

    def connect(self, capacity=None):
        kwargs = {} if capacity is None else {"capacity": capacity}
        client, server_end = open_pipe(**kwargs)
        asyncio.ensure_future(
            self.server.handle_connection(server_end, server_end))
        return client


async def read_frame(pipe, timeout=2.0):
    line = await asyncio.wait_for(pipe.readline(), timeout)
    assert line, "connection closed while a frame was expected"
    return protocol.decode_message(line)


async def roundtrip(pipe, request_id, source, **kwargs):
    """Send one query; collect frames through its terminal frame."""
    pipe.write(protocol.query_request(request_id, source, **kwargs))
    frames = []
    while True:
        message = await read_frame(pipe)
        frames.append(message)
        if message["type"] in ("done", "error"):
            return frames


def counted(calls, real):
    """*real*, recording each call's arguments in *calls*."""
    def call(*args):
        calls.append(args)
        return real(*args)
    return call


async def seed(pipe, statements):
    for index, statement in enumerate(statements):
        frames = await roundtrip(pipe, 1000 + index, statement)
        assert frames[-1]["type"] == "done", frames[-1]


class TestStreaming:
    def test_ping_answers_pong_with_the_same_id(self):
        async def scenario():
            harness = Harness()
            pipe = harness.connect()
            pipe.write(protocol.ping_request(42))
            message = await read_frame(pipe)
            assert message == {"type": "pong", "id": 42}
            harness.server.shutdown()
        run(scenario())

    def test_results_stream_in_bounded_chunks(self):
        async def scenario():
            harness = Harness(ServerConfig(chunk_rows=2))
            pipe = harness.connect()
            await seed(pipe, [CREATE] + [
                f'append to counters (k = "k{i}", v = "{i}") '
                f'valid from "12/05/82"' for i in range(5)] + [RANGE])
            frames = await roundtrip(pipe, 7, "retrieve (c.k, c.v)")
            rows_frames = [f for f in frames if f["type"] == "rows"]
            done = frames[-1]
            assert done["type"] == "done"
            assert done["id"] == 7
            assert done["row_count"] == 5
            assert done["chunks"] == 3
            assert [len(f["rows"]) for f in rows_frames] == [2, 2, 1]
            # Columns ride the first chunk only.
            assert rows_frames[0]["columns"] == ["k", "v"]
            assert all("columns" not in f for f in rows_frames[1:])
            assert harness.server.stats["rows_sent"] == 5
            harness.server.shutdown()
        run(scenario())

    def test_dml_reply_carries_the_commit_time(self):
        async def scenario():
            harness = Harness()
            pipe = harness.connect()
            await seed(pipe, [CREATE])
            frames = await roundtrip(
                pipe, 2, 'append to counters (k = "a", v = "1") '
                         'valid from "12/05/82"')
            done = frames[-1]
            assert done["type"] == "done"
            assert done["commit_time"] is not None
            assert done["token"] == len(harness.database.log)
            harness.server.shutdown()
        run(scenario())


class TestDeadlines:
    def test_expired_request_gets_silence_not_a_late_reply(self):
        async def scenario():
            harness = Harness()
            pipe = harness.connect()
            await seed(pipe, [CREATE, RANGE])
            # A microsecond budget expires before any reply can form.
            pipe.write(protocol.query_request(9, "retrieve (c.k)",
                                              budget_ms=0.001))
            for _ in range(400):
                if harness.server.stats["late_suppressed"]:
                    break
                await asyncio.sleep(0.005)
            assert harness.server.stats["late_suppressed"] >= 1
            # The connection survives, and the next frame is the pong —
            # no frame for request 9 ever arrived.
            pipe.write(protocol.ping_request(10))
            message = await read_frame(pipe)
            assert message == {"type": "pong", "id": 10}
            harness.server.shutdown()
        run(scenario())


class TestAdmission:
    def test_tenant_shed_is_typed_scoped_and_hinted(self):
        async def scenario():
            with obs.recording() as instrumentation:
                harness = Harness(ServerConfig(max_active=1, max_queue=0))
                pipe = harness.connect()
                await seed(pipe, [CREATE])
                # Occupy tenant t1's only slot out-of-band.
                slot = harness.server.layer("t1").admission.admit()
                try:
                    frames = await roundtrip(
                        pipe, 3, 'append to counters (k = "x", v = "1") '
                                 'valid from "12/05/82"', tenant="t1")
                    error = protocol.decode_error(frames[-1]["error"])
                    from repro.errors import Overloaded
                    assert isinstance(error, Overloaded)
                    assert error.retryable
                    assert error.retry_after > 0
                    # A different tenant has its own controller and is
                    # not collateral damage.
                    frames = await roundtrip(
                        pipe, 4, 'append to counters (k = "y", v = "1") '
                                 'valid from "12/05/82"', tenant="t2")
                    assert frames[-1]["type"] == "done"
                finally:
                    slot.release()
                assert harness.server.stats["shed"] == 1
                harness.server.shutdown()
                counters = instrumentation.metrics.snapshot()["counters"]
                # The layer retries a shed admission before giving up,
                # so the scoped counter sees every internal attempt.
                assert counters.get("admission.tenant.t1.shed", 0) >= 1
                assert "admission.tenant.t2.shed" not in counters
        run(scenario())


class TestPipelining:
    def test_pipeline_overflow_sheds_then_recovers(self):
        async def scenario():
            harness = Harness(ServerConfig(max_active=1, max_queue=4,
                                           max_pipeline=1))
            pipe = harness.connect()
            # Request 1 queues behind a held admission slot, pinning the
            # connection's single pipeline slot.
            admission = harness.server.layer("default").admission
            slot = admission.admit()
            pipe.write(protocol.query_request(1, CREATE))
            for _ in range(200):
                if admission.queued == 1:
                    break
                await asyncio.sleep(0.005)
            assert admission.queued == 1, "request 1 never blocked"
            # Request 2 finds the pipeline full: immediate typed shed.
            pipe.write(protocol.ping_request(99))  # pings bypass tasks
            assert (await read_frame(pipe))["type"] == "pong"
            pipe.write(protocol.query_request(2, CREATE))
            message = await read_frame(pipe)
            assert message["type"] == "error"
            assert message["id"] == 2
            error = protocol.decode_error(message["error"])
            from repro.errors import Overloaded
            assert isinstance(error, Overloaded)
            assert harness.server.stats["pipeline_shed"] == 1
            # Releasing the slot lets request 1 finish normally.
            slot.release()
            message = await read_frame(pipe)
            assert message["type"] == "done"
            assert message["id"] == 1
            harness.server.shutdown()
        run(scenario())


class TestSlowClients:
    def test_idle_connection_gets_a_goodbye_then_eof(self):
        async def scenario():
            harness = Harness(ServerConfig(idle_timeout=0.05))
            pipe = harness.connect()
            message = await read_frame(pipe)
            assert message["type"] == "goodbye"
            assert "idle" in message["reason"]
            assert await pipe.readline() == b""
            assert harness.server.stats["idle_closes"] == 1
            harness.server.shutdown()
        run(scenario())

    def test_client_that_stops_reading_is_aborted(self):
        async def scenario():
            harness = Harness(ServerConfig(write_stall_timeout=0.05))
            pipe = harness.connect(capacity=256)
            big = "x" * 600
            await seed(pipe, [
                CREATE,
                f'append to counters (k = "big", v = "{big}") '
                f'valid from "12/05/82"', RANGE])
            # Ask for the big row and never read the reply: the frame
            # overflows our 256-byte receive buffer and the server's
            # drain stalls past its timeout.
            pipe.write(protocol.query_request(5, "retrieve (c.k, c.v)"))
            for _ in range(200):
                if harness.server.stats["slow_client_aborts"]:
                    break
                await asyncio.sleep(0.005)
            assert harness.server.stats["slow_client_aborts"] == 1
            harness.server.shutdown()
        run(scenario())


class TestDrain:
    def test_drain_rejects_aborts_typed_and_says_goodbye(self):
        async def scenario():
            from repro.errors import DrainingError
            harness = Harness(ServerConfig(max_active=1, max_queue=4))
            pipe = harness.connect()
            await seed(pipe, [CREATE])
            admission = harness.server.layer("default").admission
            slot = admission.admit()
            try:
                # Request 1 is in flight (queued for admission) when the
                # drain begins.
                pipe.write(protocol.query_request(
                    1, 'append to counters (k = "d", v = "1") '
                       'valid from "12/05/82"'))
                for _ in range(200):
                    if admission.queued == 1:
                        break
                    await asyncio.sleep(0.005)
                assert admission.queued == 1, "request 1 never blocked"
                drain_task = asyncio.ensure_future(
                    harness.server.drain(grace=0.2))
                await asyncio.sleep(0.02)
                assert harness.server.draining
                # A request arriving mid-drain is turned away, typed.
                pipe.write(protocol.query_request(2, "retrieve (c.k)"))
                tally = await drain_task
                assert tally["aborted"] >= 1
                frames = []
                while True:
                    line = await asyncio.wait_for(pipe.readline(), 2.0)
                    if not line:
                        break
                    frames.append(protocol.decode_message(line))
                by_id = {f.get("id"): f for f in frames
                         if f["type"] == "error"}
                for request_id in (1, 2):
                    error = protocol.decode_error(
                        by_id[request_id]["error"])
                    assert isinstance(error, DrainingError), request_id
                    assert error.retryable
                assert frames[-1]["type"] == "goodbye"
                # A brand-new connection is refused politely too.
                late = harness.connect()
                message = await read_frame(late)
                assert message["type"] == "goodbye"
                assert "draining" in message["reason"]
            finally:
                slot.release()
            harness.server.shutdown()
        run(scenario())


class TestConnectionFuzz:
    GARBAGE = [
        b"complete junk, no frame at all\n",
        b"\xff\xfe\x00 not utf-8 \xba\xad\n",
        b"s1 12 deadbeef {\"type\": \"q\"}\n",
        b"s1 999 00000000 {}\n",
    ]

    def test_garbage_interleaved_with_real_work(self):
        async def scenario():
            from repro.errors import ProtocolError
            harness = Harness()
            pipe = harness.connect()
            await seed(pipe, [CREATE, RANGE])
            # Interleave mangled lines with a real pipeline; each piece
            # of garbage earns a typed error with a null id, every real
            # request is answered, and the connection never dies.
            pipe.write(protocol.ping_request(1))
            pipe.write(self.GARBAGE[0])
            pipe.write(protocol.query_request(2, "retrieve (c.k)"))
            pipe.write(self.GARBAGE[1])
            pipe.write(self.GARBAGE[2])
            pipe.write(protocol.ping_request(3))
            pipe.write(self.GARBAGE[3])
            frames = []
            # 1 pong + 4 typed errors + 1 pong + rows/done for id 2.
            while len([f for f in frames if f["type"] != "rows"]) < 7:
                frames.append(await read_frame(pipe))
            errors = [f for f in frames if f["type"] == "error"]
            assert len(errors) == 4
            for message in errors:
                assert message["id"] is None
                assert isinstance(protocol.decode_error(message["error"]),
                                  ProtocolError)
            assert {f["id"] for f in frames if f["type"] == "pong"} \
                == {1, 3}
            assert any(f["type"] == "done" and f["id"] == 2
                       for f in frames)
            assert harness.server.stats["protocol_errors"] == 4
            # Still alive after all that.
            pipe.write(protocol.ping_request(4))
            assert (await read_frame(pipe))["id"] == 4
            harness.server.shutdown()
        run(scenario())


class TestReplicaRouting:
    async def _replicated_harness(self):
        from repro.replication import FaultyTransport, Primary, Replica
        database = TemporalDatabase()
        transport = FaultyTransport(seed=1)
        primary = Primary("primary", database, transport)
        node = Replica("replica-0", TemporalDatabase, transport,
                       "primary")
        primary.add_replica(node.node_id)
        node.request_catchup()
        server = ReproServer(database, ServerConfig(),
                             replicas=[node])
        return server, primary, node

    async def _catch_up(self, primary, node, target):
        for _ in range(300):
            primary.pump()
            primary.heartbeat()
            node.pump()
            health = node.health()
            if health["applied_seq"] >= target \
                    and not health["degraded"]:
                return
            await asyncio.sleep(0.002)
        raise AssertionError(f"replica stuck at {node.health()}")

    def test_replica_serves_reads_when_caught_up(self):
        async def scenario():
            server, primary, node = await self._replicated_harness()
            client, server_end = open_pipe()
            asyncio.ensure_future(
                server.handle_connection(server_end, server_end))
            await seed(client, [CREATE,
                                'append to counters (k = "r", v = "1") '
                                'valid from "12/05/82"', RANGE])
            await self._catch_up(primary, node,
                                 len(server.database.log))
            frames = await roundtrip(client, 8, "retrieve (c.k, c.v)",
                                     consistency="replica")
            done = frames[-1]
            assert done["served_by"] == "replica:replica-0"
            assert server.stats["replica_reads"] == 1
            rows = [f for f in frames if f["type"] == "rows"]
            assert rows and rows[0]["rows"]
            server.shutdown()
        run(scenario())

    def test_lagging_replica_falls_back_to_the_primary(self):
        async def scenario():
            server, primary, node = await self._replicated_harness()
            client, server_end = open_pipe()
            asyncio.ensure_future(
                server.handle_connection(server_end, server_end))
            await seed(client, [CREATE,
                                'append to counters (k = "s", v = "1") '
                                'valid from "12/05/82"', RANGE])
            # A read-your-writes token from the future: no replica can
            # satisfy it, so the primary serves — degraded routing, not
            # a wrong or failed answer.
            token = len(server.database.log) + 10
            frames = await roundtrip(client, 9, "retrieve (c.k, c.v)",
                                     consistency="ryw", token=token)
            done = frames[-1]
            assert done["type"] == "done"
            assert done["served_by"] == "primary"
            assert server.stats["primary_fallbacks"] == 1
            server.shutdown()
        run(scenario())


class TestRequestCost:
    """Counts, not clocks: what one served point request may cost, and
    that the frames it sends are the frames a frame-at-a-time peer (the
    client before replies were grouped into one write) expects."""

    SEED = [CREATE, 'append to counters (k = "a", v = "1") '
                    'valid from "12/05/82"', RANGE]
    POINT = 'retrieve (c.k, c.v) where c.k = "a"'

    @staticmethod
    async def served(config=None):
        server = ReproServer(TemporalDatabase(), config)
        pipe, server_end = open_pipe()
        handler = asyncio.ensure_future(
            server.handle_connection(server_end, server_end))
        await seed(pipe, TestRequestCost.SEED)
        return server, pipe, server_end, handler

    def test_no_hop_one_write_and_no_task_but_the_requests(self):
        async def scenario():
            server, pipe, server_end, _ = await self.served()
            submitted, written, tasks = [], [], []
            server._executor.submit = counted(submitted,
                                              server._executor.submit)
            server_end.write = counted(written, server_end.write)

            def factory(loop, coroutine, **kwargs):
                tasks.append(coroutine.__qualname__)
                return asyncio.Task(coroutine, loop=loop, **kwargs)

            asyncio.get_running_loop().set_task_factory(factory)
            pipe.write(protocol.query_request(7, self.POINT))
            async with asyncio.timeout(2.0):  # (wait_for would add a Task)
                lines = [await pipe.readline(), await pipe.readline()]
            asyncio.get_running_loop().set_task_factory(None)
            # Nothing in the request waits, so it runs on the loop.
            assert submitted == []
            assert tasks == ["ReproServer._run_request"]
            # Byte for byte the two frames a reply always was; only their
            # grouping into one write is new.
            answer = Session(server.database, ranges={"c": "counters"}).query(
                self.POINT)
            expected = (
                protocol.rows_reply(7, 0, protocol.rows_to_wire(answer)[1],
                                    columns=["k", "v"])
                + protocol.done_reply(7, row_count=1, chunks=1,
                                      token=len(server.database.log),
                                      commit_time=None, served_by="primary"))
            assert written == [(expected,)] and expected == b"".join(lines)
            server.shutdown()
        run(scenario())

    def test_a_longer_reply_still_drains_per_chunk(self):
        async def scenario():
            server, pipe, server_end, _ = await self.served(
                ServerConfig(chunk_rows=2))
            await seed(pipe, [f'append to counters (k = "k{i}", v = "{i}") '
                              f'valid from "12/05/82"' for i in range(4)])
            written = []
            server_end.write = counted(written, server_end.write)
            frames = await roundtrip(pipe, 8, "retrieve (c.k, c.v)")
            assert [f["type"] for f in frames] == ["rows"] * 3 + ["done"]
            # Five rows in chunks of two: the last rows frame rides with
            # the done frame, each earlier one has its own write + drain.
            assert [data.count(b"\n") for data, in written] == [1, 1, 2]
            server.shutdown()
        run(scenario())

    def test_a_frame_at_a_time_client_reads_the_grouped_reply(self):
        async def scenario():
            server, pipe, _, _ = await self.served()
            # The parent client's collect loop: one timed read per frame.
            frames = await roundtrip(pipe, 9, self.POINT)
            assert [f["type"] for f in frames] == ["rows", "done"]
            assert frames[0]["columns"] == ["k", "v"]
            assert protocol.rows_from_wire(frames[0]["rows"])[0]["values"] \
                == {"k": "a", "v": "1"}
            assert frames[1]["row_count"] == 1 and frames[1]["chunks"] == 1
            server.shutdown()
        run(scenario())


class TestTheLoopNeverWaits:
    """A request that would have to wait — through a backoff after a
    conflict, or in an admission queue — runs on a worker thread; every
    other request runs on the loop, which keeps answering meanwhile."""

    WRITE = 'append to counters (k = "w", v = "1") valid from "12/05/82"'

    @staticmethod
    def rows_under(database, key):
        return Session(database, ranges={"c": "counters"}).query(
            f'retrieve (c.k) where c.k = "{key}"')

    def test_a_backoff_sleeps_on_a_worker_while_the_loop_answers(
            self, monkeypatch):
        async def scenario():
            harness = Harness()
            pipe = harness.connect()
            await seed(pipe, [CREATE, RANGE])
            loop_thread = threading.current_thread()
            slept, release = [], threading.Event()

            def sleeper(pause):
                slept.append(threading.current_thread())
                release.wait(5.0)

            harness.server.layer("default").retry.sleeper = sleeper
            forced = []

            class LosesOnce(Session):
                def execute_statement(self, statement):
                    if not forced:
                        forced.append(threading.current_thread())
                        raise ConflictError("forced", relations=["counters"])
                    return super().execute_statement(statement)

            monkeypatch.setattr(server_module, "Session", LosesOnce)
            log_before = len(harness.database.log)
            pipe.write(protocol.query_request(1, self.WRITE))
            for _ in range(400):
                if slept:
                    break
                await asyncio.sleep(0.005)
            # The losing attempt ran on the loop; its backoff did not.
            assert forced == [loop_thread]
            assert slept and slept[0] is not loop_thread
            pipe.write(protocol.ping_request(2))
            assert await read_frame(pipe) == {"type": "pong", "id": 2}
            release.set()
            message = await read_frame(pipe)
            assert (message["type"], message["id"]) == ("done", 1)
            assert len(slept) == 1
            assert len(harness.database.log) == log_before + 1
            assert len(self.rows_under(harness.database, "w")) == 1
            assert harness.server.stats["waited"] == 1
            harness.server.shutdown()
        run(scenario())

    def test_an_admission_queue_waits_on_a_worker(self):
        async def scenario():
            harness = Harness(ServerConfig(max_active=1, max_queue=4))
            pipe = harness.connect()
            await seed(pipe, [CREATE, RANGE])
            admission = harness.server.layer("default").admission
            waits, real_wait = [], admission._condition.wait

            def wait(timeout=None):
                waits.append(threading.current_thread())
                return real_wait(timeout)

            admission._condition.wait = wait
            slot = admission.admit()
            pipe.write(protocol.query_request(1, self.WRITE))
            for _ in range(400):
                if admission.queued == 1:
                    break
                await asyncio.sleep(0.005)
            assert admission.queued == 1, "request 1 never queued"
            pipe.write(protocol.ping_request(2))
            assert await read_frame(pipe) == {"type": "pong", "id": 2}
            slot.release()
            message = await read_frame(pipe)
            assert (message["type"], message["id"]) == ("done", 1)
            assert waits and threading.current_thread() not in waits
            harness.server.shutdown()
        run(scenario())

    def test_a_budget_spent_queued_behind_the_loop_never_commits_late(
            self, monkeypatch):
        class SlowRetrieve(Session):
            # A long scan: it holds the loop for 0.3 s.
            def execute_statement(self, statement):
                if isinstance(statement, RetrieveStmt):
                    time.sleep(0.3)
                return super().execute_statement(statement)

        async def scenario():
            harness = Harness()
            pipe = harness.connect()
            await seed(pipe, [CREATE, RANGE])
            monkeypatch.setattr(server_module, "Session", SlowRetrieve)
            # Both frames arrive together: request 2's 100 ms budget runs
            # from its receipt, while request 1 holds the loop.
            pipe.write(protocol.query_request(1, "retrieve (c.k)")
                       + protocol.query_request(2, self.WRITE,
                                                budget_ms=100))
            frames = [await read_frame(pipe)]
            while frames[-1]["type"] not in ("done", "error"):
                frames.append(await read_frame(pipe))
            assert (frames[-1]["type"], frames[-1]["id"]) == ("done", 1)
            for _ in range(400):
                if not harness.server.in_flight:
                    break
                await asyncio.sleep(0.005)
            pipe.write(protocol.ping_request(3))
            message = await read_frame(pipe)
            if message["type"] == "error":  # never a done for request 2
                assert message["id"] == 2
                assert isinstance(protocol.decode_error(message["error"]),
                                  DeadlineExceeded)
                message = await read_frame(pipe)
            assert message == {"type": "pong", "id": 3}
            assert len(self.rows_under(harness.database, "w")) == 0
            harness.server.shutdown()
        run(scenario())
