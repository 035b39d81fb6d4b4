"""The client's retry, failover, deadline and read-your-writes posture.

Each test wires a :class:`~repro.client.ReproClient` to an in-process
:class:`~repro.server.ReproServer` through a connector that hands out
MemoryPipe pairs — the same substrate the loadgen uses — so the whole
request loop (pooling, preamble replay, typed-error triage, endpoint
rotation) runs for real.
"""

import asyncio

import pytest

from repro.client import ReproClient
from repro.concurrency.retry import RetryPolicy
from repro.core import TemporalDatabase
from repro.errors import DeadlineExceeded, Overloaded, TransportError
from repro.server import ReproServer, ServerConfig, open_pipe

CREATE = "create counters (k = string, v = string) key (k)"


def run(coroutine):
    return asyncio.run(coroutine)


def define_counters(database):
    from repro.relational.domain import Domain
    from repro.relational.schema import Schema
    database.define("counters",
                    Schema.of(key=["k"], k=Domain.STRING,
                              v=Domain.STRING))


def make_connector(servers):
    """Endpoint-name -> MemoryPipe connector over live servers."""
    async def connector(endpoint):
        server = servers.get(endpoint)
        if server is None or server.draining:
            raise ConnectionRefusedError(f"{endpoint} is down")
        client_end, server_end = open_pipe(name=endpoint)
        asyncio.ensure_future(
            server.handle_connection(server_end, server_end))
        return client_end, client_end
    return connector


def make_client(servers, endpoints, **kwargs):
    kwargs.setdefault("retry", RetryPolicy(max_attempts=4,
                                           base_delay=0.005,
                                           max_delay=0.05, seed=7))
    return ReproClient(endpoints, connector=make_connector(servers),
                       **kwargs)


class TestRetry:
    def test_overloaded_is_typed_retried_then_surfaced(self):
        async def scenario():
            server = ReproServer(TemporalDatabase(),
                                 ServerConfig(max_active=1, max_queue=0))
            client = make_client({"a": server}, ["a"],
                                 retry=RetryPolicy(max_attempts=2,
                                                   base_delay=0.001,
                                                   seed=3))
            await client.query(CREATE, budget_ms=5000.0)
            slot = server.layer("default").admission.admit()
            try:
                with pytest.raises(Overloaded) as caught:
                    await client.query(
                        'append to counters (k = "a", v = "1") '
                        'valid from "12/05/82"', budget_ms=5000.0)
                # The server's back-pressure hint crossed the wire.
                assert caught.value.retryable
                assert caught.value.retry_after > 0
                assert client.stats["retries"] == 1
                assert client.stats["typed_errors"] == 2
            finally:
                slot.release()
            # The slot freed: the same client (and pooled connection)
            # succeeds without reconnecting.
            connects_before = client.stats["connects"]
            result = await client.query(
                'append to counters (k = "a", v = "1") '
                'valid from "12/05/82"', budget_ms=5000.0)
            assert result.commit_time is not None
            assert client.stats["connects"] == connects_before
            await client.close()
            server.shutdown()
        run(scenario())

    def test_seeded_backoff_schedule_is_reproducible(self):
        first = [RetryPolicy(seed=11).delay(i) for i in range(5)]
        second = [RetryPolicy(seed=11).delay(i) for i in range(5)]
        other = [RetryPolicy(seed=12).delay(i) for i in range(5)]
        assert first == second
        assert first != other


class TestFailover:
    def test_dead_endpoint_rotates_to_the_live_one(self):
        async def scenario():
            server = ReproServer(TemporalDatabase(), ServerConfig())
            # Endpoint "a" refuses connections; "b" serves.
            client = make_client({"a": None, "b": server}, ["a", "b"])
            result = await client.query(CREATE, budget_ms=5000.0)
            assert result.commit_time is not None
            assert client.stats["failovers"] >= 1
            assert client.preferred_endpoint == "b"
            # Subsequent requests go straight to the live endpoint.
            failovers = client.stats["failovers"]
            await client.query(
                'append to counters (k = "f", v = "1") '
                'valid from "12/05/82"', budget_ms=5000.0)
            assert client.stats["failovers"] == failovers
            await client.close()
            server.shutdown()
        run(scenario())


class TestDeadlines:
    def test_silent_server_raises_deadline_exceeded(self):
        async def scenario():
            async def dead_air(endpoint):
                client_end, _server_end = open_pipe()
                return client_end, client_end  # nobody is listening

            client = ReproClient(["void"], connector=dead_air,
                                 retry=RetryPolicy(max_attempts=3,
                                                   base_delay=0.001,
                                                   seed=1))
            with pytest.raises(DeadlineExceeded):
                await client.query("retrieve (c.k)", budget_ms=100.0)
            assert client.stats["timeouts"] >= 1
            await client.close()
        run(scenario())

    def test_a_lost_frame_costs_one_attempt_not_the_budget(self):
        # The first connection swallows the request; the attempt may
        # wait only for its share of the budget (1.2 s over 4 attempts),
        # so the retry policy gets its second attempt and that one lands.
        async def scenario():
            database = TemporalDatabase()
            define_counters(database)
            server = ReproServer(database, ServerConfig())
            live = make_connector({"a": server})
            calls = []

            async def first_is_dead_air(endpoint):
                calls.append(endpoint)
                if len(calls) == 1:
                    client_end, _server_end = open_pipe()
                    return client_end, client_end
                return await live(endpoint)

            client = ReproClient(["a"], connector=first_is_dead_air,
                                 retry=RetryPolicy(max_attempts=4,
                                                   base_delay=0.001,
                                                   seed=1),
                                 preamble=["range of c is counters"])
            result = await client.query("retrieve (c.k)", budget_ms=1200.0)
            assert result.attempts == 2 and result.row_count == 0
            assert client.stats["timeouts"] == 1
            await client.close()
            server.shutdown()
        run(scenario())


class TestReadYourWrites:
    def test_tokens_fold_and_gate_ryw_reads(self):
        async def scenario():
            server = ReproServer(TemporalDatabase(), ServerConfig())
            define_counters(server.database)
            client = make_client({"a": server}, ["a"],
                                 preamble=["range of c is counters"])
            write = await client.query(
                'append to counters (k = "w", v = "1") '
                'valid from "12/05/82"', budget_ms=5000.0)
            assert write.token == len(server.database.log)
            assert client.last_token == write.token
            assert write.token in client.acked_tokens
            # A ryw read sends the folded token; with no replicas the
            # primary serves it, and the read's token is not an ack.
            read = await client.query('retrieve (c.k, c.v)',
                                      budget_ms=5000.0,
                                      consistency="ryw")
            assert read.served_by == "primary"
            assert {row["values"]["k"] for row in read.rows} == {"w"}
            assert client.acked_tokens == [write.token]
            await client.close()
            server.shutdown()
        run(scenario())


class TestPooling:
    def test_preamble_is_replayed_on_every_fresh_connection(self):
        async def scenario():
            server = ReproServer(TemporalDatabase(), ServerConfig())
            define_counters(server.database)
            client = make_client({"a": server}, ["a"],
                                 preamble=["range of c is counters"])
            await client.query('append to counters (k = "p", v = "1") '
                               'valid from "12/05/82"',
                               budget_ms=5000.0)
            # The range binding came from the preamble, not this query.
            first = await client.query("retrieve (c.k)",
                                       budget_ms=5000.0)
            assert first.row_count == 1
            # Drop every pooled connection; the next query must build a
            # fresh one and replay the preamble, or the binding is gone.
            connects = client.stats["connects"]
            await client.close()
            second = await client.query("retrieve (c.k)",
                                        budget_ms=5000.0)
            assert second.row_count == 1
            assert client.stats["connects"] == connects + 1
            await client.close()
            server.shutdown()
        run(scenario())

    def test_truncated_response_is_caught_by_the_done_census(self):
        # A dropped rows chunk with a surviving done frame must not
        # pass as a (shorter) result — the done frame's row_count is
        # the census the client checks the reassembled stream against.
        async def scenario():
            from repro.server import protocol
            client_end, server_end = open_pipe()
            client = ReproClient(["a"], retry=RetryPolicy(max_attempts=1),
                                 connector=None)
            conn = type("C", (), {"endpoint": "a", "reader": client_end,
                                  "writer": client_end, "next_id": 1,
                                  "broken": False,
                                  "close": lambda self: None})()
            # One chunk of one row arrives; the done frame promises two.
            server_end.write(protocol.rows_reply(
                1, 0, [{"values": {"k": "a"}}], columns=["k"]))
            server_end.write(protocol.done_reply(1, row_count=2,
                                                 chunks=2))
            with pytest.raises(TransportError) as caught:
                await client._collect(conn, 1, 0)
            assert caught.value.retryable
            assert "truncated in transit" in str(caught.value)
        run(scenario())

    def test_wire_damage_reports_as_retryable_transport_error(self):
        # An id-less protocol error from the server can only mean the
        # *request frame* was damaged in transit — the client never
        # sends malformed frames — so it must surface retryable.
        async def scenario():
            from repro.server import protocol
            server = ReproServer(TemporalDatabase(), ServerConfig())
            client_end, server_end = open_pipe()
            asyncio.ensure_future(
                server.handle_connection(server_end, server_end))
            client = ReproClient(["a"], retry=RetryPolicy(max_attempts=1),
                                 connector=None)
            conn = type("C", (), {"endpoint": "a", "reader": client_end,
                                  "writer": client_end, "next_id": 1,
                                  "broken": False,
                                  "close": lambda self: None})()
            client_end.write(b"mangled frame on the wire\n")
            with pytest.raises(TransportError) as caught:
                await client._collect(conn, 1, 0)
            assert caught.value.retryable
            assert "damaged in transit" in str(caught.value)
            server.shutdown()
        run(scenario())


class TestWireCompatibility:
    def test_a_reply_sent_one_frame_per_write_is_reassembled(self):
        # The server before replies were grouped: every frame its own
        # write and drain, the loop free to run between them.  Same
        # frames, so the client must not care how they were batched.
        async def scenario():
            from repro.server import protocol

            async def frame_per_write_server(end):
                request = protocol.parse_request(await end.readline())
                for frame in (
                        protocol.rows_reply(request["id"], 0, [
                            {"values": {"k": "a"}}], columns=["k"]),
                        protocol.rows_reply(request["id"], 1, [
                            {"values": {"k": "b"}}]),
                        protocol.done_reply(request["id"], row_count=2,
                                            chunks=2, token=5)):
                    end.write(frame)
                    await end.drain()
                    await asyncio.sleep(0)

            async def connector(_endpoint):
                client_end, server_end = open_pipe()
                asyncio.ensure_future(frame_per_write_server(server_end))
                return client_end, client_end

            client = ReproClient(["a"], connector=connector)
            result = await client.query("retrieve (c.k)", budget_ms=2000.0)
            assert [row["values"]["k"] for row in result.rows] == ["a", "b"]
            assert (result.row_count, result.token) == (2, 5)
            await client.close()
        run(scenario())
