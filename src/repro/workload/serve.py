"""The serving-layer load generator and chaos harness.

:func:`run_serving` drives many concurrent :class:`~repro.client.
ReproClient` connections through an in-process :class:`~repro.server.
ReproServer` over fault-injectable :class:`~repro.server.chaos.
MemoryPipe` connections — the serving counterpart of
:func:`~repro.workload.stress.run_stress`.  Each client issues a seeded
mix of TQuel writes (unique keys, so acknowledgements are auditable)
and retrieves (streamed in chunks), under per-request deadlines, with
the client's bounded-retry/failover loop doing the error handling.

Chaos comes in two independent flavors:

- **wire faults** (*chaos*): a seeded :class:`~repro.server.chaos.
  ChaosConfig` drops, delays, splits, corrupts and disconnects frame
  lines in both directions;
- **failover** (*failover_at*): once that many writes are
  acknowledged, the primary server is killed (drained with a token
  grace period — in-flight work aborts with typed retryable errors),
  the first replica is promoted through
  :class:`~repro.replication.failover.FailoverCoordinator`, and a new
  server over the promoted database takes the standby endpoint; the
  clients fail over to it mid-run.

The audit (:attr:`ServingReport.ok`):

- **zero lost acknowledged writes**: every key whose ``done`` frame a
  client received is present in the final state — across the kill,
  the promotion, and every injected fault;
- **read-your-writes across failover**: token-gated ``ryw`` retrieves
  of a client's own fresh write always see it;
- **typed failures only**: everything that fails, fails with a
  :class:`~repro.errors.ReproError` (no raw socket exceptions, no
  hangs, no mystery states).
"""

from __future__ import annotations

import asyncio
import dataclasses
import random
import time
from typing import Any, Dict, List, Optional, Tuple, Type

from repro import obs
from repro.client import ReproClient
from repro.concurrency.retry import RetryPolicy
from repro.core.base import Database
from repro.core.temporal import TemporalDatabase
from repro.errors import (ConstraintViolation, DeadlineExceeded,
                          DrainingError, Overloaded, ReproError,
                          TransportError)
from repro.obs.metrics import quantile
from repro.relational.domain import Domain
from repro.relational.schema import Schema
from repro.server import ChaosConfig, ReproServer, ServerConfig, open_pipe
from repro.time.clock import SimulatedClock
from repro.time.instant import Instant
from repro.workload.generators import EPOCH

RELATION = "counters"
_BASE = Instant.from_chronon(EPOCH)


@dataclasses.dataclass
class ServingReport:
    """What one :func:`run_serving` run did, and whether it held up."""

    clients: int
    requests_per_client: int
    attempted: int
    succeeded: int
    shed: int
    drained: int
    deadline_exceeded: int
    transport_failures: int
    failed: int
    #: Exceptions that were not typed :class:`ReproError`\\ s — must be
    #: zero: the wire contract promises typed failures only.
    unexpected_failures: int
    wall_s: float
    #: Requests completed per wall-clock second.
    throughput_rps: float
    #: Client-observed latency of succeeded requests (µs, nearest rank).
    latency_p50_us: float
    latency_p95_us: float
    latency_p99_us: float
    #: Writes a client saw acknowledged (a ``done`` frame arrived).
    acked_writes: int
    #: Acked writes absent from the final state — must be zero.
    acked_writes_lost: int
    #: Retried writes acknowledged via the key constraint (the first
    #: attempt had landed; the reply was lost to chaos).
    duplicate_acks: int
    ryw_checks: int
    ryw_violations: int
    failover_performed: bool
    client_retries: int
    client_failovers: int
    #: Server tallies summed over every server that ran.
    server: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: Injected wire faults (``server.chaos.*`` counters).
    chaos: Dict[str, int] = dataclasses.field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """All audited invariants held."""
        return (self.acked_writes_lost == 0
                and self.ryw_violations == 0
                and self.unexpected_failures == 0)

    def describe(self) -> Dict[str, Any]:
        """A plain dict (what ``repro loadgen --json`` prints)."""
        data = dataclasses.asdict(self)
        data["ok"] = self.ok
        return data


def _define_relation(database: Database) -> None:
    schema = Schema.of(key=["k"], k=Domain.STRING, v=Domain.STRING)
    database.define(RELATION, schema)


def _percentile_us(sorted_seconds: List[float], q: float) -> float:
    """The *q*-quantile of pre-sorted seconds, in microseconds."""
    if not sorted_seconds:
        return 0.0
    return round(quantile(sorted_seconds, q) * 1e6, 1)


def _append_source(key: str, historical: bool) -> str:
    # Valid since the epoch the simulated clock starts at, so the
    # current-state snapshot the audit reads actually contains the row.
    clause = ' valid from "01/01/80"' if historical else ""
    return f'append to {RELATION} (k = "{key}", v = "1"){clause}'


def run_serving(clients: int = 6, requests: int = 20, seed: int = 0,
                write_ratio: float = 0.5, budget_ms: float = 5000.0,
                chaos: Optional[ChaosConfig] = None,
                replicas: int = 0,
                failover_at: Optional[int] = None,
                tenants: Tuple[str, ...] = ("default",),
                ryw_ratio: float = 0.3,
                config: Optional[ServerConfig] = None,
                kind: Type[Database] = TemporalDatabase) -> ServingReport:
    """Drive *clients* concurrent connections; audit the wreckage.

    Each client issues *requests* seeded statements (*write_ratio*
    writes of unique keys, the rest retrieves — a slice of them
    token-gated ``ryw`` reads of the client's own last write) under a
    *budget_ms* deadline per request.  *chaos* injects wire faults;
    *failover_at* (requires ``replicas >= 1``) kills the primary server
    mid-run and promotes a replica.  Deterministic under a fixed seed
    except for event-loop interleaving; the audited invariants hold for
    every interleaving.
    """
    if failover_at is not None and replicas < 1:
        raise ValueError("failover_at needs at least one replica")
    return asyncio.run(_run_async(
        clients=clients, requests=requests, seed=seed,
        write_ratio=write_ratio, budget_ms=budget_ms, chaos=chaos,
        replicas=replicas, failover_at=failover_at, tenants=tenants,
        ryw_ratio=ryw_ratio, config=config, kind=kind))


async def _run_async(clients: int, requests: int, seed: int,
                     write_ratio: float, budget_ms: float,
                     chaos: Optional[ChaosConfig], replicas: int,
                     failover_at: Optional[int],
                     tenants: Tuple[str, ...], ryw_ratio: float,
                     config: Optional[ServerConfig],
                     kind: Type[Database]) -> ServingReport:
    config = config or ServerConfig(idle_timeout=10.0,
                                    write_stall_timeout=2.0,
                                    retry_seed=seed)
    database = kind(clock=SimulatedClock(_BASE))
    historical = database.kind.supports_historical_queries

    replica_nodes: List[Any] = []
    primary_wrapper = None
    transport = None
    if replicas > 0:
        from repro.replication import FaultyTransport, Primary, Replica
        transport = FaultyTransport(seed=seed)
        primary_wrapper = Primary("primary", database, transport)
        for index in range(replicas):
            node = Replica(f"replica-{index}", kind, transport, "primary")
            primary_wrapper.add_replica(node.node_id)
            node.request_catchup()
            replica_nodes.append(node)
    _define_relation(database)

    state: Dict[str, Any] = {
        "servers": {"primary": ReproServer(database, config,
                                           replicas=replica_nodes),
                    "standby": None},
        "primary_node": primary_wrapper,
        "serving_nodes": list(replica_nodes),
        "final_db": database,
        "failover_done": False,
        "connection_seq": 0,
    }
    all_servers: List[ReproServer] = [state["servers"]["primary"]]

    async def connector(endpoint: str) -> Tuple[Any, Any]:
        server = state["servers"].get(endpoint)
        if server is None or server.draining:
            raise ConnectionRefusedError(f"{endpoint} is not serving")
        state["connection_seq"] += 1
        client_end, server_end = open_pipe(
            chaos=chaos, name=f"{endpoint}:{state['connection_seq']}")
        asyncio.ensure_future(
            server.handle_connection(server_end, server_end))
        return client_end, client_end

    counts = {"attempted": 0, "succeeded": 0, "shed": 0, "drained": 0,
              "deadline_exceeded": 0, "transport_failures": 0,
              "failed": 0, "unexpected": 0, "duplicate_acks": 0,
              "ryw_checks": 0, "ryw_violations": 0}
    acked: set = set()
    latencies: List[float] = []
    client_objects: List[ReproClient] = []

    async def kill_and_promote() -> None:
        """The chaos centerpiece: kill the primary server mid-run."""
        from repro.replication import FailoverCoordinator
        old_server = state["servers"]["primary"]
        state["servers"]["primary"] = None  # refuse new connections now
        await old_server.drain(grace=0.05)
        victim = state["serving_nodes"][0]
        others = state["serving_nodes"][1:]
        promoted, _promotion = FailoverCoordinator(transport).promote(
            victim, old_primary=state["primary_node"],
            replicas=[node.node_id for node in others])
        standby = ReproServer(promoted.database, config, replicas=others)
        state["primary_node"] = promoted
        state["serving_nodes"] = others
        state["servers"]["standby"] = standby
        state["final_db"] = promoted.database
        state["failover_done"] = True
        all_servers.append(standby)

    async def failover_watcher() -> None:
        while not state["failover_done"]:
            if len(acked) >= failover_at:
                await kill_and_promote()
                return
            await asyncio.sleep(0.002)

    async def pumper(stop: asyncio.Event) -> None:
        beat = 0
        while not stop.is_set():
            node = state["primary_node"]
            if node is not None:
                node.pump()
                if beat % 5 == 0:
                    node.heartbeat()
            for replica in state["serving_nodes"]:
                replica.pump()
            beat += 1
            await asyncio.sleep(0.002)

    async def run_client(index: int) -> None:
        rng = random.Random((seed << 16) ^ index)
        client = ReproClient(
            ["primary", "standby"], connector=connector,
            retry=RetryPolicy(max_attempts=8, base_delay=0.005,
                              max_delay=0.1, seed=(seed << 8) ^ index),
            tenant=tenants[index % len(tenants)],
            preamble=[f"range of c is {RELATION}"])
        client_objects.append(client)

        async def one(source: str, consistency: str = "primary"):
            begun = time.monotonic()
            result = await client.query(source, budget_ms=budget_ms,
                                        consistency=consistency)
            latencies.append(time.monotonic() - begun)
            return result

        for step in range(requests):
            key = f"c{index}-{step}"
            is_write = rng.random() < write_ratio
            counts["attempted"] += 1
            try:
                if is_write:
                    try:
                        await one(_append_source(key, historical))
                    except ConstraintViolation:
                        # The first attempt landed; the ack was lost to
                        # chaos and the retry hit the key constraint.
                        # That *is* an acknowledgement.
                        counts["duplicate_acks"] += 1
                    acked.add(key)
                    counts["succeeded"] += 1
                    if rng.random() < ryw_ratio:
                        counts["ryw_checks"] += 1
                        mode = "ryw" if replicas else "primary"
                        result = await one(
                            f'retrieve (c.k, c.v) where c.k = "{key}"',
                            consistency=mode)
                        seen = {row["values"].get("k")
                                for row in result.rows}
                        if key not in seen:
                            counts["ryw_violations"] += 1
                else:
                    mode = "replica" if replicas else "primary"
                    await one("retrieve (c.k, c.v)", consistency=mode)
                    counts["succeeded"] += 1
            except Overloaded:
                counts["shed"] += 1
            except DrainingError:
                counts["drained"] += 1
            except DeadlineExceeded:
                counts["deadline_exceeded"] += 1
            except (TransportError, ConnectionError, OSError):
                counts["transport_failures"] += 1
            except ReproError:
                counts["failed"] += 1
            except Exception:  # noqa: BLE001 - the audit wants these
                counts["unexpected"] += 1
        await client.close()

    stop_pump = asyncio.Event()
    with obs.recording() as instrumentation:
        started = time.monotonic()
        tasks = [asyncio.ensure_future(run_client(i))
                 for i in range(clients)]
        extras = []
        if replicas:
            extras.append(asyncio.ensure_future(pumper(stop_pump)))
        if failover_at is not None:
            extras.append(asyncio.ensure_future(failover_watcher()))
        await asyncio.gather(*tasks)
        stop_pump.set()
        for extra in extras:
            extra.cancel()
        for server in all_servers:
            if not server.draining:
                await server.drain(grace=0.5)
            server.shutdown()
        wall = time.monotonic() - started
    metrics = instrumentation.metrics.snapshot()["counters"]
    chaos_tally = {name.rsplit(".", 1)[1]: count
                   for name, count in sorted(metrics.items())
                   if name.startswith("server.chaos.")}

    # -- audit ---------------------------------------------------------------
    latencies.sort()
    final_db = state["final_db"]
    present = {row["k"] for row in final_db.snapshot(RELATION)}
    lost = len(acked - present)
    server_tally: Dict[str, int] = {}
    for server in all_servers:
        for name, value in server.stats.items():
            server_tally[name] = server_tally.get(name, 0) + value

    return ServingReport(
        clients=clients,
        requests_per_client=requests,
        attempted=counts["attempted"],
        succeeded=counts["succeeded"],
        shed=counts["shed"],
        drained=counts["drained"],
        deadline_exceeded=counts["deadline_exceeded"],
        transport_failures=counts["transport_failures"],
        failed=counts["failed"],
        unexpected_failures=counts["unexpected"],
        wall_s=round(wall, 6),
        throughput_rps=round(counts["succeeded"] / wall, 3) if wall else 0.0,
        latency_p50_us=_percentile_us(latencies, 0.50),
        latency_p95_us=_percentile_us(latencies, 0.95),
        latency_p99_us=_percentile_us(latencies, 0.99),
        acked_writes=len(acked),
        acked_writes_lost=lost,
        duplicate_acks=counts["duplicate_acks"],
        ryw_checks=counts["ryw_checks"],
        ryw_violations=counts["ryw_violations"],
        failover_performed=state["failover_done"],
        client_retries=sum(c.stats["retries"] for c in client_objects),
        client_failovers=sum(c.stats["failovers"]
                             for c in client_objects),
        server=server_tally,
        chaos=chaos_tally,
    )
