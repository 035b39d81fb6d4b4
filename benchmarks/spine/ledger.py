"""The traced run: a per-layer ledger measured from outside the program.

Separate from the measured run and never mixed with it: end-to-end
metrics come only from untraced runs, everything here only from this one.
The run takes the first fifth of the workload's op stream (at most
:data:`HEAD_MAX` ops) and pushes it through the program several times,
each time on an identical copy of the dataset:

- a **traced pass** that calls each layer's public functions itself —
  ``query_request`` / ``parse_request`` / ``tokenize`` / ``parse_tokens``
  / ``analyze`` / ``Evaluator.execute`` / ``rows_to_wire`` + ``rows_reply``
  + ``done_reply`` / ``decode_message`` + ``rows_from_wire`` — inside the
  benchmark's own spans (:mod:`benchmarks.spine.tracer`);
- five **shells** over the same ops, for the layers that can only be
  entered through the one above: S1 ``Session.execute`` (detached and
  with the journal attached), S2 ``SessionLayer.run`` around a parsed
  statement as the server does it, S3 ``ReproClient.query`` against
  ``ReproServer.handle_connection`` over ``open_pipe()`` in-process, S4
  the TCP subprocess at one connection.  A layer's self time is the
  median, over ops, of the difference between two shells on the same op.

Probes with fixed counts measure what no stream op isolates (S0: the
``replace`` / ``rollback`` / ``timeslice`` API, commit cost against open
rows and valid-time versions, journal encode / hash / frame, ship, the
two-session contention phase), and a short lifecycle run over a durable
copy supplies the ``storage.*`` and ``replication.*`` numbers.
"""

from __future__ import annotations

import asyncio
import gc
import os
import random
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.client import ReproClient
from repro.concurrency import RetryPolicy
from repro.core import TemporalDatabase
from repro.replication import InProcessTransport, Primary
from repro.server import ReproServer, open_pipe, protocol
from repro.storage import (CHAINED_TAG, GENESIS, DurabilityManager,
                           chain_entry, dump_database, encode_commit,
                           frame_record, load_database)
from repro.time import Instant
from repro.tquel import Session, analyze
from repro.tquel.evaluator import Evaluator
from repro.tquel.lexer import tokenize
from repro.tquel.parser import parse_tokens

from benchmarks.spine import dataset as ds
from benchmarks.spine import (embedded, harness, lifecycle, oracle, stats,
                              streams)
from benchmarks.spine.metrics import PER_LAYER
from benchmarks.spine.served import Server
from benchmarks.spine.sizing import Sizing
from benchmarks.spine.tracer import Tracer, self_time_by_name

#: The traced run never takes more than this many ops of a stream.
HEAD_MAX = 400
#: Calls per fixed-count probe.
PROBES = 30
#: Transactions per thread in the contention phase.
CONTENTION_TXNS = 300
CHUNK_ROWS = 64  # ServerConfig's default ``chunk_rows``
RANGES = {"f": ds.RELATION}


def head_of_stream(name: str, sizing: Sizing, pins: Sequence[Instant],
                   seed: int, seconds: float) -> List[streams.Op]:
    """The first 20 % of *name*'s op stream, as one sequential list."""
    spec = sizing.dataset
    if name == "served-oltp":
        rw, ro, _hot = streams.served(spec, pins, seed,
                                      sizing.op_count(seconds) // 2)
        ops = [op for pair in zip(rw, ro) for op in pair]
    elif name == "embedded-history":
        ops = streams.history(spec, pins, seed, sizing.op_count(seconds))
    elif name == "embedded-ingest":
        ops = streams.ingest(spec, pins, seed, sizing.op_count(seconds))
    else:
        ops = []
        for cycle in range(sizing.cycle_count(seconds)):
            ops += streams.tail_commits(spec, seed, cycle, lifecycle.TAIL)
            ops += streams.cold_reads(spec, pins, seed, cycle,
                                      lifecycle.COLD_READS)
    return ops[:max(40, min(HEAD_MAX, len(ops) // 5))]


def _us(seconds: float) -> float:
    return seconds * 1e6


def _median_us(samples: Sequence[float]) -> float:
    return _us(stats.median(samples)) if samples else 0.0


def _overhead(with_it: Sequence[float], without: Sequence[float]) -> float:
    """Median per-op extra time, as a share of the median op without it."""
    extra = [a - b for a, b in zip(with_it, without)]
    return stats.median(extra) / stats.median(without)


def _timed(ops: Sequence[streams.Op],
           call: Callable[[streams.Op], Any]) -> List[float]:
    gc.collect()  # every pass starts from the same collector state
    out = []
    for op in ops:
        started = time.perf_counter()
        call(op)
        out.append(time.perf_counter() - started)
    return out


# -- the traced pass ----------------------------------------------------------

def traced_pass(database: TemporalDatabase, ops: Sequence[streams.Op],
                tracer: Tracer) -> Dict[str, Any]:
    """Call every directly callable layer function once per op, in spans."""
    rows: List[int] = []
    frames: List[int] = []
    answers: List[Any] = []
    gc.collect()
    for index, op in enumerate(ops):
        with tracer.request(index):
            with tracer.span("client.encode"):
                request = protocol.query_request(
                    index, op.text, budget_ms=harness.BUDGET_MS)
            with tracer.span("server.decode"):
                protocol.parse_request(request)
            with tracer.span("tquel.statement"):
                with tracer.span("tquel.lex"):
                    tokens = tokenize(op.text)
                with tracer.span("tquel.parse"):
                    statement = parse_tokens(tokens)
                with tracer.span("tquel.analyze"):
                    analyze(statement, database, RANGES)
                with tracer.span("tquel.evaluate_write" if op.is_write
                                 else "tquel.evaluate_read"):
                    result = Evaluator(database, RANGES,
                                       plan="auto").execute(statement)
            with tracer.span("server.reply_encode"):
                columns, wire = protocol.rows_to_wire(result)
                reply = [protocol.rows_reply(
                    index, seq, wire[start:start + CHUNK_ROWS],
                    columns=columns if seq == 0 else None)
                    for seq, start in enumerate(
                        range(0, len(wire), CHUNK_ROWS))]
                reply.append(protocol.done_reply(
                    index, row_count=len(wire), chunks=len(reply), token=0,
                    commit_time=str(result) if op.is_write else None))
            with tracer.span("client.decode"):
                decoded: List[Any] = []
                for line in reply:
                    message = protocol.decode_message(line)
                    if message["type"] == "rows":
                        decoded.extend(protocol.rows_from_wire(
                            message["rows"]))
        rows.append(len(wire))
        frames.append(len(reply))
        answers.append(None if op.is_write else oracle.canonical(decoded))
    return {"rows": rows, "frames": frames, "answers": answers}


def _per_request(tracer: Tracer, names: Sequence[str],
                 count: int) -> List[float]:
    """Per op: the summed duration of its spans called *names*."""
    totals = [0.0] * count
    for span in tracer.spans:
        if span.name in names and span.request is not None:
            totals[span.request] += span.duration
    return totals


# -- the shells ------------------------------------------------------------------

def shell_s1(database: TemporalDatabase,
             ops: Sequence[streams.Op]) -> List[float]:
    session = Session(database, ranges=RANGES)
    return _timed(ops, lambda op: session.execute(op.text))


def shell_s2(database: TemporalDatabase,
             ops: Sequence[streams.Op]) -> List[float]:
    """Parse outside, analyze + evaluate inside ``SessionLayer.run`` — the
    shape of ``ReproServer._execute`` without the event loop."""
    layer = database.sessions()

    def call(op: streams.Op) -> Any:
        statement = parse_tokens(tokenize(op.text))
        return layer.run(
            lambda _session: Session(database, ranges=RANGES)
            .execute_statement(statement),
            timeout=harness.BUDGET_MS / 1e3)

    return _timed(ops, call)


async def _client_pass(client: ReproClient, ops: Sequence[streams.Op],
                       answers: Optional[List[Any]],
                       tally: harness.Tally) -> List[float]:
    out = []
    for index, op in enumerate(ops):
        started = time.perf_counter()
        result = await client.query(op.text, budget_ms=harness.BUDGET_MS)
        out.append(time.perf_counter() - started)
        if answers is not None and answers[index] is not None:
            tally.expect(oracle.canonical(result.rows) == answers[index],
                         f"served_{op.shape}_differs_from_in_process")
    await client.close()
    return out


def shell_s3(database: TemporalDatabase, ops: Sequence[streams.Op],
             seed: int) -> Tuple[List[float], Dict[str, int]]:
    """``ReproClient`` ↔ ``ReproServer`` over an in-process pipe."""
    async def run() -> Tuple[List[float], Dict[str, int]]:
        server = ReproServer(database)
        handlers = []

        async def connector(_endpoint: str):
            client_end, server_end = open_pipe()
            handlers.append(asyncio.ensure_future(
                server.handle_connection(server_end, server_end)))
            return client_end, client_end

        client = ReproClient(["pipe"], connector=connector, pool_size=1,
                             retry=RetryPolicy(max_attempts=4, seed=seed),
                             preamble=[lifecycle.RANGE])
        try:
            return (await _client_pass(client, ops, None, harness.Tally()),
                    dict(server.stats))
        finally:
            await server.drain(grace=0.5)
            server.shutdown()
            await asyncio.gather(*handlers, return_exceptions=True)

    return asyncio.run(run())


def shell_s4(directory: str, ops: Sequence[streams.Op], seed: int,
             answers: List[Any], tally: harness.Tally
             ) -> Tuple[List[float], int]:
    """The TCP subprocess at one connection; returns latencies, retries."""
    server = Server(directory)
    try:
        async def run() -> Tuple[List[float], int]:
            client = ReproClient([server.endpoint], pool_size=1,
                                 retry=RetryPolicy(max_attempts=4, seed=seed),
                                 preamble=[lifecycle.RANGE])
            latencies = await _client_pass(client, ops, answers, tally)
            return latencies, client.stats["retries"]
        return asyncio.run(run())
    finally:
        server.kill()


# -- fixed-count probes -------------------------------------------------------

def probe_api(database: TemporalDatabase, spec: ds.DatasetSpec,
              pins: Sequence[Instant], seed: int) -> Dict[str, float]:
    """S0: the database API itself, no language, no session."""
    rng = random.Random(f"probe:{seed}")
    applies, rollbacks, slices = [], [], []
    for _ in range(PROBES):
        name = ds.key_name(rng.randrange(spec.keys))
        started = time.perf_counter()
        database.replace(ds.RELATION, {"name": name},
                         {"salary": rng.randrange(30_000, 90_000)})
        applies.append(time.perf_counter() - started)
        pin = pins[rng.randrange(len(pins))]
        started = time.perf_counter()
        database.rollback(ds.RELATION, pin)
        rollbacks.append(time.perf_counter() - started)
        day = ds.VALID_START + 1 + rng.randrange(ds.VERSION_DAYS)
        started = time.perf_counter()
        database.timeslice(ds.RELATION, day, as_of=pin)
        slices.append(time.perf_counter() - started)
    return {"core.apply_us_per_commit": _median_us(applies),
            "core.rollback_us": _median_us(rollbacks),
            "core.timeslice_us": _median_us(slices)}


def _flat(keys: int, seed: int) -> TemporalDatabase:
    """*keys* open rows, one version each, no prior history."""
    database = ds.fresh_database()
    ds.apply(ds.plan(ds.DatasetSpec(keys, 1, 0), seed), database)
    return database


def probe_apply_slopes(spec: ds.DatasetSpec, seed: int) -> Dict[str, float]:
    """Commit cost per open row (K vs 4K rows) and per accumulated
    ``valid from`` version (slope over a run of retroactive writes)."""
    rng = random.Random(f"slopes:{seed}")
    medians = []
    sizes = (spec.keys, 4 * spec.keys)
    for keys in sizes:
        database = _flat(keys, seed)
        samples = []
        for _ in range(PROBES):
            name = ds.key_name(rng.randrange(keys))
            started = time.perf_counter()
            database.replace(ds.RELATION, {"name": name}, {"salary": 1})
            samples.append(time.perf_counter() - started)
        medians.append(stats.median(samples))
    per_row = _us(medians[1] - medians[0]) / (sizes[1] - sizes[0])

    database = _flat(spec.keys, seed)
    versions, costs = [], []
    for index in range(5 * PROBES):
        name = ds.key_name(rng.randrange(spec.keys))
        day = ds.VALID_START + 1 + rng.randrange(20 * ds.VERSION_DAYS)
        started = time.perf_counter()
        database.replace(ds.RELATION, {"name": name}, {"salary": index},
                         valid_from=day)
        costs.append(_us(time.perf_counter() - started))
        versions.append(float(index))
    return {"core.apply_us_per_open_row": per_row,
            "core.apply_us_per_valid_version": stats.slope(versions, costs)}


def probe_journal(database: TemporalDatabase) -> Dict[str, float]:
    """Encode, chain and frame the last commits the way ``Journal.record``
    does, one public function at a time."""
    records = list(database.log)[-PROBES:]
    encode, chain, frame = [], [], []
    head = GENESIS
    for record in records:
        started = time.perf_counter()
        entry = encode_commit(record)
        encode.append(time.perf_counter() - started)
        started = time.perf_counter()
        chained = chain_entry(entry, head)
        chain.append(time.perf_counter() - started)
        head = chained["chain"]["commit"]
        started = time.perf_counter()
        frame_record(chained, tag=CHAINED_TAG)
        frame.append(time.perf_counter() - started)
    return {"storage.encode_us_per_commit": _median_us(encode),
            "storage.chain_hash_us_per_commit": _median_us(chain),
            "storage.frame_us_per_commit": _median_us(frame)}


def probe_ship(database: TemporalDatabase, spec: ds.DatasetSpec,
               seed: int) -> float:
    """Commit cost with a :class:`Primary` attached minus detached."""
    rng = random.Random(f"ship:{seed}")

    def commits() -> float:
        samples = []
        for _ in range(PROBES):
            name = ds.key_name(rng.randrange(spec.keys))
            started = time.perf_counter()
            database.replace(ds.RELATION, {"name": name}, {"salary": 2})
            samples.append(time.perf_counter() - started)
        return stats.median(samples)

    detached = commits()
    primary = Primary("primary", database, InProcessTransport(),
                      floor=0, chain_head=None)
    primary.add_replica("replica")
    return _us(commits() - detached)


def probe_certify(database: TemporalDatabase) -> float:
    """Commit of a read-only session: footprint certified, nothing written."""
    layer = database.sessions()
    samples = []
    for _ in range(PROBES):
        session = layer.begin()
        session.touch(ds.RELATION)
        started = time.perf_counter()
        session.commit()
        samples.append(time.perf_counter() - started)
    return _median_us(samples)


def contention(database: TemporalDatabase, spec: ds.DatasetSpec,
               seed: int, tally: harness.Tally
               ) -> Tuple[Dict[str, float], Dict[str, int]]:
    """One session, then two threads on disjoint keys of one relation.

    Ungated: on the reference box its throughput spread was 15 % and its
    p95 spread 70 % across identical runs (retry jitter × GIL
    scheduling) — evidence for ROADMAP item 2, not a regression gate.
    A transaction that exhausts the default retry policy is therefore
    returned by exception class (second value) instead of being counted
    as a failed op of the run; a lost update or a hung thread still is.
    """
    layer = database.sessions(retry=RetryPolicy(seed=seed))

    exhausted: Dict[str, int] = {}

    def phase(threads: int) -> Tuple[float, int, int]:
        attempts = [0] * threads
        committed = [0] * threads
        gave_up: List[List[str]] = [[] for _ in range(threads)]

        def work(thread: int) -> None:
            for op in streams.disjoint_rmw(spec, seed, thread, threads,
                                           CONTENTION_TXNS):
                read_modify_write = embedded.rmw(op, {})

                def closure(session, body=read_modify_write) -> None:
                    attempts[thread] += 1
                    body(session)
                try:
                    layer.run(closure, timeout=harness.BUDGET_MS / 1e3)
                except Exception as error:  # noqa: BLE001 - reported
                    gave_up[thread].append(type(error).__name__)
                else:
                    committed[thread] += 1

        workers = [threading.Thread(target=work, args=(index,), daemon=True)
                   for index in range(threads)]
        started = time.perf_counter()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
        elapsed = time.perf_counter() - started
        tally.attempted += threads * CONTENTION_TXNS
        for worker in workers:
            tally.expect(not worker.is_alive(), "contention_thread_hung")
        for names in gave_up:
            for error_name in names:
                exhausted[error_name] = exhausted.get(error_name, 0) + 1
        return elapsed, sum(attempts), sum(committed)

    before = sum(row["salary"] for row in database.snapshot(ds.RELATION))
    solo_s, _solo_attempts, solo_done = phase(1)
    duo_s, duo_attempts, duo_done = phase(2)
    after = sum(row["salary"] for row in database.snapshot(ds.RELATION))
    tally.expect(after - before == solo_done + duo_done,
                 "contention_lost_update")
    solo_rate = solo_done / solo_s
    duo_rate = duo_done / duo_s
    return {
        "concurrency.sessions2_ops_per_s": duo_rate,
        "concurrency.sessions2_speedup": duo_rate / solo_rate,
        "concurrency.conflict_share":
            (duo_attempts - duo_done) / duo_attempts if duo_attempts else 0.0,
        "concurrency.attempts_per_txn":
            duo_attempts / duo_done if duo_done else 0.0,
    }, exhausted


def plan_census(database: TemporalDatabase,
                ops: Sequence[streams.Op]) -> Dict[str, float]:
    """Exact counts from ``Session.explain_plan(timings=False)``: which
    access path each read took, and rows examined per row returned."""
    session = Session(database, ranges=RANGES)
    paths = {"naive": 0, "index": 0, "columnar": 0}
    examined = returned = 0
    for op in ops:
        if not op.is_write:
            plan = session.explain_plan(op.text, timings=False)
            for info in plan["variables"].values():
                paths[info["plan"]] += 1
                examined += info["candidates"]
        answer = session.execute(op.text)
        if not op.is_write:
            returned += len(answer)
    reads = max(1, sum(paths.values()))
    return {"tquel.plan_naive_share": paths["naive"] / reads,
            "tquel.plan_index_share": paths["index"] / reads,
            "tquel.plan_columnar_share": paths["columnar"] / reads,
            "tquel.rows_examined_per_row_returned":
                examined / returned if returned else 0.0}


# -- the run ----------------------------------------------------------------------

def run_traced(name: str, sizing: Sizing, seed: int, seconds: float,
               trace_path: str) -> harness.RunResult:
    spec = sizing.dataset
    dataset_plan = ds.plan(spec, seed)
    base = ds.fresh_database()
    data = ds.apply(dataset_plan, base)
    snapshot = dump_database(base)
    ops = head_of_stream(name, sizing, data.pins, seed, seconds)
    writes = [index for index, op in enumerate(ops) if op.is_write]
    tally = harness.Tally()
    tally.attempted = len(ops)
    tracer = Tracer()
    values: Dict[str, float] = {}

    def clone() -> TemporalDatabase:
        return load_database(snapshot)

    with harness.scratch_dir("ledger") as parent:
        def durable_clone(label: str) -> Tuple[str, TemporalDatabase]:
            directory = os.path.join(parent, label)
            database = clone()
            DurabilityManager(directory).adopt_snapshot(database, 0, GENESIS)
            return directory, database

        # Directly timed parts, and the cache counters of one clean pass.
        traced_db = clone()
        traced = traced_pass(traced_db, ops, tracer)
        own = self_time_by_name(tracer.spans)
        for layer_name in ("client.encode", "server.decode", "tquel.lex",
                           "tquel.parse", "tquel.analyze",
                           "tquel.evaluate_read", "tquel.evaluate_write"):
            values[layer_name + "_us"] = _median_us(own.get(layer_name, []))
        total_rows = max(1, sum(traced["rows"]))
        values["client.decode_us_per_row"] = _us(
            sum(own["client.decode"])) / total_rows
        values["server.reply_encode_us_per_row"] = _us(
            sum(own["server.reply_encode"])) / total_rows
        values["server.frames_per_reply"] = (sum(traced["frames"])
                                             / len(ops))
        cache = traced_db.result_cache
        lookups = cache.hits + cache.misses
        values["core.resultcache_hit_share"] = (cache.hits / lookups
                                                if lookups else 0.0)
        values["core.resultcache_evictions"] = cache.evictions
        values["core.index_patches"] = \
            traced_db.index_cache.incremental_updates
        values["core.index_rebuilds"] = traced_db.index_cache.misses
        values["core.columnar_extends"] = traced_db.columnar_cache.extensions
        values["core.columnar_rebuilds"] = traced_db.columnar_cache.misses
        values.update(plan_census(clone(), ops))

        # Shells.  S1 twice: journal detached, then attached.
        s1 = shell_s1(clone(), ops)
        directory, durable = durable_clone("s1d")
        journal_before = harness.dir_bytes(directory)
        s1d = shell_s1(durable, ops)
        values["storage.journal_bytes_per_commit"] = (
            (harness.dir_bytes(directory) - journal_before) / len(writes)
            if writes else 0.0)
        values.update(probe_journal(durable))
        values["storage.durable_delta_us_per_commit"] = _median_us(
            [s1d[i] - s1[i] for i in writes])
        s2 = shell_s2(durable_clone("s2")[1], ops)
        s3, server_stats = shell_s3(durable_clone("s3")[1], ops, seed)
        s4, retries = shell_s4(durable_clone("s4")[0], ops, seed,
                               traced["answers"], tally)
        with obs.recording():
            recorded = shell_s1(clone(), ops)

        count = len(ops)
        codec = _per_request(tracer, ("client.encode", "server.decode",
                                      "server.reply_encode",
                                      "client.decode"), count)
        statement = _per_request(tracer, ("tquel.statement",), count)
        parts = {
            "direct": [codec[i] + statement[i] for i in range(count)],
            "durable": [s1d[i] - s1[i] for i in range(count)],
            "run": [s2[i] - s1d[i] for i in range(count)],
            "server": [s3[i] - s2[i] - codec[i] for i in range(count)],
            "wire": [s4[i] - s3[i] for i in range(count)],
        }
        values["concurrency.run_self_us"] = _median_us(parts["run"])
        values["server.self_us"] = _median_us(parts["server"])
        values["server.wire_us"] = _median_us(parts["wire"])
        values["server.shed_share"] = (server_stats["shed"]
                                       / max(1, server_stats["requests"]))
        values["client.retries_per_op"] = retries / count
        whole = stats.median(s4)
        values["ledger.residual_share"] = (
            whole - sum(stats.median(samples) for samples in parts.values())
        ) / whole
        # Per-op medians, not totals: a handful of collector pauses over
        # the several dataset copies this run holds would swamp a total.
        values["ledger.trace_overhead_share"] = _overhead(statement, s1)
        values["obs.recording_overhead_share"] = _overhead(recorded, s1)

        # Probes on fresh copies, so no shell sees their writes.
        values.update(probe_api(clone(), spec, data.pins, seed))
        values.update(probe_apply_slopes(spec, seed))
        values["replication.ship_delta_us_per_commit"] = probe_ship(
            clone(), spec, seed)
        values["concurrency.certify_us"] = probe_certify(clone())

        # A durable copy with its whole journal: the lifecycle numbers and
        # two full replays first, then contention (whose commits would
        # otherwise lengthen every replay).
        directory = os.path.join(parent, "full")
        manager, database, _ = lifecycle.durable_dataset(directory,
                                                         dataset_plan)
        cycles, _ = lifecycle.run_cycles(
            directory, manager, database, spec, data.pins, seed, 3, tally,
            harness.Pace(), harness.WallCap(60.0), timed_ops=False)
        replays = []
        for _ in range(2):
            started = time.perf_counter()
            _db, report = DurabilityManager(directory).recover(
                TemporalDatabase, use_checkpoint=False)
            replays.append(time.perf_counter() - started)
            tally.expect(report.full_replay, "full_replay_used_checkpoint")
        contended, exhausted = contention(database, spec, seed, tally)
        values.update(contended)
        values["storage.checkpoint_ms"] = stats.median(
            cycles["checkpoint"]) * 1e3
        values["storage.checkpoint_bytes"] = stats.median(
            cycles["checkpoint_bytes"])
        values["storage.recover_tail_ms"] = stats.median(
            cycles["recover"]) * 1e3
        values["storage.audit_ms"] = stats.median(cycles["audit"]) * 1e3
        values["storage.full_replay_ms"] = stats.median(replays) * 1e3
        values["storage.replay_us_per_record"] = _us(
            stats.median(replays)) / report.records_total
        values["replication.digest_ms"] = stats.median(
            cycles["digest"]) * 1e3
        values["replication.catchup_us_per_record"] = _us(
            stats.median(cycles["apply"])) / lifecycle.TAIL

    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    spans = tracer.write_jsonl(trace_path)
    metrics = {spec_.name: harness.metric(float(values[spec_.name]),
                                          spec_.unit)
               for spec_ in PER_LAYER}
    return harness.result(name, seed, seconds, True, tally, metrics, {
        "head_ops": len(ops), "head_writes": len(writes),
        "contention_txns_gave_up": exhausted,
        "spans": spans, "trace_file": trace_path,
        "s4_p50_us": _us(whole),
        "ledger_parts_p50_us": {part: _us(stats.median(samples))
                                for part, samples in parts.items()}})
