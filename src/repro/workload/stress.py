"""Multi-threaded stress and chaos harness for the session layer.

:func:`run_stress` hammers one store — a plain
:class:`~repro.core.base.Database`, or a :class:`~repro.sharding.store.
ShardedDatabase` when ``shards`` is given — from many concurrent
sessions.  Each worker thread runs seeded read-modify-write transactions
through the store's one :class:`~repro.concurrency.layer.SessionLayer`:
single-key increments and, with probability ``cross_ratio``, two-key
*transfers* (+1 on one key, −1 on another).  A transfer conserves the
counter sum, so a torn multi-shard commit — one half applied without the
other — shows up as a nonzero ``sum_delta`` no matter which half
survived.  The harness then audits the paper's invariants over the
wreckage, per commit pipeline (the database itself, or each shard):

- **zero lost updates**: every increment a worker was told committed is
  present in the final state (the counter sum equals the acknowledged
  single increments exactly; transfers net out);
- **monotone commit times**: each pipeline's commit log is strictly
  increasing in transaction time — the serial-history order survived
  the race;
- **serial equivalence**: replaying a pipeline's commit log, one
  transaction at a time, into a fresh database of the same kind
  reproduces the exact final state and the exact commit times (the
  concurrent history *is* some serial history, which is the definition
  of serializability).

With ``faults`` set, the same load runs against a durable store
(:class:`~repro.storage.recovery.DurabilityManager`, or
:class:`~repro.sharding.durability.ShardedDurabilityManager` when
sharded) whose I/O dies at the chosen
:class:`~repro.storage.faults.CrashPoint`; after the simulated crash
the storage stays dead, every worker drains out, and the harness
recovers the directory with healthy I/O and checks the durable-prefix
rule: each pipeline's recovered journal is a prefix of its in-memory
history, except that a *decided* cross-shard transaction may
additionally be re-applied at the tail by recovery (matched by its
operations against the prepare log; docs/SHARDING.md's recovery rules)
— the docs/DURABILITY.md contract, now under concurrent load.

Everything is deterministic under a fixed seed *except* thread
interleaving; the audited invariants hold for every interleaving, which
is what makes the harness a test and not a lottery.
"""

from __future__ import annotations

import dataclasses
import json
import random
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Type

from repro import obs
from repro.concurrency import AdmissionController, RetryPolicy, SessionLayer
from repro.core.base import Database
from repro.core.temporal import TemporalDatabase
from repro.errors import DeadlineExceeded, Overloaded, ReproError
from repro.obs.metrics import quantile
from repro.relational.domain import Domain
from repro.relational.schema import Schema
from repro.sharding.partition import Partitioner
from repro.storage.faults import CrashPoint, FaultyIO, SimulatedCrash
from repro.storage.io import StorageIO
from repro.storage.journal import encode_operation
from repro.time.clock import SimulatedClock
from repro.time.instant import Instant
from repro.workload.generators import EPOCH

RELATION = "counters"
_BASE = Instant.from_chronon(EPOCH)


@dataclasses.dataclass
class StressReport:
    """What one :func:`run_stress` run did, and whether it held up."""

    #: Shard count, or ``None`` for a plain (single-pipeline) database.
    shards: Optional[int]
    sessions: int
    transactions_per_session: int
    cross_ratio: float
    #: ``"shared"``, ``"scattered"`` or ``"aligned"`` (:func:`_worker_keys`).
    placement: str
    attempted: int
    committed: int
    #: Committed transactions that actually spanned >1 shard (measured,
    #: not requested: two keys may hash to the same shard).
    cross_shard_commits: int
    conflicts: int
    retries: int
    shed: int
    deadline_exceeded: int
    crashed: int
    failed: int
    wall_s: float
    #: Committed transactions per wall-clock second.
    tps: float
    #: Begin-to-commit latency quantiles over successful transactions.
    latency_p50_s: float
    latency_p95_s: float
    latency_p99_s: float
    #: The counter sum, and the single increments acknowledged to a
    #: worker (transfers net out of both).
    applied_increments: int
    acknowledged_increments: int
    #: ``applied − acknowledged``; 0 in clean runs.  In chaos runs an
    #: unacknowledged-but-durable transaction may legally push it up,
    #: bounded by the unacknowledged count (see ``ok``).
    sum_delta: int
    lost_updates: int
    commit_times_monotone: bool
    serial_equivalent: bool
    #: Chaos mode only.
    crash_injected: Optional[str] = None
    recovered_records: Optional[int] = None
    recovery_reapplied: Optional[int] = None
    recovery_in_doubt_aborted: Optional[int] = None
    recovery_is_durable_prefix: Optional[bool] = None
    #: Chaos mode: transactions that errored at the client and may still
    #: be durable (the slack allowed for ``sum_delta``).
    unacknowledged: Optional[int] = None
    #: The ``concurrency.commit_seconds`` histogram summary — per-commit
    #: latency under the lock ({count, total, p50, p95, p99, max}).
    commit_latency: Dict[str, float] = dataclasses.field(
        default_factory=dict)
    #: Sharded runs: per-shard pipeline counters from the run's metrics
    #: registry (``shard.<i>.commits`` / ``shard.<i>.conflicts``; chaos
    #: runs add ``journal_bytes`` and ``records`` from the recovered
    #: directory).
    per_shard: List[Dict[str, int]] = dataclasses.field(
        default_factory=list)
    #: Replication mode (``replicas > 0``) only.
    replicas: int = 0
    replica_records_applied: Optional[int] = None
    #: Every shard replica reached its primary's published head.
    replica_converged: Optional[bool] = None
    #: Combined replica digest equals the live store's (clean runs only;
    #: a crash legally strands unpublished commits on the primary).
    replica_digest_match: Optional[bool] = None
    #: The txn id of one committed cross-shard transfer — the handle
    #: ``repro trace --txn`` reconstructs the full lifecycle from.
    sample_cross_txn: Optional[str] = None
    #: Per-operation-class SLO health over the run (advisory: latency
    #: objectives, not correctness — ``ok`` does not include it).
    slo: Dict[str, Any] = dataclasses.field(default_factory=dict)
    #: Where the span / event JSONL exports landed, when requested.
    trace_path: Optional[str] = None
    events_path: Optional[str] = None
    spans_dropped: int = 0
    events_dropped: int = 0

    @property
    def ok(self) -> bool:
        """All audited invariants held."""
        if self.crash_injected is None:
            exact = self.sum_delta == 0
        else:
            # A transaction that failed at the client may still be
            # durable (the decision landed, the ack did not) — the
            # classic in-doubt outcome.  It may add increments, never
            # remove them, and never more than the unacknowledged count.
            exact = 0 <= self.sum_delta <= (self.unacknowledged or 0)
        return (exact and self.lost_updates == 0
                and self.commit_times_monotone and self.serial_equivalent
                and self.recovery_is_durable_prefix is not False
                and self.replica_converged is not False
                and self.replica_digest_match is not False)

    def describe(self) -> Dict[str, Any]:
        """A plain dict (what ``repro stress --json`` prints)."""
        data = dataclasses.asdict(self)
        data["ok"] = self.ok
        return data


class _DeadAfterCrashIO(StorageIO):
    """Storage that stays dead once the wrapped :class:`FaultyIO` fired.

    A real crash kills the process: nothing appends after it.  The
    chaos harness keeps the *threads* alive (to prove nothing wedges)
    but must not let post-crash commits reach the journal — that would
    punch a hole in the append-only history no real crash can produce.
    """

    def __init__(self, inner: FaultyIO) -> None:
        self._inner = inner

    def append(self, path: str, data: bytes, fsync: bool = False) -> None:
        if self._inner.fired:
            raise SimulatedCrash("storage died at the injected crash point")
        self._inner.append(path, data, fsync=fsync)

    def write_atomic(self, path: str, data: bytes,
                     fsync: bool = False) -> None:
        if self._inner.fired:
            raise SimulatedCrash("storage died at the injected crash point")
        self._inner.write_atomic(path, data, fsync=fsync)


def define_counters(store, keys: Sequence[str]) -> None:
    """Define ``counters(k key, v)`` on *store* with one zero row per key."""
    schema = Schema.of(key=["k"], k=Domain.STRING, v=Domain.INTEGER)
    store.define(RELATION, schema)
    bounds = ({"valid_from": _BASE}
              if store.kind.supports_historical_queries else {})
    with store.begin() as txn:
        for key in keys:
            store.insert(RELATION, {"k": key, "v": 0}, txn=txn, **bounds)


def increment_closure(key: str, work: Optional[Callable[[], None]] = None):
    """One read-modify-write transaction on *key* (safe to re-run).

    *work* (think-time) runs between the read and the write — the
    window where a competing commit invalidates the footprint — so a
    GIL-yielding hook forces real interleaving instead of leaving
    contention to scheduler-quantum luck.
    """
    def closure(session) -> None:
        row = session.get(RELATION, {"k": key})[0]
        if work is not None:
            work()
        session.replace(RELATION, {"k": key}, {"v": row["v"] + 1})
    return closure


def transfer_closure(key_a: str, key_b: str,
                     work: Optional[Callable[[], None]] = None,
                     txn_box: Optional[Dict[str, str]] = None):
    """+1 on *key_a*, −1 on *key_b*, atomically; notes its txn id in
    *txn_box* when given."""
    def closure(session) -> None:
        if txn_box is not None:
            txn_box["txn"] = session.txn_id
        row_a = session.get(RELATION, {"k": key_a})[0]
        row_b = session.get(RELATION, {"k": key_b})[0]
        if work is not None:
            work()
        session.replace(RELATION, {"k": key_a}, {"v": row_a["v"] + 1})
        session.replace(RELATION, {"k": key_b}, {"v": row_b["v"] - 1})
    return closure


def _serial_replay_matches(pipeline: Database, kind: Type[Database]) -> bool:
    """Replay one pipeline's commit log serially into a fresh database.

    ``define`` is itself a logged operation, so the replay rebuilds the
    schema too; matching commit times *and* final snapshot proves the
    concurrent history equals this serial one.
    """
    reference = kind(clock=SimulatedClock(_BASE))
    ref_clock = reference.manager.clock.source
    for record in pipeline.log:
        ref_clock.set(record.commit_time)
        actual = reference.manager.run(list(record.operations))
        if actual != record.commit_time:
            return False
    return (reference.snapshot(RELATION) == pipeline.snapshot(RELATION)
            and len(reference.log) == len(pipeline.log))


def _patient_policies(workers: int, seed: int,
                      retry: Optional[RetryPolicy],
                      admission: Optional[AdmissionController]):
    """The harness defaults: a near-sleepless retry policy under which
    every transaction eventually commits, and a gate that admits all."""
    if retry is None:
        retry = RetryPolicy(max_attempts=10 * max(workers, 2),
                            base_delay=0.0002, max_delay=0.002,
                            jitter=0.5, seed=seed)
    if admission is None:
        admission = AdmissionController(max_active=max(2, workers),
                                        max_queue=4 * workers)
    return retry, admission


def _attempt(layer: SessionLayer, closure, timeout: Optional[float] = None,
             ) -> str:
    """Run one transaction; returns which tally bucket it landed in."""
    try:
        layer.run(closure, timeout=timeout)
    except Overloaded:
        return "shed"
    except DeadlineExceeded:
        return "deadline_exceeded"
    except SimulatedCrash:
        return "crashed"
    except ReproError:
        return "failed"
    return "committed"


def _ops_key(operations) -> tuple:
    """A comparable fingerprint of an operation batch (order preserved)."""
    return tuple(json.dumps(encode_operation(op), sort_keys=True)
                 for op in operations)


def _decided_batches(manager) -> set:
    """``(shard, operations fingerprint)`` of every prepared batch whose
    cross-shard transaction has a durable commit decision."""
    committed_gids = {
        entry["gid"] for entry in manager._decisions.read(recover=True)
        if entry.get("kind") == "decision"
        and entry.get("decision") == "commit"}
    decided: set = set()
    for sid in range(manager.shards):
        for entry in manager._prepares[sid].read(recover=True):
            if (entry.get("kind") == "prepare"
                    and entry["gid"] in committed_gids):
                decided.add((sid, tuple(json.dumps(op, sort_keys=True)
                                        for op in entry["operations"])))
    return decided


def _durable_prefix_ok(recovered: Sequence[Database],
                       live: Sequence[Database], decided: set) -> bool:
    """The durable-prefix audit (module docstring), pipeline by pipeline.

    The dead-after-crash I/O guarantees each journal is a clean prefix
    of its pipeline's serialized commit stream: once storage dies no
    later commit can append around the hole.
    """
    for sid, (rec_db, live_db) in enumerate(zip(recovered, live)):
        durable = list(rec_db.log)
        matched = 0
        for d, m in zip(durable, live_db.log):
            if (d.commit_time != m.commit_time
                    or _ops_key(d.operations) != _ops_key(m.operations)):
                break
            matched += 1
        # Anything past the common prefix must be a re-applied decided
        # cross-shard batch (fresh commit time, same operations).
        for record in durable[matched:]:
            if (sid, _ops_key(record.operations)) not in decided:
                return False
    return True


def _worker_keys(shards: Optional[int], sessions: int, keys: int,
                 placement: str) -> List[List[str]]:
    """Each worker's key set, placed per *placement*.

    ``"shared"``: every worker draws from the same *keys* rows — real
    write-write contention, the workload that makes "zero lost updates"
    a claim about validation rather than about luck.
    ``"scattered"``: worker *w* owns *keys* rows ``w<w>k0 …`` disjoint
    from every other worker's, hashing wherever crc32 sends them — every
    worker touches every shard.
    ``"aligned"``: worker *w*'s disjoint keys are filtered (by the same
    stable hash, so the choice survives restarts) to all live on shard
    ``w % shards`` — the well-partitioned deployment, where workload
    partitioning matches data partitioning and workers on different
    shards share nothing, not even a lock.
    """
    if placement == "shared":
        return [[f"k{i}" for i in range(keys)]] * sessions
    if placement == "scattered":
        return [[f"w{w}k{i}" for i in range(keys)] for w in range(sessions)]
    if placement != "aligned":
        raise ValueError(f"unknown placement {placement!r}")
    partitioner = Partitioner(shards or 1)
    worker_keys: List[List[str]] = []
    for w in range(sessions):
        target = w % partitioner.shards
        owned: List[str] = []
        candidate = 0
        while len(owned) < keys:
            key = f"w{w}k{candidate}"
            if partitioner.shard_of_key([key]) == target:
                owned.append(key)
            candidate += 1
        worker_keys.append(owned)
    return worker_keys


def _durability(directory: str, shards: Optional[int],
                io: Optional[StorageIO] = None):
    """The durability manager for *directory*: the unsharded product
    path behind ``repro serve --dir``, or the sharded one."""
    if shards is None:
        from repro.storage.recovery import DurabilityManager
        return DurabilityManager(directory, io=io)
    from repro.sharding.durability import ShardedDurabilityManager
    return ShardedDurabilityManager(directory, shards=shards, io=io)


def run_stress(kind: Type[Database] = TemporalDatabase,
               shards: Optional[int] = None,
               sessions: int = 8, transactions: int = 200,
               keys: int = 8, cross_ratio: float = 0.0, seed: int = 0,
               placement: str = "shared",
               retry: Optional[RetryPolicy] = None,
               admission: Optional[AdmissionController] = None,
               timeout: Optional[float] = None,
               faults: Optional[CrashPoint] = None,
               fault_at: int = 50,
               directory: Optional[str] = None,
               work: Optional[Callable[[], None]] = None,
               replicas: int = 0,
               trace_out: Optional[str] = None,
               events_out: Optional[str] = None,
               convergence_rounds: int = 512) -> StressReport:
    """Hammer a fresh store from *sessions* threads; audit the result.

    ``shards=None`` hammers a plain *kind* database; ``shards=N`` a
    :class:`~repro.sharding.store.ShardedDatabase` over N of them — the
    same program either way, through ``store.sessions()``.  Each worker
    runs *transactions* seeded transactions over its key set (*keys*
    rows, shared or per-worker per *placement* — :func:`_worker_keys`):
    a single-key increment via the targeted :meth:`ConcurrentSession.get
    <repro.concurrency.session.ConcurrentSession.get>` read (keeping the
    footprint on one shard) or, with probability *cross_ratio*, a
    two-key transfer — which exercises the 2PC path when the keys hash
    to different shards (under ``"aligned"`` placement they never do).
    ``retry`` defaults to a patient, near-sleepless policy (every
    transaction eventually commits); pass a bounded one plus a small
    ``admission`` queue to exercise load shedding instead.  ``work`` is
    an optional think-time callable invoked inside each transaction
    (e.g. a tiny sleep) to hold slots open and force interleaving.

    *directory* makes the store durable; ``faults`` (which requires it)
    switches to chaos mode: I/O dies at the *fault_at*-th matching
    write — wherever that lands: a journal append, a prepare, or the
    decision record — and the report carries the recovery audit fields.

    *replicas* > 0 (sharded stores) attaches a :class:`~repro.sharding.
    replication.ShardedPrimary` (chained *after* any durability hook, so
    published ⊆ durable) streaming to that many :class:`ShardedReplica`
    followers over an in-process transport; after the workers join, the
    streams are pumped to convergence and audited.  *trace_out* /
    *events_out* export the run's spans and lifecycle events as JSONL
    (the recording capacities are raised so a full run fits) — together
    with the reported ``sample_cross_txn`` these feed ``repro trace
    --txn``.
    """
    if faults is not None and directory is None:
        raise ValueError("chaos mode (faults=) needs a directory")
    if replicas > 0 and shards is None:
        raise ValueError("replicas= streams per shard and needs shards= "
                         "(run_replicated covers a single pipeline)")
    retry, admission = _patient_policies(sessions, seed, retry, admission)
    worker_keys = _worker_keys(shards, sessions, keys, placement)

    def _pipelines(store) -> List[Database]:
        """The commit pipelines: the shards, or the database itself."""
        return [store] if shards is None else store.shard_databases

    if directory is not None:
        io = (_DeadAfterCrashIO(FaultyIO(faults, at=fault_at))
              if faults is not None else None)
        store, _ = _durability(directory, shards, io).recover(kind)
        for pipeline in _pipelines(store):
            pipeline.manager.clock.source.set(_BASE)
    elif shards is None:
        store = kind(clock=SimulatedClock(_BASE))
    else:
        from repro.sharding.store import ShardedDatabase
        store = ShardedDatabase(kind, shards=shards,
                                clock=SimulatedClock(_BASE))
    pipelines = _pipelines(store)
    define_counters(store, list(dict.fromkeys(
        key for owned in worker_keys for key in owned)))

    # The primary chains onto each shard manager's ``on_commit`` *after*
    # the durability hook, so a record is never on the wire before it is
    # on disk; attached before the workers start so every commit ships
    # live, with its trace context on the record.
    primary = None
    followers: List[Any] = []
    if replicas > 0:
        from repro.replication.transport import InProcessTransport
        from repro.sharding.replication import (ShardedPrimary,
                                                ShardedReplica)
        transport = InProcessTransport()
        primary = ShardedPrimary("primary", store, transport)
        for index in range(replicas):
            follower = ShardedReplica(f"replica-{index}", kind, transport,
                                      "primary", shards=shards)
            primary.add_replica(follower)
            follower.request_catchup()
            followers.append(follower)

    layer = store.sessions(retry=retry, admission=admission)

    # A full run's lifecycle must fit in the rings when it is being
    # exported or replicated — an evicted span would orphan part of the
    # sample transaction's tree.
    span_capacity, event_capacity = 2048, 4096
    if trace_out is not None or events_out is not None or replicas > 0:
        budget = max(1, sessions * transactions)
        span_capacity = max(span_capacity, budget * 48)
        event_capacity = max(event_capacity, budget * 24)

    counts_lock = threading.Lock()
    counts = {"attempted": 0, "committed": 0, "shed": 0,
              "deadline_exceeded": 0, "crashed": 0, "failed": 0,
              "singles": 0, "cross_committed": 0}
    latencies: List[float] = []
    sample = {"txn": None}
    stop = threading.Event()

    def worker(worker_index: int) -> None:
        rng = random.Random((seed << 16) ^ worker_index)
        owned = worker_keys[worker_index]
        for _ in range(transactions):
            if stop.is_set():
                return
            is_transfer = rng.random() < cross_ratio
            txn_box: Dict[str, str] = {}
            spans = False
            if is_transfer:
                key_a, key_b = rng.sample(owned, 2)
                closure = transfer_closure(key_a, key_b, work, txn_box)
                spans = (store.read_footprint(RELATION, {"k": key_a})
                         != store.read_footprint(RELATION, {"k": key_b}))
            else:
                closure = increment_closure(
                    owned[rng.randrange(len(owned))], work)
            started = time.monotonic()
            outcome = _attempt(layer, closure, timeout)
            elapsed = time.monotonic() - started
            if outcome == "crashed":
                stop.set()
            with counts_lock:
                counts["attempted"] += 1
                counts[outcome] += 1
                if outcome == "committed":
                    latencies.append(elapsed)
                    if not is_transfer:
                        counts["singles"] += 1
                    if spans:
                        counts["cross_committed"] += 1
                        if sample["txn"] is None:
                            sample["txn"] = txn_box.get("txn")

    threads = [threading.Thread(target=worker, args=(i,), daemon=True)
               for i in range(sessions)]
    replica_applied: Optional[int] = None
    converged: Optional[bool] = None
    digest_match: Optional[bool] = None
    with obs.recording(capacity=span_capacity,
                       event_capacity=event_capacity) as instrumentation:
        started = time.monotonic()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.monotonic() - started
        if primary is not None:
            # Pump inside the recording window so replica-apply spans
            # (parented via the wire trace context) land in the ring.
            replica_applied = 0
            for _ in range(convergence_rounds):
                primary.pump()
                replica_applied += sum(follower.pump()
                                       for follower in followers)
                converged = all(
                    follower.applied_vector() == primary.current_vector()
                    for follower in followers)
                if converged:
                    break
            if faults is None:
                # A crash legally strands journaled-but-unpublished
                # commits on the primary, so state equality is only a
                # clean-run invariant.
                from repro.sharding.replication import combined_digest
                live = combined_digest(pipelines)
                digest_match = all(follower.digest() == live
                                   for follower in followers)
    snapshot = instrumentation.metrics.snapshot()
    metrics = snapshot["counters"]
    if trace_out is not None:
        instrumentation.tracer.export_jsonl(trace_out)
    if events_out is not None:
        instrumentation.events.export_jsonl(events_out)

    # -- audit ---------------------------------------------------------------
    applied = sum(row["v"] for row in store.snapshot(RELATION))
    audited = list(pipelines)  # every history that must be serial

    per_shard = [
        {"shard": sid,
         "commits": metrics.get(f"shard.{sid}.commits", 0),
         "conflicts": metrics.get(f"shard.{sid}.conflicts", 0)}
        for sid in range(shards or 0)
    ]

    recovery: Dict[str, Any] = {}
    prefix_ok: Optional[bool] = None
    unacknowledged: Optional[int] = None
    if faults is not None:
        fresh = _durability(directory, shards)
        recovered, report = fresh.recover(kind)
        recovery = report.describe()
        decided: set = set()
        if shards is not None:
            decided = _decided_batches(fresh)
            for entry, stats in zip(per_shard,
                                    fresh.shard_stats()["per_shard"]):
                entry["journal_bytes"] = stats["journal_bytes"]
                entry["records"] = stats["records"]
        prefix_ok = _durable_prefix_ok(_pipelines(recovered), pipelines,
                                       decided)
        unacknowledged = counts["crashed"] + counts["failed"]
        # In chaos mode the authoritative state is the recovered one;
        # audit the sum there.  An acknowledged commit journaled before
        # the ack, so the recovered sum can never fall short of the
        # acknowledged singles — a negative delta is a lost update.  It
        # may exceed them: a transaction whose decision became durable
        # before its error is applied by recovery without an ack.
        applied = sum(row["v"] for row in recovered.snapshot(RELATION))
        audited += _pipelines(recovered)

    monotone = True
    for pipeline in audited:
        times = [record.commit_time for record in pipeline.log]
        monotone = monotone and all(a < b for a, b in zip(times, times[1:]))
    serial_ok = all(_serial_replay_matches(pipeline, kind)
                    for pipeline in audited)
    ordered = sorted(latencies)
    p50, p95, p99 = ((quantile(ordered, q) for q in (0.50, 0.95, 0.99))
                     if ordered else (0.0, 0.0, 0.0))
    acknowledged = counts["singles"]
    delta = applied - acknowledged
    return StressReport(
        shards=shards,
        sessions=sessions,
        transactions_per_session=transactions,
        cross_ratio=cross_ratio,
        placement=placement,
        attempted=counts["attempted"],
        committed=counts["committed"],
        cross_shard_commits=counts["cross_committed"],
        conflicts=metrics.get("concurrency.conflicts", 0),
        retries=metrics.get("concurrency.retries", 0),
        shed=counts["shed"],
        deadline_exceeded=counts["deadline_exceeded"],
        crashed=counts["crashed"],
        failed=counts["failed"],
        wall_s=round(wall, 6),
        tps=round(counts["committed"] / wall, 3) if wall > 0 else 0.0,
        latency_p50_s=round(p50, 6),
        latency_p95_s=round(p95, 6),
        latency_p99_s=round(p99, 6),
        applied_increments=applied,
        acknowledged_increments=acknowledged,
        sum_delta=delta,
        lost_updates=max(0, -delta),
        commit_times_monotone=monotone,
        serial_equivalent=serial_ok,
        crash_injected=faults.value if faults is not None else None,
        recovered_records=recovery.get("records_total"),
        recovery_reapplied=recovery.get("reapplied"),
        recovery_in_doubt_aborted=recovery.get("in_doubt_aborted"),
        recovery_is_durable_prefix=prefix_ok,
        unacknowledged=unacknowledged,
        commit_latency=snapshot["histograms"].get(
            "concurrency.commit_seconds", {}),
        per_shard=per_shard,
        replicas=replicas,
        replica_records_applied=replica_applied,
        replica_converged=converged,
        replica_digest_match=digest_match,
        sample_cross_txn=sample["txn"],
        slo=instrumentation.slo.health(),
        trace_path=trace_out,
        events_path=events_out,
        spans_dropped=instrumentation.tracer.spans_dropped,
        events_dropped=instrumentation.events.dropped,
    )


# ---------------------------------------------------------------------------
# Replicated chaos mode
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class ReplicatedReport:
    """What one :func:`run_replicated` run did, and whether it held up."""

    writers: int
    transactions_per_writer: int
    replicas: int
    attempted: int
    committed: int
    shed: int
    deadline_exceeded: int
    failed: int
    wall_s: float
    #: A mid-run failover happened (``failover_at`` reached).
    failover_performed: bool
    #: The coordinator's digest audit of the promoted state (None when
    #: no digest history covered the promoted seq; False is a failure).
    promoted_prefix_verified: Optional[bool]
    final_epoch: int
    #: Sum of the counters on the surviving primary.
    applied_increments: int
    #: Commits acknowledged to a writer but absent from the surviving
    #: primary's state.  Must be zero: failover drains the old primary's
    #: full durable history before promotion.
    lost_durable_commits: int
    #: Every surviving replica reached the primary's seq and the exact
    #: same canonical state digest.
    replicas_converged: bool
    replica_applied: Dict[str, int]
    primary_seq: int
    #: Replicas that latched a DivergenceError (must be zero).
    diverged: int
    #: All surviving replicas serve a read at the newest commit token,
    #: and still refuse one past the primary's head.
    read_your_writes_ok: bool
    ryw_reads_lagging: int
    ryw_reads_served: int
    fenced_rejects: int
    snapshots_loaded: int
    duplicates_dropped: int
    gaps_detected: int
    #: The transport's fault tally (sent/dropped/duplicated/...).
    transport: Dict[str, int]

    @property
    def ok(self) -> bool:
        """All audited invariants held."""
        return (self.lost_durable_commits == 0
                and self.replicas_converged
                and self.diverged == 0
                and self.read_your_writes_ok
                and (not self.failover_performed
                     or self.promoted_prefix_verified is not False))

    def describe(self) -> Dict[str, Any]:
        """A plain dict (what ``repro replicate --json`` prints)."""
        data = dataclasses.asdict(self)
        data["ok"] = self.ok
        return data


def run_replicated(kind: Type[Database] = TemporalDatabase,
                   replicas: int = 2, writers: int = 4,
                   transactions: int = 40, keys: int = 8, seed: int = 0,
                   drop: float = 0.05, duplicate: float = 0.05,
                   reorder: float = 0.05, delay: float = 0.0,
                   partition_at: Optional[int] = None,
                   heal_at: Optional[int] = None,
                   failover_at: Optional[int] = None,
                   retry: Optional[RetryPolicy] = None,
                   admission: Optional[AdmissionController] = None,
                   convergence_rounds: int = 2000) -> ReplicatedReport:
    """Writers on a primary, readers on replicas, faults on the wire.

    *writers* threads run seeded increments through a
    :class:`SessionLayer` on the primary while a pump thread streams the
    journal to *replicas* replicas over a seeded
    :class:`~repro.replication.transport.FaultyTransport` (``drop`` /
    ``duplicate`` / ``reorder`` / ``delay`` probabilities).  The
    ``*_at`` knobs are committed-transaction thresholds: at
    ``partition_at`` the transport partitions the primary from the last
    replica (healed at ``heal_at``, or at the end); at ``failover_at``
    the writers are quiesced and the **first** replica is promoted
    through :class:`~repro.replication.failover.FailoverCoordinator` —
    the writers then resume against the promoted primary, epoch bumped,
    old primary fenced.

    The audit (see :class:`ReplicatedReport.ok`): zero acknowledged-but-
    lost commits, every surviving replica converges to the primary's
    exact canonical digest, nobody latched divergence, the promoted
    state was digest-verified as a prefix of the old primary's history,
    and read-your-writes tokens gate replica reads correctly.
    """
    from repro.replication import (FailoverCoordinator, FaultyTransport,
                                   Primary, Replica, state_digest)
    from repro.errors import ReplicaLagging, UnknownRelationError

    retry, admission = _patient_policies(writers, seed, retry, admission)

    transport = FaultyTransport(seed=seed, drop=drop, duplicate=duplicate,
                                reorder=reorder, delay=delay)
    database = kind(clock=SimulatedClock(_BASE))
    primary = Primary("primary", database, transport)
    define_counters(database, [f"k{i}" for i in range(keys)])

    replica_nodes = [Replica(f"replica-{i}", kind, transport, "primary")
                     for i in range(replicas)]
    for node in replica_nodes:
        primary.add_replica(node.node_id)
        node.request_catchup()

    # Shared control state.  ``gate`` pauses the writers for failover;
    # ``token_base`` maps a layer-local commit token to a global seq (a
    # promoted primary's log may be only the tail of global history).
    gate = threading.Condition()
    state = {"layer": SessionLayer(database, retry=retry,
                                   admission=admission),
             "primary": primary, "paused": False, "in_flight": 0,
             "token_base": 0, "serving": list(replica_nodes),
             "failover": None}
    counts_lock = threading.Lock()
    counts = {"attempted": 0, "committed": 0, "shed": 0,
              "deadline_exceeded": 0, "failed": 0,
              "latest_token": 0, "ryw_lagging": 0, "ryw_served": 0}

    def worker(worker_index: int) -> None:
        rng = random.Random((seed << 16) ^ worker_index)
        for _ in range(transactions):
            closure = increment_closure(f"k{rng.randrange(keys)}")
            box: Dict[str, Any] = {}

            def wrapped(session, _inner=closure, _box=box):
                _box["session"] = session
                return _inner(session)

            with gate:
                while state["paused"]:
                    gate.wait()
                state["in_flight"] += 1
                layer_now = state["layer"]
                base_now = state["token_base"]
            try:
                outcome = _attempt(layer_now, wrapped)
            finally:
                with gate:
                    state["in_flight"] -= 1
                    gate.notify_all()
            token = None
            if outcome == "committed" and "session" in box:
                local = box["session"].commit_token
                if local is not None:
                    token = base_now + local
            with counts_lock:
                counts["attempted"] += 1
                counts[outcome] += 1
                if token is not None:
                    counts["latest_token"] = max(counts["latest_token"],
                                                 token)

    def do_failover() -> None:
        """Quiesce the writers, promote the first replica, resume."""
        with gate:
            state["paused"] = True
            while state["in_flight"]:
                gate.wait()
            old = state["primary"]
            victim = state["serving"][0]
            others = [node for node in state["serving"]
                      if node is not victim]
            promoted, promotion = FailoverCoordinator(transport).promote(
                victim, old_primary=old,
                replicas=[node.node_id for node in others])
            state["primary"] = promoted
            state["layer"] = SessionLayer(promoted.database, retry=retry,
                                          admission=admission)
            state["token_base"] = promoted.floor
            state["serving"] = others
            state["failover"] = promotion
            state["paused"] = False
            gate.notify_all()

    stop_pump = threading.Event()
    triggers = {"partition": partition_at is None,
                "heal": heal_at is None,
                "failover": failover_at is None}

    def fire_triggers() -> None:
        with counts_lock:
            committed = counts["committed"]
        if (not triggers["partition"] and committed >= partition_at
                and len(replica_nodes) > 1):
            transport.partition(state["primary"].node_id,
                                replica_nodes[-1].node_id)
            triggers["partition"] = True
        if not triggers["heal"] and committed >= heal_at:
            transport.heal()
            triggers["heal"] = True
        if not triggers["failover"] and committed >= failover_at:
            do_failover()
            triggers["failover"] = True

    def pump_once(beat: int) -> None:
        current = state["primary"]
        current.pump()
        if beat % 5 == 0:
            current.heartbeat()
        with counts_lock:
            token = counts["latest_token"]
        for node in state["serving"]:
            node.pump()
            try:
                node.read(RELATION, token=token or None)
                served = True
            except (ReplicaLagging, UnknownRelationError):
                # UnknownRelation = so far behind even the schema-defining
                # commit has not arrived yet; that is lag, not an error.
                served = False
            with counts_lock:
                counts["ryw_served" if served else "ryw_lagging"] += 1

    def pumper() -> None:
        beat = 0
        while not stop_pump.is_set():
            fire_triggers()
            pump_once(beat)
            beat += 1
            time.sleep(0)

    threads = [threading.Thread(target=worker, args=(i,), daemon=True)
               for i in range(writers)]
    with obs.recording() as instrumentation:
        started = time.monotonic()
        pump_thread = threading.Thread(target=pumper, daemon=True)
        pump_thread.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stop_pump.set()
        pump_thread.join()
        # Late triggers the pump thread never saw (writers finished
        # first), then heal everything and drain to convergence.
        fire_triggers()
        transport.heal()
        final = state["primary"]
        serving = state["serving"]
        for round_index in range(convergence_rounds):
            pump_once(round_index)
            if all(node.applied_seq >= final.current_seq
                   and not transport.pending(node.node_id)
                   for node in serving):
                break
        final.heartbeat()
        final.pump()
        for node in serving:
            node.pump()
        wall = time.monotonic() - started
    metrics = instrumentation.metrics.snapshot()["counters"]

    # -- audit ---------------------------------------------------------------
    applied = sum(row["v"] for row in final.database.snapshot(RELATION))
    committed = counts["committed"]
    lost = max(0, committed - applied)
    primary_digest = state_digest(final.database)
    converged = all(
        node.applied_seq == final.current_seq
        and state_digest(node.database) == primary_digest
        for node in serving)
    diverged = sum(1 for node in serving if node.diverged)

    with counts_lock:
        latest_token = counts["latest_token"]
    ryw_ok = True
    for node in serving:
        try:
            node.read(RELATION, token=latest_token or None)
        except ReplicaLagging:
            ryw_ok = False
        try:
            node.read(RELATION, token=final.current_seq + 1)
        except ReplicaLagging as error:
            ryw_ok = ryw_ok and error.retryable
        else:
            ryw_ok = False  # a future token must not be served

    promotion = state["failover"]
    transport_tally = {
        name.rsplit(".", 1)[1]: count
        for name, count in sorted(metrics.items())
        if name.startswith("replication.transport.")}

    return ReplicatedReport(
        writers=writers,
        transactions_per_writer=transactions,
        replicas=replicas,
        attempted=counts["attempted"],
        committed=committed,
        shed=counts["shed"],
        deadline_exceeded=counts["deadline_exceeded"],
        failed=counts["failed"],
        wall_s=round(wall, 6),
        failover_performed=promotion is not None,
        promoted_prefix_verified=(promotion.prefix_verified
                                  if promotion is not None else None),
        final_epoch=final.epoch,
        applied_increments=applied,
        lost_durable_commits=lost,
        replicas_converged=converged,
        replica_applied={node.node_id: node.applied_seq
                         for node in serving},
        primary_seq=final.current_seq,
        diverged=diverged,
        read_your_writes_ok=ryw_ok,
        ryw_reads_lagging=counts["ryw_lagging"],
        ryw_reads_served=counts["ryw_served"],
        fenced_rejects=metrics.get("replication.fenced_rejects", 0),
        snapshots_loaded=metrics.get("replication.snapshots_loaded", 0),
        duplicates_dropped=metrics.get("replication.duplicates_dropped", 0),
        gaps_detected=metrics.get("replication.gaps_detected", 0),
        transport=transport_tally,
    )
