"""History lifecycle: checkpoint, restart, catch-up, digest, audit.

:func:`run_cycles` is the cycle every workload ends with, against its own
end state; the ``lifecycle`` workload is that cycle and nothing else,
over a deep history.  One cycle:

1. ``manager.checkpoint()``, :data:`CHECKPOINTS` times — each timed as
   the stall it imposes on the writer (it must run between transactions);
2. :data:`TAIL` more durable commits through ``Session.execute``;
3. a fresh ``DurabilityManager(dir).recover(...)`` timed from opening the
   directory to the first answered ``retrieve`` — the restart a user
   waits for;
4. cold reads on the recovered database, each checked against the live
   one;
5. ``state_digest(cache=False)`` of live and recovered state, which must
   be equal;
6. a replica one checkpoint behind calls ``request_catchup()`` and both
   sides ``pump()`` until it holds the :data:`TAIL`-record tail, timed
   through to the digest comparison that proves it equal;
7. ``audit_directory(dir)``, which must come back clean.

The replica is seeded once from the first checkpoint and then lives
across cycles: at every cycle it is exactly one checkpoint behind, which
is the state an O(Δ) catch-up (ROADMAP item 5) has to be fast from.
"""

from __future__ import annotations

import gc
import os
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import TemporalDatabase
from repro.replication import (InProcessTransport, Primary, Replica,
                               state_digest)
from repro.storage import DurabilityManager, audit_directory, read_checkpoint
from repro.time import Instant
from repro.tquel import Session

from benchmarks.spine import dataset as ds
from benchmarks.spine import harness, oracle, streams

RANGE = f"range of f is {ds.RELATION}"
#: Commits between a checkpoint and the restart that follows it (ISSUE 11
#: asked for 50; halved so that a run affords twice the cycles, because a
#: median of three restarts was at the mercy of one slow spell).
TAIL = 25
#: Reads against each freshly recovered database (the first one ends the
#: restart timing) when they are this workload's read metrics.  Many, so
#: that each cycle samples reads for a few hundred milliseconds: the box
#: has slow spells of about that length, and a shorter window is either
#: wholly inside one or wholly outside, which made ``read_p95_ms`` a coin.
COLD_READS = 200
#: The same, when the reads are only an oracle (other workloads' epilogue).
EPILOGUE_READS = 20
#: Every this-many-th cold read is answered by the live database too and
#: compared (the digests already prove the two states equal every cycle).
SAME_ANSWER_EVERY = 4
#: ``checkpoint()`` calls per cycle.  Only the first rotates the journal;
#: the others republish the same index, and each one stalls the writer for
#: a full serialisation + fsync, which is what is timed.
CHECKPOINTS = 3
#: Pump rounds before a catch-up is declared stuck.
MAX_PUMPS = 20


def new_samples() -> Dict[str, List[float]]:
    return {"checkpoint": [], "restart": [], "recover": [], "catchup": [],
            "apply": [], "digest": [], "audit": [], "checkpoint_bytes": [],
            "cycle_began": [], "cycle_ended": []}


def run_cycles(directory: str, manager: DurabilityManager,
               database: TemporalDatabase, spec: ds.DatasetSpec,
               pins: Sequence[Instant], seed: int, cycles: int,
               tally: harness.Tally, pace: harness.Pace, cap: harness.WallCap,
               timed_ops: bool) -> Tuple[Dict[str, List[float]], int]:
    """Run *cycles* lifecycle cycles; the first is warm-up and discarded.

    Returns ``(samples, user bytes written)``; the timings among the
    samples are seconds at reference speed (*pace* is probed around every
    timed step), ``cycle_began`` / ``cycle_ended`` are ``perf_counter``
    readings.  With *timed_ops* the tail commits and cold reads are
    recorded in *tally* as this workload's writes and reads (the
    ``lifecycle`` workload); without it they are still attempted, checked
    and counted when they fail, but their latencies belong to nobody (the
    other workloads' epilogue).
    """
    samples = new_samples()
    read_count = COLD_READS if timed_ops else EPILOGUE_READS
    session = Session(database)
    session.execute(RANGE)
    transport = InProcessTransport()
    replica: Optional[Replica] = None
    user_bytes = 0
    clock = time.perf_counter

    for cycle in range(cycles):
        if cap.expired:
            tally.abandon((cycles - cycle) * (TAIL + read_count + 3))
            break
        keep = cycle > 0
        gc.collect()
        cycle_began = clock()
        pace.sample(harness.PROBE_BURST)
        #: name -> ``(started, ended)`` of every timed step of this cycle.
        steps: Dict[str, List[Tuple[float, float]]] = {
            name: [] for name in ("checkpoint", "restart", "recover",
                                  "catchup", "apply", "digest", "audit")}

        for _ in range(CHECKPOINTS):
            _settle(pace)
            started = clock()
            checkpoint_path = manager.checkpoint()
            steps["checkpoint"].append((started, clock()))
        tally.attempted += 1
        base = manager.record_count
        if replica is None:
            replica = Replica("replica", TemporalDatabase, transport,
                              "primary")
            replica.load_snapshot(
                base, read_checkpoint(checkpoint_path)["database"])
        tally.expect(replica.applied_seq == base, "replica_behind_checkpoint")

        for op in streams.tail_commits(spec, seed, cycle, TAIL):
            tally.attempted += 1
            pace.tick()
            started = clock()
            try:
                session.execute(op.text)
            except Exception as error:  # noqa: BLE001 - tallied by class
                tally.fail(error)
                continue
            elapsed = clock() - started
            if timed_ops and keep:
                tally.ok(op, started, elapsed)
            user_bytes += ds.value_bytes({"salary": op.salary})

        reads = streams.cold_reads(spec, pins, seed, cycle, read_count)
        tally.attempted += 1
        _settle(pace)
        started = clock()
        recovered, report = DurabilityManager(directory).recover(
            TemporalDatabase)
        steps["recover"].append((started, clock()))
        cold = Session(recovered)
        cold.execute(RANGE)
        first = cold.execute(reads[0].text)
        steps["restart"].append((started, clock()))
        pace.sample(harness.PROBE_BURST)
        tally.expect(report.checkpoint_index == base
                     and report.records_replayed == TAIL,
                     "restart_used_wrong_checkpoint")
        _same_answer(tally, pace, session, reads[0], first)

        for index, op in enumerate(reads[1:]):
            tally.attempted += 1
            pace.tick()
            started = clock()
            try:
                answer = cold.execute(op.text)
            except Exception as error:  # noqa: BLE001 - tallied by class
                tally.fail(error)
                continue
            ended = clock()
            if timed_ops and keep:
                tally.ok(op, started, ended - started)
            if index % SAME_ANSWER_EVERY == 0:
                _same_answer(tally, pace, session, op, answer)

        pace.sample(harness.PROBE_BURST)
        started = clock()
        live_digest = state_digest(database, cache=False)
        steps["digest"].append((started, clock()))
        tally.expect(state_digest(recovered, cache=False) == live_digest,
                     "recovered_digest_differs")

        primary = Primary("primary", recovered, transport, floor=base,
                          chain_head=report.chain_head)
        primary.add_replica(replica.node_id)
        target = base + TAIL
        tally.attempted += 1
        _settle(pace)
        started = clock()
        replica.request_catchup()
        for _ in range(MAX_PUMPS):
            primary.pump()
            replica.pump()
            if replica.applied_seq >= target:
                break
        steps["apply"].append((started, clock()))
        caught_up = (replica.applied_seq == target
                     and state_digest(replica.database, cache=False)
                     == live_digest)
        steps["catchup"].append((started, clock()))
        tally.expect(caught_up, "replica_digest_differs")

        pace.sample(harness.PROBE_BURST)
        started = clock()
        audit = audit_directory(directory)
        steps["audit"].append((started, clock()))
        tally.expect(not audit.findings, "audit_found_damage")
        pace.sample(harness.PROBE_BURST)
        cycle_ended = clock()

        if keep:
            for name, intervals in steps.items():
                samples[name].extend(pace.span(*interval)
                                     for interval in intervals)
            samples["checkpoint_bytes"].append(
                float(os.path.getsize(checkpoint_path)))
            samples["cycle_began"].append(cycle_began)
            samples["cycle_ended"].append(cycle_ended)
    return samples, user_bytes


def _settle(pace: harness.Pace) -> None:
    """Before a timed step that runs once: collect, then probe.

    A checkpoint, a restart or a catch-up allocates enough to trip a full
    collection of a heap that holds three databases, at a point that
    wanders from call to call — checkpoints of 38-72 ms where 37-45 ms is
    the work, catch-ups of 100 or 150 ms.  Each starts from the same
    collector state instead; the collection itself is untimed.
    """
    began = time.perf_counter()
    gc.collect()
    pace.pause(began, time.perf_counter())
    pace.sample(harness.PROBE_BURST)


def _same_answer(tally: harness.Tally, pace: harness.Pace, live: Session,
                 op: streams.Op, answer: Any) -> None:
    """The recovered database must answer *op* as the live one does
    (untimed: the comparison is no part of the cycle's measured wall)."""
    began = time.perf_counter()
    expected = oracle.canonical(oracle.to_wire_rows(live.execute(op.text)))
    tally.expect(oracle.canonical(oracle.to_wire_rows(answer)) == expected,
                 f"recovered_{op.shape}_differs")
    pace.pause(began, time.perf_counter())


def durable_dataset(directory: str, dataset_plan: ds.DatasetPlan,
                    tick: Callable[[], None] = lambda: None
                    ) -> Tuple[DurabilityManager, TemporalDatabase,
                               ds.Dataset]:
    """Build *dataset_plan* in a fresh durability directory."""
    manager = DurabilityManager(directory)
    database, _ = manager.recover(TemporalDatabase)
    return manager, database, ds.apply(dataset_plan, database, tick)
