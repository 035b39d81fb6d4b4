"""The three in-process workloads: history, ingest and lifecycle.

All three drive the library from one thread of this process, closed
loop: the next op is issued when the previous one has returned.  They
differ in which layers carry the load (see ``README.md``):

- ``embedded-history`` — ``Session.execute`` over a deep bitemporal
  history; ``tquel`` evaluation and ``core`` do the work.
- ``embedded-ingest`` — read-modify-write transactions through
  ``db.sessions().run(closure)`` on a durable database; ``core`` apply,
  ``txn``, ``concurrency`` and ``storage`` append do the work.
- ``lifecycle`` — checkpoint / restart / catch-up cycles over a deep
  durable history; ``storage`` and ``replication`` do the work.
"""

from __future__ import annotations

import gc
import shutil
import tempfile
import time
from typing import Any, Dict, List, Tuple

from repro.core import TemporalDatabase
from repro.replication import state_digest
from repro.storage import DurabilityManager
from repro.time import Instant
from repro.tquel import Session

from benchmarks.spine import dataset as ds
from benchmarks.spine import harness, lifecycle, oracle, streams
from benchmarks.spine.sizing import Sizing

#: Every this-many-th read of ``embedded-history`` is re-run under the
#: naive plan (the executable specification) and compared.
NAIVE_EVERY = 50


def _finish(name: str, seed: int, seconds: float, tally: harness.Tally,
            pace: harness.Pace, began: float, ended: float,
            setup_samples: List[float],
            cycle_samples: Dict[str, List[float]], disk_ratio: float,
            notes: Dict[str, Any]) -> harness.RunResult:
    metrics = harness.end_to_end(tally, pace, began, ended, setup_samples,
                                 cycle_samples, disk_ratio,
                                 harness.vm_hwm_mb(), notes)
    return harness.result(name, seed, seconds, False, tally, metrics, notes)


def _durable_setups(parent: str, dataset_plan: ds.DatasetPlan, repeats: int,
                    pace: harness.Pace):
    """Timed set-ups of a durable dataset, each in its own directory under
    *parent*; returns ``((directory, manager, database, data), samples)``."""
    def build():
        directory = tempfile.mkdtemp(prefix="d", dir=parent)
        return (directory,) + lifecycle.durable_dataset(
            directory, dataset_plan, pace.tick)

    return harness.timed_setups(
        build, lambda built: shutil.rmtree(built[0]), repeats, pace)


def run_history(sizing: Sizing, seed: int, seconds: float) -> harness.RunResult:
    dataset_plan = ds.plan(sizing.dataset, seed)
    pace = harness.Pace()

    def build() -> Tuple[TemporalDatabase, ds.Dataset]:
        database = ds.fresh_database()
        return database, ds.apply(dataset_plan, database, pace.tick)

    (database, data), setup_samples = harness.timed_setups(
        build, lambda built: None, sizing.setups, pace)
    session = Session(database)
    session.execute(lifecycle.RANGE)
    naive = Session(database, plan="naive", ranges=session.ranges)
    ops = streams.history(sizing.dataset, data.pins, seed,
                          sizing.op_count(seconds))
    tally = harness.Tally()
    cap = harness.WallCap(seconds)
    user_bytes = data.user_bytes
    busy = 0.0
    reads_seen = 0
    gc.collect()
    pace.sample(harness.PROBE_BURST)
    began = time.perf_counter()
    for index, op in enumerate(ops):
        if cap.expired:
            tally.abandon(len(ops) - index)
            break
        tally.attempted += 1
        pace.tick()
        started = time.perf_counter()
        try:
            answer = session.execute(op.text)
        except Exception as error:  # noqa: BLE001 - tallied by class
            tally.fail(error)
            continue
        elapsed = time.perf_counter() - started
        busy += elapsed
        tally.ok(op, started, elapsed)
        if op.is_write:
            user_bytes += ds.value_bytes({"salary": op.salary})
            continue
        reads_seen += 1
        if reads_seen % NAIVE_EVERY == 1:
            check_began = time.perf_counter()
            expected = oracle.canonical(oracle.to_wire_rows(
                naive.execute(op.text)))
            tally.expect(oracle.canonical(oracle.to_wire_rows(answer))
                         == expected, f"{op.shape}_differs_from_naive")
            pace.pause(check_began, time.perf_counter())
    ended = time.perf_counter()
    pace.sample(harness.PROBE_BURST)
    lateness = 1 - busy / (ended - began - pace.out(began, ended))
    cache = database.result_cache

    with harness.scratch_dir("history") as directory:
        manager = DurabilityManager(directory)
        manager.attach(database)
        disk_ratio = harness.dir_bytes(directory) / user_bytes
        cycle_samples, _ = lifecycle.run_cycles(
            directory, manager, database, sizing.dataset, data.pins, seed,
            sizing.cycles, tally, pace, cap, timed_ops=False)
    return _finish("embedded-history", seed, seconds, tally, pace, began,
                   ended, setup_samples, cycle_samples, disk_ratio, {
                       "generator_lateness_share": lateness,
                       "resultcache_hits": cache.hits,
                       "resultcache_misses": cache.misses,
                       "naive_rechecks": (reads_seen + NAIVE_EVERY - 1)
                       // NAIVE_EVERY,
                   })


def run_ingest(sizing: Sizing, seed: int, seconds: float) -> harness.RunResult:
    dataset_plan = ds.plan(sizing.dataset, seed)
    pace = harness.Pace()
    with harness.scratch_dir("ingest") as parent:
        (directory, manager, database, data), setup_samples = \
            _durable_setups(parent, dataset_plan, sizing.setups, pace)
        layer = database.sessions()
        ops = streams.ingest(sizing.dataset, data.pins, seed,
                             sizing.op_count(seconds))
        tally = harness.Tally()
        cap = harness.WallCap(seconds)
        user_bytes = data.user_bytes
        increments = 0
        busy = 0.0
        last_commit = data.pins[-1]
        gc.collect()
        pace.sample(harness.PROBE_BURST)
        began = time.perf_counter()
        for index, op in enumerate(ops):
            if cap.expired:
                tally.abandon(len(ops) - index)
                break
            tally.attempted += 1
            seen: Dict[str, Any] = {}
            closure = (rmw(op, seen) if op.shape == "rmw"
                       else _read_only(op, seen))
            pace.tick()
            started = time.perf_counter()
            try:
                layer.run(closure, timeout=harness.BUDGET_MS / 1e3)
            except Exception as error:  # noqa: BLE001 - tallied by class
                tally.fail(error)
                continue
            elapsed = time.perf_counter() - started
            busy += elapsed
            tally.ok(op, started, elapsed)
            committed = seen["session"].commit_time
            if op.shape == "rmw":
                increments += 1
                user_bytes += ds.value_bytes({"salary": seen["salary"]})
                tally.expect(committed is not None
                             and committed > last_commit,
                             "commit_time_not_monotone")
                last_commit = committed
            else:
                tally.expect(committed is None, "read_only_session_committed")
        ended = time.perf_counter()
        pace.sample(harness.PROBE_BURST)
        lateness = 1 - busy / (ended - began - pace.out(began, ended))

        initial = oracle.FacultyModel(dataset_plan).total_salary()
        final = sum(row["salary"] for row in database.snapshot(ds.RELATION))
        tally.expect(final - initial == increments, "lost_or_phantom_update")
        disk_ratio = harness.dir_bytes(directory) / user_bytes
        cycle_samples, _ = lifecycle.run_cycles(
            directory, manager, database, sizing.dataset, data.pins, seed,
            sizing.cycles, tally, pace, cap, timed_ops=False)
    return _finish("embedded-ingest", seed, seconds, tally, pace, began,
                   ended, setup_samples, cycle_samples, disk_ratio, {
                       "generator_lateness_share": lateness,
                       "committed_transactions": increments,
                   })


def rmw(op: streams.Op, seen: Dict[str, Any]):
    """Read the key's salary from a tracked snapshot, write it back + 1."""
    def closure(session) -> None:
        current = next(row["salary"] for row in session.read(ds.RELATION)
                       if row["name"] == op.name)
        session.replace(ds.RELATION, {"name": op.name},
                        {"salary": current + 1})
        seen["session"] = session
        seen["salary"] = current + 1
    return closure


def _read_only(op: streams.Op, seen: Dict[str, Any]):
    """Two tracked reads and no write: certified read-only at commit."""
    def closure(session) -> None:
        session.read(ds.RELATION)
        session.rollback(ds.RELATION, Instant.from_chronon(op.pin))
        seen["session"] = session
    return closure


def run_lifecycle(sizing: Sizing, seed: int,
                  seconds: float) -> harness.RunResult:
    dataset_plan = ds.plan(sizing.dataset, seed)
    pace = harness.Pace()
    with harness.scratch_dir("lifecycle") as parent:
        (directory, manager, database, data), setup_samples = \
            _durable_setups(parent, dataset_plan, sizing.setups, pace)
        tally = harness.Tally()
        cap = harness.WallCap(seconds)
        cycles = sizing.cycle_count(seconds)
        cycle_samples, tail_bytes = lifecycle.run_cycles(
            directory, manager, database, sizing.dataset, data.pins, seed,
            cycles, tally, pace, cap, timed_ops=True)
        # The measured phase is the kept cycles: the warm-up cycle's ops are
        # not in the tally, so its wall is not in the denominator, and
        # neither is the collector run between two cycles.
        began = cycle_samples["cycle_began"][0]
        ended = cycle_samples["cycle_ended"][-1]
        for gap in zip(cycle_samples["cycle_ended"],
                       cycle_samples["cycle_began"][1:]):
            pace.pause(*gap)

        replay_began = time.perf_counter()
        replayed, report = DurabilityManager(directory).recover(
            TemporalDatabase, use_checkpoint=False)
        full_replay = time.perf_counter() - replay_began
        tally.attempted += 1
        tally.expect(report.full_replay
                     and state_digest(replayed, cache=False)
                     == state_digest(database, cache=False),
                     "full_replay_differs_from_checkpoint_plus_tail")
        disk_ratio = (harness.dir_bytes(directory)
                      / (data.user_bytes + tail_bytes))
    return _finish("lifecycle", seed, seconds, tally, pace, began, ended,
                   setup_samples, cycle_samples, disk_ratio, {
                       "cycles_kept": len(cycle_samples["restart"]),
                       "full_replay_ms": full_replay * 1e3,
                       "records_total": report.records_total,
                   })
