"""Rollback (as-of) query cost vs. history length.

A rollback relation stores each tuple once, stamped with its
transaction time (Figure 4), and answers ``rollback(t)`` from its
transaction-time index.  This bench measures that latency as history
grows.

Run:  pytest benchmarks/bench_rollback_cost.py --benchmark-only -s
"""

import time

from repro.core import RollbackDatabase
from repro.time import Instant, SimulatedClock
from repro.workload import FacultyWorkload, apply_workload

SIZES = [10, 20, 40, 80]
PROBE_REPEATS = 200


def build(people):
    workload = FacultyWorkload(people=people, events_per_person=4, seed=7)
    database = RollbackDatabase(clock=SimulatedClock("01/01/79"))
    apply_workload(database, workload)
    return database


def rollback_latency(database, probes):
    start = time.perf_counter()
    for _ in range(PROBE_REPEATS // len(probes)):
        for probe in probes:
            database.rollback("faculty", probe)
    elapsed = time.perf_counter() - start
    return elapsed / PROBE_REPEATS


def test_rollback_cost(benchmark):
    probes = [Instant.parse("06/01/80"), Instant.parse("06/01/81"),
              Instant.parse("06/01/82"), Instant.parse("06/01/83")]
    rows = []
    for people in SIZES:
        database = build(people)
        rows.append((people, len(database.store("faculty")),
                     rollback_latency(database, probes) * 1e6))

    # The benchmark fixture times the mid size.
    database = build(SIZES[2])
    benchmark(database.rollback, "faculty", probes[1])

    print()
    print("rollback(t) latency vs. history size (microseconds/query)")
    print(f"{'people':>7} {'tt rows':>8} {'interval':>10}")
    for people, tt_rows, interval_us in rows:
        print(f"{people:>7} {tt_rows:>8} {interval_us:>10.1f}")
