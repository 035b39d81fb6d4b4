"""Indexed vs. scanned rollback: what the interval tree buys.

A transaction-time store answers ``rollback`` by scanning its rows.  The
transaction-time index of :mod:`repro.core.indexing` replaces the scan
with an O(log n + k) stab.  This bench sweeps store sizes and reports both
paths (answers asserted equal first), showing where indexing starts to
pay: scan cost grows linearly with rows, stab cost with log(rows) plus
matches.

Run:  pytest benchmarks/bench_indexing.py --benchmark-only -s
"""

import time

from repro.core import TemporalDatabase, TransactionTimeIndex
from repro.time import Instant, SimulatedClock
from repro.workload import FacultyWorkload, apply_workload

SIZES = [10, 30, 90]
REPEATS = 200


def build(people):
    database = TemporalDatabase(clock=SimulatedClock("01/01/79"))
    apply_workload(database, FacultyWorkload(people=people,
                                             events_per_person=5, seed=23))
    return database.temporal("faculty")


def latency(operation, repeats=REPEATS):
    start = time.perf_counter()
    for _ in range(repeats):
        operation()
    return (time.perf_counter() - start) / repeats * 1e6


def test_indexing(benchmark):
    probe = Instant.parse("06/01/81")
    rows = []
    for people in SIZES:
        relation = build(people)
        index = TransactionTimeIndex(relation)
        # Correctness before speed.
        assert index.rollback(probe) == relation.rollback(probe)
        scan_us = latency(lambda: relation.rollback(probe))
        # (the index builds its tree on the first read that needs it)
        build_us = latency(lambda: TransactionTimeIndex(relation).visible(
            probe), repeats=10)
        stab_us = latency(lambda: index.rollback(probe))
        rows.append((people, len(relation), scan_us, stab_us, build_us))

    relation = build(SIZES[-1])
    index = TransactionTimeIndex(relation)
    benchmark(index.rollback, probe)

    print()
    print("rollback: row scan vs. interval-tree stab (microseconds)")
    print(f"{'people':>7} {'rows':>6} {'scan':>8} {'stab':>8} "
          f"{'speedup':>8} {'build':>9}")
    for people, count, scan_us, stab_us, build_us in rows:
        print(f"{people:>7} {count:>6} {scan_us:>8.1f} {stab_us:>8.1f} "
              f"{scan_us / stab_us:>7.1f}x {build_us:>9.1f}")
    print()
    print("the index amortizes after build/(scan-stab) queries against an")
    print("unchanged store; DatabaseIndexCache reuses it until the next "
          "commit.")

    # Shape: the speedup grows with store size.
    speedups = [scan / stab for _, _, scan, stab, _ in rows]
    assert speedups[-1] > speedups[0]
