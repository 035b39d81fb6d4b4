"""Storage: the state cube vs. the interval table (§4.2's claim).

The paper: implementing a static rollback relation as a sequence of
states "is impractical, due to excessive duplication: the tuples that
don't change between states must be duplicated in the new state".  This
bench makes the claim quantitative — it applies the faculty workload to
one rollback database per size and reports the cells its stamped table
stores (``storage_cells()``) beside the cells the sequence of states it
answers for would store (``cube_cells()``, one state per change) as the
history grows.

Expected shape: interval storage grows ~linearly in the number of
*changes*; the cube grows ~quadratically (each of the T transactions
re-stores the full O(T)-sized state), so the ratio grows roughly
linearly with history length.

Run:  pytest benchmarks/bench_storage_duplication.py --benchmark-only -s
"""

from repro.core import RollbackDatabase
from repro.time import SimulatedClock
from repro.workload import FacultyWorkload, apply_workload

SIZES = [10, 20, 40, 80]


def storage_for(people):
    workload = FacultyWorkload(people=people, events_per_person=4, seed=42)
    database = RollbackDatabase(clock=SimulatedClock("01/01/79"))
    transactions = apply_workload(database, workload)
    store = database.store("faculty")
    return store.storage_cells(), store.cube_cells(), transactions


def test_storage_duplication(benchmark):
    rows = []
    for people in SIZES:
        interval_cells, states_cells, transactions = storage_for(people)
        rows.append((people, transactions, interval_cells, states_cells,
                     states_cells / interval_cells))

    # The paper's claim, checked: the cube always costs more, and the
    # blow-up worsens as history grows.
    ratios = [ratio for *_, ratio in rows]
    assert all(ratio > 1.0 for ratio in ratios)
    assert ratios[-1] > ratios[0]

    # Benchmark the workload application itself.
    benchmark(storage_for, SIZES[0])

    print()
    print("Storage: interval-stamped table vs. state cube (stored cells)")
    print(f"{'people':>7} {'txns':>5} {'interval':>9} {'cube':>10} "
          f"{'cube/interval':>14}")
    for people, transactions, interval_cells, states_cells, ratio in rows:
        print(f"{people:>7} {transactions:>5} {interval_cells:>9} "
              f"{states_cells:>10} {ratio:>13.1f}x")
    print()
    print('§4.2: the cube is "impractical, due to excessive duplication" —')
    print("the ratio grows with history length, as predicted.")
