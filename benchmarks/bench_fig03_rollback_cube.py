"""Figure 3 — a static rollback relation as a sequence of states.

Reproduces the paper's three-transaction narrative as the sequence of
states — "(1) the addition of three tuples, (2) the addition of a
tuple, and (3) the deletion of one tuple (entered in the first
transaction) and the addition of another" — read as a view of the
tuple stamps of Figure 4 (``states()``), and benchmarks the rollback
(vertical-slice) operation over it.

Run:  pytest benchmarks/bench_fig03_rollback_cube.py --benchmark-only -s
"""

from repro.core import RollbackDatabase
from repro.relational import Domain, Schema
from repro.time import SimulatedClock


def build_cube():
    clock = SimulatedClock("01/01/80")
    database = RollbackDatabase(clock=clock)
    database.define("r", Schema.of(name=Domain.STRING))
    with database.begin() as txn:  # transaction 1: add three tuples
        for name in ("a", "b", "c"):
            database.insert("r", {"name": name}, txn=txn)
    clock.advance(1)
    database.insert("r", {"name": "d"})  # transaction 2: add one
    clock.advance(1)
    with database.begin() as txn:  # transaction 3: delete one, add one
        database.delete("r", {"name": "a"}, txn=txn)
        database.insert("r", {"name": "e"}, txn=txn)
    return database


def test_figure_3(benchmark):
    database = build_cube()
    states = database.store("r").states()

    def rollback_all():
        return [database.rollback("r", when) for when, _ in states]

    slices = benchmark(rollback_all)

    # The cube: three appended static states, exactly as the narrative says.
    assert [len(state) for _, state in states] == [3, 4, 4]
    assert {row["name"] for row in slices[0]} == {"a", "b", "c"}
    assert {row["name"] for row in slices[1]} == {"a", "b", "c", "d"}
    assert {row["name"] for row in slices[2]} == {"b", "c", "d", "e"}
    # Before the first transaction: the null relation.
    assert database.rollback("r", "01/01/79").is_empty

    print()
    print("Figure 3: a static rollback relation (sequence of states)")
    for index, (when, state) in enumerate(states, start=1):
        names = ", ".join(sorted(state.column("name")))
        print(f"  after transaction {index} (at {when}): {{{names}}}")
