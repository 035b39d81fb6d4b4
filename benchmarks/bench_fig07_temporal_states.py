"""Figure 7 — a temporal relation as a sequence of historical states.

Reproduces the four-transaction narrative of Figure 7 — "(1) three tuples
were added, (2) one tuple was added, (3) one tuple was added and an
existing one deleted, and (4) a previous tuple was deleted (presumably it
should not have been there in the first place)" — and benchmarks
materializing the full sequence of historical states (the 4-D cube).

Run:  pytest benchmarks/bench_fig07_temporal_states.py --benchmark-only -s
"""

from repro.core import TemporalDatabase
from repro.relational import Domain, Schema
from repro.time import SimulatedClock


def build():
    clock = SimulatedClock("01/01/80")
    database = TemporalDatabase(clock=clock)
    database.define("r", Schema.of(name=Domain.STRING))
    with database.begin() as txn:  # (1) three tuples added
        for name in ("a", "b", "c"):
            database.insert("r", {"name": name}, valid_from="01/01/80",
                            txn=txn)
    clock.advance(1)  # (2) one tuple added
    database.insert("r", {"name": "d"}, valid_from="01/02/80")
    clock.advance(1)  # (3) one added, one deleted
    with database.begin() as txn:
        database.insert("r", {"name": "e"}, valid_from="01/03/80", txn=txn)
        database.delete("r", {"name": "a"}, valid_from="01/03/80", txn=txn)
    clock.advance(1)  # (4) an erroneous tuple deleted outright
    database.delete("r", {"name": "b"})
    return database


def test_figure_7(benchmark):
    database = build()
    relation = database.temporal("r")

    states = benchmark(relation.states)

    assert len(states) == 4
    # Each transaction appended a new historical state; the current
    # (post-correction) state no longer contains 'b' at any valid time...
    final = states[-1][1]
    assert all("b" != row.data["name"] for row in final.rows)
    # ...but the state as of transaction 3 still believed in 'b'.
    assert any(row.data["name"] == "b" for row in states[2][1].rows)
    # Rollback of the temporal relation is a historical relation, on which
    # a historical query (timeslice) runs — the paper's composition.
    assert states[2][1].timeslice("01/02/80").column("name")

    print()
    print("Figure 7: a temporal relation (sequence of historical states)")
    for index, (when, state) in enumerate(states, start=1):
        summary = "; ".join(
            f"{row.data['name']}@{row.valid}" for row in sorted(
                state.rows, key=lambda r: r.data["name"]))
        print(f"  historical state after transaction {index} ({when}):")
        print(f"    {summary or '(empty)'}")
