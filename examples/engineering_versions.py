#!/usr/bin/env python3
"""Engineering version control on a static rollback database.

The paper cites "release dates of engineering versions" as a motivating
case (§2.1), drawing on the CAM-database work it surveys (Mueller &
Steinbauer 1983 in Figures 1 and 13).  This example manages part revisions
in a RollbackDatabase:

- the *current* state is the released bill of materials;
- ``as of`` reconstructs exactly what was released on any historical date
  — "which revisions shipped in the build of 03/15/80?";
- the Figure-4 interval table is compared for storage with the Figure-3
  state cube it answers for;
- vacuuming shows the controlled way to retire ancient history.

Run:  python examples/engineering_versions.py
"""

from repro import Domain, RollbackDatabase, Schema, SimulatedClock
from repro.core import vacuum_store
from repro.tquel import Session
from repro.tquel.printer import render_rollback


def build():
    clock = SimulatedClock("01/01/80")
    database = RollbackDatabase(clock=clock)
    session = Session(database)
    session.execute("create parts (part = string, revision = integer, "
                    "status = string) key (part)")
    session.execute("range of p is parts")

    timeline = [
        ("01/05/80", 'append to parts (part = "rotor", revision = 1, '
                     'status = "released")'),
        ("01/20/80", 'append to parts (part = "stator", revision = 1, '
                     'status = "released")'),
        ("02/11/80", 'append to parts (part = "housing", revision = 1, '
                     'status = "released")'),
        # rotor rev 2 qualifies
        ("03/02/80", 'replace p (revision = 2) where p.part = "rotor"'),
        # stator rev 1 recalled, rev 2 rushed out
        ("04/18/80", 'replace p (revision = 2, status = "recalled") '
                     'where p.part = "stator"'),
        ("04/25/80", 'replace p (status = "released") '
                     'where p.part = "stator"'),
        # housing discontinued
        ("06/30/80", 'delete p where p.part = "housing"'),
        # rotor rev 3
        ("09/14/80", 'replace p (revision = 3) where p.part = "rotor"'),
    ]
    for day, statement in timeline:
        clock.set(day)
        session.execute(statement)
    return session, clock


def main():
    session, clock = build()
    database = session.database

    print("Current released parts:")
    print(session.show("retrieve (p.part, p.revision, p.status) "
                       "sort by part"))

    print()
    print("What shipped in the 03/15/80 build? (rollback)")
    print(session.show('retrieve (p.part, p.revision) as of "03/15/80" '
                       "sort by part"))

    print()
    print("Full transaction-time record (the Figure-4 representation):")
    print(render_rollback(database.store("parts"), "parts"))

    print()
    print("Was the recalled stator ever in a shipped build?")
    for probe in ("04/20/80", "04/26/80"):
        state = database.rollback("parts", probe)
        stator = state.select(lambda row: row["part"] == "stator")
        status = stator.column("status")[0] if len(stator) else "absent"
        print(f"  build of {probe}: stator is {status}")

    # -- storage: the paper's duplication argument -----------------------------
    print()
    print("Storage, interval table vs. state cube "
          "(the paper calls the cube 'impractical'):")
    parts = database.store("parts")
    interval_cells, states_cells = parts.storage_cells(), parts.cube_cells()
    print(f"  interval representation: {interval_cells:5d} stored cells")
    print(f"  state-cube representation: {states_cells:3d} stored cells "
          f"({states_cells / interval_cells:.1f}x)")

    # -- vacuuming --------------------------------------------------------------
    print()
    print("Retiring history before 06/01/80 (vacuum):")
    store = database.store("parts")
    vacuumed = vacuum_store(store, "06/01/80")
    print(f"  rows before: {len(store)}, after: {len(vacuumed)}")
    print(f"  rollback to 09/14/80 unchanged: "
          f"{vacuumed.rollback('09/14/80') == store.rollback('09/14/80')}")
    print(f"  rollback to 03/15/80 now empty: "
          f"{vacuumed.rollback('03/15/80').is_empty}")


if __name__ == "__main__":
    main()
