"""Shared observational probes for the durability test suites.

Recovery correctness here is *observational*: a recovered database must
answer every query its kind supports exactly like the database that
never crashed.  These helpers collect those answers:

- :func:`observations` — the kind-aware query fingerprint (snapshot,
  rollbacks, timeslices, history, temporal rows at fixed probe
  instants).  Deliberately excludes the in-memory commit log: after a
  checkpoint recovery the log holds only the replayed tail, and the
  durability contract promises identical *answers*, not an identical
  in-memory log.
- :func:`paper_answers` — the paper's §4.1–§4.4 TQuel queries (Figures
  2–9 scenario), asked through a real :class:`~repro.tquel.Session`.
- :func:`faculty_steps` / :func:`drive_faculty` — the conftest faculty
  narrative as a resumable step list, so fault tests can crash between
  any two transactions and finish the rest after recovery.
- :func:`unsealed_twin` / :func:`findings` — the reference an audit of
  sealed segments is held to: the same bytes under checkpoints that
  record no fold, which every audit walks record by record.
- :func:`files` / :func:`assert_refused` — recovery refusing a damaged
  directory: a typed error, and not one byte of it changed.
"""

import os
import shutil

import pytest

from repro.core import TemporalDatabase
from repro.errors import ChainError, JournalError
from repro.storage import (CHECKPOINT_TAG, CheckpointStore, DurabilityManager,
                           frame_record, read_checkpoint_head)
from repro.tquel import Session

from tests.conftest import faculty_schema

#: Instants straddling every interesting edge of the faculty scenario
#: and the generated workloads (which start at the 01/01/80 epoch).
PROBE_INSTANTS = (
    "06/01/78", "06/01/80", "06/01/81", "03/01/82", "12/10/82",
    "12/20/82", "06/01/83", "03/15/84", "01/01/85",
)


def observations(database, relation="faculty"):
    """Every answer *relation* can give, keyed by probe name.

    Two databases of the same kind with equal observations are
    indistinguishable to queries — the equivalence the recovery tests
    assert.
    """
    collected = {"kind": database.kind, "snapshot": database.snapshot(relation)}
    if database.supports_rollback:
        for when in PROBE_INSTANTS:
            collected[f"rollback@{when}"] = database.rollback(relation, when)
    if database.supports_historical_queries:
        collected["history"] = database.history(relation)
        for when in PROBE_INSTANTS:
            collected[f"timeslice@{when}"] = database.timeslice(relation, when)
    if database.supports_rollback and database.supports_historical_queries:
        collected["temporal"] = database.temporal(relation)
    return collected


def _plain(result):
    """A query result as comparable plain data, whatever its kind.

    Snapshot relations give their dict rows; historical/temporal
    relations add their valid/transaction periods as strings."""
    if hasattr(result, "to_dicts"):
        return result.to_dicts()
    rows = []
    for row in result.rows:
        item = dict(row.data)
        if hasattr(row, "valid"):
            item["__valid"] = str(row.valid)
        if hasattr(row, "tt"):
            item["__tt"] = str(row.tt)
        rows.append(item)
    return sorted(rows, key=repr)


def paper_answers(database):
    """The paper's §4.1–§4.4 query answers, where the taxonomy allows.

    Expects the conftest faculty scenario to have been driven into
    *database*.  Returns a dict of plain data (safe to compare with
    ``==`` across separately recovered databases).
    """
    session = Session(database)
    session.execute("range of f is faculty")
    answers = {
        "static": [{"rank": row["rank"]} for row in _plain(session.query(
            'retrieve (f.rank) where f.name = "Merrie"'))],
    }
    if database.supports_rollback:
        answers["as_of"] = [{"rank": row["rank"]}
                            for row in _plain(session.query(
                                'retrieve (f.rank) where f.name = "Merrie" '
                                'as of "12/10/82"'))]
    if database.supports_historical_queries:
        session.execute("range of f1 is faculty")
        session.execute("range of f2 is faculty")
        when_query = ('retrieve (f1.rank) where f1.name = "Merrie" and '
                      'f2.name = "Tom" when f1 overlap start of f2')
        answers["when"] = [row.data["rank"]
                           for row in session.query(when_query).rows]
        if database.supports_rollback:
            for as_of in ("12/10/82", "12/20/82"):
                answers[f"bitemporal@{as_of}"] = [
                    row.data["rank"]
                    for row in session.query(
                        f'{when_query} as of "{as_of}"').rows]
    return answers


#: Expected §4 answers per capability, straight from the paper's text.
EXPECTED_STATIC = [{"rank": "full"}]
EXPECTED_AS_OF = [{"rank": "associate"}]
EXPECTED_WHEN = ["full"]
EXPECTED_BITEMPORAL = {"12/10/82": ["associate"], "12/20/82": ["full"]}


def faculty_steps(database):
    """The conftest faculty narrative as ``(commit instant, thunk)`` steps.

    Mirrors ``tests.conftest.build_faculty`` exactly, but resumable: a
    fault test runs steps until the injected crash, recovers, and runs
    the remainder against the recovered database.
    """
    historical = database.kind.supports_historical_queries

    def args(**valid):
        return valid if historical else {}

    return [
        ("01/01/77", lambda: database.define("faculty", faculty_schema())),
        ("08/25/77", lambda: database.insert(
            "faculty", {"name": "Merrie", "rank": "associate"},
            **args(valid_from="09/01/77"))),
        ("12/01/82", lambda: database.insert(
            "faculty", {"name": "Tom", "rank": "full"},
            **args(valid_from="12/05/82"))),
        ("12/07/82", lambda: database.replace(
            "faculty", {"name": "Tom"}, {"rank": "associate"},
            **args(valid_from="12/05/82"))),
        ("12/15/82", lambda: database.replace(
            "faculty", {"name": "Merrie"}, {"rank": "full"},
            **args(valid_from="12/01/82"))),
        ("01/10/83", lambda: database.insert(
            "faculty", {"name": "Mike", "rank": "assistant"},
            **args(valid_from="01/01/83"))),
        ("02/25/84", lambda: database.delete(
            "faculty", {"name": "Mike"},
            **args(valid_from="03/01/84"))),
    ]


def drive_faculty(database, start=0, stop=None):
    """Run faculty steps ``[start:stop]`` against *database*.

    Returns the number of steps that completed (each is one commit)."""
    clock = database.manager.clock.source
    done = 0
    for when, action in faculty_steps(database)[start:stop]:
        clock.set(when)
        action()
        done += 1
    return done


def unsealed_twin(directory, twin):
    """A copy of *directory* whose checkpoints record no fold."""
    shutil.copytree(directory, twin)
    store = CheckpointStore(twin)
    for index in store.indices():
        head = read_checkpoint_head(store.path_for(index))
        head.pop("sealed_journal")
        with open(store.path_for(index), "w") as handle:
            handle.write(frame_record(head, tag=CHECKPOINT_TAG) + "\n")
    return twin


def findings(report):
    """An audit's findings as ``(kind, file, line, index)`` tuples."""
    return [(f.kind, f.file, f.line_number, f.index) for f in report.findings]


def files(directory):
    """Every file of *directory* with its bytes."""
    return {name: open(os.path.join(directory, name), "rb").read()
            for name in sorted(os.listdir(directory))
            if os.path.isfile(os.path.join(directory, name))}


def assert_refused(directory, error=(JournalError, ChainError),
                   recover=lambda d: DurabilityManager(d).recover(
                       TemporalDatabase)):
    """Recovery raises a typed error and truncates nothing."""
    before = files(directory)
    with pytest.raises(error) as raised:
        recover(directory)
    assert files(directory) == before
    return raised.value
