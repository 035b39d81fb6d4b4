"""Count guards: a commit pays for its delta once.

Clock-free, like the other cost guards (docs/PERFORMANCE.md "What a
commit costs"):

- a durable commit JSON-encodes its journal record once — the content
  hash and the frame share one canonical text;
- a keyed ``replace`` re-checks its key without building a relation or
  coalescing one, where the relation declares no constraint but its key
  and the key holds one fact;
- a transaction of N inserts on one relation copies that relation's open
  map and key index once, and checks the relation once;
- the ``commit.rows_*`` counters count what they counted when every
  operation derived its own version;
- the logged operation keeps the arguments dict the API built for it,
  uncopied;
- a recorded commit, after its first, looks up no instrument by name:
  every counter, gauge and histogram it feeds is bound once per
  registry (``MetricsRegistry.handles``).
"""

import json

import pytest

from repro import obs
from repro.core import (HistoricalDatabase, RollbackDatabase, StaticDatabase,
                        TemporalDatabase)
from repro.core.base import Database
from repro.core.historical import HistoricalRelation
from repro.core.transaction_time import StateStore
from repro.relational.relation import Relation
from repro.storage import DurabilityManager
from repro.txn.transaction import Operation

from tests.conftest import build_faculty, faculty_schema

KINDS = [StaticDatabase, RollbackDatabase, HistoricalDatabase,
         TemporalDatabase]
IDS = [kind.kind.value for kind in KINDS]


class Calls:
    """Counts calls of the methods it wraps (through *monkeypatch*)."""

    def __init__(self, monkeypatch, *methods):
        self.counts = {}
        for owner, name in methods:
            self._wrap(monkeypatch, owner, name)

    def _wrap(self, monkeypatch, owner, name):
        real = getattr(owner, name)
        self.counts[name] = 0

        def counted(*args, **kwargs):
            self.counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)


def valid(database, **period):
    return period if database.kind.supports_historical_queries else {}


def test_a_journal_record_is_encoded_once(tmp_path, monkeypatch):
    manager = DurabilityManager(str(tmp_path / "dur"))
    database, _ = manager.recover(TemporalDatabase)
    database.define("faculty", faculty_schema())
    database.insert("faculty", {"name": "Tom", "rank": "full"},
                    valid_from="01/01/80")
    calls = Calls(monkeypatch, (json.encoder.JSONEncoder, "iterencode"))
    for rank in ["associate", "full"] * 5:
        database.replace("faculty", {"name": "Tom"}, {"rank": rank})
    assert calls.counts["iterencode"] == 10


@pytest.mark.parametrize("kind", KINDS, ids=IDS)
def test_a_keyed_replace_checks_its_key_without_a_relation(kind,
                                                            monkeypatch):
    database, _ = build_faculty(kind)
    calls = Calls(monkeypatch, (Relation, "__init__"),
                  (HistoricalRelation, "coalesce"),
                  (type(database), "_check_state"))
    database.replace("faculty", {"name": "Tom"}, {"rank": "full"})
    assert calls.counts == {"__init__": 0, "coalesce": 0, "_check_state": 0}


@pytest.mark.parametrize("kind", KINDS, ids=IDS)
def test_a_replace_logs_the_arguments_the_api_built(kind, monkeypatch):
    built = []

    class Recorded(Operation):
        __slots__ = ()

        def __init__(self, action, relation, arguments):
            built.append(arguments)
            super().__init__(action, relation, arguments)

    database, _ = build_faculty(kind)
    monkeypatch.setattr("repro.core.base.Operation", Recorded)
    database.replace("faculty", {"name": "Tom"}, {"rank": "full"},
                     **valid(database, valid_from="01/01/84"))
    assert database.log.last().operations[-1].arguments is built[-1]


@pytest.mark.parametrize("kind", KINDS, ids=IDS)
def test_a_recorded_commit_looks_up_no_metric_by_name(kind, monkeypatch):
    with obs.recording() as instrumentation:
        database, _ = build_faculty(kind)
        registry = type(instrumentation.metrics)
        calls = Calls(monkeypatch, (registry, "counter"), (registry, "gauge"),
                      (registry, "histogram"))
        for rank in ["full", "associate"] * 50:
            database.replace("faculty", {"name": "Tom"}, {"rank": rank},
                             **valid(database, valid_from="01/01/84"))
    assert calls.counts == {"counter": 0, "gauge": 0, "histogram": 0}
    counters = instrumentation.metrics.snapshot()["counters"]
    assert counters["commit.batches"] == 107  # define, six DML, 100


@pytest.mark.parametrize("kind", KINDS, ids=IDS)
def test_a_batch_of_inserts_makes_one_working_copy(kind, monkeypatch):
    database, _ = build_faculty(kind)
    calls = Calls(monkeypatch, (StateStore, "_init_parts"),
                  (Database, "_check_store"))
    with database.begin() as batch:
        for index in range(50):
            database.insert("faculty", {"name": f"n{index}",
                                        "rank": "assistant"}, txn=batch,
                            **valid(database, valid_from="01/01/84"))
    assert calls.counts == {"_init_parts": 1, "_check_store": 1}


def counted(database, write):
    with obs.recording() as instrumentation:
        write(database)
    counters = instrumentation.metrics.snapshot()["counters"]
    return tuple(counters.get(f"commit.rows_{name}", 0)
                 for name in ("examined", "opened", "closed"))


def keyed_replace(database):
    database.replace("faculty", {"name": "Tom"}, {"rank": "full"})


def split_replace(database):
    database.replace("faculty", {"name": "Merrie"}, {"rank": "associate"},
                     **valid(database, valid_from="01/01/85"))


def batch(database):
    with database.begin() as txn:
        for index in range(20):
            database.insert("faculty", {"name": f"n{index}",
                                        "rank": "assistant"}, txn=txn,
                            **valid(database, valid_from="01/01/84"))
        database.replace("faculty", {"name": "n3"}, {"rank": "full"},
                         txn=txn)
        database.delete("faculty", {"name": "n4"}, txn=txn)
        database.replace("faculty", {"name": "Tom"}, {"rank": "full"},
                         txn=txn)


#: (examined, opened, closed) per kind: what each write counted when
#: every operation of a transaction derived its own version.
EXPECTED = {
    "keyed": {"static": (2, 0, 0), "static rollback": (2, 1, 1),
              "historical": (2, 0, 0), "temporal": (2, 1, 1)},
    "split": {"static": (2, 0, 0), "static rollback": (2, 1, 1),
              "historical": (5, 0, 0), "temporal": (5, 2, 1)},
    "batch": {"static": (23, 0, 0), "static rollback": (23, 22, 1),
              "historical": (23, 0, 0), "temporal": (23, 22, 1)},
}


@pytest.mark.parametrize("kind", KINDS, ids=IDS)
@pytest.mark.parametrize("name, write", [("keyed", keyed_replace),
                                         ("split", split_replace),
                                         ("batch", batch)])
def test_the_commit_counters_count_what_they_did(kind, name, write):
    database, _ = build_faculty(kind)
    assert counted(database, write) == EXPECTED[name][kind.kind.value]
