"""The one dataset generator: the paper's ``faculty`` relation, scaled.

``faculty (name key, rank, salary)`` on a :class:`TemporalDatabase`,
parameterised by *K* keys, *V* valid-time versions per key loaded in one
commit, and *T* prior single-``replace`` commits at one chronon (day)
each.  The commit instants are the pool of ``as of`` pins.

Generation (:func:`plan`) is a pure function of ``(spec, seed)`` and is
kept apart from application (:func:`apply`), so the determinism
self-test can compare plans byte for byte without touching the program.
"""

from __future__ import annotations

import dataclasses
import json
import random
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core import TemporalDatabase
from repro.relational import Domain, Schema
from repro.time import Instant, SimulatedClock

RELATION = "faculty"
#: One key in eight is ``full`` — the rank scan's selectivity.
RANKS = ("full", "assistant", "associate", "assistant", "associate",
         "assistant", "associate", "emeritus")
#: Transaction time starts here; one commit per day after it.
BASE = Instant.parse("1980-01-01")
#: Valid time of the first version of every key (ten years earlier).
VALID_START = BASE.chronon - 3650
#: Days between successive valid-time versions of one key.
VERSION_DAYS = 365


@dataclasses.dataclass(frozen=True)
class DatasetSpec:
    """*keys* × *versions* rows loaded at once, then *history* replaces."""

    keys: int
    versions: int
    history: int

    def scaled(self, scale: float) -> "DatasetSpec":
        """The same shape with a shorter prior history (smoke runs)."""
        return DatasetSpec(self.keys, self.versions,
                           max(40, int(self.history * scale)))


def key_name(index: int) -> str:
    return f"n{index:04d}"


def literal(when: Instant) -> str:
    """An instant as the TQuel date literal that parses back to it."""
    return str(when)


def day(chronon: int) -> str:
    """A day chronon as a TQuel date literal."""
    return literal(Instant.from_chronon(chronon))


@dataclasses.dataclass(frozen=True)
class DatasetPlan:
    """Everything set-up will write, decided before anything is written."""

    spec: DatasetSpec
    seed: int
    #: ``(name, rank, salary, valid_from, valid_to or None)`` — one commit.
    load: Tuple[Tuple[str, str, int, int, Optional[int]], ...]
    #: ``(name, salary)`` — one commit each, one day apart.
    replaces: Tuple[Tuple[str, int], ...]

    def fingerprint(self) -> bytes:
        """Canonical bytes: equal iff two plans write identical inputs."""
        return json.dumps(dataclasses.asdict(self), sort_keys=True,
                          separators=(",", ":")).encode("utf-8")


def plan(spec: DatasetSpec, seed: int) -> DatasetPlan:
    rng = random.Random(f"dataset:{seed}")
    load = []
    for index in range(spec.keys):
        for version in range(spec.versions):
            start = VALID_START + version * VERSION_DAYS
            end = (start + VERSION_DAYS if version + 1 < spec.versions
                   else None)
            load.append((key_name(index), RANKS[index % len(RANKS)],
                         rng.randrange(30_000, 90_000), start, end))
    replaces = tuple((key_name(rng.randrange(spec.keys)),
                      rng.randrange(30_000, 90_000))
                     for _ in range(spec.history))
    return DatasetPlan(spec, seed, tuple(load), replaces)


@dataclasses.dataclass
class Dataset:
    """What :func:`apply` left behind, as the workloads need it."""

    plan: DatasetPlan
    #: Commit instant of every set-up commit, ascending (the pin pool).
    pins: List[Instant]
    #: Bytes of attribute values set-up wrote (the space metric's base).
    user_bytes: int


def schema() -> Schema:
    return Schema.of(key=["name"], name=Domain.STRING, rank=Domain.STRING,
                     salary=Domain.INTEGER)


def fresh_database() -> TemporalDatabase:
    """An empty in-memory temporal database on the dataset's clock."""
    return TemporalDatabase(clock=SimulatedClock(BASE))


def value_bytes(values: Dict[str, Any]) -> int:
    """Bytes of attribute values in one write, as their text forms."""
    return sum(len(str(value).encode("utf-8")) for value in values.values())


def apply(dataset_plan: DatasetPlan, database: TemporalDatabase,
          tick: Callable[[], None] = lambda: None) -> Dataset:
    """Write *dataset_plan* into an empty *database* through its DML API.

    The database's clock must be a :class:`SimulatedClock` (an in-memory
    one from :func:`fresh_database`, or a recovered durable one); it is
    driven one day per commit so every commit lands on its own chronon.
    *tick* is called between commits (a timed set-up probes the machine's
    speed there).
    """
    clock = database.manager.clock.source
    clock.set(BASE)
    database.define(RELATION, schema())
    pins: List[Instant] = []
    user_bytes = 0
    clock.advance(1)
    transaction = database.begin()
    for name, rank, salary, start, end in dataset_plan.load:
        values = {"name": name, "rank": rank, "salary": salary}
        database.insert(RELATION, values, valid_from=start, valid_to=end,
                        txn=transaction)
        user_bytes += value_bytes(values)
    pins.append(transaction.commit())
    for name, salary in dataset_plan.replaces:
        tick()
        clock.advance(1)
        pins.append(database.replace(RELATION, {"name": name},
                                     {"salary": salary}))
        user_bytes += value_bytes({"salary": salary})
    return Dataset(dataset_plan, pins, user_bytes)
