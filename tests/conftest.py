"""Shared fixtures: the paper's faculty scenario, reusable across suites.

``build_faculty(cls, **kwargs)`` drives the exact transaction narrative of
the paper's Section 4 into a database of any kind:

========  ==========================================================
08/25/77  Merrie recorded as associate, valid from 09/01/77 (postactive)
12/01/82  Tom recorded as full, valid from 12/05/82 (postactive)
12/07/82  correction: Tom is actually an associate
12/15/82  Merrie's promotion to full, valid from 12/01/82 (retroactive)
01/10/83  Mike recorded as assistant, valid from 01/01/83
02/25/84  Mike leaves effective 03/01/84 (postactive deletion)
========  ==========================================================
"""

from typing import Tuple

import pytest

from repro.core import (HistoricalDatabase, RollbackDatabase, StaticDatabase,
                        TemporalDatabase)
from repro.relational import Domain, Schema
from repro.time import SimulatedClock

RANK = Domain.enumeration("rank", "assistant", "associate", "full")


def faculty_schema() -> Schema:
    return Schema.of(key=["name"], name=Domain.STRING, rank=RANK)


def build_faculty(db_class, **db_kwargs):
    """The paper's faculty history in a database of *db_class*.

    Returns ``(database, clock)``; the clock ends at 02/25/84.
    """
    clock = SimulatedClock("01/01/77")
    database = db_class(clock=clock, **db_kwargs)
    database.define("faculty", faculty_schema())
    historical = database.kind.supports_historical_queries

    def args(**valid):
        return valid if historical else {}

    clock.set("08/25/77")
    database.insert("faculty", {"name": "Merrie", "rank": "associate"},
                    **args(valid_from="09/01/77"))
    clock.set("12/01/82")
    database.insert("faculty", {"name": "Tom", "rank": "full"},
                    **args(valid_from="12/05/82"))
    clock.set("12/07/82")
    database.replace("faculty", {"name": "Tom"}, {"rank": "associate"},
                     **args(valid_from="12/05/82"))
    clock.set("12/15/82")
    database.replace("faculty", {"name": "Merrie"}, {"rank": "full"},
                     **args(valid_from="12/01/82"))
    clock.set("01/10/83")
    database.insert("faculty", {"name": "Mike", "rank": "assistant"},
                    **args(valid_from="01/01/83"))
    clock.set("02/25/84")
    database.delete("faculty", {"name": "Mike"},
                    **args(valid_from="03/01/84"))
    return database, clock


@pytest.fixture
def static_faculty():
    return build_faculty(StaticDatabase)


@pytest.fixture
def rollback_faculty():
    return build_faculty(RollbackDatabase)


@pytest.fixture
def historical_faculty():
    return build_faculty(HistoricalDatabase)


@pytest.fixture
def temporal_faculty():
    return build_faculty(TemporalDatabase)
