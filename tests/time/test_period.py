"""Unit tests for periods, Allen's relations and the TQuel predicates."""

import copy
import math
import pickle
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import GranularityError, InvalidPeriodError
from repro.time import (AllenRelation, Granularity, Instant, NEG_INF, POS_INF,
                        Period)
from repro.time.period import coalesce


def days(start: int, end: int) -> Period:
    """Shorthand: a period over raw day chronons."""
    return Period(Instant.from_chronon(start), Instant.from_chronon(end))


class TestConstruction:
    def test_from_literals(self):
        period = Period("12/01/82", "12/15/82")
        assert period.start == Instant.parse("12/01/82")
        assert period.end == Instant.parse("12/15/82")

    def test_open_ended(self):
        period = Period("12/01/82", "forever")
        assert period.end is POS_INF
        assert period.duration() is None

    def test_always(self):
        period = Period.always()
        assert period.start is NEG_INF and period.end is POS_INF

    def test_empty_rejected(self):
        with pytest.raises(InvalidPeriodError):
            Period("12/01/82", "12/01/82")

    def test_reversed_rejected(self):
        with pytest.raises(InvalidPeriodError):
            Period("12/15/82", "12/01/82")

    def test_at(self):
        period = Period.at("12/01/82")
        assert period.is_instantaneous
        assert period.contains("12/01/82")
        assert not period.contains("12/02/82")

    def test_from_inclusive(self):
        period = Period.from_inclusive("12/01/82", "12/15/82")
        assert period.contains("12/15/82")
        assert not period.contains("12/16/82")

    def test_from_inclusive_with_infinity(self):
        period = Period.from_inclusive("12/01/82", "forever")
        assert period.end is POS_INF

    def test_duration(self):
        assert days(10, 15).duration() == 5

    def test_last(self):
        assert days(10, 15).last == Instant.from_chronon(14)


class TestMembership:
    def test_half_open(self):
        period = Period("12/01/82", "12/15/82")
        assert period.contains("12/01/82")
        assert period.contains("12/14/82")
        assert not period.contains("12/15/82")

    def test_contains_period(self):
        assert days(0, 10).contains_period(days(2, 5))
        assert days(0, 10).contains_period(days(0, 10))
        assert not days(0, 10).contains_period(days(5, 11))

    def test_dunder_contains(self):
        assert Instant.from_chronon(3) in days(0, 10)
        assert days(2, 4) in days(0, 10)

    def test_chronons_iteration(self):
        assert [c.chronon for c in days(3, 6).chronons()] == [3, 4, 5]

    def test_chronons_unbounded_raises(self):
        with pytest.raises(InvalidPeriodError):
            list(Period.always().chronons())


class TestAllenRelations:
    # One canonical example of each of the thirteen relations.
    CASES = [
        (days(0, 2), days(3, 5), AllenRelation.BEFORE),
        (days(0, 3), days(3, 5), AllenRelation.MEETS),
        (days(0, 4), days(2, 6), AllenRelation.OVERLAPS),
        (days(0, 3), days(0, 6), AllenRelation.STARTS),
        (days(2, 4), days(0, 6), AllenRelation.DURING),
        (days(4, 6), days(0, 6), AllenRelation.FINISHES),
        (days(0, 6), days(0, 6), AllenRelation.EQUALS),
        (days(0, 6), days(4, 6), AllenRelation.FINISHES_INV),
        (days(0, 6), days(2, 4), AllenRelation.DURING_INV),
        (days(0, 6), days(0, 3), AllenRelation.STARTS_INV),
        (days(2, 6), days(0, 4), AllenRelation.OVERLAPS_INV),
        (days(3, 5), days(0, 3), AllenRelation.MEETS_INV),
        (days(3, 5), days(0, 2), AllenRelation.AFTER),
    ]

    @pytest.mark.parametrize("a, b, expected", CASES)
    def test_classification(self, a, b, expected):
        assert a.allen(b) is expected

    @pytest.mark.parametrize("a, b, expected", CASES)
    def test_inverse(self, a, b, expected):
        assert b.allen(a) is expected.inverse

    def test_all_thirteen_covered(self):
        assert {expected for _, _, expected in self.CASES} == set(AllenRelation)

    def test_with_infinite_endpoints(self):
        open_ended = Period("12/01/82", "forever")
        earlier = Period("09/01/77", "12/01/82")
        assert earlier.allen(open_ended) is AllenRelation.MEETS
        # Equal (infinite) ends with an earlier start: finished-by.
        assert Period.always().allen(open_ended) is AllenRelation.FINISHES_INV


class TestTQuelPredicates:
    def test_overlap(self):
        assert days(0, 4).overlaps(days(3, 6))
        assert not days(0, 3).overlaps(days(3, 6))  # meeting shares no chronon

    def test_precede_allows_meeting(self):
        assert days(0, 3).precedes(days(3, 6))
        assert days(0, 2).precedes(days(3, 6))
        assert not days(0, 4).precedes(days(3, 6))

    def test_start_of(self):
        assert days(3, 9).start_of() == days(3, 4)

    def test_end_of(self):
        assert days(3, 9).end_of() == days(8, 9)

    def test_start_of_unbounded_raises(self):
        with pytest.raises(InvalidPeriodError):
            Period.always().start_of()

    def test_end_of_unbounded_raises(self):
        with pytest.raises(InvalidPeriodError):
            Period("12/01/82", "forever").end_of()

    def test_extend(self):
        assert days(0, 3).extend(days(7, 9)) == days(0, 9)
        assert days(7, 9).extend(days(0, 3)) == days(0, 9)


class TestSetOperations:
    def test_intersect(self):
        assert days(0, 5).intersect(days(3, 8)) == days(3, 5)
        assert days(0, 3).intersect(days(3, 8)) is None

    def test_union_overlapping(self):
        assert days(0, 5).union(days(3, 8)) == days(0, 8)

    def test_union_meeting(self):
        assert days(0, 3).union(days(3, 8)) == days(0, 8)

    def test_union_disjoint_is_none(self):
        assert days(0, 2).union(days(5, 8)) is None

    def test_difference_middle(self):
        assert days(0, 10).difference(days(3, 6)) == [days(0, 3), days(6, 10)]

    def test_difference_left(self):
        assert days(0, 10).difference(days(0, 4)) == [days(4, 10)]

    def test_difference_covering(self):
        assert days(3, 6).difference(days(0, 10)) == []

    def test_difference_disjoint(self):
        assert days(0, 3).difference(days(5, 8)) == [days(0, 3)]

    def test_clamp(self):
        assert days(0, 10).clamp(days(5, 20)) == days(5, 10)


class TestCoalesce:
    def test_merges_overlapping_and_adjacent(self):
        merged = coalesce([days(5, 8), days(0, 3), days(3, 5), days(20, 25)])
        assert merged == [days(0, 8), days(20, 25)]

    def test_idempotent(self):
        merged = coalesce([days(0, 3), days(10, 12)])
        assert coalesce(merged) == merged

    def test_empty(self):
        assert coalesce([]) == []


class TestDunder:
    def test_equality_and_hash(self):
        assert days(0, 3) == days(0, 3)
        assert len({days(0, 3), days(0, 3), days(0, 4)}) == 2

    def test_ordering(self):
        assert sorted([days(5, 8), days(0, 3), days(0, 2)]) == [
            days(0, 2), days(0, 3), days(5, 8)]

    def test_str(self):
        assert str(Period("12/01/82", "forever")) == "[1982-12-01, ∞)"


class TestChronons:
    def test_ends_as_numbers(self):
        period = Period("12/01/82", "forever")
        assert (period.lo, period.hi) == (period.start.chronon, math.inf)
        assert period.unit is Granularity.DAY
        assert Period.always().lo == -math.inf
        assert Period.always().unit is None

    def test_from_chronons_is_the_same_period(self):
        hour = Granularity.HOUR
        built = Period.from_chronons(5, math.inf, hour)
        assert built == Period(Instant(5, hour), POS_INF)
        assert built.start == Instant(5, hour) and built.end is POS_INF
        assert Period.from_chronons(-math.inf, math.inf, hour).unit is None

    @pytest.mark.parametrize("lo, hi", [(5, 5), (6, 5), (5, -math.inf)])
    def test_from_chronons_refuses_an_empty_period(self, lo, hi):
        with pytest.raises(InvalidPeriodError):
            Period.from_chronons(lo, hi, Granularity.DAY)


class TestEndsOnFirstRead:
    """A period made from chronons builds its ``start`` / ``end`` instants
    on first read; the constructor's ends are the ones it was given."""

    @pytest.mark.parametrize("unit", tuple(Granularity), ids=str)
    @pytest.mark.parametrize("lo, hi", [(1990, 1995), (-math.inf, 1995),
                                        (1990, math.inf),
                                        (-math.inf, math.inf)])
    def test_the_constructors_ends(self, unit, lo, hi):
        built = Period.from_chronons(lo, hi, unit)
        made = Period(NEG_INF if lo == -math.inf else Instant(lo, unit),
                      POS_INF if hi == math.inf else Instant(hi, unit))
        assert (built.start, built.end) == (made.start, made.end)
        assert built.start is built.start and built.end is built.end
        assert (built.unit, str(built), repr(built)) == (
            made.unit, str(made), repr(made))

    @pytest.mark.parametrize("copy_of", [
        copy.copy, copy.deepcopy,
        lambda period: pickle.loads(pickle.dumps(period))],
        ids=["copy", "deepcopy", "pickle"])
    @pytest.mark.parametrize("read", [False, True], ids=["fresh", "read"])
    def test_copies_keep_their_ends(self, copy_of, read):
        period = Period.from_chronons(5, 9, Granularity.HOUR)
        if read:
            period.start, period.end
        twin = copy_of(period)
        assert twin == period and hash(twin) == hash(period)
        assert (twin.start, twin.end) == (Instant(5, Granularity.HOUR),
                                          Instant(9, Granularity.HOUR))

    def test_the_ends_are_read_only(self):
        period = Period.from_chronons(5, 9, Granularity.DAY)
        with pytest.raises(AttributeError):
            period.start = Instant(6)

    def test_racing_first_reads_agree(self):
        periods = [Period.from_chronons(lo, lo + 1, Granularity.MONTH)
                   for lo in range(24000, 24050)]
        ready = threading.Barrier(8)

        def first_reads(_):
            ready.wait(timeout=10)
            return [period.start for period in periods]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                seen = list(pool.map(first_reads, range(8), timeout=30))
        finally:
            sys.setswitchinterval(interval)
        expected = [Instant(period.lo, Granularity.MONTH)
                    for period in periods]
        assert seen == [expected] * 8
        assert [period.start for period in periods] == expected


def at(granularity, start, end):
    """A period of raw chronons at *granularity*; None is an infinity."""
    return Period(NEG_INF if start is None else Instant(start, granularity),
                  POS_INF if end is None else Instant(end, granularity))


DAY, HOUR = Granularity.DAY, Granularity.HOUR

#: Pairs of periods of different units, whichever of their ends are
#: finite.  Before periods kept their ends as chronons, the first two
#: pairs answered (they compare no two finite ends) and the third raised.
MIXED = {
    "both-open-below": (at(DAY, None, 10), at(HOUR, None, 10)),
    "both-open-above": (at(DAY, 5, None), at(HOUR, 5, None)),
    "opposite-ends": (at(DAY, 5, None), at(HOUR, None, 10)),
}

#: Every binary operation on two periods.
BINARY = {
    "overlaps": Period.overlaps, "precedes": Period.precedes,
    "meets": Period.meets, "adjacent": Period.adjacent,
    "contains_period": Period.contains_period, "allen": Period.allen,
    "intersect": Period.intersect, "union": Period.union,
    "difference": Period.difference, "extend": Period.extend,
    "<": lambda a, b: a < b,
}


class TestMixedGranularities:
    @pytest.mark.parametrize("operation", sorted(BINARY))
    @pytest.mark.parametrize("pair", sorted(MIXED))
    def test_every_binary_operation_raises(self, pair, operation):
        a, b = MIXED[pair]
        for left, right in ((a, b), (b, a)):
            with pytest.raises(GranularityError):
                BINARY[operation](left, right)

    @pytest.mark.parametrize("pair", sorted(MIXED))
    def test_equality_is_false_and_does_not_raise(self, pair):
        a, b = MIXED[pair]
        assert a != b and not a == b

    @pytest.mark.parametrize("operation", sorted(BINARY))
    def test_the_whole_timeline_has_no_unit_to_differ(self, operation):
        hours = at(HOUR, 5, 10)
        for left, right in ((Period.always(), hours),
                            (hours, Period.always())):
            BINARY[operation](left, right)
