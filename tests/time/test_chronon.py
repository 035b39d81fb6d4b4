"""Unit tests for granularities and chronon encodings."""

import datetime as dt

import pytest

from repro.errors import GranularityError, InvalidInstantError
from repro.time.chronon import Granularity, require_same_granularity


class TestEncoding:
    def test_day_roundtrip(self):
        day = dt.date(1982, 12, 15)
        chronon = Granularity.DAY.from_date(day)
        assert Granularity.DAY.to_datetime(chronon).date() == day

    def test_day_is_toordinal(self):
        assert Granularity.DAY.from_date(dt.date(1, 1, 1)) == 1

    def test_second_roundtrip(self):
        when = dt.datetime(1982, 12, 15, 8, 30, 45)
        chronon = Granularity.SECOND.from_datetime(when)
        assert Granularity.SECOND.to_datetime(chronon) == when

    def test_minute_truncates_seconds(self):
        base = dt.datetime(1982, 12, 15, 8, 30, 0)
        with_seconds = dt.datetime(1982, 12, 15, 8, 30, 45)
        assert (Granularity.MINUTE.from_datetime(base)
                == Granularity.MINUTE.from_datetime(with_seconds))

    def test_hour_roundtrip(self):
        when = dt.datetime(2001, 7, 4, 13, 0, 0)
        chronon = Granularity.HOUR.from_datetime(when)
        assert Granularity.HOUR.to_datetime(chronon) == when

    def test_month_encoding(self):
        chronon = Granularity.MONTH.from_date(dt.date(1982, 12, 1))
        assert chronon == 1982 * 12 + 11
        assert Granularity.MONTH.to_datetime(chronon) == dt.datetime(1982, 12, 1)

    def test_month_truncates_day(self):
        assert (Granularity.MONTH.from_date(dt.date(1982, 12, 1))
                == Granularity.MONTH.from_date(dt.date(1982, 12, 31)))

    def test_year_encoding(self):
        assert Granularity.YEAR.from_date(dt.date(1982, 6, 15)) == 1982
        assert Granularity.YEAR.to_datetime(1982) == dt.datetime(1982, 1, 1)

    def test_successive_days_differ_by_one(self):
        a = Granularity.DAY.from_date(dt.date(1982, 12, 31))
        b = Granularity.DAY.from_date(dt.date(1983, 1, 1))
        assert b - a == 1

    def test_out_of_range_chronon(self):
        with pytest.raises(InvalidInstantError):
            Granularity.DAY.to_datetime(-5)


class TestFormatting:
    def test_day_format(self):
        chronon = Granularity.DAY.from_date(dt.date(1982, 12, 15))
        assert Granularity.DAY.format(chronon) == "1982-12-15"

    def test_second_format(self):
        chronon = Granularity.SECOND.from_datetime(dt.datetime(1982, 12, 15, 8, 30, 45))
        assert Granularity.SECOND.format(chronon) == "1982-12-15 08:30:45"

    def test_month_format(self):
        chronon = Granularity.MONTH.from_date(dt.date(1982, 12, 1))
        assert Granularity.MONTH.format(chronon) == "1982-12"

    def test_year_format(self):
        assert Granularity.YEAR.format(1982) == "1982"

    def test_minute_format(self):
        chronon = Granularity.MINUTE.from_datetime(dt.datetime(1982, 12, 15, 8, 30))
        assert Granularity.MINUTE.format(chronon) == "1982-12-15 08:30"

    def test_hour_format(self):
        chronon = Granularity.HOUR.from_datetime(dt.datetime(1982, 12, 15, 8, 0))
        assert Granularity.HOUR.format(chronon) == "1982-12-15 08:00"

    @pytest.mark.parametrize("granularity", list(Granularity))
    @pytest.mark.parametrize("when", [dt.datetime(1, 1, 1),
                                      dt.datetime(999, 2, 3, 4, 5, 6),
                                      dt.datetime(2000, 1, 1),
                                      dt.datetime(9999, 12, 31, 23, 59, 59)])
    def test_parse_inverts_format(self, granularity, when):
        chronon = granularity.from_datetime(when)
        assert granularity.parse(granularity.format(chronon)) == chronon

    @pytest.mark.parametrize("granularity, literal", [
        (Granularity.MONTH, "2000-13"), (Granularity.MONTH, "2000-01-01"),
        (Granularity.YEAR, "2000-01"), (Granularity.DAY, "2000-01"),
        (Granularity.HOUR, "2000-01-01 08:30"), (Granularity.DAY, "12/15/82")])
    def test_parse_refuses_what_format_never_writes(self, granularity,
                                                     literal):
        with pytest.raises(InvalidInstantError):
            granularity.parse(literal)


class TestOrdering:
    def test_second_finer_than_day(self):
        assert Granularity.SECOND.finer_than(Granularity.DAY)

    def test_day_not_finer_than_itself(self):
        assert not Granularity.DAY.finer_than(Granularity.DAY)

    def test_year_coarsest(self):
        for gran in Granularity:
            assert not Granularity.YEAR.finer_than(gran)

    def test_require_same_granularity_passes(self):
        require_same_granularity(Granularity.DAY, Granularity.DAY, "test")

    def test_require_same_granularity_raises(self):
        with pytest.raises(GranularityError, match="compare"):
            require_same_granularity(Granularity.DAY, Granularity.SECOND, "compare")
