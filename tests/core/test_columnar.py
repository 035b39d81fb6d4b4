"""Kernel unit tests: every columnar mask vs. the naive row-at-a-time scan.

Each mask kernel of :class:`~repro.core.columnar.ColumnarChunk` owes
strict result equivalence to the per-row ``Period``/``Instant``
predicate it replaces; these tests drive both over the same stores and
demand identical selections.  The whole module runs twice — once with
NumPy (when installed) and once with the pure-Python fallback kernels —
because CI has no numpy and both shapes must agree cell for cell.
"""

import pytest

from repro.core import (HistoricalDatabase, RollbackDatabase,
                        TemporalDatabase, columnar)
from repro.core.columnar import ColumnarCache, ColumnarChunk
from repro.errors import ExpressionError, GranularityError
from repro.time import Granularity, Instant, Period

from tests.conftest import build_faculty


@pytest.fixture(params=["numpy", "python"])
def kernels(request, monkeypatch):
    """Run the test under each kernel shape (ndarray / float loop)."""
    if request.param == "python":
        monkeypatch.setattr(columnar, "_np", None)
    elif columnar._np is None:
        pytest.skip("numpy not installed in this environment")
    return request.param


def temporal_chunk():
    database, _ = build_faculty(TemporalDatabase)
    relation = database.temporal("faculty")
    return relation, ColumnarChunk.from_store(relation)


def rollback_chunk():
    database, _ = build_faculty(RollbackDatabase)
    store = database.store("faculty")
    return store, ColumnarChunk.from_store(store)


class TestMaskKernels:
    def test_rows_are_store_order(self, kernels):
        relation, chunk = temporal_chunk()
        assert chunk.rows == tuple(relation.rows)
        assert len(chunk) == len(relation.rows)

    def test_all_mask_selects_everything(self, kernels):
        relation, chunk = temporal_chunk()
        assert chunk.take(chunk.all_mask()) == list(relation.rows)

    @pytest.mark.parametrize("instant", ["01/01/77", "08/25/77", "12/07/82",
                                         "12/10/82", "02/25/84", "01/01/99"])
    def test_tt_stab_equals_per_row_contains(self, kernels, instant):
        relation, chunk = temporal_chunk()
        when = Instant.parse(instant)
        expected = [row for row in relation.rows if row.tt.contains(when)]
        assert chunk.take(chunk.tt_stab_mask(when)) == expected

    @pytest.mark.parametrize("lo,hi", [("01/01/77", "12/31/82"),
                                       ("12/02/82", "12/20/82"),
                                       ("01/01/90", "01/01/99")])
    def test_tt_overlap_equals_per_row_overlaps(self, kernels, lo, hi):
        relation, chunk = temporal_chunk()
        period = Period(Instant.parse(lo), Instant.parse(hi))
        expected = [row for row in relation.rows if row.tt.overlaps(period)]
        assert chunk.take(chunk.tt_overlap_mask(period)) == expected

    @pytest.mark.parametrize("instant", ["09/01/77", "12/05/82", "01/01/83",
                                         "06/01/84"])
    def test_valid_stab_equals_per_row_contains(self, kernels, instant):
        relation, chunk = temporal_chunk()
        when = Instant.parse(instant)
        expected = [row for row in relation.rows
                    if row.valid.contains(when)]
        assert chunk.take(chunk.valid_stab_mask(when)) == expected

    def test_rollback_chunk_has_no_valid_axis(self, kernels):
        store, chunk = rollback_chunk()
        assert chunk.valid is None
        when = Instant.parse("12/10/82")
        expected = [row for row in store.rows if row.tt.contains(when)]
        assert chunk.take(chunk.tt_stab_mask(when)) == expected

    def test_historical_chunk_has_no_tt_axis(self, kernels):
        database, _ = build_faculty(HistoricalDatabase)
        relation = database.history("faculty")
        chunk = ColumnarChunk.from_historical(relation)
        assert chunk.tt is None
        when = Instant.parse("12/05/82")
        expected = [row for row in relation.rows
                    if row.valid.contains(when)]
        assert chunk.take(chunk.valid_stab_mask(when)) == expected


#: Per-row reference formulas for the nine `when` operators, variable
#: period P on the left against constant C — the same derivations
#: eval_temporal_predicate uses (meets/starts/finishes are endpoint
#: equalities over the half-open representation).
def _when_reference(op, p, c):
    if op == "overlap":
        return p.overlaps(c)
    if op == "precede":
        return p.precedes(c)
    if op == "equal":
        return p == c
    if op == "meets":
        return p.meets(c)
    if op == "before":
        return p.precedes(c) and not p.meets(c)
    if op == "after":
        return c.precedes(p) and not c.meets(p)
    if op == "during":
        return c.contains_period(p)
    if op == "starts":
        return p.start == c.start and c.contains_period(p)
    if op == "finishes":
        return p.end == c.end and c.contains_period(p)
    raise AssertionError(op)


class TestWhenKernels:
    CONSTANTS = [
        Period(Instant.parse("09/01/77"), Instant.parse("12/05/82")),
        Period(Instant.parse("12/05/82"), Instant.parse("01/01/83")),
        Period.at(Instant.parse("12/05/82")),
        Period(Instant.parse("01/01/83"), Instant.parse("03/01/84")),
    ]

    @pytest.mark.parametrize("op", sorted(columnar._WHEN_LEFT))
    @pytest.mark.parametrize("constant", CONSTANTS,
                             ids=[str(c) for c in CONSTANTS])
    def test_var_on_left_matches_period_predicates(self, kernels, op,
                                                   constant):
        relation, chunk = temporal_chunk()
        expected = [row for row in relation.rows
                    if _when_reference(op, row.valid, constant)]
        mask = chunk.when_mask(op, constant, var_on_left=True)
        assert chunk.take(mask) == expected

    @pytest.mark.parametrize("op", sorted(columnar._WHEN_RIGHT))
    @pytest.mark.parametrize("constant", CONSTANTS,
                             ids=[str(c) for c in CONSTANTS])
    def test_var_on_right_matches_period_predicates(self, kernels, op,
                                                    constant):
        relation, chunk = temporal_chunk()
        expected = [row for row in relation.rows
                    if _when_reference(op, constant, row.valid)]
        mask = chunk.when_mask(op, constant, var_on_left=False)
        assert chunk.take(mask) == expected

    def test_unbounded_valid_periods_handled(self, kernels):
        # Open valid ends pack as +inf; `overlap always` must select all.
        relation, chunk = temporal_chunk()
        mask = chunk.when_mask("overlap", Period.always(), var_on_left=True)
        assert chunk.take(mask) == list(relation.rows)


class TestValueColumns:
    def test_column_is_memoized(self, kernels):
        _, chunk = temporal_chunk()
        assert chunk.column("name") is chunk.column("name")

    def test_compare_mask_matches_comparator(self, kernels):
        relation, chunk = temporal_chunk()
        mask = chunk.compare_mask("name", "=", "Tom", attr_on_left=True)
        expected = [row for row in relation.rows
                    if row.data["name"] == "Tom"]
        assert chunk.take(mask) == expected

    def test_compare_mask_none_value_is_false_everywhere(self, kernels):
        _, chunk = temporal_chunk()
        assert chunk.count(
            chunk.compare_mask("name", "=", None, attr_on_left=True)) == 0

    def test_compare_select_restricts_given_indices(self, kernels):
        relation, chunk = temporal_chunk()
        keep = chunk.compare_select(range(len(chunk)), "name", "=", "Tom",
                                    attr_on_left=True)
        assert [chunk.rows[i].data["name"] for i in keep] == \
            ["Tom"] * len(keep)
        assert keep == sorted(keep)
        # Restricting the input indices restricts the output.
        assert chunk.compare_select([], "name", "=", "Tom", True) == []

    def test_compare_select_untypable_raises_expression_error(self, kernels):
        _, chunk = temporal_chunk()
        with pytest.raises(ExpressionError) as err:
            chunk.compare_select(range(len(chunk)), "name", "<", 7,
                                 attr_on_left=True)
        # The exact message Comparison.evaluate would have produced.
        assert "cannot compare" in str(err.value)
        assert "< 7" in str(err.value)

    def test_granularity_mismatch_raises(self, kernels):
        _, chunk = temporal_chunk()
        alien = Instant.parse("1982-12-10T00:00:00",
                              granularity=Granularity.SECOND) \
            if hasattr(Granularity, "SECOND") else None
        if alien is None:
            pytest.skip("no second granularity available")
        with pytest.raises(GranularityError):
            chunk.tt_stab_mask(alien)


class TestExtension:
    def test_extension_reuses_closed_prefix(self, kernels):
        database, clock = build_faculty(TemporalDatabase)
        relation = database.temporal("faculty")
        chunk = ColumnarChunk.from_store(relation)
        clock.set("03/01/84")
        database.insert("faculty", {"name": "Jane", "rank": "assistant"},
                        valid_from="03/01/84")
        newer = database.temporal("faculty")
        extended = chunk.extended(newer)
        assert extended is not None
        assert extended.rows == tuple(newer.rows)
        # The extended chunk answers exactly like a fresh build.
        fresh = ColumnarChunk.from_store(newer)
        when = Instant.parse("12/10/82")
        assert extended.take(extended.tt_stab_mask(when)) == \
            fresh.take(fresh.tt_stab_mask(when))

    def test_extension_refused_across_lineages(self, kernels):
        database, _ = build_faculty(TemporalDatabase)
        chunk = ColumnarChunk.from_store(database.temporal("faculty"))
        other, _ = build_faculty(TemporalDatabase)
        assert chunk.extended(other.temporal("faculty")) is None


class TestColumnarCache:
    def test_hit_on_unchanged_version(self, kernels):
        database, _ = build_faculty(TemporalDatabase)
        cache = database.columnar_cache
        first = cache.chunk("faculty")
        assert cache.chunk("faculty") is first
        assert cache.hits == 1 and cache.misses == 1

    def test_commit_extends_instead_of_rebuilding(self, kernels):
        database, clock = build_faculty(TemporalDatabase)
        cache = database.columnar_cache
        cache.chunk("faculty")
        clock.set("03/01/84")
        database.insert("faculty", {"name": "Jane", "rank": "assistant"},
                        valid_from="03/01/84")
        fresh = cache.chunk("faculty")
        assert cache.extensions == 1
        assert fresh.rows == tuple(database.temporal("faculty").rows)

    def test_ready_tracks_current_version(self, kernels):
        # A chunk serves its own relation version only: a commit turns
        # the next request from a hit into an extension.
        database, clock = build_faculty(TemporalDatabase)
        cache = database.columnar_cache
        first = cache.chunk("faculty")
        assert cache.chunk("faculty") is first and cache.hits == 1
        clock.set("03/01/84")
        database.insert("faculty", {"name": "Jane", "rank": "assistant"},
                        valid_from="03/01/84")
        assert cache.chunk("faculty") is not first
        assert (cache.hits, cache.extensions) == (1, 1)

    def test_unindexed_database_has_no_cache(self, kernels):
        # The store's own scan is the cache-free path (and the oracle):
        # it answers without building a chunk or a result entry.
        database, _ = build_faculty(TemporalDatabase)
        pin = Instant.parse("12/10/82")
        scanned = database.store("faculty").visible(pin)
        assert set(scanned) == set(
            database.read("faculty", database.now(), pin).candidates)
        assert database.columnar_cache.describe()["relations"] == []
        assert database.result_cache.describe()["size"] == 0

    def test_describe_is_deterministic(self, kernels):
        database, _ = build_faculty(TemporalDatabase)
        cache = database.columnar_cache
        cache.chunk("faculty")
        described = cache.describe()
        assert described["relations"] == ["faculty"]
        assert described["rows"]["faculty"] == len(
            database.temporal("faculty").rows)
