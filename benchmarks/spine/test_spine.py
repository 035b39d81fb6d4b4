"""Self-tests of the measurement spine.

Run with ``python -m pytest benchmarks/spine -q`` (tier-1 does not collect
this directory: its ``testpaths`` is ``tests``).
"""

import json
import os
import re
import sys
import time

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
for _path in (os.path.join(_ROOT, "src"), _ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.spine import (compare, dataset as ds, harness, oracle,  # noqa: E402
                              stats, streams)
from benchmarks.spine.cli import run_one  # noqa: E402
from benchmarks.spine.metrics import (END_TO_END, PER_LAYER, WORKLOADS,  # noqa: E402
                                      benchmark_json, workload_names)
from benchmarks.spine.sizing import SIZES  # noqa: E402
from benchmarks.spine.tracer import Tracer, self_times  # noqa: E402

SPEC = ds.DatasetSpec(keys=16, versions=2, history=40)


# -- determinism ---------------------------------------------------------------

def test_same_seed_gives_byte_identical_dataset_and_streams():
    assert ds.plan(SPEC, 7).fingerprint() == ds.plan(SPEC, 7).fingerprint()
    assert ds.plan(SPEC, 7).fingerprint() != ds.plan(SPEC, 8).fingerprint()
    pins = ds.apply(ds.plan(SPEC, 7), ds.fresh_database()).pins

    def all_streams(seed):
        rw, ro, hot = streams.served(SPEC, pins, seed, 100)
        return b"|".join(streams.fingerprint(ops) for ops in (
            rw, ro, hot, streams.history(SPEC, pins, seed, 100),
            streams.ingest(SPEC, pins, seed, 100),
            streams.tail_commits(SPEC, seed, 3, 50),
            streams.cold_reads(SPEC, pins, seed, 3, 20),
            streams.disjoint_rmw(SPEC, seed, 1, 2, 30)))

    assert all_streams(7) == all_streams(7)
    assert all_streams(7) != all_streams(8)


def test_apply_is_deterministic_and_pins_are_one_day_apart():
    first = ds.apply(ds.plan(SPEC, 3), ds.fresh_database())
    again = ds.apply(ds.plan(SPEC, 3), ds.fresh_database())
    assert first.pins == again.pins and first.user_bytes == again.user_bytes
    chronons = [pin.chronon for pin in first.pins]
    assert chronons == list(range(chronons[0], chronons[0] + len(chronons)))


def test_mix_counts_are_exact_for_every_seed():
    import random
    for seed in range(5):
        shapes = streams.exact_mix(1000, streams.HISTORY_MIX,
                                   random.Random(seed))
        assert {shape: shapes.count(shape) for shape in set(shapes)} == {
            "asof_full": 300, "asof_point": 300, "asof_when": 200,
            "asof_through": 150, "replace": 50}
    rw, ro, _hot = streams.served(SPEC, [ds.BASE], 1, 500)
    assert sum(op.is_write for op in rw) == 200
    assert not any(op.is_write for op in ro)
    assert sum(op.shape == "replace_valid" for op in rw) == 50


# -- statistics ----------------------------------------------------------------

def test_nearest_rank_percentiles():
    samples = list(range(1, 101))  # 1..100
    assert stats.percentile(samples, 50) == 50
    assert stats.percentile(samples, 90) == 90  # 10 beyond: allowed
    assert stats.median([5.0, 1.0, 3.0]) == 3.0
    assert stats.median([4.0, 1.0]) == 1.0  # a sample that occurred


def test_percentile_refused_without_ten_samples_beyond():
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(list(range(100)), 95)  # only 5 beyond
    assert stats.percentile(list(range(200)), 95) == 189  # exactly 10
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(list(range(199)), 95)
    assert stats.try_percentile(list(range(20)), 99) is None
    with pytest.raises(stats.TooFewSamples):
        stats.percentile([], 50)


def test_spread_is_iqr_over_median_as_the_driver_computes_it():
    import statistics
    values = [10.0, 10.4, 9.8, 10.1, 10.2, 9.9, 10.0, 10.3, 9.7, 10.6]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.spread_share(values) == pytest.approx((q3 - q1) / q2)
    assert stats.slope([0, 1, 2, 3], [1.0, 3.0, 5.0, 7.0]) == pytest.approx(2)


# -- reference speed -------------------------------------------------------------

def test_timings_are_rescaled_by_the_probes_nearest_in_time():
    reference = harness.PROBE_REFERENCE_SECONDS
    pace = harness.Pace()
    # A probe of 1 ms wall every 20 ms: one second at reference speed, then
    # one second on a machine twice as slow.
    for index in range(100):
        pace.times.append(index * 0.02)
        pace.costs.append(reference if index < 50 else 2 * reference)
        pace.walls.append(0.001)
    assert pace.over(0.503, 0.513) == pytest.approx(1.0)
    assert pace.over(1.503, 1.513) == pytest.approx(2.0)
    assert pace.span(0.503, 0.513) == pytest.approx(0.010)
    assert pace.span(1.503, 1.513) == pytest.approx(0.005)
    # A long span goes block by block, without the probes' own time ...
    assert pace.out(0.0, 2.0) == pytest.approx(0.100)
    assert pace.span(0.0, 2.0) == pytest.approx(0.95 + 0.95 / 2)
    # ... and without what was declared untimed.
    pace.pause(0.201, 0.219)
    assert pace.span(0.0, 2.0) == pytest.approx(0.95 - 0.018 + 0.95 / 2)
    # Far from any probe, the nearest few on either side decide.
    sparse = harness.Pace()
    sparse.times, sparse.costs, sparse.walls = (
        [0.0, 10.0], [reference, 3 * reference], [0.001, 0.001])
    assert sparse.over(5.0, 5.1) == pytest.approx(2.0)


def test_the_probe_does_fixed_work_and_reads_near_the_reference():
    costs = sorted(harness.probe() for _ in range(50))
    assert 0.2 < costs[25] / harness.PROBE_REFERENCE_SECONDS < 5.0


# -- tracer ----------------------------------------------------------------------

def test_self_time_is_duration_minus_union_of_children():
    tracer = Tracer()
    root = tracer.add("request", 0.0, 10.0, request=1)
    child = tracer.add("server", 1.0, 9.0, parent=root.span_id, request=1)
    tracer.add("parse", 2.0, 3.0, parent=child.span_id, request=1)
    # Two overlapping children cover [4, 7] once, not twice.
    tracer.add("execute", 4.0, 6.0, parent=child.span_id, request=1)
    tracer.add("journal", 5.0, 7.0, parent=child.span_id, request=1)
    # A child sticking out of its parent is clipped to it.
    tracer.add("reply", 8.5, 12.0, parent=child.span_id, request=1)
    own = self_times(tracer.spans)
    assert own[root.span_id] == pytest.approx(2.0)      # 10 - [1, 9]
    assert own[child.span_id] == pytest.approx(8.0 - 1.0 - 3.0 - 0.5)
    leaves = [own[span.span_id] for span in tracer.spans[2:]]
    assert leaves == pytest.approx([1.0, 2.0, 2.0, 3.5])  # own duration


def test_nested_spans_share_the_request_id(tmp_path):
    tracer = Tracer()
    with tracer.request(42):
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
    assert inner.parent == outer.span_id and outer.parent is None
    assert inner.request == outer.request == 42
    assert outer.start <= inner.start <= inner.end <= outer.end
    path = tmp_path / "trace.jsonl"
    assert tracer.write_jsonl(str(path)) == 2
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert {row["name"] for row in rows} == {"outer", "inner"}
    assert set(rows[0]) == {"id", "name", "start", "end", "parent",
                            "request"}


# -- the contract -------------------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_names_units_counts_and_bounds_fit_the_contract():
    names = ([name for name, _ in WORKLOADS]
             + [m.name for m in END_TO_END] + [m.name for m in PER_LAYER])
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(END_TO_END) <= 16
    assert 1 <= len(PER_LAYER) <= 128
    for metric in END_TO_END + PER_LAYER:
        assert UNIT.match(metric.unit), metric
        assert metric.better in ("lower", "higher")
    assert all(0 < m.bound <= 0.25 for m in END_TO_END)
    setup = {m.name: m for m in END_TO_END}["setup_s"]
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in END_TO_END)
    for _name, why in WORKLOADS:
        assert len(why) <= 200 and "\n" not in why
    assert set(SIZES) == set(workload_names())


def test_benchmark_json_is_the_registry_written_out():
    path = os.path.join(_ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        on_disk = json.load(handle)
    assert on_disk == benchmark_json()
    assert set(on_disk) == {"command", "paths", "run_seconds", "workloads",
                            "end_to_end", "per_layer"}
    assert os.path.getsize(path) <= 64 * 1024
    assert 1 <= on_disk["run_seconds"] <= 60


# -- the oracle ------------------------------------------------------------------

def test_model_follows_plain_and_retroactive_replaces():
    model = oracle.FacultyModel(ds.plan(SPEC, 1))
    name = ds.key_name(0)
    start = ds.VALID_START
    model.replace(name, 111)
    assert model.key_state(name) == ([start, start + 365], [111, 111])
    model.replace(name, 222, valid_from=start + 100)
    assert model.key_state(name) == ([start, start + 100, start + 365],
                                     [111, 222, 222])
    assert oracle.FacultyModel.value_at(model.key_state(name), start + 99) == 111
    assert oracle.FacultyModel.value_at(model.key_state(name), start - 1) is None
    model.replace(name, 333, valid_from=start - 50)  # before all validity
    assert model.salaries[name] == [333, 333, 333]


def test_oracle_accepts_the_program_and_rejects_a_wrong_answer():
    from repro.tquel import Session
    plan = ds.plan(SPEC, 5)
    database = ds.fresh_database()
    ds.apply(plan, database)
    session = Session(database)
    session.execute(f"range of f is {ds.RELATION}")
    model = oracle.FacultyModel(plan)
    name = ds.key_name(3)
    day = ds.VALID_START + 200
    session.execute(f'replace f (salary = 4242) where f.name = "{name}" '
                    f'valid from "{ds.day(day)}"')
    query = f'retrieve (f.name, f.salary) where f.name = "{name}"'
    rows = oracle.to_wire_rows(session.execute(query))
    agrees = oracle.FacultyModel.agrees
    assert not agrees(model.key_state(name), rows)   # model not told yet
    assert agrees(model.preview(name, 4242, day), rows)  # in-flight state
    model.replace(name, 4242, day)
    assert agrees(model.key_state(name), rows)
    broken = [dict(row, values=dict(row["values"], salary=1)) for row in rows]
    assert not agrees(model.key_state(name), broken)
    assert not agrees(model.key_state(name), rows[:-1])  # a missing piece
    assert oracle.canonical(rows) != oracle.canonical(broken)
    assert oracle.canonical(rows) == oracle.canonical(list(reversed(rows)))


def test_as_of_answer_survives_later_commits_in_canonical_form():
    from repro.tquel import Session
    database = ds.fresh_database()
    data = ds.apply(ds.plan(SPEC, 2), database)
    session = Session(database)
    session.execute(f"range of f is {ds.RELATION}")
    query = (f'retrieve (f.name, f.salary) where f.name = "{ds.key_name(1)}" '
             f'as of "{ds.literal(data.pins[-1])}"')
    before = oracle.canonical(oracle.to_wire_rows(session.execute(query)))
    session.execute(f'replace f (salary = 1) '
                    f'where f.name = "{ds.key_name(1)}"')
    assert oracle.canonical(oracle.to_wire_rows(session.execute(query))) \
        == before


# -- compare ---------------------------------------------------------------------

def _result(workload, values):
    return {"stamp": {}, "runs": [
        {"workload": workload, "traced": False,
         "metrics": {"ops_per_s": {"value": value}}} for value in values]}


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    rows = compare.compare(_result("lifecycle", steady),
                           _result("lifecycle", steady))
    assert [row["verdict"] for row in rows] == ["ok"]
    slower = [value * 0.70 for value in steady]   # ops_per_s: higher better
    assert compare.compare(_result("lifecycle", steady),
                           _result("lifecycle", slower))[0]["verdict"] \
        == "regressed"
    faster = [value * 1.5 for value in steady]
    assert compare.compare(_result("lifecycle", steady),
                           _result("lifecycle", faster))[0]["verdict"] == "ok"
    noisy = [60.0, 140.0, 100.0, 80.0, 120.0]
    assert compare.compare(_result("lifecycle", steady),
                           _result("lifecycle", noisy))[0]["verdict"] \
        == "unresolved"


# -- smoke: every workload, oracle on ---------------------------------------------

def test_smoke_runs_every_workload_with_the_oracle_on_in_under_20s():
    began = time.monotonic()
    for workload in workload_names():
        run = run_one(workload, seed=11, seconds=10, traced=False,
                      smoke=True)
        assert run.correct, (workload, run.wrong_answers)
        assert run.failed == 0, (workload, run.failures)
        assert run.attempted >= 40
        assert set(run.metrics) == {m.name for m in END_TO_END}
        assert run.metrics["ops_per_s"]["value"] > 0
    assert time.monotonic() - began < 20.0
    assert not os.path.exists(os.path.join(_ROOT, ".spine_scratch"))
