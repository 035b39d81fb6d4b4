"""What every workload shares: scratch space, tallies, caps, the result.

Nothing here knows a workload; it holds the rules they all obey — write
only under the checkout (``.spine_scratch/``, always removed), count
every op against the number attempted with failures broken down by
exception class, never wait past a wall cap, stay on one CPU and report
every gated timing at reference speed (:class:`Pace`), through one
:class:`RunResult` shape.
"""

from __future__ import annotations

import bisect
import collections
import contextlib
import dataclasses
import gc
import json
import os
import re
import shutil
import statistics
import tempfile
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from benchmarks.spine import stats
from benchmarks.spine.streams import Op

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")
SCRATCH_PARENT = os.path.join(ROOT, ".spine_scratch")

#: A workload may run this many times its expected duration before its
#: remaining ops are counted failed instead of waited for.
WALL_CAP_FACTOR = 3.0
#: What the lifecycle epilogue after a measured phase is expected to take.
EPILOGUE_SECONDS = 10.0
#: ``PYTHONHASHSEED`` of the bench process and of every server it spawns.
#: Relations are sets of tuples of strings, so string-hash randomisation
#: reorders rows and trees from one process to the next and moves whole-run
#: speed by several percent; pinning it removes that noise from every run
#: on both sides of a comparison alike.
HASH_SEED = "0"
#: Every request carries a budget; nothing waits on the program forever.
BUDGET_MS = 5000.0

#: Rounds of the speed probe's fixed work (about 0.4 ms in all).
PROBE_ROUNDS = 16
#: CPU seconds the probe takes on a machine of *reference speed* — the
#: reference box in its usual mode, beside a running workload, to within a
#: few percent.  Every timing the benchmark gates is reported as it would
#: have read on such a machine.
PROBE_REFERENCE_SECONDS = 0.00043
#: The measured loops probe at most this often: 0.4 ms in 25 ms is 2 %.
PROBE_EVERY_SECONDS = 0.025
#: A timing is rescaled by the probes taken up to this long before it
#: began and after it ended (the speed can flip within a second, and over
#: ten runs a 0.5 s window left ``read_p95_ms`` twice the spread) ...
PROBE_WINDOW_SECONDS = 0.1
#: ... and by at least this many, however far away they are.
MIN_PROBES = 5
#: Probes in a burst around a call too long to probe inside.
PROBE_BURST = 9
#: :meth:`Pace.span` rescales a long interval block by block.
SPAN_BLOCK_SECONDS = 1.0


@contextlib.contextmanager
def scratch_dir(label: str) -> Iterator[str]:
    """A fresh directory under the checkout, removed on the way out."""
    os.makedirs(SCRATCH_PARENT, exist_ok=True)
    path = tempfile.mkdtemp(prefix=f"{label}-", dir=SCRATCH_PARENT)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(SCRATCH_PARENT)  # only succeeds once it is empty


def pin_to_one_cpu() -> None:
    """Keep everything a run starts on one CPU: this process, its threads
    and the server it spawns (a child inherits the mask).

    The sandbox's virtual CPUs change speed independently of one another,
    so work has to stay on the CPU the speed probe runs on; and a closed
    loop between two processes is serial anyway — ``served-oltp`` is
    faster on one CPU than spread over two, where every request pays two
    cross-CPU wake-ups.
    """
    with contextlib.suppress(AttributeError, OSError):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class _ProbeRow:
    __slots__ = ("name", "rank", "salary")

    def __init__(self, index: int) -> None:
        self.name = f"n{index:04d}"
        self.rank = ("full", "assistant")[index % 2]
        self.salary = 30_000 + index


_PROBE_ROWS = [_ProbeRow(index) for index in range(40)]
_PROBE_PATTERN = re.compile(r'(\w+) = "(n\d+)"')
_PROBE_TEXT = 'retrieve (f.name) where f.name = "n0042" as of "1980-02-03"'
#: What one round adds up to: the work is fixed, and checked to be.
_PROBE_CHECKSUM = 600_645


def probe() -> float:
    """CPU seconds a fixed mix of ordinary Python work takes right now.

    The mix — a JSON round trip, a regular-expression search, a keyed
    sort, comprehensions, attribute reads, string formatting — is what an
    interpreter running the program does, and none of it is the program.
    Measured against the workloads over ten runs each, it followed their
    slowdowns two to three times closer than a tight arithmetic loop did
    (which sits in the first-level cache and one branch pattern), and a
    pointer chase through a few megabytes followed them worse than either.

    Thread CPU time, not wall: a probe that loses the CPU to the server
    half-way through still reads the machine's speed, not the scheduler's
    choice.
    """
    started = time.thread_time()
    for _ in range(PROBE_ROUNDS):
        document = json.dumps(
            {"q": "retrieve", "rows": [[row.name, row.salary]
                                       for row in _PROBE_ROWS[:12]]},
            sort_keys=True)
        back = json.loads(document)
        key = _PROBE_PATTERN.search(_PROBE_TEXT).group(2)
        full = sorted((row for row in _PROBE_ROWS if row.rank == "full"),
                      key=lambda row: -row.salary)
        table = {row.name: (row.salary, row.rank) for row in full}
        text = ", ".join(f"{name}:{value[0]}"
                         for name, value in table.items())
        if (sum(value[0] for value in table.values()) + len(text)
                + len(back) + len(key)) != _PROBE_CHECKSUM:
            raise AssertionError("the speed probe computed something else")
    return time.thread_time() - started


class Pace:
    """The machine's speed, sampled beside the work it is used to rescale.

    The sandbox is a few virtual CPUs of a shared host, and a virtual CPU
    flips between two speeds about a fifth apart, staying in one for tens
    of seconds: as long as a run.  Ten runs of the same code therefore
    land in two clusters, and no statistic taken *inside* a run can pull
    them together — every latency of a run moves by the same factor.  A
    fixed piece of work timed every few tens of milliseconds moves by
    that factor too, so each timing is divided by ``probe time near it /
    reference probe time`` and reported at reference speed.  The program's
    own speed cannot move the probe: it runs none of the program's code.
    """

    def __init__(self) -> None:
        self.times: List[float] = []   # perf_counter at each probe's start
        self.costs: List[float] = []   # its CPU seconds
        self.walls: List[float] = []   # its wall seconds
        #: Intervals :meth:`span` leaves out besides the probes themselves.
        self.pauses: List[Tuple[float, float]] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            started = time.perf_counter()
            self.costs.append(probe())
            self.times.append(started)
            self.walls.append(time.perf_counter() - started)

    def tick(self) -> None:
        """Probe unless one ran within :data:`PROBE_EVERY_SECONDS`."""
        if (not self.times or time.perf_counter() - self.times[-1]
                >= PROBE_EVERY_SECONDS):
            self.sample()

    def pause(self, began: float, ended: float) -> None:
        """Untimed work inside a measured span (an oracle re-check)."""
        self.pauses.append((began, ended))

    def over(self, began: float, ended: float) -> float:
        """Probe time over reference probe time around ``[began, ended]``:
        1.0 at reference speed, more on a slower machine."""
        low = bisect.bisect_left(self.times, began - PROBE_WINDOW_SECONDS)
        high = bisect.bisect_right(self.times, ended + PROBE_WINDOW_SECONDS)
        if high - low < MIN_PROBES:
            middle = bisect.bisect_left(self.times, (began + ended) / 2)
            low = max(0, min(low, middle - MIN_PROBES))
            high = min(len(self.times), max(high, middle + MIN_PROBES))
        return statistics.median(self.costs[low:high]) \
            / PROBE_REFERENCE_SECONDS

    def out(self, began: float, ended: float) -> float:
        """Seconds of ``[began, ended]`` spent in probes and pauses."""
        low = bisect.bisect_left(self.times, began)
        high = bisect.bisect_left(self.times, ended)
        return sum(self.walls[low:high]) + sum(
            end - start for start, end in self.pauses
            if began <= start < ended)

    def span(self, began: float, ended: float) -> float:
        """``[began, ended]`` in reference-speed seconds: rescaled block by
        block, with the probes' own time and the pauses taken out."""
        total = 0.0
        edge = began
        while True:
            upto = min(edge + SPAN_BLOCK_SECONDS, ended)
            total += max(0.0, upto - edge - self.out(edge, upto)) \
                / self.over(edge, upto)
            if upto >= ended:
                return total
            edge = upto


def vm_hwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of *pid* (default: this process), MB."""
    status = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(status, encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {status}")


def dir_bytes(path: str) -> int:
    """Bytes of every regular file under *path*."""
    total = 0
    for base, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total


class WallCap:
    """A wall-clock limit checked between ops (never interrupts one)."""

    def __init__(self, measured_seconds: float) -> None:
        expected = measured_seconds + EPILOGUE_SECONDS
        self.limit = expected * WALL_CAP_FACTOR
        self.started = time.monotonic()

    @property
    def expired(self) -> bool:
        return time.monotonic() - self.started > self.limit


class Tally:
    """Ops attempted, timed, failed (by exception class) and answered wrong.

    A wrong answer is a failure: it counts in :attr:`failed` and makes
    the run incorrect.  Latencies are kept only for ops that succeeded —
    a failed or refused op has no latency, it has missed every limit —
    as ``(perf_counter at the start, seconds)``, so that each can be
    rescaled by the machine's speed at that moment.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.reads: List[Tuple[float, float]] = []
        self.writes: List[Tuple[float, float]] = []
        self.failures: collections.Counter = collections.Counter()
        self.wrong: collections.Counter = collections.Counter()
        #: The first wrong answer of each kind, for the report.
        self.examples: Dict[str, str] = {}

    def ok(self, op: Op, started: float, seconds: float) -> None:
        (self.writes if op.is_write else self.reads).append(
            (started, seconds))

    def fail(self, error: BaseException) -> None:
        self.failures[type(error).__name__] += 1

    def abandon(self, count: int) -> None:
        """Ops never issued because the wall cap expired: all failed."""
        if count > 0:
            self.attempted += count
            self.failures["WallCapExceeded"] += count

    def expect(self, condition: bool, what: str,
               detail: Callable[[], str] = lambda: "") -> None:
        """An oracle assertion: false counts one wrong answer of *what*
        (and keeps *detail* of the first one)."""
        if not condition:
            self.wrong[what] += 1
            if what not in self.examples:
                self.examples[what] = detail()[:600]

    @property
    def failed(self) -> int:
        return sum(self.failures.values()) + sum(self.wrong.values())

    @property
    def succeeded(self) -> int:
        return len(self.reads) + len(self.writes)


@dataclasses.dataclass
class RunResult:
    """One run of one workload, traced or not."""

    workload: str
    seed: int
    seconds: float
    traced: bool
    attempted: int
    failed: int
    correct: bool
    #: ``name -> {"value", "unit", "n"}``; ``value`` is ``None`` where the
    #: sample could not support the statistic (smoke sizes only).
    metrics: Dict[str, Dict[str, Any]]
    failures: Dict[str, int] = dataclasses.field(default_factory=dict)
    wrong_answers: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: The first wrong answer of each kind, verbatim.
    wrong_examples: Dict[str, str] = dataclasses.field(default_factory=dict)
    #: Printed beside the metrics, never gated: p99s, lateness, counts.
    notes: Dict[str, Any] = dataclasses.field(default_factory=dict)

    def contract_line(self) -> Dict[str, Any]:
        """The one-line JSON object the ``BENCHMARK.json`` contract reads."""
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {name: {"value": entry["value"],
                                   "unit": entry["unit"]}
                            for name, entry in self.metrics.items()}}


def result(workload: str, seed: int, seconds: float, traced: bool,
           tally: Tally, metrics: Dict[str, Dict[str, Any]],
           notes: Dict[str, Any]) -> RunResult:
    """A :class:`RunResult` from a finished tally (wrong answer = incorrect)."""
    return RunResult(
        workload=workload, seed=seed, seconds=seconds, traced=traced,
        attempted=tally.attempted, failed=tally.failed,
        correct=not tally.wrong, metrics=metrics,
        failures=dict(tally.failures), wrong_answers=dict(tally.wrong),
        wrong_examples=dict(tally.examples), notes=notes)


def metric(value: Optional[float], unit: str,
           n: Optional[int] = None) -> Dict[str, Any]:
    return {"value": value, "unit": unit, "n": n}


def timed_setups(build: Callable[[], Any], teardown: Callable[[Any], None],
                 repeats: int, pace: Pace) -> Any:
    """Set up *repeats* times; keep the last one, report every time.

    Set-up is measured like everything else — several samples and a
    median, at reference speed — so that work a later change moves into
    set-up shows up in ``setup_s`` instead of hiding in one noisy sample.
    Earlier set-ups are torn down before the next begins.  *build* probes
    *pace* as it goes wherever the loop is the benchmark's own.
    """
    samples = []
    built = None
    for index in range(repeats):
        if built is not None:
            teardown(built)
        gc.collect()
        pace.sample(PROBE_BURST)
        started = time.perf_counter()
        built = build()
        ended = time.perf_counter()
        pace.sample(PROBE_BURST)
        samples.append(pace.span(started, ended))
    return built, samples


def end_to_end(tally: Tally, pace: Pace, began: float, ended: float,
               setup_samples: List[float], lifecycle: Dict[str, List[float]],
               disk_ratio: float, peak_rss_mb: float,
               notes: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Every end-to-end metric, from one workload's samples.

    The measured phase ran over ``[began, ended]`` on the ``perf_counter``
    clock; it and the tally's latencies are rescaled to reference speed
    here, *setup_samples* and *lifecycle* already are.  Tail percentiles
    that are not end-to-end metrics (``write_p95_ms``, both p99s) go into
    *notes* wherever the sample supports them, beside what the clock
    itself read and the speeds the probe saw.
    """
    wall_seconds = pace.span(began, ended)
    reads, writes = ([pace.span(started, started + seconds) * 1e3
                      for started, seconds in samples]
                     for samples in (tally.reads, tally.writes))
    notes["unscaled_ops_per_s"] = tally.succeeded / (
        ended - began - pace.out(began, ended))
    notes["unscaled_read_p95_ms"] = stats.try_percentile(
        [seconds * 1e3 for _, seconds in tally.reads], 95)
    for label, samples, q in (("write", writes, 95), ("read", reads, 99),
                              ("write", writes, 99)):
        tail = stats.try_percentile(samples, q)
        if tail is not None:
            notes[f"{label}_p{q}_ms"] = tail
    speeds = sorted(cost / PROBE_REFERENCE_SECONDS for cost in pace.costs)
    notes["probe_slowdown_p5_p50_p95"] = [
        round(speeds[int(len(speeds) * share)], 3)
        for share in (0.05, 0.5, 0.95)]

    def p50_ms(samples: List[float]) -> Dict[str, Any]:
        scaled = [s * 1e3 for s in samples]
        return metric(stats.try_percentile(scaled, 50), "ms", len(scaled))

    return {
        "setup_s": metric(stats.median(setup_samples), "s",
                          len(setup_samples)),
        "ops_per_s": metric(tally.succeeded / wall_seconds
                            if wall_seconds > 0 else None, "1/s",
                            tally.succeeded),
        "read_p50_ms": metric(stats.try_percentile(reads, 50), "ms",
                              len(reads)),
        "read_p95_ms": metric(stats.try_percentile(reads, 95), "ms",
                              len(reads)),
        "write_p50_ms": metric(stats.try_percentile(writes, 50), "ms",
                               len(writes)),
        "restart_p50_ms": p50_ms(lifecycle["restart"]),
        "checkpoint_p50_ms": p50_ms(lifecycle["checkpoint"]),
        "catchup_p50_ms": p50_ms(lifecycle["catchup"]),
        "disk_bytes_per_user_byte": metric(disk_ratio, "ratio"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
