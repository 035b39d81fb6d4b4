"""Command line of the spine: one run, all runs, compare, A/A.

``--workload W --seed N --seconds S --trace 0|1`` is the contract form
``BENCHMARK.json`` names: one run, whose last stdout line is one JSON
object.  Without ``--workload`` every workload runs (``--repeats`` times,
on seeds ``seed, seed+1, …``) and every metric is printed by name with
its unit and sample count.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import multiprocessing
import os
import sys
import time
from typing import Callable, List, Optional, Sequence

from benchmarks.spine import compare as cmp
from benchmarks.spine import harness, stats
from benchmarks.spine.metrics import (END_TO_END, PER_LAYER, RUN_SECONDS,
                                      benchmark_json, workload_names)
from benchmarks.spine.sizing import SIZES

OUT_DIR = os.path.join(harness.ROOT, ".spine_out")


def run_one(workload: str, seed: int, seconds: float, traced: bool,
            smoke: bool = False, both_write: bool = False
            ) -> harness.RunResult:
    """One run of one workload (imports the runner it needs, lazily, so
    ``--compare`` works without the program importable)."""
    sizing = SIZES[workload].smoke() if smoke else SIZES[workload]
    if traced:
        from benchmarks.spine import ledger
        return ledger.run_traced(workload, sizing, seed, seconds,
                                 os.path.join(OUT_DIR, "trace.jsonl"))
    from benchmarks.spine import embedded, served
    if both_write and workload == "served-oltp":
        return served.run_served(sizing, seed, seconds, both_write=True)
    runner: Callable[..., harness.RunResult] = {
        "served-oltp": served.run_served,
        "embedded-history": embedded.run_history,
        "embedded-ingest": embedded.run_ingest,
        "lifecycle": embedded.run_lifecycle,
    }[workload]
    return runner(sizing, seed, seconds)


def run_isolated(*arguments) -> harness.RunResult:
    """:func:`run_one` in a fresh interpreter, as the contract form runs it.

    ``VmHWM`` is a high-water mark of the whole process and the collector's
    heap remembers earlier runs, so a run that shares a process with its
    predecessors does not measure what a run on its own does.
    """
    context = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=1, mp_context=context) as pool:
        return pool.submit(run_one, *arguments).result()


def print_run(run: harness.RunResult, out=sys.stdout) -> None:
    kind = "traced" if run.traced else "untraced"
    print(f"== {run.workload}  seed={run.seed}  seconds={run.seconds:g}  "
          f"{kind}", file=out)
    moves = {m.name: f"  -> {m.moves}" for m in PER_LAYER}
    for name, entry in run.metrics.items():
        value = entry["value"]
        shown = "refused (too few samples)" if value is None \
            else f"{value:.6g}"
        count = f"  n={entry['n']}" if entry.get("n") is not None else ""
        print(f"  {name:36s} {shown:>14s} {entry['unit']:6s}{count}"
              f"{moves.get(name, '')}", file=out)
    share = run.failed / run.attempted if run.attempted else 0.0
    print(f"  {'failed_share':36s} {share:14.6g} share   "
          f"({run.failed} of {run.attempted} attempted)", file=out)
    for label, table in (("failed", run.failures),
                         ("wrong answer", run.wrong_answers)):
        for what, count in sorted(table.items()):
            print(f"    {label}: {what} x{count}", file=out)
    for what, example in sorted(run.wrong_examples.items()):
        print(f"    first {what}: {example}", file=out)
    for name, value in sorted(run.notes.items()):
        print(f"  note {name} = {value}", file=out)
    print(f"  correct = {run.correct}", file=out)


def _contract(args: argparse.Namespace) -> int:
    traced = args.trace == "1"
    run = run_one(args.workload, args.seed, args.seconds, traced)
    print_run(run)
    expected = [m.name for m in (PER_LAYER if traced else END_TO_END)]
    missing = [name for name in expected
               if run.metrics.get(name, {}).get("value") is None]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    print(json.dumps(run.contract_line()))
    return 0 if run.correct else 1


def _run_set(names: Sequence[str], seeds: Sequence[int], seconds: float,
             traced: bool, smoke: bool,
             both_write: bool = False) -> List[harness.RunResult]:
    runs = []
    for workload in names:
        for seed in seeds:
            began = time.monotonic()
            run = run_isolated(workload, seed, seconds, False, smoke,
                               both_write)
            print_run(run)
            print(f"  (run took {time.monotonic() - began:.1f}s)")
            runs.append(run)
        if traced:
            run = run_isolated(workload, seeds[0], seconds, True, smoke)
            print_run(run)
            runs.append(run)
    return runs


def _summary(runs: List[harness.RunResult]) -> None:
    """Median and spread of every end-to-end metric over repeated runs."""
    print("\nworkload           metric                      median      "
          "spread (IQR/median)   bound")
    for workload in workload_names():
        for spec in END_TO_END:
            values = [run.metrics[spec.name]["value"] for run in runs
                      if run.workload == workload and not run.traced
                      and run.metrics[spec.name]["value"] is not None]
            if len(values) < 2:
                continue
            print(f"{workload:18s} {spec.name:26s} "
                  f"{stats.quartiles(values)['median']:10.4g} "
                  f"{stats.spread_share(values):12.2%} {spec.bound:16.0%}")


def _all(args: argparse.Namespace) -> int:
    names = args.workloads.split(",") if args.workloads else workload_names()
    seeds = [args.seed + index for index in range(args.repeats)]
    runs = _run_set(names, seeds, args.seconds, args.trace == "1",
                    args.smoke, args.both_write)
    if args.repeats > 1:
        _summary(runs)
    if args.out:
        cmp.save(args.out, cmp.stamp(args.seed, sys.argv), runs)
        print(f"wrote {args.out}")
    bad = [run for run in runs if not run.correct]
    for run in bad:
        print(f"WRONG ANSWER in {run.workload} seed {run.seed}: "
              f"{run.wrong_answers}", file=sys.stderr)
    return 1 if bad else 0


def _compare(paths: Sequence[str]) -> int:
    a, b = cmp.load(paths[0]), cmp.load(paths[1])
    for label, data in (("A", a), ("B", b)):
        print(f"{label}: {data['stamp']}")
    rows = cmp.compare(a, b)
    cmp.render(rows)
    return 0 if all(row["verdict"] == "ok" for row in rows) else 1


def _aa(args: argparse.Namespace) -> int:
    """Two sets of runs of the same code and seeds; every row must be ok."""
    os.makedirs(OUT_DIR, exist_ok=True)
    names = args.workloads.split(",") if args.workloads else workload_names()
    seeds = [args.seed + index for index in range(args.repeats)]
    paths = []
    for label in ("a", "b"):
        runs = _run_set(names, seeds, args.seconds, True, args.smoke)
        path = os.path.join(OUT_DIR, f"aa-{label}.json")
        cmp.save(path, cmp.stamp(args.seed, sys.argv), runs)
        paths.append(path)
    status = _compare(paths)
    mismatches = cmp.exact_count_mismatches(cmp.load(paths[0]),
                                            cmp.load(paths[1]))
    for line in mismatches:
        print(f"exact count differs: {line}")
    return 1 if status or mismatches else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.spine", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workload_names(),
                        help="run this one workload and end with the "
                             "contract's JSON line")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated subset for the all-runs form")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS),
                        help="requested length of the measured phase; the "
                             "op count is fixed from it")
    parser.add_argument("--trace", nargs="?", const="1", default="0",
                        choices=("0", "1"),
                        help="1: the traced run (per-layer ledger, "
                             "trace.jsonl); 0: the measured run")
    parser.add_argument("--repeats", type=int, default=1,
                        help="runs per workload (seeds seed, seed+1, …)")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at 1/50 size, oracle on")
    parser.add_argument("--both-write", action="store_true",
                        help="served-oltp with both connections writing: "
                             "reproduces the two-writer race (README, "
                             "Defects surfaced); never part of a gated run")
    parser.add_argument("--out", default=None,
                        help="write the runs and their commit stamp here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--aa", action="store_true",
                        help="run two sets of the same code; exit non-zero "
                             "unless every row is ok")
    parser.add_argument("--print-benchmark-json", action="store_true")
    return parser


def _pin_hash_seed() -> None:
    """Re-execute this interpreter with ``PYTHONHASHSEED`` pinned, once."""
    if os.environ.get("PYTHONHASHSEED") != harness.HASH_SEED:
        sys.stdout.flush()
        os.environ["PYTHONHASHSEED"] = harness.HASH_SEED
        os.execv(sys.executable, [sys.executable] + sys.orig_argv[1:])


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if argv is None and not args.compare and not args.print_benchmark_json:
        _pin_hash_seed()
        harness.pin_to_one_cpu()
    if args.print_benchmark_json:
        print(json.dumps(benchmark_json(), indent=2))
        return 0
    if args.compare:
        return _compare(args.compare)
    if args.aa:
        return _aa(args)
    if args.workload:
        return _contract(args)
    return _all(args)
