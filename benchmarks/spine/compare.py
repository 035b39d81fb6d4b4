"""Result files, their commit stamp, and the A/B (and A/A) table.

A result file is ``{"stamp": …, "runs": [RunResult as a dict, …]}``.
:func:`compare` turns two of them into one row per workload × end-to-end
metric — each side's median and quartiles, the bound, and a verdict:

- ``unresolved`` — either side's own inter-quartile spread is wider than
  the bound, so the bound cannot be told from noise;
- ``regressed`` — side B's median is worse than side A's by more than
  the bound;
- ``ok`` — otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence

from benchmarks.spine import harness, stats
from benchmarks.spine.metrics import END_TO_END, workload_names

#: Layer metrics that are exact counts: on the single-threaded workloads
#: two runs of the same code and seed must agree to the last digit.
EXACT_COUNTS = ("core.resultcache_hit_share", "core.resultcache_evictions",
                "core.index_patches", "core.index_rebuilds",
                "core.columnar_extends", "core.columnar_rebuilds",
                "tquel.plan_naive_share", "tquel.plan_index_share",
                "tquel.plan_columnar_share",
                "storage.journal_bytes_per_commit")
SINGLE_THREADED = ("embedded-history", "embedded-ingest", "lifecycle")


def _git(*arguments: str) -> Optional[str]:
    try:
        done = subprocess.run(["git", *arguments], cwd=harness.ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def stamp(seed: int, argv: Sequence[str]) -> Dict[str, Any]:
    """Where a result came from: commit, dirtiness, interpreter, box."""
    status = _git("status", "--porcelain")
    return {
        "git_sha": _git("rev-parse", "HEAD") or "unknown",
        "git_dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "argv": list(argv),
    }


def save(path: str, run_stamp: Dict[str, Any],
         runs: List[harness.RunResult]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"stamp": run_stamp,
                   "runs": [dataclasses.asdict(run) for run in runs]},
                  handle, indent=1, sort_keys=True)
        handle.write("\n")


def load(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _values(runs: List[Dict[str, Any]], workload: str, metric: str,
            traced: bool = False) -> List[float]:
    return [run["metrics"][metric]["value"] for run in runs
            if run["workload"] == workload and run["traced"] is traced
            and run["metrics"].get(metric, {}).get("value") is not None]


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float) -> str:
    if max(stats.spread_share(a), stats.spread_share(b)) > bound:
        return "unresolved"
    base, change = stats.quartiles(a)["median"], stats.quartiles(b)["median"]
    if base == 0:
        return "ok" if change == 0 else "unresolved"
    worse = (change - base) / abs(base)
    if better == "higher":
        worse = -worse
    return "regressed" if worse > bound else "ok"


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per workload × end-to-end metric present on both sides."""
    rows = []
    for workload in workload_names():
        for spec in END_TO_END:
            side_a = _values(a["runs"], workload, spec.name)
            side_b = _values(b["runs"], workload, spec.name)
            if not side_a or not side_b:
                continue
            rows.append({
                "workload": workload, "metric": spec.name,
                "unit": spec.unit, "bound": spec.bound,
                "a": stats.quartiles(side_a), "b": stats.quartiles(side_b),
                "n": (len(side_a), len(side_b)),
                "verdict": verdict(side_a, side_b, spec.better, spec.bound),
            })
    return rows


def exact_count_mismatches(a: Dict[str, Any],
                           b: Dict[str, Any]) -> List[str]:
    """Exact-count layer metrics that differ between two traced sets."""
    problems = []
    for workload in SINGLE_THREADED:
        for name in EXACT_COUNTS:
            side_a = _values(a["runs"], workload, name, traced=True)
            side_b = _values(b["runs"], workload, name, traced=True)
            if side_a and side_b and side_a != side_b:
                problems.append(f"{workload} {name}: {side_a} vs {side_b}")
    return problems


def render(rows: List[Dict[str, Any]], out=sys.stdout) -> None:
    header = (f"{'workload':18s} {'metric':26s} {'unit':6s} "
              f"{'A median [q1, q3]':>34s} {'B median [q1, q3]':>34s} "
              f"{'bound':>6s}  verdict")
    print(header, file=out)
    print("-" * len(header), file=out)
    for row in rows:
        def side(q: Dict[str, float]) -> str:
            return (f"{q['median']:.4g} [{q['q1']:.4g}, {q['q3']:.4g}]")
        print(f"{row['workload']:18s} {row['metric']:26s} {row['unit']:6s} "
              f"{side(row['a']):>34s} {side(row['b']):>34s} "
              f"{row['bound']:6.0%}  {row['verdict']}", file=out)
