"""The cost-based TQuel access planner.

For every range variable of a ``retrieve``, the evaluator can source the
candidate rows three ways:

- **naive** — scan every stored row as a Python object and test the
  temporal clauses per row.  Always available; the executable
  specification the other two paths owe their results to.
- **index** — probe the interval trees of
  :class:`~repro.core.indexing.DatabaseIndexCache` (transaction-time stab
  or range overlap), then evaluate predicates on the ``O(log n + k)``
  survivors.
- **columnar** — run vectorized mask kernels over the packed period and
  value columns of a :class:`~repro.core.columnar.ColumnarChunk`, then
  materialize only the selected rows.

This module picks between them per relation, from per-relation stats
(row counts, open/closed split, which accelerators are actually built)
— the cost model below is the *documented plan contract*; the formulas,
constants and decision rules are spelled out in
``docs/QUERY_PLANNING.md`` and a future planner change is expected to
edit both together.

Cost model (abstract units; one unit ≈ one Python-level row visit)::

    naive    = N · (C_ROW + C_PRED · P)  +  k · C_WHEN?
    index    = C_PROBE · log2(N + 2)  +  k · (C_ROW + C_PRED · P)  +  k · C_WHEN?
    columnar = C_PACK · N  (first build only)
             + C_SETUP + C_CELL · N · (1 + V + W)
             + k · (C_MAT + C_PRED · (P − V))

where ``N`` is total stored rows, ``k`` the estimated selectivity of the
transaction-time clauses, ``P`` the pushed single-variable conjuncts,
``V`` how many of those the columnar path can run as column kernels, and
``W``/``C_WHEN?`` a per-row ``when``-predicate term charged to the scalar
paths only when the statement's ``when`` clause is kernel-eligible.
``C_CELL`` depends on whether NumPy is importable — the fallback kernels
are tight float loops, several times slower than ndarray ops but still
far cheaper than per-row ``Period`` object calls.

Selectivity ``k`` is estimated *structurally*, not from sampled value
distributions: the open partition is exactly the current state, so a
default (``as of`` omitted) query selects ``open`` rows precisely; an
``as of`` stab keeps the open rows plus a thin slice of the closed past
(``closed / 8``); a ``through`` range keeps about half the closed past
(``closed / 2``).  Kinds without transaction time select everything.

One case is settled before any costing (:func:`key_lookup`): a
current-state read (no ``as of``) whose pushed conjuncts bind every
schema-key attribute by ``=`` is one probe of the store's by-key index
of its open rows — an ``index`` plan whose ``estimated_rows`` is simply
what the probe returned.

Ties break deterministically: ``naive`` < ``index`` < ``columnar``.
A forced plan (``plan=naive|index|columnar``) skips the costing; forcing
an unavailable path degrades to ``naive`` with the reason recorded, so
forced-plan differential tests run on every database kind.
"""

from __future__ import annotations

import math
from typing import Dict, NamedTuple, Optional, Sequence

from repro.core.base import Database
from repro.core.historical import HistoricalRelation
from repro.core.rollback import StateSequence
from repro.core.transaction_time import TransactionTimeStore

__all__ = ["PLAN_MODES", "AccessPlan", "RelationProfile", "profile",
           "choose", "key_lookup", "KEY_ACCESS", "COSTS"]

#: The Session/Evaluator plan knob values.
PLAN_MODES = ("auto", "naive", "index", "columnar")

#: The cost constants — the tunable half of the plan contract
#: (docs/QUERY_PLANNING.md documents what each one charges for).
COSTS = {
    "C_ROW": 1.0,     # visit one stored row as a Python object
    "C_PRED": 0.6,    # one pushed conjunct, run as a compiled closure
    "C_WHEN": 1.0,    # one `when` predicate, walked over folded Periods
    "C_PROBE": 4.0,   # one interval-tree descent step (× log2 N)
    "C_MAT": 0.25,    # materialize one candidate from a chunk row
    "C_CELL_NUMPY": 0.03,  # one cell of an ndarray mask kernel
    "C_CELL_PY": 0.35,     # one cell of the fallback float-loop kernel
    "C_PACK": 1.5,    # pack one row into columns (first chunk build)
    "C_SETUP": 30.0,  # fixed planning/kernel setup (keeps tiny scans naive)
}


class RelationProfile(NamedTuple):
    """Per-relation stats the planner costs against."""

    relation: str
    total_rows: int
    open_rows: int
    #: Does the store carry transaction time (a closed/open partition)?
    has_tt: bool
    #: Can the index path beat a scan for this kind (tt trees exist)?
    index_available: bool
    #: Does this kind/representation have a columnar form at all?
    columnar_available: bool
    #: Is the chunk already built for the current relation version?
    chunk_ready: bool

    @property
    def closed_rows(self) -> int:
        return self.total_rows - self.open_rows


class Clauses(NamedTuple):
    """The statement shape, reduced to what the cost model reads."""

    has_as_of: bool
    has_through: bool
    #: Pushed single-variable conjuncts for this range variable.
    pushed: int
    #: How many of those the columnar path runs as column kernels.
    vectorizable: int
    #: Is the `when` clause kernel-eligible for this variable?
    when_kernel: bool


class AccessPlan(NamedTuple):
    """One chosen access path, with the costing that chose it."""

    path: str              # "naive" | "index" | "columnar"
    estimated_rows: int    # the selectivity estimate k
    reason: str            # deterministic one-line justification
    costs: Dict[str, Optional[float]]  # per-path cost, None = unavailable


#: ``explain``'s words for the access path of a :func:`key_lookup` plan.
KEY_ACCESS = "key index: one probe of the open rows"


def key_lookup(key: Sequence[str], rows: int) -> AccessPlan:
    """The plan of a stream answered by one probe of the by-key index
    (it returned *rows* rows; nothing was costed, the probe is cheaper)."""
    return AccessPlan("index", rows,
                      f"key lookup: {', '.join(key)} bound by =", {})


def profile(database: Database, relation: str) -> RelationProfile:
    """Collect the per-relation stats for *relation* in *database*.

    Databases that lack the per-relation caches entirely — the sharded
    store's merged-read facade serves the TQuel surface but keeps its
    caches per shard — profile as cache-less, so the planner degrades
    to the naive scan instead of refusing to plan.
    """
    store = (database.store(relation) if isinstance(database, Database)
             else None)
    if isinstance(store, TransactionTimeStore):
        # The two transaction-time kinds: one partition, whatever its
        # rows carry besides their transaction period.
        return RelationProfile(relation, len(store), store.open_count, True,
                               True, True,
                               database.columnar_cache.ready(relation))
    if isinstance(store, StateSequence):
        # The duplicating cube: no partition, no chunk, no tree — every
        # path degenerates to the representation's own scan.
        total = sum(len(state) for _, state in store.states)
        return RelationProfile(relation, total, len(store.current()),
                               True, False, False, False)
    if isinstance(store, HistoricalRelation):
        total = len(store)
        # Candidate sourcing on a historical database is always the full
        # recorded-facts scan; the valid-time tree accelerates timeslice,
        # not TQuel candidate streams — so the index path is not a
        # distinct plan here.
        return RelationProfile(relation, total, total, False, False, True,
                               database.columnar_cache.ready(relation))
    total = len(database.snapshot(relation))
    return RelationProfile(relation, total, total, False, False, False,
                           False)


def estimate_rows(prof: RelationProfile, clauses: Clauses) -> int:
    """The selectivity estimate ``k`` (see module docstring)."""
    if not prof.has_tt:
        return prof.total_rows
    if clauses.has_through:
        return prof.open_rows + prof.closed_rows // 2
    if clauses.has_as_of:
        return prof.open_rows + prof.closed_rows // 8
    return prof.open_rows


def _cost_naive(prof: RelationProfile, clauses: Clauses, k: int) -> float:
    cost = prof.total_rows * (COSTS["C_ROW"]
                              + COSTS["C_PRED"] * clauses.pushed)
    if clauses.when_kernel:
        cost += k * COSTS["C_WHEN"]
    return cost


def _cost_index(prof: RelationProfile, clauses: Clauses,
                k: int) -> Optional[float]:
    if not prof.index_available:
        return None
    cost = (COSTS["C_PROBE"] * math.log2(prof.total_rows + 2)
            + k * (COSTS["C_ROW"] + COSTS["C_PRED"] * clauses.pushed))
    if clauses.when_kernel:
        cost += k * COSTS["C_WHEN"]
    return cost


def _cost_columnar(prof: RelationProfile, clauses: Clauses, k: int,
                   vectorized_kernels: bool) -> Optional[float]:
    if not prof.columnar_available:
        return None
    cell = COSTS["C_CELL_NUMPY"] if vectorized_kernels else COSTS["C_CELL_PY"]
    kernels = 1 + clauses.vectorizable + (1 if clauses.when_kernel else 0)
    cost = COSTS["C_SETUP"] + prof.total_rows * cell * kernels
    if not prof.chunk_ready:
        cost += COSTS["C_PACK"] * prof.total_rows
    cost += k * (COSTS["C_MAT"]
                 + COSTS["C_PRED"] * (clauses.pushed - clauses.vectorizable))
    return cost


def choose(prof: RelationProfile, clauses: Clauses, mode: str = "auto",
           vectorized_kernels: Optional[bool] = None) -> AccessPlan:
    """Pick the access path for one range variable.

    ``mode`` other than ``"auto"`` forces a path; an unavailable forced
    path degrades to ``naive`` (recorded in the reason) rather than
    failing, so plan-forcing is usable on every database kind.
    """
    if mode not in PLAN_MODES:
        raise ValueError(
            f"plan must be one of {', '.join(PLAN_MODES)}; got {mode!r}")
    if vectorized_kernels is None:
        from repro.core.columnar import numpy_available
        vectorized_kernels = numpy_available()
    k = estimate_rows(prof, clauses)
    costs: Dict[str, Optional[float]] = {
        "naive": _cost_naive(prof, clauses, k),
        "index": _cost_index(prof, clauses, k),
        "columnar": _cost_columnar(prof, clauses, k, vectorized_kernels),
    }
    if mode != "auto":
        if costs[mode] is None:
            return AccessPlan(
                "naive", k,
                f"forced plan {mode!r} unavailable here; using naive",
                costs)
        return AccessPlan(mode, k, f"forced plan {mode!r}", costs)
    # Deterministic choice: minimal cost, ties in naive < index <
    # columnar order (dict insertion order above).
    best = min((cost, path) for path, cost in costs.items()
               if cost is not None)[1]
    rendered = ", ".join(
        f"{path}={costs[path]:.1f}" if costs[path] is not None
        else f"{path}=n/a"
        for path in ("naive", "index", "columnar"))
    return AccessPlan(best, k, f"min cost ({rendered})", costs)
