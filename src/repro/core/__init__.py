"""The paper's contribution: three kinds of time, four kinds of database.

This package implements Section 4 of *A Taxonomy of Time in Databases*.
Figure 10's 2×2 is two orthogonal capabilities, and the code says so:

- :mod:`~repro.core.taxonomy` — the classification itself (Figures 1 and
  10–13 as executable data);
- :mod:`~repro.core.base` — the one :class:`~repro.core.base.Database`:
  one update API, one delta, one constraint check and Figure 11's
  queries, each reading the kind's two flags (a fact without valid time
  is a fact valid over all time);
- :mod:`~repro.core.transaction_time` — the one current-state store
  every kind keeps (:class:`~repro.core.transaction_time.StateStore`: an
  open map by element, a key index, the O(Δ) ``advance``), and
  transaction time over it
  (:class:`~repro.core.transaction_time.TransactionTimeStore`);
- :mod:`~repro.core.static`, :mod:`~repro.core.rollback`,
  :mod:`~repro.core.historical`, :mod:`~repro.core.temporal` — each
  kind's stored form and its class (:data:`DATABASE_CLASSES`), which
  names the kind and nothing else: the state (Figure 2, §4.1); stamped
  tuples (Figure 4), of which the sequence of states (Figure 3) is a
  view (§4.2); the historical state, its value type and the valid-time
  delta (§4.3, Figures 5–6); sequences of historical states (§4.4,
  Figures 7–8);
- :mod:`~repro.core.operations` — temporal joins, snapshot equivalence;
- :mod:`~repro.core.indexing` — the transaction-time index: append-only
  time, so an insert-only interval tree over the closed rows (valid time
  is modified arbitrarily and has none: a timeslice is one scan);
- :mod:`~repro.core.vacuum` — the controlled forget-the-past extension.

User-defined time (§4.5, Figure 9) needs no dedicated class: it is an
ordinary schema attribute over
:meth:`repro.relational.domain.Domain.user_defined_time`, and event
relations are declared with ``define(..., event=True)``.
"""

from repro.core.taxonomy import (
    DatabaseKind, Models, TimeKind, classify,
    FIGURE_1, FIGURE_13, PriorTerm, SurveyedSystem,
    render_figure_1, render_figure_10, render_figure_11, render_figure_12,
    render_figure_13,
)
from repro.core.base import Database
from repro.core.static import StaticDatabase, StaticStore
from repro.core.transaction_time import StateStore, TransactionTimeStore
from repro.core.rollback import (
    RollbackDatabase, RollbackRelation, TransactionTimeRow,
)
from repro.core.historical import (
    HistoricalDatabase, HistoricalRelation, HistoricalRow, HistoricalStore,
)
from repro.core.temporal import (BitemporalRow, TemporalDatabase,
                                 TemporalRelation)
from repro.core.operations import (
    changed_instants, diff_states, history_series, snapshot_equivalent,
    temporal_timeslice_matrix, when_join,
)
from repro.core.vacuum import vacuum_store
from repro.core.indexing import (
    DatabaseIndexCache, IntervalTree, TransactionTimeIndex,
)
from repro.core.migrate import migrate
from repro.core.temporal_constraints import (
    BoundedValidity, ContiguousHistory, NoFutureValidity, TemporalConstraint,
    ValidityDuration,
)

#: Each kind's database class (Figure 10's four cells).
DATABASE_CLASSES = {cls.kind: cls for cls in (
    StaticDatabase, RollbackDatabase, HistoricalDatabase, TemporalDatabase)}

__all__ = [
    "BitemporalRow",
    "BoundedValidity",
    "ContiguousHistory",
    "DATABASE_CLASSES",
    "NoFutureValidity",
    "TemporalConstraint",
    "ValidityDuration",
    "Database",
    "DatabaseIndexCache",
    "IntervalTree",
    "TransactionTimeIndex",
    "DatabaseKind",
    "FIGURE_1",
    "FIGURE_13",
    "HistoricalDatabase",
    "HistoricalRelation",
    "HistoricalRow",
    "HistoricalStore",
    "Models",
    "PriorTerm",
    "RollbackDatabase",
    "RollbackRelation",
    "StateStore",
    "StaticDatabase",
    "StaticStore",
    "SurveyedSystem",
    "TemporalDatabase",
    "TemporalRelation",
    "TimeKind",
    "TransactionTimeRow",
    "TransactionTimeStore",
    "changed_instants",
    "classify",
    "diff_states",
    "history_series",
    "migrate",
    "render_figure_1",
    "render_figure_10",
    "render_figure_11",
    "render_figure_12",
    "render_figure_13",
    "snapshot_equivalent",
    "temporal_timeslice_matrix",
    "vacuum_store",
    "when_join",
]
