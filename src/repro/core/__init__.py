"""The paper's contribution: three kinds of time, four kinds of database.

This package implements Section 4 of *A Taxonomy of Time in Databases*.
Figure 10's 2×2 is two orthogonal capabilities, and each is written
once — the four kinds are their compositions:

- :mod:`~repro.core.taxonomy` — the classification itself (Figures 1 and
  10–13 as executable data);
- :mod:`~repro.core.transaction_time` — the one current-state store
  every kind keeps (:class:`~repro.core.transaction_time.StateStore`: an
  open map by element, a key index, the O(Δ) ``advance``), and
  transaction time over it
  (:class:`~repro.core.transaction_time.TransactionTimeStore`);
- :mod:`~repro.core.static` — the static update API
  (:class:`~repro.core.static.StaticStateDatabase`, ``static_delta``) and
  static databases (§4.1);
- :mod:`~repro.core.historical` — the valid-time update API
  (:class:`~repro.core.historical.ValidTimeDatabase`,
  ``historical_delta``), the
  :class:`~repro.core.historical.HistoricalRelation` value type and
  historical databases (§4.3, Figures 5–6);
- :mod:`~repro.core.rollback` — static rollback databases = static +
  transaction time: interval-stamped tuples (Figure 4), of which the
  sequence of states (Figure 3) is a view (§4.2);
- :mod:`~repro.core.temporal` — temporal (bitemporal) databases =
  historical + transaction time: sequences of historical states (§4.4,
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

__all__ = [
    "BitemporalRow",
    "BoundedValidity",
    "ContiguousHistory",
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
