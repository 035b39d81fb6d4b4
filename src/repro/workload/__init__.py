"""Synthetic workload generators for benchmarks and property tests.

The paper has no machine-readable traces — its evaluation is a worked
faculty example — so the benchmark harness generates synthetic histories
in the same shape, at scale, with the temporally interesting behaviours
the paper motivates dialled in as parameters: retroactive and postactive
changes, error corrections, and batched updates (the §3 payroll example).

Driving a workload with :func:`apply_workload` records into the live
:mod:`repro.obs` instrumentation: a ``workload.apply`` span plus
``workload.steps`` / ``workload.transactions`` counters, alongside the
commit/transaction metrics the engine itself emits.

:func:`run_stress` (:mod:`repro.workload.stress`) is the concurrent
counterpart: it hammers one store — a plain database or, with
``shards=N``, the :mod:`repro.sharding` store — from many sessions
through the :mod:`repro.concurrency` layer, with optional cross-shard
transfers through the two-phase protocol and crash injection anywhere
in the journals or 2PC logs, and audits zero lost updates, monotone
commit times, serial equivalence and atomic recovery per pipeline.
:func:`run_replicated` extends the chaos to :mod:`repro.replication`:
writers on a primary, token-gated readers on replicas, seeded transport
faults, partitions and a mid-run failover — audited for zero lost
durable commits and replica digest convergence.
"""

from repro.workload.generators import (
    FacultyWorkload, PayrollWorkload, VersionWorkload, WorkloadStep,
    apply_workload,
)
from repro.workload.serve import ServingReport, run_serving
from repro.workload.stress import (ReplicatedReport, StressReport,
                                   run_replicated, run_stress)

__all__ = [
    "FacultyWorkload",
    "PayrollWorkload",
    "ReplicatedReport",
    "ServingReport",
    "StressReport",
    "VersionWorkload",
    "WorkloadStep",
    "apply_workload",
    "run_replicated",
    "run_serving",
    "run_stress",
]
