"""Concurrent sessions over the serially-committing temporal engine.

The paper's model is a serial history: every transaction appends one
static relation to the front of the cube at a strictly-increasing,
system-assigned transaction time.  This package keeps that order intact
while letting many sessions race toward it safely:

- :class:`~repro.concurrency.session.ConcurrentSession` — a transaction
  under optimistic concurrency control: buffer against a snapshot,
  validate a read/write footprint at commit, first-committer-wins;
- :class:`~repro.concurrency.retry.RetryPolicy` — bounded, deadline-
  aware retry with exponential backoff and seeded jitter;
- :class:`~repro.concurrency.admission.AdmissionController` — bounded
  in-flight work and wait queue, fast typed shedding under overload;
- :class:`~repro.concurrency.layer.SessionLayer` — the composition,
  usually obtained as ``db.sessions()``.

The contract lives in docs/CONCURRENCY.md; the crash-safety interaction
with the durable journal is in docs/DURABILITY.md.
"""

from repro.concurrency.admission import AdmissionController
from repro.concurrency.layer import SessionLayer
from repro.concurrency.retry import RetryPolicy
from repro.concurrency.session import ConcurrentSession

__all__ = [
    "AdmissionController",
    "ConcurrentSession",
    "RetryPolicy",
    "SessionLayer",
]
