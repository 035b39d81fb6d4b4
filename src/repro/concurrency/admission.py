"""Admission control: bounded concurrency, bounded queueing, fast shed.

An :class:`AdmissionController` guards the session layer with two knobs:

- ``max_active`` — how many transactions may be past admission at once
  (buffering, validating, or committing);
- ``max_queue`` — how many more may *wait* for a slot.

Work beyond both bounds is rejected immediately with a typed, retryable
:class:`~repro.errors.Overloaded` carrying a ``retry_after`` hint —
graceful degradation instead of an unbounded queue that wedges the
process and breaks every deadline downstream (the real-time database
literature's controlled-degradation discipline).  A queued waiter whose
deadline passes before a slot frees aborts with
:class:`~repro.errors.DeadlineExceeded` rather than occupying the queue
late.

Instrumented via :mod:`repro.obs` (no-ops unless recording is on):
``admission.admitted`` / ``admission.shed`` counters and the
``admission.active`` / ``admission.queue_depth`` gauges.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from repro.errors import DeadlineExceeded, Overloaded
from repro.obs import runtime as _obs


class WouldWait(Exception):
    """A no-wait caller would wait: for a slot, or a ``pause`` s backoff."""

    def __init__(self, pause: float = 0.0) -> None:
        self.pause = pause


class _Slot:
    """An admitted slot; a context manager that releases on exit."""

    __slots__ = ("_controller", "_released")

    def __init__(self, controller: "AdmissionController") -> None:
        self._controller = controller
        self._released = False

    def release(self) -> None:
        """Free the slot (idempotent)."""
        if not self._released:
            self._released = True
            self._controller._release()

    def __enter__(self) -> "_Slot":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.release()
        return False


class AdmissionController:
    """A bounded gate in front of the session layer.

    ``retry_after`` scales the back-pressure hint: a shed request is told
    to come back in roughly ``retry_after * (queued + active)`` seconds,
    a crude but monotone estimate of drain time.  The *clock* is
    injectable (monotonic seconds) so deadline tests are deterministic.
    """

    def __init__(self, max_active: int = 8, max_queue: int = 16,
                 retry_after: float = 0.05,
                 clock: Callable[[], float] = time.monotonic,
                 scope: Optional[str] = None) -> None:
        if max_active < 1:
            raise ValueError("max_active must be at least 1")
        if max_queue < 0:
            raise ValueError("max_queue cannot be negative")
        self.max_active = max_active
        self.max_queue = max_queue
        self.retry_after = retry_after
        self._clock = clock
        #: Optional obs namespace: a scoped controller reports into
        #: ``admission.<scope>.*`` *in addition to* the global
        #: ``admission.*`` instruments, so a server with one controller
        #: per tenant can export shed/queue-depth per tenant while the
        #: process-wide view still aggregates (docs/SERVING.md).
        self.scope = scope
        self._condition = threading.Condition()
        self._active = 0
        self._waiting = 0

    def _bump(self, name: str, metrics, value: Optional[float] = None) -> None:
        """Counter inc (value None) or gauge set, global + scoped."""
        names = [f"admission.{name}"]
        if self.scope is not None:
            names.append(f"admission.{self.scope}.{name}")
        for metric in names:
            if value is None:
                metrics.counter(metric).inc()
            else:
                metrics.gauge(metric).set(value)

    # -- introspection ---------------------------------------------------------

    @property
    def active(self) -> int:
        """Transactions currently past admission."""
        return self._active

    @property
    def queued(self) -> int:
        """Transactions currently waiting for a slot."""
        return self._waiting

    # -- the gate ---------------------------------------------------------------

    def admit(self, deadline: Optional[float] = None,
              wait: bool = True) -> _Slot:
        """Take a slot, queueing up to the configured depth.

        Returns a context manager releasing the slot on exit.  Raises
        :class:`~repro.errors.Overloaded` at once when the queue is full
        (load shedding), :class:`~repro.errors.DeadlineExceeded` when
        the deadline passes while queued — or has already passed on
        entry, even when a slot is free (never admit late).  With *wait*
        off, a controller with no free slot raises :class:`WouldWait`.
        """
        metrics = _obs.current().metrics
        with self._condition:
            if deadline is not None and self._clock() >= deadline:
                raise DeadlineExceeded(
                    "deadline already passed at admission")
            if self._active >= self.max_active:
                if not wait:
                    raise WouldWait()
                if self._waiting >= self.max_queue:
                    hint = self.retry_after * (self._waiting + self._active)
                    # The shed path reports everything the error carries
                    # through obs too, so dashboards and the error agree:
                    # the shed count, the depth that caused it, and the
                    # back-pressure hint handed out.
                    self._bump("shed", metrics)
                    self._bump("queue_depth", metrics, self._waiting)
                    metrics.histogram(
                        "admission.retry_after_seconds").observe(hint)
                    raise Overloaded(
                        f"admission queue is full ({self._active} active, "
                        f"{self._waiting} queued); retry in ~{hint:.3f}s",
                        retry_after=hint, queued=self._waiting,
                        active=self._active)
                self._waiting += 1
                self._bump("queue_depth", metrics, self._waiting)
                try:
                    # Deadline before capacity: a woken waiter whose
                    # deadline has passed must never take the slot.
                    while True:
                        remaining = None
                        if deadline is not None:
                            remaining = deadline - self._clock()
                            if remaining <= 0:
                                raise DeadlineExceeded(
                                    "deadline passed while queued for "
                                    "admission")
                        if self._active < self.max_active:
                            break
                        self._condition.wait(remaining)
                finally:
                    self._waiting -= 1
                    self._bump("queue_depth", metrics, self._waiting)
            self._active += 1
            self._bump("admitted", metrics)
            self._bump("active", metrics, self._active)
        return _Slot(self)

    def _release(self) -> None:
        with self._condition:
            self._active -= 1
            self._bump("active", _obs.current().metrics, self._active)
            # notify_all, not notify: a single wakeup can land on a waiter
            # that is abandoning the wait (deadline expired), which raises
            # and leaves without passing the wakeup on — stranding the
            # remaining waiters despite free capacity.
            self._condition.notify_all()

    def __repr__(self) -> str:
        return (f"AdmissionController(max_active={self.max_active}, "
                f"max_queue={self.max_queue}, active={self._active}, "
                f"queued={self._waiting})")
