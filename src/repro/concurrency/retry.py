"""Deadline-aware retry with exponential backoff and seeded jitter.

A :class:`RetryPolicy` re-runs a transaction attempt while it fails with
*retryable* errors (``error.retryable`` is the triage bit on
:class:`~repro.errors.ReproError`: conflicts and overload set it,
semantic errors do not).  The backoff between attempt *k* and *k + 1*
is::

    delay(k) = min(max_delay, base_delay * multiplier ** k) * jitter_factor

where ``jitter_factor`` is drawn from ``[1 - jitter, 1]`` by a seeded
:class:`random.Random`, so a fixed seed reproduces the exact delay
sequence.  An :class:`~repro.errors.Overloaded` error's ``retry_after``
hint, when larger, replaces the computed delay — the admission
controller knows the queue better than the exponent does.

Deadlines are absolute readings of the injected monotonic *clock*.  The
policy never overshoots one: an attempt is not started past the
deadline, and a backoff sleep that would cross it raises
:class:`~repro.errors.DeadlineExceeded` immediately instead of sleeping
late.  Both the clock and the sleeper are injectable, so tests are
deterministic and sleep-free.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Optional, TypeVar

from repro.concurrency.admission import WouldWait
from repro.errors import DeadlineExceeded, Overloaded, ReproError
from repro.obs import runtime as _obs

T = TypeVar("T")


class RetryPolicy:
    """Bounded, deadline-aware retry of a transaction closure.

    ``max_attempts`` counts *attempts*, not retries: 1 means no retry at
    all.  ``sleeper`` and ``clock`` default to :func:`time.sleep` and
    :func:`time.monotonic`; tests inject fakes.  A policy instance may
    be shared by many sessions — its only mutable state is the seeded
    jitter RNG, whose draws are atomic.
    """

    def __init__(self, max_attempts: int = 8, base_delay: float = 0.005,
                 multiplier: float = 2.0, max_delay: float = 0.5,
                 jitter: float = 0.5, seed: Optional[int] = None,
                 sleeper: Callable[[float], None] = time.sleep,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.multiplier = multiplier
        self.max_delay = max_delay
        self.jitter = jitter
        self._rng = random.Random(seed)
        self.sleeper = sleeper
        self._clock = clock

    def delay(self, attempt: int) -> float:
        """The backoff after the *attempt*-th failure (0-based), jittered."""
        raw = min(self.max_delay, self.base_delay * self.multiplier ** attempt)
        return raw * (1.0 - self.jitter * self._rng.random())

    def call(self, attempt_fn: Callable[[], T],
             deadline: Optional[float] = None, wait: bool = True) -> T:
        """Run *attempt_fn* until it succeeds, exhausts attempts, or the
        deadline passes.

        Non-retryable errors propagate immediately.  When attempts run
        out, the last retryable error propagates (it still carries
        ``retryable = True`` so an outer layer may queue the work
        elsewhere).  ``deadline`` is an absolute reading of this
        policy's clock; crossing it raises
        :class:`~repro.errors.DeadlineExceeded`.  With *wait* off, a
        backoff it would sleep raises :class:`WouldWait` carrying it.
        """
        metrics = _obs.current().metrics
        attempts = metrics.histogram("concurrency.attempts_per_txn")
        for attempt in range(self.max_attempts):
            if deadline is not None and self._clock() >= deadline:
                attempts.observe(attempt)
                raise DeadlineExceeded(
                    f"deadline passed before attempt {attempt + 1} started")
            try:
                result = attempt_fn()
            except ReproError as error:
                # Shed load was invisible unless it finally failed; count
                # every Overloaded and record its back-pressure hint so
                # db.stats() shows how hard admission is pushing back.
                if isinstance(error, Overloaded):
                    metrics.counter("concurrency.overloaded").inc()
                    if error.retry_after:
                        metrics.histogram(
                            "concurrency.retry_after_seconds").observe(
                                error.retry_after)
                if not error.retryable or attempt + 1 >= self.max_attempts:
                    attempts.observe(attempt + 1)
                    raise
                pause = self.delay(attempt)
                if isinstance(error, Overloaded) and error.retry_after:
                    pause = max(pause, error.retry_after)
                if deadline is not None:
                    remaining = deadline - self._clock()
                    if pause >= remaining:
                        attempts.observe(attempt + 1)
                        raise DeadlineExceeded(
                            f"a {pause * 1e3:.1f} ms backoff would overshoot "
                            f"the deadline ({max(0.0, remaining) * 1e3:.1f} ms "
                            f"left)") from error
                metrics.counter("concurrency.retries").inc()
                if not wait:
                    raise WouldWait(pause) from error
                self.sleeper(pause)
            else:
                attempts.observe(attempt + 1)
                return result
        raise AssertionError("unreachable: the loop returns or raises")

    def __repr__(self) -> str:
        return (f"RetryPolicy(max_attempts={self.max_attempts}, "
                f"base_delay={self.base_delay}, max_delay={self.max_delay})")
