"""Process-local metrics: counters, gauges and monotonic-clock histograms.

The registry is the write side of the instrumentation layer
(:mod:`repro.obs`): hot paths ask it for an instrument by name and bump
it; :meth:`MetricsRegistry.snapshot` is the read side, a plain dict that
``db.stats()``, the ``repro stats`` CLI and the benchmark harness embed
verbatim.

Two implementations share one interface:

- :class:`MetricsRegistry` records everything;
- :class:`NullRegistry` (the process default, see :mod:`repro.obs.runtime`)
  returns shared singleton no-op instruments, so an instrumented call
  site costs a dict lookup and a no-op method call — and **allocates
  nothing** — when observability is off.

Durations are measured with :func:`time.perf_counter`, the monotonic
clock; this module (and :mod:`repro.obs.tracing`) are the only places in
``repro`` allowed to touch it directly — everything else times itself
through :meth:`Histogram.time` or a tracer span, which CI enforces with a
grep guard.
"""

from __future__ import annotations

import random
import threading
import time
import zlib
from typing import Any, Callable, Dict, List, Optional, Sequence

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "NullRegistry",
    "NULL_REGISTRY", "quantile", "DEFAULT_RESERVOIR",
]


def quantile(sorted_values: Sequence[float], q: float) -> float:
    """The *q*-quantile of pre-sorted values, linearly interpolated.

    Uses the standard ``idx = q * (n - 1)`` rule (numpy's default): the
    result is ``v[floor(idx)]`` blended with ``v[ceil(idx)]`` by the
    fractional part.  Raises :class:`ValueError` on an empty sequence.
    """
    if not sorted_values:
        raise ValueError("quantile of an empty sequence")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile fraction must be in [0, 1], got {q}")
    position = q * (len(sorted_values) - 1)
    lower = int(position)
    fraction = position - lower
    if fraction == 0.0:
        return float(sorted_values[lower])
    return (sorted_values[lower]
            + (sorted_values[lower + 1] - sorted_values[lower]) * fraction)


class Counter:
    """A monotonically increasing count.

    Thread-safe: the stress harness bumps counters from many sessions at
    once, and ``value += amount`` is a read-modify-write that loses
    increments without the lock.
    """

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        """Add *amount* (default 1)."""
        with self._lock:
            self.value += amount


class Gauge:
    """A value that goes up and down (sizes, active counts).

    Thread-safe for the same reason as :class:`Counter`: ``add`` is a
    read-modify-write.
    """

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def set(self, value) -> None:
        """Record the current reading."""
        with self._lock:
            self.value = value

    def add(self, amount) -> None:
        """Move the reading by *amount* (may be negative)."""
        with self._lock:
            self.value += amount


class _Timer:
    """Context manager: observes the elapsed monotonic time on exit."""

    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram: "Histogram") -> None:
        self._histogram = histogram
        self._start = 0.0

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._histogram.observe(time.perf_counter() - self._start)
        return False


#: Retained samples per histogram before reservoir sampling kicks in.
DEFAULT_RESERVOIR = 8192


class Histogram:
    """Bounded-sample histogram with p50/p95/p99/max summaries.

    Below *reservoir* observations every sample is retained and the
    summary is exact.  Above it, Vitter's Algorithm R keeps a uniform
    random sample of the stream in constant memory, so quantiles become
    unbiased estimates while ``count``/``total`` (and therefore the
    mean) stay exact; ``max`` degrades to the maximum of the retained
    sample.  The reservoir RNG is seeded from the histogram's name, so
    runs are reproducible.  Thread-safe.
    """

    __slots__ = ("name", "_values", "_lock", "_reservoir", "_seen",
                 "_total", "_max", "_rng")

    def __init__(self, name: str,
                 reservoir: int = DEFAULT_RESERVOIR) -> None:
        if reservoir < 1:
            raise ValueError("histogram reservoir must be positive")
        self.name = name
        self._values: List[float] = []
        self._lock = threading.Lock()
        self._reservoir = reservoir
        self._seen = 0
        self._total = 0.0
        self._max = 0.0
        self._rng = random.Random(zlib.crc32(name.encode("utf-8")))

    def observe(self, value: float) -> None:
        """Record one sample."""
        with self._lock:
            self._seen += 1
            self._total += value
            if self._seen == 1 or value > self._max:
                self._max = value
            if len(self._values) < self._reservoir:
                self._values.append(value)
            else:  # Algorithm R: replace a random slot with prob k/seen
                slot = self._rng.randrange(self._seen)
                if slot < self._reservoir:
                    self._values[slot] = value

    def time(self) -> _Timer:
        """A context manager observing the wrapped block's duration."""
        return _Timer(self)

    @property
    def count(self) -> int:
        """How many samples have been observed (exact, not retained)."""
        return self._seen

    @property
    def reservoir(self) -> int:
        """The retained-sample cap."""
        return self._reservoir

    @property
    def sampled(self) -> bool:
        """True once the stream outgrew the reservoir (estimates apply)."""
        return self._seen > self._reservoir

    @property
    def values(self) -> List[float]:
        """A copy of the retained samples (all of them below the cap)."""
        with self._lock:
            return list(self._values)

    def summary(self) -> Dict[str, float]:
        """``{count, total, p50, p95, p99, max}`` over the samples so far.

        ``count``/``total``/``max`` are exact; the quantiles are exact
        below the reservoir cap and uniform-sample estimates above it.
        """
        with self._lock:
            if not self._values:
                return {"count": 0, "total": 0.0, "p50": 0.0, "p95": 0.0,
                        "p99": 0.0, "max": 0.0}
            ordered = sorted(self._values)
            seen, total, maximum = self._seen, self._total, self._max
        return {
            "count": seen,
            "total": float(total),
            "p50": quantile(ordered, 0.50),
            "p95": quantile(ordered, 0.95),
            "p99": quantile(ordered, 0.99),
            "max": float(maximum),
        }


class MetricsRegistry:
    """A process-local, name-keyed home for instruments.

    Instruments are created on first use and live for the registry's
    lifetime; asking twice for the same name returns the same object, so
    call sites may cache the handle.
    """

    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._create_lock = threading.Lock()
        self._handles: Dict[str, Any] = {}

    def handles(self, site: str, build: Callable[[Any], Any]) -> Any:
        """The instruments *build* looks up in this registry, by name once
        per call *site* (until a reset), not on every call."""
        found = self._handles.get(site)
        return found if found is not None else self._handles.setdefault(
            site, build(self))

    def counter(self, name: str) -> Counter:
        """The counter called *name* (created empty on first use)."""
        instrument = self._counters.get(name)
        if instrument is None:
            with self._create_lock:
                instrument = self._counters.get(name)
                if instrument is None:
                    instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge called *name* (created at 0 on first use)."""
        instrument = self._gauges.get(name)
        if instrument is None:
            with self._create_lock:
                instrument = self._gauges.get(name)
                if instrument is None:
                    instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        """The histogram called *name* (created empty on first use)."""
        instrument = self._histograms.get(name)
        if instrument is None:
            with self._create_lock:
                instrument = self._histograms.get(name)
                if instrument is None:
                    instrument = self._histograms[name] = Histogram(name)
        return instrument

    def snapshot(self) -> Dict[str, Any]:
        """A plain-dict snapshot of every instrument, sorted by name."""
        return {
            "counters": {name: c.value
                         for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value
                       for name, g in sorted(self._gauges.items())},
            "histograms": {name: h.summary()
                           for name, h in sorted(self._histograms.items())},
        }

    def reset(self) -> None:
        """Drop every instrument (used between benchmark series)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._handles.clear()


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value) -> None:
        pass

    def add(self, amount) -> None:
        pass


class _NullTimer:
    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_TIMER = _NullTimer()


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass

    def time(self) -> _NullTimer:  # type: ignore[override]
        return _NULL_TIMER


_NULL_COUNTER = _NullCounter("null")
_NULL_GAUGE = _NullGauge("null")
_NULL_HISTOGRAM = _NullHistogram("null")


class NullRegistry(MetricsRegistry):
    """The zero-cost registry: every lookup returns a shared no-op.

    No instrument is ever created, no sample stored, and — the property
    the no-op tests pin down — no call on it allocates: the singletons
    below are returned by reference and their methods do nothing.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def counter(self, name: str) -> Counter:
        return _NULL_COUNTER

    def gauge(self, name: str) -> Gauge:
        return _NULL_GAUGE

    def histogram(self, name: str) -> Histogram:
        return _NULL_HISTOGRAM

    def snapshot(self) -> Dict[str, Any]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def reset(self) -> None:
        pass


#: The shared no-op registry (the process default until recording is on).
NULL_REGISTRY = NullRegistry()
