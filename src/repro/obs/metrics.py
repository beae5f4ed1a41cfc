"""Counter/gauge/histogram registry on the simulator's virtual clock.

Design constraints, in order:

1. *Cheap writes.*  Metric objects are plain slotted attributes mutated
   in place (``counter.inc()`` is one integer add); the registry dict is
   only consulted at metric-creation time, never per increment.  Hot
   paths hold a reference to the metric object itself.
2. *Bounded memory.*  Histograms keep a ``{value bucket: count}`` dict
   capped at :data:`Histogram.MAX_BUCKETS` distinct buckets (overflow
   observations still update count/total/min/max), and the event channel
   is a bounded deque — a registry never grows with run length.
3. *Virtual time.*  The registry is constructed with the cluster's
   ``clock`` callable (``sim.now``); events and snapshots are stamped
   with virtual seconds, so metric series line up with the discrete-event
   schedule rather than wall time.

Read-through *collectors* bridge pre-existing stats objects (the
dispatcher's :class:`~repro.server.batching.BatchSizeHistogram`, the
sharded stats counters) into a snapshot without making their hot paths
pay for registry indirection: a collector is a callable invoked at
:meth:`MetricsRegistry.snapshot` time that writes current values into
registry metrics.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable


class Counter:
    """Monotone event count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Value distribution with bounded bucket storage.

    Buckets are keyed by the observed value itself (batch sizes, retry
    counts — small discrete domains).  Once :data:`MAX_BUCKETS` distinct
    values have been seen, further novel values only update the summary
    stats and the ``overflow`` count, so memory stays bounded on
    adversarial/continuous domains (e.g. float durations).
    """

    MAX_BUCKETS = 512

    __slots__ = ("counts", "count", "total", "min", "max", "overflow")

    def __init__(self) -> None:
        self.counts: dict[Any, int] = {}
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self.overflow = 0

    def observe(self, value: float, count: int = 1) -> None:
        self.count += count
        self.total += value * count
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value in self.counts:
            self.counts[value] += count
        elif len(self.counts) < self.MAX_BUCKETS:
            self.counts[value] = count
        else:
            self.overflow += count

    def set_from_counts(self, counts: dict[Any, int]) -> None:
        """Replace the distribution wholesale (read-through collectors)."""
        self.counts = {}
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None
        self.overflow = 0
        for value, count in counts.items():
            self.observe(value, count)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict[Any, int]:
        return dict(sorted(self.counts.items()))

    def summary(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "buckets": {str(k): v for k, v in sorted(self.counts.items())},
            "overflow": self.overflow,
        }


class QuantileHistogram:
    """Streaming log-bucket quantile estimator (p50/p95/p99) in bounded
    memory.

    Positive observations land in geometric buckets ``[GROWTH**i,
    GROWTH**(i+1))``; a quantile is answered with the upper bound of the
    bucket its rank falls in, so the relative error is bounded by the
    bucket width (``GROWTH - 1``, ~8%) regardless of run length.  The
    index range is already narrow — values spanning eighteen decades fit
    in ~540 buckets — and :data:`MAX_BUCKETS` caps the dict anyway
    (further *novel* magnitudes only count into ``overflow``).  Values
    ``<= 0`` (virtual-time latencies can legitimately be zero when
    submit and completion share an event) sit in a dedicated floor
    bucket reported as the distribution minimum.
    """

    GROWTH = 1.08
    MAX_BUCKETS = 512
    _LOG_GROWTH = math.log(1.08)

    __slots__ = ("counts", "count", "total", "min", "max", "floor", "overflow")

    def __init__(self) -> None:
        self.counts: dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self.floor = 0      # observations <= 0
        self.overflow = 0   # novel magnitudes past MAX_BUCKETS

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value <= 0.0:
            self.floor += 1
            return
        index = math.floor(math.log(value) / self._LOG_GROWTH)
        counts = self.counts
        if index in counts:
            counts[index] += 1
        elif len(counts) < self.MAX_BUCKETS:
            counts[index] = 1
        else:
            self.overflow += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The q-quantile (0 < q <= 1), clamped into [min, max]."""
        if not self.count:
            return 0.0
        rank = q * self.count
        seen = float(self.floor)
        if rank <= seen:
            return self.min if self.min is not None else 0.0
        for index in sorted(self.counts):
            seen += self.counts[index]
            if rank <= seen:
                bound = self.GROWTH ** (index + 1)
                if self.max is not None and bound > self.max:
                    bound = self.max
                if self.min is not None and bound < self.min:
                    bound = self.min
                return bound
        # rank fell into the overflow tail: the best bounded answer
        return self.max if self.max is not None else 0.0

    def merge_from(self, other: "QuantileHistogram") -> None:
        """Fold another histogram into this one (identical bucketing, so
        the merge is exact: bucket counts add).  The ``frontier``
        experiment aggregates per-(shard, op) latency histograms into one
        cluster distribution this way before asking for percentiles."""
        self.count += other.count
        self.total += other.total
        self.floor += other.floor
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        counts = self.counts
        for index, n in other.counts.items():
            if index in counts:
                counts[index] += n
            elif len(counts) < self.MAX_BUCKETS:
                counts[index] = n
            else:
                self.overflow += n
        self.overflow += other.overflow

    def summary(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "overflow": self.overflow,
        }


@dataclass(frozen=True)
class Event:
    """One observability event (e.g. an online violation detection)."""

    time: float
    name: str
    fields: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {"time": self.time, "name": self.name, **self.fields}


def _render_key(name: str, labels: tuple[tuple[str, Any], ...]) -> str:
    if not labels:
        return name
    rendered = ",".join(f"{key}={value}" for key, value in labels)
    return f"{name}{{{rendered}}}"


class MetricsRegistry:
    """Named metrics + bounded events, stamped with the virtual clock."""

    EVENT_LIMIT = 4096

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._quantiles: dict[str, QuantileHistogram] = {}
        self._collectors: list[Callable[[MetricsRegistry], None]] = []
        self.events: deque[Event] = deque(maxlen=self.EVENT_LIMIT)
        #: evictions from the bounded event deque — the counter is
        #: materialized on the first eviction so loss shows up in the
        #: counters map exactly when there is loss to report (snapshots
        #: always carry the scalar ``events_dropped`` regardless)
        self._events_dropped: Counter | None = None
        #: push subscribers see *every* event at emit time, including the
        #: ones the bounded deque later evicts
        self._event_subscribers: list[Callable[[Event], None]] = []

    # ------------------------------------------------------------- factories

    def counter(self, name: str, **labels: Any) -> Counter:
        key = _render_key(name, tuple(sorted(labels.items())))
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter()
        return metric

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = _render_key(name, tuple(sorted(labels.items())))
        metric = self._gauges.get(key)
        if metric is None:
            metric = self._gauges[key] = Gauge()
        return metric

    def histogram(self, name: str, **labels: Any) -> Histogram:
        key = _render_key(name, tuple(sorted(labels.items())))
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms[key] = Histogram()
        return metric

    def quantile(self, name: str, **labels: Any) -> QuantileHistogram:
        """A log-bucket quantile histogram (p50/p95/p99, bounded)."""
        key = _render_key(name, tuple(sorted(labels.items())))
        metric = self._quantiles.get(key)
        if metric is None:
            metric = self._quantiles[key] = QuantileHistogram()
        return metric

    def quantiles_named(self, name: str) -> list[QuantileHistogram]:
        """Every registered quantile histogram under ``name``, across all
        label sets — the ``frontier`` experiment merges these (exact:
        identical bucketing) into one cluster-wide latency distribution."""
        prefix = name + "{"
        return [
            metric
            for key, metric in self._quantiles.items()
            if key == name or key.startswith(prefix)
        ]

    # -------------------------------------------------------------- channels

    def emit(self, name: str, **fields: Any) -> Event:
        """Record one event at the current virtual time."""
        event = Event(time=self._clock(), name=name, fields=fields)
        if len(self.events) == self.EVENT_LIMIT:
            # deque(maxlen) evicts the oldest silently; account for it
            dropped = self._events_dropped
            if dropped is None:
                dropped = self._events_dropped = self.counter(
                    "obs.events_dropped"
                )
            dropped.inc()
        self.events.append(event)
        if self._event_subscribers:
            for subscriber in self._event_subscribers:
                subscriber(event)
        return event

    @property
    def events_dropped(self) -> int:
        """Events evicted from the bounded deque since construction."""
        return self._events_dropped.value if self._events_dropped else 0

    def subscribe_events(self, subscriber: Callable[[Event], None]) -> None:
        """Push every future event to ``subscriber`` at emit time.

        Subscribers run synchronously inside :meth:`emit` and see events
        the bounded deque will later evict, so a consumer attached here
        loses nothing to the deque bound."""
        self._event_subscribers.append(subscriber)

    def events_named(self, name: str) -> list[Event]:
        return [event for event in self.events if event.name == name]

    def register_collector(self, collector: Callable[[MetricsRegistry], None]) -> None:
        """Add a read-through collector run at :meth:`snapshot` time."""
        self._collectors.append(collector)

    # -------------------------------------------------------------- snapshot

    def snapshot(self) -> dict[str, Any]:
        """A JSON-able view of every metric (collectors run first)."""
        for collector in self._collectors:
            collector(self)
        return {
            "time": self._clock(),
            "counters": {key: c.value for key, c in sorted(self._counters.items())},
            "gauges": {key: g.value for key, g in sorted(self._gauges.items())},
            "histograms": {
                key: h.summary() for key, h in sorted(self._histograms.items())
            },
            "quantiles": {
                key: q.summary() for key, q in sorted(self._quantiles.items())
            },
            "events": [event.as_dict() for event in self.events],
            "events_dropped": self.events_dropped,
        }
