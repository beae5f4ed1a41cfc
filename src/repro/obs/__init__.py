"""Unified observability plane: metrics registry, events, request tracing.

Every layer of the sharded runtime used to keep its own ad-hoc stats —
router counters, dispatcher batch histograms, control-plane report
timings, harness series.  This package is the single substrate they all
write to (and the autoscaler / the ``frontier`` experiment read from):

- :mod:`repro.obs.metrics` — counter/gauge/histogram registry stamped
  with the simulator's *virtual* clock, plus streaming log-bucket
  quantile histograms (p50/p95/p99 in bounded memory) and a bounded
  event channel with explicit eviction accounting;
- :mod:`repro.obs.tracing` — per-request spans across
  router -> dispatcher -> enclave batch -> reply delivery (off by
  default; zero allocations when disabled), including enclave-depth
  stage timings captured inside the ecall via :class:`StageProbe`.

A run's snapshot (``ShardedCluster.metrics()``) is the ``metrics``
field ``repro run`` writes for ``shard_scaling``, ``elastic_scaling``
and ``cross_shard``; ``--set tracing=True`` adds the finished spans.
Live consumers subscribe to the registry's events with
:meth:`MetricsRegistry.subscribe_events`.
"""

from repro.obs.metrics import (
    Counter,
    Event,
    Gauge,
    Histogram,
    MetricsRegistry,
    QuantileHistogram,
)
from repro.obs.tracing import Span, SpanTracer, StageProbe

__all__ = [
    "Counter",
    "Event",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "QuantileHistogram",
    "Span",
    "SpanTracer",
    "StageProbe",
]
