"""Unit tests for the observability plane: registry, tracer, bridges.

The contracts that matter downstream: metric objects are identity-stable
(hot paths hold direct references), label rendering is deterministic,
collectors run at snapshot time only, the tracer is a no-op when
disabled, and the cluster surfaces all of it through ``metrics()``.
"""

import pytest

from repro.obs.metrics import Histogram, MetricsRegistry, QuantileHistogram
from repro.obs.tracing import SpanTracer


class TestCounters:
    def test_same_name_same_object(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops")
        counter.inc()
        counter.inc(4)
        assert registry.counter("ops") is counter
        assert registry.counter("ops").value == 5

    def test_labels_render_sorted_and_distinct(self):
        registry = MetricsRegistry()
        registry.counter("ops", shard=1).inc()
        registry.counter("ops", shard=2).inc(2)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"ops{shard=1}": 1, "ops{shard=2}": 2}
        # keyword order must not matter
        assert registry.counter("x", b=2, a=1) is registry.counter("x", a=1, b=2)


class TestGauges:
    def test_last_write_wins(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(3)
        gauge.set(7)
        assert registry.snapshot()["gauges"]["depth"] == 7


class TestHistograms:
    def test_summary_stats(self):
        histogram = Histogram()
        for value in (1, 2, 2, 5):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 4
        assert summary["total"] == 10
        assert summary["mean"] == 2.5
        assert summary["min"] == 1
        assert summary["max"] == 5
        assert summary["buckets"] == {"1": 1, "2": 2, "5": 1}

    def test_set_from_counts_replaces_wholesale(self):
        histogram = Histogram()
        histogram.observe(99)
        histogram.set_from_counts({2: 3, 4: 1})
        summary = histogram.summary()
        assert summary["count"] == 4
        assert summary["max"] == 4
        assert "99" not in summary["buckets"]

    def test_bucket_cap_keeps_memory_bounded(self):
        histogram = Histogram()
        for value in range(Histogram.MAX_BUCKETS + 10):
            histogram.observe(value)
        assert len(histogram.counts) == Histogram.MAX_BUCKETS
        assert histogram.overflow == 10
        assert histogram.count == Histogram.MAX_BUCKETS + 10
        # overflow observations still update the summary stats
        assert histogram.max == Histogram.MAX_BUCKETS + 9


class TestQuantileMerge:
    def test_merge_is_exact_for_identical_bucketing(self):
        # merging per-label histograms must answer the same quantiles as
        # one histogram fed the union of the observations — that is what
        # the frontier harness relies on for cluster-wide percentiles
        left, right, union = (
            QuantileHistogram(),
            QuantileHistogram(),
            QuantileHistogram(),
        )
        for value in (0.0001, 0.002, 0.03, 0.03):
            left.observe(value)
            union.observe(value)
        for value in (0.0005, 0.09, 1.7):
            right.observe(value)
            union.observe(value)
        merged = QuantileHistogram()
        merged.merge_from(left)
        merged.merge_from(right)
        for q in (0.5, 0.95, 0.99):
            assert merged.quantile(q) == union.quantile(q)
        assert merged.count == union.count
        assert merged.mean == pytest.approx(union.mean)
        assert merged.min == union.min
        assert merged.max == union.max

    def test_merge_carries_floor_and_overflow(self):
        source = QuantileHistogram()
        source.observe(0.0)
        source.observe(-1.0)
        source.overflow = 3
        target = QuantileHistogram()
        target.merge_from(source)
        assert target.floor == 2
        assert target.overflow == 3

    def test_merging_an_empty_histogram_is_a_noop(self):
        target = QuantileHistogram()
        target.observe(5.0)
        before = target.summary()
        target.merge_from(QuantileHistogram())
        assert target.summary() == before

    def test_quantiles_named_matches_name_and_labelled_variants(self):
        registry = MetricsRegistry()
        registry.quantile("router.op_latency", shard=0).observe(1.0)
        registry.quantile("router.op_latency", shard=1).observe(2.0)
        registry.quantile("router.op_latency_other").observe(9.0)
        matched = registry.quantiles_named("router.op_latency")
        assert len(matched) == 2
        assert sorted(h.max for h in matched) == [1.0, 2.0]


class TestEvents:
    def test_events_stamped_with_the_registry_clock(self):
        now = {"t": 1.5}
        registry = MetricsRegistry(clock=lambda: now["t"])
        registry.emit("verifier.fork-divergence", shard=1, position=3)
        now["t"] = 2.5
        registry.emit("other")
        events = registry.events_named("verifier.fork-divergence")
        assert len(events) == 1
        assert events[0].time == 1.5
        assert events[0].fields == {"shard": 1, "position": 3}
        assert registry.snapshot()["events"][0] == {
            "time": 1.5, "name": "verifier.fork-divergence",
            "shard": 1, "position": 3,
        }

    def test_event_channel_is_bounded(self):
        registry = MetricsRegistry()
        for index in range(MetricsRegistry.EVENT_LIMIT + 5):
            registry.emit("e", index=index)
        assert len(registry.events) == MetricsRegistry.EVENT_LIMIT
        # oldest events were dropped
        assert registry.snapshot()["events"][0]["index"] == 5


class TestCollectors:
    def test_collectors_run_at_snapshot_time_only(self):
        registry = MetricsRegistry()
        calls = []

        def collector(reg):
            calls.append(True)
            reg.gauge("collected").set(42)

        registry.register_collector(collector)
        assert calls == []
        snapshot = registry.snapshot()
        assert calls == [True]
        assert snapshot["gauges"]["collected"] == 42


class TestSpanTracer:
    def test_disabled_tracer_allocates_nothing(self):
        tracer = SpanTracer(enabled=False)
        assert tracer.start("operation", client_id=1, shard_id=0) is None
        tracer.delivered(0, 1)
        tracer.finish(None)
        assert tracer.finished() == []

    def test_fifo_matching_per_shard_client_pair(self):
        now = {"t": 0.0}
        tracer = SpanTracer(clock=lambda: now["t"], enabled=True)
        first = tracer.start("operation", client_id=1, shard_id=0, operation="PUT")
        now["t"] = 1.0
        second = tracer.start("operation", client_id=1, shard_id=0, operation="GET")
        now["t"] = 2.0
        tracer.delivered(0, 1, batch_size=2)  # stamps the oldest open span
        assert first.delivered_at == 2.0 and first.batch_size == 2
        assert second.delivered_at is None
        now["t"] = 3.0
        tracer.finish(first, sequence=7)
        assert first.completed_at == 3.0
        assert first.sequence == 7
        assert first.latency == 3.0
        finished = tracer.finished("operation")
        assert finished == [first]

    def test_delivery_for_other_pair_does_not_match(self):
        tracer = SpanTracer(enabled=True)
        span = tracer.start("operation", client_id=1, shard_id=0)
        tracer.delivered(1, 1)  # different shard
        tracer.delivered(0, 2)  # different client
        assert span.delivered_at is None

    def test_discard_drops_open_span(self):
        tracer = SpanTracer(enabled=True)
        span = tracer.start("operation", client_id=1, shard_id=0)
        tracer.discard(span)
        tracer.delivered(0, 1)
        assert span.delivered_at is None
        assert tracer.finished() == []

    def test_as_dict_carries_extra_fields(self):
        tracer = SpanTracer(enabled=True)
        span = tracer.start("operation", client_id=1, shard_id=0, txn_id="t-1")
        tracer.finish(span)
        assert tracer.finished()[0].as_dict()["txn_id"] == "t-1"


class TestClusterSurface:
    """The observability plane through the sharded runtime."""

    def _run(self, **kwargs):
        from repro.kvstore import put
        from repro.sharding import ShardRouter, ShardedCluster

        cluster = ShardedCluster(shards=2, clients=3, seed=7, **kwargs)
        router = ShardRouter(cluster)
        for client_id in cluster.client_ids:
            for index in range(4):
                router.submit(client_id, put(f"m-{client_id}-{index}", "v"))
        cluster.run()
        return cluster, router

    def test_router_properties_read_through_registry_counters(self):
        cluster, router = self._run()
        counter = cluster.metrics_registry.counter
        assert counter("router.operations_submitted").value == 12
        counter("router.operations_parked").inc(3)
        assert router.operations_parked == 3

    def test_metrics_snapshot_covers_every_section(self):
        cluster, router = self._run()
        snapshot = cluster.metrics()
        assert snapshot["gauges"]["cluster.operations_completed"] == 12
        assert snapshot["gauges"]["cluster.shards"] == 2
        # per-shard batch-size histograms bridged from the dispatcher
        for shard_id in cluster.shard_ids:
            ops = cluster.stats.per_shard_operations[shard_id]
            key = f"shard.batch_size{{shard={shard_id}}}"
            assert snapshot["histograms"][key]["count"] >= 1
            assert snapshot["gauges"][f"shard.operations{{shard={shard_id}}}"] == ops
        # the streaming verifier's gauges are live
        assert f"verifier.frontier{{shard=0}}" in snapshot["gauges"]

    def test_dispatcher_histogram_accessor_unchanged(self):
        cluster, _ = self._run()
        for shard_id in cluster.shard_ids:
            histogram = cluster._shards[shard_id].dispatcher.histogram
            exported = cluster.metrics()["histograms"][
                f"shard.batch_size{{shard={shard_id}}}"
            ]
            assert exported["count"] == sum(histogram.counts.values())

    def test_tracing_spans_cover_all_operations(self):
        cluster, _ = self._run(tracing=True)
        spans = cluster.tracer.finished("operation")
        assert len(spans) == 12
        for span in spans:
            assert span.delivered_at is not None
            assert span.batch_size >= 1
            assert span.completed_at >= span.delivered_at >= span.submitted_at
            assert span.sequence >= 1

    def test_tracing_off_by_default(self):
        cluster, _ = self._run()
        assert not cluster.tracer.enabled
        assert cluster.tracer.finished() == []

    def test_controlplane_metrics_on_reconfiguration(self):
        from repro.kvstore import put
        from repro.sharding import ShardRouter, ShardedCluster

        cluster = ShardedCluster(shards=2, clients=2, seed=9)
        router = ShardRouter(cluster)
        for index in range(8):
            router.submit(1, put(f"cp-{index}", "v"))
        cluster.run()
        cluster.add_shard()
        snapshot = cluster.metrics()
        assert snapshot["counters"]["controlplane.plans_completed{kind=add}"] == 1
        durations = [
            key for key in snapshot["histograms"]
            if key.startswith("controlplane.plan_duration")
        ]
        assert durations


class TestEventDropAccounting:
    """Satellite: bounded-deque evictions must be counted, not silent."""

    def test_no_drops_no_counter_noise(self):
        registry = MetricsRegistry()
        registry.emit("e")
        snapshot = registry.snapshot()
        assert snapshot["events_dropped"] == 0
        # a zero-loss run's counters map stays exactly what the caller made
        assert "obs.events_dropped" not in snapshot["counters"]

    def test_evictions_counted_and_surfaced(self):
        registry = MetricsRegistry()
        for index in range(MetricsRegistry.EVENT_LIMIT + 7):
            registry.emit("e", index=index)
        assert registry.events_dropped == 7
        snapshot = registry.snapshot()
        assert snapshot["events_dropped"] == 7
        assert snapshot["counters"]["obs.events_dropped"] == 7
        # the deque holds exactly the newest EVENT_LIMIT events
        assert snapshot["events"][0]["index"] == 7

    def test_subscribers_see_events_the_deque_evicts(self):
        registry = MetricsRegistry()
        seen = []
        registry.subscribe_events(lambda event: seen.append(event))
        total = MetricsRegistry.EVENT_LIMIT + 3
        for index in range(total):
            registry.emit("e", index=index)
        assert len(seen) == total
        assert seen[0].fields["index"] == 0  # pre-eviction event delivered


class TestQuantileHistogram:
    def test_quantiles_within_bucket_error(self):
        from repro.obs.metrics import QuantileHistogram

        quantiles = QuantileHistogram()
        for value in range(1, 1001):
            quantiles.observe(float(value))
        summary = quantiles.summary()
        assert summary["count"] == 1000
        # log-bucket answers carry <= GROWTH-1 (~8%) relative error
        for q, expected in ((0.50, 500), (0.95, 950), (0.99, 990)):
            answer = quantiles.quantile(q)
            assert expected * 0.9 <= answer <= expected * 1.1, (q, answer)
        assert summary["min"] == 1.0
        assert summary["max"] == 1000.0

    def test_quantile_clamped_into_min_max(self):
        from repro.obs.metrics import QuantileHistogram

        quantiles = QuantileHistogram()
        quantiles.observe(3.0)
        assert quantiles.quantile(0.5) == 3.0
        assert quantiles.quantile(0.99) == 3.0

    def test_floor_bucket_for_nonpositive_values(self):
        from repro.obs.metrics import QuantileHistogram

        quantiles = QuantileHistogram()
        # virtual-time latencies can legitimately be zero
        for _ in range(9):
            quantiles.observe(0.0)
        quantiles.observe(5.0)
        assert quantiles.floor == 9
        assert quantiles.quantile(0.5) == 0.0
        assert quantiles.quantile(0.99) == 5.0

    def test_bounded_memory_under_adversarial_spread(self):
        from repro.obs.metrics import QuantileHistogram

        quantiles = QuantileHistogram()
        # magnitudes far beyond MAX_BUCKETS distinct log-buckets
        for exponent in range(QuantileHistogram.MAX_BUCKETS + 50):
            quantiles.observe(1.08 ** exponent * 1.001)
        assert len(quantiles.counts) == QuantileHistogram.MAX_BUCKETS
        assert quantiles.overflow == 50
        assert quantiles.count == QuantileHistogram.MAX_BUCKETS + 50

    def test_empty_quantile_is_zero(self):
        from repro.obs.metrics import QuantileHistogram

        assert QuantileHistogram().quantile(0.5) == 0.0


class TestRegistryQuantiles:
    def test_factory_identity_stable(self):
        registry = MetricsRegistry()
        quantile = registry.quantile("lat", op="GET")
        quantile.observe(1.0)
        assert registry.quantile("lat", op="GET") is quantile

    def test_snapshot_carries_quantile_summaries(self):
        registry = MetricsRegistry()
        for value in (1.0, 2.0, 4.0):
            registry.quantile("lat", op="PUT").observe(value)
        snapshot = registry.snapshot()
        summary = snapshot["quantiles"]["lat{op=PUT}"]
        assert summary["count"] == 3
        assert set(summary) >= {"p50", "p95", "p99", "min", "max", "mean"}
