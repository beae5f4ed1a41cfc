"""Push-based telemetry export: sinks, exporter ledger, reconciliation.

The load-bearing contract: the exported record stream is a *complete*
ledger.  ``open`` baseline + streamed counter deltas equal the final
snapshot's counters, streamed events + declared drops account for the
bounded event channel exactly, and every loss anywhere (sink rejection,
ring eviction, event-buffer overflow) is counted, never silent.
"""

import json

import pytest

from repro.obs.export import (
    CallbackSink,
    JsonlSink,
    RingSink,
    TelemetryExporter,
    make_exporter,
    reconcile_stream,
)
from repro.obs.metrics import MetricsRegistry


class TestSinks:
    def test_jsonl_sink_writes_one_line_per_record(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        sink = JsonlSink(path)
        assert sink.emit({"type": "open", "seq": 0})
        assert sink.emit({"type": "close", "seq": 1})
        sink.close()
        lines = path.read_text().splitlines()
        assert [json.loads(line)["seq"] for line in lines] == [0, 1]
        assert sink.records_written == 2
        # a closed sink rejects instead of raising
        assert sink.emit({"type": "late"}) is False

    def test_ring_sink_bounded_with_explicit_drops(self):
        sink = RingSink(capacity=3)
        for seq in range(5):
            assert sink.emit({"seq": seq})
        assert [record["seq"] for record in sink.records] == [2, 3, 4]
        assert sink.dropped == 2

    def test_callback_sink_hands_records_through(self):
        seen = []
        sink = CallbackSink(seen.append)
        sink.emit({"seq": 0})
        assert seen == [{"seq": 0}]


class TestExporter:
    def _build(self, **kwargs):
        registry = MetricsRegistry()
        ring = RingSink()
        exporter = TelemetryExporter(registry, [ring], **kwargs)
        return registry, ring, exporter

    def test_open_record_carries_counter_baseline(self):
        registry = MetricsRegistry()
        registry.counter("pre").inc(3)
        ring = RingSink()
        TelemetryExporter(registry, [ring])
        first = ring.records[0]
        assert first["type"] == "open"
        assert first["seq"] == 0
        assert first["counters"] == {"pre": 3}

    def test_flush_emits_events_then_changed_deltas_only(self):
        registry, ring, exporter = self._build()
        registry.counter("a").inc(2)
        registry.counter("b")  # exists but never moves
        registry.emit("went", n=1)
        exporter.flush()
        kinds = [record["type"] for record in ring.records]
        assert kinds == ["open", "events", "counters"]
        assert ring.records[1]["events"][0]["name"] == "went"
        assert ring.records[2]["deltas"] == {"a": 2}
        # deltas are since-last-flush, not since-open
        registry.counter("a").inc(1)
        exporter.flush()
        assert ring.records[-1]["deltas"] == {"a": 1}

    def test_quiet_flush_emits_nothing(self):
        registry, ring, exporter = self._build()
        before = len(ring.records)
        exporter.flush()
        exporter.flush()
        assert len(ring.records) == before

    def test_sequence_contiguous_across_flushes(self):
        registry, ring, exporter = self._build()
        for round_number in range(4):
            registry.counter("work").inc()
            registry.emit("tick", round=round_number)
            exporter.flush()
        exporter.close()
        seqs = [record["seq"] for record in ring.records]
        assert seqs == list(range(len(ring.records)))

    def test_close_seals_stream_with_accounting(self):
        registry, ring, exporter = self._build()
        registry.counter("n").inc()
        snapshot = registry.snapshot()
        exporter.close(snapshot)
        records = list(ring.records)
        assert [r["type"] for r in records[-2:]] == ["snapshot", "close"]
        accounting = records[-1]["accounting"]
        # every record *preceding* the close record is counted
        assert accounting["records_emitted"] == len(ring.records) - 1
        assert exporter.closed
        # a closed exporter is inert, not an error
        exporter.flush()
        exporter.close()
        assert ring.records[-1]["type"] == "close"

    def test_raising_sink_counts_a_drop_and_stream_continues(self):
        registry = MetricsRegistry()

        def explode(record):
            raise RuntimeError("consumer fell over")

        ring = RingSink()
        exporter = TelemetryExporter(registry, [CallbackSink(explode), ring])
        registry.counter("n").inc()
        exporter.flush()
        assert exporter.sink_rejections["callback"] == 2  # open + counters
        # the healthy sink saw everything
        assert [r["type"] for r in ring.records] == ["open", "counters"]
        assert exporter.accounting()["dropped"]["callback"] == 2

    def test_event_buffer_overflow_is_counted(self):
        registry = MetricsRegistry()
        ring = RingSink()
        exporter = TelemetryExporter(registry, [ring], event_buffer=4)
        for index in range(10):
            registry.emit("e", index=index)
        exporter.flush()
        assert exporter.events_overflowed == 6
        streamed = ring.records[-1]["events"]
        assert len(streamed) == 4
        # the newest events survive the bounded buffer
        assert [event["index"] for event in streamed] == [6, 7, 8, 9]

    def test_exporter_self_observes_via_gauges(self):
        registry, ring, exporter = self._build()
        registry.counter("n").inc()
        exporter.flush()
        snapshot = registry.snapshot()
        assert snapshot["gauges"]["export.records_emitted"] >= 2
        assert snapshot["gauges"]["export.records_dropped"] == 0

    def test_make_exporter_coercions(self):
        registry = MetricsRegistry()
        assert make_exporter(None, registry) is None
        single = make_exporter(RingSink(), MetricsRegistry())
        assert isinstance(single, TelemetryExporter)
        many = make_exporter([RingSink(), RingSink()], MetricsRegistry())
        assert isinstance(many, TelemetryExporter)


class TestReconcileStream:
    def test_clean_stream_reconciles(self):
        registry = MetricsRegistry()
        ring = RingSink()
        exporter = TelemetryExporter(registry, [ring])
        for round_number in range(3):
            registry.counter("ops", lane=round_number % 2).inc(2)
            registry.emit("tick", round=round_number)
            exporter.flush()
        snapshot = registry.snapshot()
        exporter.close(snapshot)
        assert reconcile_stream(list(ring.records), snapshot) == []

    def test_gap_and_divergence_detected(self):
        registry = MetricsRegistry()
        ring = RingSink()
        exporter = TelemetryExporter(registry, [ring])
        registry.counter("ops").inc(5)
        registry.emit("tick")
        exporter.flush()
        snapshot = registry.snapshot()
        exporter.close(snapshot)
        records = list(ring.records)
        intact = reconcile_stream([dict(r) for r in records], snapshot)
        assert intact == []
        # drop a record: both the gap and the counter divergence surface
        broken = [dict(r) for r in records if r["type"] != "counters"]
        problems = reconcile_stream(broken, snapshot)
        assert any("sequence" in p for p in problems)
        assert any("counter totals" in p for p in problems)
        # tamper with a streamed event: the tail check fires
        forged = [dict(r) for r in records]
        for record in forged:
            if record["type"] == "events":
                record["events"] = [dict(record["events"][0], name="forged")]
        problems = reconcile_stream(forged, snapshot)
        assert any("event tail" in p for p in problems)


class TestClusterExport:
    def _run_cluster(self, export):
        from repro.kvstore import get, put
        from repro.sharding import ShardRouter, ShardedCluster

        cluster = ShardedCluster(shards=2, clients=3, seed=3, export=export)
        router = ShardRouter(cluster)

        # closed loop: the next submit rides the previous completion, so
        # counters move *between* batch boundaries and the push stream
        # has mid-run deltas to carry
        def start(client_id):
            remaining = [5]

            def pump(_result=None):
                if remaining[0] <= 0:
                    return
                remaining[0] -= 1
                index = remaining[0]
                operation = (
                    put(f"x-{client_id}-{index}", "v")
                    if index % 2 == 0
                    else get(f"x-{client_id}-{index}")
                )
                router.submit(client_id, operation, pump)

            pump()

        for client_id in cluster.client_ids:
            start(client_id)
        cluster.run()
        assert router.streaming_verdict().ok
        return cluster

    def test_no_export_builds_no_exporter(self):
        cluster = self._run_cluster(None)
        assert cluster.exporter is None

    def test_batch_boundary_stream_reconciles_with_snapshot(self):
        ring = RingSink()
        cluster = self._run_cluster(ring)
        snapshot = cluster.metrics()
        cluster.exporter.close(snapshot)
        records = list(ring.records)
        # flushed *during* the run, not only at close: the stream is push
        assert sum(1 for r in records if r["type"] == "counters") > 1
        assert reconcile_stream(records, snapshot) == []
        # records are stamped with virtual flush times
        assert records[-1]["time"] == cluster.sim.now


class TestCliFollow:
    def test_metrics_follow_output_reconciles(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "follow.jsonl"
        code = main([
            "metrics", "--shards", "2", "--clients", "3", "--ops", "4",
            "--follow", "--output", str(path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "reconciles exactly" in out
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records[0]["type"] == "open"
        # the terminal snapshot rides the stream itself
        assert any(r["type"] == "snapshot" for r in records)

    def test_metrics_follow_stdout_streams_records(self, capsys):
        from repro.cli import main

        code = main([
            "metrics", "--shards", "2", "--clients", "2", "--ops", "3",
            "--follow",
        ])
        assert code == 0
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("{")
        ]
        assert lines[0]["type"] == "open"
        assert lines[-1]["type"] == "close"
