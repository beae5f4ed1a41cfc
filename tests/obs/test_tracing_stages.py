"""Enclave-depth stage timings joined to delivery-correlated spans.

The contracts pinned here:

- with tracing on, *every* delivered operation's span carries the batch's
  enclave stage record (mac-scan/decrypt/verify -> per-op execute ->
  reply-encode/seal) plus its position within the batch;
- the record's wall-clock stamps are taken *inside* the ecall and
  joined to the span at the virtual-time delivery event;
- the generic (pure-Python) batch path stamps a record of its own with
  the same fields, so the observability surface does not depend on the
  compiled fastpath being available.
"""

from repro.kvstore import get, put
from repro.sharding import ShardRouter, ShardedCluster

STAGE_FIELDS = {
    "path", "ops", "unseal", "execute", "reply_seal", "state_seal",
    "per_op_execute", "wall_start", "wall_total",
}

def run_traced(*, ops=6, shards=2, clients=3, seed=13):
    cluster = ShardedCluster(
        shards=shards, clients=clients, seed=seed, tracing=True
    )
    router = ShardRouter(cluster)
    for client_id in cluster.client_ids:
        for index in range(ops):
            operation = (
                put(f"k-{client_id}-{index}", f"v{index}")
                if index % 2 == 0
                else get(f"k-{client_id}-{index - 1}")
            )
            router.submit(client_id, operation)
    cluster.run()
    assert router.streaming_verdict().ok
    return cluster


class TestStageTimings:
    def test_every_delivered_span_carries_stages(self):
        cluster = run_traced()
        spans = cluster.tracer.finished("operation")
        assert spans
        for span in spans:
            assert span.stages is not None, span.as_dict()
            assert span.batch_index is not None

    def test_stage_record_fields_and_invariants(self):
        cluster = run_traced()
        for span in cluster.tracer.finished("operation"):
            stages = span.stages
            assert set(stages) == STAGE_FIELDS
            assert stages["path"] in ("native-batch", "python-batch")
            assert stages["ops"] >= 1
            assert len(stages["per_op_execute"]) == stages["ops"]
            for field in ("unseal", "execute", "reply_seal", "state_seal"):
                assert stages[field] >= 0.0
            assert all(d >= 0.0 for d in stages["per_op_execute"])
            # the stage sum can never exceed the whole ecall
            total = (stages["unseal"] + stages["execute"]
                     + stages["reply_seal"] + stages["state_seal"])
            assert stages["wall_total"] >= total * 0.99
            # this span's slot within the batch exists
            assert 0 <= span.batch_index < stages["ops"]

    def test_batch_index_orders_spans_within_batch(self):
        cluster = run_traced()
        by_record: dict[int, list] = {}
        for span in cluster.tracer.finished("operation"):
            by_record.setdefault(id(span.stages), []).append(span)
        assert by_record
        for group in by_record.values():
            indices = sorted(span.batch_index for span in group)
            assert indices == list(range(len(group)))
            assert len(group) <= group[0].stages["ops"]

    def test_spans_stamp_both_clocks(self):
        cluster = run_traced()
        for span in cluster.tracer.finished("operation"):
            # virtual-time trip through the stack...
            assert span.completed_at >= span.delivered_at >= span.submitted_at
            # ...and the enclave's wall-clock interval alongside it
            assert span.stages["wall_start"] > 0.0
            assert span.stages["wall_total"] > 0.0


class TestPythonBatchFallback:
    def test_generic_path_stamps_its_own_record(self):
        from repro.crypto import fastpath

        previous = fastpath.active_backend()
        fastpath.select_backend("python")
        try:
            cluster = run_traced()
        finally:
            fastpath.BACKEND = previous
        spans = cluster.tracer.finished("operation")
        assert spans
        for span in spans:
            assert span.stages["path"] == "python-batch"
            assert set(span.stages) == STAGE_FIELDS
            assert len(span.stages["per_op_execute"]) == span.stages["ops"]


class TestTracingOff:
    def test_no_probe_no_stage_records(self):
        cluster = ShardedCluster(shards=2, clients=2, seed=13)
        router = ShardRouter(cluster)
        for client_id in cluster.client_ids:
            router.submit(client_id, put(f"off-{client_id}", "v"))
        cluster.run()
        # no probe object was built at all: the enclave batch path runs
        # with its single attribute test and nothing else
        assert cluster._stage_probe is None
        for shard in cluster._shards.values():
            assert shard.last_batch_stages is None
