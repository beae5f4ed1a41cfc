"""Determinism pins for the router's park / replay / lock-wait schedule.

Every ``virt_*`` number the benchmark reports depends on the exact order
in which the router parks, replays, queues and resubmits operations.  The
control-plane experiments exercise all of it at their defaults
(``repro run elastic_scaling cross_shard``), a shortened
``group_commit`` exercises the merged flushes and a shortened
``shard_scaling`` the mid-run rebalance: these tests pin their router
counters exactly, so a reordering fails tier-1 instead of only shifting a
benchmark metric.
"""

import pytest

from repro.harness.experiments import (
    run_cross_shard,
    run_elastic_scaling,
    run_group_commit,
    run_shard_scaling,
)


def router_counts(result):
    """The router's counters, the cluster's completion count, the number
    of latency samples and the virtual end time, read from the run's
    final metrics snapshot."""
    metrics = result.metrics
    counters, gauges = metrics["counters"], metrics["gauges"]
    names = (
        "operations_parked",
        "operations_replayed",
        "operations_dropped",
        "operations_lock_retried",
        "replies_after_retire",
        "transactions_committed",
        "transactions_aborted",
        "txn_group_flushes",
        "txn_group_entries",
    )
    counts = {name: counters.get(f"router.{name}", 0) for name in names}
    counts["operations_completed"] = gauges["cluster.operations_completed"]
    counts["latency_samples"] = sum(
        summary["count"]
        for key, summary in metrics["quantiles"].items()
        if key.startswith("router.op_latency")
    )
    counts["virtual_end_s"] = metrics["time"]
    # a drained run leaves nothing in the router's submission table
    assert gauges["router.inflight_operations"] == 0
    assert gauges["router.parked_operations_total"] == 0
    assert gauges["router.txn_waiter_depth"] == 0
    return counts


def test_elastic_scaling_schedule_is_pinned():
    result = run_elastic_scaling()
    assert result.ratios["requests_completed"] == 640
    assert router_counts(result) == {
        "operations_parked": 41,
        "operations_replayed": 48,
        "operations_dropped": 0,
        "operations_lock_retried": 0,
        "replies_after_retire": 0,
        "transactions_committed": 0,
        "transactions_aborted": 0,
        "txn_group_flushes": 0,
        "txn_group_entries": 0,
        "operations_completed": 640,
        "latency_samples": 640,
        "virtual_end_s": 0.020761809201918533,
    }


@pytest.mark.parametrize("tracing", [True, False])
def test_cross_shard_schedule_is_pinned(tracing):
    """A closed-loop client never finds its machine busy, so grouping
    never engages; recording spans does not change the schedule."""
    result = run_cross_shard(tracing=tracing)
    assert result.ratios["requests_completed"] == 360
    assert result.ratios["conflict_retries"] == 124
    assert router_counts(result) == {
        "operations_parked": 4,
        "operations_replayed": 12,
        "operations_dropped": 0,
        "operations_lock_retried": 111,
        "replies_after_retire": 0,
        "transactions_committed": 137,
        "transactions_aborted": 124,
        "txn_group_flushes": 0,
        "txn_group_entries": 0,
        "operations_completed": 1390,
        "latency_samples": 1390,
        "virtual_end_s": 0.03933488784376244,
    }


def test_shard_scaling_schedule_is_pinned():
    """A short sweep with the mid-run rebalance at both shard counts."""
    result = run_shard_scaling(
        shard_counts=[1, 2], clients=8, requests_per_client=6
    )
    assert result.series == {
        "shards": [1, 2],
        "ops_per_second": [16004.102155027862, 20173.70957545079],
        "simulated_seconds": [0.0029992310430810567, 0.0023793343420790976],
        "rebalances": [1, 1],
        "violations": [0, 0],
        "load_skew": [1.0, 1.1666666666666667],
        "per_shard_share": [[1.0], [0.4167, 0.5833]],
        "streaming_parity": [True, True],
    }
    # the snapshot is the last shard count's run
    assert router_counts(result) == {
        "operations_parked": 0,
        "operations_replayed": 0,
        "operations_dropped": 0,
        "operations_lock_retried": 0,
        "replies_after_retire": 0,
        "transactions_committed": 0,
        "transactions_aborted": 0,
        "txn_group_flushes": 0,
        "txn_group_entries": 0,
        "operations_completed": 48,
        "latency_samples": 48,
        "virtual_end_s": 0.0023793343420790976,
    }


def test_group_commit_schedule_is_pinned():
    """Pipelined transactions: merged flushes engage on both shard
    counts."""
    result = run_group_commit(clients=8, txns_per_client=10)
    assert result.series == {
        "shards": [2, 4],
        "txns_per_second": [5424.574454686344, 7474.790585766045],
        "committed": [40, 48],
        "aborted": [40, 32],
        "group_flushes": [31, 30],
        "group_entries": [67, 66],
        "lock_waits": [0, 0],
    }
