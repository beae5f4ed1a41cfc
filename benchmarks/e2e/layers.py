"""Metric definitions and the per-layer budget derived from a traced run.

Two tables fix every metric's name, unit and direction:
:data:`END_TO_END` (what a user of the system sees; each has a regression
bound) and :data:`PER_LAYER` (one layer's work, time or waste; no bound).
``BENCHMARK.json`` and the smoke test are checked against them.

:func:`layer_metrics` turns one traced repetition -- the recorder's spans,
the in-ecall stage records, the per-operation virtual stamps and the raw
counts the workload read from the cluster -- into the per-layer numbers.
Only spans under a ``run`` root (the timed ``cluster.run()`` calls) count
towards the budget, so the layers sum to the same wall time
``wall_ops_per_s`` is computed from.
"""

from __future__ import annotations

from typing import Any

import spans
from workloads import Rep, quantile

#: virtual enclave service time per request (``ENCLAVE_SERVICE_INTERVAL``)
SERVICE_INTERVAL_S = 50e-6

#: name -> (unit, better, bound).  The first six are defined on every
#: workload; the rest belong to the workload named in their comment.
#: ``bound`` is for repetitions of one seed on one host; ``None`` = exact
#: (any worsening counts).
END_TO_END: dict[str, tuple[str, str, float | None]] = {
    "wall_ops_per_s": ("1/s", "higher", 0.10),
    "setup_s": ("s", "lower", 0.10),
    "peak_rss_mb": ("MB", "lower", 0.10),
    "failed_share": ("ratio", "lower", None),
    "virt_ops_per_s": ("1/s", "higher", 0.01),
    "virt_p50_us": ("us", "lower", 0.01),
    "virt_p99_us": ("us", "lower", 0.01),
    "virt_max_rate_ops_s": ("1/s", "higher", None),   # open_small
    "audit_s": ("s", "lower", 0.10),                  # faults
    "detect_rate": ("ratio", "higher", None),         # faults
    "detect_lag_ops": ("count", "lower", None),       # faults
}

#: end-to-end metrics that only one workload defines
WORKLOAD_ONLY = {
    "virt_max_rate_ops_s": "open_small",
    "audit_s": "faults",
    "detect_rate": "faults",
    "detect_lag_ops": "faults",
}

#: budget layers, in request order; ``run`` is the untraced remainder of
#: ``cluster.run()`` (the simulator's drain loop and span bookkeeping)
LAYERS = (
    "loadgen", "router", "client", "net", "dispatch", "execution",
    "enclave", "storage", "observer", "checker", "controlplane", "run",
)

#: name -> (unit, better)
PER_LAYER: dict[str, tuple[str, str]] = {
    "loadgen.schedule_s": ("s", "lower"),
    "loadgen.late_us": ("us", "lower"),
    "router.submit_us_per_op": ("us", "lower"),
    "router.ops_parked": ("count", "lower"),
    "router.ops_replayed": ("count", "lower"),
    "router.lock_waits": ("count", "lower"),
    "router.txn_abort_share": ("ratio", "lower"),
    "router.txn_entries_per_flush": ("count", "higher"),
    "client.invoke_us_per_op": ("us", "lower"),
    "client.on_reply_us_per_op": ("us", "lower"),
    "client.queued_peak": ("count", "lower"),
    "net.sim_us_per_event": ("us", "lower"),
    "net.events_per_op": ("count", "lower"),
    "net.channel_send_us_per_msg": ("us", "lower"),
    "net.wire_bytes_per_op": ("B", "lower"),
    "dispatch.self_us_per_batch": ("us", "lower"),
    "dispatch.mean_batch": ("count", "higher"),
    "dispatch.queue_depth_peak": ("count", "lower"),
    "dispatch.utilisation": ("ratio", "higher"),
    "execution.submit_us_per_batch": ("us", "lower"),
    "enclave.ecall_us_per_batch": ("us", "lower"),
    "enclave.ecall_us_per_op": ("us", "lower"),
    "enclave.ecalls_per_op": ("count", "lower"),
    "enclave.unseal_us_per_op": ("us", "lower"),
    "enclave.execute_us_per_op": ("us", "lower"),
    "enclave.reply_seal_us_per_op": ("us", "lower"),
    "enclave.state_seal_us_per_batch": ("us", "lower"),
    "enclave.state_seal_share": ("ratio", "lower"),
    "storage.store_us_per_batch": ("us", "lower"),
    "storage.stored_bytes_per_op": ("B", "lower"),
    "storage.delta_ratio": ("ratio", "lower"),
    "storage.state_blob_bytes": ("B", "lower"),
    "observer.harvest_us_per_batch": ("us", "lower"),
    "observer.export_ecall_us_per_batch": ("us", "lower"),
    "observer.harvests_per_op": ("count", "lower"),
    "checker.feed_us_per_op": ("us", "lower"),
    "checker.retained_records_peak": ("count", "lower"),
    "checker.events": ("count", "lower"),
    "audit.verdict_us_per_op": ("us", "lower"),
    "audit.parity_diffs": ("count", "lower"),
    "controlplane.reshard_wall_ms": ("ms", "lower"),
    "controlplane.recover_wall_ms": ("ms", "lower"),
    "controlplane.keys_moved": ("count", "lower"),
    "controlplane.fence_virt_us": ("us", "lower"),
    "virt.seq_wait_us_mean": ("us", "lower"),
    "virt.seq_wait_us_p99": ("us", "lower"),
    "virt.uplink_us_mean": ("us", "lower"),
    "virt.queue_service_us_mean": ("us", "lower"),
    "virt.queue_service_us_p99": ("us", "lower"),
    "virt.downlink_us_mean": ("us", "lower"),
    "virt.p50_us_30k": ("us", "lower"),
    "virt.p99_us_30k": ("us", "lower"),
    "virt.p99_us_36k": ("us", "lower"),
    "proc.machine_speed": ("ratio", "higher"),
    "proc.wall_ops_per_s_raw": ("1/s", "higher"),
    "proc.cpu_us_per_op": ("us", "lower"),
    "proc.gc_collections": ("count", "lower"),
    "proc.fastpath_build_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.coverage": ("ratio", "higher"),
    **{f"budget.{layer}_share": ("ratio", "lower") for layer in LAYERS},
}

#: counts that repeat exactly for one seed; checked across repetitions
DETERMINISTIC = (
    "net.events_per_op", "net.wire_bytes_per_op", "dispatch.mean_batch",
    "storage.stored_bytes_per_op",
)

COVERAGE_RANGE = (0.90, 1.05)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def count_metrics(rep: Rep) -> dict[str, float]:
    """The per-layer metrics that are plain counts: available from an
    untraced repetition, and identical for every repetition of a seed."""
    c = rep.counts
    ops = c.get("ops", 0)
    return {
        "loadgen.late_us": rep.late_us,
        "router.ops_parked": c.get("parked", 0),
        "router.ops_replayed": c.get("replayed", 0),
        "router.lock_waits": c.get("lock_waits", 0),
        "router.txn_abort_share": ratio(c.get("txn_aborted", 0), c.get("txn_started", 0)),
        "router.txn_entries_per_flush": ratio(
            c.get("txn_group_entries", 0), c.get("txn_group_flushes", 0)
        ),
        "net.events_per_op": ratio(c.get("events", 0), ops),
        "net.wire_bytes_per_op": ratio(c.get("wire_bytes", 0), ops),
        "dispatch.mean_batch": ratio(c.get("batch_items", 0), c.get("batches", 0)),
        "dispatch.queue_depth_peak": c.get("queue_depth_peak", 0),
        "dispatch.utilisation": ratio(
            c.get("batch_items", 0) * SERVICE_INTERVAL_S, c.get("shard_virt_s", 0)
        ),
        "storage.stored_bytes_per_op": ratio(c.get("stored_bytes", 0), ops),
        "storage.delta_ratio": ratio(c.get("stored_bytes", 0), c.get("logical_bytes", 0)),
        "storage.state_blob_bytes": c.get("state_blob_bytes", 0),
        "checker.retained_records_peak": c.get("retained_records_peak", 0),
        "checker.events": c.get("checker_events", 0),
        "audit.parity_diffs": c.get("parity_diffs", 0),
        "controlplane.keys_moved": c.get("keys_moved", 0),
        "controlplane.fence_virt_us": c.get("fence_virt_us", 0.0),
        "virt.p50_us_30k": rep.cells.get(30000.0, (0.0, 0.0))[0],
        "virt.p99_us_30k": rep.cells.get(30000.0, (0.0, 0.0))[1],
        "virt.p99_us_36k": rep.cells.get(36000.0, (0.0, 0.0))[1],
    }


def layer_metrics(
    rep: Rep,
    recorder: spans.Recorder,
    *,
    untraced: Rep,
    gc_collections: int,
    fastpath_build_s: float,
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced repetition, beside
    the untraced repetition of the same process (for the overhead, the
    process metrics and the once-per-process counts)."""
    rows = recorder.rows
    #: per span name, over the spans inside a timed run
    table = spans.budget(rows, under="run")
    nothing = {"count": 0, "total_s": 0.0, "self_s": 0.0}
    # a group bootstrapped inside the run is a recovery, unless add_shard
    # did it (a reshard); the ones at cluster construction have no parent
    recover_boot_s = sum(
        row[2] - row[1] for row in rows
        if row[0] == "controlplane.bootstrap"
        and row[3] >= 0 and rows[row[3]][0] != "controlplane.add_shard"
    )

    def calls(name: str) -> float:
        return table.get(name, nothing)["count"]

    def total(name: str) -> float:
        return table.get(name, nothing)["total_s"]

    def self_s(prefix: str) -> float:
        return sum(
            entry["self_s"] for name, entry in table.items() if name.startswith(prefix)
        )

    run_wall = total("run")
    layer_self = {layer: self_s(layer + ".") for layer in LAYERS}
    layer_self["run"] = table.get("run", nothing)["self_s"]

    c = rep.counts
    ops = c.get("ops", 0)
    batches = c.get("batches", 0)
    items = c.get("batch_items", 0)
    harvests = calls("observer.on_batch_boundary")
    ecalls = sum(
        calls(name)
        for name in ("enclave.invoke_batch", "enclave.other_ecall", "observer.export_ecall")
    )
    us = 1e6

    stages = rep.stage_records
    stage_ops = sum(record["ops"] for record in stages)

    def stage(field: str) -> float:
        return sum(record[field] for record in stages)

    stamps = rep.op_stamps
    seq_wait = sorted((s[1] - s[0]) * us for s in stamps)
    queue_service = sorted((s[3] - s[2]) * us for s in stamps)

    def mean(values: list[float]) -> float:
        return ratio(sum(values), len(values))

    # counts repeat exactly, so the untraced repetition's serve for both;
    # it also carries the once-per-process results (audit, ladder cells)
    metrics = count_metrics(untraced)
    metrics.update({
        "loadgen.schedule_s": rep.schedule_s,
        "router.submit_us_per_op": ratio(self_s("router.") * us, ops),
        "client.invoke_us_per_op": ratio(self_s("client.invoke") * us, ops),
        "client.on_reply_us_per_op": ratio(self_s("client.on_reply") * us, ops),
        "client.queued_peak": recorder.queued_peak,
        "net.sim_us_per_event": ratio(self_s("net.sim_step") * us, calls("net.sim_step")),
        "net.channel_send_us_per_msg": ratio(
            self_s("net.channel_send") * us, calls("net.channel_send")
        ),
        "dispatch.self_us_per_batch": ratio(self_s("dispatch.") * us, batches),
        "execution.submit_us_per_batch": ratio(self_s("execution.") * us, batches),
        "enclave.ecall_us_per_batch": ratio(
            total("enclave.invoke_batch") * us, calls("enclave.invoke_batch")
        ),
        "enclave.ecall_us_per_op": ratio(total("enclave.invoke_batch") * us, items),
        "enclave.ecalls_per_op": ratio(ecalls, ops),
        "enclave.unseal_us_per_op": ratio(stage("unseal") * us, stage_ops),
        "enclave.execute_us_per_op": ratio(stage("execute") * us, stage_ops),
        "enclave.reply_seal_us_per_op": ratio(stage("reply_seal") * us, stage_ops),
        "enclave.state_seal_us_per_batch": ratio(stage("state_seal") * us, len(stages)),
        "enclave.state_seal_share": ratio(stage("state_seal"), stage("wall_total")),
        "storage.store_us_per_batch": ratio(self_s("storage.") * us, batches),
        "observer.harvest_us_per_batch": ratio(
            self_s("observer.on_batch_boundary") * us, harvests
        ),
        "observer.export_ecall_us_per_batch": ratio(
            self_s("observer.export_ecall") * us, harvests
        ),
        "observer.harvests_per_op": ratio(harvests, ops),
        "checker.feed_us_per_op": ratio(self_s("checker.") * us, ops),
        "checker.retained_records_peak": max(
            recorder.retained_peak, c.get("retained_records_peak", 0)
        ),
        "audit.verdict_us_per_op": ratio(
            untraced.metrics.get("audit_s", 0.0) * us, untraced.counts.get("audit_ops", 0)
        ),
        "controlplane.reshard_wall_ms": 1e3 * (
            total("controlplane.migrate_keys") + total("controlplane.add_shard")
        ),
        "controlplane.recover_wall_ms": 1e3 * recover_boot_s,
        "virt.seq_wait_us_mean": mean(seq_wait),
        "virt.seq_wait_us_p99": quantile(seq_wait, 0.99),
        "virt.uplink_us_mean": mean([(s[2] - s[1]) * us for s in stamps]),
        "virt.queue_service_us_mean": mean(queue_service),
        "virt.queue_service_us_p99": quantile(queue_service, 0.99),
        "virt.downlink_us_mean": mean([(s[4] - s[3]) * us for s in stamps]),
        "proc.machine_speed": ratio(untraced.nominal_s, untraced.wall_s),
        "proc.wall_ops_per_s_raw": untraced.metrics["wall_ops_per_s_raw"],
        "proc.cpu_us_per_op": ratio(untraced.cpu_s * us, ops),
        "proc.gc_collections": gc_collections,
        "proc.fastpath_build_s": fastpath_build_s,
        "trace.overhead_ratio": ratio(rep.nominal_s, untraced.nominal_s),
        "trace.coverage": ratio(sum(layer_self.values()) - layer_self["run"], run_wall),
    })
    for layer in LAYERS:
        metrics[f"budget.{layer}_share"] = ratio(layer_self[layer], run_wall)
    return metrics


def budget_table(metrics: dict[str, Any]) -> str:
    """The layer budget of one traced run as a text table."""
    lines = ["layer          share of cluster.run() wall"]
    for layer in LAYERS:
        share = metrics.get(f"budget.{layer}_share", 0.0)
        lines.append(f"  {layer:<13}{share:7.1%}  {'#' * round(share * 50)}")
    return "\n".join(lines)
