"""Smoke test of the end-to-end benchmark: a ``--quick`` pass (every
workload at ~1/20 size, one repetition, traced) must produce a complete,
correct record, and the self-time arithmetic must be right."""

import json
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402

WORKLOADS = ("open_small", "closed_batch", "large_write", "large_read", "txn_mix", "faults")

#: every metric name ISSUE 13 fixes, with its unit
END_TO_END = {
    "wall_ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
    "failed_share": "ratio", "virt_ops_per_s": "1/s", "virt_p50_us": "us",
    "virt_p99_us": "us", "virt_max_rate_ops_s": "1/s", "audit_s": "s",
    "detect_rate": "ratio", "detect_lag_ops": "count",
}
WORKLOAD_ONLY = {
    "virt_max_rate_ops_s": "open_small", "audit_s": "faults",
    "detect_rate": "faults", "detect_lag_ops": "faults",
}
PER_LAYER = """
loadgen.schedule_s loadgen.late_us
router.submit_us_per_op router.ops_parked router.ops_replayed router.lock_waits
router.txn_abort_share router.txn_entries_per_flush
client.invoke_us_per_op client.on_reply_us_per_op client.queued_peak
net.sim_us_per_event net.events_per_op net.channel_send_us_per_msg net.wire_bytes_per_op
dispatch.self_us_per_batch dispatch.mean_batch dispatch.queue_depth_peak dispatch.utilisation
execution.submit_us_per_batch
enclave.ecall_us_per_batch enclave.ecall_us_per_op enclave.ecalls_per_op
enclave.unseal_us_per_op enclave.execute_us_per_op enclave.reply_seal_us_per_op
enclave.state_seal_us_per_batch enclave.state_seal_share
storage.store_us_per_batch storage.stored_bytes_per_op storage.delta_ratio
storage.state_blob_bytes
observer.harvest_us_per_batch observer.export_ecall_us_per_batch observer.harvests_per_op
checker.feed_us_per_op checker.retained_records_peak checker.events
audit.verdict_us_per_op audit.parity_diffs
controlplane.reshard_wall_ms controlplane.recover_wall_ms controlplane.keys_moved
controlplane.fence_virt_us
virt.seq_wait_us_mean virt.seq_wait_us_p99 virt.uplink_us_mean
virt.queue_service_us_mean virt.queue_service_us_p99 virt.downlink_us_mean
proc.cpu_us_per_op proc.gc_collections proc.fastpath_build_s
trace.overhead_ratio trace.coverage
""".split()


@pytest.fixture(scope="module")
def record(tmp_path_factory):
    output = tmp_path_factory.mktemp("e2e") / "quick.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seed", "7",
         "--output", str(output)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    # every metric is printed by name with its unit
    for name, unit in END_TO_END.items():
        assert any(
            line.split()[:1] == [name] and unit in line.split()
            for line in done.stdout.splitlines()
        ), name
    return json.loads(output.read_text())


def test_record_schema(record):
    assert set(record) >= {
        "benchmark_version", "seed", "scale", "seconds", "host",
        "metric_defs", "workloads",
    }
    assert record["seed"] == 7
    assert set(record["host"]) >= {"nproc", "cpu_model", "python", "fastpath"}
    assert tuple(record["workloads"]) == WORKLOADS
    defs = record["metric_defs"]
    for name, unit in END_TO_END.items():
        assert defs["end_to_end"][name]["unit"] == unit
        assert defs["end_to_end"][name]["better"] in ("higher", "lower")
        assert "bound" in defs["end_to_end"][name]
    for name in PER_LAYER:
        assert defs["per_layer"][name]["unit"], name
    for entry in record["workloads"].values():
        assert entry["why"] and entry["params"]


def test_every_named_metric_is_reported(record):
    for workload, entry in record["workloads"].items():
        for name, unit in END_TO_END.items():
            if WORKLOAD_ONLY.get(name, workload) != workload:
                assert name not in entry["end_to_end"]
                continue
            assert entry["end_to_end"][name]["unit"] == unit, (workload, name)
            assert isinstance(entry["end_to_end"][name]["value"], (int, float))
        for name in PER_LAYER:
            assert isinstance(entry["per_layer"][name], (int, float)), (workload, name)


def test_outputs_are_correct(record):
    for workload, entry in record["workloads"].items():
        assert entry["problems"] == [], (workload, entry["problems"])
        assert entry["failed"] == 0
        assert entry["end_to_end"]["failed_share"]["value"] == 0
        assert entry["per_layer"]["loadgen.late_us"] == 0
        assert 0.90 <= entry["per_layer"]["trace.coverage"] <= 1.05, workload
    faults = record["workloads"]["faults"]
    assert faults["end_to_end"]["detect_rate"]["value"] == 1.0
    assert faults["per_layer"]["audit.parity_diffs"] == 0
    assert faults["per_layer"]["controlplane.keys_moved"] > 0
    assert record["workloads"]["txn_mix"]["per_layer"]["router.txn_entries_per_flush"] > 0


def test_benchmark_json_matches_the_metric_tables(record):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    defs = record["metric_defs"]
    listed = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    assert set(listed) == set(defs["end_to_end"]) | set(defs["per_layer"])
    for name, metric in listed.items():
        table = defs["end_to_end"].get(name) or defs["per_layer"][name]
        assert (metric["unit"], metric["better"]) == (table["unit"], table["better"])


def test_self_time_on_a_hand_built_tree():
    # root [0, 10]; a [1, 4] with child a1 [2, 3]; b [5, 9] with two
    # children that overlap each other ([6, 8] and [7, 8.5]) and one that
    # sticks out of its parent ([8.75, 9.5])
    rows = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a1", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("b1", 6.0, 8.0, 3),
        ("b2", 7.0, 8.5, 3),
        ("b3", 8.75, 9.5, 3),
    ]
    own = spans.self_times(rows)
    assert own == pytest.approx([
        10.0 - 3.0 - 4.0,    # root: minus a and b
        3.0 - 1.0,           # a: minus a1
        1.0,                 # a1: leaf
        4.0 - 2.5 - 0.25,    # b: children cover [6, 8.5] and [8.75, 9]
        2.0, 1.5, 0.75,      # leaves keep their full duration
    ])
    # self times of a strictly nested tree sum to the root's duration
    nested = rows[:5]
    assert sum(spans.self_times(nested)) == pytest.approx(10.0)
    table = spans.budget(nested)
    assert table["a"] == {"count": 1, "total_s": 3.0, "self_s": 2.0}
