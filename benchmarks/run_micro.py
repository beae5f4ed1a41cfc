#!/usr/bin/env python
"""Run the protocol microbenchmarks and write ``BENCH_micro.json``.

Gives every PR a comparable perf trajectory: run from the repo root as

    PYTHONPATH=src python benchmarks/run_micro.py [--output BENCH_micro.json]

Preferred path: pytest-benchmark, whose full stats JSON is written
verbatim (plus a compact ``summary`` section).  If pytest-benchmark is
not installed, a minimal best-of-N timer fallback measures the same
scenarios directly so the file is always produced.

``--quick`` is the CI smoke mode: it always uses the timer fallback with
a handful of iterations per scenario, finishing in seconds — enough to
prove every scenario still runs and to eyeball order-of-magnitude
regressions, not to commit as the perf record.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import subprocess
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_FILE = "benchmarks/bench_protocol_micro.py"

#: The family the CI regression gate watches: the microsecond-scale
#: invoke path plus the txn group-commit scoreboard (the other cluster
#: scenarios are orders of magnitude larger and too schedule-dependent
#: for a tight multiplicative gate; group commit is gated because the
#: whole point of the txn batch codec is that its cost tracks the
#: invoke path, and the family normalization absorbs the ms scale).
INVOKE_PATH_GATE = (
    "test_micro_aead_encrypt_100b",
    "test_micro_aead_round_trip_2500b",
    "test_micro_hash_chain_extend",
    "test_micro_serde_encode_state",
    "test_micro_full_invoke_round_trip",
    "test_micro_batched_invoke_sizes[1]",
    "test_micro_batched_invoke_sizes[8]",
    "test_micro_batched_invoke_sizes[32]",
    "test_micro_txn_group_commit[2]",
    "test_micro_txn_group_commit[4]",
)


def _summarize(benchmarks: list[dict]) -> dict:
    return {
        bench["name"]: {
            "median_us": round(bench["stats"]["median"] * 1e6, 2),
            "mean_us": round(bench["stats"]["mean"] * 1e6, 2),
            "min_us": round(bench["stats"]["min"] * 1e6, 2),
            "rounds": bench["stats"]["rounds"],
        }
        for bench in benchmarks
    }


def merge_best_of(documents: list[dict]) -> dict:
    """Per-bench best (lowest-median) stats across several full runs.

    On a shared/noisy box a single run's medians mix the machine's quiet
    and busy windows unevenly across benches, which skews the *relative*
    shape of the record — exactly what the gate's family normalization
    can't cancel.  Taking each bench's least-contaminated run gives every
    entry the same "quiet box" baseline.  The merged document keeps the
    first run's metadata and records how many runs fed the merge.
    """
    merged = dict(documents[0])
    by_name: dict[str, dict] = {}
    for document in documents:
        for bench in document.get("benchmarks", []):
            current = by_name.get(bench["name"])
            if (
                current is None
                or bench["stats"]["median"] < current["stats"]["median"]
            ):
                by_name[bench["name"]] = bench
    merged["benchmarks"] = [by_name[name] for name in sorted(by_name)]
    merged["summary"] = _summarize(merged["benchmarks"])
    merged["best_of_runs"] = len(documents)
    return merged


def run_with_pytest_benchmark() -> dict | None:
    """Run under pytest-benchmark; returns its JSON document or None."""
    try:
        import pytest_benchmark  # noqa: F401
    except ImportError:
        return None
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as handle:
        json_path = handle.name
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            BENCH_FILE,
            "--benchmark-only",
            f"--benchmark-json={json_path}",
            "-q",
        ],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    try:
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            raise SystemExit("microbenchmark run failed")
        with open(json_path) as handle:
            document = json.load(handle)
    finally:
        pathlib.Path(json_path).unlink(missing_ok=True)
    document["summary"] = _summarize(document["benchmarks"])
    document["runner"] = "pytest-benchmark"
    # drop the raw per-round timing arrays: tens of thousands of floats
    # that would bloat the committed perf record; the stats keep the story
    for bench in document["benchmarks"]:
        bench["stats"].pop("data", None)
    return document


def run_with_timer_fallback(*, quick: bool = False) -> dict:
    """Best-of-N timeit over the same scenarios, no plugins required."""
    import timeit

    sys.path.insert(0, str(REPO_ROOT / "src"))
    sys.path.insert(0, str(REPO_ROOT))
    from tests.conftest import build_deployment
    from repro import serde
    from repro.crypto.aead import AeadKey, auth_decrypt, auth_encrypt
    from repro.crypto.hashing import GENESIS_HASH, chain_extend
    from repro.kvstore import get, put
    from repro.sharding import ShardRouter, ShardedCluster

    key = AeadKey(b"\x01" * 16)
    payload_2500 = b"x" * 2500
    _, _, (alice, *_) = build_deployment()
    alice.invoke(put("k", "v" * 100))
    state = {f"user{i:012d}": "v" * 100 for i in range(100)}
    operation = serde.encode(["PUT", "k" * 40, "v" * 100])

    # per-entry state seal: a PUT on one hot key of a 200-object state
    # and of a 64 x 4 KiB state
    _, _, (grower, *_) = build_deployment()
    for i in range(200):
        grower.invoke(put(f"user{i:012d}", "v" * 100))
    from benchmarks.bench_protocol_micro import _dh_exchange, _large_state_put

    # sharded-path round: the same uniform load routed over 1 and 2 groups
    # (provisioning excluded; clusters persist across iterations, and the
    # fixed key set keeps state size — so per-round cost — stationary)
    shard_clusters = {
        shards: ShardedCluster(shards=shards, clients=4, seed=shards)
        for shards in (1, 2)
    }
    shard_routers = {
        shards: ShardRouter(cluster) for shards, cluster in shard_clusters.items()
    }

    def shard_scaling():
        for shards, cluster in shard_clusters.items():
            router = shard_routers[shards]
            for client_id in cluster.client_ids:
                for i in range(4):
                    router.submit(client_id, put(f"k-{i}", "v" * 64))
            cluster.run()

    # elastic resharding: a control-plane split + merge on a quiet
    # populated cluster (provision, quiescence barrier, per-arc handoffs,
    # two ring swaps); the cluster returns to 2 shards every iteration
    elastic_cluster = ShardedCluster(shards=2, clients=4, seed=31)
    elastic_router = ShardRouter(elastic_cluster)
    for client_id in elastic_cluster.client_ids:
        for i in range(25):
            elastic_router.submit(client_id, put(f"user{client_id}-{i:04d}", "v" * 64))
    elastic_cluster.run()

    def elastic_reshard():
        new_id = elastic_cluster.add_shard()
        elastic_cluster.remove_shard(new_id)

    # cross-shard transaction: one 2PC round (two prepares + two
    # decisions over two live groups) through the router coordinator
    txn_cluster = ShardedCluster(shards=2, clients=4, seed=41)
    txn_router = ShardRouter(txn_cluster)
    txn_keys, txn_index = [], 0
    while len(txn_keys) < 2:
        candidate = f"txnkey-{txn_index}"
        txn_index += 1
        if not txn_keys or txn_cluster.ring.owner(candidate) != txn_cluster.ring.owner(
            txn_keys[0]
        ):
            txn_keys.append(candidate)
    for txn_key in txn_keys:
        txn_router.submit(1, put(txn_key, "v" * 64))
    txn_cluster.run()

    def cross_shard_txn():
        txn_router.submit_txn(
            1, [put(txn_keys[0], "v" * 64), put(txn_keys[1], "v" * 64)]
        )
        txn_cluster.run()

    # group commit: a pipelined transaction burst per call (4 clients x 4
    # in flight) so the coordinator merges prepares/decisions into one
    # sealed *_MANY operation per participant per boundary
    from benchmarks.bench_protocol_micro import (
        _group_commit_cluster,
        _group_commit_round,
    )

    gc_setups = {shards: _group_commit_cluster(shards) for shards in (2, 4)}

    def group_commit(shards):
        cluster, router, pairs = gc_setups[shards]
        return lambda: _group_commit_round(cluster, router, pairs)

    # batched-invoke family: one ecall per batch at sizes 1/8/32 (the
    # Sec. 5.2/5.3 amortisation curve the batch crypto pipeline targets),
    # and the 16-message batch of test_micro_batched_invoke
    from benchmarks.bench_protocol_micro import _batched_invoke_round

    batch_deployments = {
        size: build_deployment(clients=size) for size in (1, 8, 16, 32)
    }

    def batched(size):
        host, deployment, clients = batch_deployments[size]
        return lambda: _batched_invoke_round(host, deployment, clients)

    # key handoff: one attested DH handoff of half the ring there and
    # back, so the states stay stationary across iterations
    from benchmarks.bench_protocol_micro import _handoff_pair
    from repro.core.migration import migrate_keys

    host_a, host_b, verifier, arcs = _handoff_pair()

    def key_handoff_round_trip():
        migrate_keys(host_a, host_b, verifier, arcs)
        migrate_keys(host_b, host_a, verifier, arcs)

    scenarios = {
        "test_micro_aead_encrypt_100b": lambda: auth_encrypt(b"x" * 100, key),
        "test_micro_aead_round_trip_2500b": lambda: auth_decrypt(
            auth_encrypt(payload_2500, key), key
        ),
        "test_micro_hash_chain_extend": lambda: chain_extend(
            GENESIS_HASH, operation, 1, 1
        ),
        "test_micro_serde_encode_state": lambda: serde.encode(state),
        "test_micro_full_invoke_round_trip": lambda: alice.invoke(get("k")),
        "test_micro_invoke_with_state_growth": lambda: grower.invoke(
            put("user000000000000", "w" * 100)
        ),
        "test_micro_put_large_state": _large_state_put(),
        "test_micro_dh_exchange": _dh_exchange(),
        "test_micro_batched_invoke": batched(16),
        "test_micro_batched_invoke_sizes[1]": batched(1),
        "test_micro_batched_invoke_sizes[8]": batched(8),
        "test_micro_batched_invoke_sizes[32]": batched(32),
        "test_micro_shard_scaling": shard_scaling,
        "test_micro_cross_shard_txn": cross_shard_txn,
        "test_micro_txn_group_commit[2]": group_commit(2),
        "test_micro_txn_group_commit[4]": group_commit(4),
        "test_micro_elastic_reshard": elastic_reshard,
        "test_micro_key_handoff_round_trip": key_handoff_round_trip,
    }
    slow_scenarios = {
        "test_micro_elastic_reshard",  # tens of ms per call
        "test_micro_key_handoff_round_trip",
        "test_micro_txn_group_commit[2]",
        "test_micro_txn_group_commit[4]",
    }
    number = 5 if quick else 200
    repeat = 2 if quick else 5
    summary = {}
    for name, fn in scenarios.items():
        fn()  # warm caches the way the pytest fixtures would
        if name in slow_scenarios:
            iterations = min(number, 5)
        elif quick and name in INVOKE_PATH_GATE:
            # the gated microsecond-scale family gets extra iterations
            # even in quick mode: 5-shot timings swing far beyond the
            # 1.3x gate, and 50 iterations still cost only milliseconds
            iterations = 50
        else:
            iterations = number
        best = min(timeit.repeat(fn, number=iterations, repeat=repeat)) / iterations
        summary[name] = {"best_us": round(best * 1e6, 2), "iterations": iterations}
    runner = "timer-fallback-quick" if quick else "timer-fallback"
    return {"runner": runner, "summary": summary}


def _bench_value(stats: dict) -> float | None:
    """One representative µs value from a summary entry, whichever runner
    produced it (pytest-benchmark medians, timer-fallback bests)."""
    for field in ("median_us", "best_us", "mean_us"):
        if field in stats:
            return stats[field]
    return None


def compare_against_record(document: dict, record_path: str) -> dict[str, float]:
    """Print per-bench ratios of this run vs a committed record.

    Ratio > 1 means this run is faster (record/new); the committed
    record's runner metadata is echoed so cross-runner comparisons
    (median vs best-of) are visible at a glance.  Returns the
    ``{bench: ratio}`` map (the ``--gate`` check consumes it).  This is
    the one-command regression check future PRs run (CI gates the full
    pytest-benchmark run — same warm-median statistic as the record;
    ``--quick`` comparisons are informational, the 2 µs-scale scenarios
    are too noisy under the fallback timer for a 1.3x bound):

        PYTHONPATH=src python benchmarks/run_micro.py \
            --compare BENCH_micro.json --gate 1.3
    """
    with open(record_path) as handle:
        record = json.load(handle)
    record_summary = record.get("summary", {})
    print(
        f"\ncomparison vs {record_path} "
        f"(record runner: {record.get('runner', '?')}, "
        f"this run: {document.get('runner', '?')}; ratio >1 = faster now)"
    )
    ratios: dict[str, float] = {}
    summary = document.get("summary", {})
    for name in sorted(set(summary) | set(record_summary)):
        new_stats = summary.get(name)
        old_stats = record_summary.get(name)
        if old_stats is None:
            # a bench added after the record was committed: nothing to
            # compare against yet, so skip
            # with a notice instead of failing — the next record refresh
            # picks it up
            print(f"  {name}: skipped — not in the committed record "
                  "(newly added bench; refresh the record to track it)")
            continue
        if new_stats is None:
            print(f"  {name}: skipped — only in the record "
                  "(not measured by this run)")
            continue
        new_value = _bench_value(new_stats)
        old_value = _bench_value(old_stats)
        if not new_value or not old_value:
            continue
        ratio = old_value / new_value
        ratios[name] = ratio
        print(
            f"  {name}: {old_value:.2f}us -> {new_value:.2f}us "
            f"({ratio:.2f}x)"
        )
    return ratios


def apply_gate(ratios: dict[str, float], gate: float) -> bool:
    """The CI regression gate: fail when any invoke-path bench ran more
    than ``gate`` times slower than the committed record, *after*
    normalizing out the family-wide speed shift.

    The committed record is measured on a different machine (and
    possibly a different statistic — pytest-benchmark medians vs the
    fallback's best-of) than the CI runner, so absolute ratios carry a
    uniform machine factor.  Dividing each bench's ratio by the gated
    family's median ratio cancels that factor: a runner that is 1.5x
    slower across the board stays green, while a change that slows
    *one* path (a new branch in the invoke loop, a crypto fast-path
    falling back) still shows up as that bench regressing against its
    siblings.  Only the microsecond-scale invoke-path family plus the
    txn group-commit scoreboard is gated — the remaining multi-ms
    cluster scenarios swing too much with scheduling noise for a tight
    multiplicative bound.
    """
    gated = {
        name: ratio
        for name, ratio in ratios.items()
        if name in INVOKE_PATH_GATE
    }
    if not gated:
        print("gate skipped: no invoke-path benches in common with the record")
        return True
    ordered = sorted(gated.values())
    family = ordered[len(ordered) // 2]  # median machine-shift estimate
    regressed = {
        name: ratio / family
        for name, ratio in gated.items()
        if ratio / family < 1.0 / gate
    }
    if not regressed:
        print(
            f"gate ok: no invoke-path bench regressed beyond {gate:.2f}x "
            f"(family speed shift {family:.2f}x normalized out)"
        )
        return True
    print(f"GATE FAILED: invoke-path regressions beyond {gate:.2f}x:")
    for name, normalized in sorted(regressed.items()):
        print(
            f"  {name}: {1 / normalized:.2f}x slower than the record "
            f"after normalizing the family speed shift ({family:.2f}x)"
        )
    return False


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        default=None,
        help="where to write the results (default: BENCH_micro.json in "
        "the repo root; BENCH_micro_quick.json with --quick, so smoke "
        "numbers never clobber the committed perf record)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: timer fallback with a few iterations per "
        "scenario (seconds, not minutes); not for the committed record",
    )
    parser.add_argument(
        "--best-of",
        type=int,
        metavar="N",
        default=1,
        help="run the full pytest-benchmark suite N times and keep each "
        "bench's lowest-median run (use for the committed record on a "
        "noisy box; ignored with --quick)",
    )
    parser.add_argument(
        "--compare",
        metavar="RECORD_JSON",
        default=None,
        help="after running, print per-bench ratios vs a committed "
        "record (e.g. BENCH_micro.json) so perf regressions show up in "
        "one command",
    )
    parser.add_argument(
        "--gate",
        type=float,
        metavar="RATIO",
        default=None,
        help="with --compare: exit non-zero when any invoke-path "
        "microbench ran more than RATIO x slower than the record "
        "(the CI regression gate; e.g. --gate 1.3)",
    )
    args = parser.parse_args()
    if args.gate is not None and args.compare is None:
        parser.error("--gate requires --compare")
    if args.output is None:
        name = "BENCH_micro_quick.json" if args.quick else "BENCH_micro.json"
        args.output = str(REPO_ROOT / name)
    if args.quick:
        document = run_with_timer_fallback(quick=True)
    else:
        documents = []
        for _ in range(max(1, args.best_of)):
            document = run_with_pytest_benchmark()
            if document is None:
                document = run_with_timer_fallback()
                documents = [document]
                break
            documents.append(document)
        document = (
            merge_best_of(documents) if len(documents) > 1 else documents[0]
        )
    document.setdefault("machine_info", {}).setdefault(
        "python", platform.python_version()
    )
    with open(args.output, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")
    for name, stats in sorted(document["summary"].items()):
        print(f"  {name}: {stats}")
    if args.compare:
        ratios = compare_against_record(document, args.compare)
        if args.gate is not None and not apply_gate(ratios, args.gate):
            raise SystemExit(1)


if __name__ == "__main__":
    main()
