#!/usr/bin/env python
"""Interleaved A/B guard: the observability plane must not tax the
invoke hot path.

The two gated scenarios are the ones the perf record watches most
closely — ``full_invoke_round_trip`` and ``batched_invoke_sizes[32]``.
Both run the core client→host→enclave path, which is registry-free by
construction: no counter, gauge, tracer or verifier hook sits between
``alice.invoke`` and the sealed reply.  This guard keeps it that way.

Two arms, interleaved round by round (A,B,B,A,… so slow drift in the
box cancels instead of biasing one arm):

* arm ``off`` — the scenarios exactly as the microbenchmarks run them,
  no observability object anywhere in the process;
* arm ``on`` — the same scenarios with the plane maximally live in the
  same process: a ``MetricsRegistry`` carrying counters/histograms and
  a registered collector, an enabled ``SpanTracer`` with open spans,
  and a ``ShardedCluster`` running with streaming verification and
  tracing on (constructed and exercised before timing, kept alive
  throughout).

The gate fails when the median of the *per-round* ``on/off`` ratios
exceeds the threshold (default 1.05×).  Per-round ratios — both arms
timed back to back inside each round, GC paused — are the repo's
standing A/B methodology: box-speed drift between rounds divides out
of every ratio instead of landing on one arm.  What it catches: any future change that threads
*gated* instrumentation into the invoke path (``if registry: …``) —
the on-arm pays the call, the off-arm only the branch, and the ratio
moves.  What it leaves to ``run_micro.py --gate``: *ungated* cost added
to the path, which hits both arms equally and shows up against the
committed record instead.

``--arm on|off`` times a single arm and prints its medians as JSON —
that is the stash-interleaved mode: ``git stash push -- src`` keeps
this file in place, so the same harness can time an older revision
(arm ``off`` degrades gracefully when ``repro.obs`` does not exist)
and the per-round medians are comparable across the stash boundary.

``--guard tracing`` runs the *other* A/B: a sharded closed-loop round
with tracing ON versus the identical round with it OFF (streaming
verification off in both arms, so the comparison isolates the span and
stage machinery).  Tracing is opt-in and allowed to cost something —
stage stamps are wall-clock reads inside the ecall and every span is a
dict — but the cost must stay *bounded*: the documented bound is 1.60x
median per-round ratio (default threshold for this guard).  What it
catches: a span or stage probe accidentally becoming super-linear in
batch size, or tracing overhead creeping from "bounded tax" toward "2x
the run".

``--guard verifier`` is the same round with the *verification* plane
on the scales: ``audit=True`` in both arms (the enclaves keep their
audit logs either way), streaming verification ON versus OFF.  What it
catches: work leaking back into the per-batch harvest — a per-boundary
pass over every client or every retained record, a re-encode or a
second ``F`` application per audit record — which no unit test times.

    PYTHONPATH=src:. python benchmarks/ab_guard.py [--threshold 1.05]
    PYTHONPATH=src:. python benchmarks/ab_guard.py --guard tracing
    PYTHONPATH=src:. python benchmarks/ab_guard.py --guard verifier
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

GATED_SCENARIOS = ("full_invoke_round_trip", "batched_invoke_sizes[32]")


def _build_scenarios():
    """Fresh deployments + closures for the two gated scenarios.

    Each arm gets its *own* deployments so sealed-state growth in one
    arm can never leak into the other's per-op cost.
    """
    from tests.conftest import build_deployment
    from repro.kvstore import get, put

    from benchmarks.bench_protocol_micro import _batched_invoke_round

    _, _, (alice, *_) = build_deployment()
    alice.invoke(put("k", "v" * 100))

    host, deployment, clients = build_deployment(clients=32)
    _batched_invoke_round(host, deployment, clients)  # warm caches

    return {
        "full_invoke_round_trip": lambda: alice.invoke(get("k")),
        "batched_invoke_sizes[32]": lambda: _batched_invoke_round(
            host, deployment, clients
        ),
    }


def _activate_observability_plane():
    """Make the plane as live as it ever gets, in this process.

    Returns the objects so they stay referenced (and so a stale import
    error on an old revision surfaces as a clean skip, not a crash).
    """
    from repro.kvstore import put
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracing import SpanTracer
    from repro.sharding import ShardRouter, ShardedCluster

    registry = MetricsRegistry()
    for index in range(64):
        registry.counter("guard.noise", lane=index % 8).inc()
        registry.histogram("guard.sizes").observe(index)
        registry.emit("guard.event", index=index)
    registry.register_collector(lambda reg: reg.gauge("guard.live").set(1))

    tracer = SpanTracer(enabled=True)
    open_spans = [
        tracer.start("operation", client_id=i, shard_id=0) for i in range(8)
    ]

    cluster = ShardedCluster(shards=2, clients=3, seed=5, tracing=True)
    router = ShardRouter(cluster)
    for client_id in cluster.client_ids:
        router.submit(client_id, put(f"ab-{client_id}", "v"))
    cluster.run()
    cluster.metrics()  # collectors fire at least once

    return registry, tracer, open_spans, cluster, router


def _time_chunk(fn, iterations: int) -> float:
    """Per-op seconds for one timed chunk."""
    start = time.perf_counter()
    for _ in range(iterations):
        fn()
    return (time.perf_counter() - start) / iterations


def _time_round(fn, iterations: int) -> float:
    """Best of two chunks — the repeatable floor, not the noise spikes."""
    return min(_time_chunk(fn, iterations), _time_chunk(fn, iterations))


ITERATIONS = {
    "full_invoke_round_trip": 150,
    "batched_invoke_sizes[32]": 20,
}

# ---------------------------------------------- sharded-round guards

ROUND_SCENARIO = "sharded_closed_loop_round"
ROUND_ITERATIONS = 3
#: documented bound for the tracing-on arm: opt-in instrumentation may
#: tax the run, but the tax must stay bounded (see module docstring)
TRACING_THRESHOLD = 1.60
#: bound for the streaming-verifier-on arm, set from PR 23's own
#: interleaved measurement of parent and change (three alternating runs
#: of this guard on each tree, 15 rounds per run): the parent's median
#: round ratio read 1.554 / 1.559 / 1.528, the change's 1.323 / 1.362 /
#: 1.344.  The bound sits midway, so the harvest cannot drift back to
#: its old cost unnoticed
VERIFIER_THRESHOLD = 1.45
ROUND_THRESHOLDS = {"tracing": TRACING_THRESHOLD, "verifier": VERIFIER_THRESHOLD}


def _build_round_arm(guard: str, enabled: bool):
    """A sharded closed-loop round with one plane on or off.

    ``tracing``: spans and stage probes, with ``streaming=False`` in
    both arms so the verifier stays out of the ratio.  ``verifier``:
    streaming verification, with ``audit=True`` in both arms so the
    ratio holds the harvest and the checker only.
    """
    from repro.kvstore import get, put
    from repro.sharding import ShardRouter, ShardedCluster

    if guard == "verifier":
        plane = {"audit": True, "streaming": enabled}
    else:
        plane = {"streaming": False, "tracing": enabled}
    cluster = ShardedCluster(shards=2, clients=4, seed=11, **plane)
    router = ShardRouter(cluster)
    keys = [f"guard-{index}" for index in range(8)]

    def round_fn() -> None:
        for client_id in cluster.client_ids:
            for key in keys:
                router.submit(client_id, put(key, "v"))
                router.submit(client_id, get(key))
        cluster.run()

    round_fn()  # warm: provision channels, seal caches, first batches
    return round_fn


def run_interleaved_round(guard: str, *, rounds: int, warmup: int) -> dict:
    """ABBA-interleaved plane-on vs plane-off closed-loop rounds."""
    import gc

    arm_fns = {
        "on": _build_round_arm(guard, True),
        "off": _build_round_arm(guard, False),
    }
    timings = {"on": [], "off": []}
    ratios = []
    for round_number in range(warmup + rounds):
        order = ("on", "off") if round_number % 2 == 0 else ("off", "on")
        gc.collect()
        gc.disable()
        try:
            per_op = {
                arm: _time_round(arm_fns[arm], ROUND_ITERATIONS)
                for arm in order
            }
        finally:
            gc.enable()
        if round_number >= warmup:
            timings["on"].append(per_op["on"])
            timings["off"].append(per_op["off"])
            ratios.append(per_op["on"] / per_op["off"])
    return {"timings": timings, "ratios": ratios}


def run_arm(name: str, *, rounds: int, warmup: int) -> dict[str, list[float]]:
    """Time one arm in isolation (the stash-interleaved single-arm mode)."""
    if name == "on":
        _activate_observability_plane()
    scenarios = _build_scenarios()
    timings: dict[str, list[float]] = {key: [] for key in scenarios}
    for round_number in range(warmup + rounds):
        for key, fn in scenarios.items():
            per_op = _time_round(fn, ITERATIONS[key])
            if round_number >= warmup:
                timings[key].append(per_op)
    return timings


def run_interleaved(*, rounds: int, warmup: int) -> dict:
    """Both arms in one process; the per-round on/off ratio is the claim.

    Each round times both arms back to back (first-arm order alternates
    ABBA so neither arm systematically gets the colder cache), with GC
    paused so a collection landing inside one arm's chunk cannot fake a
    regression.  Box-speed drift *between* rounds divides out of every
    per-round ratio.
    """
    import gc

    plane = _activate_observability_plane()  # noqa: F841 — keep it alive
    arm_on = _build_scenarios()
    arm_off = _build_scenarios()
    timings = {
        "on": {key: [] for key in GATED_SCENARIOS},
        "off": {key: [] for key in GATED_SCENARIOS},
    }
    ratios = {key: [] for key in GATED_SCENARIOS}
    for round_number in range(warmup + rounds):
        order = ("on", "off") if round_number % 2 == 0 else ("off", "on")
        for key in GATED_SCENARIOS:
            gc.collect()
            gc.disable()
            try:
                per_op = {}
                for arm in order:
                    fn = (arm_on if arm == "on" else arm_off)[key]
                    per_op[arm] = _time_round(fn, ITERATIONS[key])
            finally:
                gc.enable()
            if round_number >= warmup:
                timings["on"][key].append(per_op["on"])
                timings["off"][key].append(per_op["off"])
                ratios[key].append(per_op["on"] / per_op["off"])
    return {"timings": timings, "ratios": ratios}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--rounds", type=int, default=15,
        help="timed rounds per arm (default 15; per-round ratios on a "
        "shared box swing tens of percent, and the median needs that "
        "many samples to hold a 1.05x bound; odd counts avoid "
        "interpolation)",
    )
    parser.add_argument(
        "--warmup", type=int, default=2,
        help="untimed warmup rounds before measurement (default 2)",
    )
    parser.add_argument(
        "--threshold", type=float, default=None,
        help="fail when median(on)/median(off) exceeds this (default "
        "1.05 for --guard hotpath — the within-noise bound — "
        f"{TRACING_THRESHOLD} for --guard tracing, the documented "
        f"bounded-tax ceiling, and {VERIFIER_THRESHOLD} for --guard "
        "verifier)",
    )
    parser.add_argument(
        "--guard", choices=("hotpath", "tracing", "verifier"),
        default="hotpath",
        help="hotpath: registry-free invoke path with the plane merely "
        "alive in-process (gated-instrumentation guard); tracing: "
        "sharded closed-loop round with tracing ON vs OFF "
        "(bounded-overhead guard for the opt-in plane); verifier: the "
        "same round, audit on in both arms, streaming verification ON "
        "vs OFF (the harvest must stay O(new evidence))",
    )
    parser.add_argument(
        "--arm", choices=("on", "off"), default=None,
        help="time a single arm and print its medians as JSON — the "
        "stash-interleaved mode for comparing against older revisions "
        "(--guard hotpath only)",
    )
    parser.add_argument(
        "--output", default=None,
        help="also write the result document to this JSON file",
    )
    args = parser.parse_args()
    if args.threshold is None:
        args.threshold = ROUND_THRESHOLDS.get(args.guard, 1.05)

    if args.guard in ROUND_THRESHOLDS:
        if args.arm is not None:
            parser.error("--arm only applies to --guard hotpath")
        scenario = ROUND_SCENARIO
        result = run_interleaved_round(
            args.guard, rounds=args.rounds, warmup=args.warmup
        )
        median_on = statistics.median(result["timings"]["on"])
        median_off = statistics.median(result["timings"]["off"])
        ratio = statistics.median(result["ratios"])
        document = {
            "guard": args.guard,
            "threshold": args.threshold,
            "rounds": args.rounds,
            "scenarios": {
                scenario: {
                    "median_on_us": round(median_on * 1e6, 2),
                    "median_off_us": round(median_off * 1e6, 2),
                    "median_round_ratio": round(ratio, 4),
                    "round_ratios": [
                        round(value, 4) for value in result["ratios"]
                    ],
                },
            },
        }
        verdict = "ok" if ratio <= args.threshold else "FAILED"
        print(
            f"  {scenario}: on={median_on * 1e6:.2f}us "
            f"off={median_off * 1e6:.2f}us "
            f"median round ratio={ratio:.3f}x [{verdict}]"
        )
        if args.output:
            pathlib.Path(args.output).write_text(
                json.dumps(document, indent=2, sort_keys=True) + "\n"
            )
        if ratio > args.threshold:
            print(
                f"AB GUARD FAILED: {args.guard}-on overhead {ratio:.3f}x beyond "
                f"the documented {args.threshold:.2f}x bound"
            )
            raise SystemExit(1)
        print(
            f"ab guard ok: {args.guard} overhead bounded "
            f"(<= {args.threshold:.2f}x median round ratio)"
        )
        return

    if args.arm is not None:
        timings = run_arm(args.arm, rounds=args.rounds, warmup=args.warmup)
        document = {
            "arm": args.arm,
            "median_us": {
                key: round(statistics.median(values) * 1e6, 2)
                for key, values in timings.items()
            },
            "rounds": args.rounds,
        }
        print(json.dumps(document, indent=2, sort_keys=True))
        if args.output:
            pathlib.Path(args.output).write_text(
                json.dumps(document, indent=2, sort_keys=True) + "\n"
            )
        return

    result = run_interleaved(rounds=args.rounds, warmup=args.warmup)
    timings, ratios = result["timings"], result["ratios"]
    document = {"threshold": args.threshold, "rounds": args.rounds, "scenarios": {}}
    failed = []
    for key in GATED_SCENARIOS:
        median_on = statistics.median(timings["on"][key])
        median_off = statistics.median(timings["off"][key])
        ratio = statistics.median(ratios[key])
        document["scenarios"][key] = {
            "median_on_us": round(median_on * 1e6, 2),
            "median_off_us": round(median_off * 1e6, 2),
            "median_round_ratio": round(ratio, 4),
            "round_ratios": [round(value, 4) for value in ratios[key]],
        }
        verdict = "ok" if ratio <= args.threshold else "FAILED"
        print(
            f"  {key}: on={median_on * 1e6:.2f}us off={median_off * 1e6:.2f}us "
            f"median round ratio={ratio:.3f}x [{verdict}]"
        )
        if ratio > args.threshold:
            failed.append((key, ratio))
    if args.output:
        pathlib.Path(args.output).write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n"
        )
    if failed:
        print(
            f"AB GUARD FAILED: metrics-on overhead beyond "
            f"{args.threshold:.2f}x on: "
            + ", ".join(f"{key} ({ratio:.3f}x)" for key, ratio in failed)
        )
        raise SystemExit(1)
    print(
        f"ab guard ok: metrics-off overhead within noise "
        f"(<= {args.threshold:.2f}x median ratio) on both gated scenarios"
    )


if __name__ == "__main__":
    main()
