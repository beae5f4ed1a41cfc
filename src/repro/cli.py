"""Command-line interface for the LCM reproduction.

Subcommands::

    python -m repro.cli figures [--only fig4|fig5|fig6|sec62|sec63|sec65]
        Regenerate the paper's tables/figures and print paper-vs-measured.

    python -m repro.cli demo
        Run the quickstart flow (bootstrap, operate, reboot, stability).

    python -m repro.cli attack [--kind rollback|fork|replay]
        Mount an attack against LCM and show the detection.

    python -m repro.cli cluster [--clients N] [--ops N]
        Run the real protocol over the simulated network and verify
        fork-linearizability of the resulting execution.

    python -m repro.cli shard [--shards N] [--clients N] [--ops N]
                              [--distribution uniform|zipfian]
        Run a YCSB mix across N sharded LCM groups (with a mid-run
        migration-driven rebalance unless --no-rebalance) and verify
        every shard's execution; zipfian mixes also report per-shard
        load skew.

    python -m repro.cli elastic [--clients N] [--ops N]
        Drive a YCSB-A trace through a live cluster while the control
        plane splits the ring, merges it back, crashes a shard and
        recovers it — then verify the merged evidence across every
        generation.

    python -m repro.cli frontier [--shards N ...] [--duration S]
                                 [--seeds N] [--output FILE] [--quick]
        Map the open-loop latency–throughput frontier: Poisson arrivals
        at a ladder of offered rates per shard count, per-cell
        p50/p95/p99, queue and skew gauges, saturation detection, and
        each shard count's saturation throughput.  --quick runs a tiny
        sweep and asserts monotone achieved throughput plus zero
        violations below saturation (the CI smoke).

    python -m repro.cli txn [--shards N] [--clients N] [--ops N]
                            [--txn-fraction F] [--no-faults]
        Run a transactional YCSB mix where multi-key requests commit
        atomically across shards through the router's 2PC coordinator,
        inject the crash-at-prepare and crash-after-decision fault
        windows, and verify per-shard fork-linearizability plus
        cross-shard transaction atomicity.

    python -m repro.cli metrics [--shards N] [--clients N] [--ops N]
                                [--tracing] [--output FILE]
        Run a short sharded workload with the observability plane on
        (streaming verifier included) and dump the cluster's metrics
        snapshot — counters, gauges, histogram summaries, events and,
        with --tracing, finished spans — as JSON.
"""

from __future__ import annotations

import argparse
import sys


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.harness import experiments as exp
    from repro.harness.report import render_series_table, summarize_bands

    registry = {
        "fig4": (exp.run_fig4_object_size, "object_size"),
        "fig5": (exp.run_fig5_clients_async, "clients"),
        "fig6": (exp.run_fig6_clients_sync, "clients"),
        "sec62": (exp.run_sec62_enclave_memory, "objects"),
        "sec63": (exp.run_sec63_message_overhead, "object_size"),
        "sec65": (exp.run_sec65_tmc_comparison, "clients"),
    }
    selected = [args.only] if args.only else list(registry)
    for name in selected:
        runner, x_key = registry[name]
        kwargs = {}
        if name in ("fig4", "fig5", "fig6", "sec65") and args.duration:
            kwargs["duration"] = args.duration
        result = runner(**kwargs)
        print(render_series_table(result, x_key=x_key))
        print(summarize_bands(result))
        print()
    return 0


def _cmd_demo(_args: argparse.Namespace) -> int:
    from repro.crypto.attestation import EpidGroup
    from repro.core import Admin, make_lcm_program_factory
    from repro.kvstore import KvsFunctionality, get, put
    from repro.server import ServerHost
    from repro.tee import TeePlatform

    group = EpidGroup()
    platform = TeePlatform(group)
    factory = make_lcm_program_factory(KvsFunctionality)
    host = ServerHost(platform, factory)
    admin = Admin(group.verifier(), TeePlatform.expected_measurement(factory))
    deployment = admin.bootstrap(host, client_ids=[1, 2, 3])
    alice, bob, carol = deployment.make_all_clients(host)
    print("bootstrapped; clients:", deployment.client_ids)
    target = alice.invoke(put("greeting", "hello")).sequence
    print("alice PUT greeting=hello ->", target)
    print("bob GET greeting ->", bob.invoke(get("greeting")).result)
    host.reboot()
    print("server rebooted; carol GET greeting ->",
          carol.invoke(get("greeting")).result)
    for _ in range(2):
        for client in (alice, bob, carol):
            client.poll_stability()
    alice.poll_stability()
    print("alice's PUT is majority-stable:", alice.is_stable(target))
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    from repro.crypto.attestation import EpidGroup
    from repro.core import Admin, make_lcm_program_factory
    from repro.errors import SecurityViolation
    from repro.kvstore import KvsFunctionality, get, put
    from repro.server import MaliciousServer
    from repro.tee import TeePlatform

    group = EpidGroup()
    platform = TeePlatform(group)
    factory = make_lcm_program_factory(KvsFunctionality)
    server = MaliciousServer(platform, factory)
    admin = Admin(group.verifier(), TeePlatform.expected_measurement(factory))
    deployment = admin.bootstrap(server, client_ids=[1, 2])
    alice, bob = deployment.make_all_clients(server)
    alice.invoke(put("k", "v1"))
    alice.invoke(put("k", "v2"))

    try:
        if args.kind == "rollback":
            server.rollback(server.storage.version_count() - 2)
            alice.invoke(get("k"))
        elif args.kind == "fork":
            fork = server.fork()
            server.route_client(2, fork)
            bob.invoke(put("k", "fork-side"))
            server.route_client(2, 0)
            bob.invoke(get("k"))
        else:  # replay
            server.replay_last_invoke(1)
    except SecurityViolation as violation:
        print(f"DETECTED {type(violation).__name__}: {violation}")
        return 0
    print("attack went undetected — this would be a bug")
    return 1


def _cmd_cluster(args: argparse.Namespace) -> int:
    from repro.kvstore import get, put
    from repro.sharding import ShardRouter, ShardedCluster

    cluster = ShardedCluster(shards=1, clients=args.clients, seed=args.seed)
    router = ShardRouter(cluster)
    for client_id in range(1, args.clients + 1):
        for round_number in range(args.ops):
            if round_number % 2 == 0:
                router.submit(client_id, put(f"key-{round_number}", str(client_id)))
            else:
                router.submit(client_id, get(f"key-{round_number - 1}"))
    cluster.run()
    router.check_fork_linearizable()
    stats = cluster.stats
    print(
        f"{stats.operations_completed} operations across "
        f"{args.clients} clients in {stats.per_shard_batches[0]} batches "
        f"(mean batch size {stats.mean_batch_size(0):.1f}); "
        "execution verified fork-linearizable"
    )
    return 0


def _cmd_shard(args: argparse.Namespace) -> int:
    from repro.harness.experiments import run_shard_scaling

    if args.shards < 1 or args.clients < 1 or args.ops < 1:
        print("shard: --shards, --clients and --ops must all be >= 1")
        return 2
    result = run_shard_scaling(
        shard_counts=[1, args.shards] if args.shards > 1 else [1],
        clients=args.clients,
        requests_per_client=args.ops,
        rebalance=args.rebalance,
        distribution=args.distribution,
        seed=args.seed,
    )
    for shards, rate, moved, violations, skew in zip(
        result.series["shards"],
        result.series["ops_per_second"],
        result.series["rebalances"],
        result.series["violations"],
        result.series["load_skew"],
    ):
        note = f" ({moved} rebalance)" if moved else ""
        if shards > 1:
            note += f" [load skew {skew:.2f}x]"
        if violations:
            note += f" [{violations} VIOLATION(S)]"
        print(f"{shards} shard(s): {rate:,.0f} ops/s simulated{note}")
    speedup = result.ratios["speedup_at_max"]
    if not result.ratios["zero_violations"]:
        print(
            f"aggregate speedup at {result.series['shards'][-1]} shards: "
            f"{speedup:.2f}x; CONSISTENCY VIOLATIONS DETECTED (see above)"
        )
        return 1
    print(
        f"aggregate speedup at {result.series['shards'][-1]} shards: "
        f"{speedup:.2f}x; all shards verified fork-linearizable"
    )
    return 0


def _cmd_elastic(args: argparse.Namespace) -> int:
    from repro.harness.experiments import run_elastic_scaling

    if args.clients < 1 or args.ops < 1:
        print("elastic: --clients and --ops must be >= 1")
        return 2
    result = run_elastic_scaling(
        clients=args.clients,
        requests_per_client=args.ops,
        seed=args.seed,
    )
    labels = {"add": "split", "remove": "merge", "recover": "recover"}
    for kind, shard_id, ok, at, moved in zip(
        result.series["event"],
        result.series["event_shard"],
        result.series["event_ok"],
        result.series["event_completed_at"],
        result.series["event_keys_moved"],
    ):
        note = f", {moved} keys handed off" if moved else ""
        status = f"completed at {at * 1e3:.2f} ms" if ok else "ABORTED"
        print(f"{labels.get(kind, kind)} shard {shard_id}: {status}{note}")
    ratios = result.ratios
    print(
        f"{ratios['requests_completed']} requests completed "
        f"({ratios['ops_per_second']:,.0f} ops/s simulated); "
        f"{ratios['operations_parked']} parked during outages, "
        f"{ratios['operations_replayed']} replayed"
    )
    if not ratios["zero_violations"] or not ratios["all_requests_completed"]:
        print("ELASTIC RUN FAILED: violations or lost requests (see above)")
        return 1
    print(
        "all generations verified fork-linearizable "
        "(evidence spans the split, the merge and the recovery)"
    )
    return 0


def _cmd_frontier(args: argparse.Namespace) -> int:
    from repro.harness.frontier import (
        SATURATION_SHORTFALL,
        run_frontier,
        shard_capacity,
    )

    if args.quick:
        shard_counts: tuple[int, ...] = (2,)
        rates = [shard_capacity(2) * f for f in (0.5, 0.9, 1.3)]
        duration = 0.04
        seeds: tuple[int, ...] = (args.seed,)
    else:
        shard_counts = tuple(args.shards)
        rates = None  # per-shard-count default ladder
        duration = args.duration
        seeds = tuple(range(args.seed, args.seed + args.seeds))
    result = run_frontier(
        shard_counts=shard_counts,
        rates=rates,
        seeds=seeds,
        duration=duration,
    )
    print(
        f"{'shards':>6} {'offered/s':>10} {'achieved/s':>10} "
        f"{'p50us':>8} {'p95us':>8} {'p99us':>9} {'qpeak':>5} "
        f"{'skew':>5} {'sat':>4}"
    )
    for cell in result.cells:
        print(
            f"{cell.shards:>6} "
            f"{cell.offered_rate:>10,.0f} {cell.achieved_tps:>10,.0f} "
            f"{cell.p50 * 1e6:>8.1f} {cell.p95 * 1e6:>8.1f} "
            f"{cell.p99 * 1e6:>9.1f} {cell.queue_depth_peak:>5} "
            f"{cell.load_skew:>5.2f} {'yes' if cell.saturated else 'no':>4}"
        )
    failures = []
    below = [c for c in result.cells if not c.saturated]
    violated = [c for c in below if c.violations]
    if violated:
        failures.append(
            f"{len(violated)} below-saturation cell(s) recorded violations"
        )
    for shards, tps in sorted(result.saturation.items()):
        print(
            f"saturation @ {shards} shard(s) = {tps:,.0f} "
            f"ops/s (nominal capacity {shard_capacity(shards):,.0f})"
        )
    if args.quick:
        # CI smoke: below the knee, offering more must achieve more
        by_shards: dict = {}
        for cell in result.cells:
            by_shards.setdefault(cell.shards, []).append(cell)
        for shards, cells in sorted(by_shards.items()):
            cells.sort(key=lambda c: c.offered_rate)
            achieved = [
                c.achieved_tps for c in cells
                if not c.saturated
                and c.achieved_tps >= SATURATION_SHORTFALL * c.offered_rate
            ]
            if any(b < a for a, b in zip(achieved, achieved[1:])):
                failures.append(
                    f"achieved throughput not monotone below saturation "
                    f"@ {shards} shard(s): {achieved}"
                )
    if args.output:
        result.dump(args.output)
        print(f"frontier matrix written to {args.output} "
              f"({len(result.cells)} cells)")
    if failures:
        for failure in failures:
            print(f"FRONTIER FAILED: {failure}")
        return 1
    return 0


def _cmd_txn(args: argparse.Namespace) -> int:
    from repro.harness.experiments import run_cross_shard

    if args.shards < 2 or args.clients < 1 or args.ops < 1:
        print("txn: --shards must be >= 2, --clients and --ops >= 1")
        return 2
    result = run_cross_shard(
        shards=args.shards,
        clients=args.clients,
        requests_per_client=args.ops,
        txn_fraction=args.txn_fraction,
        faults=args.faults,
        group_commit=args.group_commit,
        seed=args.seed,
    )
    ratios = result.ratios
    for kind, shard_id in zip(result.series["fault"], result.series["fault_shard"]):
        print(f"injected {kind} on shard {shard_id} (recovered)")
    print(
        f"{ratios['requests_completed']} requests completed "
        f"({ratios['ops_per_second']:,.0f} ops/s simulated); "
        f"{ratios['transactions_committed']} transactions committed across "
        f"up to {ratios['max_participants']} shards, "
        f"{ratios['conflict_retries']} conflict-aborts retried, "
        f"{ratios['lock_retries']} locked single-key reads retried"
    )
    if (
        not ratios["zero_violations"]
        or not ratios["all_requests_completed"]
        or not ratios["spans_multiple_shards"]
    ):
        print("CROSS-SHARD RUN FAILED: violations, lost requests or no "
              "multi-shard transaction (see above)")
        return 1
    print(
        "all shards fork-linearizable and every decided transaction "
        "atomic across shard histories "
        f"({ratios['cross_shard_txns']} cross-shard transactions checked)"
    )
    return 0


def _cmd_group_commit(args: argparse.Namespace) -> int:
    from repro.harness.experiments import run_group_commit

    if min(args.shards) < 2 or args.clients < 1 or args.txns < 1:
        print("groupcommit: --shards must all be >= 2, --clients and "
              "--txns >= 1")
        return 2
    result = run_group_commit(
        shard_counts=tuple(args.shards),
        clients=args.clients,
        txns_per_client=args.txns,
        pipeline_depth=args.depth,
        seed=args.seed,
    )
    series = result.series
    for index, count in enumerate(series["shards"]):
        print(
            f"{count} shards: {series['txns_per_second'][index]:,.0f} txn/s "
            f"simulated ({series['committed'][index]} committed, "
            f"{series['aborted'][index]} wound-wait aborts, "
            f"{series['group_flushes'][index]} merged flushes carrying "
            f"{series['group_entries'][index]} lifecycle entries)"
        )
    ratios = result.ratios
    if not (
        ratios["zero_violations"]
        and ratios["throughput_scales_with_shards"]
        and ratios["group_flushes_everywhere"]
    ):
        print("GROUP-COMMIT RUN FAILED: violations, flat scaling or no "
              "merged flushes (see above)")
        return 1
    print(
        f"throughput scaled {ratios['scaling_factor']:.2f}x from "
        f"{series['shards'][0]} to {series['shards'][-1]} shards; "
        "all verdicts clean, streaming parity holds"
    )
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json
    import random

    from repro.kvstore import get, put
    from repro.obs.export import CallbackSink, JsonlSink, reconcile_stream
    from repro.sharding import ShardRouter, ShardedCluster

    if args.shards < 1 or args.clients < 1 or args.ops < 1:
        print("metrics: --shards, --clients and --ops must all be >= 1")
        return 2
    export = None
    if args.follow:
        # push-based telemetry: batch-boundary flushes go to a JSONL file
        # (reconciled against the final snapshot below) or straight to
        # stdout as one JSON record per line
        if args.output:
            export = JsonlSink(args.output)
        else:
            export = CallbackSink(
                lambda record: print(json.dumps(record, default=str))
            )
    cluster = ShardedCluster(
        shards=args.shards, clients=args.clients, seed=args.seed,
        tracing=args.tracing, export=export,
    )
    router = ShardRouter(cluster)
    rng = random.Random(args.seed)
    keyspace = [f"key-{i}" for i in range(max(8, args.clients * 2))]

    def start(client_id: int, remaining: int) -> None:
        def pump(_result=None) -> None:
            nonlocal remaining
            if remaining <= 0:
                return
            remaining -= 1
            key = rng.choice(keyspace)
            operation = (
                put(key, f"v{client_id}-{remaining}")
                if rng.random() < 0.5
                else get(key)
            )
            router.submit(client_id, operation, pump)

        pump()

    for client_id in cluster.client_ids:
        start(client_id, args.ops)
    cluster.run()
    verdict = router.streaming_verdict()
    snapshot = cluster.metrics()
    if args.tracing:
        snapshot["spans"] = [span.as_dict() for span in cluster.tracer.finished()]
    if cluster.exporter is not None:
        # terminal snapshot + close accounting ride the stream itself
        cluster.exporter.close(snapshot)
    if args.follow and args.output:
        with open(args.output, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle if line.strip()]
        problems = reconcile_stream(records, snapshot)
        if problems:
            for problem in problems:
                print(f"RECONCILE: {problem}", file=sys.stderr)
            return 1
        print(
            f"{len(records)} telemetry records streamed to {args.output}; "
            "stream reconciles exactly with the final snapshot"
        )
    elif not args.follow:
        rendered = json.dumps(snapshot, indent=2, default=str)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(rendered + "\n")
            print(f"metrics snapshot written to {args.output}")
        else:
            print(rendered)
    if not verdict.ok:
        print("STREAMING VERIFIER FLAGGED VIOLATIONS (see verifier.* events)",
              file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="LCM (DSN 2017) reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    figures = sub.add_parser("figures", help="regenerate the paper's figures")
    figures.add_argument("--only", choices=["fig4", "fig5", "fig6", "sec62", "sec63", "sec65"])
    figures.add_argument("--duration", type=float, default=None,
                         help="simulation window override (seconds)")
    figures.set_defaults(handler=_cmd_figures)

    demo = sub.add_parser("demo", help="run the quickstart flow")
    demo.set_defaults(handler=_cmd_demo)

    attack = sub.add_parser("attack", help="mount an attack and show detection")
    attack.add_argument("--kind", choices=["rollback", "fork", "replay"],
                        default="rollback")
    attack.set_defaults(handler=_cmd_attack)

    cluster = sub.add_parser("cluster", help="virtual-time protocol run + checker")
    cluster.add_argument("--clients", type=int, default=4)
    cluster.add_argument("--ops", type=int, default=6)
    cluster.add_argument("--seed", type=int, default=0)
    cluster.set_defaults(handler=_cmd_cluster)

    shard = sub.add_parser(
        "shard", help="sharded-group scaling run + per-shard checker"
    )
    shard.add_argument("--shards", type=int, default=4)
    shard.add_argument("--clients", type=int, default=24)
    shard.add_argument("--ops", type=int, default=16,
                       help="logical YCSB requests per client")
    shard.add_argument("--seed", type=int, default=0)
    shard.add_argument("--no-rebalance", dest="rebalance",
                       action="store_false",
                       help="skip the mid-run shard migration")
    shard.add_argument("--distribution", choices=["uniform", "zipfian"],
                       default="uniform",
                       help="request-key distribution (zipfian skews "
                       "per-shard load)")
    shard.set_defaults(handler=_cmd_shard)

    elastic = sub.add_parser(
        "elastic",
        help="split/merge/crash+recover a live cluster + merged checker",
    )
    elastic.add_argument("--clients", type=int, default=16)
    elastic.add_argument("--ops", type=int, default=40,
                         help="logical YCSB requests per client")
    elastic.add_argument("--seed", type=int, default=0)
    elastic.set_defaults(handler=_cmd_elastic)

    frontier = sub.add_parser(
        "frontier",
        help="open-loop latency-throughput frontier sweep",
    )
    frontier.add_argument("--shards", type=int, nargs="+", default=[1, 2, 4])
    frontier.add_argument("--duration", type=float, default=0.25,
                          help="virtual seconds of Poisson arrivals per cell")
    frontier.add_argument("--seeds", type=int, default=1,
                          help="seeds per (shards, rate) cell")
    frontier.add_argument("--seed", type=int, default=0,
                          help="first seed of the per-cell seed range")
    frontier.add_argument("--output", type=str, default=None,
                          help="write the full cell matrix as JSON")
    frontier.add_argument(
        "--quick", action="store_true",
        help="tiny CI smoke: 2-shard rate ladder, asserts monotone "
        "achieved throughput below saturation and zero violations",
    )
    frontier.set_defaults(handler=_cmd_frontier)

    txn = sub.add_parser(
        "txn",
        help="cross-shard atomic-commit run + merged transaction checker",
    )
    txn.add_argument("--shards", type=int, default=3)
    txn.add_argument("--clients", type=int, default=12)
    txn.add_argument("--ops", type=int, default=30,
                     help="logical requests per client")
    txn.add_argument("--txn-fraction", type=float, default=0.35,
                     help="fraction of requests run as multi-key transactions")
    txn.add_argument("--no-faults", dest="faults", action="store_false",
                     help="skip the crash-at-prepare / crash-after-decision "
                     "fault injection")
    txn.add_argument("--no-group-commit", dest="group_commit",
                     action="store_false",
                     help="send every lifecycle operation as its own "
                     "sealed ecall instead of merging per boundary")
    txn.add_argument("--seed", type=int, default=0)
    txn.set_defaults(handler=_cmd_txn)

    groupcommit = sub.add_parser(
        "groupcommit",
        help="transaction throughput vs. shard count under group commit",
    )
    groupcommit.add_argument("--shards", type=int, nargs="+", default=[2, 4])
    groupcommit.add_argument("--clients", type=int, default=8)
    groupcommit.add_argument("--txns", type=int, default=30,
                             help="transactions per client")
    groupcommit.add_argument("--depth", type=int, default=4,
                             help="transactions each client keeps in flight")
    groupcommit.add_argument("--seed", type=int, default=7)
    groupcommit.set_defaults(handler=_cmd_group_commit)

    metrics = sub.add_parser(
        "metrics",
        help="run a sharded workload and export the metrics snapshot as JSON",
    )
    metrics.add_argument("--shards", type=int, default=2)
    metrics.add_argument("--clients", type=int, default=8)
    metrics.add_argument("--ops", type=int, default=20,
                         help="operations per client")
    metrics.add_argument("--seed", type=int, default=0)
    metrics.add_argument("--tracing", action="store_true",
                         help="also record per-request spans and include "
                         "them in the snapshot")
    metrics.add_argument("--output", default=None,
                         help="write the JSON snapshot to a file instead "
                         "of stdout (with --follow: the JSONL stream "
                         "destination)")
    metrics.add_argument("--follow", action="store_true",
                         help="stream telemetry records (events + counter "
                         "deltas) at every batch boundary instead of only "
                         "printing the final snapshot; with --output FILE "
                         "the JSONL stream is re-read and reconciled "
                         "against the final snapshot")
    metrics.set_defaults(handler=_cmd_metrics)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
