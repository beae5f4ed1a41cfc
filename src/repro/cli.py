"""Command-line interface for the LCM reproduction.

Subcommands::

    python -m repro.cli run [NAME ...] [--set KEY=VALUE ...] [--output FILE]
        Run experiments by name (fig4 fig5 fig6 sec62 sec63 sec65
        shard_scaling elastic_scaling cross_shard group_commit frontier;
        no name runs the paper's six) and print each one's series table
        and paper-vs-measured summary.  Each --set value (a Python
        literal, else a string) is passed to every named experiment as a
        keyword argument.  --output writes every result as JSON, keyed
        by experiment id; shard_scaling, elastic_scaling and cross_shard
        put the cluster's metrics snapshot in its ``metrics`` field, and
        ``--set tracing=True`` adds every finished span to it.  Exits 1
        when a boolean expectation diverges — the cluster experiments'
        zero violations, completed requests and streaming parity among
        them — and 2 on bad input.

    python -m repro.cli demo
        Run the quickstart flow (bootstrap, operate, reboot, stability).

    python -m repro.cli attack [--kind rollback|fork|replay]
        Mount an attack against LCM and show the detection.
"""

from __future__ import annotations

import argparse
import ast
import inspect
import sys


def _setting(text: str) -> tuple[str, object]:
    """``KEY=VALUE`` -> ``(KEY, value)``: a Python literal, else the raw
    string (so ``distribution=zipfian`` needs no quotes)."""
    key, sep, raw = text.partition("=")
    if not key or not sep:
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {text!r}")
    try:
        return key, ast.literal_eval(raw)
    except (ValueError, SyntaxError):
        return key, raw


def _cmd_run(args: argparse.Namespace) -> int:
    import dataclasses
    import json

    from repro.errors import ConfigurationError
    from repro.harness import report
    from repro.harness.experiments import EXPERIMENTS, PAPER_EXPERIMENTS

    names = args.names or PAPER_EXPERIMENTS
    settings = dict(args.settings)
    for name in names:
        if name not in EXPERIMENTS:
            print(f"run: unknown experiment {name!r} "
                  f"(choose from {', '.join(EXPERIMENTS)})", file=sys.stderr)
            return 2
        unknown = settings.keys() - inspect.signature(EXPERIMENTS[name]).parameters
        if unknown:
            print(f"run: {name} takes no {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            return 2
    failed = []
    results = {}
    for name in names:
        try:
            result = EXPERIMENTS[name](**settings)
        except (ValueError, ConfigurationError) as error:
            print(f"run: {name}: {error}", file=sys.stderr)
            return 2
        print(report.render_series_table(result))
        print(report.summarize_bands(result))
        print()
        failed += [f"{name}.{gate}" for gate in report.failed_gates(result)]
        results[name] = dataclasses.asdict(result)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=2, default=str)
            handle.write("\n")
    for gate in failed:
        print(f"DIVERGES: {gate}")
    return 1 if failed else 0


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="LCM (DSN 2017) reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run experiments by name and check their expectations"
    )
    run.add_argument("names", nargs="*", metavar="NAME",
                     help="experiment ids (default: the paper's six)")
    run.add_argument("--set", dest="settings", nargs="+", action="extend",
                     type=_setting, default=[], metavar="KEY=VALUE",
                     help="keyword argument for every named experiment")
    run.add_argument("--output", default=None, metavar="FILE",
                     help="write every result as JSON, keyed by "
                     "experiment id")
    run.set_defaults(handler=_cmd_run)

    demo = sub.add_parser("demo", help="run the quickstart flow")
    demo.set_defaults(handler=_cmd_demo)

    attack = sub.add_parser("attack", help="mount an attack and show detection")
    attack.add_argument("--kind", choices=["rollback", "fork", "replay"],
                        default="rollback")
    attack.set_defaults(handler=_cmd_attack)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
