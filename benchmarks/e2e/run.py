"""End-to-end benchmark of the sharded LCM cluster: six workloads, host-time
and virtual-time metrics, and a traced per-layer budget.

Three ways to call it (all from the repository root; ``src/`` is put on the
path here, no ``PYTHONPATH`` needed):

``run.py --workload W --seed N --seconds S --trace 0|1``
    One workload, the form ``BENCHMARK.json`` names.  Prints the human
    table and, as the last line, one JSON object ``{"correct", "attempted",
    "failed", "metrics"}`` -- end-to-end metrics for ``--trace 0``,
    per-layer metrics for ``--trace 1``.

``run.py [--seed N] [--seconds S] [--quick] [--output FILE]``
    Every workload, child processes interleaved round-robin, then one
    traced run each; prints every metric by name with its unit and writes
    the full record (host, seed, version, parameters, quartiles) to FILE.
    Exits non-zero when a correctness check fails (``--no-check`` to only
    report).

``run.py --compare A.json B.json``
    Per workload x end-to-end metric: both medians with quartiles, the
    ratio with its base, and a verdict.

``run.py --spec`` prints ``BENCHMARK.json`` from the metric tables.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src"
)
if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"run.py: no program to measure: {SRC}/repro is missing")
sys.path.insert(0, SRC)

import layers  # noqa: E402  (these need src/ on the path)
import measure  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: what ``BENCHMARK.json`` lists as end-to-end: the metrics every workload
#: defines and that are never 0.  The workload-specific ones (and
#: ``failed_share``, 0 at HEAD) are reported with the traced run instead.
DRIVER_END_TO_END = (
    "wall_ops_per_s", "setup_s", "peak_rss_mb",
    "virt_ops_per_s", "virt_p50_us", "virt_p99_us",
)
DRIVER_EXTRA = tuple(
    metric for metric in layers.END_TO_END if metric not in DRIVER_END_TO_END
)
#: ``BENCHMARK.json`` bounds.  Wider than the one-seed bounds of
#: ``layers.END_TO_END``: the driver runs another seed each time, on a
#: shared box (README, "Machine speed" and "End-to-end metrics").
DRIVER_BOUNDS = {
    "wall_ops_per_s": 0.25, "setup_s": 0.25, "peak_rss_mb": 0.10,
    "virt_ops_per_s": 0.10, "virt_p50_us": 0.25, "virt_p99_us": 0.20,
}
RUN_SECONDS = 12


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS),
                        help="measuring time per workload (all its processes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="every workload at ~1/20 size, one repetition, traced")
    parser.add_argument("--output", help="write the full record here")
    parser.add_argument("--check", dest="check", action="store_true", default=True)
    parser.add_argument("--no-check", dest="check", action="store_false")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--spec", action="store_true", help="print BENCHMARK.json")
    # internal: one workload in this process (see measure.child)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--once", type=int, default=1, help=argparse.SUPPRESS)
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    parser.add_argument("--started", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--build-s", type=float, default=0.0, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------- printing


def print_workload(name: str, record: dict) -> None:
    print(f"\n== {name}: {WORKLOADS[name].why}")
    for metric, entry in record.get("end_to_end", {}).items():
        spread = (
            f"  [q1 {entry['q1']:.6g}  q3 {entry['q3']:.6g}]" if "q1" in entry else ""
        )
        print(f"  {metric:<38}{entry['value']:>14.6g} {entry['unit']:<6}"
              f" n={entry['n']}{spread}")
    if "samples" in record:
        print(f"  latency samples behind virt_p50_us/virt_p99_us: {record['samples']}")
        print(f"  attempted {record['attempted']}  failed {record['failed']}")
    per_layer = record.get("per_layer")
    if per_layer:
        for metric, (unit, _) in layers.PER_LAYER.items():
            print(f"  {metric:<38}{per_layer[metric]:>14.6g} {unit}")
        print(layers.budget_table(per_layer))
    for problem in record["problems"]:
        print(f"  CHECK FAILED: {problem}")


# ------------------------------------------------------------ driver form


def run_one(args: argparse.Namespace) -> int:
    """One workload, printed as the contract's result line."""
    build_s, _ = measure.build_fastpath()
    name, trace = args.workload, bool(args.trace)
    scale = measure.QUICK_SCALE if args.quick else 1.0
    if trace:
        children = []
        traced = measure.spawn(name, args.seed, 0.0, True, True, scale, build_s)
    else:
        share = args.seconds / measure.PROCESSES
        # the once-per-process pass reports virtual metrics (and the
        # audit); one child's is enough to stay inside the run budget
        children = [
            measure.spawn(name, args.seed, share, False, index == 0, scale, build_s)
            for index in range(measure.PROCESSES)
        ]
        traced = None
    record = measure.combine(name, children, traced)
    print_workload(name, record)
    if trace:
        first = traced["reps"][0]
        values = dict(record["per_layer"])
        for metric in DRIVER_EXTRA:
            values[metric] = first["metrics"].get(metric, 0.0)
        units = {m: unit for m, (unit, _) in layers.PER_LAYER.items()}
        units.update({m: layers.END_TO_END[m][0] for m in DRIVER_EXTRA})
        metrics = {m: {"value": values[m], "unit": units[m]} for m in values}
        attempted, failed = record["traced"]["attempted"], record["traced"]["failed"]
    else:
        metrics = {
            m: {"value": record["end_to_end"][m]["value"],
                "unit": layers.END_TO_END[m][0]}
            for m in DRIVER_END_TO_END
        }
        attempted, failed = record["attempted"], record["failed"]
    print(json.dumps({
        "correct": not record["problems"] and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


# -------------------------------------------------------------- full form


def run_all(args: argparse.Namespace) -> int:
    """Every workload: interleaved untraced children, then traced ones."""
    build_s, fastpath = measure.build_fastpath()
    scale = measure.QUICK_SCALE if args.quick else 1.0
    # --quick: the traced process's one untraced repetition stands in for
    # the untraced processes
    processes = 0 if args.quick else measure.PROCESSES
    share = args.seconds / measure.PROCESSES
    children: dict[str, list] = {name: [] for name in WORKLOADS}
    for _ in range(processes):
        # round-robin, so a slow minute on a shared box hits all alike
        for name in WORKLOADS:
            children[name].append(
                measure.spawn(name, args.seed, share, False, True, scale, build_s)
            )
    record = {
        "benchmark_version": measure.BENCHMARK_VERSION,
        "seed": args.seed,
        "scale": scale,
        "seconds": args.seconds,
        "host": measure.host_info(fastpath),
        "metric_defs": {
            "end_to_end": {
                m: {"unit": unit, "better": better, "bound": bound}
                for m, (unit, better, bound) in layers.END_TO_END.items()
            },
            "per_layer": {
                m: {"unit": unit, "better": better}
                for m, (unit, better) in layers.PER_LAYER.items()
            },
        },
        "workloads": {},
    }
    failed = False
    for name, workload in WORKLOADS.items():
        traced = measure.spawn(name, args.seed, 0.0, True, True, scale, build_s)
        entry = measure.combine(name, children[name] or [traced], traced)
        entry = {"why": workload.why, "params": workload.params, **entry}
        record["workloads"][name] = entry
        print_workload(name, entry)
        failed = failed or bool(entry["problems"]) or entry["failed"] > 0
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
            handle.write("\n")
        print(f"\nrecord written to {args.output}")
    if failed:
        print("\nFAILED: see CHECK FAILED lines above")
    return 1 if failed and args.check else 0


# ---------------------------------------------------------------- compare


def spread(entry: dict) -> float:
    return (entry.get("q3", entry["value"]) - entry.get("q1", entry["value"])) / (
        abs(entry["value"]) or 1.0
    )


def verdict(metric: str, base: dict, other: dict) -> str:
    _, better, bound = layers.END_TO_END[metric]
    if base["value"] == other["value"]:
        return "same"
    improved = (other["value"] > base["value"]) == (better == "higher")
    if bound is not None and max(spread(base), spread(other)) > bound:
        # too noisy to call, unless the two runs do not even overlap
        low, high = (base, other) if base["value"] < other["value"] else (other, base)
        if low.get("q3", low["value"]) >= high.get("q1", high["value"]):
            return "unresolved (spread exceeds bound)"
    if improved:
        return "better"
    change = abs(other["value"] - base["value"]) / (abs(base["value"]) or 1.0)
    if bound is not None and change <= bound:
        return f"within bound ({bound:.0%})"
    return "WORSE"


def show(entry: dict) -> str:
    if "q1" in entry:
        return f"{entry['value']:.6g} [{entry['q1']:.6g}, {entry['q3']:.6g}]"
    return f"{entry['value']:.6g}"


def compare(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as handle:
        a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        b = json.load(handle)
    for what, left, right in (
        ("benchmark version", a["benchmark_version"], b["benchmark_version"]),
        ("fastpath backend", a["host"]["fastpath"], b["host"]["fastpath"]),
        ("core count", a["host"]["nproc"], b["host"]["nproc"]),
        ("scale", a["scale"], b["scale"]),
    ):
        if left != right:
            print(f"refusing to compare: {what} differs ({left!r} vs {right!r})")
            return 2
    if a["seed"] != b["seed"]:
        print(f"note: seeds differ ({a['seed']} vs {b['seed']}); "
              "virtual metrics are only identical for one seed")
    worse = False
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None:
            print(f"\n== {name}: missing from B")
            continue
        print(f"\n== {name}")
        for metric, base in entry_a["end_to_end"].items():
            other = entry_b["end_to_end"][metric]
            result = verdict(metric, base, other)
            worse = worse or result == "WORSE"
            ratio = other["value"] / base["value"] if base["value"] else float("nan")
            print(f"  {metric:<22} A {show(base):<34} B {show(other):<34} "
                  f"B/A {ratio:.4f} (base {base['value']:.6g} {base['unit']})  {result}")
    return 1 if worse else 0


def spec() -> dict:
    """``BENCHMARK.json``: the command, the workloads and every metric."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": workload.why} for name, workload in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": m, "unit": layers.END_TO_END[m][0],
             "better": layers.END_TO_END[m][1], "bound": DRIVER_BOUNDS[m]}
            for m in DRIVER_END_TO_END
        ],
        "per_layer": [
            {"name": m, "unit": unit, "better": better}
            for m, (unit, better) in layers.PER_LAYER.items()
        ] + [
            {"name": m, "unit": layers.END_TO_END[m][0], "better": layers.END_TO_END[m][1]}
            for m in DRIVER_EXTRA
        ],
    }


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.spec:
        print(json.dumps(spec(), indent=1))
        return 0
    if args.compare:
        return compare(*args.compare)
    if args.child:
        result = measure.child(
            args.workload, args.seed, args.seconds, bool(args.trace),
            bool(args.once), args.scale, args.started, args.build_s,
        )
        print(json.dumps(result))
        return 0
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
