"""The run protocol: workload subprocesses and how their numbers combine.

One *child* process runs one workload: imports, a short warm-up, then
measured repetitions of the fixed operation count until its share of the
time budget is spent (``--trace 1``: one untraced and one traced
repetition).  ``setup_s`` and ``peak_rss_mb`` are per child, so every
workload is measured in fresh processes -- at least :data:`PROCESSES` of
them, because whole processes differ by more than repetitions inside one.

The *parent* (:func:`spawn`, :func:`combine`) runs the children one at a time (load
comes from one process, ``nproc`` is 2), takes host-time metrics as the
median over all repetitions of all children, and requires the virtual
metrics and deterministic counts to be identical across them.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Any

import layers
import spans
from workloads import WORKLOADS, Instruments, Rep, derive_seed

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")
OUT = os.path.join(HERE, "out")

#: bumped whenever a workload, a metric definition or the protocol changes
BENCHMARK_VERSION = 1
PROCESSES = 3
#: warm-up size relative to the recorded size (a few hundred operations)
WARM_SCALE = 0.02
QUICK_SCALE = 0.05

#: host-time metrics: median over repetitions.  Everything else a
#: repetition reports is virtual or a count and must repeat exactly.
HOST_TIME = ("wall_ops_per_s", "audit_s")


# ------------------------------------------------------------------- child


def child(name: str, seed: int, seconds: float, trace: bool, once: bool,
          scale: float, started: float, fastpath_build_s: float) -> dict[str, Any]:
    """Run one workload in this process and return its raw results.
    ``once`` adds the workload's once-per-process pass (a long latency
    run, the post-mortem audit) after the repetitions."""
    workload = WORKLOADS[name]
    instruments = Instruments()
    meter = instruments.meter
    workload(derive_seed(name, "warm", seed), min(scale, WARM_SCALE), instruments)
    setup_speed = meter.speed()  # the warm-up's samples: the machine during set-up
    gc.collect()
    collections = _gc_collections()
    reps = []
    began = time.perf_counter()
    spent = 0.0
    # stop where the time spent is nearest the budget: another repetition
    # only if at least half of it still fits
    while not reps or (not trace and spent + 0.5 * spent / len(reps) < seconds):
        reps.append(workload(seed, scale, instruments))
        spent = time.perf_counter() - began
        if len(reps) == 1:
            # ru_maxrss is KiB on Linux.  Taken after one repetition, so
            # it does not depend on how many the time budget allowed
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_raw = reps[0].started_at - started  # up to the first measured request
    if once:
        workload.finish_process(seed, scale, instruments, reps[-1])
    result: dict[str, Any] = {
        "setup_s": setup_raw * setup_speed,
        "setup_s_raw": setup_raw,
        "peak_rss_mb": peak_rss_mb,
        "reps": [_rep_record(rep) for rep in reps],
    }
    if trace:
        collected = _gc_collections() - collections
        recorder = spans.Recorder()
        recorder.install()
        try:
            traced = workload(seed, scale, Instruments(meter, recorder))
        finally:
            recorder.uninstall()
        os.makedirs(OUT, exist_ok=True)
        recorder.dump(os.path.join(OUT, f"{name}.spans.jsonl"))
        result["traced"] = _rep_record(traced)
        result["per_layer"] = layers.layer_metrics(
            traced, recorder, untraced=reps[0],
            gc_collections=collected, fastpath_build_s=fastpath_build_s,
        )
    return result


def _gc_collections() -> int:
    return sum(generation["collections"] for generation in gc.get_stats())


def _rep_record(rep: Rep) -> dict[str, Any]:
    return {
        "attempted": rep.attempted,
        "failed": rep.failed,
        "samples": rep.samples,
        "metrics": rep.metrics,
        "counts": layers.count_metrics(rep),
        "problems": rep.problems,
    }


# ------------------------------------------------------------------ parent


def build_fastpath() -> tuple[float, str]:
    """Compile (or load) the C fastpath and native serde before anything
    is timed; returns the seconds it took and the backend that loaded."""
    started = time.perf_counter()
    output = subprocess.run(
        [sys.executable, "-c",
         "import repro._serde_native, repro.crypto.fastpath as f;"
         "print(f.active_backend().name)"],
        env=_child_env(), capture_output=True, text=True, timeout=850, check=True,
    ).stdout
    return time.perf_counter() - started, output.strip().splitlines()[-1]


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    # str hashes are salted per process; pin them so dict/set layouts (and
    # with them host time) do not differ between children for no reason
    env["PYTHONHASHSEED"] = "0"
    env.pop("REPRO_EXEC_BACKEND", None)  # the default backend is measured
    return env


def spawn(name: str, seed: int, seconds: float, trace: bool, once: bool,
          scale: float, fastpath_build_s: float) -> dict[str, Any]:
    """Run one child to completion and parse its result."""
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--child",
        "--workload", name, "--seed", str(seed), "--seconds", repr(seconds),
        "--trace", "1" if trace else "0", "--once", "1" if once else "0",
        "--scale", repr(scale),
        "--build-s", repr(fastpath_build_s), "--started", repr(time.time()),
    ]
    done = subprocess.run(
        command, env=_child_env(), capture_output=True, text=True, timeout=170
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"workload {name} child exited {done.returncode}:\n{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict[str, float]:
    """Median with quartiles and the sample count."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)
    }


def combine(name: str, children: list[dict], traced: dict | None) -> dict[str, Any]:
    """One workload's record from its untraced children (and traced one)."""
    record: dict[str, Any] = {"problems": []}
    problems = record["problems"]
    reps = [rep for result in children for rep in result["reps"]]
    if reps:
        record["processes"] = len(children)
        record["samples"] = max(rep["samples"] for rep in reps)
        record["attempted"] = sum(rep["attempted"] for rep in reps)
        record["failed"] = sum(rep["failed"] for rep in reps)
        end_to_end = record["end_to_end"] = {}
        for metric, (unit, _, _) in layers.END_TO_END.items():
            if layers.WORKLOAD_ONLY.get(metric, name) != name:
                continue
            if metric == "setup_s" or metric == "peak_rss_mb":
                summary = summarize([result[metric] for result in children])
            elif metric == "failed_share":
                summary = {"value": record["failed"] / record["attempted"], "n": len(reps)}
            else:
                # a once-per-process metric is only on each child's last rep
                values = [
                    rep["metrics"][metric] for rep in reps if metric in rep["metrics"]
                ]
                if metric in HOST_TIME:
                    summary = summarize(values)
                else:
                    if len(set(values)) > 1:
                        problems.append(
                            f"{metric} differs between repetitions of one seed: "
                            f"{sorted(set(values))}"
                        )
                    summary = {"value": values[0], "n": len(values)}
            end_to_end[metric] = {**summary, "unit": unit}
        for metric in layers.DETERMINISTIC:
            values = {rep["counts"][metric] for rep in reps}
            if len(values) > 1:
                problems.append(
                    f"{metric} differs between repetitions of one seed: {sorted(values)}"
                )
        for rep in reps:
            problems.extend(rep["problems"])
        # what the host-time metrics were before the machine-speed factor
        record["raw"] = {
            "setup_s": summarize([result["setup_s_raw"] for result in children]),
            **{
                metric: summarize([
                    rep["metrics"][f"{metric}_raw"] for rep in reps
                    if f"{metric}_raw" in rep["metrics"]
                ])
                for metric in HOST_TIME if metric in end_to_end
            },
        }
    if traced is not None:
        rep = traced["traced"]
        problems.extend(rep["problems"])
        per_layer = record["per_layer"] = traced["per_layer"]
        low, high = layers.COVERAGE_RANGE
        if not low <= per_layer["trace.coverage"] <= high:
            problems.append(
                f"trace.coverage {per_layer['trace.coverage']:.3f} outside {low}-{high}: "
                "the layers do not sum to the run"
            )
        if per_layer["loadgen.late_us"] != 0:
            problems.append(f"loadgen.late_us = {per_layer['loadgen.late_us']}")
        record["traced"] = {
            "attempted": rep["attempted"], "failed": rep["failed"],
            "metrics": rep["metrics"],
        }
        untraced = traced["reps"][0]
        changed = [
            metric for metric in layers.DETERMINISTIC
            if rep["counts"][metric] != untraced["counts"][metric]
        ] + [
            metric for metric, value in rep["metrics"].items()
            if metric.startswith("virt_") and value != untraced["metrics"][metric]
        ]
        if changed:
            problems.append(f"tracing changed {changed}")
    record["problems"] = sorted(set(problems))
    return record


def host_info(fastpath: str) -> dict[str, Any]:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "fastpath": fastpath,
    }
