"""One entry point per paper experiment (tables/figures of Sec. 6).

Each ``run_*`` function returns an :class:`ExperimentResult` containing the
measured series, the paper's published expectation and derived comparison
ratios — everything ``repro run`` prints and the tests assert.
:data:`EXPERIMENTS` maps each result's ``experiment`` id to its runner,
which is how ``repro run NAME`` finds it.
"""

from __future__ import annotations

import functools
import hashlib
import random
from dataclasses import dataclass, field

from repro.crypto.aead import AeadKey
from repro.core.messages import invoke_metadata_overhead, reply_metadata_overhead
from repro.kvstore import get, put
from repro.net.latency import LatencyModel
from repro.obs.metrics import QuantileHistogram
from repro.perf.costs import CostModel
from repro.perf.model import measure_throughput
from repro.sharding import ShardRouter, ShardedCluster
from repro.sharding.observer import parity_report
from repro.tee.sgx import EpcModel, MapMemoryModel
from repro.workload.ycsb import WORKLOAD_A, WorkloadGenerator
from repro import serde

FIG4_OBJECT_SIZES = [100, 500, 1000, 1500, 2000, 2500]
FIG56_CLIENT_COUNTS = [1, 2, 4, 8, 16, 32]
FIG5_SYSTEMS = ["sgx", "sgx_batch", "native", "lcm", "lcm_batch", "redis", "sgx_tmc"]
SHARD_COUNTS = [1, 2, 4]


@dataclass
class ExperimentResult:
    """A reproduced table/figure: series plus paper-vs-measured notes."""

    experiment: str
    description: str
    parameters: dict
    series: dict[str, list]
    ratios: dict[str, object] = field(default_factory=dict)
    paper_expectation: dict[str, object] = field(default_factory=dict)
    #: one observability-plane snapshot (``cluster.metrics()``) captured
    #: at the end of the run, for cluster-backed experiments — counters,
    #: gauges, histograms and verifier events, JSON-ready; with
    #: ``tracing=True`` also every finished span under ``spans``
    metrics: dict = field(default_factory=dict)


def _band(values: list[float]) -> tuple[float, float]:
    return (min(values), max(values)) if values else (0.0, 0.0)


def _sequence(name: str, values, default=None):
    """A sequence parameter's value: ``None`` means ``default``, a
    non-empty list or tuple passes through, and anything else (a scalar
    from ``--set name=2``, an empty list) is a ``ValueError`` naming the
    parameter."""
    if values is None:
        values = default
    if not isinstance(values, (list, tuple)) or not values:
        raise ValueError(f"{name} needs a non-empty list, got {values!r}")
    return values


# ------------------------------------------------------- throughput figures


def _throughput_sweep(
    systems, axis: str, points: list, **fixed
) -> dict[str, list]:
    """One closed-loop :func:`measure_throughput` run per (system, point)
    of ``axis`` (``"clients"`` or ``"object_size"``), the other settings
    ``fixed``: the series of Figs. 4-6 and Sec. 6.5.  A point that
    completes no operation in its window is a ``ValueError`` — the
    figures' ratios would divide by it."""
    series: dict[str, list] = {axis: points}
    for system in systems:
        series[system] = []
        for point in points:
            result = measure_throughput(system, **{axis: point}, **fixed)
            if not result.operations:
                raise ValueError(
                    f"{system} completed no operation at {axis}={point} "
                    f"in a {result.window} s window"
                )
            series[system].append(result.ops_per_second)
    return series


def run_fig4_object_size(
    *,
    object_sizes: list[int] | None = None,
    clients: int = 8,
    costs: CostModel | None = None,
    duration: float | None = None,
) -> ExperimentResult:
    """Fig. 4: throughput vs. object size, SGX vs. LCM, async writes."""
    sizes = _sequence("object_sizes", object_sizes, FIG4_OBJECT_SIZES)
    series = _throughput_sweep(
        ("sgx", "lcm"), "object_size", sizes,
        clients=clients, fsync=False, costs=costs, duration=duration,
    )
    overheads = [
        1.0 - lcm / sgx for sgx, lcm in zip(series["sgx"], series["lcm"])
    ]
    return ExperimentResult(
        experiment="fig4",
        description="Throughput with different object sizes (async disk writes)",
        parameters={"clients": clients, "object_sizes": sizes},
        series=series,
        ratios={
            "lcm_overhead_by_size": dict(zip(sizes, overheads)),
            "overhead_smallest": overheads[0],
            "overhead_largest": overheads[-1],
            "overhead_decreases": all(
                a >= b - 0.01 for a, b in zip(overheads, overheads[1:])
            ),
        },
        paper_expectation={
            "overhead_smallest": 0.2012,   # 100-byte objects
            "overhead_largest": 0.1096,    # 2500-byte objects
            "overhead_decreases": True,
        },
    )


#: ratio name -> (numerator, denominator) series of Figs. 5/6
_CLIENT_RATIOS = {
    "sgx_vs_native": ("sgx", "native"),
    "lcm_vs_sgx": ("lcm", "sgx"),
    "lcm_batch_vs_sgx": ("lcm_batch", "sgx"),
    "lcm_batch_vs_sgx_batch": ("lcm_batch", "sgx_batch"),
}


def _clients_figure(
    experiment: str, description: str, paper_expectation: dict, *,
    fsync: bool, client_counts, systems, object_size: int, costs, duration,
) -> ExperimentResult:
    """Figs. 5/6: every system's throughput vs. the number of clients."""
    counts = _sequence("client_counts", client_counts, FIG56_CLIENT_COUNTS)
    series = _throughput_sweep(
        _sequence("systems", systems, FIG5_SYSTEMS), "clients", counts,
        object_size=object_size, fsync=fsync, costs=costs, duration=duration,
    )
    ratios: dict[str, object] = {
        name: _band([a / b for a, b in zip(series[top], series[bottom])])
        for name, (top, bottom) in _CLIENT_RATIOS.items()
        if top in series and bottom in series
    }

    def _flat(name: str) -> bool:
        values = series.get(name, [])
        return bool(values) and max(values) <= 2.0 * min(values)

    ratios["flat_systems"] = {
        name: _flat(name) for name in ("native", "sgx", "lcm", "sgx_tmc") if name in series
    }
    return ExperimentResult(
        experiment=experiment,
        description=description,
        parameters={"object_size": object_size, "clients": counts},
        series=series,
        ratios=ratios,
        paper_expectation=paper_expectation,
    )


def run_fig5_clients_async(
    *,
    client_counts: list[int] | None = None,
    systems: list[str] | None = None,
    object_size: int = 100,
    costs: CostModel | None = None,
    duration: float | None = None,
) -> ExperimentResult:
    """Fig. 5: throughput vs. number of clients, async disk writes."""
    result = _clients_figure(
        "fig5",
        "Throughput with different numbers of clients (async disk writes)",
        {
            "sgx_vs_native": (0.42, 0.78),
            "lcm_vs_sgx": (0.67, 0.95),
            "lcm_batch_vs_sgx_batch": (0.72, 0.98),
            "tmc_ops_per_second": (12.0, 12.0),
        },
        fsync=False, client_counts=client_counts, systems=systems,
        object_size=object_size, costs=costs, duration=duration,
    )
    if "sgx_tmc" in result.series:
        result.ratios["tmc_ops_per_second"] = _band(result.series["sgx_tmc"])
    return result


def run_fig6_clients_sync(
    *,
    client_counts: list[int] | None = None,
    systems: list[str] | None = None,
    object_size: int = 100,
    costs: CostModel | None = None,
    duration: float | None = None,
) -> ExperimentResult:
    """Fig. 6: throughput vs. number of clients, synchronous (fsync) writes."""
    return _clients_figure(
        "fig6",
        "Throughput with different numbers of clients (sync disk writes)",
        {
            "sgx_vs_native": (0.98, 0.98),
            "lcm_vs_sgx": (0.69, 0.69),
            "lcm_batch_vs_sgx": (0.72, 9.87),
            "lcm_batch_vs_sgx_batch": (0.71, 0.75),
            "flat_systems": {"native": True, "sgx": True, "lcm": True, "sgx_tmc": True},
        },
        fsync=True, client_counts=client_counts, systems=systems,
        object_size=object_size, costs=costs, duration=duration,
    )


def run_sec65_tmc_comparison(
    *,
    client_counts: list[int] | None = None,
    costs: CostModel | None = None,
    duration: float | None = None,
) -> ExperimentResult:
    """Sec. 6.5: TMC throughput vs. LCM-with-batching speedup band."""
    counts = _sequence("client_counts", client_counts, FIG56_CLIENT_COUNTS)
    series = _throughput_sweep(
        ("sgx_tmc", "lcm_batch"), "clients", counts,
        costs=costs, duration=duration,
    )
    tmc = series["sgx_tmc"]
    speedups = [l / t for l, t in zip(series["lcm_batch"], tmc)]
    return ExperimentResult(
        experiment="sec65",
        description="Trusted monotonic counter performance impact",
        parameters={"clients": counts},
        series=series,
        ratios={
            "tmc_mean_ops": sum(tmc) / len(tmc),
            "tmc_flat": max(tmc) <= 1.5 * min(tmc),
            "speedup_band": _band(speedups),
        },
        paper_expectation={
            "tmc_mean_ops": 12.0,
            "tmc_flat": True,
            "speedup_band": (96.0, 2063.0),
        },
    )


# ----------------------------------------------------------------- Sec 6.2


def run_sec62_enclave_memory(
    *,
    object_counts: list[int] | None = None,
    key_size: int = 40,
    value_size: int = 100,
) -> ExperimentResult:
    """Sec. 6.2: enclave heap consumption and EPC-paging latency knee."""
    counts = _sequence("object_counts", object_counts, [
        50_000, 100_000, 200_000, 300_000, 400_000, 600_000, 800_000, 1_000_000
    ])
    memory_model = MapMemoryModel()
    epc = EpcModel()
    heap_mb = [
        memory_model.heap_bytes(n, key_size, value_size) / (1024 * 1024)
        for n in counts
    ]
    latency_multiplier = [
        epc.latency_multiplier(memory_model.heap_bytes(n, key_size, value_size))
        for n in counts
    ]
    overhead = memory_model.overhead_fraction(key_size, value_size)
    heap_at_300k = memory_model.heap_bytes(300_000, key_size, value_size) / (1024 * 1024)
    return ExperimentResult(
        experiment="sec62",
        description="Enclave memory overhead and EPC paging latency",
        parameters={"key_size": key_size, "value_size": value_size},
        series={
            "objects": counts,
            "heap_mb": heap_mb,
            "latency_multiplier": latency_multiplier,
        },
        ratios={
            "map_overhead_fraction": overhead,
            "heap_mb_at_300k": heap_at_300k,
            "max_latency_increase": max(latency_multiplier) - 1.0,
            "knee_after_300k": epc.fits(
                memory_model.heap_bytes(300_000, key_size, value_size)
            ),
        },
        paper_expectation={
            "map_overhead_fraction": 1.34,
            "heap_mb_at_300k": 93.0,
            "max_latency_increase": 2.40,
            "knee_after_300k": True,
        },
    )


# ----------------------------------------------------------------- Sec 6.3


def run_sec63_message_overhead(
    *,
    object_sizes: list[int] | None = None,
) -> ExperimentResult:
    """Sec. 6.3: LCM metadata bytes added per INVOKE/REPLY, by object size."""
    sizes = _sequence("object_sizes", object_sizes, FIG4_OBJECT_SIZES)
    key = AeadKey(b"\x01" * 16, label="probe")
    invoke_overheads = []
    reply_overheads = []
    for size in sizes:
        operation = serde.encode(["PUT", "k" * 40, "v" * size])
        result = serde.encode("v" * size)
        invoke_overheads.append(invoke_metadata_overhead(operation, key))
        reply_overheads.append(reply_metadata_overhead(result, key))
    return ExperimentResult(
        experiment="sec63",
        description="LCM protocol message metadata overhead",
        parameters={"object_sizes": sizes},
        series={
            "object_size": sizes,
            "invoke_overhead_bytes": invoke_overheads,
            "reply_overhead_bytes": reply_overheads,
        },
        ratios={
            "invoke_constant": len(set(invoke_overheads)) == 1,
            "reply_constant": len(set(reply_overheads)) == 1,
            "invoke_overhead_bytes": invoke_overheads[0],
            "reply_overhead_bytes": reply_overheads[0],
        },
        paper_expectation={
            "invoke_constant": True,
            "reply_constant": True,
            "invoke_overhead_bytes": 45,  # compact C framing; ours is larger
            "reply_overhead_bytes": 46,   # but equally constant
        },
    )


# ------------------------------------------------------ cluster experiments


def _cluster(
    shards: int,
    clients: int,
    seed: int,
    per_client: int | None,
    *,
    propagation: float = 100e-6,
    tracing: bool = False,
    **router_options,
) -> tuple[ShardedCluster, ShardRouter]:
    """The cluster every cluster experiment runs on — ``shards`` groups,
    ``clients`` clients sending ``per_client`` logical requests each
    (``None`` for open-loop arrivals), links of ``propagation`` seconds
    with 20 % jitter, per-request spans when ``tracing`` — and its
    router."""
    if per_client is not None and per_client < 1:
        raise ValueError("every client needs at least one request")
    cluster = ShardedCluster(
        shards=shards,
        clients=clients,
        seed=seed,
        latency=LatencyModel(
            propagation=propagation, jitter_fraction=0.2, seed=seed
        ),
        tracing=tracing,
    )
    return cluster, ShardRouter(cluster, **router_options)


def _snapshot(cluster: ShardedCluster) -> dict:
    """The run's metrics snapshot, with every finished span under
    ``spans`` when the cluster traced."""
    snapshot = cluster.metrics()
    if cluster.tracer.enabled:
        snapshot["spans"] = [span.as_dict() for span in cluster.tracer.finished()]
    return snapshot


def _closed_loop(requests: dict, submit, *, depth: int = 1) -> list:
    """Start one closed-loop client per ``requests`` entry (client id ->
    its requests, in order): ``depth`` requests in flight, the next one
    submitted when one completes.  ``submit(client_id, request, done)``
    sends a request and calls ``done(result)`` exactly once when it has
    completed.  Returns the list the results land in as the run goes."""
    results: list = []

    def start(client_id: int, stream) -> None:
        def done(result) -> None:
            results.append(result)
            pump()

        def pump() -> None:
            request = next(stream, None)
            if request is not None:
                submit(client_id, request, done)

        for _ in range(depth):
            pump()

    for client_id, stream in requests.items():
        start(client_id, iter(stream))
    return results


def _submit_request(router: ShardRouter, client_id: int, request, done) -> None:
    """Submit one YCSB request: a single operation, or a multi-key
    fan-out that completes when every shard has answered."""
    if len(request) == 1:
        router.submit(client_id, request[0], done)
    else:
        router.submit_many(client_id, request, done)


def _draw_requests(cluster, per_client: int, next_request) -> dict:
    """Every client's requests, drawn client by client before the run."""
    return {
        client_id: [next_request() for _ in range(per_client)]
        for client_id in cluster.client_ids
    }


def _outcome(cluster: ShardedCluster, router: ShardRouter):
    """Read a drained run: ``(verdict, elapsed, ops_per_second,
    streaming_parity)`` — the replayed verdict, the virtual seconds the run
    took, completed operations per virtual second, and whether the online
    verdict matches the replay exactly (see
    :func:`repro.sharding.observer.parity_report`), so every cluster
    experiment doubles as a streaming-equivalence check."""
    verdict = router.verdict()
    elapsed = cluster.sim.now
    rate = cluster.stats.operations_completed / elapsed if elapsed else 0.0
    parity = not cluster.observer.enabled or not parity_report(
        router.streaming_verdict(), verdict
    )
    return verdict, elapsed, rate, parity


def run_shard_scaling(
    *,
    shard_counts: list[int] | None = None,
    clients: int = 24,
    requests_per_client: int = 40,
    object_size: int = 100,
    rebalance: bool = True,
    distribution: str = "uniform",
    seed: int = 0,
    tracing: bool = False,
) -> ExperimentResult:
    """Beyond the paper: aggregate throughput of N LCM groups side by side.

    Figs. 5/6 stop at the one-group ceiling — a single trusted context
    serialises every request.  Here the keyspace is consistent-hash
    partitioned across ``shard_counts`` independent groups
    (:mod:`repro.sharding`) and closed-loop clients drive a YCSB
    workload-A mix through the shard router under virtual time.  With
    ``rebalance`` one shard is migrated onto fresh hardware mid-run
    (Sec. 4.6.2 machinery), and every configuration must come out
    fork-linearizable on every shard — scaling never trades away the
    guarantees.

    ``distribution`` selects the request-key distribution: ``"uniform"``
    (the original sweep) or ``"zipfian"`` (YCSB-A's native skew).  A
    zipfian mix concentrates load on the shards owning the hot keys, so
    the per-shard ``load_skew`` series — max over mean per-shard
    operations, 1.0 = perfectly balanced — surfaces the partitioner's
    balance limits as the shard count grows.
    """
    counts = _sequence("shard_counts", shard_counts, SHARD_COUNTS)
    workload = WORKLOAD_A.with_params(
        distribution=distribution, value_size=object_size
    )
    series: dict[str, list] = {
        "shards": list(counts),
        "ops_per_second": [],
        "simulated_seconds": [],
        "rebalances": [],
        "violations": [],
        "load_skew": [],
        "per_shard_share": [],
        "streaming_parity": [],
    }
    metrics_snapshot: dict = {}
    for shard_count in counts:
        cluster, router = _cluster(
            shard_count, clients, seed, requests_per_client, tracing=tracing
        )
        # same seed for every shard count: identical request streams, so
        # the speedup ratio isolates the shard-count variable
        generator = WorkloadGenerator(workload, seed=seed)
        _closed_loop(
            _draw_requests(
                cluster, requests_per_client, generator.next_operations
            ),
            functools.partial(_submit_request, router),
        )
        if rebalance:
            # aim for roughly mid-run: half the serialised enclave time
            midpoint = (
                clients
                * requests_per_client
                * ShardedCluster.SERVICE_INTERVAL
                / (2 * shard_count)
            )
            cluster.schedule_rebalance(midpoint, 0)
        cluster.run()
        # non-raising checker: a violation is recorded in the series (and
        # fails the zero_violations ratio) instead of crashing the sweep
        verdict, elapsed, rate, parity = _outcome(cluster, router)
        series["ops_per_second"].append(rate)
        series["simulated_seconds"].append(elapsed)
        series["rebalances"].append(cluster.stats.rebalances)
        series["violations"].append(len(verdict.violations))
        per_shard = [
            cluster.stats.per_shard_operations[shard_id]
            for shard_id in cluster.shard_ids
        ]
        total = sum(per_shard) or 1
        mean = total / len(per_shard)
        skew = max(per_shard) / mean
        series["load_skew"].append(skew)
        series["per_shard_share"].append(
            [round(count / total, 4) for count in per_shard]
        )
        series["streaming_parity"].append(parity)
        # balance figures live in the registry too, so one metrics
        # snapshot carries the whole run's observability surface
        cluster.metrics_registry.gauge("experiment.load_skew").set(skew)
        for shard_id, count in zip(cluster.shard_ids, per_shard):
            cluster.metrics_registry.gauge(
                "experiment.per_shard_share", shard=str(shard_id)
            ).set(round(count / total, 4))
        metrics_snapshot = _snapshot(cluster)
    baseline = series["ops_per_second"][0]
    speedups = [
        rate / baseline if baseline else 0.0
        for rate in series["ops_per_second"]
    ]
    return ExperimentResult(
        experiment="shard_scaling",
        description=(
            f"Aggregate throughput of N sharded LCM groups "
            f"({distribution} YCSB-A)"
        ),
        parameters={
            "shards": list(counts),
            "clients": clients,
            "requests_per_client": requests_per_client,
            "object_size": object_size,
            "rebalance": rebalance,
            "distribution": distribution,
        },
        series=series,
        ratios={
            "speedup_by_shards": dict(zip(counts, speedups)),
            "speedup_at_max": speedups[-1],
            "zero_violations": not any(series["violations"]),
            "load_skew_by_shards": dict(zip(counts, series["load_skew"])),
            "max_load_skew": max(series["load_skew"]),
            "streaming_parity": all(series["streaming_parity"]),
        },
        paper_expectation={
            # not a paper figure: the ISSUE's acceptance bar for this repo
            "speedup_at_max": 2.5,
            "zero_violations": True,
            "streaming_parity": True,
        },
        metrics=metrics_snapshot,
    )


def run_elastic_scaling(
    *,
    shards: int = 2,
    clients: int = 16,
    requests_per_client: int = 40,
    object_size: int = 100,
    distribution: str = "zipfian",
    seed: int = 0,
    tracing: bool = False,
) -> ExperimentResult:
    """Elastic control plane under fire: split, merge, crash + recover.

    One YCSB-A trace (zipfian by default — the workload's native skew)
    runs closed-loop against a live cluster while the control plane
    reshapes it mid-flight:

    - ~20% in, a **split**: ``add_shard`` grows the ring by one group,
      handing over only the keys on the arcs the new shard gains;
    - ~45% in, a **merge**: ``remove_shard`` retires one of the original
      groups, handing its arcs to the survivors;
    - ~70% in, a **crash**: one shard's hardware dies abruptly;
    - ~85% in, a **recovery**: the dead shard is re-bootstrapped as a
      fresh generation (fresh keys + attestation, clients re-enrolled)
      and the router replays everything the outage parked.

    The acceptance bar: every logical request completes, and the merged
    verdict — audit evidence spanning the handoffs, the removed shard's
    retired logs, and both generations of the crashed shard — shows zero
    fork-linearizability violations.
    """
    if shards < 2:
        raise ValueError("the merge phase needs at least two initial shards")
    cluster, router = _cluster(
        shards, clients, seed, requests_per_client,
        tracing=tracing, failover=True,
    )
    workload = WORKLOAD_A.with_params(
        distribution=distribution, value_size=object_size
    )
    generator = WorkloadGenerator(workload, seed=seed)
    results = _closed_loop(
        _draw_requests(cluster, requests_per_client, generator.next_operations),
        functools.partial(_submit_request, router),
    )

    estimated = (
        clients * requests_per_client * ShardedCluster.SERVICE_INTERVAL / shards
    )
    split_id = cluster.add_shard(at=0.20 * estimated)
    merged_id = shards - 1              # retire the last original group
    cluster.remove_shard(merged_id, at=0.45 * estimated)
    crashed_id = 0
    cluster.schedule_crash(0.70 * estimated, crashed_id)
    cluster.recover_shard(crashed_id, at=0.85 * estimated)
    cluster.run()

    verdict, _elapsed, rate, parity = _outcome(cluster, router)
    reports = cluster.control.reports
    series: dict[str, list] = {
        "event": [report.kind for report in reports],
        "event_shard": [report.shard_id for report in reports],
        "event_ok": [report.completed for report in reports],
        "event_completed_at": [report.completed_at for report in reports],
        "event_keys_moved": [report.keys_moved for report in reports],
        "violations_by_shard": [
            len(verdict.shards[shard_id].generations)
            - sum(g.ok for g in verdict.shards[shard_id].generations)
            for shard_id in sorted(verdict.shards)
        ],
    }
    return ExperimentResult(
        experiment="elastic_scaling",
        description=(
            "Split, merge and crash+recover on a live sharded cluster "
            f"({distribution} YCSB-A)"
        ),
        parameters={
            "shards": shards,
            "clients": clients,
            "requests_per_client": requests_per_client,
            "object_size": object_size,
            "distribution": distribution,
            "split_shard": split_id,
            "merged_shard": merged_id,
            "crashed_shard": crashed_id,
        },
        series=series,
        ratios={
            "ops_per_second": rate,
            "requests_completed": len(results),
            "all_requests_completed": (
                len(results) == clients * requests_per_client
            ),
            "reshards_completed": cluster.stats.reshards,
            "recoveries_completed": cluster.stats.recoveries,
            "keys_migrated": cluster.stats.keys_migrated,
            "operations_parked": router.operations_parked,
            "operations_replayed": router.operations_replayed,
            "zero_violations": verdict.ok,
            "streaming_parity": parity,
        },
        paper_expectation={
            # not a paper figure: the ISSUE's acceptance bar for this PR
            "zero_violations": True,
            "all_requests_completed": True,
            "reshards_completed": 2,
            "recoveries_completed": 1,
            "streaming_parity": True,
        },
        metrics=_snapshot(cluster),
    )


def run_cross_shard(
    *,
    shards: int = 3,
    clients: int = 12,
    requests_per_client: int = 30,
    txn_fraction: float = 0.35,
    txn_size: int = 3,
    object_size: int = 100,
    distribution: str = "zipfian",
    faults: bool = True,
    seed: int = 0,
    tracing: bool = False,
) -> ExperimentResult:
    """Cross-shard atomic commit under fire: a transactional YCSB mix.

    Closed-loop clients drive a YCSB-A-flavoured stream where a fraction
    of logical requests are *multi-key transactions* — ``txn_size``
    distinct keys read-modified-written atomically through the router's
    two-phase coordinator (:meth:`~repro.sharding.ShardRouter.submit_txn`)
    — and the rest are ordinary single-key operations (which transparently
    retry when they land on a key locked by a pending transaction).
    Conflicting transactions abort deterministically and are resubmitted
    with a per-client stagger.

    With ``faults`` (the acceptance configuration) the run additionally
    injects the two classic 2PC crash windows, each followed by a
    recovery:

    - **crash-at-prepare** — a participant's hardware dies right after
      the coordinator handed its prepare to the wire: the vote is lost,
      the failover router replays the prepare onto the recovered
      generation, and the transaction still decides exactly once;
    - **crash-after-decision** — a participant dies with the commit in
      flight: the decision replays after recovery and must be a no-op
      there (idempotence), never a double-apply.

    The acceptance bar: every logical request completes, transactions
    span at least two shards, and the merged verdict — per-shard
    fork-linearizability plus the cross-shard transaction checks — shows
    zero violations.
    """
    if shards < 2:
        raise ValueError("cross-shard transactions need at least two shards")
    cluster, router = _cluster(
        shards, clients, seed, requests_per_client,
        tracing=tracing, failover=True,
    )
    workload = WORKLOAD_A.with_params(
        distribution=distribution, value_size=object_size
    )
    generator = WorkloadGenerator(workload, seed=seed)
    mix = random.Random(seed + 101)

    def next_request() -> tuple[str, list]:
        if mix.random() < txn_fraction:
            # a read-modify-write over txn_size *distinct* keys; key
            # choice reuses the workload's (zipfian/uniform) chooser so
            # hot keys collide across clients and conflicts are real
            chosen: list[str] = []
            while len(chosen) < txn_size:
                key = generator.sample_key()
                if key not in chosen:
                    chosen.append(key)
            operations = []
            for index, key in enumerate(chosen):
                if index % 2 == 0:
                    operations.append(("PUT", key, generator.value()))
                else:
                    operations.append(("GET", key))
            return "txn", operations
        return "plain", generator.next_operations()

    requests = _draw_requests(cluster, requests_per_client, next_request)
    counts = {"txn_requests": 0, "conflict_retries": 0}
    exhausted: list[str] = []
    MAX_TXN_ATTEMPTS = 50

    def submit(client_id: int, request: tuple[str, list], done) -> None:
        kind, operations = request
        if kind == "plain":
            _submit_request(router, client_id, operations, done)
            return

        def attempt(number: int) -> None:
            def decided(result) -> None:
                if result.committed:
                    counts["txn_requests"] += 1
                elif number + 1 >= MAX_TXN_ATTEMPTS:
                    exhausted.append(result.txn_id)
                else:
                    counts["conflict_retries"] += 1
                    # deterministic per-client stagger breaks conflict
                    # lockstep without wall-clock randomness
                    delay = (
                        ShardedCluster.SERVICE_INTERVAL
                        * (1 + number)
                        * (1.0 + 0.13 * client_id)
                    )
                    cluster.sim.schedule(
                        delay,
                        lambda: attempt(number + 1),
                        label=f"txn-retry-c{client_id}",
                    )
                    return
                done(result)

            router.submit_txn(client_id, operations, decided)

        attempt(0)

    fault_events: list[tuple[str, int]] = []
    if faults:
        cross_seen = {"prepare": 0, "decision": 0}

        def phase_hook(phase: str, record) -> None:
            if len(record.participants) < 2:
                return
            if phase == "prepare-sent":
                cross_seen["prepare"] += 1
                if cross_seen["prepare"] == 4 and not fault_events:
                    victim = sorted(record.participants)[0]
                    fault_events.append(("crash-at-prepare", victim))
                    cluster.crash_shard(victim)
                    cluster.recover_shard(
                        victim, at=30 * ShardedCluster.SERVICE_INTERVAL
                    )
            elif phase == "decision-sent":
                cross_seen["decision"] += 1
                if cross_seen["decision"] >= 10 and len(fault_events) == 1:
                    victim = sorted(record.participants)[-1]
                    if cluster.shard_healthy(victim) and not cluster.control.busy:
                        fault_events.append(("crash-after-decision", victim))
                        cluster.crash_shard(victim)
                        cluster.recover_shard(
                            victim, at=30 * ShardedCluster.SERVICE_INTERVAL
                        )

        router.txn_phase_hook = phase_hook

    results = _closed_loop(requests, submit)
    cluster.run()

    verdict, _elapsed, rate, parity = _outcome(cluster, router)
    completed = len(results) - len(exhausted)
    decisions = router.coordinator_decisions()
    cross_shard_txns = sum(
        1 for entry in decisions.values() if len(entry.participants) >= 2
    )
    max_participants = max(
        (len(entry.participants) for entry in decisions.values()),
        default=0,
    )
    series: dict[str, list] = {
        "fault": [kind for kind, _ in fault_events],
        "fault_shard": [shard_id for _, shard_id in fault_events],
        "violations_by_shard": [
            0 if verdict.shards[shard_id].ok else 1
            for shard_id in sorted(verdict.shards)
        ],
    }
    return ExperimentResult(
        experiment="cross_shard",
        description=(
            f"Cross-shard atomic commit over a {distribution} YCSB mix "
            f"({int(txn_fraction * 100)}% multi-key transactions)"
        ),
        parameters={
            "shards": shards,
            "clients": clients,
            "requests_per_client": requests_per_client,
            "txn_fraction": txn_fraction,
            "txn_size": txn_size,
            "object_size": object_size,
            "distribution": distribution,
            "faults": faults,
            "seed": seed,
        },
        series=series,
        ratios={
            "ops_per_second": rate,
            "requests_completed": completed,
            "all_requests_completed": (
                completed == clients * requests_per_client and not exhausted
            ),
            "txn_requests_completed": counts["txn_requests"],
            "transactions_committed": router.transactions_committed,
            "transactions_aborted": router.transactions_aborted,
            "conflict_retries": counts["conflict_retries"],
            "cross_shard_txns": cross_shard_txns,
            "max_participants": max_participants,
            "spans_multiple_shards": cross_shard_txns > 0,
            "lock_retries": router.operations_lock_retried,
            "txn_group_flushes": router.txn_group_flushes,
            "txn_group_entries": router.txn_group_entries,
            "faults_injected": len(fault_events),
            "recoveries_completed": cluster.stats.recoveries,
            "zero_violations": verdict.ok,
            "txn_violations": len(verdict.txn_violations),
            "streaming_parity": parity,
        },
        paper_expectation={
            # not a paper figure: the ISSUE's acceptance bar for this PR
            "zero_violations": True,
            "all_requests_completed": True,
            "spans_multiple_shards": True,
            "streaming_parity": True,
        },
        metrics=_snapshot(cluster),
    )


def run_group_commit(
    *,
    shard_counts: tuple[int, ...] = (2, 4),
    clients: int = 8,
    txns_per_client: int = 30,
    txn_size: int = 2,
    pipeline_depth: int = 4,
    key_universe: int = 64,
    object_size: int = 64,
    seed: int = 7,
) -> ExperimentResult:
    """Transaction throughput vs. shard count under group commit.

    Each client keeps ``pipeline_depth`` multi-key transactions in
    flight over a deliberately small key universe, so per-(client,
    shard) machines are continuously busy and the router's group commit
    engages: lifecycle operations headed for a busy machine accumulate
    and flush as one merged sealed operation per direction.  Conflicting
    prepares queue as wound-wait waiters instead of aborting, so the
    contention shows up as waiting, not retry storms.

    The acceptance bar: committed-transaction throughput (virtual time)
    *increases* with the shard count — participants per transaction stay
    fixed at ``txn_size`` while the lock/queue/ecall work spreads over
    more shards — with zero violations and a non-zero number of merged
    flushes at every point.
    """
    shard_counts = _sequence("shard_counts", shard_counts)
    if min(shard_counts) < 2:
        raise ValueError("group commit needs at least two shards")
    series: dict[str, list] = {
        "shards": list(shard_counts),
        "txns_per_second": [],
        "committed": [],
        "aborted": [],
        "group_flushes": [],
        "group_entries": [],
        "lock_waits": [],
    }
    violations = 0
    parity = True
    for count in shard_counts:
        cluster, router = _cluster(count, clients, seed, txns_per_client)
        rng = random.Random(seed + count)
        keys = [f"gc-key-{index:04d}" for index in range(key_universe)]
        for index, key in enumerate(keys):
            router.submit(
                cluster.client_ids[index % clients], ("PUT", key, "seed")
            )
        cluster.run()

        value = "v" * object_size

        def transactions():
            # keys are drawn at submit time, interleaved across clients
            for _ in range(txns_per_client):
                yield [("PUT", key, value) for key in rng.sample(keys, txn_size)]

        results = _closed_loop(
            {client_id: transactions() for client_id in cluster.client_ids},
            router.submit_txn,
            depth=pipeline_depth,
        )
        cluster.run()

        verdict, elapsed, _rate, shard_parity = _outcome(cluster, router)
        violations += 0 if verdict.ok else 1
        parity = parity and shard_parity
        committed = sum(result.committed for result in results)
        series["txns_per_second"].append(
            committed / elapsed if elapsed else 0.0
        )
        series["committed"].append(committed)
        series["aborted"].append(len(results) - committed)
        series["group_flushes"].append(router.txn_group_flushes)
        series["group_entries"].append(router.txn_group_entries)
        series["lock_waits"].append(router.operations_lock_retried)
    throughput = series["txns_per_second"]
    return ExperimentResult(
        experiment="group_commit",
        description=(
            "Cross-shard transaction throughput vs. shard count with "
            "group commit and queued waiters"
        ),
        parameters={
            "shard_counts": list(shard_counts),
            "clients": clients,
            "txns_per_client": txns_per_client,
            "txn_size": txn_size,
            "pipeline_depth": pipeline_depth,
            "key_universe": key_universe,
            "object_size": object_size,
            "seed": seed,
        },
        series=series,
        ratios={
            "throughput_scales_with_shards": all(
                later > earlier
                for earlier, later in zip(throughput, throughput[1:])
            ),
            "scaling_factor": (
                throughput[-1] / throughput[0] if throughput and throughput[0]
                else 0.0
            ),
            "group_flushes_everywhere": all(
                flushes > 0 for flushes in series["group_flushes"]
            ),
            "zero_violations": violations == 0,
            "streaming_parity": parity,
        },
        paper_expectation={
            # Sec. 5.2/5.3 batching argument applied to the transaction
            # plane: amortised lifecycle ecalls keep scaling with shards
            "throughput_scales_with_shards": True,
            "group_flushes_everywhere": True,
            "zero_violations": True,
            "streaming_parity": True,
        },
    )


# ------------------------------------------------------ open-loop frontier

#: offered-vs-achieved shortfall that counts as saturation (with queue
#: corroboration): 5% lets sub-saturation cells absorb drain-tail noise
SATURATION_SHORTFALL = 0.95

#: dispatcher queue pressure (peak depth vs batch limit) that
#: corroborates a throughput shortfall as genuine saturation
SATURATION_QUEUE_FACTOR = 2

#: run-overrun corroboration: arrivals stop at ``duration``, so a run
#: that needs >10% extra virtual time to drain was accumulating backlog
#: (under per-client sequencing the backlog sits in the client protocol
#: machines, which the dispatcher gauges cannot see)
SATURATION_OVERRUN = 1.1

#: the sweep's fixed cluster shape: enough independent protocol machines
#: per shard that per-client sequencing does not cap the offered rate
#: before the dispatchers do, the Sec. 5.3 batch limit (the
#: ``ShardedCluster`` default the cells run with), and the key space
CLIENTS_PER_SHARD = 6
BATCH_LIMIT = 16
KEY_SPACE = 64


def _frontier_cell(
    shards: int, offered_rate: float, seed: int, duration: float
) -> dict:
    """Measure one open-loop (shards, rate, seed) configuration: one row
    of the frontier's series.  The links run at LAN-fast latency (20 µs
    propagation) so the shard dispatchers — not the links — are the
    bottleneck under load."""
    # stable across interpreters (str hash() is salted per process): the
    # same cell always replays the same arrival stream and network jitter.
    # The ``serial|`` prefix is part of the committed FRONTIER.json cells'
    # seed derivation; dropping it would move every arrival stream.
    tag = f"serial|{shards}|{offered_rate:.6g}|{seed}".encode()
    derived = int.from_bytes(
        hashlib.sha256(tag).digest()[:4], "big"
    ) & 0x7FFFFFFF
    cluster, router = _cluster(
        shards, CLIENTS_PER_SHARD * shards, derived, None, propagation=20e-6
    )
    rng = random.Random(derived)
    client_ids = cluster.client_ids

    # schedule the whole arrival process up front: open loop by
    # construction — completions cannot modulate the offered load
    offered = 0
    at = 0.0
    while True:
        at += rng.expovariate(offered_rate)
        if at >= duration:
            break
        client_id = client_ids[rng.randrange(len(client_ids))]
        key = f"fk-{rng.randrange(KEY_SPACE)}"
        operation = (
            put(key, f"v{offered}") if rng.random() < 0.5 else get(key)
        )
        cluster.sim.schedule_at(
            at, functools.partial(router.submit, client_id, operation),
            label="frontier-arrival",
        )
        offered += 1
    cluster.run()

    gauges = cluster.metrics().get("gauges", {})
    queue_peak = max(
        (
            int(value)
            for key, value in gauges.items()
            if key.startswith("dispatch.queue_depth_peak")
        ),
        default=0,
    )
    latency = QuantileHistogram()
    for histogram in cluster.metrics_registry.quantiles_named(
        "router.op_latency"
    ):
        latency.merge_from(histogram)
    verdict, elapsed, achieved, parity = _outcome(cluster, router)
    saturated = achieved < SATURATION_SHORTFALL * offered_rate and (
        queue_peak > SATURATION_QUEUE_FACTOR * BATCH_LIMIT
        or elapsed > SATURATION_OVERRUN * duration
    )
    return {
        "shards": shards,
        "offered_rate": offered_rate,
        "seed": seed,
        "offered_ops": offered,
        "completed_ops": cluster.stats.operations_completed,
        "elapsed": elapsed,
        "achieved_tps": achieved,
        "saturated": saturated,
        "p50_us": latency.quantile(0.50) * 1e6,
        "p95_us": latency.quantile(0.95) * 1e6,
        "p99_us": latency.quantile(0.99) * 1e6,
        "mean_latency_us": latency.mean * 1e6,
        "queue_depth_peak": queue_peak,
        "load_skew": float(gauges.get("cluster.load_skew", 0.0)),
        "batches": sum(cluster.stats.per_shard_batches.values()),
        "violations": len(verdict.violations),
        "streaming_parity": parity,
    }


def run_frontier(
    *,
    shard_counts=(1, 2, 4),
    load_fractions=(0.25, 0.5, 0.75, 0.9, 1.1, 1.3, 1.5),
    seeds=(0,),
    duration: float = 0.25,
) -> ExperimentResult:
    """Beyond the paper: the open-loop latency–throughput frontier.

    The other cluster experiments drive the cluster *closed-loop*: each
    client submits its next operation only after the previous reply, so
    the system settles wherever the feedback loop puts it and saturation
    is never observed.  The frontier fixes an **offered** load instead
    and measures what the cluster achieves and at what latency, for
    every shard count × offered rate × seed.  The offered rates are
    ``load_fractions`` of each shard count's nominal capacity, one
    operation per :attr:`ShardedCluster.SERVICE_INTERVAL` per shard.

    Arrivals are a Poisson process on the virtual clock, scheduled up
    front from a seeded exponential interarrival stream over
    ``duration`` seconds, so past capacity the queues genuinely build
    (first at the shard dispatchers, then at the per-client protocol
    machines).  Each row carries the cell's latency percentiles in µs
    (submit → completion, merged exactly across the router's
    ``router.op_latency`` quantile histograms), the dispatcher queue peak
    and ring load skew, its verdict and streaming parity, and whether it
    saturated: achieved throughput falls measurably below offered *and*
    the dispatcher queues or the drain time show real backlog.

    The acceptance bar: zero violations in every cell, saturated ones
    included; below saturation, offering more achieves more; and the
    streaming verdict matches the replay everywhere.
    ``saturation_by_shards`` is each shard count's plateau — the best
    achieved rate over its ladder.
    """
    shard_counts = _sequence("shard_counts", shard_counts)
    load_fractions = _sequence("load_fractions", load_fractions)
    seeds = _sequence("seeds", seeds)
    if duration <= 0:
        raise ValueError(f"need duration > 0, got {duration}")
    if min(load_fractions) <= 0:
        raise ValueError(f"need load_fractions > 0, got {load_fractions}")
    rows = [
        _frontier_cell(shards, rate, seed, duration)
        for shards in shard_counts
        for rate in (
            shards / ShardedCluster.SERVICE_INTERVAL * fraction
            for fraction in load_fractions
        )
        for seed in seeds
    ]
    series: dict[str, list] = {
        column: [row[column] for row in rows] for column in rows[0]
    }
    saturation: dict[int, float] = {}
    monotone = True
    for shards in shard_counts:
        cells = sorted(
            (row for row in rows if row["shards"] == shards),
            key=lambda row: row["offered_rate"],
        )
        saturation[shards] = max(row["achieved_tps"] for row in cells)
        achieved = [
            row["achieved_tps"] for row in cells
            if not row["saturated"]
            and row["achieved_tps"]
            >= SATURATION_SHORTFALL * row["offered_rate"]
        ]
        monotone = monotone and all(
            later >= earlier for earlier, later in zip(achieved, achieved[1:])
        )
    return ExperimentResult(
        experiment="frontier",
        description=(
            "Open-loop latency-throughput frontier "
            "(offered rate x shard count x seed)"
        ),
        parameters={
            "shard_counts": list(shard_counts),
            "load_fractions": list(load_fractions),
            "seeds": list(seeds),
            "duration": duration,
            "clients_per_shard": CLIENTS_PER_SHARD,
            "batch_limit": BATCH_LIMIT,
            "key_space": KEY_SPACE,
        },
        series=series,
        ratios={
            "saturation_by_shards": saturation,
            "zero_violations": not any(series["violations"]),
            "monotone_below_saturation": monotone,
            "streaming_parity": all(series["streaming_parity"]),
        },
        paper_expectation={
            # not a paper figure: the open-loop sweep's acceptance bar
            "zero_violations": True,
            "monotone_below_saturation": True,
            "streaming_parity": True,
        },
    )


#: every experiment by the id its result carries; the paper's six first
EXPERIMENTS = {
    "fig4": run_fig4_object_size,
    "fig5": run_fig5_clients_async,
    "fig6": run_fig6_clients_sync,
    "sec62": run_sec62_enclave_memory,
    "sec63": run_sec63_message_overhead,
    "sec65": run_sec65_tmc_comparison,
    "shard_scaling": run_shard_scaling,
    "elastic_scaling": run_elastic_scaling,
    "cross_shard": run_cross_shard,
    "group_commit": run_group_commit,
    "frontier": run_frontier,
}
PAPER_EXPERIMENTS = ("fig4", "fig5", "fig6", "sec62", "sec63", "sec65")
