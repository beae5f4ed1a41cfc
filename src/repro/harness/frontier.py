"""Open-loop latency–throughput frontier harness.

The figure-style experiments drive the cluster *closed-loop*: each
client submits its next operation only after the previous reply, so the
system settles wherever the feedback loop puts it and saturation is
never actually observed.  The frontier asks the converse question — fix
an **offered** load, measure what the cluster achieves and at what
latency — and sweeps offered rate × shard count to map the knee of the
curve.

Arrivals are an open-loop Poisson process on the simulator's virtual
clock: every arrival is scheduled up front from a seeded exponential
interarrival stream, independent of completions, so when the offered
rate exceeds capacity the queues genuinely build (first at the shard
dispatchers, then at the per-client protocol machines) instead of the
load generator politely backing off.  Per-operation latency
(submit → completion on the virtual clock) comes from the router's
``router.op_latency`` quantile histograms, merged exactly across
(shard, op) label sets; queue pressure and balance come from the
cluster's ``dispatch.queue_depth``/``queue_depth_peak`` and
``cluster.load_skew`` gauges.

Every (shards, rate, seed) cell is persisted, saturation is
detected per cell (achieved throughput falls measurably below offered
*and* the dispatcher queues show real pressure), and zero protocol
violations below saturation is asserted by the CLI's ``--quick`` smoke.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass, field
from typing import Any, Sequence

from repro.kvstore import get, put
from repro.net.latency import LatencyModel
from repro.net.simulation import ENCLAVE_SERVICE_INTERVAL
from repro.obs.metrics import QuantileHistogram
from repro.sharding import ShardRouter, ShardedCluster

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
#: before the dispatchers do, the Sec. 5.3 batch limit, and the key space
CLIENTS_PER_SHARD = 6
BATCH_LIMIT = 16
KEY_SPACE = 64


@dataclass
class FrontierCell:
    """One measured (shards, rate, seed) configuration."""

    shards: int
    offered_rate: float
    seed: int
    duration: float
    offered_ops: int
    completed_ops: int
    elapsed: float
    achieved_tps: float
    saturated: bool
    p50: float
    p95: float
    p99: float
    mean_latency: float
    queue_depth_peak: int
    load_skew: float
    violations: int
    extra: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


def run_cell(
    shards: int,
    offered_rate: float,
    *,
    seed: int = 0,
    duration: float = 0.25,
) -> FrontierCell:
    """Measure one open-loop configuration and return its cell.

    The client links run at LAN-fast latency (20 µs propagation) so the
    shard dispatchers — not the links — are the bottleneck under load.
    """
    # stable across interpreters (str hash() is salted per process): the
    # same cell always replays the same arrival stream and network jitter.
    # The ``serial|`` prefix is part of the committed FRONTIER.json cells'
    # seed derivation; dropping it would move every arrival stream.
    tag = f"serial|{shards}|{offered_rate:.6g}|{seed}".encode()
    derived = int.from_bytes(
        hashlib.sha256(tag).digest()[:4], "big"
    ) & 0x7FFFFFFF
    cluster = ShardedCluster(
        shards=shards,
        clients=CLIENTS_PER_SHARD * shards,
        seed=derived,
        batch_limit=BATCH_LIMIT,
        latency=LatencyModel(
            propagation=20e-6, jitter_fraction=0.2, seed=derived
        ),
    )
    router = ShardRouter(cluster)
    rng = random.Random(derived)
    client_ids = list(cluster.client_ids)
    state = {"completed": 0}

    def complete(_result) -> None:
        state["completed"] += 1

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

        def arrive(client_id=client_id, operation=operation) -> None:
            router.submit(client_id, operation, complete)

        cluster.sim.schedule_at(at, arrive, label="frontier-arrival")
        offered += 1

    cluster.run()
    elapsed = cluster.sim.now
    completed = state["completed"]
    achieved = completed / elapsed if elapsed > 0 else 0.0

    snapshot = cluster.metrics()
    gauges = snapshot.get("gauges", {})
    queue_peak = max(
        (
            int(value)
            for key, value in gauges.items()
            if key.startswith("dispatch.queue_depth_peak")
        ),
        default=0,
    )
    load_skew = float(gauges.get("cluster.load_skew", 0.0))

    merged = QuantileHistogram()
    for histogram in cluster.metrics_registry.quantiles_named(
        "router.op_latency"
    ):
        merged.merge_from(histogram)

    violations = sum(
        1
        for shard_id in cluster.verdict_shard_ids
        if cluster.shard_violation(shard_id) is not None
    )
    saturated = achieved < SATURATION_SHORTFALL * offered_rate and (
        queue_peak > SATURATION_QUEUE_FACTOR * BATCH_LIMIT
        or elapsed > SATURATION_OVERRUN * duration
    )
    return FrontierCell(
        shards=shards,
        offered_rate=offered_rate,
        seed=seed,
        duration=duration,
        offered_ops=offered,
        completed_ops=completed,
        elapsed=elapsed,
        achieved_tps=achieved,
        saturated=saturated,
        p50=merged.quantile(0.50),
        p95=merged.quantile(0.95),
        p99=merged.quantile(0.99),
        mean_latency=merged.mean,
        queue_depth_peak=queue_peak,
        load_skew=load_skew,
        violations=violations,
        extra={
            "batch_limit": BATCH_LIMIT,
            "clients": CLIENTS_PER_SHARD * shards,
            "batches": sum(cluster.stats.per_shard_batches.values()),
        },
    )


def shard_capacity(shards: int) -> float:
    """Nominal capacity: one op per service interval per shard."""
    return shards / ENCLAVE_SERVICE_INTERVAL


def default_rates(shards: int) -> list[float]:
    """An offered-rate ladder bracketing the nominal capacity."""
    capacity = shard_capacity(shards)
    return [capacity * f for f in (0.25, 0.5, 0.75, 0.9, 1.1, 1.3, 1.5)]


@dataclass
class FrontierResult:
    """The full sweep: every cell plus each shard count's saturation
    throughput."""

    cells: list[FrontierCell]
    saturation: dict[int, float]

    def as_dict(self) -> dict[str, Any]:
        return {
            "cells": [cell.as_dict() for cell in self.cells],
            "saturation": {
                str(shards): tps for shards, tps in self.saturation.items()
            },
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")


def saturation_throughput(cells: Sequence[FrontierCell]) -> float:
    """One shard count's saturation throughput: the best achieved rate
    over its rate ladder (below the knee achieved tracks offered; past
    it the extra offered load only grows queues, so the max is the
    plateau)."""
    return max((cell.achieved_tps for cell in cells), default=0.0)


def run_frontier(
    *,
    shard_counts: Sequence[int] = (1, 2, 4),
    rates: Sequence[float] | None = None,
    seeds: Sequence[int] = (0,),
    duration: float = 0.25,
) -> FrontierResult:
    """Sweep offered rate × shard count × seed.

    Every cell is retained (the persisted matrix is the artifact);
    ``saturation`` summarizes each shard count's plateau.
    """
    cells: list[FrontierCell] = []
    saturation: dict[int, float] = {}
    for shards in shard_counts:
        ladder_cells = [
            run_cell(shards, rate, seed=seed, duration=duration)
            for rate in (rates or default_rates(shards))
            for seed in seeds
        ]
        cells.extend(ladder_cells)
        saturation[shards] = saturation_throughput(ladder_cells)
    return FrontierResult(cells=cells, saturation=saturation)
