"""The six end-to-end workloads.

Every workload is a function ``(seed, scale, instruments) -> Rep`` that

1. derives its operations from ``seed`` (the cluster sees only the
   generated operations and a derived cluster seed),
2. builds its cluster(s) through the public API, preloads the keyspace,
3. drives the load with wall-clock timing around ``cluster.run()`` only,
4. checks the outputs (verdicts, read-back, outstanding requests).

All clusters run ``streaming=True`` (the default serving configuration)
on the default execution backend, with a 20 us +-20% jitter link and the
simulator's 50 us/op enclave service interval.  ``scale`` shrinks the
operation counts (warm-up, ``--quick``); 1.0 is the recorded size.
"""

from __future__ import annotations

import gc
import hashlib
import math
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from speed import Speedometer

from repro.kvstore import get, put
from repro.kvstore.functionality import TXN_LOCKED
from repro.net.latency import LatencyModel
from repro.sharding import ShardRouter, ShardedCluster
from repro.sharding.observer import parity_report
from repro.workload.zipf import ScrambledZipfian

#: p99 limit and drain allowance that define ``virt_max_rate_ops_s``
P99_LIMIT_US = 1000.0
DRAIN_ALLOWANCE = 0.10


def derive_seed(*parts: Any) -> int:
    """A 31-bit seed from the workload name, a role tag and the run seed
    (sha256, so it is stable across interpreters)."""
    material = "|".join(str(part) for part in parts).encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:4], "big") & 0x7FFFFFFF


def quantile(sorted_values: list[float], q: float) -> float:
    """Exact nearest-rank quantile of an already sorted sample."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


#: raw counts that combine by maximum, not by sum
PEAK_COUNTS = ("queue_depth_peak", "state_blob_bytes", "retained_records_peak")


@dataclass
class Rep:
    """One repetition of one workload."""

    attempted: int = 0
    completed: int = 0
    errors: int = 0
    wall_s: float = 0.0          # inside cluster.run() only
    nominal_s: float = 0.0       # wall_s at nominal machine speed
    cpu_s: float = 0.0
    schedule_s: float = 0.0      # host cost of generating + scheduling load
    late_us: float = 0.0         # open loop: worst arrival lateness (virtual)
    samples: int = 0             # latency samples behind virt_p50/p99
    metrics: dict[str, float] = field(default_factory=dict)
    #: additive raw counts over the measured clusters (``*_peak``: max)
    counts: dict[str, float] = field(default_factory=dict)
    stuck: dict[str, Any] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    #: open-loop ladders: offered rate -> (p50, p99) virtual latency, us
    cells: dict[float, tuple[float, float]] = field(default_factory=dict)
    #: host time (``time.time``) the first measured request was due
    started_at: float | None = None
    #: traced runs only: per-operation virtual stamps of the reported
    #: cell, and the in-ecall stage records of every measured batch
    op_stamps: list = field(default_factory=list)
    stage_records: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.attempted - self.completed + self.errors

    def add_counts(self, counts: dict[str, float]) -> None:
        for key, value in counts.items():
            if key in PEAK_COUNTS:
                self.counts[key] = max(self.counts.get(key, 0), value)
            else:
                self.counts[key] = self.counts.get(key, 0) + value


@dataclass
class Instruments:
    """What a repetition is observed with: the machine-speed reference
    (always) and the span recorder (traced runs only)."""

    meter: Speedometer = field(default_factory=Speedometer)
    recorder: Any = None


#: wall seconds of ``cluster.run()`` between two machine-speed samples
SLICE_S = 0.1


class Session:
    """One cluster, its router, and the benchmark's own request log."""

    def __init__(
        self,
        tag: str,
        seed: int,
        instruments: Instruments,
        *,
        shards: int,
        clients: int,
        batch_limit: int = 16,
        failover: bool = False,
        malicious: tuple[int, ...] = (),
    ) -> None:
        derived = derive_seed(tag, "cluster", seed)
        recorder = instruments.recorder
        self.recorder = recorder
        self.meter = instruments.meter
        self.cluster = ShardedCluster(
            shards=shards,
            clients=clients,
            seed=derived,
            batch_limit=batch_limit,
            latency=LatencyModel(
                propagation=20e-6, jitter_fraction=0.2, seed=derived
            ),
            malicious_shards=malicious,
            tracing=recorder is not None,
        )
        self.router = ShardRouter(self.cluster, failover=failover)
        if recorder is not None:
            recorder.attach(self.cluster)
        self.sim = self.cluster.sim
        #: virtual submit time per request (open loop: the scheduled
        #: arrival) and completion time (None while outstanding)
        self.submitted: list[float] = []
        self.done: list[float | None] = []
        self.errors = 0
        self.late = 0.0
        #: key -> [(invoked, completed, tag)] of every applied PUT
        self.puts: dict[str, list[tuple[float, float, str]]] = {}
        self.wall_s = 0.0
        self.nominal_s = 0.0
        self.cpu_s = 0.0
        self._baseline: dict[Any, float] = {}
        #: virtual time the measured load starts at (the preload's end)
        self.origin = 0.0
        #: virtual time before which a shard's state was lost (recovery)
        self.state_lost_before: dict[int, float] = {}
        self.started_at: float | None = None
        self.op_stamps: list = []
        self.stage_records: list = []

    # ------------------------------------------------------------ requests

    def _callback(self, fn: Callable) -> Callable:
        """Load-generator code that runs inside the simulation gets its
        own span so it is not billed to the layer that called it."""
        if self.recorder is None:
            return fn
        return self.recorder.wrap(fn, "loadgen.callback")

    def submit(
        self,
        client_id: int,
        operation: tuple,
        then: Callable[[], Any] | None = None,
        *,
        due: float | None = None,
    ) -> None:
        """Submit one single-key request and log it."""
        now = self.sim.now
        if due is not None:
            self.late = max(self.late, now - due)
        index = len(self.submitted)
        self.submitted.append(now if due is None else due)
        self.done.append(None)

        def complete(result) -> None:
            finished = self.sim.now
            self.done[index] = finished
            value = result.result
            if type(value) is list and value and value[0] == TXN_LOCKED:
                self.errors += 1
            elif operation[0] == "PUT":
                self._applied(operation, now, finished)
            if then is not None:
                then()

        self.router.submit(client_id, operation, self._callback(complete))

    def submit_txn(
        self, client_id: int, operations: list[tuple], then: Callable[[], Any]
    ) -> None:
        """Submit one transaction; an abort is a completed request."""
        now = self.sim.now
        index = len(self.submitted)
        self.submitted.append(now)
        self.done.append(None)

        def complete(result) -> None:
            finished = self.sim.now
            self.done[index] = finished
            if result.committed:
                for operation in operations:
                    if operation[0] == "PUT":
                        self._applied(operation, now, finished)
            then()

        self.router.submit_txn(client_id, operations, self._callback(complete))

    def _applied(self, operation: tuple, invoked: float, completed: float) -> None:
        tag = operation[2].split(":", 1)[0]
        self.puts.setdefault(operation[1], []).append((invoked, completed, tag))

    # ------------------------------------------------------------- driving

    def preload(self, keys: list[str], value_bytes: int) -> None:
        """Write every key once (round-robin over the clients), untimed."""
        clients = self.cluster.client_ids
        for index, key in enumerate(keys):
            self.router.submit(
                clients[index % len(clients)],
                put(key, make_value("init", value_bytes)),
            )
        self.cluster.run()
        for key in keys:
            self.puts[key] = [(-1.0, -1.0, "init")]
        self._baseline = self._raw_counts()
        self.origin = self.sim.now

    def pipeline(
        self, plan: list, submit_one: Callable[[Any, Callable], Any], depth: int = 1
    ) -> None:
        """Keep ``depth`` items of ``plan`` in flight until it ends: each
        completion issues the next item."""
        remaining = iter(plan)

        def issue() -> None:
            item = next(remaining, None)
            if item is not None:
                submit_one(item, issue)

        for _ in range(depth):
            issue()

    def closed_loop(self, plans: dict[int, list[tuple]]) -> None:
        """Each client keeps one request in flight until its plan ends."""
        for client_id, plan in plans.items():
            self.pipeline(
                plan,
                lambda operation, then, client_id=client_id: self.submit(
                    client_id, operation, then
                ),
            )

    def open_loop(self, arrivals: list[tuple[float, int, tuple]]) -> None:
        """Schedule every arrival (offsets from :attr:`origin`) on the
        virtual clock up front, so the generator cannot be late and
        completions cannot throttle it."""
        for offset, client_id, operation in arrivals:
            due = self.origin + offset
            self.sim.schedule_at(
                due,
                self._callback(
                    lambda due=due, client_id=client_id, operation=operation:
                    self.submit(client_id, operation, due=due)
                ),
                label="e2e-arrival",
            )

    def run(self) -> None:
        """``cluster.run()`` with the host clocks around it, in slices of
        about :data:`SLICE_S` with a machine-speed sample between them
        (the simulator resumes exactly where an event budget stopped it,
        so slicing changes nothing it computes)."""
        recorder, meter, sim = self.recorder, self.meter, self.sim
        first_sample = len(meter.samples)
        if recorder is not None:
            first_op, first_stage = len(recorder.op_stamps), len(recorder.stage_records)
        self.started_at = time.time()
        wall = cpu = 0.0
        budget = 500
        while True:
            meter.sample()
            events = sim.events_processed
            cpu_started = time.process_time()
            started = time.perf_counter()
            if recorder is None:
                self.cluster.run(max_events=budget)
            else:
                with recorder.span("run"):
                    self.cluster.run(max_events=budget)
            took = time.perf_counter() - started
            wall += took
            cpu += time.process_time() - cpu_started
            if sim.events_processed - events < budget:
                break
            budget = max(100, int(budget * SLICE_S / took))
        meter.sample()
        self.wall_s += wall
        self.cpu_s += cpu
        self.nominal_s += wall * meter.speed(first_sample)
        if recorder is not None:
            self.op_stamps = recorder.op_stamps[first_op:]
            self.stage_records = recorder.stage_records[first_stage:]

    # ------------------------------------------------------------ checking

    def latencies_us(self) -> list[float]:
        return sorted(
            (finished - started) * 1e6
            for started, finished in zip(self.submitted, self.done)
            if finished is not None
        )

    def completed(self) -> int:
        return sum(1 for finished in self.done if finished is not None)

    @property
    def elapsed(self) -> float:
        """Virtual seconds since the measured load started."""
        return self.sim.now - self.origin

    def stuck_report(self) -> dict[str, Any]:
        """What a drained simulator left outstanding, for the failure
        message: the router's waiter depth and undecided prepares."""
        gauges = self.cluster.metrics()["gauges"]
        return {
            "outstanding": len(self.done) - self.completed(),
            "router.txn_waiter_depth": gauges.get("router.txn_waiter_depth", 0),
            "router.inflight_operations": gauges.get(
                "router.inflight_operations", 0
            ),
            "shard_txn_pending": {
                str(shard_id): self.cluster.shard_txn_pending(shard_id)
                for shard_id in self.cluster.shard_ids
            },
        }

    def check_verdict(self, problems: list[str], honest: list[int] | None = None) -> None:
        """The streaming verdict is clean and no honest shard recorded a
        violation."""
        verdict = self.router.streaming_verdict()
        shard_ids = self.cluster.shard_ids if honest is None else honest
        for shard_id in shard_ids:
            if self.cluster.shard_violation(shard_id) is not None:
                problems.append(
                    f"honest shard {shard_id} recorded "
                    f"{self.cluster.shard_violation(shard_id)!r}"
                )
            shard_verdict = verdict.shards.get(shard_id)
            if shard_verdict is not None and not shard_verdict.ok:
                problems.append(
                    f"streaming verdict flags honest shard {shard_id}: "
                    f"{shard_verdict.violation!r}"
                )
        if honest is None and not verdict.ok:
            problems.append(f"streaming verdict not ok: {verdict.violations!r}")

    def read_back(self, problems: list[str]) -> None:
        """Read every key once more: the value must come from a PUT that
        no later-invoked PUT on that key strictly follows."""
        seen: dict[str, Any] = {}
        for key in self.puts:
            self.router.submit(
                self.cluster.client_ids[0],
                get(key),
                lambda result, key=key: seen.__setitem__(key, result.result),
            )
        self.cluster.run()
        for key, history in self.puts.items():
            if key not in seen:
                problems.append(f"read-back of {key} never completed")
                continue
            lost_before = self.state_lost_before.get(
                self.router.owner(get(key)), -2.0
            )
            live = [entry for entry in history if entry[1] >= lost_before]
            value = seen[key]
            if value is None:
                if live:
                    problems.append(f"read-back of {key} lost {len(live)} PUT(s)")
                continue
            tag = value.split(":", 1)[0] if isinstance(value, str) else None
            source = next((entry for entry in live if entry[2] == tag), None)
            if source is None:
                problems.append(f"read-back of {key} returned unknown value {tag!r}")
            elif max(entry[0] for entry in live) > source[1]:
                problems.append(
                    f"read-back of {key} returned a value a later PUT follows"
                )

    # ------------------------------------------------------------- counting

    def _raw_counts(self) -> dict[Any, float]:
        """Deterministic raw counts read from public accessors (plus the
        per-shard channel maps, which have no public accessor).  Per-shard
        counts are keyed ``(name, shard, generation)``: a generation that
        is removed or crashes takes its counters with it, so on ``faults``
        they cover the generations alive at the end."""
        cluster, router = self.cluster, self.router
        counts: dict[Any, float] = {
            "ops": cluster.stats.operations_completed,
            "events": self.sim.events_processed,
            "parked": router.operations_parked,
            "replayed": router.operations_replayed,
            "lock_waits": router.operations_lock_retried,
            "txn_started": router.transactions_started,
            "txn_aborted": router.transactions_aborted,
            "txn_group_flushes": router.txn_group_flushes,
            "txn_group_entries": router.txn_group_entries,
        }
        for shard_id in cluster.shard_ids:
            shard = cluster._shard(shard_id)
            storage = shard.host.storage
            for name, value in (
                ("wire_bytes", sum(
                    channel.bytes_sent
                    for channel in (*shard.up.values(), *shard.down.values())
                )),
                ("stored_bytes", storage.physical_bytes()),
                ("logical_bytes", storage.total_bytes()),
                ("state_blob_bytes", len(storage.load_version(storage.latest_index()))),
                ("batches", shard.dispatcher.batches),
                ("batch_items", shard.dispatcher.items),
                ("queue_depth_peak", shard.dispatcher.queue_depth_peak),
            ):
                counts[(name, shard_id, shard.generation)] = value
        return counts

    def counts(self) -> dict[str, float]:
        """Raw counts of the measured part (after the preload), plus the
        virtual shard-seconds the dispatchers had available."""
        counts: dict[str, float] = {}
        for key, value in self._raw_counts().items():
            name = key[0] if type(key) is tuple else key
            if name in PEAK_COUNTS:
                counts[name] = max(counts.get(name, 0), value)
            else:
                counts[name] = counts.get(name, 0) + value - self._baseline.get(key, 0)
        snapshot = self.cluster.metrics()
        counts["checker_events"] = sum(
            value for key, value in snapshot["counters"].items()
            if key.startswith("verifier.events")
        )
        counts["retained_records_peak"] = max(
            (value for key, value in snapshot["gauges"].items()
             if key.startswith("verifier.retained_records")),
            default=0,
        )
        counts["keys_moved"] = self.cluster.stats.keys_migrated
        counts["fence_virt_us"] = 1e6 * sum(
            summary["total"] for key, summary in snapshot["histograms"].items()
            if key.startswith("controlplane.plan_duration")
        )
        counts["shard_virt_s"] = self.elapsed * len(self.cluster.shard_ids)
        return counts


# -------------------------------------------------------------- generators


def make_value(tag: str, size: int) -> str:
    """A ``size``-byte value whose prefix names the PUT that wrote it."""
    head = f"{tag}:"
    return head + "x" * max(0, size - len(head))


def key_names(count: int) -> list[str]:
    return [f"k{index:04d}" for index in range(count)]


def mixed_plan(
    rng: random.Random,
    tag: str,
    count: int,
    keys: list[str],
    value_bytes: int,
    put_share: float,
    chooser: Callable[[], int] | None = None,
) -> list[tuple]:
    """``count`` single-key operations: uniform (or ``chooser``) keys,
    ``put_share`` PUTs with unique values."""
    plan = []
    for index in range(count):
        key = keys[chooser() if chooser else rng.randrange(len(keys))]
        if rng.random() < put_share:
            plan.append(put(key, make_value(f"{tag}-{index}", value_bytes)))
        else:
            plan.append(get(key))
    return plan


def finish(
    rep: Rep, session: Session, *, planned: int | None = None, reported: bool = True
) -> None:
    """Fold one measured session into the repetition.  ``planned`` is the
    fixed request count of a closed loop: requests a stalled client never
    got to issue were attempted too.  ``reported`` marks the session
    whose latencies the repetition reports (a ladder reports one of its
    cells), so the virtual latency split describes the same operations."""
    completed = session.completed()
    rep.attempted += len(session.done) if planned is None else planned
    rep.completed += completed
    rep.errors += session.errors
    rep.late_us = max(rep.late_us, session.late * 1e6)
    rep.wall_s += session.wall_s
    rep.nominal_s += session.nominal_s
    rep.cpu_s += session.cpu_s
    rep.add_counts(session.counts())
    if rep.started_at is None:
        rep.started_at = session.started_at
    rep.stage_records += session.stage_records
    if reported:
        rep.op_stamps += session.op_stamps
    if completed < len(session.done):
        rep.stuck = session.stuck_report()


def latency_metrics(rep: Rep, latencies: list[float], virt_elapsed: float) -> None:
    rep.samples = len(latencies)
    rep.metrics["virt_ops_per_s"] = len(latencies) / virt_elapsed if virt_elapsed else 0.0
    rep.metrics["virt_p50_us"] = quantile(latencies, 0.50)
    rep.metrics["virt_p99_us"] = quantile(latencies, 0.99)


def fold_failures(rep: Rep, scratch: Rep, what: str) -> None:
    """Carry a once-per-process pass's failed checks and requests over."""
    rep.problems.extend(scratch.problems)
    if scratch.failed or scratch.stuck:
        rep.problems.append(
            f"{what}: {scratch.failed} of {scratch.attempted} requests failed "
            f"{scratch.stuck or ''}"
        )


def closing_metrics(rep: Rep) -> None:
    rep.metrics["wall_ops_per_s"] = rep.completed / rep.nominal_s if rep.nominal_s else 0.0
    rep.metrics["wall_ops_per_s_raw"] = rep.completed / rep.wall_s if rep.wall_s else 0.0
    rep.metrics["failed_share"] = rep.failed / rep.attempted if rep.attempted else 1.0
    if rep.stuck:
        rep.problems.append(f"simulator drained with requests outstanding: {rep.stuck}")


# ---------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    params: dict[str, Any]
    run: Callable[[dict[str, Any], int, float, Instruments], Rep]
    #: work done once per process after the repetitions, outside the
    #: measuring time; folds extra metrics/counts/problems into a ``Rep``
    once: Callable[[dict[str, Any], int, float, Instruments, Rep], None] | None = None

    def __call__(
        self, seed: int, scale: float = 1.0, instruments: Instruments | None = None
    ) -> Rep:
        rep = self.run(self.params, seed, scale, instruments or Instruments())
        closing_metrics(rep)
        return rep

    def finish_process(
        self, seed: int, scale: float, instruments: Instruments, rep: Rep
    ) -> None:
        if self.once is not None:
            self.once(self.params, seed, scale, instruments, rep)


def ladder(
    params: dict, windows: dict[float, float], seed: int, scale: float,
    instruments: Instruments, rep: Rep,
) -> None:
    """Open-loop Poisson arrivals at each offered rate for its window
    (virtual seconds); one fresh cluster per rate.  Latency is timed from
    the scheduled arrival.  Sets the latency metrics from the report
    rate's cell and ``virt_max_rate_ops_s`` from all of them."""
    keys = key_names(params["keys"])
    clients = params["shards"] * params["clients_per_shard"]
    best_rate = 0.0
    for rate, full_window in windows.items():
        window = full_window * scale
        started = time.perf_counter()
        rng = random.Random(derive_seed(params["name"], "ops", rate, window, seed))
        arrivals = []
        due = 0.0
        while True:
            due += rng.expovariate(rate)
            if due >= window:
                break
            client_id = 1 + rng.randrange(clients)
            key = keys[rng.randrange(len(keys))]
            if rng.random() < params["put_share"]:
                value = make_value(f"r{len(arrivals)}", params["value_bytes"])
                arrivals.append((due, client_id, put(key, value)))
            else:
                arrivals.append((due, client_id, get(key)))
        generated = time.perf_counter() - started
        session = Session(
            f"{params['name']}@{rate}", seed, instruments,
            shards=params["shards"], clients=clients,
            batch_limit=params["batch_limit"],
        )
        session.preload(keys, params["value_bytes"])
        started = time.perf_counter()
        session.open_loop(arrivals)
        rep.schedule_s += generated + time.perf_counter() - started
        session.run()
        latencies = session.latencies_us()
        drain = session.elapsed - arrivals[-1][0]
        if (
            session.completed() == len(arrivals)
            and quantile(latencies, 0.99) <= P99_LIMIT_US
            and drain <= DRAIN_ALLOWANCE * window
        ):
            best_rate = max(best_rate, rate)
        rep.cells[rate] = (quantile(latencies, 0.50), quantile(latencies, 0.99))
        reported = rate == params["report_rate"]
        if reported:
            latency_metrics(rep, latencies, session.elapsed)
        finish(rep, session, reported=reported)
        session.check_verdict(rep.problems)
        session.read_back(rep.problems)
    rep.metrics["virt_max_rate_ops_s"] = best_rate
    if rep.late_us:
        rep.problems.append(f"load generator ran {rep.late_us} us late")


def run_open(params: dict, seed: int, scale: float, instruments: Instruments) -> Rep:
    """The timing ladder: short windows, repeated for host time."""
    rep = Rep()
    ladder(
        params, {rate: params["window_s"] for rate in params["rates"]},
        seed, scale, instruments, rep,
    )
    # the windows are too short for a p99; the latency pass reports them
    for metric in ("virt_ops_per_s", "virt_p50_us", "virt_p99_us", "virt_max_rate_ops_s"):
        del rep.metrics[metric]
    rep.cells.clear()
    return rep


def latency_pass(
    params: dict, seed: int, scale: float, instruments: Instruments, rep: Rep
) -> None:
    """Once per process: the same ladder with windows long enough for a
    tail (the virtual clock repeats exactly, so once is enough)."""
    scratch = Rep()
    untraced = Instruments(instruments.meter)
    ladder(params, params["latency_windows_s"], seed, scale, untraced, scratch)
    fold_failures(rep, scratch, "latency pass")
    rep.samples = scratch.samples
    rep.metrics.update(scratch.metrics)
    rep.cells = scratch.cells


def run_closed(params: dict, seed: int, scale: float, instruments: Instruments) -> Rep:
    """Closed loop: every client keeps exactly one request in flight."""
    rep = Rep()
    keys = key_names(params["keys"])
    clients = params["shards"] * params["clients_per_shard"]
    count = max(1, round(params["ops_per_client"] * scale))
    started = time.perf_counter()
    rng = random.Random(derive_seed(params["name"], "ops", seed))
    plans = {
        client_id: mixed_plan(
            rng, f"c{client_id}", count, keys,
            params["value_bytes"], params["put_share"],
        )
        for client_id in range(1, clients + 1)
    }
    rep.schedule_s = time.perf_counter() - started
    session = Session(
        params["name"], seed, instruments,
        shards=params["shards"], clients=clients,
        batch_limit=params["batch_limit"],
    )
    session.preload(keys, params["value_bytes"])
    session.closed_loop(plans)
    session.run()
    latency_metrics(rep, session.latencies_us(), session.elapsed)
    finish(rep, session, planned=clients * count)
    session.check_verdict(rep.problems)
    session.read_back(rep.problems)
    return rep


def run_txn(params: dict, seed: int, scale: float, instruments: Instruments) -> Rep:
    """Pipelined 2-key transactions beside closed-loop single-key clients
    on the same keys."""
    rep = Rep()
    keys = key_names(params["keys"])
    txn_count = max(1, round(params["txns_per_client"] * scale))
    single_count = max(1, round(params["singles_per_client"] * scale))
    started = time.perf_counter()
    rng = random.Random(derive_seed(params["name"], "ops", seed))
    txn_plans: dict[int, list[list[tuple]]] = {}
    single_plans: dict[int, list[tuple]] = {}
    for client_id in params["txn_clients"]:
        plan = []
        for index in range(txn_count):
            operations = []
            for slot, key_index in enumerate(rng.sample(range(len(keys)), 2)):
                if rng.random() < params["put_share"]:
                    value = make_value(f"t{client_id}-{index}-{slot}", params["value_bytes"])
                    operations.append(put(keys[key_index], value))
                else:
                    operations.append(get(keys[key_index]))
            plan.append(operations)
        txn_plans[client_id] = plan
    for client_id in params["single_clients"]:
        single_plans[client_id] = mixed_plan(
            rng, f"c{client_id}", single_count, keys,
            params["value_bytes"], params["put_share"],
        )
    rep.schedule_s = time.perf_counter() - started
    session = Session(
        params["name"], seed, instruments,
        shards=params["shards"], clients=params["clients"],
        batch_limit=params["batch_limit"],
    )
    session.preload(keys, params["value_bytes"])
    planned = 0
    for client_id, plan in txn_plans.items():
        planned += len(plan)
        session.pipeline(
            plan,
            lambda operations, then, client_id=client_id: session.submit_txn(
                client_id, operations, then
            ),
            depth=params["txn_depth"],
        )
    # The same-client mix (one client pipelining transactions *and*
    # single-key operations) stalls at HEAD -- see README "Findings".
    # Reproducer, kept for the PR that fixes it: give every client both
    # roles, i.e. txn_clients = single_clients = (1, ..., 8), keys=64,
    # txns_per_client=100, singles_per_client=200; the simulator then
    # drains with 719 of 2400 requests done, router.txn_waiter_depth = 8
    # and 19 prepares undecided (seed 0).
    planned += sum(len(plan) for plan in single_plans.values())
    session.closed_loop(single_plans)
    session.run()
    latency_metrics(rep, session.latencies_us(), session.elapsed)
    finish(rep, session, planned=planned)
    session.check_verdict(rep.problems)
    session.read_back(rep.problems)
    return rep


def elastic_session(
    params: dict, seed: int, scale: float, instruments: Instruments, rep: Rep
) -> Session:
    """The elastic segment: closed-loop YCSB-A while a shard is added,
    one removed, one crashed and recovered."""
    keys = key_names(params["keys"])
    clients = params["clients"]
    count = max(8, round(params["ops_per_client"] * scale))
    started = time.perf_counter()
    rng = random.Random(derive_seed(params["name"], "ops", seed))
    zipf = ScrambledZipfian(len(keys), seed=derive_seed(params["name"], "zipf", seed))
    plans = {
        client_id: mixed_plan(
            rng, f"c{client_id}", count, keys,
            params["value_bytes"], params["put_share"], chooser=zipf.next,
        )
        for client_id in range(1, clients + 1)
    }
    rep.schedule_s = time.perf_counter() - started
    session = Session(
        params["name"], seed, instruments,
        shards=params["shards"], clients=clients,
        batch_limit=params["batch_limit"], failover=True,
    )
    cluster = session.cluster
    session.preload(keys, params["value_bytes"])
    estimate = count * params["est_round_trip_s"]
    reports: dict[str, Any] = {}
    removed, crashed = params["remove_shard"], params["crash_shard"]

    def schedule(share: float, action: Callable[[], Any]) -> None:
        cluster.sim.schedule_at(
            session.origin + share * estimate, action, label="e2e-fault"
        )

    schedule(0.20, lambda: cluster.add_shard())
    schedule(0.45, lambda: reports.__setitem__("remove", cluster.remove_shard(removed)))
    schedule(0.70, lambda: cluster.crash_shard(crashed))
    schedule(0.85, lambda: reports.__setitem__("recover", cluster.recover_shard(crashed)))
    session.closed_loop(plans)
    session.run()
    latency_metrics(rep, session.latencies_us(), session.elapsed)
    finish(rep, session, planned=clients * count)
    for name, report in reports.items():
        if not report.completed:
            rep.problems.append(f"{name}_shard did not complete: {report.aborted}")
    stats = cluster.stats
    if stats.reshards != 2 or stats.recoveries != 1:
        rep.problems.append(
            f"expected 2 reshards + 1 recovery, saw {stats.reshards} + {stats.recoveries}"
        )
    recover = reports.get("recover")
    if recover is not None and recover.completed_at is not None:
        session.state_lost_before[crashed] = recover.completed_at
    session.check_verdict(rep.problems)
    session.read_back(rep.problems)
    return session


def run_faults(params: dict, seed: int, scale: float, instruments: Instruments) -> Rep:
    rep = Rep()
    elastic_session(params, seed, scale, instruments, rep)
    return rep


def audit_and_attacks(
    params: dict, seed: int, scale: float, instruments: Instruments, rep: Rep
) -> None:
    """Once per process: the post-mortem audit of one more (identical)
    elastic run, and the three scripted attacks.

    The audit is its own metric on this bounded history only:
    ``router.verdict()`` is super-quadratic in the history length, so it
    must not ride inside the repetitions of any workload."""
    scratch = Rep()
    untraced = Instruments(instruments.meter)
    session = elastic_session(params, seed, scale, untraced, scratch)
    fold_failures(rep, scratch, "audited elastic run")
    streaming = session.router.streaming_verdict()
    gc.collect()
    meter = instruments.meter
    first_sample = len(meter.samples)
    for _ in range(3):
        meter.sample()
    started = time.perf_counter()
    post = session.router.verdict()
    took = time.perf_counter() - started
    for _ in range(3):
        meter.sample()
    rep.metrics["audit_s"] = took * meter.speed(first_sample)
    rep.metrics["audit_s_raw"] = took
    diffs = parity_report(streaming, post)
    rep.counts["audit_ops"] = session.cluster.stats.operations_completed
    rep.counts["parity_diffs"] = len(diffs)
    if diffs or not post.ok:
        rep.problems.append(
            f"post-mortem and streaming verdicts disagree or flag: {diffs} {post.violations!r}"
        )
    detected, lags = [], []
    for attack in (attack_fork_join, attack_rollback, attack_withheld):
        flagged, lag = attack(seed, untraced, rep)
        detected.append(flagged)
        lags.append(lag)
    rep.metrics["detect_rate"] = sum(detected) / len(detected)
    rep.metrics["detect_lag_ops"] = float(max(lags))
    if not all(detected):
        rep.problems.append(f"attacks detected (fork, rollback, withheld): {detected}")


# ------------------------------------------------------------------ attacks


class _Alarm:
    """Counts the operations the attacked shard completes between the
    injection and the first alarm raised for it (a ``verifier.*`` event,
    or the ``shard-violation`` the enclave or a client raises itself)."""

    def __init__(self, session: Session, victim: int) -> None:
        self._session = session
        self._victim = victim
        self._at_injection: int | None = None
        self.lag: int | None = None
        session.cluster.metrics_registry.subscribe_events(self._on_event)

    def _served(self) -> int:
        return self._session.cluster.stats.per_shard_operations[self._victim]

    def injected(self) -> None:
        self._at_injection = self._served()

    def _on_event(self, event) -> None:
        if (
            self.lag is None
            and self._at_injection is not None
            and (event.name.startswith("verifier.") or event.name == "shard-violation")
            and event.fields.get("shard") == self._victim
        ):
            self.lag = self._served() - self._at_injection


def _owned_keys(session: Session, shard_id: int, count: int, prefix: str) -> list[str]:
    keys, index = [], 0
    while len(keys) < count:
        key = f"{prefix}{index}"
        if session.router.owner(get(key)) == shard_id:
            keys.append(key)
        index += 1
    return keys


def _judge(
    session: Session, victim: int, rep: Rep, *, txn: bool = False
) -> bool:
    """Both verdict pipelines flag the victim (or, for the withheld
    decision, the transaction), agree with each other, and flag no
    honest shard."""
    streaming = session.router.streaming_verdict()
    post = session.router.verdict()
    honest = [s for s in session.cluster.shard_ids if s != victim]
    false_alarms: list[str] = []
    session.check_verdict(false_alarms, honest=honest)
    false_alarms += [
        f"post-mortem flags honest shard {s}" for s in honest if not post.shards[s].ok
    ]
    rep.problems.extend(false_alarms)
    if txn:
        flagged = bool(streaming.txn_violations) and bool(post.txn_violations)
    else:
        flagged = not streaming.shards[victim].ok and not post.shards[victim].ok
    return flagged and not false_alarms and not parity_report(streaming, post)


def _attack_session(
    name: str, seed: int, instruments: Instruments, shards: int, victim: int
) -> Session:
    return Session(
        name, seed, instruments, shards=shards, clients=3, malicious=(victim,)
    )


def attack_fork_join(seed: int, instruments: Instruments, rep: Rep) -> tuple[bool, int]:
    """Fork the victim, serve client 3 from the fork, then join it back."""
    victim = 1
    session = _attack_session("attack-fork", seed, instruments, 3, victim)
    cluster, router = session.cluster, session.router
    keys = _owned_keys(session, victim, 4, "fork-")
    for client_id in cluster.client_ids:
        router.submit(client_id, put(keys[0], f"base-{client_id}"))
    cluster.run()
    alarm = _Alarm(session, victim)
    fork = cluster.fork_shard(victim)
    cluster.route_client(victim, 3, fork)
    alarm.injected()
    for round_index in range(4):
        router.submit(1, put(keys[1], f"main-{round_index}"))
        router.submit(2, put(keys[2], f"main-{round_index}"))
        router.submit(3, put(keys[3], f"fork-{round_index}"))
    cluster.run()
    cluster.route_client(victim, 3, 0)
    router.submit(3, get(keys[0]))
    cluster.run()
    return _judge(session, victim, rep), _lag(alarm, session, victim)


def attack_rollback(seed: int, instruments: Instruments, rep: Rep) -> tuple[bool, int]:
    """Restart the victim from a stale sealed state and route a client
    whose chain is already past it onto that instance."""
    victim = 0
    session = _attack_session("attack-rollback", seed, instruments, 2, victim)
    cluster, router = session.cluster, session.router
    keys = _owned_keys(session, victim, 2, "rb-")
    for round_index in range(3):  # one batch (= one sealed version) per op
        for client_id in cluster.client_ids:
            router.submit(client_id, put(keys[0], f"w{round_index}-{client_id}"))
            cluster.run()
    alarm = _Alarm(session, victim)
    versions = cluster.shard_host(victim).storage.version_count()
    stale = cluster.fork_shard(victim, from_version=versions - 4)
    cluster.route_client(victim, 3, stale)
    alarm.injected()
    router.submit(1, put(keys[1], "after"))
    router.submit(3, get(keys[0]))
    cluster.run()
    return _judge(session, victim, rep), _lag(alarm, session, victim)


def attack_withheld(seed: int, instruments: Instruments, rep: Rep) -> tuple[bool, int]:
    """Fork the victim between a transaction's decision and its delivery,
    so the forked instance keeps a prepare whose commit it never sees."""
    victim = 1
    session = _attack_session("attack-withheld", seed, instruments, 2, victim)
    cluster, router = session.cluster, session.router
    honest_key = _owned_keys(session, 0, 1, "wh-")[0]
    victim_keys = _owned_keys(session, victim, 2, "wh-")
    for key in (honest_key, *victim_keys):
        router.submit(1, put(key, "base"))
    cluster.run()
    alarm = _Alarm(session, victim)
    state: dict[str, Any] = {}

    def hook(phase, record) -> None:
        if phase == "decision-sent" and "fork" not in state:
            state["fork"] = cluster.fork_shard(victim)
            cluster.route_client(victim, 3, state["fork"])
            alarm.injected()

    router.txn_phase_hook = hook
    router.submit_txn(
        2, [put(honest_key, "T"), put(victim_keys[0], "T")],
        lambda result: state.__setitem__("result", result),
    )
    cluster.run()
    router.submit(3, put(victim_keys[1], "on-the-fork"))
    cluster.run()
    committed = "result" in state and state["result"].committed
    if not committed:
        rep.problems.append("withheld-decision scenario: transaction did not commit")
    return _judge(session, victim, rep, txn=True) and committed, _lag(alarm, session, victim)


def _lag(alarm: _Alarm, session: Session, victim: int) -> int:
    """Operations served before the alarm; every one served after the
    injection if no alarm was raised at all."""
    if alarm.lag is not None:
        return alarm.lag
    return session.cluster.stats.per_shard_operations[victim]


# ----------------------------------------------------------------- registry


def _workload(
    name: str, why: str, run: Callable, once: Callable | None = None, **params: Any
) -> Workload:
    return Workload(name, why, {"name": name, **params}, run, once)


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        _workload(
            "open_small",
            "open-loop Poisson at 20k/30k/36k ops/s on 2 shards, mean batch ~1.4: "
            "router, client, DES, observer and the batch-of-one ecall each hold "
            "10-30%; the only workload with a rate ladder",
            run_open, latency_pass,
            shards=2, clients_per_shard=6, batch_limit=16, keys=64,
            value_bytes=16, put_share=0.5, rates=(20000.0, 30000.0, 36000.0),
            report_rate=20000.0, window_s=0.05,
            latency_windows_s={20000.0: 0.5, 30000.0: 0.2, 36000.0: 0.2},
        ),
        _workload(
            "closed_batch",
            "closed loop, 1 shard x 32 clients, batch limit 32, mean batch ~16 "
            "(paper Fig. 5/6): per-batch layers amortised, per-op codec dominates; "
            "batch-formation changes predict no change here",
            run_closed,
            shards=1, clients_per_shard=32, batch_limit=32, keys=64,
            value_bytes=100, put_share=0.5, ops_per_client=200,
        ),
        _workload(
            "large_write",
            "closed loop, 2 shards x 6 clients, 128 keys x 4 KiB, 90% puts: state "
            "seal, storage delta and AEAD bytes dominate; router and DES under 10%",
            run_closed,
            shards=2, clients_per_shard=6, batch_limit=16, keys=128,
            value_bytes=4096, put_share=0.9, ops_per_client=100,
        ),
        _workload(
            "large_read",
            "same cluster and 4 KiB state as large_write, 95% gets: the seal and "
            "storage layers the other way round, so an incremental-seal gain that "
            "costs reads shows",
            run_closed,
            shards=2, clients_per_shard=6, batch_limit=16, keys=128,
            value_bytes=4096, put_share=0.05, ops_per_client=200,
        ),
        _workload(
            "txn_mix",
            "4 shards: clients 1-4 pipeline four 2-key transactions each, clients "
            "5-8 run single-key ops on the same 256 keys; 2PC coordinator, group "
            "commit, wound-wait and the decision log do most of the work",
            run_txn,
            shards=4, clients=8, batch_limit=16, keys=256, value_bytes=64,
            put_share=0.5, txn_clients=(1, 2, 3, 4), single_clients=(5, 6, 7, 8),
            txn_depth=4, txns_per_client=200, singles_per_client=400,
        ),
        _workload(
            "faults",
            "3 shards under add/remove/crash/recover with failover, then the "
            "post-mortem audit and three scripted attacks (fork, rollback, withheld "
            "decision): control plane, recovery and detection",
            run_faults, audit_and_attacks,
            shards=3, clients=16, batch_limit=16, keys=512, value_bytes=100,
            put_share=0.5, ops_per_client=200, est_round_trip_s=400e-6,
            remove_shard=1, crash_shard=0,
        ),
    )
}
