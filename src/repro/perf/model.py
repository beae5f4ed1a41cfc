"""Closed-loop throughput model for the evaluation figures.

The model reproduces the paper's measurement setup: ``n`` closed-loop
YCSB clients (zero think time) drive one server over a simulated LAN; a
measurement window counts completed operations per simulated second.
The server thread is the cluster's own batch loop, a
:class:`~repro.server.dispatch.GroupDispatcher`, priced per batch by
:func:`service_time` over the :class:`~repro.perf.costs.CostModel`.

Pipeline per system (Fig. 3):

``native``    client -> net -> stunnel decrypt (worker pool) -> server
              thread (frontend + op + snapshot write) -> stunnel encrypt ->
              net -> client.
``redis``     like native, but persistence is an append log with *group
              commit*: the single-threaded event loop drains its queue and
              all pending writes share one fsync.
``sgx``       client -> net -> server thread (frontend + ecall + in-enclave
              decrypt/execute/encrypt + seal + store) -> net -> client.
``sgx_batch`` same, but the thread drains up to B queued requests into one
              ecall; ecall, seal and store are paid once per batch.
``lcm``       sgx plus hash chain, V-map/stability updates and the larger
              sealed protocol state.
``lcm_batch`` lcm with batching (the store amortises, per-op work stays).
``sgx_tmc``   sgx plus one trusted-monotonic-counter increment per store.

All service stages of the single-threaded server (including blocking fsync
and the TMC increment, which the enclave waits on) occupy the server
thread, which is what makes the saturation behaviour emerge rather than
being hard-coded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigurationError
from repro.net.simulation import Simulator, WorkerPool
from repro.perf.costs import CostModel
from repro.server.dispatch import GroupDispatcher


@dataclass(frozen=True)
class SystemSpec:
    """Static description of one benchmarked system."""

    name: str
    enclave: bool
    lcm: bool = False
    batch_limit: int | None = None     # None: one request per ecall/iteration
    tmc: bool = False
    stunnel: bool = False
    group_commit: bool = False         # drain-the-queue batching (Redis AOF)


SYSTEMS: dict[str, SystemSpec] = {
    "native": SystemSpec("native", enclave=False, stunnel=True),
    "redis": SystemSpec("redis", enclave=False, stunnel=True, group_commit=True),
    "sgx": SystemSpec("sgx", enclave=True),
    "sgx_batch": SystemSpec("sgx_batch", enclave=True, batch_limit=16),
    "lcm": SystemSpec("lcm", enclave=True, lcm=True),
    "lcm_batch": SystemSpec("lcm_batch", enclave=True, lcm=True, batch_limit=16),
    "sgx_tmc": SystemSpec("sgx_tmc", enclave=True, tmc=True),
}


def service_time(
    spec: SystemSpec, costs: CostModel, object_size: int, *, fsync: bool
) -> Callable[[int], float]:
    """The server thread's price of one batch: batch size -> total
    occupancy in virtual seconds."""
    z = object_size
    per_op = costs.frontend_per_request + costs.kvs_op_time
    per_batch = 0.0

    if spec.enclave:
        request_bytes = costs.geometry.request_bytes(z, lcm=spec.lcm)
        reply_bytes = costs.geometry.reply_bytes(z, lcm=spec.lcm)
        per_op += costs.enclave_crypto_time(request_bytes)
        per_op += costs.enclave_crypto_time(reply_bytes)
        # one ecall + one sealed store per batch (Sec. 5.2 optimisation);
        # without batching the batch size is 1, i.e. per request.
        per_batch += costs.ecall_overhead
        per_batch += costs.state_seal_time(z)
        if spec.lcm:
            per_op += costs.lcm_hash_chain_time + costs.lcm_v_update_time
            per_batch += costs.lcm_state_seal_extra
        if spec.tmc:
            per_batch += costs.tmc_increment_latency
        # the seal hands StableStorage only the pieces it rewrote, so
        # the steady-state store hits the disk with those bytes only
        write_time = costs.disk.write_time(costs.sealed_store_bytes(z), fsync=fsync)
        if spec.lcm and fsync:
            write_time *= costs.lcm_sync_write_factor
        per_batch += write_time
    elif spec.group_commit:
        # Native / Redis persistence on the server thread.  Half the
        # YCSB-A requests are writes; the log flush is shared by the whole
        # drained queue.
        per_batch += costs.disk.write_time(64 + z, fsync=fsync)

        def group_commit(batch_size: int) -> float:
            writes = max(1, batch_size // 2)
            bookkeeping = (writes / batch_size) * 1e-6  # log append
            return (per_op + bookkeeping) * batch_size + per_batch

        return group_commit
    else:
        per_op += costs.disk.write_time(128 + z, fsync=fsync)

    return lambda batch_size: per_op * batch_size + per_batch


@dataclass
class ThroughputResult:
    """Outcome of one measurement run."""

    system: str
    clients: int
    object_size: int
    fsync: bool
    operations: int
    window: float

    @property
    def ops_per_second(self) -> float:
        return self.operations / self.window


def measure_throughput(
    system: str | SystemSpec,
    *,
    clients: int,
    object_size: int = 100,
    fsync: bool = False,
    costs: CostModel | None = None,
    duration: float | None = None,
    warmup: float | None = None,
) -> ThroughputResult:
    """Run one closed-loop measurement and return the throughput.

    ``duration``/``warmup`` default to windows adapted to the system's
    expected rate (the TMC system needs several simulated seconds to
    complete a handful of operations).
    """
    spec = SYSTEMS[system] if isinstance(system, str) else system
    if clients < 1:
        raise ConfigurationError("need at least one client")
    costs = costs or CostModel()
    if duration is None:
        duration = 20.0 if spec.tmc else (4.0 if fsync else 0.8)
    if warmup is None:
        warmup = duration / 4.0
    if duration <= 0 or warmup < 0:
        raise ConfigurationError(
            f"need duration > 0 and warmup >= 0 (got {duration}, {warmup})"
        )

    sim = Simulator()
    # A queued request is its own reply continuation: the batch "replies"
    # by handing the continuations back and delivery calls each one.  A
    # closed loop never queues more than one request per client, so a
    # limit of ``clients`` drains the whole queue (Redis' group commit).
    server = GroupDispatcher(
        sim=sim,
        send_batch=lambda batch: [reply for _, reply in batch],
        deliver=lambda _client, reply: reply(),
        batch_limit=clients if spec.group_commit else spec.batch_limit or 1,
        label=f"{spec.name}:batch",
        service_time=service_time(spec, costs, object_size, fsync=fsync),
    )
    stunnel = (
        WorkerPool(sim, costs.stunnel_workers, "stunnel") if spec.stunnel else None
    )
    geometry = costs.geometry
    request_bytes = geometry.request_bytes(object_size, lcm=spec.lcm)
    reply_bytes = geometry.reply_bytes(object_size, lcm=spec.lcm)
    completed = {"count": 0}
    window_start = warmup
    window_end = warmup + duration

    # Client-side crypto runs on the YCSB client thread for the enclave
    # systems (JCE), but in separate Stunnel processes for Native/Redis —
    # it adds latency to the enclave paths without using server capacity.
    client_side = costs.client_crypto_latency if spec.enclave else 0.0

    def client_loop(client: int) -> None:
        # request travels to the server...
        delay_up = client_side + costs.latency.one_way(request_bytes)

        def reach_server() -> None:
            if stunnel is not None:
                stunnel.acquire_for(
                    costs.host_crypto_time(request_bytes),
                    lambda: server.enqueue(client, reply_path),
                )
            else:
                server.enqueue(client, reply_path)

        def reply_path() -> None:
            # server finished; reply crypto (stunnel) then network back.
            def reply_to_client() -> None:
                delay_down = costs.latency.one_way(reply_bytes)

                def complete() -> None:
                    if window_start <= sim.now <= window_end:
                        completed["count"] += 1
                    if sim.now < window_end:
                        client_loop(client)

                sim.schedule(delay_down, complete)

            if stunnel is not None:
                stunnel.acquire_for(
                    costs.host_crypto_time(reply_bytes), reply_to_client
                )
            else:
                reply_to_client()

        sim.schedule(delay_up, reach_server)

    for client in range(clients):
        client_loop(client)
    sim.run_until(window_end)

    return ThroughputResult(
        system=spec.name,
        clients=clients,
        object_size=object_size,
        fsync=fsync,
        operations=completed["count"],
        window=duration,
    )
