"""The full Fig. 3 architecture under virtual time.

Runs the *real* protocol implementation — AEAD, hash chains, the trusted
context, request batching — over the discrete-event network: every INVOKE
and REPLY is a message on a :class:`~repro.net.channel.Channel` with
latency and jitter, the server collects requests in the bounded batch
queue of Sec. 5.3 and enters the enclave once per batch, and clients are
event-driven :class:`~repro.core.async_client.AsyncLcmClient` machines.

This is the bridge between the functional layer (exact protocol, no time)
and the performance layer (time, abstract cost model): here concurrency,
reordering across clients, and batching effects act on the actual
cryptographic protocol, and the resulting executions can be fed to the
consistency checkers.
"""

from __future__ import annotations

from typing import Any

from repro.crypto.attestation import EpidGroup
from repro.consistency.history import History
from repro.core import Admin, make_lcm_program_factory
from repro.core.async_client import AsyncLcmClient
from repro.core.client import LcmResult
from repro.kvstore import KvsFunctionality
from repro.net.channel import Channel
from repro.net.latency import LatencyModel
from repro.net.simulation import Simulator
from repro.server import ServerHost
from repro.server.dispatch import GroupDispatcher
from repro.server.execution import make_execution_backend
from repro.tee import TeePlatform


class ClusterStats:
    """Counters the cluster keeps while running.

    Batch statistics delegate to the dispatcher's bounded
    :class:`~repro.server.batching.BatchSizeHistogram` (one source, O(1)
    memory over arbitrarily long runs — the old per-batch size list grew
    linearly).
    """

    def __init__(self, dispatcher: GroupDispatcher) -> None:
        self.operations_completed = 0
        self._dispatcher = dispatcher

    @property
    def batches(self) -> int:
        return self._dispatcher.batches

    @property
    def mean_batch_size(self) -> float:
        return self._dispatcher.histogram.mean

    @property
    def max_batch_size(self) -> int:
        return self._dispatcher.histogram.max_size

    @property
    def batch_size_histogram(self) -> dict[int, int]:
        """``{batch size: count}`` — the full (bounded) distribution."""
        return self._dispatcher.histogram.as_dict()


class SimulatedCluster:
    """One server + n clients over a simulated network.

    Parameters
    ----------
    clients:
        Number of clients (ids 1..n).
    batch_limit:
        Bounded batch queue size; batches also flush whenever the enclave
        is idle and requests are pending ("no more client requests
        available", Sec. 5.3).
    latency:
        Network model for both directions (default: LAN with jitter so
        interleavings are non-trivial but reproducible).
    execution:
        Execution-backend name (``"serial"`` | ``"threaded"``) for the
        batch ecall; ``None`` defers to ``REPRO_EXEC_BACKEND`` and the
        serial default.  The wire bytes and verdicts are identical under
        both backends (see :mod:`repro.server.execution`).
    """

    def __init__(
        self,
        clients: int = 3,
        *,
        functionality=KvsFunctionality,
        batch_limit: int = 16,
        latency: LatencyModel | None = None,
        audit: bool = True,
        seed: int = 0,
        execution: str | None = None,
    ) -> None:
        self.sim = Simulator()
        self._latency = latency or LatencyModel(
            propagation=200e-6, jitter_fraction=0.3, seed=seed
        )
        group = EpidGroup()
        platform = TeePlatform(group)
        factory = make_lcm_program_factory(functionality, audit=audit)
        self.host = ServerHost(platform, factory)
        admin = Admin(group.verifier(), TeePlatform.expected_measurement(factory))
        self.deployment = admin.bootstrap(
            self.host, client_ids=list(range(1, clients + 1))
        )
        self.history = History()
        self._history_tokens: dict[int, list[int]] = {i: [] for i in range(1, clients + 1)}

        # --- wiring: per-client up/down channels + the shared dispatcher --
        self._up: dict[int, Channel] = {}
        self._down: dict[int, Channel] = {}
        self.execution = make_execution_backend(execution)
        self.dispatcher = GroupDispatcher(
            sim=self.sim,
            send_batch=self.host.send_invoke_batch,
            deliver=self._deliver,
            batch_limit=batch_limit,
            label="enclave-batch",
            execution=self.execution,
        )
        self.stats = ClusterStats(self.dispatcher)
        self.clients: dict[int, AsyncLcmClient] = {}

        for client_id in range(1, clients + 1):
            up = Channel(f"c{client_id}->s", sim=self.sim, latency=self._latency)
            down = Channel(f"s->c{client_id}", sim=self.sim, latency=self._latency)
            up.connect(self._make_server_ingress(client_id))
            client = AsyncLcmClient(
                client_id,
                self.deployment.communication_key,
                send=up.send,
            )
            down.connect(client.on_reply)
            self._up[client_id] = up
            self._down[client_id] = down
            self.clients[client_id] = client

    # ------------------------------------------------------------- serving

    def _make_server_ingress(self, client_id: int):
        dispatcher = self.dispatcher

        def ingress(message: bytes) -> None:
            dispatcher.enqueue(client_id, message)

        return ingress

    def _deliver(self, client_id: int, reply: bytes) -> None:
        self._down[client_id].send(reply)

    # ------------------------------------------------------------ workload

    def submit(self, client_id: int, operation: Any) -> None:
        """Queue one operation for a client (runs when the sim runs)."""
        token = self.history.invoke(client_id, operation)

        def complete(result: LcmResult) -> None:
            self.history.respond(token, result.result, sequence=result.sequence)
            self.stats.operations_completed += 1

        self.clients[client_id].invoke(operation, complete)

    def run(self, max_events: int | None = None) -> None:
        """Drive the simulation until all submitted work completes."""
        self.sim.run(max_events=max_events)

    def audit_log(self):
        return self.host.enclave.ecall("export_audit_log", None)

    def check_fork_linearizable(self):
        """Validate the execution with the offline checker."""
        from repro.consistency import check_cluster_execution
        from repro.kvstore import KvsFunctionality as Kvs

        return check_cluster_execution(
            [self.audit_log()], self.clients, self.history, Kvs()
        )
