"""N independent LCM groups over one discrete-event simulator.

Each *shard* is a complete Fig. 3 deployment — its own
:class:`~repro.tee.platform.TeePlatform`, :class:`~repro.server.ServerHost`
with sealed storage, bounded batch queue, and per-client
:class:`~repro.core.async_client.AsyncLcmClient` machines — bootstrapped by
its own admin with its own key set.  A consistent-hash ring
(:class:`~repro.sharding.partitioner.HashRing`) assigns every key to
exactly one shard, so the compound system serves a partitioned keyspace
while every shard individually retains LCM's rollback/forking detection.

Shards share nothing but the virtual clock: an attack on one shard (or its
rebalancing) never blocks the others, which is what makes aggregate
throughput scale with the shard count (the per-group enclave is the
single-threaded bottleneck of Sec. 6.4).

Rebalancing
-----------
``rebalance(shard_id)`` moves a shard's key range onto fresh hardware by
driving the paper's migration machinery (Sec. 4.6.2 /
:mod:`repro.core.migration`): a new platform + host pair is stood up, the
origin context attests it and hands over ``(kP, kC, kA, s, V)`` through the
attested DH channel, and the origin permanently stops serving.  Clients are
untouched — their ``(tc, hc)`` still verify against the migrated ``V`` — so
rollback and forking detection hold *through* the resharding event.  If the
shard's enclave is mid-batch the request is deferred until the batch
completes, mirroring "T stops processing requests" only at a batch
boundary.

Adversarial shards
------------------
``malicious_shards`` provisions chosen shards on a
:class:`~repro.server.MaliciousServer` so attack tests can fork or roll
back *one* shard while the rest stay honest; violations detected during
the run (by a shard's context or by a client) are recorded per shard
instead of aborting the simulation, letting the router attribute the
failure.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.consistency.history import History
from repro.core import Admin, make_lcm_program_factory, migrate
from repro.core.async_client import AsyncLcmClient
from repro.core.context import AuditRecord
from repro.crypto.attestation import EpidGroup
from repro.errors import ConfigurationError, LCMError, SecurityViolation
from repro.kvstore import KvsFunctionality
from repro.net.channel import Channel
from repro.net.latency import LatencyModel
from repro.net.simulation import ENCLAVE_SERVICE_INTERVAL, Simulator
from repro.obs import MetricsRegistry, SpanTracer, StageProbe
from repro.server import MaliciousServer, ServerHost
from repro.server.dispatch import GroupDispatcher
from repro.sharding.observer import ClusterObserver
from repro.sharding.partitioner import HashRing
from repro.tee import TeePlatform


class SerialBackend:
    """The seam every shard's batch ecall passes through exactly once.

    ``submit(work)`` runs the ecall inline on the caller's thread and
    returns its replies; exceptions (including the protocol's
    :class:`~repro.errors.SecurityViolation` halts) raise out of it.  It
    is an object with a class-level ``submit`` because instrumentation
    installed from outside wraps that method to time the ecall
    (``benchmarks/e2e/spans.py``).
    """

    def __init__(self) -> None:
        #: batches handed through (plain int — the cluster's
        #: snapshot-time collector mirrors it into a registry gauge)
        self.batches_submitted = 0

    def submit(self, work: Callable[[], list]) -> list:
        self.batches_submitted += 1
        return work()


class ShardedStats:
    """Aggregate and per-shard counters kept while the cluster runs.

    Per-shard batch counts delegate to each shard dispatcher's bounded
    :class:`~repro.server.batching.BatchSizeHistogram`, the single source
    of batch statistics."""

    def __init__(self, dispatchers: dict[int, GroupDispatcher]) -> None:
        self.operations_completed = 0
        self.rebalances = 0
        self.reshards = 0          # completed add/remove ring changes
        self.recoveries = 0        # completed generation bumps
        self.keys_migrated = 0     # keys handed off between live groups
        self.per_shard_operations = {shard_id: 0 for shard_id in dispatchers}
        self._dispatchers = dict(dispatchers)

    def register_shard(self, shard_id: int, dispatcher: GroupDispatcher) -> None:
        """Track a shard added (or re-provisioned) at runtime.  Historical
        per-shard counters survive a recovery — they describe the shard
        id, not one hardware generation."""
        self.per_shard_operations.setdefault(shard_id, 0)
        self._dispatchers[shard_id] = dispatcher

    @property
    def per_shard_batches(self) -> dict[int, int]:
        return {
            shard_id: dispatcher.batches
            for shard_id, dispatcher in self._dispatchers.items()
        }

    def batch_size_histogram(self, shard_id: int) -> dict[int, int]:
        """One shard's ``{batch size: count}`` distribution (bounded)."""
        dispatcher = self._dispatchers.get(shard_id)
        return dispatcher.histogram.as_dict() if dispatcher else {}

    def mean_batch_size(self, shard_id: int) -> float:
        """Completed operations per enclave batch on one shard (the
        emergent Sec. 5.3 batching, per group)."""
        dispatcher = self._dispatchers.get(shard_id)
        if dispatcher is None or not dispatcher.batches:
            return 0.0
        return self.per_shard_operations.get(shard_id, 0) / dispatcher.batches


@dataclass
class _Fork:
    """One forked enclave instance of a malicious shard, plus the log
    prefix the primary had executed when the fork was seeded (the global
    observer's reconstruction, as in the attack tests)."""

    instance_index: int
    log_prefix: list[AuditRecord]


@dataclass(frozen=True)
class FrozenClientPoint:
    """One retired client machine's final observed ``(t, h)`` point —
    the only part of the machine the offline checkers read.  Retiring
    just the point (instead of the machine) lets the dead generation's
    host/channel/dispatcher graph be garbage collected."""

    last_sequence: int
    last_chain: bytes


@dataclass
class GenerationEvidence:
    """Frozen fork-linearizability evidence of one retired shard
    generation (a removed shard, or the pre-recovery life of a shard).

    ``logs`` is ``None`` when the generation died holding a live
    violation (the enclave refuses exports once halted — the violation
    *is* the evidence) or when the cluster does not run in audit mode.
    ``clients`` hold each client machine's final ``(t, h)`` point,
    frozen at retirement (the links were drained first, so no late
    reply can advance them); they anchor the checker exactly as the
    live machines would.
    """

    shard_id: int
    generation: int
    logs: list[list[AuditRecord]] | None
    clients: dict[int, FrozenClientPoint]
    history: History
    violation: LCMError | None = None


class _Shard:
    """Runtime state of one LCM group generation inside the cluster."""

    def __init__(self, shard_id: int, generation: int = 0) -> None:
        self.shard_id = shard_id
        self.generation = generation
        self.platform: TeePlatform | None = None
        self.host: Any = None
        self.deployment = None
        self.history = History()
        self.clients: dict[int, AsyncLcmClient] = {}
        self.up: dict[int, Channel] = {}
        self.down: dict[int, Channel] = {}
        self.dispatcher: GroupDispatcher | None = None
        self.rebalance_requested = False
        #: stage record of the most recent batch ecall (tracing only) —
        #: written by the cluster's send_batch wrapper, read at the
        #: delivery event
        self.last_batch_stages: dict | None = None
        self.violation: SecurityViolation | None = None
        self.crashed = False
        self.crash_logs: list[list[AuditRecord]] | None = None
        self.audit_prefix: list[AuditRecord] = []  # from migrated-out origins
        self.retired_hosts: list[Any] = []
        self.forks: list[_Fork] = []

    @property
    def enclave_busy(self) -> bool:
        return self.dispatcher.busy

    @property
    def healthy(self) -> bool:
        """False once a violation was detected on this shard or its
        hardware crashed; either way the dispatcher is halted."""
        return self.violation is None and not self.crashed

    @property
    def drained(self) -> bool:
        """True when nothing is moving anywhere on this shard: enclave
        idle, batch queue empty, every client machine idle with an empty
        internal queue, and no message in flight on any link.  The
        control plane's quiescence condition (a batch boundary with
        nothing pending)."""
        dispatcher = self.dispatcher
        if dispatcher.busy or dispatcher.pending:
            return False
        for machine in self.clients.values():
            if machine.busy or machine.queued:
                return False
        return self.links_drained

    @property
    def links_drained(self) -> bool:
        """True when no INVOKE or REPLY is in flight on this shard's
        channels (the weaker recovery barrier: a dead shard never goes
        fully ``drained``, but its wire eventually empties)."""
        for channel in self.up.values():
            if channel.pending:
                return False
        for channel in self.down.values():
            if channel.pending:
                return False
        return True


class ShardedCluster:
    """``shards`` LCM groups + ``clients`` logical clients, one keyspace.

    Every logical client id is provisioned in *every* group (sequence
    numbers and hash chains are per-group protocol state, so each
    (client, shard) pair runs its own Alg. 1 machine); the
    :class:`~repro.sharding.router.ShardRouter` facade picks the machine
    matching a key's owning shard.

    Parameters
    ----------
    shards, clients:
        Number of LCM groups and of logical clients (ids 1..n).
    virtual_nodes:
        Ring smoothness knob, see :class:`HashRing`.
    batch_limit:
        Per-shard bounded batch queue size (Sec. 5.3).
    malicious_shards:
        Shard ids provisioned on a :class:`MaliciousServer` (attack tests).
    streaming:
        Run the streaming verifier (:mod:`repro.sharding.observer`)
        alongside the cluster, harvesting audit evidence at every batch
        boundary.  Defaults to the ``audit`` flag; pass ``False`` to opt
        out (e.g. throughput benchmarks).  Requires audit mode either
        way — without evidence there is nothing to stream.
    tracing:
        Record per-request :class:`~repro.obs.tracing.Span` objects
        (submit → delivery → completion) in :attr:`tracer`.  Off by
        default; spans cost one dict hit per reply when enabled.  With
        tracing on, every shard's invoke batches additionally report
        enclave-depth stage timings (measured inside the ecall via a
        :class:`~repro.obs.tracing.StageProbe`) that the tracer joins to
        each span at its delivery event.
    """

    #: Virtual enclave service time per request in a batch (the shared
    #: virtual-clock constant); harness code estimating run length (e.g.
    #: a mid-run rebalance point) must use this rather than hardcode its
    #: own copy.
    SERVICE_INTERVAL = ENCLAVE_SERVICE_INTERVAL

    def __init__(
        self,
        shards: int = 4,
        clients: int = 4,
        *,
        functionality: Callable[[], Any] = KvsFunctionality,
        virtual_nodes: int = 64,
        batch_limit: int = 16,
        latency: LatencyModel | None = None,
        audit: bool = True,
        seed: int = 0,
        malicious_shards: tuple[int, ...] = (),
        streaming: bool | None = None,
        tracing: bool = False,
    ) -> None:
        if shards < 1:
            raise ConfigurationError("need at least one shard")
        if clients < 1:
            raise ConfigurationError("need at least one client")
        unknown = [s for s in malicious_shards if not 0 <= s < shards]
        if unknown:
            raise ConfigurationError(f"malicious shard ids out of range: {unknown}")
        self.sim = Simulator()
        self.ring = HashRing(range(shards), virtual_nodes=virtual_nodes)
        self.group = EpidGroup()
        self._functionality = functionality
        self._audit = audit
        self._batch_limit = batch_limit
        self._virtual_nodes = virtual_nodes
        self._seed = seed
        self._latency = latency or LatencyModel(
            propagation=200e-6, jitter_fraction=0.3, seed=seed
        )
        #: enclave-depth stage probe (tracing opt-in): the factory-held
        #: probe reaches every program object a platform ever creates —
        #: initial bootstrap, rebalance target, recovered generation
        #: (see :class:`~repro.obs.tracing.StageProbe`)
        self._stage_probe = StageProbe() if tracing else None
        self._factory = make_lcm_program_factory(
            functionality, audit=audit, stage_probe=self._stage_probe
        )
        self._client_ids = list(range(1, clients + 1))
        #: every shard's batch ecall runs inline through this one object
        self.execution = SerialBackend()
        #: next platform seed serial per shard id — every TeePlatform a
        #: shard id ever gets (initial, rebalance target, recovered
        #: generation) consumes one, so sealing keys never repeat.
        self._hardware_serials: dict[int, int] = {}
        self._next_shard_id = shards
        self._retired: list[GenerationEvidence] = []
        self._fenced: set[int] = set()
        self._reconfig_listeners: list[Callable[[str, tuple[int, ...]], None]] = []
        if streaming and not audit:
            raise ConfigurationError(
                "streaming verification needs a cluster in audit mode"
            )
        #: the unified observability plane: counters/gauges/histograms on
        #: the simulator's virtual clock, optional per-request spans, and
        #: the streaming verifier (on by default whenever audit evidence
        #: exists; ``streaming=False`` opts out, e.g. for benchmarks)
        self.metrics_registry = MetricsRegistry(clock=lambda: self.sim.now)
        self.tracer = SpanTracer(clock=lambda: self.sim.now, enabled=tracing)
        self.observer = ClusterObserver(
            self,
            registry=self.metrics_registry,
            enabled=audit if streaming is None else (streaming and audit),
        )
        self.metrics_registry.register_collector(self._collect_stats)
        self._shards: dict[int, _Shard] = {
            shard_id: self._provision_shard(
                shard_id, malicious=shard_id in malicious_shards
            )
            for shard_id in range(shards)
        }
        self.stats = ShardedStats(
            {
                shard.shard_id: shard.dispatcher
                for shard in self._shards.values()
            }
        )
        from repro.sharding.controlplane import ControlPlane

        self.control = ControlPlane(self)

    # --------------------------------------------------------- provisioning

    def _platform_seed(self, shard_id: int, generation: int) -> int:
        """Collision-free platform seed per (shard, hardware generation):
        arithmetic formulas (``seed*k + shard``) collide across streams as
        shard counts grow, and equal seeds would mean equal sealing keys
        on two live shards."""
        material = f"{self._seed}:{shard_id}:{generation}".encode()
        # 56 bits: TeePlatform packs the seed as a signed 64-bit int
        return int.from_bytes(hashlib.sha256(material).digest()[:7], "big")

    def _next_serial(self, shard_id: int) -> int:
        serial = self._hardware_serials.get(shard_id, 0)
        self._hardware_serials[shard_id] = serial + 1
        return serial

    def _provision_shard(
        self, shard_id: int, *, malicious: bool, generation: int = 0
    ) -> _Shard:
        shard = _Shard(shard_id, generation)
        seed = self._platform_seed(shard_id, self._next_serial(shard_id))
        shard.platform = TeePlatform(self.group, seed=seed)
        if malicious:
            shard.host = MaliciousServer(shard.platform, self._factory)
        else:
            shard.host = ServerHost(shard.platform, self._factory)
        # the admin's keys come from the same seed as the platform, so a
        # run's sealed bytes, and what storage retains of them, repeat
        # exactly for one cluster seed
        admin = Admin(
            self.group.verifier(),
            TeePlatform.expected_measurement(self._factory),
            rng=random.Random(f"lcm-admin:{seed}").randbytes,
        )
        shard.deployment = admin.bootstrap(shard.host, client_ids=self._client_ids)
        if self.tracer.enabled:
            def deliver(client_id: int, reply: bytes, shard=shard) -> None:
                self.tracer.delivered(
                    shard.shard_id,
                    client_id,
                    shard.dispatcher.delivering_batch_size,
                    stages=shard.last_batch_stages,
                )
                shard.down[client_id].send(reply)
        else:
            def deliver(client_id: int, reply: bytes, shard=shard) -> None:
                shard.down[client_id].send(reply)
        shard.dispatcher = GroupDispatcher(
            sim=self.sim,
            send_batch=lambda batch, shard=shard: self.execution.submit(
                lambda: self._send_batch(shard, batch)
            ),
            deliver=deliver,
            batch_limit=self._batch_limit,
            label=f"shard{shard_id}-batch",
            service_time=lambda batch_size: self.SERVICE_INTERVAL * batch_size,
            on_violation=lambda violation, shard=shard: self._record_violation(
                shard, violation
            ),
            on_idle=lambda shard=shard: self._at_batch_boundary(shard),
            on_batch_complete=self._make_batch_complete(shard),
            boundary_gate=lambda shard=shard: self._txn_boundary_clear(shard),
        )
        for client_id in self._client_ids:
            up = Channel(
                f"c{client_id}->s{shard_id}", sim=self.sim, latency=self._latency
            )
            down = Channel(
                f"s{shard_id}->c{client_id}", sim=self.sim, latency=self._latency
            )
            up.connect(self._make_ingress(shard, client_id))
            client = AsyncLcmClient(
                client_id, shard.deployment.communication_key, send=up.send
            )
            down.connect(self._make_reply_handler(shard, client))
            shard.up[client_id] = up
            shard.down[client_id] = down
            shard.clients[client_id] = client
        self.observer.on_provisioned(shard)
        return shard

    def _make_batch_complete(self, shard: _Shard):
        """The dispatcher's batch-complete hook: the streaming verifier
        harvests the evidence of the batch that just delivered.  ``None``
        when streaming is off — the dispatcher skips the call entirely.
        The hook looks ``on_batch_boundary`` up at call time, so a
        wrapper patched onto the observer's class still sees every
        boundary."""
        if self.observer.enabled:
            return lambda size, shard=shard: self.observer.on_batch_boundary(shard)
        return None

    # -------------------------------------------------------------- serving

    def _make_ingress(self, shard: _Shard, client_id: int):
        dispatcher = shard.dispatcher

        def ingress(message: bytes) -> None:
            dispatcher.enqueue(client_id, message)

        return ingress

    def _make_reply_handler(self, shard: _Shard, client: AsyncLcmClient):
        def on_reply(reply_box: bytes) -> None:
            try:
                client.on_reply(reply_box)
            except SecurityViolation as violation:
                # client-side detection (forked/rolled-back reply): record
                # it against this shard; the rest of the cluster keeps going
                self._record_violation(shard, violation)

        return on_reply

    def _record_violation(
        self, shard: _Shard, violation: SecurityViolation
    ) -> None:
        """Attribute a detected violation to its shard and stop its
        dispatcher; pending requests stay queued, the rest of the cluster
        keeps going."""
        if shard.violation is None:
            shard.violation = violation
            self.metrics_registry.counter(
                "cluster.violations", shard=str(shard.shard_id)
            ).inc()
            self.metrics_registry.emit(
                "shard-violation",
                shard=shard.shard_id,
                generation=shard.generation,
                violation=repr(violation),
            )
        shard.dispatcher.halt()
        self.observer.on_violation(shard)

    def _txn_boundary_clear(self, shard: _Shard) -> bool:
        """Dispatcher boundary gate: an enclave-idle moment between a
        transaction's prepare and its decision is not a cuttable batch
        boundary (see :class:`~repro.server.dispatch.GroupDispatcher`).
        The only boundary action this cluster runs is a deferred
        rebalance, so the gate is a constant-time open unless one is
        actually pending — the txn_status ecall stays off the per-batch
        path.  A halted or crashed shard gates open — its boundary hooks
        are moot and its enclave refuses ecalls anyway."""
        if not shard.rebalance_requested:
            return True
        if not shard.healthy:
            return True
        try:
            status = shard.host.enclave.ecall("txn_status", None)
        except LCMError:
            return True
        return not status["pending"] and not status.get("waiting")

    def shard_txn_pending(self, shard_id: int) -> int:
        """Prepared-but-undecided transactions on one shard (0 for a
        down shard — nothing can drain there).  The control plane's
        quiescence barrier refuses to hand arcs off while this is
        non-zero; the keys a pending decision addresses are unmovable."""
        shard = self._shards.get(shard_id)
        if shard is None or not shard.healthy:
            return 0
        try:
            status = shard.host.enclave.ecall("txn_status", None)
        except LCMError:
            return 0
        return len(status["pending"]) + len(status.get("waiting", ()))

    def _at_batch_boundary(self, shard: _Shard) -> None:
        """Dispatcher idle hook: run a deferred rebalance, if any."""
        if shard.rebalance_requested:
            shard.rebalance_requested = False
            if shard.healthy and not shard.forks:
                self._do_rebalance(shard)
            # else: the shard halted or forked while the request was
            # deferred — abandon the move (the violation/fork evidence
            # is already attributed to the shard)

    def _send_batch(self, shard: _Shard, batch: list[tuple[int, bytes]]) -> list[bytes]:
        # send_invoke_batch is part of the required host transport
        # surface (MaliciousServer fans its batches out per routed
        # instance internally)
        replies = shard.host.send_invoke_batch(batch)
        probe = self._stage_probe
        if probe is not None:
            # take the ecall's stage record and park it on the shard for
            # the delivery event to read.  A MaliciousServer fans one
            # batch into several per-instance ecalls; the last
            # sub-batch's record wins, which is fine — a forked shard's
            # spans are evidence of the attack, not a timing source.
            shard.last_batch_stages = probe.take()
        return replies

    # ----------------------------------------------------------- rebalancing

    def rebalance(self, shard_id: int) -> bool:
        """Move one shard's key range onto fresh hardware via migration.

        Runs immediately when the shard's enclave is idle; otherwise the
        request is deferred to the next batch boundary.  Returns True if
        the migration ran synchronously.  A deferred request is abandoned
        if the shard halts on a violation (or grows forked instances)
        before the boundary — the same states this method raises
        :class:`ConfigurationError` for synchronously; watch
        ``stats.rebalances`` (and :meth:`shard_violation`) to tell whether
        a deferred move actually ran.
        """
        shard = self.shard(shard_id)
        if not shard.healthy:
            cause = repr(shard.violation) if shard.violation else "crashed"
            raise ConfigurationError(
                f"shard {shard_id} is down ({cause}); not rebalancing"
            )
        if shard.enclave_busy:
            shard.rebalance_requested = True
            return False
        self._do_rebalance(shard)
        return True

    def schedule_rebalance(self, delay: float, shard_id: int) -> None:
        """Request a rebalance at a virtual-time offset (mid-workload).

        Runs immediately when the shard's enclave is idle at fire time;
        otherwise it is deferred to the next batch boundary.  If the shard
        has halted on a violation (or grown forked instances) by then, the
        move is quietly abandoned — raising inside the simulator callback
        would abort every other shard's run, and the shard's evidence is
        already attributed by the router."""
        shard = self.shard(shard_id)

        def fire() -> None:
            if not shard.healthy or shard.forks:
                return
            if shard.enclave_busy:
                shard.rebalance_requested = True
            else:
                self._do_rebalance(shard)

        self.sim.schedule(delay, fire, label=f"rebalance-{shard_id}")

    def _do_rebalance(self, shard: _Shard) -> None:
        if shard.forks:
            # migration hands over one context; the forked instances (and
            # their audit evidence) cannot follow it onto the new hardware
            raise ConfigurationError(
                f"shard {shard.shard_id} has {len(shard.forks)} live forked "
                "instance(s); their evidence would not survive a migration"
            )
        origin = shard.host
        if self._audit:
            # the origin halts once it has exported its state, so capture
            # its audit evidence (verification mode only) before migrating
            shard.audit_prefix = shard.audit_prefix + list(
                origin.enclave.ecall("export_audit_log", None)
            )
        platform = TeePlatform(
            self.group,
            seed=self._platform_seed(
                shard.shard_id, self._next_serial(shard.shard_id)
            ),
        )
        target = ServerHost(platform, self._factory)
        migrate(origin, target, self.group.verifier())
        shard.retired_hosts.append(origin)
        shard.platform = platform
        shard.host = target
        shard.rebalance_requested = False
        self.stats.rebalances += 1

    # ----------------------------------------- elastic membership & recovery

    def add_shard(self, *, at: float | None = None) -> int:
        """Grow the ring by one shard at runtime; returns its id.

        The new group is provisioned immediately (own platform, host,
        sealed storage, client machines) but owns no keys until the
        control plane has quiesced the shards losing arcs, handed the
        keys on exactly those arcs over through the attested
        :func:`~repro.core.migration.migrate_keys` channel, and swapped
        the ring — all at a batch boundary, so rollback/fork detection
        holds across the move.  ``at`` defers the data movement to a
        virtual-time offset (mid-workload); on a quiet cluster the whole
        operation runs synchronously.
        """
        return self.control.add_shard(at=at)

    def remove_shard(self, shard_id: int, *, at: float | None = None):
        """Shrink the ring by one shard at runtime.

        The departing group's arcs are handed to the surviving owners
        (per-key sealed handoff between live groups), its audit evidence
        is retired into the cluster record — the router's merged verdict
        keeps checking it — and its host shuts down.  Returns the
        control-plane report describing the move.
        """
        return self.control.remove_shard(shard_id, at=at)

    def recover_shard(self, shard_id: int, *, at: float | None = None):
        """Re-bootstrap a halted or crashed shard as a fresh generation.

        A fresh platform + host is attested and provisioned with fresh
        keys (``kP``/``kC``/``kA``) and every client re-enrolled from a
        clean chain — the old generation's evidence is retired for the
        merged verdict, and the router replays the operations the outage
        parked.  Returns the control-plane report.
        """
        return self.control.recover_shard(shard_id, at=at)

    def crash_shard(self, shard_id: int) -> None:
        """Fault injection: the shard's hardware dies abruptly.

        The enclave's volatile memory is lost and its dispatcher halts —
        pending requests stay queued forever and the router fails fast
        (or parks, in failover mode) until :meth:`recover_shard`
        re-provisions the group.  Replies already on the wire still
        arrive.  In audit mode the global observer's reconstruction of
        the audit evidence is captured first, exactly as for forks and
        rebalances, so the crashed generation remains checkable.
        """
        shard = self.shard(shard_id)
        if not shard.healthy:
            raise ConfigurationError(
                f"shard {shard_id} is already down; nothing to crash"
            )
        if self._audit:
            shard.crash_logs = self.audit_logs(shard_id)
        shard.crashed = True
        shard.dispatcher.halt()
        shard.host.enclave.crash()
        self.observer.on_crash(shard)

    def schedule_crash(self, delay: float, shard_id: int) -> None:
        """Crash a shard at a virtual-time offset (mid-workload).  Skipped
        quietly if the shard already halted on a violation by then."""
        def fire() -> None:
            shard = self._shards.get(shard_id)
            if shard is not None and shard.healthy:
                self.crash_shard(shard_id)

        self.sim.schedule(delay, fire, label=f"crash-{shard_id}")

    def _allocate_shard_id(self) -> int:
        shard_id = self._next_shard_id
        self._next_shard_id = shard_id + 1
        return shard_id

    def _provision_new_shard(self) -> int:
        """Stand up a brand-new (honest) group, off-ring; control-plane
        use only — the ring swap happens after the arc handoff."""
        shard_id = self._allocate_shard_id()
        shard = self._provision_shard(shard_id, malicious=False)
        self._shards[shard_id] = shard
        self.stats.register_shard(shard_id, shard.dispatcher)
        return shard_id

    def _retire_generation(self, shard: _Shard) -> GenerationEvidence:
        """Freeze a generation's evidence into the cluster record."""
        logs: list[list[AuditRecord]] | None = None
        if shard.violation is None and self._audit:
            # crash_shard captured the observer's reconstruction; a live
            # (healthy, quiesced) generation exports directly
            logs = self.audit_logs(shard.shard_id)
        evidence = GenerationEvidence(
            shard_id=shard.shard_id,
            generation=shard.generation,
            logs=logs,
            clients={
                client_id: FrozenClientPoint(
                    machine.last_sequence, machine.last_chain
                )
                for client_id, machine in shard.clients.items()
            },
            history=shard.history,
            violation=shard.violation,
        )
        self._retired.append(evidence)
        self.observer.on_retired(shard, evidence)
        return evidence

    def _remove_shard_now(self, shard_id: int) -> None:
        """Retire a (quiesced, already drained-of-keys) shard's evidence
        and shut its group down.  Control-plane use only."""
        shard = self.shard(shard_id)
        self._retire_generation(shard)
        shard.host.shutdown()
        del self._shards[shard_id]

    def _recover_shard_now(self, shard_id: int) -> _Shard:
        """Replace a dead shard with a freshly bootstrapped generation.
        Control-plane use only (the barrier lives there)."""
        shard = self.shard(shard_id)
        if shard.healthy:
            raise ConfigurationError(
                f"shard {shard_id} is healthy; only a halted or crashed "
                "shard can be recovered"
            )
        self._retire_generation(shard)
        fresh = self._provision_shard(
            shard_id, malicious=False, generation=shard.generation + 1
        )
        self._shards[shard_id] = fresh
        self.stats.register_shard(shard_id, fresh.dispatcher)
        self.stats.recoveries += 1
        return fresh

    # ------------------------------------------------- reconfiguration bus

    @property
    def fenced_shards(self) -> set[int]:
        """Shards currently fenced by an in-progress control-plane
        operation: the router parks new submissions to them until the
        ``resharded`` notification.  Read-only to callers."""
        return self._fenced

    def subscribe_reconfiguration(
        self, listener: Callable[[str, tuple[int, ...]], None]
    ) -> None:
        """Register for control-plane events: ``("resharded", ids)`` after
        a ring change unfences its shards, ``("recovered", (id,))`` after
        a generation bump.  The shard router uses these to replay parked
        and orphaned operations."""
        self._reconfig_listeners.append(listener)

    def _notify_reconfiguration(self, event: str, shard_ids) -> None:
        for listener in list(self._reconfig_listeners):
            listener(event, tuple(shard_ids))

    # ------------------------------------------------------------ adversary

    def fork_shard(self, shard_id: int, *, from_version: int | None = None) -> int:
        """Fork one (malicious) shard's context; returns the new instance
        index.  Use :meth:`route_client` to partition that shard's clients
        between the instances."""
        shard = self.shard(shard_id)
        if not isinstance(shard.host, MaliciousServer):
            raise ConfigurationError(f"shard {shard_id} is not malicious")
        log_prefix: list[AuditRecord] = []
        if self._audit:
            log_prefix = list(shard.host.enclave.ecall("export_audit_log", None))
        instance_index = shard.host.fork(from_version)
        if self._audit:
            # the fork restored the sealed state at ``from_version``: its
            # reconstructed log is the primary's records up to that
            # state's sequence, not everything the primary executed by
            # fork time
            instance = shard.host.instances[instance_index]
            seeded = instance.enclave.ecall("status", None)["sequence"]
            log_prefix = [
                record for record in log_prefix if record.sequence <= seeded
            ]
        shard.forks.append(_Fork(instance_index, log_prefix))
        return instance_index

    def route_client(self, shard_id: int, client_id: int, instance_index: int) -> None:
        """Pin one client of a malicious shard to a forked instance."""
        shard = self.shard(shard_id)
        if not isinstance(shard.host, MaliciousServer):
            raise ConfigurationError(f"shard {shard_id} is not malicious")
        shard.host.route_client(client_id, instance_index)

    # -------------------------------------------------------------- running

    def run(self, max_events: int | None = None) -> None:
        """Drive the simulation until all submitted work completes."""
        self.sim.run(max_events=max_events)

    # -------------------------------------------------------------- queries

    def shard(self, shard_id: int) -> _Shard:
        """The live generation of one shard: its ``healthy`` flag,
        ``violation``, ``history`` and ``clients`` (client id -> Alg. 1
        machine).  The router's placement reads all of them through one
        lookup."""
        shard = self._shards.get(shard_id)
        if shard is None:
            raise ConfigurationError(f"no shard {shard_id}")
        return shard

    #: the accessor's former private name, which the end-to-end
    #: benchmark's workloads still call
    _shard = shard

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    @property
    def shard_ids(self) -> list[int]:
        """Live shard ids, ascending.  Contiguous from 0 until the first
        runtime ``add_shard``/``remove_shard`` makes them sparse."""
        return sorted(self._shards)

    def is_live(self, shard_id: int) -> bool:
        return shard_id in self._shards

    @property
    def verdict_shard_ids(self) -> list[int]:
        """Every shard id carrying evidence: live shards plus retired
        generations (removed shards, pre-recovery lives)."""
        ids = set(self._shards)
        ids.update(evidence.shard_id for evidence in self._retired)
        return sorted(ids)

    def shard_generation(self, shard_id: int) -> int:
        """The live generation number of a shard (0 until recovered)."""
        return self.shard(shard_id).generation

    def retired_generations(self, shard_id: int) -> list[GenerationEvidence]:
        """Frozen evidence of this shard id's retired generations, oldest
        first (empty for a shard that never crashed or was removed)."""
        return [
            evidence
            for evidence in self._retired
            if evidence.shard_id == shard_id
        ]

    @property
    def client_ids(self) -> list[int]:
        return list(self._client_ids)

    def shard_host(self, shard_id: int):
        """The (current) untrusted host serving one shard."""
        return self.shard(shard_id).host

    def shard_deployment(self, shard_id: int):
        """One shard's admin-side deployment handle (keys, client ids)."""
        return self.shard(shard_id).deployment

    def shard_clients(self, shard_id: int) -> dict[int, AsyncLcmClient]:
        """The per-shard protocol client machines, by logical client id."""
        return dict(self.shard(shard_id).clients)

    def client_machine(self, shard_id: int, client_id: int) -> AsyncLcmClient:
        """One (client, shard) protocol machine, without copying the map
        (the router's per-operation hot path)."""
        return self.shard(shard_id).clients[client_id]

    @property
    def audit(self) -> bool:
        """Whether the shards run in audit (verification) mode."""
        return self._audit

    def shard_history(self, shard_id: int) -> History:
        """The invocation/response history recorded against one shard."""
        return self.shard(shard_id).history

    def shard_violation(self, shard_id: int) -> SecurityViolation | None:
        """The first violation detected on this shard during the run."""
        return self.shard(shard_id).violation

    def shard_healthy(self, shard_id: int) -> bool:
        """False once a violation was detected on this shard or its
        hardware crashed — its dispatcher is halted and anything
        submitted to it would queue forever.  The router checks this
        flag to fail fast (or, in failover mode, to park the operation
        for replay once :meth:`recover_shard` re-provisions the group)."""
        return self.shard(shard_id).healthy

    def functionality(self):
        """A fresh functionality instance (for the offline checkers)."""
        return self._functionality()

    def audit_logs(self, shard_id: int) -> list[list[AuditRecord]]:
        """All audit logs a global observer holds for one shard.

        The primary log spans every migration the shard went through
        (prefixes captured at each rebalance, then the live context);
        forked instances contribute one reconstructed log each, their
        prefix captured when the fork was seeded.
        """
        if not self._audit:
            raise ConfigurationError("cluster was not created in audit mode")
        shard = self.shard(shard_id)
        if shard.crash_logs is not None:
            # the enclave died with its volatile memory; these are the
            # global observer's reconstruction captured at crash time
            return [list(log) for log in shard.crash_logs]
        primary = shard.audit_prefix + list(
            shard.host.enclave.ecall("export_audit_log", None)
        )
        logs = [primary]
        for fork in shard.forks:
            instance = shard.host.instances[fork.instance_index]
            suffix = list(instance.enclave.ecall("export_audit_log", None))
            logs.append(list(fork.log_prefix) + suffix)
        return logs

    # -------------------------------------------------------- observability

    def _collect_stats(self, registry: MetricsRegistry) -> None:
        """Collector mirroring :class:`ShardedStats` (and the per-shard
        batch histograms) into the registry at snapshot time, so pull-style
        sources need no write-path instrumentation."""
        stats = self.stats
        registry.gauge("cluster.operations_completed").set(
            stats.operations_completed
        )
        registry.gauge("cluster.rebalances").set(stats.rebalances)
        registry.gauge("cluster.reshards").set(stats.reshards)
        registry.gauge("cluster.recoveries").set(stats.recoveries)
        registry.gauge("cluster.keys_migrated").set(stats.keys_migrated)
        registry.gauge("cluster.shards").set(len(self._shards))
        for shard_id, count in sorted(stats.per_shard_operations.items()):
            registry.gauge("shard.operations", shard=str(shard_id)).set(count)
        for shard_id in self.shard_ids:
            dispatcher = self._shards[shard_id].dispatcher
            dispatcher.histogram.export_to(
                registry.histogram("shard.batch_size", shard=str(shard_id))
            )
            registry.gauge(
                "dispatch.queue_depth", shard=str(shard_id)
            ).set(dispatcher.pending)
            registry.gauge(
                "dispatch.queue_depth_peak", shard=str(shard_id)
            ).set(dispatcher.queue_depth_peak)
        registry.gauge("execution.batches_submitted").set(
            self.execution.batches_submitted
        )
        # per-shard load skew: each live shard's share of completed
        # operations relative to a perfectly even split (1.0 = fair),
        # and the cluster-level max/mean the autoscaler watches
        live = list(self.shard_ids)
        counts = [stats.per_shard_operations.get(sid, 0) for sid in live]
        mean = sum(counts) / len(counts) if counts else 0.0
        for shard_id, count in zip(live, counts):
            registry.gauge("shard.load_share", shard=str(shard_id)).set(
                count / mean if mean else 0.0
            )
        registry.gauge("cluster.load_skew").set(
            max(counts) / mean if mean else 0.0
        )

    def metrics(self) -> dict:
        """One JSON-ready snapshot of the whole observability plane:
        registered counters/gauges/histograms, collector-backed cluster
        stats, recent events, all stamped with the virtual clock."""
        return self.metrics_registry.snapshot()
