"""Elastic shard membership + recovery control plane.

PR 2's runtime could move a *whole* shard's range onto fresh hardware
(:meth:`~repro.sharding.cluster.ShardedCluster.rebalance`), but the ring
itself was fixed at construction and a halted shard stayed dead.  This
module adds the missing runtime operations:

``add_shard``
    Grow the ring by one group.  Only the keys on the arcs the new shard
    *gains* move (``HashRing.arc_diff``); each losing group hands exactly
    those keys over through the mutually attested
    :func:`~repro.core.migration.migrate_keys` channel as sequenced,
    hash-chained operations, so rollback/fork detection holds across the
    handoff on both sides.

``remove_shard``
    Shrink the ring.  The departing group's arcs are handed to the
    surviving owners the same way; its audit evidence is retired into the
    cluster record (the router's merged verdict keeps checking it) and
    its host shuts down.

``recover_shard``
    Re-bootstrap a halted or crashed group as a fresh *generation*: new
    platform, fresh ``kP``/``kC``/``kA`` under a fresh attestation, every
    client re-enrolled from a clean hash chain.  The old generation's
    evidence is retired, and the router replays the operations the
    outage parked.

Quiescence discipline
---------------------
A handoff between two live groups is only safe when neither side has an
operation in flight that could observe the keyspace mid-move (an INVOKE
executing on the source *after* its keys left would see a hole).  The
control plane therefore runs every reshard through a barrier:

1. **fence** — the involved shards are marked fenced; the router parks
   new submissions to them (completions of in-flight operations — and
   transaction *decisions*, which must reach a prepared participant —
   are unaffected);
2. **drain** — the plan waits, polling on the virtual clock, until every
   involved shard sits at a batch boundary with nothing pending: enclave
   idle, batch queue empty, client machines idle, links empty, and **no
   prepared-but-undecided transaction** (a prepared write's keys are
   addressed by a decision still to come — they are unmovable until it
   lands, so the barrier waits it out rather than stranding the prepare
   on one chain and its decision on another);
3. **act** — the per-arc handoffs run, the ring is swapped atomically,
   the shards are unfenced and the router replays the parked operations
   against the *new* ring.

The barrier makes the reshard a linearization point: every operation
submitted before the fence completes against the old ring, everything
parked lands on the new one.  Plans over **disjoint** shard sets run
concurrently; plans touching a shard that an active (or earlier-queued)
plan touches serialize behind it in submission order, so per-shard the
schedule is still FIFO.  A plan whose shard dies while fenced aborts
cleanly instead of stalling the cluster.

Recovery uses the weaker barrier only (drained links, so a reply still
on the wire cannot race the replay): a dead shard never quiesces fully.

Handoff channels are cached across plans
(:class:`~repro.core.migration.HandoffSessionCache` — the control plane
owns one): the first handoff between two groups pays the mutual
attestation, later plans over the same pair reuse the attested channel
with sequence-numbered bundles, and any generation bump falls back to a
fresh handshake automatically.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.migration import HandoffSessionCache, migrate_keys
from repro.errors import ConfigurationError, LCMError
from repro.net.simulation import ENCLAVE_SERVICE_INTERVAL
from repro.sharding.partitioner import ArcMove, HashRing

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sharding.cluster import ShardedCluster


@dataclass
class ReshardReport:
    """Outcome record of one control-plane operation."""

    kind: str                      # "add" | "remove" | "recover"
    shard_id: int
    #: keys moved per peer shard (sources for add, targets for remove)
    moved: dict[int, int] = field(default_factory=dict)
    completed: bool = False
    aborted: str | None = None
    #: set only for completed plans (None records an aborted one)
    completed_at: float | None = None
    #: arcs whose keys moved but could not be handed back when the plan
    #: failed mid-way: ``(source, target, arcs)`` — their keys live on
    #: ``target`` while the (unswapped) ring still routes them to
    #: ``source``.  Empty unless an abort's compensation also failed.
    orphaned: list[tuple[int, int, list]] = field(default_factory=list)

    @property
    def keys_moved(self) -> int:
        return sum(self.moved.values())


class _RingDrift(ConfigurationError):
    """Internal: a plan's act-time arcs touch shards outside its fenced
    set.  The scheduler's disjointness admission makes this unreachable
    (a concurrent plan can only have swapped arcs disjoint from this
    plan's); it is kept as a safety net and aborts the plan cleanly —
    no keys have moved when it is raised — instead of crashing the
    simulation."""


@dataclass
class _Plan:
    kind: str
    shard_id: int
    report: ReshardReport
    synchronous: bool = True
    # resolved at start():
    involved: tuple[int, ...] = ()
    #: consecutive barrier polls where the only thing keeping the plan
    #: waiting was a prepared-but-undecided transaction (see _poll)
    txn_stall: int = 0
    #: virtual time the plan entered the barrier (fence), for the
    #: plan-duration histogram
    started_at: float | None = None


def _arcs_by_peer(moves: list[ArcMove], *, group_by: str) -> dict:
    grouped: dict[object, list[list[int]]] = {}
    for move in moves:
        peer = getattr(move, group_by)
        grouped.setdefault(peer, []).append([move.start, move.end])
    return grouped


class ControlPlane:
    """Scheduler for runtime ring changes and shard recovery.

    One instance per :class:`ShardedCluster` (``cluster.control``); the
    cluster's ``add_shard``/``remove_shard``/``recover_shard`` methods
    delegate here.  Operations queue in submission order; a plan starts
    as soon as every shard it involves is free of *earlier* plans (so
    plans over disjoint shard sets run concurrently while overlapping
    plans stay FIFO).  Each is tracked by a :class:`ReshardReport` kept
    in :attr:`reports`.
    """

    #: Poll period of the quiescence barrier — one virtual enclave
    #: service slot, so the barrier re-checks at batch-boundary rhythm.
    POLL_INTERVAL = ENCLAVE_SERVICE_INTERVAL

    def __init__(self, cluster: "ShardedCluster") -> None:
        self._cluster = cluster
        self._queue: collections.deque[_Plan] = collections.deque()
        self._active: list[_Plan] = []
        self._pumping = False
        self._pump_again = False
        self.reports: list[ReshardReport] = []
        #: attested handoff channels reused across plans (see module doc)
        self.handoff_sessions = HandoffSessionCache()
        #: high-water mark of concurrently running plans (observability)
        self.max_concurrent = 0
        #: plan lifecycle metrics in the cluster's registry: completion /
        #: abort counters and a fence-to-finish duration histogram, each
        #: labelled by plan kind ("add" | "remove" | "recover")
        self._registry = cluster.metrics_registry

    # ------------------------------------------------------------- public

    def add_shard(self, *, at: float | None = None) -> int:
        """Provision a new group now; hand it its arcs at the barrier.
        Returns the new shard id immediately (the shard serves nothing
        until the ring swap)."""
        shard_id = self._cluster._provision_new_shard()
        self._submit(_Plan("add", shard_id, self._new_report("add", shard_id)), at)
        return shard_id

    def remove_shard(self, shard_id: int, *, at: float | None = None) -> ReshardReport:
        self._cluster.shard(shard_id)  # fail fast on unknown ids
        plan = _Plan("remove", shard_id, self._new_report("remove", shard_id))
        self._submit(plan, at)
        return plan.report

    def recover_shard(self, shard_id: int, *, at: float | None = None) -> ReshardReport:
        self._cluster.shard(shard_id)
        plan = _Plan("recover", shard_id, self._new_report("recover", shard_id))
        self._submit(plan, at)
        return plan.report

    @property
    def busy(self) -> bool:
        """True while any reconfiguration is active or queued."""
        return bool(self._active) or bool(self._queue)

    @property
    def active_count(self) -> int:
        """Plans currently between fence and finish."""
        return len(self._active)

    def _new_report(self, kind: str, shard_id: int) -> ReshardReport:
        report = ReshardReport(kind=kind, shard_id=shard_id)
        self.reports.append(report)
        return report

    # --------------------------------------------------------- scheduling

    def _submit(self, plan: _Plan, at: float | None) -> None:
        if at is None:
            self._enqueue(plan)
        else:
            plan.synchronous = False
            self._cluster.sim.schedule(
                at, lambda: self._enqueue(plan), label=f"controlplane-{plan.kind}"
            )

    def _enqueue(self, plan: _Plan) -> None:
        self._queue.append(plan)
        self._pump()

    def _pump(self) -> None:
        """Start every queued plan whose involved shards are free.

        Re-entrant-safe: a plan finishing synchronously inside
        :meth:`_start` (quiet cluster) lands back here; the outer
        invocation loops instead of recursing.
        """
        if self._pumping:
            self._pump_again = True
            return
        self._pumping = True
        try:
            self._pump_again = True
            while self._pump_again:
                self._pump_again = False
                self._start_eligible()
        finally:
            self._pumping = False

    def _start_eligible(self) -> None:
        blocked: set[int] = set()
        for active in self._active:
            blocked.update(active.involved)
        waiting: list[_Plan] = []
        while self._queue:
            plan = self._queue.popleft()
            estimate = self._estimate_involved(plan)
            if blocked & estimate:
                # an earlier plan (active or queued ahead) touches one of
                # these shards: stay FIFO per shard, block later
                # overlapping plans behind this one too
                blocked.update(estimate)
                waiting.append(plan)
                continue
            self._active.append(plan)
            try:
                self._start(plan)
            except ConfigurationError:
                self._active.remove(plan)
                plan.report.aborted = "refused"
                if plan.synchronous:
                    self._queue.extendleft(reversed(waiting))
                    raise
                continue
            blocked.update(plan.involved)
        self._queue.extendleft(reversed(waiting))

    def _estimate_involved(self, plan: _Plan) -> set[int]:
        """The shards a queued plan will touch, best-effort against the
        current ring (used only for scheduling; the authoritative set is
        resolved — with validation — when the plan starts)."""
        cluster = self._cluster
        if plan.kind == "recover":
            return {plan.shard_id}
        ring_after = cluster.ring.copy()
        try:
            if plan.kind == "add":
                ring_after.add_shard(plan.shard_id)
            else:
                ring_after.remove_shard(plan.shard_id)
        except (ConfigurationError, LCMError, KeyError, ValueError):
            return {plan.shard_id}
        moves = HashRing.arc_diff(cluster.ring, ring_after)
        peers = {move.source for move in moves} | {move.target for move in moves}
        return {plan.shard_id, *peers}

    def _start(self, plan: _Plan) -> None:
        cluster = self._cluster
        if plan.kind == "recover":
            shard = cluster.shard(plan.shard_id)
            if shard.healthy:
                raise ConfigurationError(
                    f"shard {plan.shard_id} is healthy; only a halted or "
                    "crashed shard can be recovered"
                )
            plan.involved = (plan.shard_id,)
        else:
            if plan.kind == "remove":
                shard = cluster.shard(plan.shard_id)
                if not shard.healthy:
                    raise ConfigurationError(
                        f"shard {plan.shard_id} is down; recover it before "
                        "removing it (its keys must be handed off live)"
                    )
                if shard.forks:
                    raise ConfigurationError(
                        f"shard {plan.shard_id} has live forked instances; "
                        "their evidence would not survive removal"
                    )
                if cluster.shard_count - len(
                    [p for p in self._active if p.kind == "remove" and p is not plan]
                ) < 2:
                    raise ConfigurationError("cannot remove the last shard")
            plan.involved = tuple(sorted(self._estimate_involved(plan)))
            cluster._fenced.update(plan.involved)
        self.max_concurrent = max(self.max_concurrent, len(self._active))
        self._registry.gauge("controlplane.max_concurrent").set(
            self.max_concurrent
        )
        plan.started_at = cluster.sim.now
        self._poll(plan)

    # -------------------------------------------------------------- barrier

    #: Consecutive drained-but-transaction-pending polls a plan tolerates
    #: before aborting.  A healthy transaction leaves this state within a
    #: few round trips (its decision arrives, making the shard busy then
    #: quiet); a transaction that can never decide — its coordinator is
    #: wedged on a participant that died without failover — would
    #: otherwise keep the barrier polling (and the simulator generating
    #: events) forever.
    TXN_STALL_LIMIT = 1000

    def _quiet(self, plan: _Plan) -> bool:
        cluster = self._cluster
        if plan.kind == "recover":
            return cluster.shard(plan.shard_id).links_drained
        return all(
            cluster.shard(shard_id).drained
            and cluster.shard_txn_pending(shard_id) == 0
            for shard_id in plan.involved
        )

    def _poll(self, plan: _Plan) -> None:
        cluster = self._cluster
        if plan.kind != "recover":
            dead = [
                shard_id
                for shard_id in plan.involved
                if not cluster.shard_healthy(shard_id)
            ]
            if dead:
                # a fenced shard died mid-barrier: the handoff can no
                # longer run (its enclave refuses ecalls) — abort instead
                # of polling forever behind machines that will never drain
                self._finish(
                    plan, aborted=f"shard(s) {dead} went down during the barrier"
                )
                return
        if not self._quiet(plan):
            if plan.kind != "recover" and all(
                cluster.shard(shard_id).drained for shard_id in plan.involved
            ):
                # nothing is moving — only an undecided transaction keeps
                # the barrier waiting.  Its decision normally arrives
                # within a few polls; a coordinator that can never decide
                # must not wedge the control plane (and the simulator)
                # forever.
                plan.txn_stall += 1
                if plan.txn_stall > self.TXN_STALL_LIMIT:
                    pending = {
                        shard_id: cluster.shard_txn_pending(shard_id)
                        for shard_id in plan.involved
                        if cluster.shard_txn_pending(shard_id)
                    }
                    self._finish(
                        plan,
                        aborted=(
                            "prepared-but-undecided transaction(s) on "
                            f"shard(s) {sorted(pending)} never resolved"
                        ),
                    )
                    return
            else:
                plan.txn_stall = 0
            cluster.sim.schedule(
                self.POLL_INTERVAL,
                lambda: self._poll(plan),
                label="controlplane-barrier",
            )
            return
        try:
            self._act(plan)
        except _RingDrift as drift:
            # raised before any key moved: park-and-replay semantics
            # still hold, so abort this plan without failing the run
            self._finish(plan, aborted=str(drift))
            return
        except BaseException:
            self._finish(plan, aborted="failed")
            raise
        self._finish(plan)

    # --------------------------------------------------------------- action

    def _resolve_pairs(
        self, plan: _Plan
    ) -> tuple[list[tuple[int, int, list[list[int]]]], HashRing]:
        """The per-pair arc handoffs and the post-plan ring, computed
        against the ring as it stands *now* (a concurrent plan over
        disjoint shards may have swapped it since this plan queued;
        disjointness guarantees the arcs this plan moves are unaffected)."""
        cluster = self._cluster
        ring_after = cluster.ring.copy()
        if plan.kind == "add":
            ring_after.add_shard(plan.shard_id)
        else:
            ring_after.remove_shard(plan.shard_id)
        moves = HashRing.arc_diff(cluster.ring, ring_after)
        touched = {move.source for move in moves} | {
            move.target for move in moves
        }
        if not touched <= set(plan.involved):
            raise _RingDrift(
                f"{plan.kind} plan for shard {plan.shard_id} would now touch "
                f"shard(s) {sorted(touched - set(plan.involved))} outside its "
                "fenced set"
            )
        if plan.kind == "add":
            sources = _arcs_by_peer(moves, group_by="source")
            pairs = [
                (source, plan.shard_id, arcs)
                for source, arcs in sorted(sources.items())
            ]
        else:
            targets = _arcs_by_peer(moves, group_by="target")
            pairs = [
                (plan.shard_id, target, arcs)
                for target, arcs in sorted(targets.items())
            ]
        return pairs, ring_after

    def _act(self, plan: _Plan) -> None:
        cluster = self._cluster
        if plan.kind == "recover":
            cluster._recover_shard_now(plan.shard_id)
            return
        pairs, ring_after = self._resolve_pairs(plan)
        verifier = cluster.group.verifier()
        handed_over: list[tuple[int, int, list]] = []
        try:
            for source_id, target_id, arcs in pairs:
                moved = migrate_keys(
                    cluster.shard_host(source_id),
                    cluster.shard_host(target_id),
                    verifier,
                    arcs,
                    sessions=self.handoff_sessions,
                )
                handed_over.append((source_id, target_id, arcs))
                peer = source_id if plan.kind == "add" else target_id
                plan.report.moved[peer] = moved
                cluster.stats.keys_migrated += moved
        except BaseException:
            # the ring never swaps on failure, so keys already handed
            # over would be stranded on a peer the ring does not route
            # to — hand them back before aborting
            self._compensate(plan, handed_over)
            raise
        if plan.kind == "remove":
            cluster._remove_shard_now(plan.shard_id)
        cluster.ring = ring_after
        cluster.stats.reshards += 1

    def _compensate(self, plan: _Plan, handed_over) -> None:
        """Best-effort unwind of a partially executed reshard: migrate
        each already-moved arc set back to its (still ring-routed)
        source.  An arc whose return handoff also fails — typically
        because one of the enclaves died — is recorded on the report as
        orphaned instead of raising over the original error."""
        cluster = self._cluster
        verifier = cluster.group.verifier()
        for source_id, target_id, arcs in reversed(handed_over):
            try:
                moved = migrate_keys(
                    cluster.shard_host(target_id),
                    cluster.shard_host(source_id),
                    verifier,
                    arcs,
                    sessions=self.handoff_sessions,
                )
            except LCMError:
                plan.report.orphaned.append((source_id, target_id, arcs))
                continue
            peer = source_id if plan.kind == "add" else target_id
            plan.report.moved.pop(peer, None)
            cluster.stats.keys_migrated += moved

    def _finish(self, plan: _Plan, aborted: str | None = None) -> None:
        cluster = self._cluster
        cluster._fenced.difference_update(plan.involved)
        plan.report.aborted = aborted
        plan.report.completed = aborted is None
        plan.report.completed_at = cluster.sim.now if aborted is None else None
        outcome = "completed" if aborted is None else "aborted"
        self._registry.counter(f"controlplane.plans_{outcome}", kind=plan.kind).inc()
        if aborted is None:
            self._registry.counter(
                "controlplane.keys_moved", kind=plan.kind
            ).inc(plan.report.keys_moved)
        if plan.started_at is not None:
            self._registry.histogram(
                "controlplane.plan_duration", kind=plan.kind
            ).observe(round(cluster.sim.now - plan.started_at, 6))
        if plan in self._active:
            self._active.remove(plan)
        event = "recovered" if plan.kind == "recover" else "resharded"
        try:
            if aborted is None:
                cluster._notify_reconfiguration(event, plan.involved)
            else:
                # unfenced shards may hold parked work either way
                cluster._notify_reconfiguration("resharded", plan.involved)
        finally:
            # queued plans must run even if a listener misbehaves
            self._pump()
