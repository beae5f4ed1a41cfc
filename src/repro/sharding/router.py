"""Client-side facade over a :class:`~repro.sharding.cluster.ShardedCluster`.

The router is the piece an application talks to: it hides the existence of
shards behind the familiar submit-an-operation surface.

- **single-key operations** (``GET``/``PUT``/``DEL``) are routed to the
  shard owning the operation's key, onto that shard's per-client Alg. 1
  machine.  Each is one *submission record* in one table, in one state:
  ``parked`` (its shard is fenced by a reshard, or down under failover),
  ``inflight`` (dispatched, awaiting the reply), ``waiting`` (bounced by
  a transaction's lock until that transaction's decision completes), or
  terminal ``done`` / ``dropped`` / ``retired`` (an in-flight record a
  replay handed to a fresh one).  Four methods move records: ``_place``
  parks or dispatches, ``_on_reply`` takes a reply, ``_replay`` resubmits
  after a reconfiguration, and ``_finish`` — the only caller of the
  submitter's callback — completes a record exactly once;
- **multi-key requests** (YCSB scans map to multi-GET sequences,
  read-modify-write pairs, arbitrary batches) fan out across the owning
  shards *concurrently* — the per-(client, shard) machines are independent
  protocol instances, so a logical client legally has one operation in
  flight per shard — and the completion callback fires once every shard
  has answered, with results merged back into submission order;
- **multi-key atomicity**: :meth:`ShardRouter.submit_txn` runs a
  multi-key request as a cross-shard *transaction*.  The router is the
  coordinator of a two-phase commit whose participant verbs are ordinary
  LCM operations: each shard's prepare locks the touched keys and buffers
  the writes as a sequenced, hash-chained, sealed operation, and the
  commit/abort decision lands the same way — so the whole lifecycle is
  covered by exactly the verification machinery that protects a PUT;
- **group commit**: with ``group_commit=True`` (the default) lifecycle
  operations headed for an idle (client, shard) machine take the legacy
  single verb — byte-identical evidence, no added latency — while those
  headed for a busy one accumulate and flush as one merged
  ``TXN_PREPARE_MANY`` / ``TXN_DECIDE_MANY`` operation the moment the
  in-flight operation completes.  A prepare that loses a lock conflict
  queues as a FIFO *waiter* inside the shard's sealed state (wound-wait
  ordered, so waits-for chains are acyclic) and its vote arrives later,
  piggybacked on the releasing decision's ack;
- **durable coordination**: every begin and decision is appended to a
  :class:`~repro.server.storage.StableStorage` decision log *before*
  phase 2 is driven, so a coordinator that stops between phases can be
  rebuilt and :meth:`ShardRouter.recover_transactions` re-drives exactly
  the undecided set (decided-but-unacked transactions re-send their
  logged decision; begun-but-undecided ones are presumed aborted).
  Finished transactions are pruned from the in-memory ``txn_log``; the
  compact per-txn decision summary the checkers need is retained forever;
- **verification** merges per-shard evidence into one
  :class:`~repro.sharding.observer.ShardedVerdict`: :meth:`ShardRouter.verdict`
  replays every generation of every shard (migrations and forks
  included) through a fresh streaming checker in one pass, linear in
  the evidence, and violations detected live are attributed to their
  shard, so one forked shard is detected even when every other shard is
  honest; the transaction traces the checkers fold from every audit log
  are checked against the coordinator's decision log for cross-shard
  atomicity (:func:`~repro.consistency.transactions.check_txn_traces`)
  — all-or-nothing, decisions consistent with the coordinator, and no
  live history left holding a prepare whose decision it never saw.  The
  walk is :func:`~repro.sharding.observer.cluster_verdict`, the same one
  :meth:`ShardRouter.streaming_verdict` runs over the online streams.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

from repro import serde
from repro.consistency.transactions import CoordinatorDecision
from repro.core.client import LcmResult
from repro.errors import ConfigurationError, LCMError, ShardUnavailable
from repro.kvstore.functionality import (
    TXN_ABORTED,
    TXN_COMMITTED,
    TXN_LOCKED,
    TXN_PREPARED,
    TXN_WAITING,
    is_txn_decision,
    txn_abort,
    txn_commit,
    txn_decide_many,
    txn_prepare,
    txn_prepare_many,
)
from repro.server.storage import StableStorage
from repro.sharding.cluster import ShardedCluster
from repro.sharding.observer import ShardedVerdict, cluster_verdict, replay_checker


def _decision_operation(txn_id: str, decision: str) -> tuple:
    """The single-verb commit or abort of one transaction."""
    return txn_commit(txn_id) if decision == "C" else txn_abort(txn_id)


def routing_key(operation: Any) -> str | bytes:
    """Extract the partitioning key from a ``(verb, key[, value])`` tuple."""
    if (
        isinstance(operation, (tuple, list))
        and len(operation) >= 2
        and isinstance(operation[1], (str, bytes))
    ):
        return operation[1]
    raise ConfigurationError(
        f"operation {operation!r} carries no routable key; "
        "use submit_to_shard for keyless (e.g. no-op) operations"
    )


@dataclass
class TxnResult:
    """Outcome of one cross-shard transaction, delivered to the
    submitter's completion callback."""

    txn_id: str
    committed: bool
    #: per-operation results in submission order (reads and the
    #: previous-value results of writes, computed at prepare time under
    #: the locks); ``None`` when the transaction aborted
    results: list | None = None
    #: the pending transaction a conflicting prepare lost to, when the
    #: abort was conflict-driven
    conflict_with: str | None = None


@dataclass
class TxnRecord:
    """Coordinator-side state of one in-flight transaction.

    Retained only while the transaction is live: once its decision has
    durably landed and every participant acked, the record is pruned and
    a compact :class:`~repro.consistency.transactions.CoordinatorDecision`
    (the only piece the checkers consume) is kept in its place.  Failover
    replay uses the live records to re-drive decisions lost to an outage.
    """

    txn_id: str
    client_id: int
    operations: list
    #: shard id -> indices into ``operations`` (fixed at begin time; a
    #: reshard cannot move a prepared key out from under the transaction
    #: because the control-plane barrier waits for pending decisions)
    participants: dict[int, list[int]] = field(default_factory=dict)
    votes: dict[int, Any] = field(default_factory=dict)
    #: participants whose prepare queued behind a lock holder: their vote
    #: arrives later, piggybacked on the releasing decision's ack
    waiting: set[int] = field(default_factory=set)
    decision: str | None = None            # "C" | "A"
    pending_decisions: set[int] = field(default_factory=set)
    conflict_with: str | None = None
    on_complete: Callable[[TxnResult], Any] | None = None
    done: bool = False
    #: virtual submit time (txn-lifecycle latency source); ``None`` on
    #: records reconstructed by recovery, whose lifetime spans a crash
    #: and would poison the distribution
    submitted_at: float | None = None

    @property
    def committed(self) -> bool:
        return self.decision == "C"


#: submission states; ``done``, ``dropped`` and ``retired`` are terminal
_PARKED, _INFLIGHT, _WAITING, _DONE, _DROPPED, _RETIRED = (
    "parked", "inflight", "waiting", "done", "dropped", "retired"
)


class _Submission:
    """One single-key operation, from ``submit`` to its one completion.

    ``state`` is ``parked`` on ``shard_id``; ``inflight`` on ``shard_id``
    (with ``history``/``token``, ``submitted_at`` and ``span``);
    ``waiting`` on the lock ``holder`` transaction; or terminal ``done``
    / ``dropped`` / ``retired``.  A state's payload slots are set by the
    transition into it.  ``reroute`` re-resolves the owner at every
    placement; ``attempts`` counts lock waits since the last replay.

    The record is its protocol machine's completion callback.  Replaying
    an in-flight record hands the operation to a fresh record and leaves
    this one ``retired``, so a reply to the lost dispatch finds it stale.
    """

    __slots__ = (
        "router", "shard_id", "client_id", "operation", "on_complete",
        "reroute", "attempts", "state", "history", "token", "submitted_at",
        "span", "holder",
    )

    def __init__(self, router, shard_id, client_id, operation, on_complete, reroute):
        self.router, self.shard_id, self.client_id = router, shard_id, client_id
        self.operation, self.on_complete = operation, on_complete
        self.reroute, self.state = reroute, None
        self.attempts = 0

    def __call__(self, result: LcmResult) -> None:
        self.router._on_reply(self, result)


class ShardRouter:
    """Route operations from logical clients to their owning shards.

    With ``failover=True`` the router additionally *parks* operations it
    cannot currently deliver — submissions to a shard that is fenced by
    an in-progress control-plane reshard, or (failover mode) to a shard
    that halted or crashed — and replays them when the cluster announces
    the reconfiguration finished.  Replayed single-key operations are
    re-routed through the *current* ring, so work parked across an
    ``add_shard``/``remove_shard`` lands on the new owner, and work
    parked across a crash lands on the recovered generation's fresh
    protocol machines.  Operations that were already in flight on a
    shard when it crashed (invoked but never answered) are tracked and
    replayed the same way.

    Every submission completes exactly once, or is ``dropped`` with
    attribution in :attr:`replay_failures` and
    ``router.operations_dropped`` (a replay that cannot deliver it); a
    second completion raises.  A reply that was already on the wire when
    its generation was retired arrives after the replay took the
    submission over: it is dropped — not recorded in the retired
    generation's history, ``on_complete`` not fired — and counted as
    ``router.replies_after_retire``; the operation's one completion is
    the replay's.
    """

    def __init__(
        self,
        cluster: ShardedCluster,
        *,
        failover: bool = False,
        group_commit: bool = True,
        txn_store: StableStorage | None = None,
    ) -> None:
        if not cluster.audit:
            # verdict() feeds every shard's audit logs to the checker and
            # promises not to raise; require the evidence up front
            raise ConfigurationError(
                "ShardRouter needs a cluster created in audit mode"
            )
        self.cluster = cluster
        self.failover = failover
        #: accumulate lifecycle operations headed for a busy (client,
        #: shard) machine and flush them as one merged sealed operation;
        #: an idle machine takes the byte-identical legacy single verb
        self.group_commit = group_commit
        #: durable coordinator decision log: ``["B", ...]`` at begin,
        #: ``["D", txn_id, decision]`` *before* phase 2 is driven,
        #: ``["F", txn_id]`` once every participant acked — the recovery
        #: source for :meth:`recover_transactions`
        self._txn_store = (
            txn_store if txn_store is not None
            else StableStorage("txn-decision-log")
        )
        #: ``F`` records awaiting the next durable store.  While other
        #: transactions are still in flight a future ``B``/``D`` append is
        #: guaranteed, so finish records piggyback on it (one store fewer
        #: per transaction under pipelining); the log quiesces — flushes
        #: the tail — the moment no transaction remains in flight, and
        #: any external read of :attr:`txn_store` (a coordinator handover)
        #: flushes first.  A crash with deferred finishes only re-drives
        #: their (idempotent) decisions on recovery.
        self._txn_log_deferred: list[list] = []
        #: router counters live in the cluster's metrics registry; the
        #: historical attribute names stay readable as properties below.
        #: Hot paths hold the Counter objects directly (one int add).
        registry = cluster.metrics_registry
        counter = registry.counter
        self._ctr_submitted = counter("router.operations_submitted")
        self._ctr_fanout = counter("router.fanout_requests")
        self._ctr_parked = counter("router.operations_parked")
        self._ctr_replayed = counter("router.operations_replayed")
        self._ctr_dropped = counter("router.operations_dropped")
        self._ctr_replies_after_retire = counter("router.replies_after_retire")
        self._ctr_lock_retried = counter("router.operations_lock_retried")
        self._ctr_txn_started = counter("router.transactions_started")
        self._ctr_txn_committed = counter("router.transactions_committed")
        self._ctr_txn_aborted = counter("router.transactions_aborted")
        self._ctr_txn_parked = counter("router.transactions_parked")
        self._ctr_txn_group_flushes = counter("router.txn_group_flushes")
        self._ctr_txn_group_entries = counter("router.txn_group_entries")
        self._gauge_txn_retained = registry.gauge("router.txn_log_retained")
        #: per-(shard, op-kind) virtual-time latency quantile histograms
        #: (submit -> completion callback); the dict caches the metric
        #: objects so the completion path pays one lookup, not a key
        #: render.  Always on: the router is not the ab-guarded enclave
        #: hot path, and the ``frontier`` experiment needs the percentiles.
        self._latency_quantiles: dict[tuple[int, str], Any] = {}
        registry.register_collector(self._collect_control_gauges)
        #: live (undecided or unacked) transactions, by txn id; finished
        #: records are pruned, leaving only the compact
        #: CoordinatorDecision the checkers consume
        self.txn_log: dict[str, TxnRecord] = {}
        #: the coordinator decision log the checkers consume: one compact
        #: entry per transaction that reached a decision, never pruned
        self._decisions_cache: dict[str, CoordinatorDecision] = {}
        #: lifecycle operations awaiting a busy machine, keyed by
        #: (shard_id, client_id): {"prepares": [...], "decisions": [...]}
        self._txn_buffers: dict[tuple[int, int], dict[str, list]] = {}
        self._txn_counter = 0
        #: transactions parked whole (a participant fenced or down at
        #: begin time); re-begun — participants re-resolved — on the
        #: next reconfiguration event
        self._parked_txns: list[TxnRecord] = []
        #: test/fault-injection hook: called with ("prepare-sent" |
        #: "decision-sent", record) right after the respective phase's
        #: submissions went out
        self.txn_phase_hook: Callable[[str, TxnRecord], Any] | None = None
        #: (shard_id, client_id, operation, error) for every operation a
        #: replay could not deliver (e.g. pinned to a since-removed
        #: shard, or its shard died again before the replay) — dropped
        #: with attribution instead of raising inside a simulator event
        self.replay_failures: list[tuple[int, int, Any, LCMError]] = []
        #: every live (not done, not dropped) submission, in the order of
        #: its last transition — an insertion-ordered set
        self._submissions: dict[_Submission, None] = {}
        #: shard labels the parked-operations gauge has ever carried
        self._parked_gauge_shards: set[int] = set()
        cluster.subscribe_reconfiguration(self._on_reconfiguration)
        if cluster.observer.enabled:
            # the streaming verifier needs the coordinator's decision log
            # for its online withheld-decision scan and its verdict
            cluster.observer.attach_decisions(self._coordinator_decisions)

    # ------------------------------------------- counter read-through views

    @property
    def operations_submitted(self) -> int:
        return self._ctr_submitted.value

    @property
    def fanout_requests(self) -> int:
        return self._ctr_fanout.value

    @property
    def operations_parked(self) -> int:
        return self._ctr_parked.value

    @property
    def operations_replayed(self) -> int:
        return self._ctr_replayed.value

    @property
    def operations_dropped(self) -> int:
        return self._ctr_dropped.value

    @property
    def replies_after_retire(self) -> int:
        """Replies dropped because their submission had been retired
        (replayed onto a recovered generation) before they arrived."""
        return self._ctr_replies_after_retire.value

    @property
    def operations_lock_retried(self) -> int:
        return self._ctr_lock_retried.value

    @property
    def transactions_started(self) -> int:
        return self._ctr_txn_started.value

    @property
    def transactions_committed(self) -> int:
        return self._ctr_txn_committed.value

    @property
    def transactions_aborted(self) -> int:
        return self._ctr_txn_aborted.value

    @property
    def transactions_parked(self) -> int:
        return self._ctr_txn_parked.value

    @property
    def txn_group_flushes(self) -> int:
        """Merged lifecycle flushes (grouped operations actually sent)."""
        return self._ctr_txn_group_flushes.value

    @property
    def txn_group_entries(self) -> int:
        """Lifecycle entries that rode a merged flush instead of their
        own ecall."""
        return self._ctr_txn_group_entries.value

    # ------------------------------------------------------------ submitting

    def owner(self, operation: Any) -> int:
        """The shard id that owns this operation's key."""
        return self.cluster.ring.owner(routing_key(operation))

    #: bound on automatic resubmissions of a lock-rejected operation —
    #: far beyond any transient prepare->decision window, but finite so a
    #: transaction stuck forever (participant down, no failover) cannot
    #: keep the simulator spinning on retries
    MAX_LOCK_RETRIES = 64

    def submit(
        self,
        client_id: int,
        operation: Any,
        on_complete: Callable[[LcmResult], Any] | None = None,
    ) -> int:
        """Queue a single-key operation; returns the owning shard id (the
        owner at submission time — a parked operation may land elsewhere
        after a reshard)."""
        return self._place(
            _Submission(self, None, client_id, operation, on_complete, True)
        )

    def submit_to_shard(
        self,
        shard_id: int,
        client_id: int,
        operation: Any,
        on_complete: Callable[[LcmResult], Any] | None = None,
    ) -> int:
        """Queue an operation on an explicit shard (keyless ops, tests).

        Fails fast with :class:`~repro.errors.ShardUnavailable` when the
        target shard has halted on a detected violation or crashed — its
        dispatcher no longer cuts batches, so the request would otherwise
        queue forever.  A router built with ``failover=True`` parks the
        operation instead and replays it once the shard is recovered; in
        a :meth:`submit_many` fan-out the operations already handed to
        healthy shards proceed normally either way.
        """
        return self._place(
            _Submission(self, shard_id, client_id, operation, on_complete, False)
        )

    def _place(self, record: _Submission) -> int:
        """Park ``record`` if its shard cannot take it right now, else
        dispatch it onto the (client, shard) protocol machine.  A
        key-routed record re-resolves its owner first.  Raises — leaving
        the record unplaced — when the shard is down and the router does
        not fail over.  Returns the shard id."""
        cluster = self.cluster
        operation = record.operation
        if record.reroute:
            record.shard_id = cluster.ring.owner(routing_key(operation))
        shard_id = record.shard_id
        if shard_id in cluster.fenced_shards and not is_txn_decision(operation):
            # a fence parks *new* work, but a commit/abort resolves a
            # prepare that is already inside the fenced shard — the
            # barrier's drain is waiting on exactly this decision, so
            # holding it back would deadlock fence against decision
            park = True
        else:
            shard = cluster.shard(shard_id)
            if shard.healthy:
                park = False
            elif self.failover or shard_id in cluster.fenced_shards:
                park = True
            else:
                violation = shard.violation
                cause = repr(violation) if violation else "a hardware crash"
                raise ShardUnavailable(
                    f"shard {shard_id} halted on {cause}; failing fast "
                    "instead of queueing behind a stopped dispatcher "
                    "(failover=True parks and replays instead)"
                )
        # every transition moves the record to the table's tail, so the
        # table filtered by state is in dispatch, park or wait order
        table = self._submissions
        table.pop(record, None)
        table[record] = None
        if park:
            self._ctr_parked.inc()
            record.state = _PARKED
            return shard_id
        client_id = record.client_id
        history = record.history = shard.history
        record.token = history.invoke(client_id, operation)
        self._ctr_submitted.value += 1
        record.submitted_at = cluster.sim.now
        record.span = cluster.tracer.start(
            "operation",
            client_id=client_id,
            shard_id=shard_id,
            operation=str(operation[0]) if operation else None,
        ) if cluster.tracer.enabled else None
        record.state = _INFLIGHT
        shard.clients[client_id].invoke(operation, record)
        return shard_id

    def _on_reply(self, record: _Submission, result: LcmResult) -> None:
        """The protocol machine answered the dispatch of ``record``."""
        state = record.state
        if state is not _INFLIGHT:
            if state is _RETIRED:
                # a late reply from a retired generation: the record was
                # replayed onto the recovered one, and that replay owns
                # the operation's one completion
                self._ctr_replies_after_retire.inc()
                return
            raise RuntimeError(f"{record.operation!r} answered twice")
        cluster = self.cluster
        shard_id, operation = record.shard_id, record.operation
        value = result.result
        record.history.respond(record.token, value, result.sequence)
        stats = cluster.stats
        stats.operations_completed += 1
        stats.per_shard_operations[shard_id] += 1
        # per-(shard, op-kind) submit -> completion virtual latency
        key = (shard_id, str(operation[0]) if operation else "?")
        quantile = self._latency_quantiles.get(key)
        if quantile is None:
            quantile = self._latency_quantiles[key] = (
                cluster.metrics_registry.quantile(
                    "router.op_latency", op=key[1], shard=str(shard_id)
                )
            )
        quantile.observe(cluster.sim.now - record.submitted_at)
        if record.span is not None:
            cluster.tracer.finish(record.span, sequence=result.sequence)
        if (
            record.reroute
            and record.attempts < self.MAX_LOCK_RETRIES
            and type(value) is list
            and len(value) == 2
            and value[0] == TXN_LOCKED
            and (value[1] in self.txn_log or value[1] in self._decisions_cache)
        ):
            # the key is locked by a pending transaction: the rejection is
            # a real chained operation (the checkers replay it), but the
            # caller asked for the value.  Only key-routed submissions
            # wait; explicit submit_to_shard callers (tests, transaction
            # internals) see the marker, and so does a stored user value
            # that merely looks like it (it names no txn this coordinator
            # ran).  The historical counter name counts waits as retries.
            self._ctr_lock_retried.inc()
            record.attempts += 1
            if value[1] in self.txn_log:
                # wait on the live holder: _txn_finish resubmits its
                # waiters the moment the decision completes
                record.state, record.holder = _WAITING, value[1]
                del self._submissions[record]
                self._submissions[record] = None
            else:
                # the holder already decided (record finished or pruned):
                # its locks are released, or were claimed by a resolved
                # waiter — resubmit, and wait on the new holder if so
                self._place(record)
        else:
            self._finish(record, result)
        if self._txn_buffers:
            # the machine just went idle (and on_complete may have
            # buffered lifecycle work against it, or the bounced operation
            # now waits on a decision buffered here): flush one merged
            # operation per direction
            self._flush_txn_buffer(shard_id, record.client_id)

    def _finish(self, record: _Submission, result: LcmResult) -> None:
        """Complete ``record``: the only caller of a submission's
        ``on_complete``, and the exactly-once check."""
        if record.state is _DONE:
            raise RuntimeError(f"{record.operation!r} completed twice")
        record.state = _DONE
        del self._submissions[record]
        if record.on_complete is not None:
            record.on_complete(result)

    # ---------------------------------------------------------------- gauges

    def _collect_control_gauges(self, registry) -> None:
        """Snapshot-time control-plane gauges (the autoscaler's inputs),
        counted off the submission table: parked work per shard, in-flight
        submissions, lock waiters.  Read-through — the submit/complete hot
        paths never touch the registry for these."""
        states = Counter(record.state for record in self._submissions)
        parked = Counter(
            record.shard_id
            for record in self._submissions
            if record.state is _PARKED
        )
        # every label ever set is rewritten: a shard whose parked work was
        # replayed, or that left the ring, reads 0 rather than its last count
        labels = self._parked_gauge_shards
        labels.update(self.cluster.shard_ids, parked)
        for shard_id in labels:
            registry.gauge(
                "router.parked_operations", shard=str(shard_id)
            ).set(parked[shard_id])
        registry.gauge("router.parked_operations_total").set(states[_PARKED])
        registry.gauge("router.parked_transactions").set(len(self._parked_txns))
        registry.gauge("router.txn_waiter_depth").set(states[_WAITING])
        registry.gauge("router.inflight_operations").set(states[_INFLIGHT])

    def parked_operations(self, shard_id: int) -> int:
        """Operations currently parked against one shard id."""
        return sum(
            1
            for record in self._submissions
            if record.state is _PARKED and record.shard_id == shard_id
        )

    # --------------------------------------------------------------- replay

    def _on_reconfiguration(self, event: str, shard_ids: tuple[int, ...]) -> None:
        self._replay(shard_ids, recovered=event == "recovered")
        self._replay_parked_txns()
        # a crash can swallow the completion that would have flushed a
        # buffer; drain any buffer whose machine is (now) idle
        self._flush_idle_buffers()

    def _replay(self, shard_ids: tuple[int, ...], recovered: bool) -> None:
        """Resubmit what a reconfiguration of ``shard_ids`` may have
        unblocked: after a recovery, the dispatches lost in flight first,
        in dispatch order (they predate anything parked against the
        outage, so per-client order holds on the fresh machines); then
        the parked records, shard by shard in park order.  Each shard's
        parked set is taken when its turn comes, so a record re-parked by
        an earlier replay is replayed again there.

        Replay runs inside a simulator event: raising there would abort
        every other shard's run and wedge the control-plane queue, so an
        undeliverable record — pinned to a since-removed shard, or whose
        shard died again — is dropped with attribution instead."""
        table = self._submissions
        selections = [(_INFLIGHT, shard_ids)] if recovered else []
        selections += [(_PARKED, (shard_id,)) for shard_id in shard_ids]
        for state, shards in selections:
            for record in [
                record
                for record in table
                if record.state is state and record.shard_id in shards
            ]:
                shard_id = record.shard_id
                if state is _INFLIGHT:
                    # the lost dispatch may still answer: it keeps this
                    # record, now retired, and a fresh one takes over
                    record.state = _RETIRED
                    del table[record]
                    record = _Submission(
                        self, shard_id, record.client_id, record.operation,
                        record.on_complete, record.reroute,
                    )
                # a replay is a fresh submission with a fresh retry budget
                record.attempts = 0
                try:
                    self._place(record)
                except LCMError as error:
                    record.state = _DROPPED
                    table.pop(record, None)
                    self._ctr_dropped.inc()
                    self.replay_failures.append(
                        (shard_id, record.client_id, record.operation, error)
                    )
                else:
                    self._ctr_replayed.inc()

    def submit_many(
        self,
        client_id: int,
        operations: list,
        on_complete: Callable[[list[LcmResult]], Any] | None = None,
    ) -> dict[int, int]:
        """Fan a multi-key request out across its owning shards.

        Operations landing on *different* shards run concurrently (one
        in-flight operation per shard per client); operations sharing a
        shard run in submission order on that shard's machine.  When every
        operation has completed, ``on_complete`` receives the results in
        the order the operations were submitted.  Returns a
        ``{shard_id: operation_count}`` fan-out map.
        """
        self._ctr_fanout.inc()
        if not operations:
            if on_complete is not None:
                on_complete([])
            return {}
        results: list[LcmResult | None] = [None] * len(operations)
        remaining = [len(operations)]
        fanout: dict[int, int] = {}

        def complete(index: int, result: LcmResult) -> None:
            results[index] = result
            remaining[0] -= 1
            if remaining[0] == 0 and on_complete is not None:
                on_complete(list(results))

        for index, operation in enumerate(operations):
            shard_id = self.submit(client_id, operation, partial(complete, index))
            fanout[shard_id] = fanout.get(shard_id, 0) + 1
        return fanout

    def scan(
        self,
        client_id: int,
        keys: list[str],
        on_complete: Callable[[list[LcmResult]], Any] | None = None,
    ) -> dict[int, int]:
        """A scan as a cross-shard multi-GET (the paper's KVS interface is
        GET/PUT/DEL only, so scans expand exactly as in the YCSB mapping)."""
        from repro.kvstore import get

        return self.submit_many(client_id, [get(key) for key in keys], on_complete)

    # ------------------------------------------------- transaction coordinator

    def submit_txn(
        self,
        client_id: int,
        operations: list,
        on_complete: Callable[[TxnResult], Any] | None = None,
    ) -> str:
        """Run a multi-key request as a cross-shard atomic transaction.

        The router coordinates a two-phase commit on behalf of the
        client: phase 1 sends each owning shard one PREPARE operation
        (through the client's per-shard Alg. 1 machine, so it is
        sequenced, hash-chained and sealed like any PUT) that executes
        the reads, buffers the writes and locks the touched keys; phase
        2 sends every prepared participant the COMMIT — or, if any
        participant voted a conflict, the ABORT.  ``on_complete`` fires
        with a :class:`TxnResult` once every decision has round-tripped.

        The decision is appended to the durable :attr:`txn_store` before
        it is sent (a stopped coordinator re-drives it via
        :meth:`recover_transactions`); on a ``failover=True`` router,
        decisions lost to a participant crash are re-driven by the
        in-flight replay (idempotent on the participant), and a
        transaction whose participant is fenced or down at begin time is
        parked whole and re-begun — participants re-resolved against the
        current ring — after the reconfiguration.  Returns the
        transaction id.
        """
        record = TxnRecord(
            # zero-padded so lexicographic txn-id order (the wound-wait
            # total order the shards' waiter queues rely on) matches
            # submission order per client
            txn_id=f"txn-{client_id}-{self._txn_counter:08d}",
            client_id=client_id,
            operations=[tuple(operation) for operation in operations],
            on_complete=on_complete,
            submitted_at=self.cluster.sim.now,
        )
        self._txn_counter += 1
        if not record.operations:
            raise ConfigurationError("a transaction needs at least one operation")
        self.txn_log[record.txn_id] = record
        self._ctr_txn_started.inc()
        self._txn_begin(record)
        return record.txn_id

    def _txn_begin(self, record: TxnRecord) -> None:
        """Resolve participants against the current ring and send the
        prepares — or park the whole transaction while any participant
        cannot take one (prepares must not straddle a reconfiguration:
        half a transaction prepared behind a fence would deadlock the
        barrier against the missing votes)."""
        cluster = self.cluster
        participants: dict[int, list[int]] = {}
        for index, operation in enumerate(record.operations):
            participants.setdefault(self.owner(operation), []).append(index)
        fenced = cluster.fenced_shards
        down = [
            shard_id
            for shard_id in participants
            if shard_id not in fenced and not cluster.shard_healthy(shard_id)
        ]
        if down or not fenced.isdisjoint(participants):
            if down and not self.failover:
                raise ShardUnavailable(
                    f"transaction {record.txn_id} needs shard(s) {down} "
                    "which are down (failover=True parks and replays instead)"
                )
            self._ctr_txn_parked.inc()
            self._parked_txns.append(record)
            return
        record.participants = participants
        record.votes = {}
        record.waiting = set()
        self._txn_log_append(
            [
                "B",
                record.txn_id,
                record.client_id,
                [list(operation) for operation in record.operations],
                sorted(
                    [shard_id, list(indices)]
                    for shard_id, indices in participants.items()
                ),
            ]
        )
        for shard_id, indices in sorted(participants.items()):
            self._txn_send_prepare(record, shard_id, indices)
        if self.txn_phase_hook is not None:
            self.txn_phase_hook("prepare-sent", record)

    # --------------------------------------- group commit: buffer and flush

    def _txn_send_prepare(
        self, record: TxnRecord, shard_id: int, indices: list[int]
    ) -> None:
        sub_ops = [list(record.operations[index]) for index in indices]
        on_vote = partial(self._on_vote, record, shard_id)
        if self._buffer_txn_op(
            shard_id, record.client_id, "prepares",
            (record.txn_id, sub_ops, on_vote),
        ):
            return
        self.submit_to_shard(
            shard_id,
            record.client_id,
            txn_prepare(record.txn_id, sub_ops),
            lambda result: on_vote(result.result),
        )

    def _txn_send_decision(self, record: TxnRecord, shard_id: int) -> None:
        on_ack = partial(self._on_decision_ack, record, shard_id)
        if self._buffer_txn_op(
            shard_id, record.client_id, "decisions",
            (record.txn_id, record.decision, on_ack),
        ):
            return
        self.submit_to_shard(
            shard_id,
            record.client_id,
            _decision_operation(record.txn_id, record.decision),
            lambda result: on_ack(result.result),
        )

    def _buffer_txn_op(
        self, shard_id: int, client_id: int, kind: str, entry: tuple
    ) -> bool:
        """Buffer one lifecycle entry when its machine cannot take it
        *right now* without queueing.  Returns False — caller submits the
        legacy single verb, byte-identical to the ungrouped router — when
        grouping is off, the shard is fenced/down (submit_to_shard owns
        parking), or the machine is idle."""
        if not self.group_commit:
            return False
        cluster = self.cluster
        if shard_id in cluster.fenced_shards or not cluster.shard_healthy(
            shard_id
        ):
            return False
        key = (shard_id, client_id)
        buffer = self._txn_buffers.get(key)
        if buffer is None:
            if not cluster.client_machine(shard_id, client_id).busy:
                return False
            buffer = self._txn_buffers[key] = {"prepares": [], "decisions": []}
        buffer[kind].append(entry)
        return True

    def _flush_txn_buffer(self, shard_id: int, client_id: int) -> None:
        """Send everything buffered against one machine: at most one
        merged decision operation and one merged prepare operation (a
        singleton flushes as the byte-identical legacy single verb).
        Decisions go first — they release the locks the prepares behind
        them may be after."""
        buffer = self._txn_buffers.pop((shard_id, client_id), None)
        if buffer is None:
            return
        for entries, single, merged in (
            (buffer["decisions"], _decision_operation, txn_decide_many),
            (buffer["prepares"], txn_prepare, txn_prepare_many),
        ):
            if not entries:
                continue
            if len(entries) == 1:
                operation = single(*entries[0][:2])
            else:
                self._ctr_txn_group_flushes.inc()
                self._ctr_txn_group_entries.inc(len(entries))
                operation = merged([entry[:2] for entry in entries])
            self._submit_grouped(
                shard_id, client_id, operation, [entry[2] for entry in entries]
            )

    def _submit_grouped(
        self, shard_id: int, client_id: int, operation, handlers: list
    ) -> None:
        if len(handlers) == 1:
            handler = handlers[0]
            on_complete = lambda result: handler(result.result)
        else:
            def on_complete(result: LcmResult) -> None:
                entries = result.result if type(result.result) is list else []
                for index, handler in enumerate(handlers):
                    handler(entries[index] if index < len(entries) else None)

        self.submit_to_shard(shard_id, client_id, operation, on_complete)

    def _flush_idle_buffers(self) -> None:
        for shard_id, client_id in list(self._txn_buffers):
            try:
                busy = self.cluster.client_machine(shard_id, client_id).busy
            except (KeyError, LCMError):
                # the machine's shard/generation is gone: flush anyway —
                # submit_to_shard parks or drops with attribution
                busy = False
            if not busy:
                self._flush_txn_buffer(shard_id, client_id)

    # ------------------------------------------------ votes and decisions

    def _on_vote(self, record: TxnRecord, shard_id: int, vote: Any) -> None:
        if record.decision is not None or record.done:
            # a waiter resolution that raced the abort we already sent to
            # this (waiting) shard — the abort releases whatever the
            # resolution locked, nothing left to coordinate
            return
        if type(vote) is list and len(vote) == 2 and vote[0] == TXN_WAITING:
            # the prepare queued behind vote[1]'s locks; the real vote
            # arrives on the releasing decision's ack
            record.waiting.add(shard_id)
        else:
            record.votes[shard_id] = vote
            record.waiting.discard(shard_id)
        self._maybe_decide(record)

    def _maybe_decide(self, record: TxnRecord) -> None:
        """Decide as soon as every participant has answered (vote or
        queued-as-waiter).  A conflict vote aborts immediately — waiting
        shards get the abort too, which dequeues their waiter; a commit
        needs every participant actually prepared, so it waits for
        queued prepares to resolve."""
        if len(record.votes) + len(record.waiting) < len(record.participants):
            return
        if all(self._voted_prepared(vote) for vote in record.votes.values()):
            if record.waiting:
                return
        self._txn_decide(record)

    @staticmethod
    def _voted_prepared(vote: Any) -> bool:
        return type(vote) is list and bool(vote) and vote[0] == TXN_PREPARED

    def _txn_decide(self, record: TxnRecord) -> None:
        """Log the decision durably, then drive phase 2."""
        prepared = [
            shard_id
            for shard_id, vote in record.votes.items()
            if self._voted_prepared(vote)
        ]
        commit = len(prepared) == len(record.participants)
        record.decision = "C" if commit else "A"
        if not commit:
            for vote in record.votes.values():
                if not self._voted_prepared(vote):
                    if type(vote) is list and len(vote) == 2:
                        record.conflict_with = vote[1]
                    break
        self._txn_log_append(["D", record.txn_id, record.decision])
        self._cache_decision(
            record.txn_id, record.decision, record.participants, complete=False
        )
        # an abort also goes to shards whose prepare is still queued as a
        # waiter — it dequeues the waiter (or aborts the prepare, if the
        # waiter resolved in the meantime)
        targets = set(prepared) | (record.waiting if not commit else set())
        if not targets:
            # nothing locked or queued anywhere: already complete
            self._txn_finish(record)
            return
        record.pending_decisions = set(targets)
        for shard_id in sorted(targets):
            self._txn_send_decision(record, shard_id)
        if self.txn_phase_hook is not None:
            self.txn_phase_hook("decision-sent", record)

    def _on_decision_ack(
        self, record: TxnRecord, shard_id: int, ack: Any
    ) -> None:
        if (
            type(ack) is list
            and len(ack) == 2
            and ack[0] in (TXN_COMMITTED, TXN_ABORTED)
            and type(ack[1]) is list
        ):
            # releasing the locks resolved queued waiters: the ack
            # piggybacks their (txn_id, vote) outcomes — route each to
            # its own transaction as the deferred prepare vote
            self._on_resolved_votes(shard_id, ack[1])
        record.pending_decisions.discard(shard_id)
        if not record.pending_decisions and not record.done:
            self._txn_finish(record)

    def _on_resolved_votes(self, shard_id: int, resolved: list) -> None:
        for item in resolved:
            if not (type(item) is list and len(item) == 2):
                continue
            waiter_id, vote = item
            waiter = self.txn_log.get(waiter_id)
            if waiter is not None:
                self._on_vote(waiter, shard_id, vote)

    def _cache_decision(
        self, txn_id: str, decision: str, participants, *, complete: bool
    ) -> None:
        self._decisions_cache[txn_id] = CoordinatorDecision(
            txn_id=txn_id,
            decision=decision,
            participants=tuple(sorted(participants)),
            complete=complete,
        )

    def _txn_finish(self, record: TxnRecord) -> None:
        record.done = True
        self._txn_log_deferred.append(["F", record.txn_id])
        if record.decision is not None:
            self._cache_decision(
                record.txn_id, record.decision, record.participants, complete=True
            )
        if record.submitted_at is not None and record.decision is not None:
            # submit -> decision-ack lifecycle latency, labelled by the
            # decision so commit and abort tails stay distinguishable
            self.cluster.metrics_registry.quantile(
                "router.txn_latency", decision=record.decision
            ).observe(self.cluster.sim.now - record.submitted_at)
        results: list | None = None
        if record.committed:
            self._ctr_txn_committed.inc()
            if all(
                shard_id in record.votes for shard_id in record.participants
            ):
                results = [None] * len(record.operations)
                for shard_id, indices in record.participants.items():
                    vote = record.votes[shard_id]
                    for index, value in zip(indices, vote[1]):
                        results[index] = value
            # else: a recovered record re-drove the commit without the
            # votes that carried the read results — committed, results
            # unknown to this coordinator incarnation
        else:
            self._ctr_txn_aborted.inc()
        self.txn_log.pop(record.txn_id, None)
        self._gauge_txn_retained.set(len(self.txn_log))
        waiters = [
            waiter
            for waiter in self._submissions
            if waiter.state is _WAITING and waiter.holder == record.txn_id
        ]
        for waiter in waiters:
            # the decision completed: the locks that bounced these
            # single-key operations are released — resubmit in FIFO order
            self._place(waiter)
        if record.on_complete is not None:
            record.on_complete(
                TxnResult(
                    txn_id=record.txn_id,
                    committed=record.committed,
                    results=results,
                    conflict_with=record.conflict_with,
                )
            )
        # ``on_complete`` may have pipelined further transactions (whose
        # ``B`` append already carried the deferred finishes); if none are
        # in flight any more, no future append is coming — flush the tail
        # so a clean shutdown leaves a complete log
        if self._txn_log_deferred and not self.txn_log:
            self._txn_log_flush()

    # ----------------------------------------------- durability and recovery

    @property
    def txn_store(self) -> StableStorage:
        """The durable decision log.  Reading it flushes any deferred
        finish records first, so a handed-over store is always complete."""
        self._txn_log_flush()
        return self._txn_store

    def _txn_log_append(self, entry: list) -> None:
        """Durably store ``entry``, carrying any deferred finish records
        in the same version (each stored blob is a *list* of records)."""
        records = self._txn_log_deferred
        if records:
            self._txn_log_deferred = []
            records.append(entry)
        else:
            records = [entry]
        self._txn_store.store(serde.encode(records))

    def _txn_log_flush(self) -> None:
        if self._txn_log_deferred:
            records, self._txn_log_deferred = self._txn_log_deferred, []
            self._txn_store.store(serde.encode(records))

    def recover_transactions(self) -> dict[str, list[str]]:
        """Re-drive every transaction the durable log left unfinished.

        Meant for a fresh router attached to the same (recovered) cluster
        after the previous coordinator stopped mid-transaction, handed
        the predecessor's :attr:`txn_store`.  Replays the log:

        - ``B`` without ``D`` — phase 1 was interrupted before a decision
          was durable: **presumed abort**.  The abort is logged, then
          sent to every participant (a participant that never prepared
          answers UNKNOWN; one still holding locks releases them).
        - ``D`` without ``F`` — decided but not every participant acked:
          the logged decision is re-sent to every participant
          (idempotent: a participant that already applied it answers
          ALREADY).
        - ``F`` — nothing to do.

        Returns ``{"redriven": [...], "presumed_aborted": [...]}`` and
        fires each re-driven transaction's normal completion path, so
        :meth:`verdict` sees a complete decision log afterwards.
        """
        begun: dict[str, tuple] = {}
        decided: dict[str, str] = {}
        finished: set[str] = set()
        for version in range(self._txn_store.version_count()):
            blob = serde.decode(self._txn_store.load_version(version))
            # each version stores a list of records (deferred finishes
            # piggyback on the next append); a bare record still decodes
            records = [blob] if blob and type(blob[0]) is str else blob
            for entry in records:
                tag = entry[0]
                if tag == "B":
                    begun[entry[1]] = (entry[2], entry[3], entry[4])
                elif tag == "D":
                    decided[entry[1]] = entry[2]
                elif tag == "F":
                    finished.add(entry[1])
        redriven: list[str] = []
        presumed_aborted: list[str] = []
        for txn_id, (client_id, operations, participants) in begun.items():
            # never mint an id the durable log already carries
            try:
                self._txn_counter = max(
                    self._txn_counter, int(txn_id.rsplit("-", 1)[1]) + 1
                )
            except ValueError:
                pass
            if txn_id in finished or txn_id in self.txn_log:
                if txn_id in decided and txn_id not in self._decisions_cache:
                    # finished before the crash: nothing to re-drive, but
                    # the checkers still need the compact decision entry
                    # to validate the decisions participant histories
                    # already carry
                    self._cache_decision(
                        txn_id,
                        decided[txn_id],
                        [shard_id for shard_id, _ in participants],
                        complete=True,
                    )
                continue
            record = TxnRecord(
                txn_id=txn_id,
                client_id=client_id,
                operations=[tuple(operation) for operation in operations],
                participants={
                    shard_id: list(indices)
                    for shard_id, indices in participants
                },
            )
            self.txn_log[txn_id] = record
            decision = decided.get(txn_id)
            if decision is None:
                record.decision = "A"
                self._txn_log_append(["D", txn_id, "A"])
                presumed_aborted.append(txn_id)
            else:
                record.decision = decision
                redriven.append(txn_id)
            self._cache_decision(
                txn_id, record.decision, record.participants, complete=False
            )
            record.pending_decisions = set(record.participants)
            for shard_id in sorted(record.participants):
                self._txn_send_decision(record, shard_id)
        return {"redriven": redriven, "presumed_aborted": presumed_aborted}

    def coordinator_decision(self, txn_id: str) -> CoordinatorDecision | None:
        """The compact decision entry for one transaction (survives
        pruning), or None while it is undecided/unknown."""
        return self._decisions_cache.get(txn_id)

    def coordinator_decisions(self) -> dict[str, CoordinatorDecision]:
        """A snapshot of the full compact decision log."""
        return dict(self._decisions_cache)

    def _replay_parked_txns(self) -> None:
        """Re-begin transactions parked whole against an outage or fence.
        Runs inside the reconfiguration callback; a transaction that is
        still blocked simply parks again."""
        parked, self._parked_txns = self._parked_txns, []
        for record in parked:
            try:
                self._txn_begin(record)
            except LCMError:
                # undeliverable now and not parkable (e.g. failover off
                # and the shard died again): abort with attribution so
                # the submitter's callback still fires
                record.decision = "A"
                self._ctr_dropped.inc()
                self._txn_finish(record)

    # ---------------------------------------------------------- verification

    def verdict(self) -> ShardedVerdict:
        """Check every shard's evidence; never raises, reports per shard.

        Covers every shard id that ever carried evidence: live shards,
        removed shards (their final audit logs were retired at removal)
        and, for shards that crashed and were recovered, each generation
        independently — merged into one ``ShardVerdict`` per id.  Each
        generation's retained evidence is replayed through a fresh
        streaming checker in one pass, so the cost is linear in the
        evidence and no ``verifier.*`` event is emitted.  When
        transactions ran, the traces those checkers folded are checked
        against the coordinator's decision log; the findings land in
        ``txn_violations``.
        """
        return cluster_verdict(
            self.cluster,
            partial(replay_checker, self.cluster),
            self._coordinator_decisions(),
        )

    def streaming_verdict(self) -> ShardedVerdict:
        """The online verdict the cluster's streaming verifier assembled
        from evidence harvested at batch boundaries — the same walk and
        checker as :meth:`verdict` (the parity test suite asserts the two
        agree on every scenario), but available without a replay and with
        violations already emitted as registry events mid-run."""
        return self.cluster.observer.verdict()

    def check_fork_linearizable(self) -> ShardedVerdict:
        """Merged verdict, raising on the first per-shard violation.

        The raised exception keeps the specific violation type (e.g.
        :class:`~repro.errors.ForkDetected`) with the shard id prefixed to
        the message, so callers can both catch precisely and attribute.
        """
        merged = self.verdict()
        for shard_id, verdict in sorted(merged.shards.items()):
            if verdict.violation is not None:
                cause = verdict.violation
                raise type(cause)(f"shard {shard_id}: {cause}") from cause
        if merged.txn_violations:
            raise merged.txn_violations[0]
        return merged

    def _coordinator_decisions(self) -> dict[str, CoordinatorDecision] | None:
        """The decision log as the transaction checker consumes it, or
        ``None`` while no transaction ever ran (undecided — in-flight or
        parked — transactions are absent: no participant can legitimately
        carry a decision for them yet).  Returns the live compact cache,
        not a copy: the streaming observer reads it at every batch
        boundary and the checkers only ever read."""
        return self._decisions_cache if self.txn_log or self._decisions_cache else None
