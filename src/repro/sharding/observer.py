"""Cluster-side streaming verification: the online global observer.

:class:`ClusterObserver` drives one
:class:`~repro.consistency.streaming.StreamingChecker` per shard
*generation*, harvesting evidence at every batch boundary (the
dispatcher's ``on_batch_complete`` hook fires it before the idle-hook
boundary actions, so the verifier sees a batch's audit suffix before a
deferred rebalance folds the live log into the migration prefix):

- the primary log is followed incrementally across migrations — the
  ``audit_prefix`` captured at each rebalance plus an
  ``export_audit_since`` ecall for the live context's new records;
- forked instances are registered as they appear (seeded with the fork's
  captured ``log_prefix``) and followed the same way;
- a crash freezes the log sources to the reconstruction captured by
  ``crash_shard``; completions and points still stream until the
  generation retires (replies already on the wire keep landing);
- retirement (shard removal, recovery bump) syncs the stream against
  the frozen :class:`~repro.sharding.cluster.GenerationEvidence` and
  seals it; a recovered shard gets a fresh stream for its new
  generation.

This module also holds the one verdict walk, :func:`cluster_verdict`:
every shard id × (retired generations, then the live one), each judged
by a :class:`~repro.consistency.streaming.StreamingChecker`, then the
cross-shard transaction rules over every judged log's folded traces.
Both verdicts run it and differ only in the checker they hand it:

- :meth:`ClusterObserver.verdict` (``router.streaming_verdict()``) uses
  the online streams, synced one last time;
- ``router.verdict()`` uses :func:`replay_checker` — a fresh checker per
  generation fed the retained evidence in one pass, linear in it, with
  no event sink and no garbage collection.

Both return one :class:`ShardedVerdict` of :class:`ShardVerdict` of
:class:`~repro.consistency.streaming.GenerationVerdict`;
:func:`parity_report` diffs two of them.

All verifier activity is observable: per-shard gauges
(``verifier.frontier``, ``verifier.floor``, ``verifier.retained_records``)
and a ``verifier.events`` counter per event kind land in the cluster's
metrics registry, and each online detection (chain violation, replay
mismatch, real-time contradiction, fork divergence/join,
stable-frontier fork, withheld transaction decision, unlocated client
point) is emitted as a registry event the moment it is detectable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.consistency.streaming import GenerationVerdict, StreamingChecker
from repro.consistency.transactions import (
    CoordinatorDecision,
    check_txn_traces,
    withheld_decision,
)
from repro.errors import (
    ConfigurationError,
    EnclaveError,
    LCMError,
    SecurityViolation,
)

#: the coordinator's decision log, by transaction id
Decisions = dict[str, CoordinatorDecision]


@dataclass
class ShardVerdict:
    """Fork-linearizability outcome for one shard id, merged across every
    generation that id ever ran (crash/recovery bumps the generation;
    each generation is an independent group with its own keys and chain,
    so each is checked against a fresh initial state)."""

    shard_id: int
    generations: list[GenerationVerdict] = field(default_factory=list)

    @property
    def violation(self) -> LCMError | None:
        """The first violation found in any generation — usually a
        :class:`SecurityViolation`; a stopped enclave whose evidence is
        unreachable surfaces as the :class:`EnclaveError` export raised."""
        return next(
            (gen.violation for gen in self.generations if gen.violation is not None),
            None,
        )

    @property
    def ok(self) -> bool:
        return self.violation is None

    @property
    def fork_points(self) -> list[int]:
        """Fork depths observed in any generation of this shard."""
        points: set[int] = set()
        for generation in self.generations:
            points.update(generation.fork_points)
        return sorted(points)


@dataclass
class ShardedVerdict:
    """Per-shard evidence merged into one cluster-level verdict."""

    shards: dict[int, ShardVerdict] = field(default_factory=dict)
    #: cross-shard transaction checks (empty when no transactions ran)
    txn_violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.txn_violations and all(
            verdict.ok for verdict in self.shards.values()
        )

    @property
    def violations(self) -> dict[int, LCMError]:
        return {
            shard_id: verdict.violation
            for shard_id, verdict in self.shards.items()
            if verdict.violation is not None
        }

    @property
    def forked_shards(self) -> list[int]:
        """Shards whose evidence shows diverged (but unjoined) histories."""
        return sorted(
            shard_id
            for shard_id, verdict in self.shards.items()
            if verdict.fork_points
        )


class _Stream:
    """One (shard id, generation) verification stream."""

    __slots__ = (
        "shard_id", "generation", "checker", "history_offset",
        "violated", "frozen", "withheld_emitted", "gauges", "points",
    )

    def __init__(self, shard_id: int, generation: int, checker: StreamingChecker):
        self.shard_id = shard_id
        self.generation = generation
        self.checker = checker
        self.history_offset = 0
        self.violated = False
        self.frozen = False
        self.withheld_emitted: set[str] = set()
        #: (frontier, floor, retained) gauge triple, resolved once — the
        #: registry lookup is per-boundary hot
        self.gauges: tuple | None = None
        #: client id -> the (sequence, chain) point last handed to the checker
        self.points: dict[int, tuple[int, bytes]] = {}


class ClusterObserver:
    """Streams every shard generation's evidence through a checker."""

    def __init__(self, cluster: Any, *, registry: Any = None, enabled: bool = True):
        self._cluster = cluster
        self._registry = registry
        self.enabled = enabled
        self._streams: dict[tuple[int, int], _Stream] = {}
        #: router-attached provider of the coordinator's decision log
        #: (``None`` while no transaction ever ran)
        self._decisions: Callable[[], Decisions | None] | None = None

    # ------------------------------------------------------------- wiring

    def attach_decisions(self, decisions: Callable[[], Decisions | None]) -> None:
        """Called by the shard router: the coordinator's decision log,
        for both the online withheld-decision scan and the verdict."""
        self._decisions = decisions

    def _make_on_event(self, shard_id: int, generation: int):
        def on_event(name: str, fields: dict) -> None:
            if self._registry is None:
                return
            self._registry.counter("verifier.events", kind=name).inc()
            self._registry.emit(
                f"verifier.{name}",
                shard=shard_id, generation=generation, **fields,
            )

        return on_event

    # -------------------------------------------------------- shard lifecycle

    def on_provisioned(self, shard: Any) -> None:
        """A generation came up (initial provisioning, add_shard, or a
        recovery bump): open its stream."""
        if not self.enabled:
            return
        key = (shard.shard_id, shard.generation)
        checker = StreamingChecker(
            functionality=self._cluster.functionality(),
            client_ids=list(self._cluster.client_ids),
            generation=shard.generation,
            on_event=self._make_on_event(shard.shard_id, shard.generation),
        )
        checker.register_log()  # log 0: the generation's primary
        self._streams[key] = _Stream(shard.shard_id, shard.generation, checker)

    def on_violation(self, shard: Any) -> None:
        """A live violation was recorded: the violation *is* the
        evidence; the stream stops consuming (the verdict never exports a
        halted shard's logs either)."""
        stream = self._stream(shard)
        if stream is not None:
            stream.violated = True

    def on_crash(self, shard: Any) -> None:
        """Hardware died: sync against the crash-time reconstruction.
        Completions and points keep streaming until the generation is
        retired — replies already on the wire still arrive."""
        stream = self._stream(shard)
        if stream is None or stream.frozen or stream.violated:
            return
        if shard.crash_logs is not None:
            self._sync_full_logs(stream, shard.crash_logs)
        self._harvest_rest(stream, shard.history, shard.clients)

    def on_retired(self, shard: Any, evidence: Any) -> None:
        """A generation retired (removal or recovery): final sync from
        the frozen evidence, then seal the stream."""
        stream = self._stream(shard)
        if stream is None or stream.frozen:
            return
        if evidence.violation is not None:
            stream.violated = True
        elif evidence.logs is not None:
            self._sync_full_logs(stream, evidence.logs)
            self._harvest_rest(stream, evidence.history, evidence.clients)
        stream.frozen = True

    # ------------------------------------------------------------ harvesting

    def on_batch_boundary(self, shard: Any) -> None:
        """Dispatcher hook: harvest this shard's new evidence."""
        self.harvest(shard)
        if self._decisions is not None and shard.healthy:
            self._scan_withheld(shard)

    def harvest(self, shard: Any) -> None:
        stream = self._stream(shard)
        if stream is None or stream.frozen or stream.violated:
            return
        if shard.violation is not None:
            stream.violated = True
            return
        try:
            self._harvest_logs(stream, shard)
        except (SecurityViolation, EnclaveError):
            # an unreachable enclave at a boundary; the verdict's own
            # export retries and reports it against the generation
            return
        self._harvest_rest(stream, shard.history, shard.clients)
        for client_id in stream.checker.unlocated_clients():
            self._make_on_event(stream.shard_id, stream.generation)(
                "unlocated-point", {"client": client_id}
            )

    def _harvest_logs(self, stream: _Stream, shard: Any) -> None:
        if shard.crash_logs is not None:
            self._sync_full_logs(stream, shard.crash_logs)
            return
        checker = stream.checker
        prefix = shard.audit_prefix
        fed = checker.log_length(0)
        if fed < len(prefix):
            checker.feed_records(0, prefix[fed:])
            fed = checker.log_length(0)
        suffix = shard.host.enclave.ecall("export_audit_since", fed - len(prefix))
        if suffix:
            checker.feed_records(0, list(suffix))
        for index, fork in enumerate(shard.forks):
            log_id = index + 1
            if log_id >= checker.log_count:
                checker.register_fork(0, list(fork.log_prefix))
            fed = checker.log_length(log_id)
            instance = shard.host.instances[fork.instance_index]
            offset = fed - len(fork.log_prefix)
            suffix = instance.enclave.ecall("export_audit_since", max(offset, 0))
            if suffix:
                checker.feed_records(log_id, list(suffix))

    def _sync_full_logs(self, stream: _Stream, logs: list) -> None:
        """Catch the stream up against fully materialized logs (crash
        reconstructions, retirement evidence)."""
        checker = stream.checker
        for index, log in enumerate(logs):
            if index >= checker.log_count:
                if index == 0:
                    checker.register_log()
                else:
                    checker.register_fork(0, list(log))
                    continue
            fed = checker.log_length(index)
            if fed < len(log):
                checker.feed_records(index, list(log)[fed:])

    def _harvest_rest(self, stream: _Stream, history: Any, clients: Any) -> None:
        checker = stream.checker
        fresh = history.records_since(stream.history_offset)
        stream.history_offset += len(fresh)
        for record in fresh:
            checker.observe_completion(record)
        points = stream.points
        for client_id, machine in clients.items():
            point = (machine.last_sequence, machine.last_chain)
            if points.get(client_id) != point:
                points[client_id] = point
                checker.observe_point(client_id, *point)
        checker.advance()
        if self._registry is not None:
            if stream.gauges is None:
                shard_label = str(stream.shard_id)
                stream.gauges = (
                    self._registry.gauge("verifier.frontier", shard=shard_label),
                    self._registry.gauge("verifier.floor", shard=shard_label),
                    self._registry.gauge(
                        "verifier.retained_records", shard=shard_label
                    ),
                )
            frontier, floor, retained = stream.gauges
            frontier.set(checker.frontier)
            floor.set(checker.floor)
            retained.set(checker.retained_records)

    def _scan_withheld(self, shard: Any) -> None:
        """Online rule-3 scan: a live history holding a prepare whose
        completed decision it never saw is a forked instance withholding
        the decision — detectable the moment the decision completes."""
        stream = self._stream(shard)
        if stream is None or stream.frozen or stream.violated:
            return
        per_log = stream.checker.open_txn_traces()
        if not any(open_ids for _traces, open_ids in per_log):
            return  # nothing prepared-and-undecided: the scan is free
        decisions = self._decisions()
        if not decisions:
            return
        emit = self._make_on_event(stream.shard_id, stream.generation)
        for traces, open_ids in per_log:
            for txn_id in sorted(open_ids):
                if txn_id in stream.withheld_emitted:
                    continue
                decision = withheld_decision(
                    shard.shard_id, txn_id, traces[txn_id], decisions
                )
                if decision is not None:
                    stream.withheld_emitted.add(txn_id)
                    emit(
                        "txn-withheld",
                        {"txn_id": txn_id, "decision": decision},
                    )

    def _stream(self, shard: Any) -> _Stream | None:
        if not self.enabled:
            return None
        return self._streams.get((shard.shard_id, shard.generation))

    # --------------------------------------------------------------- verdict

    def retained_records(self, shard_id: int) -> int:
        """Retained evidence for a shard's live generation (tests)."""
        generation = self._cluster.shard_generation(shard_id)
        stream = self._streams[(shard_id, generation)]
        return stream.checker.retained_records

    def verdict(self) -> ShardedVerdict:
        """The online verdict: :func:`cluster_verdict` over the streams,
        each live one synced a last time."""
        if not self.enabled:
            raise ConfigurationError(
                "streaming verification is disabled on this cluster"
            )
        return cluster_verdict(
            self._cluster,
            self._stream_checker,
            self._decisions() if self._decisions is not None else None,
        )

    def _stream_checker(
        self, shard_id: int, generation: int, logs: list, history: Any, clients: dict
    ) -> StreamingChecker:
        stream = self._streams[(shard_id, generation)]
        if not stream.frozen:
            # the live generation: a final sync against the evidence the
            # replay reads (retirement already synced and sealed the rest)
            self._sync_full_logs(stream, logs)
            self._harvest_rest(stream, history, clients)
        return stream.checker


def cluster_verdict(
    cluster: Any,
    checker_for: Callable[..., StreamingChecker],
    decisions: Decisions | None,
) -> ShardedVerdict:
    """The one verdict walk: every shard id that ever carried evidence,
    its retired generations oldest first and then the live one, each
    judged by the checker ``checker_for(shard_id, generation, logs,
    history, clients)`` returns; then, unless
    ``decisions`` is ``None`` (no transaction ever ran), the cross-shard
    transaction rules over every judged log's traces in the same order.

    A generation that died holding a violation, retired without audit
    evidence, or whose live audit export fails is judged by that error
    alone and contributes no transaction evidence.  Never raises.
    """
    merged = ShardedVerdict()
    per_log: list[tuple[int, bool, dict]] = []
    for shard_id in cluster.verdict_shard_ids:
        verdict = merged.shards[shard_id] = ShardVerdict(shard_id)
        for generation, violation, logs, history, clients, live in _generations(
            cluster, shard_id
        ):
            if violation is not None:
                verdict.generations.append(GenerationVerdict(generation, violation))
                continue
            checker = checker_for(shard_id, generation, logs, history, clients)
            verdict.generations.append(checker.result())
            per_log.extend((shard_id, live, traces) for traces in checker.txn_traces())
    if decisions is not None:
        merged.txn_violations = check_txn_traces(per_log, decisions)
    return merged


def _generations(cluster: Any, shard_id: int):
    """One shard id's generations as ``(generation, violation, logs,
    history, clients, live)``: the retired ones, then the live one.
    ``live`` marks the histories the withheld-decision rule applies to —
    a healthy live generation's, not a crashed or retired one's."""
    for evidence in cluster.retired_generations(shard_id):
        violation = evidence.violation
        if violation is None and evidence.logs is None:
            violation = EnclaveError(
                f"generation {evidence.generation} retired without audit evidence"
            )
        yield (
            evidence.generation, violation, evidence.logs,
            evidence.history, evidence.clients, False,
        )
    if not cluster.is_live(shard_id):
        return
    shard = cluster._shard(shard_id)
    # a violation caught during the run *is* the evidence: the halted
    # enclave refuses exports
    violation, logs = shard.violation, None
    if violation is None:
        try:
            logs = cluster.audit_logs(shard_id)
        except (SecurityViolation, EnclaveError) as caught:
            # a stopped enclave whose audit log is unreachable
            violation = caught
    yield (
        shard.generation, violation, logs, shard.history, shard.clients,
        shard.healthy,
    )


def replay_checker(
    cluster: Any,
    shard_id: int,
    generation: int,
    logs: list,
    history: Any,
    clients: dict,
) -> StreamingChecker:
    """A fresh checker fed one generation's retained evidence in one pass:
    every audit log in order, then the recorded history's completions,
    then each client's final ``(t, h)`` point.  It never advances, so it
    collects nothing, and it has no event sink, so a replay emits no
    ``verifier.*`` event.  ``shard_id`` is unused: the signature is
    :func:`cluster_verdict`'s ``checker_for``."""
    checker = StreamingChecker(
        functionality=cluster.functionality(),
        client_ids=list(clients),
        generation=generation,
    )
    for log in logs:
        checker.feed_records(checker.register_log(), log)
    for record in history.records():
        checker.observe_completion(record)
    for client_id, machine in clients.items():
        checker.observe_point(client_id, machine.last_sequence, machine.last_chain)
    return checker


def parity_report(streaming: ShardedVerdict, replay: ShardedVerdict) -> list[str]:
    """Diff the online verdict against the replayed one; an empty
    list means full parity (same violations, same attribution, same
    fork points, same transaction findings)."""
    issues: list[str] = []
    if sorted(streaming.shards) != sorted(replay.shards):
        issues.append(
            f"shard ids differ: streaming={sorted(streaming.shards)} "
            f"replay={sorted(replay.shards)}"
        )
        return issues
    for shard_id in sorted(replay.shards):
        sv = streaming.shards[shard_id]
        rv = replay.shards[shard_id]
        if _violation_sig(sv.violation) != _violation_sig(rv.violation):
            issues.append(
                f"shard {shard_id} violation differs: "
                f"streaming={_violation_sig(sv.violation)} "
                f"replay={_violation_sig(rv.violation)}"
            )
        if sv.fork_points != rv.fork_points:
            issues.append(
                f"shard {shard_id} fork points differ: "
                f"streaming={sv.fork_points} replay={rv.fork_points}"
            )
        if len(sv.generations) != len(rv.generations):
            issues.append(
                f"shard {shard_id} generation counts differ: "
                f"streaming={len(sv.generations)} replay={len(rv.generations)}"
            )
            continue
        for s_gen, r_gen in zip(sv.generations, rv.generations):
            if _violation_sig(s_gen.violation) != _violation_sig(r_gen.violation):
                issues.append(
                    f"shard {shard_id} generation {r_gen.generation} differs: "
                    f"streaming={_violation_sig(s_gen.violation)} "
                    f"replay={_violation_sig(r_gen.violation)}"
                )
    replay_txn = [_violation_sig(v) for v in replay.txn_violations]
    stream_txn = [_violation_sig(v) for v in streaming.txn_violations]
    if replay_txn != stream_txn:
        issues.append(
            f"txn violations differ: streaming={stream_txn} replay={replay_txn}"
        )
    return issues


def _violation_sig(violation: Any) -> tuple[str, str] | None:
    if violation is None:
        return None
    return (type(violation).__name__, str(violation))
