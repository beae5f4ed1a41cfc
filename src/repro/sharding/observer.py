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

:meth:`verdict` assembles a :class:`StreamingVerdict` mirroring the
router's post-mortem :meth:`~repro.sharding.router.ShardRouter.verdict`
shape — per-shard, per-generation, plus the cross-shard transaction
checks over the incrementally folded traces — and
:func:`parity_report` diffs the two for the equivalence test suite.

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

from repro.consistency.streaming import StreamingChecker, StreamingGenerationVerdict
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


@dataclass
class StreamingShardVerdict:
    """Online counterpart of the router's ``ShardVerdict``."""

    shard_id: int
    violation: LCMError | None = None
    generations: list[StreamingGenerationVerdict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.violation is None

    @property
    def fork_points(self) -> list[int]:
        points: set[int] = set()
        for generation in self.generations:
            points.update(generation.fork_points)
        return sorted(points)


@dataclass
class StreamingVerdict:
    """Online counterpart of the router's ``ShardedVerdict``."""

    shards: dict[int, StreamingShardVerdict] = field(default_factory=dict)
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
        #: router-attached providers for the transaction checks
        self._decisions: Callable[[], dict[str, CoordinatorDecision]] | None = None
        self._has_txns: Callable[[], bool] | None = None

    # ------------------------------------------------------------- wiring

    def attach_decisions(
        self,
        decisions: Callable[[], dict[str, CoordinatorDecision]],
        has_txns: Callable[[], bool],
    ) -> None:
        """Called by the shard router: the coordinator's decision log,
        for both the online withheld-decision scan and the verdict."""
        self._decisions = decisions
        self._has_txns = has_txns

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
        evidence; the stream stops consuming (mirroring the post-mortem,
        which never exports a halted shard's logs)."""
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
            # an unreachable enclave at a boundary; the verdict-time
            # harvest retries and reports it exactly like the post-mortem
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

    def verdict(self) -> StreamingVerdict:
        """The online verdict, shaped exactly like the router's merged
        post-mortem verdict (same shard ids, per-generation evaluation
        order, transaction evidence order)."""
        if not self.enabled:
            raise ConfigurationError(
                "streaming verification is disabled on this cluster"
            )
        cluster = self._cluster
        merged = StreamingVerdict()
        for shard_id in cluster.verdict_shard_ids:
            generations = [
                self._retired_verdict(shard_id, evidence)
                for evidence in cluster.retired_generations(shard_id)
            ]
            if cluster.is_live(shard_id):
                generations.append(self._live_verdict(shard_id))
            violation = next(
                (gen.violation for gen in generations if gen.violation is not None),
                None,
            )
            merged.shards[shard_id] = StreamingShardVerdict(
                shard_id, violation=violation, generations=generations
            )
        if self._has_txns is not None and self._has_txns():
            merged.txn_violations = check_txn_traces(
                self._txn_triples(), self._decisions() if self._decisions else {}
            )
        return merged

    def _retired_verdict(
        self, shard_id: int, evidence: Any
    ) -> StreamingGenerationVerdict:
        if evidence.violation is not None:
            return StreamingGenerationVerdict(
                evidence.generation, violation=evidence.violation
            )
        if evidence.logs is None:
            return StreamingGenerationVerdict(
                evidence.generation,
                violation=EnclaveError(
                    f"generation {evidence.generation} retired without audit "
                    "evidence"
                ),
            )
        stream = self._streams.get((shard_id, evidence.generation))
        if stream is None:
            return StreamingGenerationVerdict(
                evidence.generation,
                violation=EnclaveError(
                    f"generation {evidence.generation} was never streamed"
                ),
            )
        return stream.checker.result()

    def _live_verdict(self, shard_id: int) -> StreamingGenerationVerdict:
        cluster = self._cluster
        generation = cluster.shard_generation(shard_id)
        live = cluster.shard_violation(shard_id)
        if live is not None:
            return StreamingGenerationVerdict(generation, violation=live)
        stream = self._streams[(shard_id, generation)]
        shard = cluster._shard(shard_id)
        try:
            # final sync through the same accessor the post-mortem uses,
            # so an unreachable enclave surfaces the identical violation
            logs = cluster.audit_logs(shard_id)
        except (SecurityViolation, EnclaveError) as violation:
            return StreamingGenerationVerdict(generation, violation=violation)
        self._sync_full_logs(stream, logs)
        self._harvest_rest(stream, shard.history, shard.clients)
        return stream.checker.result()

    def _txn_triples(self) -> list[tuple[int, bool, dict]]:
        """Per-log transaction traces in exactly the post-mortem
        ``_txn_evidence`` order."""
        cluster = self._cluster
        triples: list[tuple[int, bool, dict]] = []
        for shard_id in cluster.verdict_shard_ids:
            for retired in cluster.retired_generations(shard_id):
                if not retired.logs:
                    continue
                stream = self._streams.get((shard_id, retired.generation))
                if stream is None:
                    continue
                for traces in stream.checker.txn_traces():
                    triples.append((shard_id, False, traces))
            if not cluster.is_live(shard_id):
                continue
            if cluster.shard_violation(shard_id) is not None:
                continue
            generation = cluster.shard_generation(shard_id)
            stream = self._streams.get((shard_id, generation))
            if stream is None:
                continue
            live = cluster.shard_healthy(shard_id)
            for traces in stream.checker.txn_traces():
                triples.append((shard_id, live, traces))
        return triples


def parity_report(streaming: StreamingVerdict, post: Any) -> list[str]:
    """Diff the online verdict against the post-mortem one; an empty
    list means full parity (same violations, same attribution, same
    fork points, same transaction findings)."""
    issues: list[str] = []
    if sorted(streaming.shards) != sorted(post.shards):
        issues.append(
            f"shard ids differ: streaming={sorted(streaming.shards)} "
            f"post={sorted(post.shards)}"
        )
        return issues
    for shard_id in sorted(post.shards):
        sv = streaming.shards[shard_id]
        pv = post.shards[shard_id]
        if _violation_sig(sv.violation) != _violation_sig(pv.violation):
            issues.append(
                f"shard {shard_id} violation differs: "
                f"streaming={_violation_sig(sv.violation)} "
                f"post={_violation_sig(pv.violation)}"
            )
        if sv.fork_points != pv.fork_points:
            issues.append(
                f"shard {shard_id} fork points differ: "
                f"streaming={sv.fork_points} post={pv.fork_points}"
            )
        if len(sv.generations) != len(pv.generations):
            issues.append(
                f"shard {shard_id} generation counts differ: "
                f"streaming={len(sv.generations)} post={len(pv.generations)}"
            )
            continue
        for s_gen, p_gen in zip(sv.generations, pv.generations):
            if _violation_sig(s_gen.violation) != _violation_sig(p_gen.violation):
                issues.append(
                    f"shard {shard_id} generation {p_gen.generation} differs: "
                    f"streaming={_violation_sig(s_gen.violation)} "
                    f"post={_violation_sig(p_gen.violation)}"
                )
    post_txn = [_violation_sig(v) for v in post.txn_violations]
    stream_txn = [_violation_sig(v) for v in streaming.txn_violations]
    if post_txn != stream_txn:
        issues.append(
            f"txn violations differ: streaming={stream_txn} post={post_txn}"
        )
    return issues


def _violation_sig(violation: Any) -> tuple[str, str] | None:
    if violation is None:
        return None
    return (type(violation).__name__, str(violation))
