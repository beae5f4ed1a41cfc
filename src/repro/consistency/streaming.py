"""Streaming (incremental) fork-linearizability verification.

The view-level reference checker
(:mod:`repro.consistency.fork_linearizability`) builds every client's
view from whole audit logs and replays each one.  :class:`StreamingChecker`
is the same Sec. 3.2.1 verification restructured as a fold over the
evidence, and it is the one checker every cluster verdict runs: the
online observer feeds it audit records per batch boundary as the run
produces them, with client ``(t, h)`` points and completed operations
streaming in alongside, and ``ShardRouter.verdict()`` replays a
generation's retained evidence through a fresh one in a single pass.
The checker maintains just enough state to

- verify the hash chain incrementally (gap / chain-mismatch, with the
  reference checker's exact messages);
- replay each log through ``F`` as it grows, recording result
  mismatches (view-correctness, check 1 of the reference checker);
- track real-time precedence violations per log (check 3) using only
  the retained suffix's own timestamps plus an O(1) summary of the
  discarded prefix;
- compare logs positionally for divergence and later agreement — the
  no-join property (check 4).  Because an operation's key embeds its
  sequence number and every verified log numbers records 1..n, a shared
  operation between two logs always sits at the *same* position, so the
  reference checker's suffix-set intersection reduces to per-position
  equality;
- fold transaction lifecycle traces for the cross-shard checker.

**Stable-frontier garbage collection.**  After :meth:`advance`, records
at or below the *floor* are discarded and summarized: per log a
``(base, base_chain, base_state)`` checkpoint (the chain value and the
replayed ``F`` state after the discarded prefix) plus the discarded
prefix's maximum invocation timestamp for the real-time check.  The
floor is the largest sequence number that can no longer influence any
future check::

    floor = min(stable_frontier(acks, n),        # every client observed it
                matched(a, b) for live log pairs)  # no divergence below it

``stable_frontier(acks, n)`` is the quorum-``n`` (all-clients) variant
of ``majority-stable(V)`` from :mod:`repro.core.stability`: the slowest
client's observed point.  Anything at or below it has been endorsed by
*every* client's chain, so no point, completion or divergence can land
there any more; the majority quorum frontier (Definition 2) is exported
as a metric but is *not* a safe GC bound — a minority client's view may
still extend below it.  Retained evidence is therefore O(unstable
suffix), not O(history) — the real-time evidence included: it lives on
the retained records, beside two scalars per log.

**Cost contract.**  Work is proportional to new evidence.  Per audit
record: one chain link, two decodes, one application of ``F`` (GC
adopts the state the replay computed) — O(1) amortised.  Per
completion: O(1) amortised and no encode while there is one log and the
history shows the audited operation; a record's canonical key is
derived when a second log or a differing completion first compares it.
The real-time check leaves through two O(1) exits when completions
arrive in response order (as a recorded history delivers them); an
out-of-order arrival walks the retained window, never further than the
highest timed position.  Per batch boundary: O(records + completions +
moved points) — a point that did not move is neither observed nor
located again.

:meth:`result` evaluates the checks in exactly the reference checker's
order (chain errors per log, unlocated points, replay, own-operation
completeness, real time, pairwise no-join) and reproduces its exception
types and messages.  A replay that never calls :meth:`advance` discards
nothing and judges the full evidence in one pass, linear in it (the
view-level checker replays the log once per client).

Known parity corners of the *online* verdict (adversarial evidence
*below* the GC floor, which a replay never collects): a fork whose
prefix diverges below every client's observed point cannot be
positionally compared against the discarded region (its chain
checkpoint mismatch is still reported as a divergence at the
checkpoint), and a history record substituting different operation
bytes for an already-discarded audit record is no longer replayed.
Both require the server to rewrite history below a point every client
has endorsed, which the chain checks catch through the clients'
machines first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro import serde
from repro.consistency.fork_linearizability import _UNTIMED_RESPONSE
from repro.consistency.history import OperationRecord
from repro.consistency.transactions import TxnTrace, trace_txn_operation
from repro.core.context import AuditRecord, NOP_OPERATION
from repro.core.stability import majority_quorum, stable_frontier
from repro.crypto.hashing import GENESIS_HASH, chain_extend
from repro.errors import ForkDetected, LCMError, SecurityViolation


def _canonical_key(client_id: int, operation: Any, sequence: int | None) -> bytes:
    """The reference checker's ``_record_key`` over raw fields (serde encodes
    tuples and lists identically, so view/audit operation shapes agree)."""
    if isinstance(operation, tuple):
        operation = list(operation)
    return serde.encode([client_id, operation, sequence])


def _is_nop_operation(operation: Any) -> bool:
    return (
        isinstance(operation, (list, tuple))
        and len(operation) == 1
        and operation[0] == NOP_OPERATION[0]
    )


def _copy_traces(traces: dict[str, TxnTrace]) -> dict[str, TxnTrace]:
    return {
        txn_id: TxnTrace(
            prepared=trace.prepared,
            decisions=set(trace.decisions),
            applied=set(trace.applied),
        )
        for txn_id, trace in traces.items()
    }


class _Rec:
    """One retained audit record with its view substitutions."""

    __slots__ = (
        "sequence", "client_id", "chain", "operation", "operation_view",
        "result_audit", "result_shown", "expected", "state", "_key",
        "is_nop", "in_txn", "completed", "invoked_at", "responded_at",
    )

    def __init__(self, sequence: int, client_id: int, chain: bytes,
                 operation: Any, result: Any) -> None:
        self.sequence = sequence
        self.client_id = client_id
        self.chain = chain
        #: decoded audit operation (state evolution until substitution)
        self.operation = operation
        #: what the view shows: history operation once completed
        self.operation_view = operation
        #: decoded audit result — the transaction-trace fold always uses
        #: the audited bytes
        self.result_audit = result
        self.result_shown = result
        self.expected: Any = None
        #: F state after this record, as the replay computed it — what
        #: the GC checkpoint adopts (``apply`` is persistent by contract)
        self.state: Any = None
        self._key: bytes | None = None
        self.is_nop = _is_nop_operation(operation)
        #: the audited bytes touched a transaction (GC re-folds only those)
        self.in_txn = False
        self.completed = False
        # untimed until a history completion supplies real timestamps —
        # concurrent with everything, exactly like a synthesized record
        self.invoked_at = 0
        self.responded_at = _UNTIMED_RESPONSE

    @property
    def key(self) -> bytes:
        """Canonical key of the view's operation, encoded on first use:
        only a second log (or a differing completion) ever compares it."""
        key = self._key
        if key is None:
            key = self._key = _canonical_key(
                self.client_id, self.operation_view, self.sequence
            )
        return key


class _LogState:
    """Incremental view of one enclave instance's audit log."""

    __slots__ = (
        "log_id", "length", "chain_head", "chain_error", "dead",
        "base", "base_chain", "base_state", "base_traces", "gc_max_inv",
        "records", "state", "mismatches", "rt_first", "traces",
        "max_inv", "top_timed", "open_txns",
    )

    def __init__(self, log_id: int, initial_state: Any) -> None:
        self.log_id = log_id
        self.length = 0
        self.chain_head = GENESIS_HASH
        self.chain_error: str | None = None
        self.dead = False          # stop consuming past a chain error
        self.base = 0              # records 1..base discarded
        self.base_chain = GENESIS_HASH
        self.base_state = initial_state
        self.base_traces: dict[str, TxnTrace] = {}
        self.gc_max_inv = 0        # max invoked_at over the discarded prefix
        self.records: dict[int, _Rec] = {}
        self.state = initial_state  # F state after records 1..length
        #: seq -> (operation_view, shown, expected); survives GC so the
        #: reference checker's exact message can still be produced
        self.mismatches: dict[int, tuple[Any, Any, Any]] = {}
        self.rt_first: int | None = None  # first position whose prefix violates
        self.traces: dict[str, TxnTrace] = {}
        #: real-time summary over every timed record so far: the largest
        #: ``invoked_at`` (discarded prefix included) and the highest timed
        #: position — the two O(1) exits of :meth:`_observe_timing`
        self.max_inv = 0
        self.top_timed = 0
        #: txn ids currently prepared-but-undecided *in this log* — the
        #: only candidates the withheld-decision scan must revisit
        self.open_txns: set[str] = set()


class _Pair:
    """Positional comparison state for one pair of logs."""

    __slots__ = ("a", "b", "matched", "agreed", "first_divergence",
                 "join_emitted", "frontier_fork_emitted")

    def __init__(self, a: int, b: int, matched: int = 0) -> None:
        self.a = a
        self.b = b
        #: longest common prefix (by record key) of the two full logs
        self.matched = matched
        #: positions > matched where both logs carry the same key (joins)
        self.agreed: set[int] = set()
        self.first_divergence: int | None = None
        self.join_emitted = False
        self.frontier_fork_emitted = False


@dataclass
class GenerationVerdict:
    """Fork-linearizability outcome for one generation of a shard: its
    pre-recovery life, a removed shard's final evidence, or the live
    group.  ``fork_points`` are the 0-based depths at which two client
    views carry distinct operations."""

    generation: int
    violation: LCMError | None = None
    fork_points: list[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.violation is None


class StreamingChecker:
    """Incrementally verify one LCM group (one shard generation).

    Feed order per harvest: :meth:`feed_records` (per log), then
    :meth:`observe_completion`, then :meth:`observe_point`, then
    :meth:`advance`.  :meth:`result` may be called at any time and is
    pure — it evaluates the retained state without consuming it.
    """

    def __init__(
        self,
        *,
        functionality: Any,
        client_ids: list[int],
        generation: int = 0,
        on_event: Callable[[str, dict], None] | None = None,
    ) -> None:
        self._functionality = functionality
        self._client_ids = list(client_ids)
        self.generation = generation
        self._on_event = on_event
        self._logs: list[_LogState] = []
        self._pairs: dict[tuple[int, int], _Pair] = {}
        #: latest observed (sequence, chain) per client
        self._points: dict[int, tuple[int, bytes]] = {
            client_id: (0, GENESIS_HASH) for client_id in self._client_ids
        }
        #: (client_id, sequence) -> OperationRecord, pruned below the floor
        self._completions: dict[tuple[int, int], OperationRecord] = {}
        #: first completion per client that carried no sequence number —
        #: such a record can never appear in any view (check 2)
        self._none_seq: dict[int, OperationRecord] = {}
        #: clients whose point may lie on no log: everyone else is located
        #: and stays so (the floor never passes a client's own point)
        self._suspects: set[int] = set(self._client_ids)
        self._floor = 0
        self.frontier = 0

    # ------------------------------------------------------------- events

    def _emit(self, name: str, **fields: Any) -> None:
        if self._on_event is not None:
            self._on_event(name, fields)

    # ------------------------------------------------------ log registration

    def register_log(self) -> int:
        log = _LogState(len(self._logs), self._functionality.initial_state())
        self._logs.append(log)
        for other in self._logs[:-1]:
            key = (other.log_id, log.log_id)
            self._pairs[key] = _Pair(*key)
        return log.log_id

    def register_fork(self, source_log_id: int, prefix_records: list[AuditRecord]) -> int:
        """Register a forked instance seeded with the primary's exported
        prefix.  When the prefix reaches the source's GC checkpoint with
        the same chain value, the discarded region is chain-certified
        identical: the fork inherits the source's checkpoint (replayed
        state, prefix traces, real-time summary) and only the retained
        suffix is re-fed.  A prefix contradicting the checkpoint is a
        divergence below the floor — recorded at the checkpoint position."""
        source = self._logs[source_log_id]
        log_id = self.register_log()
        log = self._logs[log_id]
        start = 0
        if source.base > 0 and len(prefix_records) >= source.base:
            checkpoint = prefix_records[source.base - 1]
            if (
                checkpoint.sequence == source.base
                and checkpoint.chain == source.base_chain
            ):
                log.base = source.base
                log.base_chain = source.base_chain
                log.base_state = source.base_state
                log.state = source.base_state
                log.base_traces = _copy_traces(source.base_traces)
                log.traces = _copy_traces(source.base_traces)
                log.open_txns = {
                    txn_id
                    for txn_id, trace in log.traces.items()
                    if trace.prepared and not trace.decisions
                }
                log.gc_max_inv = log.max_inv = source.gc_max_inv
                log.length = source.base
                log.chain_head = source.base_chain
                log.mismatches = {
                    seq: info
                    for seq, info in source.mismatches.items()
                    if seq <= source.base
                }
                if source.rt_first is not None and source.rt_first <= source.base:
                    log.rt_first = source.rt_first
                start = source.base
                pair = self._pair(source_log_id, log_id)
                pair.matched = source.base
            else:
                pair = self._pair(source_log_id, log_id)
                pair.first_divergence = source.base
                self._emit(
                    "fork-divergence",
                    log_a=source_log_id, log_b=log_id, position=source.base,
                )
        # pairs against *other* logs inherit the transitive bound
        for other in self._logs:
            if other.log_id in (source_log_id, log_id):
                continue
            src_pair = self._pair(source_log_id, other.log_id)
            new_pair = self._pair(other.log_id, log_id)
            new_pair.matched = min(src_pair.matched, log.base)
        self.feed_records(log_id, prefix_records[start:])
        return log_id

    def _pair(self, a: int, b: int) -> _Pair:
        return self._pairs[(min(a, b), max(a, b))]

    # ------------------------------------------------------------- feeding

    def feed_records(self, log_id: int, records: list[AuditRecord]) -> None:
        log = self._logs[log_id]
        for record in records:
            if log.dead:
                return
            self._append(log, record)

    def _append(self, log: _LogState, record: AuditRecord) -> None:
        position = log.length + 1
        if record.sequence != position:
            log.chain_error = (
                f"audit log gap: expected sequence {position}, "
                f"got {record.sequence}"
            )
            log.dead = True
            self._emit("chain-violation", log=log.log_id, message=log.chain_error)
            return
        value = chain_extend(
            log.chain_head, record.operation, record.sequence, record.client_id
        )
        if value != record.chain:
            log.chain_error = (
                f"audit log chain mismatch at sequence {record.sequence}"
            )
            log.dead = True
            self._emit("chain-violation", log=log.log_id, message=log.chain_error)
            return
        log.chain_head = value
        log.length = position
        operation = serde.decode(record.operation)
        try:
            shown = serde.decode(record.result)
        except Exception:
            shown = None
        rec = _Rec(position, record.client_id, record.chain, operation, shown)
        log.records[position] = rec
        # transaction lifecycle fold (always from the audit bytes)
        touched = trace_txn_operation(log.traces, operation, shown)
        if touched:
            rec.in_txn = True
            self._update_open_txns(log, touched)
        # replay through F
        self._replay_one(log, rec)
        # history substitution, if the completion already streamed in
        completion = self._completions.get((rec.client_id, position))
        if completion is not None:
            self._substitute(log, rec, completion)
        # positional no-join comparison against every other log
        for other in self._logs:
            if other.log_id == log.log_id or position <= other.base:
                continue
            peer = other.records.get(position)
            if peer is not None:
                self._compare_position(log, other, position)

    def _replay_one(self, log: _LogState, rec: _Rec) -> None:
        if rec.is_nop:
            rec.expected = None
            rec.state = log.state
            return
        rec.expected, rec.state = self._functionality.apply(
            log.state, rec.operation_view
        )
        log.state = rec.state
        self._refresh_mismatch(log, rec)

    def _refresh_mismatch(self, log: _LogState, rec: _Rec) -> None:
        bad = (not rec.is_nop) and rec.result_shown != rec.expected
        had = rec.sequence in log.mismatches
        if bad:
            log.mismatches[rec.sequence] = (
                rec.operation_view, rec.result_shown, rec.expected
            )
            if not had:
                self._emit(
                    "replay-mismatch", log=log.log_id, sequence=rec.sequence
                )
        elif had:
            del log.mismatches[rec.sequence]

    # ----------------------------------------------------------- completions

    def observe_completion(self, record: OperationRecord) -> None:
        """Fold one completed operation from the recorded history."""
        if record.sequence is None:
            self._none_seq.setdefault(record.client_id, record)
            self._emit("own-op-unsequenced", client=record.client_id)
            return
        if record.sequence > self._floor:
            # last-wins, mirroring the reference checker's lookup dict
            self._completions[(record.client_id, record.sequence)] = record
        for log in self._logs:
            rec = log.records.get(record.sequence)
            if rec is not None and rec.client_id == record.client_id:
                self._substitute(log, rec, record)

    def _substitute(self, log: _LogState, rec: _Rec, record: OperationRecord) -> None:
        operation = record.operation
        view = rec.operation_view
        # The history holds the operation as the client invoked it (a
        # tuple), the view what the audited bytes decoded to (a list);
        # serde encodes the two alike.  An honest completion therefore
        # shows the very operation the view already held — its canonical
        # key and nop-ness are unchanged by construction, nothing encodes
        changed = not (
            operation == view
            or (type(operation) is tuple and list(operation) == view)
        )
        if changed:
            new_key = _canonical_key(rec.client_id, operation, rec.sequence)
            new_nop = _is_nop_operation(operation)
            changed = new_key != rec.key or new_nop != rec.is_nop
        rec.completed = True
        rec.operation_view = operation
        rec.result_shown = record.result
        rec.invoked_at = record.invoked_at
        rec.responded_at = record.responded_at
        if changed:
            # the view's operation differs from the audited bytes: the
            # replayed state downstream of this record changes, and so
            # may the positional comparisons at this position
            rec._key = new_key
            rec.is_nop = new_nop
            self._recompute_replay(log)
            self._repair_pairs(log, rec.sequence)
        else:
            self._refresh_mismatch(log, rec)
        self._observe_timing(log, rec)

    def _recompute_replay(self, log: _LogState) -> None:
        """Re-derive the retained replay from the GC checkpoint."""
        state = log.base_state
        log.mismatches = {
            seq: info for seq, info in log.mismatches.items() if seq <= log.base
        }
        for seq in range(log.base + 1, log.length + 1):
            rec = log.records[seq]
            if rec.is_nop:
                rec.expected = None
                rec.state = state
                continue
            rec.expected, state = self._functionality.apply(
                state, rec.operation_view
            )
            rec.state = state
            self._refresh_mismatch(log, rec)
        log.state = state

    def _repair_pairs(self, log: _LogState, position: int) -> None:
        for other in self._logs:
            if other.log_id == log.log_id or position <= other.base:
                continue
            if other.records.get(position) is not None:
                self._compare_position(log, other, position, repair=True)

    def _update_open_txns(self, log: _LogState, touched: list[str]) -> None:
        for txn_id in touched:
            trace = log.traces[txn_id]
            if trace.prepared and not trace.decisions:
                log.open_txns.add(txn_id)
            else:
                log.open_txns.discard(txn_id)

    def _observe_timing(self, log: _LogState, rec: _Rec) -> None:
        """Real-time check 3, incremental: when a record gains timing,
        look for a contradiction against the retained records' timestamps
        plus the discarded prefix's invocation-time summary.  Completions
        arrive in response order on an honest run, so both directions
        leave through an O(1) exit; only an out-of-order arrival walks
        the retained window, and only as far as the evidence reaches."""
        s = rec.sequence
        records = log.records
        # as the later element: some earlier operation invoked after we
        # responded.  A response at or above every invocation seen cannot
        # be one; otherwise take the exact prefix maximum (discarded
        # summary + retained records below us)
        if rec.responded_at < log.max_inv and rec.responded_at < max(
            [log.gc_max_inv]
            + [records[p].invoked_at for p in range(log.base + 1, s)]
        ):
            self._note_rt(log, s)
        # as the earlier element: the leftmost later operation that
        # responded before we were invoked.  Nothing above the highest
        # timed position carries a timestamp
        if s < log.top_timed:
            for position in range(s + 1, log.top_timed + 1):
                if records[position].responded_at < rec.invoked_at:
                    self._note_rt(log, position)
                    break
        else:
            log.top_timed = s
        if rec.invoked_at > log.max_inv:
            log.max_inv = rec.invoked_at

    def _note_rt(self, log: _LogState, position: int) -> None:
        if log.rt_first is None or position < log.rt_first:
            log.rt_first = position
            self._emit("rt-violation", log=log.log_id, position=position)

    # -------------------------------------------------------------- points

    def observe_point(self, client_id: int, sequence: int, chain: bytes) -> None:
        self._points[client_id] = (sequence, chain)
        self._suspects.add(client_id)

    # ------------------------------------------------------------ pairwise

    def _compare_position(
        self, log: _LogState, other: _LogState, position: int, repair: bool = False
    ) -> None:
        pair = self._pair(log.log_id, other.log_id)
        rec_a = self._logs[pair.a].records.get(position)
        rec_b = self._logs[pair.b].records.get(position)
        if rec_a is None or rec_b is None:
            return
        equal = rec_a.key == rec_b.key
        if repair:
            self._rebuild_pair(pair)
            return
        if equal:
            if position == pair.matched + 1 and pair.first_divergence is None:
                pair.matched = position
                self._advance_matched(pair)
            else:
                pair.agreed.add(position)
                if pair.first_divergence is not None and not pair.join_emitted:
                    pair.join_emitted = True
                    self._emit(
                        "fork-join",
                        log_a=pair.a, log_b=pair.b,
                        position=position, divergence=pair.matched,
                    )
        else:
            if pair.first_divergence is None or position < pair.first_divergence:
                if pair.first_divergence is None:
                    self._emit(
                        "fork-divergence",
                        log_a=pair.a, log_b=pair.b, position=position,
                    )
                pair.first_divergence = position

    def _advance_matched(self, pair: _Pair) -> None:
        while (pair.matched + 1) in pair.agreed:
            pair.matched += 1
            pair.agreed.discard(pair.matched)

    def _rebuild_pair(self, pair: _Pair) -> None:
        """Full positional re-derivation over the retained overlap (only
        after a view substitution changed a record's key)."""
        log_a, log_b = self._logs[pair.a], self._logs[pair.b]
        # everything at or below both checkpoints was matched (the GC
        # floor never passes a pair's matched prefix)
        start = max(log_a.base, log_b.base)
        matched = start
        agreed: set[int] = set()
        divergence: int | None = None
        upto = min(log_a.length, log_b.length)
        for position in range(start + 1, upto + 1):
            rec_a = log_a.records.get(position)
            rec_b = log_b.records.get(position)
            if rec_a is None or rec_b is None:
                continue
            if rec_a.key == rec_b.key:
                if position == matched + 1 and divergence is None:
                    matched = position
                else:
                    agreed.add(position)
            elif divergence is None:
                divergence = position
        pair.matched = matched
        pair.agreed = agreed
        pair.first_divergence = divergence

    # ------------------------------------------------------------- advance

    def advance(self) -> None:
        """Recompute the stability frontier, emit frontier-level fork
        events, and garbage-collect evidence below the floor."""
        acks = [self._points[client_id][0] for client_id in self._client_ids]
        if acks:
            self.frontier = stable_frontier(acks, majority_quorum(len(acks)))
            floor = stable_frontier(acks, len(acks))
        else:
            self.frontier = floor = 0
        for pair in self._pairs.values():
            if pair.first_divergence is not None:
                floor = min(floor, pair.matched)
                if (
                    not pair.frontier_fork_emitted
                    and self.frontier > pair.matched
                ):
                    pair.frontier_fork_emitted = True
                    self._emit(
                        "stable-frontier-fork",
                        log_a=pair.a, log_b=pair.b,
                        divergence=pair.first_divergence,
                        frontier=self.frontier,
                    )
            else:
                # an undiverged pair still pins the floor to its compared
                # prefix: a later append could diverge at matched + 1
                floor = min(floor, pair.matched)
        if floor > self._floor:
            self._floor = floor
            self._collect()

    def _collect(self) -> None:
        floor = self._floor
        for log in self._logs:
            target = min(floor, log.length)
            while log.base < target:
                seq = log.base + 1
                rec = log.records.pop(seq)
                log.base = seq
                log.base_chain = rec.chain
                log.base_state = rec.state
                if rec.completed:
                    log.gc_max_inv = max(log.gc_max_inv, rec.invoked_at)
                if rec.in_txn:
                    trace_txn_operation(
                        log.base_traces, rec.operation, rec.result_audit
                    )
        for key in [k for k in self._completions if k[1] <= floor]:
            del self._completions[key]

    # ------------------------------------------------------------- queries

    @property
    def floor(self) -> int:
        return self._floor

    @property
    def retained_records(self) -> int:
        return sum(len(log.records) for log in self._logs)

    @property
    def log_count(self) -> int:
        return len(self._logs)

    def log_length(self, log_id: int) -> int:
        return self._logs[log_id].length

    def txn_traces(self) -> list[dict[str, TxnTrace]]:
        """Per-log transaction traces (registration order), folded from
        the audited bytes of every record fed."""
        return [log.traces for log in self._logs]

    def open_txn_traces(self) -> list[tuple[dict[str, TxnTrace], set[str]]]:
        """Per-log ``(traces, open txn ids)`` pairs.  The open set names
        the prepared-but-undecided transactions of each log — the only
        traces the online withheld-decision scan can newly flag — so a
        boundary with no open transactions costs nothing."""
        return [(log.traces, log.open_txns) for log in self._logs]

    def unlocated_clients(self) -> list[int]:
        """Clients whose current point lies on no log (online detection
        of an invented history).  Only points that moved since the last
        call, or were unlocated then, are looked up again."""
        self._suspects = {
            client_id
            for client_id in self._suspects
            if self._locate(client_id) is None
        }
        if not self._suspects:
            return []
        return [
            client_id
            for client_id in self._client_ids
            if client_id in self._suspects
        ]

    # -------------------------------------------------------------- verdict

    def _locate(self, client_id: int) -> tuple[_LogState, int] | None:
        """First log (registration order) the client's point lies on —
        exactly ``prefix_for`` tried in the reference checker's log order."""
        sequence, chain = self._points[client_id]
        if not self._logs:
            return None
        if sequence == 0:
            return self._logs[0], 0
        for log in self._logs:
            if sequence > log.length or sequence < log.base:
                continue
            if sequence == log.base:
                if log.base_chain == chain:
                    return log, sequence
                continue
            rec = log.records.get(sequence)
            if rec is not None and rec.chain == chain:
                return log, sequence
        return None

    def result(self) -> GenerationVerdict:
        """Evaluate the retained evidence, mirroring the reference
        checker's order, exception types and messages exactly."""
        # 0. chain consistency, in log order (views_from_audit_logs
        # verifies every log before building any view)
        for log in self._logs:
            if log.chain_error is not None:
                return GenerationVerdict(
                    self.generation, violation=SecurityViolation(log.chain_error)
                )
        # locate every client's view (first unlocatable point wins)
        assignments: dict[int, tuple[_LogState, int]] = {}
        for client_id in self._client_ids:
            located = self._locate(client_id)
            if located is None:
                return GenerationVerdict(
                    self.generation,
                    violation=SecurityViolation(
                        f"client {client_id} observed a chain value on no "
                        "enclave log"
                    ),
                )
            assignments[client_id] = located
        # 1. per-view sequential correctness against F
        for client_id in self._client_ids:
            log, upto = assignments[client_id]
            bad = [seq for seq in log.mismatches if seq <= upto]
            if bad:
                operation, shown, expected = log.mismatches[min(bad)]
                return GenerationVerdict(
                    self.generation,
                    violation=SecurityViolation(
                        f"view of client {client_id} is not a correct "
                        f"execution: operation {operation!r} returned "
                        f"{shown!r}, expected {expected!r}"
                    ),
                )
        # 2. completeness: an unsequenced completion appears in no view
        for client_id in self._client_ids:
            if client_id in self._none_seq:
                return GenerationVerdict(
                    self.generation,
                    violation=SecurityViolation(
                        f"view of client {client_id} misses its own "
                        "operation seq=None"
                    ),
                )
        # 3. real-time order within each view
        for client_id in self._client_ids:
            log, upto = assignments[client_id]
            if log.rt_first is not None and log.rt_first <= upto:
                return GenerationVerdict(
                    self.generation,
                    violation=SecurityViolation(
                        f"view of client {client_id} contradicts real-time "
                        "order"
                    ),
                )
        # 4. no-join across views, in sorted client-pair order
        ordered = sorted(self._client_ids)
        for index, a_id in enumerate(ordered):
            for b_id in ordered[index + 1:]:
                log_a, upto_a = assignments[a_id]
                log_b, upto_b = assignments[b_id]
                if log_a.log_id == log_b.log_id:
                    continue
                pair = self._pair(log_a.log_id, log_b.log_id)
                shorter = min(upto_a, upto_b)
                common = min(pair.matched, shorter)
                if common >= shorter:
                    continue
                joined = sum(
                    1 for position in pair.agreed if common < position <= shorter
                )
                if joined:
                    return GenerationVerdict(
                        self.generation,
                        violation=ForkDetected(
                            f"views of clients {a_id} and {b_id} diverge at "
                            f"position {common} but later share {joined} "
                            "operation(s): forks were joined"
                        ),
                    )
        # success: fork points — 0-based depths where at least two views
        # carry distinct operations
        depths: set[int] = set()
        for index, a_id in enumerate(ordered):
            for b_id in ordered[index + 1:]:
                log_a, upto_a = assignments[a_id]
                log_b, upto_b = assignments[b_id]
                if log_a.log_id == log_b.log_id:
                    continue
                pair = self._pair(log_a.log_id, log_b.log_id)
                shorter = min(upto_a, upto_b)
                for position in range(pair.matched + 1, shorter + 1):
                    if position not in pair.agreed:
                        depths.add(position - 1)
        return GenerationVerdict(
            self.generation, fork_points=sorted(depths)
        )
