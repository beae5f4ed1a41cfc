"""Cross-shard transaction atomicity checking.

The per-shard checker (:class:`~repro.consistency.streaming.StreamingChecker`)
certifies each LCM group's history independently; it cannot see that a
transaction spanning two groups committed on one and vanished on the
other, because each half is a perfectly well-formed operation in its own
chain.  This module holds the missing cross-shard rules.  The checker
folds every audit record it is fed into per-transaction
:class:`TxnTrace` values (:func:`trace_txn_operation`, over the prepare /
commit / abort lifecycle of :mod:`repro.kvstore.functionality`), one set
per audit log; the cluster verdict hands the traces of every log a
global observer holds — live generations, their forked instances, and
retired generations — to :func:`check_txn_traces`, which verifies them
against the coordinator's decision log:

1. **no divergent applied decisions** — no transaction has a commit
   *applied* in one history and an abort *applied* in another (any
   shard, any generation, any fork instance);
2. **coordinator consistency** — every applied decision matches what the
   coordinator decided, and no history carries a decision for a
   transaction the coordinator never ran (decisions cannot be forged —
   they are kC-sealed client operations — so a mismatch means the
   evidence was tampered with or a client went rogue);
3. **no withheld decisions** — for every transaction whose decision
   fully completed at the coordinator, every *live* history of a
   participant shard that contains the prepare must also contain the
   decision.  This is the fork detector: a forked enclave instance
   serving some clients a history where the transaction is still
   prepared — while the primary applied the commit — is exactly "the
   shard answered commit to one client and abort (by omission) to
   another".  Histories of *crashed* generations are exempt: their
   decision was physically lost with the hardware, and the coordinator's
   replay lands on the next generation (where rule 2 still checks it).
   :func:`withheld_decision` is this rule for one trace; the online
   observer also runs it at batch boundaries.

Violations are reported as :class:`~repro.errors.TxnAtomicityViolation`
values (never raised from here — the merged verdict collects them per
run, and ``ShardRouter.check_fork_linearizable`` raises the first one).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import TxnAtomicityViolation
from repro.kvstore.functionality import (
    TXN_ABORTED,
    TXN_COMMITTED,
    TXN_PREPARED,
    iter_txn_lifecycle,
)


@dataclass
class CoordinatorDecision:
    """One entry of the coordinator's decision log."""

    txn_id: str
    decision: str                 # "C" | "A"
    participants: tuple[int, ...]  # shard ids the prepare went to
    complete: bool                # every decision round-tripped


@dataclass
class TxnTrace:
    """What one log says about one transaction."""

    #: a prepare that *voted PREPARED* (and so holds locks awaiting a
    #: decision) — a conflict-rejected prepare locks nothing and is
    #: legitimately never followed by a decision
    prepared: bool = False
    #: decisions present in the log (any result — a no-op replay still
    #: proves the decision was shown to this history)
    decisions: set[str] = field(default_factory=set)
    #: decisions that actually mutated state (result marker COMMITTED /
    #: ABORTED rather than ALREADY / UNKNOWN)
    applied: set[str] = field(default_factory=set)


def trace_txn_operation(
    traces: dict[str, TxnTrace], operation: object, result: object
) -> list[str]:
    """Fold one decoded (operation, result) pair into per-txn traces.

    The per-record core of transaction-lifecycle extraction: the
    streaming checker calls it once per audit record it is fed.  A grouped
    operation folds exactly like the equivalent sequence of single ones
    (both walk :func:`~repro.kvstore.functionality.iter_txn_lifecycle`),
    so grouped and per-txn evidence reach identical traces — the parity
    the verdict relies on.  Returns the transaction ids the record
    touched (empty for non-transaction records).
    """
    touched: list[str] = []
    for kind, txn_id, _payload, entry_result in iter_txn_lifecycle(
        operation, result
    ):
        touched.append(txn_id)
        trace = traces.get(txn_id)
        if trace is None:
            trace = traces[txn_id] = TxnTrace()
        if kind == "prepare" or kind == "resolved":
            # a resolved waiter's vote is its (deferred) prepare outcome
            if (
                isinstance(entry_result, list)
                and entry_result
                and entry_result[0] == TXN_PREPARED
            ):
                trace.prepared = True
            continue
        decision = "C" if kind == "commit" else "A"
        trace.decisions.add(decision)
        if isinstance(entry_result, list) and entry_result:
            if entry_result[0] == TXN_COMMITTED:
                trace.applied.add("C")
            elif entry_result[0] == TXN_ABORTED:
                trace.applied.add("A")
    return touched


def check_txn_traces(
    per_log: list[tuple[int, bool, dict[str, TxnTrace]]],
    decisions: dict[str, CoordinatorDecision],
) -> list[TxnAtomicityViolation]:
    """The three cross-shard checks over per-log traces; returns
    violations, never raises.

    ``per_log`` holds ``(shard_id, live, traces)`` triples in evidence
    order, the traces being what the streaming checker folded record by
    record.
    """
    violations: list[TxnAtomicityViolation] = []

    # 1 + 2: applied decisions agree globally and with the coordinator
    applied_by_txn: dict[str, dict[str, list[int]]] = {}
    for shard_id, _live, traces in per_log:
        for txn_id, trace in traces.items():
            for decision in trace.applied:
                applied_by_txn.setdefault(txn_id, {}).setdefault(
                    decision, []
                ).append(shard_id)
            coordinated = decisions.get(txn_id)
            if trace.decisions and coordinated is None:
                violations.append(
                    TxnAtomicityViolation(
                        f"shard {shard_id} history carries a decision "
                        f"for transaction {txn_id!r} the coordinator never "
                        "ran"
                    )
                )
    for txn_id, applied in applied_by_txn.items():
        if len(applied) > 1:
            violations.append(
                TxnAtomicityViolation(
                    f"transaction {txn_id!r} has a commit applied on shard(s) "
                    f"{sorted(applied.get('C', []))} and an abort applied on "
                    f"shard(s) {sorted(applied.get('A', []))}"
                )
            )
            continue
        coordinated = decisions.get(txn_id)
        if coordinated is None:
            continue  # already reported per log above
        (decision,) = applied
        if decision != coordinated.decision:
            violations.append(
                TxnAtomicityViolation(
                    f"transaction {txn_id!r} was "
                    f"{'committed' if decision == 'C' else 'aborted'} on "
                    f"shard(s) {sorted(applied[decision])} but the "
                    "coordinator decided "
                    f"{'commit' if coordinated.decision == 'C' else 'abort'}"
                )
            )

    # 3: no live history may withhold a completed decision from a prepare
    for shard_id, live, traces in per_log:
        if not live:
            continue
        for txn_id, trace in traces.items():
            if withheld_decision(shard_id, txn_id, trace, decisions) is None:
                continue
            coordinated = decisions[txn_id]
            violations.append(
                TxnAtomicityViolation(
                    f"a live history of shard {shard_id} holds the "
                    f"prepare of transaction {txn_id!r} but never saw its "
                    "completed "
                    f"{'commit' if coordinated.decision == 'C' else 'abort'} "
                    "— a forked instance is withholding the decision from "
                    "its clients"
                )
            )
    return violations


def withheld_decision(
    shard_id: int,
    txn_id: str,
    trace: TxnTrace,
    decisions: dict[str, CoordinatorDecision],
) -> str | None:
    """Rule-3 predicate for one (live) trace: the completed decision this
    history is withholding (``"C"``/``"A"``), or ``None`` if the trace is
    unobjectionable.  Shared with the streaming verifier's online
    detection pass."""
    if not trace.prepared or trace.decisions:
        return None
    coordinated = decisions.get(txn_id)
    if coordinated is None or not coordinated.complete:
        return None  # genuinely still in flight (or unknown: rule 2)
    if shard_id not in coordinated.participants:
        return None
    return coordinated.decision
