"""The functionality contract ``F`` (Sec. 2.1).

A functionality is deterministic state-machine logic: given a state and an
operation it produces a result and a successor state.  Determinism is *not*
required by LCM (unlike 2-phase-commit TMC schemes, Sec. 3.1 — a key selling
point of the protocol), but the bundled functionalities happen to be
deterministic, which keeps tests simple.

Operations and states must be canonically serializable
(:mod:`repro.serde`), because the trusted context hashes operations into the
chain and seals states to stable storage.
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable

#: An operation is any serde-encodable value; the bundled functionalities
#: use (verb, *args) tuples.
Operation = Any

#: Protocol-level key-range handoff verbs (elastic resharding).  The
#: trusted context builds these operations itself during an attested
#: handoff (never from client INVOKEs) and sequences them into the hash
#: chain, so the offline checkers replay them through ``apply`` like any
#: other operation.  A functionality that supports handoff implements
#: both verbs; one that does not simply rejects them and the handoff
#: fails cleanly before any state moves.
#:
#: ``(HANDOFF_EXPORT_VERB, [[lo, hi], ...])``
#:     Remove every key whose :func:`~repro.crypto.hashing.ring_point`
#:     falls in one of the half-open ``[lo, hi)`` ring intervals; the
#:     result is the removed items as a sorted ``[[key, value], ...]``
#:     list.
#: ``(HANDOFF_IMPORT_VERB, [[key, value], ...])``
#:     Install the items; the result is the number installed.
HANDOFF_EXPORT_VERB = "__LCM_EXPORT_RANGE__"
HANDOFF_IMPORT_VERB = "__LCM_IMPORT_RANGE__"

#: Cross-shard transaction verbs (coordinator/participant lifecycle).
#: Unlike the handoff verbs these *are* ordinary client operations: the
#: transaction coordinator (the shard router, acting for the client)
#: submits them through the client's per-shard Alg. 1 machine, so every
#: prepare and every decision is sequenced, hash-chained and sealed like
#: any other operation — tampering with either is caught by the checkers
#: exactly as for a lost PUT.
#:
#: ``(TXN_PREPARE_VERB, txn_id, [[verb, key, value?], ...])``
#:     Phase 1.  Execute the reads, buffer the writes, and lock every
#:     touched key.  Votes ``[TXN_PREPARED, [result, ...]]`` (the per
#:     sub-operation results, computed with earlier writes of the same
#:     transaction visible) when every key is free, or
#:     ``[TXN_CONFLICT, holder_txn_id]`` — with **no** state change —
#:     when any key is already locked by another pending transaction.
#: ``(TXN_COMMIT_VERB, txn_id)``
#:     Phase 2, commit: apply the buffered writes, release the locks.
#:     Replays are idempotent: a commit for an already-committed
#:     transaction answers ``[TXN_ALREADY, "C"]`` without reapplying,
#:     and one for a transaction this state never prepared (e.g. a
#:     decision replayed onto a recovered generation) answers
#:     ``[TXN_UNKNOWN]`` as a no-op.
#: ``(TXN_ABORT_VERB, txn_id)``
#:     Phase 2, abort: discard the buffer, release the locks.  Same
#:     idempotence contract.
#:
#: While a key is locked, single-key GET/PUT/DEL on it answer
#: ``[TXN_LOCKED, holder_txn_id]`` — a deterministic rejection (the
#: router retries) rather than a blocking wait, because ``apply`` is a
#: pure state machine.  Rejecting reads too is what makes the committed
#: transaction atomic for observers: no client can see one shard's half
#: of a transaction while another shard still holds the other half
#: prepared.
TXN_PREPARE_VERB = "__LCM_TXN_PREPARE__"
TXN_COMMIT_VERB = "__LCM_TXN_COMMIT__"
TXN_ABORT_VERB = "__LCM_TXN_ABORT__"

#: Group-commit verbs (Sec. 5.2/5.3 amortisation applied to the
#: transaction path).  Each carries *many* transactions' phase-1
#: prepares (resp. phase-2 decisions) in one sequenced, hash-chained
#: operation, so a contended boundary costs one sealed ecall per
#: participant instead of one per transaction.  Entries execute
#: atomically *per entry*, in list order, and the result is the list of
#: per-entry results — byte-for-byte the same shapes the single verbs
#: produce, so the offline checkers replay a grouped operation as the
#: equivalent sequence of single ones.
#:
#: ``(TXN_PREPARE_MANY_VERB, [[txn_id, [[verb, key, value?], ...]], ...])``
#:     Result: ``[vote, ...]`` — one ``[TXN_PREPARED, results]`` /
#:     ``[TXN_CONFLICT, holder]`` / ``[TXN_WAITING, holder]`` per entry.
#: ``(TXN_DECIDE_MANY_VERB, [[txn_id, "C"|"A"], ...])``
#:     Result: ``[ack, ...]`` — one ``[TXN_COMMITTED]`` etc. per entry;
#:     an ack may carry a second element listing waiter transactions the
#:     released locks resolved (see ``TXN_WAITING``).
TXN_PREPARE_MANY_VERB = "__LCM_TXN_PREPARE_MANY__"
TXN_DECIDE_MANY_VERB = "__LCM_TXN_DECIDE_MANY__"

#: Result markers (list heads) shared by the participant functionality,
#: the coordinator and the offline transaction checker.
TXN_PREPARED = "__LCM_TXN_PREPARED__"
TXN_CONFLICT = "__LCM_TXN_CONFLICT__"
TXN_COMMITTED = "__LCM_TXN_COMMITTED__"
TXN_ABORTED = "__LCM_TXN_ABORTED__"
TXN_ALREADY = "__LCM_TXN_ALREADY__"
TXN_UNKNOWN = "__LCM_TXN_UNKNOWN__"
TXN_LOCKED = "__LCM_TXN_LOCKED__"
#: Grouped-prepare vote: the transaction hit a locked key and was queued
#: in the shard's bounded FIFO waiter queue instead of rejecting.  The
#: coordinator treats it as a vote still outstanding: when the holder's
#: decision releases the lock, the participant re-runs the queued
#: prepare and reports the real vote inside the decision ack's resolved
#: list (``[TXN_COMMITTED, [[waiter_txn_id, vote], ...]]``).  Deadlock
#: is avoided deterministically: a transaction only ever waits behind a
#: holder with a *smaller* txn id, so every waits-for chain strictly
#: decreases and must terminate.  Only grouped prepares queue — the
#: single-verb path keeps its historical reject-on-conflict bytes.
TXN_WAITING = "__LCM_TXN_WAITING__"
#: Deterministic rejection of any single-key operation naming a key in
#: the reserved ``__LCM_TXN_`` namespace — the transaction bookkeeping
#: must be unreachable through the ordinary data path (a client write
#: there would corrupt the lock table every other check parses).
TXN_RESERVED = "__LCM_TXN_RESERVED__"


def txn_prepare(txn_id: str, operations: list) -> tuple:
    """Build a participant PREPARE operation from ``(verb, key[, value])``
    sub-operations (the coordinator's phase-1 message)."""
    return (TXN_PREPARE_VERB, txn_id, [list(op) for op in operations])


def txn_commit(txn_id: str) -> tuple:
    """Build a participant COMMIT decision."""
    return (TXN_COMMIT_VERB, txn_id)


def txn_abort(txn_id: str) -> tuple:
    """Build a participant ABORT decision."""
    return (TXN_ABORT_VERB, txn_id)


def txn_prepare_many(entries: list) -> tuple:
    """Build a grouped PREPARE from ``(txn_id, sub_ops)`` entries — one
    sealed operation carrying every buffered prepare for a participant."""
    return (
        TXN_PREPARE_MANY_VERB,
        [[txn_id, [list(op) for op in sub_ops]] for txn_id, sub_ops in entries],
    )


def txn_decide_many(entries: list) -> tuple:
    """Build a grouped decision from ``(txn_id, "C"|"A")`` entries."""
    return (
        TXN_DECIDE_MANY_VERB,
        [[txn_id, decision] for txn_id, decision in entries],
    )


def parse_txn_operation(operation: Any) -> tuple[str, str, Any] | None:
    """Decompose a transaction operation into ``(kind, txn_id, payload)``.

    ``kind`` is ``"prepare"`` / ``"commit"`` / ``"abort"``; ``payload``
    is the sub-operation list for prepares and ``None`` for decisions.
    Returns ``None`` for anything that is not a transaction operation —
    the one parser shared by the coordinator, the dispatcher boundary
    logic and the offline checker, so the wire shape cannot drift.
    """
    if not isinstance(operation, (tuple, list)) or not operation:
        return None
    verb = operation[0]
    if verb == TXN_PREPARE_VERB and len(operation) == 3:
        return ("prepare", operation[1], operation[2])
    if verb == TXN_COMMIT_VERB and len(operation) == 2:
        return ("commit", operation[1], None)
    if verb == TXN_ABORT_VERB and len(operation) == 2:
        return ("abort", operation[1], None)
    return None


def is_txn_decision(operation: Any) -> bool:
    """True for COMMIT/ABORT decisions (single or grouped) — the
    operations that must keep flowing to a fenced shard so its prepared
    transactions can resolve."""
    if not isinstance(operation, (tuple, list)) or len(operation) != 2:
        return False
    verb = operation[0]
    return (
        verb == TXN_COMMIT_VERB
        or verb == TXN_ABORT_VERB
        or verb == TXN_DECIDE_MANY_VERB
    )


def _iter_resolved(entry_result: Any):
    """Waiter votes piggybacked on one decision ack, if any."""
    if (
        isinstance(entry_result, (tuple, list))
        and len(entry_result) == 2
        and (entry_result[0] == TXN_COMMITTED or entry_result[0] == TXN_ABORTED)
        and isinstance(entry_result[1], (tuple, list))
    ):
        for waiter_id, vote in entry_result[1]:
            yield ("resolved", waiter_id, None, vote)


def iter_txn_lifecycle(operation: Any, result: Any):
    """Yield every transaction lifecycle event one sealed operation
    carries, as ``(kind, txn_id, payload, entry_result)`` tuples.

    ``kind`` is ``"prepare"`` / ``"commit"`` / ``"abort"`` for lifecycle
    entries (one per transaction for the grouped verbs) and
    ``"resolved"`` for a waiter vote piggybacked on a decision ack.
    This is the one fold shared by the coordinator's completion demux,
    the streaming checker and the post-mortem checker, so the grouped
    wire shapes cannot drift between them.  Yields nothing for
    non-transaction operations.
    """
    if not isinstance(operation, (tuple, list)) or not operation:
        return
    verb = operation[0]
    if verb == TXN_PREPARE_MANY_VERB and len(operation) == 2:
        entry_results = result if isinstance(result, (tuple, list)) else ()
        for index, entry in enumerate(operation[1]):
            entry_result = (
                entry_results[index] if index < len(entry_results) else None
            )
            yield ("prepare", entry[0], entry[1], entry_result)
        return
    if verb == TXN_DECIDE_MANY_VERB and len(operation) == 2:
        entry_results = result if isinstance(result, (tuple, list)) else ()
        for index, entry in enumerate(operation[1]):
            entry_result = (
                entry_results[index] if index < len(entry_results) else None
            )
            yield (
                "commit" if entry[1] == "C" else "abort",
                entry[0],
                None,
                entry_result,
            )
            yield from _iter_resolved(entry_result)
        return
    parsed = parse_txn_operation(operation)
    if parsed is None:
        return
    kind, txn_id, payload = parsed
    yield (kind, txn_id, payload, result)
    if kind != "prepare":
        yield from _iter_resolved(result)


@runtime_checkable
class Functionality(Protocol):
    """State-machine interface executed by the trusted context."""

    def initial_state(self) -> Any:
        """Return ``s0``."""
        ...

    def apply(self, state: Any, operation: Operation) -> tuple[Any, Any]:
        """``exec_F``: return ``(result, next_state)``.

        Implementations must not mutate ``state``, or anything reachable
        from it, in place — the trusted context relies on value semantics
        when it seals snapshots, and the contract is *per top-level
        entry*.  A ``dict`` state is sealed as one encrypted section per
        key, and a seal re-encrypts exactly the entries whose value object
        differs (``is not``) from the one last sealed under that key, plus
        the keys that appeared or vanished; any other state is a single
        section, resealed when the state object differs.  Hence:

        - an operation that changes nothing returns the same ``state``
          object (reads then cost no reseal at all);
        - an operation that changes the value under a key binds a *new*
          value object under that key in a *new* top-level dict
          (``next_state = dict(state); next_state[key] = value``).  A
          shallow copy of the top level is all it takes: untouched
          entries keep their value objects, and with them their sealed
          sections;
        - a nested value is copied on write as well (``inner =
          dict(state[key]); inner[sub] = value; next_state[key] =
          inner``).  Mutating it in place (``state[key][sub] = value``,
          ``state[key].append(item)``) — even through a fresh shallow
          copy of the top level — leaves that key's section holding the
          *pre-mutation* value, which a later restore silently
          resurrects.

        Audit mode (``audit=True``) re-encodes every entry at each seal
        and raises :class:`~repro.errors.ConfigurationError` on any such
        violation; production mode trusts this contract for speed.  The
        bundled functionalities follow it, transaction bookkeeping
        included.
        """
        ...

