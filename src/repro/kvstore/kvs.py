"""The paper's demo application: a flat-namespace key-value store (Sec. 5.3).

Operations are (verb, key[, value]) tuples:

- ``("GET", key)``   -> value or ``None``
- ``("PUT", key, value)`` -> previous value or ``None``
- ``("DEL", key)``   -> deleted value or ``None``

State is a plain ``dict[str, str|bytes]``.  The prototype used
``std::map<std::string, std::string>`` inside the enclave; the memory-cost
consequences of that choice are modelled separately in
:class:`repro.tee.sgx.MapMemoryModel`.
"""

from __future__ import annotations

from typing import Any

from repro.crypto.hashing import ring_point
from repro.errors import LCMError
from repro.kvstore.functionality import (
    HANDOFF_EXPORT_VERB,
    HANDOFF_IMPORT_VERB,
    TXN_ABORT_VERB,
    TXN_ABORTED,
    TXN_ALREADY,
    TXN_COMMIT_VERB,
    TXN_COMMITTED,
    TXN_CONFLICT,
    TXN_DECIDE_MANY_VERB,
    TXN_LOCKED,
    TXN_PREPARE_MANY_VERB,
    TXN_PREPARE_VERB,
    TXN_PREPARED,
    TXN_RESERVED,
    TXN_UNKNOWN,
    TXN_WAITING,
)


class UnknownOperation(LCMError):
    """The functionality received a verb it does not implement."""


GET = "GET"
PUT = "PUT"
DEL = "DEL"

#: Transaction bookkeeping lives *inside* the service state under
#: reserved keys, so it is sealed, hash-chained and replayed by the
#: offline checkers exactly like user data — a host that tampers with a
#: prepared buffer or a recorded decision diverges the chain.  The keys
#: exist only while non-empty, which keeps the sealed bytes of a
#: transaction-free state byte-identical to the pre-transaction layout
#: (and the single-key fast path pays only one failed dict lookup).
_TXN_PENDING_KEY = "__LCM_TXN_PENDING__"   # txn_id -> [[locks], [writes]]
_TXN_LOCKS_KEY = "__LCM_TXN_LOCKS__"       # key -> holder txn_id
_TXN_DECIDED_KEY = "__LCM_TXN_DECIDED__"   # txn_id -> "C" | "A" (bounded)
_TXN_WAITERS_KEY = "__LCM_TXN_WAITERS__"   # FIFO [[txn_id, sub_ops], ...]
_TXN_RESERVED_PREFIX = "__LCM_TXN_"

#: Decision-record retention: enough to make every realistic decision
#: replay idempotent without growing the sealed state without bound.
#: Eviction is insertion-ordered, hence deterministic under replay.
#: The window only needs to cover decisions a coordinator may still
#: (re-)send — bounded by its in-flight set, since the durable decision
#: log stops re-driving once the finish record lands.  Retention beyond
#: that only costs: the decided map is one top-level entry of the sealed
#: state, so every decision (not every operation — the seal is per
#: entry) re-encrypts the whole map.  At 256 entries that is ~8 KB per
#: decision; 64 keeps a comfortable multiple of any realistic pipeline
#: depth at a quarter of the footprint.
_TXN_DECIDED_MAX = 64

#: Waiter-queue bound: a grouped prepare beyond this depth falls back to
#: the deterministic conflict rejection, so the sealed state stays
#: bounded even under a pathological pile-up on one key.
_TXN_WAITERS_MAX = 64

_DELETED = object()  # prepare-overlay tombstone


def _on_arcs(point: int, arcs) -> bool:
    for lo, hi in arcs:
        if lo <= point < hi:
            return True
    return False


def get(key: str) -> tuple:
    """Build a GET operation."""
    return (GET, key)


def put(key: str, value: Any) -> tuple:
    """Build a PUT operation."""
    return (PUT, key, value)


def delete(key: str) -> tuple:
    """Build a DEL operation."""
    return (DEL, key)


class KvsFunctionality:
    """GET/PUT/DEL over a dictionary state."""

    def initial_state(self) -> dict:
        return {}

    def apply(self, state: dict, operation: Any) -> tuple[Any, dict]:
        if not isinstance(operation, (tuple, list)) or not operation:
            raise UnknownOperation(f"malformed operation: {operation!r}")
        verb = operation[0]
        if verb == GET:
            (_, key) = operation
            if type(key) is str and key.startswith(_TXN_RESERVED_PREFIX):
                return [TXN_RESERVED, key], state
            locks = state.get(_TXN_LOCKS_KEY)
            if locks is not None and key in locks:
                return [TXN_LOCKED, locks[key]], state
            return state.get(key), state
        if verb == PUT:
            (_, key, value) = operation
            if type(key) is str and key.startswith(_TXN_RESERVED_PREFIX):
                return [TXN_RESERVED, key], state
            locks = state.get(_TXN_LOCKS_KEY)
            if locks is not None and key in locks:
                return [TXN_LOCKED, locks[key]], state
            next_state = dict(state)
            previous = next_state.get(key)
            next_state[key] = value
            return previous, next_state
        if verb == DEL:
            (_, key) = operation
            if type(key) is str and key.startswith(_TXN_RESERVED_PREFIX):
                return [TXN_RESERVED, key], state
            locks = state.get(_TXN_LOCKS_KEY)
            if locks is not None and key in locks:
                return [TXN_LOCKED, locks[key]], state
            if key not in state:
                return None, state
            next_state = dict(state)
            previous = next_state.pop(key)
            return previous, next_state
        if verb == TXN_PREPARE_VERB:
            (_, txn_id, sub_ops) = operation
            return self._txn_prepare(state, txn_id, sub_ops)
        if verb == TXN_COMMIT_VERB:
            (_, txn_id) = operation
            return self._txn_decide(state, txn_id, commit=True)
        if verb == TXN_ABORT_VERB:
            (_, txn_id) = operation
            return self._txn_decide(state, txn_id, commit=False)
        if verb == TXN_PREPARE_MANY_VERB:
            (_, entries) = operation
            results = []
            for txn_id, sub_ops in entries:
                result, state = self._txn_prepare(
                    state, txn_id, sub_ops, queue=True
                )
                results.append(result)
            return results, state
        if verb == TXN_DECIDE_MANY_VERB:
            (_, entries) = operation
            results = []
            for txn_id, decision in entries:
                result, state = self._txn_decide(
                    state, txn_id, commit=(decision == "C")
                )
                results.append(result)
            return results, state
        if verb == HANDOFF_EXPORT_VERB:
            # elastic resharding: drop exactly the keys on the reassigned
            # ring arcs; the sorted result is what the peer group installs
            # (and what the offline checkers replay deterministically).
            # Transaction bookkeeping never travels: the reserved keys
            # describe *this* group's pending lifecycle, not user data.
            (_, arcs) = operation
            exported = sorted(
                key
                for key in state
                if not (
                    type(key) is str and key.startswith(_TXN_RESERVED_PREFIX)
                )
                and _on_arcs(ring_point(key), arcs)
            )
            if not exported:
                return [], state
            next_state = dict(state)
            return [[key, next_state.pop(key)] for key in exported], next_state
        if verb == HANDOFF_IMPORT_VERB:
            (_, items) = operation
            if not items:
                return 0, state
            next_state = dict(state)
            for key, value in items:
                next_state[key] = value
            return len(items), next_state
        raise UnknownOperation(f"unknown verb {verb!r}")

    # -------------------------------------------- transaction participant

    def _txn_prepare(
        self, state: dict, txn_id: str, sub_ops: list, *, queue: bool = False
    ) -> tuple[Any, dict]:
        """Phase 1: execute reads, buffer writes, lock every touched key.

        All-or-nothing within the shard: any conflict (a key locked by
        another pending transaction, or a duplicate/decided txn id)
        rejects the whole prepare with **no** state change, so the
        coordinator's abort needs no cleanup here.

        With ``queue=True`` (the grouped-prepare path) a lock conflict
        against an *older* holder parks the prepare in the FIFO waiter
        queue and votes ``[TXN_WAITING, holder]`` instead of rejecting;
        the queued prepare re-runs when a decision releases the lock
        (:meth:`_resolve_waiters`).
        """
        pending = state.get(_TXN_PENDING_KEY)
        decided = state.get(_TXN_DECIDED_KEY)
        if (pending is not None and txn_id in pending) or (
            decided is not None and txn_id in decided
        ):
            # a replayed or recycled txn id: never re-lock — the
            # coordinator treats this as a NO vote and aborts
            return [TXN_CONFLICT, txn_id], state
        waiters = state.get(_TXN_WAITERS_KEY)
        if waiters is not None and any(w[0] == txn_id for w in waiters):
            return [TXN_CONFLICT, txn_id], state
        locks = state.get(_TXN_LOCKS_KEY)
        overlay: dict = {}
        touched: list[str] = []
        writes: list[list] = []
        results: list = []
        for sub in sub_ops:
            sub_verb = sub[0]
            key = sub[1]
            if not isinstance(key, (str, bytes)) or (
                isinstance(key, str) and key.startswith(_TXN_RESERVED_PREFIX)
            ):
                raise UnknownOperation(
                    f"transaction sub-operation key {key!r} is not allowed"
                )
            if locks is not None and key in locks:
                holder = locks[key]
                if queue:
                    return self._txn_enqueue_waiter(
                        state, txn_id, sub_ops, holder
                    )
                return [TXN_CONFLICT, holder], state
            if key not in overlay:
                overlay[key] = state.get(key, _DELETED)
                touched.append(key)
            current = overlay[key]
            current = None if current is _DELETED else current
            if sub_verb == GET:
                results.append(current)
            elif sub_verb == PUT:
                results.append(current)
                overlay[key] = sub[2]
                writes.append([PUT, key, sub[2]])
            elif sub_verb == DEL:
                results.append(current)
                overlay[key] = _DELETED
                writes.append([DEL, key])
            else:
                raise UnknownOperation(
                    f"transaction sub-operation verb {sub_verb!r} is not allowed"
                )
        next_state = dict(state)
        next_pending = dict(pending) if pending is not None else {}
        next_pending[txn_id] = [sorted(touched), writes]
        next_state[_TXN_PENDING_KEY] = next_pending
        next_locks = dict(locks) if locks is not None else {}
        for key in touched:
            next_locks[key] = txn_id
        next_state[_TXN_LOCKS_KEY] = next_locks
        return [TXN_PREPARED, results], next_state

    def _txn_enqueue_waiter(
        self, state: dict, txn_id: str, sub_ops: list, holder: str
    ) -> tuple[Any, dict]:
        """Park a conflicting grouped prepare in the FIFO waiter queue.

        Deterministic deadlock avoidance: a transaction only waits
        behind a holder with a strictly smaller txn id, so waits-for
        chains strictly decrease and terminate (a waiter holds no locks
        of its own, so no local cycle is possible either).  Anything
        else — queue full, duplicate, or waiting would invert the
        order — falls back to the historical conflict rejection.
        """
        waiters = state.get(_TXN_WAITERS_KEY)
        if (
            not txn_id > holder
            or (waiters is not None and len(waiters) >= _TXN_WAITERS_MAX)
        ):
            return [TXN_CONFLICT, holder], state
        next_state = dict(state)
        queue = [list(entry) for entry in waiters] if waiters is not None else []
        queue.append([txn_id, [list(op) for op in sub_ops]])
        next_state[_TXN_WAITERS_KEY] = queue
        return [TXN_WAITING, holder], next_state

    def _resolve_waiters(self, state: dict) -> tuple[dict, list]:
        """Re-run queued prepares after a decision released locks.

        One FIFO pass: a waiter that now prepares takes its locks (and
        its state change carries forward to later waiters in the same
        pass); one still behind an older holder stays queued; one whose
        conflict would invert the id order resolves as a CONFLICT vote.
        Returns the new state and the ``[txn_id, vote]`` list the
        decision ack piggybacks back to the coordinator.
        """
        waiters = state.get(_TXN_WAITERS_KEY)
        if not waiters:
            return state, []
        work = dict(state)
        del work[_TXN_WAITERS_KEY]
        resolved: list = []
        remaining: list = []
        for txn_id, sub_ops in waiters:
            vote, work = self._txn_prepare(work, txn_id, sub_ops)
            if (
                vote[0] == TXN_CONFLICT
                and vote[1] != txn_id
                and txn_id > vote[1]
            ):
                remaining.append([txn_id, sub_ops])
            else:
                resolved.append([txn_id, vote])
        if remaining:
            work[_TXN_WAITERS_KEY] = remaining
        return work, resolved

    def _txn_decide(
        self, state: dict, txn_id: str, *, commit: bool
    ) -> tuple[Any, dict]:
        """Phase 2: resolve a prepared transaction.  Idempotent under
        decision replay (failover re-sends decisions after a recovery):
        a repeated decision answers from the bounded decision record, and
        a decision for a transaction this state never prepared (a replay
        onto a fresh generation) is a pure no-op."""
        pending = state.get(_TXN_PENDING_KEY)
        if pending is None or txn_id not in pending:
            decided = state.get(_TXN_DECIDED_KEY)
            if decided is not None and txn_id in decided:
                return [TXN_ALREADY, decided[txn_id]], state
            waiters = state.get(_TXN_WAITERS_KEY)
            if (
                not commit
                and waiters is not None
                and any(w[0] == txn_id for w in waiters)
            ):
                # the coordinator aborted a transaction still queued
                # behind a lock: dequeue it (it holds nothing) and
                # record the decision so replays answer ALREADY
                next_state = dict(state)
                remaining = [list(w) for w in waiters if w[0] != txn_id]
                if remaining:
                    next_state[_TXN_WAITERS_KEY] = remaining
                else:
                    del next_state[_TXN_WAITERS_KEY]
                next_state[_TXN_DECIDED_KEY] = self._record_decided(
                    state, txn_id, "A"
                )
                return [TXN_ABORTED], next_state
            return [TXN_UNKNOWN], state
        touched, writes = pending[txn_id]
        next_state = dict(state)
        next_pending = dict(pending)
        del next_pending[txn_id]
        if next_pending:
            next_state[_TXN_PENDING_KEY] = next_pending
        else:
            del next_state[_TXN_PENDING_KEY]
        locks = next_state.get(_TXN_LOCKS_KEY)
        next_locks = dict(locks) if locks is not None else {}
        for key in touched:
            if next_locks.get(key) == txn_id:
                del next_locks[key]
        if next_locks:
            next_state[_TXN_LOCKS_KEY] = next_locks
        else:
            next_state.pop(_TXN_LOCKS_KEY, None)
        if commit:
            for write in writes:
                if write[0] == PUT:
                    next_state[write[1]] = write[2]
                else:  # DEL
                    next_state.pop(write[1], None)
        next_state[_TXN_DECIDED_KEY] = self._record_decided(
            state, txn_id, "C" if commit else "A"
        )
        next_state, resolved = self._resolve_waiters(next_state)
        result: list = [TXN_COMMITTED if commit else TXN_ABORTED]
        if resolved:
            # waiter votes ride the decision ack back to the coordinator
            # (an empty list is omitted so transaction-free and
            # waiter-free runs keep their historical result bytes)
            result.append(resolved)
        return result, next_state

    @staticmethod
    def _record_decided(state: dict, txn_id: str, decision: str) -> dict:
        """The bounded, insertion-ordered decision record, updated."""
        decided = state.get(_TXN_DECIDED_KEY)
        next_decided = dict(decided) if decided is not None else {}
        while len(next_decided) >= _TXN_DECIDED_MAX:
            next_decided.pop(next(iter(next_decided)))
        next_decided[txn_id] = decision
        return next_decided

    # ------------------------------------------------- lifecycle queries

    @staticmethod
    def pending_transactions(state: dict) -> dict:
        """``{txn_id: [locked keys]}`` of prepared-but-undecided
        transactions — the trusted context's ``txn_status`` ecall and the
        control plane's quiescence barrier read this."""
        pending = state.get(_TXN_PENDING_KEY)
        if not pending:
            return {}
        return {txn_id: list(entry[0]) for txn_id, entry in pending.items()}

    @staticmethod
    def locked_keys(state: dict) -> dict:
        """``{key: holder txn_id}`` for every currently locked key."""
        locks = state.get(_TXN_LOCKS_KEY)
        return dict(locks) if locks else {}

    @staticmethod
    def waiting_transactions(state: dict) -> list:
        """Queued-waiter txn ids in FIFO order.  A waiter holds no locks
        but its queued prepare still addresses this shard's keys, so the
        control plane's quiescence barrier counts waiters as pending."""
        waiters = state.get(_TXN_WAITERS_KEY)
        if not waiters:
            return []
        return [entry[0] for entry in waiters]
