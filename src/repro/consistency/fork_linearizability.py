"""Fork-linearizability checking (Sec. 3.2.1).

Fork-linearizability relaxes linearizability by permitting the execution to
split into multiple "forks": every client still observes a linearizable
history, and whenever an operation is observed by multiple clients, the
history of events before it is identical in their views.  Crucially, forked
clients "can never be joined again" — once two views diverge, no later
operation may appear in both.

This module verifies the property on executions produced by the protocol:

1. ``views_from_audit_logs`` derives each client's view from the audit logs
   of *all* enclave instances (one per fork the malicious server created)
   and the client's final observed ``(t, h)`` point;
2. ``check_fork_linearizable`` validates:

   - **view correctness** — each view replays through ``F`` from the
     initial state reproducing the recorded results (so each view is a
     correct sequential history, hence linearizable on its own);
   - **completeness** — a client's view contains all of its operations;
   - **real-time order** — the view order never contradicts global
     real-time precedence *among the operations in that view*;
   - **no-join** — for any two views, operations past their longest common
     prefix are disjoint (the fork-tree property).

Violations raise :class:`~repro.errors.SecurityViolation` subclasses with a
description of the offending pair, so attack tests can assert precisely
*what* was detected.

This is the view-level *reference* checker: it materialises every
client's view and replays each one through ``F``, so it costs one log
replay per client.  The cluster verdicts run the same rules through
:class:`~repro.consistency.streaming.StreamingChecker` in one pass; the
streaming unit, property and cluster parity suites, the integration
tests and ``examples/offline_audit.py`` keep this checker as the
independent oracle they are compared against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro import serde
from repro.consistency.history import ClientView, OperationRecord
from repro.core.context import AuditRecord
from repro.core.hashchain import ChainPoint, prefix_for, verify_audit_chain
from repro.errors import ForkDetected, SecurityViolation
from repro.kvstore.functionality import Functionality


@dataclass
class ForkTree:
    """The fork structure extracted from a set of views.

    Each node is identified by a (depth, key) pair where ``key`` is the
    serialized operation record at that position; views are paths from the
    root.  Mostly useful for diagnostics and example scripts.
    """

    branches: dict[tuple[int, bytes], list[int]] = field(default_factory=dict)

    def record_view(self, client_id: int, view: ClientView) -> None:
        for depth, record in enumerate(view.records):
            key = (depth, _record_key(record))
            self.branches.setdefault(key, []).append(client_id)

    def fork_points(self) -> list[int]:
        """Depths at which more than one distinct operation appears."""
        by_depth: dict[int, set[bytes]] = {}
        for (depth, key), _clients in self.branches.items():
            by_depth.setdefault(depth, set()).add(key)
        return sorted(depth for depth, keys in by_depth.items() if len(keys) > 1)


def _record_key(record: OperationRecord) -> bytes:
    return serde.encode(
        [
            record.client_id,
            record.operation
            if not isinstance(record.operation, tuple)
            else list(record.operation),
            record.sequence,
        ]
    )


#: Response timestamp of a synthesised record (one missing from the
#: recorded history — e.g. a sequenced key-range handoff, which no client
#: invoked).  Paired with ``invoked_at=0`` it makes the record concurrent
#: with *every* other operation: no timing metadata exists for it, so the
#: real-time check must not invent precedence constraints from it.  (A
#: zero/zero pair would instead place it before every real operation and
#: reject any view where it appears later — a false violation.)
_UNTIMED_RESPONSE = 1 << 62


def views_from_audit_logs(
    logs: list[list[AuditRecord]],
    client_points: dict[int, ChainPoint],
    history_records: dict[tuple[int, int], OperationRecord],
) -> dict[int, ClientView]:
    """Reconstruct each client's view from enclave audit logs.

    Parameters
    ----------
    logs:
        Audit logs exported from every enclave instance the (possibly
        malicious) server ran.  Each is verified for internal chain
        consistency first.
    client_points:
        Each client's final observed ``(t, h)`` — from
        ``client.last_sequence`` / ``client.last_chain``.
    history_records:
        Lookup from ``(client_id, sequence)`` to the globally recorded
        :class:`OperationRecord` (for real-time metadata).  Entries missing
        from the lookup are synthesised as concurrent-with-everything.

    Raises :class:`SecurityViolation` if a client's point lies on *no*
    log — meaning the server invented a history even the TEE never
    executed, which the protocol rules out.
    """
    for log in logs:
        verify_audit_chain(log)
    views: dict[int, ClientView] = {}
    for client_id, point in client_points.items():
        prefix: list[AuditRecord] | None = None
        for log in logs:
            try:
                prefix = prefix_for(log, point)
                break
            except SecurityViolation:
                continue
        if prefix is None:
            raise SecurityViolation(
                f"client {client_id} observed a chain value on no enclave log"
            )
        records = []
        for audit in prefix:
            key = (audit.client_id, audit.sequence)
            record = history_records.get(key)
            if record is None:
                record = OperationRecord(
                    op_id=-audit.sequence,
                    client_id=audit.client_id,
                    operation=serde.decode(audit.operation),
                    result=serde.decode(audit.result),
                    invoked_at=0,
                    responded_at=_UNTIMED_RESPONSE,
                    sequence=audit.sequence,
                )
            records.append(record)
        views[client_id] = ClientView(client_id=client_id, records=records)
    return views


def check_fork_linearizable(
    views: dict[int, ClientView],
    functionality: Functionality,
    *,
    own_operations: dict[int, list[OperationRecord]] | None = None,
    skip_nop: bool = True,
) -> ForkTree:
    """Verify fork-linearizability of a set of client views.

    Returns the extracted :class:`ForkTree` on success; raises a
    :class:`SecurityViolation` subclass describing the first violation
    found otherwise.
    """
    from repro.core.context import NOP_OPERATION

    def is_nop(record: OperationRecord) -> bool:
        op = record.operation
        return (
            skip_nop
            and isinstance(op, (list, tuple))
            and len(op) == 1
            and op[0] == NOP_OPERATION[0]
        )

    # 1. per-view sequential correctness against F
    for client_id, view in views.items():
        state: Any = functionality.initial_state()
        for record in view.records:
            if is_nop(record):
                continue
            result, state = functionality.apply(state, record.operation)
            if result != record.result:
                raise SecurityViolation(
                    f"view of client {client_id} is not a correct execution: "
                    f"operation {record.operation!r} returned {record.result!r}, "
                    f"expected {result!r}"
                )

    # 2. completeness: all own operations present
    if own_operations is not None:
        for client_id, own in own_operations.items():
            view = views.get(client_id)
            if view is None:
                raise SecurityViolation(f"no view for client {client_id}")
            sequences_in_view = {
                record.sequence
                for record in view.records
                if record.client_id == client_id
            }
            for record in own:
                if record.sequence not in sequences_in_view:
                    raise SecurityViolation(
                        f"view of client {client_id} misses its own operation "
                        f"seq={record.sequence}"
                    )

    # 3. real-time order within each view
    for client_id, view in views.items():
        if not view.respects_real_time():
            raise SecurityViolation(
                f"view of client {client_id} contradicts real-time order"
            )

    # 4. no-join across views
    client_ids = sorted(views)
    for idx, a_id in enumerate(client_ids):
        for b_id in client_ids[idx + 1 :]:
            _check_no_join(views[a_id], views[b_id])

    tree = ForkTree()
    for client_id, view in views.items():
        tree.record_view(client_id, view)
    return tree


def _check_no_join(view_a: ClientView, view_b: ClientView) -> None:
    """After the longest common prefix, the views must share no operation."""
    records_a = view_a.records
    records_b = view_b.records
    common = 0
    for ra, rb in zip(records_a, records_b):
        if _record_key(ra) == _record_key(rb):
            common += 1
        else:
            break
    suffix_a = {_record_key(record) for record in records_a[common:]}
    suffix_b = {_record_key(record) for record in records_b[common:]}
    joined = suffix_a & suffix_b
    if joined:
        raise ForkDetected(
            f"views of clients {view_a.client_id} and {view_b.client_id} "
            f"diverge at position {common} but later share {len(joined)} "
            "operation(s): forks were joined"
        )
