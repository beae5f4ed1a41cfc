"""Executions, histories and views (Sec. 2.1, 3.2).

We use the standard distributed-computing formalism the paper references:
an operation execution is an invocation event followed by a response event;
two operations are concurrent when neither response precedes the other's
invocation; a *history* is the full record of one execution; a client's
*view* is a serialized history of operations that includes all operations
of that client (Sec. 3.2.1).

The test harness stamps events with a global logical time (a monotonically
increasing counter) to define the real-time partial order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterable


@dataclass(slots=True, unsafe_hash=True)
class OperationRecord:
    """One complete operation: invocation + response, with metadata.

    ``invoked_at`` / ``responded_at`` are global logical timestamps;
    ``sequence`` is the LCM-assigned sequence number (``None`` for
    non-LCM baselines); ``op_id`` is unique per record.

    Slots (not frozen) keep construction cheap: one record is built per
    completed operation, and a frozen ``__init__`` pays an
    ``object.__setattr__`` per field.  Equality and hashing are the
    frozen dataclass's; treat instances as immutable.
    """

    op_id: int
    client_id: int
    operation: Any
    result: Any
    invoked_at: int
    responded_at: int
    sequence: int | None = None

    def precedes(self, other: "OperationRecord") -> bool:
        """Real-time order: this operation completed before ``other`` began."""
        return self.responded_at < other.invoked_at

    def concurrent_with(self, other: "OperationRecord") -> bool:
        return not self.precedes(other) and not other.precedes(self)


class History:
    """A recorder for complete operations across all clients.

    >>> history = History()
    >>> token = history.invoke(1, ("PUT", "k", "v"))
    >>> record = history.respond(token, result=None)
    >>> history.records()[0].client_id
    1
    """

    def __init__(self) -> None:
        self._clock = itertools.count(1)
        self._op_ids = itertools.count(1)
        self._pending: dict[int, tuple[int, Any, int]] = {}
        self._records: list[OperationRecord] = []

    def invoke(self, client_id: int, operation: Any) -> int:
        """Record an invocation event; returns a token for :meth:`respond`."""
        op_id = next(self._op_ids)
        self._pending[op_id] = (client_id, operation, next(self._clock))
        return op_id

    def respond(
        self, token: int, result: Any, sequence: int | None = None
    ) -> OperationRecord:
        """Record the matching response event and complete the operation."""
        client_id, operation, invoked_at = self._pending.pop(token)
        record = OperationRecord(
            token, client_id, operation, result, invoked_at,
            next(self._clock), sequence,
        )
        self._records.append(record)
        return record

    def record_complete(
        self, client_id: int, operation: Any, result: Any, sequence: int | None = None
    ) -> OperationRecord:
        """Convenience: record an operation with adjacent inv/resp events."""
        token = self.invoke(client_id, operation)
        return self.respond(token, result, sequence)

    def records(self) -> list[OperationRecord]:
        return list(self._records)

    def by_client(self, client_id: int) -> list[OperationRecord]:
        return [r for r in self._records if r.client_id == client_id]

    def records_since(self, offset: int) -> list[OperationRecord]:
        """Completed records from ``offset`` onwards (incremental reads).

        Records are append-only, so a consumer that remembers how many it
        has seen can harvest only the new suffix — the streaming verifier
        does this at every batch boundary.
        """
        return self._records[offset:]

    def incomplete_count(self) -> int:
        return len(self._pending)

    def real_time_pairs(self) -> Iterable[tuple[OperationRecord, OperationRecord]]:
        """All (a, b) pairs with a preceding b in real time."""
        for a in self._records:
            for b in self._records:
                if a is not b and a.precedes(b):
                    yield a, b


@dataclass
class ClientView:
    """A serialized history attributed to one client (Sec. 3.2.1).

    ``records`` lists the operations the client's history comprises, in
    serialization order — for LCM this is the enclave audit-log prefix up
    to the client's last observed sequence number.
    """

    client_id: int
    records: list[OperationRecord] = field(default_factory=list)

    def contains_all_own_operations(self, own: list[OperationRecord]) -> bool:
        """A view must include all operations of its client."""
        ids_in_view = {record.op_id for record in self.records}
        return all(record.op_id in ids_in_view for record in own)

    def respects_real_time(self) -> bool:
        """Serialization order must respect real-time precedence: no
        record may have responded before a record serialized ahead of it
        was invoked (one sweep in view order over the running maximum of
        ``invoked_at``)."""
        latest_invocation = float("-inf")
        for record in self.records:
            if record.responded_at < latest_invocation:
                return False
            if record.invoked_at > latest_invocation:
                latest_invocation = record.invoked_at
        return True
