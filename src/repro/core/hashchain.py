"""Hash-chain views: reconstructing and validating operation histories.

The chain value ``h`` returned to a client condenses the entire operation
history (Sec. 4.2.2).  This module bridges the protocol and the offline
consistency checkers: given an audit log exported by a trusted context (in
test mode), it recomputes the chain and verifies that every recorded
``(t, h)`` pair is the unique honest digest of the log prefix — which is
what lets the checkers treat chain values as history identifiers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashing import GENESIS_HASH, chain_extend
from repro.errors import SecurityViolation
from repro.core.context import AuditRecord


@dataclass(frozen=True)
class ChainPoint:
    """A (sequence, chain value) pair observed by some party."""

    sequence: int
    chain: bytes


def verify_audit_chain(log: list[AuditRecord]) -> None:
    """Check that an exported audit log is internally chain-consistent.

    Raises :class:`~repro.errors.SecurityViolation` if any record's chain
    value does not extend its predecessor's, or if sequence numbers are not
    the consecutive integers 1..n.
    """
    value = GENESIS_HASH
    for position, record in enumerate(log, start=1):
        if record.sequence != position:
            raise SecurityViolation(
                f"audit log gap: expected sequence {position}, got {record.sequence}"
            )
        value = chain_extend(value, record.operation, record.sequence, record.client_id)
        if value != record.chain:
            raise SecurityViolation(
                f"audit log chain mismatch at sequence {record.sequence}"
            )


def chain_points(log: list[AuditRecord]) -> list[ChainPoint]:
    """The (t, h) trajectory of a log — one point per operation."""
    return [ChainPoint(record.sequence, record.chain) for record in log]


def prefix_for(log: list[AuditRecord], point: ChainPoint) -> list[AuditRecord]:
    """The log prefix a party holding ``point`` has implicitly endorsed.

    Raises :class:`SecurityViolation` if the point does not lie on this
    log's trajectory (the party belongs to a different fork).
    """
    if point.sequence == 0:
        return []
    if point.sequence > len(log):
        raise SecurityViolation("observed sequence beyond this log")
    record = log[point.sequence - 1]
    if record.chain != point.chain:
        raise SecurityViolation(
            f"chain value at sequence {point.sequence} does not match this log"
        )
    return log[: point.sequence]
