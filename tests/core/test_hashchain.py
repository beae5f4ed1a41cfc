"""Hash-chain view reconstruction: audit verification, prefixes, forks."""

import pytest

from repro.core.context import AuditRecord
from repro.core.hashchain import (
    ChainPoint,
    chain_points,
    prefix_for,
    verify_audit_chain,
)
from repro.crypto.hashing import GENESIS_HASH, chain_extend
from repro.errors import SecurityViolation


def make_log(spec):
    """Build a valid audit log from (client_id, op_bytes) pairs."""
    log = []
    value = GENESIS_HASH
    for sequence, (client_id, operation) in enumerate(spec, start=1):
        value = chain_extend(value, operation, sequence, client_id)
        log.append(
            AuditRecord(
                sequence=sequence,
                client_id=client_id,
                operation=operation,
                result=b"",
                chain=value,
            )
        )
    return log


class TestVerifyAuditChain:
    def test_valid_log_passes(self):
        verify_audit_chain(make_log([(1, b"a"), (2, b"b"), (1, b"c")]))

    def test_empty_log_passes(self):
        verify_audit_chain([])

    def test_gap_in_sequence_detected(self):
        log = make_log([(1, b"a"), (2, b"b")])
        log[1] = AuditRecord(3, 2, b"b", b"", log[1].chain)
        with pytest.raises(SecurityViolation):
            verify_audit_chain(log)

    def test_tampered_operation_detected(self):
        log = make_log([(1, b"a"), (2, b"b")])
        log[0] = AuditRecord(1, 1, b"EVIL", b"", log[0].chain)
        with pytest.raises(SecurityViolation):
            verify_audit_chain(log)

    def test_tampered_chain_value_detected(self):
        log = make_log([(1, b"a")])
        log[0] = AuditRecord(1, 1, b"a", b"", b"\x00" * 32)
        with pytest.raises(SecurityViolation):
            verify_audit_chain(log)


class TestPrefixFor:
    def test_genesis_point_is_empty_prefix(self):
        log = make_log([(1, b"a")])
        assert prefix_for(log, ChainPoint(0, GENESIS_HASH)) == []

    def test_midpoint_prefix(self):
        log = make_log([(1, b"a"), (2, b"b"), (1, b"c")])
        point = ChainPoint(2, log[1].chain)
        assert prefix_for(log, point) == log[:2]

    def test_point_beyond_log_rejected(self):
        log = make_log([(1, b"a")])
        with pytest.raises(SecurityViolation):
            prefix_for(log, ChainPoint(5, b"\x00" * 32))

    def test_point_on_other_fork_rejected(self):
        log = make_log([(1, b"a"), (2, b"b")])
        other = make_log([(1, b"a"), (2, b"DIFFERENT")])
        with pytest.raises(SecurityViolation):
            prefix_for(log, ChainPoint(2, other[1].chain))


class TestHelpers:
    def test_chain_points(self):
        log = make_log([(1, b"a"), (2, b"b")])
        points = chain_points(log)
        assert [p.sequence for p in points] == [1, 2]
        assert points[1].chain == log[1].chain
