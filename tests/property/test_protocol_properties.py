"""Property-based tests on the protocol's detection machinery.

Generated forks, gossip windows and audit logs — checking that the
detection predicates hold universally, not just on hand-picked cases.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro import serde
from repro.crypto.aead import AeadKey
from repro.crypto.hashing import GENESIS_HASH, chain_extend
from repro.errors import SecurityViolation
from repro.core.context import AuditRecord
from repro.core.gossip import ChainWindow, compare_windows, cross_check
from repro.core.hashchain import (
    ChainPoint,
    prefix_for,
    verify_audit_chain,
)

# ------------------------------------------------------------- audit logs

op_specs = st.lists(
    st.tuples(st.integers(1, 5), st.binary(min_size=1, max_size=8)),
    min_size=1,
    max_size=10,
)


def build_log(spec, start_chain=GENESIS_HASH, start_sequence=0):
    log = []
    value = start_chain
    for offset, (client_id, operation) in enumerate(spec):
        sequence = start_sequence + offset + 1
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


class TestAuditLogProperties:
    @given(op_specs)
    def test_generated_logs_verify(self, spec):
        verify_audit_chain(build_log(spec))

    @given(op_specs, st.integers(min_value=0, max_value=9))
    def test_any_single_record_tamper_detected(self, spec, index):
        log = build_log(spec)
        position = index % len(log)
        record = log[position]
        log[position] = AuditRecord(
            record.sequence,
            record.client_id,
            record.operation + b"!",
            record.result,
            record.chain,
        )
        with pytest.raises(SecurityViolation):
            verify_audit_chain(log)

    @given(op_specs, st.integers(min_value=1, max_value=10))
    def test_every_point_on_log_yields_prefix(self, spec, sequence):
        log = build_log(spec)
        sequence = (sequence - 1) % len(log) + 1
        point = ChainPoint(sequence, log[sequence - 1].chain)
        assert prefix_for(log, point) == log[:sequence]

    @given(op_specs, op_specs, op_specs)
    def test_forked_suffix_points_rejected_by_other_branch(
        self, base, suffix_a, suffix_b
    ):
        """Any point strictly inside branch A's divergent suffix must fail
        prefix_for against branch B (and vice versa)."""
        if suffix_a[0] == suffix_b[0]:
            return  # same first divergent op -> not actually a fork there
        trunk = build_log(base)
        branch_a = trunk + build_log(
            suffix_a, start_chain=trunk[-1].chain, start_sequence=len(trunk)
        )
        branch_b = trunk + build_log(
            suffix_b, start_chain=trunk[-1].chain, start_sequence=len(trunk)
        )
        point_a = ChainPoint(len(trunk) + 1, branch_a[len(trunk)].chain)
        with pytest.raises(SecurityViolation):
            prefix_for(branch_b, point_a)


# ------------------------------------------------------------- gossip

window_contents = st.dictionaries(
    st.integers(min_value=1, max_value=30),
    st.binary(min_size=32, max_size=32),
    min_size=0,
    max_size=10,
)


class TestGossipProperties:
    @given(window_contents, window_contents)
    def test_evidence_iff_conflicting_shared_sequence(self, points_a, points_b):
        window_a = ChainWindow(client_id=1, points=dict(points_a))
        window_b = ChainWindow(client_id=2, points=dict(points_b))
        evidence = compare_windows(window_a, window_b)
        conflicts = {
            seq
            for seq in points_a
            if seq in points_b and points_a[seq] != points_b[seq]
        }
        if conflicts:
            assert evidence is not None
            assert evidence.sequence in conflicts
        else:
            assert evidence is None

    @given(window_contents, window_contents)
    @settings(max_examples=30)
    def test_cross_check_agrees_with_direct_comparison(self, points_a, points_b):
        key = AeadKey(b"\x07" * 16)
        window_a = ChainWindow(client_id=1, points=dict(points_a))
        window_b = ChainWindow(client_id=2, points=dict(points_b))
        direct = compare_windows(window_a, window_b)
        via_tokens = cross_check(window_a.token(key), window_b.token(key), key)
        assert (direct is None) == (via_tokens is None)

    @given(st.lists(st.tuples(st.integers(1, 100), st.binary(min_size=32, max_size=32)),
                    min_size=1, max_size=40),
           st.integers(min_value=1, max_value=8))
    def test_window_capacity_respected_and_keeps_newest(self, observations, capacity):
        window = ChainWindow(client_id=1, capacity=capacity)
        for sequence, chain in observations:
            window.observe(sequence, chain)
        assert len(window.points) <= capacity
        distinct = {seq for seq, _ in observations}
        retained = set(window.points)
        # everything retained was observed, and the maximum observed
        # sequence number always survives eviction
        assert retained <= distinct
        assert max(distinct) in retained


# ------------------------------------------------------------- serde x chain

class TestEncodingChainInterplay:
    @given(st.lists(st.text(max_size=6), min_size=1, max_size=4),
           st.lists(st.text(max_size=6), min_size=1, max_size=4))
    def test_distinct_operations_chain_differently(self, op_a, op_b):
        if op_a == op_b:
            return
        chain_a = chain_extend(GENESIS_HASH, serde.encode(op_a), 1, 1)
        chain_b = chain_extend(GENESIS_HASH, serde.encode(op_b), 1, 1)
        assert chain_a != chain_b
