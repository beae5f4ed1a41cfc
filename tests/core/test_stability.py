"""Stability machinery: majority-stable(V), quorums, client tracker."""

import pytest

from repro.errors import ConfigurationError
from repro.core.stability import (
    ClientEntry,
    StabilityTracker,
    argmax_entry,
    majority_quorum,
    majority_stable,
    stable_with_quorum,
)


def entries(*acks):
    """Build a V map with the given acknowledged sequence numbers."""
    return {
        i: ClientEntry(acknowledged=ack, last_sequence=ack + 1)
        for i, ack in enumerate(acks, start=1)
    }


class TestMajorityQuorum:
    @pytest.mark.parametrize(
        "n,expected", [(1, 1), (2, 2), (3, 2), (4, 3), (5, 3), (10, 6)]
    )
    def test_strictly_more_than_half(self, n, expected):
        assert majority_quorum(n) == expected


class TestMajorityStable:
    def test_empty_v_is_zero(self):
        assert majority_stable({}) == 0

    def test_all_at_zero(self):
        assert majority_stable(entries(0, 0, 0)) == 0

    def test_single_client_stable_at_own_ack(self):
        assert majority_stable(entries(7)) == 7

    def test_three_clients_median_ack(self):
        # acks 5, 3, 1: two clients acknowledge >= 3 -> q = 3
        assert majority_stable(entries(5, 3, 1)) == 3

    def test_one_laggard_does_not_block_majority(self):
        assert majority_stable(entries(10, 9, 0)) == 9

    def test_even_group_needs_strict_majority(self):
        # n=4 -> quorum 3 -> third-largest ack
        assert majority_stable(entries(8, 6, 4, 2)) == 4

    def test_monotone_in_acknowledgements(self):
        before = majority_stable(entries(4, 2, 1))
        after = majority_stable(entries(4, 3, 1))
        assert after >= before


class TestQuorumVariants:
    def test_full_quorum_is_min_ack(self):
        assert stable_with_quorum(entries(9, 5, 2), quorum=3) == 2

    def test_quorum_one_is_max_ack(self):
        assert stable_with_quorum(entries(9, 5, 2), quorum=1) == 9

    def test_quorum_out_of_range(self):
        with pytest.raises(ConfigurationError):
            stable_with_quorum(entries(1, 2), quorum=3)
        with pytest.raises(ConfigurationError):
            stable_with_quorum(entries(1, 2), quorum=0)


class TestArgmax:
    def test_returns_highest_sequence(self):
        v = {
            1: ClientEntry(acknowledged=0, last_sequence=4, last_chain=b"a"),
            2: ClientEntry(acknowledged=0, last_sequence=9, last_chain=b"b"),
        }
        client_id, entry = argmax_entry(v)
        assert client_id == 2
        assert entry.last_chain == b"b"

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            argmax_entry({})


class TestClientEntryWire:
    def test_round_trip(self):
        entry = ClientEntry(acknowledged=1, last_sequence=2, last_chain=b"h", last_result=b"r")
        assert ClientEntry.from_wire(entry.to_wire()) == entry


class TestStabilityTracker:
    def test_observe_and_query(self):
        tracker = StabilityTracker()
        tracker.observe(1, 0)
        tracker.observe(3, 1)
        assert tracker.is_stable(1)
        assert not tracker.is_stable(3)
        assert tracker.pending() == [3]

    def test_stable_sequence_never_decreases(self):
        tracker = StabilityTracker()
        tracker.observe(1, 5)
        tracker.observe(2, 3)  # stale update must not regress
        assert tracker.stable_sequence == 5

    def test_all_stable(self):
        tracker = StabilityTracker()
        tracker.observe(1, 1)
        assert tracker.all_stable()
        tracker.observe(4, 1)
        assert not tracker.all_stable()

    def test_observe_without_sequence_updates_stability_only(self):
        tracker = StabilityTracker()
        tracker.observe(None, 9)
        assert not tracker.own_sequences
        assert tracker.stable_sequence == 9
