"""Consistent-hash ring: determinism, balance, minimal movement."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashing import RING_SPAN
from repro.errors import ConfigurationError
from repro.sharding.partitioner import KEY_POINT_CACHE_MAX, HashRing

KEYS = [f"user{i:012d}" for i in range(2000)]


class TestOwnership:
    def test_deterministic_across_instances(self):
        a = HashRing(range(4))
        b = HashRing(range(4))
        assert [a.owner(k) for k in KEYS[:200]] == [b.owner(k) for k in KEYS[:200]]

    def test_str_and_bytes_keys_agree(self):
        ring = HashRing(range(4))
        for key in KEYS[:50]:
            assert ring.owner(key) == ring.owner(key.encode())

    def test_every_key_owned_by_a_known_shard(self):
        ring = HashRing(range(5))
        shards = set(ring.shards)
        assert all(ring.owner(k) in shards for k in KEYS[:500])

    def test_single_shard_owns_everything(self):
        ring = HashRing([0])
        assert all(ring.owner(k) == 0 for k in KEYS[:100])


class TestKeyPointCache:
    """``owner`` memoizes each key's ring point; the answer must be the
    uncached lookup's, whatever the membership did since."""

    @staticmethod
    def uncached(ring, key):
        return ring._owner_at(HashRing.key_point(key))

    def test_cached_owner_matches_uncached_across_membership(self):
        ring = HashRing(range(4), virtual_nodes=16)
        keys = KEYS[:300] + [key.encode() for key in KEYS[:300]]
        for _ in range(2):  # cold, then warm
            assert [ring.owner(k) for k in keys] == [
                self.uncached(ring, k) for k in keys
            ]
        ring.add_shard(7)
        assert [ring.owner(k) for k in keys] == [self.uncached(ring, k) for k in keys]
        assert any(ring.owner(k) == 7 for k in keys)
        ring.remove_shard(1)
        assert [ring.owner(k) for k in keys] == [self.uncached(ring, k) for k in keys]
        assert all(ring.owner(k) != 1 for k in keys)

    def test_str_and_bytes_keys_cache_apart_and_agree(self):
        ring = HashRing(range(3))
        assert ring.owner("k1") == ring.owner(b"k1") == self.uncached(ring, "k1")
        assert "k1" in ring._key_points and b"k1" in ring._key_points

    def test_cache_is_bounded(self):
        ring = HashRing(range(2), virtual_nodes=4)
        keys = [f"bound-{index}" for index in range(KEY_POINT_CACHE_MAX + 50)]
        for key in keys:
            assert ring.owner(key) == self.uncached(ring, key)
        assert len(ring._key_points) == KEY_POINT_CACHE_MAX
        # the oldest entries went first; a re-lookup is still exact
        assert keys[0] not in ring._key_points and keys[-1] in ring._key_points
        assert ring.owner(keys[0]) == self.uncached(ring, keys[0])


class TestBalance:
    def test_virtual_nodes_smooth_the_split(self):
        counts = HashRing(range(4), virtual_nodes=128).distribution(KEYS)
        expected = len(KEYS) / 4
        for shard, count in counts.items():
            assert 0.5 * expected < count < 1.6 * expected, (shard, counts)

    def test_more_virtual_nodes_tighter_arcs(self):
        def spread(virtual_nodes):
            fractions = HashRing(
                range(4), virtual_nodes=virtual_nodes
            ).arc_fractions()
            return max(fractions.values()) - min(fractions.values())

        assert spread(256) < spread(4)

    def test_arc_fractions_sum_to_one(self):
        fractions = HashRing(range(6), virtual_nodes=32).arc_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)


class TestMembership:
    def test_adding_a_shard_moves_only_its_gain(self):
        ring = HashRing(range(4))
        before = {k: ring.owner(k) for k in KEYS}
        ring.add_shard(4)
        moved = [k for k in KEYS if ring.owner(k) != before[k]]
        # only keys the new shard gained may move, and they all move to it
        assert all(ring.owner(k) == 4 for k in moved)
        assert 0 < len(moved) < len(KEYS) / 2

    def test_removing_a_shard_strands_no_keys(self):
        ring = HashRing(range(4))
        before = {k: ring.owner(k) for k in KEYS}
        ring.remove_shard(2)
        for key in KEYS:
            owner = ring.owner(key)
            assert owner != 2
            if before[key] != 2:
                assert owner == before[key]  # unaffected keys stay put

    def test_duplicate_and_unknown_shards_refused(self):
        ring = HashRing(range(2))
        with pytest.raises(ConfigurationError):
            ring.add_shard(1)
        with pytest.raises(ConfigurationError):
            ring.remove_shard(9)

    def test_last_shard_cannot_be_removed(self):
        ring = HashRing([0])
        with pytest.raises(ConfigurationError):
            ring.remove_shard(0)

    def test_empty_ring_refused(self):
        with pytest.raises(ConfigurationError):
            HashRing([])


def _keys_on_arcs(moves):
    return {
        key
        for key in KEYS
        if any(
            move.start <= HashRing.key_point(key) < move.end for move in moves
        )
    }


class TestArcDiff:
    """``arc_diff`` is the control plane's movement contract: adding or
    removing a shard reassigns a minimal key set, and *no key ever moves
    between two surviving shards*."""

    @settings(max_examples=25, deadline=None)
    @given(
        shards=st.integers(min_value=1, max_value=8),
        new_shard=st.integers(min_value=100, max_value=120),
        virtual_nodes=st.sampled_from([4, 16, 64]),
    )
    def test_add_moves_only_arcs_gained_by_the_new_shard(
        self, shards, new_shard, virtual_nodes
    ):
        before = HashRing(range(shards), virtual_nodes=virtual_nodes)
        after = before.copy()
        after.add_shard(new_shard)
        moves = HashRing.arc_diff(before, after)
        # every reassigned arc lands on the new shard, from a live source
        assert all(move.target == new_shard for move in moves)
        assert all(move.source != new_shard for move in moves)
        # exactness: the keys on the moved arcs are exactly the keys
        # whose owner changed — nothing else moves anywhere
        changed = {k for k in KEYS if before.owner(k) != after.owner(k)}
        assert _keys_on_arcs(moves) == changed
        assert all(after.owner(k) == new_shard for k in changed)

    @settings(max_examples=25, deadline=None)
    @given(
        shards=st.integers(min_value=2, max_value=8),
        data=st.data(),
        virtual_nodes=st.sampled_from([4, 16, 64]),
    )
    def test_remove_moves_only_the_removed_shards_arcs(
        self, shards, data, virtual_nodes
    ):
        removed = data.draw(st.integers(min_value=0, max_value=shards - 1))
        before = HashRing(range(shards), virtual_nodes=virtual_nodes)
        after = before.copy()
        after.remove_shard(removed)
        moves = HashRing.arc_diff(before, after)
        assert all(move.source == removed for move in moves)
        assert all(move.target != removed for move in moves)
        changed = {k for k in KEYS if before.owner(k) != after.owner(k)}
        assert _keys_on_arcs(moves) == changed
        assert all(before.owner(k) == removed for k in changed)

    @settings(max_examples=15, deadline=None)
    @given(shards=st.integers(min_value=1, max_value=10))
    def test_arcs_are_disjoint_ascending_and_in_range(self, shards):
        before = HashRing(range(shards), virtual_nodes=16)
        after = before.copy()
        after.add_shard(99)
        moves = HashRing.arc_diff(before, after)
        previous_end = 0
        for move in moves:
            assert 0 <= move.start < move.end <= RING_SPAN
            assert move.start >= previous_end  # ascending, non-overlapping
            previous_end = move.end

    def test_identical_rings_diff_to_nothing(self):
        ring = HashRing(range(5))
        assert HashRing.arc_diff(ring, ring.copy()) == []

    def test_round_trip_add_then_remove_restores_ownership(self):
        ring = HashRing(range(4))
        grown = ring.copy()
        grown.add_shard(4)
        shrunk = grown.copy()
        shrunk.remove_shard(4)
        assert HashRing.arc_diff(ring, shrunk) == []
