"""Consistent-hash keyspace partitioner with virtual nodes.

One LCM group protects one functionality instance, so scaling past the
single-group ceiling of Figs. 5/6 means running many groups side by side
with the keyspace partitioned across them.  :class:`HashRing` supplies the
partitioning: every shard owns ``virtual_nodes`` points on a 64-bit ring
(derived by hashing ``shard:replica``), and a key belongs to the shard
owning the first ring point at or after the key's own hash.

Virtual nodes smooth the per-shard share of the keyspace (a handful of raw
points per shard gives wildly uneven arcs; 64+ points per shard keeps the
imbalance within a few tens of percent), and consistent hashing keeps
reassignment minimal: adding or removing one shard only moves the keys on
the arcs that shard gains or loses, never reshuffling the whole keyspace.

The ring is pure deterministic arithmetic — no protocol state — so the
router, the cluster runtime and offline tooling can all derive the same
key→shard mapping independently.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro.crypto.hashing import RING_SPAN, ring_point as _point
from repro.errors import ConfigurationError

#: bound on a ring's memo of key points; past it the oldest entry goes
KEY_POINT_CACHE_MAX = 4096


@dataclass(frozen=True)
class ArcMove:
    """One ring arc whose ownership differs between two ring states.

    ``[start, end)`` is a non-wrapping half-open interval of 64-bit ring
    positions (a reassigned span crossing zero is emitted as two moves);
    every key whose :func:`~repro.crypto.hashing.ring_point` falls inside
    it is owned by ``source`` on the *before* ring and ``target`` on the
    *after* ring.
    """

    start: int
    end: int
    source: object
    target: object

    @property
    def span(self) -> int:
        return self.end - self.start


class HashRing:
    """Consistent-hash ring mapping keys to shard ids.

    Parameters
    ----------
    shards:
        Iterable of shard identifiers (ints in the cluster runtime, but any
        object with a stable ``repr`` works).
    virtual_nodes:
        Ring points per shard.  More points → smoother balance, slightly
        larger lookup table; lookups stay O(log(shards · virtual_nodes)).
    """

    def __init__(self, shards, *, virtual_nodes: int = 64) -> None:
        if virtual_nodes < 1:
            raise ConfigurationError("virtual_nodes must be positive")
        self._virtual_nodes = virtual_nodes
        self._points: list[int] = []
        self._owners: dict[int, object] = {}
        self._shards: list = []
        #: key -> ring point: a key's point does not depend on membership,
        #: so the router's per-operation lookup skips the SHA-256
        self._key_points: dict = {}
        for shard in shards:
            self.add_shard(shard)
        if not self._shards:
            raise ConfigurationError("a hash ring needs at least one shard")

    # ------------------------------------------------------------ membership

    @property
    def shards(self) -> list:
        """Shard ids currently on the ring, in insertion order."""
        return list(self._shards)

    @property
    def virtual_nodes(self) -> int:
        return self._virtual_nodes

    def add_shard(self, shard) -> None:
        """Place a shard's virtual nodes on the ring."""
        if shard in self._shards:
            raise ConfigurationError(f"shard {shard!r} already on the ring")
        for replica in range(self._virtual_nodes):
            point = _point(f"{shard!r}:{replica}".encode())
            # SHA-256 collisions between distinct labels are out of scope;
            # identical labels would mean a duplicate shard id (refused above)
            bisect.insort(self._points, point)
            self._owners[point] = shard
        self._shards.append(shard)

    def remove_shard(self, shard) -> None:
        """Take a shard's virtual nodes off the ring."""
        if shard not in self._shards:
            raise ConfigurationError(f"shard {shard!r} is not on the ring")
        if len(self._shards) == 1:
            raise ConfigurationError("cannot remove the last shard")
        for replica in range(self._virtual_nodes):
            point = _point(f"{shard!r}:{replica}".encode())
            index = bisect.bisect_left(self._points, point)
            del self._points[index]
            del self._owners[point]
        self._shards.remove(shard)

    # --------------------------------------------------------------- lookups

    def owner(self, key) -> object:
        """The shard owning ``key`` (str or bytes)."""
        points = self._key_points
        point = points.get(key)
        if point is None:
            if len(points) >= KEY_POINT_CACHE_MAX:
                del points[next(iter(points))]
            point = points[key] = _point(key)
        index = bisect.bisect_right(self._points, point)
        if index == len(self._points):
            index = 0  # wrap around the ring
        return self._owners[self._points[index]]

    def distribution(self, keys) -> dict:
        """Count how many of ``keys`` each shard owns (balance diagnostics)."""
        counts = {shard: 0 for shard in self._shards}
        for key in keys:
            counts[self.owner(key)] += 1
        return counts

    def arc_fractions(self) -> dict:
        """Fraction of the ring (by arc length) each shard owns."""
        full = RING_SPAN
        fractions = {shard: 0.0 for shard in self._shards}
        points = self._points
        for index, point in enumerate(points):
            previous = points[index - 1] if index else points[-1] - full
            fractions[self._owners[point]] += (point - previous) / full
        return fractions

    # ------------------------------------------------------------ reassignment

    @staticmethod
    def key_point(key) -> int:
        """The 64-bit ring position of a key (str or bytes)."""
        return _point(key)

    def copy(self) -> "HashRing":
        """An independent ring with the same membership and smoothness."""
        return HashRing(self._shards, virtual_nodes=self._virtual_nodes)

    def _owner_at(self, point: int):
        """The shard owning an absolute ring position."""
        index = bisect.bisect_right(self._points, point)
        if index == len(self._points):
            index = 0
        return self._owners[self._points[index]]

    @staticmethod
    def arc_diff(before: "HashRing", after: "HashRing") -> list[ArcMove]:
        """The ring arcs whose owner differs between two ring states.

        This is the *only* key movement a membership change requires: a
        key whose point lies on no returned arc has the same owner on both
        rings.  Consistent hashing guarantees the moves are minimal —
        adding one shard yields arcs whose ``target`` is always the new
        shard, removing one yields arcs whose ``source`` is always the
        removed shard, and no arc ever moves between two surviving shards
        (property-tested in ``tests/sharding``).

        Arcs are emitted as non-wrapping ``[start, end)`` intervals in
        ascending order; the wraparound span is split at zero.
        """
        boundaries = sorted({*before._points, *after._points})
        if not boundaries:
            return []
        moves: list[ArcMove] = []

        def emit(start: int, end: int) -> None:
            if start >= end:
                return
            source = before._owner_at(start)
            target = after._owner_at(start)
            if source != target:
                moves.append(ArcMove(start, end, source, target))

        # the wrap segment [last, RING_SPAN) ∪ [0, first) has one owner
        # per ring (everything past the last point maps to the first);
        # emit it as two non-wrapping arcs
        emit(0, boundaries[0])
        for index, start in enumerate(boundaries[:-1]):
            emit(start, boundaries[index + 1])
        emit(boundaries[-1], RING_SPAN)
        return moves
