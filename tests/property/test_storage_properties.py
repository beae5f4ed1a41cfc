"""Property-based tests on stable storage's delta versions.

Random sequences of more than :data:`SNAPSHOT_INTERVAL` stores — each a
whole blob or a delta the way the sealer builds one: equal-length
rewrites, a resize that moves everything behind it, growth, shrinkage,
no change at all — must read back byte for byte at every version,
through ``load_version`` and through a rollback, across snapshot
boundaries, and each store must retain exactly its runs (a snapshot:
the whole blob).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server.storage import SNAPSHOT_INTERVAL, StableStorage

lengths = st.integers(0, 300)
seeds = st.integers(0, 2**32 - 1)  # expanded into bytes: keeps examples small
edits = st.one_of(
    st.tuples(st.just("rewrite"), st.integers(0, 4096), lengths, seeds),
    st.tuples(st.just("resize"), st.integers(0, 4096), lengths, lengths, seeds),
    st.tuples(st.just("grow"), lengths, seeds),
    st.tuples(st.just("shrink"), lengths),
    st.just(("same",)),
    st.tuples(st.just("whole"), lengths, seeds),
)


def _apply(blob: bytes, edit: tuple) -> tuple[bytes, object]:
    """The next version and what is stored for it: the whole blob, or
    the delta ``(base_length, length, runs)`` against ``blob``."""
    kind = edit[0]
    if kind == "rewrite":  # equal-length runs, clipped to the blob
        _, at, length, seed = edit
        at %= len(blob) + 1
        data = random.Random(seed).randbytes(min(length, len(blob) - at))
        new = blob[:at] + data + blob[at + len(data) :]
        return new, (len(blob), len(new), [(at, data)])
    if kind == "resize":  # everything from ``at`` on moves
        _, at, cut, length, seed = edit
        at %= len(blob) + 1
        new = blob[:at] + random.Random(seed).randbytes(length) + blob[at + cut :]
        return new, (len(blob), len(new), [(at, new[at:])])
    if kind == "grow":
        _, length, seed = edit
        new = blob + random.Random(seed).randbytes(length)
        return new, (len(blob), len(new), [(len(blob), new[len(blob) :])])
    if kind == "shrink":
        new = blob[: max(0, len(blob) - edit[1])]
        return new, (len(blob), len(new), [])
    if kind == "same":
        return blob, (len(blob), len(blob), [])
    _, length, seed = edit
    new = random.Random(seed).randbytes(length)
    return new, new


def _retained(index: int, stored: object) -> int:
    """A whole blob and every SNAPSHOT_INTERVAL-th version are kept
    whole; any other delta keeps exactly its runs."""
    if isinstance(stored, bytes):
        return len(stored)
    _, length, runs = stored
    if index % SNAPSHOT_INTERVAL == 0:
        return length
    return sum(len(data) for _, data in runs)


@settings(max_examples=25, deadline=None)
@given(
    st.binary(max_size=1024),
    st.lists(edits, min_size=SNAPSHOT_INTERVAL + 1, max_size=2 * SNAPSHOT_INTERVAL + 8),
    st.data(),
)
def test_every_version_reads_back_exactly(initial, steps, data):
    storage = StableStorage()
    storage.store(initial)
    blobs = [initial]
    retained = len(initial)
    for step in steps:
        blob, stored = _apply(blobs[-1], step)
        assert storage.store(stored) == len(blobs)
        expected = _retained(len(blobs), stored)
        assert storage.last_delta_bytes() == expected
        retained += expected
        blobs.append(blob)
    assert storage.version_count() == len(blobs)
    assert storage.physical_bytes() == retained
    assert storage.total_bytes() == sum(map(len, blobs))
    for index, blob in enumerate(blobs):
        assert storage.load_version(index) == blob
    for index in (0, SNAPSHOT_INTERVAL - 1, SNAPSHOT_INTERVAL, len(blobs) - 1):
        storage.rollback_to(index)
        assert storage.load() == blobs[index]
    # a delta after a rollback still patches the newest version
    storage.rollback_to(data.draw(st.integers(0, len(blobs) - 1)))
    blob, stored = _apply(blobs[-1], data.draw(edits))
    blobs.append(blob)
    storage.store(stored)
    assert storage.load() == blobs[-1]
    assert [storage.load_version(i) for i in range(len(blobs))] == blobs
