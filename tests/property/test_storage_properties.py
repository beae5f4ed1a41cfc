"""Property-based tests on stable storage's block-delta versions.

Random sequences of more than :data:`SNAPSHOT_INTERVAL` stores — patches,
growth, shrinkage, identical and empty blobs — must read back byte for
byte at every version, through ``load_version`` and through a rollback,
across snapshot boundaries, and each store must retain exactly the
blocks that differ from the version before it.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import fastpath
from repro.server.storage import SNAPSHOT_INTERVAL, StableStorage

lengths = st.integers(1, 600)
seeds = st.integers(0, 2**32 - 1)  # expanded into bytes: keeps examples small
edits = st.one_of(
    st.tuples(st.just("patch"), st.integers(0, 4096), lengths, seeds),
    st.tuples(st.just("grow"), lengths, seeds),
    st.tuples(st.just("shrink"), lengths),
    st.just(("same",)),
    st.just(("empty",)),
)


def _apply(blob: bytes, edit: tuple) -> bytes:
    kind = edit[0]
    if kind == "patch":
        _, at, length, seed = edit
        at %= len(blob) + 1
        return blob[:at] + random.Random(seed).randbytes(length) + blob[at + length :]
    if kind == "grow":
        _, length, seed = edit
        return blob + random.Random(seed).randbytes(length)
    if kind == "shrink":
        return blob[: max(0, len(blob) - edit[1])]
    if kind == "same":
        return blob
    return b""


def _expected_retained(index: int, previous: bytes, blob: bytes, delta: bool) -> int:
    """A snapshot keeps the whole blob; a delta the differing blocks."""
    if not delta or index % SNAPSHOT_INTERVAL == 0:
        return len(blob)
    runs = fastpath.BACKEND.diff_blocks(previous, blob)
    return sum(hi - lo for lo, hi in runs)


@settings(max_examples=25, deadline=None)
@given(
    st.binary(max_size=1024),
    st.lists(edits, min_size=SNAPSHOT_INTERVAL + 1, max_size=2 * SNAPSHOT_INTERVAL + 8),
    st.booleans(),
    st.data(),
)
def test_every_version_reads_back_exactly(initial, steps, delta, data):
    storage = StableStorage(delta=delta)
    blobs = []
    retained = 0
    blob = initial
    for step in steps:
        previous, blob = blob, _apply(blob, step)
        assert storage.store(blob) == len(blobs)
        expected = _expected_retained(len(blobs), previous, blob, delta)
        assert storage.last_delta_bytes() == expected
        retained += expected
        blobs.append(blob)
    assert storage.version_count() == len(blobs)
    assert storage.physical_bytes() == retained <= storage.total_bytes()
    assert storage.total_bytes() == sum(map(len, blobs))
    for index, blob in enumerate(blobs):
        assert storage.load_version(index) == blob
    for index in (0, SNAPSHOT_INTERVAL - 1, SNAPSHOT_INTERVAL, len(blobs) - 1):
        storage.rollback_to(index)
        assert storage.load() == blobs[index]
    # a store after a rollback is still a delta against the newest version
    storage.rollback_to(data.draw(st.integers(0, len(blobs) - 1)))
    blobs.append(_apply(blobs[-1], data.draw(edits)))
    storage.store(blobs[-1])
    assert storage.load() == blobs[-1]
    assert [storage.load_version(i) for i in range(len(blobs))] == blobs
