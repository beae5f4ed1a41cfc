"""A machine-speed reference, so host-time metrics survive a shared box.

The 2-vCPU VM this benchmark was cut on changes speed under its feet: the
same repetition runs up to 1.5x slower for half a minute at a time, then
recovers (README, "Machine speed").  Raw wall times of identical work
then differ between runs by more than any regression bound worth having.

:class:`Speedometer` times a small fixed kernel -- interpreter work on a
dict, a list and strings, plus C hashing and byte copying, the same kind
of work as the stack under test -- between the slices of every timed
region.  The mean kernel time over a region says how fast the machine was
*while that region ran*; ``wall x speed`` is the region's duration at
nominal speed (the speed at which the kernel takes :data:`NOMINAL_S`).
The kernel's own time is never part of a timed region, and the kernel
lives here, not under ``src/``, so no change to the program can move it.
"""

from __future__ import annotations

import hashlib
import time

#: kernel duration on the reference box at its usual speed; it only fixes
#: the unit, so numbers taken on different days stay comparable
NOMINAL_S = 0.0055

_BLOCK = bytes(range(256)) * 4


def _kernel() -> None:
    table: dict[int, int] = {}
    names: list[str] = []
    chunks: list[bytes] = []
    value = 0
    for index in range(5400):
        value = (value * 31 + index) & 0xFFFFFFFF
        table[index & 127] = value
        names.append(f"k{value & 1023:04d}")
        if not index & 7:
            chunks.append(hashlib.sha256(_BLOCK).digest() + _BLOCK[index & 255:])
    b"".join(chunks)
    while names:
        names.pop()


class Speedometer:
    """Kernel timings, in the order they were taken."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        started = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - started)

    def speed(self, first: int = 0) -> float:
        """Machine speed over the samples from index ``first`` on: above 1
        when the machine ran faster than nominal."""
        taken = self.samples[first:]
        return NOMINAL_S * len(taken) / sum(taken)
