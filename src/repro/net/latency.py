"""Latency and bandwidth models for the simulated network.

The evaluation testbed (Sec. 6.1) is a 1 Gbps LAN between a desktop server
and a client VM.  Message transfer time is modelled as::

    delay = propagation + size / bandwidth

with optional jitter from a seeded RNG for tests that want non-degenerate
interleavings while staying reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

GIGABIT_PER_SECOND = 125_000_000.0  # bytes/s


@dataclass(frozen=True)
class BandwidthModel:
    """Serialisation delay of a message of a given size."""

    bytes_per_second: float = GIGABIT_PER_SECOND

    def transfer_time(self, size_bytes: int) -> float:
        if size_bytes <= 0:
            return 0.0
        return size_bytes / self.bytes_per_second


@dataclass
class LatencyModel:
    """One-way network delay: propagation + serialisation + jitter.

    ``propagation`` defaults to 100 us, a typical same-rack LAN one-way
    delay, giving the ~0.4-0.5 ms request round trips implied by the
    paper's closed-loop throughput curves.
    """

    propagation: float = 100e-6
    bandwidth: BandwidthModel = BandwidthModel()
    jitter_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    def one_way(self, size_bytes: int) -> float:
        # BandwidthModel.transfer_time inlined (one call per message)
        delay = self.propagation + (
            size_bytes / self.bandwidth.bytes_per_second if size_bytes > 0 else 0.0
        )
        jitter = self.jitter_fraction
        if jitter > 0:
            # ``uniform(0, jitter)`` is ``0 + (jitter - 0) * random()``:
            # the same draw and the same float, without its frame
            delay *= 1.0 + jitter * self._rng.random()
        return delay

    def round_trip(self, request_bytes: int, reply_bytes: int) -> float:
        return self.one_way(request_bytes) + self.one_way(reply_bytes)
