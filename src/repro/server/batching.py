"""Bounded request batching (Sec. 5.2/5.3).

The prototype collects incoming INVOKE messages in a bounded queue; once the
queue reaches its limit *or no more client requests are available*, the
server performs a single ecall with the whole batch.  The enclave processes
the batch sequentially, producing one REPLY per request, and the application
and protocol state is stored **once per batch** — this amortisation is why
the batching variants scale in Fig. 6.
"""

from __future__ import annotations

from typing import Generic, TypeVar

from repro.errors import ConfigurationError

T = TypeVar("T")


class BatchSizeHistogram:
    """Bounded batch-size statistics: ``{size: count}`` plus totals.

    Replaces the unbounded per-batch size list the cluster runtimes used
    to keep — the number of distinct sizes is capped by the batch limit,
    so memory stays O(limit) over arbitrarily long runs while the mean,
    max and full distribution remain available.
    """

    def __init__(self) -> None:
        self.counts: dict[int, int] = {}
        self.batches = 0
        self.items = 0

    def record(self, size: int) -> None:
        self.batches += 1
        self.items += size
        self.counts[size] = self.counts.get(size, 0) + 1

    @property
    def mean(self) -> float:
        return self.items / self.batches if self.batches else 0.0

    @property
    def max_size(self) -> int:
        return max(self.counts) if self.counts else 0

    def as_dict(self) -> dict[int, int]:
        """Size -> count snapshot (sorted by size for stable output)."""
        return {size: self.counts[size] for size in sorted(self.counts)}

    def export_to(self, histogram) -> None:
        """Mirror this distribution into a registry histogram
        (:class:`repro.obs.metrics.Histogram`), wholesale.

        This is the read-through bridge the cluster's snapshot collector
        uses: the dispatch hot path keeps writing to this object (one
        dict update per batch, no registry indirection), and the registry
        copy is refreshed only when a snapshot is taken.  The
        ``dispatcher.histogram`` / ``queue.histogram`` accessors stay the
        authoritative source."""
        histogram.set_from_counts(self.counts)


class BatchQueue(Generic[T]):
    """Collects items and hands them out in bounded batches.

    The consumer (:class:`~repro.server.dispatch.GroupDispatcher`) gates
    batch formation on external state — its enclave may be busy — so the
    queue never flushes on its own: items accumulate in arrival order and
    :meth:`take` cuts up to ``limit`` of them, recording each batch in
    the :class:`BatchSizeHistogram` all batch statistics come from.
    """

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ConfigurationError("batch limit must be >= 1")
        self.limit = limit
        self._pending: list[T] = []
        self.histogram = BatchSizeHistogram()

    def add(self, item: T) -> None:
        self._pending.append(item)

    def take(self) -> list[T]:
        """Pop up to ``limit`` pending items as one recorded batch."""
        pending = self._pending
        batch = pending[: self.limit]
        if batch:
            del pending[: len(batch)]
            self.histogram.record(len(batch))
        return batch

    @property
    def pending_count(self) -> int:
        return len(self._pending)
