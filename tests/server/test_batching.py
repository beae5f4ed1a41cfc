"""Batch queue: bounded take() drain and its accounting."""

import pytest

from repro.errors import ConfigurationError
from repro.server.batching import BatchQueue


class TestBatchQueue:
    def test_manual_flush_of_partial_batch(self):
        queue = BatchQueue(10)
        queue.add("a")
        queue.add("b")
        assert queue.take() == ["a", "b"]
        assert queue.pending_count == 0

    def test_flush_empty_is_noop(self):
        queue = BatchQueue(4)
        assert queue.take() == []
        assert queue.histogram.batches == 0
        assert queue.histogram.as_dict() == {}

    def test_order_preserved_across_batches(self):
        queue = BatchQueue(2)
        for item in range(5):
            queue.add(item)
        assert [queue.take() for _ in range(3)] == [[0, 1], [2, 3], [4]]

    def test_mean_batch_size(self):
        queue = BatchQueue(2)
        for item in range(3):
            queue.add(item)
        queue.take()
        queue.take()
        assert queue.histogram.mean == pytest.approx(1.5)
        assert queue.histogram.items == 3
        assert queue.histogram.batches == 2

    def test_limit_validation(self):
        with pytest.raises(ConfigurationError):
            BatchQueue(0)

    def test_limit_one_flushes_each_item(self):
        queue = BatchQueue(1)
        queue.add("x")
        queue.add("y")
        assert [queue.take(), queue.take()] == [["x"], ["y"]]


class TestBatchSizeHistogram:
    def test_record_and_stats(self):
        from repro.server.batching import BatchSizeHistogram

        histogram = BatchSizeHistogram()
        assert histogram.mean == 0.0 and histogram.max_size == 0
        for size in (3, 1, 3, 5):
            histogram.record(size)
        assert histogram.batches == 4
        assert histogram.items == 12
        assert histogram.mean == pytest.approx(3.0)
        assert histogram.max_size == 5
        assert histogram.as_dict() == {1: 1, 3: 2, 5: 1}

    def test_memory_stays_bounded_by_distinct_sizes(self):
        from repro.server.batching import BatchSizeHistogram

        histogram = BatchSizeHistogram()
        for _ in range(100_000):
            histogram.record(16)
        assert histogram.batches == 100_000
        assert len(histogram.counts) == 1  # O(distinct sizes), not O(batches)


class TestTakeDrain:
    def test_take_is_bounded_and_counts_into_histogram(self):
        queue = BatchQueue(3)
        for i in range(7):
            queue.add(i)
        assert queue.pending_count == 7  # add never cuts a batch
        assert queue.take() == [0, 1, 2]
        assert queue.take() == [3, 4, 5]
        assert queue.take() == [6]
        assert queue.take() == []
        assert queue.histogram.batches == 3
        assert queue.histogram.items == 7
        assert queue.histogram.as_dict() == {1: 1, 3: 2}
