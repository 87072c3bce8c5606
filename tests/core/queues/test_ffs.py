"""Unit tests for FFS primitives and the single/multi-word FFS queues."""

import pytest

from repro.core.queues import BucketSpec, EmptyQueueError, PriorityOutOfRangeError
from repro.core.queues.ffs import (
    FFSQueue,
    MultiWordFFSQueue,
    find_first_set,
    find_last_set,
    popcount,
)


class TestBitPrimitives:
    def test_find_first_set_single_bits(self):
        for i in range(0, 128):
            assert find_first_set(1 << i) == i

    def test_find_first_set_mixed_word(self):
        assert find_first_set(0b110100) == 2

    def test_find_first_set_zero_raises(self):
        with pytest.raises(ValueError):
            find_first_set(0)

    def test_find_last_set(self):
        assert find_last_set(0b110100) == 5
        assert find_last_set(1) == 0
        with pytest.raises(ValueError):
            find_last_set(0)

    def test_popcount(self):
        assert popcount(0) == 0
        assert popcount(0b1011) == 3

    def test_count_set_bits_alias(self):
        from repro.core.queues.ffs import count_set_bits

        assert count_set_bits(0) == 0
        assert count_set_bits(0b1011) == 3

    def test_negative_words_rejected(self):
        # A Python negative int has conceptually infinite sign bits, so the
        # machine-word primitives must refuse it instead of returning the
        # two's-complement isolate of its magnitude.
        from repro.core.queues.ffs import count_set_bits

        with pytest.raises(ValueError):
            find_first_set(-1)
        with pytest.raises(ValueError):
            find_first_set(-(1 << 63))
        with pytest.raises(ValueError):
            find_last_set(-1)
        with pytest.raises(ValueError):
            popcount(-1)
        with pytest.raises(ValueError):
            count_set_bits(-(1 << 40))


class TestFFSQueue:
    def test_orders_by_priority(self):
        queue = FFSQueue(BucketSpec(num_buckets=16))
        queue.enqueue(5, "e")
        queue.enqueue(1, "a")
        queue.enqueue(9, "z")
        assert queue.extract_min() == (1, "a")
        assert queue.extract_min() == (5, "e")
        assert queue.extract_min() == (9, "z")

    def test_fifo_within_bucket(self):
        queue = FFSQueue(BucketSpec(num_buckets=8))
        queue.enqueue(3, "first")
        queue.enqueue(3, "second")
        assert queue.extract_min() == (3, "first")
        assert queue.extract_min() == (3, "second")

    def test_peek_does_not_remove(self):
        queue = FFSQueue(BucketSpec(num_buckets=8))
        queue.enqueue(2, "x")
        assert queue.peek_min() == (2, "x")
        assert len(queue) == 1

    def test_empty_extraction_raises(self):
        queue = FFSQueue(BucketSpec(num_buckets=8))
        with pytest.raises(EmptyQueueError):
            queue.extract_min()
        with pytest.raises(EmptyQueueError):
            queue.peek_min()

    def test_out_of_range_priority_rejected(self):
        queue = FFSQueue(BucketSpec(num_buckets=8))
        with pytest.raises(PriorityOutOfRangeError):
            queue.enqueue(8, "too big")
        with pytest.raises(PriorityOutOfRangeError):
            queue.enqueue(-1, "negative")

    def test_too_many_buckets_rejected(self):
        with pytest.raises(ValueError):
            FFSQueue(BucketSpec(num_buckets=65), word_width=64)

    def test_any_word_width_is_kept(self):
        # One word needs no (word, bit) split, so the width need not be a power of two.
        queue = FFSQueue(BucketSpec(num_buckets=48), word_width=48)
        queue.enqueue_batch([(47, "last"), (5, "first")])
        assert queue.extract_min_batch(2) == [(5, "first"), (47, "last")]

    def test_granularity_groups_priorities(self):
        queue = FFSQueue(BucketSpec(num_buckets=8, granularity=10))
        queue.enqueue(72, "b")
        queue.enqueue(5, "a")
        assert queue.extract_min() == (5, "a")
        assert queue.extract_min() == (72, "b")

    def test_same_bucket_preserves_fifo_not_priority(self):
        # Within a bucket order is arrival order: the paper treats ranks in
        # one bucket as equivalent.
        queue = FFSQueue(BucketSpec(num_buckets=4, granularity=100))
        queue.enqueue(55, "later-rank-first-arrival")
        queue.enqueue(51, "earlier-rank-second-arrival")
        assert queue.extract_min()[1] == "later-rank-first-arrival"

    def test_non_integer_priority_rejected(self):
        queue = FFSQueue(BucketSpec(num_buckets=8))
        with pytest.raises(TypeError):
            queue.enqueue(1.5, "x")
        with pytest.raises(TypeError):
            queue.enqueue(True, "x")

    def test_occupancy_word_tracks_buckets(self):
        queue = FFSQueue(BucketSpec(num_buckets=8))
        queue.enqueue(0, "a")
        queue.enqueue(6, "b")
        assert queue.occupancy_word() == (1 << 0) | (1 << 6)
        queue.extract_min()
        assert queue.occupancy_word() == (1 << 6)

    def test_stats_counters(self):
        queue = FFSQueue(BucketSpec(num_buckets=8))
        queue.enqueue(1, "a")
        queue.enqueue(2, "b")
        queue.extract_min()
        assert queue.stats.enqueues == 2
        assert queue.stats.dequeues == 1
        assert queue.stats.word_scans >= 1


class TestMultiWordFFSQueue:
    def test_spans_multiple_words(self):
        queue = MultiWordFFSQueue(BucketSpec(num_buckets=200), word_width=64)
        assert queue.num_words == 4
        queue.enqueue(150, "late")
        queue.enqueue(3, "early")
        assert queue.extract_min() == (3, "early")
        assert queue.extract_min() == (150, "late")

    def test_word_scans_grow_with_distance(self):
        queue = MultiWordFFSQueue(BucketSpec(num_buckets=256), word_width=64)
        queue.enqueue(255, "far")
        queue.extract_min()
        # Reaching bucket 255 requires scanning all four words.
        assert queue.stats.word_scans >= 4

    def test_drain_order_random(self):
        import random

        rng = random.Random(7)
        queue = MultiWordFFSQueue(BucketSpec(num_buckets=500), word_width=32)
        priorities = [rng.randrange(500) for _ in range(300)]
        for priority in priorities:
            queue.enqueue(priority, priority)
        drained = [p for p, _ in queue.extract_all()]
        assert drained == sorted(priorities)

    def test_empty_raises(self):
        queue = MultiWordFFSQueue(BucketSpec(num_buckets=100))
        with pytest.raises(EmptyQueueError):
            queue.peek_min()

    def test_out_of_range_rejected(self):
        queue = MultiWordFFSQueue(BucketSpec(num_buckets=100))
        with pytest.raises(PriorityOutOfRangeError):
            queue.enqueue(100, "x")

    @pytest.mark.parametrize("word_width", [0, 3, 48])
    def test_word_width_must_be_a_power_of_two(self, word_width):
        with pytest.raises(ValueError, match="power of two"):
            MultiWordFFSQueue(BucketSpec(num_buckets=100), word_width=word_width)
