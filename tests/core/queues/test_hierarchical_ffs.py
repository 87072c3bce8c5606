"""Unit tests for the hierarchical FFS bitmap tree and queue."""

import random

import pytest

from repro.core.queues import BucketSpec, EmptyQueueError, PriorityOutOfRangeError
from repro.core.queues.hierarchical_ffs import FFSBitmapTree, HierarchicalFFSQueue


class TestFFSBitmapTree:
    def test_depth_for_small_tree(self):
        assert FFSBitmapTree(64, word_width=64).depth == 1
        assert FFSBitmapTree(65, word_width=64).depth == 2
        assert FFSBitmapTree(64 * 64 + 1, word_width=64).depth == 3

    def test_depth_covers_billion_buckets_in_few_levels(self):
        # The paper: "a queue with a billion buckets will require six bit
        # operations to find the minimum non-empty bucket using a cFFS".
        # ceil(log64(1e9)) is 5; the paper's six is a conservative round-up.
        assert FFSBitmapTree(10**9, word_width=64).depth <= 6

    def test_set_and_first(self):
        tree = FFSBitmapTree(1000, word_width=8)
        tree.set(733)
        tree.set(12)
        bucket, _scanned = tree.first_set()
        assert bucket == 12

    def test_clear_propagates(self):
        tree = FFSBitmapTree(1000, word_width=8)
        tree.set(500)
        tree.clear(500)
        assert not tree.any
        with pytest.raises(EmptyQueueError):
            tree.first_set()

    def test_clear_keeps_other_buckets(self):
        tree = FFSBitmapTree(256, word_width=4)
        tree.set(10)
        tree.set(200)
        tree.clear(10)
        bucket, _ = tree.first_set()
        assert bucket == 200

    def test_test_reports_leaf_state(self):
        tree = FFSBitmapTree(128, word_width=8)
        tree.set(99)
        assert tree.test(99)
        assert not tree.test(98)

    def test_out_of_range(self):
        tree = FFSBitmapTree(16, word_width=4)
        with pytest.raises(IndexError):
            tree.set(16)

    def test_word_width_validation(self):
        with pytest.raises(ValueError):
            FFSBitmapTree(16, word_width=1)
        with pytest.raises(ValueError):
            FFSBitmapTree(0)

    @pytest.mark.parametrize("word_width", [3, 48])
    def test_word_width_must_be_a_power_of_two(self, word_width):
        with pytest.raises(ValueError, match="power of two"):
            FFSBitmapTree(1000, word_width=word_width)

    def test_random_first_set_matches_reference(self):
        rng = random.Random(3)
        tree = FFSBitmapTree(5000, word_width=16)
        reference: set[int] = set()
        for _ in range(2000):
            bucket = rng.randrange(5000)
            if bucket in reference:
                tree.clear(bucket)
                reference.discard(bucket)
            else:
                tree.set(bucket)
                reference.add(bucket)
            if reference:
                assert tree.first_set()[0] == min(reference)
            else:
                assert not tree.any


class TestHierarchicalFFSQueue:
    def test_sorted_drain(self):
        rng = random.Random(11)
        queue = HierarchicalFFSQueue(BucketSpec(num_buckets=10_000))
        priorities = [rng.randrange(10_000) for _ in range(5000)]
        for priority in priorities:
            queue.enqueue(priority, priority)
        drained = [p for p, _ in queue.extract_all()]
        assert drained == sorted(priorities)

    def test_depth_constant_regardless_of_elements(self):
        queue = HierarchicalFFSQueue(BucketSpec(num_buckets=100_000), word_width=64)
        assert queue.depth == 3

    def test_out_of_range(self):
        queue = HierarchicalFFSQueue(BucketSpec(num_buckets=100))
        with pytest.raises(PriorityOutOfRangeError):
            queue.enqueue(100, "x")

    def test_remove_specific_item(self):
        queue = HierarchicalFFSQueue(BucketSpec(num_buckets=100))
        token = object()
        other = object()
        queue.enqueue(10, token)
        queue.enqueue(10, other)
        queue.enqueue(20, "later")
        assert queue.remove(10, token)
        assert len(queue) == 2
        assert queue.extract_min() == (10, other)

    def test_remove_missing_returns_false(self):
        queue = HierarchicalFFSQueue(BucketSpec(num_buckets=100))
        queue.enqueue(10, "a")
        assert not queue.remove(10, "b")
        assert not queue.remove(999, "a")
        assert len(queue) == 1

    def test_remove_clears_bitmap(self):
        queue = HierarchicalFFSQueue(BucketSpec(num_buckets=100))
        token = object()
        queue.enqueue(50, token)
        queue.enqueue(70, "other")
        queue.remove(50, token)
        assert queue.peek_min() == (70, "other")

    def test_base_priority_offset(self):
        queue = HierarchicalFFSQueue(
            BucketSpec(num_buckets=100, granularity=2, base_priority=1000)
        )
        queue.enqueue(1100, "mid")
        queue.enqueue(1001, "early")
        assert queue.extract_min() == (1001, "early")

    def test_empty_raises(self):
        queue = HierarchicalFFSQueue(BucketSpec(num_buckets=10))
        with pytest.raises(EmptyQueueError):
            queue.extract_min()

    def test_min_priority_helper(self):
        queue = HierarchicalFFSQueue(BucketSpec(num_buckets=10))
        assert queue.min_priority() is None
        queue.enqueue(7, "x")
        assert queue.min_priority() == 7
