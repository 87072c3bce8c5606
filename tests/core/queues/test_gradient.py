"""Unit tests for the exact and approximate gradient queues."""

import random

import pytest

from repro.core.queues import (
    ApproximateGradientQueue,
    BucketSpec,
    CircularApproximateGradientQueue,
    CircularGradientQueue,
    EmptyQueueError,
    GradientQueue,
    PriorityOutOfRangeError,
    gradient_capacity,
    gradient_shift,
    gradient_start_index,
)


class TestGradientMath:
    def test_shift_alpha_16_matches_paper(self):
        # The paper's worked example: alpha=16 gives a shift u(alpha) of 22.
        assert gradient_shift(16) in (22, 23)

    def test_start_index_alpha_16_near_paper(self):
        # Paper: g(alpha, M) decays to near zero at M = 124 for alpha = 16.
        assert 110 <= gradient_start_index(16) <= 135

    def test_capacity_alpha_16_order_of_magnitude(self):
        # Paper: 523 usable buckets for alpha=16 with 64-bit coefficients.
        assert 300 <= gradient_capacity(16, word_bits=64) <= 900

    def test_shift_grows_with_alpha(self):
        assert gradient_shift(32) > gradient_shift(16) > gradient_shift(4)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            gradient_shift(0)
        with pytest.raises(ValueError):
            gradient_start_index(-1)


class TestExactGradientQueue:
    def test_sorted_drain(self):
        rng = random.Random(2)
        queue = GradientQueue(BucketSpec(num_buckets=200))
        priorities = [rng.randrange(200) for _ in range(500)]
        for priority in priorities:
            queue.enqueue(priority, priority)
        drained = [p for p, _ in queue.extract_all()]
        assert drained == sorted(priorities)

    def test_theorem1_critical_point_tracks_min(self):
        # The curvature coefficients always identify the extremal bucket
        # exactly (Theorem 1), regardless of which buckets are occupied.
        rng = random.Random(9)
        queue = GradientQueue(BucketSpec(num_buckets=64))
        occupied = set()
        for _ in range(200):
            priority = rng.randrange(64)
            queue.enqueue(priority, priority)
            occupied.add(priority)
            assert queue.peek_min()[0] == min(occupied)
            if rng.random() < 0.5:
                extracted, _ = queue.extract_min()
                assert extracted == min(occupied)
                # Only discard from the reference when the bucket drained.
                if all(p != extracted for p, _ in _entries(queue)):
                    occupied.discard(extracted)

    def test_coefficients_zero_when_empty(self):
        queue = GradientQueue(BucketSpec(num_buckets=32))
        queue.enqueue(3, "x")
        queue.extract_min()
        assert queue.curvature_coefficients() == (0, 0)

    def test_fifo_within_bucket(self):
        queue = GradientQueue(BucketSpec(num_buckets=16))
        queue.enqueue(4, "a")
        queue.enqueue(4, "b")
        assert queue.extract_min() == (4, "a")
        assert queue.extract_min() == (4, "b")

    def test_out_of_range(self):
        queue = GradientQueue(BucketSpec(num_buckets=16))
        with pytest.raises(PriorityOutOfRangeError):
            queue.enqueue(16, "x")

    def test_empty_raises(self):
        queue = GradientQueue(BucketSpec(num_buckets=16))
        with pytest.raises(EmptyQueueError):
            queue.extract_min()


def _entries(queue):
    """Peek at the internal buckets of a gradient queue (test helper)."""
    for bucket in queue._buckets:
        for entry in bucket or ():
            yield entry


class TestApproximateGradientQueue:
    def test_dense_occupancy_is_exact(self):
        # When every bucket is occupied the approximation has zero error.
        queue = ApproximateGradientQueue(
            BucketSpec(num_buckets=400), alpha=16, track_errors=True
        )
        for priority in range(400):
            queue.enqueue(priority, priority)
        drained = [p for p, _ in queue.extract_all()]
        assert drained == sorted(range(400))
        assert queue.average_selection_error == 0.0

    def test_uniform_workload_low_error(self):
        rng = random.Random(1)
        queue = ApproximateGradientQueue(
            BucketSpec(num_buckets=500), alpha=16, track_errors=True
        )
        for _ in range(4000):
            queue.enqueue(rng.randrange(500), None)
        while not queue.empty:
            queue.extract_min()
        # Uniformly filled buckets (8 packets/bucket on average) keep the
        # occupancy high and the error negligible.
        assert queue.average_selection_error < 1.0

    def test_sparse_occupancy_can_err_but_never_loses_elements(self):
        rng = random.Random(4)
        queue = ApproximateGradientQueue(
            BucketSpec(num_buckets=500), alpha=16, track_errors=True
        )
        priorities = [rng.randrange(500) for _ in range(50)]
        for priority in priorities:
            queue.enqueue(priority, priority)
        drained = [p for p, _ in queue.extract_all()]
        # Conservation: every element comes back exactly once.
        assert sorted(drained) == sorted(priorities)

    def test_selection_error_rate_reported(self):
        queue = ApproximateGradientQueue(
            BucketSpec(num_buckets=300), alpha=16, track_errors=True
        )
        # Concentration at the low-priority end plus one lone high-priority
        # element is the paper's Appendix B error scenario.
        for priority in range(150, 300):
            queue.enqueue(priority, priority)
        queue.enqueue(10, "lone")
        queue.peek_min()
        assert queue.selection_error_rate >= 0.0
        assert queue.average_selection_error >= 0.0

    def test_strict_capacity_enforced(self):
        capacity = gradient_capacity(16, 64)
        with pytest.raises(ValueError):
            ApproximateGradientQueue(
                BucketSpec(num_buckets=capacity + 100),
                alpha=16,
                strict_capacity=True,
            )

    def test_error_tracking_off_by_default(self):
        queue = ApproximateGradientQueue(BucketSpec(num_buckets=100))
        queue.enqueue(5, "x")
        queue.extract_min()
        assert queue.average_selection_error == 0.0
        assert queue.selection_error_rate == 0.0

    def test_empty_raises(self):
        queue = ApproximateGradientQueue(BucketSpec(num_buckets=100))
        with pytest.raises(EmptyQueueError):
            queue.extract_min()

    def test_reset_error_tracking(self):
        queue = ApproximateGradientQueue(
            BucketSpec(num_buckets=100), track_errors=True
        )
        queue.enqueue(50, "x")
        queue.extract_min()
        queue.reset_error_tracking()
        assert queue.average_selection_error == 0.0


class TestCircularGradientQueues:
    def test_circular_exact_moving_range(self):
        queue = CircularGradientQueue(BucketSpec(num_buckets=32))
        now = 0
        for wave in range(20):
            for offset in (2, 7, 20):
                queue.enqueue(now + offset, (wave, offset))
            drained = [queue.extract_min()[0] for _ in range(3)]
            assert drained == sorted(drained)
            now += 32

    def test_circular_approx_conserves_elements(self):
        rng = random.Random(12)
        queue = CircularApproximateGradientQueue(BucketSpec(num_buckets=256), alpha=16)
        priorities = [rng.randrange(0, 512) for _ in range(600)]
        for priority in priorities:
            queue.enqueue(priority, priority)
        drained = [p for p, _ in queue.extract_all()]
        assert sorted(drained) == sorted(priorities)

    def test_circular_extract_due(self):
        queue = CircularApproximateGradientQueue(BucketSpec(num_buckets=64))
        for timestamp in (3, 9, 40, 90):
            queue.enqueue(timestamp, f"t{timestamp}")
        released = queue.extract_due(now=40)
        assert sorted(p for p, _ in released) == [3, 9, 40]

    def test_beyond_horizon_rank_not_extracted_before_nearer_post_rotation_ranks(self):
        # Regression (mirrors the cFFS rotation fix): entries parked in the
        # overflow offset used to be dequeued with far-future ranks once
        # their window rotated into the primary position.
        queue = CircularGradientQueue(BucketSpec(num_buckets=4))
        queue.enqueue(100, "far-future")  # beyond both windows
        queue.enqueue(1, "due-now")
        assert queue.extract_min() == (1, "due-now")
        queue.enqueue(5, "rotates")
        assert queue.extract_min() == (5, "rotates")
        queue.enqueue(9, "nearer")  # new secondary window after rotation
        assert queue.extract_min() == (9, "nearer")
        assert queue.extract_min() == (100, "far-future")

    def test_overflow_drains_sorted_across_rotations(self):
        queue = CircularApproximateGradientQueue(BucketSpec(num_buckets=16), alpha=16)
        priorities = [70, 3, 40, 18, 90, 9]
        for priority in priorities:
            queue.enqueue(priority, priority)
        drained = [p for p, _ in queue.extract_all()]
        assert drained == sorted(priorities)

    def test_merged_stats_include_window_counters(self):
        queue = CircularApproximateGradientQueue(BucketSpec(num_buckets=64))
        queue.enqueue(1, "a")
        queue.extract_min()
        merged = queue.merged_stats()
        assert merged["divisions"] >= 1
        assert merged["enqueues"] >= 2  # adapter + window both count

    def test_ranges_follow_the_rotation(self):
        queue = CircularGradientQueue(BucketSpec(num_buckets=10, granularity=5, base_priority=100))
        assert queue.window_span == 50
        assert queue.primary_range == (100, 150)
        assert queue.secondary_range == (150, 200)
        queue.enqueue(160, "next window")
        assert queue.extract_min() == (160, "next window")
        assert queue.h_index == 150
        assert queue.primary_range == (150, 200)
        assert queue.secondary_range == (200, 250)
        queue.enqueue_batch([(205, "secondary"), (199, "primary"), (990, "overflow")])
        assert [queue.extract_min() for _ in range(3)] == [
            (199, "primary"),
            (205, "secondary"),
            (990, "overflow"),
        ]
        assert queue.stats.overflow_enqueues == 1

    def test_stale_priority_clamps_to_the_window_head(self):
        queue = CircularGradientQueue(BucketSpec(num_buckets=8, base_priority=40))
        queue.enqueue(43, "in window")
        queue.enqueue(12, "stale")
        queue.enqueue_batch([(7, "stale too"), (41, "later")])
        # Stale ranks share the head bucket in arrival order, stored rank intact.
        assert list(queue.extract_all()) == [
            (12, "stale"),
            (7, "stale too"),
            (41, "later"),
            (43, "in window"),
        ]

    def test_stale_priority_rejected_when_not_allowed(self):
        queue = CircularGradientQueue(BucketSpec(num_buckets=8, base_priority=40), allow_stale=False)
        with pytest.raises(ValueError):
            queue.enqueue(39, "stale")
        with pytest.raises(ValueError):
            queue.enqueue_batch([(45, "fine"), (39, "stale")])
        # The validated prefix stays, as a single enqueue of it would.
        assert len(queue) == 1 and queue.stats.enqueues == 1
        assert queue.extract_min() == (45, "fine")

    def test_circular_empty_raises(self):
        queue = CircularGradientQueue(BucketSpec(num_buckets=8))
        with pytest.raises(EmptyQueueError):
            queue.extract_min()
        with pytest.raises(EmptyQueueError):
            queue.peek_min()
        with pytest.raises(ValueError):
            queue.extract_min_batch(-1)
        assert queue.extract_min_batch(4) == []
