"""The approximate gradient queue must not strand items when its sums cancel.

The curvature coefficients are float sums of weights that differ by hundreds
of binary orders of magnitude across a large bucket range: a heavy bucket
absorbs a light one on the way in and takes it along on the way out, leaving
``a == 0.0`` over a non-empty queue.  The lookup treats that as an estimate
miss and falls back to the scan; it raises only when nothing is occupied.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.queues import ApproximateGradientQueue, BucketSpec, EmptyQueueError
from repro.core.queues.gradient import gradient_start_index


def test_light_bucket_survives_the_heavy_bucket_leaving():
    queue = ApproximateGradientQueue(BucketSpec(num_buckets=8000), alpha=16)
    queue.enqueue(7999, "low")
    queue.enqueue(0, "high")
    assert queue.extract_min() == (0, "high")
    assert len(queue) == 1 and queue._a == 0.0  # the sum cancelled
    assert queue.peek_min() == (7999, "low")
    assert queue.extract_min() == (7999, "low")
    assert queue.empty
    # Each cancelled lookup: one division, and the scan from bucket 0 up.
    assert queue.stats.divisions == 3
    assert queue.stats.linear_scans == 2 * 7999


def test_overflowing_ratio_is_an_estimate_miss():
    queue = ApproximateGradientQueue(BucketSpec(num_buckets=64), alpha=16)
    queue.enqueue(9, "only")
    queue._a = 5e-324  # what cancellation can leave behind: b / a == inf
    assert queue.extract_min() == (9, "only")
    assert queue.stats.linear_scans == 9


def test_empty_queue_still_raises():
    queue = ApproximateGradientQueue(BucketSpec(num_buckets=8000), alpha=16)
    queue.enqueue(7999, "low")
    queue.extract_min()
    for lookup in (queue.peek_min, queue.extract_min, queue._min_bucket):
        with pytest.raises(EmptyQueueError):
            lookup()


ALPHAS = (1, 2, 4, 16)


@st.composite
def queue_and_operations(draw):
    alpha = draw(st.sampled_from(ALPHAS))
    physical_limit = alpha * 960 - gradient_start_index(alpha)
    num_buckets = draw(
        st.one_of(
            st.integers(min_value=1, max_value=physical_limit),
            st.just(physical_limit),
        )
    )
    # Ranks pile up at both ends of the range, where weights are furthest apart.
    rank = st.one_of(
        st.integers(min_value=0, max_value=num_buckets - 1),
        st.sampled_from([0, num_buckets - 1, num_buckets // 2]),
    )
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("enqueue"), rank),
                st.tuples(st.just("enqueue_batch"), st.lists(rank, max_size=6)),
                st.tuples(st.just("peek_min")),
                st.tuples(st.just("extract_min")),
                st.tuples(st.just("extract_min_batch"), st.integers(0, 4)),
                st.tuples(st.just("extract_due"), rank, st.one_of(st.none(), st.integers(0, 4))),
            ),
            max_size=40,
        )
    )
    return alpha, num_buckets, ops


@settings(max_examples=60, deadline=None)
@given(queue_and_operations())
def test_every_enqueued_item_is_released_exactly_once(case):
    alpha, num_buckets, ops = case
    queue = ApproximateGradientQueue(BucketSpec(num_buckets=num_buckets), alpha=alpha)
    enqueued = []
    released = []
    for op in ops:
        kind = op[0]
        if kind == "enqueue":
            enqueued.append((op[1], len(enqueued)))
            queue.enqueue(*enqueued[-1])
        elif kind == "enqueue_batch":
            pairs = [(rank, len(enqueued) + i) for i, rank in enumerate(op[1])]
            enqueued.extend(pairs)
            queue.enqueue_batch(pairs)
        elif not len(queue):
            continue
        elif kind == "peek_min":
            assert queue.peek_min() in enqueued
        elif kind == "extract_min":
            released.append(queue.extract_min())
        elif kind == "extract_min_batch":
            released.extend(queue.extract_min_batch(op[1]))
        else:
            released.extend(queue.extract_due(op[1], limit=op[2]))
        assert len(queue) == len(enqueued) - len(released)
    released.extend(queue.extract_all())
    assert sorted(released) == sorted(enqueued)
    assert queue.empty and queue._occupied == 0
