"""The walked ``extract_due`` loop, kept as the oracle for the direct drains.

``BinaryHeapQueue.extract_due`` pops while the root is due and charges its
sift steps in closed form; ``CircularQueueAdapter.extract_due`` makes one
window lookup per bucket visited and charges the window the lookups of the
per-element loop by count.  The loop that *performs* those operations —
``peek_min``, then ``extract_min``, one element at a time — lives here.  After
every operation both forms must agree on what was released, on ``stats``, on
``merged_stats()`` and on the window state, so a charge that is dropped,
doubled or taken at the wrong index state shows up as a differing counter.
"""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.queues import (
    BinaryHeapQueue,
    BucketSpec,
    CircularApproximateGradientQueue,
    CircularGradientQueue,
    EmptyQueueError,
    GradientQueue,
    QueueError,
)


def walked_extract_due(queue, now, limit=None):
    """Release due elements one ``peek_min`` / ``extract_min`` at a time."""
    released = []
    while not queue.empty and (limit is None or len(released) < limit):
        priority, _item = queue.peek_min()
        if priority > now:
            break
        released.append(queue.extract_min())
    return released


def circular_approx(spec):
    return CircularApproximateGradientQueue(spec, alpha=4)


def circular_approx_tracking(spec):
    queue = CircularApproximateGradientQueue(spec, alpha=4)
    queue._primary.track_errors = True
    queue._secondary.track_errors = True
    return queue


FAMILIES = {
    "binary_heap": lambda spec: BinaryHeapQueue(),
    "circular_gradient": CircularGradientQueue,
    "circular_approx": circular_approx,
    "circular_approx_tracking": circular_approx_tracking,
}


def state(queue):
    """Everything the two forms must agree on between operations."""
    observed = {"stats": queue.stats.as_dict(), "size": len(queue)}
    if hasattr(queue, "merged_stats"):
        observed["merged"] = queue.merged_stats()
        observed["h_index"] = queue.h_index
        for name in ("_primary", "_secondary"):
            window = getattr(queue, name)
            observed[name] = [window.stats.as_dict(), len(window)]
            if getattr(window, "track_errors", False):
                observed[name].append((window._selections, window._selection_error_total))
    return observed


#: Offsets from the head index, in windows: below it (stale), in either
#: window, and past both.
OFFSET_WINDOWS = (-2, 4)
#: A ``limit`` of 0, 1, ``None`` or a few.
LIMITS = st.one_of(st.sampled_from([0, 1, None]), st.integers(min_value=2, max_value=6))


def operations(span):
    offset = st.integers(min_value=OFFSET_WINDOWS[0] * span, max_value=OFFSET_WINDOWS[1] * span)
    return st.lists(
        st.one_of(
            st.tuples(st.just("enqueue_batch"), st.lists(offset, max_size=10)),
            st.tuples(st.just("extract_due"), offset, LIMITS),
            st.tuples(st.just("extract_min")),
        ),
        max_size=40,
    )


def apply(queue, op, serial, extract_due):
    head = getattr(queue, "h_index", 0)
    kind = op[0]
    if kind == "enqueue_batch":
        pairs = [(head + offset, (serial, i)) for i, offset in enumerate(op[1])]
        return queue.enqueue_batch(pairs)
    if kind == "extract_min":
        try:
            return queue.extract_min()
        except EmptyQueueError:
            return EmptyQueueError
    return extract_due(queue, head + op[1], op[2])


def direct_extract_due(queue, now, limit):
    return queue.extract_due(now, limit=limit)


def assert_same_after_every_operation(direct, walked, ops):
    for serial, op in enumerate(ops):
        assert apply(direct, op, serial, direct_extract_due) == apply(
            walked, op, serial, walked_extract_due
        ), op
        assert state(direct) == state(walked), op


@settings(max_examples=200, deadline=None)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    num_buckets=st.integers(min_value=1, max_value=12),
    granularity=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
def test_direct_extract_due_equals_walked(family, num_buckets, granularity, data):
    spec = BucketSpec(num_buckets=num_buckets, granularity=granularity)
    factory = FAMILIES[family]
    ops = data.draw(operations(num_buckets * granularity))
    assert_same_after_every_operation(factory(spec), factory(spec), ops)


# -- named cases ---------------------------------------------------------------------


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_limits_zero_one_and_none(family):
    spec = BucketSpec(num_buckets=8, granularity=2)
    direct, walked = FAMILIES[family](spec), FAMILIES[family](spec)
    pairs = [(rank, rank) for rank in (3, 3, 1, 9, 15, 40, 2)]
    for queue in (direct, walked):
        queue.enqueue_batch(pairs)
    for now, limit in ((15, 0), (15, 1), (2, None), (15, None), (100, 1), (100, None)):
        assert direct.extract_due(now, limit=limit) == walked_extract_due(walked, now, limit)
        assert state(direct) == state(walked)
    assert direct.empty


def test_overflow_heads_are_redispatched_and_the_ranks_behind_them_released():
    # 30 and 9 overflow into the secondary's last bucket, ahead of 7, which
    # belongs there.  After the first rotation that bucket is the primary's:
    # both overflow heads are re-dispatched before 7 leaves.
    spec = BucketSpec(num_buckets=4)
    direct, walked = CircularGradientQueue(spec), CircularGradientQueue(spec)
    for queue in (direct, walked):
        queue.enqueue_batch([(30, "far"), (9, "past both"), (2, "near"), (0, "now")])
        queue.enqueue_batch([(7, "last bucket")])
    for now, limit in ((2, None), (7, 1), (9, None), (100, None)):
        assert direct.extract_due(now, limit=limit) == walked_extract_due(walked, now, limit)
        assert state(direct) == state(walked)
    assert direct.empty and direct.stats.linear_scans > 0


def test_heap_pops_are_charged_as_single_extractions():
    direct, walked = BinaryHeapQueue(), BinaryHeapQueue()
    for queue in (direct, walked):
        queue.enqueue_batch([(rank % 13, rank) for rank in range(100)])
    assert direct.extract_due(6, limit=40) == walked_extract_due(walked, 6, 40)
    assert state(direct) == state(walked)
    assert direct.extract_min_batch(30) == [walked.extract_min() for _ in range(30)]
    assert state(direct) == state(walked)


def test_adapter_drain_raises_when_the_window_index_names_an_empty_bucket(monkeypatch):
    queue = CircularGradientQueue(BucketSpec(num_buckets=8))
    queue.enqueue_batch([(1, "a"), (5, "b")])
    monkeypatch.setattr(GradientQueue, "_min_bucket", lambda self: 3)
    with pytest.raises(QueueError, match="CircularGradientQueue.*bucket 3"):
        queue.extract_due(7)


def test_error_tracking_windows_are_charged_every_repeated_lookup():
    # Sparse ranks over 64 buckets make the estimate miss and err, so each
    # repeated lookup adds to ``selection_errors`` and both error totals.
    spec = BucketSpec(num_buckets=64)
    direct, walked = circular_approx_tracking(spec), circular_approx_tracking(spec)
    draw = random.Random(3).randrange
    for step in range(60):
        pairs = [(step * 8 + draw(192), (step, i)) for i in range(6)]
        for queue in (direct, walked):
            queue.enqueue_batch(pairs)
        assert direct.extract_due(step * 8, limit=5) == walked_extract_due(walked, step * 8, 5)
        assert state(direct) == state(walked)
    windows = (direct._primary, direct._secondary)
    assert sum(window._selection_error_total for window in windows) > 0
