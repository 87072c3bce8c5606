"""The store-plus-index contract, once for all six fixed-range families.

``FixedRangeBucketQueue`` owns the bucket store and every operation; a family
is an index over it.  These tests hold the parts of that contract nothing else
pins: what a failed batch leaves behind, what the range error says, ``remove``
on every family (only the hierarchical queue had one), that a drain stops on
an index naming an empty bucket, and that the per-family copies of the
operations stay deleted.
"""

from collections import deque

import pytest

from repro.core.model import PIFOBlock
from repro.core.queues import (
    ApproximateGradientQueue,
    BucketedHeapQueue,
    BucketSpec,
    CircularFFSQueue,
    FFSQueue,
    FixedRangeBucketQueue,
    GradientQueue,
    HierarchicalFFSQueue,
    MultiWordFFSQueue,
    PriorityOutOfRangeError,
    QueueError,
)
from repro.core.queues.hierarchical_ffs import FFSBitmapTree

FAMILIES = [
    FFSQueue,
    MultiWordFFSQueue,
    HierarchicalFFSQueue,
    GradientQueue,
    ApproximateGradientQueue,
    BucketedHeapQueue,
]
OPERATIONS = (
    "enqueue", "extract_min", "peek_min", "enqueue_batch", "extract_min_batch", "extract_due",
)

#: 32 buckets of 2 ranks over [100, 164).
SPEC = BucketSpec(num_buckets=32, granularity=2, base_priority=100)

families = pytest.mark.parametrize("family", FAMILIES, ids=lambda cls: cls.__name__)


@families
@pytest.mark.parametrize(
    "bad_rank, error",
    [(164, PriorityOutOfRangeError), (99, PriorityOutOfRangeError), (1.5, TypeError), (True, TypeError)],
)
def test_failed_batch_keeps_and_counts_the_inserted_prefix(family, bad_rank, error):
    queue = family(SPEC)
    with pytest.raises(error):
        queue.enqueue_batch([(130, "a"), (131, "b"), (101, "c"), (bad_rank, "bad"), (102, "never")])
    assert len(queue) == 3
    assert (queue.stats.enqueues, queue.stats.bucket_lookups) == (3, 2)
    assert queue.extract_min_batch(5) == [(101, "c"), (130, "a"), (131, "b")]


@families
def test_range_error_names_the_range_and_the_class(family):
    queue = family(SPEC)
    for enqueue in (lambda: queue.enqueue(164, "x"), lambda: queue.enqueue_batch([(164, "x")])):
        with pytest.raises(PriorityOutOfRangeError) as raised:
            enqueue()
        assert "[100, 164)" in str(raised.value)
        assert family.__name__ in str(raised.value)
    assert queue.empty and queue.stats.enqueues == 0


@families
def test_remove_hit_miss_and_draining_a_bucket_that_is_not_the_minimum(family):
    queue = family(SPEC)
    first, second, other, low = object(), object(), object(), object()
    queue.enqueue_batch([(140, first), (141, second), (150, other), (104, low)])

    assert queue.remove(140, object()) is False  # right bucket, wrong item
    assert queue.remove(141, first) is False  # right item, wrong rank
    assert queue.remove(120, first) is False  # empty bucket
    assert queue.remove(99, first) is False  # outside the range
    assert len(queue) == 4

    assert queue.remove(140, first) is True  # bucket 20 keeps ``second``
    assert queue.remove(140, first) is False
    assert queue.remove(141, second) is True  # ... and now drains, above the minimum
    assert len(queue) == 2
    assert queue.peek_min() == (104, low)

    queue.enqueue(140, first)  # the drained bucket fills again
    assert queue.extract_min_batch(2) == [(104, low), (140, first)]
    assert queue.remove(150, other) is True  # the last element
    assert queue.empty

    # ... or stays empty, and the lookups that follow step over it.
    queue.enqueue_batch([(104, low), (140, first), (150, other)])
    assert queue.remove(140, first) is True
    assert queue.extract_min() == (104, low)
    assert queue.peek_min() == (150, other)
    assert queue.extract_due(163) == [(150, other)]
    assert queue.stats.enqueues == 8 and queue.stats.dequeues == 4


@families
def test_pifo_reinsert_moves_the_element_instead_of_duplicating_it(family):
    pifo = PIFOBlock(SPEC, queue_factory=family)
    flow, other = object(), object()
    pifo.push(120, flow)
    pifo.push(110, other)
    pifo.reinsert(flow, 103)
    assert len(pifo) == 2
    assert pifo.rank_of(flow) == 103
    assert [pifo.pop(), pifo.pop()] == [(103, flow), (110, other)]


@families
@pytest.mark.parametrize(
    "drain",
    [lambda q: q.extract_due(163), lambda q: q.extract_due(120, limit=3), lambda q: q.extract_min_batch(5)],
    ids=["extract_due", "extract_due_partial", "extract_min_batch"],
)
def test_a_drain_raises_when_the_index_names_an_empty_bucket(family, drain, monkeypatch):
    # Bucket 10 holds ranks 120..121 and nothing was enqueued there.  A drain
    # that trusted the index would trip over the missing FIFO or, with an
    # empty one left in place, take nothing from it and look again forever.
    queue = family(SPEC)
    queue.enqueue_batch([(104, "a"), (140, "b")])
    monkeypatch.setattr(family, "_min_bucket", lambda self: 10)
    for left_in_place in (None, deque()):
        queue._buckets[10] = left_in_place
        with pytest.raises(QueueError, match=f"{family.__name__}.*bucket 10"):
            drain(queue)
    assert len(queue) == 2 and queue.stats.dequeues == 0


@pytest.mark.parametrize(
    "drain",
    [lambda q: q.extract_due(163), lambda q: q.extract_due(120, limit=3), lambda q: q.extract_min_batch(5)],
    ids=["extract_due", "extract_due_partial", "extract_min_batch"],
)
def test_a_cffs_drain_raises_when_the_tree_names_an_empty_bucket(drain, monkeypatch):
    # cFFS keeps its own drains over two rotating windows; the same rule
    # holds there.  Trusting the tree, a missing FIFO would be recycled onto
    # the shared free list as None (the next new bucket then fails far from
    # here) and an empty one would be taken from forever.
    queue = CircularFFSQueue(SPEC)
    queue.enqueue_batch([(104, "a"), (140, "b")])
    monkeypatch.setattr(FFSBitmapTree, "first_set", lambda self: (10, 1))
    for left_in_place in (None, deque()):
        queue._primary.buckets[10] = left_in_place
        with pytest.raises(QueueError, match="CircularFFSQueue.*bucket 10"):
            drain(queue)
        assert None not in queue._free
    assert len(queue) == 2 and queue.stats.dequeues == 0


def all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from all_subclasses(sub)


def test_no_family_defines_an_operation_of_its_own():
    found = set(all_subclasses(FixedRangeBucketQueue))
    assert found >= set(FAMILIES)
    for cls in found:
        if cls.__module__.startswith("repro."):
            assert not {*OPERATIONS, "remove"} & set(vars(cls)), cls.__name__
