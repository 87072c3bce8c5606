"""Unit tests for the PIFO block."""

import pytest

from repro.core.model import PIFOBlock
from repro.core.queues import BinaryHeapQueue, BucketSpec, RBTreeQueue, SortedListQueue


def make_pifo(buckets=128, **kwargs):
    return PIFOBlock(BucketSpec(num_buckets=buckets), **kwargs)


class TestPushPop:
    def test_pop_returns_minimum(self):
        pifo = make_pifo()
        pifo.push(10, "b")
        pifo.push(5, "a")
        pifo.push(20, "c")
        assert pifo.pop() == (5, "a")
        assert pifo.pop() == (10, "b")

    def test_peek(self):
        pifo = make_pifo()
        pifo.push(3, "x")
        assert pifo.peek() == (3, "x")
        assert len(pifo) == 1

    def test_len_and_empty(self):
        pifo = make_pifo()
        assert pifo.empty
        pifo.push(1, "x")
        assert len(pifo) == 1
        assert not pifo.empty

    def test_min_rank(self):
        pifo = make_pifo()
        assert pifo.min_rank() is None
        pifo.push(7, "x")
        pifo.push(2, "y")
        assert pifo.min_rank() == 2


class TestMembershipAndReordering:
    def test_contains_and_rank_of(self):
        pifo = make_pifo()
        element = object()
        pifo.push(9, element)
        assert element in pifo
        assert pifo.rank_of(element) == 9
        pifo.pop()
        assert element not in pifo
        assert pifo.rank_of(element) is None

    def test_remove(self):
        pifo = make_pifo()
        keep = object()
        drop = object()
        pifo.push(5, keep)
        pifo.push(3, drop)
        assert pifo.remove(drop)
        assert not pifo.remove(drop)
        assert pifo.pop() == (5, keep)

    def test_reinsert_moves_element(self):
        pifo = make_pifo()
        flow_a = object()
        flow_b = object()
        pifo.push(10, flow_a)
        pifo.push(20, flow_b)
        # flow_b's rank improves below flow_a's.
        pifo.reinsert(flow_b, 5)
        assert pifo.pop()[1] is flow_b
        assert pifo.pop()[1] is flow_a
        assert len(pifo) == 0

    def test_reinsert_of_absent_element_pushes(self):
        pifo = make_pifo()
        element = object()
        pifo.reinsert(element, 4)
        assert pifo.rank_of(element) == 4

    @pytest.mark.parametrize("family", [BinaryHeapQueue, RBTreeQueue, SortedListQueue])
    def test_remove_unsupported_backing_queue(self, family):
        pifo = PIFOBlock(BucketSpec(num_buckets=16), queue_factory=family)
        element = object()
        assert pifo.remove(element) is False  # not a member: a miss
        pifo.push(3, element)
        # The comparison baselines have no remove(); reporting a miss here
        # would let reinsert() push the element in a second time.
        with pytest.raises(TypeError, match=family.__name__):
            pifo.reinsert(element, 1)
        assert len(pifo) == 1 and pifo.rank_of(element) == 3
