"""Comparison-based priority queue baselines.

The systems Eiffel is compared against use classic O(log n) comparison
structures: the FQ/pacing qdisc keeps flows in a red-black tree, hClock and
the pFabric baseline use binary min-heaps.  These baselines are implemented
here with the same ``(priority, item)`` interface as the bucketed queues so
every benchmark can swap implementations freely.

All three structures order ties by insertion sequence, preserving the FIFO
behaviour within a rank that the bucketed queues give for free.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
from typing import Any, Iterable, Iterator, Optional

from .base import BucketSpec, EmptyQueueError, IntegerPriorityQueue, validate_priority


class BinaryHeapQueue(IntegerPriorityQueue):
    """Classic binary min-heap (the C++ ``std::priority_queue`` stand-in)."""

    __slots__ = ("_heap", "_counter")

    def __init__(self, spec: Optional[BucketSpec] = None) -> None:
        super().__init__(spec or BucketSpec(num_buckets=1))
        self._heap: list[tuple[int, int, Any]] = []
        self._counter = itertools.count()

    def enqueue(self, priority: int, item: Any) -> None:
        priority = validate_priority(priority)
        self.stats.enqueues += 1
        heapq.heappush(self._heap, (priority, next(self._counter), item))
        self.stats.heap_operations += max(1, len(self._heap).bit_length())
        self._size += 1

    def extract_min(self) -> tuple[int, Any]:
        if self.empty:
            raise EmptyQueueError("extract_min from empty BinaryHeapQueue")
        priority, _seq, item = heapq.heappop(self._heap)
        self.stats.heap_operations += max(1, (len(self._heap) + 1).bit_length())
        self.stats.dequeues += 1
        self._size -= 1
        return priority, item

    def peek_min(self) -> tuple[int, Any]:
        if self.empty:
            raise EmptyQueueError("peek_min from empty BinaryHeapQueue")
        priority, _seq, item = self._heap[0]
        return priority, item

    def reheapify(self) -> None:
        """Rebuild the heap from scratch (O(n)).

        The pFabric baseline needs this whenever a flow's rank changes, since
        a plain binary heap cannot relocate an arbitrary element cheaply; the
        cost of these calls is what Figure 15 measures.
        """
        heapq.heapify(self._heap)
        self.stats.heap_operations += max(1, len(self._heap))

    # -- batch operations ------------------------------------------------------

    def enqueue_batch(self, pairs: Iterable[tuple[int, Any]]) -> int:
        """Batched insert: one O(n) heapify when it beats k pushes.

        Extraction order is fully determined by the ``(priority, seq)`` total
        order, so rebuilding the heap in one pass is observationally identical
        to pushing elements one at a time; k pushes are charged by count.  On
        a mid-batch validation error the validated prefix is inserted and
        counted, as repeated single inserts would leave it.
        """
        counter = self._counter
        entries: list[tuple[int, int, Any]] = []
        append = entries.append
        try:
            for priority, item in pairs:
                if type(priority) is not int:
                    priority = validate_priority(priority)
                append((priority, next(counter), item))
        finally:
            count = len(entries)
            if count:
                heap = self._heap
                size = len(heap)
                stats = self.stats
                stats.enqueues += count
                total = size + count
                if count * max(1, total.bit_length()) >= total:
                    heap.extend(entries)
                    heapq.heapify(heap)
                    stats.heap_operations += max(1, total)
                else:
                    # A push that leaves ``m`` entries is charged ``m.bit_length()``.
                    push = heapq.heappush
                    for entry in entries:
                        push(heap, entry)
                    stats.heap_operations += _bit_length_sum(total) - _bit_length_sum(size)
                self._size = total
        return count

    def extract_min_batch(self, n: int) -> list[tuple[int, Any]]:
        """Batched extract-min: a full drain sorts in place instead of sifting."""
        if n < 0:
            raise ValueError("batch size must be non-negative")
        size = self._size
        if n >= size and size:
            # Draining everything: one O(n log n) sort replaces n pops, each
            # of which would sift the root down the whole heap.
            self._heap.sort()
            drained = [(priority, item) for priority, _seq, item in self._heap]
            self.stats.heap_operations += max(1, size * max(1, size.bit_length()) // 2)
            self.stats.dequeues += size
            self._heap.clear()
            self._size = 0
            return drained
        heap = self._heap
        pop = heapq.heappop
        batch: list[tuple[int, Any]] = []
        append = batch.append
        count = min(n, size)
        for _ in range(count):
            priority, _seq, item = pop(heap)
            append((priority, item))
        self._charge_pops(size, count)
        return batch

    def extract_due(
        self, now: int, limit: Optional[int] = None
    ) -> list[tuple[int, Any]]:
        """Pop while the root is due, charged as the single pops would be."""
        heap = self._heap
        size = self._size
        count = size if limit is None else min(limit, size)
        pop = heapq.heappop
        released: list[tuple[int, Any]] = []
        append = released.append
        for _ in range(count):
            if heap[0][0] > now:
                break
            priority, _seq, item = pop(heap)
            append((priority, item))
        self._charge_pops(size, len(released))
        return released

    def _charge_pops(self, size: int, taken: int) -> None:
        """Charge ``taken`` pops from a heap of ``size`` as ``extract_min`` does.

        A pop that leaves ``m`` entries is charged ``(m + 1).bit_length()``
        sift steps, so the pops from ``size`` down are charged the sum of
        ``k.bit_length()`` over ``k`` in ``(size - taken, size]``: a
        difference of :func:`_bit_length_sum`, not a walk.
        """
        stats = self.stats
        stats.heap_operations += _bit_length_sum(size) - _bit_length_sum(size - taken)
        stats.dequeues += taken
        self._size = size - taken


def _bit_length_sum(n: int) -> int:
    """``sum(k.bit_length() for k in range(1, n + 1))`` in closed form."""
    length = n.bit_length()
    return (n + 1) * length - (1 << length) + 1


class _RBNode:
    """A red-black tree node keyed by priority, holding a FIFO of items."""

    __slots__ = ("key", "items", "color", "left", "right", "parent")

    RED = 0
    BLACK = 1

    def __init__(self, key: int) -> None:
        self.key = key
        self.items: list[Any] = []
        self.color = _RBNode.RED
        self.left: Optional["_RBNode"] = None
        self.right: Optional["_RBNode"] = None
        self.parent: Optional["_RBNode"] = None


class RBTreeQueue(IntegerPriorityQueue):
    """Red-black tree priority queue (the Linux qdisc data structure).

    Each tree node corresponds to one distinct priority and stores its items
    in FIFO order, mirroring how the FQ qdisc keys its flow tree by next
    transmission time.  Insertion, minimum lookup and deletion are O(log n)
    with the usual rebalancing; the number of rotations and node visits is
    tracked so the CPU cost model can charge them.
    """

    __slots__ = ("_root", "_node_count")

    def __init__(self, spec: Optional[BucketSpec] = None) -> None:
        super().__init__(spec or BucketSpec(num_buckets=1))
        self._root: Optional[_RBNode] = None
        self._node_count = 0

    # -- rotations -------------------------------------------------------------

    def _rotate_left(self, node: _RBNode) -> None:
        self.stats.heap_operations += 1
        pivot = node.right
        assert pivot is not None
        node.right = pivot.left
        if pivot.left is not None:
            pivot.left.parent = node
        pivot.parent = node.parent
        if node.parent is None:
            self._root = pivot
        elif node is node.parent.left:
            node.parent.left = pivot
        else:
            node.parent.right = pivot
        pivot.left = node
        node.parent = pivot

    def _rotate_right(self, node: _RBNode) -> None:
        self.stats.heap_operations += 1
        pivot = node.left
        assert pivot is not None
        node.left = pivot.right
        if pivot.right is not None:
            pivot.right.parent = node
        pivot.parent = node.parent
        if node.parent is None:
            self._root = pivot
        elif node is node.parent.right:
            node.parent.right = pivot
        else:
            node.parent.left = pivot
        pivot.right = node
        node.parent = pivot

    # -- insertion ----------------------------------------------------------------

    def _find_or_insert_node(self, key: int) -> _RBNode:
        parent = None
        current = self._root
        while current is not None:
            self.stats.bucket_lookups += 1
            parent = current
            if key == current.key:
                return current
            current = current.left if key < current.key else current.right
        node = _RBNode(key)
        node.parent = parent
        if parent is None:
            self._root = node
        elif key < parent.key:
            parent.left = node
        else:
            parent.right = node
        self._node_count += 1
        self._insert_fixup(node)
        return node

    def _insert_fixup(self, node: _RBNode) -> None:
        while (
            node.parent is not None
            and node.parent.color == _RBNode.RED
            and node.parent.parent is not None
        ):
            grandparent = node.parent.parent
            if node.parent is grandparent.left:
                uncle = grandparent.right
                if uncle is not None and uncle.color == _RBNode.RED:
                    node.parent.color = _RBNode.BLACK
                    uncle.color = _RBNode.BLACK
                    grandparent.color = _RBNode.RED
                    node = grandparent
                else:
                    if node is node.parent.right:
                        node = node.parent
                        self._rotate_left(node)
                    node.parent.color = _RBNode.BLACK
                    grandparent.color = _RBNode.RED
                    self._rotate_right(grandparent)
            else:
                uncle = grandparent.left
                if uncle is not None and uncle.color == _RBNode.RED:
                    node.parent.color = _RBNode.BLACK
                    uncle.color = _RBNode.BLACK
                    grandparent.color = _RBNode.RED
                    node = grandparent
                else:
                    if node is node.parent.left:
                        node = node.parent
                        self._rotate_right(node)
                    node.parent.color = _RBNode.BLACK
                    grandparent.color = _RBNode.RED
                    self._rotate_left(grandparent)
        assert self._root is not None
        self._root.color = _RBNode.BLACK

    # -- minimum + deletion ---------------------------------------------------------

    def _minimum_node(self) -> _RBNode:
        if self._root is None:
            raise EmptyQueueError("RBTreeQueue is empty")
        node = self._root
        while node.left is not None:
            self.stats.bucket_lookups += 1
            node = node.left
        return node

    def _transplant(self, old: _RBNode, new: Optional[_RBNode]) -> None:
        if old.parent is None:
            self._root = new
        elif old is old.parent.left:
            old.parent.left = new
        else:
            old.parent.right = new
        if new is not None:
            new.parent = old.parent

    def _delete_node(self, node: _RBNode) -> None:
        # Since we only ever delete the minimum node (no left child), the
        # full CLRS delete collapses to a transplant plus a fixup walk.
        self.stats.heap_operations += 1
        original_color = node.color
        child = node.right
        child_parent = node.parent
        self._transplant(node, node.right)
        self._node_count -= 1
        if original_color == _RBNode.BLACK:
            self._delete_fixup(child, child_parent)

    def _delete_fixup(
        self, node: Optional[_RBNode], parent: Optional[_RBNode]
    ) -> None:
        while (node is not self._root) and (
            node is None or node.color == _RBNode.BLACK
        ):
            if parent is None:
                break
            if node is parent.left:
                sibling = parent.right
                if sibling is not None and sibling.color == _RBNode.RED:
                    sibling.color = _RBNode.BLACK
                    parent.color = _RBNode.RED
                    self._rotate_left(parent)
                    sibling = parent.right
                if sibling is None:
                    node = parent
                    parent = node.parent
                    continue
                left_black = sibling.left is None or sibling.left.color == _RBNode.BLACK
                right_black = (
                    sibling.right is None or sibling.right.color == _RBNode.BLACK
                )
                if left_black and right_black:
                    sibling.color = _RBNode.RED
                    node = parent
                    parent = node.parent
                else:
                    if right_black:
                        if sibling.left is not None:
                            sibling.left.color = _RBNode.BLACK
                        sibling.color = _RBNode.RED
                        self._rotate_right(sibling)
                        sibling = parent.right
                    assert sibling is not None
                    sibling.color = parent.color
                    parent.color = _RBNode.BLACK
                    if sibling.right is not None:
                        sibling.right.color = _RBNode.BLACK
                    self._rotate_left(parent)
                    node = self._root
                    parent = None
            else:
                sibling = parent.left
                if sibling is not None and sibling.color == _RBNode.RED:
                    sibling.color = _RBNode.BLACK
                    parent.color = _RBNode.RED
                    self._rotate_right(parent)
                    sibling = parent.left
                if sibling is None:
                    node = parent
                    parent = node.parent
                    continue
                left_black = sibling.left is None or sibling.left.color == _RBNode.BLACK
                right_black = (
                    sibling.right is None or sibling.right.color == _RBNode.BLACK
                )
                if left_black and right_black:
                    sibling.color = _RBNode.RED
                    node = parent
                    parent = node.parent
                else:
                    if left_black:
                        if sibling.right is not None:
                            sibling.right.color = _RBNode.BLACK
                        sibling.color = _RBNode.RED
                        self._rotate_left(sibling)
                        sibling = parent.left
                    assert sibling is not None
                    sibling.color = parent.color
                    parent.color = _RBNode.BLACK
                    if sibling.left is not None:
                        sibling.left.color = _RBNode.BLACK
                    self._rotate_right(parent)
                    node = self._root
                    parent = None
        if node is not None:
            node.color = _RBNode.BLACK

    # -- queue interface ---------------------------------------------------------------

    def enqueue(self, priority: int, item: Any) -> None:
        priority = validate_priority(priority)
        self.stats.enqueues += 1
        node = self._find_or_insert_node(priority)
        node.items.append(item)
        self._size += 1

    def extract_min(self) -> tuple[int, Any]:
        if self.empty:
            raise EmptyQueueError("extract_min from empty RBTreeQueue")
        node = self._minimum_node()
        item = node.items.pop(0)
        priority = node.key
        if not node.items:
            self._delete_node(node)
        self.stats.dequeues += 1
        self._size -= 1
        return priority, item

    def peek_min(self) -> tuple[int, Any]:
        if self.empty:
            raise EmptyQueueError("peek_min from empty RBTreeQueue")
        node = self._minimum_node()
        return node.key, node.items[0]

    # -- batch operations -------------------------------------------------------------------

    def enqueue_batch(self, pairs: Iterable[tuple[int, Any]]) -> int:
        """Batched insert: one tree descent per distinct priority."""
        grouped: dict[int, list[Any]] = {}
        count = 0
        for priority, item in pairs:
            grouped.setdefault(validate_priority(priority), []).append(item)
            count += 1
        self.stats.enqueues += count
        for priority, items in grouped.items():
            node = self._find_or_insert_node(priority)
            node.items.extend(items)
        self._size += count
        return count

    def extract_min_batch(self, n: int) -> list[tuple[int, Any]]:
        """Batched extract-min: one minimum walk per node drained."""
        if n < 0:
            raise ValueError("batch size must be non-negative")
        batch: list[tuple[int, Any]] = []
        while len(batch) < n and self._size:
            node = self._minimum_node()
            take = min(n - len(batch), len(node.items))
            batch.extend((node.key, item) for item in node.items[:take])
            del node.items[:take]
            if not node.items:
                self._delete_node(node)
            self.stats.dequeues += take
            self._size -= take
        return batch

    def extract_due(
        self, now: int, limit: Optional[int] = None
    ) -> list[tuple[int, Any]]:
        released: list[tuple[int, Any]] = []
        while self._size and (limit is None or len(released) < limit):
            node = self._minimum_node()
            if node.key > now:
                break
            take = len(node.items)
            if limit is not None:
                take = min(take, limit - len(released))
            released.extend((node.key, item) for item in node.items[:take])
            del node.items[:take]
            if not node.items:
                self._delete_node(node)
            self.stats.dequeues += take
            self._size -= take
        return released

    # -- invariants (used by property-based tests) -----------------------------------------

    @property
    def node_count(self) -> int:
        """Number of distinct priorities currently in the tree."""
        return self._node_count

    def check_invariants(self) -> None:
        """Verify the red-black invariants; raises AssertionError on violation."""
        if self._root is None:
            return
        assert self._root.color == _RBNode.BLACK, "root must be black"
        self._check_subtree(self._root)

    def _check_subtree(self, node: Optional[_RBNode]) -> int:
        if node is None:
            return 1
        if node.color == _RBNode.RED:
            for child in (node.left, node.right):
                assert child is None or child.color == _RBNode.BLACK, (
                    "red node with red child"
                )
        if node.left is not None:
            assert node.left.key < node.key, "BST order violated (left)"
            assert node.left.parent is node, "broken parent pointer (left)"
        if node.right is not None:
            assert node.right.key > node.key, "BST order violated (right)"
            assert node.right.parent is node, "broken parent pointer (right)"
        left_height = self._check_subtree(node.left)
        right_height = self._check_subtree(node.right)
        assert left_height == right_height, "black-height mismatch"
        return left_height + (1 if node.color == _RBNode.BLACK else 0)

    def keys_in_order(self) -> Iterator[int]:
        """Yield the distinct priorities in ascending order."""

        def walk(node: Optional[_RBNode]) -> Iterator[int]:
            if node is None:
                return
            yield from walk(node.left)
            yield node.key
            yield from walk(node.right)

        yield from walk(self._root)


class SortedListQueue(IntegerPriorityQueue):
    """Insertion-sorted list baseline (the "linear search" queue in ns-2 pFabric)."""

    __slots__ = ("_entries", "_counter")

    def __init__(self, spec: Optional[BucketSpec] = None) -> None:
        super().__init__(spec or BucketSpec(num_buckets=1))
        self._entries: list[tuple[int, int, Any]] = []
        self._counter = itertools.count()

    def enqueue(self, priority: int, item: Any) -> None:
        priority = validate_priority(priority)
        self.stats.enqueues += 1
        entries = self._entries
        # Modelled as a linear scan from the tail (new packets usually have
        # late ranks), one ``linear_scans`` per entry passed.  Charged, not
        # walked: the new entry's sequence number is the largest, so the scan
        # stops right after the last entry of equal or smaller priority (the
        # walked loop is the oracle in tests/core/queues/test_scan_oracle.py).
        index = bisect.bisect_right(entries, priority, key=lambda entry: entry[0])
        self.stats.linear_scans += len(entries) - index
        entries.insert(index, (priority, next(self._counter), item))
        self._size += 1

    def extract_min(self) -> tuple[int, Any]:
        if self.empty:
            raise EmptyQueueError("extract_min from empty SortedListQueue")
        priority, _seq, item = self._entries.pop(0)
        self.stats.dequeues += 1
        self._size -= 1
        return priority, item

    def peek_min(self) -> tuple[int, Any]:
        if self.empty:
            raise EmptyQueueError("peek_min from empty SortedListQueue")
        priority, _seq, item = self._entries[0]
        return priority, item

    # -- batch operations -----------------------------------------------------

    def enqueue_batch(self, pairs: Iterable[tuple[int, Any]]) -> int:
        """Batched insert: one sorted merge instead of k linear insertions.

        The final list is ordered by the ``(priority, seq)`` total order, the
        same invariant the per-element insertion maintains.
        """
        entries = [
            (validate_priority(priority), next(self._counter), item)
            for priority, item in pairs
        ]
        if not entries:
            return 0
        self.stats.enqueues += len(entries)
        self._entries.extend(entries)
        self._entries.sort(key=lambda entry: entry[:2])
        # Modelled as one merge pass over the combined list.
        self.stats.linear_scans += len(self._entries)
        self._size += len(entries)
        return len(entries)

    def extract_min_batch(self, n: int) -> list[tuple[int, Any]]:
        """Batched extract-min: one front slice instead of n O(n) pops."""
        if n < 0:
            raise ValueError("batch size must be non-negative")
        take = min(n, self._size)
        if take == 0:
            return []
        batch = [(priority, item) for priority, _seq, item in self._entries[:take]]
        del self._entries[:take]
        self.stats.dequeues += take
        self._size -= take
        return batch

    def extract_due(
        self, now: int, limit: Optional[int] = None
    ) -> list[tuple[int, Any]]:
        if self._size == 0:
            return []
        cutoff = bisect.bisect_right(self._entries, now, key=lambda entry: entry[0])
        self.stats.linear_scans += max(1, len(self._entries).bit_length())
        if limit is not None:
            cutoff = min(cutoff, limit)
        if cutoff == 0:
            return []
        released = [(priority, item) for priority, _seq, item in self._entries[:cutoff]]
        del self._entries[:cutoff]
        self.stats.dequeues += cutoff
        self._size -= cutoff
        return released


__all__ = ["BinaryHeapQueue", "RBTreeQueue", "SortedListQueue"]
