"""Bucketed priority queue indexed by a binary heap — the paper's "BH" baseline.

Section 5.2's microbenchmarks compare cFFS and the approximate gradient queue
against "a basic bucketed priority queue implementation [that keeps] track of
non-empty buckets in a binary heap".  Buckets still give O(1) enqueue and
grouping of equal ranks; only the search for the minimum non-empty bucket
costs O(log B) heap operations, where B is the number of *non-empty* buckets.

The heap holds bucket indices; a lazy-deletion scheme avoids O(n) removals:
a bucket that ``remove`` drains from below the top stays in the heap, flagged,
and the stale entry is popped and discarded when it surfaces — unless the
bucket fills again first, in which case the entry is simply live again.
"""

from __future__ import annotations

import heapq

from .base import BucketSpec, EmptyQueueError, FixedRangeBucketQueue


class BucketedHeapQueue(FixedRangeBucketQueue):
    """Bucketed integer priority queue whose occupancy index is a binary heap."""

    __slots__ = ("_heap", "_in_heap")

    def __init__(self, spec: BucketSpec) -> None:
        super().__init__(spec)
        self._heap: list[int] = []
        self._in_heap = [False] * spec.num_buckets

    def _mark_nonempty(self, bucket: int) -> None:
        if not self._in_heap[bucket]:
            heapq.heappush(self._heap, bucket)
            self._in_heap[bucket] = True
            # Rough accounting: a push costs log2(len(heap)) sift steps.
            self.stats.heap_operations += max(1, len(self._heap).bit_length())

    def _mark_empty(self, bucket: int) -> None:
        """Pop ``bucket`` if it tops the heap; below the top it waits, stale."""
        heap = self._heap
        if heap[0] == bucket:
            heapq.heappop(heap)
            self._in_heap[bucket] = False
            self.stats.heap_operations += max(1, len(heap).bit_length())

    def _min_bucket(self) -> int:
        while self._heap:
            bucket = self._heap[0]
            if self._buckets[bucket] is not None:
                return bucket
            # Stale: ``remove`` drained it while it sat below the top.
            self._mark_empty(bucket)
        raise EmptyQueueError("no non-empty bucket")


__all__ = ["BucketedHeapQueue"]
