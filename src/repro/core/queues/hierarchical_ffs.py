"""Hierarchical FFS-based queue (Figure 3 / the PIQ structure).

When the number of buckets exceeds the width of one machine word, the
occupancy bitmap becomes a tree: each bit of a node summarises the occupancy
of one child node, and the children of leaf nodes are the buckets themselves.
Finding the minimum non-empty bucket walks the tree root-to-leaf applying FFS
at each level — O(log_w N) word operations, which is a small constant once
the queue is configured (six FFS operations cover a billion buckets with
64-bit words).

The tree is stored as a flat list of levels; level 0 is the root word(s) and
the last level has one bit per bucket.

Interpreter-level note (the modelled costs are unchanged by it): the tree
memoises the minimum occupied bucket, so a ``peek_min`` right after a drain
returns without re-walking the levels — the walk is only repeated when the
cached minimum was cleared.  The notes on the bucket store are in
``base.py``.
"""

from __future__ import annotations

from .base import BucketSpec, EmptyQueueError, FixedRangeBucketQueue
from .ffs import DEFAULT_WORD_WIDTH


class FFSBitmapTree:
    """A hierarchical occupancy bitmap over ``num_buckets`` slots.

    The structure only stores per-level word arrays; it knows nothing about
    the elements themselves, which keeps it reusable by both the hierarchical
    queue and the circular queue (which swaps two trees).

    ``first_set`` memoises its result: the cached minimum stays valid until
    that bucket is cleared (or a smaller bucket is set, which updates it in
    O(1)), so repeated lookups between occupancy changes skip the
    root-to-leaf walk entirely.  The *reported* word count is always the
    tree depth — exactly what the uncached walk reads — so cost-model
    accounting is independent of cache hits.
    """

    __slots__ = (
        "num_buckets",
        "word_width",
        "levels",
        "depth",
        "_shift",
        "_mask",
        "_levels_up",
        "_cached_min",
        "_count",
    )

    def __init__(self, num_buckets: int, word_width: int = DEFAULT_WORD_WIDTH) -> None:
        if num_buckets <= 0:
            raise ValueError("num_buckets must be positive")
        if word_width < 2 or word_width & (word_width - 1):
            raise ValueError(f"word_width must be a power of two >= 2, got {word_width}")
        self.num_buckets = num_buckets
        self.word_width = word_width
        # A power-of-two width splits an index into (word, bit) by shift and mask.
        self._shift = word_width.bit_length() - 1
        self._mask = word_width - 1
        self.levels: list[list[int]] = []
        size = num_buckets
        # Build levels bottom-up: the last entry of ``levels`` is the leaf level.
        level_sizes = []
        while True:
            words = (size + word_width - 1) // word_width
            level_sizes.append(words)
            if words == 1:
                break
            size = words
        for words in reversed(level_sizes):
            self.levels.append([0] * words)
        self.depth = len(self.levels)
        #: Leaf-to-root view of the same level lists (shared objects), so the
        #: set/clear propagation loops avoid a ``reversed()`` iterator each call.
        self._levels_up = self.levels[::-1]
        self._cached_min = -1
        self._count = 0

    def set(self, bucket: int) -> int:
        """Mark ``bucket`` occupied; returns the number of words touched."""
        if not 0 <= bucket < self.num_buckets:
            self._check(bucket)
        cached = self._cached_min
        if cached >= 0:
            if bucket < cached:
                self._cached_min = bucket
        elif self.levels[0][0] == 0:
            # The tree was empty: the new bucket is the minimum by definition.
            self._cached_min = bucket
        touched = 0
        index = bucket
        shift = self._shift
        mask = self._mask
        for level in self._levels_up:
            word_index = index >> shift
            touched += 1
            word = level[word_index]
            bit = 1 << (index & mask)
            if word & bit:
                break
            level[word_index] = word | bit
            index = word_index
        return touched

    def clear(self, bucket: int) -> int:
        """Mark ``bucket`` empty, propagating up; returns words touched."""
        if not 0 <= bucket < self.num_buckets:
            self._check(bucket)
        cached = self._cached_min
        if cached >= 0 and bucket <= cached:
            self._cached_min = -1
        touched = 0
        index = bucket
        shift = self._shift
        mask = self._mask
        for level in self._levels_up:
            word_index = index >> shift
            touched += 1
            word = level[word_index] & ~(1 << (index & mask))
            level[word_index] = word
            if word:
                break
            index = word_index
        return touched

    def first_set(self) -> tuple[int, int]:
        """Return ``(bucket, words_scanned)`` for the minimum occupied bucket.

        Raises:
            EmptyQueueError: when no bucket is occupied.
        """
        cached = self._cached_min
        if cached >= 0:
            return cached, self.depth
        levels = self.levels
        if levels[0][0] == 0:
            raise EmptyQueueError("bitmap tree is empty")
        index = 0
        shift = self._shift
        for level in levels:
            word = level[index]
            # Inlined find_first_set: the occupancy invariant guarantees a
            # non-zero word on the walk, so no zero check is needed here.
            index = (index << shift) + (word & -word).bit_length() - 1
        self._cached_min = index
        return index, self.depth

    def test(self, bucket: int) -> bool:
        """True when ``bucket`` is marked occupied."""
        self._check(bucket)
        return bool((self.levels[-1][bucket >> self._shift] >> (bucket & self._mask)) & 1)

    @property
    def any(self) -> bool:
        """True when at least one bucket is occupied."""
        return self.levels[0][0] != 0

    def clear_all(self) -> None:
        """Reset every level to all-zero."""
        for level in self.levels:
            for i in range(len(level)):
                level[i] = 0
        self._cached_min = -1

    def _check(self, bucket: int) -> None:
        # set() / clear() test the range inline and call this only to raise.
        if not 0 <= bucket < self.num_buckets:
            raise IndexError(
                f"bucket {bucket} outside bitmap tree of {self.num_buckets} buckets"
            )


class HierarchicalFFSQueue(FixedRangeBucketQueue):
    """Bucketed integer priority queue indexed by an FFS bitmap tree.

    Operates over a *fixed* priority range.  The circular variant
    (:class:`repro.core.queues.circular_ffs.CircularFFSQueue`) reuses the
    tree for a moving range.
    """

    __slots__ = ("word_width", "_tree")

    def __init__(self, spec: BucketSpec, word_width: int = DEFAULT_WORD_WIDTH) -> None:
        super().__init__(spec)
        self.word_width = word_width
        self._tree = FFSBitmapTree(spec.num_buckets, word_width)

    @property
    def depth(self) -> int:
        """Number of bitmap levels (the constant in O(log_w N))."""
        return self._tree.depth

    def _mark_nonempty(self, bucket: int) -> None:
        self.stats.word_scans += self._tree.set(bucket)

    def _mark_empty(self, bucket: int) -> None:
        self.stats.word_scans += self._tree.clear(bucket)

    def _min_bucket(self) -> int:
        bucket, scanned = self._tree.first_set()
        self.stats.word_scans += scanned
        return bucket


__all__ = ["FFSBitmapTree", "HierarchicalFFSQueue"]
