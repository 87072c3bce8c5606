"""Circular Hierarchical FFS-based queue — the paper's cFFS (Figure 4).

Packet ranks (deadlines, transmission timestamps) span a *moving* range: the
window of valid ranks slides forward as time advances.  A plain hierarchical
FFS queue covers a fixed range only, and naive modulo indexing corrupts the
bitmap ordering, so the cFFS composes **two** hierarchical FFS queues:

* the *primary* queue covers ``[h_index, h_index + q_size * granularity)``;
* the *secondary* queue covers the range immediately after the primary.

Elements beyond even the secondary range are enqueued into the secondary
queue's **last bucket** (losing exact ordering, which the paper accepts
because ranges are easy to size per policy).  When the primary queue drains
and the minimum now lives in the secondary queue, the two queues *rotate*:
pointers (bucket arrays + bitmaps) are swapped and ``h_index`` advances by
one window.  On rotation the incoming primary's unsorted overflow bucket is
re-dispatched into the new secondary range, so the ordering approximation
stays bounded to one window as the paper intends — far-future ranks are
never dequeued as if they were due.

This is the shard workers' hot queue (20k buckets per shard), so the
interpreter-level layout matters: both windows draw their bucket FIFOs from
one shared free list (``_buckets[i] is None`` while bucket ``i`` is empty,
drained deques are recycled, nothing is preallocated), the bitmap trees
memoise their minimum (see :class:`~repro.core.queues.hierarchical_ffs.FFSBitmapTree`),
and the batch paths run on hoisted locals with per-batch stats settlement.
The modelled operation counts are identical to the straightforward
implementation — only the interpreter work changed.
"""

from __future__ import annotations

from collections import deque
from operator import attrgetter, itemgetter
from typing import Any, Callable, Deque, Iterable, Iterator, List, Optional

from .base import (
    BucketSpec,
    EmptyQueueError,
    IntegerPriorityQueue,
    QueueError,
    validate_priority,
)
from .ffs import DEFAULT_WORD_WIDTH
from .hierarchical_ffs import FFSBitmapTree


def _rank_reader(items: bool) -> Callable[[Any], int]:
    """How a queued entry's rank is read: ``entry.rank`` for items, else ``entry[0]``."""
    return attrgetter("rank") if items else itemgetter(0)


class _Window:
    """One of the two rotating halves of a cFFS: buckets + bitmap tree.

    ``buckets[i]`` is ``None`` while bucket ``i`` is empty; deques are
    acquired from the queue-wide free list on first append and recycled when
    a bucket drains.
    """

    __slots__ = ("buckets", "tree", "size", "free")

    def __init__(
        self,
        num_buckets: int,
        word_width: int,
        free: List[Deque[Any]],
    ) -> None:
        self.buckets: list[Optional[Deque[Any]]] = [None] * num_buckets
        self.tree = FFSBitmapTree(num_buckets, word_width)
        self.size = 0
        self.free = free

    @property
    def empty(self) -> bool:
        return self.size == 0

    def recycle(self, bucket: int, entries: Deque[Any]) -> None:
        """Return a drained bucket deque to the shared free list."""
        self.buckets[bucket] = None
        self.free.append(entries)


class CircularFFSQueue(IntegerPriorityQueue):
    """cFFS: a hierarchical FFS queue over a moving range of priorities.

    Args:
        spec: bucket layout. ``spec.base_priority`` seeds the initial
            ``h_index`` (minimum priority covered by the primary window).
        word_width: FFS word width (64 matches x86-64 BSF).
        allow_stale: when True (default), priorities smaller than ``h_index``
            are clamped into the first bucket of the primary window instead
            of raising.  This mirrors how a shaper treats packets whose
            transmission time is already in the past: send as soon as
            possible.
    """

    __slots__ = ("word_width", "allow_stale", "h_index", "_primary", "_secondary", "_free")

    def __init__(
        self,
        spec: BucketSpec,
        word_width: int = DEFAULT_WORD_WIDTH,
        allow_stale: bool = True,
    ) -> None:
        super().__init__(spec)
        self.word_width = word_width
        self.allow_stale = allow_stale
        self.h_index = spec.base_priority
        self._free: List[Deque[Any]] = []
        self._primary = _Window(spec.num_buckets, word_width, self._free)
        self._secondary = _Window(spec.num_buckets, word_width, self._free)

    # -- range bookkeeping -------------------------------------------------

    @property
    def window_span(self) -> int:
        """Priority units covered by one window."""
        return self.spec.num_buckets * self.spec.granularity

    @property
    def primary_range(self) -> tuple[int, int]:
        """Half-open priority range ``[lo, hi)`` covered by the primary window."""
        return self.h_index, self.h_index + self.window_span

    @property
    def secondary_range(self) -> tuple[int, int]:
        """Half-open priority range covered by the secondary window."""
        lo = self.h_index + self.window_span
        return lo, lo + self.window_span

    def _bucket_in_primary(self, priority: int) -> int:
        return (priority - self.h_index) // self.spec.granularity

    def _bucket_in_secondary(self, priority: int) -> int:
        lo = self.h_index + self.window_span
        return (priority - lo) // self.spec.granularity

    # -- core operations ----------------------------------------------------

    def enqueue(self, priority: int, item: Any) -> None:
        priority = validate_priority(priority)
        stats = self.stats
        stats.enqueues += 1
        stats.bucket_lookups += 1
        lo, hi = self.primary_range
        if priority < lo:
            if not self.allow_stale:
                raise ValueError(
                    f"priority {priority} precedes queue head index {lo}"
                )
            # Stale rank: treat as due immediately.
            self._enqueue_window(self._primary, 0, priority, item)
            return
        if priority < hi:
            self._enqueue_window(
                self._primary, self._bucket_in_primary(priority), priority, item
            )
            return
        slo, shi = self.secondary_range
        if priority < shi:
            self._enqueue_window(
                self._secondary, self._bucket_in_secondary(priority), priority, item
            )
            return
        # Beyond both windows: last bucket of the secondary queue, unsorted.
        stats.overflow_enqueues += 1
        self._enqueue_window(
            self._secondary, self.spec.num_buckets - 1, priority, item
        )

    def _enqueue_window(
        self, window: _Window, bucket: int, priority: int, item: Any
    ) -> None:
        entries = window.buckets[bucket]
        if entries is None:
            free = window.free
            entries = free.pop() if free else deque()
            window.buckets[bucket] = entries
            self.stats.word_scans += window.tree.set(bucket)
        entries.append((priority, item))
        window.size += 1
        self._size += 1

    def _rotate(self, items: bool) -> None:
        """Swap primary and secondary windows and advance ``h_index``.

        The incoming primary window may carry an unsorted overflow (last)
        bucket of beyond-horizon ranks; those are re-dispatched into the new
        secondary range so they are not dequeued as if they were due.
        ``items`` says how the queued entries carry their rank (see
        :meth:`_place`).
        """
        self._primary, self._secondary = self._secondary, self._primary
        self.h_index += self.window_span
        self.stats.rotations += 1
        self._rebucket_overflow(items)

    def _rebucket_overflow(self, items: bool) -> None:
        """Re-dispatch the new primary's overflow bucket after a rotation.

        Entries whose rank falls inside the last bucket's own range stay put;
        everything else belongs to the new secondary window (or its overflow
        bucket) now that ``h_index`` has advanced.
        """
        last = self.spec.num_buckets - 1
        primary = self._primary
        entries = primary.buckets[last]
        if entries is None:
            return
        last_floor = self.h_index + last * self.spec.granularity
        _lo, hi = self.primary_range
        rank_of = _rank_reader(items)
        if all(last_floor <= priority < hi for priority in map(rank_of, entries)):
            return  # everything legitimately belongs to the last bucket
        free = self._free
        keep: Deque[Any] = free.pop() if free else deque()
        moved = 0
        scanned = 0
        stats = self.stats
        _slo, shi = self.secondary_range
        secondary = self._secondary
        while entries:
            entry = entries.popleft()
            priority = rank_of(entry)
            stats.linear_scans += 1
            if priority < hi:
                window = primary
                bucket = self._bucket_in_primary(priority)
                if bucket == last:
                    keep.append(entry)
                    continue
            elif priority < shi:
                window = secondary
                bucket = self._bucket_in_secondary(priority)
            else:
                window = secondary
                bucket = last
            target = window.buckets[bucket]
            if target is None:
                target = free.pop() if free else deque()
                window.buckets[bucket] = target
                scanned += window.tree.set(bucket)
            target.append(entry)
            if window is secondary:
                moved += 1
        if keep:
            entries.extend(keep)
            keep.clear()
            free.append(keep)
        else:
            free.append(keep)
            scanned += primary.tree.clear(last)
            primary.recycle(last, entries)
        stats.word_scans += scanned
        primary.size -= moved
        secondary.size += moved

    def _fast_forward_if_overflow_only(self, items: bool) -> None:
        """Jump ``h_index`` ahead when only far-future overflow ranks remain.

        Called with an empty primary window.  If every remaining element sits
        in the secondary's overflow bucket and none of them lands within the
        next window either, rotating one window at a time would shuffle the
        same overflow entries forward once per window; instead ``h_index``
        jumps straight to the window preceding the minimum remaining rank so
        the upcoming rotation places it in the primary range.
        """
        last = self.spec.num_buckets - 1
        first, scanned = self._secondary.tree.first_set()
        self.stats.word_scans += scanned
        if first != last:
            return
        entries = self._secondary.buckets[last]
        self.stats.linear_scans += len(entries)
        min_priority = min(map(_rank_reader(items), entries))
        span = self.window_span
        if min_priority < self.h_index + 2 * span:
            return
        self.h_index += ((min_priority - self.h_index) // span - 1) * span

    def _advance_to_nonempty(self, items: bool) -> _Window:
        """Rotate until the primary window holds the minimum element."""
        while self._primary.size == 0 and self._secondary.size != 0:
            self._fast_forward_if_overflow_only(items)
            self._rotate(items)
        if self._primary.size == 0:
            raise EmptyQueueError("circular FFS queue is empty")
        return self._primary

    def extract_min(self) -> tuple[int, Any]:
        if self.empty:
            raise EmptyQueueError("extract_min from empty CircularFFSQueue")
        window = self._advance_to_nonempty(False)
        bucket, scanned = window.tree.first_set()
        stats = self.stats
        stats.word_scans += scanned
        entries = window.buckets[bucket]
        entry = entries.popleft()
        window.size -= 1
        if not entries:
            stats.word_scans += window.tree.clear(bucket)
            window.recycle(bucket, entries)
        stats.dequeues += 1
        self._size -= 1
        return entry

    def peek_min(self) -> tuple[int, Any]:
        if self.empty:
            raise EmptyQueueError("peek_min from empty CircularFFSQueue")
        window = self._advance_to_nonempty(False)
        bucket, scanned = window.tree.first_set()
        self.stats.word_scans += scanned
        return window.buckets[bucket][0]

    def peek_min_item(self) -> Any:
        if self.empty:
            raise EmptyQueueError("peek_min_item from empty CircularFFSQueue")
        window = self._advance_to_nonempty(True)
        bucket, scanned = window.tree.first_set()
        self.stats.word_scans += scanned
        return window.buckets[bucket][0]

    # -- batch operations --------------------------------------------------

    def enqueue_batch(self, pairs: Iterable[tuple[int, Any]]) -> int:
        """Batched insert: one bucket lookup and tree update per bucket."""
        return self._place(pairs, False)

    def enqueue_items(self, items: Iterable[Any]) -> int:
        return self._place(items, True)

    def _place(self, batch: Iterable[Any], items: bool) -> int:
        """Batched insert of pairs or (``items``) ranked items.

        Entries append straight into their bucket FIFOs (no intermediate
        grouping lists); the distinct-bucket count that the amortised
        ``bucket_lookups`` charge needs is tracked with a key set.  An
        entry's rank is ``entry.rank`` when ``items``, else ``entry[0]``.
        Counters settle in one place even if validation rejects an entry
        mid-batch — in which case the already-inserted prefix stays enqueued
        and counted, exactly as repeated single inserts would leave it.
        """
        stats = self.stats
        spec = self.spec
        granularity = spec.granularity
        num_buckets = spec.num_buckets
        span = num_buckets * granularity
        lo = self.h_index  # primary_range / secondary_range, without the calls
        hi = lo + span
        shi = hi + span
        last = num_buckets - 1
        allow_stale = self.allow_stale
        primary = self._primary
        secondary = self._secondary
        primary_buckets = primary.buckets
        secondary_buckets = secondary.buckets
        free = self._free
        seen: set[int] = set()
        seen_add = seen.add
        count = 0
        primary_count = 0
        overflowed = 0
        scans = 0
        try:
            for entry in batch:
                priority = entry.rank if items else entry[0]
                if type(priority) is not int:
                    priority = validate_priority(priority)
                    if not items:
                        entry = (priority, entry[1])
                if priority < hi:
                    if priority >= lo:
                        bucket = (priority - lo) // granularity
                    elif allow_stale:
                        bucket = 0  # stale rank: due immediately
                    else:
                        raise ValueError(
                            f"priority {priority} precedes queue head index {lo}"
                        )
                    window = primary
                    buckets = primary_buckets
                    seen_add(bucket)
                    primary_count += 1
                else:
                    if priority < shi:
                        bucket = (priority - hi) // granularity
                    else:
                        overflowed += 1
                        bucket = last
                    window = secondary
                    buckets = secondary_buckets
                    seen_add(num_buckets + bucket)
                entries = buckets[bucket]
                if entries is None:
                    entries = free.pop() if free else deque()
                    buckets[bucket] = entries
                    scans += window.tree.set(bucket)
                entries.append(entry)
                count += 1
        finally:
            stats.enqueues += count
            stats.overflow_enqueues += overflowed
            stats.bucket_lookups += len(seen)
            stats.word_scans += scans
            primary.size += primary_count
            secondary.size += count - primary_count
            self._size += count
        return count

    def extract_min_batch(self, n: int) -> list[tuple[int, Any]]:
        """Batched extract-min: one tree walk per bucket visited."""
        if n < 0:
            raise ValueError("batch size must be non-negative")
        return self._drain(n, None, False)

    def extract_min_items(self, n: int) -> list[Any]:
        if n < 0:
            raise ValueError("batch size must be non-negative")
        return self._drain(n, None, True)

    def extract_due(
        self, now: int, limit: Optional[int] = None
    ) -> list[tuple[int, Any]]:
        """Drain every element whose priority is ``<= now`` (up to ``limit``).

        This is the operation a shaping qdisc performs when its timer fires:
        release every packet whose transmission timestamp has passed.  The
        batch implementation walks the bitmap tree once per bucket drained
        instead of twice per element (peek + extract), and a bucket whose
        whole priority range has passed is released with one extend instead
        of per-element head checks (the re-bucketing invariant guarantees the
        primary window holds no beyond-range rank outside bucket 0's stale
        clamps, which are always due).
        """
        return self._drain(limit, now, False)

    def extract_due_items(self, now: int, limit: Optional[int] = None) -> list[Any]:
        return self._drain(limit, now, True)

    def _drain(self, limit: Optional[int], now: Optional[int], items: bool) -> list[Any]:
        """Remove up to ``limit`` minimum entries, due by ``now`` (``None``: all).

        The batch drain behind both surfaces' :meth:`extract_min_batch` and
        :meth:`extract_due`, one tree walk per bucket visited; an entry's
        rank is ``entry.rank`` when ``items``, else ``entry[0]``.  Every
        entry of a primary bucket has a rank below the bucket ceiling (stale
        ranks are clamped into bucket 0 and are older still), so a bucket
        whose ceiling has passed is due whole and its ranks are not read.
        """
        size = self._size
        stop = size if limit is None or limit > size else limit
        granularity = self.spec.granularity
        released: list[Any] = []
        taken = 0
        scans = 0
        try:
            while taken < stop:
                window = self._primary
                if not window.size:
                    window = self._advance_to_nonempty(items)
                bucket, scanned = window.tree.first_set()
                scans += scanned
                entries = window.buckets[bucket]
                if not entries:
                    self._raise_empty_bucket(bucket)
                count = len(entries)
                room = stop - taken
                if now is None or self.h_index + (bucket + 1) * granularity - 1 <= now:
                    take = count if count < room else room
                else:
                    take = 0
                    if count < room:
                        room = count
                    while take < room and (
                        entries[take].rank if items else entries[take][0]
                    ) <= now:
                        take += 1
                window.size -= take
                taken += take
                if take == count:
                    released.extend(entries)
                    entries.clear()
                    scans += window.tree.clear(bucket)
                    window.recycle(bucket, entries)
                    continue
                popleft = entries.popleft
                for _ in range(take):
                    released.append(popleft())
                break  # head not yet due, or the limit was reached
        finally:
            stats = self.stats
            stats.word_scans += scans
            stats.dequeues += taken
            self._size = size - taken
        return released

    def _raise_empty_bucket(self, bucket: int) -> None:
        """Refuse a bucket the tree names that holds no entry.

        A drain never trusts a tree bit over its bucket: recycling a missing
        FIFO would put ``None`` on the shared free list, and an empty one
        would be taken from forever.  Checked once per bucket visited.
        """
        raise QueueError(
            f"{type(self).__name__}: the index named bucket {bucket}, "
            "which holds no entry"
        )

    def remove(self, priority: int, item: Any) -> bool:
        """Remove a specific ``(priority, item)`` pair; True when found.

        Candidate buckets that are empty sit behind the free list as ``None``
        entries, so a miss costs one load per candidate — no deque scan.
        """
        priority = validate_priority(priority)
        for window, bucket in self._candidate_buckets(priority):
            queue = window.buckets[bucket]
            if queue is None:
                continue
            for index, entry in enumerate(queue):
                if entry[0] == priority and entry[1] is item:
                    del queue[index]
                    window.size -= 1
                    self._size -= 1
                    if not queue:
                        self.stats.word_scans += window.tree.clear(bucket)
                        window.recycle(bucket, queue)
                    return True
        return False

    def _candidate_buckets(self, priority: int) -> Iterator[tuple[_Window, int]]:
        """Buckets that may hold an element of ``priority``.

        Beyond-window priorities may sit in *either* window's overflow (last)
        bucket: new overflow lands in the secondary's last bucket, but after a
        rotation previously overflowed entries live in the primary's last
        bucket until the next rotation re-dispatches them.
        """
        lo, hi = self.primary_range
        _slo, shi = self.secondary_range
        last = self.spec.num_buckets - 1
        if priority < lo:
            yield self._primary, 0
        elif priority < hi:
            yield self._primary, self._bucket_in_primary(priority)
        elif priority < shi:
            yield self._secondary, self._bucket_in_secondary(priority)
            yield self._primary, last
        else:
            yield self._secondary, last
            yield self._primary, last


__all__ = ["CircularFFSQueue"]
