"""Moving-range (circular) wrappers for fixed-range integer queues.

Section 3.1.2 notes that "for cases of a moving range, a circular approximate
queue can be implemented as with cFFS".  Rather than re-implementing the
primary/secondary rotation for every queue type, this module provides a
generic :class:`CircularQueueAdapter` that wraps *any* fixed-range
:class:`~repro.core.queues.base.FixedRangeBucketQueue` factory, plus the
concrete :class:`CircularApproximateGradientQueue` and
:class:`CircularGradientQueue` built on top of it.

The rotation protocol is identical to the cFFS (Figure 4):

* the primary window covers ``[h_index, h_index + span)``,
* the secondary window covers the next ``span`` priorities,
* ranks beyond both land (unsorted) in the last bucket of the secondary
  window,
* when the primary window drains, the windows swap and ``h_index`` advances.
"""

from __future__ import annotations

from operator import attrgetter, sub
from typing import Any, Callable, Iterable, Optional

from .base import (
    BucketSpec,
    EmptyQueueError,
    FixedRangeBucketQueue,
    IntegerPriorityQueue,
    QueueError,
    validate_priority,
)
from .gradient import ApproximateGradientQueue, GradientQueue

QueueFactory = Callable[[BucketSpec], FixedRangeBucketQueue]

#: The ``QueueStats`` counters a window lookup (``_min_bucket``) may charge.
_LOOKUP_COUNTERS = (
    "word_scans", "divisions", "linear_scans", "heap_operations", "selection_errors",
)
_lookup_counters = attrgetter(*_LOOKUP_COUNTERS)
#: An error-tracking approximate window's own accumulators, charged per lookup too.
_ERROR_TOTALS = ("_selections", "_selection_error_total")
_error_totals = attrgetter(*_ERROR_TOTALS)


class CircularQueueAdapter(IntegerPriorityQueue):
    """Turn a fixed-range queue implementation into a moving-range queue.

    Args:
        spec: bucket layout of *one* window; the adapter covers twice that
            range at any instant (primary + secondary).
        factory: callable building a fixed-range queue for a window.  It is
            called with a window-local :class:`BucketSpec` whose
            ``base_priority`` is zero; the adapter translates absolute
            priorities into window-local offsets before delegating.
        allow_stale: clamp priorities that precede the current window into
            the head of the primary window instead of raising.
    """

    __slots__ = (
        "allow_stale",
        "h_index",
        "_span",
        "_window_spec",
        "_primary",
        "_secondary",
        "_factory",
    )

    def __init__(
        self,
        spec: BucketSpec,
        factory: QueueFactory,
        allow_stale: bool = True,
    ) -> None:
        super().__init__(spec)
        self.allow_stale = allow_stale
        self.h_index = spec.base_priority
        self._span = spec.num_buckets * spec.granularity
        window_spec = BucketSpec(
            num_buckets=spec.num_buckets,
            granularity=spec.granularity,
            base_priority=0,
        )
        self._window_spec = window_spec
        self._primary = factory(window_spec)
        self._secondary = factory(window_spec)
        self._factory = factory

    # -- range bookkeeping ----------------------------------------------------

    @property
    def window_span(self) -> int:
        """Priority units covered by one window."""
        return self._span

    @property
    def primary_range(self) -> tuple[int, int]:
        """Absolute half-open range covered by the primary window."""
        return self.h_index, self.h_index + self.window_span

    @property
    def secondary_range(self) -> tuple[int, int]:
        """Absolute half-open range covered by the secondary window."""
        lo = self.h_index + self.window_span
        return lo, lo + self.window_span

    # -- operations --------------------------------------------------------------

    def enqueue(self, priority: int, item: Any) -> None:
        priority = validate_priority(priority)
        span = self._span
        lo = self.h_index
        hi = lo + span
        if priority < lo:
            if not self.allow_stale:
                raise ValueError(
                    f"priority {priority} precedes queue head index {lo}"
                )
            self._primary.enqueue(0, (priority, item))
        elif priority < hi:
            self._primary.enqueue(priority - lo, (priority, item))
        elif priority < hi + span:
            self._secondary.enqueue(priority - hi, (priority, item))
        else:
            self.stats.overflow_enqueues += 1
            self._secondary.enqueue(span - self.spec.granularity, (priority, item))
        self.stats.enqueues += 1
        self._size += 1

    def _rotate(self) -> None:
        self._primary, self._secondary = self._secondary, self._primary
        self.h_index += self._span
        self.stats.rotations += 1

    def _advance(self) -> IntegerPriorityQueue:
        while self._primary.empty and not self._secondary.empty:
            self._rotate()
        if self._primary.empty:
            raise EmptyQueueError("circular queue is empty")
        return self._primary

    def _settle(self) -> IntegerPriorityQueue:
        """Advance to the window holding the minimum, re-dispatching overflow.

        Entries that overflowed past both windows sit (unsorted) at the
        overflow offset of what later rotates into the primary window; their
        stored absolute priority may belong to a later window.  The generic
        adapter cannot re-bucket on rotation (the window queues expose no
        bucket access), so misplaced entries are re-dispatched lazily the
        moment they surface as the window minimum — before anything is
        returned with a far-future rank, keeping the ordering approximation
        bounded to one window exactly as the cFFS does.
        """
        span = self._span
        while True:
            window = self._advance()
            _local, payload = window.peek_min()
            priority = payload[0]
            hi = self.h_index + span  # _advance may have rotated
            if priority < hi:
                return window
            window.extract_min()
            self._redispatch(payload)

    def _redispatch(self, payload: tuple[int, Any]) -> None:
        """Move a surfaced overflow entry into the secondary window."""
        self.stats.linear_scans += 1
        span = self._span
        hi = self.h_index + span  # where the secondary window starts
        priority = payload[0]
        if priority < hi + span:
            self._secondary.enqueue(priority - hi, payload)
        else:
            self._secondary.enqueue(span - self.spec.granularity, payload)

    def extract_min(self) -> tuple[int, Any]:
        if self.empty:
            raise EmptyQueueError("extract_min from empty circular queue")
        window = self._settle()
        _local, payload = window.extract_min()
        self.stats.dequeues += 1
        self._size -= 1
        return payload

    def peek_min(self) -> tuple[int, Any]:
        if self.empty:
            raise EmptyQueueError("peek_min from empty circular queue")
        window = self._settle()
        _local, payload = window.peek_min()
        return payload

    def extract_due(
        self, now: int, limit: Optional[int] = None
    ) -> list[tuple[int, Any]]:
        """Drain every element whose (absolute) priority is ``<= now``.

        One window lookup per bucket visited.  The due check reads the
        *absolute* priority stored in the payload, and an overflow payload at
        the head (absolute rank past the primary window) is re-dispatched
        into the secondary window, as :meth:`_settle` does.  A bucket whose
        whole range has passed is released without a check per head; the
        overflow bucket never is, since it may hold ranks of any later window.

        The counters are those of a per-element ``peek_min`` /
        ``extract_min`` loop, charged by count.  That loop looks the window
        minimum up twice for every head it peeks at or re-dispatches and
        twice more for every head it releases, always at the index state of
        the one real lookup made here (the state only moves when the bucket
        drains).  The walked loop is the oracle in
        ``tests/core/queues/test_extract_due_oracle.py``.
        """
        released: list[tuple[int, Any]] = []
        spec = self.spec
        granularity = spec.granularity
        last = spec.num_buckets - 1  # the overflow bucket
        size = self._size
        stop = size if limit is None or limit > size else limit
        taken = 0
        try:
            while taken < stop:
                window = self._primary
                if not window._size:
                    window = self._advance()
                lo = self.h_index
                hi = lo + self._span
                stats = window.stats
                # The one real lookup, and what it charged.
                tracked = getattr(window, "track_errors", False)
                counted = _lookup_counters(stats)
                totals = _error_totals(window) if tracked else ()
                bucket = window._min_bucket()
                charged = tuple(map(sub, _lookup_counters(stats), counted))
                if tracked:
                    totals = tuple(map(sub, _error_totals(window), totals))
                entries = window._buckets[bucket]
                if not entries:
                    raise QueueError(
                        f"{type(self).__name__}: the window index named bucket {bucket}, "
                        "which holds no entry"
                    )
                if bucket != last and lo + (bucket + 1) * granularity - 1 <= now:
                    # The bucket's whole range has passed: every head is due.
                    # (Popped, not cleared: ``deque.clear`` leaves a spare
                    # block cached on every recycled FIFO.)
                    popped = min(len(entries), stop - taken)
                    popleft = entries.popleft
                    for _ in range(popped):
                        released.append(popleft()[1])
                    lookups = 4 * popped
                    taken += popped
                else:
                    lookups = 0
                    popped = 0
                    while entries and taken < stop:
                        payload = entries[0][1]
                        priority = payload[0]
                        lookups += 2
                        if hi > priority > now:
                            break
                        entries.popleft()
                        popped += 1
                        if priority >= hi:
                            self._redispatch(payload)
                        else:
                            lookups += 2
                            released.append(payload)
                            taken += 1
                window._size -= popped
                stats.dequeues += popped
                _charge_repeated_lookups(window, charged, totals, lookups - 1)
                if entries:
                    break  # head not yet due, or the limit was reached
                window._release(bucket, entries)
        finally:
            self.stats.dequeues += taken
            self._size = size - taken
        return released

    # -- batch operations --------------------------------------------------------

    def enqueue_batch(self, pairs: Iterable[tuple[int, Any]]) -> int:
        """Batched insert: one delegated ``enqueue_batch`` per window.

        On a mid-batch validation error the validated prefix is inserted and
        counted, as repeated single inserts would leave it.
        """
        primary_entries: list[tuple[int, Any]] = []
        secondary_entries: list[tuple[int, Any]] = []
        to_primary = primary_entries.append
        to_secondary = secondary_entries.append
        span = self._span
        lo = self.h_index
        hi = lo + span
        shi = hi + span
        overflow_offset = span - self.spec.granularity
        overflowed = 0
        try:
            for priority, item in pairs:
                if type(priority) is not int:
                    priority = validate_priority(priority)
                if priority < hi:
                    if priority >= lo:
                        to_primary((priority - lo, (priority, item)))
                    elif self.allow_stale:
                        to_primary((0, (priority, item)))
                    else:
                        raise ValueError(f"priority {priority} precedes queue head index {lo}")
                elif priority < shi:
                    to_secondary((priority - hi, (priority, item)))
                else:
                    overflowed += 1
                    to_secondary((overflow_offset, (priority, item)))
        finally:
            if primary_entries:
                self._primary.enqueue_batch(primary_entries)
            if secondary_entries:
                self._secondary.enqueue_batch(secondary_entries)
            count = len(primary_entries) + len(secondary_entries)
            stats = self.stats
            stats.enqueues += count
            stats.overflow_enqueues += overflowed
            self._size += count
        return count

    def extract_min_batch(self, n: int) -> list[tuple[int, Any]]:
        """Batched extract-min delegating to the window queues' batch paths.

        Misplaced overflow entries surfacing in the drained batch are
        re-dispatched into the secondary window (see :meth:`_settle`) rather
        than returned with far-future ranks; the stable filter preserves the
        FIFO order the per-element path yields.
        """
        if n < 0:
            raise ValueError("batch size must be non-negative")
        batch: list[tuple[int, Any]] = []
        span = self._span
        while len(batch) < n and self._size:
            window = self._settle()
            hi = self.h_index + span
            for _local, payload in window.extract_min_batch(n - len(batch)):
                if payload[0] < hi:
                    batch.append(payload)
                    self.stats.dequeues += 1
                    self._size -= 1
                else:
                    self._redispatch(payload)
        return batch

    def merged_stats(self) -> dict[str, int]:
        """Adapter counters plus both windows' counters, for cost accounting."""
        merged = self.stats.snapshot()
        merged.merge(self._primary.stats)
        merged.merge(self._secondary.stats)
        return merged.as_dict()


def _charge_repeated_lookups(
    window: FixedRangeBucketQueue, charged: tuple, totals: tuple, times: int
) -> None:
    """Charge ``window`` ``times`` more lookups, each like the one just made.

    ``charged`` is what that lookup added to the :data:`_LOOKUP_COUNTERS`,
    ``totals`` what it added to an error-tracking window's
    :data:`_ERROR_TOTALS` (empty otherwise).
    """
    stats = window.stats
    for name, delta in zip(_LOOKUP_COUNTERS, charged):
        if delta:
            setattr(stats, name, getattr(stats, name) + delta * times)
    for name, delta in zip(_ERROR_TOTALS, totals):
        if delta:
            setattr(window, name, getattr(window, name) + delta * times)


class CircularGradientQueue(CircularQueueAdapter):
    """Exact gradient queue over a moving priority range."""

    __slots__ = ()

    def __init__(self, spec: BucketSpec, allow_stale: bool = True) -> None:
        super().__init__(spec, GradientQueue, allow_stale=allow_stale)


class CircularApproximateGradientQueue(CircularQueueAdapter):
    """Approximate gradient queue over a moving priority range.

    The per-window approximate queues share the same ``alpha`` and word
    configuration; see :class:`~repro.core.queues.gradient.ApproximateGradientQueue`.
    """

    __slots__ = ("alpha", "word_bits")

    def __init__(
        self,
        spec: BucketSpec,
        alpha: int = 16,
        word_bits: int = 64,
        allow_stale: bool = True,
    ) -> None:
        def factory(window_spec: BucketSpec) -> ApproximateGradientQueue:
            return ApproximateGradientQueue(
                window_spec, alpha=alpha, word_bits=word_bits
            )

        super().__init__(spec, factory, allow_stale=allow_stale)
        self.alpha = alpha
        self.word_bits = word_bits


__all__ = [
    "CircularApproximateGradientQueue",
    "CircularGradientQueue",
    "CircularQueueAdapter",
]
