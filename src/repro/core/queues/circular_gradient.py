"""Moving-range (circular) wrappers for fixed-range integer queues.

Section 3.1.2 notes that "for cases of a moving range, a circular approximate
queue can be implemented as with cFFS".  Rather than re-implementing the
primary/secondary rotation for every queue type, this module provides a
generic :class:`CircularQueueAdapter` that wraps *any* fixed-range
:class:`~repro.core.queues.base.IntegerPriorityQueue` factory, plus the
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

from typing import Any, Callable, Iterable, Optional

from .base import (
    BucketSpec,
    EmptyQueueError,
    IntegerPriorityQueue,
    validate_priority,
)
from .gradient import ApproximateGradientQueue, GradientQueue

QueueFactory = Callable[[BucketSpec], IntegerPriorityQueue]


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
        self.stats.enqueues += 1
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

        The due check must use the *absolute* priority stored in the payload
        (overflow entries sit at a window-local offset unrelated to their
        rank), so this stays a per-element peek/extract loop; the amortised
        batch paths are :meth:`enqueue_batch` and :meth:`extract_min_batch`.
        """
        released: list[tuple[int, Any]] = []
        while not self.empty and (limit is None or len(released) < limit):
            priority, _item = self.peek_min()
            if priority > now:
                break
            released.append(self.extract_min())
        return released

    # -- batch operations --------------------------------------------------------

    def enqueue_batch(self, pairs: Iterable[tuple[int, Any]]) -> int:
        """Batched insert: one delegated ``enqueue_batch`` per window."""
        primary_entries: list[tuple[int, Any]] = []
        secondary_entries: list[tuple[int, Any]] = []
        count = 0
        span = self._span
        lo = self.h_index
        hi = lo + span
        shi = hi + span
        overflow_offset = span - self.spec.granularity
        for priority, item in pairs:
            priority = validate_priority(priority)
            if priority < lo:
                if not self.allow_stale:
                    raise ValueError(
                        f"priority {priority} precedes queue head index {lo}"
                    )
                primary_entries.append((0, (priority, item)))
            elif priority < hi:
                primary_entries.append((priority - lo, (priority, item)))
            elif priority < shi:
                secondary_entries.append((priority - hi, (priority, item)))
            else:
                self.stats.overflow_enqueues += 1
                secondary_entries.append((overflow_offset, (priority, item)))
            count += 1
        if primary_entries:
            self._primary.enqueue_batch(primary_entries)
        if secondary_entries:
            self._secondary.enqueue_batch(secondary_entries)
        self.stats.enqueues += count
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
