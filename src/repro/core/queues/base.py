"""Common interfaces for Eiffel's bucketed integer priority queues.

The paper's central observation (Section 2) is that packet ranks are
integers that, at any point in time, fall within a limited range of values.
All queues in this package therefore share the same contract:

* elements are enqueued with an integer *priority* (rank),
* elements with the same priority are kept in FIFO order inside a bucket,
* ``extract_min`` / ``peek_min`` return the element with the smallest rank,
* a queue may optionally support a *moving range* of priorities (circular
  queues), in which case priorities ahead of the current window are accepted
  and buffered rather than rejected.

Every queue also records an :class:`~repro.cpu.cost_model.CycleAccount`-style
operation trace through lightweight counters in :class:`QueueStats`, so the
benchmark harness can compare both wall-clock time and modelled CPU cycles.

The paper's efficient queues (Section 3) are one design: an array of FIFO
buckets plus an *index* that finds the first non-empty one — an FFS word, a
bitmap tree, the gradient's ``ceil(b / a)``.  :class:`FixedRangeBucketQueue`
is that design written once: it owns the bucket store and every queue
operation, and a family supplies its index as three hooks.

Interpreter-level notes on the shared store (the modelled costs are unchanged
by all of this):

* bucket FIFOs are allocated lazily and recycled through a free list when
  they drain, so a sparsely occupied queue with a large bucket count neither
  preallocates thousands of deques nor throws emptied ones to the garbage
  collector;
* the batch paths hoist every repeated attribute lookup into locals and
  settle the stats counters once per batch.
"""

from __future__ import annotations

import abc
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Iterable, Iterator, Optional


class QueueError(Exception):
    """Base class for queue-related errors."""


class EmptyQueueError(QueueError):
    """Raised when extracting from an empty queue."""


class PriorityOutOfRangeError(QueueError):
    """Raised when a priority cannot be represented by the queue."""


class CounterStatsMixin:
    """Shared arithmetic for counter dataclasses (reflects over the fields).

    Shared by :class:`QueueStats` and the runtime-layer counter dataclasses
    (mailbox, sharding, stealing, shard-worker stats) so the snapshot /
    delta / merge surface stays in one place: consumers that charge
    cost-model deltas take a :meth:`snapshot` before a phase and
    :meth:`diff` against it afterwards instead of hand-rolling dict
    arithmetic.
    """

    # Counter dataclasses opt into ``slots=True``; an empty-slots mixin keeps
    # their instances __dict__-free (one per queue/shard on the hot path).
    __slots__ = ()

    # Explicit pickle support: slotted instances otherwise rely on the
    # version-sensitive default ``__reduce_ex__`` slot-state protocol.  The
    # parallel execution backends ship these snapshots across process
    # boundaries (shard results merged on join), so the wire format is
    # pinned to the one thing every counter dataclass defines — its fields.
    def __getstate__(self) -> dict[str, Any]:
        return self.as_dict()

    def __setstate__(self, state: dict[str, Any]) -> None:
        for name, value in state.items():
            setattr(self, name, value)

    def as_dict(self) -> dict[str, Any]:
        """Return a plain-dict snapshot of the counters."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}  # type: ignore[attr-defined]

    def snapshot(self):
        """Return an independent copy of the current counters."""
        return type(self)(**self.as_dict())

    def diff(self, earlier):
        """Counters accumulated since ``earlier`` (``self - earlier``)."""
        return type(self)(
            **{
                name: getattr(self, name) - getattr(earlier, name)
                for name in self.__dataclass_fields__  # type: ignore[attr-defined]
            }
        )

    def merge(self, other) -> None:
        """Accumulate the counters of ``other`` into this instance."""
        for name in self.__dataclass_fields__:  # type: ignore[attr-defined]
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def reset(self) -> None:
        """Restore every counter to its dataclass default."""
        for name, spec in self.__dataclass_fields__.items():  # type: ignore[attr-defined]
            setattr(self, name, spec.default)

    @classmethod
    def aggregate(cls, stats: Iterable["CounterStatsMixin"]):
        """Sum a collection of stats (e.g. one per shard) into a new instance."""
        total = cls()
        for item in stats:
            total.merge(item)
        return total


@dataclass(slots=True)
class QueueStats(CounterStatsMixin):
    """Operation counters shared by all queue implementations.

    The counters are intentionally cheap (plain integer increments) and map
    one-to-one onto the abstract operations charged by the CPU cost model:

    * ``enqueues`` / ``dequeues`` — element-level operations.
    * ``bucket_lookups`` — direct bucket index computations (the O(1) part).
    * ``word_scans`` — FFS word reads (bitmap words examined).
    * ``divisions`` — algebraic critical-point computations (gradient queue).
    * ``linear_scans`` — buckets touched during linear fallback search.
    * ``heap_operations`` — sift-up/down steps in comparison baselines.
    * ``rotations`` — primary/secondary swaps in circular queues.
    """

    enqueues: int = 0
    dequeues: int = 0
    bucket_lookups: int = 0
    word_scans: int = 0
    divisions: int = 0
    linear_scans: int = 0
    heap_operations: int = 0
    rotations: int = 0
    overflow_enqueues: int = 0
    selection_errors: int = 0


@dataclass(frozen=True, slots=True)
class BucketSpec:
    """Describes the bucket layout of an integer priority queue.

    Attributes:
        num_buckets: number of buckets (``N`` in the paper).
        granularity: priority units covered by one bucket (``C/N``).
        base_priority: smallest priority covered by bucket 0.
    """

    num_buckets: int
    granularity: int = 1
    base_priority: int = 0

    def __post_init__(self) -> None:
        if self.num_buckets <= 0:
            raise ValueError("num_buckets must be positive")
        if self.granularity <= 0:
            raise ValueError("granularity must be positive")

    @property
    def horizon(self) -> int:
        """Total priority range covered by the bucket array."""
        return self.num_buckets * self.granularity

    def bucket_for(self, priority: int) -> int:
        """Map an absolute priority to a bucket index (may be out of range)."""
        return (priority - self.base_priority) // self.granularity

    def priority_floor(self, bucket: int) -> int:
        """Smallest absolute priority represented by ``bucket``."""
        return self.base_priority + bucket * self.granularity

    def contains(self, priority: int) -> bool:
        """True when ``priority`` falls inside the covered range."""
        offset = priority - self.base_priority
        return 0 <= offset < self.horizon


class IntegerPriorityQueue(abc.ABC):
    """Abstract integer priority queue: the surface every queue shares.

    Queues over a fixed rank range differ only in how they locate the minimum
    non-empty bucket; their bucket storage, range checking and operations are
    :class:`FixedRangeBucketQueue`.  The moving-range queues and the
    comparison-based baselines implement this surface on their own.

    Every class in the hierarchy declares ``__slots__``: queue objects are
    touched per packet, and slot access skips the per-instance ``__dict__``
    lookup that otherwise dominates the interpreter's hot path.
    """

    __slots__ = ("spec", "stats", "_size")

    def __init__(self, spec: BucketSpec) -> None:
        self.spec = spec
        self.stats = QueueStats()
        self._size = 0

    # -- abstract surface -------------------------------------------------

    @abc.abstractmethod
    def enqueue(self, priority: int, item: Any) -> None:
        """Insert ``item`` with the given integer ``priority``."""

    @abc.abstractmethod
    def extract_min(self) -> tuple[int, Any]:
        """Remove and return ``(priority, item)`` for the smallest priority.

        Raises:
            EmptyQueueError: when the queue holds no elements.
        """

    @abc.abstractmethod
    def peek_min(self) -> tuple[int, Any]:
        """Return ``(priority, item)`` of the minimum element without removal."""

    # -- batch surface ----------------------------------------------------
    #
    # Batching is how the paper's BESS integration amortises per-packet
    # overhead: a timer fire or NIC pull moves a whole batch through the
    # queue in one call.  Every queue implements the three batch operations
    # itself, on its own structure: index maintenance is paid once per
    # bucket (or heap pass) instead of once per element, and the stats
    # counters are charged by count, never walked.  Each must be
    # observationally equivalent to repeated single-element operations —
    # same elements, same order, same ``QueueStats`` — and the per-element
    # loops that define that are the oracles under ``tests/core/queues``.
    #
    # The pair surface above hands out ``(priority, item)`` tuples; the item
    # surface below holds items that carry their own rank in a ``rank``
    # attribute (a stamped :class:`~repro.core.model.packet.Packet`), so a
    # queued element is the item alone.  A tuple per element is one more
    # GC-tracked object for as long as the element is queued: a deep
    # shaping backlog of them is what drives CPython's cyclic collector.
    # The bucket stores (:class:`FixedRangeBucketQueue` and the cFFS) hold
    # items natively, through the same loops as pairs; every other queue
    # gets the defaults below, which pair the items up.  A queue is filled
    # and drained through one surface, never both.

    @abc.abstractmethod
    def enqueue_batch(self, pairs: Iterable[tuple[int, Any]]) -> int:
        """Insert every ``(priority, item)`` pair; returns the count inserted."""

    @abc.abstractmethod
    def extract_min_batch(self, n: int) -> list[tuple[int, Any]]:
        """Remove and return up to ``n`` minimum elements in priority order.

        Returns fewer than ``n`` entries when the queue drains; never raises
        on an empty queue (an empty list is returned instead).
        """

    @abc.abstractmethod
    def extract_due(
        self, now: int, limit: Optional[int] = None
    ) -> list[tuple[int, Any]]:
        """Drain every element whose priority is ``<= now`` (up to ``limit``).

        This is the operation a shaping qdisc performs when its timer fires:
        release every packet whose transmission timestamp has passed.  The
        check is against the head of the minimum bucket, so queues whose
        buckets span several priority units (granularity > 1) release at
        bucket resolution, exactly as a per-element peek/extract loop does.
        """

    # -- item surface -----------------------------------------------------

    def enqueue_items(self, items: Iterable[Any]) -> int:
        """Insert every item at ``item.rank``; returns the count inserted."""
        return self.enqueue_batch([(item.rank, item) for item in items])

    def extract_due_items(self, now: int, limit: Optional[int] = None) -> list[Any]:
        """:meth:`extract_due` for items: the due items, in release order."""
        return [item for _rank, item in self.extract_due(now, limit)]

    def extract_min_items(self, n: int) -> list[Any]:
        """:meth:`extract_min_batch` for items: up to ``n`` minimum items."""
        return [item for _rank, item in self.extract_min_batch(n)]

    def peek_min_item(self) -> Any:
        """The item :meth:`extract_min_items` would release first."""
        return self.peek_min()[1]

    # -- shared helpers ---------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    @property
    def empty(self) -> bool:
        """True when no elements are enqueued."""
        return self._size == 0

    def extract_all(self) -> Iterator[tuple[int, Any]]:
        """Drain the queue in priority order."""
        while not self.empty:
            yield self.extract_min()

    def min_priority(self) -> Optional[int]:
        """Priority of the minimum element, or ``None`` when empty.

        This is the paper's ``SoonestDeadline()`` helper used by the kernel
        qdisc to program its wake-up timer (Section 4).
        """
        if self.empty:
            return None
        priority, _item = self.peek_min()
        return priority


class FixedRangeBucketQueue(IntegerPriorityQueue):
    """The bucket store and its operations; a subclass is the index over it.

    Covers the fixed priority range ``[base_priority, base_priority +
    num_buckets * granularity)``.  Everything a queue does — range check,
    FIFO buckets, the six operations and :meth:`remove` — is written here
    once.  A family supplies the three hooks below, each in *external* bucket
    numbers (bucket 0 holds the smallest ranks), and charges its own
    :class:`QueueStats` counters inside them; subclasses define none of the
    operations themselves.

    Bucket FIFOs live behind a free list: ``_buckets[i]`` is ``None`` while
    bucket ``i`` is empty (the invariant every path relies on), a deque is
    attached on first use, and a drained deque is recycled rather than
    re-allocated on the next enqueue.
    """

    __slots__ = ("_buckets", "_free")

    def __init__(self, spec: BucketSpec) -> None:
        super().__init__(spec)
        self._buckets: list[Optional[Deque[Any]]] = [None] * spec.num_buckets
        self._free: list[Deque[Any]] = []

    # -- the index: what a family supplies ----------------------------------

    @abc.abstractmethod
    def _mark_nonempty(self, bucket: int) -> None:
        """``bucket`` just went from empty to non-empty."""

    @abc.abstractmethod
    def _mark_empty(self, bucket: int) -> None:
        """``bucket`` just drained (not necessarily the minimum: ``remove``)."""

    @abc.abstractmethod
    def _min_bucket(self) -> int:
        """The non-empty bucket to serve next, charged as one lookup.

        The store only calls this on a non-empty queue.
        """

    # -- the store ------------------------------------------------------------

    def _out_of_range(self, priority: int) -> PriorityOutOfRangeError:
        base = self.spec.base_priority
        return PriorityOutOfRangeError(
            f"priority {priority} outside fixed range "
            f"[{base}, {base + self.spec.horizon}) of {type(self).__name__}"
        )

    def _release(self, bucket: int, entries: Deque[Any]) -> None:
        """Detach a drained FIFO: the bucket reads empty, the deque is recycled."""
        self._buckets[bucket] = None
        self._free.append(entries)
        self._mark_empty(bucket)

    def enqueue(self, priority: int, item: Any) -> None:
        priority = validate_priority(priority)
        spec = self.spec
        if not spec.contains(priority):
            raise self._out_of_range(priority)
        bucket = spec.bucket_for(priority)
        stats = self.stats
        stats.enqueues += 1
        stats.bucket_lookups += 1
        entries = self._buckets[bucket]
        if entries is None:
            free = self._free
            entries = self._buckets[bucket] = free.pop() if free else deque()
            self._mark_nonempty(bucket)
        entries.append((priority, item))
        self._size += 1

    def extract_min(self) -> tuple[int, Any]:
        if not self._size:
            raise EmptyQueueError(f"extract_min from empty {type(self).__name__}")
        bucket = self._min_bucket()
        entries = self._buckets[bucket]
        entry = entries.popleft()
        if not entries:
            self._release(bucket, entries)
        self.stats.dequeues += 1
        self._size -= 1
        return entry

    def peek_min(self) -> tuple[int, Any]:
        if not self._size:
            raise EmptyQueueError(f"peek_min from empty {type(self).__name__}")
        return self._buckets[self._min_bucket()][0]

    def enqueue_batch(self, pairs: Iterable[tuple[int, Any]]) -> int:
        """Batched insert: one bucket lookup and index update per bucket."""
        return self._place(pairs, False)

    def enqueue_items(self, items: Iterable[Any]) -> int:
        return self._place(items, True)

    def _place(self, batch: Iterable[Any], items: bool) -> int:
        """Batched insert of pairs or (``items``) ranked items.

        One bucket lookup and index update per bucket: entries append
        straight into their bucket FIFOs on hoisted locals; a key set
        tracks the distinct buckets for the amortised ``bucket_lookups``
        charge, and counters settle once per batch.  An entry's rank is
        ``entry.rank`` when ``items``, else ``entry[0]``.  On a mid-batch
        validation error the inserted prefix stays enqueued and counted,
        as repeated single inserts would leave it.
        """
        spec = self.spec
        base = spec.base_priority
        granularity = spec.granularity
        hi = base + spec.horizon
        buckets = self._buckets
        free = self._free
        mark_nonempty = self._mark_nonempty
        seen: set[int] = set()
        seen_add = seen.add
        count = 0
        try:
            for entry in batch:
                priority = entry.rank if items else entry[0]
                if type(priority) is not int:
                    priority = validate_priority(priority)
                    if not items:
                        entry = (priority, entry[1])
                if priority < base or priority >= hi:
                    raise self._out_of_range(priority)
                bucket = (priority - base) // granularity
                seen_add(bucket)
                entries = buckets[bucket]
                if entries is None:
                    entries = buckets[bucket] = free.pop() if free else deque()
                    mark_nonempty(bucket)
                entries.append(entry)
                count += 1
        finally:
            stats = self.stats
            stats.enqueues += count
            stats.bucket_lookups += len(seen)
            self._size += count
        return count

    def extract_min_batch(self, n: int) -> list[tuple[int, Any]]:
        """Batched extract-min: one index lookup per bucket visited.

        An index only moves when bucket occupancy does, so draining the
        selected bucket before looking again visits the same buckets in the
        same order as repeated single extractions.  A drained bucket is
        detached inline, and the counters settle once per call.
        """
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
        """Release what is due, one index lookup per bucket visited.

        A bucket whose highest representable priority has passed is released
        whole with one extend; otherwise its head entries are checked one by
        one.  The check runs on the *selected* bucket (the approximate queue
        may select a non-extremal one), exactly where a per-element
        peek/extract loop would look.
        """
        return self._drain(limit, now, False)

    def extract_due_items(self, now: int, limit: Optional[int] = None) -> list[Any]:
        return self._drain(limit, now, True)

    #: The head entry is the item itself on a queue filled with items.
    peek_min_item = peek_min

    def _drain(self, limit: Optional[int], now: Optional[int], items: bool) -> list[Any]:
        """Remove up to ``limit`` minimum entries, due by ``now`` (``None``: all).

        The batch drain behind both surfaces' :meth:`extract_min_batch` and
        :meth:`extract_due`; an entry's rank is ``entry.rank`` when
        ``items``, else ``entry[0]``.  A bucket the index names must hold an
        entry; one that does not raises instead of being visited again.
        """
        size = self._size
        stop = size if limit is None or limit > size else limit
        spec = self.spec
        # Buckets up to ``whole`` lie wholly at or below ``now``.
        whole = (
            spec.num_buckets
            if now is None
            else (now - spec.base_priority + 1) // spec.granularity - 1
        )
        drained: list[Any] = []
        buckets = self._buckets
        free_append = self._free.append
        min_bucket = self._min_bucket
        mark_empty = self._mark_empty
        taken = 0
        try:
            while taken < stop:
                bucket = min_bucket()
                entries = buckets[bucket]
                if not entries:
                    raise QueueError(
                        f"{type(self).__name__}: the index named bucket {bucket}, "
                        "which holds no entry"
                    )
                count = len(entries)
                room = stop - taken
                if bucket > whole:
                    take = 0
                    if count < room:
                        room = count
                    while take < room and (
                        entries[take].rank if items else entries[take][0]
                    ) <= now:
                        take += 1
                elif count > room:
                    take = room
                else:
                    take = count
                if take == count:
                    taken += count
                    drained.extend(entries)
                    entries.clear()
                    buckets[bucket] = None
                    free_append(entries)
                    mark_empty(bucket)
                    continue
                popleft = entries.popleft
                for _ in range(take):
                    drained.append(popleft())
                taken += take
                break  # head not yet due, or the limit was reached
        finally:
            self.stats.dequeues += taken
            self._size = size - taken
        return drained

    def remove(self, priority: int, item: Any) -> bool:
        """Remove a specific ``(priority, item)`` pair in O(bucket length).

        Bucketed queues support cheap removal, which pFabric and hClock use
        heavily when a flow's rank changes (Section 2).  Returns True when
        the element was found and removed.  An empty bucket is ``None``
        behind the free list, so the miss path costs one load — no deque is
        scanned.
        """
        priority = validate_priority(priority)
        if not self.spec.contains(priority):
            return False
        bucket = self.spec.bucket_for(priority)
        entries = self._buckets[bucket]
        self.stats.bucket_lookups += 1
        if entries is None:
            return False
        for index, entry in enumerate(entries):
            if entry[0] == priority and entry[1] is item:
                del entries[index]
                self._size -= 1
                if not entries:
                    self._release(bucket, entries)
                return True
        return False


def validate_priority(priority: int) -> int:
    """Validate that a rank is a (coercible) integer and return it as int.

    Packet ranks are integers by construction (deadlines, transmission times,
    flow sizes); floats are rejected rather than silently truncated so that
    policy bugs surface early.
    """
    if isinstance(priority, bool):
        raise TypeError("priority must be an integer, not bool")
    if isinstance(priority, int):
        return priority
    raise TypeError(f"priority must be an integer, got {type(priority).__name__}")


__all__ = [
    "BucketSpec",
    "CounterStatsMixin",
    "EmptyQueueError",
    "FixedRangeBucketQueue",
    "IntegerPriorityQueue",
    "PriorityOutOfRangeError",
    "QueueError",
    "QueueStats",
    "validate_priority",
]
