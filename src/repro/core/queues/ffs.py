"""Find-First-Set primitives and the single-word FFS queue.

The paper builds its efficient queues on the Find First Set (FFS) CPU
instruction (Bit-Scan-Forward/Reverse), which returns the index of the first
set bit of a machine word in a handful of cycles.  In Python we emulate the
instruction with integer bit tricks; the CPU cost model (``repro.cpu``)
charges each emulated FFS the instruction cost the paper cites so that
modelled-cycle comparisons stay meaningful.

Two conventions are used throughout:

* bit ``i`` of a word corresponds to bucket ``i`` (bit 0 = lowest priority
  bucket in the word), and
* ``find_first_set`` returns the index of the **least significant** set bit,
  i.e. the highest-priority (minimum-rank) non-empty bucket.

**A modelled scan is charged by count; the walk is not performed.**  The
multi-word queue models reading its bitmap words in order until one is
non-zero, priced per word read (``QueueStats.word_scans``).  It keeps a summary
mask — bit ``w`` set while word ``w`` is non-zero — whose first set bit names
the word the scan stops at, and charges ``word_scans`` the ``w + 1`` words the
scan reads.  The summary is not a second bitmap level: the modelled cost stays
linear in the word index, which is what separates this queue from the
hierarchical one (the walked loop is the oracle in
``tests/core/queues/test_scan_oracle.py``).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Iterable, Optional

from .base import (
    BucketSpec,
    EmptyQueueError,
    IntegerPriorityQueue,
    PriorityOutOfRangeError,
    validate_priority,
)

#: Default machine word width, matching 64-bit x86 BSF/BSR operands.
DEFAULT_WORD_WIDTH = 64


def find_first_set(word: int) -> int:
    """Index of the least-significant set bit of ``word``.

    Equivalent to the x86 ``BSF`` instruction (and to ``__builtin_ffs() - 1``).
    The fast path is the two's-complement isolate ``word & -word``; a Python
    negative int has conceptually infinite sign bits, so negative words are
    rejected rather than silently returning the isolate of their magnitude.

    Raises:
        ValueError: if ``word`` is zero (no bit set) or negative (not a
            machine word).
    """
    if word <= 0:
        if word == 0:
            raise ValueError("find_first_set of zero word")
        raise ValueError(f"find_first_set of negative word {word}")
    return (word & -word).bit_length() - 1


def find_last_set(word: int) -> int:
    """Index of the most-significant set bit of ``word`` (x86 ``BSR``)."""
    if word <= 0:
        if word == 0:
            raise ValueError("find_last_set of zero word")
        raise ValueError(f"find_last_set of negative word {word}")
    return word.bit_length() - 1


def set_bit(word: int, index: int) -> int:
    """Return ``word`` with bit ``index`` set."""
    return word | (1 << index)


def clear_bit(word: int, index: int) -> int:
    """Return ``word`` with bit ``index`` cleared."""
    return word & ~(1 << index)


def test_bit(word: int, index: int) -> bool:
    """True when bit ``index`` of ``word`` is set."""
    return bool((word >> index) & 1)


def count_set_bits(word: int) -> int:
    """Number of set bits in ``word`` (x86 ``POPCNT``).

    Zero is a valid operand (POPCNT of zero is zero); negative words are
    rejected for the same reason as :func:`find_first_set` — a Python
    negative int is not a finite machine word.
    """
    if word < 0:
        raise ValueError(f"count_set_bits of negative word {word}")
    return int(word).bit_count()


def popcount(word: int) -> int:
    """Alias of :func:`count_set_bits`, kept for the x86 mnemonic."""
    return count_set_bits(word)


class Bitmap:
    """A fixed-width occupancy bitmap with FFS lookup.

    This is the "Bitmap Meta Data" row of Figure 2: one bit per bucket,
    one means non-empty.
    """

    __slots__ = ("width", "_word")

    def __init__(self, width: int) -> None:
        if width <= 0:
            raise ValueError("bitmap width must be positive")
        self.width = width
        self._word = 0

    def set(self, index: int) -> None:
        """Mark bucket ``index`` as non-empty."""
        self._check(index)
        self._word |= 1 << index

    def clear(self, index: int) -> None:
        """Mark bucket ``index`` as empty."""
        self._check(index)
        self._word &= ~(1 << index)

    def test(self, index: int) -> bool:
        """True when bucket ``index`` is marked non-empty."""
        self._check(index)
        return bool((self._word >> index) & 1)

    def first_set(self) -> int:
        """Index of the lowest marked bucket.

        Raises:
            ValueError: when no bucket is marked.
        """
        return find_first_set(self._word)

    def last_set(self) -> int:
        """Index of the highest marked bucket."""
        return find_last_set(self._word)

    @property
    def any(self) -> bool:
        """True when at least one bucket is marked."""
        return self._word != 0

    @property
    def word(self) -> int:
        """Raw integer value of the bitmap."""
        return self._word

    def clear_all(self) -> None:
        """Mark every bucket empty."""
        self._word = 0

    def _check(self, index: int) -> None:
        if not 0 <= index < self.width:
            raise IndexError(f"bit index {index} outside bitmap of width {self.width}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Bitmap(width={self.width}, word={self._word:#x})"


class FFSQueue(IntegerPriorityQueue):
    """Single-word FFS-based bucketed priority queue (Figure 2).

    Supports up to ``word_width`` buckets over a *fixed* priority range
    ``[base_priority, base_priority + num_buckets * granularity)``.  The
    minimum non-empty bucket is found with a single FFS over the occupancy
    bitmap, giving O(1) extract-min.

    This queue is the right choice when the number of priority levels is
    small and fixed (e.g. eight 802.1Q priorities, or the ~100 levels of the
    kernel realtime scheduler class the paper mentions).
    """

    __slots__ = ("word_width", "_bitmap", "_buckets")

    def __init__(self, spec: BucketSpec, word_width: int = DEFAULT_WORD_WIDTH) -> None:
        super().__init__(spec)
        if spec.num_buckets > word_width:
            raise ValueError(
                f"FFSQueue supports at most {word_width} buckets; "
                f"got {spec.num_buckets}. Use HierarchicalFFSQueue instead."
            )
        self.word_width = word_width
        self._bitmap = Bitmap(spec.num_buckets)
        self._buckets: list[Deque[tuple[int, Any]]] = [
            deque() for _ in range(spec.num_buckets)
        ]

    def enqueue(self, priority: int, item: Any) -> None:
        priority = validate_priority(priority)
        if not self.spec.contains(priority):
            raise PriorityOutOfRangeError(
                f"priority {priority} outside fixed range "
                f"[{self.spec.base_priority}, {self.spec.base_priority + self.spec.horizon})"
            )
        bucket = self.spec.bucket_for(priority)
        self.stats.enqueues += 1
        self.stats.bucket_lookups += 1
        self._buckets[bucket].append((priority, item))
        self._bitmap.set(bucket)
        self._size += 1

    def extract_min(self) -> tuple[int, Any]:
        if self.empty:
            raise EmptyQueueError("extract_min from empty FFSQueue")
        self.stats.word_scans += 1
        bucket = self._bitmap.first_set()
        entry = self._buckets[bucket].popleft()
        if not self._buckets[bucket]:
            self._bitmap.clear(bucket)
        self.stats.dequeues += 1
        self._size -= 1
        return entry

    def peek_min(self) -> tuple[int, Any]:
        if self.empty:
            raise EmptyQueueError("peek_min from empty FFSQueue")
        self.stats.word_scans += 1
        bucket = self._bitmap.first_set()
        return self._buckets[bucket][0]

    def occupancy_word(self) -> int:
        """The raw occupancy bitmap word (for tests and inspection)."""
        return self._bitmap.word

    # -- batch operations -------------------------------------------------

    def enqueue_batch(self, pairs: Iterable[tuple[int, Any]]) -> int:
        """Batched insert: one bucket lookup and bitmap update per bucket.

        Pairs append straight into their bucket FIFOs on hoisted locals; a
        key set tracks the distinct buckets for the amortised
        ``bucket_lookups`` charge, and counters settle once per batch.  On a
        mid-batch validation error the inserted prefix stays enqueued and
        counted, matching the base class's per-element default.
        """
        spec = self.spec
        base = spec.base_priority
        granularity = spec.granularity
        hi = base + spec.horizon
        stats = self.stats
        buckets = self._buckets
        bitmap_set = self._bitmap.set
        seen: set[int] = set()
        seen_add = seen.add
        count = 0
        try:
            for pair in pairs:
                priority = pair[0]
                if type(priority) is not int:
                    priority = validate_priority(priority)
                    pair = (priority, pair[1])
                if priority < base or priority >= hi:
                    raise PriorityOutOfRangeError(
                        f"priority {priority} outside fixed range [{base}, {hi})"
                    )
                bucket = (priority - base) // granularity
                seen_add(bucket)
                entries = buckets[bucket]
                if not entries:
                    bitmap_set(bucket)
                entries.append(pair)
                count += 1
        finally:
            stats.enqueues += count
            stats.bucket_lookups += len(seen)
            self._size += count
        return count

    def extract_min_batch(self, n: int) -> list[tuple[int, Any]]:
        """Batched extract-min: one FFS per bucket visited, not per element."""
        if n < 0:
            raise ValueError("batch size must be non-negative")
        batch: list[tuple[int, Any]] = []
        buckets = self._buckets
        bitmap = self._bitmap
        scans = 0
        taken = 0
        while taken < n and self._size:
            scans += 1
            bucket = bitmap.first_set()
            entries = buckets[bucket]
            space = n - taken
            if space >= len(entries):
                take = len(entries)
                batch.extend(entries)
                entries.clear()
                bitmap.clear(bucket)
            else:
                take = space
                popleft = entries.popleft
                for _ in range(take):
                    batch.append(popleft())
            taken += take
            self._size -= take
        stats = self.stats
        stats.word_scans += scans
        stats.dequeues += taken
        return batch

    def extract_due(
        self, now: int, limit: Optional[int] = None
    ) -> list[tuple[int, Any]]:
        released: list[tuple[int, Any]] = []
        buckets = self._buckets
        bitmap = self._bitmap
        spec = self.spec
        base = spec.base_priority
        granularity = spec.granularity
        size = self._size
        scans = 0
        taken = 0
        while size and (limit is None or taken < limit):
            scans += 1
            bucket = bitmap.first_set()
            entries = buckets[bucket]
            # Whole-bucket fast path: every entry in the bucket is due when
            # the bucket's highest representable priority has passed, so the
            # per-element head checks collapse into one extend.
            if (
                base + (bucket + 1) * granularity - 1 <= now
                and (limit is None or limit - taken >= len(entries))
            ):
                count = len(entries)
                taken += count
                size -= count
                released.extend(entries)
                entries.clear()
                bitmap.clear(bucket)
                continue
            while entries and entries[0][0] <= now:
                if limit is not None and taken >= limit:
                    break
                released.append(entries.popleft())
                taken += 1
                size -= 1
            if not entries:
                bitmap.clear(bucket)
                continue
            break  # head not yet due, or the limit was reached
        stats = self.stats
        stats.word_scans += scans
        stats.dequeues += taken
        self._size = size
        return released


class MultiWordFFSQueue(IntegerPriorityQueue):
    """Sequentially-scanned multi-word FFS queue.

    The paper describes this as the scheme used by the Linux realtime
    scheduling class: the bucket occupancy bitmap spans ``M`` machine words
    that are scanned in order until a non-zero word is found.  Efficient for
    very small ``M``; included both as a usable queue and as the stepping
    stone to the hierarchical variant.
    """

    __slots__ = ("word_width", "num_words", "_words", "_nonzero_words", "_buckets")

    def __init__(self, spec: BucketSpec, word_width: int = DEFAULT_WORD_WIDTH) -> None:
        super().__init__(spec)
        self.word_width = word_width
        self.num_words = (spec.num_buckets + word_width - 1) // word_width
        self._words = [0] * self.num_words
        # Summary mask: bit w is set while ``_words[w]`` is non-zero.
        self._nonzero_words = 0
        self._buckets: list[Deque[tuple[int, Any]]] = [
            deque() for _ in range(spec.num_buckets)
        ]

    def enqueue(self, priority: int, item: Any) -> None:
        priority = validate_priority(priority)
        if not self.spec.contains(priority):
            raise PriorityOutOfRangeError(
                f"priority {priority} outside fixed range of MultiWordFFSQueue"
            )
        bucket = self.spec.bucket_for(priority)
        self.stats.enqueues += 1
        self.stats.bucket_lookups += 1
        self._buckets[bucket].append((priority, item))
        self._set_bucket_bit(bucket)
        self._size += 1

    def _min_bucket(self) -> int:
        """Minimum non-empty bucket, charged as the sequential word scan.

        The modelled scan reads words in order until one is non-zero.  It is
        charged, not walked: the summary mask names that word, and
        ``word_scans`` grows by the ``word_index + 1`` words the scan reads.
        """
        nonzero = self._nonzero_words
        if not nonzero:
            self.stats.word_scans += self.num_words
            raise EmptyQueueError("no non-empty bucket")
        word_index = (nonzero & -nonzero).bit_length() - 1
        self.stats.word_scans += word_index + 1
        # Inlined find_first_set: a set summary bit guarantees a non-zero word.
        word = self._words[word_index]
        return word_index * self.word_width + (word & -word).bit_length() - 1

    def extract_min(self) -> tuple[int, Any]:
        if self.empty:
            raise EmptyQueueError("extract_min from empty MultiWordFFSQueue")
        bucket = self._min_bucket()
        entry = self._buckets[bucket].popleft()
        if not self._buckets[bucket]:
            self._clear_bucket_bit(bucket)
        self.stats.dequeues += 1
        self._size -= 1
        return entry

    def peek_min(self) -> tuple[int, Any]:
        if self.empty:
            raise EmptyQueueError("peek_min from empty MultiWordFFSQueue")
        bucket = self._min_bucket()
        return self._buckets[bucket][0]

    # -- bitmap maintenance -----------------------------------------------

    def _set_bucket_bit(self, bucket: int) -> None:
        word_index, bit = divmod(bucket, self.word_width)
        self._words[word_index] |= 1 << bit
        self._nonzero_words |= 1 << word_index

    def _clear_bucket_bit(self, bucket: int) -> None:
        word_index, bit = divmod(bucket, self.word_width)
        word = self._words[word_index] = self._words[word_index] & ~(1 << bit)
        if not word:
            self._nonzero_words &= ~(1 << word_index)

    # -- batch operations -------------------------------------------------

    def enqueue_batch(self, pairs: Iterable[tuple[int, Any]]) -> int:
        """Batched insert: one bucket lookup and bit set per bucket.

        Same direct-append shape as :meth:`FFSQueue.enqueue_batch`: a key
        set tracks distinct buckets, counters settle once, and a mid-batch
        validation error leaves the inserted prefix enqueued and counted.
        """
        spec = self.spec
        base = spec.base_priority
        granularity = spec.granularity
        hi = base + spec.horizon
        stats = self.stats
        buckets = self._buckets
        set_bucket_bit = self._set_bucket_bit
        seen: set[int] = set()
        seen_add = seen.add
        count = 0
        try:
            for pair in pairs:
                priority = pair[0]
                if type(priority) is not int:
                    priority = validate_priority(priority)
                    pair = (priority, pair[1])
                if priority < base or priority >= hi:
                    raise PriorityOutOfRangeError(
                        f"priority {priority} outside fixed range of MultiWordFFSQueue"
                    )
                bucket = (priority - base) // granularity
                seen_add(bucket)
                entries = buckets[bucket]
                if not entries:
                    set_bucket_bit(bucket)
                entries.append(pair)
                count += 1
        finally:
            stats.enqueues += count
            stats.bucket_lookups += len(seen)
            self._size += count
        return count

    def extract_min_batch(self, n: int) -> list[tuple[int, Any]]:
        """Batched extract-min: one word scan per bucket visited."""
        if n < 0:
            raise ValueError("batch size must be non-negative")
        batch: list[tuple[int, Any]] = []
        buckets = self._buckets
        taken = 0
        while taken < n and self._size:
            bucket = self._min_bucket()
            entries = buckets[bucket]
            space = n - taken
            if space >= len(entries):
                take = len(entries)
                batch.extend(entries)
                entries.clear()
                self._clear_bucket_bit(bucket)
            else:
                take = space
                popleft = entries.popleft
                for _ in range(take):
                    batch.append(popleft())
            taken += take
            self._size -= take
        self.stats.dequeues += taken
        return batch

    def extract_due(
        self, now: int, limit: Optional[int] = None
    ) -> list[tuple[int, Any]]:
        released: list[tuple[int, Any]] = []
        buckets = self._buckets
        spec = self.spec
        base = spec.base_priority
        granularity = spec.granularity
        size = self._size
        taken = 0
        while size and (limit is None or taken < limit):
            bucket = self._min_bucket()
            entries = buckets[bucket]
            if (
                base + (bucket + 1) * granularity - 1 <= now
                and (limit is None or limit - taken >= len(entries))
            ):
                count = len(entries)
                taken += count
                size -= count
                released.extend(entries)
                entries.clear()
                self._clear_bucket_bit(bucket)
                continue
            while entries and entries[0][0] <= now:
                if limit is not None and taken >= limit:
                    break
                released.append(entries.popleft())
                taken += 1
                size -= 1
            if not entries:
                self._clear_bucket_bit(bucket)
                continue
            break
        self.stats.dequeues += taken
        self._size = size
        return released


__all__ = [
    "Bitmap",
    "DEFAULT_WORD_WIDTH",
    "FFSQueue",
    "MultiWordFFSQueue",
    "clear_bit",
    "count_set_bits",
    "find_first_set",
    "find_last_set",
    "popcount",
    "set_bit",
    "test_bit",
]
