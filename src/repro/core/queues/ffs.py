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

from .base import BucketSpec, EmptyQueueError, FixedRangeBucketQueue

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


class FFSQueue(FixedRangeBucketQueue):
    """Single-word FFS-based bucketed priority queue (Figure 2).

    Supports up to ``word_width`` buckets over a *fixed* priority range
    ``[base_priority, base_priority + num_buckets * granularity)``.  The
    index is the "Bitmap Meta Data" row of Figure 2 — one bit per bucket, one
    means non-empty — and the minimum non-empty bucket is a single FFS over
    it, giving O(1) extract-min.

    This queue is the right choice when the number of priority levels is
    small and fixed (e.g. eight 802.1Q priorities, or the ~100 levels of the
    kernel realtime scheduler class the paper mentions).
    """

    __slots__ = ("word_width", "_word")

    def __init__(self, spec: BucketSpec, word_width: int = DEFAULT_WORD_WIDTH) -> None:
        super().__init__(spec)
        if spec.num_buckets > word_width:
            raise ValueError(
                f"FFSQueue supports at most {word_width} buckets; "
                f"got {spec.num_buckets}. Use HierarchicalFFSQueue instead."
            )
        self.word_width = word_width
        self._word = 0

    def _mark_nonempty(self, bucket: int) -> None:
        self._word |= 1 << bucket

    def _mark_empty(self, bucket: int) -> None:
        self._word &= ~(1 << bucket)

    def _min_bucket(self) -> int:
        self.stats.word_scans += 1
        word = self._word
        return (word & -word).bit_length() - 1

    def occupancy_word(self) -> int:
        """The raw occupancy bitmap word (for tests and inspection)."""
        return self._word


class MultiWordFFSQueue(FixedRangeBucketQueue):
    """Sequentially-scanned multi-word FFS queue.

    The paper describes this as the scheme used by the Linux realtime
    scheduling class: the bucket occupancy bitmap spans ``M`` machine words
    that are scanned in order until a non-zero word is found.  Efficient for
    very small ``M``; included both as a usable queue and as the stepping
    stone to the hierarchical variant.
    """

    __slots__ = ("word_width", "num_words", "_shift", "_mask", "_words", "_nonzero_words")

    def __init__(self, spec: BucketSpec, word_width: int = DEFAULT_WORD_WIDTH) -> None:
        super().__init__(spec)
        if word_width < 1 or word_width & (word_width - 1):
            raise ValueError(f"word_width must be a power of two, got {word_width}")
        self.word_width = word_width
        # A power-of-two width splits a bucket into (word, bit) by shift and mask.
        self._shift = word_width.bit_length() - 1
        self._mask = word_width - 1
        self.num_words = (spec.num_buckets + word_width - 1) // word_width
        self._words = [0] * self.num_words
        # Summary mask: bit w is set while ``_words[w]`` is non-zero.
        self._nonzero_words = 0

    def _mark_nonempty(self, bucket: int) -> None:
        word_index = bucket >> self._shift
        self._words[word_index] |= 1 << (bucket & self._mask)
        self._nonzero_words |= 1 << word_index

    def _mark_empty(self, bucket: int) -> None:
        word_index = bucket >> self._shift
        words = self._words
        word = words[word_index] = words[word_index] & ~(1 << (bucket & self._mask))
        if not word:
            self._nonzero_words &= ~(1 << word_index)

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
        return (word_index << self._shift) + (word & -word).bit_length() - 1


__all__ = [
    "DEFAULT_WORD_WIDTH",
    "FFSQueue",
    "MultiWordFFSQueue",
    "count_set_bits",
    "find_first_set",
    "find_last_set",
    "popcount",
]
