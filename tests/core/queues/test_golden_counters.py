"""Golden ``QueueStats`` counters for every queue family.

Modelled cycles are charged from these counters (``CostModel
.charge_queue_stats``), so they are the behavioural pin of any change to how a
queue locates its minimum: an optimisation may change how a count is arrived
at, never the count.  A seeded 4,096-bucket rank stream goes through all eight
families in two shapes and two drivers, and every counter is compared with the
literal it had before the scans were charged by count instead of walked.

* *fixed-range* families see ranks uniform over their buckets, fill for
  ``FILL_STEPS`` steps, then release up to a batch of the smallest per step;
* *moving-range* families (the circular queues, and the binary heap, which has
  no range) see a base that advances ``ADVANCE`` ranks a step with ranks up to
  half a window ahead of it — and now and then past both windows — and release
  what is due: the window rotates and overflow entries are re-dispatched.
"""

import random

import pytest

from repro.core.queues import (
    ApproximateGradientQueue,
    BinaryHeapQueue,
    BucketedHeapQueue,
    BucketSpec,
    CircularFFSQueue,
    CircularGradientQueue,
    FFSQueue,
    GradientQueue,
    HierarchicalFFSQueue,
    MultiWordFFSQueue,
    QueueStats,
)
from repro.core.queues.gradient import alpha_for_buckets

NUM_BUCKETS = 4_096
RANKS = 3_072
BATCH = 32
ADVANCE = 64
OVERFLOW_ONE_IN = 97
FILL_STEPS = 24
SEED = 20_240_914
FOREVER = 1 << 62

SPEC = BucketSpec(num_buckets=NUM_BUCKETS)

#: ``name -> (factory, moving_range)``
FAMILIES = {
    "ffs_multiword": (lambda: MultiWordFFSQueue(SPEC), False),
    "hierarchical_ffs": (lambda: HierarchicalFFSQueue(SPEC), False),
    "circular_ffs": (lambda: CircularFFSQueue(SPEC), True),
    "gradient": (lambda: GradientQueue(SPEC), False),
    "approx_gradient": (
        lambda: ApproximateGradientQueue(SPEC, alpha=alpha_for_buckets(NUM_BUCKETS)),
        False,
    ),
    "circular_gradient": (lambda: CircularGradientQueue(SPEC), True),
    "bucketed_heap": (lambda: BucketedHeapQueue(SPEC), False),
    "binary_heap": (lambda: BinaryHeapQueue(), True),
}


def schedule(moving, num_buckets=NUM_BUCKETS):
    """``(due_by, [(rank, item), ...])`` per step, from one seeded stream."""
    draw = random.Random(SEED).randrange
    steps = []
    for first in range(0, RANKS, BATCH):
        step = first // BATCH
        if moving:
            base = step * ADVANCE
            pairs = []
            for i in range(BATCH):
                ahead = draw(NUM_BUCKETS) // 2
                if draw(OVERFLOW_ONE_IN) == 0:
                    ahead += 2 * NUM_BUCKETS  # past both windows
                pairs.append((base + ahead, first + i))
            due_by = base
        else:
            pairs = [(draw(num_buckets), first + i) for i in range(BATCH)]
            due_by = num_buckets if step >= FILL_STEPS else -1
        steps.append((due_by, pairs))
    return steps


def drive_batched(queue, steps):
    released = 0
    for due_by, pairs in steps:
        queue.enqueue_batch(pairs)
        released += len(queue.extract_due(due_by, limit=BATCH))
    while len(queue):
        released += len(queue.extract_due(FOREVER, limit=BATCH))
    return released


def drive_per_packet(queue, steps):
    released = 0
    for due_by, pairs in steps:
        for rank, item in pairs:
            queue.enqueue(rank, item)
        for _ in range(BATCH):
            if not len(queue) or queue.peek_min()[0] > due_by:
                break
            queue.extract_min()
            released += 1
    while len(queue):
        queue.extract_min()
        released += 1
    return released


DRIVERS = {"batched": drive_batched, "per_packet": drive_per_packet}


def counters(**nonzero):
    """A full ``QueueStats.as_dict()``: every rank in and out, plus the named counters."""
    return QueueStats(**{"enqueues": RANKS, "dequeues": RANKS, **nonzero}).as_dict()


# Captured at the commit before the scans were charged by count (PR 12).
GOLDEN = {
    ("ffs_multiword", "batched"): counters(bucket_lookups=3_064, word_scans=82_335),
    ("ffs_multiword", "per_packet"): counters(bucket_lookups=3_072, word_scans=157_766),
    ("hierarchical_ffs", "batched"): counters(bucket_lookups=3_064, word_scans=14_359),
    ("hierarchical_ffs", "per_packet"): counters(bucket_lookups=3_072, word_scans=19_761),
    ("circular_ffs", "batched"): counters(
        bucket_lookups=3_043, word_scans=12_686, linear_scans=38, rotations=3,
        overflow_enqueues=31,
    ),
    ("circular_ffs", "per_packet"): counters(
        bucket_lookups=3_072, word_scans=18_846, linear_scans=38, rotations=3,
        overflow_enqueues=31,
    ),
    ("gradient", "batched"): counters(bucket_lookups=3_064, divisions=2_699),
    ("gradient", "per_packet"): counters(bucket_lookups=3_072, divisions=5_400),
    ("approx_gradient", "batched"): counters(
        bucket_lookups=3_064, divisions=2_700, linear_scans=2_943_444,
    ),
    ("approx_gradient", "per_packet"): counters(
        bucket_lookups=3_072, divisions=5_400, linear_scans=5_962_111,
    ),
    ("circular_gradient", "batched"): counters(linear_scans=38, rotations=3, overflow_enqueues=31),
    ("circular_gradient", "per_packet"): counters(
        linear_scans=38, rotations=3, overflow_enqueues=31,
    ),
    ("bucketed_heap", "batched"): counters(bucket_lookups=3_064, heap_operations=50_925),
    ("bucketed_heap", "per_packet"): counters(bucket_lookups=3_072, heap_operations=50_925),
    ("binary_heap", "batched"): counters(heap_operations=58_216),
    ("binary_heap", "per_packet"): counters(heap_operations=58_912),
}

#: ``CircularQueueAdapter.merged_stats()``: the adapter's counters plus both
#: window queues' — the operations that reach the windows, one for one.
GOLDEN_MERGED = {
    "batched": counters(
        enqueues=6_182, dequeues=6_182, bucket_lookups=3_081, divisions=12_428,
        linear_scans=38, rotations=3, overflow_enqueues=31,
    ),
    "per_packet": counters(
        enqueues=6_182, dequeues=6_182, bucket_lookups=3_110, divisions=11_300,
        linear_scans=38, rotations=3, overflow_enqueues=31,
    ),
}


@pytest.mark.parametrize("driver", DRIVERS)
@pytest.mark.parametrize("family", FAMILIES)
def test_counters_match_golden(family, driver):
    factory, moving = FAMILIES[family]
    queue = factory()
    assert DRIVERS[driver](queue, schedule(moving)) == RANKS
    assert queue.stats.as_dict() == GOLDEN[family, driver]


@pytest.mark.parametrize("driver", DRIVERS)
def test_circular_adapter_window_operations_match_golden(driver):
    queue = CircularGradientQueue(SPEC)
    DRIVERS[driver](queue, schedule(True))
    assert queue.merged_stats() == GOLDEN_MERGED[driver]


#: A single-word queue holds at most 64 buckets, so it gets the fixed-range
#: stream drawn over 64 ranks.  Captured at the commit before the bucketed
#: families moved onto one shared store (PR 21).
WORD_BUCKETS = 64
GOLDEN_FFS = {
    "batched": counters(bucket_lookups=2_462, word_scans=1_135),
    "per_packet": counters(bucket_lookups=3_072, word_scans=5_400),
}


@pytest.mark.parametrize("driver", DRIVERS)
def test_single_word_ffs_counters_match_golden(driver):
    queue = FFSQueue(BucketSpec(num_buckets=WORD_BUCKETS))
    assert DRIVERS[driver](queue, schedule(False, WORD_BUCKETS)) == RANKS
    assert queue.stats.as_dict() == GOLDEN_FFS[driver]
