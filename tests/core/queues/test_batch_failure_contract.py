"""One ``enqueue_batch`` failure contract for all eight queue families.

A batch whose k-th pair fails validation keeps the k-1 pairs before it: the
queue holds what k-1 single ``enqueue`` calls would leave, and counts them
exactly as a batch of those k-1 pairs does (a batch charges its bucket
lookups per distinct bucket, so its counters are the batch's, not k-1
single inserts').  Nothing after the bad pair is inserted.
"""

import pytest

from repro.core.queues import (
    ApproximateGradientQueue,
    BinaryHeapQueue,
    BucketedHeapQueue,
    BucketSpec,
    CircularFFSQueue,
    CircularGradientQueue,
    GradientQueue,
    HierarchicalFFSQueue,
    MultiWordFFSQueue,
)

SPEC = BucketSpec(num_buckets=32, granularity=2, base_priority=100)
FAMILIES = [
    MultiWordFFSQueue,
    HierarchicalFFSQueue,
    CircularFFSQueue,
    GradientQueue,
    ApproximateGradientQueue,
    CircularGradientQueue,
    BucketedHeapQueue,
    BinaryHeapQueue,
]
# Valid for every family: inside the fixed families' [100, 164) range, with
# two pairs sharing a bucket and one rank repeated.
PAIRS = [(130, "a"), (131, "b"), (101, "c"), (131, "d"), (102, "e"), (150, "f")]


@pytest.mark.parametrize("family", FAMILIES, ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("k", [1, 2, 4, len(PAIRS) + 1])
@pytest.mark.parametrize("bad_rank", [1.5, True, "130"])
def test_a_failed_batch_keeps_its_validated_prefix(family, k, bad_rank):
    prefix = PAIRS[: k - 1]
    failed = family(SPEC)
    with pytest.raises(TypeError):
        failed.enqueue_batch(prefix + [(bad_rank, "bad")] + PAIRS[k - 1 :])
    batched = family(SPEC)
    assert batched.enqueue_batch(prefix) == len(prefix)
    singles = family(SPEC)
    for priority, item in prefix:
        singles.enqueue(priority, item)
    assert len(failed) == len(singles) == len(prefix)
    assert failed.stats == batched.stats
    drained = failed.extract_min_batch(len(PAIRS))
    assert drained == singles.extract_min_batch(len(PAIRS))
    assert sorted(drained) == sorted(prefix)
