"""Integer priority queues — Eiffel's efficiency contribution (Objective 1).

This package contains every queuing data structure the paper builds on,
proposes, or compares against:

* :class:`FixedRangeBucketQueue` — the bucket store and every operation of
  the fixed-range families below, which are each an index over it; a new
  bucketed family is three methods (``_mark_nonempty``, ``_mark_empty``,
  ``_min_bucket``).
* :class:`FFSQueue` / :class:`MultiWordFFSQueue` — single- and multi-word
  Find-First-Set bucketed queues over a fixed range.
* :class:`HierarchicalFFSQueue` — the PIQ-style bitmap tree for large bucket
  counts.
* :class:`CircularFFSQueue` — the paper's **cFFS**: two hierarchical FFS
  queues rotating over a moving rank range.
* :class:`GradientQueue` / :class:`ApproximateGradientQueue` — exact and
  approximate algebraic (curvature-based) queues, plus their circular
  variants.
* :class:`BucketedHeapQueue` — the "BH" bucketed baseline of Section 5.2.
* :class:`BinaryHeapQueue`, :class:`RBTreeQueue`, :class:`SortedListQueue` —
  comparison-based baselines used by FQ/pacing, hClock, and ns-2 pFabric.
* :class:`TimingWheel` / :class:`HierarchicalTimingWheel` — Carousel's
  substrate.
* :func:`recommend_queue` — the Figure 20 selection guide.
"""

from .base import (
    BucketSpec,
    EmptyQueueError,
    FixedRangeBucketQueue,
    IntegerPriorityQueue,
    PriorityOutOfRangeError,
    QueueError,
    QueueStats,
)
from .bucket_heap import BucketedHeapQueue
from .circular_ffs import CircularFFSQueue
from .circular_gradient import (
    CircularApproximateGradientQueue,
    CircularGradientQueue,
    CircularQueueAdapter,
)
from .comparison import BinaryHeapQueue, RBTreeQueue, SortedListQueue
from .ffs import FFSQueue, MultiWordFFSQueue, find_first_set, find_last_set
from .gradient import (
    ApproximateGradientQueue,
    GradientQueue,
    gradient_capacity,
    gradient_shift,
    gradient_start_index,
)
from .hierarchical_ffs import FFSBitmapTree, HierarchicalFFSQueue
from .selection import (
    CANONICAL_PROFILES,
    PRIORITY_LEVEL_THRESHOLD,
    QueueKind,
    Recommendation,
    WorkloadProfile,
    build_recommended_queue,
    recommend_queue,
)
from .timing_wheel import HierarchicalTimingWheel, TimingWheel

__all__ = [
    "ApproximateGradientQueue",
    "BinaryHeapQueue",
    "BucketSpec",
    "BucketedHeapQueue",
    "CANONICAL_PROFILES",
    "CircularApproximateGradientQueue",
    "CircularFFSQueue",
    "CircularGradientQueue",
    "CircularQueueAdapter",
    "EmptyQueueError",
    "FFSBitmapTree",
    "FFSQueue",
    "FixedRangeBucketQueue",
    "GradientQueue",
    "HierarchicalFFSQueue",
    "HierarchicalTimingWheel",
    "IntegerPriorityQueue",
    "MultiWordFFSQueue",
    "PRIORITY_LEVEL_THRESHOLD",
    "PriorityOutOfRangeError",
    "QueueError",
    "QueueKind",
    "QueueStats",
    "RBTreeQueue",
    "Recommendation",
    "SortedListQueue",
    "TimingWheel",
    "WorkloadProfile",
    "build_recommended_queue",
    "find_first_set",
    "find_last_set",
    "gradient_capacity",
    "gradient_shift",
    "gradient_start_index",
    "recommend_queue",
]
