"""Golden-equivalence suite: optimised queues vs a sorted-list reference.

The hot-path pass (``__slots__``, bucket-deque free lists, the cached bitmap
minimum, direct-append batch loops, whole-bucket drain fast paths) must be
*behaviour-preserving*: for every interleaving of operations, an optimised
queue must return exactly what the unoptimised reference semantics return.
The reference here is the simplest possible model — a sorted list of
``(priority, arrival_seq, item)`` — against which hypothesis drives random
interleavings of ``enqueue`` / ``enqueue_batch`` / ``extract_min`` /
``extract_min_batch`` / ``extract_due`` / ``remove`` / ``peek_min``.

Every exact queue must match the model verbatim.  The circular FFS queue is
driven within its initial primary window, where its contract is exact too
(its overflow-approximation behaviour across rotations is covered by the
dedicated cFFS tests and the batch-vs-single property suite).  The
approximate gradient queue is exempt by design — its contract allows
non-extremal selection — and stays under its own error-bound tests.
"""

import bisect
import itertools

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.queues import (
    BucketSpec,
    BucketedHeapQueue,
    CircularFFSQueue,
    EmptyQueueError,
    FFSQueue,
    GradientQueue,
    HierarchicalFFSQueue,
    MultiWordFFSQueue,
)

NUM_BUCKETS = 96  # <= one FFS word-width window for every queue under test
MAX_PRIORITY = NUM_BUCKETS - 1


class SortedListModel:
    """The unoptimised reference semantics: a sorted list with FIFO ties."""

    def __init__(self) -> None:
        self._entries: list[tuple[int, int, object]] = []
        self._seq = itertools.count()

    def enqueue(self, priority: int, item: object) -> None:
        bisect.insort(self._entries, (priority, next(self._seq), item))

    def enqueue_batch(self, pairs) -> int:
        for priority, item in pairs:
            self.enqueue(priority, item)
        return len(pairs)

    def extract_min(self):
        priority, _seq, item = self._entries.pop(0)
        return priority, item

    def extract_min_batch(self, n: int):
        batch = []
        while len(batch) < n and self._entries:
            batch.append(self.extract_min())
        return batch

    def extract_due(self, now: int, limit=None):
        released = []
        while self._entries and (limit is None or len(released) < limit):
            if self._entries[0][0] > now:
                break
            released.append(self.extract_min())
        return released

    def peek_min(self):
        priority, _seq, item = self._entries[0]
        return priority, item

    def remove(self, priority: int, item: object) -> bool:
        for index, entry in enumerate(self._entries):
            if entry[0] == priority and entry[2] is item:
                del self._entries[index]
                return True
        return False

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def empty(self) -> bool:
        return not self._entries


def queue_factories():
    spec = BucketSpec(num_buckets=NUM_BUCKETS)
    return {
        "ffs": lambda: FFSQueue(spec, word_width=NUM_BUCKETS),
        "multiword_ffs": lambda: MultiWordFFSQueue(spec, word_width=16),
        "hierarchical_ffs": lambda: HierarchicalFFSQueue(spec, word_width=8),
        "gradient": lambda: GradientQueue(spec),
        "bucket_heap": lambda: BucketedHeapQueue(spec),
        # Driven within the initial primary window, where cFFS is exact.
        "circular_ffs": lambda: CircularFFSQueue(spec, word_width=8),
    }


priorities = st.integers(min_value=0, max_value=MAX_PRIORITY)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("enqueue"), priorities),
        st.tuples(
            st.just("enqueue_batch"),
            st.lists(priorities, min_size=0, max_size=24),
        ),
        st.tuples(st.just("extract_min"), st.just(None)),
        st.tuples(st.just("extract_min_batch"), st.integers(0, 12)),
        st.tuples(
            st.just("extract_due"),
            st.tuples(priorities, st.one_of(st.none(), st.integers(0, 12))),
        ),
        st.tuples(st.just("peek_min"), st.just(None)),
        st.tuples(st.just("remove"), st.integers(min_value=0, max_value=40)),
    ),
    min_size=0,
    max_size=80,
)


def _run_interleaving(name, factory, ops) -> None:
    queue = factory()
    model = SortedListModel()
    items = itertools.count()  # unique payloads so identity checks are exact
    live: list[tuple[int, object]] = []  # (priority, item) still enqueued

    for op, arg in ops:
        if op == "enqueue":
            item = next(items)
            queue.enqueue(arg, item)
            model.enqueue(arg, item)
            live.append((arg, item))
        elif op == "enqueue_batch":
            pairs = [(priority, next(items)) for priority in arg]
            assert queue.enqueue_batch(pairs) == model.enqueue_batch(pairs)
            live.extend(pairs)
        elif op == "extract_min":
            if model.empty:
                continue
            got = queue.extract_min()
            assert got == model.extract_min(), name
            live.remove(got)
        elif op == "extract_min_batch":
            got = queue.extract_min_batch(arg)
            assert got == model.extract_min_batch(arg), name
            for pair in got:
                live.remove(pair)
        elif op == "extract_due":
            now, limit = arg
            got = queue.extract_due(now, limit=limit)
            assert got == model.extract_due(now, limit=limit), name
            for pair in got:
                live.remove(pair)
        elif op == "peek_min":
            if model.empty:
                continue
            assert queue.peek_min() == model.peek_min(), name
        elif op == "remove":
            if not live:
                continue
            priority, item = live[arg % len(live)]
            assert queue.remove(priority, item) is True, name
            assert model.remove(priority, item) is True
            live.remove((priority, item))

        # Shared invariants after every step.
        assert len(queue) == len(model), name
        assert queue.empty == model.empty, name

    # Final drain must agree element-for-element.
    while not model.empty:
        assert queue.extract_min() == model.extract_min(), name
    assert queue.empty, name
    try:
        queue.extract_min()
    except EmptyQueueError:
        pass
    else:  # pragma: no cover - would be a bug
        raise AssertionError(f"{name}: extract_min on empty queue did not raise")


@given(operations)
@settings(max_examples=120, deadline=None)
def test_queues_match_sorted_list_reference(ops):
    for name, factory in queue_factories().items():
        _run_interleaving(name, factory, ops)


@given(operations)
@settings(max_examples=60, deadline=None)
def test_free_list_reuse_is_invisible(ops):
    """Drain + refill cycles (maximum deque recycling) stay golden.

    Prefixing a full drain forces every bucket through the recycle path
    before the random interleaving runs, so a stale free-listed deque would
    surface as a mismatch.
    """
    for name, factory in queue_factories().items():
        queue = factory()
        # Occupy every bucket, then drain to push all deques through the
        # free list.
        queue.enqueue_batch([(p, p) for p in range(NUM_BUCKETS)])
        assert len(queue.extract_min_batch(NUM_BUCKETS)) == NUM_BUCKETS
        assert queue.empty
        # Now replay the random interleaving on the recycled structure.
        model = SortedListModel()
        items = itertools.count()
        for op, arg in ops:
            if op == "enqueue":
                item = next(items)
                queue.enqueue(arg, item)
                model.enqueue(arg, item)
            elif op == "enqueue_batch":
                pairs = [(priority, next(items)) for priority in arg]
                queue.enqueue_batch(pairs)
                model.enqueue_batch(pairs)
            elif op == "extract_due":
                now, limit = arg
                assert queue.extract_due(now, limit=limit) == model.extract_due(
                    now, limit=limit
                ), name
        while not model.empty:
            assert queue.extract_min() == model.extract_min(), name
        assert queue.empty, name
