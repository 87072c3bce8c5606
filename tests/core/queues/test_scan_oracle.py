"""The walked scans, kept as the oracle for the charged ones.

``ApproximateGradientQueue._linear_search``,
``MultiWordFFSQueue._min_bucket`` and ``SortedListQueue.enqueue`` model a
sequential scan.  ``src/`` computes
what the scan finds and how many steps it takes from an occupancy mask and
adds that count to the ``QueueStats`` counter; the loops that *perform* the
scan live here, as the reference the charged form must match: same selected
bucket, same value in every ``QueueStats`` field, after every operation.

The oracle classes share enqueue / extract code with ``src/`` but locate the
minimum from the bucket FIFOs (``_buckets`` / ``_words``) alone, never from
the masks, and the approximate oracle recomputes every float weight instead
of reading the precomputed table — so a mask or table that drifts from the
real occupancy shows up as a differing bucket, counter or coefficient.
"""

import math

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.queues import (
    ApproximateGradientQueue,
    BucketSpec,
    EmptyQueueError,
    GradientQueue,
    MultiWordFFSQueue,
    SortedListQueue,
)
from repro.core.queues.base import validate_priority
from repro.core.queues.ffs import find_first_set

# -- the walked loops ----------------------------------------------------------


def walked_linear_search(queue, start):
    """Scan outward from ``start``, one ``linear_scans`` per bucket visited."""
    for bucket in range(start + 1, queue.spec.num_buckets):
        queue.stats.linear_scans += 1
        if queue._buckets[bucket]:
            return bucket
    for bucket in range(start - 1, -1, -1):
        queue.stats.linear_scans += 1
        if queue._buckets[bucket]:
            return bucket
    raise EmptyQueueError("no non-empty bucket found")


def walked_estimate_bucket(queue):
    """The one-step estimate as the paper states it, one ``divisions`` a lookup.

    ``ceil(b / a) + u(alpha)`` is the estimated maximum non-empty internal
    index, clamped into the external range; ``a <= 0`` or an overflowing
    ``b / a`` (the float sums cancelled) starts the scan at bucket 0.
    """
    queue.stats.divisions += 1
    if not queue._nonempty:
        raise EmptyQueueError("approximate gradient queue is empty")
    if queue._a <= 0.0:
        return 0
    try:
        estimate = math.ceil(queue._b / queue._a) + queue.shift
    except OverflowError:
        return 0
    return min(max(queue._top - estimate, 0), queue.spec.num_buckets - 1)


def walked_true_min_bucket(queue):
    for bucket, entries in enumerate(queue._buckets):
        if entries:
            return bucket
    raise EmptyQueueError("queue is empty")


def walked_multiword_min_bucket(queue):
    """Read the bitmap words in order, one ``word_scans`` per word read."""
    for word_index, word in enumerate(queue._words):
        queue.stats.word_scans += 1
        if word:
            return word_index * queue.word_width + find_first_set(word)
    raise EmptyQueueError("no non-empty bucket")


class WalkedApproximateGradientQueue(ApproximateGradientQueue):
    """Lookup by walking the buckets; weights recomputed at every update."""

    def _mark_nonempty(self, bucket):
        internal = self._top - bucket
        weight = 2.0 ** (internal / self.alpha)
        self._a += weight
        self._b += internal * weight
        self._nonempty += 1

    def _mark_empty(self, bucket):
        internal = self._top - bucket
        weight = 2.0 ** (internal / self.alpha)
        self._a -= weight
        self._b -= internal * weight
        self._nonempty -= 1
        if self._nonempty == 0:
            self._a = 0.0
            self._b = 0.0

    def _min_bucket(self):
        bucket = walked_estimate_bucket(self)
        if self._buckets[bucket]:
            selected = bucket
        else:
            selected = self._linear_search(bucket)
        if self.track_errors:
            true_min = walked_true_min_bucket(self)
            self._selections += 1
            if selected != true_min:
                self.stats.selection_errors += 1
                self._selection_error_total += abs(selected - true_min)
        return selected

    def _linear_search(self, start):
        return walked_linear_search(self, start)


class WalkedMultiWordFFSQueue(MultiWordFFSQueue):
    def _min_bucket(self):
        return walked_multiword_min_bucket(self)


class WalkedSortedListQueue(SortedListQueue):
    """Insertion by walking from the tail, one ``linear_scans`` per entry passed."""

    def enqueue(self, priority, item):
        priority = validate_priority(priority)
        self.stats.enqueues += 1
        entry = (priority, next(self._counter), item)
        index = len(self._entries)
        while index > 0 and self._entries[index - 1][:2] > entry[:2]:
            index -= 1
            self.stats.linear_scans += 1
        self._entries.insert(index, entry)
        self._size += 1


# -- driving both with the same operations ---------------------------------------


def operations(num_buckets):
    """Hypothesis strategy: a sequence of queue operations over the range."""
    rank = st.integers(min_value=0, max_value=num_buckets - 1)
    limit = st.one_of(st.none(), st.integers(min_value=0, max_value=6))
    return st.lists(
        st.one_of(
            st.tuples(st.just("enqueue"), rank),
            st.tuples(st.just("enqueue_batch"), st.lists(rank, max_size=8)),
            st.tuples(st.just("peek_min")),
            st.tuples(st.just("extract_min")),
            st.tuples(st.just("extract_min_batch"), st.integers(min_value=0, max_value=6)),
            st.tuples(st.just("extract_due"), rank, limit),
        ),
        max_size=60,
    )


def apply(queue, op, serial):
    """Run one operation; what it returned (or the error type it raised)."""
    kind = op[0]
    try:
        if kind == "enqueue":
            return queue.enqueue(op[1], serial)
        if kind == "enqueue_batch":
            return queue.enqueue_batch([(rank, (serial, i)) for i, rank in enumerate(op[1])])
        if kind == "peek_min":
            return queue.peek_min()
        if kind == "extract_min":
            return queue.extract_min()
        if kind == "extract_min_batch":
            return queue.extract_min_batch(op[1])
        return queue.extract_due(op[1], limit=op[2])
    except EmptyQueueError:
        return EmptyQueueError


def state(queue):
    """Everything the two forms must agree on between operations."""
    observed = {"stats": queue.stats.as_dict(), "size": len(queue)}
    if isinstance(queue, ApproximateGradientQueue):
        observed["curvature"] = (queue._a, queue._b)
        observed["errors"] = (queue._selections, queue._selection_error_total)
    if isinstance(queue, SortedListQueue):
        observed["stored"] = list(queue._entries)
    return observed


def assert_same_after_every_operation(charged, walked, ops):
    for serial, op in enumerate(ops):
        assert apply(charged, op, serial) == apply(walked, op, serial), op
        assert state(charged) == state(walked), op
        if len(charged) and hasattr(charged, "_min_bucket"):
            # The selected bucket itself (both sides are charged the lookup).
            assert charged._min_bucket() == walked._min_bucket(), op
            assert state(charged) == state(walked), op


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_charged_linear_search_equals_walked(data):
    num_buckets = data.draw(st.integers(min_value=1, max_value=200))
    alpha = data.draw(st.sampled_from([1, 2, 4, 16]))
    track = data.draw(st.booleans())
    spec = BucketSpec(num_buckets=num_buckets)
    assert_same_after_every_operation(
        ApproximateGradientQueue(spec, alpha=alpha, track_errors=track),
        WalkedApproximateGradientQueue(spec, alpha=alpha, track_errors=track),
        data.draw(operations(num_buckets)),
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_charged_word_scan_equals_walked(data):
    num_buckets = data.draw(st.integers(min_value=1, max_value=200))
    word_width = data.draw(st.sampled_from([1, 4, 8, 64]))
    spec = BucketSpec(num_buckets=num_buckets)
    assert_same_after_every_operation(
        MultiWordFFSQueue(spec, word_width=word_width),
        WalkedMultiWordFFSQueue(spec, word_width=word_width),
        data.draw(operations(num_buckets)),
    )


@settings(max_examples=150, deadline=None)
@given(operations(12))
def test_charged_tail_scan_equals_walked(ops):
    # Twelve ranks over up to 60 operations: ties and out-of-order arrivals
    # in nearly every stream.
    assert_same_after_every_operation(SortedListQueue(), WalkedSortedListQueue(), ops)


# -- the named cases -----------------------------------------------------------------


def approx_pair(num_buckets, alpha=16):
    spec = BucketSpec(num_buckets=num_buckets)
    return (
        ApproximateGradientQueue(spec, alpha=alpha),
        WalkedApproximateGradientQueue(spec, alpha=alpha),
    )


def multiword_pair(num_buckets, word_width):
    spec = BucketSpec(num_buckets=num_buckets)
    return (
        MultiWordFFSQueue(spec, word_width=word_width),
        WalkedMultiWordFFSQueue(spec, word_width=word_width),
    )


class TestLinearSearchCases:
    def test_nothing_above_start_turns_the_scan_downward(self):
        charged, walked = approx_pair(64)
        for queue in (charged, walked):
            queue.enqueue_batch([(3, "a"), (10, "b")])
            # Up from 40 runs off the end (23 buckets), then down to 10 (30).
            assert queue._linear_search(40) == 10
            assert queue.stats.linear_scans == 23 + 30
        assert state(charged) == state(walked)

    def test_scan_upward_stops_at_first_occupied_bucket(self):
        charged, walked = approx_pair(64)
        for queue in (charged, walked):
            queue.enqueue_batch([(3, "a"), (10, "b"), (50, "c")])
            assert queue._linear_search(5) == 10
            assert queue.stats.linear_scans == 5
        assert state(charged) == state(walked)

    def test_empty_queue_is_charged_the_whole_range_before_raising(self):
        for start in (0, 17, 63):
            for queue in approx_pair(64):
                with pytest.raises(EmptyQueueError):
                    queue._linear_search(start)
                assert queue.stats.linear_scans == 63

    def test_estimate_clamped_at_bucket_zero(self):
        # Two light buckets at the low-priority end: b/a + u(alpha) lands
        # above the top internal index, i.e. below external bucket 0.
        charged, walked = approx_pair(64)
        for queue in (charged, walked):
            queue.enqueue_batch([(1, "a"), (2, "b")])
            estimate = math.ceil(queue._b / queue._a) + queue.shift
            assert queue._top - estimate < 0  # the external bucket
            assert walked_estimate_bucket(queue) == 0
            assert queue.extract_min() == (1, "a")
            assert queue.stats.linear_scans == 1
        assert state(charged) == state(walked)

    def test_estimate_clamped_at_last_bucket(self):
        # ceil(b/a) + u(alpha) of real sums never falls below the lowest
        # occupied internal index, so only float drift reaches this clamp;
        # a negated ``b`` stands in for it.  The scan has nowhere to go but
        # downward.
        charged, walked = approx_pair(64)
        for queue in (charged, walked):
            queue.enqueue(5, "only")
            queue._b = -queue._b
            assert walked_estimate_bucket(queue) == 63
            assert queue._min_bucket() == 5
            assert queue.stats.linear_scans == 63 - 5
        assert state(charged) == state(walked)

    def test_bucket_emptied_and_refilled_inside_one_enqueue_batch(self):
        charged, walked = approx_pair(64)

        def refill(queue):
            assert queue.extract_min() == (20, "old")  # bucket 20 goes empty
            yield (20, "new")
            yield (41, "far")

        for queue in (charged, walked):
            queue.enqueue(20, "old")
            assert queue.enqueue_batch(refill(queue)) == 2
            assert queue.extract_due(63) == [(20, "new"), (41, "far")]
            assert queue.empty
        assert state(charged) == state(walked)
        assert charged._occupied == 0


class TestWordScanCases:
    def test_last_word_partial(self):
        # 70 buckets in 64-bit words: word 1 holds buckets 64..69 only.
        charged, walked = multiword_pair(70, 64)
        for queue in (charged, walked):
            assert queue.num_words == 2
            queue.enqueue(69, "last")
            assert queue.peek_min() == (69, "last")
            assert queue.stats.word_scans == 2
            queue.enqueue(63, "edge")
            assert queue.extract_min() == (63, "edge")
            assert queue.stats.word_scans == 3
            assert queue.extract_min() == (69, "last")
            assert queue.stats.word_scans == 5
        assert state(charged) == state(walked)
        assert charged._nonzero_words == 0

    def test_word_width_other_than_64(self):
        charged, walked = multiword_pair(30, 8)
        for queue in (charged, walked):
            assert queue.num_words == 4
            queue.enqueue_batch([(29, "d"), (17, "c"), (8, "b")])
            assert queue.extract_min_batch(3) == [(8, "b"), (17, "c"), (29, "d")]
            assert queue.stats.word_scans == 2 + 3 + 4
        assert state(charged) == state(walked)

    def test_empty_queue_is_charged_every_word_before_raising(self):
        for queue in multiword_pair(200, 64):
            with pytest.raises(EmptyQueueError):
                queue._min_bucket()
            assert queue.stats.word_scans == 4

    def test_bucket_emptied_and_refilled_inside_one_enqueue_batch(self):
        charged, walked = multiword_pair(200, 64)

        def refill(queue):
            assert queue.extract_min() == (130, "old")  # word 2 goes to zero
            yield (130, "new")
            yield (131, "same word")

        for queue in (charged, walked):
            queue.enqueue(130, "old")
            assert queue.enqueue_batch(refill(queue)) == 2
            assert queue.extract_due(199, limit=1) == [(130, "new")]
            assert queue.extract_due(199) == [(131, "same word")]
        assert state(charged) == state(walked)
        assert charged._nonzero_words == 0 and not any(charged._words)


class TestTailScanCases:
    def test_tie_goes_behind_every_equal_rank(self):
        for queue in (SortedListQueue(), WalkedSortedListQueue()):
            queue.enqueue_batch([(5, "a"), (5, "b"), (9, "c")])
            scans = queue.stats.linear_scans
            queue.enqueue(5, "d")  # passes 9 only, stops behind both 5s
            assert queue.stats.linear_scans == scans + 1
            assert queue.extract_min_batch(4) == [(5, "a"), (5, "b"), (5, "d"), (9, "c")]

    def test_smallest_rank_passes_the_whole_list(self):
        for queue in (SortedListQueue(), WalkedSortedListQueue()):
            for rank in (7, 3, 7, 1):
                queue.enqueue(rank, rank)
            assert queue.stats.linear_scans == 0 + 1 + 0 + 3
            assert [rank for rank, _ in queue.extract_all()] == [1, 3, 7, 7]


# -- the memoised critical point ---------------------------------------------------


def fresh_min_bucket(queue):
    a, b = queue.curvature_coefficients()
    return queue.spec.num_buckets - 1 - -(-b // a)


MUTATIONS = {
    "enqueue": lambda q: q.enqueue(3, "x"),
    "enqueue_batch": lambda q: q.enqueue_batch([(2, "x"), (90, "y")]),
    "extract_min": lambda q: q.extract_min(),
    "extract_min_batch": lambda q: q.extract_min_batch(2),
    # Bucket 2 covers ranks 8..11: due as a whole at 11, head by head at 10.
    "extract_due whole bucket": lambda q: q.extract_due(11),
    "extract_due head by head": lambda q: q.extract_due(10),
}


@pytest.mark.parametrize("name", MUTATIONS)
def test_every_coefficient_change_invalidates_the_memoised_critical_point(name):
    queue = GradientQueue(BucketSpec(num_buckets=1250, granularity=4))
    for rank in (10, 40, 4999):
        queue.enqueue(rank, rank)
    assert queue.peek_min() == (10, 10)
    before = queue.curvature_coefficients()
    MUTATIONS[name](queue)
    assert queue.curvature_coefficients() != before
    divisions = queue.stats.divisions
    assert queue._min_bucket() == fresh_min_bucket(queue)
    assert queue.spec.bucket_for(queue.peek_min()[0]) == fresh_min_bucket(queue)
    assert queue.stats.divisions == divisions + 2


def test_memoised_lookup_is_still_charged_one_division():
    queue = GradientQueue(BucketSpec(num_buckets=64))
    queue.enqueue(7, "a")
    for lookups in range(1, 6):
        assert queue.peek_min() == (7, "a")
        assert queue.stats.divisions == lookups
    # A second entry in an occupied bucket leaves the coefficients alone.
    before = queue.curvature_coefficients()
    queue.enqueue(7, "b")
    assert queue.curvature_coefficients() == before
    assert queue.extract_min() == (7, "a")
    assert queue.peek_min() == (7, "b")
    assert queue.stats.divisions == 7
