"""The item surface against the pair surface, family by family.

A queue holds either ``(rank, item)`` pairs or bare items that carry their
rank in ``item.rank`` (the shard queue's stamped packets).  The bucket
stores — ``FixedRangeBucketQueue`` and the cFFS — place and drain both
through one loop each, told per call how to read an entry's rank; every
other queue pairs the items up behind the default item surface.  Fed the
same ranks, with the same drains in between, the two surfaces must release
the same items in the same order and leave equal ``QueueStats`` and equal
error totals after every call.

The cFFS runs with eight buckets, so its windows rotate, ranks land in the
overflow bucket and are re-bucketed — paths no benchmark workload reaches.
"""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.queues import (
    ApproximateGradientQueue,
    BinaryHeapQueue,
    BucketSpec,
    CircularFFSQueue,
    CircularGradientQueue,
    GradientQueue,
    HierarchicalFFSQueue,
)


@dataclass(eq=False)
class Ranked:
    """An item that carries its own rank, as a stamped packet does."""

    rank: object
    ident: int


#: 8 buckets of 4 ranks: one window spans 32 ranks, both windows 64.
CIRCULAR_SPEC = BucketSpec(num_buckets=8, granularity=4)
#: 32 buckets of 2 ranks over [100, 164).
FIXED_SPEC = BucketSpec(num_buckets=32, granularity=2, base_priority=100)

#: name -> (factory, moving range)
FAMILIES = {
    "circular_ffs": (lambda: CircularFFSQueue(CIRCULAR_SPEC), True),
    "circular_ffs_strict": (lambda: CircularFFSQueue(CIRCULAR_SPEC, allow_stale=False), True),
    "hierarchical_ffs": (lambda: HierarchicalFFSQueue(FIXED_SPEC), False),
    "gradient": (lambda: GradientQueue(FIXED_SPEC), False),
    "approx_gradient": (lambda: ApproximateGradientQueue(FIXED_SPEC, alpha=4), False),
    # Pair-only families: the default item surface pairs the items up.
    "binary_heap": (lambda: BinaryHeapQueue(), True),
    "circular_gradient": (lambda: CircularGradientQueue(CIRCULAR_SPEC), True),
}

families = pytest.mark.parametrize("family", list(FAMILIES))


class Twins:
    """One queue per surface, driven in lockstep and compared after each call."""

    def __init__(self, family):
        factory, self.moving = FAMILIES[family]
        self.pairs = factory()
        self.items = factory()
        self.errors = {"pairs": [], "items": []}
        self.released = 0
        self._ident = 0

    def _call(self, pair_call, item_call):
        outcome = {}
        for side, call in (("pairs", pair_call), ("items", item_call)):
            try:
                outcome[side] = call()
            except Exception as error:  # compared below, type for type
                self.errors[side].append(type(error))
                outcome[side] = None
        assert self.errors["pairs"] == self.errors["items"]
        assert self.pairs.stats == self.items.stats
        assert len(self.pairs) == len(self.items)
        return outcome["pairs"], outcome["items"]

    def enqueue(self, ranks):
        made = []
        for rank in ranks:
            made.append(Ranked(rank, self._ident))
            self._ident += 1
        return self._call(
            lambda: self.pairs.enqueue_batch([(item.rank, item) for item in made]),
            lambda: self.items.enqueue_items(made),
        )

    def _released(self, pairs, items):
        if pairs is None:
            assert items is None
            return []
        assert [item for _rank, item in pairs] == items
        assert [rank for rank, _item in pairs] == [item.rank for item in items]
        self.released += len(items)
        return items

    def due(self, now, limit):
        return self._released(
            *self._call(
                lambda: self.pairs.extract_due(now, limit=limit),
                lambda: self.items.extract_due_items(now, limit=limit),
            )
        )

    def batch(self, n):
        return self._released(
            *self._call(
                lambda: self.pairs.extract_min_batch(n),
                lambda: self.items.extract_min_items(n),
            )
        )

    def peek(self):
        pair, item = self._call(self.pairs.peek_min, self.items.peek_min_item)
        if pair is not None:
            assert pair == (item.rank, item)


def _origin(twins, clock):
    """Where offsets count from: the moving clock, or the fixed range's base."""
    return clock if twins.moving else FIXED_SPEC.base_priority


def _ranks(twins, clock, offsets):
    return [_origin(twins, clock) + offset for offset in offsets]


#: An invalid rank, tagged so it is not offset like the others.
_bad_rank = st.sampled_from([1.5, True, None]).map(lambda rank: ("bad", rank))
_step = st.one_of(
    st.tuples(
        st.just("enqueue"),
        st.lists(
            # Past the head, across both windows and far beyond (overflow),
            # or an invalid rank that must fail the same way on both sides.
            st.one_of(st.integers(-6, 40), st.integers(41, 400), _bad_rank),
            max_size=12,
        ),
    ),
    st.tuples(st.just("due"), st.integers(0, 24), st.one_of(st.none(), st.integers(0, 9))),
    st.tuples(st.just("batch"), st.integers(0, 9)),
    st.tuples(st.just("peek")),
)


def _run(family, steps):
    twins = Twins(family)
    clock = 0
    for step in steps:
        if step[0] == "enqueue":
            origin = _origin(twins, clock)
            twins.enqueue(
                [rank[1] if isinstance(rank, tuple) else origin + rank for rank in step[1]]
            )
        elif step[0] == "due":
            clock += step[1]
            twins.due(clock if twins.moving else FIXED_SPEC.base_priority + clock, step[2])
        elif step[0] == "batch":
            twins.batch(step[1])
        else:
            twins.peek()
    # Whatever is left comes out the same way too.
    twins.batch(len(twins.pairs))
    assert not twins.pairs and not twins.items
    return twins


@families
@settings(max_examples=150, deadline=None)
@given(steps=st.lists(_step, max_size=40))
def test_the_item_surface_releases_what_the_pair_surface_does(family, steps):
    _run(family, steps)


def test_the_small_cffs_rotates_overflows_and_rebuckets():
    # A fixed script through every rotation path, on both surfaces.
    steps = [
        ("enqueue", [0, 5, 31, 33, 63, 70, 150, 151, 300, -3]),
        ("due", 4, None),
        ("peek",),
        ("due", 40, 3),  # primary drains, rotates onto the window past it
        ("enqueue", [7, 90, 2000]),
        ("due", 60, None),
        ("batch", 2),
        ("due", 300, None),  # only far-future overflow left: fast-forward
        ("enqueue", [1, 2, 3]),
    ]
    twins = _run("circular_ffs", steps)
    stats = twins.items.stats
    assert stats.rotations > 0
    assert stats.overflow_enqueues > 0
    assert stats.linear_scans > 0  # overflow re-bucketed / fast-forwarded
    assert twins.released == 16


@families
def test_a_steal_grant_and_accept_move_items_between_queues(family):
    # The victim hands its due window to a thief, which splices it in; the
    # pair twins do the same with pairs.  Both thieves release alike.
    victim, thief = Twins(family), Twins(family)
    victim.enqueue(_ranks(victim, 0, [3, 1, 9, 1, 20, 2, 30]))
    thief.enqueue(_ranks(thief, 0, [4, 25]))
    cutoff = 10 if victim.moving else FIXED_SPEC.base_priority + 10
    pairs = victim.pairs.extract_due(cutoff, limit=4)
    lease = victim.items.extract_due_items(cutoff, limit=4)
    assert [item for _rank, item in pairs] == lease and len(lease) == 4
    thief._call(
        lambda: thief.pairs.enqueue_batch(pairs), lambda: thief.items.enqueue_items(lease)
    )
    released = thief.batch(len(thief.pairs))
    assert set(lease) < set(released) and len(released) == 6


@families
def test_a_crash_dump_drains_every_item_in_release_order(family):
    twins = Twins(family)
    twins.enqueue(_ranks(twins, 0, [12, 0, 38, 12, 5, 60, 7]))
    twins.due(2 if twins.moving else FIXED_SPEC.base_priority + 2, 1)
    dumped = twins.batch(len(twins.items))
    assert len(dumped) == 6 and not twins.items
    assert twins.items.extract_min_items(4) == [] and twins.pairs.extract_min_batch(4) == []
