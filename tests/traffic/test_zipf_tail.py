"""The streaming Zipf sampler's tail search against the bisection it replaced.

Past the exact head, ``ZipfFlowSampler._rank_for`` guesses a rank from the
closed-form inverse of the tail integral and corrects it on ``_harmonic``.
The flow ids it returns must be exactly those of the plain bisection over
``_harmonic`` that came before it, kept here as the oracle; that holds
wherever the float ``H(k)`` never decreases, which the exhaustive checks
below confirm for the universes the workloads draw from.
"""

from __future__ import annotations

import bisect
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traffic import ZipfFlowSampler

HEAD = ZipfFlowSampler.STREAMING_HEAD

#: Skews the callers pass (scenario specs, benchmarks, examples).
CALLER_SKEWS = (0.0, 1.0, 1.05, 1.1, 1.2, 1.8)


class Streaming(ZipfFlowSampler):
    """Forced onto the streaming path, counting ``_harmonic`` evaluations."""

    MATERIALIZE_LIMIT = 1
    evaluations = 0

    def _harmonic(self, k: int) -> float:
        self.evaluations += 1
        return super()._harmonic(k)


def bisection_rank_for(self, target: float) -> int:
    """The search this sampler used before the guess-and-correct one."""
    head_cum = self._head_cum
    index = bisect.bisect_left(head_cum, target)
    if index < len(head_cum):
        return index
    lo, hi = len(head_cum) + 1, self.num_flows  # 1-based k bracket
    while lo < hi:
        mid = (lo + hi) // 2
        if self._harmonic(mid) >= target:
            hi = mid
        else:
            lo = mid + 1
    return lo - 1


class Bisection(Streaming):
    _rank_for = bisection_rank_for


def _pair(num_flows: int, skew: float, seed: int = 0):
    return Streaming(num_flows, skew=skew, seed=seed), Bisection(
        num_flows, skew=skew, seed=seed
    )


def _search_bound(num_flows: int) -> int:
    """Guess, neighbour, gallop and bisect: O(log n) evaluations at worst."""
    return 2 * math.ceil(math.log2(num_flows)) + 4


skews = st.one_of(
    st.sampled_from(CALLER_SKEWS),
    st.floats(0.0, 3.0).filter(lambda skew: abs(skew - 1.0) >= 1e-6),
)


@settings(max_examples=40, deadline=None)
@given(
    num_flows=st.integers(HEAD + 1, 3_000_000),
    skew=skews,
    seed=st.integers(0, 2**32 - 1),
)
def test_flow_ids_equal_the_bisection(num_flows, skew, seed):
    fast, oracle = _pair(num_flows, skew, seed)
    assert fast.sample_flows(2_000) == oracle.sample_flows(2_000)


class PlacedGuess(Streaming):
    """The correction alone, started ``offset`` ranks from ``anchor``."""

    anchor = offset = 0

    def _tail_guess(self, first: int, mass: float) -> int:
        return min(self.num_flows, max(first, self.anchor + self.offset))


@settings(max_examples=60, deadline=None)
@given(
    num_flows=st.integers(HEAD + 2, 400_000),
    skew=st.sampled_from(CALLER_SKEWS),
    offset=st.one_of(st.integers(-10, 10), st.integers(-400_000, 400_000)),
    pick=st.one_of(st.floats(0.0, 1.0), st.sampled_from((0.0, 1.0))),
    nudge=st.sampled_from((-1, 0, 1)),
)
def test_any_guess_corrects_to_the_bisection(num_flows, skew, offset, pick, nudge):
    """Exact ``H(k)`` targets (and one float either side) from any start.

    Starting a few ranks off the answer puts an exact ``H(k)`` under every
    comparison of the neighbour check and the gallop.
    """
    sampler = PlacedGuess(num_flows, skew=skew)
    oracle = Bisection(num_flows, skew=skew)
    k = HEAD + 1 + round(pick * (num_flows - HEAD - 1))
    target = oracle._harmonic(k)
    if nudge:
        target = math.nextafter(target, math.inf * nudge)
    if target <= sampler._head_cum[-1]:
        return  # resolved by the head bisect, not the tail search
    want = bisection_rank_for(oracle, target)
    sampler.anchor, sampler.offset = want + 1, offset
    sampler.evaluations = 0
    assert sampler._rank_for(target) == want
    assert sampler.evaluations <= _search_bound(num_flows)


@pytest.mark.parametrize("skew", CALLER_SKEWS)
def test_guesses_near_the_answer_land_on_it(skew):
    """Every start within 12 ranks, on exact and nudged ``H(k)`` targets."""
    num_flows = 250_000
    sampler = PlacedGuess(num_flows, skew=skew)
    oracle = Bisection(num_flows, skew=skew)
    for k in (HEAD + 1, HEAD + 2, HEAD + 17, 100_000, num_flows - 1, num_flows):
        exact = oracle._harmonic(k)
        for target in (math.nextafter(exact, 0.0), exact, math.nextafter(exact, math.inf)):
            if target <= sampler._head_cum[-1]:
                continue
            want = bisection_rank_for(oracle, target)
            sampler.anchor = want + 1
            for offset in range(-12, 13):
                sampler.offset = offset
                assert sampler._rank_for(target) == want, (k, target, offset)


@pytest.mark.parametrize("skew", CALLER_SKEWS)
def test_bracket_edges(skew):
    num_flows = 1_200_000
    fast, oracle = _pair(num_flows, skew)
    head_top = fast._head_cum[-1]
    total = fast._harmonic(num_flows)
    assert total == fast._total
    targets = {
        "just past the head": math.nextafter(head_top, math.inf),
        "first tail rank": fast._harmonic(HEAD + 1),
        "exactly H(n)": total,
        "just under H(n)": math.nextafter(total, 0.0),
        "past H(n)": total * 2.0,
        "infinite": math.inf,
    }
    for name, target in targets.items():
        assert fast._rank_for(target) == bisection_rank_for(oracle, target), name
    assert fast._rank_for(math.nextafter(head_top, math.inf)) == HEAD
    assert fast._rank_for(total) == num_flows - 1
    assert fast._rank_for(total * 2.0) == num_flows - 1  # clamped to the last id


@pytest.mark.parametrize("skew", CALLER_SKEWS + (0.5, 2.5))
def test_guess_stays_inside_the_tail(skew):
    """Masses past the universe (overflowing the inverse) clamp to its end."""
    sampler = Streaming(1_200_000, skew=skew)
    for mass in (1e300, math.inf):
        assert sampler._tail_guess(HEAD + 1, mass) == 1_200_000
    assert sampler._tail_guess(HEAD + 1, 1e-300) == HEAD + 1


def test_universe_one_past_the_head():
    fast, oracle = _pair(HEAD + 1, 1.2)
    for target in (math.nextafter(fast._head_cum[-1], math.inf), fast._total * 2.0):
        assert fast._rank_for(target) == bisection_rank_for(oracle, target) == HEAD


@pytest.mark.parametrize("num_flows, skew", [(1_200_000, 1.05), (1_000_000, 1.1)])
def test_float_harmonic_strictly_increases_over_the_tail(num_flows, skew):
    """Where the tail search and the bisection must agree draw for draw."""
    harmonic = ZipfFlowSampler(num_flows, skew=skew)._harmonic
    previous = harmonic(HEAD)
    flat_or_falling = 0
    for k in range(HEAD + 1, num_flows + 1):
        value = harmonic(k)
        if value <= previous:
            flat_or_falling += 1
        previous = value
    assert flat_or_falling == 0


def test_search_stays_logarithmic_where_float_harmonic_falls():
    """At skew 1 + 1e-11 the power form's cancellation makes H jitter."""
    num_flows = 300_000
    sampler = Streaming(num_flows, skew=1.0 + 1e-11, seed=5)
    harmonic = sampler._harmonic
    falls = sum(harmonic(k) < harmonic(k - 1) for k in range(HEAD + 2, num_flows + 1))
    assert falls > 50_000  # 101,556 on x86-64 Linux
    lo, hi = sampler._head_cum[-1], sampler._total
    bound = _search_bound(num_flows)
    for step in range(1, 2_001):
        target = lo + (hi - lo) * step / 2_000
        sampler.evaluations = 0
        rank = sampler._rank_for(target)
        assert HEAD <= rank < num_flows
        assert sampler.evaluations <= bound


def test_tail_draws_cost_at_most_three_evaluations():
    """100,000 draws of the megaflow universe, before and after."""
    fast, oracle = _pair(1_200_000, 1.05, seed=11)
    flows = fast.sample_flows(100_000)
    assert flows == oracle.sample_flows(100_000)
    tail_draws = sum(flow >= HEAD for flow in flows)
    assert tail_draws == 30_425
    assert oracle.evaluations == 615_865  # 20.24 per tail draw
    assert fast.evaluations <= 3 * tail_draws
