"""Flow-size and inter-arrival distributions used by the evaluation workloads.

The pFabric / DCTCP literature evaluates datacenter transports on two
empirical flow-size distributions measured in production clusters:

* **web search** (DCTCP, Alizadeh et al.) — a mix dominated by short request
  /response flows with a heavy tail of multi-megabyte background flows;
* **data mining** (VL2/pFabric) — even heavier tailed: most flows are tiny
  but most *bytes* belong to flows of hundreds of megabytes.

The Figure 19 reproduction drives its simulated leaf-spine fabric with the
web-search distribution, exactly as the paper does.  Both distributions are
encoded as piecewise-linear CDFs (the standard representation shipped with
the pFabric ns-2 scripts) and sampled by inverse-transform sampling.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

#: Piecewise CDF of flow sizes (bytes, cumulative probability) for the DCTCP
#: web-search workload.
WEBSEARCH_SIZE_CDF: List[Tuple[int, float]] = [
    (6_000, 0.15),
    (13_000, 0.20),
    (19_000, 0.30),
    (33_000, 0.40),
    (53_000, 0.53),
    (133_000, 0.60),
    (667_000, 0.70),
    (1_333_000, 0.80),
    (3_333_000, 0.90),
    (6_667_000, 0.97),
    (20_000_000, 1.00),
]

#: Piecewise CDF of flow sizes for the VL2 / data-mining workload.
DATAMINING_SIZE_CDF: List[Tuple[int, float]] = [
    (100, 0.50),
    (1_000, 0.60),
    (10_000, 0.70),
    (30_000, 0.80),
    (100_000, 0.85),
    (1_000_000, 0.90),
    (10_000_000, 0.96),
    (100_000_000, 0.99),
    (1_000_000_000, 1.00),
]


@dataclass(frozen=True)
class EmpiricalCDF:
    """A piecewise-linear empirical CDF over positive values."""

    points: Sequence[Tuple[float, float]]

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("CDF needs at least one point")
        previous_value, previous_prob = 0.0, 0.0
        for value, prob in self.points:
            if value <= previous_value and previous_value > 0:
                raise ValueError("CDF values must be strictly increasing")
            if prob < previous_prob:
                raise ValueError("CDF probabilities must be non-decreasing")
            previous_value, previous_prob = value, prob
        if abs(self.points[-1][1] - 1.0) > 1e-9:
            raise ValueError("CDF must end at probability 1.0")

    def sample(self, rng: random.Random) -> float:
        """Inverse-transform sample from the CDF."""
        u = rng.random()
        probs = [prob for _value, prob in self.points]
        index = bisect.bisect_left(probs, u)
        index = min(index, len(self.points) - 1)
        hi_value, hi_prob = self.points[index]
        if index == 0:
            lo_value, lo_prob = 0.0, 0.0
        else:
            lo_value, lo_prob = self.points[index - 1]
        if hi_prob <= lo_prob:
            return hi_value
        fraction = (u - lo_prob) / (hi_prob - lo_prob)
        return lo_value + fraction * (hi_value - lo_value)

    def mean(self) -> float:
        """Mean of the piecewise-linear distribution."""
        total = 0.0
        lo_value, lo_prob = 0.0, 0.0
        for hi_value, hi_prob in self.points:
            mass = hi_prob - lo_prob
            total += mass * (lo_value + hi_value) / 2.0
            lo_value, lo_prob = hi_value, hi_prob
        return total

    def quantile(self, q: float) -> float:
        """Value at cumulative probability ``q``."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        probs = [prob for _value, prob in self.points]
        index = min(bisect.bisect_left(probs, q), len(self.points) - 1)
        hi_value, hi_prob = self.points[index]
        lo_value, lo_prob = (0.0, 0.0) if index == 0 else self.points[index - 1]
        if hi_prob <= lo_prob:
            return hi_value
        fraction = (q - lo_prob) / (hi_prob - lo_prob)
        return lo_value + fraction * (hi_value - lo_value)


class FlowSizeDistribution:
    """Samples flow sizes (bytes) from a named empirical workload."""

    WORKLOADS = {
        "websearch": WEBSEARCH_SIZE_CDF,
        "datamining": DATAMINING_SIZE_CDF,
    }

    def __init__(self, workload: str = "websearch", seed: Optional[int] = None) -> None:
        try:
            points = self.WORKLOADS[workload]
        except KeyError as exc:
            raise ValueError(
                f"unknown workload {workload!r}; choose from {sorted(self.WORKLOADS)}"
            ) from exc
        self.workload = workload
        self.cdf = EmpiricalCDF(points)
        self.rng = random.Random(seed)

    def sample_bytes(self) -> int:
        """One flow size in bytes."""
        return max(1, int(self.cdf.sample(self.rng)))

    def sample_packets(self, mtu_bytes: int = 1500) -> int:
        """One flow size in MTU-sized packets."""
        return max(1, math.ceil(self.sample_bytes() / mtu_bytes))

    def mean_bytes(self) -> float:
        """Mean flow size of the workload in bytes."""
        return self.cdf.mean()


class PoissonArrivals:
    """Exponential inter-arrival times targeting a given event rate."""

    def __init__(self, rate_per_sec: float, seed: Optional[int] = None) -> None:
        if rate_per_sec <= 0:
            raise ValueError("rate_per_sec must be positive")
        self.rate_per_sec = rate_per_sec
        self.rng = random.Random(seed)

    def next_gap_ns(self) -> int:
        """Nanoseconds until the next arrival."""
        return max(1, int(self.rng.expovariate(self.rate_per_sec) * 1e9))

    def arrival_times_ns(self, count: int, start_ns: int = 0) -> List[int]:
        """Absolute arrival times of the next ``count`` events."""
        times = []
        now = start_ns
        for _ in range(count):
            now += self.next_gap_ns()
            times.append(now)
        return times


class ZipfFlowSampler:
    """Samples flow ids with Zipf-distributed popularity.

    Flow ``k`` (0-based) is drawn with probability proportional to
    ``1 / (k + 1) ** skew`` — the classic heavy-head model of datacenter and
    CDN traffic where a handful of elephant flows carry most packets.  The
    sharding benchmarks use this to build the adversarial case for RSS-style
    flow hashing: a uniform hash places the hot flows on whichever shards
    they land on, creating load imbalance that a skew-aware rebalancer must
    repair.

    Seeding contract mirrors :class:`~repro.traffic.generators.FlowWorkload`:
    pass ``seed`` for standalone determinism, ``rng`` to chain off a caller's
    generator, or neither for OS entropy.

    Two interchangeable implementations sit behind the same interface:

    * up to :data:`MATERIALIZE_LIMIT` flows the full CDF is materialised and
      inverse-transform sampling is one bisect — unchanged from the original
      (committed benchmark artifacts replay the exact same sequences);
    * past the limit (million-flow churn universes) nothing proportional to
      ``num_flows`` is ever built.  Only the exact partial sums of the first
      :data:`STREAMING_HEAD` ranks are kept — at Zipf skew that head carries
      almost all the probability mass — and the tail is resolved through the
      Euler–Maclaurin closed form of the generalised harmonic number
      ``H(k) = sum_{i=1..k} i^-s`` (error ``O(k^-s-3)``, far below float
      resolution for the k > 4096 where it is used): construction is O(head).
      A tail sample inverts the integral term in closed form for a first
      guess at k, then corrects it on ``H`` itself (the guess and its
      neighbour, a gallop, a bisection inside the bracket) to the smallest
      k with ``H(k) >= target``.  A good guess costs two evaluations and a
      bad one O(log n).  The ids are those of a plain bisection over the
      same float ``H``: the guess only chooses where the search starts,
      and wherever that float ``H`` never decreases (every universe the
      workloads draw from), the smallest such k is unique.
    """

    #: Largest universe that still materialises the full CDF eagerly.
    MATERIALIZE_LIMIT = 65_536

    #: Exact-prefix length of the streaming implementation.
    STREAMING_HEAD = 4_096

    def __init__(
        self,
        num_flows: int,
        skew: float = 1.2,
        seed: Optional[int] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        if num_flows <= 0:
            raise ValueError("num_flows must be positive")
        if skew < 0:
            raise ValueError("skew must be non-negative")
        if seed is not None and rng is not None:
            raise ValueError("pass either seed or rng, not both")
        self.num_flows = num_flows
        self.skew = skew
        self.rng = rng if rng is not None else random.Random(seed)
        if num_flows <= self.MATERIALIZE_LIMIT:
            weights = [1.0 / (rank + 1) ** skew for rank in range(num_flows)]
            total = sum(weights)
            cumulative = 0.0
            self._cdf: List[float] = []
            for weight in weights:
                cumulative += weight / total
                self._cdf.append(cumulative)
            self._cdf[-1] = 1.0
            self._head_cum: List[float] = []
            self._total = total
        else:
            # Streaming: exact unnormalised prefix sums of the head ranks,
            # Euler–Maclaurin for everything beyond.
            self._cdf = []
            head = self.STREAMING_HEAD
            cumulative = 0.0
            self._head_cum = []
            for rank in range(head):
                cumulative += 1.0 / (rank + 1) ** skew
                self._head_cum.append(cumulative)
            self._total = cumulative + self._tail_sum(head + 1, num_flows)

    @property
    def materialized(self) -> bool:
        """True when the full CDF is held in memory (small universes)."""
        return bool(self._cdf)

    def _tail_sum(self, a: int, b: int) -> float:
        """``sum_{i=a}^{b} i**-s`` by Euler–Maclaurin (a > head, so smooth)."""
        if b < a:
            return 0.0
        s = self.skew
        if abs(1.0 - s) < 1e-12:
            integral = math.log(b / a)
        else:
            integral = (b ** (1.0 - s) - a ** (1.0 - s)) / (1.0 - s)
        endpoints = (a ** -s + b ** -s) / 2.0
        derivative = s * (a ** (-s - 1.0) - b ** (-s - 1.0)) / 12.0
        return integral + endpoints + derivative

    def _harmonic(self, k: int) -> float:
        """``H(k) = sum_{i=1..k} i**-s`` — exact head, closed-form tail."""
        head_cum = self._head_cum
        if k <= len(head_cum):
            return head_cum[k - 1] if k else 0.0
        return head_cum[-1] + self._tail_sum(len(head_cum) + 1, k)

    def _tail_guess(self, first: int, mass: float) -> int:
        """1-based ``k`` whose tail ``sum_{i=first..k} i**-s`` first reaches ``mass``.

        Inverts the midpoint integral ``int_{first-1/2}^{k+1/2} x**-s dx``,
        so the answer is a guess, often exact and otherwise a rank or two
        out; it may also exceed the universe, which the caller clamps.
        """
        s = self.skew
        edge = first - 0.5
        if abs(1.0 - s) < 1e-12:
            power = mass + math.log(edge)
            end = math.exp(power) if power < 700.0 else math.inf
        else:
            base = edge ** (1.0 - s) + (1.0 - s) * mass
            try:
                end = base ** (1.0 / (1.0 - s)) if base > 0.0 else math.inf
            except OverflowError:
                end = math.inf
        if end >= self.num_flows:
            return self.num_flows
        return max(first, math.ceil(end - 0.5))

    def _rank_for(self, target: float) -> int:
        """Smallest 0-based rank ``r`` with unnormalised ``H(r+1) >= target``.

        Past the exact head, a closed-form guess is corrected on
        ``_harmonic`` itself: check the guess and its neighbour, gallop
        outward, then bisect inside the bracket ``lo < k <= hi``, where
        ``H(lo) < target`` and ``H(hi) >= target`` unless ``hi`` is the
        last rank.
        """
        head_cum = self._head_cum
        index = bisect.bisect_left(head_cum, target)
        if index < len(head_cum):
            return index
        harmonic = self._harmonic
        first, last = len(head_cum) + 1, self.num_flows  # 1-based k bracket
        if first >= last:
            return first - 1
        # H(first - 1) = head_cum[-1] < target, so the answer lies in
        # (first - 1, last].  Like the bisection, the search never needs
        # H(last): a target past it resolves to last all the same.
        guess = self._tail_guess(first, target - head_cum[-1])
        if harmonic(guess) >= target:
            hi = guess
            if hi == first or harmonic(hi - 1) < target:
                return hi - 1
            hi -= 1
            step, lo = 1, first - 1
            while hi - step > first - 1:
                if harmonic(hi - step) < target:
                    lo = hi - step
                    break
                hi -= step
                step *= 2
        else:
            lo = guess
            if lo == last:
                return last - 1
            if harmonic(lo + 1) >= target:
                return lo
            lo += 1
            step, hi = 1, last
            while lo + step < last:
                if harmonic(lo + step) >= target:
                    hi = lo + step
                    break
                lo += step
                step *= 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if harmonic(mid) >= target:
                hi = mid
            else:
                lo = mid
        return hi - 1

    def sample_flow(self) -> int:
        """One flow id in ``[0, num_flows)``, hot flows first."""
        if self._cdf:
            return min(
                bisect.bisect_left(self._cdf, self.rng.random()), self.num_flows - 1
            )
        target = self.rng.random() * self._total
        return min(self._rank_for(target), self.num_flows - 1)

    def sample_flows(self, count: int) -> List[int]:
        """A sequence of ``count`` flow ids."""
        return [self.sample_flow() for _ in range(count)]

    def probability(self, flow_id: int) -> float:
        """Probability mass of ``flow_id``."""
        if not 0 <= flow_id < self.num_flows:
            raise ValueError("flow_id out of range")
        if self._cdf:
            lo = self._cdf[flow_id - 1] if flow_id else 0.0
            return self._cdf[flow_id] - lo
        return (flow_id + 1) ** -self.skew / self._total


def load_for_fabric(
    target_load: float,
    link_bps: float,
    num_hosts: int,
    mean_flow_bytes: float,
) -> float:
    """Flow arrival rate (flows/sec, fabric-wide) for a target edge load.

    The pFabric evaluation sweeps "load" from 0.1 to 0.8 of the edge link
    capacity; given the mean flow size this converts to a Poisson flow
    arrival rate.
    """
    if not 0 < target_load <= 1.0:
        raise ValueError("target_load must be in (0, 1]")
    if link_bps <= 0 or num_hosts <= 0 or mean_flow_bytes <= 0:
        raise ValueError("link_bps, num_hosts and mean_flow_bytes must be positive")
    bytes_per_second = target_load * link_bps / 8.0 * num_hosts
    return bytes_per_second / mean_flow_bytes


__all__ = [
    "DATAMINING_SIZE_CDF",
    "ZipfFlowSampler",
    "EmpiricalCDF",
    "FlowSizeDistribution",
    "PoissonArrivals",
    "WEBSEARCH_SIZE_CDF",
    "load_for_fabric",
]
