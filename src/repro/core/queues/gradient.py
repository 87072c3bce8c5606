"""Gradient queues: exact and approximate (Section 3.1.2, Appendix A/B).

The Gradient Queue computes Find-First-Set *algebraically*.  Every non-empty
bucket ``i`` contributes a weight function ``2^i (x - i)^2`` to the queue's
*curvature*; the curvature is therefore a parabola ``a x^2 - b x + c`` with

    a = sum(2^i)        over non-empty buckets i
    b = sum(i * 2^i)    over non-empty buckets i

and its critical point ``b / (2a)``... which after the paper's normalisation
means the index of the **maximum** non-empty bucket is ``ceil(b / a)``
(Theorem 1).  Maintaining ``a`` and ``b`` under bucket state changes is a
pair of additions/subtractions, and the lookup is one division.

The *approximate* gradient queue replaces the exponential weight ``2^i`` with
the sub-exponential ``2^(i/alpha)``.  That lets a single ``(a, b)`` pair
cover many more buckets — enough to skip the hierarchy entirely and find the
extremal bucket in **one step** — at the cost of a bounded, occupancy-
dependent error: ``ceil(b/a)`` now needs a constant correction ``u(alpha)``
and is only exact when the top of the queue is densely occupied.  When the
estimated bucket turns out to be empty the queue falls back to a linear scan,
and may (rarely) select a bucket that is not the true extremum; that error is
what Figure 18 measures.

Both queues in this module are exposed with the **min-queue** interface used
everywhere else in the library (packets with the smallest rank leave first).
Internally the gradient machinery tracks the *maximum* weighted index, so the
public bucket ``k`` is stored at internal index ``num_buckets - 1 - k``.

**A modelled scan is charged by count; the walk is not performed.**  The cost
model prices the fallback scan per bucket visited (``QueueStats.linear_scans``)
and the critical point per lookup (``QueueStats.divisions``).  The approximate
queue therefore keeps an occupancy mask — one integer, bit ``k`` set while
external bucket ``k`` is non-empty — and on an estimate miss reads from it the
bucket the scan ends on and how many buckets the scan visits on the way, and
adds that number to ``linear_scans``.  The mask is bookkeeping for the scan,
not the lookup: the estimate is still ``ceil(b / a) + u(alpha)`` over the float
curvature sums, it still misses and errs exactly where it did (Figure 18), and
the counters are those of the walked scan (kept as the oracle in
``tests/core/queues/test_scan_oracle.py``).  Likewise the exact queue keeps
``a``, ``b`` and the division of Theorem 1, but remembers ``ceil(b / a)``
between changes of the coefficients; every lookup is still charged a division.
"""

from __future__ import annotations

import math
from typing import Optional

from .base import BucketSpec, EmptyQueueError, FixedRangeBucketQueue
from .ffs import find_first_set


def gradient_shift(alpha: int) -> int:
    """The constant correction ``u(alpha)`` of the approximate estimate.

    For a densely occupied queue the weighted average ``b/a`` sits below the
    maximum occupied index by roughly ``1 / (2^(1/alpha) - 1)`` buckets; the
    paper reports 22 for ``alpha = 16``.
    """
    if alpha <= 0:
        raise ValueError("alpha must be a positive integer")
    return round(1.0 / (2.0 ** (1.0 / alpha) - 1.0))


def gradient_start_index(alpha: int, g_threshold: float = 0.005) -> int:
    """Smallest internal index ``I0`` at which the estimate becomes reliable.

    ``g(alpha, M) = 2^(-(M+1)/alpha)`` decays with the maximum occupied
    index M; once it falls below ``g_threshold`` the ``u(alpha)`` shift is
    effectively constant.  With the default threshold and ``alpha = 16`` this
    yields an ``I0`` of ~122-125, matching the paper's example of 124.
    """
    if alpha <= 0:
        raise ValueError("alpha must be a positive integer")
    if not 0.0 < g_threshold < 1.0:
        raise ValueError("g_threshold must be in (0, 1)")
    return max(0, math.ceil(alpha * math.log2(1.0 / g_threshold)) - 1)


def gradient_max_index(alpha: int, word_bits: int = 64) -> int:
    """Largest internal index ``Imax`` representable with ``word_bits`` bits.

    The representation constraint is that the accumulated ``b`` term — whose
    leading contribution is ``Imax * 2^(Imax/alpha) / (2^(1/alpha) - 1)`` —
    stays precisely representable in the word used for the curvature
    coefficients.  Solving for the largest such index gives a capacity in the
    hundreds of buckets for ``alpha = 16`` (the paper's example supports 523
    buckets between I0 = 124 and Imax = 647).
    """
    if alpha <= 0:
        raise ValueError("alpha must be a positive integer")
    if word_bits <= 8:
        raise ValueError("word_bits too small for a gradient queue")
    # Find the largest M with log2(M) + M/alpha + log2(1/(2^(1/alpha)-1)) <= word_bits - 10.
    budget = word_bits - 10
    correction = math.log2(1.0 / (2.0 ** (1.0 / alpha) - 1.0))
    m = 1
    while math.log2(m + 1) + (m + 1) / alpha + correction <= budget:
        m += 1
    return m


def gradient_capacity(alpha: int, word_bits: int = 64) -> int:
    """Number of usable buckets for an approximate queue configuration."""
    return max(0, gradient_max_index(alpha, word_bits) - gradient_start_index(alpha))


def alpha_for_buckets(num_buckets: int, word_bits: int = 64, max_alpha: int = 4096) -> int:
    """Smallest ``alpha`` whose capacity covers ``num_buckets`` buckets.

    The paper's worked example uses ``alpha = 16`` (523 buckets); larger
    bucket counts need a larger alpha, trading a bigger constant shift (and
    potentially more error under sparse occupancy) for range.
    """
    if num_buckets <= 0:
        raise ValueError("num_buckets must be positive")
    alpha = 1
    while alpha <= max_alpha:
        if gradient_capacity(alpha, word_bits) >= num_buckets:
            return alpha
        alpha *= 2
    raise ValueError(
        f"no alpha <= {max_alpha} covers {num_buckets} buckets; "
        "coarsen the granularity instead"
    )


def fit_bucket_spec(
    priority_levels: int,
    granularity: int = 1,
    base_priority: int = 0,
    alpha: int = 16,
    word_bits: int = 64,
) -> BucketSpec:
    """Coarsen a bucket layout so it fits an approximate queue's capacity.

    The approximate gradient queue covers a bounded number of buckets (523 at
    ``alpha = 16`` in the paper's example); a policy that needs more distinct
    priority levels must map several levels to one bucket — the granularity /
    accuracy trade-off discussed in Section 5.2.  This helper computes the
    smallest granularity multiple that fits.
    """
    if priority_levels <= 0:
        raise ValueError("priority_levels must be positive")
    capacity = gradient_capacity(alpha, word_bits)
    if capacity <= 0:
        raise ValueError("configuration has no usable buckets")
    if priority_levels <= capacity:
        return BucketSpec(
            num_buckets=priority_levels,
            granularity=granularity,
            base_priority=base_priority,
        )
    scale = -(-priority_levels // capacity)  # ceil division
    num_buckets = -(-priority_levels // scale)
    return BucketSpec(
        num_buckets=num_buckets,
        granularity=granularity * scale,
        base_priority=base_priority,
    )


class GradientQueue(FixedRangeBucketQueue):
    """Exact gradient queue (Theorem 1) with a min-queue interface.

    Uses arbitrary-precision integers for the curvature coefficients, so any
    number of buckets is *correct*; like the paper's exact construction it is
    only *practical* for bucket counts comparable to a machine word, which is
    why the approximate variant exists.
    """

    __slots__ = ("_a", "_b", "_critical", "_top")

    def __init__(self, spec: BucketSpec) -> None:
        super().__init__(spec)
        # Curvature coefficients over *internal* (reversed) indices: external
        # bucket k is internal index ``_top - k``, and the reversal is its own
        # inverse.  The hooks below compute it inline.
        self._top = spec.num_buckets - 1
        self._a = 0
        self._b = 0
        # ceil(b / a) for the current coefficients; None once they change.
        self._critical: Optional[int] = None

    def _mark_nonempty(self, bucket: int) -> None:
        internal = self._top - bucket
        weight = 1 << internal
        self._a += weight
        self._b += internal * weight
        self._critical = None

    def _mark_empty(self, bucket: int) -> None:
        internal = self._top - bucket
        weight = 1 << internal
        self._a -= weight
        self._b -= internal * weight
        self._critical = None

    def _min_bucket(self) -> int:
        """External bucket of ceil(b / a), the maximum non-empty internal index.

        Every lookup is charged one ``divisions``; the wide ``b // a`` itself
        runs once per change of the coefficients and is remembered until
        ``_mark_nonempty`` / ``_mark_empty`` next moves them.
        """
        self.stats.divisions += 1
        critical = self._critical
        if critical is None:
            critical = self._critical = -((-self._b) // self._a)
        return self._top - critical

    def curvature_coefficients(self) -> tuple[int, int]:
        """The ``(a, b)`` coefficients, exposed for tests of Theorem 1."""
        return self._a, self._b


class ApproximateGradientQueue(FixedRangeBucketQueue):
    """Approximate gradient queue with one-step lookup (Section 3.1.2).

    Args:
        spec: bucket layout. ``spec.num_buckets`` must not exceed the
            configuration's capacity (``gradient_capacity(alpha, word_bits)``)
            or the curvature coefficients would overflow the modelled word.
        alpha: the approximation parameter; larger alpha covers more buckets
            with a single (a, b) pair but increases the worst-case error.
        word_bits: modelled width of the coefficient word (64 by default).
        strict_capacity: raise instead of warn when ``num_buckets`` exceeds
            the modelled capacity.  Disabled by default because Python floats
            do not actually overflow at the modelled boundary; enabling it in
            tests documents the paper's sizing rule.
        track_errors: when True, every lookup additionally reads the true
            extremal bucket (the lowest set bit of the occupancy mask) so
            that the selection error (Figure 18) can be reported.  Off by
            default; the error benchmark turns it on explicitly.
    """

    __slots__ = (
        "alpha",
        "word_bits",
        "i0",
        "shift",
        "_top",
        "_nonempty",
        "_occupied",
        "_weights",
        "_a",
        "_b",
        "track_errors",
        "_selection_error_total",
        "_selections",
    )

    def __init__(
        self,
        spec: BucketSpec,
        alpha: int = 16,
        word_bits: int = 64,
        strict_capacity: bool = False,
        track_errors: bool = False,
    ) -> None:
        super().__init__(spec)
        if alpha <= 0:
            raise ValueError("alpha must be a positive integer")
        self.alpha = alpha
        self.word_bits = word_bits
        self.i0 = gradient_start_index(alpha)
        self.shift = gradient_shift(alpha)
        # External bucket k is internal index ``_top - k``: reversed (a
        # min-queue on top of a max structure) and offset by I0 so the
        # estimate operates in its reliable region.  The reversal is its own
        # inverse.
        self._top = self.i0 + spec.num_buckets - 1
        capacity = gradient_capacity(alpha, word_bits)
        if strict_capacity and spec.num_buckets > capacity:
            raise ValueError(
                f"{spec.num_buckets} buckets exceed the capacity "
                f"{capacity} of an approximate queue with alpha={alpha}, "
                f"word_bits={word_bits}"
            )
        # Hard physical limit: 2^(i/alpha) must stay a finite float.  Queues
        # needing more priority levels should coarsen their granularity (see
        # ``fit_bucket_spec``) exactly as the paper recommends.
        physical_limit = alpha * 960 - self.i0
        if spec.num_buckets > physical_limit:
            raise ValueError(
                f"{spec.num_buckets} buckets exceed the representable limit "
                f"{physical_limit} for alpha={alpha}; coarsen the granularity "
                f"(see repro.core.queues.gradient.fit_bucket_spec)"
            )
        self._nonempty = 0
        # Occupancy mask: bit k is set while external bucket k is non-empty.
        self._occupied = 0
        # 2^(internal/alpha) per external bucket, so every curvature update
        # adds and subtracts the identical float.
        top = self._top
        self._weights = [2.0 ** ((top - bucket) / alpha) for bucket in range(spec.num_buckets)]
        self._a = 0.0
        self._b = 0.0
        # Cumulative error statistics for Figure 18 (only when track_errors).
        self.track_errors = track_errors
        self._selection_error_total = 0
        self._selections = 0

    # -- curvature maintenance ------------------------------------------------

    def _mark_nonempty(self, bucket: int) -> None:
        weight = self._weights[bucket]
        self._a += weight
        self._b += (self._top - bucket) * weight
        self._nonempty += 1
        self._occupied |= 1 << bucket

    def _mark_empty(self, bucket: int) -> None:
        weight = self._weights[bucket]
        self._a -= weight
        self._b -= (self._top - bucket) * weight
        self._nonempty -= 1
        self._occupied ^= 1 << bucket
        if self._nonempty == 0:
            # Clamp float drift when the queue fully drains.
            self._a = 0.0
            self._b = 0.0

    # -- lookup ----------------------------------------------------------------

    def _min_bucket(self) -> int:
        """Locate the (approximately) minimum non-empty external bucket.

        One step: ``ceil(b / a) + u(alpha)`` is the estimated maximum
        non-empty internal index, clamped into range; an empty estimate
        falls back to :meth:`_linear_search`.  The float sums can cancel
        while buckets are still occupied (a heavy bucket absorbs a light
        one, then leaves): ``a <= 0`` or an overflowing ``b / a`` is then an
        estimate miss that starts the fallback scan at external bucket 0,
        the top of the priority range, so the scan ends on the true minimum.
        """
        self.stats.divisions += 1
        if not self._nonempty:
            raise EmptyQueueError("approximate gradient queue is empty")
        a = self._a
        bucket = 0
        if a > 0.0:
            try:
                bucket = self._top - math.ceil(self._b / a) - self.shift
            except OverflowError:  # b / a overflowed to inf
                pass
            else:
                if bucket < 0:
                    bucket = 0
                elif bucket >= self.spec.num_buckets:
                    bucket = self.spec.num_buckets - 1
        if self._buckets[bucket] is not None:
            selected = bucket
        else:
            selected = self._linear_search(bucket)
        if self.track_errors:
            true_min = find_first_set(self._occupied)
            self._selections += 1
            if selected != true_min:
                self.stats.selection_errors += 1
                self._selection_error_total += abs(selected - true_min)
        return selected

    def _linear_search(self, start: int) -> int:
        """The non-empty bucket a scan outward from empty ``start`` ends on.

        The modelled scan runs towards *larger* external buckets first
        (smaller internal indices): the estimate overshoots towards the heavy
        end of the occupancy distribution, so the true extremum usually lies
        on the lower-priority side.  If nothing is occupied there it turns and
        runs downward from ``start``.  The scan is charged, not walked: the
        occupancy mask gives the bucket it ends on, and ``linear_scans`` grows
        by the number of buckets it would have visited on the way.
        """
        occupied = self._occupied
        above = occupied >> (start + 1)
        if above:
            visited = (above & -above).bit_length()
            self.stats.linear_scans += visited
            return start + visited
        # The upward scan ran off the end of the range and turned around.
        visited = self.spec.num_buckets - 1 - start
        below = occupied & ((1 << start) - 1)
        if below:
            found = below.bit_length() - 1
            self.stats.linear_scans += visited + start - found
            return found
        self.stats.linear_scans += visited + start
        raise EmptyQueueError("no non-empty bucket found")

    # -- error reporting (Figure 18) ----------------------------------------------

    @property
    def average_selection_error(self) -> float:
        """Mean |selected bucket - true extremal bucket| over all lookups."""
        if self._selections == 0:
            return 0.0
        return self._selection_error_total / self._selections

    @property
    def selection_error_rate(self) -> float:
        """Fraction of lookups that selected a non-extremal bucket."""
        if self._selections == 0:
            return 0.0
        return self.stats.selection_errors / self._selections

    def reset_error_tracking(self) -> None:
        """Zero the error accumulators (counters in ``stats`` are untouched)."""
        self._selection_error_total = 0
        self._selections = 0


__all__ = [
    "ApproximateGradientQueue",
    "GradientQueue",
    "alpha_for_buckets",
    "fit_bucket_spec",
    "gradient_capacity",
    "gradient_max_index",
    "gradient_shift",
    "gradient_start_index",
]
