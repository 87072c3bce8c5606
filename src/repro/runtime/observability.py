"""Deterministic observability plane: histograms, flight recorder, timeline.

The runtime's telemetry grew up as counters and sums — good enough to spot a
bottleneck shard, useless for the questions a production deployment is
actually judged on: *what is the p99, and what was the system doing when it
spiked?*  This module adds the three instruments that answer them, all
deterministic and replayable from the scenario seed because every timestamp
they ever see is virtual-clock time:

* :class:`LogHistogram` — an HDR-style log2-bucketed latency histogram:
  ``__slots__``, one flat :mod:`array` of counts, an allocation-free
  :meth:`~LogHistogram.record`, mergeable across shards and picklable across
  the process-backend boundary with the same plain-dict wire format the
  ``CounterStatsMixin`` counters use.  The runtime keeps one per latency
  seam (RX-ring sojourn, mailbox wait, shard-queue sojourn, end-to-end
  submit→transmit) instead of unbounded raw-sample lists: memory is constant
  under overload and :meth:`~LogHistogram.quantile` has a documented error
  bound (``estimate - exact <= exact >> precision``).

* :class:`FlightRecorder` — a bounded ring-buffer tracer armed with
  ``ShardedRuntime(tracer=...)``.  Same contract as ``fault_plan``: the
  runtime holds ``None`` by default and every seam guards on one
  ``is not None`` check, so a disarmed run is byte-identical.  Armed, it
  captures virtual-clock events at the existing seams (ingress pull,
  mailbox handoff, drain batch, lease grant/return, rebalance migration,
  fault injection and recovery) and exports Chrome trace-event JSON — one
  track per shard / RX core / supervisor — that opens directly in Perfetto.

* :class:`MetricsTimeline` — a periodic gauge sampler riding the
  supervision cadence: shard backlogs, mailbox occupancy, RX ring depth,
  cycle accounts, live flow slots and open leases snapshotted into a
  time-series, exportable as Prometheus exposition text and JSON.

None of the instruments charge modelled cycles: arming the full plane
changes wall-clock cost only, never the cost model's answers
(``benchmarks/bench_observability.py`` asserts the disarmed cycle accounts
against the committed hot-path artifact and records the armed overhead).
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

__all__ = [
    "FlightRecorder",
    "LogHistogram",
    "MetricsTimeline",
]

#: Values above this are clamped on record; keeps the bucket array finite.
MAX_TRACKABLE_NS = (1 << 62) - 1

GaugeValue = Union[int, float, Dict[str, Union[int, float]]]


class LogHistogram:
    """Log2-bucketed latency histogram with linear sub-buckets.

    Values in ``[0, 2**precision)`` land in exact unit-width buckets; above
    that, each power-of-two range splits into ``2**precision`` linear
    sub-buckets, so the bucket width never exceeds ``value >> precision``.
    :meth:`quantile` returns the upper edge of the bucket holding the target
    rank (clamped to the observed maximum), which pins the error bound:

        ``exact <= quantile(q) <= exact + (exact >> precision)``

    i.e. a relative overestimate of at most ``2**-precision`` (0.78% at the
    default ``precision=7``).  :meth:`record` is allocation-free — one
    ``bit_length``, one shift, one array increment — because it sits on the
    per-packet path of every armed seam.

    Histograms ``merge()`` like the counter dataclasses and pickle with the
    same explicit plain-dict wire format (``__slots__`` forfeits the
    ``__dict__`` default), so per-shard histograms cross the process-backend
    boundary inside a ``ShardResult`` exactly like counter snapshots do.
    """

    __slots__ = ("precision", "_sub", "counts", "count", "sum", "min_value", "max_value")

    def __init__(self, precision: int = 7) -> None:
        if not 1 <= precision <= 12:
            raise ValueError("precision must be in [1, 12]")
        self.precision = precision
        self._sub = 1 << precision
        # Max clamped value has bit_length 62 -> top index (63 - p) * 2**p - 1.
        self.counts = array("Q", bytes(8 * (63 - precision) * self._sub))
        self.count = 0
        self.sum = 0
        self.min_value: Optional[int] = None
        self.max_value = 0

    # -- recording ---------------------------------------------------------

    def record(self, value: int, times: int = 1) -> None:
        """Record ``times`` equal non-negative samples (negative clamps to zero).

        ``record(v, n)`` leaves count, sum, min, max and every bucket exactly
        as ``n`` calls of ``record(v)`` would.
        """
        if value < 0:
            value = 0
        elif value > MAX_TRACKABLE_NS:
            value = MAX_TRACKABLE_NS
        if value < self._sub:
            index = value
        else:
            shift = value.bit_length() - 1 - self.precision
            index = shift * self._sub + (value >> shift)
        self.counts[index] += times
        self.count += times
        self.sum += value * times
        if self.min_value is None or value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value

    # -- reading -----------------------------------------------------------

    @property
    def mean(self) -> float:
        """Exact mean of the recorded samples (sum and count are exact)."""
        return self.sum / self.count if self.count else 0.0

    def _bucket_bounds(self, index: int) -> Tuple[int, int]:
        if index < self._sub:
            return index, index
        shift = index // self._sub - 1
        m = index - shift * self._sub
        return m << shift, ((m + 1) << shift) - 1

    def quantile(self, q: float) -> int:
        """Upper bucket edge at quantile ``q`` in ``[0, 1]`` (0 when empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return 0
        target = min(self.count, max(1, _ceil_rank(q, self.count)))
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if not bucket_count:
                continue
            cumulative += bucket_count
            if cumulative >= target:
                upper = self._bucket_bounds(index)[1]
                return min(upper, self.max_value)
        return self.max_value  # pragma: no cover - unreachable when count > 0

    def nonzero(self) -> Iterable[Tuple[int, int, int]]:
        """Yield ``(lower_edge, upper_edge, count)`` per occupied bucket."""
        for index, bucket_count in enumerate(self.counts):
            if bucket_count:
                lower, upper = self._bucket_bounds(index)
                yield lower, upper, bucket_count

    # -- composition -------------------------------------------------------

    def merge(self, other: "LogHistogram") -> "LogHistogram":
        """Fold ``other`` into this histogram in place (same precision)."""
        if other.precision != self.precision:
            raise ValueError(
                f"cannot merge precision={other.precision} into precision={self.precision}"
            )
        counts = self.counts
        for index, bucket_count in enumerate(other.counts):
            if bucket_count:
                counts[index] += bucket_count
        self.count += other.count
        self.sum += other.sum
        if other.min_value is not None and (
            self.min_value is None or other.min_value < self.min_value
        ):
            self.min_value = other.min_value
        if other.max_value > self.max_value:
            self.max_value = other.max_value
        return self

    def snapshot(self) -> "LogHistogram":
        """An independent copy (for diff-free periodic capture)."""
        clone = LogHistogram(self.precision)
        clone.counts = array("Q", self.counts)
        clone.count = self.count
        clone.sum = self.sum
        clone.min_value = self.min_value
        clone.max_value = self.max_value
        return clone

    def reset(self) -> None:
        """Zero every bucket and counter in place."""
        self.counts = array("Q", bytes(8 * len(self.counts)))
        self.count = 0
        self.sum = 0
        self.min_value = None
        self.max_value = 0

    @classmethod
    def aggregate(cls, histograms: Iterable["LogHistogram"], precision: int = 7) -> "LogHistogram":
        """Merge an iterable of histograms into one fresh instance."""
        total = cls(precision)
        for histogram in histograms:
            total.merge(histogram)
        return total

    # -- wire format -------------------------------------------------------

    def as_dict(self) -> Dict[str, Union[int, float]]:
        """JSON-friendly quantile summary (artifact / telemetry row)."""
        return {
            "count": self.count,
            "sum_ns": self.sum,
            "mean_ns": self.mean,
            "min_ns": self.min_value or 0,
            "max_ns": self.max_value,
            "p50_ns": self.quantile(0.50),
            "p90_ns": self.quantile(0.90),
            "p99_ns": self.quantile(0.99),
            "p999_ns": self.quantile(0.999),
        }

    def __getstate__(self) -> Dict[str, Any]:
        # Sparse plain-dict wire format, in the CounterStatsMixin spirit:
        # explicit because __slots__ forfeits the __dict__ pickle default.
        return {
            "precision": self.precision,
            "count": self.count,
            "sum": self.sum,
            "min_value": self.min_value,
            "max_value": self.max_value,
            "counts": {i: c for i, c in enumerate(self.counts) if c},
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__init__(state["precision"])
        for index, bucket_count in state["counts"].items():
            self.counts[index] = bucket_count
        self.count = state["count"]
        self.sum = state["sum"]
        self.min_value = state["min_value"]
        self.max_value = state["max_value"]

    def __reduce__(self):
        return (_rebuild_histogram, (self.__getstate__(),))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogHistogram):
            return NotImplemented
        return (
            self.precision == other.precision
            and self.count == other.count
            and self.sum == other.sum
            and self.min_value == other.min_value
            and self.max_value == other.max_value
            and self.counts == other.counts
        )

    def __repr__(self) -> str:
        return (
            f"LogHistogram(precision={self.precision}, count={self.count}, "
            f"p50={self.quantile(0.5)}, p99={self.quantile(0.99)}, max={self.max_value})"
        )


def _ceil_rank(q: float, count: int) -> int:
    """``ceil(q * count)`` computed without binary-float edge surprises."""
    scaled = q * count
    rank = int(scaled)
    return rank if rank == scaled else rank + 1


def _rebuild_histogram(state: Dict[str, Any]) -> LogHistogram:
    histogram = LogHistogram.__new__(LogHistogram)
    histogram.__setstate__(state)
    return histogram


class FlightRecorder:
    """Bounded ring-buffer tracer over virtual-clock events.

    The runtime emits one event per interesting seam crossing; the recorder
    keeps the most recent ``capacity`` of them (drop-oldest, with the total
    drop count preserved), so an armed run's memory stays constant no matter
    how long the workload is — a flight recorder, not a full log.

    Events are ``(ts_ns, track, name, args)`` tuples; ``track`` names the
    lane of execution (``"shard-3"``, ``"rx-0"``, ``"supervisor"``) and
    becomes one thread track in the Chrome trace-event export.  Every
    timestamp is simulated time, so the same seed replays the same trace
    byte for byte.
    """

    __slots__ = ("capacity", "recorded", "_events")

    def __init__(self, capacity: int = 65536) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.recorded = 0
        self._events: List[Tuple[int, str, str, Optional[Dict[str, Any]]]] = []

    def emit(
        self,
        ts_ns: int,
        track: str,
        name: str,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Append one event, evicting the oldest past ``capacity``."""
        self.recorded += 1
        events = self._events
        events.append((ts_ns, track, name, args))
        if len(events) > self.capacity:
            del events[0]

    @property
    def dropped(self) -> int:
        """Events evicted by the ring bound (oldest-first)."""
        return self.recorded - len(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def events(self) -> List[Tuple[int, str, str, Optional[Dict[str, Any]]]]:
        """The retained events, oldest first."""
        return list(self._events)

    def counts_by_track(self) -> Dict[str, int]:
        """Retained event count per track (artifact summary)."""
        counts: Dict[str, int] = {}
        for _ts, track, _name, _args in self._events:
            counts[track] = counts.get(track, 0) + 1
        return counts

    def clear(self) -> None:
        """Drop every retained event and reset the drop accounting."""
        self.recorded = 0
        self._events.clear()

    def to_chrome_trace(self) -> Dict[str, Any]:
        """Chrome trace-event JSON (Perfetto-openable).

        One ``pid`` for the whole runtime, one ``tid`` per track in order of
        first appearance (deterministic), each track labelled with a
        ``thread_name`` metadata event, every seam crossing a thread-scoped
        instant event with its virtual-clock timestamp in microseconds.
        """
        tids: Dict[str, int] = {}
        trace_events: List[Dict[str, Any]] = []
        for ts_ns, track, name, args in self._events:
            tid = tids.get(track)
            if tid is None:
                tid = tids[track] = len(tids)
                trace_events.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": 0,
                        "tid": tid,
                        "args": {"name": track},
                    }
                )
            trace_events.append(
                {
                    "name": name,
                    "ph": "i",
                    "ts": ts_ns / 1000.0,
                    "pid": 0,
                    "tid": tid,
                    "s": "t",
                    "args": args or {},
                }
            )
        return {"traceEvents": trace_events, "displayTimeUnit": "ns"}


class MetricsTimeline:
    """Periodic gauge snapshots into a deterministic time-series.

    The runtime arms one simulator timer per ``interval_ns`` of virtual time
    while work is in flight and hands each tick's gauge readings to
    :meth:`sample`; a gauge is either a scalar or an ``{id: value}`` map
    (per-shard backlogs, per-lane ring depths).  Export the last reading as
    Prometheus exposition text (:meth:`to_prometheus` — what a scrape of the
    live system would see) or the whole series as JSON (:meth:`as_dict`).
    """

    __slots__ = ("interval_ns", "samples")

    def __init__(self, interval_ns: int = 100_000) -> None:
        if interval_ns <= 0:
            raise ValueError("interval_ns must be positive")
        self.interval_ns = interval_ns
        self.samples: List[Dict[str, Any]] = []

    def sample(self, ts_ns: int, gauges: Dict[str, GaugeValue]) -> None:
        """Append one reading at virtual time ``ts_ns``."""
        self.samples.append({"ts_ns": ts_ns, "gauges": gauges})

    def __len__(self) -> int:
        return len(self.samples)

    def clear(self) -> None:
        self.samples.clear()

    def as_dict(self) -> Dict[str, Any]:
        """The full time-series, JSON-friendly."""
        return {"interval_ns": self.interval_ns, "samples": list(self.samples)}

    def to_prometheus(self, prefix: str = "repro_") -> str:
        """Prometheus exposition text for the most recent sample.

        Scalar gauges render bare; map-valued gauges render one line per
        ``id`` label.  An empty timeline renders to an empty string.
        """
        if not self.samples:
            return ""
        last = self.samples[-1]
        lines: List[str] = []
        for metric in sorted(last["gauges"]):
            value = last["gauges"][metric]
            lines.append(f"# TYPE {prefix}{metric} gauge")
            if isinstance(value, dict):
                for label in sorted(value, key=str):
                    lines.append(f'{prefix}{metric}{{id="{label}"}} {value[label]}')
            else:
                lines.append(f"{prefix}{metric} {value}")
        return "\n".join(lines) + "\n"
