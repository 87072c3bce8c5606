"""Eiffel shaping qdisc — cFFS-backed timestamps with exact timer programming.

The Eiffel qdisc of Use Case 1 matches the rate-limiting features of the
FQ/pacing qdisc (per-flow ``SO_MAX_PACING_RATE`` plus a fallback pacing rate)
but stores packets in a circular hierarchical FFS queue indexed by
transmission timestamp.  Because the cFFS supports ``SoonestDeadline()`` in a
handful of word operations, the qdisc programs its hrtimer for exactly the
next packet's release time instead of polling every slot — the key difference
from Carousel that Figure 10 (right) isolates — and its per-packet enqueue /
dequeue cost is a constant independent of the number of flows — the key
difference from FQ that Figure 9 shows.

The paper's configuration is preserved by default: 20k buckets over a
2-second horizon, with per-socket rate state kept outside the qdisc (the
paper modified ``sock.h``; here the rate map plays that role).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .fq_pacing import charge_stats_delta
from .qdisc import Qdisc
from ..core.model.packet import Packet
from ..core.model.transactions import RateLimit, ShapingTransaction
from ..core.queues import BucketSpec, CircularFFSQueue, QueueStats


class EiffelQdisc(Qdisc):
    """Shaping qdisc backed by a cFFS timestamp queue.

    Args:
        flow_rates: per-flow ``SO_MAX_PACING_RATE`` (bits/second).
        default_rate_bps: pacing rate applied to unconfigured flows.
        horizon_ns: shaping horizon (2 s, as in the paper's deployment).
        num_buckets: timestamp buckets (20k, as in the paper's deployment).

    Under :class:`~repro.runtime.adapters.MultiQueueQdisc` each instance is
    one per-core child; packets never move between children.
    """

    name = "eiffel"

    def __init__(
        self,
        flow_rates: Optional[Dict[int, float]] = None,
        default_rate_bps: Optional[float] = None,
        horizon_ns: int = 2_000_000_000,
        num_buckets: int = 20_000,
    ) -> None:
        if horizon_ns <= 0 or num_buckets <= 0:
            raise ValueError("horizon_ns and num_buckets must be positive")
        granularity = max(1, horizon_ns // num_buckets)
        # The watchdog timer resolves one bucket: all packets in a bucket
        # share one deadline, so one fire per occupied bucket suffices.
        super().__init__(timer_granularity_ns=granularity)
        self.flow_rates = dict(flow_rates or {})
        self.default_rate_bps = default_rate_bps
        self._queue = CircularFFSQueue(
            BucketSpec(num_buckets=num_buckets, granularity=granularity)
        )
        self._queue_snapshot = QueueStats()
        self._shapers: Dict[int, ShapingTransaction] = {}
        self._backlog = 0

    # -- configuration ---------------------------------------------------------------

    def set_flow_rate(self, flow_id: int, rate_bps: float) -> None:
        """Configure ``SO_MAX_PACING_RATE`` for ``flow_id``."""
        self.flow_rates[flow_id] = rate_bps
        self._shapers.pop(flow_id, None)

    def _shaper_for(self, flow_id: int) -> Optional[ShapingTransaction]:
        rate = self.flow_rates.get(flow_id, self.default_rate_bps)
        if rate is None:
            return None
        shaper = self._shapers.get(flow_id)
        if shaper is None:
            shaper = ShapingTransaction(f"flow-{flow_id}", RateLimit(rate))
            self._shapers[flow_id] = shaper
        return shaper

    # -- qdisc interface ----------------------------------------------------------------

    def enqueue_packet(self, packet: Packet, now_ns: int) -> None:
        self.system_cost.charge("flow_lookup")
        shaper = self._shaper_for(packet.flow_id)
        send_at = now_ns if shaper is None else shaper.stamp(packet, now_ns)
        packet.metadata["send_at_ns"] = send_at
        self._queue.enqueue(send_at, packet)
        self._backlog += 1
        self._queue_snapshot = charge_stats_delta(
            self.system_cost, self._queue.stats, self._queue_snapshot
        )

    def dequeue_due(self, now_ns: int, budget: int = 1 << 30) -> List[Packet]:
        # One batched drain per timer fire: the cFFS amortises its tree
        # walks across the whole batch instead of paying peek + extract
        # per packet, and the charged stats delta reflects that.
        drained = self._queue.extract_due(now_ns, limit=budget)
        released: List[Packet] = [packet for _send_at, packet in drained]
        self._backlog -= len(released)
        self.stats.dequeued += len(released)
        self._queue_snapshot = charge_stats_delta(
            self.softirq_cost, self._queue.stats, self._queue_snapshot
        )
        return released

    def soonest_deadline_ns(self, now_ns: int) -> Optional[int]:
        """Exact next-packet deadline via the cFFS ``peek_min``."""
        if self._backlog == 0:
            return None
        send_at, _packet = self._queue.peek_min()
        return max(send_at, now_ns)

    @property
    def queue_occupancy(self) -> int:
        """Packets currently held in the timestamp queue."""
        return self._backlog


__all__ = ["EiffelQdisc"]
