"""Cross-shard work stealing: bounded request channels and flow leases.

The rebalancer migrates *whole flows*, so a single elephant flow still
bottlenecks the shard it lives on (the Zipf rows of ``BENCH_sharding.json``).
Work stealing attacks exactly that case: an **idle** shard (the thief) takes
over a bounded batch of a busy sibling's (the victim's) imminent work — the
packets due within the next scheduling horizon — while the flow's remaining
packets stay behind.  A flow is thereby *split across cores in time* without
ever being split in order.

Order preservation is the hard part, and it is carried by an explicit
**flow-ownership lease** (:class:`FlowLease`):

* the victim extracts the due window *atomically* — for every flow touched,
  the stolen packets are a stamp-ordered prefix of that flow's queued
  packets, because per-flow timestamps are monotone;
* every flow in the batch is marked **on loan**: the victim defers its own
  drains of that flow (due packets park in a side buffer) and defers
  stamping of new arrivals, because the flow's pacing state
  (:class:`~repro.core.model.transactions.ShapingTransaction`) travels with
  the lease exactly as it does with a rebalancer migration;
* the thief releases the stolen packets through its own paced drain (their
  timestamps are preserved), and once the last one has left, the lease
  *returns*: shapers are re-adopted, deferred packets flush, and the flow is
  whole again on its home shard.

The request side is a bounded :class:`StealChannel` per victim — the
message-passing shape of real work-stealing runtimes (an idle core parks a
steal request; the owner hands work over at a safe point), which keeps the
hot structures single-writer: only the victim ever touches its own queue.

That single-writer discipline is the protocol's real-core seam: grant and
release are plain message handoffs (a lease is just a record crossing a
ring, like the shared-memory rings of :mod:`repro.runtime.shm`), with no
shared mutable queue state to lock.  The parallel execution backends of
:mod:`repro.runtime.backend` do not yet drive it — they currently require
stealing disabled, because a lease couples two shards' clocks — so today
stealing runs on the simulated backend only; the channel/lease message
shapes are what a cross-process implementation would reuse verbatim.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from ..core.model.packet import Packet
from ..core.model.transactions import ShapingTransaction
from ..core.queues import QueueStats
from ..core.queues.base import CounterStatsMixin


@dataclass(slots=True)
class StealStats(CounterStatsMixin):
    """Per-shard stealing counters, split by role.

    Thief-role counters: ``requests_posted`` / ``requests_dropped`` (channel
    full) / ``requests_stale`` (the thief found its own work before the grant
    landed), ``leases_received``, ``packets_stolen``, and ``cycles_stolen`` —
    the modelled cycles this shard spent *splicing in* other shards' work
    (cross-core handoff, the victim-side extraction carried by the lease,
    and the re-enqueue into its own queue).  The subsequent paced release of
    the stolen packets goes through the thief's ordinary drain path and is
    charged to its cost account like any other traffic, so ``cycles_stolen``
    is the protocol's overhead, not the full load moved off the victim.

    Victim-role counters: ``leases_granted`` / ``leases_returned``,
    ``packets_lent``, and the deferral accounting that protects per-flow
    FIFO while a lease is out (``drains_deferred`` / ``ingests_deferred``).
    """

    requests_posted: int = 0
    requests_dropped: int = 0
    requests_stale: int = 0
    leases_received: int = 0
    packets_stolen: int = 0
    cycles_stolen: float = 0.0
    leases_granted: int = 0
    leases_returned: int = 0
    packets_lent: int = 0
    drains_deferred: int = 0
    ingests_deferred: int = 0


@dataclass(frozen=True)
class StealRequest:
    """One idle shard's parked request to take over a victim's due work."""

    thief_shard: int
    posted_at_ns: int


@dataclass(slots=True)
class StealChannelStats(CounterStatsMixin):
    """Counters kept by one steal-request channel."""

    posted: int = 0
    duplicates: int = 0
    dropped_full: int = 0
    popped: int = 0


class StealChannel:
    """Bounded FIFO of :class:`StealRequest` entries parked at one victim.

    A request *parks* until the victim has stealable work — the standing
    "work wanted" token of message-passing work stealing — so the channel
    deduplicates per thief (an idle shard holds at most one outstanding
    request per victim) and bounds total occupancy like any other
    cross-core ring (:class:`~repro.runtime.mailbox.Mailbox` semantics:
    overflow is dropped and counted, never blocked on).
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive (or None for unbounded)")
        self.capacity = capacity
        self.stats = StealChannelStats()
        self._requests: Deque[StealRequest] = deque()
        self._parked: set[int] = set()

    def post(self, request: StealRequest) -> str:
        """Park ``request``; returns ``"accepted"``, ``"duplicate"`` or ``"full"``."""
        if request.thief_shard in self._parked:
            self.stats.duplicates += 1
            return "duplicate"
        if self.capacity is not None and len(self._requests) >= self.capacity:
            self.stats.dropped_full += 1
            return "full"
        self._requests.append(request)
        self._parked.add(request.thief_shard)
        self.stats.posted += 1
        return "accepted"

    def peek(self) -> Optional[StealRequest]:
        """The oldest parked request, or ``None`` when empty."""
        return self._requests[0] if self._requests else None

    def pop(self) -> StealRequest:
        """Remove and return the oldest parked request."""
        request = self._requests.popleft()
        self._parked.discard(request.thief_shard)
        self.stats.popped += 1
        return request

    def __len__(self) -> int:
        return len(self._requests)

    @property
    def empty(self) -> bool:
        """True when no requests are parked."""
        return not self._requests


@dataclass
class FlowLease:
    """An atomic, order-preserving handoff of one due window to a thief.

    ``packets`` are ``(send_at_ns, packet)`` pairs in extraction (global
    stamp) order; for each flow in ``flow_ids`` they form a prefix of that
    flow's stamped sequence.  ``shapers`` carries the pacing state of every
    paced flow on loan (stateless flows are simply absent).  ``queue_delta``
    is the extraction work measured on the victim's queue but *charged to
    the thief's* cycle account — on real hardware the thief's core executes
    the pops, and moving those cycles off the bottleneck core is the whole
    point of stealing.
    """

    lease_id: int
    victim_shard: int
    thief_shard: int
    packets: List[Tuple[int, Packet]]
    flow_ids: Tuple[int, ...]
    shapers: Dict[int, ShapingTransaction] = field(default_factory=dict)
    queue_delta: QueueStats = field(default_factory=QueueStats)
    granted_at_ns: int = 0

    def __len__(self) -> int:
        return len(self.packets)


__all__ = [
    "FlowLease",
    "StealChannel",
    "StealChannelStats",
    "StealRequest",
    "StealStats",
]
