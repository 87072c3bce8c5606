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
request; the owner hands work over at a safe point), so only the victim
ever touches its own queue.  One :class:`Stealer` per runtime owns the
channels, the loan inbox, the open leases and both roles; it exists only
when stealing can fire, and its docstring lists the driver boundary.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from ..core.model.packet import Packet
from ..core.model.transactions import ShapingTransaction
from ..core.queues import QueueStats
from ..core.queues.base import CounterStatsMixin

if TYPE_CHECKING:
    from .runtime import ShardedRuntime

#: Bound on each shard's parked steal requests (the bounded cross-core
#: request ring; overflow is dropped and counted, never blocked on).
STEAL_CHANNEL_CAPACITY = 8


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

    ``packets`` are the stamped packets themselves (each send time is its
    ``packet.rank``) in extraction (global stamp) order; for each flow in
    ``flow_ids`` they form a prefix of that flow's stamped sequence.
    ``shapers`` carries the pacing state of every paced flow on loan
    (stateless flows are simply absent).  ``queue_delta``
    is the extraction work measured on the victim's queue but *charged to
    the thief's* cycle account — on real hardware the thief's core executes
    the pops, and moving those cycles off the bottleneck core is the whole
    point of stealing.
    """

    lease_id: int
    victim_shard: int
    thief_shard: int
    packets: List[Packet]
    flow_ids: Tuple[int, ...]
    shapers: Dict[int, ShapingTransaction] = field(default_factory=dict)
    queue_delta: QueueStats = field(default_factory=QueueStats)
    granted_at_ns: int = 0


class Stealer:
    """The work-stealing plane of one :class:`~repro.runtime.runtime.ShardedRuntime`.

    Built only when stealing can fire (``steal_enabled``, more than one
    shard).  Owns every victim's :class:`StealChannel`, the loan inbox, the
    open leases with their unreleased-packet counts, the lease ids and the
    two knobs.  :attr:`horizon_ns`, how far ahead of now a window counts as
    stealable, is the driver's ``quantum_ns``: the batch the victim would
    have released at its very next tick.  The driver calls
    :meth:`wake_idle_thieves`, :meth:`splice`, :meth:`after_drain` and
    :meth:`settle` (its ``_deliver``, once per drain while a lease is open);
    recovery calls :meth:`reclaim`, :meth:`return_lease` and
    :meth:`overdue_thieves`.  The plane reads the driver's ``workers``,
    ``sharder``, ``quantum_ns``, ``tracer`` and ``_supervisor`` and calls
    only its ``_wake_shard`` and ``_deliver``.
    """

    def __init__(self, runtime: "ShardedRuntime", batch: int, min_backlog: int) -> None:
        self._runtime = runtime
        self.batch = batch
        self.horizon_ns = runtime.quantum_ns
        self.min_backlog = min_backlog
        self._workers = runtime.workers  # a restart replaces its entry in place
        self._sharder = runtime.sharder
        self._tracer = runtime.tracer
        self._supervisor = runtime._supervisor
        self.channels: List[StealChannel] = [
            StealChannel(capacity=STEAL_CHANNEL_CAPACITY) for _ in runtime.workers
        ]
        #: Per thief: leases granted and not yet spliced into its queue.
        self.inbox: List[List[FlowLease]] = [[] for _ in runtime.workers]
        #: lease id -> ``[lease, stolen packets not yet released, its flow ids]``.
        self.open_leases: Dict[int, list] = {}
        self._lease_ids = itertools.count()

    def wake_idle_thieves(self, loaded_shard: int) -> None:
        """Give empty shards a tick so they can park steal requests.

        An idle shard has no timer armed and would never volunteer (the
        analogue of an IPI to an idle core).  The kick fires only when the
        shard that just got work clears the steal floor; below it no victim
        can qualify.
        """
        workers = self._workers
        if workers[loaded_shard].queued() < self.min_backlog:
            return
        wake = self._runtime._wake_shard
        for shard, worker in enumerate(workers):
            if worker.is_idle():
                wake(shard)

    def splice(self, shard: int, now: int) -> None:
        """Thief role, before the drain: due stolen packets release this tick."""
        inbox = self.inbox[shard]
        if inbox:
            self.inbox[shard] = []
            for lease in inbox:
                self._workers[shard].accept_lease(lease, now)

    def after_drain(self, shard: int, now: int) -> None:
        """After the shard's own drain: grant to parked thieves, then volunteer."""
        self._grant(shard, now)
        self._request(shard, now)

    def _grant(self, shard: int, now: int) -> None:
        """Victim role: hand due windows to the thieves parked at ``shard``.

        After the drain, so only work the victim could not clear in its own
        quantum is stolen.  A request parks until a stealable window exists.
        """
        worker = self._workers[shard]
        channel = self.channels[shard]
        supervisor = self._supervisor
        cutoff = now + self.horizon_ns
        while len(channel):
            if worker.flows_on_loan or worker.leases_held or not worker.has_work_by(cutoff):
                break  # one lease out at a time / holding stolen work / nothing stealable
            if worker.backlog < self.min_backlog:
                # The victim drained below the steal floor since the request
                # parked: a lease now would move work it can clear itself
                # next tick.  The request stays parked for the next burst.
                break
            request = channel.peek()
            assert request is not None
            thief = request.thief_shard
            thief_worker = self._workers[thief]
            if (
                not thief_worker.is_idle()
                or self.inbox[thief]
                or (supervisor is not None and supervisor.frozen(thief))
            ):
                # The thief found its own work since parking the request —
                # or already has a lease granted (possibly still sitting in
                # its inbox) or its own flows out on loan: one window per
                # idle thief at a time.
                channel.pop()
                thief_worker.steal.requests_stale += 1
                continue
            lease = worker.grant_lease(
                next(self._lease_ids), thief, now, self.batch, self.horizon_ns
            )
            if lease is None:
                # The donor refused despite the loop-top checks (kept
                # deliberately equivalent; this is the belt to those
                # braces): leave the request parked for a later tick.
                break
            channel.pop()
            for flow_id in lease.flow_ids:
                self._sharder.lend(flow_id, shard)
            self.open_leases[lease.lease_id] = [
                lease, len(lease.packets), frozenset(lease.flow_ids)
            ]
            self.inbox[thief].append(lease)
            if self._tracer is not None:
                self._tracer.emit(
                    now,
                    f"shard-{shard}",
                    "lease_grant",
                    {
                        "lease_id": lease.lease_id,
                        "thief": thief,
                        "packets": len(lease.packets),
                        "flows": len(lease.flow_ids),
                    },
                )
            self._runtime._wake_shard(thief)
            if supervisor is not None:
                supervisor.lease_granted()

    def _request(self, shard: int, now: int) -> None:
        """Thief role: when empty, park a steal request at the busiest sibling.

        Only a shard with *nothing at all* in flight volunteers: one with
        future-paced backlog, a held lease or lent flows (a deferred flush
        is coming back) would move load toward loaded cores.  It then
        sleeps with no timer; a granted lease wakes it like fresh ingress.
        """
        workers = self._workers
        worker = workers[shard]
        if not worker.is_idle():
            return
        # Volunteer only while this core has done less than its fair share
        # of the run's work: an empty-but-cumulatively-hot shard (e.g. the
        # elephant's home at a burst tail) grabbing more work would deepen
        # the very bottleneck stealing exists to relieve.
        mean_cycles = sum(candidate.cost.total_cycles for candidate in workers) / len(workers)
        if worker.cost.total_cycles > mean_cycles:
            return
        loads = [candidate.queued() for candidate in workers]
        # Only a shard loaded well beyond its siblings is worth robbing:
        # stealing between near-equal shards just churns handoff overhead,
        # ticks, and bitmap scans without relieving any bottleneck.
        floor = max(self.min_backlog, 2 * sum(loads) // len(workers))
        supervisor = self._supervisor
        victim = None
        victim_pending = floor - 1
        for other, pending in enumerate(loads):
            if other == shard:
                continue
            if supervisor is not None and supervisor.is_dead(other):
                continue  # a corpse's backlog is being recovered, not robbed
            if pending > victim_pending:
                victim, victim_pending = other, pending
        if victim is None:
            return
        # Park the request without waking the victim: a shard loaded enough
        # to rob keeps its own tick chain alive, and one that sleeps toward
        # a far deadline has nothing stealable inside the horizon anyway.
        # The grant lands at the victim's next natural safe point.
        outcome = self.channels[victim].post(StealRequest(shard, now))
        if outcome == "accepted":
            worker.steal.requests_posted += 1
        elif outcome == "full":
            worker.steal.requests_dropped += 1

    def settle(self, shard: int, released: List[Packet], now: int) -> None:
        """Count one drain of ``shard`` against the lease it holds as thief.

        Settled per drain, not per packet: only a lease's thief releases its
        packets, a thief is granted a lease only while idle (so it holds one
        at a time), and while the lease is out its flows route to the victim
        — so this drain's packets of the lease's flows are exactly its
        stolen ones.  The last one returns the lease to its victim.
        """
        for lease_id, entry in self.open_leases.items():
            lease, remaining, flows = entry
            if lease.thief_shard != shard:
                continue
            remaining -= sum(1 for packet in released if packet.flow_id in flows)
            if remaining:
                entry[1] = remaining
                return
            del self.open_leases[lease_id]
            self._workers[shard].finish_held_lease()
            if self._tracer is not None:
                self._tracer.emit(
                    now,
                    f"shard-{shard}",
                    "lease_return",
                    {"lease_id": lease.lease_id, "victim": lease.victim_shard},
                )
            self.return_lease(lease, now)
            return

    def return_lease(self, lease: FlowLease, now: int) -> None:
        """Give a finished or reclaimed lease back to its victim, which
        re-adopts the travelled shapers and flushes its deferred flows (a
        dead victim's return is banked for its restart)."""
        if self._supervisor is not None and self._supervisor.bank_return(lease):
            return
        victim = self._workers[lease.victim_shard]
        flushed = victim.end_lease(lease, now)
        for flow_id in lease.flow_ids:
            self._sharder.restore(flow_id)
        self._runtime._deliver(flushed, now, lease.victim_shard)
        if victim.pending:
            self._runtime._wake_shard(lease.victim_shard)

    def reclaim(self, thief: int) -> List[Tuple[FlowLease, bool]]:
        """Close a crashed ``thief``'s leases, in grant order, each paired
        with whether it was still in the inbox (never spliced in)."""
        in_inbox = {lease.lease_id for lease in self.inbox[thief]}
        self.inbox[thief] = []
        held = [
            lease_id
            for lease_id, (lease, *_count) in self.open_leases.items()
            if lease.thief_shard == thief
        ]
        return [(self.open_leases.pop(lease_id)[0], lease_id in in_inbox) for lease_id in held]

    def overdue_thieves(self, granted_before: int) -> List[int]:
        """Thieves holding a lease granted before ``granted_before``, in shard order."""
        return sorted(
            {
                lease.thief_shard
                for lease, *_count in self.open_leases.values()
                if lease.granted_at_ns < granted_before
            }
        )


__all__ = [
    "FlowLease",
    "StealChannel",
    "StealChannelStats",
    "StealRequest",
    "StealStats",
    "Stealer",
]
