"""One shard of the multi-core runtime: a core-local Eiffel queue + shaper.

A :class:`ShardWorker` is the simulated analogue of one CPU core running one
scheduler instance — what a per-CPU child of the ``mq`` qdisc or a pinned
BESS worker is in a real deployment.  It owns, privately:

* a batched SPSC :class:`~repro.runtime.mailbox.Mailbox` the ingress side
  posts packets into;
* a cFFS timestamp queue holding the shard's shaped packets, filled and
  drained through its item surface (``enqueue_items`` /
  ``extract_due_items``): a queued entry is the packet itself, ranked by
  the send time stamped into ``packet.rank``, so a deep shaping backlog
  holds no ``(send_at, packet)`` tuple — no GC-tracked object per packet
  besides the packet — for the cyclic collector to walk;
* per-flow pacing state (``SO_MAX_PACING_RATE``-style shaping, the same
  stamping the Eiffel qdisc performs), held in a compact
  :class:`~repro.runtime.flowstate.PacingTable` — dense array columns
  indexed by slot, not a dict of transaction objects — so a shard can pace
  hundreds of thousands of concurrent flows in tens of bytes each; state
  still *travels* as :class:`~repro.core.model.transactions.ShapingTransaction`
  objects on migration and lease handoffs;
* a :class:`~repro.cpu.cost_model.CostModel` account charging the shard's
  data-structure work, so runtime telemetry can locate the bottleneck core.

Each scheduling quantum the owning runtime calls :meth:`tick`: the work of
:meth:`ingest` (drain the mailbox, stamp, one batched enqueue) then of
:meth:`drain_due` (one batched release of everything whose timestamp
passed), with the queue's operation counters charged to the cost model once
at the end.  The worker performs no global coordination — all cross-shard
decisions live in the sharder and the runtime driver — but it does expose
the two *ends* of the work-stealing protocol (see
:mod:`repro.runtime.stealing`):

* the **donor** side (:meth:`grant_lease` / :meth:`end_lease`): hand an
  imminent due window to an idle sibling, marking each touched flow *on
  loan*; while a flow is on loan this worker defers its own drains of that
  flow (due packets park in a side buffer) and defers stamping of new
  arrivals (the pacing state travelled with the lease), which is what keeps
  per-flow FIFO intact across the handoff;
* the **acceptor** side (:meth:`accept_lease`): splice a stolen window into
  this worker's own timestamp queue — stamps preserved, so the packets
  release through the normal paced drain — charging the extraction and
  re-enqueue work to *this* core's cycle account.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from .flowstate import PacingTable
from .mailbox import Mailbox
from .observability import LogHistogram
from .stealing import FlowLease, StealStats
from ..core.model.packet import Packet
from ..core.model.transactions import ShapingTransaction
from ..core.queues import BucketSpec, CircularFFSQueue, IntegerPriorityQueue, QueueStats
from ..core.queues.base import CounterStatsMixin
from ..cpu import CostModel
from ..cpu.cost_model import QUEUE_STATS_COSTS

#: Builds a shard's backing queue from a spec (cFFS by default).
QueueFactory = Callable[[BucketSpec], IntegerPriorityQueue]

#: ``(QueueStats counter, cost-table operation)`` in the order
#: :meth:`CostModel.charge_queue_stats` charges them.
_QUEUE_COSTS = tuple(QUEUE_STATS_COSTS.items())


@dataclass(slots=True)
class ShardWorkerStats(CounterStatsMixin):
    """Packet counters of one shard worker."""

    ingested: int = 0
    transmitted: int = 0
    ticks: int = 0
    idle_ticks: int = 0
    backlog_peak: int = 0


class ShardWorker:
    """A single-core scheduler instance owning one Eiffel queue + shaper.

    The queue holds the shard's stamped packets themselves, each ranked by
    its ``packet.rank`` (the send time), through the queue's item surface:
    enqueue, due drain, soonest-deadline peek, the steal grant and accept
    (:attr:`FlowLease.packets <repro.runtime.stealing.FlowLease.packets>`)
    and the crash dump all move bare packets.

    Args:
        shard_id: index of this shard within the runtime.
        flow_rates: per-flow pacing rates (bits/second).
        default_rate_bps: pacing rate for unconfigured flows (``None`` sends
            packets at their ingest time, i.e. pure work conservation).
        horizon_ns / num_buckets: shaping horizon and bucket count of the
            timestamp queue (paper defaults: 2 s over 20k buckets).
        queue_factory: alternative backing queue (ablations).  The bucket
            stores hold packets natively; any other
            :class:`~repro.core.queues.IntegerPriorityQueue` pairs them up
            behind the same item surface.
        mailbox_capacity: bound on the ingress mailbox (``None`` unbounded).
        mailbox_high_watermark: backpressure threshold handed to the
            mailbox (see :meth:`Mailbox.configure_watermarks`); the ingress
            cores pause their RX pull while the mailbox sits inside the
            hysteresis band, down to half of it.
        latency_histograms: arm the per-shard latency seams — a
            :class:`~repro.runtime.observability.LogHistogram` each for
            mailbox wait (push → ingest) and shard-queue sojourn
            (stamp → drain).  Disarmed (the default) both stay ``None`` and
            the worker loop is byte-identical to a build without them.
    """

    __slots__ = (
        "shard_id",
        "flow_rates",
        "default_rate_bps",
        "granularity_ns",
        "queue",
        "mailbox",
        "cost",
        "stats",
        "steal",
        "_queue_snapshot",
        "pacing",
        "_backlog",
        "_on_loan",
        "_deferred_due",
        "_deferred_ingest",
        "_deferred_count",
        "_leases_held",
        "mailbox_wait",
        "queue_wait",
    )

    def __init__(
        self,
        shard_id: int,
        flow_rates: Optional[Dict[int, float]] = None,
        default_rate_bps: Optional[float] = None,
        horizon_ns: int = 2_000_000_000,
        num_buckets: int = 20_000,
        queue_factory: Optional[QueueFactory] = None,
        mailbox_capacity: Optional[int] = None,
        mailbox_high_watermark: Optional[int] = None,
        latency_histograms: bool = False,
    ) -> None:
        if horizon_ns <= 0 or num_buckets <= 0:
            raise ValueError("horizon_ns and num_buckets must be positive")
        self.shard_id = shard_id
        self.flow_rates = dict(flow_rates or {})
        self.default_rate_bps = default_rate_bps
        granularity = max(1, horizon_ns // num_buckets)
        self.granularity_ns = granularity
        factory = queue_factory or (lambda spec: CircularFFSQueue(spec))
        self.queue = factory(BucketSpec(num_buckets=num_buckets, granularity=granularity))
        self.mailbox: Mailbox[Packet] = Mailbox(
            capacity=mailbox_capacity, high_watermark=mailbox_high_watermark
        )
        self.cost = CostModel()
        self.stats = ShardWorkerStats()
        self.steal = StealStats()
        self._queue_snapshot = QueueStats()
        self.pacing = PacingTable(shard_id)
        self._backlog = 0
        # Work-stealing donor state: flows currently on loan to a thief, plus
        # the side buffers that hold this shard's own work on those flows
        # back until the lease returns (the per-flow FIFO guard).
        self._on_loan: Dict[int, int] = {}
        self._deferred_due: Dict[int, List[Packet]] = {}
        self._deferred_ingest: Dict[int, List[Packet]] = {}
        self._deferred_count = 0
        # Acceptor state: foreign leases spliced into this queue and not yet
        # fully released.  While nonzero this shard must not donate — its
        # queue holds another shard's packets, and re-lending them would
        # chain a flow across three cores and lose the original lease.
        self._leases_held = 0
        self.mailbox_wait: Optional[LogHistogram] = (
            LogHistogram() if latency_histograms else None
        )
        self.queue_wait: Optional[LogHistogram] = (
            LogHistogram() if latency_histograms else None
        )

    # -- configuration -----------------------------------------------------

    def set_flow_rate(self, flow_id: int, rate_bps: float) -> None:
        """Configure the pacing rate of ``flow_id`` on this shard."""
        self.flow_rates[flow_id] = rate_bps
        self.pacing.remove(flow_id)

    def release_shaper(self, flow_id: int) -> Optional[ShapingTransaction]:
        """Detach and return the flow's pacing state (``None`` if stateless).

        Used by the runtime when a flow migrates away: the destination shard
        adopts the transaction so ``_next_free_ns`` and the burst credit
        survive the move — otherwise every migration would silently regrant
        the flow a fresh burst and break its configured rate.
        """
        return self.pacing.detach(flow_id)

    def adopt_shaper(self, flow_id: int, shaper: ShapingTransaction) -> None:
        """Install pacing state handed over from the flow's previous shard."""
        self.pacing.install(flow_id, shaper)

    def gc_flow(self, flow_id: int, now_ns: int) -> bool:
        """Drop the flow's pacing state if it no longer matters.

        Returns True when the flow holds no state on this shard: either it
        never had pacing state, or its ``next_free_ns`` has passed, in which
        case a future re-created entry stamps identically (an expired flow
        regains its initial burst credit, the same expiry semantics the FQ
        qdisc's flow GC has).  Charged like FQ's per-flow GC scan.
        """
        self.cost.charge("gc_scan")
        return self.pacing.expire(flow_id, now_ns)

    def _charge_queue_delta(self) -> None:
        """Charge the queue operations performed since the last settlement.

        Runs once a tick, so it subtracts the cost-mapped counters against
        :attr:`_queue_snapshot` in place rather than building a delta object:
        the same operations, charged in the same order, as
        ``cost.charge_queue_stats(stats.diff(snapshot).as_dict())``.  How
        often it runs changes no modelled number: every cost is a whole
        number of cycles, so each operation's float total is exact however
        the counts are grouped into charges.
        """
        stats = self.queue.stats
        settled = self._queue_snapshot
        charge = self.cost.charge
        for counter, operation in _QUEUE_COSTS:
            value = getattr(stats, counter)
            count = value - getattr(settled, counter)
            if count:
                setattr(settled, counter, value)
                charge(operation, count)

    # -- the per-quantum worker loop ---------------------------------------

    def _stamp_and_enqueue(self, packets: List[Packet], now_ns: int) -> int:
        """Stamp ``packets`` with their flows' pacing state, one batched enqueue.

        The stamping is one :meth:`PacingTable.stamp_burst` call — one probe
        loop per burst, the flow-state lookup cached across a run of
        same-flow packets; the modelled ``flow_lookup`` charge stays
        per-packet (one batched charge), since the cost model prices the
        hash-table probe a real per-packet classifier performs, not this
        interpreter's memoisation.  The queue work is left unsettled; the
        caller settles it (see :meth:`tick`).
        """
        stamped = self.pacing.stamp_burst(
            packets, self.flow_rates.get, self.default_rate_bps, now_ns
        )
        self.cost.charge("flow_lookup", len(stamped))
        queue = self.queue
        before = len(queue)
        try:
            queue.enqueue_items(stamped)
        finally:
            # Track the queue's actual growth: a fixed-range ablation queue
            # may reject a stamp mid-batch having committed the prefix, and
            # the backlog must never desync from the queue's real size.
            count = len(queue) - before
            self._backlog += count
            stats = self.stats
            stats.ingested += count
            if self._backlog > stats.backlog_peak:
                stats.backlog_peak = self._backlog
        return count

    def ingest(self, now_ns: int, limit: Optional[int] = None) -> int:
        """Drain the mailbox, stamp timestamps, one batched enqueue.

        Returns the number of packets moved into the shard's queue, with
        the queue work already charged to :attr:`cost`.  Arrivals for a
        flow that is on loan are deferred unstamped — the flow's pacing
        state travelled with the lease, and stamping with a fresh shaper
        would regrant the burst — and are stamped in arrival order when
        the lease returns (:meth:`end_lease`).
        """
        try:
            return self._ingest(now_ns, limit)
        finally:
            self._charge_queue_delta()

    def _ingest(self, now_ns: int, limit: Optional[int]) -> int:
        """:meth:`ingest` without the settlement."""
        batch = self.mailbox.drain(limit)
        if not batch:
            return 0
        if self.mailbox_wait is not None:
            # The push side stamps arrival time only while the plane is
            # armed; the wait ends here, whether or not the packet defers.
            record_wait = self.mailbox_wait.record
            for packet in batch:
                pushed_ns = packet.metadata.pop("mbox_ns", None)
                if pushed_ns is not None:
                    record_wait(now_ns - pushed_ns)
        if self._on_loan:
            ready = []
            for packet in batch:
                if packet.flow_id in self._on_loan:
                    self._deferred_ingest.setdefault(packet.flow_id, []).append(packet)
                    self._deferred_count += 1
                    self.steal.ingests_deferred += 1
                else:
                    ready.append(packet)
            batch = ready
        if not batch:
            return 0
        return self._stamp_and_enqueue(batch, now_ns)

    def drain_due(self, now_ns: int, limit: Optional[int] = None) -> List[Packet]:
        """Release every packet whose timestamp passed (one batched drain).

        Due packets of a flow that is on loan are *deferred* instead of
        released — the thief holds earlier packets of that flow, and
        releasing these now would overtake them.  They flush, still in
        per-flow FIFO order, when the lease returns (:meth:`end_lease`).
        Returns with the queue work charged to :attr:`cost`.
        """
        try:
            return self._drain_due(now_ns, limit)
        finally:
            self._charge_queue_delta()

    def _drain_due(self, now_ns: int, limit: Optional[int]) -> List[Packet]:
        """:meth:`drain_due` without the settlement."""
        drained = self.queue.extract_due_items(now_ns, limit=limit)
        self._backlog -= len(drained)
        if self.queue_wait is not None:
            # Stamp→drain sojourn: the send time is the packet's rank, so
            # the armed cost is one subtract + record per packet.
            record_wait = self.queue_wait.record
            for packet in drained:
                record_wait(now_ns - packet.rank)
        if self._on_loan:
            released = []
            for packet in drained:
                if packet.flow_id in self._on_loan:
                    self._deferred_due.setdefault(packet.flow_id, []).append(packet)
                    self._deferred_count += 1
                    self.steal.drains_deferred += 1
                else:
                    released.append(packet)
        else:
            released = drained
        self.stats.transmitted += len(released)
        return released

    def tick(self, now_ns: int, ingest_limit: Optional[int], drain_limit: Optional[int]) -> List[Packet]:
        """One scheduling quantum: batched ingest then batched drain.

        Charges the fixed per-invocation cost a real worker loop pays
        (module call, prefetch, loop setup) on top of the per-packet work.
        The queue work of both halves is settled once, after the drain —
        the same cycles, per operation and in total, as :meth:`ingest`
        then :meth:`drain_due`, which settle one each.
        """
        self.stats.ticks += 1
        self.cost.charge("batch_overhead")
        mailbox = self.mailbox
        mailbox_before = len(mailbox)
        try:
            ingested = self._ingest(now_ns, ingest_limit)
            # Deferring on-loan arrivals consumes mailbox items without an
            # enqueue; that is still work, not an idle tick.
            consumed = ingested or len(mailbox) != mailbox_before
            released = self._drain_due(now_ns, drain_limit)
        finally:
            self._charge_queue_delta()
        if not consumed and not released:
            self.stats.idle_ticks += 1
        return released

    # -- work stealing: the donor side -------------------------------------

    def grant_lease(
        self,
        lease_id: int,
        thief_shard: int,
        now_ns: int,
        max_packets: int,
        horizon_ns: int,
    ) -> Optional[FlowLease]:
        """Atomically hand the window due by ``now + horizon`` to a thief.

        Extracts up to ``max_packets`` packets stamped within the steal
        horizon (for each flow touched, a stamp-ordered prefix of that
        flow's queued packets), marks every touched flow on loan, and
        detaches their pacing state into the lease.  At most one lease is
        outstanding per donor: a second grant while flows are on loan would
        let two thieves hold adjacent windows of one flow, whose release
        times could interleave out of order.  A shard currently *holding* a
        foreign lease may not donate either — its queue contains stolen
        packets, and re-lending those would chain one flow across three
        cores (and detach it from its original lease for good).

        The extraction work is measured but **not** charged here — it rides
        in ``lease.queue_delta`` to the thief, whose core performs the pops
        on real hardware.  The donor pays only the cross-core handoff.

        Returns ``None`` when nothing is stealable (no due window, or a
        lease is already out).
        """
        if max_packets <= 0 or self._on_loan or self._leases_held:
            return None
        cutoff = now_ns + horizon_ns
        if not self.has_work_by(cutoff):
            return None
        self._charge_queue_delta()  # settle this shard's own work first
        settled = self.queue.stats.snapshot()
        stolen = self.queue.extract_due_items(cutoff, limit=max_packets)
        self._queue_snapshot = self.queue.stats.snapshot()
        delta = self._queue_snapshot.diff(settled)
        self._backlog -= len(stolen)
        flows: Dict[int, None] = {}
        for packet in stolen:
            flows.setdefault(packet.flow_id)
        shapers: Dict[int, ShapingTransaction] = {}
        detach = self.pacing.detach
        for flow_id in flows:
            self._on_loan[flow_id] = thief_shard
            shaper = detach(flow_id)
            if shaper is not None:
                shapers[flow_id] = shaper
        self.cost.charge("lock")  # cross-core handoff on the donor side
        self.steal.leases_granted += 1
        self.steal.packets_lent += len(stolen)
        return FlowLease(
            lease_id=lease_id,
            victim_shard=self.shard_id,
            thief_shard=thief_shard,
            packets=stolen,
            flow_ids=tuple(flows),
            shapers=shapers,
            queue_delta=delta,
            granted_at_ns=now_ns,
        )

    def end_lease(self, lease: FlowLease, now_ns: int) -> List[Packet]:
        """Take a lease back: re-adopt pacing state, flush deferred work.

        Returns the due packets that were deferred while the lease was out
        (all past due — the thief has released every earlier packet of
        these flows, so they must transmit immediately to stay FIFO).
        Deferred arrivals are stamped now, in arrival order, with the
        returned shapers, and re-enter the queue through the normal path.
        """
        install = self.pacing.install
        for flow_id, shaper in lease.shapers.items():
            install(flow_id, shaper)
        released: List[Packet] = []
        reingest: List[Packet] = []
        for flow_id in lease.flow_ids:
            self._on_loan.pop(flow_id, None)
            deferred = self._deferred_due.pop(flow_id, None)
            if deferred:
                released.extend(deferred)
            arrivals = self._deferred_ingest.pop(flow_id, None)
            if arrivals:
                reingest.extend(arrivals)
        self._deferred_count -= len(released) + len(reingest)
        self.stats.transmitted += len(released)
        if reingest:
            try:
                self._stamp_and_enqueue(reingest, now_ns)
            finally:
                self._charge_queue_delta()
        self.steal.leases_returned += 1
        return released

    # -- work stealing: the acceptor side ----------------------------------

    def accept_lease(self, lease: FlowLease, now_ns: int) -> int:
        """Splice a stolen window into this shard's own timestamp queue.

        Stamps are preserved, so the stolen packets release through this
        worker's normal paced drain at exactly the times the victim would
        have released them.  The extraction work measured at the victim
        (``lease.queue_delta``) plus the re-enqueue and handoff costs are
        charged to *this* core — the cycles that stealing moves off the
        bottleneck shard.
        """
        before = self.cost.total_cycles
        self.cost.charge("lock")  # cross-core handoff on the acceptor side
        self.cost.charge_queue_stats(lease.queue_delta.as_dict())
        queued = len(self.queue)
        try:
            self.queue.enqueue_items(lease.packets)
        finally:
            self._backlog += len(self.queue) - queued
        if self._backlog > self.stats.backlog_peak:
            self.stats.backlog_peak = self._backlog
        self._charge_queue_delta()
        self._leases_held += 1
        self.steal.cycles_stolen += self.cost.total_cycles - before
        self.steal.leases_received += 1
        self.steal.packets_stolen += len(lease.packets)
        return len(lease.packets)

    def finish_held_lease(self) -> None:
        """Record that one held lease fully released (donor eligibility back)."""
        assert self._leases_held > 0
        self._leases_held -= 1

    # -- crash surface (fault injection / recovery) -------------------------

    def mark_on_loan(self, flow_id: int, thief_shard: int) -> None:
        """Transplant donor state onto a restarted incarnation of a victim.

        When a shard crashes while one of its flows is out on lease, the
        replacement worker must keep deferring that flow's drains and
        arrivals until the thief returns the lease — otherwise the handoff's
        per-flow FIFO guarantee dies with the old worker object.
        """
        self._on_loan[flow_id] = thief_shard

    def crash_dump(self) -> tuple[List[Packet], Dict[int, int]]:
        """Model a core crash: surrender private state, return the wreckage.

        Returns ``(lost_packets, loaned_flows)``: every packet held in the
        core-private timestamp queue and lease-deferral buffers (lost — a
        real core's cache-resident scheduler state does not survive), plus
        the on-loan map the supervisor transplants onto the replacement via
        :meth:`mark_on_loan`.  The mailbox is deliberately untouched: it
        models a shared-memory ring owned by the producer side, so buffered
        arrivals survive the consumer's death and replay into the restarted
        worker.  No cycle costs are charged — a dead core does no work.
        """
        lost: List[Packet] = self.queue.extract_min_items(len(self.queue))
        for deferred in self._deferred_due.values():
            lost.extend(deferred)
        for arrivals in self._deferred_ingest.values():
            lost.extend(arrivals)
        loaned = dict(self._on_loan)
        self._deferred_due.clear()
        self._deferred_ingest.clear()
        self._deferred_count = 0
        self._on_loan.clear()
        self._backlog = 0
        return lost, loaned

    # -- introspection -----------------------------------------------------

    @property
    def backlog(self) -> int:
        """Packets currently held in this shard's timestamp queue."""
        return self._backlog

    @property
    def pending(self) -> int:
        """Packets in flight on this shard (mailbox + queue + lease deferrals)."""
        return self._backlog + len(self.mailbox._items) + self._deferred_count

    # The stealing plane's two reads of a worker.  Each runs for every shard
    # whenever a loaded shard wakes the idle ones, so each is one frame: the
    # fields directly, and the mailbox's ring rather than its ``len()``.

    def is_idle(self) -> bool:
        """Nothing at all in flight: no packet, no held lease, no lent flow."""
        return not (
            self._backlog
            or self.mailbox._items
            or self._deferred_count
            or self._leases_held
            or self._on_loan
        )

    def queued(self) -> int:
        """Packets queued here or waiting in the mailbox (a steal victim's load)."""
        return self._backlog + len(self.mailbox._items)

    @property
    def flows_on_loan(self) -> int:
        """Flows whose due window this shard has lent to a thief."""
        return len(self._on_loan)

    @property
    def leases_held(self) -> int:
        """Foreign leases spliced into this queue and not yet fully released."""
        return self._leases_held

    def loaned_flows(self) -> Dict[int, int]:
        """Mapping of on-loan flow id to the thief shard holding its lease."""
        return dict(self._on_loan)

    def has_work_by(self, deadline_ns: int) -> bool:
        """True when the queue holds a packet stamped at or before ``deadline_ns``."""
        if self._backlog == 0:
            return False
        return self.queue.peek_min_item().rank <= deadline_ns

    def soonest_deadline_ns(self, now_ns: int) -> Optional[int]:
        """Next time this shard has queue work (``None`` when queue empty)."""
        if self._backlog == 0:
            return None
        return max(self.queue.peek_min_item().rank, now_ns)

    def next_wake_ns(self, now_ns: int, quantum_ns: int) -> Optional[int]:
        """When this worker's next tick should fire (``None`` = go idle).

        The pure tick-timer policy, shared by every execution backend so
        simulated and real-core runs program identical wake-ups:

        * nothing in flight → no timer (the next arrival wakes the shard);
          lease-deferred packets are deliberately ignored — they can only
          move when the lease returns, and the driver wakes the shard then;
        * mailbox non-empty → one quantum out (arrivals must be stamped
          promptly);
        * only paced queue work → jump straight to the soonest deadline
          when it lies beyond the next quantum (the cFFS
          ``SoonestDeadline()`` timer programming of the Eiffel qdisc)
          instead of burning an idle tick per quantum.
        """
        mail = self.mailbox._items
        if self._backlog == 0 and not mail:
            return None
        next_ns = now_ns + quantum_ns
        if not mail:
            soonest = self.soonest_deadline_ns(now_ns)
            if soonest is not None and soonest > next_ns:
                next_ns = soonest
        return next_ns

    def queue_stats_snapshot(self) -> QueueStats:
        """Copy of the backing queue's operation counters."""
        return self.queue.stats.snapshot()


__all__ = ["QueueFactory", "ShardWorker", "ShardWorkerStats"]
