"""Ingress cores: the asynchronous RX pipeline in front of the sharded runtime.

Until this module existed, ingress was free and instantaneous: the benchmark
harness called :meth:`ShardedRuntime.submit_batch` straight off the simulator
clock, so classification cost zero cycles, no core ever sat between the NIC
and the shards, and overload had nowhere to queue except the shard mailboxes.
Real multi-core schedulers put one or more *RX cores* there — kernel NAPI
pollers, BESS port-inc workers, a DPDK rx loop — and those cores are often
the first bottleneck of the end-to-end pipeline.  This module models them:

* an :class:`IngressCore` owns a bounded :class:`RxRing` the NIC fills in
  interrupt-coalesced bursts (:meth:`IngressCore.offer`), and drains it one
  batched *pull* per ingress quantum: classify each packet to its shard
  (the RSS hash, charged per packet), group, and hand each group to the
  shard's :class:`~repro.runtime.mailbox.Mailbox` in one batched push;
* every core charges its own :class:`~repro.cpu.cost_model.CostModel`
  account — ``rx_poll`` per pull, ``rx_descriptor`` + ``flow_lookup`` per
  packet, one ``lock`` per mailbox handoff — so ingress shows up as its own
  row in the runtime's bottleneck analysis and adding a second RX core
  visibly moves the modelled end-to-end throughput;
* **backpressure**: the pull stops at the first packet whose destination
  mailbox is paused (high/low watermark hysteresis) or would be pushed past
  its high watermark; the packet stays at the ring head, the ring *grows*
  to absorb the arrival stream, and the stalled core resumes on the
  mailbox's ``on_low`` edge — so with no admission policy armed, ingress
  loses nothing, ever;
* **admission control** decides what to do when absorbing is the wrong
  answer: :class:`TailDropPolicy` (ring overflow, the NIC default),
  :class:`FlowFairDropPolicy` (longest-per-flow-queue drop, so one
  unresponsive elephant cannot starve the mice), and :class:`CoDelPolicy`
  (sojourn-time head dropping, which bounds *latency* under sustained
  overload instead of bounding occupancy).

Flows are assigned to ingress cores by an RSS-style hash with its own seed
(:meth:`FlowSharder.for_ingress <repro.runtime.sharder.FlowSharder.for_ingress>`),
so one flow always traverses one ring — per-flow FIFO composes: NIC order is
ring order is mailbox order is shard order, the same residency argument the
runtime already makes for the mailbox-to-queue leg.  The runtime's side of
all this — the lane map, one tick timer per core, offer, wake and the
``on_low`` resume — is one :class:`IngressPlane`, built only with ingress
cores.
"""

from __future__ import annotations

import abc
import sys
from array import array
from dataclasses import dataclass
from itertools import groupby, repeat
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from .mailbox import Mailbox
from .observability import LogHistogram
from .sharder import FlowSharder
from ..core.model.packet import Packet
from ..core.queues.base import CounterStatsMixin
from ..cpu import CostModel

if TYPE_CHECKING:
    from ..netsim.simulator import EventHandle
    from .runtime import ShardedRuntime


@dataclass(slots=True)
class IngressStats(CounterStatsMixin):
    """Counters kept by one ingress core.

    ``rx_packets`` counts arrivals admitted to the ring; ``rx_dropped``
    counts every packet lost at the RX stage — admission-policy drops
    (arrival- and head-drops alike) and, with ``backpressure=False`` and no
    policy armed, bare ring overflow (the hardware tail-drop an unattended
    ring performs on its own);
    ``classified`` counts packets hashed and grouped during pulls;
    ``delivered`` counts packets accepted by shard mailboxes (equal to
    ``classified`` unless a mailbox overflowed, which backpressure is there
    to prevent).  ``stalled_ticks``/``stall_cycles`` account the pulls cut
    short by a paused destination — the backpressure pressure gauge.  Ring
    waits live in :attr:`IngressCore.sojourn_hist`, the per-core
    :class:`~repro.runtime.observability.LogHistogram` of delivered packets'
    sojourns — the one source of truth for both the mean and the tails.
    """

    rx_bursts: int = 0
    rx_packets: int = 0
    rx_dropped: int = 0
    ring_grown: int = 0
    classified: int = 0
    delivered: int = 0
    ticks: int = 0
    idle_ticks: int = 0
    stalled_ticks: int = 0
    stall_cycles: float = 0.0


class RxRing:
    """The NIC-facing receive ring of one ingress core.

    A bounded FIFO held as two columns side by side — the resident packets
    in one list, their arrival times in an ``array('q')`` — read from a
    moving head index, so an arrival costs no object of its own: a burst is
    one ``list`` extend plus one array extend (:meth:`push_burst`), and a
    pull takes its window as one slice of each (:meth:`IngressCore.pull`
    reads the columns directly).  The consumed prefix is cut off once it
    outgrows the live part, or dropped whole when the ring empties.

    Per-flow occupancy counts (longest-queue drop reads them) are kept only
    once somebody reads them: :meth:`count_flows` builds them from the
    resident packets, after which every push and pop maintains them.  An
    ingress core calls it up front when its admission policy declares
    :attr:`AdmissionPolicy.reads_flow_counts`; with any other policy, or
    none, the ring keeps no counts at all.

    ``capacity`` is *nominal*: the ring itself never refuses a push —
    whether to exceed capacity (backpressure growth) or drop (admission) is
    the ingress core's decision, so the mechanics live here and the policy
    stays pluggable.
    """

    __slots__ = ("capacity", "peak", "_packets", "_arrivals", "_head", "_flow_counts")

    #: Consumed entries tolerated in front of the head before a cut.
    _COMPACT_AT = 1024

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.peak = 0
        self._packets: List[Packet] = []
        self._arrivals = array("q")
        self._head = 0
        self._flow_counts: Optional[Dict[int, int]] = None

    def push(self, arrival_ns: int, packet: Packet) -> None:
        """Append one arrival (unconditionally; admission decided upstream)."""
        self._packets.append(packet)
        self._arrivals.append(arrival_ns)
        counts = self._flow_counts
        if counts is not None:
            counts[packet.flow_id] = counts.get(packet.flow_id, 0) + 1
        size = len(self._packets) - self._head
        if size > self.peak:
            self.peak = size

    def push_burst(self, arrival_ns: int, packets: List[Packet]) -> None:
        """Append a whole burst arriving at ``arrival_ns``, in order."""
        self._packets += packets
        self._arrivals.extend(repeat(arrival_ns, len(packets)))
        counts = self._flow_counts
        if counts is not None:
            for packet in packets:
                counts[packet.flow_id] = counts.get(packet.flow_id, 0) + 1
        size = len(self._packets) - self._head
        if size > self.peak:
            self.peak = size

    def _advance(self, count: int) -> None:
        """Consume the ``count`` oldest residents."""
        packets = self._packets
        head = self._head
        counts = self._flow_counts
        if counts is not None:
            for index in range(head, head + count):
                self._forget(packets[index].flow_id)
        head += count
        if head >= len(packets):
            packets.clear()
            del self._arrivals[:]
            head = 0
        elif head >= self._COMPACT_AT and 2 * head >= len(packets):
            del packets[:head]
            del self._arrivals[:head]
            head = 0
        self._head = head

    def _forget(self, flow_id: int) -> None:
        counts = self._flow_counts
        count = counts[flow_id] - 1
        if count:
            counts[flow_id] = count
        else:
            del counts[flow_id]

    def head(self) -> Tuple[int, Packet]:
        """The oldest resident ``(arrival_ns, packet)`` pair."""
        return self._arrivals[self._head], self._packets[self._head]

    def pop(self) -> Tuple[int, Packet]:
        """Remove and return the oldest resident pair."""
        pair = self.head()
        self._advance(1)
        return pair

    def count_flows(self) -> Dict[int, int]:
        """Resident packets per flow; counting starts with the first call."""
        counts = self._flow_counts
        if counts is None:
            counts = self._flow_counts = {}
            for packet in self._packets[self._head:]:
                counts[packet.flow_id] = counts.get(packet.flow_id, 0) + 1
        return counts

    def flow_count(self, flow_id: int) -> int:
        """Resident packets of ``flow_id``."""
        return self.count_flows().get(flow_id, 0)

    def fattest_flow(self) -> Optional[int]:
        """The flow with the most resident packets (``None`` when empty)."""
        counts = self.count_flows()
        if not counts:
            return None
        return max(counts, key=counts.__getitem__)

    def drop_newest(self, flow_id: int) -> Optional[Packet]:
        """Remove the *newest* resident packet of ``flow_id``.

        Dropping from the tail of the victim flow keeps every surviving
        packet's relative order untouched (removing an interior element
        never reorders a FIFO), which is why longest-queue drop composes
        with the per-flow FIFO contract.  O(ring) scan from the tail; drops
        are the rare path by construction.
        """
        packets = self._packets
        for index in range(len(packets) - 1, self._head - 1, -1):
            packet = packets[index]
            if packet.flow_id == flow_id:
                del packets[index]
                del self._arrivals[index]
                if self._flow_counts is not None:
                    self._forget(flow_id)
                return packet
        return None

    @property
    def over_capacity(self) -> bool:
        """True while occupancy exceeds the nominal capacity."""
        return len(self) > self.capacity

    def __len__(self) -> int:
        return len(self._packets) - self._head

    @property
    def empty(self) -> bool:
        """True when no arrivals await classification."""
        return self._head >= len(self._packets)


class AdmissionPolicy(abc.ABC):
    """Decides which packets an overloaded ingress core gives up on.

    Two hooks, both optional to override:

    * :meth:`on_arrival` runs as the NIC offers a packet (before the ring
      push): return False to drop the arrival, and/or evict a resident
      packet via the ring surface and return it as the second element.
    * :meth:`on_head` runs as the pull loop reaches a packet at the ring
      head: return True to drop it instead of classifying it (the CoDel
      shape — the decision needs the *sojourn*, which only exists at
      dequeue time).

    Policies are per-core (each ingress core gets its own instance via the
    runtime's ``admission=`` factory), so state like CoDel's drop clock
    never leaks across cores.

    A policy that reads the ring's per-flow occupancy sets
    :attr:`reads_flow_counts`, so its core keeps those counts from the
    start; every other ring keeps none.
    """

    name: str = "admission"
    reads_flow_counts: bool = False

    def on_arrival(
        self, ring: RxRing, packet: Packet, now_ns: int
    ) -> Tuple[bool, Optional[Packet]]:
        """``(admit, evicted)`` decision for one arriving packet."""
        return True, None

    def on_head(self, ring: RxRing, sojourn_ns: int, now_ns: int) -> bool:
        """True to drop the packet currently at the ring head."""
        return False


class TailDropPolicy(AdmissionPolicy):
    """Ring overflow: arrivals beyond nominal capacity are dropped.

    Exactly what a hardware RX ring does when the host cannot keep up — the
    baseline every smarter policy is measured against.
    """

    name = "tail_drop"

    def on_arrival(
        self, ring: RxRing, packet: Packet, now_ns: int
    ) -> Tuple[bool, Optional[Packet]]:
        if len(ring) >= ring.capacity:
            return False, None
        return True, None


class FlowFairDropPolicy(AdmissionPolicy):
    """Longest-queue drop: the fattest flow in the ring pays for overflow.

    When the ring is full, the arrival is admitted by evicting the *newest*
    resident packet of the flow holding the most ring space — unless the
    arriving flow is itself the fattest, in which case the arrival is the
    drop.  Under overload this converges to a max-min-fair share of ring
    occupancy (the classic longest-queue-drop result): an unresponsive
    elephant flow absorbs the loss instead of starving the mice, which
    tail-drop lets it do.
    """

    name = "fair_drop"
    reads_flow_counts = True

    def on_arrival(
        self, ring: RxRing, packet: Packet, now_ns: int
    ) -> Tuple[bool, Optional[Packet]]:
        if len(ring) < ring.capacity:
            return True, None
        fattest = ring.fattest_flow()
        if fattest is None or ring.flow_count(packet.flow_id) + 1 >= ring.flow_count(fattest):
            # The arrival's flow would be (or ties) the longest queue: it is
            # its own victim — admitting by evicting a smaller flow would
            # invert the fairness goal.
            return False, None
        evicted = ring.drop_newest(fattest)
        return True, evicted


class CoDelPolicy(AdmissionPolicy):
    """CoDel-style sojourn-time dropper: bound *latency*, not occupancy.

    Arrivals are always admitted (the ring absorbs bursts); the drop
    decision happens as packets surface at the head, where their sojourn
    time is known.  The control law is CoDel's: once the sojourn has stayed
    above ``target_ns`` for a full ``interval_ns``, enter the dropping
    state and drop at head with the next drop scheduled ``interval /
    sqrt(count)`` later, so the drop rate ramps until sojourn dips back
    under target.  Good queues (bursts that drain within an interval) are
    never touched — the property that makes CoDel safe to leave armed.
    """

    name = "codel"

    def __init__(self, target_ns: int = 1_000_000, interval_ns: int = 10_000_000) -> None:
        if target_ns <= 0 or interval_ns <= 0:
            raise ValueError("target_ns and interval_ns must be positive")
        self.target_ns = target_ns
        self.interval_ns = interval_ns
        self._first_above_ns: Optional[int] = None
        self._dropping = False
        self._drop_next_ns = 0
        self._count = 0

    def _control_law(self, reference_ns: int) -> int:
        return reference_ns + int(self.interval_ns / max(1, self._count) ** 0.5)

    def on_head(self, ring: RxRing, sojourn_ns: int, now_ns: int) -> bool:
        if sojourn_ns < self.target_ns:
            # Below target: leave the dropping state and forget the episode.
            self._first_above_ns = None
            self._dropping = False
            return False
        if self._first_above_ns is None:
            self._first_above_ns = now_ns + self.interval_ns
            return False
        if not self._dropping:
            if now_ns < self._first_above_ns:
                return False
            # Sojourn stayed above target for a whole interval: start
            # dropping.  Resume near the previous drop rate when the last
            # episode was recent (CoDel's count hysteresis, simplified to a
            # halving restart).
            self._dropping = True
            self._count = max(1, self._count // 2)
            self._drop_next_ns = self._control_law(now_ns)
            return True
        if now_ns >= self._drop_next_ns:
            self._count += 1
            self._drop_next_ns = self._control_law(self._drop_next_ns)
            return True
        return False


#: Builds one admission-policy instance per ingress core.
AdmissionFactory = Callable[[], AdmissionPolicy]

_ADMISSION_NAMES: Dict[str, AdmissionFactory] = {
    "tail_drop": TailDropPolicy,
    "fair_drop": FlowFairDropPolicy,
    "codel": CoDelPolicy,
}


def make_admission_factory(
    admission: "str | AdmissionFactory | None",
) -> Optional[AdmissionFactory]:
    """Normalise an ``admission=`` argument into a per-core policy factory.

    Accepts ``None`` (backpressure only), one of the registered names
    (``"tail_drop"``, ``"fair_drop"``, ``"codel"``), or any zero-argument
    callable returning an :class:`AdmissionPolicy`.
    """
    if admission is None:
        return None
    if isinstance(admission, str):
        try:
            return _ADMISSION_NAMES[admission]
        except KeyError as exc:
            raise ValueError(
                f"unknown admission policy {admission!r}; "
                f"choose from {sorted(_ADMISSION_NAMES)}"
            ) from exc
    return admission


def _rooms(mailboxes: List[Mailbox]) -> Optional[List[int]]:
    """Packets each mailbox takes before its high watermark (or capacity).

    0 while paused, ``sys.maxsize`` for an unbounded mailbox, and ``None``
    when no mailbox is bounded at all.  A pull that fills a room lands the
    mailbox exactly *at* its high watermark, so it pauses and its ``on_low``
    edge wakes the stalled core.
    """
    rooms = []
    bounded = False
    for mailbox in mailboxes:
        if mailbox.paused:
            rooms.append(0)
            bounded = True
            continue
        limit = mailbox.high_watermark
        if limit is None:
            limit = mailbox.capacity
        if limit is None:
            rooms.append(sys.maxsize)
        else:
            rooms.append(limit - len(mailbox))
            bounded = True
    return rooms if bounded else None


class IngressCore:
    """One RX core: a bounded ring drained by batched classify + handoff.

    Args:
        core_id: index of this core among the runtime's ingress cores.
        ring_capacity: nominal RX ring size (admission policies enforce it;
            pure backpressure grows past it, counting ``ring_grown``).
        pull_batch: largest number of packets one pull classifies — the
            NAPI budget of the poll loop.
        admission: optional :class:`AdmissionPolicy` instance for this core.
        backpressure: honour mailbox watermarks (pause the pull, grow the
            ring) — when False and no admission policy is armed, the ring
            tail-drops at nominal capacity like bare hardware.
    """

    __slots__ = (
        "core_id",
        "ring",
        "pull_batch",
        "admission",
        "backpressure",
        "cost",
        "stats",
        "stalled",
        "sojourn_hist",
    )

    def __init__(
        self,
        core_id: int,
        ring_capacity: int = 512,
        pull_batch: int = 64,
        admission: Optional[AdmissionPolicy] = None,
        backpressure: bool = True,
    ) -> None:
        if pull_batch <= 0:
            raise ValueError("pull_batch must be positive")
        self.core_id = core_id
        self.ring = RxRing(ring_capacity)
        if admission is not None and admission.reads_flow_counts:
            self.ring.count_flows()
        self.pull_batch = pull_batch
        self.admission = admission
        self.backpressure = backpressure
        self.cost = CostModel()
        self.stats = IngressStats()
        #: True while the last pull stopped on a paused mailbox; the runtime
        #: uses it to wake exactly the stalled cores on the ``on_low`` edge.
        self.stalled = False
        #: Ring sojourn of every *delivered* packet — bounded memory where
        #: the old raw-sample list grew per packet, and the single source of
        #: truth for both the mean and the tail quantiles.
        self.sojourn_hist = LogHistogram()

    # -- the NIC side ------------------------------------------------------

    def offer(self, packets: List[Packet], now_ns: int) -> int:
        """One interrupt-coalesced RX burst; returns packets admitted.

        Admission runs per packet (``admission_check`` cycles each when a
        policy is armed — the occupancy/state compare a software dropper
        pays); the DMA write itself costs the core nothing, which is why the
        per-packet ``rx_descriptor`` charge lands at pull time instead.
        """
        stats = self.stats
        stats.rx_bursts += 1
        policy = self.admission
        ring = self.ring
        admitted = 0
        if policy is None:
            if not self.backpressure:
                room = max(0, ring.capacity - len(ring))
                if room < len(packets):
                    stats.rx_dropped += len(packets) - room
                    packets = packets[:room]
            before = len(ring)
            ring.push_burst(now_ns, packets)
            admitted = len(packets)
            if before + admitted > ring.capacity:
                # The pushes that left the ring above capacity, one by one.
                stats.ring_grown += before + admitted - max(before, ring.capacity)
        else:
            self.cost.charge("admission_check", len(packets))
            for packet in packets:
                admit, evicted = policy.on_arrival(ring, packet, now_ns)
                if evicted is not None:
                    stats.rx_dropped += 1
                if not admit:
                    stats.rx_dropped += 1
                    continue
                ring.push(now_ns, packet)
                if ring.over_capacity:
                    stats.ring_grown += 1
                admitted += 1
        stats.rx_packets += admitted
        return admitted

    # -- the pull loop -----------------------------------------------------

    def pull(
        self,
        now_ns: int,
        route: Callable[..., Dict[int, List[Packet]]],
        mailboxes: List[Mailbox],
        deliver: Callable[[int, List[Packet]], int],
    ) -> int:
        """One ingress quantum: classify up to ``pull_batch`` head packets.

        ``route(packets, rooms, groups=None)`` is the runtime's burst router
        (:meth:`ShardedRuntime._route_burst
        <repro.runtime.runtime.ShardedRuntime._route_burst>`): it returns a
        dict keyed by destination shard holding the routed packets in ring
        order — ``groups`` itself when given, with the packets appended — and
        commits the ones each handoff will take.  It routes per flow, and
        stops at the first packet whose shard already holds ``rooms[shard]``
        packets of the pull, leaving that packet and all behind it unrouted.
        ``deliver(shard, packets)`` is the runtime's handoff
        (:meth:`ShardedRuntime._handoff
        <repro.runtime.runtime.ShardedRuntime._handoff>`): it pushes one
        per-shard group and returns how many the mailbox accepted.

        Backpressure: a destination's room is its distance to the high
        watermark (or capacity), 0 while paused — read once per shard per
        pull, which is exact because nothing drains a mailbox between
        classify and deliver (``rooms`` is ``None`` when no mailbox is
        bounded).  The first packet that does not fit stays at the ring
        head; per-flow FIFO is safe because the *whole ring* waits, not just
        the blocked flow.

        With no head-dropping policy the whole head window is routed in one
        call and taken as one slice of the ring's columns.  A policy that
        overrides :meth:`AdmissionPolicy.on_head` decides the head packet by
        packet — each verdict needs that packet's sojourn and moves the
        policy's state, so none may be asked past the packet that blocks —
        and each survivor is routed on its own, into the pull's groups.
        Delivered packets' sojourns are recorded once per run of equal
        arrival times.

        Returns the number of packets delivered downstream.
        """
        stats = self.stats
        stats.ticks += 1
        cost = self.cost
        cost.charge("rx_poll")
        ring = self.ring
        if ring.empty:
            stats.idle_ticks += 1
            self.stalled = False
            return 0
        rooms = _rooms(mailboxes) if self.backpressure else None
        budget = self.pull_batch
        policy = self.admission
        head_drops = 0
        if policy is None or type(policy).on_head is AdmissionPolicy.on_head:
            start = ring._head
            packets = ring._packets[start:start + budget]
            groups = route(packets, rooms)
            taken = sum(map(len, groups.values()))
            blocked = taken < len(packets)
            arrivals = ring._arrivals[start:start + taken]
            ring._advance(taken)
        else:
            groups = {}
            packets = []
            arrivals = array("q")
            blocked = False
            while len(packets) < budget and not ring.empty:
                arrival_ns, packet = ring.head()
                if policy.on_head(ring, now_ns - arrival_ns, now_ns):
                    ring.pop()
                    head_drops += 1
                    continue
                route([packet], rooms, groups)
                if sum(map(len, groups.values())) == len(packets):
                    blocked = True
                    break
                ring.pop()
                packets.append(packet)
                arrivals.append(arrival_ns)
            taken = len(packets)
            stats.rx_dropped += head_drops
        # One charge per operation per pull, not per packet: every cost is
        # integer-valued, so n charges of c and one charge of n*c leave the
        # account byte-identical (pinned in tests/cpu/test_cost_model.py).
        if taken or head_drops:
            cost.charge("rx_descriptor", taken + head_drops)
        if head_drops:
            cost.charge("admission_check", head_drops)
        if taken:
            cost.charge("flow_lookup", taken)
        delivered = 0
        short: Optional[Dict[int, int]] = None
        for shard, group in groups.items():
            cost.charge("lock")  # the cross-core mailbox handoff
            offered = len(group)  # a handoff fault cuts the group in place
            accepted = deliver(shard, group)
            delivered += accepted
            if accepted < offered:
                if short is None:
                    short = {}
                short[shard] = accepted
        if delivered:
            self._record_sojourns(now_ns, packets, arrivals, groups, short)
        stats.classified += taken
        stats.delivered += delivered
        self.stalled = blocked
        if blocked:
            stats.stalled_ticks += 1
            stats.stall_cycles += cost.cost_of("rx_poll")
        return delivered

    def _record_sojourns(
        self,
        now_ns: int,
        packets: List[Packet],
        arrivals: array,
        groups: Dict[int, List[Packet]],
        short: Optional[Dict[int, int]],
    ) -> None:
        """Record the ring sojourn of every delivered packet.

        ``arrivals`` belong to the taken packets, which lead ``packets`` in
        ring order; when no group was cut, the delivered packets are exactly
        the taken ones.  A group cut short delivered ``short[shard]``
        packets: an armed handoff fault eats the group's head, trimming it
        off the group in place (:meth:`Supervisor.trim_handoff
        <repro.runtime.faults.Supervisor.trim_handoff>`), and the mailbox
        takes what follows up to its room, so the delivered packets are the
        first ``short[shard]`` of what the group still holds.
        """
        record = self.sojourn_hist.record
        if short is None:
            first = arrivals[0]
            if arrivals.count(first) == len(arrivals):
                record(now_ns - first, len(arrivals))
            else:
                for arrival_ns, run in groupby(arrivals):
                    record(now_ns - arrival_ns, len(list(run)))
            return
        arrival_of = {id(packet): arrival_ns for packet, arrival_ns in zip(packets, arrivals)}
        for shard, group in groups.items():
            for packet in group[: short.get(shard, len(group))]:
                record(now_ns - arrival_of[id(packet)])

    def next_wake_ns(self, now_ns: int, quantum_ns: int) -> Optional[int]:
        """When this core's next pull should fire (``None`` = go idle).

        The pure tick-timer policy, mirroring
        :meth:`ShardWorker.next_wake_ns
        <repro.runtime.worker.ShardWorker.next_wake_ns>`: an empty ring
        means the next ``offer`` wakes the core; a loaded (or blocked) ring
        polls again one ingress quantum out — for a stalled core that is
        the liveness belt behind the mailbox ``on_low`` resume edge.
        """
        if self.ring.empty:
            return None
        return now_ns + quantum_ns

    # -- introspection -----------------------------------------------------

    @property
    def backlog(self) -> int:
        """Packets resident in this core's RX ring."""
        return len(self.ring)


class IngressPlane:
    """The RX plane of one :class:`~repro.runtime.runtime.ShardedRuntime`.

    Built only with ``ingress_cores > 0``.  Owns the lane map (flow -> RX
    core, a :class:`~repro.runtime.sharder.FlowSharder` with its own seed), one
    timer handle and one tick callback per lane, and the RX quantum: one
    quarter of the scheduling quantum, so several NIC pulls land per
    scheduling quantum, as NAPI polls outpace scheduler ticks.  The driver's
    submit paths call :meth:`offer`; every shard mailbox's ``on_low`` edge
    calls :meth:`resume_stalled`; the supervisor calls :meth:`wake` when it
    clears a wedge; the driver's ``stop`` and ``telemetry`` call
    :meth:`stop` and :meth:`telemetry`.  The plane reads the driver's
    ``simulator``, ``quantum_ns``, ``ingress_cores``, ``workers`` (their
    mailboxes, once: a restart keeps the mailbox object), ``tracer`` and
    ``_supervisor``, and calls only its ``_route_burst``, ``_handoff`` and
    ``_arm_rebalance``.
    """

    def __init__(self, runtime: "ShardedRuntime", hash_seed: Optional[int]) -> None:
        self._runtime = runtime
        self._simulator = runtime.simulator
        self._tracer = runtime.tracer
        self._supervisor = runtime._supervisor
        self.cores: List[IngressCore] = runtime.ingress_cores
        self.quantum_ns = max(1, runtime.quantum_ns // 4)
        self.lanes = FlowSharder.for_ingress(len(self.cores), hash_seed=hash_seed)
        self._mailboxes = [worker.mailbox for worker in runtime.workers]
        self._handles: List[Optional["EventHandle"]] = [None] * len(self.cores)
        # Written here, not as a functools.partial: a callback's __module__
        # is how a tracer tells which layer it belongs to.
        tick = self._tick
        self._callbacks: List[Callable[[], None]] = [
            (lambda lane=lane: tick(lane)) for lane in range(len(self.cores))
        ]
        for mailbox in self._mailboxes:
            # The falling watermark edge is the resume signal: a shard
            # draining below its low watermark wakes exactly the RX cores
            # that stalled on it (event-driven, no polling).
            mailbox.on_low = self.resume_stalled

    def offer(self, packets: List[Packet]) -> int:
        """Spread a NIC burst over the RX rings by flow hash.

        One flow always traverses one ring (per-flow FIFO composes through
        the whole pipeline); returns packets admitted past the admission
        policy.  With pure backpressure everything is admitted — the rings
        grow instead of dropping.
        """
        now = self._simulator.now_ns
        admitted = 0
        for lane, group in self.spread(packets).items():
            core = self.cores[lane]
            admitted += core.offer(group, now)
            if not core.ring.empty:
                self.wake(lane)
        return admitted

    def spread(self, packets: List[Packet]) -> Dict[int, List[Packet]]:
        """Each lane's packets of the burst, in burst order.

        A flow's lane is read from the lane sharder's memo and asked only
        on a miss.
        """
        lanes = self.lanes
        if lanes.num_shards == 1:
            return {0: packets}
        placed_get = lanes.placed.get
        lane_for = lanes.shard_for
        groups: Dict[int, List[Packet]] = {}
        get_group = groups.get
        for packet in packets:
            flow_id = packet.flow_id
            lane = placed_get(flow_id)
            if lane is None:
                lane = lane_for(flow_id)
            group = get_group(lane)
            if group is None:
                groups[lane] = [packet]
            else:
                group.append(packet)
        return groups

    def wake(self, lane: int) -> None:
        """Guarantee RX core ``lane`` pulls within one RX quantum.

        RX ticks are only ever armed at ``now`` or one RX quantum out, so an
        already-armed pull is soon enough for fresh ring arrivals.  A wedged
        poller ignores wakes until the supervisor clears it.
        """
        if self._supervisor is not None and self._supervisor.is_wedged(lane):
            return
        handle = self._handles[lane]
        if handle is not None and handle.active:
            return
        self._handles[lane] = self._simulator.schedule_at(
            self._simulator.now_ns, self._callbacks[lane]
        )

    def resume_stalled(self) -> None:
        """Resume every RX core parked on backpressure (the ``on_low`` edge).

        A stalled core always has its quantum-cadence retry armed; the point
        of the falling-watermark edge is to beat that retry, so a retry due
        later than now is cancelled before the :meth:`wake` (deferring to it
        would cost up to one RX quantum of extra ring sojourn per stall).
        """
        now = self._simulator.now_ns
        for lane, core in enumerate(self.cores):
            if not core.stalled or core.ring.empty:
                continue
            handle = self._handles[lane]
            if handle is not None and handle.active and handle.time_ns > now:
                self._simulator.cancel(handle)
            self.wake(lane)

    def _tick(self, lane: int) -> None:
        core = self.cores[lane]
        self._handles[lane] = None
        now = self._simulator.now_ns
        if self._supervisor is not None and self._supervisor.rx_blocked(lane, now):
            return  # wedged: no pull, no reschedule
        runtime = self._runtime
        delivered = core.pull(now, runtime._route_burst, self._mailboxes, runtime._handoff)
        if delivered:
            runtime._arm_rebalance()
        if self._tracer is not None:
            self._tracer.emit(
                now,
                f"rx-{lane}",
                "ingress_pull",
                {"delivered": delivered, "ring": core.backlog, "stalled": core.stalled},
            )
        # Blocked cores are primarily woken by the mailbox on_low edge; the
        # quantum-cadence retry is the liveness belt for custom watermark
        # wirings, and for a loaded ring it is simply the next NAPI poll.
        next_ns = core.next_wake_ns(now, self.quantum_ns)
        if next_ns is None:
            return  # the next offer() wakes this core
        self._handles[lane] = self._simulator.schedule_at(next_ns, self._callbacks[lane])

    def stop(self) -> None:
        """Cancel every armed RX tick."""
        for handle in self._handles:
            if handle is not None and handle.active:
                self._simulator.cancel(handle)
        self._handles[:] = [None] * len(self._handles)

    def telemetry(self) -> List["IngressTelemetry"]:
        """One row per RX core, as the runtime's telemetry reports it."""
        return [
            IngressTelemetry(
                core_id=core.core_id,
                stats=core.stats.snapshot(),
                cycles=core.cost.total_cycles,
                ring_backlog=core.backlog,
                ring_peak=core.ring.peak,
                sojourn=core.sojourn_hist.snapshot(),
            )
            for core in self.cores
        ]


@dataclass
class IngressTelemetry:
    """Telemetry of one ingress core, as collected by the runtime."""

    core_id: int
    stats: IngressStats
    cycles: float
    ring_backlog: int
    ring_peak: int
    sojourn: LogHistogram

    @property
    def mean_sojourn_ns(self) -> float:
        """Mean RX-ring wait of delivered packets (0 when none delivered).

        Read from the sojourn histogram — the same samples the quantiles
        come from, so the mean can no longer drift out of sync with the
        recorded sojourns when admission drops packets at the ring head.
        """
        return self.sojourn.mean

    def as_dict(self) -> dict:
        """JSON-friendly snapshot."""
        payload = self.stats.as_dict()
        payload.update(
            core_id=self.core_id,
            cycles=self.cycles,
            ring_backlog=self.ring_backlog,
            ring_peak=self.ring_peak,
            mean_sojourn_ns=self.mean_sojourn_ns,
            sojourn=self.sojourn.as_dict(),
        )
        return payload


__all__ = [
    "AdmissionFactory",
    "AdmissionPolicy",
    "CoDelPolicy",
    "FlowFairDropPolicy",
    "IngressCore",
    "IngressPlane",
    "IngressStats",
    "IngressTelemetry",
    "RxRing",
    "TailDropPolicy",
    "make_admission_factory",
]
