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
runtime already makes for the mailbox-to-queue leg.
"""

from __future__ import annotations

import abc
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from .mailbox import Mailbox
from .observability import LogHistogram
from ..core.model.packet import Packet
from ..core.queues.base import CounterStatsMixin
from ..cpu import CostModel


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

    A bounded FIFO of ``(arrival_ns, packet)`` pairs with the two pieces of
    bookkeeping the admission policies need: per-flow occupancy counts (for
    longest-queue drop) and arrival timestamps at the head (for sojourn-time
    drop).  ``capacity`` is *nominal*: the ring itself never refuses a push —
    whether to exceed capacity (backpressure growth) or drop (admission) is
    the ingress core's decision, so the mechanics live here and the policy
    stays pluggable.
    """

    __slots__ = ("capacity", "peak", "_items", "_flow_counts")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.peak = 0
        self._items: Deque[Tuple[int, Packet]] = deque()
        self._flow_counts: Dict[int, int] = {}

    def push(self, arrival_ns: int, packet: Packet) -> None:
        """Append one arrival (unconditionally; admission decided upstream)."""
        self._items.append((arrival_ns, packet))
        counts = self._flow_counts
        counts[packet.flow_id] = counts.get(packet.flow_id, 0) + 1
        if len(self._items) > self.peak:
            self.peak = len(self._items)

    def _forget(self, flow_id: int) -> None:
        count = self._flow_counts[flow_id] - 1
        if count:
            self._flow_counts[flow_id] = count
        else:
            del self._flow_counts[flow_id]

    def head(self) -> Tuple[int, Packet]:
        """The oldest resident ``(arrival_ns, packet)`` pair."""
        return self._items[0]

    def pop(self) -> Tuple[int, Packet]:
        """Remove and return the oldest resident pair."""
        arrival_ns, packet = self._items.popleft()
        self._forget(packet.flow_id)
        return arrival_ns, packet

    def flow_count(self, flow_id: int) -> int:
        """Resident packets of ``flow_id``."""
        return self._flow_counts.get(flow_id, 0)

    def fattest_flow(self) -> Optional[int]:
        """The flow with the most resident packets (``None`` when empty)."""
        if not self._flow_counts:
            return None
        return max(self._flow_counts, key=self._flow_counts.__getitem__)

    def drop_newest(self, flow_id: int) -> Optional[Packet]:
        """Remove the *newest* resident packet of ``flow_id``.

        Dropping from the tail of the victim flow keeps every surviving
        packet's relative order untouched (removing an interior element
        never reorders a FIFO), which is why longest-queue drop composes
        with the per-flow FIFO contract.  O(ring) scan from the tail; drops
        are the rare path by construction.
        """
        items = self._items
        for index in range(len(items) - 1, -1, -1):
            if items[index][1].flow_id == flow_id:
                _arrival, packet = items[index]
                del items[index]
                self._forget(flow_id)
                return packet
        return None

    @property
    def over_capacity(self) -> bool:
        """True while occupancy exceeds the nominal capacity."""
        return len(self._items) > self.capacity

    def __len__(self) -> int:
        return len(self._items)

    @property
    def empty(self) -> bool:
        """True when no arrivals await classification."""
        return not self._items


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
    """

    name: str = "admission"

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
            grown = 0
            for packet in packets:
                ring.push(now_ns, packet)
                if ring.over_capacity:
                    grown += 1
            admitted = len(packets)
            stats.ring_grown += grown
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
        route: Callable[[int], int],
        mailboxes: List[Mailbox],
        deliver: Callable[[int, List[Packet]], int],
    ) -> int:
        """One ingress quantum: classify up to ``pull_batch`` head packets.

        ``route`` maps a flow id to its shard (the runtime passes its
        residency-aware router, so in-flight flows keep following their
        packets); ``deliver`` pushes one per-shard group and returns how
        many the mailbox accepted.  The loop stops early — leaving the
        blocking packet at the ring head — when a destination mailbox is
        paused or one more packet would push it to its high watermark /
        capacity; per-flow FIFO is safe because the *whole ring* waits, not
        just the blocked flow.

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
        policy = self.admission
        backpressure = self.backpressure
        groups: Dict[int, List[Packet]] = {}
        sojourn_by_shard: Dict[int, List[int]] = {}
        taken = 0
        head_drops = 0
        blocked = False
        while not ring.empty and taken < self.pull_batch:
            arrival_ns, packet = ring.head()
            if policy is not None and policy.on_head(ring, now_ns - arrival_ns, now_ns):
                ring.pop()
                stats.rx_dropped += 1
                head_drops += 1
                continue
            shard = route(packet.flow_id)
            group = groups.get(shard)
            pending = 0 if group is None else len(group)
            mailbox = mailboxes[shard]
            if backpressure:
                limit = mailbox.high_watermark
                if limit is None:
                    limit = mailbox.capacity
                if mailbox.paused or (
                    limit is not None and len(mailbox) + pending + 1 > limit
                ):
                    # One more packet would cross the destination's high
                    # watermark: stop the pull here.  Delivering the group
                    # below lands occupancy exactly *at* the watermark, so
                    # the mailbox pauses and its on_low edge wakes us.
                    blocked = True
                    break
            ring.pop()
            if group is None:
                groups[shard] = [packet]
                sojourn_by_shard[shard] = [now_ns - arrival_ns]
            else:
                group.append(packet)
                sojourn_by_shard[shard].append(now_ns - arrival_ns)
            taken += 1
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
        record_sojourn = self.sojourn_hist.record
        for shard, group in groups.items():
            cost.charge("lock")  # the cross-core mailbox handoff
            accepted = deliver(shard, group)
            delivered += accepted
            for sojourn_ns in sojourn_by_shard[shard][:accepted]:
                record_sojourn(sojourn_ns)
        stats.classified += taken
        stats.delivered += delivered
        self.stalled = blocked
        if blocked:
            stats.stalled_ticks += 1
            stats.stall_cycles += cost.cost_of("rx_poll")
        if taken == 0 and head_drops == 0 and not blocked:
            stats.idle_ticks += 1
        return delivered

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
    "IngressStats",
    "IngressTelemetry",
    "RxRing",
    "TailDropPolicy",
    "make_admission_factory",
]
