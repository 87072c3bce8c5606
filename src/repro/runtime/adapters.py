"""Integration adapters: run existing substrates sharded.

Two adapters let the rest of the codebase use the sharding layer without
learning new interfaces:

* :class:`ShardedPortQueue` — a netsim :class:`~repro.netsim.elements.PortQueue`
  composed of per-shard sub-queues with RSS-style flow classification.  A
  multi-queue NIC port is exactly ``Link(queue=ShardedPortQueue(...))``: the
  link's burst pull then services the shard rings round-robin, as a NIC TX
  scheduler services its hardware queues.
* :class:`MultiQueueQdisc` — the kernel layer's ``mq`` analogue: a classful
  root qdisc that hashes each packet to one of N child qdiscs (any existing
  :class:`~repro.kernel.qdisc.Qdisc`), drains children round-robin under a
  shared budget, and reports the earliest child deadline as its own.

Both adapters are substrate-facing and clock-free: they never touch the
runtime's execution backend (:mod:`repro.runtime.backend`) — a sharded port
or mq qdisc is driven by its substrate's own event loop, simulated or not —
so they compose unchanged whichever backend drives :class:`ShardedRuntime`.
Neither moves a packet between sub-queues once classified: cross-core work
stealing belongs to :class:`ShardedRuntime`, whose flow leases carry the
pacing state and deferral that make such a move order-safe.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from .sharder import FlowSharder
from ..core.model.packet import Packet
from ..kernel.qdisc import Qdisc
from ..netsim.elements import PortQueue


class ShardedPortQueue(PortQueue):
    """A multi-queue switch port: N sub-queues behind one PortQueue facade.

    Args:
        num_shards: sub-queue (hardware queue) count.
        queue_factory: builds each sub-queue, e.g. ``lambda shard:
            DropTailEcnQueue(capacity_packets=64)``.
        arbiter: TX arbitration — ``"rr"`` (round-robin rings, the NIC
            default) or ``"priority"`` (serve the ring whose head packet
            ranks best, re-arbitrated per packet; requires every sub-queue
            to expose ``head_priority()``, as
            :class:`~repro.netsim.elements.PFabricPortQueue` does — the
            arbitration a multi-queue pFabric port needs, since RR would let
            mice wait behind an elephant's ring turns).

    ``capacity_packets`` of the facade is the sum over sub-queues; ``drops``
    and ``enqueued`` counters aggregate the per-shard events observed through
    this adapter.  Dequeue services the sub-queues round-robin starting after
    the last-served shard, which is how NIC round-robin TX arbitration
    interleaves its rings.  Packets never change rings, so per-ring (and
    therefore per-flow) FIFO holds under either arbiter.
    """

    ARBITERS = ("rr", "priority")

    def __init__(
        self,
        num_shards: int,
        queue_factory: Callable[[int], PortQueue],
        arbiter: str = "rr",
    ) -> None:
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        if arbiter not in self.ARBITERS:
            raise ValueError(f"unknown arbiter {arbiter!r}; choose from {self.ARBITERS}")
        self.shards: List[PortQueue] = [queue_factory(shard) for shard in range(num_shards)]
        if arbiter == "priority" and not all(
            hasattr(queue, "head_priority") for queue in self.shards
        ):
            raise ValueError("priority arbitration needs head_priority() on every sub-queue")
        super().__init__(sum(queue.capacity_packets for queue in self.shards))
        self.num_shards = num_shards
        self.sharder = FlowSharder(num_shards)
        self.arbiter = arbiter
        self._next_rr = 0

    def shard_for(self, packet: Packet) -> int:
        """Sub-queue index the packet classifies to."""
        return self.sharder.shard_for(packet.flow_id)

    def enqueue(self, packet: Packet) -> bool:
        accepted = self.shards[self.shard_for(packet)].enqueue(packet)
        if accepted:
            self.enqueued += 1
        else:
            self.drops += 1
        return accepted

    def enqueue_batch(self, packets: List[Packet]) -> int:
        # Group per shard so each sub-queue sees one burst (its own batched
        # admission path), preserving arrival order within every shard.
        by_shard: dict[int, List[Packet]] = {}
        for packet in packets:
            by_shard.setdefault(self.shard_for(packet), []).append(packet)
        accepted = 0
        for shard, group in by_shard.items():
            taken = self.shards[shard].enqueue_batch(group)
            accepted += taken
            self.drops += len(group) - taken
        self.enqueued += accepted
        return accepted

    def _best_priority_shard(self) -> Optional[int]:
        """Loaded ring with the best (lowest) head priority; ties follow RR.

        The priority arbiter of a multi-queue pFabric port: strict priority
        holds *across* rings as well as within them, which RR arbitration
        cannot provide (a mouse flow's packets would wait behind an
        elephant's ring turns — exactly the small-flow FCT collapse the
        Figure 19 multi-queue reproduction guards against).
        """
        best = None
        best_priority = None
        for offset in range(self.num_shards):
            shard = (self._next_rr + offset) % self.num_shards
            queue = self.shards[shard]
            if not len(queue):
                continue
            priority = queue.head_priority()  # type: ignore[attr-defined]
            if priority is None:
                continue
            if best_priority is None or priority < best_priority:
                best, best_priority = shard, priority
        return best

    def dequeue(self) -> Optional[Packet]:
        if self.arbiter == "priority":
            shard = self._best_priority_shard()
            if shard is None:
                return None
            self._next_rr = (shard + 1) % self.num_shards
            return self.shards[shard].dequeue()
        for offset in range(self.num_shards):
            shard = (self._next_rr + offset) % self.num_shards
            packet = self.shards[shard].dequeue()
            if packet is not None:
                self._next_rr = (shard + 1) % self.num_shards
                return packet
        return None

    def dequeue_batch(self, n: int) -> List[Packet]:
        """One NIC pull: round-robin bursts over the non-empty sub-queues."""
        batch: List[Packet] = []
        if self.arbiter == "priority":
            # Strict cross-ring priority re-arbitrates per packet: the head
            # comparison is the whole point, so the pull cannot take long
            # same-ring runs the way the RR quota does.
            while len(batch) < n:
                packet = self.dequeue()
                if packet is None:
                    break
                batch.append(packet)
            return batch
        while len(batch) < n:
            start = self._next_rr
            progressed = False
            for offset in range(self.num_shards):
                shard = (start + offset) % self.num_shards
                quota = max(1, (n - len(batch)) // self.num_shards)
                pulled = self.shards[shard].dequeue_batch(min(quota, n - len(batch)))
                if pulled:
                    batch.extend(pulled)
                    self._next_rr = (shard + 1) % self.num_shards
                    progressed = True
                if len(batch) >= n:
                    break
            if not progressed:
                break
        return batch

    def __len__(self) -> int:
        return sum(len(queue) for queue in self.shards)


class MultiQueueQdisc(Qdisc):
    """``mq``-style root qdisc: per-shard children behind one qdisc surface.

    Args:
        num_shards: child (virtual transmit queue / CPU) count.
        child_factory: builds child ``shard`` — any existing qdisc works,
            e.g. ``lambda shard: EiffelQdisc(default_rate_bps=1e9)``.

    The root performs no queueing of its own: packets hash straight into a
    child (as skbs hash to a per-CPU transmit queue), ``dequeue_due`` drains
    children round-robin under the shared budget, and the watchdog deadline
    is the minimum over children.  Children charge their work to their own
    cost accounts (the per-core split that is the point of ``mq``), and the
    root mirrors every child delta into its own system/softirq accounts so
    drivers that sample only the root — ``KernelSimulation``'s
    ``IntervalSample`` — see the whole machine; :meth:`max_child_cycles`
    exposes the bottleneck-core view.  A flow always hashes to the same
    child, so per-flow release order is the child's own.
    """

    name = "mq"

    def __init__(
        self,
        num_shards: int,
        child_factory: Callable[[int], Qdisc],
    ) -> None:
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        super().__init__()
        self.num_shards = num_shards
        self.children: List[Qdisc] = [child_factory(shard) for shard in range(num_shards)]
        self.sharder = FlowSharder(num_shards)
        self._next_rr = 0
        self._child_cost_snapshots = [(0.0, 0.0)] * num_shards

    def _absorb_child_costs(self, shard: int) -> None:
        """Mirror the child's cost delta into the root's accounts."""
        child = self.children[shard]
        system_prev, softirq_prev = self._child_cost_snapshots[shard]
        system_now = child.system_cost.total_cycles
        softirq_now = child.softirq_cost.total_cycles
        if system_now > system_prev:
            self.system_cost.account.charge("child_qdisc", system_now - system_prev)
        if softirq_now > softirq_prev:
            self.softirq_cost.account.charge("child_qdisc", softirq_now - softirq_prev)
        self._child_cost_snapshots[shard] = (system_now, softirq_now)

    # -- qdisc interface ---------------------------------------------------

    def enqueue_packet(self, packet: Packet, now_ns: int) -> None:
        shard = self.sharder.shard_for(packet.flow_id)
        packet.metadata["mq_shard"] = shard
        self.children[shard].enqueue_packet(packet, now_ns)
        self._absorb_child_costs(shard)

    def dequeue_due(self, now_ns: int, budget: int = 1 << 30) -> List[Packet]:
        released: List[Packet] = []
        start = self._next_rr
        for offset in range(self.num_shards):
            if len(released) >= budget:
                break
            shard = (start + offset) % self.num_shards
            child_released = self.children[shard].dequeue_due(
                now_ns, budget - len(released)
            )
            self._absorb_child_costs(shard)
            if child_released:
                released.extend(child_released)
                self._next_rr = (shard + 1) % self.num_shards
        self.stats.dequeued += len(released)
        return released

    def soonest_deadline_ns(self, now_ns: int) -> Optional[int]:
        deadlines = [
            deadline
            for deadline in (
                child.soonest_deadline_ns(now_ns) for child in self.children
            )
            if deadline is not None
        ]
        return min(deadlines) if deadlines else None

    # -- aggregated accounting ---------------------------------------------

    @property
    def backlog(self) -> int:
        """Packets queued across every child."""
        return sum(child.backlog for child in self.children)

    def max_child_cycles(self) -> float:
        """Cycles of the busiest child (the bottleneck-core view).

        The root's own accounts already include every child's work (mirrored
        delta by delta), so the whole-machine view is the inherited
        :meth:`~repro.kernel.qdisc.Qdisc.total_cycles`.
        """
        return max(child.total_cycles() for child in self.children)

    def reset_costs(self) -> None:
        """Zero the root's and every child's cost accounts."""
        super().reset_costs()
        for child in self.children:
            child.reset_costs()
        self._child_cost_snapshots = [(0.0, 0.0)] * self.num_shards


__all__ = ["MultiQueueQdisc", "ShardedPortQueue"]
