"""Abstract CPU cycle accounting for the simulated substrates.

The paper's headline numbers (Figures 9, 10, 12, 13, 15) are CPU results on
real hardware: cores consumed by a kernel qdisc, or maximum rate sustained by
one busy-polling core.  In an interpreted reproduction the *absolute* cycle
counts of Python code are meaningless, so the substrates instead charge each
data-structure operation an abstract cycle cost taken from the ratios the
paper itself cites (e.g. "BSR takes three cycles", "BSR is 8-32x faster than
DIV") plus conventional costs for cache/memory touches, heap sifts and
red-black rotations.  The *relative* CPU consumption of two scheduler
implementations processing the same packet stream is then determined by how
many of each operation they perform — exactly the quantity the paper's
comparisons hinge on.

Two consumers use this module:

* ``repro.kernel`` converts accumulated cycles into "cores used" given a
  per-core clock rate (Figure 9/10).
* ``repro.bess`` converts a one-core cycle budget per second into a maximum
  sustainable packet rate (Figures 12, 13, 15).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional


@dataclass(frozen=True)
class OperationCost:
    """Cost, in abstract cycles, of one occurrence of an operation."""

    name: str
    cycles: float
    description: str = ""


#: Instruction latencies cited by the paper (Intel optimization manual): the
#: Bit-Scan instruction completes in ~3 cycles and a 64-bit integer divide is
#: 8-32x slower.  The *operation* costs below add the memory word/bucket
#: accesses that accompany each instruction in a real queue.
BSR_LATENCY_CYCLES = 3.0
DIV_LATENCY_CYCLES = 24.0

#: Default per-operation costs.  The FFS (BSR) and DIV entries follow the
#: Intel optimization-manual figures referenced by the paper; the remaining
#: entries model one cache-line touch per pointer hop / node visit, which is
#: the dominant real-world cost of the comparison structures.
DEFAULT_COSTS: dict[str, OperationCost] = {
    "enqueue": OperationCost("enqueue", 12.0, "bucket append + bookkeeping"),
    "dequeue": OperationCost("dequeue", 12.0, "bucket pop + bookkeeping"),
    "bucket_lookup": OperationCost("bucket_lookup", 4.0, "index computation + load"),
    "ffs_word": OperationCost(
        "ffs_word", 10.0, "BSF/BSR instruction (3 cycles) plus the bitmap word access"
    ),
    "division": OperationCost("division", 24.0, "64-bit integer DIV"),
    "linear_scan": OperationCost("linear_scan", 6.0, "touch one bucket header"),
    "heap_operation": OperationCost("heap_operation", 14.0, "sift step / rotation"),
    "rb_node_visit": OperationCost(
        "rb_node_visit", 80.0, "red-black tree pointer chase (cache miss)"
    ),
    "rotation": OperationCost("rotation", 8.0, "pointer swap on window rotate"),
    "timer_fire": OperationCost("timer_fire", 2000.0, "hrtimer softirq dispatch"),
    "timer_program": OperationCost("timer_program", 300.0, "hrtimer (re)arm"),
    "lock": OperationCost("lock", 60.0, "uncontended qdisc lock acquire/release"),
    "packet_overhead": OperationCost(
        "packet_overhead", 250.0, "skb handling outside the scheduler"
    ),
    "gc_scan": OperationCost("gc_scan", 20.0, "flow garbage-collection step"),
    "flow_lookup": OperationCost("flow_lookup", 30.0, "hash/flow-table lookup"),
    "batch_overhead": OperationCost("batch_overhead", 120.0, "per-batch module call"),
    # Ingress-core (RX pipeline) operations.  The ratios follow the usual
    # budget split of a busy-polling RX core: the poll-loop entry costs about
    # one cache-missy function dispatch per burst, each descriptor read plus
    # buffer unmap is a couple of cache-line touches, and an admission check
    # (occupancy compare / sojourn compare) is register arithmetic on state
    # the loop already holds.
    "rx_poll": OperationCost("rx_poll", 80.0, "RX poll-loop entry (per burst)"),
    "rx_descriptor": OperationCost(
        "rx_descriptor", 18.0, "RX descriptor read + buffer unmap (per packet)"
    ),
    "admission_check": OperationCost(
        "admission_check", 6.0, "admission-policy compare (per packet)"
    ),
}

#: Mapping from :class:`repro.core.queues.base.QueueStats` counter names to
#: cost-table entries, so a queue's counters can be charged in one call.
QUEUE_STATS_COSTS: dict[str, str] = {
    "enqueues": "enqueue",
    "dequeues": "dequeue",
    "bucket_lookups": "bucket_lookup",
    "word_scans": "ffs_word",
    "divisions": "division",
    "linear_scans": "linear_scan",
    "heap_operations": "heap_operation",
    "rotations": "rotation",
}


@dataclass
class CycleAccount:
    """Accumulates cycles charged against named operations."""

    cycles: float = 0.0
    by_operation: dict[str, float] = field(default_factory=dict)

    def charge(self, operation: str, cycles: float, count: float = 1.0) -> None:
        """Charge ``count`` occurrences of ``operation`` at ``cycles`` each."""
        total = cycles * count
        self.cycles += total
        self.by_operation[operation] = self.by_operation.get(operation, 0.0) + total

    def merge(self, other: "CycleAccount") -> None:
        """Add another account's charges into this one."""
        self.cycles += other.cycles
        for operation, cycles in other.by_operation.items():
            self.by_operation[operation] = (
                self.by_operation.get(operation, 0.0) + cycles
            )

    def reset(self) -> None:
        """Zero the account."""
        self.cycles = 0.0
        self.by_operation.clear()


class CostModel:
    """Charges abstract cycles for scheduler operations.

    Args:
        costs: override table; unspecified operations fall back to
            :data:`DEFAULT_COSTS`.
    """

    def __init__(self, costs: Optional[Mapping[str, OperationCost]] = None) -> None:
        self.costs = dict(DEFAULT_COSTS)
        if costs:
            self.costs.update(costs)
        self.account = CycleAccount()

    def cost_of(self, operation: str) -> float:
        """Cycles charged for one occurrence of ``operation``."""
        try:
            return self.costs[operation].cycles
        except KeyError as exc:
            raise KeyError(f"unknown operation {operation!r}") from exc

    def charge(self, operation: str, count: float = 1.0) -> float:
        """Charge ``count`` occurrences of ``operation``; returns cycles charged.

        :meth:`cost_of` and :meth:`CycleAccount.charge`, written out in one
        frame: the shard workers call this several times a tick.
        """
        try:
            cost = self.costs[operation]
        except KeyError as exc:
            raise KeyError(f"unknown operation {operation!r}") from exc
        total = cost.cycles * count
        account = self.account
        account.cycles += total
        by_operation = account.by_operation
        by_operation[operation] = by_operation.get(operation, 0.0) + total
        return total

    def charge_queue_stats(self, stats: Mapping[str, int]) -> float:
        """Charge a queue's operation counters (see ``QueueStats.as_dict``)."""
        total = 0.0
        for counter, operation in QUEUE_STATS_COSTS.items():
            count = stats.get(counter, 0)
            if count:
                total += self.charge(operation, count)
        return total

    @property
    def total_cycles(self) -> float:
        """All cycles charged so far."""
        return self.account.cycles

    def breakdown(self) -> dict[str, float]:
        """Cycles charged per operation."""
        return dict(self.account.by_operation)

    def reset(self) -> None:
        """Zero the accumulated account (the cost table is unchanged)."""
        self.account.reset()


class CpuMeter:
    """Converts charged cycles into utilization figures.

    Args:
        cycles_per_second: modelled per-core clock rate.  The default of
            3.0e9 roughly matches the Xeon cores used in the paper's testbeds.
    """

    def __init__(self, cycles_per_second: float = 3.0e9) -> None:
        if cycles_per_second <= 0:
            raise ValueError("cycles_per_second must be positive")
        self.cycles_per_second = cycles_per_second

    def cores_used(self, cycles: float, interval_seconds: float) -> float:
        """Number of cores needed to spend ``cycles`` within ``interval_seconds``."""
        if interval_seconds <= 0:
            raise ValueError("interval_seconds must be positive")
        return cycles / (self.cycles_per_second * interval_seconds)

    def max_packet_rate(self, cycles_per_packet: float) -> float:
        """Packets per second one core sustains at ``cycles_per_packet``."""
        if cycles_per_packet <= 0:
            raise ValueError("cycles_per_packet must be positive")
        return self.cycles_per_second / cycles_per_packet

    def max_bit_rate(self, cycles_per_packet: float, packet_size_bytes: int) -> float:
        """Bits per second one core sustains for ``packet_size_bytes`` packets."""
        if packet_size_bytes <= 0:
            raise ValueError("packet_size_bytes must be positive")
        return self.max_packet_rate(cycles_per_packet) * packet_size_bytes * 8


__all__ = [
    "BSR_LATENCY_CYCLES",
    "CostModel",
    "CpuMeter",
    "CycleAccount",
    "DEFAULT_COSTS",
    "DIV_LATENCY_CYCLES",
    "OperationCost",
    "QUEUE_STATS_COSTS",
]
