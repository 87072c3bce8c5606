"""Flow-to-shard placement: RSS-style hashing, affinity pins, rebalancing.

Real multi-core deployments of software schedulers spread flows over per-core
scheduler instances — the kernel's ``mq`` qdisc hashes skbs to per-CPU child
qdiscs, BESS pins traffic classes to per-core workers, and NIC RSS hashes the
5-tuple to a receive queue.  :class:`FlowSharder` reproduces that layer for
the simulated runtime: a stateless hash (the RSS analogue) and explicit pins
that override it — which is also the mechanism the skew-aware
:class:`ShardRebalancer` uses to migrate hot flows off overloaded shards.

Hashing quality matters here the same way it does for RSS: the benchmark's
uniform workload relies on the mix below spreading dense integer flow ids
evenly, while the Zipf workload demonstrates that no hash can fix popularity
skew — only migration can.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.queues.base import CounterStatsMixin

#: Default hash seed (the golden ratio in 32 bits, à la Linux ``hash_32``).
DEFAULT_HASH_SEED = 0x9E3779B9

#: Seed of the *ingress-lane* hash (flow -> ingress core).  Deliberately a
#: different constant (the 31-bit golden-ratio increment) than the shard
#: placement seed: with both layers hashing on the same key, a shared seed
#: would perfectly correlate the two placements and every ingress core would
#: feed a fixed subset of shards instead of fanning out over all of them.
INGRESS_HASH_SEED = 0x61C88647

_MASK32 = 0xFFFFFFFF


def rss_hash(flow_id: int, seed: int = DEFAULT_HASH_SEED) -> int:
    """A 32-bit avalanche mix of ``flow_id`` (stand-in for Toeplitz RSS).

    Dense integer flow ids (0, 1, 2, ...) must land on different shards, so a
    plain modulo is not enough; this is the finalizer of MurmurHash3, which
    avalanches every input bit across the word.
    """
    h = (flow_id ^ seed) & _MASK32
    h = (h ^ (h >> 16)) * 0x85EBCA6B & _MASK32
    h = (h ^ (h >> 13)) * 0xC2B2AE35 & _MASK32
    return (h ^ (h >> 16)) & _MASK32


@dataclass(slots=True)
class ShardingStats(CounterStatsMixin):
    """Placement counters kept by the sharder."""

    lookups: int = 0
    pins: int = 0
    migrations: int = 0
    window_packets: int = 0
    loans: int = 0
    window_evictions: int = 0


class FlowSharder:
    """Maps flow ids onto ``num_shards`` workers.

    Args:
        num_shards: number of shard workers.
        hash_seed: seed for the RSS hash, so experiments can draw different
            placements of the same flow population.
        window_limit: tracked-flow bound of the load window (see below).

    A flow goes to its explicit pin (:meth:`pin`) if it has one, else to
    its RSS hash.  The rebalancer migrates flows exclusively through pins,
    so the hash keeps steering the cold tail.

    The sharder also keeps a sliding load window (:meth:`record` /
    :meth:`reset_window`): per-flow and per-shard packet counts since the
    last reset, which is exactly the signal the rebalancer inspects.  The
    per-flow half has no other reader and is only ever reset by a
    rebalancing round, so a driver with no rebalancer attached accounts its
    bursts through :meth:`record_shard` instead: the per-shard totals stay
    exact and no window entry is held for a flow nobody will rank.

    **Layout.**  All per-flow state lives in plain dicts keyed by flow id:
    pins, loan owners, and the window's packet counts and residencies.  No
    reader depends on their order: :meth:`ShardRebalancer.plan` breaks ties
    by flow id, so the plan depends on what the window holds, not on the
    order it was recorded in.

    **Memory.**  The window is bounded by ``window_limit``: recording a new
    flow into a full window first evicts a cold entry
    (:meth:`_evict_window_entry`, counted in ``stats.window_evictions``).
    Per-*shard* window totals keep the evicted packets, so
    :meth:`shard_loads` and :meth:`imbalance` stay exact; only the per-flow
    breakdown the rebalancer ranks by is approximate under extreme churn —
    and an evicted-because-cold flow was never a migration candidate anyway.

    :attr:`epoch` is the invalidation signal for callers that cache
    :meth:`shard_for` answers (the runtime driver keeps one per flow-table
    slot): a plain int that :meth:`pin`, :meth:`unpin` and :meth:`forget`
    bump whenever they change a pin — the only state a placement depends
    on besides the fixed seed.  While the epoch stands still,
    ``shard_for(flow_id)`` returns what it returned before, for every flow;
    a move changes the answer of the one flow that call named.
    """

    @classmethod
    def for_ingress(
        cls, num_cores: int, hash_seed: Optional[int] = None
    ) -> "FlowSharder":
        """A sharder for the ingress lanes (flow -> RX core).

        Same RSS-style mechanics, decorrelated seed (see
        :data:`INGRESS_HASH_SEED`; pass ``hash_seed`` to pin the lane hash
        from a scenario-level seed instead — it must still differ from the
        shard placement seed, or the two layers' placements correlate and
        every RX core feeds a fixed subset of shards).  Keeping the lane map
        a ``FlowSharder`` means the ingress layer inherits pins and
        placement stats for free — e.g. an experiment can pin an elephant
        flow to a dedicated RX core exactly as it pins one to a shard.
        """
        return cls(
            num_cores,
            hash_seed=INGRESS_HASH_SEED if hash_seed is None else hash_seed,
        )

    #: Tracked-flow bound of the load window (see class docstring).
    DEFAULT_WINDOW_LIMIT = 65536

    #: Live window entries probed per eviction (CLOCK-style arm sweep).
    _EVICT_PROBES = 8

    def __init__(
        self,
        num_shards: int,
        hash_seed: int = DEFAULT_HASH_SEED,
        window_limit: int = DEFAULT_WINDOW_LIMIT,
    ) -> None:
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        if window_limit <= 0:
            raise ValueError("window_limit must be positive")
        self.num_shards = num_shards
        self.hash_seed = hash_seed
        self.window_limit = window_limit
        self.stats = ShardingStats()
        #: Bumped whenever a pin changes (class docstring).
        self.epoch = 0
        self._pins: Dict[int, int] = {}
        self._loans: Dict[int, int] = {}
        # The window: packets per flow, and the shard they last ran on.
        self._window: Dict[int, int] = {}
        self._residency: Dict[int, int] = {}
        # The eviction arm: a snapshot of the window's flows, and a cursor.
        self._arm: List[int] = []
        self._arm_cursor = 0
        # Per-shard packet totals of the sliding window (never evicted).
        self._window_shard_packets: List[int] = [0] * num_shards

    # -- placement ---------------------------------------------------------

    def shard_for(self, flow_id: int) -> int:
        """Shard index for ``flow_id``: its pin, else its hash."""
        self.stats.lookups += 1
        if self._pins:
            pinned = self._pins.get(flow_id)
            if pinned is not None:
                return pinned
        return rss_hash(flow_id, self.hash_seed) % self.num_shards

    def pin(self, flow_id: int, shard: int) -> None:
        """Force ``flow_id`` onto ``shard`` (overrides the hash)."""
        if not 0 <= shard < self.num_shards:
            raise ValueError("shard out of range")
        self.stats.pins += 1
        if self._pins.get(flow_id) != shard:
            self._pins[flow_id] = shard
            self.epoch += 1

    def unpin(self, flow_id: int) -> None:
        """Remove an explicit pin; the hash takes over again."""
        if self._pins.pop(flow_id, None) is not None:
            self.epoch += 1

    def pinned_shard(self, flow_id: int) -> Optional[int]:
        """The pinned shard of ``flow_id``, or ``None``."""
        return self._pins.get(flow_id)

    def forget(self, flow_id: int) -> None:
        """Expire the flow's pin (flow-state garbage collection of an idle flow).

        A returning flow is placed by its hash until the rebalancer re-pins it.
        """
        self.unpin(flow_id)

    # -- ownership view (work-stealing leases) -----------------------------
    #
    # While a flow's due window is on loan to a thief shard, the flow's
    # *ownership* is pinned to the victim that granted the lease: ingress
    # keeps routing its packets home (even if the flow momentarily has
    # nothing in flight) and the rebalancer must not migrate it — a re-pin
    # landing mid-lease would strand the pacing state travelling with the
    # lease.  This registry is how stealing and migration compose.

    def lend(self, flow_id: int, victim_shard: int) -> None:
        """Record that ``flow_id``'s due window is on loan from ``victim_shard``."""
        if not 0 <= victim_shard < self.num_shards:
            raise ValueError("shard out of range")
        self.stats.loans += 1
        self._loans[flow_id] = victim_shard

    def restore(self, flow_id: int) -> None:
        """Clear the loan: the lease returned and the flow is whole again."""
        self._loans.pop(flow_id, None)

    @property
    def has_loans(self) -> bool:
        """True while any flow is on loan (lets a burst skip :meth:`loan_shard`)."""
        return bool(self._loans)

    def loan_shard(self, flow_id: int) -> Optional[int]:
        """The victim shard that owns ``flow_id`` while on loan, or ``None``."""
        return self._loans.get(flow_id)

    def loaned_flows(self) -> Dict[int, int]:
        """Mapping of every on-loan flow id to its owning (victim) shard."""
        return dict(self._loans)

    # -- load window -------------------------------------------------------

    def record(self, flow_id: int, shard: int, packets: int = 1) -> None:
        """Account ``packets`` of ``flow_id`` handled by ``shard``.

        ``shard`` is where the packets actually ran (residency), which can
        lag the placement while a re-pinned flow waits to drain; the window
        keeps the residency view so the rebalancer reasons about the load
        each shard really carried.
        """
        self.stats.window_packets += packets
        window = self._window
        count = window.get(flow_id)
        if count is None:
            if len(window) >= self.window_limit:
                self._evict_window_entry()
            count = 0
        window[flow_id] = count + packets
        self._residency[flow_id] = shard
        self._window_shard_packets[shard] += packets

    def record_burst(self, flow_ids: List[int], shard: int) -> None:
        """:meth:`record` one packet per entry of ``flow_ids``, in order.

        The per-packet step of :meth:`record` runs in one loop here, so a
        burst pays no call per packet; the window's total and the shard's
        packet count, which no step reads, are added once at the end.
        """
        window = self._window
        residency = self._residency
        limit = self.window_limit
        count_of = window.get
        for flow_id in flow_ids:
            count = count_of(flow_id)
            if count is None:
                if len(window) >= limit:
                    self._evict_window_entry()
                count = 0
            window[flow_id] = count + 1
            residency[flow_id] = shard
        packets = len(flow_ids)
        self.stats.window_packets += packets
        self._window_shard_packets[shard] += packets

    def record_shard(self, shard: int, packets: int) -> None:
        """Account ``packets`` handled by ``shard`` with no per-flow attribution.

        The per-shard half of :meth:`record` alone: :meth:`shard_loads`,
        :meth:`imbalance` and ``stats.window_packets`` read the same totals
        either way.
        """
        self.stats.window_packets += packets
        self._window_shard_packets[shard] += packets

    def _evict_window_entry(self) -> None:
        """Drop the coldest of a few probed window entries (CLOCK-style).

        The arm probes the next ``_EVICT_PROBES`` flows of its snapshot that
        are still in the window and evicts the one with the fewest packets —
        under churn almost always a one-packet short-lived flow.  A snapshot
        of ``n`` flows serves about ``n / _EVICT_PROBES`` evictions before it
        is retaken, so an eviction costs ``_EVICT_PROBES`` probes amortised.
        The window is full when this runs, so a fresh snapshot finds a victim.
        """
        window = self._window
        arm = self._arm
        cursor = self._arm_cursor
        retaken = False
        probed = 0
        victim = None
        victim_packets = 0
        while probed < self._EVICT_PROBES:
            if cursor >= len(arm):
                if retaken:
                    break
                arm = self._arm = list(window)
                cursor = 0
                retaken = True
                continue
            flow_id = arm[cursor]
            cursor += 1
            packets = window.get(flow_id)
            if packets is None:
                continue
            if victim is None or packets < victim_packets:
                victim = flow_id
                victim_packets = packets
            probed += 1
        self._arm_cursor = cursor
        del window[victim]
        del self._residency[victim]
        self.stats.window_evictions += 1

    def shard_loads(self) -> List[int]:
        """Packets per shard since the last window reset."""
        return list(self._window_shard_packets)

    def flow_loads(self) -> Dict[int, int]:
        """Packets per flow since the last window reset."""
        return dict(self._window)

    def flow_residency(self) -> Dict[int, int]:
        """Shard each flow's window packets last ran on."""
        return dict(self._residency)

    def reset_window(self) -> None:
        """Start a fresh load window (called after each rebalancing round)."""
        self._window.clear()
        self._residency.clear()
        self._window_shard_packets = [0] * self.num_shards
        self.stats.window_packets = 0

    def memory_bytes(self) -> int:
        """Bytes held by the sharder's per-flow placement state."""
        return sum(
            sys.getsizeof(table)
            for table in (self._pins, self._loans, self._window, self._residency, self._arm)
        )

    def imbalance(self) -> float:
        """Max-to-mean shard load ratio over the current window (1.0 = even)."""
        total = sum(self._window_shard_packets)
        if total == 0:
            return 1.0
        mean = total / self.num_shards
        return max(self._window_shard_packets) / mean


@dataclass
class Migration:
    """One planned flow migration."""

    flow_id: int
    src_shard: int
    dst_shard: int
    window_packets: int


@dataclass
class ShardRebalancer:
    """Skew-aware rebalancer: migrate hot flows off overloaded shards.

    Looks at the sharder's load window and, when the hottest shard exceeds
    ``imbalance_threshold`` times the mean, plans migrations of its hottest
    flows onto the coldest shards.  A migration is only worthwhile when it
    actually reduces the maximum: a flow bigger than the gap between the two
    shards would just move the hot spot, so such flows are skipped (an
    elephant flow that *is* the imbalance cannot be split by migration —
    that is what work stealing (:mod:`repro.runtime.stealing`) is for, and
    flows whose due window is currently on loan to a thief are likewise
    left alone so the two mechanisms compose).

    Ties are explicit: each pick is the movable flow that minimises
    ``(abs(load - gap / 2), flow_id)``, so the plan depends on what the
    window holds, not on the order it was recorded in (batched, per-packet
    and RX-pull recording of the same packets plan the same migrations).

    The plan only *decides*; applying it is the runtime's job, because only
    the runtime knows when a flow's in-flight packets have drained (migrating
    earlier would reorder the flow).
    """

    sharder: FlowSharder
    imbalance_threshold: float = 1.25
    max_migrations_per_round: int = 4
    rounds: int = 0
    planned_migrations: int = 0
    history: List[Migration] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.imbalance_threshold < 1.0:
            raise ValueError("imbalance_threshold must be >= 1.0")
        if self.max_migrations_per_round <= 0:
            raise ValueError("max_migrations_per_round must be positive")

    def plan(self) -> List[Migration]:
        """Plan up to ``max_migrations_per_round`` migrations for this window."""
        self.rounds += 1
        loads = self.sharder.shard_loads()
        total = sum(loads)
        if total == 0 or self.sharder.num_shards == 1:
            return []
        mean = total / len(loads)
        flow_loads = self.sharder.flow_loads()
        # Group flows by residency — where their packets actually ran — so
        # the plan's arithmetic matches the recorded per-shard loads even for
        # flows whose earlier re-pin has not taken effect yet (a pinned-but-
        # undrained flow is still load on its old shard, and moving it again
        # from there is what helps).
        residency = self.sharder.flow_residency()
        flows_by_shard: Dict[int, List[int]] = {}
        for flow_id in flow_loads:
            if self.sharder.loan_shard(flow_id) is not None:
                # On loan: a re-pin mid-lease would strand the pacing state
                # travelling with the lease.  Reconsidered once it returns.
                continue
            flows_by_shard.setdefault(residency[flow_id], []).append(flow_id)
        plan: List[Migration] = []
        working = list(loads)
        for _ in range(self.max_migrations_per_round):
            src = max(range(len(working)), key=working.__getitem__)
            dst = min(range(len(working)), key=working.__getitem__)
            if src == dst or working[src] <= self.imbalance_threshold * mean:
                break
            # Best-fit: the ideal migration halves the src/dst gap, so pick
            # the movable flow closest to gap/2 (hottest-first would bounce
            # an elephant back and forth between rounds); moving it must
            # strictly shrink the src/dst spread.  Ties go to the lower id.
            gap = working[src] - working[dst]
            movable = [
                flow_id
                for flow_id in flows_by_shard.get(src, ())
                if 0 < flow_loads[flow_id] < gap
            ]
            if not movable:
                break
            best = min(movable, key=lambda flow: (abs(flow_loads[flow] - gap / 2), flow))
            load = flow_loads[best]
            plan.append(Migration(best, src, dst, load))
            working[src] -= load
            working[dst] += load
            flows_by_shard[src].remove(best)
            flows_by_shard.setdefault(dst, []).append(best)
        self.planned_migrations += len(plan)
        self.history.extend(plan)
        return plan


__all__ = [
    "DEFAULT_HASH_SEED",
    "INGRESS_HASH_SEED",
    "FlowSharder",
    "Migration",
    "ShardRebalancer",
    "ShardingStats",
    "rss_hash",
]
