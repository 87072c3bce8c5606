"""Flow-to-shard placement: RSS-style hashing, affinity pins, rebalancing.

Real multi-core deployments of software schedulers spread flows over per-core
scheduler instances — the kernel's ``mq`` qdisc hashes skbs to per-CPU child
qdiscs, BESS pins traffic classes to per-core workers, and NIC RSS hashes the
5-tuple to a receive queue.  :class:`FlowSharder` reproduces that layer for
the simulated runtime: a stateless hash policy (the RSS analogue), a sticky
first-seen round-robin policy (connection steering), and explicit pins that
override either — which is also the mechanism the skew-aware
:class:`ShardRebalancer` uses to migrate hot flows off overloaded shards.

Hashing quality matters here the same way it does for RSS: the benchmark's
uniform workload relies on the mix below spreading dense integer flow ids
evenly, while the Zipf workload demonstrates that no hash can fix popularity
skew — only migration can.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

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


class PlacementTable:
    """The sharder's per-flow slots: a ``dict`` index over dense columns.

    Slots are granted by :class:`~repro.runtime.flowstate.FlowTable`'s rule,
    exactly: a released slot goes on a stack, the next grant takes the most
    recently released one before any fresh slot, and fresh slots come in
    ascending order.  Only the index differs: ``flow_id -> slot`` is a plain
    ``dict`` (:attr:`index`) rather than an open-addressed probe, so a flow
    the load window releases at a reset and records again next round pays
    a dict delete and a dict insert, not two probe chains.

    A slot is released only once every column the sharder keeps is back at
    its default (the sharder's ``_release_if_idle`` rule), so a recycled
    slot is handed out as it was left, with no column reset.

    It reads like a ``FlowTable``: ``len()``, :meth:`items` in slot order,
    :attr:`key` (``-1`` marks a free slot), :attr:`slot_limit` and
    :meth:`memory_bytes`.
    """

    __slots__ = ("key", "index", "_free", "_next_fresh", "_columns")

    def __init__(self) -> None:
        #: Dense key column: ``key[slot]`` is the flow id, ``-1`` when free.
        self.key = array("q")
        #: ``flow_id -> slot`` of every live flow.
        self.index: Dict[int, int] = {}
        self._free = array("i")  # released slots, used as a stack
        self._next_fresh = 0  # high watermark of slots ever handed out
        self._columns: List[Tuple[array, int]] = []

    def add_column(self, typecode: str, default: int) -> array:
        """Register a per-flow column (before any grant); returns its array."""
        column = array(typecode, [default]) * len(self.key)
        self._columns.append((column, default))
        return column

    def ensure(self, flow_id: int) -> int:
        """Slot of ``flow_id``, granting one when absent."""
        slot = self.index.get(flow_id)
        return self.grant(flow_id) if slot is None else slot

    def grant(self, flow_id: int) -> int:
        """A slot for a flow the index does not hold."""
        if flow_id < 0:
            raise ValueError("flow ids must be non-negative")
        if self._free:
            slot = self._free.pop()
        else:
            slot = self._next_fresh
            key = self.key
            if slot >= len(key):
                grow = max(32, len(key) // 2)
                key.extend(array("q", [-1]) * grow)
                for column, default in self._columns:
                    column.extend(array(column.typecode, [default]) * grow)
            self._next_fresh = slot + 1
        self.key[slot] = flow_id
        self.index[flow_id] = slot
        return slot

    def release(self, flow_id: int, slot: int) -> None:
        """Free the slot of a live flow; the next grant reuses it first."""
        del self.index[flow_id]
        self.key[slot] = -1
        self._free.append(slot)

    def __len__(self) -> int:
        return len(self.index)

    @property
    def slot_limit(self) -> int:
        """Slots ever handed out (the dense columns' high watermark)."""
        return self._next_fresh

    def items(self) -> Iterator[Tuple[int, int]]:
        """``(flow_id, slot)`` for every live flow, in slot order."""
        key = self.key
        for slot in range(self._next_fresh):
            flow_id = key[slot]
            if flow_id >= 0:
                yield flow_id, slot

    def memory_bytes(self) -> int:
        """Actual bytes held by the index, key, free stack and every column."""
        total = sys.getsizeof(self.index) + sys.getsizeof(self.key)
        total += sys.getsizeof(self._free)
        for column, _default in self._columns:
            total += sys.getsizeof(column)
        return total


class FlowSharder:
    """Maps flow ids onto ``num_shards`` workers.

    Args:
        num_shards: number of shard workers.
        policy: ``"hash"`` (stateless RSS-style placement, the default) or
            ``"round_robin"`` (sticky first-seen assignment rotating over
            shards, which guarantees perfect flow-count balance but no
            packet-count balance).
        hash_seed: seed for the RSS hash, so experiments can draw different
            placements of the same flow population.

    Explicit pins (:meth:`pin`) always win over the policy; the rebalancer
    migrates flows exclusively through pins so the underlying policy keeps
    steering the cold tail.

    The sharder also keeps a sliding load window (:meth:`record` /
    :meth:`reset_window`): per-flow and per-shard packet counts since the
    last reset, which is exactly the signal the rebalancer inspects.  The
    per-flow half has no other reader and is only ever reset by a
    rebalancing round, so a driver with no rebalancer attached accounts its
    bursts through :meth:`record_shard` instead: the per-shard totals stay
    exact and no window slot is held for a flow nobody will rank.

    **Layout.**  All per-flow state — pin, sticky assignment, loan owner,
    window counts — lives as dense array columns over one
    :class:`PlacementTable` (:attr:`flows`): a ``dict`` maps the flow id to
    a slot, and a slot is held only while *some* column is non-default, so
    an unpinned, unloaned flow whose window entry resets releases its slot.
    The slots the current window counts are kept as a set, so a round's
    :meth:`flow_loads`, :meth:`flow_residency` and :meth:`reset_window`
    visit only those, never the whole slot space.

    **Why slots, and why released at every reset.**  The window is read in
    slot order, and :meth:`ShardRebalancer.plan` keeps the first of several
    equally good candidates, so slot order decides which flow migrates on
    a tie (seed 1 of the Zipf workload ties on the first pick in 55 of 162
    rounds).  Slots follow ``FlowTable``'s rule (released slots reused last
    first) and the window's flows are released at each reset, in ascending
    slot order; keeping a flow's slot across rounds, or keeping the window
    in first-record order, would pick other flows (the window's order
    differs from first-record order in 390 of seed 1's 391 rounds).
    ``tests/runtime/test_sharder_slots.py`` pins the order against a twin
    over a real ``FlowTable``.

    **Memory.**  The ``dict`` index costs more per tracked flow than a
    probe index (a sticky flow under ``round_robin`` at 100k flows: about
    165 B against 58.7 B over a ``FlowTable``).  Nothing outside the tests
    arms ``round_robin``; under the hash policy the table holds only
    pinned, loaned and window flows, and the window is bounded by
    ``window_limit``: past that many tracked flows, recording a new one
    evicts the coldest of a few probed candidates (CLOCK-style rotating
    scan, counted in ``stats.window_evictions``).  Per-*shard* window
    totals keep the evicted packets, so :meth:`shard_loads` and
    :meth:`imbalance` stay exact; only the per-flow breakdown the
    rebalancer ranks by is approximate under extreme churn — and an
    evicted-because-cold flow was never a migration candidate anyway.

    :attr:`epoch` is the invalidation signal for callers that cache
    :meth:`shard_for` answers (the runtime driver keeps one per flow-table
    slot): a plain int that :meth:`pin`, :meth:`unpin` and :meth:`forget`
    bump whenever they change a pin or a sticky assignment — the only state
    a placement depends on besides the fixed policy and seed.  While the
    epoch stands still, ``shard_for(flow_id)`` returns what it returned
    before, for every flow; a move changes the answer of the one flow that
    call named.
    """

    POLICIES = ("hash", "round_robin")

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
        policy: str = "hash",
        hash_seed: int = DEFAULT_HASH_SEED,
        window_limit: int = DEFAULT_WINDOW_LIMIT,
    ) -> None:
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        if policy not in self.POLICIES:
            raise ValueError(f"unknown policy {policy!r}; choose from {self.POLICIES}")
        if window_limit <= 0:
            raise ValueError("window_limit must be positive")
        self.num_shards = num_shards
        self.policy = policy
        self.hash_seed = hash_seed
        self.window_limit = window_limit
        self.stats = ShardingStats()
        #: Bumped whenever a pin or sticky assignment changes (class docstring).
        self.epoch = 0
        self.flows = PlacementTable()
        self._index = self.flows.index
        self._pin = self.flows.add_column("i", -1)
        self._sticky = self.flows.add_column("i", -1)
        self._loan = self.flows.add_column("i", -1)
        self._wshard = self.flows.add_column("i", -1)
        self._wpkts = self.flows.add_column("q", 0)
        # Population counters, so the hot paths (routing, loan checks) skip
        # the table entirely while a family is empty.
        self._num_pins = 0
        self._num_loans = 0
        # Slots of the flows the window counts: exactly those whose
        # window_shard is set.
        self._window: Set[int] = set()
        self._next_rr = 0
        self._evict_cursor = 0
        # Per-shard packet totals of the sliding window (never evicted).
        self._window_shard_packets: List[int] = [0] * num_shards

    # -- placement ---------------------------------------------------------

    def shard_for(self, flow_id: int) -> int:
        """Shard index for ``flow_id`` (pins beat the policy)."""
        self.stats.lookups += 1
        if self.policy == "round_robin":
            slot = self._index.get(flow_id)
            if slot is not None:
                pinned = self._pin[slot]
                if pinned >= 0:
                    return pinned
                shard = self._sticky[slot]
                if shard >= 0:
                    return shard
            else:
                slot = self.flows.grant(flow_id)
            shard = self._next_rr
            self._next_rr = (self._next_rr + 1) % self.num_shards
            self._sticky[slot] = shard
            return shard
        if self._num_pins:
            slot = self._index.get(flow_id)
            if slot is not None:
                pinned = self._pin[slot]
                if pinned >= 0:
                    return pinned
        return rss_hash(flow_id, self.hash_seed) % self.num_shards

    def pin(self, flow_id: int, shard: int) -> None:
        """Force ``flow_id`` onto ``shard`` (overrides the policy)."""
        if not 0 <= shard < self.num_shards:
            raise ValueError("shard out of range")
        self.stats.pins += 1
        slot = self.flows.ensure(flow_id)
        pinned = self._pin[slot]
        if pinned == shard:
            return
        if pinned < 0:
            self._num_pins += 1
        self._pin[slot] = shard
        self.epoch += 1

    def unpin(self, flow_id: int) -> None:
        """Remove an explicit pin; the policy takes over again."""
        slot = self._index.get(flow_id)
        if slot is not None and self._pin[slot] >= 0:
            self._pin[slot] = -1
            self._num_pins -= 1
            self.epoch += 1
            self._release_if_idle(slot, flow_id)

    def pinned_shard(self, flow_id: int) -> Optional[int]:
        """The pinned shard of ``flow_id``, or ``None``."""
        if self._num_pins:
            slot = self._index.get(flow_id)
            if slot is not None:
                pinned = self._pin[slot]
                if pinned >= 0:
                    return pinned
        return None

    def forget(self, flow_id: int) -> None:
        """Expire all per-flow placement state (pin and sticky assignment).

        Called by flow-state garbage collection for long-idle flows; if the
        flow returns it is placed afresh by the policy, and the rebalancer
        re-pins it should it become hot again.
        """
        slot = self._index.get(flow_id)
        if slot is None:
            return
        if self._pin[slot] >= 0:
            self._pin[slot] = -1
            self._num_pins -= 1
            self.epoch += 1
        if self._sticky[slot] >= 0:
            self._sticky[slot] = -1
            self.epoch += 1
        self._release_if_idle(slot, flow_id)

    def _release_if_idle(self, slot: int, flow_id: int) -> None:
        """Free the flow's slot once every column is back at its default."""
        if (
            self._pin[slot] < 0
            and self._sticky[slot] < 0
            and self._loan[slot] < 0
            and self._wshard[slot] < 0
        ):
            self.flows.release(flow_id, slot)

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
        slot = self.flows.ensure(flow_id)
        if self._loan[slot] < 0:
            self._num_loans += 1
        self._loan[slot] = victim_shard

    def restore(self, flow_id: int) -> None:
        """Clear the loan: the lease returned and the flow is whole again."""
        slot = self._index.get(flow_id)
        if slot is not None and self._loan[slot] >= 0:
            self._loan[slot] = -1
            self._num_loans -= 1
            self._release_if_idle(slot, flow_id)

    @property
    def has_loans(self) -> bool:
        """True while any flow is on loan (lets a burst skip :meth:`loan_shard`)."""
        return self._num_loans > 0

    def loan_shard(self, flow_id: int) -> Optional[int]:
        """The victim shard that owns ``flow_id`` while on loan, or ``None``."""
        if self._num_loans == 0:
            return None
        slot = self._index.get(flow_id)
        if slot is not None:
            victim = self._loan[slot]
            if victim >= 0:
                return victim
        return None

    def loaned_flows(self) -> Dict[int, int]:
        """Mapping of every on-loan flow id to its owning (victim) shard."""
        if self._num_loans == 0:
            return {}
        loan = self._loan
        return {
            flow_id: loan[slot]
            for flow_id, slot in self.flows.items()
            if loan[slot] >= 0
        }

    # -- load window -------------------------------------------------------

    def record(self, flow_id: int, shard: int, packets: int = 1) -> None:
        """Account ``packets`` of ``flow_id`` handled by ``shard``.

        ``shard`` is where the packets actually ran (residency), which can
        lag the placement while a re-pinned flow waits to drain; the window
        keeps the residency view so the rebalancer reasons about the load
        each shard really carried.
        """
        self.stats.window_packets += packets
        slot = self._index.get(flow_id)
        if slot is None:
            slot = self.flows.grant(flow_id)
        if self._wshard[slot] < 0:
            window = self._window
            window.add(slot)
            if len(window) > self.window_limit:
                self._evict_window_entry(exclude=slot)
        self._wpkts[slot] += packets
        self._wshard[slot] = shard
        self._window_shard_packets[shard] += packets

    def record_burst(self, flow_ids: List[int], shard: int) -> None:
        """:meth:`record` one packet per entry of ``flow_ids``, in order.

        The per-packet step of :meth:`record` runs in one loop here, so a
        burst pays no call per packet; the window's total and the shard's
        packet count, which no step reads, are added once at the end.
        """
        window = self._window
        limit = self.window_limit
        index_get = self._index.get
        grant = self.flows.grant
        wshard = self._wshard
        wpkts = self._wpkts
        for flow_id in flow_ids:
            slot = index_get(flow_id)
            if slot is None:
                slot = grant(flow_id)
            if wshard[slot] < 0:
                window.add(slot)
                if len(window) > limit:
                    self._evict_window_entry(exclude=slot)
            wpkts[slot] += 1
            wshard[slot] = shard
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

    def _evict_window_entry(self, exclude: int) -> None:
        """Drop the coldest of a few probed window entries (bounded memory).

        A rotating cursor over the slot space probes the next
        ``_EVICT_PROBES`` live window entries and evicts the one with the
        fewest window packets — the coldest flow the arm happens to pass,
        which under churn is almost always a one-packet short-lived flow.
        The per-shard totals keep the evicted packets (see class docstring).
        """
        key = self.flows.key
        wshard = self._wshard
        wpkts = self._wpkts
        span = self.flows.slot_limit
        cursor = self._evict_cursor
        probed = 0
        victim = -1
        victim_pkts = 0
        for _ in range(span):
            if cursor >= span:
                cursor = 0
            slot = cursor
            cursor += 1
            if slot == exclude or key[slot] < 0 or wshard[slot] < 0:
                continue
            pkts = wpkts[slot]
            if victim < 0 or pkts < victim_pkts:
                victim = slot
                victim_pkts = pkts
            probed += 1
            if probed >= self._EVICT_PROBES:
                break
        self._evict_cursor = cursor
        if victim < 0:
            return
        wpkts[victim] = 0
        wshard[victim] = -1
        self._window.discard(victim)
        self.stats.window_evictions += 1
        self._release_if_idle(victim, key[victim])

    def shard_loads(self) -> List[int]:
        """Packets per shard since the last window reset."""
        return list(self._window_shard_packets)

    def flow_loads(self) -> Dict[int, int]:
        """Packets per flow since the last window reset, in slot order."""
        key = self.flows.key
        wpkts = self._wpkts
        return {key[slot]: wpkts[slot] for slot in sorted(self._window)}

    def flow_residency(self) -> Dict[int, int]:
        """Shard each flow's window packets last ran on, in slot order."""
        key = self.flows.key
        wshard = self._wshard
        return {key[slot]: wshard[slot] for slot in sorted(self._window)}

    def reset_window(self) -> None:
        """Start a fresh load window (called after each rebalancing round).

        Window-only flows release their slots in ascending slot order, the
        order the next round's grants depend on (class docstring).
        """
        key = self.flows.key
        wshard = self._wshard
        wpkts = self._wpkts
        release_if_idle = self._release_if_idle
        for slot in sorted(self._window):
            wpkts[slot] = 0
            wshard[slot] = -1
            release_if_idle(slot, key[slot])
        self._window.clear()
        self._window_shard_packets = [0] * self.num_shards
        self.stats.window_packets = 0

    def memory_bytes(self) -> int:
        """Bytes held by the sharder's per-flow placement state."""
        return self.flows.memory_bytes() + sys.getsizeof(self._window)

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
                # The flow's due window is executing on another core under a
                # steal lease; re-pinning it mid-lease would strand the
                # pacing state travelling with the lease.  It stays put this
                # round and is reconsidered once the lease returns.
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
            # an elephant back and forth between rounds).
            gap = working[src] - working[dst]
            best: Optional[int] = None
            for flow_id in flows_by_shard.get(src, ()):
                load = flow_loads[flow_id]
                # Moving the flow must strictly shrink the src/dst spread.
                if load == 0 or load >= gap:
                    continue
                if best is None or abs(load - gap / 2) < abs(flow_loads[best] - gap / 2):
                    best = flow_id
            if best is None:
                break
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
    "PlacementTable",
    "ShardRebalancer",
    "ShardingStats",
    "rss_hash",
]
