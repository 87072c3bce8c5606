"""The sharder's slot order is a contract: a twin over a real FlowTable.

``ShardRebalancer.plan`` walks ``FlowSharder.flow_loads()`` in order and
keeps the first of several equally good candidates, so the order of the
load window decides which flow migrates on a tie (seed 1 of the Zipf
workload ties on the first pick in 55 of 162 rounds).  That order is the
order of the sharder's slots, and the slots are handed out by
:class:`~repro.runtime.flowstate.FlowTable`'s rule: a freed slot goes on a
stack and is reused last-freed-first, before any fresh one.  A window reset
frees every window-only flow's slot, in ascending slot order, so the order
a round sees differs from first-record order in almost every round.

The oracle below is the sharder as it was written over a ``FlowTable``
(probe index, free on every release, reallocate on the next record).  The
shipped sharder may index and track its window however it likes, but after
every step of a random sequence the two must agree on the slot of every
flow, on the window in order, on the loans, the counters and the epoch,
and on the rebalancer's plan.
"""

from collections import Counter
from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import FlowSharder, FlowTable, ShardRebalancer
from repro.runtime.sharder import DEFAULT_HASH_SEED, ShardingStats, rss_hash

NUM_SHARDS = 4
WINDOW_LIMIT = 16  # below the flow pool, so CLOCK eviction fires


class _FlowTableSharder:
    """The load window over a real FlowTable, freeing and reallocating."""

    _EVICT_PROBES = 8

    def __init__(self, num_shards: int, policy: str, window_limit: int) -> None:
        self.num_shards = num_shards
        self.policy = policy
        self.hash_seed = DEFAULT_HASH_SEED
        self.window_limit = window_limit
        self.stats = ShardingStats()
        self.epoch = 0
        self.flows = FlowTable()
        self._pin = self.flows.add_column("pin", "i", -1)
        self._sticky = self.flows.add_column("sticky", "i", -1)
        self._loan = self.flows.add_column("loan", "i", -1)
        self._wshard = self.flows.add_column("window_shard", "i", -1)
        self._wpkts = self.flows.add_column("window_packets", "q", 0)
        self._num_pins = 0
        self._num_loans = 0
        self._num_window = 0
        self._next_rr = 0
        self._evict_cursor = 0
        self._window_shard_packets: List[int] = [0] * num_shards

    def shard_for(self, flow_id: int) -> int:
        self.stats.lookups += 1
        if self.policy == "round_robin":
            slot = self.flows.lookup(flow_id)
            if slot >= 0:
                if self._pin[slot] >= 0:
                    return self._pin[slot]
                if self._sticky[slot] >= 0:
                    return self._sticky[slot]
            else:
                slot = self.flows.ensure(flow_id)
            shard = self._next_rr
            self._next_rr = (self._next_rr + 1) % self.num_shards
            self._sticky[slot] = shard
            return shard
        if self._num_pins:
            slot = self.flows.lookup(flow_id)
            if slot >= 0 and self._pin[slot] >= 0:
                return self._pin[slot]
        return rss_hash(flow_id, self.hash_seed) % self.num_shards

    def pin(self, flow_id: int, shard: int) -> None:
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
        slot = self.flows.lookup(flow_id)
        if slot >= 0 and self._pin[slot] >= 0:
            self._pin[slot] = -1
            self._num_pins -= 1
            self.epoch += 1
            self._release_if_idle(slot, flow_id)

    def forget(self, flow_id: int) -> None:
        slot = self.flows.lookup(flow_id)
        if slot < 0:
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
        if (
            self._pin[slot] < 0
            and self._sticky[slot] < 0
            and self._loan[slot] < 0
            and self._wshard[slot] < 0
        ):
            self.flows.remove(flow_id)

    def lend(self, flow_id: int, victim_shard: int) -> None:
        self.stats.loans += 1
        slot = self.flows.ensure(flow_id)
        if self._loan[slot] < 0:
            self._num_loans += 1
        self._loan[slot] = victim_shard

    def restore(self, flow_id: int) -> None:
        slot = self.flows.lookup(flow_id)
        if slot >= 0 and self._loan[slot] >= 0:
            self._loan[slot] = -1
            self._num_loans -= 1
            self._release_if_idle(slot, flow_id)

    def loan_shard(self, flow_id: int) -> Optional[int]:
        slot = self.flows.lookup(flow_id)
        if slot >= 0 and self._loan[slot] >= 0:
            return self._loan[slot]
        return None

    def loaned_flows(self) -> Dict[int, int]:
        return {
            flow_id: self._loan[slot]
            for flow_id, slot in self.flows.items()
            if self._loan[slot] >= 0
        }

    def record(self, flow_id: int, shard: int, packets: int = 1) -> None:
        self.stats.window_packets += packets
        slot = self.flows.ensure(flow_id)
        if self._wshard[slot] < 0:
            self._num_window += 1
            if self._num_window > self.window_limit:
                self._evict_window_entry(exclude=slot)
        self._wpkts[slot] += packets
        self._wshard[slot] = shard
        self._window_shard_packets[shard] += packets

    def record_burst(self, flow_ids: List[int], shard: int) -> None:
        counts = Counter(flow_ids)
        if self._num_window + len(counts) <= self.window_limit:
            for flow_id, packets in counts.items():
                self.record(flow_id, shard, packets)
        else:
            for flow_id in flow_ids:
                self.record(flow_id, shard)

    def _evict_window_entry(self, exclude: int) -> None:
        key = self.flows.key
        span = self.flows.slot_limit
        cursor = self._evict_cursor
        probed = 0
        victim = -1
        for _ in range(span):
            if cursor >= span:
                cursor = 0
            slot = cursor
            cursor += 1
            if slot == exclude or key[slot] < 0 or self._wshard[slot] < 0:
                continue
            if victim < 0 or self._wpkts[slot] < self._wpkts[victim]:
                victim = slot
            probed += 1
            if probed >= self._EVICT_PROBES:
                break
        self._evict_cursor = cursor
        if victim < 0:
            return
        self._wpkts[victim] = 0
        self._wshard[victim] = -1
        self._num_window -= 1
        self.stats.window_evictions += 1
        self._release_if_idle(victim, key[victim])

    def shard_loads(self) -> List[int]:
        return list(self._window_shard_packets)

    def flow_loads(self) -> Dict[int, int]:
        return {
            flow_id: self._wpkts[slot]
            for flow_id, slot in self.flows.items()
            if self._wshard[slot] >= 0
        }

    def flow_residency(self) -> Dict[int, int]:
        return {
            flow_id: self._wshard[slot]
            for flow_id, slot in self.flows.items()
            if self._wshard[slot] >= 0
        }

    def reset_window(self) -> None:
        for flow_id, slot in list(self.flows.items()):
            if self._wshard[slot] >= 0:
                self._wpkts[slot] = 0
                self._wshard[slot] = -1
                self._release_if_idle(slot, flow_id)
        self._num_window = 0
        self._window_shard_packets = [0] * self.num_shards
        self.stats.window_packets = 0


_flow = st.integers(0, 39)
_shard = st.integers(0, NUM_SHARDS - 1)
_step = st.one_of(
    st.tuples(st.just("record"), _flow, _shard, st.integers(1, 4)),
    st.tuples(st.just("record_burst"), st.lists(_flow, max_size=24), _shard),
    st.tuples(st.just("pin"), _flow, _shard),
    st.tuples(st.just("unpin"), _flow),
    st.tuples(st.just("lend"), _flow, _shard),
    st.tuples(st.just("restore"), _flow),
    st.tuples(st.just("forget"), _flow),
    st.tuples(st.just("shard_for"), _flow),
    st.tuples(st.just("reset_window")),
)


def _observe(sharder) -> dict:
    plan = ShardRebalancer(sharder, imbalance_threshold=1.0).plan()
    return {
        "slots": list(sharder.flows.items()),
        "live": len(sharder.flows),
        "flow_loads": list(sharder.flow_loads().items()),
        "flow_residency": list(sharder.flow_residency().items()),
        "loaned_flows": list(sharder.loaned_flows().items()),
        "shard_loads": sharder.shard_loads(),
        "stats": sharder.stats.as_dict(),
        "epoch": sharder.epoch,
        "plan": [
            (move.flow_id, move.src_shard, move.dst_shard, move.window_packets)
            for move in plan
        ],
    }


@settings(max_examples=300, deadline=None)
@given(
    steps=st.lists(_step, min_size=1, max_size=60),
    policy=st.sampled_from(FlowSharder.POLICIES),
)
def test_the_window_keeps_the_flow_table_slot_order(steps, policy):
    shipped = FlowSharder(NUM_SHARDS, policy=policy, window_limit=WINDOW_LIMIT)
    oracle = _FlowTableSharder(NUM_SHARDS, policy, WINDOW_LIMIT)
    for step in steps:
        kind, args = step[0], step[1:]
        assert getattr(shipped, kind)(*args) == getattr(oracle, kind)(*args), step
        assert _observe(shipped) == _observe(oracle), step


def test_a_reset_round_reuses_freed_slots_last_freed_first():
    # The case the contract exists for: after a reset the next round's
    # first-recorded flow takes the highest freed slot, so the window's
    # order is not the order the flows arrived in.
    shipped = FlowSharder(2, window_limit=WINDOW_LIMIT)
    oracle = _FlowTableSharder(2, "hash", WINDOW_LIMIT)
    for sharder in (shipped, oracle):
        sharder.record_burst([10, 11, 12], 0)
        sharder.reset_window()
        sharder.record_burst([20, 21, 22], 1)
    assert list(shipped.flow_loads()) == list(oracle.flow_loads()) == [22, 21, 20]
    assert list(shipped.flows.items()) == [(22, 0), (21, 1), (20, 2)]


def test_a_negative_flow_id_gets_no_slot():
    sharder = FlowSharder(2)
    with pytest.raises(ValueError):
        sharder.pin(-1, 0)
    assert len(sharder.flows) == 0
