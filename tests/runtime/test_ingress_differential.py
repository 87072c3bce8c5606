"""Differential tests: the RX path against a twin that does it all per packet.

The pull routes its whole head window in one router call, which commits
each packet its handoff will take as it routes it, and stops at the first
packet that does not fit its mailbox; the lane sharder memoises each flow's
ingress lane, the runtime records the load window once per flow per group
and the ring sojourns once per run of equal arrival times, and an RX ring
counts flows only for a policy that reads the counts.  The twin undoes every
one of those: it routes one packet per router call into the pull's groups
(each call reads the mailbox rooms and fault budgets afresh), asks a lane
sharder that keeps no memo for every packet, records the window one packet
at a time, attributes and records the sojourns one delivered packet at a
time, and keeps flow counts on every ring.  On the same Zipf arrivals — 4
shards, 2 RX cores, stealing and rebalancing on — the two must agree on
everything observable.
"""

import random

import pytest

from repro.core.model.packet import Packet
from repro.runtime import CoDelPolicy, FlowSharder, IngressCore, ShardedRuntime
from repro.runtime.faults import FaultEvent, FaultPlan
from repro.runtime.sharder import rss_hash

QUANTUM_NS = 10_000


class _PerPacketWindow(FlowSharder):
    """Records the load window one packet at a time."""

    def record_burst(self, flow_ids, shard):
        for flow_id in flow_ids:
            self.record(flow_id, shard)


class _AskEveryTime(FlowSharder):
    """Keeps no memo: asked again for every packet."""

    MEMO_LIMIT = 0


class _PerPacketCore(IngressCore):
    """Records each delivered packet's sojourn on its own, group by group.

    A group cut short delivered the first ``accepted`` packets of what it
    still holds: an armed handoff fault cuts the eaten head off the group in
    place, and the mailbox tail-drops what does not fit.
    """

    __slots__ = ()

    def _record_sojourns(self, now_ns, packets, arrivals, groups, short):
        arrival_of = {id(packet): arrival for packet, arrival in zip(packets, arrivals)}
        for shard, group in groups.items():
            accepted = len(group) if short is None else short.get(shard, len(group))
            for packet in group[:accepted]:
                self.sojourn_hist.record(now_ns - arrival_of[id(packet)])


class _PerPacketTwin(ShardedRuntime):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        lanes = self._ingress.lanes
        self._ingress.lanes = _AskEveryTime.for_ingress(lanes.num_shards, lanes.hash_seed)
        for core in self.ingress_cores:
            core.__class__ = _PerPacketCore  # same slots, per-packet sojourns
            core.ring.count_flows()

    def _route_burst(self, packets, rooms=None, by_shard=None):
        groups = {} if by_shard is None else by_shard
        for packet in packets:
            routed = sum(map(len, groups.values()))
            super()._route_burst([packet], rooms, groups)
            if sum(map(len, groups.values())) == routed:
                break
        return groups


def _zipf_bursts(seed, num_flows=64, skew=1.2, burst=48, bursts=60, flows=None):
    rng = random.Random(seed)
    if flows is None:
        flows = list(range(1, num_flows + 1))
    weights = [1.0 / rank**skew for rank in range(1, len(flows) + 1)]
    return [rng.choices(flows, weights, k=burst) for _ in range(bursts)]


def _drive(runtime_cls, flow_bursts, window_limit=None, lane_pins=None, **kwargs):
    """One run; ``lane_pins`` is ``(when_ns, {flow_id: lane})`` applied mid-run."""
    sharder_cls = _PerPacketWindow if runtime_cls is _PerPacketTwin else FlowSharder
    sharder = sharder_cls(4, **({} if window_limit is None else {"window_limit": window_limit}))
    runtime = runtime_cls(
        4,
        sharder=sharder,
        quantum_ns=QUANTUM_NS,
        ingress_cores=2,
        steal_enabled=True,
        steal_min_backlog=4,
        rebalance_interval_ns=8 * QUANTUM_NS,
        **kwargs,
    )
    if lane_pins is not None:
        when_ns, pins = lane_pins

        def apply_pins():
            for flow_id, lane in pins.items():
                runtime._ingress.lanes.pin(flow_id, lane)

        runtime.simulator.schedule_at(when_ns, apply_pins)
    arrivals: dict = {}
    for index, flow_ids in enumerate(flow_bursts):
        burst = []
        for flow_id in flow_ids:
            arrival = arrivals.get(flow_id, 0)
            arrivals[flow_id] = arrival + 1
            burst.append(Packet(flow_id=flow_id, size_bytes=1500).annotate(arrival_index=arrival))
        runtime.submit_at(index * QUANTUM_NS, burst)
    runtime.run()
    telemetry = runtime.telemetry()
    return {
        "transmit_log": [
            (now_ns, packet.flow_id, packet.metadata["arrival_index"])
            for now_ns, packet in runtime.transmit_log
        ],
        "ingress": [core.stats.as_dict() for core in runtime.ingress_cores],
        "ring_peak": [core.ring.peak for core in runtime.ingress_cores],
        "sojourn": [core.sojourn_hist.as_dict() for core in runtime.ingress_cores],
        "sharder": runtime.sharder.stats.as_dict(),
        "flow_loads": runtime.sharder.flow_loads(),
        "migrations_applied": telemetry.migrations_applied,
        "steals_attempted": telemetry.steals_attempted,
        "packets_stolen": telemetry.packets_stolen,
        "total_cycles": telemetry.total_cycles,
        "transmitted": telemetry.transmitted,
        "admission_drops": telemetry.admission_drops,
        "ingress_drops": telemetry.ingress_drops,
        "handoff_drops": telemetry.faults["handoff_drops"],
        "residual_state": runtime.residual_state(),
    }


def _both(flow_bursts, make_plan=None, **kwargs):
    """Run the real path and the twin (a fresh fault plan each); they must agree."""
    outcomes = []
    for runtime_cls in (ShardedRuntime, _PerPacketTwin):
        if make_plan is not None:
            kwargs["fault_plan"] = make_plan()
        outcomes.append(_drive(runtime_cls, flow_bursts, **kwargs))
    real, twin = outcomes
    assert real == twin
    assert not any(real["residual_state"].values())
    submitted = sum(map(len, flow_bursts))
    lost = real["admission_drops"] + real["ingress_drops"] + real["handoff_drops"]
    assert real["transmitted"] + lost == submitted
    return real


def test_small_mailbox_watermarks_stall_the_pull():
    # Half way through, the hottest flows change RX lanes: each pin must
    # drop that flow's memoised lane, and only that one.
    outcome = _both(
        _zipf_bursts(1),
        lane_pins=(30 * QUANTUM_NS - 1, {1: 1, 2: 0, 3: 1, 4: 0}),
        default_rate_bps=1e9,
        mailbox_capacity=6,
        rx_ring_capacity=32,
        rx_burst=32,
        shard_backlog_limit=24,
    )
    assert sum(stats["stalled_ticks"] for stats in outcome["ingress"]) > 0
    assert any(peak > 32 for peak in outcome["ring_peak"])  # the ring grew
    assert outcome["migrations_applied"] > 0
    assert outcome["steals_attempted"] > 0


@pytest.mark.parametrize(
    "admission",
    [None, "tail_drop", "fair_drop", lambda: CoDelPolicy(target_ns=20_000, interval_ns=60_000)],
    ids=["none", "tail_drop", "fair_drop", "codel"],
)
def test_every_admission_policy(admission):
    outcome = _both(
        _zipf_bursts(2),
        admission=admission,
        default_rate_bps=1e9,
        mailbox_capacity=8,
        rx_ring_capacity=24,
        rx_burst=16,
        shard_backlog_limit=16,
    )
    dropped = sum(stats["rx_dropped"] for stats in outcome["ingress"])
    assert (dropped > 0) == (admission is not None)
    assert outcome["steals_attempted"] > 0


def test_window_limit_sends_the_record_guard_per_packet():
    outcome = _both(
        _zipf_bursts(3, num_flows=200, skew=0.8),
        window_limit=16,
        default_rate_bps=10e9,
    )
    # An eviction can only fire on the per-packet side of the guard.
    assert outcome["sharder"]["window_evictions"] > 0
    assert outcome["migrations_applied"] > 0


def test_groups_cut_short_by_a_full_mailbox_or_a_handoff_fault():
    # Backpressure off: the pull hands over whatever it routed, the mailbox
    # tail-drops what does not fit and a handoff fault eats group heads, so
    # a group's delivered packets are a prefix of it, not all of it.  Every
    # flow hashes to shard 0 or 3, so the faulted shards 1 and 2 are first
    # offered flows the rebalancer moved there: flows that hold a slot, and
    # routing must commit none of the heads the handoff drops.
    flows = [flow_id for flow_id in range(1, 1_000) if rss_hash(flow_id) % 4 in (0, 3)][:64]
    def make_plan():
        return FaultPlan(
            [
                FaultEvent("handoff_drop", target=1, count=20),  # ends mid-group
                FaultEvent("handoff_drop", target=2, count=10),
            ]
        )

    outcome = _both(
        _zipf_bursts(4, flows=flows),
        make_plan=make_plan,
        ingress_backpressure=False,
        default_rate_bps=1e9,
        mailbox_capacity=8,
        rx_ring_capacity=64,
        rx_burst=32,
        shard_backlog_limit=16,
    )
    assert outcome["handoff_drops"] == 30
    assert outcome["ingress_drops"] > 0
    assert sum(stats["delivered"] for stats in outcome["ingress"]) < sum(
        stats["classified"] for stats in outcome["ingress"]
    )
