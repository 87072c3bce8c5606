"""Unit and integration tests for the ingress-core subsystem.

Covers the RX ring mechanics, the three admission policies, the pull loop's
backpressure behaviour (stall on a paused mailbox, resume on the ``on_low``
edge), the runtime wiring (``ingress_cores=N``), and the telemetry rows the
bottleneck analysis reads.
"""

import gc

import pytest

from repro.core.model.packet import Packet
from repro.runtime import (
    CoDelPolicy,
    FlowFairDropPolicy,
    FlowSharder,
    IngressCore,
    Mailbox,
    RxRing,
    ShardedRuntime,
    TailDropPolicy,
    make_admission_factory,
)
from repro.runtime.faults import FaultEvent, FaultPlan

QUANTUM_NS = 10_000


def _packets(flow_ids, size_bytes=1500):
    return [Packet(flow_id=flow_id, size_bytes=size_bytes) for flow_id in flow_ids]


def _router(shard_of):
    """A burst router for ``IngressCore.pull`` over a per-flow shard map.

    The runtime's router contract without its flow table: groups in ring
    order, appended to ``groups`` when given, and a stop at the first
    packet whose shard has no room left.
    """

    def route(packets, rooms, groups=None):
        if groups is None:
            groups = {}
        for packet in packets:
            shard = shard_of(packet.flow_id)
            if rooms is not None and len(groups.get(shard, ())) >= rooms[shard]:
                break
            groups.setdefault(shard, []).append(packet)
        return groups

    return route


def _deliver_to(mailboxes):
    return lambda shard, group: mailboxes[shard].push_batch(group)


def _flow_sequences(transmit_log):
    sequences = {}
    for _now, packet in transmit_log:
        sequences.setdefault(packet.flow_id, []).append(packet.packet_id)
    return sequences


class TestRxRing:
    def test_fifo_and_flow_counts(self):
        ring = RxRing(capacity=4)
        for index, flow in enumerate([1, 2, 1, 1]):
            ring.push(index, Packet(flow_id=flow))
        assert len(ring) == 4
        assert ring.flow_count(1) == 3
        assert ring.fattest_flow() == 1
        arrival, packet = ring.pop()
        assert (arrival, packet.flow_id) == (0, 1)
        assert ring.flow_count(1) == 2

    def test_drop_newest_keeps_order_of_survivors(self):
        ring = RxRing(capacity=8)
        packets = _packets([1, 2, 1, 3, 1])
        for index, packet in enumerate(packets):
            ring.push(index, packet)
        dropped = ring.drop_newest(1)
        assert dropped is packets[4]  # the tail-most packet of flow 1
        order = [ring.pop()[1] for _ in range(len(ring))]
        assert order == [packets[0], packets[1], packets[2], packets[3]]
        assert ring.drop_newest(99) is None

    def test_growth_and_peak(self):
        ring = RxRing(capacity=2)
        for index in range(5):
            ring.push(index, Packet(flow_id=index))
        assert ring.over_capacity
        assert ring.peak == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            RxRing(capacity=0)


def _tracked_objects():
    gc.collect()
    return len(gc.get_objects())


def test_the_rx_ring_keeps_no_tracked_object_per_packet():
    # 10k packets offered in NIC bursts, all resident at once, then pulled
    # through two mailboxes; the packets exist before the first count.
    packets = _packets([flow % 40 for flow in range(10_000)])
    bursts = [packets[index:index + 128] for index in range(0, len(packets), 128)]
    core = IngressCore(0, ring_capacity=512, pull_batch=64)
    mailboxes = [Mailbox(), Mailbox()]
    route = _router(lambda flow: flow % 2)
    deliver = _deliver_to(mailboxes)
    core.offer(_packets([1, 2]), now_ns=0)  # warm-up: the ring's columns exist
    core.pull(0, route, mailboxes, deliver)
    before = _tracked_objects()
    for index, burst in enumerate(bursts):
        core.offer(burst, now_ns=index)
    assert len(core.ring) == len(packets) and core.stats.ring_grown > 0
    assert _tracked_objects() - before < 64
    while not core.ring.empty:
        core.pull(len(bursts), route, mailboxes, deliver)
        for mailbox in mailboxes:
            mailbox.drain()
    assert core.stats.delivered == len(packets) + 2
    assert _tracked_objects() - before < 64


class TestAdmissionPolicies:
    def test_tail_drop_bounds_the_ring(self):
        policy = TailDropPolicy()
        ring = RxRing(capacity=2)
        for index in range(2):
            admit, evicted = policy.on_arrival(ring, Packet(flow_id=index), 0)
            assert admit and evicted is None
            ring.push(0, Packet(flow_id=index))
        admit, evicted = policy.on_arrival(ring, Packet(flow_id=9), 0)
        assert not admit and evicted is None

    def test_fair_drop_evicts_the_fattest_flow(self):
        policy = FlowFairDropPolicy()
        ring = RxRing(capacity=4)
        for index, flow in enumerate([7, 7, 7, 8]):
            ring.push(index, Packet(flow_id=flow))
        # A mouse arrival displaces the elephant's newest packet.
        admit, evicted = policy.on_arrival(ring, Packet(flow_id=9), 4)
        assert admit
        assert evicted is not None and evicted.flow_id == 7
        assert ring.flow_count(7) == 2

    def test_fair_drop_elephant_is_its_own_victim(self):
        policy = FlowFairDropPolicy()
        ring = RxRing(capacity=3)
        for index, flow in enumerate([7, 7, 8]):
            ring.push(index, Packet(flow_id=flow))
        admit, evicted = policy.on_arrival(ring, Packet(flow_id=7), 3)
        assert not admit and evicted is None
        assert len(ring) == 3

    def test_codel_leaves_good_queues_alone(self):
        policy = CoDelPolicy(target_ns=1_000, interval_ns=10_000)
        ring = RxRing(capacity=8)
        # Sojourn below target: never a drop, state resets.
        for now in range(0, 100_000, 10_000):
            assert not policy.on_head(ring, 500, now)

    def test_codel_drops_after_a_full_interval_above_target(self):
        policy = CoDelPolicy(target_ns=1_000, interval_ns=10_000)
        ring = RxRing(capacity=8)
        assert not policy.on_head(ring, 5_000, 0)  # arms first_above
        assert not policy.on_head(ring, 5_000, 5_000)  # interval not over
        assert policy.on_head(ring, 5_000, 10_000)  # dropping starts
        # The control law schedules the next drop interval/sqrt(count) out.
        assert not policy.on_head(ring, 5_000, 10_001)
        assert policy.on_head(ring, 5_000, 30_000)

    def test_codel_exits_dropping_when_sojourn_recovers(self):
        policy = CoDelPolicy(target_ns=1_000, interval_ns=10_000)
        ring = RxRing(capacity=8)
        policy.on_head(ring, 5_000, 0)
        assert policy.on_head(ring, 5_000, 10_000)
        assert not policy.on_head(ring, 100, 10_500)  # below target: reset
        assert not policy.on_head(ring, 5_000, 11_000)  # must re-arm first

    def test_codel_validation(self):
        with pytest.raises(ValueError):
            CoDelPolicy(target_ns=0)
        with pytest.raises(ValueError):
            CoDelPolicy(interval_ns=0)

    def test_factory_normalisation(self):
        assert make_admission_factory(None) is None
        assert isinstance(make_admission_factory("tail_drop")(), TailDropPolicy)
        assert isinstance(make_admission_factory("fair_drop")(), FlowFairDropPolicy)
        assert isinstance(make_admission_factory("codel")(), CoDelPolicy)
        custom = make_admission_factory(lambda: CoDelPolicy(1, 2))
        assert isinstance(custom(), CoDelPolicy)
        with pytest.raises(ValueError):
            make_admission_factory("red")  # not implemented


class TestIngressCorePull:
    def _deliver_all(self, core, mailboxes, now=0):
        sharder = FlowSharder(len(mailboxes))
        return core.pull(now, _router(sharder.shard_for), mailboxes, _deliver_to(mailboxes))

    def test_classify_groups_and_delivers_in_ring_order(self):
        core = IngressCore(0, ring_capacity=64, pull_batch=64)
        flows = [5, 9, 5, 9, 5]
        core.offer(_packets(flows), now_ns=0)
        mailboxes = [Mailbox(), Mailbox()]
        delivered = self._deliver_all(core, mailboxes)
        assert delivered == 5
        assert core.stats.classified == 5
        drained = [p.flow_id for mb in mailboxes for p in mb.drain()]
        # Per-flow order inside each mailbox follows ring order.
        assert sorted(drained) == sorted(flows)
        assert core.ring.empty

    def test_pull_budget_bounds_one_tick(self):
        core = IngressCore(0, ring_capacity=64, pull_batch=3)
        core.offer(_packets([1] * 10), now_ns=0)
        mailboxes = [Mailbox()]
        assert self._deliver_all(core, mailboxes) == 3
        assert len(core.ring) == 7

    def test_stall_on_paused_mailbox_keeps_head(self):
        core = IngressCore(0, ring_capacity=64, pull_batch=64)
        core.offer(_packets([1] * 6), now_ns=0)
        mailbox = Mailbox(capacity=8, high_watermark=4)
        delivered = core.pull(0, _router(lambda _flow: 0), [mailbox], _deliver_to([mailbox]))
        # The pull stops once delivery would land occupancy at the high
        # watermark: exactly 4 delivered, mailbox paused, 2 left in the ring.
        assert delivered == 4
        assert mailbox.paused
        assert core.stalled
        assert core.stats.stalled_ticks == 1
        assert core.stats.stall_cycles > 0
        assert len(core.ring) == 2

    def test_cycles_charged_per_packet_and_per_handoff(self):
        core = IngressCore(0, ring_capacity=64, pull_batch=64)
        core.offer(_packets([1, 2, 3]), now_ns=0)
        mailboxes = [Mailbox(), Mailbox()]
        self._deliver_all(core, mailboxes)
        breakdown = core.cost.breakdown()
        assert breakdown["rx_poll"] > 0
        assert breakdown["rx_descriptor"] == 3 * 18.0
        assert breakdown["flow_lookup"] == 3 * 30.0
        assert breakdown["lock"] > 0

    def test_backpressure_off_tail_drops_at_capacity(self):
        core = IngressCore(0, ring_capacity=4, pull_batch=64, backpressure=False)
        admitted = core.offer(_packets(range(6)), now_ns=0)
        assert admitted == 4
        assert core.stats.rx_dropped == 2
        assert not core.ring.over_capacity

    def test_backpressure_grows_the_ring_loss_free(self):
        core = IngressCore(0, ring_capacity=4, pull_batch=64)
        admitted = core.offer(_packets(range(6)), now_ns=0)
        assert admitted == 6
        assert core.stats.rx_dropped == 0
        assert core.stats.ring_grown == 2

    def test_codel_head_drops_count_and_charge(self):
        core = IngressCore(
            0, ring_capacity=8, pull_batch=2,
            admission=CoDelPolicy(target_ns=1_000, interval_ns=2_000),
        )
        core.offer(_packets([1] * 6), now_ns=0)
        mailboxes = [Mailbox()]

        def pull(now):
            return core.pull(now, _router(lambda _flow: 0), mailboxes, _deliver_to(mailboxes))

        # First pull: sojourn 10 us is over target, which only *arms* the
        # interval clock (a burst that drains within an interval is a good
        # queue and is never touched).
        assert pull(10_000) == 2
        assert core.stats.rx_dropped == 0
        # Second pull, a full interval later with sojourn still over target:
        # the dropping state engages at the head.
        pull(13_000)
        assert core.stats.rx_dropped > 0
        assert core.stats.delivered + core.stats.rx_dropped + len(core.ring) == 6
        # Charges settle once per pull, and must equal the per-packet model:
        # every packet leaving the ring (classified or dropped at the head)
        # pays one descriptor read, a head drop one admission compare on top
        # of the six arrival checks, a classified packet one flow lookup.
        stats = core.stats
        breakdown = core.cost.breakdown()
        assert breakdown["rx_descriptor"] == (stats.classified + stats.rx_dropped) * 18.0
        assert breakdown["admission_check"] == (6 + stats.rx_dropped) * 6.0
        assert breakdown["flow_lookup"] == stats.classified * 30.0

    def test_empty_pull_is_an_idle_tick(self):
        core = IngressCore(0)
        mailboxes = [Mailbox()]
        assert self._deliver_all(core, mailboxes) == 0
        assert core.stats.idle_ticks == 1
        assert not core.stalled

    def test_validation(self):
        with pytest.raises(ValueError):
            IngressCore(0, pull_batch=0)


def test_a_handoff_fault_records_the_sojourns_of_the_delivered_tail():
    # One pull takes six packets of flow 2 that arrived at 0 and three that
    # arrived at 1,000: the first pull (at 0) stopped at its 64-packet
    # budget, and the next comes one RX quantum (2,500 ns) later.  The
    # handoff fault eats the group's three oldest packets; the ring
    # sojourns recorded are the six delivered ones', three of 2,500 and
    # three of 1,500 — not the dropped head's.
    sharder = FlowSharder(2)
    sharder.pin(1, 1)
    sharder.pin(2, 0)
    runtime = ShardedRuntime(
        2,
        sharder=sharder,
        quantum_ns=QUANTUM_NS,
        default_rate_bps=10e9,
        ingress_cores=1,
        fault_plan=FaultPlan([FaultEvent("handoff_drop", target=0, count=3)]),
    )
    runtime.submit_at(0, _packets([1] * 64 + [2] * 6))
    runtime.submit_at(1_000, _packets([2] * 3))
    runtime.run()
    assert runtime.telemetry().faults["handoff_drops"] == 3
    assert runtime.transmitted == 70
    sojourn = runtime.ingress_cores[0].sojourn_hist
    assert (sojourn.count, sojourn.sum, sojourn.max_value) == (70, 3 * 2_500 + 3 * 1_500, 2_500)


class TestRuntimeIngressIntegration:
    def test_everything_delivered_once_and_in_order(self):
        runtime = ShardedRuntime(
            4,
            default_rate_bps=10e9,
            quantum_ns=QUANTUM_NS,
            ingress_cores=2,
            mailbox_capacity=32,
            rx_ring_capacity=64,
            rx_burst=32,
        )
        packets = _packets([flow % 24 for flow in range(600)])
        assert runtime.submit_batch(packets) == 600
        runtime.run()
        assert runtime.transmitted == 600
        assert runtime.pending == 0
        assert runtime.ingress_drops == 0
        for flow_id, sequence in _flow_sequences(runtime.transmit_log).items():
            assert sequence == sorted(sequence), f"flow {flow_id} reordered"

    def test_no_ingress_cores_builds_no_plane(self):
        runtime = ShardedRuntime(2, quantum_ns=QUANTUM_NS)
        assert runtime._ingress is None
        assert runtime.ingress_cores == []
        schedule_at = runtime.simulator.schedule_at
        modules = []

        def recording(time_ns, callback):
            modules.append(callback.__module__)
            return schedule_at(time_ns, callback)

        runtime.simulator.schedule_at = recording
        assert runtime.submit_batch(_packets([flow % 6 for flow in range(60)])) == 60
        runtime.run()
        assert runtime.transmitted == 60
        assert modules and "repro.runtime.ingress" not in modules

    def test_single_submit_goes_through_the_ring(self):
        runtime = ShardedRuntime(2, quantum_ns=QUANTUM_NS, ingress_cores=1)
        assert runtime.submit(Packet(flow_id=3, size_bytes=1500))
        assert runtime.pending == 1  # resident in the RX ring until the pull
        runtime.run()
        assert runtime.transmitted == 1

    def test_flows_stick_to_one_ingress_core(self):
        runtime = ShardedRuntime(2, quantum_ns=QUANTUM_NS, ingress_cores=3)
        runtime.submit_batch(_packets([flow % 12 for flow in range(240)]))
        runtime.run()
        assert runtime.transmitted == 240
        # Replaying the lane hash per flow must match what each core saw:
        # every flow's packets traversed exactly one ring.
        lanes = runtime._ingress.lanes
        per_core = [core.stats.rx_packets for core in runtime.ingress_cores]
        expected = [0, 0, 0]
        for flow in range(12):
            expected[lanes.shard_for(flow)] += 20
        assert per_core == expected

    def test_ingress_telemetry_rows_and_bottleneck(self):
        runtime = ShardedRuntime(
            2, quantum_ns=QUANTUM_NS, ingress_cores=2, mailbox_capacity=64
        )
        runtime.submit_batch(_packets([flow % 16 for flow in range(400)]))
        runtime.run()
        telemetry = runtime.telemetry()
        assert len(telemetry.ingress) == 2
        assert telemetry.max_ingress_cycles > 0
        assert telemetry.bottleneck_cycles == max(
            telemetry.max_shard_cycles, telemetry.max_ingress_cycles
        )
        assert telemetry.total_cycles > sum(s.cycles for s in telemetry.shards)
        payload = telemetry.as_dict()
        assert len(payload["ingress"]) == 2
        assert payload["bottleneck_cycles"] == telemetry.bottleneck_cycles
        row = payload["ingress"][0]
        assert row["delivered"] == row["classified"]
        assert row["mean_sojourn_ns"] >= 0

    def test_backpressure_zero_loss_with_tiny_mailboxes(self):
        runtime = ShardedRuntime(
            2,
            default_rate_bps=1e9,
            quantum_ns=QUANTUM_NS,
            ingress_cores=1,
            mailbox_capacity=4,
            rx_ring_capacity=8,
            rx_burst=16,
            shard_backlog_limit=8,
        )
        runtime.submit_batch(_packets([flow % 8 for flow in range(200)]))
        runtime.run()
        assert runtime.transmitted == 200
        assert runtime.ingress_drops == 0
        assert runtime.telemetry().admission_drops == 0
        # The tiny mailboxes must have exerted real backpressure.
        assert sum(c.stats.stalled_ticks for c in runtime.ingress_cores) > 0
        assert runtime.ingress_cores[0].ring.peak > 8

    def test_admission_by_name_drops_under_ring_pressure(self):
        runtime = ShardedRuntime(
            1,
            default_rate_bps=1e6,  # 12 ms per packet: the shard drains slowly
            quantum_ns=QUANTUM_NS,
            ingress_cores=1,
            admission="tail_drop",
            mailbox_capacity=2,
            rx_ring_capacity=4,
            rx_burst=4,
            shard_backlog_limit=2,
        )
        accepted = runtime.submit_batch(_packets([1] * 40))
        assert accepted < 40
        telemetry = runtime.telemetry()
        assert telemetry.admission_drops == 40 - accepted
        runtime.run()
        assert runtime.transmitted == accepted

    def test_on_low_edge_beats_the_polling_retry(self):
        # A stalled RX core must resume on the mailbox's falling-watermark
        # edge, not wait for its quantum-cadence retry: with the retry a
        # full 50 us out and everything unpaced, the whole run completing
        # well before the first retry proves the on_low wake pulled the
        # stalled pull forward.
        runtime = ShardedRuntime(
            1,
            quantum_ns=QUANTUM_NS,
            ingress_cores=1,
            mailbox_capacity=2,
            rx_burst=8,
        )
        runtime._ingress.quantum_ns = 50_000
        runtime.submit_batch(_packets([1] * 6))
        runtime.run()
        assert runtime.transmitted == 6
        assert runtime.ingress_cores[0].stats.stalled_ticks > 0
        assert runtime.simulator.now_ns < 50_000

    def test_stop_cancels_ingress_timers(self):
        runtime = ShardedRuntime(2, quantum_ns=QUANTUM_NS, ingress_cores=2)
        runtime.submit_batch(_packets([flow % 6 for flow in range(100)]))
        runtime.run(max_events=1)
        assert runtime.simulator.pending_events > 0
        runtime.stop()
        assert runtime.simulator.pending_events == 0

    def test_ingress_composes_with_stealing_and_rebalancing(self):
        runtime = ShardedRuntime(
            4,
            default_rate_bps=10e9,
            quantum_ns=QUANTUM_NS,
            ingress_cores=2,
            mailbox_capacity=32,
            rebalance_interval_ns=4 * QUANTUM_NS,
            steal_enabled=True,
            steal_min_backlog=1,
        )
        flows = ([1, 1, 1, 2] * 40 + [3, 4, 5, 6, 7] * 8)[:200]
        for _round in range(5):
            runtime.submit_batch(_packets(flows))
            runtime.run(until_ns=runtime.simulator.now_ns + 4 * QUANTUM_NS)
        runtime.run()
        assert runtime.transmitted == 5 * len(flows)
        assert runtime.sharder.loaned_flows() == {}
        for flow_id, sequence in _flow_sequences(runtime.transmit_log).items():
            assert sequence == sorted(sequence), f"flow {flow_id} reordered"

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardedRuntime(2, ingress_cores=-1)
        with pytest.raises(ValueError):
            ShardedRuntime(2, ingress_cores=1, rx_ring_capacity=0)
        with pytest.raises(ValueError):
            ShardedRuntime(2, ingress_cores=1, rx_burst=0)
        with pytest.raises(ValueError):
            ShardedRuntime(2, shard_backlog_limit=0)
        with pytest.raises(ValueError):
            ShardedRuntime(2, ingress_cores=1, admission="unknown")
