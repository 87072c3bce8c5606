"""Unit and integration tests for the network simulator (Figure 19 substrate)."""

import pytest

from repro.core.model import Packet
from repro.netsim import (
    DropTailEcnQueue,
    Link,
    FabricConfig,
    FabricExperimentConfig,
    LeafSpineFabric,
    PFabricPortQueue,
    Simulator,
    approx_pfabric_queue_factory,
    run_fabric_experiment,
)


class TestSimulator:
    def test_event_ordering(self):
        simulator = Simulator()
        order = []
        simulator.schedule(50, lambda: order.append("b"))
        simulator.schedule(10, lambda: order.append("a"))
        simulator.schedule(50, lambda: order.append("c"))
        simulator.run()
        assert order == ["a", "b", "c"]
        assert simulator.now_ns == 50

    def test_until_horizon(self):
        simulator = Simulator()
        hits = []
        simulator.schedule(10, lambda: hits.append(1))
        simulator.schedule(100, lambda: hits.append(2))
        simulator.run(until_ns=50)
        assert hits == [1]
        assert simulator.pending_events == 1

    def test_cannot_schedule_in_past(self):
        simulator = Simulator()
        simulator.schedule(10, lambda: simulator.schedule_at(5, lambda: None))
        with pytest.raises(ValueError):
            simulator.run()
        with pytest.raises(ValueError):
            simulator.schedule(-1, lambda: None)


class TestPortQueues:
    def test_droptail_marks_ecn_above_threshold(self):
        queue = DropTailEcnQueue(capacity_packets=10, ecn_threshold=2)
        packets = [Packet(flow_id=1) for _ in range(4)]
        for packet in packets:
            queue.enqueue(packet)
        assert not packets[0].metadata.get("ecn")
        assert packets[3].metadata.get("ecn")

    def test_droptail_drops_when_full(self):
        queue = DropTailEcnQueue(capacity_packets=2)
        assert queue.enqueue(Packet(flow_id=1))
        assert queue.enqueue(Packet(flow_id=1))
        assert not queue.enqueue(Packet(flow_id=1))
        assert queue.drops == 1

    def test_pfabric_serves_smallest_remaining_first(self):
        queue = PFabricPortQueue(capacity_packets=10)
        big = Packet(flow_id=1).annotate(remaining_bytes=1_000_000)
        small = Packet(flow_id=2).annotate(remaining_bytes=3_000)
        queue.enqueue(big)
        queue.enqueue(small)
        assert queue.dequeue() is small
        assert queue.dequeue() is big
        assert queue.dequeue() is None

    def test_pfabric_priority_dropping_evicts_largest(self):
        queue = PFabricPortQueue(capacity_packets=2)
        elephant = Packet(flow_id=1).annotate(remaining_bytes=9_000_000)
        medium = Packet(flow_id=2).annotate(remaining_bytes=60_000)
        mouse = Packet(flow_id=3).annotate(remaining_bytes=1_500)
        queue.enqueue(elephant)
        queue.enqueue(medium)
        assert queue.enqueue(mouse)  # evicts the elephant
        assert queue.drops == 1
        drained = [queue.dequeue(), queue.dequeue()]
        assert elephant not in drained
        assert mouse in drained and medium in drained

    def test_pfabric_rejects_arrival_larger_than_worst(self):
        queue = PFabricPortQueue(capacity_packets=1)
        queue.enqueue(Packet(flow_id=1).annotate(remaining_bytes=1_500))
        assert not queue.enqueue(Packet(flow_id=2).annotate(remaining_bytes=9_000_000))
        assert len(queue) == 1

    def test_pfabric_approx_variant_behaves(self):
        queue = PFabricPortQueue(
            capacity_packets=8, queue_factory=approx_pfabric_queue_factory
        )
        for remaining in (1_000_000, 3_000, 300_000):
            queue.enqueue(Packet(flow_id=1).annotate(remaining_bytes=remaining))
        drained = []
        while True:
            packet = queue.dequeue()
            if packet is None:
                break
            drained.append(packet.metadata["remaining_bytes"])
        assert sorted(drained) == [3_000, 300_000, 1_000_000]


class TestFabric:
    def test_leaf_spine_wiring(self):
        config = FabricConfig(num_leaves=2, num_spines=2, hosts_per_leaf=2)
        fabric = LeafSpineFabric(Simulator(), config, DropTailEcnQueue)
        assert len(fabric.hosts) == 4
        assert len(fabric.leaves) == 2
        # Each leaf connects to its hosts and every spine.
        assert len(fabric.leaves[0].links) == 2 + 2
        assert len(fabric.hosts[0].links) == 1

    def test_packet_crosses_fabric(self):
        simulator = Simulator()
        config = FabricConfig(num_leaves=2, num_spines=1, hosts_per_leaf=2)
        fabric = LeafSpineFabric(simulator, config, DropTailEcnQueue)
        received = []
        fabric.host(3).register_receiver(received.append)
        packet = Packet(flow_id=1, size_bytes=1500)
        packet.metadata.update({"dst": 3, "src": 0})
        fabric.host(0).uplink().send(packet)
        simulator.run()
        assert received and received[0] is packet

    def test_base_rtt_positive(self):
        config = FabricConfig()
        assert 0 < config.base_rtt_seconds() < 1e-3


class TestFabricExperiment:
    @pytest.fixture(scope="class")
    def small_config(self):
        return FabricExperimentConfig(
            fabric=FabricConfig(num_leaves=2, num_spines=2, hosts_per_leaf=2),
            num_flows=40,
            seed=3,
        )

    def test_all_flows_complete(self, small_config):
        result = run_fabric_experiment("pfabric", 0.4, small_config)
        assert result.completion_rate() == pytest.approx(1.0)

    def test_pfabric_beats_dctcp_for_small_flows(self, small_config):
        dctcp = run_fabric_experiment("dctcp", 0.6, small_config)
        pfabric = run_fabric_experiment("pfabric", 0.6, small_config)
        assert pfabric.small_flow_avg() < dctcp.small_flow_avg()

    def test_approximation_has_minimal_effect(self, small_config):
        exact = run_fabric_experiment("pfabric", 0.6, small_config)
        approx = run_fabric_experiment("pfabric_approx", 0.6, small_config)
        # The Figure 19 claim: swapping the switch priority queue for the
        # approximate queue leaves FCTs essentially unchanged.
        assert approx.small_flow_avg() == pytest.approx(
            exact.small_flow_avg(), rel=0.5
        )

    def test_unknown_scheme_rejected(self, small_config):
        with pytest.raises(ValueError):
            run_fabric_experiment("tcp-reno", 0.5, small_config)


class TestEventCancellation:
    def test_cancelled_event_never_fires(self):
        simulator = Simulator()
        hits = []
        handle = simulator.schedule(10, lambda: hits.append("a"))
        simulator.schedule(20, lambda: hits.append("b"))
        assert simulator.cancel(handle)
        simulator.run()
        assert hits == ["b"]
        assert handle.cancelled and not handle.active

    def test_cancel_after_fire_returns_false(self):
        simulator = Simulator()
        handle = simulator.schedule(5, lambda: None)
        simulator.run()
        assert not simulator.cancel(handle)
        assert not handle.cancel()

    def test_pending_events_excludes_cancelled(self):
        simulator = Simulator()
        handles = [simulator.schedule(10 + i, lambda: None) for i in range(4)]
        simulator.cancel(handles[0])
        simulator.cancel(handles[2])
        assert simulator.pending_events == 2

    def test_cancel_from_within_callback(self):
        simulator = Simulator()
        hits = []
        later = simulator.schedule(50, lambda: hits.append("later"))
        simulator.schedule(10, lambda: simulator.cancel(later))
        simulator.run()
        assert hits == []
        assert simulator.now_ns == 10

    def test_reprogramming_pattern(self):
        # Cancel + reschedule earlier: the classic timer re-arm.
        simulator = Simulator()
        hits = []
        handle = simulator.schedule(100, lambda: hits.append("late"))
        simulator.cancel(handle)
        simulator.schedule(10, lambda: hits.append("early"))
        simulator.run()
        assert hits == ["early"]

    def test_heavy_cancellation_compacts_heap(self):
        simulator = Simulator()
        handles = [simulator.schedule(1000 + i, lambda: None) for i in range(300)]
        for handle in handles[:299]:
            simulator.cancel(handle)
        assert simulator.pending_events == 1
        assert simulator.run() == 1

    def test_fired_handle_is_not_cancelled(self):
        simulator = Simulator()
        handle = simulator.schedule(5, lambda: None)
        simulator.run()
        assert handle.fired
        assert not handle.cancelled
        assert not handle.active
        cancelled = simulator.schedule(5, lambda: None)
        simulator.cancel(cancelled)
        simulator.run()
        assert cancelled.cancelled and not cancelled.fired

    def test_handle_cancel_maintains_simulator_accounting(self):
        # Cancelling through the handle's own API (not Simulator.cancel)
        # must keep pending_events exact and still trigger compaction.
        simulator = Simulator()
        handles = [simulator.schedule(1000 + i, lambda: None) for i in range(300)]
        for handle in handles[:299]:
            assert handle.cancel()
        assert simulator.pending_events == 1
        assert simulator.run() == 1


class TestShardedPortQueue:
    def _port(self, num_shards=4, capacity=16):
        from repro.runtime import ShardedPortQueue

        return ShardedPortQueue(
            num_shards,
            lambda shard: DropTailEcnQueue(capacity_packets=capacity),
        )

    def test_routes_by_flow_and_counts(self):
        port = self._port()
        packets = [Packet(flow_id=flow % 8) for flow in range(32)]
        for packet in packets:
            assert port.enqueue(packet)
        assert len(port) == 32
        assert port.enqueued == 32
        # Same flow always lands in the same sub-queue.
        shard_of = {}
        for packet in packets:
            shard = port.shard_for(packet)
            assert shard_of.setdefault(packet.flow_id, shard) == shard

    def test_dequeue_round_robins_nonempty_shards(self):
        port = self._port()
        for flow in range(8):
            port.enqueue_batch([Packet(flow_id=flow) for _ in range(4)])
        occupied = [shard for shard, queue in enumerate(port.shards) if len(queue)]
        pulled = port.dequeue_batch(len(port))
        assert len(pulled) == 32
        assert len(port) == 0
        # A single pull visits every occupied sub-queue (per-pass quotas),
        # rather than draining one ring fully before touching the next.
        quota = max(1, 32 // port.num_shards)
        first_pass = [port.shard_for(packet) for packet in pulled[: quota * len(occupied)]]
        assert set(first_pass) == set(occupied)

    def test_single_dequeue_round_robins_rings(self):
        port = self._port(num_shards=2)
        flow_a = next(f for f in range(64) if port.sharder.shard_for(f) == 0)
        flow_b = next(f for f in range(64) if port.sharder.shard_for(f) == 1)
        port.enqueue_batch([Packet(flow_id=flow_a) for _ in range(2)])
        port.enqueue_batch([Packet(flow_id=flow_b) for _ in range(2)])
        assert [port.dequeue().flow_id for _ in range(4)] == [flow_a, flow_b] * 2
        assert port.dequeue() is None

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError, match="num_shards"):
            self._port(num_shards=0)

    def test_per_flow_fifo_within_port(self):
        port = self._port()
        for sequence in range(6):
            for flow in range(6):
                port.enqueue(Packet(flow_id=flow, metadata={"sequence": sequence}))
        drained = port.dequeue_batch(len(port))
        per_flow = {}
        for packet in drained:
            per_flow.setdefault(packet.flow_id, []).append(packet.metadata["sequence"])
        for flow, sequences in per_flow.items():
            assert sequences == sorted(sequences), f"flow {flow} reordered"

    def _skewed_port(self):
        """Two rings with every flow pinned to ring 0; ring 1 stays empty."""
        from repro.runtime import ShardedPortQueue

        port = ShardedPortQueue(2, lambda shard: DropTailEcnQueue(capacity_packets=64))
        for flow in range(8):
            port.sharder.pin(flow, 0)
        return port

    def test_empty_port_pull_returns_nothing(self):
        port = self._skewed_port()
        assert port.dequeue_batch(8) == []
        assert port.dequeue() is None
        assert len(port) == 0

    def test_one_deep_ring_fills_the_pull_in_fifo_order(self):
        port = self._skewed_port()
        port.enqueue_batch([Packet(flow_id=0, metadata={"seq": i}) for i in range(30)])
        batch = port.dequeue_batch(16)
        assert [packet.metadata["seq"] for packet in batch] == list(range(16))
        assert len(port) == 14
        assert len(port.shards[1]) == 0

    def test_bounded_pull_takes_exactly_n_from_loaded_rings(self):
        port = self._port(num_shards=2, capacity=64)
        for flow in range(8):
            port.enqueue_batch([Packet(flow_id=flow) for _ in range(4)])
        assert all(len(ring) for ring in port.shards)
        pulled = port.dequeue_batch(8)
        assert len(pulled) == 8
        assert len(port) == 24
        # Both loaded rings contribute to a pull that neither can exhaust.
        assert {port.shard_for(packet) for packet in pulled} == {0, 1}

    def test_drops_aggregate_from_subqueues(self):
        port = self._port(num_shards=2, capacity=2)
        accepted = port.enqueue_batch([Packet(flow_id=1) for _ in range(5)])
        assert accepted < 5
        assert port.drops == 5 - accepted

    def test_behind_link_burst_pull(self):
        simulator = Simulator()
        delivered = []
        port = self._port()
        link = Link(
            simulator,
            rate_bps=10e9,
            propagation_ns=100,
            deliver=delivered.append,
            queue=port,
            burst_packets=8,
        )
        for flow in range(24):
            link.send(Packet(flow_id=flow % 6, size_bytes=1500))
        simulator.run()
        assert len(delivered) == 24
        assert link.transmitted_packets == 24


class TestShardedPortQueuePriorityArbiter:
    """arbiter="priority": strict priority holds across rings, not just
    within them (the multi-queue pFabric port of the Figure 19 variant)."""

    def _pfabric_port(self, num_shards=2):
        from repro.runtime import ShardedPortQueue

        return ShardedPortQueue(
            num_shards,
            lambda shard: PFabricPortQueue(),
            arbiter="priority",
        )

    @staticmethod
    def _packet(flow_id, remaining):
        packet = Packet(flow_id=flow_id, size_bytes=1500)
        packet.metadata["remaining_bytes"] = remaining
        return packet

    def test_dequeue_serves_best_head_across_rings(self):
        port = self._pfabric_port()
        sharder = port.sharder
        # Find one flow per ring, then put the high-priority (small
        # remaining) packet on one ring and bulk on the other.
        flow_a = next(f for f in range(64) if sharder.shard_for(f) == 0)
        flow_b = next(f for f in range(64) if sharder.shard_for(f) == 1)
        port.enqueue(self._packet(flow_a, remaining=9_000_000))
        port.enqueue(self._packet(flow_a, remaining=9_000_000 - 1500))
        port.enqueue(self._packet(flow_b, remaining=3_000))
        # RR starting at ring 0 would emit flow_a first; priority
        # arbitration must serve the near-finished mouse immediately.
        released = port.dequeue()
        assert released.flow_id == flow_b
        # Then the elephant's packets, re-arbitrated per packet.
        assert [port.dequeue().flow_id for _ in range(2)] == [flow_a, flow_a]
        assert port.dequeue() is None

    def test_dequeue_batch_rearbitrates_per_packet(self):
        port = self._pfabric_port()
        sharder = port.sharder
        flow_a = next(f for f in range(64) if sharder.shard_for(f) == 0)
        flow_b = next(f for f in range(64) if sharder.shard_for(f) == 1)
        # Interleaved priorities across the two rings: the pull must come
        # out in global priority order, not ring-quota runs.
        port.enqueue_batch(
            [
                self._packet(flow_a, remaining=6_000),
                self._packet(flow_a, remaining=4_500),
                self._packet(flow_b, remaining=3_000),
                self._packet(flow_b, remaining=1_500),
            ]
        )
        batch = port.dequeue_batch(4)
        priorities = [p.metadata["remaining_bytes"] for p in batch]
        assert priorities == sorted(priorities)
        assert port.dequeue_batch(4) == []

    def test_head_priority_skips_lazily_evicted_corpses(self):
        # A pFabric eviction leaves a corpse in the priority index; its
        # stale (better) priority must not leak into the arbitration hint,
        # or the arbiter would pick this ring and emit a *worse* packet
        # than a sibling's genuine head — the exact inversion the priority
        # arbiter exists to prevent.
        queue = PFabricPortQueue(capacity_packets=2)
        low = self._packet(1, remaining=1_500)  # priority 1
        bulk = self._packet(2, remaining=15_000)  # priority 10
        queue.enqueue(low)
        queue.enqueue(bulk)
        # Arrival at priority 2 evicts the priority-10 packet (corpse stays
        # in the index under priority 10).
        assert queue.enqueue(self._packet(3, remaining=3_000))
        assert queue.dequeue() is low
        assert queue.dequeue().flow_id == 3
        assert len(queue) == 0
        assert queue.head_priority() is None
        # A genuinely worse packet arrives: the hint must report *its*
        # priority, not the corpse's stale 10.
        queue.enqueue(self._packet(4, remaining=75_000))
        assert queue.head_priority() == 50

    def test_priority_arbiter_requires_head_priority(self):
        from repro.runtime import ShardedPortQueue

        with pytest.raises(ValueError):
            ShardedPortQueue(
                2, lambda shard: DropTailEcnQueue(), arbiter="priority"
            )
        with pytest.raises(ValueError):
            ShardedPortQueue(2, lambda shard: DropTailEcnQueue(), arbiter="weird")
