"""Integration tests for the sharded runtime driver.

Covers the ShardedRuntime event loop (wake-up, quantum ticks, deadline
sleeps), telemetry aggregation, lazy migration, and the 1-shard equivalence
with a bare single-core composition of the same primitives.
"""

import pytest

from repro.core.model.packet import Packet
from repro.core.model.transactions import RateLimit, ShapingTransaction
from repro.core.queues import BucketSpec, CircularFFSQueue, QueueStats
from repro.runtime import FlowSharder, ShardedRuntime

RATE_BPS = 1e9
QUANTUM_NS = 10_000


def _packets(flow_ids, size_bytes=1500):
    return [Packet(flow_id=flow_id, size_bytes=size_bytes) for flow_id in flow_ids]


def _flow_sequences(transmit_log):
    sequences = {}
    for _now, packet in transmit_log:
        sequences.setdefault(packet.flow_id, []).append(packet.packet_id)
    return sequences


class TestShardedRuntime:
    def test_transmits_everything_across_shards(self):
        runtime = ShardedRuntime(
            4, default_rate_bps=RATE_BPS, quantum_ns=QUANTUM_NS
        )
        packets = _packets([flow % 32 for flow in range(512)])
        assert runtime.submit_batch(packets) == 512
        runtime.run()
        assert runtime.transmitted == 512
        assert runtime.pending == 0
        used = [worker.stats.transmitted for worker in runtime.workers]
        assert all(count > 0 for count in used), f"idle shard: {used}"

    def test_per_flow_fifo_preserved(self):
        runtime = ShardedRuntime(4, default_rate_bps=RATE_BPS, quantum_ns=QUANTUM_NS)
        runtime.submit_batch(_packets([flow % 16 for flow in range(400)]))
        runtime.run()
        for flow_id, sequence in _flow_sequences(runtime.transmit_log).items():
            assert sequence == sorted(sequence), f"flow {flow_id} reordered"

    def test_departures_respect_pacing(self):
        runtime = ShardedRuntime(2, default_rate_bps=RATE_BPS, quantum_ns=QUANTUM_NS)
        runtime.submit_batch(_packets([1] * 10))
        runtime.run()
        times = [now for now, _packet in runtime.transmit_log]
        # 1500 B at 1 Gbps = 12 us spacing; quantum quantisation may delay a
        # release but never produce more than one packet per pacing slot.
        spacing_ns = int(1500 * 8 / RATE_BPS * 1e9)
        for earlier, later in zip(times, times[1:]):
            assert later - earlier >= spacing_ns - QUANTUM_NS

    def test_unpaced_flows_release_immediately(self):
        runtime = ShardedRuntime(2, quantum_ns=QUANTUM_NS)
        runtime.submit_batch(_packets([1, 2, 3, 4]))
        runtime.run()
        assert runtime.transmitted == 4
        assert all(now == 0 for now, _packet in runtime.transmit_log)

    def test_wake_on_submit_after_idle(self):
        runtime = ShardedRuntime(2, default_rate_bps=RATE_BPS, quantum_ns=QUANTUM_NS)
        runtime.submit(Packet(flow_id=1))
        runtime.run()
        first_round = runtime.transmitted
        # The runtime is fully idle; a later submission must restart ticking.
        runtime.submit(Packet(flow_id=1))
        runtime.run()
        assert runtime.transmitted == first_round + 1

    def test_deadline_sleep_skips_idle_ticks(self):
        # One packet paced far into the future: the shard should sleep to the
        # deadline instead of ticking every quantum.
        slow_rate = 1e6  # 1500 B at 1 Mbps = 12 ms per packet
        runtime = ShardedRuntime(1, default_rate_bps=slow_rate, quantum_ns=QUANTUM_NS)
        runtime.submit_batch(_packets([1, 1]))
        runtime.run()
        assert runtime.transmitted == 2
        worker = runtime.workers[0]
        deadline_span_ticks = 12_000_000 // QUANTUM_NS
        assert worker.stats.ticks < deadline_span_ticks / 10

    def test_mailbox_capacity_drops_are_counted(self):
        runtime = ShardedRuntime(1, quantum_ns=QUANTUM_NS, mailbox_capacity=8)
        accepted = runtime.submit_batch(_packets([1] * 20))
        assert accepted == 8
        assert runtime.ingress_drops == 12
        runtime.run()
        assert runtime.transmitted == 8

    def test_telemetry_aggregates_shards(self):
        runtime = ShardedRuntime(4, default_rate_bps=RATE_BPS, quantum_ns=QUANTUM_NS)
        runtime.submit_batch(_packets([flow % 24 for flow in range(300)]))
        runtime.run()
        telemetry = runtime.telemetry()
        assert telemetry.transmitted == 300
        assert sum(shard.transmitted for shard in telemetry.shards) == 300
        expected = QueueStats.aggregate(
            worker.queue.stats for worker in runtime.workers
        )
        assert telemetry.queue_stats.as_dict() == expected.as_dict()
        assert telemetry.total_cycles == pytest.approx(
            sum(worker.cost.total_cycles for worker in runtime.workers)
        )
        assert telemetry.max_shard_cycles == max(
            worker.cost.total_cycles for worker in runtime.workers
        )
        assert telemetry.imbalance >= 1.0
        payload = telemetry.as_dict()
        assert payload["transmitted"] == 300
        assert len(payload["shards"]) == 4

    def test_migration_waits_for_flow_to_drain(self):
        sharder = FlowSharder(2)
        runtime = ShardedRuntime(
            2,
            sharder=sharder,
            default_rate_bps=RATE_BPS,
            quantum_ns=QUANTUM_NS,
        )
        home = sharder.shard_for(5)
        other = 1 - home
        runtime.submit_batch(_packets([5] * 4))
        # Re-pin mid-flight: packets already inside `home` must finish there.
        sharder.pin(5, other)
        runtime.submit_batch(_packets([5] * 2))
        runtime.run()
        assert runtime.workers[home].stats.transmitted == 6
        assert runtime.workers[other].stats.transmitted == 0
        # Once drained, the pin takes effect for new packets.
        runtime.submit_batch(_packets([5] * 2))
        runtime.run()
        assert runtime.workers[other].stats.transmitted == 2
        assert runtime.migrations_applied == 1
        sequences = _flow_sequences(runtime.transmit_log)
        assert sequences[5] == sorted(sequences[5])

    def test_rebalancer_runs_and_preserves_fifo(self):
        runtime = ShardedRuntime(
            4,
            default_rate_bps=RATE_BPS,
            quantum_ns=QUANTUM_NS,
            rebalance_interval_ns=20 * QUANTUM_NS,
        )
        # Heavy skew: 70% of traffic on two elephant flows.
        flows = ([1, 2] * 7 + [3, 4, 5, 6, 7, 8])[:20]
        for _round in range(25):
            runtime.submit_batch(_packets(flows))
            runtime.run(until_ns=runtime.simulator.now_ns + 4 * QUANTUM_NS)
        runtime.run()
        assert runtime.transmitted == 25 * len(flows)
        assert runtime.telemetry().rebalance_rounds > 0
        for flow_id, sequence in _flow_sequences(runtime.transmit_log).items():
            assert sequence == sorted(sequence), f"flow {flow_id} reordered"

    def test_stop_cancels_outstanding_timers(self):
        runtime = ShardedRuntime(
            2,
            default_rate_bps=1e6,
            quantum_ns=QUANTUM_NS,
            rebalance_interval_ns=QUANTUM_NS,
        )
        runtime.submit_batch(_packets([1, 2, 3, 4]))
        runtime.run(max_events=1)
        assert runtime.simulator.pending_events > 0
        runtime.stop()
        assert runtime.simulator.pending_events == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardedRuntime(0)
        with pytest.raises(ValueError):
            ShardedRuntime(2, quantum_ns=0)
        with pytest.raises(ValueError):
            ShardedRuntime(2, sharder=FlowSharder(3))


class TestSingleShardEquivalence:
    """A 1-shard runtime must match the bare single-core scheduler.

    The reference below composes the same primitives the pre-sharding stack
    uses — one cFFS timestamp queue plus per-flow shaping transactions,
    drained one batch per quantum — with none of the runtime machinery
    (mailboxes, sharder, simulator events).  Identical outputs show the
    sharding layer adds no behavioural change at N=1.
    """

    HORIZON_NS = 2_000_000_000
    NUM_BUCKETS = 20_000
    BATCH = 64

    def _reference_schedule(self, flow_ids, rate_bps, quantum_ns):
        granularity = max(1, self.HORIZON_NS // self.NUM_BUCKETS)
        queue = CircularFFSQueue(
            BucketSpec(num_buckets=self.NUM_BUCKETS, granularity=granularity)
        )
        shapers = {}
        pairs = []
        for flow_id in flow_ids:
            packet = Packet(flow_id=flow_id, size_bytes=1500)
            shaper = shapers.get(flow_id)
            if shaper is None:
                shaper = ShapingTransaction(f"ref-{flow_id}", RateLimit(rate_bps))
                shapers[flow_id] = shaper
            pairs.append((shaper.stamp(packet, 0), packet))
        queue.enqueue_batch(pairs)
        schedule = []
        now = 0
        while len(queue):
            for _send_at, packet in queue.extract_due(now, limit=self.BATCH):
                schedule.append((now, packet.flow_id))
            if not len(queue):
                break
            next_ns = now + quantum_ns
            soonest = max(queue.peek_min()[0], now)
            now = soonest if soonest > next_ns else next_ns
        return schedule

    @pytest.mark.parametrize("steal_enabled", [False, True])
    def test_one_shard_matches_single_core_reference(self, steal_enabled):
        # With one shard there is no sibling to steal from, so the steal
        # machinery must be a perfect no-op: same schedule to the tick.
        flow_ids = [flow % 7 for flow in range(200)]
        runtime = ShardedRuntime(
            1,
            default_rate_bps=RATE_BPS,
            quantum_ns=QUANTUM_NS,
            batch_per_quantum=self.BATCH,
            horizon_ns=self.HORIZON_NS,
            num_buckets=self.NUM_BUCKETS,
            steal_enabled=steal_enabled,
            steal_min_backlog=1,
        )
        runtime.submit_batch(_packets(flow_ids))
        runtime.run()
        observed = [(now, packet.flow_id) for now, packet in runtime.transmit_log]
        expected = self._reference_schedule(flow_ids, RATE_BPS, QUANTUM_NS)
        assert observed == expected

    def test_equivalence_with_unpaced_flows(self):
        flow_ids = [flow % 3 for flow in range(50)]
        runtime = ShardedRuntime(
            1, quantum_ns=QUANTUM_NS, batch_per_quantum=self.BATCH
        )
        runtime.submit_batch(_packets(flow_ids))
        runtime.run()
        observed = [(now, packet.flow_id) for now, packet in runtime.transmit_log]
        # Unpaced packets all stamp at t=0 and drain in BATCH-sized rounds,
        # one round per quantum.
        assert [flow for _now, flow in observed] == flow_ids
        assert observed[: self.BATCH] == [(0, flow) for flow in flow_ids[: self.BATCH]]


class TestMigrationPacingHandoff:
    def test_pacing_state_survives_migration(self):
        # A paced flow migrated between shards must keep its 12 us spacing:
        # the shaping transaction moves with the flow instead of being
        # recreated (which would regrant the burst).
        sharder = FlowSharder(2)
        runtime = ShardedRuntime(
            2, sharder=sharder, default_rate_bps=RATE_BPS, quantum_ns=QUANTUM_NS
        )
        home = sharder.shard_for(5)
        runtime.submit_batch(_packets([5] * 4))
        runtime.run()
        sharder.pin(5, 1 - home)
        runtime.submit_batch(_packets([5] * 4))
        runtime.run()
        assert runtime.workers[1 - home].stats.transmitted == 4
        times = [now for now, _packet in runtime.transmit_log]
        spacing_ns = int(1500 * 8 / RATE_BPS * 1e9)
        for earlier, later in zip(times, times[1:]):
            assert later - earlier >= spacing_ns - QUANTUM_NS, times

    def test_dropped_packet_does_not_count_migration(self):
        sharder = FlowSharder(2)
        runtime = ShardedRuntime(
            2,
            sharder=sharder,
            default_rate_bps=RATE_BPS,
            quantum_ns=QUANTUM_NS,
            mailbox_capacity=2,
        )
        home = sharder.shard_for(5)
        other = 1 - home
        runtime.submit(Packet(flow_id=5, size_bytes=1500))
        runtime.run()  # establish the home, then drain
        # Fill the destination mailbox with another flow, then try to migrate.
        filler = 7 if sharder.shard_for(7) == other else 9
        assert sharder.shard_for(filler) == other or sharder.pin(filler, other) is None
        runtime.workers[other].mailbox.push_batch(
            _packets([filler, filler])
        )
        sharder.pin(5, other)
        assert not runtime.submit(Packet(flow_id=5, size_bytes=1500))
        assert runtime.ingress_drops == 1
        assert runtime.migrations_applied == 0
        # Flow 5's pacing state is still owned by the original shard.
        assert 5 in runtime.workers[home].pacing


class TestFlowStateGc:
    def test_idle_flow_state_is_reclaimed(self):
        runtime = ShardedRuntime(
            2, default_rate_bps=RATE_BPS, quantum_ns=QUANTUM_NS, gc_interval_packets=16
        )
        # Two generations of ephemeral flows: the second generation's
        # transmissions sweep away the (long-expired) first generation, as
        # ongoing traffic does for dead flows in a long-running runtime.
        runtime.submit_batch(_packets(range(100)))
        runtime.simulator.schedule_at(
            1_000_000, lambda: runtime.submit_batch(_packets(range(100, 200)))
        )
        runtime.run()
        assert runtime.transmitted == 200
        assert not any(flow in runtime.flows for flow in range(100))
        live_shapers = sum(len(worker.pacing) for worker in runtime.workers)
        assert live_shapers < 150

    def test_gc_keeps_flows_with_future_pacing_state(self):
        slow_rate = 1e6  # 12 ms/packet: next_free_ns stays in the future
        runtime = ShardedRuntime(
            1, default_rate_bps=slow_rate, quantum_ns=QUANTUM_NS, gc_interval_packets=1
        )
        runtime.submit_batch(_packets([1, 1, 1]))
        runtime.run(until_ns=15_000_000)  # two released, one still paced
        assert runtime.transmitted == 2
        # Flow 1 still has a queued packet and live pacing state: not GC'd.
        assert 1 in runtime.flows
        assert 1 in runtime.workers[0].pacing
        runtime.run()
        assert runtime.transmitted == 3

    def test_gc_can_be_disabled(self):
        runtime = ShardedRuntime(2, quantum_ns=QUANTUM_NS, gc_interval_packets=None)
        runtime.submit_batch(_packets(range(50)))
        runtime.run()
        assert len(runtime.flows) == 50

    def test_gc_validation(self):
        with pytest.raises(ValueError):
            ShardedRuntime(2, gc_interval_packets=0)
