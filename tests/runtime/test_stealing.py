"""Work-stealing tests: channel, donor/acceptor protocol, differential runs.

The contract under test (see ``repro.runtime.stealing``): an idle shard may
take over a busy sibling's due window under a flow-ownership lease, and no
combination of stealing, rebalancing, pacing, or ingress pattern may ever
reorder a flow — only *where* and *when* packets are released may change,
never *in what order*.
"""

import random

import pytest

from repro.core.model.packet import Packet
from repro.runtime import (
    FlowLease,
    FlowSharder,
    ShardRebalancer,
    ShardWorker,
    ShardedRuntime,
    StealChannel,
    StealRequest,
)
from repro.traffic import ZipfFlowSampler

RATE_BPS = 10e9  # 1500 B => 1.2 us spacing
QUANTUM_NS = 10_000


def _packets(flow_ids, size_bytes=1500):
    packets = []
    per_flow: dict = {}
    for flow_id in flow_ids:
        index = per_flow.get(flow_id, 0)
        per_flow[flow_id] = index + 1
        packets.append(
            Packet(flow_id=flow_id, size_bytes=size_bytes).annotate(arrival_index=index)
        )
    return packets


def _flow_sequences(transmit_log, key="arrival_index"):
    sequences: dict = {}
    for _now, packet in transmit_log:
        sequences.setdefault(packet.flow_id, []).append(packet.metadata[key])
    return sequences


class TestStealChannel:
    def test_fifo_and_dedup(self):
        channel = StealChannel()
        assert channel.post(StealRequest(1, 0)) == "accepted"
        assert channel.post(StealRequest(2, 5)) == "accepted"
        assert channel.post(StealRequest(1, 9)) == "duplicate"
        assert len(channel) == 2
        assert channel.peek().thief_shard == 1
        assert channel.pop().thief_shard == 1
        # After popping, the same thief may park again.
        assert channel.post(StealRequest(1, 12)) == "accepted"
        assert [channel.pop().thief_shard for _ in range(2)] == [2, 1]
        assert channel.empty

    def test_capacity_bound_drops(self):
        channel = StealChannel(capacity=2)
        assert channel.post(StealRequest(1, 0)) == "accepted"
        assert channel.post(StealRequest(2, 0)) == "accepted"
        assert channel.post(StealRequest(3, 0)) == "full"
        assert channel.stats.dropped_full == 1
        channel.pop()
        assert channel.post(StealRequest(3, 1)) == "accepted"

    def test_stats(self):
        channel = StealChannel()
        channel.post(StealRequest(1, 0))
        channel.post(StealRequest(1, 0))
        channel.pop()
        stats = channel.stats
        assert stats.posted == 1
        assert stats.duplicates == 1
        assert stats.popped == 1
        assert stats.as_dict()["posted"] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            StealChannel(capacity=0)


class TestDonorSide:
    """Direct exercise of the ShardWorker donor API (grant/defer/end)."""

    def _loaded_worker(self, count=6, rate=None):
        worker = ShardWorker(0, default_rate_bps=rate)
        worker.mailbox.push_batch(_packets([7] * count))
        worker.ingest(now_ns=0)
        return worker

    def test_grant_takes_stamp_ordered_prefix_and_marks_loan(self):
        worker = self._loaded_worker(6)
        lease = worker.grant_lease(1, thief_shard=1, now_ns=0, max_packets=4, horizon_ns=0)
        assert isinstance(lease, FlowLease)
        assert [p.metadata["arrival_index"] for _s, p in lease.packets] == [0, 1, 2, 3]
        assert lease.flow_ids == (7,)
        assert worker.loaned_flows() == {7: 1}
        assert worker.flows_on_loan == 1
        assert worker.backlog == 2
        assert worker.steal.leases_granted == 1
        assert worker.steal.packets_lent == 4

    def test_single_outstanding_lease_per_donor(self):
        worker = self._loaded_worker(6)
        assert worker.grant_lease(1, 1, 0, 2, 0) is not None
        assert worker.grant_lease(2, 1, 0, 2, 0) is None

    def test_nothing_stealable_returns_none(self):
        worker = ShardWorker(0)
        assert worker.grant_lease(1, 1, 0, 8, 0) is None
        paced = self._loaded_worker(2, rate=1e6)  # 12 ms spacing
        paced.drain_due(0)  # release the head; the next stamp is 12 ms out
        assert paced.grant_lease(1, 1, now_ns=0, max_packets=8, horizon_ns=10_000) is None

    def test_drain_defers_on_loan_flow_until_lease_ends(self):
        worker = self._loaded_worker(6)
        lease = worker.grant_lease(1, 1, 0, 3, 0)
        # The flow's remaining due packets must not overtake the lease.
        assert worker.drain_due(now_ns=0) == []
        assert worker.steal.drains_deferred == 3
        assert worker.pending == 3
        flushed = worker.end_lease(lease, now_ns=0)
        assert [p.metadata["arrival_index"] for p in flushed] == [3, 4, 5]
        assert worker.pending == 0
        assert worker.loaned_flows() == {}
        assert worker.steal.leases_returned == 1

    def test_ingest_defers_arrivals_and_shaper_travels(self):
        worker = self._loaded_worker(4, rate=RATE_BPS)
        assert 7 in worker.pacing
        lease = worker.grant_lease(1, 1, now_ns=0, max_packets=8, horizon_ns=10_000)
        assert lease is not None
        # The pacing state left with the lease.
        assert 7 not in worker.pacing
        assert 7 in lease.shapers
        # New arrivals must wait for the shaper to come home before stamping.
        worker.mailbox.push_batch(_packets([7] * 2))
        assert worker.ingest(now_ns=5_000) == 0
        assert worker.steal.ingests_deferred == 2
        assert worker.pending == 2
        next_free_before = lease.shapers[7].next_free_ns
        worker.end_lease(lease, now_ns=5_000)
        # Shaper back home; deferred arrivals stamped with the pacing chain
        # carried on from where the lease left it.
        assert 7 in worker.pacing
        assert worker.backlog == 2
        assert worker.pacing.next_free_ns(7) >= next_free_before
        send_ats = [send_at for send_at, _p in [worker.queue.peek_min()]]
        assert send_ats[0] >= next_free_before

    def test_unpaced_flow_grants_without_shaper(self):
        worker = self._loaded_worker(3)
        lease = worker.grant_lease(1, 1, 0, 8, 0)
        assert lease.shapers == {}
        worker.end_lease(lease, 0)
        assert worker.loaned_flows() == {}


class TestAcceptorSide:
    def test_accept_splices_with_preserved_stamps_and_charges_cycles(self):
        victim = ShardWorker(0, default_rate_bps=RATE_BPS)
        victim.mailbox.push_batch(_packets([3] * 8))
        victim.ingest(now_ns=0)
        lease = victim.grant_lease(1, 1, now_ns=0, max_packets=8, horizon_ns=100_000)
        stamps = [send_at for send_at, _p in lease.packets]
        thief = ShardWorker(1)
        before = thief.cost.total_cycles
        assert thief.accept_lease(lease, now_ns=0) == len(lease.packets)
        assert thief.cost.total_cycles > before
        assert thief.steal.cycles_stolen == pytest.approx(thief.cost.total_cycles - before)
        assert thief.steal.packets_stolen == len(lease.packets)
        assert thief.backlog == len(lease.packets)
        assert thief.leases_held == 1
        # Release order and times follow the victim's stamps exactly.
        released = thief.drain_due(now_ns=stamps[-1])
        assert [p.metadata["arrival_index"] for p in released] == list(range(len(stamps)))
        assert all(p.metadata["stolen_from"] == 0 for p in released)
        thief.finish_held_lease()
        assert thief.leases_held == 0

    def test_cycles_stolen_counts_only_the_splice_on_a_thief_with_history(self):
        # A thief that already spent cycles and still holds a backlog of its
        # own: cycles_stolen is the cost of this splice alone (a fresh
        # thief's zero cycles and empty queue cannot tell the difference).
        victim = ShardWorker(0, default_rate_bps=RATE_BPS)
        victim.mailbox.push_batch(_packets([3] * 8))
        victim.ingest(now_ns=0)
        lease = victim.grant_lease(1, 1, now_ns=0, max_packets=8, horizon_ns=100_000)
        thief = ShardWorker(1, default_rate_bps=RATE_BPS)
        thief.mailbox.push_batch(_packets([5] * 6))
        thief.tick(now_ns=0, ingest_limit=None, drain_limit=2)
        backlog, before = thief.backlog, thief.cost.total_cycles
        assert backlog > 0 and before > 0
        thief.accept_lease(lease, now_ns=0)
        assert thief.steal.cycles_stolen == thief.cost.total_cycles - before
        assert thief.backlog == backlog + len(lease.packets)

    def test_holder_cannot_donate(self):
        victim = ShardWorker(0)
        victim.mailbox.push_batch(_packets([3] * 4))
        victim.ingest(now_ns=0)
        lease = victim.grant_lease(1, 1, 0, 2, 0)
        thief = ShardWorker(1)
        thief.accept_lease(lease, now_ns=0)
        # The thief's queue holds another shard's packets: no re-lending.
        assert thief.grant_lease(2, 2, 0, 2, 0) is None


class TestSharderOwnershipView:
    def test_lend_restore_and_lookup(self):
        sharder = FlowSharder(4)
        sharder.lend(9, 2)
        assert sharder.loan_shard(9) == 2
        assert sharder.loaned_flows() == {9: 2}
        assert sharder.stats.loans == 1
        sharder.restore(9)
        assert sharder.loan_shard(9) is None

    def test_lend_validates_shard(self):
        with pytest.raises(ValueError):
            FlowSharder(2).lend(1, 5)

    def test_rebalancer_skips_on_loan_flows(self):
        sharder = FlowSharder(2)
        for flow, shard in ((1, 0), (2, 0), (3, 1)):
            sharder.pin(flow, shard)
        sharder.record(1, 0, packets=60)
        sharder.record(2, 0, packets=40)
        sharder.record(3, 1, packets=10)
        # Without loans flow 2 would migrate (see test_sharding.py); with its
        # due window out on lease it must stay put.
        sharder.lend(2, 0)
        plan = ShardRebalancer(sharder, imbalance_threshold=1.1).plan()
        assert all(migration.flow_id != 2 for migration in plan)


def _elephant_runtime(**kwargs):
    """Two shards; flow 5 pinned to shard 0 so shard 1 is a pure thief."""
    sharder = FlowSharder(2)
    sharder.pin(5, 0)
    defaults = dict(
        sharder=sharder,
        default_rate_bps=RATE_BPS,
        quantum_ns=QUANTUM_NS,
        steal_enabled=True,
        steal_min_backlog=1,
    )
    defaults.update(kwargs)
    return ShardedRuntime(2, **defaults)


class TestRuntimeStealing:
    def test_idle_shard_steals_and_fifo_holds(self):
        runtime = _elephant_runtime()
        runtime.submit_batch(_packets([5] * 40))
        runtime.run()
        telemetry = runtime.telemetry()
        assert telemetry.transmitted == 40
        assert telemetry.steals_succeeded > 0
        assert telemetry.packets_stolen > 0
        assert telemetry.steal_cycles > 0
        # The thief actually transmitted part of the elephant flow.
        assert runtime.workers[1].stats.transmitted > 0
        assert runtime.workers[1].steal.packets_stolen > 0
        sequences = _flow_sequences(runtime.transmit_log)
        assert sequences[5] == list(range(40))

    def test_stolen_packets_keep_pacing(self):
        runtime = _elephant_runtime()
        runtime.submit_batch(_packets([5] * 30))
        runtime.run()
        assert runtime.telemetry().packets_stolen > 0
        times = [now for now, _packet in runtime.transmit_log]
        spacing_ns = int(1500 * 8 / RATE_BPS * 1e9)
        for earlier, later in zip(times, times[1:]):
            # Quantum quantisation may delay a release but stealing must
            # never let the flow beat its configured rate.
            assert later - earlier >= spacing_ns - QUANTUM_NS

    def test_lease_returns_and_state_comes_home(self):
        runtime = _elephant_runtime()
        runtime.submit_batch(_packets([5] * 24))
        runtime.run()
        victim, thief = runtime.workers
        assert victim.flows_on_loan == 0
        assert thief.leases_held == 0
        assert runtime.residual_state()["open_leases"] == 0
        assert runtime.sharder.loaned_flows() == {}
        assert victim.steal.leases_granted == thief.steal.leases_received
        assert victim.steal.leases_returned == victim.steal.leases_granted
        assert victim.steal.packets_lent == thief.steal.packets_stolen

    def test_steal_disabled_means_no_steals(self):
        runtime = _elephant_runtime(steal_enabled=False)
        assert runtime._stealer is None  # unarmed: no stealing plane at all
        runtime.submit_batch(_packets([5] * 40))
        runtime.run()
        telemetry = runtime.telemetry()
        assert telemetry.steals_attempted == 0
        assert telemetry.steals_succeeded == 0
        assert runtime.workers[1].stats.transmitted == 0

    def test_single_shard_never_steals(self):
        runtime = ShardedRuntime(
            1, default_rate_bps=RATE_BPS, quantum_ns=QUANTUM_NS,
            steal_enabled=True, steal_min_backlog=1,
        )
        assert runtime._stealer is None  # one shard: stealing can never fire
        runtime.submit_batch(_packets([1, 2, 3] * 10))
        runtime.run()
        assert runtime.transmitted == 30
        assert runtime.telemetry().steals_attempted == 0

    def test_stale_request_dropped_when_thief_finds_work(self):
        runtime = _elephant_runtime()
        runtime.submit_batch(_packets([5] * 20))
        # Run both time-zero wake ticks: the victim's ingest, then the idle
        # thief's tick, which parks a request.  The thief then receives its
        # own traffic before the victim reaches its next grant point.
        runtime.run(max_events=2)
        assert len(runtime._stealer.channels[0]) == 1
        runtime.sharder.pin(9, 1)
        runtime.submit_batch(_packets([9] * 4))
        runtime.run()
        assert runtime.transmitted == 24
        assert runtime.workers[1].steal.requests_stale > 0
        sequences = _flow_sequences(runtime.transmit_log)
        assert sequences[5] == list(range(20))
        assert sequences[9] == list(range(4))

    def test_busy_shards_do_not_volunteer(self):
        # Both shards loaded: nobody is empty, so nobody steals.
        sharder = FlowSharder(2)
        sharder.pin(5, 0)
        sharder.pin(9, 1)
        runtime = ShardedRuntime(
            2, sharder=sharder, default_rate_bps=RATE_BPS, quantum_ns=QUANTUM_NS,
            steal_enabled=True, steal_min_backlog=1,
        )
        runtime.submit_batch(_packets([5, 9] * 20))
        runtime.run()
        assert runtime.transmitted == 40
        assert runtime.telemetry().steals_succeeded == 0

    def test_leases_honour_the_configured_batch(self):
        runtime = _elephant_runtime(steal_batch=4)
        runtime.submit_batch(_packets([5] * 40))
        runtime.run()
        victim = runtime.workers[0]
        assert victim.steal.leases_granted > 1
        assert 0 < victim.steal.packets_lent <= 4 * victim.steal.leases_granted
        assert _flow_sequences(runtime.transmit_log)[5] == list(range(40))

    def test_telemetry_dict_includes_steal_counters(self):
        runtime = _elephant_runtime()
        runtime.submit_batch(_packets([5] * 40))
        runtime.run()
        payload = runtime.telemetry().as_dict()
        assert payload["packets_stolen"] > 0
        assert payload["steals_succeeded"] > 0
        assert "steals" in payload["shards"][0]
        assert payload["shards"][1]["steals"]["packets_stolen"] > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardedRuntime(2, steal_batch=0)
        with pytest.raises(ValueError):
            ShardedRuntime(2, steal_horizon_ns=-1)
        with pytest.raises(ValueError):
            ShardedRuntime(2, steal_min_backlog=0)


class TestStealDifferential:
    """Stealing may move packets across shards and shift release times, but
    per-flow delivery sequences must be byte-for-byte identical to the
    steal-off run."""

    NUM_PACKETS = 2_000
    NUM_FLOWS = 64
    BURST = 128

    def _drive(self, steal: bool, num_shards: int = 8):
        runtime = ShardedRuntime(
            num_shards,
            default_rate_bps=RATE_BPS,
            quantum_ns=QUANTUM_NS,
            rebalance_interval_ns=16 * QUANTUM_NS,
            steal_enabled=steal,
            steal_min_backlog=1,
        )
        rng = random.Random(20_190_226)
        flow_ids = ZipfFlowSampler(self.NUM_FLOWS, skew=1.2, rng=rng).sample_flows(
            self.NUM_PACKETS
        )
        packets = _packets(flow_ids)
        quanta_per_burst = self.BURST // 16
        for index in range(0, self.NUM_PACKETS, self.BURST):
            chunk = packets[index : index + self.BURST]
            when_ns = (index // self.BURST) * quanta_per_burst * QUANTUM_NS

            def offer(chunk=chunk):
                runtime.submit_batch(chunk)

            runtime.simulator.schedule_at(when_ns, offer)
        runtime.run()
        assert runtime.transmitted == self.NUM_PACKETS
        return runtime

    def test_eight_shard_zipf_sequences_identical(self):
        baseline = self._drive(steal=False)
        stolen = self._drive(steal=True)
        # The comparison is only meaningful if stealing actually happened.
        assert stolen.telemetry().packets_stolen > 0
        assert _flow_sequences(stolen.transmit_log) == _flow_sequences(
            baseline.transmit_log
        )

    def test_stolen_run_spreads_residency(self):
        stolen = self._drive(steal=True)
        shards = {
            packet.metadata["shard"] for _now, packet in stolen.transmit_log
        }
        stolen_from = {
            packet.metadata.get("stolen_from")
            for _now, packet in stolen.transmit_log
        } - {None}
        assert stolen_from, "no packet records a steal"
        assert len(shards) > 1
