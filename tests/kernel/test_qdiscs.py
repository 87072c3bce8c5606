"""Unit tests for the three qdiscs and the timer subsystem."""

import pytest

from repro.core.model import Packet
from repro.kernel import CarouselQdisc, EiffelQdisc, FQPacingQdisc, HrTimer

NS_PER_MS = 1_000_000

ALL_QDISCS = [FQPacingQdisc, CarouselQdisc, EiffelQdisc]


class TestHrTimer:
    def test_program_and_fire(self):
        timer = HrTimer()
        timer.program(100)
        assert timer.armed
        assert not timer.due(50)
        assert timer.due(100)
        assert timer.fire() == 100
        assert not timer.armed
        assert timer.programs == 1
        assert timer.fires == 1

    def test_granularity_rounds_up(self):
        timer = HrTimer(granularity_ns=100)
        timer.program(101)
        assert timer.expiry_ns == 200

    def test_cancel(self):
        timer = HrTimer()
        timer.program(10)
        timer.cancel()
        assert not timer.armed
        assert timer.cancellations == 1

    def test_fire_disarmed_raises(self):
        with pytest.raises(RuntimeError):
            HrTimer().fire()

    def test_invalid_granularity(self):
        with pytest.raises(ValueError):
            HrTimer(granularity_ns=0)


def paced_qdisc(qdisc_cls, rate_bps=12e6):
    qdisc = qdisc_cls()
    qdisc.set_flow_rate(1, rate_bps)
    return qdisc


@pytest.mark.parametrize("qdisc_cls", ALL_QDISCS)
class TestQdiscShaping:
    def test_unpaced_packet_released_immediately(self, qdisc_cls):
        qdisc = qdisc_cls()
        qdisc.enqueue_packet(Packet(flow_id=5), now_ns=0)
        released = qdisc.dequeue_due(now_ns=0)
        assert len(released) == 1

    def test_paced_flow_spacing(self, qdisc_cls):
        # 12 Mbps, 1500 B packets -> 1 ms spacing.
        qdisc = paced_qdisc(qdisc_cls)
        for _ in range(4):
            qdisc.enqueue_packet(Packet(flow_id=1, size_bytes=1500), now_ns=0)
        first = qdisc.dequeue_due(now_ns=0)
        assert len(first) == 1
        nothing_yet = qdisc.dequeue_due(now_ns=NS_PER_MS // 2)
        assert nothing_yet == []
        second = qdisc.dequeue_due(now_ns=NS_PER_MS + NS_PER_MS // 4)
        assert len(second) == 1
        rest = qdisc.dequeue_due(now_ns=10 * NS_PER_MS)
        assert len(rest) == 2

    def test_soonest_deadline_none_when_idle(self, qdisc_cls):
        qdisc = qdisc_cls()
        assert qdisc.soonest_deadline_ns(now_ns=0) is None

    def test_soonest_deadline_when_busy(self, qdisc_cls):
        qdisc = paced_qdisc(qdisc_cls)
        qdisc.enqueue_packet(Packet(flow_id=1, size_bytes=1500), now_ns=0)
        qdisc.dequeue_due(now_ns=0)
        qdisc.enqueue_packet(Packet(flow_id=1, size_bytes=1500), now_ns=0)
        deadline = qdisc.soonest_deadline_ns(now_ns=0)
        assert deadline is not None
        assert deadline > 0

    def test_backlog_tracking(self, qdisc_cls):
        qdisc = paced_qdisc(qdisc_cls)
        for _ in range(3):
            qdisc.enqueue_packet(Packet(flow_id=1, size_bytes=1500), now_ns=0)
        assert qdisc.backlog == 3
        qdisc.dequeue_due(now_ns=0)
        assert qdisc.backlog == 2

    def test_costs_are_charged(self, qdisc_cls):
        qdisc = paced_qdisc(qdisc_cls)
        for _ in range(10):
            qdisc.enqueue_packet(Packet(flow_id=1, size_bytes=1500), now_ns=0)
        qdisc.dequeue_due(now_ns=100 * NS_PER_MS)
        assert qdisc.system_cost.total_cycles > 0
        assert qdisc.total_cycles() >= qdisc.system_cost.total_cycles

    def test_aggregate_rate_adherence(self, qdisc_cls):
        # 100 packets of 1500 B at 120 Mbps should take ~10 ms to drain.
        qdisc = paced_qdisc(qdisc_cls, rate_bps=120e6)
        for _ in range(100):
            qdisc.enqueue_packet(Packet(flow_id=1, size_bytes=1500), now_ns=0)
        released_early = qdisc.dequeue_due(now_ns=5 * NS_PER_MS)
        released_late = qdisc.dequeue_due(now_ns=11 * NS_PER_MS)
        assert 40 <= len(released_early) <= 60
        assert len(released_early) + len(released_late) == 100


class TestFQPacingSpecifics:
    def test_garbage_collection_reclaims_idle_flows(self):
        qdisc = FQPacingQdisc(gc_interval_packets=10, gc_idle_ns=1000)
        for flow in range(5):
            qdisc.enqueue_packet(Packet(flow_id=flow), now_ns=0)
        qdisc.dequeue_due(now_ns=0)
        assert qdisc.active_flows == 5
        # Much later, new traffic triggers GC and the idle flows disappear.
        for _ in range(12):
            qdisc.enqueue_packet(Packet(flow_id=100), now_ns=10_000_000)
        assert qdisc.active_flows <= 2

    def test_per_flow_isolation(self):
        qdisc = FQPacingQdisc()
        qdisc.set_flow_rate(1, 1e6)
        qdisc.set_flow_rate(2, 1e9)
        for _ in range(3):
            qdisc.enqueue_packet(Packet(flow_id=1, size_bytes=1500), now_ns=0)
            qdisc.enqueue_packet(Packet(flow_id=2, size_bytes=1500), now_ns=0)
        released = qdisc.dequeue_due(now_ns=100_000)
        fast = sum(1 for p in released if p.flow_id == 2)
        slow = sum(1 for p in released if p.flow_id == 1)
        assert fast == 3
        assert slow <= 1


class TestCarouselSpecifics:
    def test_polls_every_slot(self):
        qdisc = CarouselQdisc(slot_ns=1_000)
        qdisc.set_flow_rate(1, 12e6)
        qdisc.enqueue_packet(Packet(flow_id=1, size_bytes=1500), now_ns=0)
        # The next run is one slot away, not the actual packet deadline.
        assert qdisc.soonest_deadline_ns(now_ns=0) == 1_000

    def test_slot_scan_cost_charged(self):
        qdisc = CarouselQdisc(slot_ns=1_000, horizon_ns=1_000_000)
        qdisc.set_flow_rate(1, 1e6)
        qdisc.enqueue_packet(Packet(flow_id=1, size_bytes=1500), now_ns=0)
        qdisc.dequeue_due(now_ns=500_000)
        assert qdisc.softirq_cost.breakdown().get("linear_scan", 0) > 0


class TestEiffelSpecifics:
    def test_exact_deadline(self):
        qdisc = EiffelQdisc()
        qdisc.set_flow_rate(1, 12e6)
        qdisc.enqueue_packet(Packet(flow_id=1, size_bytes=1500), now_ns=0)
        qdisc.dequeue_due(now_ns=0)
        qdisc.enqueue_packet(Packet(flow_id=1, size_bytes=1500), now_ns=0)
        deadline = qdisc.soonest_deadline_ns(now_ns=0)
        assert deadline == pytest.approx(1_000_000, rel=0.01)

    def test_ffs_cost_charged_not_heap(self):
        qdisc = EiffelQdisc()
        qdisc.set_flow_rate(1, 100e6)
        for _ in range(20):
            qdisc.enqueue_packet(Packet(flow_id=1, size_bytes=1500), now_ns=0)
        qdisc.dequeue_due(now_ns=10 * NS_PER_MS)
        breakdown = {
            **qdisc.system_cost.breakdown(),
            **qdisc.softirq_cost.breakdown(),
        }
        assert breakdown.get("ffs_word", 0) > 0


class TestMultiQueueQdisc:
    def _mq(self, num_shards=4, rate_bps=1e9):
        from repro.runtime import MultiQueueQdisc

        return MultiQueueQdisc(
            num_shards,
            lambda shard: EiffelQdisc(default_rate_bps=rate_bps),
        )

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError, match="num_shards"):
            self._mq(num_shards=0)

    def test_hashes_packets_to_children(self):
        mq = self._mq()
        for flow in range(64):
            mq.enqueue_packet(Packet(flow_id=flow % 16, size_bytes=1500), now_ns=0)
        assert mq.backlog == 64
        backlogs = [child.backlog for child in mq.children]
        assert sum(backlogs) == 64
        assert sum(1 for backlog in backlogs if backlog) > 1

    def test_same_flow_same_child(self):
        mq = self._mq()
        for _ in range(8):
            mq.enqueue_packet(Packet(flow_id=3, size_bytes=1500), now_ns=0)
        occupied = [child.backlog for child in mq.children]
        assert occupied.count(0) == len(mq.children) - 1

    def test_dequeue_due_drains_all_children(self):
        mq = self._mq()
        for flow in range(32):
            mq.enqueue_packet(Packet(flow_id=flow, size_bytes=1500), now_ns=0)
        released = mq.dequeue_due(1_000_000_000)
        assert len(released) == 32
        assert mq.backlog == 0
        assert mq.stats.dequeued == 32

    def test_budget_is_shared_across_children(self):
        mq = self._mq()
        for flow in range(32):
            mq.enqueue_packet(Packet(flow_id=flow, size_bytes=1500), now_ns=0)
        released = mq.dequeue_due(1_000_000_000, budget=10)
        assert len(released) == 10
        assert mq.backlog == 22

    def test_soonest_deadline_is_min_over_children(self):
        mq = self._mq()
        assert mq.soonest_deadline_ns(0) is None
        mq.enqueue_packet(Packet(flow_id=1, size_bytes=1500), now_ns=0)
        mq.enqueue_packet(Packet(flow_id=2, size_bytes=1500), now_ns=0)
        deadline = mq.soonest_deadline_ns(0)
        children = [
            child.soonest_deadline_ns(0)
            for child in mq.children
            if child.backlog
        ]
        assert deadline == min(children)

    def test_per_flow_fifo_through_mq(self):
        mq = self._mq()
        packets = [Packet(flow_id=flow % 6, size_bytes=1500) for flow in range(48)]
        for packet in packets:
            mq.enqueue_packet(packet, now_ns=0)
        released = mq.dequeue_due(10_000_000_000)
        per_flow = {}
        for packet in released:
            per_flow.setdefault(packet.flow_id, []).append(packet.packet_id)
        for flow, ids in per_flow.items():
            assert ids == sorted(ids), f"flow {flow} reordered"

    def test_cycle_accounting_views(self):
        mq = self._mq()
        for flow in range(32):
            mq.enqueue_packet(Packet(flow_id=flow, size_bytes=1500), now_ns=0)
        mq.dequeue_due(1_000_000_000)
        total = mq.total_cycles()
        bottleneck = mq.max_child_cycles()
        assert total > 0
        assert 0 < bottleneck < total
        # The root's accounts mirror every child delta, so the root view
        # equals the sum of the children's own accounts.
        assert total == pytest.approx(
            sum(child.total_cycles() for child in mq.children)
        )
        mq.reset_costs()
        assert mq.total_cycles() == 0

    # A skewed mq root: every flow pinned to child 0, child 1 left idle.
    SKEW_FLOWS = 4
    SKEW_PACKETS_PER_FLOW = 8

    def _skewed_mq(self):
        from repro.runtime import MultiQueueQdisc

        mq = MultiQueueQdisc(2, lambda shard: EiffelQdisc(default_rate_bps=1e9))
        for flow in range(self.SKEW_FLOWS):
            mq.sharder.pin(flow, 0)
        return mq

    def _skewed_packets(self):
        return [
            Packet(flow_id=flow, size_bytes=1500)
            for _ in range(self.SKEW_PACKETS_PER_FLOW)
            for flow in range(self.SKEW_FLOWS)
        ]

    @staticmethod
    def _drive_to_drain(mq):
        """Timer-driven release loop: fire at each soonest deadline until empty."""
        released = []
        now = 0
        for _ in range(10_000):
            released.extend(mq.dequeue_due(now))
            if mq.backlog == 0:
                break
            deadline = mq.soonest_deadline_ns(now)
            assert deadline is not None
            now = max(deadline, now + 1)
        assert mq.backlog == 0, "drive loop failed to drain the mq root"
        return released

    @staticmethod
    def _stamps_by_flow(released):
        per_flow = {}
        for packet in released:
            per_flow.setdefault(packet.flow_id, []).append(
                packet.metadata["send_at_ns"]
            )
        return per_flow

    def test_timer_driven_drain_conserves_packets(self):
        mq = self._skewed_mq()
        packets = self._skewed_packets()
        for packet in packets:
            mq.enqueue_packet(packet, now_ns=0)
        assert mq.children[0].backlog == len(packets)
        released = self._drive_to_drain(mq)
        assert sorted(p.packet_id for p in released) == sorted(
            p.packet_id for p in packets
        )

    def test_timer_driven_release_order_follows_stamps(self):
        mq = self._skewed_mq()
        for packet in self._skewed_packets():
            mq.enqueue_packet(packet, now_ns=0)
        released = self._drive_to_drain(mq)
        for flow, stamps in self._stamps_by_flow(released).items():
            assert stamps == sorted(stamps), f"flow {flow} released out of order"

    def test_coalesced_fire_keeps_per_flow_stamp_order(self):
        """A late timer that coalesces many deadlines into one ``dequeue_due``
        drains every child in one call; each flow still leaves in stamp order."""
        mq = self._mq(num_shards=2)
        for _ in range(4):
            for flow in range(16):
                mq.enqueue_packet(Packet(flow_id=flow, size_bytes=1500), now_ns=0)
        assert all(child.backlog for child in mq.children)
        released = mq.dequeue_due(0)
        released += mq.dequeue_due(12_000)
        released += mq.dequeue_due(10_000_000)
        assert mq.backlog == 0
        for flow, stamps in self._stamps_by_flow(released).items():
            assert stamps == sorted(stamps), (
                f"flow {flow} reordered under a coalesced fire: {stamps}"
            )

    def test_idle_child_is_never_touched(self):
        mq = self._skewed_mq()
        for packet in self._skewed_packets():
            mq.enqueue_packet(packet, now_ns=0)
        self._drive_to_drain(mq)
        assert mq.children[0].total_cycles() > 0
        assert mq.children[1].total_cycles() == 0

    def test_timer_driven_cost_mirroring_is_exact(self):
        mq = self._skewed_mq()
        for packet in self._skewed_packets():
            mq.enqueue_packet(packet, now_ns=0)
        self._drive_to_drain(mq)
        assert mq.total_cycles() == pytest.approx(
            sum(child.total_cycles() for child in mq.children)
        )

    def test_runs_under_kernel_simulation(self):
        from repro.kernel import KernelSimulation

        mq = self._mq(num_shards=2, rate_bps=40e6)
        simulation = KernelSimulation(mq, tsq_limit=2)
        sample = simulation.run_closed_loop_interval(
            flow_ids=list(range(8)), start_ns=0, duration_ns=2_000_000
        )
        assert simulation.transmitted > 0
        assert sample.total_cycles > 0
        # The interval sample must include the children's per-core work, not
        # just the mq root's driver charges.
        assert sample.total_cycles == pytest.approx(mq.total_cycles())
        assert sample.total_cycles > mq.max_child_cycles()
