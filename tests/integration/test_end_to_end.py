"""Cross-module integration tests.

These exercise the seams between the packages: compiled policies running on
different backing queues, policies driven through the kernel and BESS
substrates, and the parser-to-scheduler round trip.
"""

import pytest

from repro.core.model import Packet, compile_policy, parse_policy
from repro.core.policies import (
    EiffelPFabricScheduler,
    StartTimeFairQueueingScheduler,
    TimestampPacingScheduler,
)
from repro.core.queues import (
    BucketSpec,
    BucketedHeapQueue,
    CircularApproximateGradientQueue,
    CircularFFSQueue,
)


FIGURE7_TEXT = """
# The Figure 7 hierarchy
root wfq
root -> left   [weight=0.3]
root -> right  [weight=0.7] [rate=10e6] wfq
right -> right_a [weight=0.5]
right -> right_b [weight=0.5] [rate=7e6]
pacing 20e6
"""


class TestParsedPolicyEndToEnd:
    def test_parse_compile_run(self):
        spec = parse_policy(FIGURE7_TEXT, name="figure7")
        spec.flow_to_leaf = {1: "left", 2: "right_a", 3: "right_b"}
        scheduler = compile_policy(spec)
        packets = [
            Packet(flow_id=1 + (i % 3), size_bytes=1500) for i in range(30)
        ]
        for packet in packets:
            scheduler.enqueue(packet, now_ns=0)
        drained = scheduler.dequeue_all_due(now_ns=60_000_000)  # 60 ms
        later = scheduler.dequeue_all_due(now_ns=1_000_000_000)
        assert len(drained) + len(later) == 30
        # The unshaped leaf empties first; the 7 Mbps leaf is the slowest.
        assert any(p.flow_id == 1 for p in drained)


class TestQueueSwapping:
    """Eiffel's point: the same policy runs on any integer queue backend."""

    BACKENDS = {
        "cffs": lambda spec: CircularFFSQueue(spec),
        "bucketed_heap": lambda spec: BucketedHeapQueue(
            BucketSpec(
                num_buckets=spec.num_buckets * 2,
                granularity=spec.granularity,
                base_priority=spec.base_priority,
            )
        ),
    }

    @pytest.mark.parametrize("backend", list(BACKENDS))
    def test_pfabric_behaviour_independent_of_backend(self, backend):
        scheduler = EiffelPFabricScheduler(
            max_remaining=4096,
            buckets=4096,
            queue_factory=self.BACKENDS[backend],
        )
        scheduler.enqueue(Packet(flow_id=1).annotate(remaining_packets=500))
        scheduler.enqueue(Packet(flow_id=2).annotate(remaining_packets=5))
        scheduler.enqueue(Packet(flow_id=3).annotate(remaining_packets=50))
        order = [scheduler.dequeue().flow_id for _ in range(3)]
        assert order == [2, 3, 1]

    def test_pacing_on_approximate_queue(self):
        scheduler = TimestampPacingScheduler(
            horizon_ns=100_000_000,
            num_buckets=400,
            queue_factory=lambda spec: CircularApproximateGradientQueue(
                spec, alpha=16
            ),
        )
        scheduler.set_flow_rate(1, 12e6)  # 1 ms per 1500 B packet
        for _ in range(10):
            scheduler.enqueue(Packet(flow_id=1, size_bytes=1500), now_ns=0)
        released_early = scheduler.dequeue_due(now_ns=2_500_000)
        released_late = scheduler.dequeue_due(now_ns=50_000_000)
        assert 2 <= len(released_early) <= 4
        assert len(released_early) + len(released_late) == 10


class TestSubstrateIntegration:
    def test_sfq_policy_inside_bess_pipeline(self):
        from repro.bess import Pipeline, Sink, Source
        from repro.bess.scheduler_modules import SchedulerModule
        from repro.traffic import RoundRobinAnnotator, SyntheticPacketGenerator

        generator = SyntheticPacketGenerator(
            packet_bytes=1500, batch_size=16, annotator=RoundRobinAnnotator(8)
        )
        module = SchedulerModule(StartTimeFairQueueingScheduler())
        pipeline = Pipeline([Source(generator), module, Sink()])
        report = pipeline.run(batches=20)
        assert report.packets > 0
        per_flow = {}
        sink = pipeline.modules[-1]
        assert sink.packets == report.packets

    def test_feature_matrix_consistent_with_netsim_queues(self):
        # Carousel's row says non-work-conserving only: the timing wheel holds
        # a packet until its slot even if the link is idle.  The pFabric port
        # (work-conserving) releases immediately.
        from repro.core.queues import TimingWheel
        from repro.netsim import PFabricPortQueue

        wheel = TimingWheel(num_slots=100, granularity=1000)
        wheel.insert(50_000, "future")
        assert wheel.advance_to(1_000) == []
        port = PFabricPortQueue()
        port.enqueue(Packet(flow_id=1).annotate(remaining_bytes=1000))
        assert port.dequeue() is not None
