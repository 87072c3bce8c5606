"""Differential equivalence of the execution backends.

The backend refactor's load-bearing claim: for any statically decomposable
configuration, the process backend (per-shard replay on private virtual
clocks) produces **bit-identical modelled results** to the simulated backend
(all shards multiplexed on one clock).  These tests drive the same timed
workload through both and compare everything observable — per-flow packet
sequences, departure timestamps, cycle accounts, queue/mailbox counters.

The process backend forks real OS processes per example, so the Hypothesis
examples are few and small; the fixed multi-shard cases carry the breadth.
"""

import copy

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.model.packet import Packet
from repro.core.queues import BucketSpec, HierarchicalFFSQueue
from repro.runtime import ShardedRuntime

RATE_BPS = 10e9
QUANTUM_NS = 10_000


def _run_workload(backend, bursts, num_shards, **kwargs):
    """Drive one timed workload on a fresh runtime; return its observables."""
    runtime = ShardedRuntime(
        num_shards,
        default_rate_bps=RATE_BPS,
        quantum_ns=QUANTUM_NS,
        gc_interval_packets=None,  # keep the simulated run decomposable too
        backend=backend,
        **kwargs,
    )
    for when_ns, packets in bursts:
        runtime.submit_at(when_ns, [copy.deepcopy(packet) for packet in packets])
    runtime.run()
    telemetry = runtime.telemetry()
    flows = {}
    for departure_ns, packet in runtime.transmit_log:
        flows.setdefault(packet.flow_id, []).append(
            (packet.packet_id, packet.arrival_ns, departure_ns)
        )
    return {
        "flows": flows,
        "transmitted": telemetry.transmitted,
        "total_cycles": telemetry.total_cycles,
        "bottleneck_cycles": telemetry.bottleneck_cycles,
        "queue_stats": telemetry.queue_stats.as_dict(),
        "shards": [shard.as_dict() for shard in telemetry.shards],
        "drops": runtime.ingress_drops,
    }


def _assert_equivalent(reference, candidate):
    assert candidate["flows"] == reference["flows"]
    for key in (
        "transmitted",
        "total_cycles",
        "bottleneck_cycles",
        "queue_stats",
        "shards",
        "drops",
    ):
        assert candidate[key] == reference[key], f"{key} diverged"


def _burst_workload(num_bursts, burst_size, num_flows, gap_ns):
    bursts = []
    when_ns = 0
    for burst in range(num_bursts):
        packets = [
            Packet(flow_id=(burst * burst_size + i) % num_flows, size_bytes=1500)
            for i in range(burst_size)
        ]
        bursts.append((when_ns, packets))
        when_ns += gap_ns
    return bursts


class TestFixedDifferential:
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 4])
    def test_process_matches_simulated_at_every_shard_count(self, num_shards):
        bursts = _burst_workload(
            num_bursts=30, burst_size=64, num_flows=37, gap_ns=7_000
        )
        reference = _run_workload("simulated", bursts, num_shards=num_shards)
        assert reference["transmitted"] == 30 * 64
        _assert_equivalent(
            reference, _run_workload("process", bursts, num_shards=num_shards)
        )

    def test_equal_timestamp_ties_preserved(self):
        # Several bursts at the *same* instant, interleaved with bursts one
        # quantum apart: the arrival-beats-tick tie rule and the submission
        # order at equal instants must survive per-shard replay.
        bursts = []
        for when_ns in (0, 0, 0, QUANTUM_NS, QUANTUM_NS, 3 * QUANTUM_NS):
            bursts.append(
                (when_ns, [Packet(flow_id=i % 11, size_bytes=700) for i in range(32)])
            )
        reference = _run_workload("simulated", bursts, num_shards=3)
        _assert_equivalent(reference, _run_workload("process", bursts, num_shards=3))

    def test_bounded_mailbox_drops_identically(self):
        bursts = _burst_workload(num_bursts=6, burst_size=48, num_flows=5, gap_ns=2_000)
        kwargs = dict(mailbox_capacity=16, ingest_per_quantum=8)
        reference = _run_workload("simulated", bursts, num_shards=2, **kwargs)
        assert reference["drops"] > 0  # the workload genuinely overflows
        _assert_equivalent(
            reference, _run_workload("process", bursts, num_shards=2, **kwargs)
        )

    def test_alternate_queue_and_per_flow_rates(self):
        # A non-default queue factory (closure — inherited by fork, never
        # pickled) and heterogeneous pacing rates cross the seam intact.
        def factory(spec):
            return HierarchicalFFSQueue(
                BucketSpec(num_buckets=spec.num_buckets, granularity=spec.granularity)
            )

        kwargs = dict(
            queue_factory=factory,
            flow_rates={flow: (1 + flow % 3) * 2.5e9 for flow in range(17)},
        )
        bursts = _burst_workload(num_bursts=12, burst_size=32, num_flows=17, gap_ns=5_000)
        reference = _run_workload("simulated", bursts, num_shards=2, **kwargs)
        _assert_equivalent(
            reference, _run_workload("process", bursts, num_shards=2, **kwargs)
        )


class TestHypothesisDifferential:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        bursts=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=200_000),
                st.lists(
                    st.tuples(
                        st.integers(min_value=0, max_value=12),  # flow_id
                        st.integers(min_value=64, max_value=9000),  # size
                    ),
                    min_size=1,
                    max_size=24,
                ),
            ),
            min_size=1,
            max_size=10,
        )
    )
    def test_single_shard_process_matches_simulated(self, bursts):
        workload = [
            (when_ns, [Packet(flow_id=f, size_bytes=s) for f, s in specs])
            for when_ns, specs in bursts
        ]
        reference = _run_workload("simulated", workload, num_shards=1)
        _assert_equivalent(reference, _run_workload("process", workload, num_shards=1))

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        num_shards=st.integers(min_value=1, max_value=4),
        bursts=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=150_000),
                st.lists(
                    st.integers(min_value=0, max_value=30),  # flow ids
                    min_size=1,
                    max_size=32,
                ),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    def test_multi_shard_process_matches_simulated(self, num_shards, bursts):
        workload = [
            (when_ns, [Packet(flow_id=f, size_bytes=1500) for f in flows])
            for when_ns, flows in bursts
        ]
        reference = _run_workload("simulated", workload, num_shards=num_shards)
        _assert_equivalent(
            reference, _run_workload("process", workload, num_shards=num_shards)
        )
