"""Unit tests for the execution-backend layer.

Covers the shared-memory SPSC ring transport, backend resolution and the
parallel-configuration guards, the process backend's end-to-end behaviour
(conservation, telemetry merge, child failure propagation, clean teardown
after a run and under interruption), and the mailbox watermark
edge-settlement contract the backends rely on.  The simulated-vs-process
equivalence itself lives in ``test_backend_differential.py``, and the
detect-and-raise cases for dying children in ``test_faults.py``.
"""

import multiprocessing
import os
import pickle
import sys
import time
from multiprocessing import shared_memory

import pytest

import repro.runtime.backend as backend_module
from repro.core.model.packet import Packet
from repro.core.queues import CircularFFSQueue
from repro.runtime import (
    FaultPlan,
    FlightRecorder,
    Mailbox,
    MetricsTimeline,
    ProcessBackend,
    ShardedRuntime,
    SimulatedBackend,
    free_threaded,
)
from repro.runtime.backend import resolve_backend
from repro.runtime.shm import RING_EMPTY, ShmFrameCorrupt, ShmRing
from repro.netsim.simulator import Simulator

RATE_BPS = 1e9
QUANTUM_NS = 10_000


def _packets(flow_ids, size_bytes=1500):
    return [Packet(flow_id=flow_id, size_bytes=size_bytes) for flow_id in flow_ids]


def _reap_children(deadline_s=5.0):
    """Wait for recently-terminated children to be reaped; return survivors."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        children = multiprocessing.active_children()  # joins finished children
        if not children:
            return []
        time.sleep(0.05)
    return multiprocessing.active_children()


class TestShmRing:
    def test_round_trip_preserves_order_and_values(self):
        ring = ShmRing(capacity=4096)
        try:
            records = [(i, [Packet(flow_id=i, size_bytes=64)]) for i in range(5)]
            for record in records:
                assert ring.push(record)
            popped = [ring.pop() for _ in range(5)]
            assert [when for when, _pkts in popped] == [0, 1, 2, 3, 4]
            assert [pkts[0].flow_id for _when, pkts in popped] == [0, 1, 2, 3, 4]
        finally:
            ring.close()
            ring.unlink()

    def test_none_payload_is_distinct_from_empty(self):
        ring = ShmRing(capacity=256)
        try:
            assert ring.pop() is RING_EMPTY
            assert ring.push(None)
            assert ring.pop() is None  # a real record, not emptiness
            assert ring.pop() is RING_EMPTY
        finally:
            ring.close()
            ring.unlink()

    def test_full_ring_rejects_then_recovers(self):
        ring = ShmRing(capacity=64)
        try:
            payload = b"x" * 24  # 32 bytes framed; two fit, the third not
            assert ring.push_bytes(payload)
            assert ring.push_bytes(payload)
            assert not ring.push_bytes(payload)
            assert ring.pop_bytes() == payload
            assert ring.push_bytes(payload)  # space reclaimed by the pop
        finally:
            ring.close()
            ring.unlink()

    def test_wraparound_many_cycles(self):
        # A tiny ring forces every record to straddle the edge repeatedly;
        # cursors are monotone so offsets wrap only in the byte copies.
        ring = ShmRing(capacity=48)
        try:
            for i in range(500):
                payload = bytes([i % 251]) * (1 + i % 17)
                assert ring.push_bytes(payload)
                assert ring.pop_bytes() == payload
            assert len(ring) == 0
            assert ring.free_bytes == 48
        finally:
            ring.close()
            ring.unlink()

    def test_oversized_record_raises(self):
        ring = ShmRing(capacity=32)
        try:
            with pytest.raises(ValueError, match="exceeds ring capacity"):
                ring.push_bytes(b"y" * 64)
        finally:
            ring.close()
            ring.unlink()

    def test_attach_by_name_shares_the_segment(self):
        owner = ShmRing(capacity=1024)
        attached = None
        try:
            attached = ShmRing(name=owner.name)
            assert attached.capacity == 1024
            assert owner.push({"hello": 7})
            assert attached.pop() == {"hello": 7}
            assert attached.pop() is RING_EMPTY
        finally:
            if attached is not None:
                attached.close()
            owner.close()
            owner.unlink()

    def test_unlink_destroys_the_segment(self):
        ring = ShmRing(capacity=128)
        name = ring.name
        ring.close()
        ring.unlink()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_capacity_must_exceed_frame_header(self):
        with pytest.raises(ValueError):
            ShmRing(capacity=4)

    def test_corrupted_payload_raises_and_sticks(self):
        ring = ShmRing(capacity=256)
        try:
            assert ring.push({"flow": 3})
            ring.corrupt_last_record()
            with pytest.raises(ShmFrameCorrupt, match="frame CRC mismatch"):
                ring.pop()
            # The head cursor did not advance past the poisoned frame: the
            # fault is sticky, never silently skipped.
            with pytest.raises(ShmFrameCorrupt, match="frame CRC mismatch"):
                ring.pop()
        finally:
            ring.close()
            ring.unlink()

    def test_torn_length_header_raises(self):
        ring = ShmRing(capacity=256)
        try:
            assert ring.push_bytes(b"abc")
            ring._data[0] = 0xFF  # scribble over the low length byte
            with pytest.raises(ShmFrameCorrupt, match="torn frame header"):
                ring.pop_bytes()
        finally:
            ring.close()
            ring.unlink()


class TestBackendResolution:
    @pytest.mark.parametrize("name", ["gpu", "thread"])
    def test_unknown_name_rejected(self, name):
        with pytest.raises(ValueError, match="unknown backend"):
            ShardedRuntime(1, backend=name)

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError):
            resolve_backend(42, None)

    def test_instance_passes_through(self):
        backend = ProcessBackend()
        runtime = ShardedRuntime(1, backend=backend)
        assert runtime.backend is backend

    def test_simulator_composes_only_with_simulated(self):
        simulator = Simulator()
        runtime = ShardedRuntime(1, simulator=simulator, backend="simulated")
        assert runtime.simulator is simulator
        with pytest.raises(ValueError, match="simulated backend"):
            ShardedRuntime(1, simulator=Simulator(), backend="process")

    def test_default_backend_is_simulated(self):
        runtime = ShardedRuntime(1)
        assert isinstance(runtime.backend, SimulatedBackend)
        assert runtime.simulator is runtime.backend.simulator

    def test_free_threaded_reads_the_interpreter(self):
        probe = getattr(sys, "_is_gil_enabled", None)
        assert free_threaded() is (probe is not None and not probe())


class TestParallelConfigGuards:
    @pytest.mark.parametrize(
        "kwargs, conflict",
        [
            ({"steal_enabled": True}, "steal_enabled"),
            ({"rebalance_interval_ns": 100_000}, "rebalancing"),
            ({"ingress_cores": 1}, "ingress_cores"),
            ({"on_transmit": lambda packet, now: None}, "on_transmit"),
            ({"fault_plan": FaultPlan([])}, "fault_plan"),
            ({"lease_deadline_ns": 100_000}, "lease_deadline_ns"),
            ({"tracer": FlightRecorder()}, "tracer"),
            ({"metrics_timeline": MetricsTimeline()}, "metrics_timeline"),
        ],
    )
    def test_non_decomposable_features_rejected(self, kwargs, conflict):
        with pytest.raises(ValueError, match=conflict):
            ShardedRuntime(2, backend="process", **kwargs)

    def test_global_gc_auto_disabled(self):
        runtime = ShardedRuntime(2, backend="process", gc_interval_packets=4096)
        assert runtime.gc_interval_packets is None
        # ...and stays configurable on the simulated backend.
        assert ShardedRuntime(2, gc_interval_packets=4096).gc_interval_packets == 4096

    def test_submit_at_rejects_negative_time(self):
        runtime = ShardedRuntime(1, backend="process")
        with pytest.raises(ValueError, match="non-negative"):
            runtime.submit_at(-1, _packets([1]))

    def test_until_ns_rejected_on_parallel_run(self):
        runtime = ShardedRuntime(1, backend="process", default_rate_bps=RATE_BPS)
        runtime.submit_batch(_packets([1]))
        with pytest.raises(ValueError, match="to completion"):
            runtime.run(until_ns=1_000_000)

    def test_one_schedule_per_runtime(self):
        runtime = ShardedRuntime(1, backend="process", default_rate_bps=RATE_BPS)
        runtime.submit_batch(_packets([1, 2]))
        assert runtime.pending == 2
        first = runtime.run()
        assert first > 0
        assert runtime.run() == 0  # idempotent
        with pytest.raises(RuntimeError, match="fresh runtime"):
            runtime.submit_at(0, _packets([3]))


class _RingSpy(ShmRing):
    """ShmRing that records every created segment name on the class."""

    created: list = []

    def __init__(self, capacity=1 << 20, name=None):
        super().__init__(capacity=capacity, name=name)
        if name is None:
            type(self).created.append(self.name)


class TestProcessBackend:
    def _run(self, num_shards, flow_ids, **kwargs):
        runtime = ShardedRuntime(
            num_shards,
            default_rate_bps=RATE_BPS,
            quantum_ns=QUANTUM_NS,
            backend="process",
            **kwargs,
        )
        runtime.submit_batch(_packets(flow_ids))
        runtime.run()
        return runtime

    def test_conservation_and_fifo(self):
        flow_ids = [flow % 13 for flow in range(260)]
        runtime = self._run(4, flow_ids)
        assert runtime.transmitted == 260
        assert runtime.pending == 0
        sequences = {}
        for _now, packet in runtime.transmit_log:
            sequences.setdefault(packet.flow_id, []).append(packet.packet_id)
        for flow_id, sequence in sequences.items():
            assert sequence == sorted(sequence), f"flow {flow_id} reordered"
        assert _reap_children() == []

    def test_telemetry_merged_across_processes(self):
        runtime = self._run(2, [flow % 8 for flow in range(96)])
        telemetry = runtime.telemetry()
        assert telemetry.transmitted == 96
        assert len(telemetry.shards) == 2
        assert sum(shard.ingested for shard in telemetry.shards) == 96
        assert telemetry.total_cycles > 0
        assert telemetry.queue_stats.enqueues == 96
        # Per-shard results carried real counter objects across the boundary.
        for result in runtime.backend.results:
            assert result.cycles > 0
            assert result.stats.transmitted == result.queue_stats.dequeues

    def test_child_failure_propagates_with_traceback(self):
        parent_pid = os.getpid()

        def factory(spec):
            if os.getpid() != parent_pid:
                raise ZeroDivisionError("injected child failure")
            return CircularFFSQueue(spec)

        runtime = ShardedRuntime(
            1,
            default_rate_bps=RATE_BPS,
            quantum_ns=QUANTUM_NS,
            queue_factory=factory,
            backend="process",
        )
        runtime.submit_batch(_packets([1, 2, 3]))
        with pytest.raises(RuntimeError, match="injected child failure"):
            runtime.run()
        assert _reap_children() == []

    def test_clean_run_unlinks_every_segment(self, monkeypatch):
        _RingSpy.created = []
        monkeypatch.setattr(backend_module, "ShmRing", _RingSpy)
        runtime = self._run(3, [flow % 7 for flow in range(63)])
        assert runtime.transmitted == 63
        assert len(_RingSpy.created) == 3
        assert _reap_children() == []
        for name in _RingSpy.created:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_interrupted_run_tears_down_processes_and_segments(self, monkeypatch):
        class InterruptingBackend(ProcessBackend):
            def _feed_hook(self):
                raise KeyboardInterrupt

        _RingSpy.created = []
        monkeypatch.setattr(backend_module, "ShmRing", _RingSpy)
        runtime = ShardedRuntime(
            2,
            default_rate_bps=RATE_BPS,
            quantum_ns=QUANTUM_NS,
            backend=InterruptingBackend(),
        )
        runtime.submit_batch(_packets([flow % 8 for flow in range(64)]))
        with pytest.raises(KeyboardInterrupt):
            runtime.run()
        assert len(_RingSpy.created) == 2
        assert _reap_children() == [], "worker processes leaked"
        for name in _RingSpy.created:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_drops_settle_after_run(self):
        runtime = ShardedRuntime(
            1,
            default_rate_bps=RATE_BPS,
            quantum_ns=QUANTUM_NS,
            mailbox_capacity=4,
            backend="process",
        )
        # One burst far above mailbox capacity: the child's mailbox tail-drops.
        assert runtime.submit_batch(_packets([1] * 32)) == 32  # optimistic
        runtime.run()
        assert runtime.ingress_drops == 32 - 4
        assert runtime.transmitted == 4


class TestWorkerMainInProcess:
    """The child's entry point, called in this process over a real ring.

    Forked children are invisible to coverage and to a debugger; running
    ``_shard_worker_main`` here pins the replay the children perform.
    """

    BURSTS = [(0, [1, 2, 3, 1]), (QUANTUM_NS, [2, 2, 4]), (5 * QUANTUM_NS, [1])]

    def _main(self, spec):
        ring = ShmRing(capacity=1 << 16)
        receiver, sender = multiprocessing.Pipe(duplex=False)
        try:
            for when_ns, flow_ids in self.BURSTS:
                assert ring.push((when_ns, _packets(flow_ids)))
            assert ring.push(None)
            backend_module._shard_worker_main(spec, ring.name, sender)
            return receiver.recv()
        finally:
            receiver.close()
            ring.close()
            ring.unlink()

    def test_replay_matches_the_simulated_shard(self):
        kwargs = dict(default_rate_bps=RATE_BPS, quantum_ns=QUANTUM_NS, gc_interval_packets=None)
        simulated = ShardedRuntime(1, **kwargs)
        for when_ns, flow_ids in self.BURSTS:
            simulated.submit_at(when_ns, _packets(flow_ids))
        simulated.run()
        spec = ShardedRuntime(1, backend="process", **kwargs)._worker_spec(0)
        result = self._main(spec)
        assert [(now, p.flow_id) for now, p in result.transmits] == [
            (now, p.flow_id) for now, p in simulated.transmit_log
        ]
        assert result.cycles == simulated.telemetry().total_cycles
        assert result.end_ns == simulated.simulator.now_ns

    def test_failure_is_sent_as_a_traceback(self):
        def factory(spec):
            raise ZeroDivisionError("injected replay failure")

        spec = ShardedRuntime(1, backend="process")._worker_spec(0)
        spec.worker_kwargs["queue_factory"] = factory  # only the replay fails
        message = self._main(spec)
        assert isinstance(message, backend_module._ChildError)
        assert "injected replay failure" in message.message


class TestMailboxEdgeSettlement:
    """Watermark callbacks fire only after the operation fully settled."""

    def test_on_high_sees_settled_push(self):
        seen = []
        mailbox = Mailbox(capacity=8, high_watermark=4)
        mailbox.on_high = lambda: seen.append(
            (mailbox.paused, mailbox.stats.snapshot(), len(mailbox))
        )
        mailbox.push_batch(list(range(6)))
        assert len(seen) == 1
        paused, stats, occupancy = seen[0]
        assert paused is True
        assert stats.stalls == 1
        assert stats.pushed == 6  # the whole batch, not a mid-batch count
        assert stats.peak_occupancy == 6
        assert occupancy == 6

    def test_on_low_sees_settled_drain(self):
        seen = []
        mailbox = Mailbox(capacity=8, high_watermark=4, low_watermark=1)
        mailbox.on_low = lambda: seen.append(
            (mailbox.paused, mailbox.stats.snapshot(), len(mailbox))
        )
        mailbox.push_batch(list(range(6)))
        mailbox.drain(limit=5)
        assert len(seen) == 1
        paused, stats, occupancy = seen[0]
        assert paused is False
        assert stats.drained == 5
        assert stats.drain_calls == 1
        assert occupancy == 1

    def test_reentrant_on_low_refill_repauses_consistently(self):
        # The resume edge re-enters the producer side (exactly what a resumed
        # ingress core does); the nested push must see paused already False
        # and may immediately re-pause, with each stall counted once.
        mailbox = Mailbox(capacity=8, high_watermark=4, low_watermark=1)

        def refill():
            assert mailbox.paused is False
            mailbox.push_batch(list(range(5)))

        mailbox.on_low = refill
        mailbox.push_batch(list(range(6)))
        assert mailbox.stats.stalls == 1
        mailbox.drain(limit=5)
        assert mailbox.paused is True  # refill crossed high again
        assert mailbox.stats.stalls == 2
        assert len(mailbox) == 6

    def test_configure_watermarks_fires_settled_edge(self):
        seen = []
        mailbox = Mailbox(capacity=8)
        mailbox.push_batch(list(range(5)))
        mailbox.configure_watermarks(
            4, on_high=lambda: seen.append((mailbox.paused, mailbox.stats.stalls))
        )
        assert seen == [(True, 1)]


class TestStatsPickleRoundTrip:
    def test_shard_result_round_trips(self):
        runtime = ShardedRuntime(
            1, default_rate_bps=RATE_BPS, quantum_ns=QUANTUM_NS, backend="process"
        )
        runtime.submit_batch(_packets([1, 2, 3, 1, 2]))
        runtime.run()
        (result,) = runtime.backend.results
        clone = pickle.loads(pickle.dumps(result))
        assert clone.shard_id == result.shard_id
        assert clone.stats.as_dict() == result.stats.as_dict()
        assert clone.queue_stats.as_dict() == result.queue_stats.as_dict()
        assert clone.mailbox.as_dict() == result.mailbox.as_dict()
        assert clone.cycles == result.cycles
        assert clone.cost_breakdown == result.cost_breakdown
        assert [p.packet_id for _t, p in clone.transmits] == [
            p.packet_id for _t, p in result.transmits
        ]
