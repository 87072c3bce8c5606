"""Fault injection and recovery: every fault kind, injected and survived.

Each test arms one seam of the deterministic fault plane
(:mod:`repro.runtime.faults`) and asserts the recovery contract: the run
completes, every packet is either delivered or attributed to a counted
loss, recovered flows keep per-flow FIFO, and nothing is stranded after
drain.  The process backend has no fault kinds: its half checks that a child
which dies or pops a corrupt shared-memory frame makes the run raise at the
parent, naming the shard and the exit code, with nothing left behind.
"""

import multiprocessing
import os
import pickle
import time
import zlib
from multiprocessing import shared_memory

import pytest

import repro.runtime.backend as backend_module
from repro.core.model.packet import Packet
from repro.runtime import FAULT_KINDS, FaultEvent, FaultPlan, FaultStats, ShardedRuntime
from repro.scenario import FAULT_KIND_NAMES
from repro.runtime.backend import EXIT_FRAME_CORRUPT
from repro.runtime.sharder import FlowSharder
from repro.runtime.shm import RING_EMPTY, ShmRing

#: Slow pacing so shards tick many times (fault trigger ordinals exist).
RATE_BPS = 8e6
PACKET_BYTES = 100


def _reap_children(deadline_s=5.0):
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        children = multiprocessing.active_children()
        if not children:
            return []
        time.sleep(0.05)
    return multiprocessing.active_children()


def _packets(flow_ids, size_bytes=PACKET_BYTES):
    return [Packet(flow_id=flow_id, size_bytes=size_bytes) for flow_id in flow_ids]


def _assert_flow_fifo(runtime):
    sequences = {}
    for _now, packet in runtime.transmit_log:
        sequences.setdefault(packet.flow_id, []).append(packet.packet_id)
    for flow_id, sequence in sequences.items():
        assert sequence == sorted(sequence), f"flow {flow_id} reordered"


def _assert_residual_clean(runtime):
    residual = runtime.residual_state()
    assert all(value == 0 for value in residual.values()), residual


class TestFaultPlan:
    @pytest.mark.parametrize("kind", ["meteor_strike", "child_crash"])
    def test_unknown_kind_rejected(self, kind):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(kind)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(target=-1), dict(at=0), dict(count=0)],
    )
    def test_bad_event_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultEvent("shard_crash", **kwargs)

    def test_from_seed_is_deterministic(self):
        draw = lambda: FaultPlan.from_seed(  # noqa: E731
            99, num_shards=4, events=6, ingress_lanes=2, kinds=None or
            ("shard_crash", "shard_stall", "handoff_drop", "ingress_wedge"),
        )
        assert draw().describe() == draw().describe()

    def test_from_seed_rejects_wedge_without_lanes(self):
        with pytest.raises(ValueError, match="ingress_lanes"):
            FaultPlan.from_seed(1, num_shards=2, kinds=("ingress_wedge",))

    def test_shard_events_fire_once_in_tick_order(self):
        plan = FaultPlan(
            [
                FaultEvent("shard_stall", target=0, at=2),
                FaultEvent("shard_crash", target=0, at=4),
            ]
        )
        fired = [plan.next_shard_action(0) for _ in range(6)]
        assert fired == [None, "shard_stall", None, "shard_crash", None, None]

    def test_handoff_budget_is_consumed_across_calls(self):
        plan = FaultPlan([FaultEvent("handoff_drop", target=1, count=5)])
        assert plan.take_handoff_drops(1, 3) == 3
        assert plan.take_handoff_drops(1, 3) == 2
        assert plan.take_handoff_drops(1, 3) == 0
        assert plan.take_handoff_drops(0, 3) == 0  # other shards untouched

    def test_the_spec_names_the_same_kinds_as_the_runtime(self):
        # The spec layer keeps its own copy to stay import-light.
        assert FAULT_KIND_NAMES == FAULT_KINDS

    def test_runtime_rejects_out_of_range_targets(self):
        plan = FaultPlan([FaultEvent("shard_crash", target=7)])
        with pytest.raises(ValueError, match="targets shard 7"):
            ShardedRuntime(2, fault_plan=plan)
        wedge = FaultPlan([FaultEvent("ingress_wedge", target=3)])
        with pytest.raises(ValueError, match="ingress lane 3"):
            ShardedRuntime(2, ingress_cores=1, fault_plan=wedge)


class TestShardCrashRecovery:
    def _run(self, at, num_shards=2, packets=60, flows=6):
        runtime = ShardedRuntime(
            num_shards,
            default_rate_bps=RATE_BPS,
            record_transmits=True,
            fault_plan=FaultPlan([FaultEvent("shard_crash", target=0, at=at)]),
        )
        for i in range(packets):
            runtime.submit(Packet(flow_id=i % flows, size_bytes=PACKET_BYTES))
        runtime.run()
        return runtime

    def test_every_packet_accounted_and_fifo_preserved(self):
        runtime = self._run(at=2)
        faults = runtime.fault_stats
        assert faults.crashes_injected == 1
        assert faults.shards_recovered == 1
        # The crash-loss ledger balances: delivered + lost == offered.
        assert runtime.transmitted + faults.packets_lost == 60
        _assert_flow_fifo(runtime)
        _assert_residual_clean(runtime)

    def test_mailbox_survives_as_salvage(self):
        # Crash before the first tick: everything still sits in the
        # producer-owned mailbox, so nothing is lost — only salvaged.
        runtime = self._run(at=1)
        faults = runtime.fault_stats
        assert faults.packets_lost == 0
        assert faults.packets_salvaged > 0
        assert runtime.transmitted == 60

    def test_recovery_log_and_telemetry_block(self):
        runtime = self._run(at=2)
        telemetry = runtime.telemetry()
        assert telemetry.faults["crashes_injected"] == 1
        (entry,) = [
            e for e in telemetry.faults["recovery_log"] if e["kind"] == "shard_crash"
        ]
        assert entry["shard"] == 0
        assert entry["recovered_at_ns"] > entry["failed_at_ns"]
        assert telemetry.as_dict()["faults"]["shards_recovered"] == 1
        # Retired incarnations stay in the per-shard telemetry merge.
        assert sum(shard.ingested for shard in telemetry.shards) >= runtime.transmitted

    def test_disarmed_runtime_reports_no_faults(self):
        runtime = ShardedRuntime(2, default_rate_bps=RATE_BPS, record_transmits=True)
        for i in range(20):
            runtime.submit(Packet(flow_id=i % 4, size_bytes=PACKET_BYTES))
        runtime.run()
        assert runtime.fault_stats.as_dict() == FaultStats().as_dict()
        assert runtime.telemetry().faults["recovery_log"] == []


class TestShardStall:
    def test_stall_is_cleared_and_nothing_is_lost(self):
        runtime = ShardedRuntime(
            2,
            default_rate_bps=RATE_BPS,
            record_transmits=True,
            fault_plan=FaultPlan([FaultEvent("shard_stall", target=1, at=2)]),
        )
        for i in range(40):
            runtime.submit(Packet(flow_id=i % 8, size_bytes=PACKET_BYTES))
        runtime.run()
        faults = runtime.fault_stats
        assert faults.stalls_injected == 1
        assert faults.stalls_cleared == 1
        assert runtime.transmitted == 40
        _assert_flow_fifo(runtime)
        _assert_residual_clean(runtime)

    def test_arrivals_do_not_wake_a_stalled_shard(self):
        # Every flow lives on shard 0 and departs at its tick (fast pacing),
        # so any departure inside the stall window would be a woken stall.
        sharder = FlowSharder(2)
        for flow_id in range(4):
            sharder.pin(flow_id, 0)
        runtime = ShardedRuntime(
            2,
            sharder=sharder,
            default_rate_bps=10e9,
            quantum_ns=10_000,
            record_transmits=True,
            fault_plan=FaultPlan([FaultEvent("shard_stall", target=0, at=2)]),
        )
        for t in range(6):
            runtime.submit_at(t * 5_000, _packets(range(4)))
        runtime.run()
        (entry,) = runtime.recovery_log
        assert (entry["failed_at_ns"], entry["recovered_at_ns"]) == (5_000, 25_000)
        assert not [
            now
            for now, _packet in runtime.transmit_log
            if entry["failed_at_ns"] <= now < entry["recovered_at_ns"]
        ]
        assert runtime.transmitted == 24


class TestIngressWedge:
    def test_wedged_lane_is_unwedged_and_ring_drains(self):
        runtime = ShardedRuntime(
            2,
            ingress_cores=1,
            default_rate_bps=RATE_BPS,
            record_transmits=True,
            fault_plan=FaultPlan([FaultEvent("ingress_wedge", target=0, at=1)]),
        )
        for start in range(0, 40, 8):
            runtime.submit_batch(_packets([i % 8 for i in range(start, start + 8)]))
        runtime.run()
        faults = runtime.fault_stats
        assert faults.wedges_injected == 1
        assert faults.wedges_cleared == 1
        assert runtime.transmitted == 40
        _assert_flow_fifo(runtime)
        _assert_residual_clean(runtime)


class TestHandoffDrops:
    def test_drops_are_counted_not_committed(self):
        runtime = ShardedRuntime(
            1,
            default_rate_bps=RATE_BPS,
            record_transmits=True,
            fault_plan=FaultPlan([FaultEvent("handoff_drop", target=0, count=3)]),
        )
        accepted = sum(
            1
            for i in range(20)
            if runtime.submit(Packet(flow_id=i % 4, size_bytes=PACKET_BYTES))
        )
        runtime.run()
        faults = runtime.fault_stats
        assert faults.handoff_drops == 3
        assert accepted == 17
        assert runtime.transmitted == 17
        # The dropped packets never became pending anywhere.
        _assert_residual_clean(runtime)
        _assert_flow_fifo(runtime)


class TestLeaseDeadlineEscalation:
    def test_overdue_lease_is_escalated_and_reclaimed(self):
        # One elephant flow pinned to shard 0: shard 1 is a pure thief whose
        # lease stays out far past a 1 ns deadline — the supervision sweep
        # escalates the overdue thief to a crash-and-recover and the lease
        # is reclaimed through the victim.
        sharder = FlowSharder(2)
        sharder.pin(5, 0)
        runtime = ShardedRuntime(
            2,
            sharder=sharder,
            default_rate_bps=10e9,  # 1500 B => 1.2 us spacing
            quantum_ns=10_000,
            record_transmits=True,
            steal_enabled=True,
            steal_min_backlog=1,
            lease_deadline_ns=1,
            supervise_interval_ns=20_000,
        )
        runtime.submit_batch(_packets([5] * 40, size_bytes=1500))
        runtime.run()
        faults = runtime.fault_stats
        assert faults.deadline_escalations >= 1
        assert faults.leases_reclaimed >= 1
        assert runtime.transmitted + faults.packets_lost == 40
        _assert_flow_fifo(runtime)
        _assert_residual_clean(runtime)


class _BadCrcRing(ShmRing):
    """A ring whose producer writes the second burst with a flipped CRC.

    The bad CRC is in place before the tail cursor makes the record visible,
    so the live child's pop deterministically raises ``ShmFrameCorrupt``.
    """

    def __init__(self, capacity=1 << 20, name=None):
        super().__init__(capacity=capacity, name=name)
        self.bursts = 0

    def push(self, record):
        if record is not None:
            self.bursts += 1
            if self.bursts == 2:
                payload = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
                return self._push_framed(payload, zlib.crc32(payload) ^ 0xFFFFFFFF)
        return super().push(record)


class TestProcessFailuresRaise:
    """The process backend detects a failed child and raises; it never respawns."""

    def _run(self, num_shards=2, bursts=6, per_burst=8):
        runtime = ShardedRuntime(
            num_shards, default_rate_bps=1e9, quantum_ns=10_000, backend="process"
        )
        for t in range(bursts):
            runtime.submit_at(t * 50_000, _packets(range(per_burst), size_bytes=1500))
        runtime.run()

    def _watch(self, monkeypatch, ring_class=ShmRing):
        """Record every ring segment the parent creates and every child it forks.

        A missed death would otherwise stall for the full result timeout, so
        it is cut to seconds: a regression fails fast instead of hanging.
        """
        monkeypatch.setattr(backend_module, "RESULT_TIMEOUT_S", 10.0)
        created, started = [], []

        class Ring(ring_class):
            def __init__(self, capacity=1 << 20, name=None):
                super().__init__(capacity=capacity, name=name)
                if name is None:
                    created.append(self.name)

        monkeypatch.setattr(backend_module, "ShmRing", Ring)
        start = multiprocessing.process.BaseProcess.start

        def counting_start(process):
            started.append(process.name)
            start(process)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counting_start)
        return created, started

    def _assert_torn_down(self, created):
        assert _reap_children() == []
        for name in created:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    @pytest.mark.parametrize("exit_code", [3, 0])
    def test_child_exiting_mid_schedule_raises_with_its_exit_code(
        self, monkeypatch, exit_code
    ):
        real_main = backend_module._shard_worker_main

        def exits_after_one_burst(spec, ring_name, conn):
            if spec.shard_id != 1:
                return real_main(spec, ring_name, conn)
            ring = ShmRing(name=ring_name)
            while ring.pop() is RING_EMPTY:
                time.sleep(0.001)
            os._exit(exit_code)

        monkeypatch.setattr(backend_module, "_shard_worker_main", exits_after_one_burst)
        created, started = self._watch(monkeypatch)
        with pytest.raises(
            RuntimeError,
            match=rf"shard 1 worker exited without a result \(exit code {exit_code}\)",
        ):
            self._run()
        assert started == ["repro-shard-0", "repro-shard-1"]  # no respawn
        self._assert_torn_down(created)

    def test_bad_crc_frame_raises_naming_the_corrupt_frame_exit_code(self, monkeypatch):
        created, started = self._watch(monkeypatch, ring_class=_BadCrcRing)
        with pytest.raises(
            RuntimeError, match=rf"exited without a result \(exit code {EXIT_FRAME_CORRUPT}\)"
        ):
            self._run()
        assert len(started) == 2  # no respawn
        self._assert_torn_down(created)

    def test_run_without_progress_raises_after_the_result_timeout(self, monkeypatch):
        def hangs(spec, ring_name, conn):
            time.sleep(3600)

        monkeypatch.setattr(backend_module, "_shard_worker_main", hangs)
        created, _started = self._watch(monkeypatch)
        monkeypatch.setattr(backend_module, "RESULT_TIMEOUT_S", 0.3)
        with pytest.raises(RuntimeError, match=r"no progress within"):
            self._run(num_shards=1, bursts=1)
        self._assert_torn_down(created)
