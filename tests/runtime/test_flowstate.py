"""Unit tests of the array-backed flow-state engine (repro.runtime.flowstate)."""

import json
import pickle
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model.transactions import RateLimit, ShapingTransaction
from repro.runtime import FlowSharder, FlowTable, PacingTable, ShardedRuntime
from repro.core.model.packet import Packet
from repro.traffic import ZipfFlowSampler

RATE_BPS = 1e9


class TestFlowTable:
    def test_ensure_lookup_remove_roundtrip(self):
        table = FlowTable()
        slot = table.ensure(42)
        assert table.created
        assert table.lookup(42) == slot
        assert 42 in table
        assert len(table) == 1
        assert table.ensure(42) == slot
        assert not table.created
        assert table.remove(42)
        assert not table.remove(42)
        assert table.lookup(42) == -1
        assert len(table) == 0

    def test_negative_flow_id_rejected(self):
        table = FlowTable()
        with pytest.raises(ValueError):
            table.ensure(-1)

    def test_duplicate_column_rejected(self):
        table = FlowTable()
        table.add_column("x", "i", 0)
        with pytest.raises(ValueError):
            table.add_column("x", "q", 0)

    def test_slots_recycle_and_columns_reset(self):
        table = FlowTable()
        col = table.add_column("v", "q", -7)
        slot = table.ensure(1)
        col[slot] = 999
        table.remove(1)
        reused = table.ensure(2)
        assert reused == slot  # the free list served the dead flow's slot
        assert col[reused] == -7  # ...with the column back at its default
        assert table.stats.recycles == 1

    def test_column_added_after_rows_reads_default(self):
        table = FlowTable()
        for flow in range(10):
            table.ensure(flow)
        late = table.add_column("late", "d", 2.5)
        assert all(late[table.lookup(flow)] == 2.5 for flow in range(10))

    def test_cached_column_reference_survives_growth(self):
        table = FlowTable()
        col = table.add_column("v", "q", 0)
        first = table.ensure(0)
        col[first] = 123
        for flow in range(1, 5000):  # forces repeated array growth + rehash
            table.ensure(flow)
        assert col is table.column("v")
        assert col[table.lookup(0)] == 123
        assert table.stats.rehashes > 0

    def test_matches_dict_reference_under_random_churn(self):
        rng = random.Random(1234)
        table = FlowTable()
        col = table.add_column("v", "q", 0)
        reference = {}
        peak = 0
        for _step in range(4000):
            flow = rng.randrange(200)
            action = rng.random()
            if action < 0.5:
                slot = table.ensure(flow)
                if table.created:
                    assert flow not in reference
                    reference[flow] = rng.randrange(1 << 40)
                    col[slot] = reference[flow]
                else:
                    assert flow in reference
            elif action < 0.8:
                assert table.remove(flow) == (reference.pop(flow, None) is not None)
            else:
                slot = table.lookup(flow)
                if flow in reference:
                    assert slot >= 0 and col[slot] == reference[flow]
                else:
                    assert slot == -1
            peak = max(peak, len(reference))
            assert len(table) == len(reference)
        assert sorted(flow for flow, _slot in table.items()) == sorted(reference)
        # Dense slots track peak-concurrent flows, not flows ever seen.
        assert table.slot_limit <= max(32, 2 * peak)

    def test_items_and_live_slots_consistent(self):
        table = FlowTable()
        for flow in range(20):
            table.ensure(flow)
        for flow in range(0, 20, 2):
            table.remove(flow)
        live = dict(table.items())
        assert sorted(live) == list(range(1, 20, 2))
        assert sorted(live.values()) == sorted(table.live_slots())

    def test_pickle_roundtrip_preserves_shared_columns(self):
        table = FlowTable()
        col = table.add_column("v", "q", 0)
        for flow in range(100):
            col[table.ensure(flow)] = flow * 11
        clone = pickle.loads(pickle.dumps(table))
        assert len(clone) == 100
        clone_col = clone.column("v")
        assert all(clone_col[clone.lookup(flow)] == flow * 11 for flow in range(100))
        clone.remove(7)
        assert 7 in table  # independent copies

    def test_memory_bytes_tracks_columns(self):
        table = FlowTable()
        baseline = table.memory_bytes()
        table.add_column("a", "q", 0)
        table.add_column("b", "d", 0.0)
        for flow in range(10_000):
            table.ensure(flow)
        per_flow = table.memory_bytes() / 10_000
        assert table.memory_bytes() > baseline
        # 8B key + 8+8B columns + index cells + free list overheads — the
        # whole point of the engine is staying O(tens of bytes) per flow.
        assert per_flow < 64


class TestPacingTable:
    def _random_equivalence(self, rate, burst, seed):
        """Column stamps must be bit-identical to ShapingTransaction's."""
        rng = random.Random(seed)
        reference = ShapingTransaction("ref", RateLimit(rate, burst))
        pacing = PacingTable(shard_id=0)
        pacing.install(5, ShapingTransaction("ref", RateLimit(rate, burst)))
        slot = pacing.lookup(5)
        now = 0
        for _ in range(300):
            now += rng.randrange(0, 50_000)
            size = rng.choice([64, 512, 1500, 9000])
            expected = reference.stamp(Packet(flow_id=5, size_bytes=size), now)
            assert pacing.stamp(slot, size, now) == expected
            assert pacing.next_free_at(slot) == reference.next_free_ns

    def test_stamp_equivalence_no_burst(self):
        self._random_equivalence(RATE_BPS, 0, seed=1)

    def test_stamp_equivalence_with_burst(self):
        self._random_equivalence(5e6, 4500, seed=2)

    def test_stamp_equivalence_slow_rate(self):
        self._random_equivalence(1e3, 1500, seed=3)

    def test_touch_equals_slot_for_plus_stamp(self):
        """The fused hot path must be observationally the three-call chain."""
        rng = random.Random(9)
        fused = PacingTable(shard_id=0)
        chained = PacingTable(shard_id=0)
        for step in range(2000):
            flow = rng.randrange(40)
            now = step * 10_000
            size = rng.choice([64, 1500])
            expected = chained.stamp(
                chained.slot_for(flow, RATE_BPS), size, now
            )
            assert fused.touch(flow, RATE_BPS, size, now) == expected
            assert fused.last_slot == fused.lookup(flow)
            if rng.random() < 0.2:  # churn: exercise tombstones + rehash
                fused.remove(flow)
                chained.remove(flow)
        assert len(fused) == len(chained)

    def test_slot_for_initialises_fresh_state_only(self):
        pacing = PacingTable(shard_id=3)
        slot = pacing.slot_for(9, RATE_BPS)
        assert pacing.stamp(slot, 1500, 1000) == 1000
        # An existing entry keeps its stored rate across later calls.
        assert pacing.slot_for(9, 1.0) == slot
        assert pacing.next_free_at(slot) > 1000

    def test_detach_install_roundtrip(self):
        pacing = PacingTable(shard_id=2)
        slot = pacing.slot_for(7, 5e6)
        pacing.stamp(slot, 1500, 1_000_000)
        next_free = pacing.next_free_at(slot)
        shaper = pacing.detach(7)
        assert 7 not in pacing
        assert shaper.name == "shard2-flow-7"
        assert shaper.next_free_ns == next_free
        assert shaper.limit == RateLimit(5e6, 0)
        other = PacingTable(shard_id=4)
        other.install(7, shaper)
        assert other.next_free_ns(7) == next_free
        assert other.detach(7).credit_bytes == shaper.credit_bytes

    def test_detach_missing_flow_returns_none(self):
        assert PacingTable(shard_id=0).detach(123) is None

    def test_next_free_ns_raises_for_missing_flow(self):
        with pytest.raises(KeyError):
            PacingTable(shard_id=0).next_free_ns(1)

    def test_extreme_rate_saturates_instead_of_overflowing(self):
        pacing = PacingTable(shard_id=0)
        slot = pacing.slot_for(1, 1e-9)  # ~38k years per packet
        send_at = pacing.stamp(slot, 9000, 0)
        assert send_at == 0
        assert pacing.next_free_at(slot) == (1 << 63) - 1
        pacing.stamp(slot, 9000, 10)  # must not raise on the next store

    def test_pickle_roundtrip_keeps_column_bindings(self):
        pacing = PacingTable(shard_id=1)
        slot = pacing.slot_for(3, RATE_BPS)
        pacing.stamp(slot, 1500, 777)
        clone = pickle.loads(pickle.dumps(pacing))
        assert clone.next_free_ns(3) == pacing.next_free_ns(3)
        # The unpickled cached refs must alias the table's arrays, not copies.
        new_slot = clone.slot_for(8, RATE_BPS)
        assert clone.stamp(new_slot, 1500, 5) == 5
        assert clone.next_free_ns(8) > 5

    def test_as_dict_materialises_without_disturbing_state(self):
        pacing = PacingTable(shard_id=0)
        slot = pacing.slot_for(1, RATE_BPS)
        pacing.stamp(slot, 1500, 0)
        before = pacing.next_free_ns(1)
        view = pacing.as_dict()
        assert set(view) == {1}
        assert view[1].next_free_ns == before
        assert pacing.next_free_ns(1) == before


def _chained_burst(table, packets, rate_of, default_rate, now_ns):
    """The reference for ``stamp_burst``: one ``stamp(slot_for(...))`` a packet."""
    for packet in packets:
        rate = rate_of(packet.flow_id, default_rate)
        if rate is None:
            send_at = now_ns
        else:
            slot = table.slot_for(packet.flow_id, rate)
            send_at = table.stamp(slot, packet.size_bytes, now_ns)
        packet.rank = send_at
    return packets


def _table_state(table):
    """Everything a pacing table holds: index shape, slots, every column."""
    return {
        "len": len(table),
        "slot_limit": table.slot_limit,
        "fill": (table._fill, table._tombs, table._cells),
        "stats": table.stats,
        "key": list(table.key),
        "columns": {name: list(table.column(name)) for name in table._names},
        "slots": {flow: table.lookup(flow) for flow in range(_BURST_FLOWS)},
    }


_BURST_FLOWS = 64
_SATURATING_BPS = 1e-9  # one packet pushes next_free past the int64 bound
_rate = st.sampled_from([None, 1e6, RATE_BPS, 10e9, _SATURATING_BPS])
_burst_flow = st.integers(0, _BURST_FLOWS - 1)
_burst_packet = st.tuples(_burst_flow, st.sampled_from([64, 1500, 1500, 9000]))
_burst_step = st.one_of(
    st.tuples(
        st.just("burst"),
        st.integers(0, 50_000),
        # Runs of one flow (the same-flow shortcut) between single packets.
        st.lists(
            st.tuples(_burst_packet, st.integers(1, 4)), min_size=1, max_size=60
        ),
    ),
    st.tuples(st.just("remove"), _burst_flow),
    st.tuples(
        st.just("install"),
        _burst_flow,
        st.sampled_from([1e6, RATE_BPS]),
        st.sampled_from([0, 1500, 20_000]),
    ),
)


class TestStampBurst:
    """``stamp_burst`` against the chained ``stamp(slot_for(...))`` per packet."""

    def _assert_same(self, steps, rates, default_rate):
        burst_table, chained = PacingTable(shard_id=3), PacingTable(shard_id=3)
        now = 0
        for step in steps:
            if step[0] == "burst":
                now += step[1]
                flows_sizes = [pair for pair, run in step[2] for _ in range(run)]
                got, expected = (
                    stamp(
                        [Packet(flow_id=f, size_bytes=size) for f, size in flows_sizes],
                        rates.get,
                        default_rate,
                        now,
                    )
                    for stamp in (
                        burst_table.stamp_burst,
                        lambda *args: _chained_burst(chained, *args),
                    )
                )
                assert [(packet.rank, packet.metadata) for packet in got] == [
                    (packet.rank, packet.metadata) for packet in expected
                ]
                assert [(p.flow_id, p.size_bytes) for p in got] == flows_sizes
            elif step[0] == "remove":
                assert burst_table.remove(step[1]) == chained.remove(step[1])
            else:
                _kind, flow, rate, burst_bytes = step
                for table in (burst_table, chained):
                    table.install(flow, ShapingTransaction("x", RateLimit(rate, burst_bytes)))
            assert _table_state(burst_table) == _table_state(chained)
        return burst_table

    @settings(max_examples=150, deadline=None)
    @given(
        steps=st.lists(_burst_step, min_size=1, max_size=12),
        rates=st.dictionaries(_burst_flow, _rate, max_size=24),
        default_rate=_rate,
    )
    def test_burst_equals_chained_calls(self, steps, rates, default_rate):
        self._assert_same(steps, rates, default_rate)

    def test_mixed_sizes_and_rates_miss_the_gap_memo_correctly(self):
        # Neighbouring packets that share a size but not a rate, then a rate
        # but not a size: a memo keyed on either alone would stamp wrong.
        rates = {1: 1e6, 2: RATE_BPS, 3: RATE_BPS}
        packets = [((1, 1500), 1), ((2, 1500), 1), ((3, 64), 1), ((2, 64), 2), ((1, 64), 1)]
        table = self._assert_same(
            [("burst", 0, packets), ("burst", 10, packets)], rates, None
        )
        assert table.next_free_ns(1) == 2 * (12_000_000 + 512_000)

    def test_stateless_flows_hold_no_slot(self):
        table = self._assert_same(
            [("burst", 5, [((7, 1500), 3), ((8, 64), 1), ((7, 1500), 1)])], {8: RATE_BPS}, None
        )
        assert 7 not in table and 8 in table

    def test_rehash_in_the_middle_of_a_burst(self):
        # 64 index cells rehash at 43 filled: one burst of 60 new flows into
        # an empty table crosses that, and the flows after it must be probed
        # in the rebuilt index.
        packets = [((flow, 1500), 2) for flow in range(60)]
        table = self._assert_same([("burst", 0, packets)], {}, RATE_BPS)
        assert table.stats.rehashes >= 1 and len(table) == 60

    def test_tombstones_are_reused_after_remove(self):
        first = [((flow, 1500), 1) for flow in range(30)]
        steps = [("burst", 0, first)]
        steps += [("remove", flow) for flow in range(0, 30, 2)]
        steps += [("burst", 100, first)]  # the removed flows come back
        table = self._assert_same(steps, {}, RATE_BPS)
        assert table.stats.recycles == 15 and table._tombs == 0

    def test_a_saturating_rate_pins_next_free_at_the_int64_bound(self):
        packets = [((1, 9000), 2), ((2, 1500), 1), ((1, 9000), 1)]
        table = self._assert_same(
            [("burst", 0, packets), ("burst", 10, packets)], {1: _SATURATING_BPS}, RATE_BPS
        )
        assert table.next_free_ns(1) == (1 << 63) - 1


class TestShardingWindowBound:
    def test_window_tracking_is_bounded_with_evictions_counted(self):
        sharder = FlowSharder(4, window_limit=64)
        for flow in range(1000):
            sharder.record(flow, flow % 4)
        assert len(sharder.flow_loads()) <= 64
        assert sharder.stats.window_evictions == 1000 - 64
        # Per-shard totals keep every packet (loads and imbalance stay exact).
        assert sum(sharder.shard_loads()) == 1000
        assert sharder.stats.window_packets == 1000

    def test_eviction_prefers_cold_flows(self):
        sharder = FlowSharder(2, window_limit=16)
        sharder.record(999, 0, packets=10_000)  # the elephant
        for flow in range(500):
            sharder.record(flow, flow % 2)
        assert 999 in sharder.flow_loads()  # never the coldest probed entry

    def test_an_eviction_costs_a_few_probes_amortised(self):
        # Churn of one-packet flows through a full window: every record
        # evicts.  Per eviction the arm passes, and its snapshots copy, about
        # _EVICT_PROBES entries, however many flows the window has dropped.
        limit = 256
        sharder = FlowSharder(2, window_limit=limit)
        passed = copied = 0
        arm, cursor = sharder._arm, sharder._arm_cursor
        for flow in range(20 * limit):
            sharder.record(flow, flow % 2)
            if sharder._arm is not arm:
                passed += cursor
                arm = sharder._arm
                copied += len(arm)
            cursor = sharder._arm_cursor
        passed += cursor
        evictions = sharder.stats.window_evictions
        assert evictions == 19 * limit
        assert len(sharder.flow_loads()) == limit
        assert passed <= 2 * FlowSharder._EVICT_PROBES * evictions
        assert copied <= 2 * FlowSharder._EVICT_PROBES * evictions

    def test_reset_window_keeps_only_the_pins(self):
        sharder = FlowSharder(2, window_limit=1024)
        for flow in range(100):
            sharder.record(flow, 0)
        sharder.pin(7, 1)
        sharder.reset_window()
        assert sharder.flow_loads() == {} and sharder.flow_residency() == {}
        assert sharder.shard_loads() == [0, 0]
        # Only the pinned flow is still held, and only by its pin.
        assert sharder._pins == {7: 1}
        assert sharder.loaned_flows() == {}

    def test_window_limit_validation(self):
        with pytest.raises(ValueError):
            FlowSharder(2, window_limit=0)


class TestIncrementalGc:
    def _churn(self, runtime, generations=6, flows_per_gen=40):
        for generation in range(generations):
            base = generation * flows_per_gen
            packets = [
                Packet(flow_id=base + index, size_bytes=1500)
                for index in range(flows_per_gen)
                for _repeat in range(2)
            ]
            runtime.submit_at(generation * 10_000_000, packets)
        runtime.run()

    def test_bounded_sweep_converges_to_global_result(self):
        kwargs = dict(
            num_shards=2, default_rate_bps=RATE_BPS, quantum_ns=50_000,
            gc_interval_packets=16, record_transmits=False,
        )
        incremental = ShardedRuntime(gc_sweep_limit=4, **kwargs)
        global_scan = ShardedRuntime(**kwargs)
        self._churn(incremental)
        self._churn(global_scan)
        assert incremental.transmitted == global_scan.transmitted == 480
        # Bounded sweeps lag while packets flow, but the cursor wraps across
        # triggers: drive both to quiescence and the live sets must agree.
        for runtime in (incremental, global_scan):
            for _ in range(200):
                before = len(runtime.flows)
                runtime._gc_flow_state(runtime.simulator.now_ns + 10**12)
                if len(runtime.flows) == before == 0:
                    break
        live_inc = sorted(flow for flow, _slot in incremental.flows.items())
        live_glob = sorted(flow for flow, _slot in global_scan.flows.items())
        assert live_inc == live_glob == []
        assert incremental.flows.stats.gc_reclaimed == 240
        assert incremental.flows.stats.gc_sweeps > global_scan.flows.stats.gc_sweeps

    def test_sweep_limit_bounds_examinations_per_trigger(self):
        runtime = ShardedRuntime(
            1, default_rate_bps=RATE_BPS, quantum_ns=50_000,
            gc_interval_packets=None, gc_sweep_limit=5,
        )
        runtime.submit_batch(
            [Packet(flow_id=flow, size_bytes=64) for flow in range(50)]
        )
        runtime.run()
        examined_before = runtime.flows.stats.gc_examined
        runtime._gc_flow_state(runtime.simulator.now_ns + 10**12)
        assert runtime.flows.stats.gc_examined - examined_before == 5
        assert len(runtime.flows) == 45

    def test_gc_sweep_limit_validation(self):
        with pytest.raises(ValueError):
            ShardedRuntime(2, gc_sweep_limit=0)

    def test_telemetry_reports_flow_state_block(self):
        runtime = ShardedRuntime(2, default_rate_bps=RATE_BPS, quantum_ns=50_000)
        runtime.submit_batch(
            [Packet(flow_id=flow, size_bytes=1500) for flow in range(32)]
        )
        runtime.run()
        block = runtime.telemetry().flow_state
        assert block["live_flows"] == len(runtime.flows)
        assert block["slot_limit"] >= block["live_flows"]
        assert block["memory_bytes"] > 0
        assert block == runtime.telemetry().as_dict()["flow_state"]


MEGAFLOW_ARTIFACT = Path(__file__).resolve().parent.parent.parent / "BENCH_megaflow.json"


def test_bench_megaflow_churn_storm_rebuilds_at_full_size():
    """``BENCH_megaflow.json``'s churn storm, restated from its harness.

    ``benchmarks/bench_megaflow.py::_drive_churn_storm`` at the committed
    packet count: 40,000 Zipf draws over the 1.2M-id universe (a third of
    them past the sampler's exact head) into four shards with incremental
    GC.  Every ``flow_state`` field and the modelled cycles must match.
    """
    committed = json.loads(MEGAFLOW_ARTIFACT.read_text())["churn_storm"]
    num_packets, burst, quantum_ns = committed["num_packets"], 128, 10_000
    flow_ids = ZipfFlowSampler(committed["universe"], skew=1.05, seed=11).sample_flows(
        num_packets
    )
    runtime = ShardedRuntime(
        committed["num_shards"],
        default_rate_bps=10e9,
        quantum_ns=quantum_ns,
        batch_per_quantum=64,
        record_transmits=False,
        gc_interval_packets=256,
        gc_sweep_limit=committed["gc_sweep_limit"],
    )
    for index in range(0, num_packets, burst):
        chunk = flow_ids[index : index + burst]

        def offer(chunk=chunk) -> None:
            runtime.submit_batch(
                [Packet(flow_id=flow_id, size_bytes=1500) for flow_id in chunk]
            )

        runtime.simulator.schedule_at((index // burst) * 8 * quantum_ns, offer)
    runtime.run()
    telemetry = runtime.telemetry()
    assert telemetry.transmitted == num_packets
    cycles = telemetry.total_cycles / telemetry.transmitted
    assert cycles == committed["cycles_per_packet"]
    assert dict(telemetry.flow_state) == committed["flow_state"]
