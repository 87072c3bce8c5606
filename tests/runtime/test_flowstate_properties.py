"""Property-based tests for the flow-state engine under churn storms.

The tentpole invariants of the array-backed engine: however violent the
flow churn — generations of short-lived flows arriving and dying across
shards, with stealing and rebalancing active — the engine must (a) never
reorder a flow, (b) never lose or duplicate a packet, (c) never strand a
slot once the storm drains, and (d) reclaim exactly the same live set
whether GC runs as one global scan or as bounded incremental sweeps.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core.model.packet import Packet
from repro.runtime import FlowSharder, FlowTable, ShardedRuntime

QUANTUM_NS = 10_000
FAR_FUTURE_NS = 10**15


@st.composite
def churn_storms(draw):
    """Generations of mostly-fresh flow ids: high birth/death rate.

    Each generation draws from its own id range so most flows die after
    one burst, with a few survivors resubmitted from earlier generations
    — the access pattern that strands state in a naive engine.
    """
    num_generations = draw(st.integers(min_value=2, max_value=6))
    width = draw(st.integers(min_value=2, max_value=10))
    storms = []
    for generation in range(num_generations):
        base = generation * width
        fresh = draw(
            st.lists(
                st.integers(min_value=0, max_value=width - 1),
                min_size=1,
                max_size=25,
            )
        )
        survivors = (
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=base - 1), max_size=4
                )
            )
            if base
            else []
        )
        storms.append([base + flow for flow in fresh] + survivors)
    return storms


def _drain_gc(runtime, now_ns=FAR_FUTURE_NS):
    """Drive GC to its fixpoint at ``now_ns`` (covers bounded sweeps)."""
    for _ in range(runtime.flows.slot_limit + 2):
        before = len(runtime.flows)
        runtime._gc_flow_state(now_ns)
        if len(runtime.flows) == before:
            if runtime.gc_sweep_limit is None:
                break
            # A bounded sweep may stall on a stretch of dead slots; only a
            # full extra lap with no progress proves the fixpoint.
        if len(runtime.flows) == 0:
            break


@given(
    storms=churn_storms(),
    num_shards=st.integers(min_value=1, max_value=6),
    rate_kind=st.sampled_from(["unpaced", "fast", "slow"]),
    rebalance=st.booleans(),
    steal=st.booleans(),
    gc_sweep_limit=st.sampled_from([None, 1, 3, 8]),
    hash_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=50, deadline=None)
def test_churn_storm_fifo_conservation_no_stranded_slots(
    storms, num_shards, rate_kind, rebalance, steal, gc_sweep_limit, hash_seed
):
    rate = {"unpaced": None, "fast": 10e9, "slow": 50e6}[rate_kind]
    runtime = ShardedRuntime(
        num_shards,
        sharder=FlowSharder(num_shards, hash_seed=hash_seed),
        default_rate_bps=rate,
        quantum_ns=QUANTUM_NS,
        batch_per_quantum=16,
        rebalance_interval_ns=3 * QUANTUM_NS if rebalance else None,
        steal_enabled=steal,
        steal_batch=8,
        steal_min_backlog=1,
        gc_interval_packets=8,  # GC fires *during* the storm, not only after
        gc_sweep_limit=gc_sweep_limit,
    )
    submitted = {}
    total = 0
    for storm in storms:
        packets = [Packet(flow_id=flow_id, size_bytes=1500) for flow_id in storm]
        for packet in packets:
            submitted.setdefault(packet.flow_id, []).append(packet.packet_id)
        runtime.submit_batch(packets)
        runtime.run(until_ns=runtime.simulator.now_ns + 2 * QUANTUM_NS)
        total += len(packets)
    runtime.run()

    # (a) + (b): per-flow FIFO and conservation in one equality.
    assert runtime.transmitted == total
    observed = {}
    for _now, packet in runtime.transmit_log:
        observed.setdefault(packet.flow_id, []).append(packet.packet_id)
    assert observed == submitted

    # (c): once the storm drains and pacing horizons pass, GC — even the
    # bounded incremental variant — releases every slot everywhere.
    assert all(worker.pending == 0 for worker in runtime.workers)
    _drain_gc(runtime)
    assert len(runtime.flows) == 0
    assert all(len(worker.pacing) == 0 for worker in runtime.workers)
    assert runtime.sharder.loaned_flows() == {}
    runtime.sharder.reset_window()
    # Any surviving sharder slot must be an explicit rebalancer pin —
    # placement policy, not garbage.  Everything else was released.
    for flow_id, _slot in runtime.sharder.flows.items():
        assert runtime.sharder.pinned_shard(flow_id) is not None
    if not rebalance:
        assert len(runtime.sharder.flows) == 0
    # The dense table really recycled: reclaim count matches every flow
    # ever admitted (survivor resubmissions may revive a not-yet-swept
    # slot, so reclaims can undershoot the submission count but never the
    # distinct-flow count once fully drained... they must exactly match
    # inserts minus still-live rows, which is all of them).
    assert runtime.flows.stats.gc_reclaimed == runtime.flows.stats.inserts


@given(
    storms=churn_storms(),
    num_shards=st.integers(min_value=1, max_value=4),
    sweep_limit=st.integers(min_value=1, max_value=5),
    horizon_ms=st.integers(min_value=0, max_value=20),
    hash_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_incremental_gc_converges_to_global_live_set(
    storms, num_shards, sweep_limit, horizon_ms, hash_seed
):
    """Bounded sweeps reach the same fixpoint a global scan reaches.

    Hash policy, no rebalancing, no stealing: both runtimes place every
    packet identically, so their pacing state is bit-identical and any
    divergence in the surviving live set is a GC bug.  ``horizon_ms``
    picks the comparison instant — at small horizons slow-paced flows are
    still mid-horizon and must survive on *both* sides.
    """
    def build(limit):
        return ShardedRuntime(
            num_shards,
            sharder=FlowSharder(num_shards, hash_seed=hash_seed),
            default_rate_bps=25e6,  # slow: pacing horizons outlive the run
            quantum_ns=QUANTUM_NS,
            gc_interval_packets=8,
            gc_sweep_limit=limit,
        )

    def drive(runtime):
        for storm in storms:
            runtime.submit_batch(
                [Packet(flow_id=flow_id, size_bytes=1500) for flow_id in storm]
            )
        runtime.run()
        _drain_gc(runtime, runtime.simulator.now_ns + horizon_ms * 1_000_000)
        return {
            "live": sorted(flow for flow, _slot in runtime.flows.items()),
            "pacing": [
                sorted(flow for flow, _slot in worker.pacing.items())
                for worker in runtime.workers
            ],
        }

    incremental = drive(build(sweep_limit))
    global_scan = drive(build(None))
    assert incremental == global_scan


@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["ensure", "remove", "lookup"]),
            st.integers(min_value=0, max_value=60),
        ),
        max_size=300,
    )
)
@settings(max_examples=100, deadline=None)
def test_flow_table_matches_dict_model(ops):
    """The open-addressed table is observationally a dict under any op mix."""
    table = FlowTable()
    values = table.add_column("v", "q", 0)
    reference = {}
    stamp = 0
    for op, flow in ops:
        if op == "ensure":
            slot = table.ensure(flow)
            assert table.created == (flow not in reference)
            if table.created:
                stamp += 1
                reference[flow] = stamp
                values[slot] = stamp
            else:
                assert values[slot] == reference[flow]
        elif op == "remove":
            assert table.remove(flow) == (reference.pop(flow, None) is not None)
        else:
            slot = table.lookup(flow)
            if flow in reference:
                assert slot >= 0
                assert values[slot] == reference[flow]
                assert flow in table
            else:
                assert slot == -1
                assert flow not in table
        assert len(table) == len(reference)
    assert sorted(flow for flow, _slot in table.items()) == sorted(reference)
    assert len(set(table.live_slots())) == len(reference)


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    num_flows=st.integers(min_value=1, max_value=5000),
)
@settings(max_examples=20, deadline=None)
def test_slot_space_stays_dense_under_rolling_churn(seed, num_flows):
    """Rolling create/kill keeps slots bounded by peak concurrency.

    A window of at most 64 flows rolls over ``num_flows`` ids; the dense
    slot space must track the *window*, not the total population — the
    property that makes million-flow churn affordable.
    """
    rng = random.Random(seed)
    table = FlowTable()
    window = []
    for flow in range(num_flows):
        table.ensure(flow)
        window.append(flow)
        if len(window) > 64:
            table.remove(window.pop(rng.randrange(len(window))))
    assert len(table) == len(window)
    assert table.slot_limit <= 128  # peak-live plus growth slack, never O(N)
