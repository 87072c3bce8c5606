"""Property-based fault tests: a thief dies at a random point; nothing breaks.

The recovery contract, fuzzed: whatever the shard count, workload skew,
pacing, rebalance cadence, crash schedule, or steal interleaving, a run
with injected shard crashes still satisfies

* **conservation** — every submitted packet is either transmitted or
  attributed to a counted loss (``fault_stats.packets_lost``);
* **per-flow FIFO** — the survivors of each flow depart in submission
  order (a crash may lose a packet, never reorder one);
* **no stranded state** — after drain no lease is out, no mailbox entry,
  ring slot, or flow-table loan is left behind (``residual_state()``).
"""

import os

from hypothesis import given, settings, strategies as st

from repro.core.model.packet import Packet
from repro.runtime import FaultEvent, FaultPlan, FlowSharder, ShardedRuntime

MAX_EXAMPLES = int(os.environ.get("FAULT_FUZZ_EXAMPLES", "40"))

QUANTUM_NS = 10_000
RATE_BPS = 10e9  # 1500 B => 1.2 us spacing: shards tick many times


@st.composite
def skewed_workloads(draw):
    """Bursts dominated by a few elephant flows (the steal-prone shape)."""
    num_flows = draw(st.integers(min_value=1, max_value=8))
    elephants = draw(
        st.lists(
            st.integers(min_value=0, max_value=num_flows - 1),
            min_size=1,
            max_size=2,
            unique=True,
        )
    )
    num_bursts = draw(st.integers(min_value=1, max_value=5))
    bursts = []
    for _ in range(num_bursts):
        burst = draw(
            st.lists(
                st.sampled_from(elephants),
                min_size=4,
                max_size=24,
            )
        )
        burst += draw(
            st.lists(
                st.integers(min_value=0, max_value=num_flows - 1),
                max_size=6,
            )
        )
        bursts.append(burst)
    return bursts


def _run_with_plan(bursts, num_shards, hash_seed, rebalance, plan):
    runtime = ShardedRuntime(
        num_shards,
        sharder=FlowSharder(num_shards, hash_seed=hash_seed),
        default_rate_bps=RATE_BPS,
        quantum_ns=QUANTUM_NS,
        batch_per_quantum=16,
        rebalance_interval_ns=3 * QUANTUM_NS if rebalance else None,
        steal_enabled=True,
        steal_batch=8,
        steal_min_backlog=1,
        fault_plan=plan,
    )
    submitted = {}
    total = 0
    for burst in bursts:
        packets = [Packet(flow_id=flow_id, size_bytes=1500) for flow_id in burst]
        for packet in packets:
            submitted.setdefault(packet.flow_id, []).append(packet.packet_id)
        runtime.submit_batch(packets)
        # Interleave submission with partial progress so crashes can land
        # while later bursts of the same flow are still upstream.
        runtime.run(until_ns=runtime.simulator.now_ns + 2 * QUANTUM_NS)
        total += len(packets)
    runtime.run()
    return runtime, submitted, total


def _check_invariants(runtime, submitted, total):
    faults = runtime.fault_stats
    # Conservation: delivered or counted lost (crash losses and injected
    # handoff drops) — never silently vanished.
    lost = faults.packets_lost + faults.handoff_drops
    assert runtime.transmitted + lost == total
    observed = {}
    for _now, packet in runtime.transmit_log:
        observed.setdefault(packet.flow_id, []).append(packet.packet_id)
    # Per-flow FIFO for the survivors: each flow's transmit sequence is a
    # subsequence of its submission sequence (losses allowed, reorders not).
    for flow_id, sequence in observed.items():
        order = {packet_id: i for i, packet_id in enumerate(submitted[flow_id])}
        positions = [order[packet_id] for packet_id in sequence]
        assert positions == sorted(positions), f"flow {flow_id} reordered"
    # No stranded leases, mailbox entries, ring slots, or flow-table loans.
    residual = runtime.residual_state()
    assert all(value == 0 for value in residual.values()), residual


@given(
    bursts=skewed_workloads(),
    num_shards=st.integers(min_value=2, max_value=4),
    hash_seed=st.integers(min_value=0, max_value=2**32 - 1),
    rebalance=st.booleans(),
    crash_at=st.integers(min_value=1, max_value=6),
    target=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=MAX_EXAMPLES, deadline=None)
def test_thief_death_at_random_point(
    bursts, num_shards, hash_seed, rebalance, crash_at, target
):
    plan = FaultPlan(
        [FaultEvent("shard_crash", target=target % num_shards, at=crash_at)]
    )
    runtime, submitted, total = _run_with_plan(
        bursts, num_shards, hash_seed, rebalance, plan
    )
    _check_invariants(runtime, submitted, total)


@given(
    bursts=skewed_workloads(),
    num_shards=st.integers(min_value=2, max_value=4),
    hash_seed=st.integers(min_value=0, max_value=2**32 - 1),
    rebalance=st.booleans(),
    fault_seed=st.integers(min_value=0, max_value=2**32 - 1),
    events=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=MAX_EXAMPLES, deadline=None)
def test_mixed_seeded_faults_under_stealing(
    bursts, num_shards, hash_seed, rebalance, fault_seed, events
):
    plan = FaultPlan.from_seed(
        fault_seed,
        num_shards=num_shards,
        kinds=("shard_crash", "shard_stall", "handoff_drop"),
        events=events,
        max_tick=8,
    )
    runtime, submitted, total = _run_with_plan(
        bursts, num_shards, hash_seed, rebalance, plan
    )
    _check_invariants(runtime, submitted, total)
