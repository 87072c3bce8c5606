"""The rebalancer's plan depends on what the window holds, not its order.

``ShardRebalancer.plan`` breaks ties between equally good candidates by flow
id, so the same window contents plan the same migrations however they were
recorded: one ``record`` per flow, one per packet, or ``record_burst`` over
shard groups (the batched path) — in any order.  The property below draws
window contents on top of pins and loans and checks exactly that.

A flow's window residency is the shard its packets last ran on, so each
flow's packets are drawn on one shard: a flow recorded on two shards has
different contents under different orders, and a different plan is right.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import FlowSharder, ShardRebalancer

NUM_SHARDS = 4

# flow -> (shard, packets of each record call); few shards and a heavy
# shard 0 make imbalanced windows with equal-load candidates common.
_contents = st.dictionaries(
    st.integers(0, 39),
    st.tuples(
        st.sampled_from((0, 0, 0, 1, 2, 3)),
        st.lists(st.integers(1, 4), min_size=1, max_size=3),
    ),
    min_size=1,
    max_size=24,
)


def _sharder(pins, loans):
    sharder = FlowSharder(NUM_SHARDS)
    for flow_id, shard in pins.items():
        sharder.pin(flow_id, shard)
    for flow_id, shard in loans.items():
        sharder.lend(flow_id, shard)
    return sharder


def _plan(sharder):
    plan = ShardRebalancer(sharder, imbalance_threshold=1.0).plan()
    return [(move.flow_id, move.src_shard, move.dst_shard, move.window_packets) for move in plan]


@settings(max_examples=300, deadline=None)
@given(
    contents=_contents,
    pins=st.dictionaries(st.integers(0, 39), st.integers(0, NUM_SHARDS - 1), max_size=6),
    loans=st.dictionaries(st.integers(0, 39), st.integers(0, NUM_SHARDS - 1), max_size=4),
    data=st.data(),
)
def test_plan_is_the_same_for_every_record_order(contents, pins, loans, data):
    calls = [
        (flow_id, shard, packets)
        for flow_id, (shard, chunks) in contents.items()
        for packets in chunks
    ]
    reference = _sharder(pins, loans)
    for flow_id, shard, packets in sorted(calls):
        reference.record(flow_id, shard, packets)
    expected = _plan(reference)

    permuted = _sharder(pins, loans)
    for flow_id, shard, packets in data.draw(st.permutations(calls), label="record order"):
        permuted.record(flow_id, shard, packets)
    assert _plan(permuted) == expected

    # One packet at a time, and as record_burst over per-shard groups,
    # each in a drawn packet order.
    packets = [(flow_id, shard) for flow_id, shard, count in calls for _ in range(count)]
    per_packet = _sharder(pins, loans)
    for flow_id, shard in data.draw(st.permutations(packets), label="packet order"):
        per_packet.record(flow_id, shard)
    assert _plan(per_packet) == expected

    burst = _sharder(pins, loans)
    groups = {}
    for flow_id, shard in data.draw(st.permutations(packets), label="burst order"):
        groups.setdefault(shard, []).append(flow_id)
    for shard, flow_ids in groups.items():
        burst.record_burst(flow_ids, shard)
    assert _plan(burst) == expected

    for sharder in (permuted, per_packet, burst):
        assert sharder.flow_loads() == reference.flow_loads()
        assert sharder.flow_residency() == reference.flow_residency()
        assert sharder.shard_loads() == reference.shard_loads()
