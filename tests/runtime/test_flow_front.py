"""The flow table's bounded dict front against a twin that keeps nothing.

``FlowTable`` answers a flow it already found from a plain dict (flow id ->
slot) before probing its array index; ``ShardedRuntime.submit_batch`` and
``PacingTable.stamp_burst`` read that dict inline.  The front is a cache and
nothing else: a table whose front never keeps an entry (the front of a cap
of 0) must hand out the same slots, ``created`` flags, stamps, columns,
counters and length under any mix of operations, the flow GC's ``expire``
among them — including the inserts that force a rehash and the ones that
reuse a tombstone.  After every step the front holds at most ``_FRONT_CAP``
entries and only live flows at their own slots: a flow -> slot answer is
kept until the flow is removed, the one event the front forgets on.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.core.model.packet import Packet
from repro.core.model.transactions import RateLimit, ShapingTransaction
from repro.runtime import flowstate
from repro.runtime.flowstate import PacingTable

#: Enough ids that a table of them rehashes (64 cells grow at 43 live flows).
_UNIVERSE = 90
#: Every third flow is paced at its own rate; the rest take the default.
_RATES = {flow_id: 1e6 * (1 + flow_id % 7) for flow_id in range(0, _UNIVERSE, 3)}


class _KeepsNothing(dict):
    """A front that never stores: every lookup of its table probes."""

    def __setitem__(self, key, value):
        pass


def _twins():
    cached = PacingTable(shard_id=3)
    probing = PacingTable(shard_id=3)
    probing._front = _KeepsNothing()
    return cached, probing


def _state(table):
    return (
        list(table.key),
        [list(column) for column in table._columns],
        table.stats.as_dict(),
        len(table),
        table.slot_limit,
    )


def _assert_front_is_a_cache(table, cap):
    front = table._front
    assert len(front) <= cap
    for flow_id, slot in front.items():
        assert table.key[slot] == flow_id


_flow = st.integers(min_value=0, max_value=_UNIVERSE - 1)
_operation = st.one_of(
    st.tuples(st.sampled_from(["ensure", "lookup", "remove", "detach"]), _flow),
    st.tuples(
        st.sampled_from(["expire", "touch"]), _flow, st.integers(min_value=0, max_value=2 * 10**7)
    ),
    st.tuples(
        st.just("install"),
        _flow,
        st.integers(min_value=0, max_value=10**9),
        st.integers(min_value=0, max_value=4_000),
    ),
    st.tuples(
        st.just("burst"),
        st.lists(_flow, min_size=1, max_size=24),
        st.sampled_from([None, 5e6]),
        st.integers(min_value=0, max_value=10**7),
    ),
    # A wave of fresh flows: forces the rehash, then a wave of removals
    # leaves tombstones the next inserts reuse.
    st.tuples(st.just("wave"), st.integers(min_value=0, max_value=_UNIVERSE - 1)),
)


def _apply(table, operation):
    kind = operation[0]
    if kind == "ensure":
        slot = table.slot_for(operation[1], 3e6)  # ensure(), plus a rate to stamp at
        return slot, table.created
    if kind == "lookup":
        return table.lookup(operation[1]), operation[1] in table
    if kind == "remove":
        return table.remove(operation[1])
    if kind == "expire":
        return table.expire(operation[1], operation[2])
    if kind == "touch":
        _kind, flow_id, now_ns = operation
        return table.touch(flow_id, 6e6, 700, now_ns), table.last_slot
    if kind == "detach":
        transaction = table.detach(operation[1])
        if transaction is None:
            return None
        limit = transaction.limit
        return (
            transaction.name,
            limit.rate_bps,
            limit.burst_bytes,
            transaction.next_free_ns,
            transaction.credit_bytes,
        )
    if kind == "install":
        _kind, flow_id, next_free_ns, credit = operation
        table.install(
            flow_id,
            ShapingTransaction.restore(
                "handoff",
                RateLimit(2e6, credit),
                next_free_ns=next_free_ns,
                credit_bytes=credit,
            ),
        )
        return table.lookup(flow_id)
    if kind == "burst":
        _kind, flow_ids, default_rate, now_ns = operation
        packets = [
            Packet(flow_id=flow_id, size_bytes=64 + 97 * (flow_id % 15))
            for flow_id in flow_ids
        ]
        stamped = table.stamp_burst(packets, _RATES.get, default_rate, now_ns)
        assert stamped is packets
        return [(packet.flow_id, packet.rank, packet.metadata) for packet in stamped]
    assert kind == "wave"
    start = operation[1]
    flow_ids = [(start + offset) % _UNIVERSE for offset in range(50)]
    created = [(table.slot_for(flow_id, 4e6), table.created) for flow_id in flow_ids]
    looked = [table.lookup(flow_id) for flow_id in flow_ids]
    removed = [table.remove(flow_id) for flow_id in flow_ids[::2]]
    return created, looked, removed


@given(
    operations=st.lists(_operation, max_size=60),
    cap=st.sampled_from([1, 4, 1024]),
)
@settings(max_examples=150, deadline=None)
def test_front_matches_a_never_cached_twin(operations, cap):
    with mock.patch.object(flowstate, "_FRONT_CAP", cap):
        cached, probing = _twins()
        for operation in operations:
            assert _apply(cached, operation) == _apply(probing, operation)
            assert _state(cached) == _state(probing)
            _assert_front_is_a_cache(cached, cap)
            assert len(probing._front) == 0


def test_a_hit_fills_the_front_and_a_create_does_not():
    table = PacingTable(shard_id=0)
    table.ensure(7)
    assert 7 not in table._front  # one-packet flows stay out
    slot = table.lookup(7)
    assert table._front == {7: slot}
    assert table.ensure(7) == slot and not table.created
    table.remove(7)
    assert table._front == {}
    assert table.lookup(7) == -1


def test_the_front_stops_growing_at_its_cap():
    table = PacingTable(shard_id=0)
    flows = range(flowstate._FRONT_CAP + 100)
    for flow_id in flows:
        table.ensure(flow_id)
    for flow_id in flows:
        table.lookup(flow_id)
    assert len(table._front) == flowstate._FRONT_CAP
    # Flows past the cap are still found, by probing.
    assert all(table.key[table.lookup(flow_id)] == flow_id for flow_id in flows)


def test_memory_bytes_counts_the_front():
    table = PacingTable(shard_id=0)
    for flow_id in range(200):
        table.ensure(flow_id)
    empty_front = table.memory_bytes()
    for flow_id in range(200):
        table.lookup(flow_id)
    assert table.memory_bytes() > empty_front
