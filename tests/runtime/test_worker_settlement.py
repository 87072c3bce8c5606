"""A shard tick settles its queue work with the cost model once, not twice.

``ShardWorker.tick`` runs the work of ``ingest`` then of ``drain_due`` and
charges the queue's operation counters to its ``CostModel`` in one
settlement at the end.  That must charge exactly what the two public calls
charge with a settlement each — per operation and in total, tick after tick
— and the public calls must still return with nothing left unsettled.
"""

from hypothesis import given, settings, strategies as st

from repro.core.model.packet import Packet
from repro.runtime.worker import ShardWorker

QUANTUM_NS = 10_000


def _settled(worker):
    """True when no queue work is waiting to be charged."""
    before = (worker.cost.breakdown(), worker.cost.total_cycles)
    worker._charge_queue_delta()
    return (worker.cost.breakdown(), worker.cost.total_cycles) == before


def _burst(flow_ids):
    return [Packet(flow_id=flow_id, size_bytes=1500) for flow_id in flow_ids]


@given(
    bursts=st.lists(
        st.lists(st.integers(min_value=0, max_value=30), max_size=40),
        min_size=1,
        max_size=12,
    ),
    rate=st.sampled_from([None, 10e9, 50e6]),
    ingest_limit=st.sampled_from([None, 5]),
    drain_limit=st.sampled_from([None, 1, 7, 64]),
)
@settings(max_examples=80, deadline=None)
def test_tick_charges_what_ingest_then_drain_due_charge(
    bursts, rate, ingest_limit, drain_limit
):
    ticking = ShardWorker(0, default_rate_bps=rate)
    calling = ShardWorker(0, default_rate_bps=rate)
    now = 0
    for flow_ids in bursts:
        ticking.mailbox.push_batch(_burst(flow_ids))
        calling.mailbox.push_batch(_burst(flow_ids))

        released = ticking.tick(now, ingest_limit, drain_limit)
        assert _settled(ticking)

        calling.cost.charge("batch_overhead")  # tick's own fixed charge
        calling.ingest(now, ingest_limit)
        assert _settled(calling)
        expected = calling.drain_due(now, drain_limit)
        assert _settled(calling)

        assert [p.flow_id for p in released] == [p.flow_id for p in expected]
        assert ticking.cost.breakdown() == calling.cost.breakdown()
        assert ticking.cost.total_cycles == calling.cost.total_cycles
        # The runtime's timer policy peeks the queue between ticks; that
        # work is charged by the next settlement on both sides.
        assert ticking.next_wake_ns(now, QUANTUM_NS) == calling.next_wake_ns(
            now, QUANTUM_NS
        )
        now += QUANTUM_NS
