"""Differential tests: ``submit_batch`` against packet-by-packet ``submit``.

``submit_batch`` routes a whole burst with one flow-table probe per packet
and carries the slots it found to one commit per shard group
(``ShardedRuntime._commit_group``); ``submit`` routes and commits one packet
at a time.  On the same arrivals the two must be indistinguishable: the same
per-flow departure sequences at the same virtual times, the same modelled
cycles, migrations, counted drops and post-drain residue.

The cases are the ones where a carried slot could go wrong: a mailbox that
accepts only a prefix of a group, a handoff fault that eats the head of a
group (the slot list must shift with it), a flow that is new twice in one
burst, and bursts that land while flows are on loan to a thief.

Equality is exact only where both paths program the shard timers in the
same order.  Without stealing that is always so (shards wake in order of
first appearance in the burst either way); with stealing, waking idle
thieves after a whole group rather than after its eighth packet can permute
same-instant ticks — except on two shards, where "the shard that got the
first packet, then the other" is the only order either path can produce.
The stealing case therefore runs on two shards.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.model.packet import Packet
from repro.runtime import FlowSharder, ShardedRuntime
from repro.runtime.faults import FaultEvent, FaultPlan
from repro.runtime.sharder import DEFAULT_HASH_SEED, rss_hash

QUANTUM_NS = 10_000
RATE_BPS = 10e9  # 1500 B => 1.2 us spacing


def _drive(flow_bursts, batched, gap_ns=2 * QUANTUM_NS, repin=None, **runtime_kwargs):
    """Offer ``flow_bursts`` one burst per ``gap_ns``; returns the outcome.

    Packets carry their per-flow arrival index, so the departure record of
    a flow is comparable across the two submission paths.  ``repin`` is
    ``(burst_index, {flow_id: shard})``: pins applied just before that burst.
    """
    runtime = ShardedRuntime(quantum_ns=QUANTUM_NS, **runtime_kwargs)
    if repin is not None:
        burst_index, pins = repin

        def apply_pins():
            for flow_id, shard in pins.items():
                runtime.sharder.pin(flow_id, shard)

        runtime.simulator.schedule_at(burst_index * gap_ns - 1, apply_pins)
    per_flow: dict = {}
    accepted = [0]
    loans_at_arrival = []

    def offer(burst):
        loans_at_arrival.append(runtime.sharder.has_loans)
        if batched:
            accepted[0] += runtime.submit_batch(burst)
        else:
            accepted[0] += sum(runtime.submit(packet) for packet in burst)

    for index, flow_ids in enumerate(flow_bursts):
        burst = []
        for flow_id in flow_ids:
            arrival = per_flow.get(flow_id, 0)
            per_flow[flow_id] = arrival + 1
            burst.append(
                Packet(flow_id=flow_id, size_bytes=1500).annotate(arrival_index=arrival)
            )
        runtime.simulator.schedule_at(index * gap_ns, lambda burst=burst: offer(burst))
    runtime.run()
    departures: dict = {}
    for now_ns, packet in runtime.transmit_log:
        departures.setdefault(packet.flow_id, []).append(
            (now_ns, packet.metadata["arrival_index"])
        )
    telemetry = runtime.telemetry()
    return {
        "departures": departures,
        "accepted": accepted[0],
        "transmitted": telemetry.transmitted,
        "total_cycles": telemetry.total_cycles,
        "migrations_applied": telemetry.migrations_applied,
        "ingress_drops": telemetry.ingress_drops,
        "handoff_drops": telemetry.faults["handoff_drops"],
        "packets_stolen": telemetry.packets_stolen,
        "live_flows": telemetry.flow_state["live_flows"],
        "gc_reclaimed": telemetry.flow_state["gc_reclaimed"],
        "residual_state": runtime.residual_state(),
        "loans_at_arrival": loans_at_arrival,
    }


def _both(flow_bursts, make_plan=None, **runtime_kwargs):
    """Run both paths (a fresh fault plan each) and assert they agree."""
    outcomes = []
    for batched in (True, False):
        kwargs = dict(runtime_kwargs)
        if make_plan is not None:
            kwargs["fault_plan"] = make_plan()
        outcomes.append(_drive(flow_bursts, batched, **kwargs))
    batch, single = outcomes
    assert batch == single
    assert not any(batch["residual_state"].values())
    return batch


def _uniform_bursts(seed, num_flows=40, burst=96, bursts=12):
    rng = random.Random(seed)
    return [[rng.randrange(num_flows) for _ in range(burst)] for _ in range(bursts)]


def test_mailbox_tail_drop_commits_only_the_accepted_prefix():
    outcome = _both(
        _uniform_bursts(5), num_shards=4, default_rate_bps=RATE_BPS, mailbox_capacity=16
    )
    assert outcome["ingress_drops"] > 0  # taken < len(group) really happened
    assert outcome["transmitted"] == outcome["accepted"]


def test_handoff_drops_keep_carried_slots_aligned():
    # A handoff budget fires on the first packets a shard is ever offered,
    # when every flow is still new and every carried slot is -1.  To make
    # the drops land on *known* flows, the traffic first runs on shards 0
    # and 3 only and is then re-pinned onto the two faulted shards: the
    # next burst arrives with a real slot per packet, loses the head of
    # both groups (one budget outlasts a whole group), and each survivor
    # must still be committed — and migrated — under its own slot.
    flows = [
        flow_id for flow_id in range(200) if rss_hash(flow_id, DEFAULT_HASH_SEED) % 4 in (0, 3)
    ][:40]
    rng = random.Random(6)
    bursts = [[rng.choice(flows) for _ in range(96)] for _ in range(12)]
    pins = {flow_id: 1 + index % 2 for index, flow_id in enumerate(flows)}

    def make_plan():
        return FaultPlan(
            [
                FaultEvent("handoff_drop", target=1, count=5),
                FaultEvent("handoff_drop", target=2, count=70),  # > one group
            ]
        )

    outcome = _both(
        bursts,
        repin=(4, pins),
        num_shards=4,
        default_rate_bps=RATE_BPS,
        make_plan=make_plan,
    )
    assert outcome["handoff_drops"] == 75
    assert outcome["transmitted"] == outcome["accepted"] == 12 * 96 - 75
    assert outcome["migrations_applied"] == len(flows)


def test_new_flow_twice_in_one_burst():
    # Every burst opens two flows never seen before, each more than once,
    # next to a long-lived one; the tight GC interval reclaims the one-burst
    # flows, so later bursts also re-create slots that were recycled.
    bursts = [
        [100 + i, 7, 100 + i, 7, 200 + i, 200 + i, 200 + i] for i in range(30)
    ]
    outcome = _both(
        bursts, num_shards=4, default_rate_bps=RATE_BPS, gc_interval_packets=16
    )
    assert outcome["transmitted"] == 30 * 7
    assert outcome["gc_reclaimed"] > 0
    assert all(
        [index for _now, index in departures] == list(range(len(departures)))
        for departures in outcome["departures"].values()
    )


def test_bursts_landing_while_flows_are_on_loan():
    # One elephant and eight mid-sized flows that all hash to shard 0 of 2:
    # shard 1 starts empty and steals, the rebalancer re-pins mid-sized
    # flows over to it, and the elephant's backlog outlives the burst gap,
    # so later bursts are routed while leases are out.
    on_shard_0 = [
        flow_id for flow_id in range(1, 400) if rss_hash(flow_id, DEFAULT_HASH_SEED) % 2 == 0
    ]
    elephant, mids = on_shard_0[0], on_shard_0[1:9]
    rng = random.Random(3)
    bursts = []
    for _ in range(30):
        burst = [elephant] * 80 + [flow_id for flow_id in mids for _ in range(6)]
        rng.shuffle(burst)
        bursts.append(burst)
    outcome = _both(
        bursts,
        gap_ns=8 * QUANTUM_NS,
        num_shards=2,
        default_rate_bps=RATE_BPS,
        steal_enabled=True,
        steal_min_backlog=1,
        rebalance_interval_ns=16 * QUANTUM_NS,
    )
    assert outcome["transmitted"] == 30 * 128
    assert outcome["packets_stolen"] > 0
    assert outcome["migrations_applied"] > 0
    assert any(outcome["loans_at_arrival"])  # loans existed mid-run, at a burst


def test_loan_overrides_a_fresh_pin_for_a_drained_flow():
    # The narrow case only the loan rule decides: a mouse and an elephant
    # share shard 0, shard 1 steals a window holding the mouse's last packet
    # and a longer run of the elephant's, and the thief releases the mouse's
    # first — so the mouse has nothing in flight while its lease is still
    # out.  Re-pinned to shard 1 in that gap, its next packet must still go
    # home to shard 0 (its pacing state is inside the lease), in a burst as
    # in a single submit; the migration only lands after the lease returns.
    on_shard_0 = [
        flow_id for flow_id in range(1, 100) if rss_hash(flow_id, DEFAULT_HASH_SEED) % 2 == 0
    ]
    mouse, elephant = on_shard_0[:2]
    bursts = [
        [mouse, elephant] * 3 + [elephant] * 5,  # t = 0
        [mouse, elephant],  # t = 35 us: lease out, mouse drained and re-pinned
        [],
        [],
        [mouse],  # t = 140 us: lease long returned
    ]
    outcome = _both(
        bursts,
        gap_ns=35_000,
        repin=(1, {mouse: 1}),
        num_shards=2,
        default_rate_bps=1e9,  # 12 us a packet: the window spans several ticks
        steal_enabled=True,
        steal_min_backlog=1,
        steal_horizon_ns=100_000,
    )
    assert outcome["loans_at_arrival"] == [False, True, True, False, False]
    assert outcome["packets_stolen"] > 0
    assert outcome["migrations_applied"] == 1
    assert [index for _now, index in outcome["departures"][mouse]] == [0, 1, 2, 3, 4]


# -- placement caching --------------------------------------------------------
#
# Routing step 3 asks the sharder once per flow and keeps the answer in the
# driver's ``placed`` column.  A change the driver makes itself (a
# rebalancer pin, a crash restart's forget) drops that one flow's answer;
# any other move of ``FlowSharder.epoch`` drops them all.  The cases below
# are the ones where a kept answer could go stale: the sharder is edited
# *directly*, between bursts, for a flow that is idle but still holds its
# slot (GC off, so the slot — and the cached placement — outlive the
# drain).  Two shards with stealing on, for the reason in the module
# docstring; each case runs through ``submit_batch`` (epoch checked at the
# top of the burst) and through ``submit`` (checked in ``_route``).

SLOW_RATE_BPS = 1e6  # 1500 B => 12 ms a packet: pacing state outlives a drain
GAP_NS = 12_000_000


def _flows_hashed_to(shard, count, num_shards=2):
    flows = (
        flow_id
        for flow_id in range(1, 1_000)
        if rss_hash(flow_id, DEFAULT_HASH_SEED) % num_shards == shard
    )
    return [next(flows) for _ in range(count)]


def _offer(runtime, flow_ids, batched):
    packets = [Packet(flow_id=flow_id, size_bytes=1500) for flow_id in flow_ids]
    if batched:
        runtime.submit_batch(packets)
    else:
        for packet in packets:
            runtime.submit(packet)
    return packets


def _cached_runtime(batched, **kwargs):
    """A two-shard runtime plus a flow whose placement on shard 0 is cached."""
    runtime = ShardedRuntime(
        2,
        quantum_ns=QUANTUM_NS,
        default_rate_bps=SLOW_RATE_BPS,
        steal_enabled=True,
        gc_interval_packets=None,
        **kwargs,
    )
    (flow,) = _flows_hashed_to(0, 1)
    _offer(runtime, [flow], batched)  # new flow: no slot to keep the answer in
    runtime.run()
    _offer(runtime, [flow], batched)  # idle, holds a slot: asked, and kept
    runtime.run()
    asked = runtime.sharder.stats.lookups
    (packet,) = _offer(runtime, [flow], batched)
    runtime.run()
    assert runtime.sharder.stats.lookups == asked  # the kept answer was used
    assert packet.metadata["shard"] == 0
    return runtime, flow


def _assert_moved_with_its_shaper(runtime, flow, batched, src, dst):
    next_free = runtime.workers[src].pacing.next_free_ns(flow)
    assert next_free > runtime.simulator.now_ns  # a fresh shaper would send now
    migrations = runtime.migrations_applied
    (packet,) = _offer(runtime, [flow], batched)
    runtime.run()
    assert packet.metadata["shard"] == dst
    assert packet.metadata["send_at_ns"] == next_free
    assert runtime.migrations_applied == migrations + 1
    assert flow not in runtime.workers[src].pacing
    assert runtime.workers[dst].pacing.next_free_ns(flow) == next_free + GAP_NS
    assert not any(runtime.residual_state().values())


@pytest.mark.parametrize("batched", [True, False])
def test_direct_pin_between_bursts_moves_an_idle_flow_that_holds_a_slot(batched):
    runtime, flow = _cached_runtime(batched)
    runtime.sharder.pin(flow, 1)
    _assert_moved_with_its_shaper(runtime, flow, batched, src=0, dst=1)


@pytest.mark.parametrize("batched", [True, False])
@pytest.mark.parametrize("release", ["unpin", "forget"])
def test_direct_unpin_or_forget_between_bursts_moves_the_flow_back(release, batched):
    runtime, flow = _cached_runtime(batched)
    runtime.sharder.pin(flow, 1)
    _assert_moved_with_its_shaper(runtime, flow, batched, src=0, dst=1)
    asked = runtime.sharder.stats.lookups
    _offer(runtime, [flow], batched)
    runtime.run()
    assert runtime.sharder.stats.lookups == asked  # the pinned answer is kept too
    getattr(runtime.sharder, release)(flow)  # forget drops the pin too
    _assert_moved_with_its_shaper(runtime, flow, batched, src=1, dst=0)


@pytest.mark.parametrize("batched", [True, False])
def test_forget_of_an_unpinned_flow_keeps_its_cached_placement(batched):
    # Placement is pin, else hash: forgetting a flow that holds no pin
    # changes no answer, so the epoch stands and the kept answer is used.
    runtime, flow = _cached_runtime(batched)
    epoch = runtime.sharder.epoch
    runtime.sharder.forget(flow)
    assert runtime.sharder.epoch == epoch
    asked = runtime.sharder.stats.lookups
    (packet,) = _offer(runtime, [flow], batched)
    runtime.run()
    assert runtime.sharder.stats.lookups == asked
    assert packet.metadata["shard"] == 0
    assert not any(runtime.residual_state().values())


def test_a_rebalancing_round_keeps_the_placements_it_did_not_move():
    # Three flows on shard 0 and one on shard 1: the round moves exactly
    # one flow, and the others' kept answers outlive it.
    (moved, kept, small), (other,) = _flows_hashed_to(0, 3), _flows_hashed_to(1, 1)
    runtime = ShardedRuntime(
        2,
        quantum_ns=QUANTUM_NS,
        default_rate_bps=RATE_BPS,
        gc_interval_packets=None,
        rebalance_interval_ns=10 * QUANTUM_NS,
    )
    _offer(runtime, [moved] * 4 + [kept] * 6 + [small, other], batched=True)
    runtime.run(until_ns=2 * QUANTUM_NS)
    _offer(runtime, [kept], batched=True)  # holds a slot: asked, and kept
    runtime.run()
    (migration,) = runtime.rebalancer.history
    assert (migration.flow_id, migration.dst_shard) == (moved, 1)
    asked = runtime.sharder.stats.lookups
    packets = _offer(runtime, [kept, moved], batched=True)
    runtime.run()
    assert runtime.sharder.stats.lookups == asked + 1  # only the moved flow asks
    assert [packet.metadata["shard"] for packet in packets] == [0, 1]


@pytest.mark.parametrize("driver", ["rebalance", "gc"])
def test_a_direct_pin_outlives_a_driver_change_before_the_next_burst(driver):
    # The direct pin moves the epoch; before the next burst the driver makes
    # a change of its own (a rebalancing round re-pins another flow, or a GC
    # sweep runs).  That change must not take the epoch move for its own:
    # the pinned flow's kept answer is stale, and the next burst drops it.
    flow, hot, warm = _flows_hashed_to(0, 3)
    runtime = ShardedRuntime(
        2,
        quantum_ns=QUANTUM_NS,
        default_rate_bps=SLOW_RATE_BPS,
        gc_interval_packets=1 if driver == "gc" else None,
        rebalance_interval_ns=GAP_NS // 3 if driver == "rebalance" else None,
    )
    _offer(runtime, [flow], batched=True)
    runtime.run(until_ns=GAP_NS // 12)
    _offer(runtime, [flow] + [hot] * 3 + [warm] * 3, batched=True)  # flow: asked, kept
    runtime.run(until_ns=GAP_NS // 4)
    runtime.sharder.pin(flow, 1)
    runtime.run(until_ns=GAP_NS + GAP_NS // 6)  # flow's paced packet has left
    assert flow not in runtime._in_flight
    if driver == "rebalance":
        assert [move.flow_id for move in runtime.rebalancer.history] == [hot]
    else:
        assert runtime.flows.stats.gc_sweeps > 0
    (packet,) = _offer(runtime, [flow], batched=True)
    runtime.run()
    assert packet.metadata["shard"] == 1


class _NeverCachedSharder(FlowSharder):
    """A sharder whose epoch moves on every read.

    The driver finds its cached placements out of date at every routing
    decision and asks again — the twin the cached runtime must equal.
    """

    _reads = 0

    @property
    def epoch(self):
        self._reads += 1
        return self._reads

    @epoch.setter
    def epoch(self, _value):
        pass


_FLOWS = _flows_hashed_to(0, 4) + _flows_hashed_to(1, 2)
_flow = st.sampled_from(_FLOWS)
_operation = st.one_of(
    st.tuples(st.just("burst"), st.lists(_flow, min_size=1, max_size=12)),
    st.tuples(st.just("pin"), _flow, st.integers(0, 1)),
    st.tuples(st.just("unpin"), _flow),
    st.tuples(st.just("forget"), _flow),
    st.tuples(st.just("idle")),
)


def _replay(operations, sharder, batched, rebalance=False, crash=None):
    """Apply ``operations`` directly, between partial runs; returns the outcome.

    ``rebalance`` attaches a rebalancer whose rounds pin flows between the
    operations; ``crash`` is ``(shard, tick)``: that shard crashes on that
    tick and its restart forgets the flows homed there with nothing in
    flight, while the others ride across.
    """
    runtime = ShardedRuntime(
        2,
        sharder=sharder(2),
        quantum_ns=QUANTUM_NS,
        default_rate_bps=RATE_BPS,
        steal_enabled=True,
        steal_min_backlog=1,
        gc_interval_packets=64,  # slots are reclaimed, but not at every burst
        rebalance_interval_ns=QUANTUM_NS if rebalance else None,
        fault_plan=(
            None
            if crash is None
            else FaultPlan([FaultEvent("shard_crash", target=crash[0], at=crash[1])])
        ),
    )
    arrivals: dict = {}
    for operation in operations:
        kind = operation[0]
        if kind == "burst":
            packets = _offer(runtime, operation[1], batched)
            for packet in packets:
                arrival = arrivals.get(packet.flow_id, 0)
                arrivals[packet.flow_id] = arrival + 1
                packet.annotate(arrival_index=arrival)
            # Less than the burst needs to drain: the next operation finds
            # some flows in flight (residency) and some idle (placement).
            runtime.run(until_ns=runtime.simulator.now_ns + 2 * QUANTUM_NS)
        elif kind == "idle":
            runtime.run()
        else:
            getattr(runtime.sharder, kind)(*operation[1:])
    runtime.run()
    telemetry = runtime.telemetry()
    return {
        "departures": [
            (now_ns, packet.flow_id, packet.metadata["arrival_index"], packet.metadata["shard"])
            for now_ns, packet in runtime.transmit_log
        ],
        "total_cycles": telemetry.total_cycles,
        "migrations_applied": telemetry.migrations_applied,
        "packets_stolen": telemetry.packets_stolen,
        "gc_reclaimed": telemetry.flow_state["gc_reclaimed"],
        "pins": runtime.sharder.stats.pins,
        "faults": telemetry.faults,
        "residual_state": runtime.residual_state(),
    }


def _assert_twins_agree(operations, rebalance=False, crash=None):
    twin = dict(rebalance=rebalance, crash=crash)
    cached = _replay(operations, FlowSharder, batched=True, **twin)
    assert cached == _replay(operations, FlowSharder, batched=False, **twin)
    assert cached == _replay(operations, _NeverCachedSharder, batched=False, **twin)
    assert not any(cached["residual_state"].values())
    return cached


# A rebalancing round whose best candidates tie: the batched path records a
# burst's window shard group by shard group, the per-packet path in arrival
# order.  A plan that kept the first tied candidate picked a different flow
# on each path, and only one of the two arrives again (migrations_applied 0
# against 1).
_TIED_ROUND = [("burst", [4, 1]), ("burst", [4, 1, 6, 9]), ("burst", [4])]


def test_a_tied_rebalancing_round_migrates_the_same_flow_on_both_paths():
    _assert_twins_agree(_TIED_ROUND, rebalance=True)


@settings(max_examples=150, deadline=None)
@given(
    operations=st.lists(_operation, min_size=1, max_size=40),
    rebalance=st.booleans(),
    crash=st.none() | st.tuples(st.integers(0, 1), st.integers(1, 4)),
)
@example(operations=_TIED_ROUND, rebalance=True, crash=None)
def test_cached_placement_equals_a_twin_that_asks_every_time(operations, rebalance, crash):
    _assert_twins_agree(operations, rebalance, crash)
