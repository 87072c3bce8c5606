"""The transmit log's contract: recorded per drain, read as one flat list.

``ShardedRuntime._deliver`` logs one ``(now_ns, released)`` entry per drain;
``transmit_log`` is a property over one persistent list of
``(now_ns, packet)`` that it extends, on read, from the drains logged since
the previous read.  Readers must not be able to tell: the list keeps its
identity, keeps edits made in place, grows in release order, and equals the
order ``_deliver`` was handed its drains in — packet for packet, lease
flushes included.  What the representation buys is pinned too: a run whose
log is never read keeps no GC-tracked object per packet.
"""

import gc
import random

from repro.core.model.packet import Packet
from repro.runtime import ShardedRuntime
from repro.runtime.sharder import DEFAULT_HASH_SEED, rss_hash

QUANTUM_NS = 10_000
RATE_BPS = 10e9  # 1500 B => 1.2 us spacing


def _burst(flow_ids):
    return [Packet(flow_id=flow_id, size_bytes=1500) for flow_id in flow_ids]


def _runtime(**kwargs):
    kwargs.setdefault("num_shards", 2)
    return ShardedRuntime(quantum_ns=QUANTUM_NS, default_rate_bps=RATE_BPS, **kwargs)


def test_every_read_returns_the_same_list():
    runtime = _runtime()
    log = runtime.transmit_log
    assert log == []
    runtime.submit_at(0, _burst(range(40)))
    runtime.run()
    assert runtime.transmit_log is log
    assert len(log) == 40
    assert runtime.transmit_log is log and len(log) == 40  # a read adds nothing twice


def test_an_in_place_edit_survives_the_next_read():
    runtime = _runtime()
    runtime.submit_at(0, _burst([1, 2, 1, 2, 3]))
    runtime.run()
    log = runtime.transmit_log
    swapped = [log[1], log[0], *log[2:]]
    log[0], log[1] = log[1], log[0]
    assert runtime.transmit_log == swapped
    # ... and across a later drain: the edit stays, the new departures append.
    runtime.submit_at(runtime.simulator.now_ns + QUANTUM_NS, _burst([4, 5]))
    runtime.run()
    assert runtime.transmit_log[:5] == swapped
    assert [packet.flow_id for _now, packet in runtime.transmit_log[5:]] == [4, 5]


def test_reads_around_a_second_run_see_later_departures_appended_in_order():
    runtime = _runtime()
    early, late = _burst([7] * 30 + [8] * 30), _burst([7] * 20 + [9] * 20)
    runtime.submit_at(0, early)
    runtime.submit_at(1_000_000, late)
    runtime.run(until_ns=500_000)
    log = runtime.transmit_log
    first = list(log)
    assert {packet.packet_id for _now, packet in first} == {p.packet_id for p in early}
    runtime.run()
    assert runtime.transmit_log is log
    assert log[: len(first)] == first
    assert {packet.packet_id for _now, packet in log[len(first) :]} == {
        p.packet_id for p in late
    }
    times = [now for now, _packet in log]
    assert times == sorted(times)
    assert all(packet.departure_ns == now for now, packet in log)


def test_record_transmits_off_stays_empty():
    runtime = _runtime(record_transmits=False)
    runtime.submit_at(0, _burst(range(64)))
    runtime.run()
    assert runtime.transmitted == 64
    assert runtime.transmit_log == []
    assert runtime.transmit_log is runtime.transmit_log


def test_assigning_the_log_replaces_it_and_drops_unread_drains():
    runtime = _runtime()
    runtime.submit_at(0, _burst(range(8)))
    runtime.run()
    runtime.transmit_log = []  # e.g. a caller resetting between phases
    assert runtime.transmit_log == []
    runtime.submit_at(runtime.simulator.now_ns + QUANTUM_NS, _burst([1, 2]))
    runtime.run()
    assert [packet.flow_id for _now, packet in runtime.transmit_log] == [1, 2]


def test_flat_view_equals_per_drain_order_under_stealing_and_rebalancing():
    # The scenario of test_submit_differential's on-loan case: an elephant
    # and eight mid-sized flows all hashed to shard 0 of 2, so shard 1
    # steals (lease releases) and the rebalancer re-pins flows across.  A
    # steal batch smaller than the 100 us steal window leaves due packets of
    # leased flows behind on the victim, which defers them and flushes them
    # when the lease returns (end_lease).  Every one of those paths reaches
    # _deliver with its own list, and the oracle records each as it comes.
    on_shard_0 = [
        flow_id for flow_id in range(1, 400) if rss_hash(flow_id, DEFAULT_HASH_SEED) % 2 == 0
    ]
    elephant, mids = on_shard_0[0], on_shard_0[1:9]
    rng = random.Random(3)
    seen = []
    runtime = _runtime(
        steal_enabled=True,
        steal_min_backlog=1,
        steal_batch=16,
        rebalance_interval_ns=16 * QUANTUM_NS,
    )
    runtime._stealer.horizon_ns = 100_000
    deliver = runtime._deliver

    def recording_deliver(released, now_ns, shard):
        seen.extend((now_ns, packet.packet_id, shard) for packet in released)
        deliver(released, now_ns, shard)

    runtime._deliver = recording_deliver
    for index in range(30):
        flow_ids = [elephant] * 80 + [flow_id for flow_id in mids for _ in range(6)]
        rng.shuffle(flow_ids)
        runtime.submit_at(index * 8 * QUANTUM_NS, _burst(flow_ids))
    runtime.run()
    telemetry = runtime.telemetry()
    assert telemetry.packets_stolen > 0 and telemetry.migrations_applied > 0
    assert sum(shard.steals.drains_deferred for shard in telemetry.shards) > 0
    assert sum(shard.steals.leases_returned for shard in telemetry.shards) > 0
    assert len(seen) == 30 * 128
    assert [
        (now, packet.packet_id, shard)
        for (now, packet), shard in zip(runtime.transmit_log, runtime.transmit_shards)
    ] == seen
    assert len(runtime.transmit_shards) == len(seen)


def _tracked_objects():
    gc.collect()
    return len(gc.get_objects())


def test_an_unread_log_keeps_no_tracked_object_per_packet():
    packets = 16_384
    slack = 2_048  # one tuple + one list per drain, plus table growth
    runtime = _runtime(num_shards=1)
    for index in range(packets // 128):
        runtime.submit_at(index * 8 * QUANTUM_NS, _burst(range(128)))
    before = _tracked_objects()
    runtime.run()
    assert runtime.transmitted == packets
    unread = _tracked_objects()
    assert unread - before < slack
    # The per-packet view exists once somebody asks for it — and only then.
    log = runtime.transmit_log
    assert len(log) == packets and all(gc.is_tracked(entry) for entry in log)
    assert _tracked_objects() - unread >= packets - slack


def test_an_unread_log_keeps_no_tracked_object_per_drain():
    # Bursts held by the test and fed one at a time, so nothing the run
    # frees (scheduled closures, their handles) offsets what it keeps.
    packets = 16_384
    runtime = _runtime(num_shards=1)
    bursts = [_burst(range(128)) for _ in range(packets // 128)]
    runtime.submit_batch(bursts[0])  # warm-up: tables and free lists grown
    runtime.run()
    before = _tracked_objects()
    for burst in bursts[1:]:
        runtime.submit_batch(burst)
        runtime.run()
    assert runtime.transmitted == packets
    drains = sum(shard.ticks for shard in runtime.telemetry().shards)
    assert drains >= packets // 64
    assert _tracked_objects() - before < 64
    assert len(runtime.transmit_log) == packets


def test_the_sending_shard_is_logged_per_drain_and_expanded_only_when_read():
    runtime = _runtime(num_shards=4)
    flows = range(64)
    runtime.submit_at(0, _burst(flows))
    runtime.run()
    log = runtime.transmit_log
    assert len(log) == 64 and runtime._transmit_shards == []  # not built by a log read
    shards = runtime.transmit_shards
    assert shards is runtime.transmit_shards and len(shards) == 64
    placement = {flow_id: runtime.sharder.shard_for(flow_id) for flow_id in flows}
    assert [placement[packet.flow_id] for _now, packet in log] == shards
    # A later drain extends both views; assigning the log resets them.
    runtime.submit_at(runtime.simulator.now_ns + QUANTUM_NS, _burst([3]))
    runtime.run()
    assert runtime.transmit_shards[64:] == [placement[3]]
    runtime.transmit_log = [log[0]]
    assert runtime.transmit_shards == [-1]
