"""The hot path's heap-block budget: the runtime writes no dict key per packet.

``test_transmit_log.py`` pins GC-tracked objects; this pins plain heap
blocks, which that rule cannot see.  The first key written into a packet's
``metadata`` dict allocates the dict's key table — one live block per
packet for as long as the packet lives — and nothing in the runtime reads
such a key.  So after a 20,000-packet run with the cyclic collector off,
the blocks the run leaves alive, per packet, stay under a ceiling:

* always-due round-robin traffic on one shard (the shape of the
  ``uniform_s1`` benchmark workload): what is left is one departure-time
  int per drain, shared by the drain's packets (0.037 a packet);
* Zipf traffic over two RX cores and four stealing, rebalancing shards
  (``zipf_ingress_steal_s4``'s shape): drains are smaller, and a packet
  paced behind its flow's earlier ones keeps its own send-time int alive
  in ``Packet.rank`` (0.723 a packet).  Neither is a dict key; a key per
  stolen packet, or per stamped one, lands above the ceiling.

Blocks counted after the run miss what lives only while a packet is queued,
so the shaped contract counts GC-tracked objects mid-run: the shard queue
holds the packet itself and nothing else per packet, which is what keeps a
deep shaping backlog from driving CPython's cyclic collector.
"""

import gc
import sys

import pytest

from repro.scenario import compile_scenario, load_toml

PACKETS = 20_000

_UNIFORM_S1 = """
name = "uniform_s1_blocks"
seed = 1
[topology]
kind = "runtime"
[policy]
queue = "circular_ffs"
default_rate_bps = 10e9
[traffic]
pattern = "round_robin"
num_flows = 256
total_packets = 20000
offered_pps = 1.6e6
burst_size = 128
packet_bytes = 1500
[runtime]
shards = 1
quantum_ns = 10000
batch_per_quantum = 64
"""

_ZIPF_INGRESS_STEAL_S4 = """
name = "zipf_ingress_steal_s4_blocks"
seed = 1
[topology]
kind = "runtime"
[policy]
queue = "circular_ffs"
default_rate_bps = 10e9
[traffic]
pattern = "zipf"
zipf_skew = 1.2
num_flows = 256
total_packets = 20000
offered_pps = 1.6e6
burst_size = 128
packet_bytes = 1500
[ingress]
cores = 2
admission = "none"
backpressure = true
[runtime]
shards = 4
quantum_ns = 10000
batch_per_quantum = 64
stealing = true
rebalance_interval_ns = 160000
"""


def _blocks_per_packet(toml_text):
    compiled = compile_scenario(load_toml(toml_text))
    bursts = list(compiled.source.bursts(PACKETS))
    runtime = compiled.runtime
    gc.collect()
    gc.disable()
    try:
        before = sys.getallocatedblocks()
        for when_ns, burst in bursts:
            runtime.submit_at(when_ns, burst)
        runtime.run()
        kept = sys.getallocatedblocks() - before
    finally:
        gc.enable()
    assert runtime.transmitted == PACKETS
    return kept / PACKETS, runtime


@pytest.mark.parametrize(
    "toml_text, ceiling, steals",
    [(_UNIFORM_S1, 0.1, False), (_ZIPF_INGRESS_STEAL_S4, 0.8, True)],
    ids=["uniform_s1", "zipf_ingress_steal_s4"],
)
def test_a_run_keeps_no_heap_block_per_packet(toml_text, ceiling, steals):
    blocks, runtime = _blocks_per_packet(toml_text)
    assert blocks < ceiling
    # No packet carries a key, stolen ones included; the latency stamps
    # are unarmed.
    assert (runtime.telemetry().packets_stolen > 0) == steals
    assert all(not packet.metadata for _now, packet in runtime.transmit_log)


_SHAPED_S4 = """
name = "shaped_s4_gc"
seed = 1
[topology]
kind = "runtime"
[policy]
queue = "circular_ffs"
default_rate_bps = 10e6
[traffic]
pattern = "round_robin"
num_flows = 1024
total_packets = 40000
offered_pps = 1.6e6
burst_size = 128
packet_bytes = 1500
[runtime]
shards = 4
quantum_ns = 10000
batch_per_quantum = 64
"""


def test_a_shaped_backlog_keeps_no_gc_object_per_queued_packet():
    # ``shaped_s4``'s shape: 1,024 flows paced below the offered rate, so
    # stamps land up to tens of ms ahead and about half of each pass is
    # still queued when its last burst has been ingested.  The first pass
    # runs to completion and warms what is kept per bucket or per flow (the
    # recycled bucket FIFOs, the flow tables); the second is counted with
    # the collector off, stopped after its last arrival: what it leaves
    # alive, per packet still queued, stays under 0.01.  A
    # ``(send_at, packet)`` tuple per queued packet reads about 1.0.
    compiled = compile_scenario(load_toml(_SHAPED_S4))
    bursts = list(compiled.source.bursts(2 * PACKETS))
    half = len(bursts) // 2
    runtime = compiled.runtime
    for when_ns, burst in bursts[:half]:
        runtime.submit_at(when_ns, burst)
    runtime.run()
    offset = runtime.simulator.now_ns - bursts[half][0]
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        for when_ns, burst in bursts[half:]:
            runtime.submit_at(offset + when_ns, burst)
        runtime.run(until_ns=offset + bursts[-1][0] + 1)
        alive = len(gc.get_objects()) - before
    finally:
        gc.enable()
    queued = sum(worker.backlog for worker in runtime.workers)
    assert queued > PACKETS // 4
    assert alive / queued < 0.01


def test_a_shaped_run_barely_wakes_the_cyclic_collector():
    # The same traffic, one 20,000-packet run with the collector on, every
    # collection counted: one at the time of writing, 13 with a tuple per
    # queued packet.
    compiled = compile_scenario(load_toml(_SHAPED_S4.replace("40000", "20000")))
    bursts = list(compiled.source.bursts(PACKETS))
    runtime = compiled.runtime
    passes = []

    def count(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        for when_ns, burst in bursts:
            runtime.submit_at(when_ns, burst)
        runtime.run()
    finally:
        gc.callbacks.remove(count)
    assert runtime.transmitted == PACKETS
    assert len(passes) <= 4
