#!/usr/bin/env python3
"""Sharded runtime demo: 4 virtual cores, Zipf traffic, rebalancing, stealing.

Builds a 4-shard scheduling runtime (one Eiffel cFFS queue + per-flow pacing
per shard, RSS-style flow hashing at ingress), pushes a Zipf-skewed packet
stream through it, and compares shard balance across the three policies:

* **static** — hashing alone: the shard that drew the elephant flows is the
  bottleneck core;
* **rebalance** — the skew-aware rebalancer migrates hot flows off the
  bottleneck shard, waiting for each flow to drain first so per-flow FIFO
  is never violated; a single elephant flow, however, cannot be migrated
  away from itself;
* **rebalance + steal** — idle shards additionally take over the busy
  shard's imminent due window under an order-preserving flow lease
  (ownership, timestamps and pacing state travel with the lease), which
  splits even one elephant flow across cores *in time*.

The **execution backend** walkthrough then reruns a workload with
``backend="process"``: the same four shards execute as four real OS
processes (arrival schedules crossing over shared-memory SPSC rings, each
shard replaying its schedule on a private virtual clock), and the modelled
telemetry comes back *identical* to the simulated run — the simulation's
per-core claims, executed on actual cores.

It then switches on the **ingress pipeline** (``ingress_cores=N``): RX cores
with their own cycle accounts sit between the NIC bursts and the shard
mailboxes, classify in batches, and pause on mailbox watermarks — the
backpressure walkthrough at the end drives the same pipeline at 2x its
paced drain rate and shows that nothing is lost (the RX ring grows), while
arming a CoDel-style admission policy trades a bounded drop rate for a far
lower p99 RX sojourn.

The closing **flow-state engine** block measures what per-flow state costs
at scale: bytes/flow for a dict of ``ShapingTransaction`` objects vs the
array-backed ``PacingTable`` (several times smaller), then a churn storm —
short Zipf flows from a million-id universe — through the runtime with
bounded incremental GC sweeps, showing the dense slot space tracking the
live population rather than the id universe.

Run:  python examples/sharded_runtime.py
"""

import gc
import random
import time
import tracemalloc

from repro.core.model import Packet
from repro.core.model.transactions import RateLimit, ShapingTransaction
from repro.cpu import CpuMeter
from repro.runtime import CoDelPolicy, PacingTable, ShardedRuntime
from repro.traffic import OpenLoopBurstSource, ZipfFlowSampler

NUM_SHARDS = 4
NUM_FLOWS = 64
NUM_PACKETS = 6_000
QUANTUM_NS = 10_000
INGRESS_BURST = 128  # one interrupt-coalesced NIC RX pull
INGRESS_BURST_QUANTA = 8
RATE_BPS = 10e9


def drive(rebalance: bool, steal: bool = False):
    """Run the Zipf workload through a fresh runtime; return its telemetry."""
    runtime = ShardedRuntime(
        NUM_SHARDS,
        default_rate_bps=RATE_BPS,
        quantum_ns=QUANTUM_NS,
        rebalance_interval_ns=16 * QUANTUM_NS if rebalance else None,
        steal_enabled=steal,
        record_transmits=False,
    )
    sampler = ZipfFlowSampler(NUM_FLOWS, skew=1.2, rng=random.Random(7))
    flow_ids = sampler.sample_flows(NUM_PACKETS)
    for index in range(0, NUM_PACKETS, INGRESS_BURST):
        chunk = flow_ids[index : index + INGRESS_BURST]
        when_ns = (index // INGRESS_BURST) * INGRESS_BURST_QUANTA * QUANTUM_NS

        def offer(chunk=chunk):
            runtime.submit_batch([Packet(flow_id=f, size_bytes=1500) for f in chunk])

        runtime.simulator.schedule_at(when_ns, offer)
    start = time.perf_counter()
    runtime.run()
    elapsed = time.perf_counter() - start
    return runtime.telemetry(), elapsed


def describe(title: str, telemetry, elapsed: float) -> None:
    print(f"{title}:")
    for shard in telemetry.shards:
        bar = "#" * (shard.transmitted // 60)
        print(
            f"  shard {shard.shard_id}: {shard.transmitted:5d} packets  "
            f"{shard.cycles / 1e3:7.1f} kcycles  {bar}"
        )
    line = (
        f"  imbalance (max/mean) = {telemetry.imbalance:.2f}, "
        f"bottleneck = {telemetry.max_shard_cycles / 1e3:.1f} kcycles, "
        f"migrations = {telemetry.migrations_applied}"
    )
    if telemetry.steals_succeeded:
        line += (
            f", steals = {telemetry.steals_succeeded} leases / "
            f"{telemetry.packets_stolen} packets"
        )
    print(line)
    meter_hz = CpuMeter().cycles_per_second  # the clock the benchmarks model
    modelled = telemetry.transmitted * meter_hz / telemetry.max_shard_cycles
    wall = telemetry.transmitted / max(elapsed, 1e-9)
    print(
        f"  throughput: modelled {modelled / 1e6:.1f} Mops/s "
        f"(bottleneck core) | wall-clock {wall / 1e6:.3f} Mops/s "
        f"(single-threaded harness)"
    )
    print()


def drive_backend(backend: str):
    """The same timed workload on a chosen execution backend."""
    runtime = ShardedRuntime(
        NUM_SHARDS,
        default_rate_bps=RATE_BPS,
        quantum_ns=QUANTUM_NS,
        gc_interval_packets=None,  # keep the simulated run decomposable too
        backend=backend,
        record_transmits=False,
    )
    sampler = ZipfFlowSampler(NUM_FLOWS, skew=1.2, rng=random.Random(7))
    flow_ids = sampler.sample_flows(NUM_PACKETS)
    # submit_at is the backend-portable way to drive a timed workload: the
    # simulated backend schedules the burst as a clock event, the process
    # backend buffers it into the schedule run() fans out to the shard cores.
    for index in range(0, NUM_PACKETS, INGRESS_BURST):
        chunk = flow_ids[index : index + INGRESS_BURST]
        when_ns = (index // INGRESS_BURST) * INGRESS_BURST_QUANTA * QUANTUM_NS
        runtime.submit_at(when_ns, [Packet(flow_id=f, size_bytes=1500) for f in chunk])
    start = time.perf_counter()
    runtime.run()
    return runtime.telemetry(), time.perf_counter() - start


def describe_backends() -> None:
    print(
        "\n--- execution backends: the modelled cores made real ---\n"
        'The same workload, once with backend="simulated" (all shards on one\n'
        'virtual clock) and once with backend="process" (one OS process per\n'
        "shard, fed over shared-memory rings, private virtual clocks):\n"
    )
    simulated, simulated_sec = drive_backend("simulated")
    process, process_sec = drive_backend("process")
    for title, telemetry, elapsed in (
        ("simulated", simulated, simulated_sec),
        ("process", process, process_sec),
    ):
        per_shard = "/".join(str(s.transmitted) for s in telemetry.shards)
        print(
            f"  {title:<10} {telemetry.transmitted} transmitted "
            f"(per shard {per_shard}), bottleneck "
            f"{telemetry.max_shard_cycles / 1e3:.1f} kcycles, "
            f"wall {elapsed * 1e3:.0f} ms"
        )
    identical = [s.as_dict() for s in simulated.shards] == [
        s.as_dict() for s in process.shards
    ]
    print(
        f"  modelled telemetry identical: {identical} — the parallel run is\n"
        "  a bit-exact replay of the simulation, so wall clock is the only\n"
        "  thing that changes with the host's core count."
    )


def drive_ingress(admission, overload_factor=2.0, num_packets=8_000):
    """Run the pipeline behind one RX core at ``overload_factor``x capacity."""
    flows, rate_bps = 16, 1e9  # aggregate drain ~1.33 Mpps
    runtime = ShardedRuntime(
        2,
        default_rate_bps=rate_bps,
        quantum_ns=QUANTUM_NS,
        ingress_cores=1,
        admission=admission,
        rx_ring_capacity=256,
        mailbox_capacity=96,
        shard_backlog_limit=64,
        record_transmits=False,
    )
    capacity_pps = flows * rate_bps / (1500 * 8)
    source = OpenLoopBurstSource(
        offered_pps=overload_factor * capacity_pps, num_flows=flows
    )
    offered = 0
    for when_ns, burst in source.bursts(num_packets):
        offered += len(burst)
        runtime.simulator.schedule_at(
            when_ns, (lambda b: (lambda: runtime.submit_batch(b)))(burst)
        )
    runtime.run()
    telemetry = runtime.telemetry()
    # RX sojourns are always recorded into a bounded log2-bucketed histogram.
    p99 = telemetry.ingress[0].sojourn.quantile(0.99)
    return offered, telemetry, p99


def describe_ingress() -> None:
    print(
        "\n--- ingress pipeline: backpressure vs admission at 2x overload ---\n"
        "One RX core (its own cycle account) feeds 2 shards through bounded\n"
        "mailboxes; the offered rate is twice what the paced flows can drain.\n"
    )
    offered, plain, p99 = drive_ingress(admission=None)
    core = plain.ingress[0]
    print(
        f"  backpressure: {plain.transmitted}/{offered} delivered, "
        f"{plain.admission_drops + plain.ingress_drops} dropped "
        f"(ring grew to {core.ring_peak}), "
        f"{core.stats.stalled_ticks} stalled pulls, p99 RX sojourn {p99 / 1e3:.0f} us"
    )
    offered, codel, p99 = drive_ingress(
        admission=lambda: CoDelPolicy(target_ns=50_000, interval_ns=100_000)
    )
    print(
        f"  CoDel:        {codel.transmitted}/{offered} delivered, "
        f"{codel.admission_drops} dropped, p99 RX sojourn {p99 / 1e3:.0f} us\n"
        "  Backpressure never loses a packet — the RX ring absorbs the burst —\n"
        "  while CoDel-style admission bounds latency instead of occupancy.\n"
        "  The bottleneck analysis now has an ingress row: "
        f"bottleneck = max(shard {codel.max_shard_cycles / 1e3:.0f}k, "
        f"ingress {codel.max_ingress_cycles / 1e3:.0f}k) kcycles."
    )


def _held_bytes(build) -> int:
    """tracemalloc delta of whatever ``build`` leaves alive."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        state = build()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    del state
    return held


def describe_flow_state(num_flows: int = 50_000) -> None:
    print(
        "\n--- flow-state engine: bytes/flow at scale ---\n"
        "Per-flow pacing state held two ways: one ShapingTransaction object\n"
        f"per flow in a dict (the pre-engine layout) vs one PacingTable slot\n"
        f"(dense array columns), both holding {num_flows} live flows:\n"
    )

    def dict_engine():
        return {
            flow: ShapingTransaction(f"flow-{flow}", RateLimit(RATE_BPS))
            for flow in range(num_flows)
        }

    def array_engine():
        table = PacingTable(shard_id=0)
        for flow in range(num_flows):
            table.touch(flow, RATE_BPS, 1500, 0)
        return table

    dict_bytes = _held_bytes(dict_engine) / num_flows
    array_bytes = _held_bytes(array_engine) / num_flows
    print(
        f"  dict of objects: {dict_bytes:6.1f} B/flow\n"
        f"  array columns:   {array_bytes:6.1f} B/flow "
        f"({dict_bytes / array_bytes:.1f}x smaller)"
    )

    # The same engine inside the runtime, under churn with incremental GC:
    # short Zipf flows over a million-id universe arrive and die, bounded
    # GC sweeps reclaim idle slots, and the dense slot space tracks the
    # *live* population, not the total id universe.
    runtime = ShardedRuntime(
        NUM_SHARDS,
        default_rate_bps=RATE_BPS,
        quantum_ns=QUANTUM_NS,
        gc_interval_packets=256,
        gc_sweep_limit=128,
        record_transmits=False,
    )
    flow_ids = ZipfFlowSampler(1_000_000, skew=1.05, seed=11).sample_flows(4_000)
    runtime.submit_batch([Packet(flow_id=f, size_bytes=1500) for f in flow_ids])
    runtime.run()
    state = runtime.telemetry().flow_state
    print(
        f"  churn storm (4k pkts, 1M-id Zipf universe): "
        f"{state['live_flows']} flows live at drain, "
        f"slot high-water {state['slot_limit']}, "
        f"{state['gc_reclaimed']} reclaimed in {state['gc_sweeps']} bounded "
        f"sweeps, state {state['memory_bytes'] / 1024:.0f} KiB"
    )


def main() -> None:
    print(
        f"{NUM_PACKETS} packets, {NUM_FLOWS} Zipf-skewed flows, "
        f"{NUM_SHARDS} shards (one cFFS queue + shaper per shard)\n"
    )
    static, static_sec = drive(rebalance=False)
    describe("static RSS hashing", static, static_sec)
    rebalanced, rebalanced_sec = drive(rebalance=True)
    describe("with skew-aware rebalancing", rebalanced, rebalanced_sec)
    stolen, stolen_sec = drive(rebalance=True, steal=True)
    describe("with rebalancing + work stealing", stolen, stolen_sec)
    gain = static.max_shard_cycles / stolen.max_shard_cycles
    print(
        "The rebalancer pins hot flows away from the bottleneck shard once\n"
        "they drain, and idle shards lease the remaining elephant's due\n"
        "windows (per-flow FIFO preserved by the ownership handoff), cutting\n"
        f"the bottleneck core's work by {100 * (1 - 1 / gain):.0f}% — "
        f"{gain:.2f}x modelled aggregate throughput."
    )
    describe_backends()
    describe_ingress()
    describe_flow_state()


if __name__ == "__main__":
    main()
