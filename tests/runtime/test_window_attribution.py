"""The sharder's load window: per-shard always, per-flow only for a reader.

Per-flow window attribution (``FlowSharder.record``) has one reader, the
``ShardRebalancer``, and only a rebalancing round ever resets it.  A runtime
with no rebalancer therefore accounts its bursts per shard only
(``FlowSharder.record_shard``): the totals every other consumer reads stay
exact, and the sharder's flow table no longer grows to every flow ever seen.
With a rebalancer attached every packet is still attributed per flow.
"""

import json
import random
from pathlib import Path

import pytest

from repro.core.model.packet import Packet
from repro.runtime import FlowSharder, ShardedRuntime
from repro.traffic import ZipfFlowSampler

QUANTUM_NS = 10_000
ARTIFACT = Path(__file__).resolve().parent.parent.parent / "BENCH_sharding.json"


def _offer_bursts(runtime, flow_ids, burst, gap_ns, size_bytes=1500):
    for index in range(0, len(flow_ids), burst):
        chunk = flow_ids[index : index + burst]

        def offer(chunk=chunk):
            runtime.submit_batch(
                [Packet(flow_id=flow_id, size_bytes=size_bytes) for flow_id in chunk]
            )

        runtime.simulator.schedule_at((index // burst) * gap_ns, offer)


def test_record_shard_matches_record_on_every_per_shard_total():
    attributed = FlowSharder(4)
    per_shard = FlowSharder(4)
    rng = random.Random(11)
    for _ in range(50):
        flow_id, shard, packets = rng.randrange(1_000), rng.randrange(4), rng.randrange(1, 9)
        attributed.record(flow_id, shard, packets)
        per_shard.record_shard(shard, packets)
    assert per_shard.shard_loads() == attributed.shard_loads()
    assert per_shard.imbalance() == attributed.imbalance()
    assert per_shard.stats.window_packets == attributed.stats.window_packets
    assert per_shard.flow_loads() == {} and len(per_shard.flows) == 0
    per_shard.reset_window()
    assert per_shard.shard_loads() == [0, 0, 0, 0]
    assert per_shard.stats.window_packets == 0


def test_no_rebalancer_means_no_window_slots_and_the_same_totals():
    # Megaflow-style churn: Zipf over a universe far larger than the run,
    # so most packets open a flow the incremental GC reclaims soon after.
    num_packets = 6_000
    flow_ids = ZipfFlowSampler(200_000, skew=1.05, rng=random.Random(7)).sample_flows(
        num_packets
    )
    config = dict(
        num_shards=4,
        default_rate_bps=10e9,
        quantum_ns=QUANTUM_NS,
        gc_interval_packets=256,
        gc_sweep_limit=512,
        record_transmits=False,
    )
    plain = ShardedRuntime(**config)
    _offer_bursts(plain, flow_ids, burst=128, gap_ns=8 * QUANTUM_NS)
    plain.run()
    assert plain.transmitted == num_packets

    # The attributed twin: a rebalancer whose first round lies beyond the
    # run, so it attributes every packet per flow and never migrates one.
    attributed = ShardedRuntime(rebalance_interval_ns=10**12, **config)
    _offer_bursts(attributed, flow_ids, burst=128, gap_ns=8 * QUANTUM_NS)
    attributed.run(until_ns=10**9)
    attributed.stop()
    assert attributed.transmitted == num_packets
    assert attributed.migrations_applied == 0

    assert len(plain.sharder.flows) == 0
    assert plain.sharder.flow_loads() == {}
    assert len(attributed.sharder.flows) > 1_000  # what used to leak
    assert plain.sharder.shard_loads() == attributed.sharder.shard_loads()
    assert sum(plain.sharder.shard_loads()) == num_packets
    assert plain.sharder.imbalance() == attributed.sharder.imbalance()
    assert plain.sharder.stats.window_packets == attributed.sharder.stats.window_packets
    assert plain.telemetry().total_cycles == attributed.telemetry().total_cycles


def test_rebalancer_window_is_still_attributed_per_flow():
    runtime = ShardedRuntime(
        4, default_rate_bps=10e9, quantum_ns=QUANTUM_NS, rebalance_interval_ns=10**12
    )
    flow_ids = [3, 3, 9, 3, 11, 9]
    assert runtime.submit_batch([Packet(flow_id=f, size_bytes=1500) for f in flow_ids]) == 6
    sharder = runtime.sharder
    assert sharder.flow_loads() == {3: 3, 9: 2, 11: 1}
    assert sharder.flow_residency() == {f: sharder.shard_for(f) for f in (3, 9, 11)}
    assert sum(sharder.shard_loads()) == sharder.stats.window_packets == 6
    runtime.stop()


def _replay_zipf_row(policy):
    """One 4-shard Zipf row of benchmarks/bench_sharding.py, rebuilt from the
    artifact's own workload block; asserts every modelled column both kinds
    of row share and returns ``(runtime, telemetry, committed)``."""
    artifact = json.loads(ARTIFACT.read_text())
    workload = artifact["workload"]
    committed = artifact["scenarios"]["zipf"][policy]["4"]
    flow_ids = ZipfFlowSampler(
        workload["num_flows"], skew=workload["zipf_skew"], rng=random.Random(workload["seed"])
    ).sample_flows(workload["num_packets"])
    runtime = ShardedRuntime(
        4,
        default_rate_bps=workload["flow_rate_bps"],
        quantum_ns=workload["quantum_ns"],
        batch_per_quantum=workload["batch_per_quantum"],
        rebalance_interval_ns=(
            workload["rebalance_interval_ns"] if policy.startswith("rebalance_on") else None
        ),
        steal_enabled=policy.endswith("steal_on"),
        steal_min_backlog=workload["steal_min_backlog"],
        record_transmits=False,
    )
    _offer_bursts(
        runtime,
        flow_ids,
        burst=workload["ingress_burst"],
        gap_ns=workload["ingress_burst_quanta"] * workload["quantum_ns"],
        size_bytes=workload["packet_bytes"],
    )
    runtime.run()
    telemetry = runtime.telemetry()
    assert telemetry.transmitted == committed["transmitted"]
    assert telemetry.migrations_applied == committed["migrations"]
    assert telemetry.total_cycles == committed["total_cycles"]
    assert telemetry.max_shard_cycles == committed["max_shard_cycles"]
    assert telemetry.packets_stolen == committed["packets_stolen"]
    assert telemetry.steal_cycles == committed["steal_cycles"]
    assert telemetry.imbalance == committed["imbalance"]
    assert [s.transmitted for s in telemetry.shards] == committed["per_shard_transmitted"]
    return runtime, telemetry, committed


@pytest.mark.parametrize("policy", ["rebalance_off_steal_off", "rebalance_off_steal_on"])
def test_unattributed_zipf_rows_match_the_committed_artifact(policy):
    # The rows that run with no rebalancer: per-shard accounting alone must
    # reproduce every modelled column exactly.
    runtime, _telemetry, committed = _replay_zipf_row(policy)
    assert committed["migrations"] == 0
    assert len(runtime.sharder.flows) == 0
    assert sum(runtime.sharder.shard_loads()) == committed["transmitted"]


@pytest.mark.parametrize("policy", ["rebalance_on_steal_off", "rebalance_on_steal_on"])
def test_rebalanced_zipf_rows_match_the_committed_artifact(policy):
    # The rows a live rebalancer steers: every migration it plans from the
    # per-flow window — and the driver applies from a kept placement that a
    # re-pin must invalidate — has to land as committed.
    _runtime, telemetry, committed = _replay_zipf_row(policy)
    assert committed["migrations"] > 0
    assert telemetry.rebalance_rounds == committed["rebalance_rounds"]
    assert telemetry.steals_attempted == committed["steals_attempted"]
    assert telemetry.steals_succeeded == committed["steals_succeeded"]
