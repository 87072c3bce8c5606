#!/usr/bin/env python3
"""Fault injection walkthrough: break the runtime on purpose, watch it heal.

Three short acts over the same sharded, paced workload:

1. a seeded :class:`~repro.runtime.FaultPlan` crashes a shard mid-run — the
   supervision sweep re-homes its flows, salvages its mailbox, and the run
   completes with every packet delivered or attributed to a counted loss;
2. an overdue work-stealing lease is escalated by the watchdog and reclaimed
   through the victim;
3. the same faults as *data*: a ``[faults]`` block inside a scenario TOML,
   so a chaos schedule replays exactly from the scenario seed.

Run:  python examples/fault_injection.py
"""

from repro.core.model import Packet
from repro.runtime import FaultEvent, FaultPlan, FlowSharder, ShardedRuntime
from repro.scenario import dump_toml, load_toml, run_scenario


def crash_and_recover_demo() -> None:
    print("=== Act 1: shard crash, supervised recovery ===")
    plan = FaultPlan([FaultEvent("shard_crash", target=0, at=2)])
    print(f"  plan: {plan.describe()}")
    runtime = ShardedRuntime(
        2,
        default_rate_bps=8e6,  # 100 B => 100 us spacing: the crash lands mid-run
        record_transmits=True,
        fault_plan=plan,
    )
    for i in range(60):
        runtime.submit(Packet(flow_id=i % 6, size_bytes=100))
    runtime.run()
    faults = runtime.fault_stats
    print(f"  crashes injected : {faults.crashes_injected}")
    print(f"  shards recovered : {faults.shards_recovered}")
    print(f"  flows re-homed   : {faults.flows_rehomed}")
    print(f"  mailbox salvaged : {faults.packets_salvaged} packets")
    print(f"  lost with state  : {faults.packets_lost} packets")
    total = runtime.transmitted + faults.packets_lost
    print(f"  accounting       : {runtime.transmitted} delivered + "
          f"{faults.packets_lost} counted lost = {total} of 60 submitted")
    for entry in runtime.telemetry().faults["recovery_log"]:
        latency = entry["recovered_at_ns"] - entry["failed_at_ns"]
        print(f"  recovery log     : {entry['kind']} on shard {entry['shard']} "
              f"repaired in {latency} simulated ns")


def lease_reclamation_demo() -> None:
    print("\n=== Act 2: overdue lease escalated and reclaimed ===")
    # One elephant flow pinned to shard 0 makes shard 1 a pure thief; a 1 ns
    # lease deadline makes any lease overdue at the first supervision sweep.
    sharder = FlowSharder(2)
    sharder.pin(5, 0)
    runtime = ShardedRuntime(
        2,
        sharder=sharder,
        default_rate_bps=10e9,
        quantum_ns=10_000,
        steal_enabled=True,
        steal_min_backlog=1,
        lease_deadline_ns=1,
        supervise_interval_ns=20_000,
    )
    runtime.submit_batch([Packet(flow_id=5, size_bytes=1500) for _ in range(40)])
    runtime.run()
    faults = runtime.fault_stats
    print(f"  deadline escalations : {faults.deadline_escalations}")
    print(f"  leases reclaimed     : {faults.leases_reclaimed}")
    print(f"  accounting           : {runtime.transmitted} delivered + "
          f"{faults.packets_lost} counted lost = 40 submitted")


def scenario_chaos_demo() -> None:
    print("\n=== Act 3: the fault schedule as scenario data ===")
    toml_text = """
name = "chaos-walkthrough"
seed = 7

[policy]
default_rate_bps = 1e9

[traffic]
num_flows = 16
total_packets = 800

[runtime]
shards = 4
stealing = true
steal_min_backlog = 1

[faults]
kinds = ["shard_crash", "shard_stall", "handoff_drop"]
events = 3
max_tick = 16
supervise_interval_ns = 100_000
"""
    spec = load_toml(toml_text)
    assert load_toml(dump_toml(spec)) == spec  # the block round-trips exactly
    result = run_scenario(spec)  # raises on any invariant violation
    faults = result.telemetry.faults
    print(f"  spec             : {spec.faults.kinds}, {spec.faults.events} events "
          f"drawn from seed {spec.seed}")
    print(f"  injected         : {faults['crashes_injected']} crashes, "
          f"{faults['stalls_injected']} stalls, "
          f"{faults['handoff_drops']} handoff drops")
    print(f"  recovered        : {faults['shards_recovered']} shards, "
          f"{faults['stalls_cleared']} stalls cleared")
    print(f"  conservation     : {result.transmitted} delivered + "
          f"{result.dropped} counted drops = {result.offered} offered "
          f"(asserted by the scenario's invariant net)")


if __name__ == "__main__":
    crash_and_recover_demo()
    lease_reclamation_demo()
    scenario_chaos_demo()
