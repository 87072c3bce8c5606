"""Literal pins of the fault plane: what injection and recovery leave behind.

Written against the recorded behaviour, so a refactor of the supervision
code has to reproduce it to the last counter (and, for the recovery log and
the trace payloads, to the order of the keys):

* ``BENCH_faults.json``'s ``simulated`` block, rebuilt at full size from the
  artifact's own ``workload`` block (the recovery harness is
  ``benchmarks/bench_faults.py``; the per-row recipe is restated here so the
  pin does not depend on the harness).
* One run that arms every kind at once on 4 shards behind 2 RX cores, with
  stealing and a lease deadline on.  It reaches: two handoff drops on one
  shard, a victim crash while its lease is out (the restart re-marks the
  loaned flow), a deadline escalation of the stalled thief in the same
  sweep (the reclaimed lease goes back to the rebuilt victim), a stall
  cleared on a shard that was restarted while stalled, a wedge cleared, and
  shards 0 and 2 each restarted twice, so their telemetry rows and latency
  histograms fold two retired incarnations into the live one.  It does not
  reach a lease return banked for a dead victim, or a watchdog kick.
"""

import json
import random
from pathlib import Path

from repro.core.model.packet import Packet
from repro.runtime import FaultEvent, FaultPlan, FlightRecorder, ShardedRuntime
from repro.runtime.sharder import FlowSharder

ARTIFACT = Path(__file__).resolve().parent.parent.parent / "BENCH_faults.json"

#: The single-event plans the recovery harness runs, one row each.
ARTIFACT_PLANS = {
    "shard_crash": [FaultEvent("shard_crash", target=0, at=3)],
    "shard_stall": [FaultEvent("shard_stall", target=1, at=3)],
    "ingress_wedge": [FaultEvent("ingress_wedge", target=0, at=2)],
    "handoff_drop": [FaultEvent("handoff_drop", target=0, count=4)],
}


def _artifact_row(workload: dict, kind: str) -> dict:
    runtime = ShardedRuntime(
        workload["num_shards"],
        ingress_cores=1 if kind == "ingress_wedge" else 0,
        default_rate_bps=workload["flow_rate_bps"],
        fault_plan=FaultPlan(ARTIFACT_PLANS[kind]) if kind in ARTIFACT_PLANS else None,
    )
    accepted = sum(
        runtime.submit(
            Packet(flow_id=i % workload["num_flows"], size_bytes=workload["packet_bytes"])
        )
        for i in range(workload["num_packets"])
    )
    runtime.run()
    faults = runtime.telemetry().faults
    recoveries = [e["recovered_at_ns"] - e["failed_at_ns"] for e in faults["recovery_log"]]
    return {
        "offered": workload["num_packets"],
        "accepted": accepted,
        "transmitted": runtime.transmitted,
        "drain_ns": runtime.simulator.now_ns,
        "recoveries": len(recoveries),
        "recovery_ns_mean": sum(recoveries) / len(recoveries) if recoveries else None,
        "packets_lost": faults["packets_lost"],
        "packets_salvaged": faults["packets_salvaged"],
        "handoff_drops": faults["handoff_drops"],
        "flows_rehomed": faults["flows_rehomed"],
    }


def test_bench_faults_simulated_block_rebuilds_from_its_workload_block():
    committed = json.loads(ARTIFACT.read_text())
    workload = committed["workload"]["simulated"]
    rebuilt = {"disarmed": _artifact_row(workload, "disarmed")}
    for kind in ARTIFACT_PLANS:
        row = _artifact_row(workload, kind)
        row["drain_overhead_ns"] = row["drain_ns"] - rebuilt["disarmed"]["drain_ns"]
        rebuilt[kind] = row
    assert rebuilt == committed["simulated"]


def _multi_fault_run(latency_histograms=False):
    sharder = FlowSharder(4)
    sharder.pin(5, 0)  # the elephant: shard 0 is the victim every thief robs
    tracer = FlightRecorder()
    plan = FaultPlan(
        [
            FaultEvent("shard_crash", target=0, at=3),
            FaultEvent("shard_crash", target=0, at=6),
            FaultEvent("shard_stall", target=2, at=2),
            FaultEvent("ingress_wedge", target=1, at=2),
            FaultEvent("handoff_drop", target=3, count=3),
            FaultEvent("shard_crash", target=2, at=2),
        ]
    )
    runtime = ShardedRuntime(
        4,
        sharder=sharder,
        quantum_ns=10_000,
        default_rate_bps=10e9,
        ingress_cores=2,
        steal_enabled=True,
        steal_min_backlog=2,
        lease_deadline_ns=15_000,
        supervise_interval_ns=20_000,
        fault_plan=plan,
        tracer=tracer,
        record_transmits=True,
        latency_histograms=latency_histograms,
    )
    rng = random.Random(1)
    for burst in range(8):
        flows = [5] * 24 + [rng.randrange(1, 40) for _ in range(16)]
        runtime.submit_at(
            burst * 30_000, [Packet(flow_id=flow, size_bytes=1500) for flow in flows]
        )
    runtime.run()
    return runtime, tracer


def _crash(shard, failed, recovered, lost, salvaged):
    return {
        "kind": "shard_crash",
        "shard": shard,
        "failed_at_ns": failed,
        "recovered_at_ns": recovered,
        "packets_lost": lost,
        "packets_salvaged": salvaged,
    }


def test_multi_fault_run_telemetry_is_pinned():
    runtime, _tracer = _multi_fault_run()
    telemetry = runtime.telemetry()
    recovery_log = [
        _crash(0, 20400, 30000, 10, 0),
        _crash(2, 30000, 30000, 0, 0),  # the deadline escalation
        {"kind": "shard_stall", "shard": 2, "failed_at_ns": 10000, "recovered_at_ns": 30000},
        _crash(2, 30000, 50000, 0, 2),
        {"kind": "ingress_wedge", "lane": 1, "failed_at_ns": 30000, "recovered_at_ns": 50000},
        _crash(0, 50800, 70800, 15, 30),
    ]
    assert telemetry.faults == {
        "crashes_injected": 3,
        "stalls_injected": 1,
        "wedges_injected": 1,
        "handoff_drops": 3,
        "deadline_escalations": 1,
        "shards_recovered": 4,
        "stalls_cleared": 1,
        "wedges_cleared": 1,
        "watchdog_kicks": 0,
        "leases_reclaimed": 1,
        "packets_lost": 33,
        "packets_salvaged": 32,
        "flows_rehomed": 4,
        "shapers_recovered": 2,
        "recoveries": 6,
        "recovery_ns_total": 89600,
        "recovery_log": recovery_log,
    }
    assert [list(entry) for entry in telemetry.faults["recovery_log"]] == [
        list(entry) for entry in recovery_log
    ]
    # Shards 0 and 2 each fold two retired incarnations into these rows.
    assert [shard.transmitted for shard in telemetry.shards] == [51, 81, 77, 75]
    assert [
        (shard.ingested, shard.ticks, shard.idle_ticks, shard.backlog_peak)
        for shard in telemetry.shards
    ] == [(221, 22, 0, 41), (49, 21, 4, 16), (14, 20, 9, 17), (33, 21, 5, 12)]
    assert telemetry.queue_stats.enqueues == 454 and telemetry.queue_stats.dequeues == 429
    # (leases granted, leases received, packets stolen, packets lent) per shard
    assert [
        (shard.steals.leases_granted, shard.steals.leases_received,
         shard.steals.packets_stolen, shard.steals.packets_lent)
        for shard in telemetry.shards
    ] == [(16, 0, 0, 145), (0, 4, 32, 0), (0, 6, 63, 0), (0, 5, 42, 0)]
    assert [shard.cycles for shard in telemetry.shards] == [15948.0, 8316.0, 7462.0, 8006.0]
    assert telemetry.total_cycles == 59492.0
    assert telemetry.max_shard_cycles == 15948.0
    assert telemetry.steal_cycles == 5282.0
    assert runtime.transmitted == 284
    assert runtime.transmitted + telemetry.faults["packets_lost"] + 3 == 8 * 40
    assert all(value == 0 for value in runtime.residual_state().values())


def test_multi_fault_run_trace_is_pinned():
    _runtime, tracer = _multi_fault_run()
    events = tracer.events()
    faults = [event for event in events if event[2] in ("fault_inject", "fault_recover")]
    expected = [
        (0, "shard-3", "fault_inject", {"kind": "handoff_drop", "count": 2}),
        (0, "shard-3", "fault_inject", {"kind": "handoff_drop", "count": 1}),
        (10000, "shard-2", "fault_inject", {"kind": "shard_stall"}),
        (20400, "shard-0", "fault_inject", {"kind": "shard_crash"}),
        (30000, "supervisor", "fault_recover", {
            "kind": "shard_crash", "shard": 0, "failed_at_ns": 20400,
            "packets_lost": 10, "packets_salvaged": 0,
        }),
        (30000, "supervisor", "fault_recover", {
            "kind": "shard_crash", "shard": 2, "failed_at_ns": 30000,
            "packets_lost": 0, "packets_salvaged": 0,
        }),
        (30000, "supervisor", "fault_recover",
         {"kind": "shard_stall", "shard": 2, "failed_at_ns": 10000}),
        (30000, "rx-1", "fault_inject", {"kind": "ingress_wedge"}),
        (30000, "shard-2", "fault_inject", {"kind": "shard_crash"}),
        (50000, "supervisor", "fault_recover", {
            "kind": "shard_crash", "shard": 2, "failed_at_ns": 30000,
            "packets_lost": 0, "packets_salvaged": 2,
        }),
        (50000, "supervisor", "fault_recover",
         {"kind": "ingress_wedge", "lane": 1, "failed_at_ns": 30000}),
        (50800, "shard-0", "fault_inject", {"kind": "shard_crash"}),
        (70800, "supervisor", "fault_recover", {
            "kind": "shard_crash", "shard": 0, "failed_at_ns": 50800,
            "packets_lost": 15, "packets_salvaged": 30,
        }),
    ]
    assert faults == expected
    assert [list(event[3]) for event in faults] == [list(event[3]) for event in expected]
    # Leases as (time, lease_id, victim, thief, packets); lease 0 is the one
    # reclaimed by the escalation, so it has no lease_return event.
    grants = [
        (ts, payload["lease_id"], int(track[6:]), payload["thief"], payload["packets"])
        for ts, track, name, payload in events
        if name == "lease_grant"
    ]
    assert grants == [
        (10000, 0, 0, 2, 8), (30000, 1, 0, 1, 8), (70800, 2, 0, 2, 8),
        (81600, 3, 0, 2, 8), (92400, 4, 0, 2, 17), (103200, 5, 0, 3, 8),
        (114000, 6, 0, 3, 8), (124800, 7, 0, 2, 8), (155600, 8, 0, 2, 14),
        (166800, 9, 0, 1, 8), (177600, 10, 0, 3, 9), (190000, 11, 0, 3, 9),
        (200800, 12, 0, 1, 8), (211600, 13, 0, 3, 8), (222400, 14, 0, 2, 8),
        (233200, 15, 0, 1, 8),
    ]
    returns = [
        (ts, payload["lease_id"], payload["victim"], int(track[6:]))
        for ts, track, name, payload in events
        if name == "lease_return"
    ]
    assert returns == [
        (ts + 10000, lease_id, victim, thief)
        for ts, lease_id, victim, thief, _packets in grants[1:]
    ]


def test_multi_fault_run_latency_folds_the_crashed_incarnations():
    runtime, _tracer = _multi_fault_run(latency_histograms=True)
    latency = runtime.telemetry().latency
    summary = {
        seam: (hist.count, hist.sum, hist.min_value, hist.max_value)
        for seam, hist in latency.items()
    }
    assert summary == {
        "rx_sojourn": (317, 180000, 0, 20000),
        "mailbox_wait": (317, 793200, 0, 20000),
        "queue_sojourn": (284, 1634400, 0, 40800),
        "e2e": (284, 5335600, 0, 45600),
    }
    # Arming the histograms charges no cycles and moves no packet.
    assert runtime.transmitted == 284


def test_stop_cancels_the_pending_supervision_sweep():
    runtime = ShardedRuntime(
        2,
        default_rate_bps=8e6,
        fault_plan=FaultPlan([FaultEvent("shard_crash", target=0, at=1)]),
    )
    for i in range(8):
        runtime.submit(Packet(flow_id=i % 4, size_bytes=100))
    runtime.run(until_ns=1_000)  # the crash fires and arms a sweep
    runtime.stop()
    runtime.run()
    residual = runtime.residual_state()
    assert residual["dead_shards"] == 1 and residual["pending_packets"] == 5
    assert runtime.fault_stats.recoveries == 0


def test_a_crashed_incarnations_backlog_peak_survives_the_restart():
    # One shard, 200 packets queued by the first tick, a crash at the
    # second: the replacement never holds a backlog, so the row's peak is
    # the dead incarnation's.
    runtime = ShardedRuntime(
        1,
        default_rate_bps=8e6,
        fault_plan=FaultPlan([FaultEvent("shard_crash", target=0, at=2)]),
    )
    for i in range(200):
        runtime.submit(Packet(flow_id=i % 8, size_bytes=100))
    runtime.run()
    assert runtime.workers[0].stats.backlog_peak == 0
    assert runtime.telemetry().shards[0].backlog_peak == 200
    assert (runtime.fault_stats.packets_lost, runtime.transmitted) == (192, 8)
