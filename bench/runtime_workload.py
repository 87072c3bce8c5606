"""Runtime workloads: committed TOML scenarios driven through the public API.

One workload runs, in this process, as

1. a **verification pass** (untimed): the scenario with its conservation,
   per-flow FIFO and no-stranded-state assertions on and the latency
   histograms armed.  It is also the warm-up, the source of the
   virtual-clock latency quantiles and every counter-derived metric, and the
   reference ``total_cycles`` every later pass must reproduce exactly (armed
   == disarmed is an existing contract of the runtime);
2. **timed rounds**, tracing off: each on a fresh ``compile_scenario`` with
   the bursts generated before the clock starts; the timed region is
   ``submit_at`` for every burst plus ``run()`` and nothing else;
3. **one traced run** for the per-layer ledger (see :mod:`tracing`).

Arrivals are open loop on the *virtual* clock (``OpenLoopBurstSource``); on
the wall clock every run is one fixed-size batch, so the rate reported is
work completed per second at the stated input size.
"""

from __future__ import annotations

import dataclasses
import resource
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Dict, List, Optional

import tracing
from harness import Budget, exact, fastest, measured, share, single, timed_rounds

WORKLOAD_DIR = Path(__file__).resolve().parent / "workloads"

#: Modelled clock the paper's per-core rates are quoted at.
CYCLES_PER_SECOND = 3.0e9

#: Packets per run under ``--smoke`` (every code path, seconds in total).
SMOKE_PACKETS = 4_096

#: Untraced rounds that give the traced passes their base when only the
#: per-layer metrics were asked for.
BASE_ROUNDS = 2

#: Operations whose modelled cycles get a per-layer row of their own; the
#: rest are summed under ``other`` so the rows add up to the total.
COST_OPS = (
    "enqueue",
    "dequeue",
    "bucket_lookup",
    "ffs_word",
    "flow_lookup",
    "lock",
    "batch_overhead",
    "gc_scan",
    "rx_poll",
    "rx_descriptor",
    "division",
    "heap_operation",
    "linear_scan",
    "rotation",
)


def cost_rows(breakdown: Dict[str, float], packets: int) -> Dict[str, dict]:
    """``cpu.cost_model.cycles_per_pkt.<op>`` rows that sum to the total."""
    rows = {
        f"cpu.cost_model.cycles_per_pkt.{op}": exact(breakdown.get(op, 0.0) / packets)
        for op in COST_OPS
    }
    rest = sum(cycles for op, cycles in breakdown.items() if op not in COST_OPS)
    rows["cpu.cost_model.cycles_per_pkt.other"] = exact(rest / packets)
    return rows


def _counted_drops(telemetry) -> int:
    return (
        telemetry.ingress_drops
        + telemetry.admission_drops
        + telemetry.faults.get("handoff_drops", 0)
        + telemetry.faults.get("packets_lost", 0)
    )


def _misordered(result) -> int:
    """Packets delivered out of their flow's arrival order."""
    wrong = 0
    for flow_id, offered in result.offered_by_flow.items():
        delivered = result.delivered_by_flow.get(flow_id, [])
        if result.dropped == 0:
            wrong += sum(1 for a, b in zip(offered, delivered) if a != b)
            continue
        position = {packet_id: index for index, packet_id in enumerate(offered)}
        last = -1
        for packet_id in delivered:
            index = position.get(packet_id, -1)
            if index < last:
                wrong += 1
            last = max(last, index)
    return wrong


class RuntimeWorkload:
    """One named runtime workload at one seed."""

    def __init__(self, name: str, seed: int, smoke: bool) -> None:
        self.path = WORKLOAD_DIR / f"{name}.toml"
        self.seed = seed
        self.smoke = smoke
        self.packets = 0
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.ref_cycles: Optional[float] = None
        #: Set-up cost of every pass after verification, one sample a pass.
        self.compile_s: List[float] = []
        self.generate_s: List[float] = []

    def _spec(self, armed: bool = False):
        """The committed scenario with ``--seed`` in place of its own seed."""
        from repro.scenario import load_toml_file

        spec = dataclasses.replace(load_toml_file(self.path), seed=self.seed)
        if self.smoke:
            spec = dataclasses.replace(
                spec, traffic=dataclasses.replace(spec.traffic, total_packets=SMOKE_PACKETS)
            )
        if armed:
            spec = dataclasses.replace(
                spec,
                observability=dataclasses.replace(spec.observability, latency_histograms=True),
            )
        return spec

    # -- pass 1: verification ------------------------------------------------

    def verify(self, want_counters: bool) -> Optional[Dict[str, dict]]:
        """Run the scenario's own assertion net; sets the reference cycles.

        Returns the counter-derived per-layer rows when asked.  The runtime
        and its 200k-packet transmit log are dropped before returning: a
        large live heap makes every later collection slower, on the clock.
        """
        from repro.scenario import compile_scenario

        compiled = compile_scenario(self._spec(armed=True))
        result = compiled.run()
        self.packets = result.offered
        self.attempted += result.offered
        lost = abs(result.offered - result.transmitted - result.dropped)
        self.failed += lost + _misordered(result)
        self.errors.extend(result.failures)
        self.ref_cycles = result.telemetry.total_cycles
        if not want_counters:
            return None
        return _counter_metrics(compiled.runtime, result.telemetry, self.packets)

    # -- passes 2 and 3 ------------------------------------------------------

    def drive(self, label: str, recorder: Optional[tracing.SpanRecorder] = None) -> int:
        """One pass on a fresh runtime; returns the timed region's ns.

        Set-up (spec load, ``compile_scenario``, burst generation) runs
        before the clock starts and is sampled on its own; the timed region
        is ``submit_at`` for every burst plus ``run()`` to drain.  Afterwards
        the pass must conserve packets and reproduce the verification pass's
        modelled cycles exactly.
        """
        from repro.scenario import compile_scenario

        start = perf_counter()
        spec = self._spec()
        compiled = compile_scenario(spec)
        compiled_at = perf_counter()
        bursts = list(compiled.source.bursts(spec.traffic.total_packets))
        self.compile_s.append(compiled_at - start)
        self.generate_s.append(perf_counter() - compiled_at)

        runtime = compiled.runtime
        submit_at = runtime.submit_at
        if recorder is not None:
            recorder.begin()
        start_ns = perf_counter_ns()
        for when_ns, burst in bursts:
            submit_at(when_ns, burst)
        runtime.run()
        wall_ns = perf_counter_ns() - start_ns
        if recorder is not None:
            recorder.end()

        telemetry = runtime.telemetry()
        self.attempted += self.packets
        lost = abs(self.packets - telemetry.transmitted - _counted_drops(telemetry))
        if lost:
            self.failed += lost
            self.errors.append(f"{label}: {lost} packets neither transmitted nor dropped")
        if telemetry.total_cycles != self.ref_cycles:
            self.errors.append(
                f"{label}: total_cycles {telemetry.total_cycles!r} != "
                f"verification pass {self.ref_cycles!r}"
            )
        return wall_ns

    def timed(self, budget: Budget) -> List[float]:
        """Wall seconds of each timed round, tracing off."""
        return timed_rounds(budget, lambda: self.drive("timed round") / 1e9)

    def traced(self, untraced_wall_s: float, trace_path: Optional[Path]):
        """The per-layer ledger: ``(values, unresolved seam names)``."""
        return tracing.traced_ledger(
            lambda recorder: self.drive("traced run", recorder),
            untraced_wall_s=untraced_wall_s,
            packets=self.packets,
            smoke=self.smoke,
            trace_path=trace_path,
        )


def _counter_metrics(runtime, telemetry, packets: int) -> Dict[str, dict]:
    """Per-layer metrics read off the program's own counters (all exact)."""
    queue = telemetry.queue_stats
    shards = telemetry.shards
    rx = telemetry.ingress
    flow_state = telemetry.flow_state
    latency = telemetry.latency
    ticks = sum(shard.ticks for shard in shards)

    def p99(seam: str) -> int:
        histogram = latency.get(seam)
        return histogram.quantile(0.99) if histogram is not None and histogram.count else 0

    breakdown: Dict[str, float] = {}
    for core in [*runtime.workers, *runtime.ingress_cores]:
        for op, cycles in core.cost.breakdown().items():
            breakdown[op] = breakdown.get(op, 0.0) + cycles
    e2e = latency["e2e"]
    values = {
        "modelled_bottleneck_mpps": packets * CYCLES_PER_SECOND / telemetry.bottleneck_cycles / 1e6,
        "sim_latency_p50_ns": e2e.quantile(0.5),
        "sim_latency_p99_ns": e2e.quantile(0.99),
        "core.queues.enqueues_per_pkt": queue.enqueues / packets,
        "core.queues.bucket_lookups_per_pkt": queue.bucket_lookups / packets,
        "core.queues.word_scans_per_pkt": queue.word_scans / packets,
        "core.queues.rotations": queue.rotations,
        "core.queues.overflow_enqueues": queue.overflow_enqueues,
        "runtime.mailbox.peak_occupancy": max(s.mailbox.peak_occupancy for s in shards),
        "runtime.mailbox.stalls": sum(s.mailbox.stalls for s in shards),
        "runtime.mailbox.dropped": sum(s.mailbox.dropped for s in shards),
        "runtime.mailbox.drain_calls_per_pkt": sum(s.mailbox.drain_calls for s in shards) / packets,
        "runtime.mailbox.wait_p99_ns": p99("mailbox_wait"),
        "runtime.worker.ticks_per_pkt": ticks / packets,
        "runtime.worker.idle_tick_share": share(sum(s.idle_ticks for s in shards), ticks),
        "runtime.worker.backlog_peak": max(s.backlog_peak for s in shards),
        "runtime.worker.queue_sojourn_p99_ns": p99("queue_sojourn"),
        "runtime.sharder.lookups_per_pkt": runtime.sharder.stats.lookups / packets,
        "runtime.sharder.migrations": telemetry.migrations_applied,
        "runtime.sharder.imbalance": telemetry.imbalance,
        "runtime.stealing.attempted": telemetry.steals_attempted,
        "runtime.stealing.success_share": share(
            telemetry.steals_succeeded, telemetry.steals_attempted
        ),
        "runtime.stealing.packets_stolen_share": telemetry.packets_stolen / packets,
        "runtime.ingress.ring_peak": max((core.ring_peak for core in rx), default=0),
        "runtime.ingress.stalled_tick_share": share(
            sum(core.stats.stalled_ticks for core in rx), sum(core.stats.ticks for core in rx)
        ),
        "runtime.ingress.rx_dropped": sum(core.stats.rx_dropped for core in rx),
        "runtime.ingress.sojourn_p99_ns": p99("rx_sojourn"),
        "runtime.flowstate.bytes_per_live_flow": share(
            flow_state["memory_bytes"], flow_state["live_flows"]
        ),
        "runtime.flowstate.slot_limit": flow_state["slot_limit"],
        "runtime.flowstate.gc_examined_per_pkt": flow_state["gc_examined"] / packets,
        "runtime.flowstate.gc_reclaim_share": share(
            flow_state["gc_reclaimed"], flow_state["gc_examined"]
        ),
        "netsim.simulator.events_per_pkt": runtime.simulator.processed_events / packets,
    }
    rows = {name: exact(value) for name, value in values.items()}
    rows.update(cost_rows(breakdown, packets))
    return rows


def run(
    name: str,
    seed: int,
    budget: Budget,
    *,
    smoke: bool,
    want_end_to_end: bool,
    want_per_layer: bool,
    out_dir: Optional[Path],
) -> dict:
    """Run one runtime workload; returns its record (units not yet attached)."""
    workload = RuntimeWorkload(name, seed, smoke)
    rows = workload.verify(want_counters=want_per_layer)
    packets = workload.packets
    modelled_cycles = workload.ref_cycles / packets

    if not want_end_to_end:
        budget = Budget(rounds=BASE_ROUNDS)
    walls = workload.timed(budget)
    setup = [c + g for c, g in zip(workload.compile_s, workload.generate_s)]
    # Read before the traced run, so the number means the same thing whether
    # or not the per-layer pass follows in this process.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record: dict = {}
    if want_end_to_end:
        record["end_to_end"] = {
            "pkts_per_s": fastest([packets / wall for wall in walls], better="higher"),
            "modelled_cycles_per_pkt": exact(modelled_cycles),
            "peak_rss_mb": single(peak_rss_mb),
            "setup_s": fastest(setup),
        }
    if want_per_layer:
        cost_sum = sum(
            row["value"] for key, row in rows.items() if key.startswith("cpu.cost_model.cycles")
        )
        if abs(cost_sum - modelled_cycles) > 1e-6 * modelled_cycles:
            workload.errors.append(
                f"cost rows sum to {cost_sum!r}, not modelled_cycles_per_pkt {modelled_cycles!r}"
            )
        rows["traffic.generate_ns_per_pkt"] = measured(
            [seconds * 1e9 / packets for seconds in workload.generate_s]
        )
        rows["scenario.compile_s"] = measured(list(workload.compile_s))
        values, unresolved = workload.traced(
            min(walls), out_dir / f"{name}.trace.json" if out_dir else None
        )
        rows.update({key: single(value) for key, value in values.items()})
        record["per_layer"] = rows
        record["trace"] = {"unresolved": unresolved}
    record.update(
        attempted=workload.attempted, failed=workload.failed, errors=workload.errors
    )
    return record
