"""The scenario compiler: bind a validated spec onto the existing pieces.

:func:`compile_scenario` turns a :class:`~repro.scenario.spec.ScenarioSpec`
into a :class:`CompiledScenario` — a ready-to-run closure over the concrete
building blocks the spec names (a :class:`~repro.runtime.ShardedRuntime`,
the leaf-spine fabric of Figure 19, or the single-core BESS pipeline plus
batching sweep of Figure 13) — and :meth:`CompiledScenario.run` executes it
into a :class:`ScenarioResult` carrying the aggregated telemetry and the
verdicts of the spec's declarative assertion blocks.

Determinism: the spec's single ``seed`` pins every random stream.

* runtime kind — the Zipf traffic sampler draws from
  ``derive_seed(seed, "traffic-zipf")``, shard placement hashes with
  ``derive_seed(seed, "shard-hash")`` and the ingress RSS lane hash with
  ``derive_seed(seed, "ingress-lane")`` (three decorrelated streams; a
  correlated shard/lane hash would make every RX core feed a fixed subset
  of shards).
* fabric kind — ``seed`` is handed to :class:`~repro.traffic.FlowWorkload`
  verbatim, whose documented contract already derives its three sub-streams
  (sizes, gaps, endpoints) as ``seed`` / ``seed+1`` / ``seed+2``.
* bess kind — fully deterministic; there is no random stream to seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from .spec import ScenarioSpec, derive_seed, validate

#: 32-bit mask for derived hash seeds (the RSS mix is a 32-bit avalanche).
_HASH_BITS = 32


class ScenarioAssertionError(AssertionError):
    """One or more of a scenario's declarative assertions failed.

    ``failures`` keeps every failed assertion's message, so a fuzz run
    reports the whole broken surface of a counterexample, not just the
    first facet.
    """

    def __init__(self, name: str, failures: List[str]) -> None:
        self.failures = list(failures)
        detail = "\n  - ".join(failures)
        super().__init__(f"scenario {name!r}: {len(failures)} assertion(s) failed:\n  - {detail}")


@dataclass
class ScenarioResult:
    """Everything a finished scenario run exposes for assertions and reports.

    The flow-indexed packet-id ledgers (``offered_by_flow`` /
    ``delivered_by_flow``) are the raw material of the conservation and
    per-flow-FIFO invariants; ``residual`` is the post-drain state audit
    (see :meth:`~repro.runtime.ShardedRuntime.residual_state`); ``failures``
    holds the assertion verdicts (empty = all green).  Kind-specific
    payloads (``telemetry`` / ``fabric`` / ``series`` / ``sweep``) are
    ``None`` where they do not apply.
    """

    spec: ScenarioSpec
    kind: str
    offered: int = 0
    transmitted: int = 0
    dropped: int = 0
    telemetry: Optional[Any] = None  # RuntimeTelemetry (runtime kind)
    offered_by_flow: Dict[int, List[int]] = field(default_factory=dict)
    delivered_by_flow: Dict[int, List[int]] = field(default_factory=dict)
    residual: Dict[str, int] = field(default_factory=dict)
    fabric: Optional[Dict[str, List[Any]]] = None  # scheme -> [FabricRunResult]
    series: Optional[Dict[str, Any]] = None  # label -> Series (Figure 13)
    sweep: Optional[dict] = None  # batching-sweep artifact payload
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every enabled assertion held."""
        return not self.failures

    def check(self) -> "ScenarioResult":
        """Raise :class:`ScenarioAssertionError` if any assertion failed."""
        if self.failures:
            raise ScenarioAssertionError(self.spec.name, self.failures)
        return self

    def summary(self) -> dict:
        """JSON-friendly headline numbers (what a CI log wants to show)."""
        out: dict = {
            "name": self.spec.name,
            "kind": self.kind,
            "ok": self.ok,
            "failures": list(self.failures),
        }
        if self.kind == "runtime":
            out.update(
                offered=self.offered,
                transmitted=self.transmitted,
                dropped=self.dropped,
                residual=dict(self.residual),
            )
            if self.telemetry is not None:
                out["bottleneck_cycles"] = self.telemetry.bottleneck_cycles
        elif self.kind == "fabric" and self.fabric is not None:
            out["fct"] = {
                scheme: {
                    run.load: round(run.small_flow_avg(), 3) for run in runs
                }
                for scheme, runs in self.fabric.items()
            }
        elif self.kind == "bess":
            if self.series is not None:
                out["rates_mbps"] = {
                    label: dict(zip(series.x, series.y))
                    for label, series in self.series.items()
                }
            if self.sweep is not None:
                out["sweep_queues"] = sorted(self.sweep["queues"])
        return out


@dataclass
class CompiledScenario:
    """A spec bound to concrete building blocks, ready to run.

    For the runtime kind ``runtime``/``source`` are live objects a test can
    poke before running; the other kinds bind lazily inside ``run`` (their
    builders are plain experiment functions without intermediate state).
    """

    spec: ScenarioSpec
    runtime: Optional[Any] = None  # ShardedRuntime (runtime kind)
    source: Optional[Any] = None  # OpenLoopBurstSource (runtime kind)
    _runner: Callable[["CompiledScenario"], ScenarioResult] = None  # type: ignore[assignment]

    def run(self) -> ScenarioResult:
        """Execute the scenario and evaluate its assertion blocks.

        Returns the result with ``failures`` populated; call
        :meth:`ScenarioResult.check` to turn failures into an exception.
        """
        return self._runner(self)


# -- runtime kind ------------------------------------------------------------


def _queue_factory_for(name: str) -> Callable:
    """Resolve a spec queue name to a ``BucketSpec -> queue`` factory."""
    from ..core.queues import (
        ApproximateGradientQueue,
        CircularFFSQueue,
        GradientQueue,
        HierarchicalFFSQueue,
    )
    from ..core.queues.gradient import alpha_for_buckets

    if name == "circular_ffs":
        return lambda spec: CircularFFSQueue(spec)
    if name == "hierarchical_ffs":
        return lambda spec: HierarchicalFFSQueue(spec)
    if name == "gradient":
        return lambda spec: GradientQueue(spec)
    assert name == "approx_gradient", name
    return lambda spec: ApproximateGradientQueue(
        spec, alpha=alpha_for_buckets(spec.num_buckets)
    )


def _build_runtime(spec: ScenarioSpec):
    """Instantiate the ShardedRuntime and traffic source a spec describes."""
    from ..runtime import ShardedRuntime
    from ..runtime.faults import FaultPlan
    from ..runtime.observability import FlightRecorder, MetricsTimeline
    from ..runtime.sharder import FlowSharder
    from ..traffic import OpenLoopBurstSource, ZipfFlowSampler

    tracer = None
    if spec.observability.tracer:
        tracer = FlightRecorder(capacity=spec.observability.trace_capacity)
    timeline = None
    if spec.observability.timeline:
        timeline = MetricsTimeline(
            interval_ns=spec.observability.timeline_interval_ns
            or spec.runtime.quantum_ns
        )
    fault_plan = None
    if spec.faults.kinds:
        fault_plan = FaultPlan.from_seed(
            derive_seed(spec.seed, "faults"),
            num_shards=spec.runtime.shards,
            kinds=spec.faults.kinds,
            events=spec.faults.events,
            max_tick=spec.faults.max_tick,
            max_handoff_drops=spec.faults.max_handoff_drops,
            ingress_lanes=spec.ingress.cores,
        )
    sharder = FlowSharder(
        spec.runtime.shards,
        hash_seed=derive_seed(spec.seed, "shard-hash", bits=_HASH_BITS),
    )
    runtime = ShardedRuntime(
        num_shards=spec.runtime.shards,
        sharder=sharder,
        quantum_ns=spec.runtime.quantum_ns,
        batch_per_quantum=spec.runtime.batch_per_quantum,
        flow_rates=dict(spec.policy.flow_rates) or None,
        default_rate_bps=spec.policy.default_rate_bps,
        horizon_ns=spec.policy.horizon_ns,
        num_buckets=spec.policy.num_buckets,
        queue_factory=_queue_factory_for(spec.policy.queue),
        mailbox_capacity=spec.ingress.mailbox_capacity,
        rebalance_interval_ns=spec.runtime.rebalance_interval_ns,
        steal_enabled=spec.runtime.stealing,
        steal_batch=spec.runtime.steal_batch,
        steal_min_backlog=spec.runtime.steal_min_backlog,
        ingress_cores=spec.ingress.cores,
        admission=None if spec.ingress.admission == "none" else spec.ingress.admission,
        rx_ring_capacity=spec.ingress.rx_ring_capacity,
        rx_burst=spec.ingress.rx_burst,
        ingress_backpressure=spec.ingress.backpressure,
        ingress_hash_seed=derive_seed(spec.seed, "ingress-lane", bits=_HASH_BITS),
        shard_backlog_limit=spec.ingress.shard_backlog_limit,
        gc_interval_packets=spec.runtime.gc_interval_packets,
        gc_sweep_limit=spec.runtime.gc_sweep_limit,
        backend=spec.runtime.backend,
        fault_plan=fault_plan,
        lease_deadline_ns=spec.faults.lease_deadline_ns,
        supervise_interval_ns=spec.faults.supervise_interval_ns,
        record_transmits=True,
        latency_histograms=spec.observability.latency_histograms,
        tracer=tracer,
        metrics_timeline=timeline,
    )
    if spec.traffic.pattern == "zipf":
        sampler = ZipfFlowSampler(
            spec.traffic.num_flows,
            skew=spec.traffic.zipf_skew,
            seed=derive_seed(spec.seed, "traffic-zipf"),
        )
        flow_sampler = lambda index: sampler.sample_flow()  # noqa: E731
    else:
        flow_sampler = None
    source = OpenLoopBurstSource(
        offered_pps=spec.traffic.offered_pps,
        burst_size=spec.traffic.burst_size,
        packet_bytes=spec.traffic.packet_bytes,
        num_flows=spec.traffic.num_flows,
        flow_sampler=flow_sampler,
    )
    return runtime, source


def _run_runtime(compiled: CompiledScenario) -> ScenarioResult:
    spec = compiled.spec
    runtime, source = compiled.runtime, compiled.source
    result = ScenarioResult(spec=spec, kind="runtime")

    for when_ns, burst in source.bursts(spec.traffic.total_packets):
        for packet in burst:
            result.offered_by_flow.setdefault(packet.flow_id, []).append(
                packet.packet_id
            )
            result.offered += 1
        runtime.submit_at(when_ns, burst)
    runtime.run()

    for _now_ns, packet in runtime.transmit_log:
        result.delivered_by_flow.setdefault(packet.flow_id, []).append(
            packet.packet_id
        )
    telemetry = runtime.telemetry()
    result.telemetry = telemetry
    result.transmitted = telemetry.transmitted
    # Injected handoff drops and crash-lost packets are accounted drops:
    # conservation holds under faults because every packet is either
    # delivered or attributed to a counted loss.
    result.dropped = (
        telemetry.ingress_drops
        + telemetry.admission_drops
        + telemetry.faults.get("handoff_drops", 0)
        + telemetry.faults.get("packets_lost", 0)
    )
    result.residual = runtime.residual_state()
    result.failures = _evaluate_runtime_assertions(spec, result)
    return result


def _is_subsequence(needle: List[int], haystack: List[int]) -> bool:
    it = iter(haystack)
    return all(item in it for item in needle)


def _evaluate_runtime_assertions(
    spec: ScenarioSpec, result: ScenarioResult
) -> List[str]:
    checks = spec.assertions
    failures: List[str] = []

    if checks.conservation:
        if result.transmitted + result.dropped != result.offered:
            failures.append(
                "conservation: transmitted + dropped != offered "
                f"({result.transmitted} + {result.dropped} != {result.offered})"
            )
        offered_ids = sorted(
            pid for ids in result.offered_by_flow.values() for pid in ids
        )
        delivered_ids = sorted(
            pid for ids in result.delivered_by_flow.values() for pid in ids
        )
        if result.dropped == 0:
            if delivered_ids != offered_ids:
                failures.append(
                    "conservation: zero drops but the delivered packet-id "
                    "multiset differs from the offered one"
                )
        elif not set(delivered_ids) <= set(offered_ids):
            failures.append(
                "conservation: packets delivered that were never offered"
            )
        ghosts = set(result.delivered_by_flow) - set(result.offered_by_flow)
        if ghosts:
            failures.append(
                f"conservation: packets delivered for unoffered flows {sorted(ghosts)}"
            )

    if checks.per_flow_fifo:
        for flow_id, offered in result.offered_by_flow.items():
            delivered = result.delivered_by_flow.get(flow_id, [])
            if result.dropped == 0:
                if delivered != offered:
                    failures.append(
                        f"per_flow_fifo: flow {flow_id} delivered out of order "
                        "(or incompletely) with zero drops"
                    )
                    break
            elif not _is_subsequence(delivered, offered):
                failures.append(
                    f"per_flow_fifo: flow {flow_id}'s deliveries are not a "
                    "subsequence of its arrivals"
                )
                break

    if checks.no_stranded_state:
        for gauge, value in result.residual.items():
            if value:
                failures.append(
                    f"no_stranded_state: residual {gauge} = {value} after drain"
                )

    if checks.min_transmitted and result.transmitted < checks.min_transmitted:
        failures.append(
            f"min_transmitted: {result.transmitted} < {checks.min_transmitted}"
        )
    if checks.max_drop_fraction is not None and result.offered:
        fraction = result.dropped / result.offered
        if fraction > checks.max_drop_fraction:
            failures.append(
                f"max_drop_fraction: {fraction:.4f} > {checks.max_drop_fraction}"
            )
    telemetry = result.telemetry
    if checks.min_mops is not None and telemetry is not None:
        if telemetry.bottleneck_cycles > 0:
            seconds = telemetry.bottleneck_cycles / spec.topology.cycles_per_second
            mops = result.transmitted / seconds / 1e6
            if mops < checks.min_mops:
                failures.append(f"min_mops: {mops:.3f} < {checks.min_mops}")
    if checks.max_stall_fraction is not None and telemetry is not None:
        ticks = sum(core.stats.ticks for core in telemetry.ingress)
        stalled = sum(core.stats.stalled_ticks for core in telemetry.ingress)
        if ticks:
            fraction = stalled / ticks
            if fraction > checks.max_stall_fraction:
                failures.append(
                    f"max_stall_fraction: {fraction:.4f} > {checks.max_stall_fraction}"
                )
    if checks.p99_latency_ns is not None and telemetry is not None:
        # Guaranteed present: validation requires latency_histograms armed.
        e2e = telemetry.latency["e2e"]
        if e2e.count:
            p99 = e2e.quantile(0.99)
            if p99 > checks.p99_latency_ns:
                failures.append(
                    f"p99_latency_ns: {p99} > {checks.p99_latency_ns}"
                )
    return failures


# -- fabric kind -------------------------------------------------------------


def _run_fabric(compiled: CompiledScenario) -> ScenarioResult:
    from ..netsim import FabricConfig, FabricExperimentConfig, run_figure19

    spec = compiled.spec
    config = FabricExperimentConfig(
        fabric=FabricConfig(
            num_leaves=spec.topology.num_leaves,
            num_spines=spec.topology.num_spines,
            hosts_per_leaf=spec.topology.hosts_per_leaf,
            edge_rate_bps=spec.topology.edge_rate_bps,
            core_rate_bps=spec.topology.core_rate_bps,
            link_propagation_ns=spec.topology.link_propagation_ns,
        ),
        workload=spec.traffic.workload,
        num_flows=spec.traffic.num_flows,
        # FlowWorkload's documented contract already derives its three
        # sub-streams from one seed, so the scenario seed maps verbatim.
        seed=spec.seed,
    )
    fabric = run_figure19(
        list(spec.traffic.loads), schemes=list(spec.policy.schemes), config=config
    )
    result = ScenarioResult(spec=spec, kind="fabric", fabric=fabric)
    result.failures = _evaluate_fabric_assertions(spec, result)
    return result


def _evaluate_fabric_assertions(
    spec: ScenarioSpec, result: ScenarioResult
) -> List[str]:
    checks = spec.assertions
    failures: List[str] = []
    fabric = result.fabric or {}

    if checks.min_completion_rate is not None:
        for scheme, runs in fabric.items():
            for run in runs:
                rate = run.completion_rate()
                if rate < checks.min_completion_rate:
                    failures.append(
                        f"min_completion_rate: {scheme}@load={run.load} "
                        f"completed {rate:.3f} < {checks.min_completion_rate}"
                    )
    if checks.fct_small_flow_advantage:
        pfabric = fabric["pfabric"][-1]
        dctcp = fabric["dctcp"][-1]
        if not pfabric.small_flow_avg() < dctcp.small_flow_avg():
            failures.append(
                "fct_small_flow_advantage: pFabric small-flow FCT "
                f"{pfabric.small_flow_avg():.3f} not below DCTCP's "
                f"{dctcp.small_flow_avg():.3f} at load {pfabric.load}"
            )
    if checks.fct_approx_tolerance is not None:
        exact = fabric["pfabric"][-1]
        approx = fabric["pfabric_approx"][-1]
        tolerance = checks.fct_approx_tolerance
        gap = abs(approx.small_flow_avg() - exact.small_flow_avg())
        if gap > max(tolerance, tolerance * exact.small_flow_avg()):
            failures.append(
                f"fct_approx_tolerance: |approx - exact| = {gap:.3f} exceeds "
                f"{tolerance} (abs or relative) at load {exact.load}"
            )
    return failures


# -- bess kind ---------------------------------------------------------------


def _run_bess(compiled: CompiledScenario) -> ScenarioResult:
    from .figures import run_batching_sweep_from_spec, run_figure13_from_spec

    spec = compiled.spec
    result = ScenarioResult(
        spec=spec,
        kind="bess",
        series=run_figure13_from_spec(spec),
        sweep=run_batching_sweep_from_spec(spec),
    )
    result.failures = _evaluate_bess_assertions(spec, result)
    return result


def _evaluate_bess_assertions(
    spec: ScenarioSpec, result: ScenarioResult
) -> List[str]:
    checks = spec.assertions
    failures: List[str] = []
    if checks.batch_amortises_at is not None and result.sweep is not None:
        for name, by_size in result.sweep["queues"].items():
            baseline = by_size["1"]["drain_cycles_per_packet"]
            for size in result.sweep["batch_sizes"]:
                if size < checks.batch_amortises_at:
                    continue
                batched = by_size[str(size)]["drain_cycles_per_packet"]
                if not batched < baseline:
                    failures.append(
                        f"batch_amortises_at: {name} batch={size} drain "
                        f"({batched:.1f}) not below per-packet path ({baseline:.1f})"
                    )
    return failures


# -- entry points ------------------------------------------------------------


def compile_scenario(spec: ScenarioSpec) -> CompiledScenario:
    """Validate and bind a spec; returns a ready-to-run scenario.

    Raises a typed :class:`~repro.scenario.spec.ScenarioSpecError` subclass
    (naming the offending field) for any invalid spec — nothing is built
    from a spec that would fail mid-run.
    """
    validate(spec)
    if spec.topology.kind == "runtime":
        runtime, source = _build_runtime(spec)
        return CompiledScenario(
            spec=spec, runtime=runtime, source=source, _runner=_run_runtime
        )
    if spec.topology.kind == "fabric":
        return CompiledScenario(spec=spec, _runner=_run_fabric)
    return CompiledScenario(spec=spec, _runner=_run_bess)


def run_scenario(spec: ScenarioSpec, check: bool = True) -> ScenarioResult:
    """Compile, run and (by default) enforce a spec's assertion blocks."""
    result = compile_scenario(spec).run()
    return result.check() if check else result


__all__ = [
    "CompiledScenario",
    "ScenarioAssertionError",
    "ScenarioResult",
    "compile_scenario",
    "run_scenario",
]
