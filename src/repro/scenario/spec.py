"""Declarative scenario specs: the experiment matrix as data.

A :class:`ScenarioSpec` is a frozen dataclass tree describing one complete
experiment — topology, policy tree, traffic, ingress/admission, runtime
knobs and declarative assertion blocks — that the compiler
(:mod:`repro.scenario.compiler`) binds onto the existing building blocks
(netsim fabrics, BESS pipelines, the sharded runtime, traffic sources).

Everything here is *eagerly validated*: :func:`validate` walks a spec and
rejects unknown names, dangling cross-references, oversubscribed admission
configurations and parallel-backend-incompatible knobs **before** anything
is built, each with a typed error naming the offending field.  A spec that
passes :func:`validate` compiles and runs; there is no "half-valid" state
discovered mid-experiment.

Determinism contract: one ``seed`` at the top of the spec pins *every*
random stream of the compiled experiment — traffic samplers, workload
sub-streams, the shard placement hash and the ingress RSS lane hash — via
:func:`derive_seed`, so two runs of the same spec are identical and two
specs differing only in ``seed`` draw decorrelated streams everywhere.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional, Tuple

#: Experiment kinds a topology can select.
KINDS = ("runtime", "fabric", "bess")

#: Queue names a runtime-kind scenario may bind a shard worker to, and a
#: bess-kind scenario may sweep.  Resolved by the compiler against
#: :mod:`repro.core.queues` (the factories live there, not here, so the spec
#: layer stays import-light).
QUEUE_NAMES = ("circular_ffs", "hierarchical_ffs", "gradient", "approx_gradient")

#: Admission policy names understood by the ingress layer ("none" = pure
#: backpressure, loss-free by construction).
ADMISSION_NAMES = ("none", "tail_drop", "fair_drop", "codel")

#: Execution backends of the sharded runtime.
BACKEND_NAMES = ("simulated", "process")

#: Fabric schemes of the Figure 19 experiment.
SCHEME_NAMES = ("dctcp", "pfabric", "pfabric_approx")

#: Empirical flow-size workloads.
WORKLOAD_NAMES = ("websearch", "datamining")

#: Flow-sampling patterns of the open-loop runtime traffic source.
PATTERN_NAMES = ("round_robin", "zipf")

#: Fault kinds a scenario may arm (the simulated runtime's seams; mirrors
#: :data:`repro.runtime.faults.FAULT_KINDS` — kept local so the spec layer
#: stays import-light; a test asserts the two agree).
FAULT_KIND_NAMES = ("shard_crash", "shard_stall", "handoff_drop", "ingress_wedge")


# -- typed rejection ---------------------------------------------------------


class ScenarioSpecError(ValueError):
    """Base of every spec rejection; ``field`` names the offending field."""

    def __init__(self, field: str, message: str) -> None:
        self.field = field
        super().__init__(f"{field}: {message}")


class UnknownNameError(ScenarioSpecError):
    """An enum-like field holds a name the compiler cannot resolve, or a
    cross-reference points at an entity the spec never defines."""


class OversubscribedError(ScenarioSpecError):
    """The admission/load configuration oversubscribes what it feeds."""


class BackendIncompatibleError(ScenarioSpecError):
    """A knob that requires cross-shard coordination under the process backend."""


class MalformedSpecError(ScenarioSpecError):
    """Unparseable TOML, a wrong-typed field, or an out-of-range value."""


def derive_seed(seed: int, label: str, bits: int = 64) -> int:
    """A decorrelated sub-seed for one named random stream of a scenario.

    Stable across runs, platforms and Python versions (BLAKE2 of
    ``"seed:label"``), so a spec's single ``seed`` deterministically pins
    every stream — traffic sampler, workload sub-streams, shard hash,
    ingress lane hash — without any two streams sharing state.
    """
    digest = hashlib.blake2b(f"{seed}:{label}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") & ((1 << bits) - 1)


# -- the spec tree -----------------------------------------------------------


@dataclass(frozen=True)
class TopologySpec:
    """Where the experiment runs.

    ``kind`` selects the substrate: ``"runtime"`` (the sharded multi-core
    runtime; the fuzzable kind), ``"fabric"`` (the leaf-spine packet-level
    simulator of Figure 19), or ``"bess"`` (the single-core userspace
    pipeline of Figures 12/13/15).  The remaining fields describe the
    hardware of whichever substrate is selected; irrelevant ones are ignored.
    """

    kind: str = "runtime"
    # fabric dimensions / speeds
    num_leaves: int = 3
    num_spines: int = 3
    hosts_per_leaf: int = 3
    edge_rate_bps: float = 10e9
    core_rate_bps: float = 40e9
    link_propagation_ns: int = 200
    # single-core "hardware" (bess kind; also converts runtime-kind modelled
    # cycles into ops/sec for throughput-floor assertions)
    line_rate_bps: float = 10e9
    cycles_per_second: float = 3.0e9


@dataclass(frozen=True)
class PolicyTreeSpec:
    """The scheduling policy the packets traverse.

    Runtime kind: the per-shard timestamp queue (``queue``/``num_buckets``/
    ``horizon_ns``) plus the pacing layer (``default_rate_bps`` and per-flow
    ``flow_rates`` overrides, hClock-leaf style).  Fabric kind: the switch
    ``schemes`` under comparison.  Bess kind: the ``sweep_queues`` of the
    batching sweep.
    """

    queue: str = "circular_ffs"
    num_buckets: int = 20_000
    horizon_ns: int = 2_000_000_000
    default_rate_bps: Optional[float] = None
    #: Per-flow pacing overrides as ``(flow_id, rate_bps)`` pairs; flow ids
    #: must exist in the traffic spec's flow universe (validated).
    flow_rates: Tuple[Tuple[int, float], ...] = ()
    #: Fabric kind: schemes to run (each becomes one FCT curve).
    schemes: Tuple[str, ...] = SCHEME_NAMES
    #: Bess kind: integer queues swept by the batching harness.
    sweep_queues: Tuple[str, ...] = QUEUE_NAMES


@dataclass(frozen=True)
class TrafficSpec:
    """What the experiment is fed.

    Runtime kind: an open-loop NIC-burst source (``offered_pps`` /
    ``burst_size`` / ``total_packets``) over ``num_flows`` flows sampled
    ``round_robin`` or ``zipf``.  Fabric kind: ``num_flows`` Poisson flow
    arrivals from the ``workload`` size distribution at each load in
    ``loads``.  Bess kind: the packet-size points of Figure 13 plus the
    batching sweep's batch sizes and packet count.
    """

    pattern: str = "round_robin"
    num_flows: int = 16
    total_packets: int = 2_048
    offered_pps: float = 1e6
    burst_size: int = 32
    packet_bytes: int = 1500
    zipf_skew: float = 1.1
    # fabric kind
    workload: str = "websearch"
    loads: Tuple[float, ...] = (0.2, 0.5, 0.8)
    # bess kind
    packet_sizes: Tuple[int, ...] = (60, 1500)
    batch_sizes: Tuple[int, ...] = (1, 8, 32, 64)
    sweep_packets: int = 4_096


@dataclass(frozen=True)
class IngressSpec:
    """The RX stage in front of the shards (runtime kind only).

    ``cores=0`` keeps the historical synchronous ingress.  With cores, the
    admission policy decides what sustained overload does: ``"none"`` is pure
    watermark backpressure (loss-free), the drop policies bound the ring.
    """

    cores: int = 0
    admission: str = "none"
    rx_ring_capacity: int = 512
    rx_burst: int = 64
    backpressure: bool = True
    mailbox_capacity: Optional[int] = None
    shard_backlog_limit: Optional[int] = None


@dataclass(frozen=True)
class RuntimeSpec:
    """The sharded runtime's own knobs (runtime kind only)."""

    shards: int = 1
    quantum_ns: int = 50_000
    batch_per_quantum: int = 64
    stealing: bool = False
    steal_batch: int = 64
    steal_min_backlog: int = 8
    rebalance_interval_ns: Optional[int] = None
    gc_interval_packets: Optional[int] = 4_096
    gc_sweep_limit: Optional[int] = None
    backend: str = "simulated"


@dataclass(frozen=True)
class FaultsSpec:
    """Deterministic fault injection (runtime kind, simulated backend only).

    ``kinds`` empty (the default) leaves the scenario fault-free — the
    runtime's injection hooks stay disarmed and cost nothing.  With kinds,
    the compiler draws ``events`` random faults from
    ``derive_seed(seed, "faults")`` via
    :meth:`~repro.runtime.faults.FaultPlan.from_seed`, so the scenario seed
    pins the fault schedule exactly as it pins the workload.  The optional
    watchdog knobs tune the recovery side: ``lease_deadline_ns`` bounds how
    long a stolen :class:`~repro.runtime.stealing.FlowLease` may stay out
    before the supervisor escalates, ``supervise_interval_ns`` the sweep
    period (default: twice the runtime quantum).
    """

    kinds: Tuple[str, ...] = ()
    events: int = 1
    max_tick: int = 32
    max_handoff_drops: int = 4
    lease_deadline_ns: Optional[int] = None
    supervise_interval_ns: Optional[int] = None


@dataclass(frozen=True)
class ObservabilitySpec:
    """The observability plane (runtime kind only).

    All three instruments default off — the compiled runtime is then
    byte-identical to one built from a spec with no ``[observability]``
    block at all (the fault plane's gating contract).  ``latency_histograms``
    arms the per-seam :class:`~repro.runtime.observability.LogHistogram`
    recording (allowed on every backend: per-shard histograms merge across
    process children like counter snapshots); ``tracer`` arms a
    :class:`~repro.runtime.observability.FlightRecorder` of ``trace_capacity``
    events and ``timeline`` a
    :class:`~repro.runtime.observability.MetricsTimeline` sampling every
    ``timeline_interval_ns`` (default: the runtime quantum) — both need the
    shared simulated clock.
    """

    latency_histograms: bool = False
    tracer: bool = False
    trace_capacity: int = 65_536
    timeline: bool = False
    timeline_interval_ns: Optional[int] = None


@dataclass(frozen=True)
class AssertionSpec:
    """Declarative assertion blocks evaluated against the finished run.

    The three booleans are the runtime-wide invariant net (packet
    conservation, per-flow FIFO, no stranded flow-table slots or leases
    after drain); the optional bounds are per-scenario quality gates.
    Fields that do not apply to a scenario's kind are simply not evaluated.
    """

    conservation: bool = True
    per_flow_fifo: bool = True
    no_stranded_state: bool = True
    #: Floor on packets transmitted (runtime kind).
    min_transmitted: int = 0
    #: Ceiling on (drops / offered) at the RX stage (runtime kind).
    max_drop_fraction: Optional[float] = None
    #: Floor on modelled aggregate throughput in Mops/s, converted from the
    #: bottleneck core's cycle account at ``topology.cycles_per_second``.
    min_mops: Optional[float] = None
    #: Ceiling on the fraction of ingress ticks cut short by backpressure.
    max_stall_fraction: Optional[float] = None
    #: Fabric kind: floor on the fraction of flows that complete.
    min_completion_rate: Optional[float] = None
    #: Fabric kind: pFabric must beat DCTCP on small-flow average FCT.
    fct_small_flow_advantage: bool = False
    #: Fabric kind: |approx - exact| small-flow FCT tolerance (absolute, or
    #: relative to exact — whichever is larger; the Figure 19 gate).
    fct_approx_tolerance: Optional[float] = None
    #: Bess kind: batched drains must be strictly cheaper than the
    #: per-packet path from this batch size on.
    batch_amortises_at: Optional[int] = None
    #: Ceiling on the end-to-end submit→transmit p99 (runtime kind; needs
    #: ``observability.latency_histograms`` — there is no histogram to ask
    #: otherwise, and the spec is rejected rather than silently passed).
    p99_latency_ns: Optional[int] = None


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete declarative experiment."""

    name: str = "scenario"
    seed: int = 0
    topology: TopologySpec = field(default_factory=TopologySpec)
    policy: PolicyTreeSpec = field(default_factory=PolicyTreeSpec)
    traffic: TrafficSpec = field(default_factory=TrafficSpec)
    ingress: IngressSpec = field(default_factory=IngressSpec)
    runtime: RuntimeSpec = field(default_factory=RuntimeSpec)
    faults: FaultsSpec = field(default_factory=FaultsSpec)
    observability: ObservabilitySpec = field(default_factory=ObservabilitySpec)
    assertions: AssertionSpec = field(default_factory=AssertionSpec)


# -- eager validation --------------------------------------------------------


def _require_name(value: str, choices: tuple, field_name: str) -> None:
    if value not in choices:
        raise UnknownNameError(
            field_name, f"unknown name {value!r}; choose from {sorted(choices)}"
        )


def _require_positive(value, field_name: str, *, allow_zero: bool = False) -> None:
    if value is None:
        return
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MalformedSpecError(field_name, f"expected a number, got {value!r}")
    if value != value or value in (float("inf"), float("-inf")):
        raise MalformedSpecError(field_name, "must be finite")
    if value < 0 or (value == 0 and not allow_zero):
        bound = "non-negative" if allow_zero else "positive"
        raise MalformedSpecError(field_name, f"must be {bound}, got {value!r}")


def _paced_capacity_bps(spec: ScenarioSpec) -> Optional[float]:
    """Aggregate drain capacity implied by the pacing config, if bounded."""
    if spec.policy.default_rate_bps is None:
        return None
    overrides = dict(spec.policy.flow_rates)
    total = 0.0
    for flow_id in range(spec.traffic.num_flows):
        total += overrides.get(flow_id, spec.policy.default_rate_bps)
    return total


def _validate_runtime(spec: ScenarioSpec) -> None:
    _require_name(spec.policy.queue, QUEUE_NAMES, "policy.queue")
    _require_name(spec.runtime.backend, BACKEND_NAMES, "runtime.backend")
    _require_name(spec.ingress.admission, ADMISSION_NAMES, "ingress.admission")
    _require_name(spec.traffic.pattern, PATTERN_NAMES, "traffic.pattern")

    _require_positive(spec.runtime.shards, "runtime.shards")
    _require_positive(spec.runtime.quantum_ns, "runtime.quantum_ns")
    _require_positive(spec.runtime.batch_per_quantum, "runtime.batch_per_quantum")
    _require_positive(spec.runtime.steal_batch, "runtime.steal_batch")
    _require_positive(spec.runtime.steal_min_backlog, "runtime.steal_min_backlog")
    _require_positive(spec.runtime.rebalance_interval_ns, "runtime.rebalance_interval_ns")
    _require_positive(spec.runtime.gc_interval_packets, "runtime.gc_interval_packets")
    _require_positive(spec.runtime.gc_sweep_limit, "runtime.gc_sweep_limit")
    _require_positive(spec.policy.num_buckets, "policy.num_buckets")
    _require_positive(spec.policy.horizon_ns, "policy.horizon_ns")
    _require_positive(spec.policy.default_rate_bps, "policy.default_rate_bps")
    _require_positive(spec.traffic.num_flows, "traffic.num_flows")
    _require_positive(spec.traffic.total_packets, "traffic.total_packets", allow_zero=True)
    _require_positive(spec.traffic.offered_pps, "traffic.offered_pps")
    _require_positive(spec.traffic.burst_size, "traffic.burst_size")
    _require_positive(spec.traffic.packet_bytes, "traffic.packet_bytes")
    _require_positive(spec.traffic.zipf_skew, "traffic.zipf_skew", allow_zero=True)
    _require_positive(spec.ingress.cores, "ingress.cores", allow_zero=True)
    _require_positive(spec.ingress.rx_ring_capacity, "ingress.rx_ring_capacity")
    _require_positive(spec.ingress.rx_burst, "ingress.rx_burst")
    _require_positive(spec.ingress.mailbox_capacity, "ingress.mailbox_capacity")
    _require_positive(spec.ingress.shard_backlog_limit, "ingress.shard_backlog_limit")

    # Cross-references: every pacing override must name a flow the traffic
    # spec can actually generate.
    seen = set()
    for flow_id, rate_bps in spec.policy.flow_rates:
        if not 0 <= flow_id < spec.traffic.num_flows:
            raise UnknownNameError(
                "policy.flow_rates",
                f"flow {flow_id} is not in the traffic universe "
                f"[0, {spec.traffic.num_flows}) of traffic.num_flows",
            )
        if flow_id in seen:
            raise MalformedSpecError(
                "policy.flow_rates", f"flow {flow_id} configured twice"
            )
        seen.add(flow_id)
        _require_positive(rate_bps, f"policy.flow_rates[{flow_id}]")

    # Admission shape: a drop policy with no RX core to run it is dead
    # config, and a pull budget larger than the ring can never be satisfied.
    if spec.ingress.admission != "none" and spec.ingress.cores == 0:
        raise UnknownNameError(
            "ingress.admission",
            f"admission {spec.ingress.admission!r} needs ingress.cores >= 1 "
            "(with no RX cores there is no ring to police)",
        )
    if spec.ingress.cores > 0 and spec.ingress.rx_burst > spec.ingress.rx_ring_capacity:
        raise OversubscribedError(
            "ingress.rx_burst",
            f"per-tick pull budget {spec.ingress.rx_burst} oversubscribes the "
            f"RX ring (rx_ring_capacity={spec.ingress.rx_ring_capacity})",
        )

    # Oversubscribed admission: sustained overload with neither backpressure
    # nor an admission policy would silently tail-drop at the bare ring —
    # reject at compile time rather than let a "loss-free" spec lose packets.
    if (
        spec.ingress.cores > 0
        and spec.ingress.admission == "none"
        and not spec.ingress.backpressure
    ):
        capacity = _paced_capacity_bps(spec)
        offered = spec.traffic.offered_pps * spec.traffic.packet_bytes * 8
        if capacity is not None and offered > capacity:
            raise OversubscribedError(
                "ingress.admission",
                f"offered load {offered:.3g} bps oversubscribes the paced "
                f"drain capacity {capacity:.3g} bps with backpressure off and "
                "no admission policy armed — the bare ring would tail-drop "
                "silently; arm an admission policy or enable "
                "ingress.backpressure",
            )

    # Fault injection: kinds must resolve, trigger bounds must be sane, and
    # a wedge fault needs an ingress lane to wedge.
    seen_kinds = set()
    for kind in spec.faults.kinds:
        _require_name(kind, FAULT_KIND_NAMES, "faults.kinds")
        if kind in seen_kinds:
            raise MalformedSpecError("faults.kinds", f"kind {kind!r} listed twice")
        seen_kinds.add(kind)
    _require_positive(spec.faults.events, "faults.events")
    _require_positive(spec.faults.max_tick, "faults.max_tick")
    _require_positive(spec.faults.max_handoff_drops, "faults.max_handoff_drops")
    _require_positive(spec.faults.lease_deadline_ns, "faults.lease_deadline_ns")
    _require_positive(spec.faults.supervise_interval_ns, "faults.supervise_interval_ns")
    if "ingress_wedge" in spec.faults.kinds and spec.ingress.cores == 0:
        raise UnknownNameError(
            "faults.kinds",
            "'ingress_wedge' needs ingress.cores >= 1 "
            "(with no RX cores there is no ring pull to wedge)",
        )

    # Observability plane: bounds must be sane, and a quantile assertion
    # with no histogram armed can never be evaluated.
    _require_positive(spec.observability.trace_capacity, "observability.trace_capacity")
    _require_positive(
        spec.observability.timeline_interval_ns, "observability.timeline_interval_ns"
    )
    if (
        spec.assertions.p99_latency_ns is not None
        and not spec.observability.latency_histograms
    ):
        raise UnknownNameError(
            "assertions.p99_latency_ns",
            "needs observability.latency_histograms = true (there is no "
            "end-to-end histogram to evaluate the bound against otherwise)",
        )

    # The process backend needs statically decomposable shards: every knob
    # that coordinates across shards at runtime is rejected with its own field.
    if spec.runtime.backend == "process":
        backend = spec.runtime.backend
        if spec.runtime.stealing:
            raise BackendIncompatibleError(
                "runtime.stealing",
                f"work stealing needs cross-shard leases, which the "
                f"{backend!r} backend cannot coordinate; disable stealing or "
                "use backend='simulated'",
            )
        if spec.runtime.rebalance_interval_ns is not None:
            raise BackendIncompatibleError(
                "runtime.rebalance_interval_ns",
                f"rebalancing migrates flows between shards at runtime, which "
                f"the {backend!r} backend cannot coordinate; unset it or use "
                "backend='simulated'",
            )
        if spec.ingress.cores > 0:
            raise BackendIncompatibleError(
                "ingress.cores",
                f"ingress cores hand off to shard mailboxes on a shared "
                f"clock, which the {backend!r} backend does not have; set "
                "ingress.cores = 0 or use backend='simulated'",
            )
        for field_name, armed in (
            ("kinds", bool(spec.faults.kinds)),
            ("lease_deadline_ns", spec.faults.lease_deadline_ns is not None),
            ("supervise_interval_ns", spec.faults.supervise_interval_ns is not None),
        ):
            if armed:
                raise BackendIncompatibleError(
                    f"faults.{field_name}",
                    f"fault injection and supervision run on the shared "
                    f"simulated clock, which the {backend!r} backend does not "
                    "have; clear the [faults] block or use backend='simulated'",
                )
        # Histograms decompose per shard; the tracer and timeline observe
        # runtime-global seams only the shared clock has.
        if spec.observability.tracer:
            raise BackendIncompatibleError(
                "observability.tracer",
                f"the flight recorder traces runtime-global seams on the "
                f"shared simulated clock, which the {backend!r} backend does "
                "not have; disable it or use backend='simulated'",
            )
        if spec.observability.timeline:
            raise BackendIncompatibleError(
                "observability.timeline",
                f"the metrics timeline samples runtime-global gauges on the "
                f"shared simulated clock, which the {backend!r} backend does "
                "not have; disable it or use backend='simulated'",
            )


def _validate_fabric(spec: ScenarioSpec) -> None:
    _require_name(spec.traffic.workload, WORKLOAD_NAMES, "traffic.workload")
    if not spec.policy.schemes:
        raise MalformedSpecError("policy.schemes", "needs at least one scheme")
    for scheme in spec.policy.schemes:
        _require_name(scheme, SCHEME_NAMES, "policy.schemes")
    _require_positive(spec.topology.num_leaves, "topology.num_leaves")
    _require_positive(spec.topology.num_spines, "topology.num_spines")
    _require_positive(spec.topology.hosts_per_leaf, "topology.hosts_per_leaf")
    _require_positive(spec.topology.edge_rate_bps, "topology.edge_rate_bps")
    _require_positive(spec.topology.core_rate_bps, "topology.core_rate_bps")
    _require_positive(spec.traffic.num_flows, "traffic.num_flows")
    if spec.topology.num_leaves * spec.topology.hosts_per_leaf < 2:
        raise MalformedSpecError(
            "topology.hosts_per_leaf", "a fabric workload needs at least two hosts"
        )
    if not spec.traffic.loads:
        raise MalformedSpecError("traffic.loads", "needs at least one load point")
    for load in spec.traffic.loads:
        if not 0 < load <= 1.0:
            raise OversubscribedError(
                "traffic.loads",
                f"load {load!r} oversubscribes the edge links; loads must be "
                "in (0, 1]",
            )
    # FCT assertion blocks cross-reference schemes by name; a spec asserting
    # on a scheme it never runs would fail mid-evaluation instead.
    if spec.assertions.fct_small_flow_advantage:
        for needed in ("pfabric", "dctcp"):
            if needed not in spec.policy.schemes:
                raise UnknownNameError(
                    "assertions.fct_small_flow_advantage",
                    f"needs scheme {needed!r} in policy.schemes "
                    f"(got {sorted(spec.policy.schemes)})",
                )
    if spec.assertions.fct_approx_tolerance is not None:
        for needed in ("pfabric", "pfabric_approx"):
            if needed not in spec.policy.schemes:
                raise UnknownNameError(
                    "assertions.fct_approx_tolerance",
                    f"needs scheme {needed!r} in policy.schemes "
                    f"(got {sorted(spec.policy.schemes)})",
                )


def _validate_bess(spec: ScenarioSpec) -> None:
    if not spec.policy.sweep_queues:
        raise MalformedSpecError("policy.sweep_queues", "needs at least one queue")
    for name in spec.policy.sweep_queues:
        _require_name(name, QUEUE_NAMES, "policy.sweep_queues")
    _require_positive(spec.traffic.num_flows, "traffic.num_flows")
    _require_positive(spec.traffic.sweep_packets, "traffic.sweep_packets")
    _require_positive(spec.topology.line_rate_bps, "topology.line_rate_bps")
    _require_positive(spec.topology.cycles_per_second, "topology.cycles_per_second")
    if not spec.traffic.packet_sizes:
        raise MalformedSpecError("traffic.packet_sizes", "needs at least one size")
    for size in spec.traffic.packet_sizes:
        _require_positive(size, "traffic.packet_sizes")
    if not spec.traffic.batch_sizes:
        raise MalformedSpecError("traffic.batch_sizes", "needs at least one size")
    for size in spec.traffic.batch_sizes:
        _require_positive(size, "traffic.batch_sizes")


def validate(spec: ScenarioSpec) -> ScenarioSpec:
    """Eagerly validate a spec; returns it unchanged or raises a typed error.

    Every rejection is a :class:`ScenarioSpecError` subclass whose ``field``
    attribute names the offending field in ``section.field`` form — no
    silent fallbacks, no partial builds.
    """
    if not isinstance(spec.name, str) or not spec.name:
        raise MalformedSpecError("name", "must be a non-empty string")
    if isinstance(spec.seed, bool) or not isinstance(spec.seed, int):
        raise MalformedSpecError("seed", f"must be an integer, got {spec.seed!r}")
    _require_name(spec.topology.kind, KINDS, "topology.kind")
    if spec.topology.kind != "runtime" and spec.faults != FaultsSpec():
        raise MalformedSpecError(
            "faults",
            f"fault injection applies only to runtime-kind scenarios "
            f"(topology.kind = {spec.topology.kind!r})",
        )
    if spec.topology.kind != "runtime" and spec.observability != ObservabilitySpec():
        raise MalformedSpecError(
            "observability",
            f"the observability plane applies only to runtime-kind scenarios "
            f"(topology.kind = {spec.topology.kind!r})",
        )
    if spec.topology.kind == "runtime":
        _validate_runtime(spec)
    elif spec.topology.kind == "fabric":
        _validate_fabric(spec)
    else:
        _validate_bess(spec)
    # Assertion bounds are plain ranges whatever the kind.
    _require_positive(spec.assertions.min_transmitted, "assertions.min_transmitted",
                      allow_zero=True)
    _require_positive(spec.assertions.min_mops, "assertions.min_mops")
    _require_positive(spec.assertions.batch_amortises_at, "assertions.batch_amortises_at")
    for bound_name in ("max_drop_fraction", "max_stall_fraction", "min_completion_rate"):
        bound = getattr(spec.assertions, bound_name)
        if bound is not None and not 0.0 <= bound <= 1.0:
            raise MalformedSpecError(
                f"assertions.{bound_name}", f"must be a fraction in [0, 1], got {bound!r}"
            )
    if spec.assertions.fct_approx_tolerance is not None:
        _require_positive(spec.assertions.fct_approx_tolerance,
                          "assertions.fct_approx_tolerance")
    _require_positive(spec.assertions.p99_latency_ns, "assertions.p99_latency_ns")
    return spec


__all__ = [
    "ADMISSION_NAMES",
    "AssertionSpec",
    "BACKEND_NAMES",
    "BackendIncompatibleError",
    "FAULT_KIND_NAMES",
    "FaultsSpec",
    "IngressSpec",
    "KINDS",
    "MalformedSpecError",
    "ObservabilitySpec",
    "OversubscribedError",
    "PATTERN_NAMES",
    "PolicyTreeSpec",
    "QUEUE_NAMES",
    "RuntimeSpec",
    "SCHEME_NAMES",
    "ScenarioSpec",
    "ScenarioSpecError",
    "TopologySpec",
    "TrafficSpec",
    "UnknownNameError",
    "WORKLOAD_NAMES",
    "derive_seed",
    "validate",
]
