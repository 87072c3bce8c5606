"""Declarative scenarios: the experiment matrix as data.

A :class:`ScenarioSpec` describes one complete experiment — substrate,
policy tree, traffic, ingress, runtime knobs, assertion blocks — as a frozen
dataclass tree with TOML load/dump.  :func:`compile_scenario` eagerly
validates it (typed errors naming the offending field) and binds it onto the
existing building blocks; :func:`run_scenario` executes it into a
:class:`ScenarioResult` whose declarative assertions have been evaluated.

Quick start::

    from repro.scenario import ScenarioSpec, RuntimeSpec, TrafficSpec, run_scenario

    spec = ScenarioSpec(
        name="smoke",
        seed=7,
        runtime=RuntimeSpec(shards=4, stealing=True),
        traffic=TrafficSpec(pattern="zipf", num_flows=64, total_packets=4096),
    )
    result = run_scenario(spec)   # raises ScenarioAssertionError on violation
    print(result.summary())

Spec schema (TOML sections; every key optional with the default shown; the
same tree as the dataclasses; ``Optional`` fields spell ``None`` as the
string ``"none"``):

``name`` (str, "scenario") · ``seed`` (int, 0) — one seed pins every random
stream (traffic sampler, workload sub-streams, shard hash, ingress lane
hash) via :func:`derive_seed`.

``[topology]``
    ``kind`` — ``"runtime"`` (sharded runtime; the fuzzable kind),
    ``"fabric"`` (Figure 19 leaf-spine), ``"bess"`` (Figure 13 pipeline +
    batching sweep).  Fabric dims: ``num_leaves``/``num_spines``/
    ``hosts_per_leaf`` (3/3/3), ``edge_rate_bps`` (10e9), ``core_rate_bps``
    (40e9), ``link_propagation_ns`` (200).  Single-core hardware:
    ``line_rate_bps`` (10e9), ``cycles_per_second`` (3e9).

``[policy]``
    ``queue`` ("circular_ffs" | "hierarchical_ffs" | "gradient" |
    "approx_gradient"), ``num_buckets`` (20_000; the bess kind reads it as
    the sweep's rank range), ``horizon_ns`` (2e9), ``default_rate_bps``
    ("none"), ``flow_rates`` (array of ``[flow_id, rate_bps]`` pairs; flow
    ids must exist in the traffic universe), ``schemes`` (fabric kind),
    ``sweep_queues`` (bess kind).

``[traffic]``
    ``pattern`` ("round_robin" | "zipf"), ``num_flows`` (16),
    ``total_packets`` (2048), ``offered_pps`` (1e6), ``burst_size`` (32),
    ``packet_bytes`` (1500), ``zipf_skew`` (1.1); fabric kind: ``workload``
    ("websearch" | "datamining"), ``loads`` ((0.2, 0.5, 0.8), each in
    (0, 1]); bess kind: ``packet_sizes``, ``batch_sizes``,
    ``sweep_packets``.

``[ingress]``
    ``cores`` (0 = historical synchronous ingress), ``admission`` ("none" |
    "tail_drop" | "fair_drop" | "codel"; needs ``cores >= 1``),
    ``rx_ring_capacity`` (512), ``rx_burst`` (64, must not exceed the
    ring), ``backpressure`` (true), ``mailbox_capacity`` ("none"),
    ``shard_backlog_limit`` ("none").

``[runtime]``
    ``shards`` (1), ``quantum_ns`` (50_000), ``batch_per_quantum`` (64),
    ``stealing`` (false; a lease carries at most 64 packets due within
    one quantum), ``steal_min_backlog`` (8),
    ``rebalance_interval_ns`` ("none"), ``gc_interval_packets`` (4096),
    ``gc_sweep_limit`` ("none"), ``backend`` ("simulated" | "process";
    the process backend, the simulated clock's differential oracle,
    rejects stealing / rebalancing / ingress cores at validation time).

``[faults]``
    Deterministic fault injection (runtime kind, simulated backend only).
    ``kinds`` (array of "shard_crash" | "shard_stall" | "handoff_drop" |
    "ingress_wedge"; empty = disarmed; "ingress_wedge" needs
    ``ingress.cores >= 1``), ``events`` (1), ``max_tick`` (32; a drawn
    "handoff_drop" eats 1 to 4 packets), ``lease_deadline_ns`` ("none"),
    ``supervise_interval_ns`` ("none" = twice the runtime quantum).  The
    compiler draws the fault schedule from ``derive_seed(seed, "faults")``,
    so the scenario seed pins faults exactly as it pins the workload;
    injected losses are counted drops, keeping the conservation assertion
    meaningful under failure.

``[observability]``
    The deterministic observability plane (runtime kind only; everything
    defaults off and a disarmed spec compiles a byte-identical runtime).
    ``latency_histograms`` (false; arms per-seam
    :class:`~repro.runtime.LogHistogram` recording — allowed on every
    backend, per-shard histograms merge across process children),
    ``tracer`` (false; arms a :class:`~repro.runtime.FlightRecorder` of
    65,536 events — simulated backend only), ``timeline`` (false; arms a
    :class:`~repro.runtime.MetricsTimeline` gauge sampler, one sample per
    runtime quantum — simulated backend only).

``[assertions]``
    The invariant net: ``conservation``, ``per_flow_fifo``,
    ``no_stranded_state`` (all true).  Optional bounds (``"none"`` = off):
    ``min_transmitted``, ``max_drop_fraction``, ``min_mops``,
    ``max_stall_fraction``, ``p99_latency_ns`` (ceiling on the end-to-end
    submit→transmit p99; needs ``observability.latency_histograms``);
    fabric: ``min_completion_rate``, ``fct_small_flow_advantage``,
    ``fct_approx_tolerance``; bess: ``batch_amortises_at``.

Validation rejections are typed (:class:`ScenarioSpecError` subclasses with
a ``field`` attribute): :class:`UnknownNameError` (unknown names, dangling
cross-references), :class:`OversubscribedError` (rx_burst > ring, loads
outside (0, 1], overload with backpressure off and no admission),
:class:`BackendIncompatibleError` (cross-shard knobs under the process
backend), :class:`MalformedSpecError` (bad TOML, wrong types, bad ranges).

:mod:`repro.scenario.fuzz` draws random valid specs for the property suite;
:mod:`repro.scenario.figures` holds the canonical Figure 13/19 specs the
benchmarks compile.
"""

from .compiler import (
    CompiledScenario,
    ScenarioAssertionError,
    ScenarioResult,
    compile_scenario,
    run_scenario,
)
from .figures import figure13_spec, figure19_spec
from .serialize import dump_toml, dump_toml_file, load_toml, load_toml_file
from .spec import (
    ADMISSION_NAMES,
    BACKEND_NAMES,
    FAULT_KIND_NAMES,
    KINDS,
    PATTERN_NAMES,
    QUEUE_NAMES,
    SCHEME_NAMES,
    WORKLOAD_NAMES,
    AssertionSpec,
    BackendIncompatibleError,
    FaultsSpec,
    IngressSpec,
    MalformedSpecError,
    ObservabilitySpec,
    OversubscribedError,
    PolicyTreeSpec,
    RuntimeSpec,
    ScenarioSpec,
    ScenarioSpecError,
    TopologySpec,
    TrafficSpec,
    UnknownNameError,
    derive_seed,
    validate,
)

__all__ = [
    "ADMISSION_NAMES",
    "AssertionSpec",
    "BACKEND_NAMES",
    "BackendIncompatibleError",
    "CompiledScenario",
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
    "ScenarioAssertionError",
    "ScenarioResult",
    "ScenarioSpec",
    "ScenarioSpecError",
    "TopologySpec",
    "TrafficSpec",
    "UnknownNameError",
    "WORKLOAD_NAMES",
    "compile_scenario",
    "derive_seed",
    "dump_toml",
    "dump_toml_file",
    "figure13_spec",
    "figure19_spec",
    "load_toml",
    "load_toml_file",
    "run_scenario",
    "validate",
]
