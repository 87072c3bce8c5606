"""Negative paths: every rejected spec shape raises a typed, field-naming error.

The contract under test is :func:`repro.scenario.validate`'s docstring —
every rejection is a :class:`ScenarioSpecError` subclass whose ``field``
attribute names the offending field in ``section.field`` form, raised
*eagerly* (at validate/compile/load time), never mid-experiment.

Each test pins three things: the error **type**, the ``.field`` payload,
and that the same shape is rejected through ``compile_scenario`` (the
compiler refuses to bind an invalid spec, it does not re-interpret it).
"""

import dataclasses

import pytest

from repro.scenario import (
    AssertionSpec,
    BackendIncompatibleError,
    FaultsSpec,
    IngressSpec,
    MalformedSpecError,
    OversubscribedError,
    PolicyTreeSpec,
    RuntimeSpec,
    ScenarioSpec,
    ScenarioSpecError,
    TopologySpec,
    TrafficSpec,
    UnknownNameError,
    compile_scenario,
    load_toml,
    validate,
)


def _reject(spec, error_type, field_name):
    """Assert the spec is rejected by validate() *and* compile_scenario()."""
    for entry in (validate, compile_scenario):
        with pytest.raises(error_type) as excinfo:
            entry(spec)
        assert excinfo.value.field == field_name
        assert isinstance(excinfo.value, ScenarioSpecError)
        # The message is actionable: it names the field on its own.
        assert field_name in str(excinfo.value)


def _runtime_spec(**overrides):
    sections = {
        name: overrides.pop(name)
        for name in ("topology", "policy", "traffic", "ingress", "runtime",
                     "assertions")
        if name in overrides
    }
    return ScenarioSpec(topology=TopologySpec(kind="runtime"), **sections,
                        **overrides)


# -- unknown names ------------------------------------------------------------


@pytest.mark.parametrize(
    "section, field_value, field_name",
    [
        ("policy", PolicyTreeSpec(queue="fifo"), "policy.queue"),
        ("runtime", RuntimeSpec(backend="gpu"), "runtime.backend"),
        ("runtime", RuntimeSpec(backend="thread"), "runtime.backend"),
        ("ingress", IngressSpec(admission="red"), "ingress.admission"),
        ("traffic", TrafficSpec(pattern="bursty"), "traffic.pattern"),
    ],
)
def test_unknown_names_are_rejected_with_the_field(section, field_value, field_name):
    _reject(_runtime_spec(**{section: field_value}),
            UnknownNameError, field_name)


def test_unknown_topology_kind_is_rejected():
    _reject(ScenarioSpec(topology=TopologySpec(kind="quantum")),
            UnknownNameError, "topology.kind")


def test_unknown_fabric_scheme_is_rejected():
    spec = ScenarioSpec(
        topology=TopologySpec(kind="fabric"),
        policy=PolicyTreeSpec(schemes=("pfabric", "tcp_reno")),
    )
    _reject(spec, UnknownNameError, "policy.schemes")


def test_unknown_fabric_workload_is_rejected():
    spec = ScenarioSpec(
        topology=TopologySpec(kind="fabric"),
        traffic=TrafficSpec(workload="cachefollower"),
    )
    _reject(spec, UnknownNameError, "traffic.workload")


def test_unknown_bess_sweep_queue_is_rejected():
    spec = ScenarioSpec(
        topology=TopologySpec(kind="bess"),
        policy=PolicyTreeSpec(sweep_queues=("gradient", "skiplist")),
    )
    _reject(spec, UnknownNameError, "policy.sweep_queues")


# -- dangling cross-references ------------------------------------------------


def test_pacing_override_for_flow_outside_the_traffic_universe():
    spec = _runtime_spec(
        traffic=TrafficSpec(num_flows=8),
        policy=PolicyTreeSpec(flow_rates=((8, 1e9),)),  # flows are [0, 8)
    )
    _reject(spec, UnknownNameError, "policy.flow_rates")


def test_duplicate_pacing_override_is_rejected():
    spec = _runtime_spec(
        policy=PolicyTreeSpec(flow_rates=((3, 1e9), (3, 2e9))),
    )
    _reject(spec, MalformedSpecError, "policy.flow_rates")


def test_fct_advantage_assertion_needs_both_schemes():
    spec = ScenarioSpec(
        topology=TopologySpec(kind="fabric"),
        policy=PolicyTreeSpec(schemes=("pfabric",)),  # no dctcp anchor
        assertions=AssertionSpec(fct_small_flow_advantage=True),
    )
    _reject(spec, UnknownNameError, "assertions.fct_small_flow_advantage")


def test_fct_tolerance_assertion_needs_the_approx_scheme():
    spec = ScenarioSpec(
        topology=TopologySpec(kind="fabric"),
        policy=PolicyTreeSpec(schemes=("dctcp", "pfabric")),
        assertions=AssertionSpec(fct_approx_tolerance=0.5),
    )
    _reject(spec, UnknownNameError, "assertions.fct_approx_tolerance")


# -- oversubscription ---------------------------------------------------------


def test_admission_policy_without_rx_cores_is_dead_config():
    spec = _runtime_spec(ingress=IngressSpec(cores=0, admission="codel"))
    _reject(spec, UnknownNameError, "ingress.admission")


def test_rx_burst_larger_than_the_ring_is_oversubscribed():
    spec = _runtime_spec(
        ingress=IngressSpec(cores=1, rx_ring_capacity=64, rx_burst=128),
    )
    _reject(spec, OversubscribedError, "ingress.rx_burst")


def test_overload_with_no_backpressure_and_no_admission_is_oversubscribed():
    # 1e7 pps x 1500 B = 120 Gbps offered against 16 x 1 Gbps paced drain,
    # with both safety nets (backpressure, admission) disarmed.
    spec = _runtime_spec(
        traffic=TrafficSpec(offered_pps=1e7, packet_bytes=1500, num_flows=16),
        policy=PolicyTreeSpec(default_rate_bps=1e9),
        ingress=IngressSpec(cores=1, admission="none", backpressure=False),
    )
    _reject(spec, OversubscribedError, "ingress.admission")


def test_same_overload_is_accepted_once_backpressure_is_armed():
    spec = _runtime_spec(
        traffic=TrafficSpec(offered_pps=1e7, packet_bytes=1500, num_flows=16),
        policy=PolicyTreeSpec(default_rate_bps=1e9),
        ingress=IngressSpec(cores=1, admission="none", backpressure=True),
    )
    assert validate(spec) is spec


def test_fabric_load_above_one_is_oversubscribed():
    spec = ScenarioSpec(
        topology=TopologySpec(kind="fabric"),
        traffic=TrafficSpec(loads=(0.5, 1.2)),
    )
    _reject(spec, OversubscribedError, "traffic.loads")


# -- process-backend incompatibilities ----------------------------------------


@pytest.mark.parametrize(
    "runtime, ingress, faults, field_name",
    [
        (dict(stealing=True), dict(), dict(), "runtime.stealing"),
        (dict(rebalance_interval_ns=1_000_000), dict(), dict(),
         "runtime.rebalance_interval_ns"),
        (dict(), dict(cores=2), dict(), "ingress.cores"),
        (dict(), dict(), dict(kinds=("shard_crash",)), "faults.kinds"),
        (dict(), dict(), dict(lease_deadline_ns=100_000), "faults.lease_deadline_ns"),
        (dict(), dict(), dict(supervise_interval_ns=100_000), "faults.supervise_interval_ns"),
    ],
)
def test_the_process_backend_rejects_cross_shard_knobs(runtime, ingress, faults,
                                                       field_name):
    spec = _runtime_spec(
        runtime=RuntimeSpec(shards=2, backend="process", **runtime),
        ingress=IngressSpec(**ingress),
        faults=FaultsSpec(**faults),
    )
    _reject(spec, BackendIncompatibleError, field_name)


# -- malformed values ---------------------------------------------------------


def test_empty_name_is_rejected():
    _reject(_runtime_spec(name=""), MalformedSpecError, "name")


def test_boolean_seed_is_rejected():
    _reject(_runtime_spec(seed=True), MalformedSpecError, "seed")


@pytest.mark.parametrize(
    "section_kwargs, field_name",
    [
        (dict(runtime=RuntimeSpec(shards=0)), "runtime.shards"),
        (dict(runtime=RuntimeSpec(quantum_ns=-1)), "runtime.quantum_ns"),
        (dict(policy=PolicyTreeSpec(num_buckets=0)), "policy.num_buckets"),
        (dict(traffic=TrafficSpec(offered_pps=float("inf"))),
         "traffic.offered_pps"),
        (dict(traffic=TrafficSpec(num_flows=0)), "traffic.num_flows"),
        (dict(policy=PolicyTreeSpec(flow_rates=((0, -1.0),))),
         "policy.flow_rates[0]"),
        (dict(assertions=AssertionSpec(max_drop_fraction=1.5)),
         "assertions.max_drop_fraction"),
        (dict(assertions=AssertionSpec(max_stall_fraction=-0.1)),
         "assertions.max_stall_fraction"),
    ],
)
def test_out_of_range_values_are_rejected(section_kwargs, field_name):
    _reject(_runtime_spec(**section_kwargs), MalformedSpecError, field_name)


def test_empty_fabric_loads_are_rejected():
    spec = ScenarioSpec(topology=TopologySpec(kind="fabric"),
                        traffic=TrafficSpec(loads=()))
    _reject(spec, MalformedSpecError, "traffic.loads")


def test_single_host_fabric_is_rejected():
    spec = ScenarioSpec(
        topology=TopologySpec(kind="fabric", num_leaves=1, hosts_per_leaf=1),
    )
    _reject(spec, MalformedSpecError, "topology.hosts_per_leaf")


# -- the TOML loader's own rejections -----------------------------------------


def test_unparseable_toml_is_malformed():
    with pytest.raises(MalformedSpecError) as excinfo:
        load_toml("[traffic\npattern = ")
    assert excinfo.value.field == "<toml>"


def test_unknown_toml_section_is_rejected():
    with pytest.raises(UnknownNameError) as excinfo:
        load_toml('[trafic]\npattern = "zipf"\n')
    assert excinfo.value.field == "trafic"


@pytest.mark.parametrize(
    "text, field_name",
    [
        ('[traffic]\npatern = "zipf"\n', "traffic.patern"),
        # Placement is the RSS hash plus pins; there is no policy to choose.
        ('[runtime]\nsharding = "hash"\n', "runtime.sharding"),
    ],
)
def test_unknown_toml_key_names_its_section_dot_key_path(text, field_name):
    with pytest.raises(UnknownNameError) as excinfo:
        load_toml(text)
    assert excinfo.value.field == field_name


def test_wrong_typed_toml_field_is_malformed():
    with pytest.raises(MalformedSpecError) as excinfo:
        load_toml('[runtime]\nshards = "four"\n')
    assert excinfo.value.field == "runtime.shards"


def test_malformed_flow_rates_pair_is_rejected_with_its_index():
    with pytest.raises(MalformedSpecError) as excinfo:
        load_toml("[policy]\nflow_rates = [[1, 1e9], [2]]\n")
    assert excinfo.value.field == "policy.flow_rates[1]"


def test_toml_loading_ends_with_the_semantic_validation_pass():
    # A syntactically perfect file with a semantic hole still gets the
    # typed, field-naming rejection — there is no "loaded but invalid" state.
    with pytest.raises(UnknownNameError) as excinfo:
        load_toml('[policy]\nqueue = "fifo"\n')
    assert excinfo.value.field == "policy.queue"


def test_every_rejection_type_shares_the_scenario_error_base():
    for error_type in (UnknownNameError, OversubscribedError,
                       BackendIncompatibleError, MalformedSpecError):
        assert issubclass(error_type, ScenarioSpecError)
        assert issubclass(error_type, ValueError)


def test_valid_default_spec_passes_and_is_returned_unchanged():
    spec = ScenarioSpec()
    assert validate(spec) is spec
    assert dataclasses.is_dataclass(spec) and dataclasses.asdict(spec)
