#!/usr/bin/env python3
"""Scenario compiler walkthrough: experiments as data.

Every experiment in this repo is a composition of the same building blocks —
a substrate (sharded runtime / leaf-spine fabric / BESS pipeline), a policy
tree, a traffic source, an ingress stage, and the assertions that make a run
meaningful.  ``repro.scenario`` turns that composition into a frozen
dataclass tree (:class:`~repro.scenario.ScenarioSpec`) with TOML load/dump,
eager field-naming validation, and a compiler that binds a spec onto the
real pieces.  Three consequences, each demonstrated below:

1. **Scenarios are files.**  ``examples/scenarios/zipf_steal_codel.toml``
   describes a 4-shard stealing runtime behind CoDel-armed RX cores at
   overload; one ``run_scenario`` call compiles and runs it, and its
   ``[assertions]`` table is checked against the finished run.
2. **Invalid scenarios don't run.**  Typos, dangling flow references,
   oversubscribed admission and parallel-backend-incompatible knobs are
   rejected *before* anything is built, each with a typed error naming the
   offending field.
3. **The figure benchmarks are specs too.**  ``figure13_spec()`` and
   ``figure19_spec()`` are the declarative forms of the committed
   benchmarks — the golden-equivalence suite pins them to the hand-wired
   results, so the TOML dump below *is* the benchmark configuration.

Run:  python examples/scenario_spec.py
"""

from pathlib import Path

from repro.scenario import (
    BackendIncompatibleError,
    IngressSpec,
    PolicyTreeSpec,
    RuntimeSpec,
    ScenarioSpec,
    TopologySpec,
    TrafficSpec,
    UnknownNameError,
    dump_toml,
    figure19_spec,
    load_toml_file,
    run_scenario,
    validate,
)

SCENARIO_FILE = Path(__file__).parent / "scenarios" / "zipf_steal_codel.toml"


def run_the_committed_scenario() -> None:
    print(f"--- 1. a scenario from disk: {SCENARIO_FILE.name} ---\n")
    spec = load_toml_file(SCENARIO_FILE)
    print(
        f"  {spec.name}: {spec.runtime.shards} shards "
        f"(stealing={spec.runtime.stealing}), {spec.ingress.cores} RX cores "
        f"({spec.ingress.admission}), {spec.traffic.total_packets} packets of "
        f"Zipf({spec.traffic.zipf_skew}) traffic at "
        f"{spec.traffic.offered_pps:.0e} pps"
    )
    result = run_scenario(spec)  # compiles, runs, checks [assertions]
    print(f"  {result.summary()}")
    print(
        "  All assertion blocks held: conservation, per-flow FIFO across\n"
        "  steals and RX lanes, and no stranded slots/leases after drain.\n"
    )


def show_eager_validation() -> None:
    print("--- 2. invalid scenarios are rejected before they are built ---\n")
    rejects = [
        (
            "a typo'd queue name",
            ScenarioSpec(policy=PolicyTreeSpec(queue="circular_ffs_")),
        ),
        (
            "a pacing override for a flow the traffic never generates",
            ScenarioSpec(
                traffic=TrafficSpec(num_flows=8),
                policy=PolicyTreeSpec(flow_rates=((64, 1e9),)),
            ),
        ),
        (
            "work stealing on the process backend",
            ScenarioSpec(
                runtime=RuntimeSpec(shards=2, backend="process", stealing=True),
            ),
        ),
        (
            "an admission policy with no RX core to run it",
            ScenarioSpec(ingress=IngressSpec(cores=0, admission="codel")),
        ),
    ]
    for title, spec in rejects:
        try:
            validate(spec)
        except (UnknownNameError, BackendIncompatibleError, ValueError) as exc:
            print(f"  {title}:\n    {type(exc).__name__}: {exc}")
    print()


def show_figure_specs_as_toml() -> None:
    print("--- 3. the Figure 19 benchmark, as data ---\n")
    toml_text = dump_toml(figure19_spec())
    for line in toml_text.splitlines():
        print(f"  {line}")
    print(
        "\n  `run_figure19_from_spec(figure19_spec())` is exactly what\n"
        "  benchmarks/bench_fig19_pfabric_fct.py now runs; the golden suite\n"
        "  (tests/scenario/test_scenario_golden.py) pins the compiled results\n"
        "  to the hand-wired FabricExperimentConfig, flow for flow."
    )


def show_a_spec_built_in_python() -> None:
    print("\n--- bonus: the same layer from Python ---\n")
    spec = ScenarioSpec(
        name="two-shards-in-processes",
        seed=7,
        topology=TopologySpec(kind="runtime"),
        policy=PolicyTreeSpec(default_rate_bps=10e9),
        traffic=TrafficSpec(num_flows=8, total_packets=512),
        runtime=RuntimeSpec(shards=2, backend="process"),
    )
    result = run_scenario(spec)
    print(
        f"  {spec.name}: the statically decomposable subset runs one forked\n"
        f"  OS process per shard through the same spec — {result.summary()}"
    )


def main() -> None:
    run_the_committed_scenario()
    show_eager_validation()
    show_figure_specs_as_toml()
    show_a_spec_built_in_python()


if __name__ == "__main__":
    main()
