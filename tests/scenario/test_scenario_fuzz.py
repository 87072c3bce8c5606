"""Runtime-wide scenario fuzzing: random valid specs vs the invariant net.

This is the payoff of the declarative layer: Hypothesis draws whole-system
configurations — shards × queue type × stealing × rebalancing × ingress
cores × admission × pacing × traffic pattern — and every drawn scenario
runs end-to-end against the global invariants no configuration may break:

* **packet conservation** — transmitted + dropped == offered, and the
  delivered packet-id multiset never exceeds the offered one;
* **per-flow FIFO** — each flow's departures are (a subsequence of, equal
  to when loss-free) its arrivals, in order, across shards, steals,
  migrations and RX lanes;
* **no stranded state** — after drain: no packets anywhere in the pipeline,
  no flow-table slot claiming in-flight packets, no flow on loan, no open
  or held lease, no RX core parked on backpressure.

These are exactly the `[assertions]` defaults of every spec, so the test
body is simply "run it and check" — the compiler's assertion evaluator is
the oracle, and a failing example shrinks to a minimal broken configuration.

``SCENARIO_FUZZ_EXAMPLES`` caps the example count (CI sets a small cap; the
default stays modest because every example runs a full workload).
"""

import os

from hypothesis import HealthCheck, given, settings

from repro.scenario import ScenarioAssertionError, compile_scenario, run_scenario
from repro.scenario.fuzz import parallel_backend_specs, scenario_specs

MAX_EXAMPLES = int(os.environ.get("SCENARIO_FUZZ_EXAMPLES", "25"))

#: Scenario runs are whole-system simulations: seconds-scale examples are
#: expected, and the strategy's constructive validity means no filtering.
FUZZ_SETTINGS = dict(
    max_examples=MAX_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@settings(**FUZZ_SETTINGS)
@given(spec=scenario_specs())
def test_random_scenarios_uphold_runtime_invariants(spec):
    result = run_scenario(spec, check=False)
    if result.failures:
        raise ScenarioAssertionError(spec.name, result.failures)
    # The ledgers the oracle judged must describe the whole workload.
    assert result.offered == spec.traffic.total_packets
    assert sum(len(ids) for ids in result.offered_by_flow.values()) == result.offered


def _normalized_ledgers(result):
    """Re-key packet ids as per-run offer ordinals.

    ``Packet.packet_id`` is a process-global counter, so raw ids differ
    between two runs of the same spec; what determinism pins is *which*
    offered packet (by position) went where.
    """
    ordinal = {
        packet_id: index
        for index, packet_id in enumerate(
            pid for ids in result.offered_by_flow.values() for pid in ids
        )
    }
    offered = {
        flow: [ordinal[pid] for pid in ids]
        for flow, ids in result.offered_by_flow.items()
    }
    delivered = {
        flow: [ordinal[pid] for pid in ids]
        for flow, ids in result.delivered_by_flow.items()
    }
    return offered, delivered


@settings(**FUZZ_SETTINGS)
@given(spec=scenario_specs())
def test_random_scenarios_are_deterministic_from_the_seed(spec):
    """One seed pins the whole run: replaying a spec replays its result."""
    first = run_scenario(spec, check=False)
    second = run_scenario(spec, check=False)
    assert _normalized_ledgers(first) == _normalized_ledgers(second)
    assert first.transmitted == second.transmitted
    assert first.dropped == second.dropped
    assert (
        first.telemetry.bottleneck_cycles == second.telemetry.bottleneck_cycles
    )


@settings(max_examples=max(1, MAX_EXAMPLES // 5), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=parallel_backend_specs())
def test_parallel_backend_scenarios_uphold_invariants(spec):
    """The statically decomposable subset holds the same net on real cores.

    Kept to thread-backend draws by overriding the spec would defeat the
    point; instead the strategy draws both backends and the example budget
    stays small — each process-backend example forks real workers.
    """
    result = run_scenario(spec, check=False)
    if result.failures:
        raise ScenarioAssertionError(spec.name, result.failures)


def test_fuzz_strategy_only_generates_valid_specs():
    """Compiling (not just validating) a sample of draws must never raise."""
    from hypothesis import find

    # ``find`` with a trivial predicate pulls a shrunk draw through the
    # whole strategy machinery — a cheap end-to-end sanity check that the
    # strategy's constructive validity matches validate()'s rules.
    spec = find(scenario_specs(), lambda _spec: True)
    compiled = compile_scenario(spec)
    assert compiled.spec is spec
