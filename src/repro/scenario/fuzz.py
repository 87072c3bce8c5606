"""Hypothesis strategies over scenario specs: fuzz the runtime as data.

The point of the declarative layer is that "a configuration of the whole
system" is now a value — so Hypothesis can *generate* configurations and the
property suite can run each one end-to-end against the runtime-wide
invariant net (packet conservation, per-flow FIFO, no stranded flow-table
slots or leases after drain).  Shards × stealing × rebalancing × ingress
cores × admission × queue type × traffic pattern is a space no hand-written
test matrix covers; the strategy below samples it with every draw
constructively valid, so shrinking stays inside the valid region and a
failing example is always a real counterexample, never a spec typo.

Hypothesis is a test-only dependency: it is imported lazily inside the
strategy functions, so importing :mod:`repro.scenario` (or shipping it
somewhere without Hypothesis) stays dependency-free.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from .spec import (
    QUEUE_NAMES,
    AssertionSpec,
    FaultsSpec,
    IngressSpec,
    ObservabilitySpec,
    PolicyTreeSpec,
    RuntimeSpec,
    ScenarioSpec,
    TopologySpec,
    TrafficSpec,
    validate,
)

#: Kept deliberately small: every drawn spec is *run end-to-end*, so the
#: per-example budget rules the fuzz suite's wall clock.
MAX_FUZZ_FLOWS = 24
MAX_FUZZ_PACKETS = 200


def scenario_specs(max_shards: int = 4, max_ingress_cores: int = 2):
    """Strategy drawing random *valid* runtime-kind scenario specs.

    Every draw composes the axes the runtime-wide invariants must survive:
    shard count, placement policy, queue type, work stealing, periodic
    rebalancing, ingress cores with every admission policy (and pure
    backpressure), bounded mailboxes, pacing overrides, and both traffic
    patterns.  Validity is by construction — e.g. an admission policy is
    only drawn when at least one ingress core is, and pacing overrides only
    name flows the traffic spec generates — and double-checked with
    :func:`~repro.scenario.spec.validate` so a strategy bug surfaces as a
    loud typed error, not as silent fuzz-space shrinkage.
    """
    import hypothesis.strategies as st

    @st.composite
    def _spec(draw) -> ScenarioSpec:
        seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
        shards = draw(st.integers(min_value=1, max_value=max_shards))
        stealing = draw(st.booleans())
        rebalancing = draw(st.booleans())
        ingress_cores = draw(st.integers(min_value=0, max_value=max_ingress_cores))
        admission = (
            draw(st.sampled_from(("none", "tail_drop", "fair_drop", "codel")))
            if ingress_cores
            else "none"
        )
        num_flows = draw(st.integers(min_value=1, max_value=MAX_FUZZ_FLOWS))
        pattern = draw(st.sampled_from(("round_robin", "zipf")))
        # Pacing: either unpaced, or a default rate with a few per-flow
        # overrides drawn from the flows the traffic spec actually generates.
        default_rate: Optional[float] = draw(
            st.one_of(st.none(), st.sampled_from((1e9, 10e9)))
        )
        overrides = ()
        if default_rate is not None:
            override_flows = draw(
                st.lists(
                    st.integers(min_value=0, max_value=num_flows - 1),
                    unique=True,
                    max_size=3,
                )
            )
            overrides = tuple(
                (flow_id, draw(st.sampled_from((5e8, 2e9)))) for flow_id in override_flows
            )
        mailbox_capacity = draw(st.one_of(st.none(), st.sampled_from((64, 256))))
        spec = ScenarioSpec(
            name=f"fuzz-{seed:08x}",
            seed=seed,
            topology=TopologySpec(kind="runtime"),
            policy=PolicyTreeSpec(
                queue=draw(st.sampled_from(QUEUE_NAMES)),
                num_buckets=draw(st.sampled_from((256, 1024))),
                default_rate_bps=default_rate,
                flow_rates=overrides,
            ),
            traffic=TrafficSpec(
                pattern=pattern,
                num_flows=num_flows,
                total_packets=draw(st.integers(min_value=0, max_value=MAX_FUZZ_PACKETS)),
                offered_pps=draw(st.sampled_from((1e5, 1e6, 1e7))),
                burst_size=draw(st.integers(min_value=1, max_value=32)),
                packet_bytes=draw(st.sampled_from((60, 1500))),
                zipf_skew=draw(st.sampled_from((0.0, 1.1, 1.8))),
            ),
            ingress=IngressSpec(
                cores=ingress_cores,
                admission=admission,
                rx_ring_capacity=draw(st.sampled_from((64, 512))),
                rx_burst=draw(st.integers(min_value=1, max_value=64)),
                backpressure=True,
                mailbox_capacity=mailbox_capacity,
            ),
            runtime=RuntimeSpec(
                shards=shards,
                stealing=stealing,
                steal_min_backlog=draw(st.integers(min_value=1, max_value=16)),
                rebalance_interval_ns=(
                    draw(st.sampled_from((200_000, 1_000_000))) if rebalancing else None
                ),
                gc_interval_packets=draw(st.one_of(st.none(), st.sampled_from((32, 4096)))),
                gc_sweep_limit=draw(st.one_of(st.none(), st.just(8))),
            ),
            # The invariant net, enabled runtime-wide; bounds stay off so a
            # failure is always an invariant violation, not a tuning matter.
            assertions=AssertionSpec(),
        )
        return validate(spec)

    return _spec()


def chaos_scenario_specs(max_shards: int = 4, max_ingress_cores: int = 2):
    """Strategy drawing random valid specs with a random ``[faults]`` block.

    Composes :func:`scenario_specs` — every configuration axis the plain
    fuzz suite covers — with a seeded fault schedule: shard crashes, stalls,
    handoff drops, and (when the base spec drew ingress cores) ingress
    wedges, plus the optional lease-deadline and supervision-interval
    watchdog knobs.  The runtime-wide invariant net must hold through
    injection *and* recovery: every packet delivered or attributed to a
    counted loss, per-flow FIFO for re-homed flows, no stranded state after
    drain.  Validity stays constructive (``ingress_wedge`` is only drawn
    when the base spec has RX cores), so shrinking never leaves the valid
    region.

    Some draws also arm the observability plane (latency histograms and the
    flight recorder), so the chaos suite exercises tracing *under failure* —
    injection and recovery events land in a bounded trace while the
    invariants are being checked.
    """
    import hypothesis.strategies as st

    @st.composite
    def _spec(draw) -> ScenarioSpec:
        base = draw(scenario_specs(max_shards, max_ingress_cores))
        kind_pool = ["shard_crash", "shard_stall", "handoff_drop"]
        if base.ingress.cores > 0:
            kind_pool.append("ingress_wedge")
        kinds = tuple(
            draw(
                st.lists(
                    st.sampled_from(kind_pool), min_size=1, max_size=3, unique=True
                )
            )
        )
        faults = FaultsSpec(
            kinds=kinds,
            events=draw(st.integers(min_value=1, max_value=4)),
            max_tick=draw(st.sampled_from((4, 16, 64))),
            lease_deadline_ns=(
                draw(st.sampled_from((200_000, 2_000_000)))
                if base.runtime.stealing and draw(st.booleans())
                else None
            ),
            supervise_interval_ns=draw(
                st.one_of(st.none(), st.sampled_from((100_000, 500_000)))
            ),
        )
        observability = ObservabilitySpec()
        if draw(st.booleans()):
            observability = ObservabilitySpec(
                latency_histograms=draw(st.booleans()),
                tracer=True,
            )
        return validate(
            dataclasses.replace(
                base,
                name=f"chaos-{base.seed:08x}",
                faults=faults,
                observability=observability,
            )
        )

    return _spec()


def parallel_backend_specs(max_shards: int = 4):
    """Strategy for specs on the ``process`` backend.

    The process backend rejects stealing, rebalancing and ingress cores at
    validation time, so this strategy simply never draws them — the
    statically decomposable subset of the scenario space.
    """
    import hypothesis.strategies as st

    @st.composite
    def _spec(draw) -> ScenarioSpec:
        seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
        num_flows = draw(st.integers(min_value=1, max_value=MAX_FUZZ_FLOWS))
        spec = ScenarioSpec(
            name=f"fuzz-parallel-{seed:08x}",
            seed=seed,
            policy=PolicyTreeSpec(queue=draw(st.sampled_from(QUEUE_NAMES))),
            traffic=TrafficSpec(
                pattern=draw(st.sampled_from(("round_robin", "zipf"))),
                num_flows=num_flows,
                total_packets=draw(st.integers(min_value=0, max_value=MAX_FUZZ_PACKETS)),
                burst_size=draw(st.integers(min_value=1, max_value=32)),
            ),
            runtime=RuntimeSpec(
                shards=draw(st.integers(min_value=1, max_value=max_shards)),
                backend="process",
            ),
        )
        return validate(spec)

    return _spec()


__all__ = [
    "MAX_FUZZ_FLOWS",
    "MAX_FUZZ_PACKETS",
    "chaos_scenario_specs",
    "parallel_backend_specs",
    "scenario_specs",
]
