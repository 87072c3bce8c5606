"""The constructor and spec surface of the runtime and its substrate adapters, pinned.

Every argument below is read by a scenario spec field, a benchmark workload,
a committed artifact, a figure or an example — or is one a test sets to
reach behaviour the defaults do not.  The same holds for the fields of the
four spec blocks that configure the runtime.  A knob that only its own
tests (or the spec fuzzer) would arm belongs on neither.  The tuples fail
the moment an argument or field is added, removed or renamed, so changing
the surface is a deliberate edit here, not a side effect.
"""

import dataclasses
import inspect

import pytest

from repro.kernel import EiffelQdisc
from repro.runtime import MultiQueueQdisc, ProcessBackend, ShardedPortQueue, ShardedRuntime
from repro.scenario import FaultsSpec, IngressSpec, ObservabilitySpec, RuntimeSpec

SHARDED_RUNTIME = (
    "num_shards",
    "sharder",
    "quantum_ns",
    "batch_per_quantum",
    "flow_rates",
    "default_rate_bps",
    "horizon_ns",
    "num_buckets",
    "queue_factory",
    "mailbox_capacity",
    "rebalance_interval_ns",
    "steal_enabled",
    "steal_batch",
    "steal_min_backlog",
    "ingress_cores",
    "admission",
    "rx_ring_capacity",
    "rx_burst",
    "ingress_backpressure",
    "ingress_hash_seed",
    "shard_backlog_limit",
    "record_transmits",
    "gc_interval_packets",
    "gc_sweep_limit",
    "backend",
    "fault_plan",
    "lease_deadline_ns",
    "supervise_interval_ns",
    "latency_histograms",
    "tracer",
    "metrics_timeline",
)

SURFACES = [
    (ShardedRuntime, SHARDED_RUNTIME),
    (ShardedPortQueue, ("num_shards", "queue_factory", "arbiter")),
    (MultiQueueQdisc, ("num_shards", "child_factory")),
    (EiffelQdisc, ("flow_rates", "default_rate_bps", "horizon_ns", "num_buckets")),
    (ProcessBackend, ()),
]

SPEC_BLOCKS = [
    (
        RuntimeSpec,
        (
            "shards",
            "quantum_ns",
            "batch_per_quantum",
            "stealing",
            "steal_min_backlog",
            "rebalance_interval_ns",
            "gc_interval_packets",
            "gc_sweep_limit",
            "backend",
        ),
    ),
    (
        IngressSpec,
        (
            "cores",
            "admission",
            "rx_ring_capacity",
            "rx_burst",
            "backpressure",
            "mailbox_capacity",
            "shard_backlog_limit",
        ),
    ),
    (
        FaultsSpec,
        ("kinds", "events", "max_tick", "lease_deadline_ns", "supervise_interval_ns"),
    ),
    (ObservabilitySpec, ("latency_histograms", "tracer", "timeline")),
]


def _parameters(cls) -> tuple:
    return tuple(name for name in inspect.signature(cls.__init__).parameters if name != "self")


@pytest.mark.parametrize("cls, expected", SURFACES, ids=[cls.__name__ for cls, _ in SURFACES])
def test_constructor_parameters_are_pinned(cls, expected):
    assert _parameters(cls) == expected


@pytest.mark.parametrize(
    "block, expected", SPEC_BLOCKS, ids=[block.__name__ for block, _ in SPEC_BLOCKS]
)
def test_spec_block_fields_are_pinned(block, expected):
    assert tuple(spec_field.name for spec_field in dataclasses.fields(block)) == expected
