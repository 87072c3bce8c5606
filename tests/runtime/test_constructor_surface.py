"""The constructor surface of the runtime and its substrate adapters, pinned.

Every argument below is read by a scenario spec field, a benchmark workload,
a committed artifact, a figure or an example — or is one a test sets to
reach behaviour the defaults do not.  A knob that only its own tests would
arm does not belong on these constructors.  The tuples fail the moment an
argument is added, removed or renamed, so changing the surface is a
deliberate edit here, not a side effect.
"""

import inspect

import pytest

from repro.kernel import EiffelQdisc
from repro.runtime import MultiQueueQdisc, ProcessBackend, ShardedPortQueue, ShardedRuntime

SHARDED_RUNTIME = (
    "num_shards",
    "simulator",
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
    "steal_horizon_ns",
    "steal_min_backlog",
    "ingress_cores",
    "admission",
    "rx_ring_capacity",
    "rx_burst",
    "ingress_backpressure",
    "ingress_hash_seed",
    "ingest_per_quantum",
    "shard_backlog_limit",
    "on_transmit",
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
    (EiffelQdisc, ("flow_rates", "default_rate_bps", "horizon_ns", "num_buckets", "queue")),
    (ProcessBackend, ()),
]


def _parameters(cls) -> tuple:
    return tuple(name for name in inspect.signature(cls.__init__).parameters if name != "self")


@pytest.mark.parametrize("cls, expected", SURFACES, ids=[cls.__name__ for cls, _ in SURFACES])
def test_constructor_parameters_are_pinned(cls, expected):
    assert _parameters(cls) == expected
