"""The seam table: which public entry points belong to which layer.

Layers are module names of the program under test.  This is the only file
that names the program's classes and methods for tracing; every name is
resolved at run time by :func:`tracing.install`, and one that no longer
resolves is reported under ``trace.unresolved`` instead of failing the run.
The untraced end-to-end numbers never read this file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

#: Layer names in ledger order (``harness`` is added by the recorder).
LAYERS = (
    "runtime.runtime",
    "runtime.sharder",
    "runtime.ingress",
    "runtime.mailbox",
    "runtime.worker",
    "runtime.flowstate",
    "runtime.stealing",
    "runtime.observability",
    "core.queues",
    "netsim.simulator",
    "cpu.cost_model",
)


@dataclass(frozen=True)
class Seam:
    """Methods of one class, charged to one layer.

    ``subclasses`` wraps the same names on every subclass that overrides
    them; ``callback_args`` gives callable arguments spans of their own
    (see :mod:`tracing`); ``burst_markers`` are methods whose every call
    starts the next burst id of the raw trace.
    """

    layer: str
    target: str  # "module:Class"
    methods: Tuple[str, ...]
    subclasses: bool = False
    callback_args: bool = False
    burst_markers: Tuple[str, ...] = ()


SEAMS = (
    Seam(
        "runtime.runtime",
        "repro.runtime.runtime:ShardedRuntime",
        ("submit_at", "submit_batch", "run", "telemetry"),
        burst_markers=("submit_batch",),
    ),
    Seam(
        "runtime.sharder",
        "repro.runtime.sharder:FlowSharder",
        ("shard_for", "record", "loan_shard", "forget"),
    ),
    Seam("runtime.sharder", "repro.runtime.sharder:ShardRebalancer", ("plan",)),
    Seam("runtime.ingress", "repro.runtime.ingress:IngressCore", ("offer", "next_wake_ns")),
    # pull() calls back into the runtime to route and deliver each packet.
    Seam("runtime.ingress", "repro.runtime.ingress:IngressCore", ("pull",), callback_args=True),
    Seam("runtime.mailbox", "repro.runtime.mailbox:Mailbox", ("push", "push_batch", "drain")),
    Seam(
        "runtime.worker",
        "repro.runtime.worker:ShardWorker",
        (
            "tick",
            "ingest",
            "drain_due",
            "next_wake_ns",
            "grant_lease",
            "end_lease",
            "accept_lease",
            "gc_flow",
        ),
    ),
    Seam(
        "runtime.flowstate",
        "repro.runtime.flowstate:FlowTable",
        ("lookup", "ensure", "remove"),
        subclasses=True,
    ),
    Seam(
        "runtime.flowstate",
        "repro.runtime.flowstate:PacingTable",
        ("touch", "stamp", "slot_for", "detach", "install"),
    ),
    Seam("runtime.stealing", "repro.runtime.stealing:StealChannel", ("post", "peek", "pop")),
    Seam("runtime.observability", "repro.runtime.observability:LogHistogram", ("record",)),
    Seam(
        "core.queues",
        "repro.core.queues.base:IntegerPriorityQueue",
        ("enqueue", "enqueue_batch", "extract_min", "extract_min_batch", "extract_due", "peek_min"),
        subclasses=True,
    ),
    Seam("netsim.simulator", "repro.netsim.simulator:Simulator", ("cancel", "run")),
    # Events fire closures other layers scheduled; each gets its own span.
    Seam(
        "netsim.simulator",
        "repro.netsim.simulator:Simulator",
        ("schedule", "schedule_at"),
        callback_args=True,
    ),
    Seam("cpu.cost_model", "repro.cpu.cost_model:CostModel", ("charge", "charge_queue_stats")),
)

#: Written down before measuring: which end-to-end metric each per-layer
#: metric should move, and on which workload.  A change that claims a gain
#: on one layer is judged against its row here.
SHOULD_MOVE = (
    {
        "layer_metrics": ["runtime.runtime.self_ns_per_pkt"],
        "moves": "pkts_per_s on uniform_s1 (largest single share after flow state)",
        "no_change": "queues_batched, queues_per_packet",
    },
    {
        "layer_metrics": [
            "runtime.worker.ticks_per_pkt",
            "netsim.simulator.events_per_pkt",
            "netsim.simulator.self_ns_per_pkt",
        ],
        "moves": "pkts_per_s on uniform_s8 and shaped_s4",
        "no_change": "uniform_s1; a change that also alters sim_latency_p99_ns changed "
        "when packets leave, not just how fast the simulator runs",
    },
    {
        "layer_metrics": ["runtime.flowstate.*"],
        "moves": "pkts_per_s on every runtime workload, most on megaflow_churn_s4; "
        "bytes_per_live_flow moves peak_rss_mb there only",
        "no_change": "queues_batched, queues_per_packet",
    },
    {
        "layer_metrics": ["runtime.sharder.*"],
        "moves": "pkts_per_s on uniform_s1 and uniform_s8; imbalance and migrations move "
        "modelled_bottleneck_mpps on zipf_ingress_steal_s4",
        "no_change": "queues_batched, queues_per_packet",
    },
    {
        "layer_metrics": ["runtime.ingress.*", "runtime.stealing.*"],
        "moves": "pkts_per_s, modelled_bottleneck_mpps and sim_latency_p99_ns on "
        "zipf_ingress_steal_s4",
        "no_change": "uniform_s1, uniform_s8, shaped_s4 (zero calls there)",
    },
    {
        "layer_metrics": ["runtime.mailbox.*"],
        "moves": "pkts_per_s on zipf_ingress_steal_s4 (one handoff per RX pull); "
        "wait_p99_ns moves sim_latency_p99_ns there",
        "no_change": "queues_batched, queues_per_packet",
    },
    {
        "layer_metrics": ["core.queues.self_ns_per_pkt", "core.queues.*_per_pkt"],
        "moves": "pkts_per_s on queues_batched, queues_per_packet and shaped_s4; the "
        "*_per_pkt counts move modelled_cycles_per_pkt everywhere",
        "no_change": "uniform_s1 barely (the queue is a few percent of its wall)",
    },
    {
        "layer_metrics": ["cpu.cost_model.self_ns_per_pkt", "cpu.cost_model.cycles_per_pkt.*"],
        "moves": "pkts_per_s on zipf_ingress_steal_s4 (most charges per packet); the "
        "cycles_per_pkt.* rows sum to modelled_cycles_per_pkt",
        "no_change": "queues_batched, queues_per_packet (no charges on the wall clock)",
    },
    {
        "layer_metrics": ["traffic.generate_ns_per_pkt", "scenario.compile_s"],
        "moves": "setup_s only",
        "no_change": "pkts_per_s everywhere",
    },
)
