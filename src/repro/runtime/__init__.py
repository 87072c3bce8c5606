"""Sharded multi-core scheduling runtime (the horizontal-scaling layer).

The paper's queues and shaping pipeline are single-core constructs; this
package scales them out the way production deployments do — one scheduler
instance per core, flows spread across instances by an RSS-style hash:

* :class:`~repro.runtime.sharder.FlowSharder` — flow-to-shard placement
  (hash / sticky round-robin policies, explicit pins) plus the load window
  the skew-aware :class:`~repro.runtime.sharder.ShardRebalancer` inspects to
  migrate hot flows off overloaded shards, and the *ownership view* that
  records which flows are on loan to a work-stealing thief.  Its
  ``epoch`` counter moves whenever a pin or sticky assignment changes, so
  a caller may keep ``shard_for`` answers until it does (the driver keeps
  one per flow, see ``ShardedRuntime._route_burst``).
* :class:`~repro.runtime.mailbox.Mailbox` — the batched SPSC ingress-to-shard
  handoff, with high/low watermark hysteresis (pause / resume edges) the
  ingress backpressure hangs off.
* :class:`~repro.runtime.ingress.IngressCore` — the asynchronous RX layer:
  one or more ingress cores, each with its own bounded
  :class:`~repro.runtime.ingress.RxRing` fed in NIC-style bursts, batched
  classify + mailbox handoff on an ingress tick cadence, its own cycle
  account (the ``rx_poll`` / ``rx_descriptor`` / ``flow_lookup`` budget of a
  busy-polling RX core), watermark backpressure (the pull pauses and the
  ring grows — loss-free by construction), and pluggable admission control
  (:class:`~repro.runtime.ingress.TailDropPolicy` /
  :class:`~repro.runtime.ingress.FlowFairDropPolicy` /
  :class:`~repro.runtime.ingress.CoDelPolicy`).  Enabled with
  ``ShardedRuntime(ingress_cores=N, admission=...)``; ingress cycles appear
  as their own rows in the runtime telemetry and in the
  ``bottleneck_cycles`` end-to-end view.
* :class:`~repro.runtime.stealing.StealChannel` /
  :class:`~repro.runtime.stealing.FlowLease` — the bounded steal-request
  ring an idle shard parks a request in, and the atomic flow-ownership
  lease that carries a victim's due window (packets, stamps, pacing state)
  to the thief.
* :class:`~repro.runtime.worker.ShardWorker` — one simulated core: a cFFS
  timestamp queue + per-flow pacing drained one batch per scheduling quantum
  through PR 1's ``enqueue_batch`` / ``extract_due`` surface, plus the donor
  (``grant_lease`` / ``end_lease``) and acceptor (``accept_lease``) ends of
  the stealing protocol.
* :class:`~repro.runtime.runtime.ShardedRuntime` — the driver multiplexing
  every shard's worker loop onto one simulator clock, with per-shard
  cycle/queue/steal accounting rolled up into runtime telemetry.  Its
  ``transmit_log`` is one persistent flat list of ``(now_ns, packet)``
  that is recorded per *drain* and expanded per packet when read: the hot
  path keeps no GC-tracked object per packet, and a run that never reads
  the log never builds it.
* :class:`~repro.runtime.backend.ExecutionBackend` — the seam between the
  runtime and whoever runs its loops: the default
  :class:`~repro.runtime.backend.SimulatedBackend` keeps the historical
  one-clock behaviour bit-for-bit, while
  :class:`~repro.runtime.backend.ProcessBackend` is its differential
  oracle: one forked OS process per shard (the SPSC mailbox handoff
  crossing address spaces over the shared-memory rings of
  :mod:`repro.runtime.shm`), modelled results identical to the simulation,
  and any child failure raised rather than recovered.
* :class:`~repro.runtime.flowstate.FlowTable` /
  :class:`~repro.runtime.flowstate.PacingTable` — the million-flow state
  engine: sparse flow ids mapped to dense slots by open addressing, every
  per-flow datum (pacing rate / next-release stamp / credit, pins, loans,
  window counts, home shard, cached placement) a flat :mod:`array` column
  indexed by slot, dead flows recycled through a slot free list (the one
  exception is the driver's in-flight packet count, a sparse map holding
  only the flows that have packets in flight).  The
  worker, sharder, and runtime driver all keep their per-flow state as
  columns over this engine — tens of bytes per flow instead of half a
  kilobyte of boxed objects — while handoffs (migration, leases) still
  travel as :class:`~repro.core.model.transactions.ShapingTransaction`
  objects and stamps stay bit-identical
  (``benchmarks/bench_megaflow.py`` measures bytes/flow and churn ops/sec
  against the dict-of-objects baseline at 10k/100k/1M flows).
* :class:`~repro.runtime.faults.FaultPlan` /
  :class:`~repro.runtime.faults.FaultStats` — the deterministic
  fault-injection plane: seeded, spec-driven fault schedules (shard
  crash/stall, mailbox handoff drops, ingress wedges) armed at the
  runtime's existing seams, zero-cost when disarmed, fired and recovered
  by the runtime's :class:`~repro.runtime.faults.Supervisor` (watchdog
  sweep, lease-deadline escalation, crashed-shard restart with pacing
  salvage) (``benchmarks/bench_faults.py`` measures recovery time and
  packets-at-risk per fault type).
* :class:`~repro.runtime.observability.LogHistogram` /
  :class:`~repro.runtime.observability.FlightRecorder` /
  :class:`~repro.runtime.observability.MetricsTimeline` — the deterministic
  observability plane: HDR-style log2-bucketed latency histograms at the
  four waiting seams (RX-ring sojourn, mailbox wait, shard-queue sojourn,
  end-to-end submit→transmit), a bounded ring-buffer flight recorder
  capturing virtual-clock events at the runtime's seams with a Chrome
  trace-event exporter (``ShardedRuntime(tracer=...)``, ``None`` by default
  and byte-identical disarmed — the fault plane's gating contract), and a
  periodic gauge sampler exportable as Prometheus text and JSON
  (``benchmarks/bench_observability.py`` pins the disarmed-equivalence and
  bounds the armed overhead).
* :class:`~repro.runtime.adapters.ShardedPortQueue` /
  :class:`~repro.runtime.adapters.MultiQueueQdisc` — multi-queue adapters
  for the netsim and kernel substrates.

The lease / per-flow FIFO invariant
-----------------------------------

Everything in this package upholds one contract, across every combination
of sharding, rebalancing, and stealing: **a flow's packets leave the
runtime in exactly the order they were submitted.**  The three mechanisms
compose because each one only ever moves a flow at a provably safe point:

* *routing* follows residency — packets chase the flow's in-flight
  packets, so a re-pin takes effect only once the flow fully drains;
* *rebalancing* migrates whole flows and only through lazy re-pins, never
  touching a flow whose due window is on loan;
* *stealing* takes a stamp-ordered **prefix** of a flow's queued packets
  atomically under a :class:`~repro.runtime.stealing.FlowLease`; while the
  lease is out the victim defers its own drains and stamping of that flow
  (the pacing state travelled with the lease), and the lease returns only
  after the thief released the last stolen packet — so the deferred
  packets still depart after everything the thief sent, in order.

``tests/runtime/test_runtime_properties.py`` asserts the invariant under
randomized workloads with all mechanisms enabled, and the differential
tests in ``tests/runtime/test_stealing.py`` check that stealing changes
*where and when* packets are released but never *in what order*.

``benchmarks/bench_sharding.py`` sweeps shard counts over uniform and
Zipf-skewed workloads — rebalancing and stealing each on/off — and writes
``BENCH_sharding.json``, the scaling-axis perf artifact.
"""

from .adapters import MultiQueueQdisc, ShardedPortQueue
from .backend import (
    ExecutionBackend,
    ProcessBackend,
    ShardClockDriver,
    ShardResult,
    SimulatedBackend,
    WorkerSpec,
    free_threaded,
)
from .faults import FAULT_KINDS, FaultEvent, FaultPlan, FaultStats
from .flowstate import FlowStateStats, FlowTable, PacingTable
from .ingress import (
    AdmissionPolicy,
    CoDelPolicy,
    FlowFairDropPolicy,
    IngressCore,
    IngressStats,
    IngressTelemetry,
    RxRing,
    TailDropPolicy,
    make_admission_factory,
)
from .mailbox import Mailbox, MailboxStats
from .observability import FlightRecorder, LogHistogram, MetricsTimeline
from .runtime import RuntimeTelemetry, ShardTelemetry, ShardedRuntime
from .sharder import (
    DEFAULT_HASH_SEED,
    INGRESS_HASH_SEED,
    FlowSharder,
    Migration,
    ShardRebalancer,
    ShardingStats,
    rss_hash,
)
from .stealing import (
    FlowLease,
    StealChannel,
    StealChannelStats,
    StealRequest,
    StealStats,
)
from .worker import ShardWorker, ShardWorkerStats

__all__ = [
    "AdmissionPolicy",
    "CoDelPolicy",
    "DEFAULT_HASH_SEED",
    "ExecutionBackend",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "FaultStats",
    "FlightRecorder",
    "FlowFairDropPolicy",
    "FlowLease",
    "FlowSharder",
    "FlowStateStats",
    "FlowTable",
    "PacingTable",
    "INGRESS_HASH_SEED",
    "IngressCore",
    "IngressStats",
    "IngressTelemetry",
    "LogHistogram",
    "Mailbox",
    "MailboxStats",
    "MetricsTimeline",
    "Migration",
    "MultiQueueQdisc",
    "ProcessBackend",
    "RuntimeTelemetry",
    "RxRing",
    "ShardClockDriver",
    "ShardRebalancer",
    "ShardResult",
    "ShardTelemetry",
    "ShardWorker",
    "ShardWorkerStats",
    "ShardedPortQueue",
    "ShardedRuntime",
    "ShardingStats",
    "SimulatedBackend",
    "StealChannel",
    "StealChannelStats",
    "StealRequest",
    "StealStats",
    "TailDropPolicy",
    "WorkerSpec",
    "free_threaded",
    "make_admission_factory",
    "rss_hash",
]
