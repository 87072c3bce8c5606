"""Sharded multi-core scheduling runtime (the horizontal-scaling layer).

The paper's queues and shaping pipeline are single-core constructs; this
package scales them out the way production deployments do — one scheduler
instance per core, flows spread across instances by an RSS-style hash:

* :class:`~repro.runtime.sharder.FlowSharder` — flow-to-shard placement
  (RSS hash, explicit pins), the load window the
  skew-aware :class:`~repro.runtime.sharder.ShardRebalancer` inspects to
  migrate hot flows, and the *ownership view* of flows on loan to a
  work-stealing thief.  Its memo ``placed`` loses a flow's entry when a pin,
  unpin or forget names it, so its answer is always current.
* :class:`~repro.runtime.mailbox.Mailbox` — the batched SPSC ingress-to-shard
  handoff, with the high/low watermark edges ingress backpressure hangs off.
* :class:`~repro.runtime.ingress.IngressCore` — the asynchronous RX layer
  (``ShardedRuntime(ingress_cores=N, admission=...)``): per-core RX rings
  fed in NIC-style bursts, batched classify + handoff on an ingress tick,
  its own cycle account, loss-free watermark backpressure and pluggable
  admission control (:class:`~repro.runtime.ingress.TailDropPolicy` /
  :class:`~repro.runtime.ingress.FlowFairDropPolicy` /
  :class:`~repro.runtime.ingress.CoDelPolicy`).  The runtime's side of it
  — lane map, RX tick timers, offer, wake and the watermark resume — is
  the :class:`~repro.runtime.ingress.IngressPlane`, also in
  :mod:`repro.runtime.ingress`.
* :class:`~repro.runtime.stealing.Stealer` — the work-stealing plane: the
  bounded :class:`~repro.runtime.stealing.StealChannel` an idle shard
  parks a request in, and the atomic
  :class:`~repro.runtime.stealing.FlowLease` that carries a victim's due
  window (packets, stamps, pacing state) to the thief.
* :class:`~repro.runtime.worker.ShardWorker` — one simulated core: a cFFS
  timestamp queue + per-flow pacing drained one batch per scheduling
  quantum, plus the donor (``grant_lease`` / ``end_lease``) and acceptor
  (``accept_lease``) ends of a lease.
* :class:`~repro.runtime.runtime.ShardedRuntime` — the driver multiplexing
  every shard's worker loop onto one simulator clock, with per-shard
  cycle/queue/steal accounting rolled up into runtime telemetry.  Its
  ``transmit_log`` lists departures as ``(now_ns, packet)``; the shard that
  sent each is logged once per drain, not on the packet, and read through
  ``transmit_shards``.  The runtime writes no dict key per packet: a
  stamped packet's send time goes into ``Packet.rank``.
* :class:`~repro.runtime.backend.ExecutionBackend` — who runs the loops:
  :class:`~repro.runtime.backend.SimulatedBackend` (the default, one clock)
  or :class:`~repro.runtime.backend.ProcessBackend`, its differential
  oracle: one forked process per shard over the shared-memory rings of
  :mod:`repro.runtime.shm`, raising on any child failure.
* :class:`~repro.runtime.flowstate.FlowTable` /
  :class:`~repro.runtime.flowstate.PacingTable` — the million-flow state
  engine: sparse flow ids mapped to dense slots, every per-flow datum a
  flat :mod:`array` column (``benchmarks/bench_megaflow.py`` measures
  bytes/flow and churn ops/sec).
* :class:`~repro.runtime.faults.FaultPlan` /
  :class:`~repro.runtime.faults.FaultStats` — seeded fault schedules (shard
  crash/stall, handoff drops, ingress wedges) fired and recovered by the
  runtime's :class:`~repro.runtime.faults.Supervisor`
  (``benchmarks/bench_faults.py``).
* :class:`~repro.runtime.observability.LogHistogram` /
  :class:`~repro.runtime.observability.FlightRecorder` /
  :class:`~repro.runtime.observability.MetricsTimeline` — latency
  histograms at the four waiting seams, a virtual-clock flight recorder
  and a periodic gauge sampler (``benchmarks/bench_observability.py``).
* :class:`~repro.runtime.adapters.ShardedPortQueue` /
  :class:`~repro.runtime.adapters.MultiQueueQdisc` — multi-queue adapters
  for the netsim and kernel substrates.

Every plane beyond the shard loop (ingress cores, stealing, rebalancing,
faults, tracing) is built only when armed, so a disarmed runtime is
byte-identical to one without it.

Across every combination of sharding, rebalancing and stealing, **a flow's
packets leave the runtime in exactly the order they were submitted**:
routing follows residency and re-pins apply only once a flow drains (see
:mod:`repro.runtime.runtime`), and a lease carries a stamp-ordered prefix
whose flows the victim defers until it returns (see
:mod:`repro.runtime.stealing`).  ``tests/runtime/test_runtime_properties.py``
asserts it under randomized workloads; ``benchmarks/bench_sharding.py``
writes ``BENCH_sharding.json``, the scaling-axis perf artifact.
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
    Stealer,
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
    "Stealer",
    "TailDropPolicy",
    "WorkerSpec",
    "free_threaded",
    "make_admission_factory",
    "rss_hash",
]
