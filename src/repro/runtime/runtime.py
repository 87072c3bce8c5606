"""The sharded multi-core scheduling runtime driver.

:class:`ShardedRuntime` multiplexes N :class:`~repro.runtime.worker.ShardWorker`
loops onto one :class:`~repro.netsim.simulator.Simulator` clock, the way a
multi-core scheduler runs one worker loop per CPU against shared wall time:

* **ingress** (:meth:`submit` / :meth:`submit_batch`) routes each packet to a
  shard via the :class:`~repro.runtime.sharder.FlowSharder` and posts it into
  that shard's batched SPSC mailbox; with ``ingress_cores=N`` the submission
  instead lands in the RX ring of one of N asynchronous
  :class:`~repro.runtime.ingress.IngressCore`\\ s (flows spread over cores by
  an RSS-style hash with its own seed), which classify and hand off in
  batches on their own tick cadence, charge their own cycle accounts, pause
  on mailbox watermarks (backpressure) and optionally run admission control
  — see :mod:`repro.runtime.ingress`;
* each shard **ticks** once per scheduling quantum — one batched mailbox
  drain + stamp + ``enqueue_batch``, then one batched ``extract_due`` — and
  re-programs its own wake-up timer (a cancellable simulator event) for the
  next quantum, or jumps ahead to its soonest deadline when the queue is
  paced far into the future;
* a periodic **rebalancing** sweep (optional) asks the skew-aware
  :class:`~repro.runtime.sharder.ShardRebalancer` for hot-flow migrations;
* **work stealing** (optional): a shard that goes idle parks a bounded
  :class:`~repro.runtime.stealing.StealRequest` at the busiest sibling; at
  that victim's next safe point the driver hands the thief a
  :class:`~repro.runtime.stealing.FlowLease` — the victim's imminent due
  window, flow ownership and pacing state included — and the thief releases
  it through its own paced drain.  Rebalancing splits the *flow population*
  across cores; stealing splits a single elephant flow *in time*, which is
  the one imbalance migration cannot repair.

Per-flow FIFO under migration and stealing
------------------------------------------

Migrating a flow while it still has packets inside its old shard would let
the new shard transmit newer packets first.  The runtime therefore routes on
*residency*, not placement: while a flow has in-flight packets (mailbox or
queue) its packets keep following them to the same shard; only once the flow
fully drains does the sharder's (possibly re-pinned) placement take effect.
Migration is thus applied lazily at the first safe moment — the same reason
kernel ``mq``/RPS only re-steer a flow on an empty queue (out-of-order
avoidance), and the property tests assert exactly this invariant.

Work stealing threads the same needle with explicit ownership leases: the
stolen window is a stamp-ordered prefix of each touched flow, the victim
defers its own drains and stamping of those flows until the lease returns
(right after the thief releases the last stolen packet), and the sharder's
ownership view keeps routing and the rebalancer pointed at the victim for
the lease's whole lifetime.  The shard's deadline sleep stays steal-aware
throughout: an arriving lease re-programs the sleeping thief's tick timer
through :meth:`ShardedRuntime._wake_shard`, exactly like fresh ingress.
"""

from __future__ import annotations

import itertools
import sys
from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .backend import (
    ExecutionBackend,
    ShardResult,
    SimulatedBackend,
    WorkerSpec,
    resolve_backend,
)
from .faults import FaultPlan, FaultStats
from .flowstate import FlowTable
from .ingress import IngressCore, IngressLanes, IngressTelemetry, make_admission_factory
from .mailbox import MailboxStats
from .observability import FlightRecorder, GaugeValue, LogHistogram, MetricsTimeline
from .sharder import FlowSharder, ShardRebalancer
from .stealing import FlowLease, StealChannel, StealRequest, StealStats
from .worker import QueueFactory, ShardWorker, ShardWorkerStats
from ..core.model.packet import Packet
from ..core.queues import QueueStats
from ..netsim.simulator import EventHandle, Simulator

#: Bound on each shard's parked steal requests (the bounded cross-core
#: request ring; overflow is dropped and counted, never blocked on).
STEAL_CHANNEL_CAPACITY = 8


@dataclass
class _RetiredShard:
    """Final counters of a crashed worker incarnation, folded into telemetry.

    A crash-restart replaces the worker object, but the work its dead
    incarnation already did must stay visible — per-shard telemetry rows
    merge these snapshots with the live worker's counters so ingested /
    transmitted / cycles survive any number of restarts.
    """

    stats: ShardWorkerStats
    queue_stats: QueueStats
    steals: StealStats
    cycles: float
    mailbox_wait: Optional[LogHistogram] = None
    queue_wait: Optional[LogHistogram] = None


@dataclass
class ShardTelemetry:
    """Telemetry of one shard, as collected by :meth:`ShardedRuntime.telemetry`."""

    shard_id: int
    ingested: int
    transmitted: int
    ticks: int
    idle_ticks: int
    backlog_peak: int
    cycles: float
    queue_stats: QueueStats
    mailbox: MailboxStats
    steals: StealStats = field(default_factory=StealStats)

    def as_dict(self) -> dict:
        """JSON-friendly snapshot."""
        return {
            "shard_id": self.shard_id,
            "ingested": self.ingested,
            "transmitted": self.transmitted,
            "ticks": self.ticks,
            "idle_ticks": self.idle_ticks,
            "backlog_peak": self.backlog_peak,
            "cycles": self.cycles,
            "queue_stats": self.queue_stats.as_dict(),
            "mailbox": self.mailbox.as_dict(),
            "steals": self.steals.as_dict(),
        }


@dataclass
class RuntimeTelemetry:
    """Runtime-level roll-up of every shard's accounting.

    ``max_shard_cycles`` is the modelled bottleneck core: on real hardware
    every shard runs concurrently, so aggregate throughput is limited by the
    busiest core, and that is the number the scaling benchmark converts into
    aggregate ops/sec.
    """

    shards: List[ShardTelemetry]
    queue_stats: QueueStats
    total_cycles: float
    max_shard_cycles: float
    transmitted: int
    ingress_drops: int
    migrations_applied: int
    rebalance_rounds: int
    steals_attempted: int = 0
    steals_succeeded: int = 0
    packets_stolen: int = 0
    steal_cycles: float = 0.0
    ingress: List[IngressTelemetry] = field(default_factory=list)
    max_ingress_cycles: float = 0.0
    #: Packets lost at the RX stage: admission-policy drops, plus bare ring
    #: overflow when backpressure is disabled with no policy armed.  With
    #: backpressure on and ``admission=None`` this is zero by construction.
    admission_drops: int = 0
    #: Flow-state engine gauges: live flows / slot high watermark / pacing
    #: entries across shards, measured bytes of every flow-state table
    #: (runtime ownership + sharder placement + per-shard pacing columns),
    #: and the incremental-GC counters.  See :mod:`repro.runtime.flowstate`.
    flow_state: dict = field(default_factory=dict)
    #: Fault-injection and recovery accounting: the
    #: :class:`~repro.runtime.faults.FaultStats` counters plus the
    #: ``recovery_log`` of individual recovery events.  All zeros / empty
    #: when no fault plan was armed.
    faults: dict = field(default_factory=dict)
    #: Per-seam latency histograms, merged across shards / RX cores:
    #: ``rx_sojourn`` whenever ingress cores ran, and ``mailbox_wait`` /
    #: ``queue_sojourn`` / ``e2e`` when the runtime was built with
    #: ``latency_histograms=True``.  See :mod:`repro.runtime.observability`.
    latency: Dict[str, LogHistogram] = field(default_factory=dict)

    @property
    def imbalance(self) -> float:
        """Max-to-mean ratio of per-shard transmitted packets (1.0 = even)."""
        counts = [shard.transmitted for shard in self.shards]
        total = sum(counts)
        if total == 0:
            return 1.0
        return max(counts) / (total / len(counts))

    @property
    def bottleneck_cycles(self) -> float:
        """Busiest core across *both* layers (shards and ingress cores).

        On real hardware every ingress core runs concurrently with every
        shard, so the end-to-end modelled throughput is limited by whichever
        single core — RX or scheduling — consumed the most cycles.  This is
        the number the ingress e2e benchmark converts into aggregate
        ops/sec; with no ingress cores it degrades to ``max_shard_cycles``.
        """
        return max(self.max_shard_cycles, self.max_ingress_cycles)

    def as_dict(self) -> dict:
        """JSON-friendly snapshot."""
        return {
            "shards": [shard.as_dict() for shard in self.shards],
            "queue_stats": self.queue_stats.as_dict(),
            "total_cycles": self.total_cycles,
            "max_shard_cycles": self.max_shard_cycles,
            "transmitted": self.transmitted,
            "ingress_drops": self.ingress_drops,
            "migrations_applied": self.migrations_applied,
            "rebalance_rounds": self.rebalance_rounds,
            "steals_attempted": self.steals_attempted,
            "steals_succeeded": self.steals_succeeded,
            "packets_stolen": self.packets_stolen,
            "steal_cycles": self.steal_cycles,
            "imbalance": self.imbalance,
            "ingress": [core.as_dict() for core in self.ingress],
            "max_ingress_cycles": self.max_ingress_cycles,
            "bottleneck_cycles": self.bottleneck_cycles,
            "admission_drops": self.admission_drops,
            "flow_state": dict(self.flow_state),
            "faults": dict(self.faults),
            "latency": {seam: hist.as_dict() for seam, hist in self.latency.items()},
        }


class ShardedRuntime:
    """N shard workers multiplexed onto one simulated clock.

    Args:
        num_shards: worker (virtual core) count.
        simulator: shared clock; a private one is created when omitted.
        sharder: flow placement; defaults to RSS-style hashing.
        quantum_ns: scheduling quantum — each active shard runs one batched
            ingest + drain per quantum.
        batch_per_quantum: drain budget per tick (the "one batch per
            quantum" of the worker loop); the mailbox is drained fully
            unless ``ingest_per_quantum`` bounds it.
        ingest_per_quantum: cap on packets a shard stamps per tick (``None``
            drains the whole mailbox, the historical behaviour).  Bounding
            it models the real per-quantum budget of a scheduling core, and
            is what lets mailbox occupancy build under overload so the
            watermark backpressure has something to push against.  Defaults
            to ``batch_per_quantum`` when ingress cores are configured with
            bounded mailboxes.
        shard_backlog_limit: the shard queue's ``txqueuelen``: while a
            shard's timestamp queue holds this many packets it stops
            ingesting, leaving arrivals in its mailbox — which is the link
            that propagates overload upstream (mailbox fills → watermark
            pauses the RX pull → the RX ring absorbs or the admission
            policy drops).  ``None`` (default) leaves the queue unbounded,
            the historical behaviour.
        flow_rates / default_rate_bps: per-flow pacing configuration handed
            to every shard (flows are disjoint across shards, so sharing the
            mapping is safe).
        horizon_ns / num_buckets / queue_factory / mailbox_capacity: per
            shard worker configuration (see :class:`ShardWorker`).
        rebalance_interval_ns: period of the skew-aware rebalancing sweep
            (a :class:`~repro.runtime.sharder.ShardRebalancer` over
            ``sharder``); ``None`` (the default) never rebalances.
        steal_enabled: turn on cross-shard work stealing — an idle shard
            parks a steal request at the busiest sibling and takes over its
            next due window under an order-preserving flow lease.
        steal_batch: largest number of packets one lease may carry.
        steal_horizon_ns: how far ahead of "now" a window counts as
            stealable (defaults to one quantum: the batch the victim would
            have released at its very next tick).
        steal_min_backlog: smallest victim backlog worth stealing from —
            below this the handoff overhead outweighs the relief, and under
            balanced load it keeps shards from churning work back and forth.
        ingress_cores: number of asynchronous RX cores in front of the
            shards (0 keeps the historical synchronous ingress).  With
            ingress cores, :meth:`submit` / :meth:`submit_batch` land in a
            per-core RX ring (flows spread by an RSS-style hash with its
            own seed) and the cores classify + hand off on their own tick
            cadence, charging their own cycle accounts.
        admission: admission policy for overloaded ingress — ``None`` (pure
            backpressure: the RX ring grows, nothing is ever dropped), one
            of ``"tail_drop"`` / ``"fair_drop"`` / ``"codel"``, or a
            zero-argument factory returning a fresh
            :class:`~repro.runtime.ingress.AdmissionPolicy` per core.
        rx_ring_capacity / rx_burst: nominal RX ring size and per-tick pull
            budget of each ingress core.
        ingress_quantum_ns: ingress tick period (defaults to one quarter of
            ``quantum_ns``, so several NIC pulls land per scheduling
            quantum, as NAPI polls outpace scheduler ticks).
        ingress_backpressure: honour mailbox watermarks (pause the pull and
            grow the ring); off, an unarmed ring tail-drops at capacity.
            With ingress cores and a bounded ``mailbox_capacity`` every
            shard mailbox pauses the pull at ``capacity`` and resumes at
            ``capacity // 2``; otherwise mailboxes carry no watermarks.
        ingress_hash_seed: seed of the RSS lane hash (flow -> RX core);
            defaults to the decorrelated constant
            :data:`~repro.runtime.sharder.INGRESS_HASH_SEED`.  The scenario
            compiler threads a spec-level seed through here so one seed pins
            every random stream of an experiment.
        on_transmit: callback ``(packet, now_ns)`` run for every released
            packet (the NIC side).
        record_transmits: record departures for :attr:`transmit_log`
            (tests and small examples; benchmarks switch it off).  The hot
            path keeps one entry per *drain*; the per-packet
            ``(now_ns, packet)`` view is built when the log is read.
        gc_interval_packets: sweep idle per-flow state (flow homes, sharder
            pins/sticky entries, expired shard pacing entries) every this
            many transmitted packets, so memory scales with *concurrent*
            flows rather than every flow ever seen — the FQ qdisc's flow-GC
            pattern.  ``None`` disables the sweep.
        gc_sweep_limit: bound on flow-state slots each GC sweep examines
            (``None``, the default, scans the whole table in one sweep —
            the historical global scan).  With a limit the sweep becomes
            incremental: a persistent cursor walks the slot space a bounded
            chunk per trigger and wraps, so GC cost per trigger is O(limit)
            regardless of table size — the same candidates are reclaimed,
            just spread over successive sweeps (the churn-storm property
            suite asserts the two converge to the same live set).
        backend: who executes the shard loops — ``"simulated"`` (the
            default: every shard multiplexed onto one simulator clock,
            bit-identical to the historical behaviour), ``"process"`` (one
            forked OS process per shard over shared-memory rings: the
            differential oracle of the simulated clock, raising on any child
            failure), or a ready
            :class:`~repro.runtime.backend.ExecutionBackend` instance.
            The process backend takes timed workloads through
            :meth:`submit_at` and requires the *statically decomposable*
            configuration: no stealing, no rebalancer, no ingress cores and
            no ``on_transmit`` callback (each shard must be a pure function
            of its own arrival schedule); the flow-state GC sweep is
            auto-disabled for the same reason (its trigger is a
            runtime-global packet count).  See :mod:`repro.runtime.backend`
            for why per-shard replay is then exact.
        fault_plan: optional :class:`~repro.runtime.faults.FaultPlan` arming
            deterministic faults at the runtime's seams (shard crash/stall,
            mailbox handoff drops, ingress ring wedge) and the supervision
            machinery that recovers from them.  ``None`` (the default) keeps
            every hook on a single ``is not None`` guard — the clean path's
            modelled cycle accounts are byte-identical with no plan armed.
            Simulated backend only: the process backend injects no faults.
        lease_deadline_ns: watchdog deadline on outstanding
            :class:`~repro.runtime.stealing.FlowLease`\\ s — a thief that has
            not released a stolen window within this bound is presumed hung
            and crash-restarted by the supervisor, which reclaims the lease
            (the victim resumes its deferred flows; the thief's private
            queue, including the unfinished stolen packets, is the loss).
            ``None`` (the default) trusts thieves forever, the historical
            behaviour.
        supervise_interval_ns: period of the supervision sweep while any
            fault or open-lease deadline is being watched (defaults to two
            quanta — the detection latency of a crash).  The sweep only
            runs while something needs watching; an idle clean runtime
            schedules no supervision events at all.
        latency_histograms: arm the per-seam latency histograms — mailbox
            wait (push → ingest), shard-queue sojourn (stamp → drain) and
            end-to-end submit → transmit, each a
            :class:`~repro.runtime.observability.LogHistogram` merged into
            ``telemetry().latency`` (RX-ring sojourn is always measured on
            the ingress cores).  Works on every backend: per-shard
            histograms cross the process boundary inside each
            :class:`~repro.runtime.backend.ShardResult` and merge like
            counter snapshots.  No modelled cycles are charged either way;
            disarmed (the default) the hot loops are byte-identical.
        tracer: optional :class:`~repro.runtime.observability.FlightRecorder`
            capturing virtual-clock events at the runtime's seams (ingress
            pull, mailbox handoff, drain batch, lease grant/return,
            rebalance migration, fault injection/recovery).  Same contract
            as ``fault_plan``: ``None`` by default, every seam guards on one
            ``is not None`` check, simulated backend only.
        metrics_timeline: optional
            :class:`~repro.runtime.observability.MetricsTimeline` sampling
            runtime gauges (backlogs, ring depth, cycle accounts, live flow
            slots, lease state) on its own periodic cadence while work is in
            flight.  Simulated backend only; disarmed runs schedule no
            sampling events at all.
    """

    def __init__(
        self,
        num_shards: int,
        simulator: Optional[Simulator] = None,
        sharder: Optional[FlowSharder] = None,
        quantum_ns: int = 50_000,
        batch_per_quantum: int = 64,
        flow_rates: Optional[Dict[int, float]] = None,
        default_rate_bps: Optional[float] = None,
        horizon_ns: int = 2_000_000_000,
        num_buckets: int = 20_000,
        queue_factory: Optional[QueueFactory] = None,
        mailbox_capacity: Optional[int] = None,
        rebalance_interval_ns: Optional[int] = None,
        steal_enabled: bool = False,
        steal_batch: int = 64,
        steal_horizon_ns: Optional[int] = None,
        steal_min_backlog: int = 8,
        ingress_cores: int = 0,
        admission: "str | Callable[[], object] | None" = None,
        rx_ring_capacity: int = 512,
        rx_burst: int = 64,
        ingress_quantum_ns: Optional[int] = None,
        ingress_backpressure: bool = True,
        ingress_hash_seed: Optional[int] = None,
        ingest_per_quantum: Optional[int] = None,
        shard_backlog_limit: Optional[int] = None,
        on_transmit: Optional[Callable[[Packet, int], None]] = None,
        record_transmits: bool = True,
        gc_interval_packets: Optional[int] = 4096,
        gc_sweep_limit: Optional[int] = None,
        backend: "str | ExecutionBackend" = "simulated",
        fault_plan: Optional[FaultPlan] = None,
        lease_deadline_ns: Optional[int] = None,
        supervise_interval_ns: Optional[int] = None,
        latency_histograms: bool = False,
        tracer: Optional[FlightRecorder] = None,
        metrics_timeline: Optional[MetricsTimeline] = None,
    ) -> None:
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        if quantum_ns <= 0:
            raise ValueError("quantum_ns must be positive")
        if batch_per_quantum <= 0:
            raise ValueError("batch_per_quantum must be positive")
        if rebalance_interval_ns is not None and rebalance_interval_ns <= 0:
            raise ValueError("rebalance_interval_ns must be positive")
        if steal_batch <= 0:
            raise ValueError("steal_batch must be positive")
        if steal_horizon_ns is not None and steal_horizon_ns < 0:
            raise ValueError("steal_horizon_ns must be non-negative")
        if steal_min_backlog <= 0:
            raise ValueError("steal_min_backlog must be positive")
        if gc_interval_packets is not None and gc_interval_packets <= 0:
            raise ValueError("gc_interval_packets must be positive")
        if gc_sweep_limit is not None and gc_sweep_limit <= 0:
            raise ValueError("gc_sweep_limit must be positive")
        if ingress_cores < 0:
            raise ValueError("ingress_cores must be non-negative")
        if rx_ring_capacity <= 0:
            raise ValueError("rx_ring_capacity must be positive")
        if rx_burst <= 0:
            raise ValueError("rx_burst must be positive")
        if ingress_quantum_ns is not None and ingress_quantum_ns <= 0:
            raise ValueError("ingress_quantum_ns must be positive")
        if ingest_per_quantum is not None and ingest_per_quantum <= 0:
            raise ValueError("ingest_per_quantum must be positive")
        if shard_backlog_limit is not None and shard_backlog_limit <= 0:
            raise ValueError("shard_backlog_limit must be positive")
        if lease_deadline_ns is not None and lease_deadline_ns <= 0:
            raise ValueError("lease_deadline_ns must be positive")
        if supervise_interval_ns is not None and supervise_interval_ns <= 0:
            raise ValueError("supervise_interval_ns must be positive")
        if fault_plan is not None:
            if fault_plan.max_shard_target >= num_shards:
                raise ValueError(
                    f"fault plan targets shard {fault_plan.max_shard_target} "
                    f"but only {num_shards} shards exist"
                )
            for lane in fault_plan.wedge_lanes:
                if lane >= ingress_cores:
                    raise ValueError(
                        f"fault plan wedges ingress lane {lane} but only "
                        f"{ingress_cores} ingress cores exist"
                    )
        self.backend = resolve_backend(backend, simulator)
        if self.backend.parallel:
            conflicts = []
            if steal_enabled:
                conflicts.append("steal_enabled")
            if rebalance_interval_ns is not None:
                conflicts.append("rebalancing")
            if ingress_cores:
                conflicts.append("ingress_cores")
            if on_transmit is not None:
                conflicts.append("on_transmit")
            if fault_plan is not None:
                conflicts.append("fault_plan")
            if lease_deadline_ns is not None:
                conflicts.append("lease_deadline_ns")
            # The latency histograms do decompose (per-shard, merged like
            # counter snapshots) — but the tracer and timeline observe the
            # runtime-global seams, which only the shared clock has.
            if tracer is not None:
                conflicts.append("tracer")
            if metrics_timeline is not None:
                conflicts.append("metrics_timeline")
            if conflicts:
                raise ValueError(
                    "parallel backends need statically decomposable shards; "
                    f"disable: {', '.join(conflicts)} (each shard must be a "
                    "pure function of its own arrival schedule)"
                )
            # The flow-state GC trigger is a runtime-global transmit count,
            # which no per-shard replay can reproduce — auto-disable it.
            gc_interval_packets = None
        self.num_shards = num_shards
        #: The shared clock (simulated backend only); parallel backends run
        #: each shard on a private clock, so there is no global simulator.
        self.simulator = (
            self.backend.simulator
            if isinstance(self.backend, SimulatedBackend)
            else None
        )
        self.sharder = sharder or FlowSharder(num_shards)
        if self.sharder.num_shards != num_shards:
            raise ValueError("sharder.num_shards must match num_shards")
        self.quantum_ns = quantum_ns
        self.batch_per_quantum = batch_per_quantum
        self.rebalance_interval_ns = rebalance_interval_ns
        self.rebalancer = (
            ShardRebalancer(self.sharder) if rebalance_interval_ns is not None else None
        )
        self.on_transmit = on_transmit
        self.record_transmits = record_transmits
        # Backpressure needs a pause edge before the mailbox can drop: with
        # ingress cores, a bounded mailbox pauses the RX pull at capacity and
        # resumes once half-drained.
        bounded_ingress = ingress_cores > 0 and mailbox_capacity is not None
        # One canonical kwargs dict builds every worker — the runtime's own
        # (below) and the identical replicas a parallel backend constructs
        # in its shard processes/threads (see _worker_spec).
        self._worker_config = dict(
            flow_rates=flow_rates,
            default_rate_bps=default_rate_bps,
            horizon_ns=horizon_ns,
            num_buckets=num_buckets,
            queue_factory=queue_factory,
            mailbox_capacity=mailbox_capacity,
            mailbox_high_watermark=mailbox_capacity if bounded_ingress else None,
            mailbox_low_watermark=mailbox_capacity // 2 if bounded_ingress else None,
            latency_histograms=latency_histograms,
        )
        self.workers: List[ShardWorker] = [
            ShardWorker(shard_id, **self._worker_config)
            for shard_id in range(num_shards)
        ]
        if ingest_per_quantum is None and bounded_ingress:
            # A bounded mailbox only exerts backpressure if the shard's
            # per-quantum stamping budget is bounded too.
            ingest_per_quantum = batch_per_quantum
        self.ingest_per_quantum = ingest_per_quantum
        self.shard_backlog_limit = shard_backlog_limit
        # Departures are recorded per drain and expanded on read: see the
        # transmit_log property.
        self._transmit_log: List[tuple[int, Packet]] = []
        self._unread_packets: List[Packet] = []
        self._unread_drains = array("q")  # now_ns, count; now_ns, count; ...
        self.ingress_drops = 0
        self.migrations_applied = 0
        self.gc_interval_packets = gc_interval_packets
        self.steal_enabled = steal_enabled
        self.steal_batch = steal_batch
        self.steal_horizon_ns = quantum_ns if steal_horizon_ns is None else steal_horizon_ns
        self.steal_min_backlog = steal_min_backlog
        self._steal_channels: List[StealChannel] = [
            StealChannel(capacity=STEAL_CHANNEL_CAPACITY) for _ in range(num_shards)
        ]
        self._loan_inbox: List[List[FlowLease]] = [[] for _ in range(num_shards)]
        self._open_leases: Dict[int, list] = {}
        self._lease_seq = itertools.count()
        self._since_gc = 0
        self.gc_sweep_limit = gc_sweep_limit
        # Per-flow ownership state, columnised (see repro.runtime.flowstate):
        # home shard, and the sharder's placement cached per slot (-1: not
        # asked yet, or invalidated — see _route_burst step 3).
        self.flows = FlowTable()
        self._home = self.flows.add_column("home", "i", -1)
        self._placed = self.flows.add_column("placed", "i", -1)
        self._placed_epoch = self.sharder.epoch
        # In-flight packet count of every flow that has any: a sparse map,
        # bounded by packets in flight rather than flows tracked (an entry
        # is deleted the moment it reaches zero), so a departure settles its
        # flow without probing the table.
        self._in_flight: Dict[int, int] = {}
        self._gc_cursor = 0
        self._tick_handles: List[Optional[EventHandle]] = [None] * num_shards
        # One timer callback per shard, built once, so arming a tick
        # allocates no closure.  Written here, not as a functools.partial:
        # a callback's __module__ is how a tracer tells which layer it
        # belongs to, and a partial's is functools.
        tick = self._tick
        self._tick_callbacks: List[Callable[[], None]] = [
            (lambda shard=shard: tick(shard)) for shard in range(num_shards)
        ]
        self._rebalance_handle: Optional[EventHandle] = None
        # -- the fault plane and its supervision state ----------------------
        # All of this is inert on a clean run: the seam hooks guard on
        # `self._faults is not None`, the failure maps stay empty (their
        # truthiness is the fast-path check), and the supervision timer is
        # armed only at injection / lease-grant sites.
        self._faults = fault_plan
        self.fault_stats = FaultStats()
        self.lease_deadline_ns = lease_deadline_ns
        self.supervise_interval_ns = (
            2 * quantum_ns if supervise_interval_ns is None else supervise_interval_ns
        )
        self._dead: Dict[int, int] = {}  # shard -> crashed_at_ns
        self._stalled: Dict[int, int] = {}  # shard -> stalled_at_ns
        self._wedged: Dict[int, int] = {}  # ingress lane -> wedged_at_ns
        self._orphan_returns: Dict[int, List[FlowLease]] = {}
        self._retired_shards: Dict[int, List[_RetiredShard]] = {}
        self._supervise_handle: Optional[EventHandle] = None
        #: One entry per recovery event (crash restart, stall clear, wedge
        #: clear, deadline escalation) with failure/recovery timestamps.
        self.recovery_log: List[dict] = []
        # -- the observability plane ----------------------------------------
        # Same gating discipline as the fault plane: disarmed, the tracer
        # and timeline are None (one `is not None` guard per seam) and the
        # latency stamps are never written, so a clean run stays
        # byte-identical; armed, nothing here charges modelled cycles.
        self.latency_histograms = latency_histograms
        self.tracer = tracer
        self.timeline = metrics_timeline
        self._e2e: Optional[LogHistogram] = (
            LogHistogram() if latency_histograms else None
        )
        self._timeline_handle: Optional[EventHandle] = None
        # -- the asynchronous ingress layer --------------------------------
        admission_factory = make_admission_factory(admission)
        self.ingress_quantum_ns = (
            max(1, quantum_ns // 4) if ingress_quantum_ns is None else ingress_quantum_ns
        )
        self.ingress_cores: List[IngressCore] = [
            IngressCore(
                core_id,
                ring_capacity=rx_ring_capacity,
                pull_batch=rx_burst,
                admission=admission_factory() if admission_factory else None,
                backpressure=ingress_backpressure,
            )
            for core_id in range(ingress_cores)
        ]
        self._ingress_sharder = (
            FlowSharder.for_ingress(ingress_cores, hash_seed=ingress_hash_seed)
            if ingress_cores
            else None
        )
        self._lanes = IngressLanes(self._ingress_sharder) if ingress_cores else None
        self._ingress_handles: List[Optional[EventHandle]] = [None] * ingress_cores
        ingress_tick = self._ingress_tick
        self._ingress_callbacks: List[Callable[[], None]] = [
            (lambda lane=lane: ingress_tick(lane)) for lane in range(ingress_cores)
        ]
        self._mailboxes = [worker.mailbox for worker in self.workers]
        if self.ingress_cores:
            for mailbox in self._mailboxes:
                # The falling watermark edge is the resume signal: a shard
                # draining below its low watermark wakes exactly the RX
                # cores that stalled on it (event-driven, no polling).
                mailbox.on_low = self._wake_stalled_ingress
        self.backend.bind(self)

    def _worker_spec(self, shard: int) -> WorkerSpec:
        """The recipe the process backend uses to replicate one shard's loop."""
        return WorkerSpec(
            shard_id=shard,
            worker_kwargs=dict(self._worker_config),
            quantum_ns=self.quantum_ns,
            batch_per_quantum=self.batch_per_quantum,
            ingest_per_quantum=self.ingest_per_quantum,
            shard_backlog_limit=self.shard_backlog_limit,
            record_transmits=self.record_transmits,
        )

    # -- ingress -----------------------------------------------------------

    def _route_burst(
        self, packets: List[Packet], rooms: Optional[List[int]] = None
    ) -> Tuple[Dict[int, List[Packet]], Dict[int, List[int]]]:
        """Route a burst: the one place the routing rule is written down.

        :meth:`submit`, :meth:`submit_batch` and the RX pull all call it.
        Returns each shard's packets in burst order and, aligned with them,
        the flow-table slot found for each (``-1``: none yet), which the
        commit reuses instead of probing again.  With ``rooms`` (the pull's
        backpressure) the burst stops at the first packet whose shard
        already got ``rooms[shard]`` of it; the rest stay unrouted.

        Per packet, residency beats placement:

        1. A flow whose due window is on loan to a thief stays owned by the
           victim that granted the lease, even in the instant its in-flight
           count touches zero mid-delivery — migrating right then would
           strand the pacing state travelling with the lease.
        2. A flow with packets in flight follows them to its home shard.
        3. Otherwise the sharder's (possibly re-pinned) placement applies,
           asked once per flow and kept in the ``placed`` column while the
           flow holds a slot and :attr:`FlowSharder.epoch` stands still; any
           pin, unpin or forget that changes a placement moves the epoch and
           drops every kept answer.  A flow with no slot yet asks.

        Loans change only inside shard ticks and pins never inside a burst,
        so one check of each covers the burst.  Pure lookup: home and
        migration state change only once a packet is accepted
        (:meth:`_commit_group`).
        """
        if self._placed_epoch != self.sharder.epoch:
            self._reset_placements()
        by_shard: Dict[int, List[Packet]] = {}
        slots_by_shard: Dict[int, List[int]] = {}
        get_group = by_shard.get
        front_get = self.flows._front.get
        lookup = self.flows.lookup
        home_col = self._home
        placed_col = self._placed
        in_flight = self._in_flight
        shard_for = self.sharder.shard_for
        loan_shard = self.sharder.loan_shard if self.sharder.has_loans else None
        for packet in packets:
            flow_id = packet.flow_id
            slot = front_get(flow_id)
            if slot is None:
                slot = lookup(flow_id)
            shard = loan_shard(flow_id) if loan_shard is not None else None
            if shard is None:
                if slot < 0:
                    shard = shard_for(flow_id)
                elif flow_id in in_flight and home_col[slot] >= 0:
                    shard = home_col[slot]
                else:
                    shard = placed_col[slot]
                    if shard < 0:
                        shard = placed_col[slot] = shard_for(flow_id)
            group = get_group(shard)
            if group is None:
                if rooms is not None and rooms[shard] <= 0:
                    break
                by_shard[shard] = [packet]
                slots_by_shard[shard] = [slot]
            else:
                if rooms is not None and len(group) >= rooms[shard]:
                    break
                group.append(packet)
                slots_by_shard[shard].append(slot)
        return by_shard, slots_by_shard

    def _reset_placements(self) -> None:
        """Drop every cached placement: the sharder's epoch moved."""
        placed = self._placed
        placed[:] = array("i", [-1]) * len(placed)
        self._placed_epoch = self.sharder.epoch

    def _commit_group(
        self, group: List[Packet], slots: List[int], shard: int, taken: int
    ) -> None:
        """Record the accepted prefix ``group[:taken]`` on ``shard``.

        The single commit seam of every submit path.  ``slots`` carries the
        flow-table slot routing found for each packet (``-1``: the flow had
        no entry, so it is created here — and found again if the same new
        flow comes twice in one burst).  A carried slot cannot go stale: slots
        only die in the GC sweep, which runs from :meth:`_deliver`, never
        inside a submit or a pull.

        The first packet landing on a new home completes the migration: the
        flow's pacing state moves with it (an RFS-style flow-state handoff),
        so ``_next_free_ns`` and the remaining burst credit survive and the
        flow cannot exceed its configured rate by hopping shards.

        Per-flow load-window attribution (:meth:`FlowSharder.record_burst`)
        has one reader, the rebalancer, and only a rebalancing round ever
        resets it; with none attached the group is accounted per shard only.
        """
        if not taken:
            return
        ensure = self.flows.ensure
        home_col = self._home
        in_flight = self._in_flight
        count_of = in_flight.get
        if taken < len(group):
            group = group[:taken]  # zip below stops the slots there too
        for packet, slot in zip(group, slots):
            flow_id = packet.flow_id
            if slot < 0:
                slot = ensure(flow_id)
            home = home_col[slot]
            if home != shard:
                if home >= 0:
                    self.migrations_applied += 1
                    shaper = self.workers[home].release_shaper(flow_id)
                    if shaper is not None:
                        self.workers[shard].adopt_shaper(flow_id, shaper)
                home_col[slot] = shard
            in_flight[flow_id] = count_of(flow_id, 0) + 1
        if self.rebalancer is not None:
            self.sharder.record_burst([packet.flow_id for packet in group], shard)
        else:
            self.sharder.record_shard(shard, taken)

    def _take_handoff_drops(self, shard: int, count: int) -> int:
        """Packets an armed handoff-drop fault eats off the head of a group.

        The seam loses them before anything commits — no route, no pending
        count — so only the fault ledger (and the tracer) sees them.
        """
        dropped = self._faults.take_handoff_drops(shard, count)
        if dropped:
            self.fault_stats.handoff_drops += dropped
            if self.tracer is not None:
                self.tracer.emit(
                    self.simulator.now_ns,
                    f"shard-{shard}",
                    "fault_inject",
                    {"kind": "handoff_drop", "count": dropped},
                )
        return dropped

    def submit(self, packet: Packet) -> bool:
        """Offer one packet to the runtime; False when it was dropped.

        With ingress cores the packet lands in its flow's RX ring (drops are
        then the admission policy's verdict); otherwise it goes straight to
        its shard's mailbox, as before the ingress layer existed.

        On a parallel backend this buffers the packet for time 0 of the run
        (see :meth:`submit_at`) and optimistically reports acceptance —
        drops are settled inside the shard processes and surface in
        :attr:`ingress_drops` after :meth:`run`.
        """
        if self.backend.parallel:
            self.backend.submit_at(0, [packet])
            return True
        if self.timeline is not None:
            self._arm_timeline()
        if self.ingress_cores:
            return self._offer_ingress([packet]) == 1
        by_shard, slots_by_shard = self._route_burst([packet])
        ((shard, _group),) = by_shard.items()
        if self._faults is not None and self._take_handoff_drops(shard, 1):
            return False
        if self.latency_histograms:
            now = self.simulator.now_ns
            packet.metadata["e2e_ns"] = now
            packet.metadata["mbox_ns"] = now
        if not self.workers[shard].mailbox.push(packet):
            self.ingress_drops += 1
            return False
        self._commit_group([packet], slots_by_shard[shard], shard, 1)
        self._wake_shard(shard)
        self._wake_idle_thieves(shard)
        self._arm_rebalance()
        return True

    def submit_batch(self, packets: List[Packet]) -> int:
        """Offer a burst; routing stays per-flow, pushes are batched per shard.

        Returns the number of packets accepted.  On a parallel backend the
        burst is buffered for time 0 of the run and the count is optimistic
        (see :meth:`submit`).
        """
        if self.backend.parallel:
            self.backend.submit_at(0, packets)
            return len(packets)
        if self.timeline is not None:
            self._arm_timeline()
        if self.ingress_cores:
            return self._offer_ingress(packets)
        if self.latency_histograms:
            now = self.simulator.now_ns
            for packet in packets:
                packet.metadata["e2e_ns"] = now
                packet.metadata["mbox_ns"] = now
        by_shard, slots_by_shard = self._route_burst(packets)
        accepted = 0
        faults = self._faults
        for shard, group in by_shard.items():
            slots = slots_by_shard[shard]
            if faults is not None:
                dropped = self._take_handoff_drops(shard, len(group))
                if dropped:
                    group = group[dropped:]
                    slots = slots[dropped:]
                    if not group:
                        continue
            mailbox = self.workers[shard].mailbox
            before = len(mailbox)
            taken = mailbox.push_batch(group)
            accepted += taken
            self.ingress_drops += len(group) - taken
            # Tail drop keeps the accepted prefix, so pending counts follow
            # the prefix of each flow's packets within this shard's group.
            self._commit_group(group, slots, shard, taken)
            if taken or before:
                self._wake_shard(shard)
                self._wake_idle_thieves(shard)
        if accepted:
            self._arm_rebalance()
        return accepted

    def submit_at(self, when_ns: int, packets: List[Packet]) -> None:
        """Arrange for a burst to arrive at absolute time ``when_ns``.

        The backend-portable way to drive a timed workload: on the
        simulated backend this schedules a :meth:`submit_batch` event (so
        pre-run submissions keep their arrival-beats-tick tie order on the
        shared heap, exactly like the benchmark harnesses' hand-scheduled
        offers); on a parallel backend it buffers the burst into the
        schedule that :meth:`run` fans out to the shard cores.  Call it for
        every burst before :meth:`run` and the same workload replays
        identically on either backend.
        """
        self.backend.submit_at(when_ns, packets)

    # -- the asynchronous ingress layer ------------------------------------

    def _offer_ingress(self, packets: List[Packet]) -> int:
        """Spread a NIC burst over the ingress cores' RX rings by flow hash.

        One flow always traverses one ring (per-flow FIFO composes through
        the whole pipeline); returns packets admitted past the admission
        policy.  With pure backpressure everything is admitted — the rings
        grow instead of dropping.
        """
        now = self.simulator.now_ns
        if self.latency_histograms:
            # The e2e clock starts at submission — RX-ring wait included.
            for packet in packets:
                packet.metadata["e2e_ns"] = now
        groups = self._lanes.spread(packets)
        admitted = 0
        for lane, group in groups.items():
            core = self.ingress_cores[lane]
            admitted += core.offer(group, now)
            if not core.ring.empty:
                self._wake_ingress(lane)
        return admitted

    def _wake_ingress(self, lane: int) -> None:
        """Guarantee the ingress core pulls within one ingress quantum.

        Ingress ticks are only ever armed at ``now`` or one ingress quantum
        out, so an already-armed pull is always soon enough for fresh ring
        arrivals; only :meth:`_wake_stalled_ingress` (the watermark resume
        edge) ever pulls an armed retry forward.
        """
        if self._wedged and lane in self._wedged:
            return  # a wedged poller ignores wakes until the supervisor acts
        handle = self._ingress_handles[lane]
        if handle is not None and handle.active:
            return
        self._ingress_handles[lane] = self.simulator.schedule_at(
            self.simulator.now_ns, self._ingress_callbacks[lane]
        )

    def _wake_stalled_ingress(self) -> None:
        """Resume every RX core parked on backpressure (the ``on_low`` edge).

        Unlike :meth:`_wake_ingress`, a stalled core's pending quantum-
        cadence retry is pulled forward to *now*: the whole point of the
        falling-watermark edge is to beat that polling fallback, and a
        stalled core always has the retry armed, so deferring to it would
        make this wake a no-op and cost up to one ingress quantum of extra
        RX sojourn per stall.
        """
        now = self.simulator.now_ns
        for lane, core in enumerate(self.ingress_cores):
            if not core.stalled or core.ring.empty:
                continue
            if self._wedged and lane in self._wedged:
                continue
            handle = self._ingress_handles[lane]
            if handle is not None and handle.active:
                if handle.time_ns <= now:
                    continue  # already due this instant
                self.simulator.cancel(handle)
            self._ingress_handles[lane] = self.simulator.schedule_at(
                now, self._ingress_callbacks[lane]
            )

    def _ingress_tick(self, lane: int) -> None:
        core = self.ingress_cores[lane]
        self._ingress_handles[lane] = None
        now = self.simulator.now_ns
        if self._faults is not None and self._faults.next_wedge(lane):
            # The RX poller wedges: no pull, no reschedule.  Arrivals keep
            # landing in the ring until the supervisor un-wedges the lane.
            self._wedged[lane] = now
            self.fault_stats.wedges_injected += 1
            if self.tracer is not None:
                self.tracer.emit(
                    now, f"rx-{lane}", "fault_inject", {"kind": "ingress_wedge"}
                )
            self._arm_supervision()
            return
        if self._wedged and lane in self._wedged:
            return
        delivered = core.pull(now, self._route_burst, self._mailboxes, self._ingress_deliver)
        if self.tracer is not None:
            self.tracer.emit(
                now,
                f"rx-{lane}",
                "ingress_pull",
                {"delivered": delivered, "ring": core.backlog, "stalled": core.stalled},
            )
        # The wake-up policy lives on the core (next_wake_ns), shared with
        # any backend that drives RX cores on its own clock.  Blocked cores
        # are primarily woken by the mailbox on_low edge; the quantum-cadence
        # retry is the liveness belt for custom watermark wirings, and for a
        # loaded ring it is simply the next NAPI poll.
        next_ns = core.next_wake_ns(now, self.ingress_quantum_ns)
        if next_ns is None:
            return  # the next offer() wakes this core
        self._ingress_handles[lane] = self.simulator.schedule_at(
            next_ns, self._ingress_callbacks[lane]
        )

    def _ingress_deliver(self, shard: int, packets: List[Packet], slots: List[int]) -> int:
        """Land one routed group in its mailbox; its slots go on to the commit."""
        if self._faults is not None:
            dropped = self._take_handoff_drops(shard, len(packets))
            if dropped:
                packets = packets[dropped:]
                slots = slots[dropped:]
                if not packets:
                    return 0
        mailbox = self._mailboxes[shard]
        before = len(mailbox)
        if self.latency_histograms:
            now = self.simulator.now_ns
            for packet in packets:
                packet.metadata["mbox_ns"] = now
        taken = mailbox.push_batch(packets)
        self.ingress_drops += len(packets) - taken
        if self.tracer is not None:
            self.tracer.emit(
                self.simulator.now_ns,
                f"shard-{shard}",
                "mailbox_handoff",
                {"offered": len(packets), "accepted": taken},
            )
        self._commit_group(packets, slots, shard, taken)
        if taken or before:
            self._wake_shard(shard)
            self._wake_idle_thieves(shard)
        if taken:
            self._arm_rebalance()
        return taken

    # -- shard scheduling --------------------------------------------------

    def _wake_idle_thieves(self, loaded_shard: int) -> None:
        """Give empty shards a tick so they can park steal requests.

        A shard with nothing in flight has no timer armed and would
        otherwise never volunteer — the scheduling analogue of kicking an
        idle core with an IPI when work lands somewhere on the package.
        The tick is on an idle core, so it never adds to the bottleneck,
        and the kick only fires when the shard that just received work is
        loaded enough to clear the steal floor — below that no victim can
        qualify, so a woken thief could only park a request and go back to
        sleep.
        """
        if not self.steal_enabled or self.num_shards == 1:
            return
        loaded = self.workers[loaded_shard]
        if loaded.backlog + len(loaded.mailbox) < self.steal_min_backlog:
            return
        for shard, worker in enumerate(self.workers):
            if not worker.pending and not worker.leases_held and not worker.flows_on_loan:
                self._wake_shard(shard)

    def _wake_shard(self, shard: int) -> None:
        """Guarantee the shard ticks within one quantum of new work."""
        if (self._dead and shard in self._dead) or (
            self._stalled and shard in self._stalled
        ):
            return  # a dead or frozen core cannot be woken; supervision will
        handle = self._tick_handles[shard]
        now = self.simulator.now_ns
        if handle is not None and handle.active:
            if handle.time_ns <= now + self.quantum_ns:
                return
            # The shard is sleeping until a far-off deadline; pull its next
            # tick forward so the new packet is stamped promptly.
            self.simulator.cancel(handle)
        self._tick_handles[shard] = self.simulator.schedule_at(
            now, self._tick_callbacks[shard]
        )

    def _tick(self, shard: int) -> None:
        worker = self.workers[shard]
        now = self.simulator.now_ns
        self._tick_handles[shard] = None
        if self._faults is not None:
            action = self._faults.next_shard_action(shard)
            if action is not None:
                self._inject_shard_fault(shard, action, now)
                return  # the tick never runs; no next tick is scheduled
        if self._dead and shard in self._dead:
            return  # stale timer of a crashed core
        inbox = self._loan_inbox[shard]
        if inbox:
            # Thief role, first: splice freshly granted leases into this
            # shard's queue before the drain below, so due stolen packets
            # release this very tick.
            self._loan_inbox[shard] = []
            for lease in inbox:
                worker.accept_lease(lease, now)
        ingest_limit = self.ingest_per_quantum
        if self.shard_backlog_limit is not None:
            room = max(0, self.shard_backlog_limit - worker.backlog)
            ingest_limit = room if ingest_limit is None else min(ingest_limit, room)
        released = worker.tick(
            now, ingest_limit=ingest_limit, drain_limit=self.batch_per_quantum
        )
        if self.tracer is not None:
            self.tracer.emit(
                now,
                f"shard-{shard}",
                "drain_batch",
                {"released": len(released), "backlog": worker.backlog},
            )
        self._deliver(released, now)
        if self.steal_enabled and self.num_shards > 1:
            self._grant_steals(shard, now)
            self._maybe_request_steal(shard, now)
        self._schedule_next_tick(shard, now)

    def _deliver(self, released: List[Packet], now: int) -> None:
        """Hand released packets to the NIC side; settle leases they close.

        This runs once per drained packet for the whole runtime, so every
        per-packet lookup is hoisted into a local before the loop and the
        optional branches (callback, open leases) are resolved once per call
        rather than once per packet.  The transmit log keeps no object per
        call either: the packets extend one flat list and ``(now, count)``
        goes into an ``array('q')``, so a drain leaves nothing behind for
        CPython's cyclic collector to count or walk.
        """
        if not released:
            return
        if self.record_transmits:
            self._unread_packets.extend(released)
            drains = self._unread_drains
            drains.append(now)
            drains.append(len(released))
        finished: List[FlowLease] = []
        in_flight = self._in_flight
        count_of = in_flight.get
        on_transmit = self.on_transmit
        open_leases = self._open_leases
        e2e = self._e2e
        for packet in released:
            packet.departure_ns = now
            if e2e is not None:
                submitted_ns = packet.metadata.pop("e2e_ns", None)
                if submitted_ns is not None:
                    e2e.record(now - submitted_ns)
            flow_id = packet.flow_id
            count = count_of(flow_id)
            if count is not None:
                if count > 1:
                    in_flight[flow_id] = count - 1
                else:
                    del in_flight[flow_id]
            if on_transmit is not None:
                on_transmit(packet, now)
            if open_leases:
                lease_id = packet.metadata.get("lease_id")
                if lease_id is not None:
                    entry = open_leases.get(lease_id)
                    if entry is not None:
                        entry[1] -= 1
                        if entry[1] == 0:
                            del open_leases[lease_id]
                            finished.append(entry[0])
        for lease in finished:
            self._finish_lease(lease, now)
        if self.gc_interval_packets is not None:
            self._since_gc += len(released)
            if self._since_gc >= self.gc_interval_packets:
                self._since_gc = 0
                self._gc_flow_state(now)

    # -- work stealing -----------------------------------------------------

    def _grant_steals(self, shard: int, now: int) -> None:
        """Victim role: hand due windows to the thieves parked at ``shard``.

        Runs after the shard's own drain, so stealing only ever takes work
        the victim could not clear within its own quantum budget.  Requests
        park until the victim actually has a stealable window — the
        standing "work wanted" token of message-passing work stealing.
        """
        worker = self.workers[shard]
        channel = self._steal_channels[shard]
        cutoff = now + self.steal_horizon_ns
        while len(channel):
            if worker.flows_on_loan or worker.leases_held or not worker.has_work_by(cutoff):
                break  # one lease out at a time / holding stolen work / nothing stealable
            if worker.backlog < self.steal_min_backlog:
                # The victim drained below the steal floor since the request
                # parked: a lease now would move work it can clear itself
                # next tick.  The request stays parked for the next burst.
                break
            request = channel.peek()
            assert request is not None
            thief_worker = self.workers[request.thief_shard]
            if (
                thief_worker.pending
                or thief_worker.leases_held
                or thief_worker.flows_on_loan
                or self._loan_inbox[request.thief_shard]
                or (self._dead and request.thief_shard in self._dead)
                or (self._stalled and request.thief_shard in self._stalled)
            ):
                # The thief found its own work since parking the request —
                # or already has a lease granted (possibly still sitting in
                # its inbox) or its own flows out on loan: one window per
                # idle thief at a time.
                channel.pop()
                thief_worker.steal.requests_stale += 1
                continue
            lease = worker.grant_lease(
                next(self._lease_seq), request.thief_shard, now, self.steal_batch,
                self.steal_horizon_ns,
            )
            if lease is None:
                # The donor refused despite the loop-top checks (kept
                # deliberately equivalent; this is the belt to those
                # braces): leave the request parked for a later tick.
                break
            channel.pop()
            for flow_id in lease.flow_ids:
                self.sharder.lend(flow_id, shard)
            self._open_leases[lease.lease_id] = [lease, len(lease.packets)]
            self._loan_inbox[request.thief_shard].append(lease)
            if self.tracer is not None:
                self.tracer.emit(
                    now,
                    f"shard-{shard}",
                    "lease_grant",
                    {
                        "lease_id": lease.lease_id,
                        "thief": request.thief_shard,
                        "packets": len(lease.packets),
                        "flows": len(lease.flow_ids),
                    },
                )
            self._wake_shard(request.thief_shard)
            if self.lease_deadline_ns is not None:
                self._arm_supervision()

    def _maybe_request_steal(self, shard: int, now: int) -> None:
        """Thief role: when empty, park a steal request at the busiest sibling.

        Only a shard with *nothing at all* in flight volunteers — a shard
        with merely no work due yet still owns future-paced backlog, and
        letting it steal would move load toward loaded cores (the hot shard
        is "idle right now" between its own paced releases most of the
        time).  The empty shard then sleeps with no timer armed; its sleep
        stays steal-aware because an arriving lease re-programs the tick
        through :meth:`_wake_shard`, exactly like fresh ingress.
        """
        worker = self.workers[shard]
        if worker.pending or worker.leases_held or worker.flows_on_loan:
            # Nothing at all may be in flight — and a donor whose flows are
            # out on lease is about to take back a deferred flush plus
            # re-ingested arrivals, so it is not idle either.
            return
        # Volunteer only while this core has done less than its fair share
        # of the run's work: an empty-but-cumulatively-hot shard (e.g. the
        # elephant's home at a burst tail) grabbing more work would deepen
        # the very bottleneck stealing exists to relieve.
        mean_cycles = sum(candidate.cost.total_cycles for candidate in self.workers) / self.num_shards
        if worker.cost.total_cycles > mean_cycles:
            return
        loads = [candidate.backlog + len(candidate.mailbox) for candidate in self.workers]
        # Only a shard loaded well beyond its siblings is worth robbing:
        # stealing between near-equal shards just churns handoff overhead,
        # ticks, and bitmap scans without relieving any bottleneck.
        floor = max(self.steal_min_backlog, 2 * sum(loads) // self.num_shards)
        victim = None
        victim_pending = floor - 1
        for other, pending in enumerate(loads):
            if other == shard:
                continue
            if self._dead and other in self._dead:
                continue  # a corpse's backlog is being recovered, not robbed
            if pending > victim_pending:
                victim, victim_pending = other, pending
        if victim is None:
            return
        # Park the request without waking the victim: a shard loaded enough
        # to rob keeps its own tick chain alive, and one that sleeps toward
        # a far deadline has nothing stealable inside the horizon anyway.
        # The grant lands at the victim's next natural safe point.
        outcome = self._steal_channels[victim].post(StealRequest(shard, now))
        if outcome == "accepted":
            worker.steal.requests_posted += 1
        elif outcome == "full":
            worker.steal.requests_dropped += 1

    def _finish_lease(self, lease: FlowLease, now: int) -> None:
        """The thief released the last stolen packet: return the lease."""
        self.workers[lease.thief_shard].finish_held_lease()
        if self.tracer is not None:
            self.tracer.emit(
                now,
                f"shard-{lease.thief_shard}",
                "lease_return",
                {"lease_id": lease.lease_id, "victim": lease.victim_shard},
            )
        if self._dead and lease.victim_shard in self._dead:
            # The donor died while its lease was out.  Bank the return for
            # the replacement worker: shapers re-install and the sharder's
            # loan entry clears at recovery (the dead core's deferred work
            # for these flows is already part of its crash loss).
            self._orphan_returns.setdefault(lease.victim_shard, []).append(lease)
            return
        victim = self.workers[lease.victim_shard]
        flushed = victim.end_lease(lease, now)
        for flow_id in lease.flow_ids:
            self.sharder.restore(flow_id)
        self._deliver(flushed, now)
        if victim.pending:
            self._wake_shard(lease.victim_shard)

    def _schedule_next_tick(self, shard: int, now: int) -> None:
        if (handle := self._tick_handles[shard]) is not None and handle.active:
            # A re-entrant submit() during this tick (an on_transmit callback
            # feeding packets back) already woke the shard; scheduling a
            # second tick here would fork a duplicate self-perpetuating
            # timer chain.
            return
        # The timer policy itself (idle → no timer; mailbox → one quantum;
        # deep-paced queue → jump to the soonest deadline) lives on the
        # worker so every execution backend programs identical wake-ups.
        next_ns = self.workers[shard].next_wake_ns(now, self.quantum_ns)
        if next_ns is None:
            # Idle — the next submit() wakes the shard (lease-deferred
            # packets deliberately don't count: _finish_lease wakes then).
            return
        self._tick_handles[shard] = self.simulator.schedule_at(
            next_ns, self._tick_callbacks[shard]
        )

    def _gc_flow_state(self, now_ns: int) -> None:
        """Reclaim per-flow state of flows with nothing in flight.

        A flow is reclaimed only when its shard holds no live pacing state
        for it (see :meth:`ShardWorker.gc_flow`); flows mid-pacing keep
        their home so a returning packet cannot jump ahead of the rate
        limit.

        With ``gc_sweep_limit`` set the sweep is incremental: a persistent
        cursor walks the slot space at most ``limit`` idle candidates per
        trigger and wraps, bounding GC cost per trigger regardless of how
        many flows are live.  Flows skipped this sweep are simply examined
        on a later one — the reclaimed set converges to exactly what one
        global scan finds, because the verdict per flow
        (:meth:`ShardWorker.gc_flow`) is independent of scan order.
        """
        flows = self.flows
        stats = flows.stats
        stats.gc_sweeps += 1
        key = flows.key
        home_col = self._home
        in_flight = self._in_flight
        loan_shard = self.sharder.loan_shard
        forget = self.sharder.forget
        workers = self.workers
        limit = self.gc_sweep_limit
        span = flows.slot_limit
        if limit is None:
            slots = iter(range(span))
        else:
            start = self._gc_cursor
            if start >= span:
                start = 0
            slots = itertools.chain(range(start, span), range(start))
        examined = 0
        for slot in slots:
            flow_id = key[slot]
            if flow_id < 0 or flow_id in in_flight:
                continue
            examined += 1
            home = home_col[slot]
            if home < 0:
                # A crash recovery re-homed this flow with nothing in
                # flight: no shard holds state for it, reclaim directly.
                flows.remove(flow_id)
                forget(flow_id)
                stats.gc_reclaimed += 1
            # Mid-lease the flow's pacing state lives inside the lease, not
            # on its shard, so the "no live pacing state" probe would
            # misfire and orphan the state the lease hands back — skip.
            elif loan_shard(flow_id) is None and workers[home].gc_flow(
                flow_id, now_ns
            ):
                flows.remove(flow_id)
                forget(flow_id)
                stats.gc_reclaimed += 1
            if limit is not None and examined >= limit:
                self._gc_cursor = slot + 1
                break
        stats.gc_examined += examined

    # -- rebalancing -------------------------------------------------------

    def _arm_rebalance(self) -> None:
        if self.rebalancer is None or self.rebalance_interval_ns is None:
            return
        if self._rebalance_handle is not None and self._rebalance_handle.active:
            return
        self._rebalance_handle = self.simulator.schedule(
            self.rebalance_interval_ns, self._rebalance_tick
        )

    def _rebalance_tick(self) -> None:
        assert self.rebalancer is not None
        self._rebalance_handle = None
        tracer = self.tracer
        now = self.simulator.now_ns if tracer is not None else 0
        for migration in self.rebalancer.plan():
            # Re-pin now; routing applies it once the flow drains (FIFO).
            self.sharder.pin(migration.flow_id, migration.dst_shard)
            if tracer is not None:
                tracer.emit(
                    now,
                    "supervisor",
                    "rebalance_migration",
                    {
                        "flow_id": migration.flow_id,
                        "src": migration.src_shard,
                        "dst": migration.dst_shard,
                        "window_packets": migration.window_packets,
                    },
                )
        self.sharder.reset_window()
        # Keep sweeping only while traffic is in flight; submit() re-arms.
        if any(worker.pending for worker in self.workers):
            self._arm_rebalance()

    # -- fault injection and supervision -----------------------------------

    def _inject_shard_fault(self, shard: int, action: str, now: int) -> None:
        """Arm one shard fault (fires from the victim's own tick).

        A crash marks the shard dead — its tick chain stops, wakes are
        suppressed, and its private state sits untouched until the
        supervision sweep performs the restart (detection latency is part of
        the modelled recovery time).  A stall just freezes the tick chain.
        """
        if action == "shard_crash":
            self._dead[shard] = now
            self.fault_stats.crashes_injected += 1
        else:
            self._stalled[shard] = now
            self.fault_stats.stalls_injected += 1
        if self.tracer is not None:
            self.tracer.emit(now, f"shard-{shard}", "fault_inject", {"kind": action})
        self._arm_supervision()

    def _arm_supervision(self) -> None:
        """Guarantee a supervision sweep within one supervise interval.

        Armed only at fault-injection sites and lease grants (when a lease
        deadline is configured) — a clean runtime never schedules one.
        """
        handle = self._supervise_handle
        if handle is not None and handle.active:
            return
        self._supervise_handle = self.simulator.schedule(
            self.supervise_interval_ns, self._supervise_tick
        )

    def _supervise_tick(self) -> None:
        """One supervision sweep: restart the dead, unfreeze the stuck.

        Detection is structural, not heartbeat-guesswork: a healthy shard
        with queued or mailbox work *always* has a tick timer armed (the
        self-perpetuating tick chain), so "work pending and no timer" is a
        precise liveness predicate — deadline-sleeping shards keep their
        far-off timer and never false-positive.  Re-arms itself only while
        unresolved failures (or open leases under a deadline) remain; future
        faults re-arm at their injection sites, so a plan entry beyond the
        run's horizon can never keep the event loop alive.
        """
        self._supervise_handle = None
        now = self.simulator.now_ns
        stats = self.fault_stats
        if self._dead:
            for shard in sorted(self._dead):
                if shard in self._dead:
                    self._recover_shard(shard, now)
        if self.lease_deadline_ns is not None and self._open_leases:
            deadline = self.lease_deadline_ns
            overdue = sorted(
                {
                    entry[0].thief_shard
                    for entry in self._open_leases.values()
                    if now - entry[0].granted_at_ns > deadline
                }
            )
            for thief in overdue:
                # Escalate-to-restart: a thief sitting on a lease past its
                # deadline is presumed hung.  Crash it — the standard
                # recovery reclaims every lease it holds and its victims
                # resume their deferred flows.
                stats.deadline_escalations += 1
                self._dead[thief] = now
                self._recover_shard(thief, now)
        for shard, worker in enumerate(self.workers):
            stalled_at = self._stalled.pop(shard, None) if self._stalled else None
            handle = self._tick_handles[shard]
            armed = handle is not None and handle.active
            has_work = worker.backlog > 0 or len(worker.mailbox) > 0
            if stalled_at is not None:
                stats.stalls_cleared += 1
                stats.recoveries += 1
                stats.recovery_ns_total += now - stalled_at
                self.recovery_log.append(
                    {
                        "kind": "shard_stall",
                        "shard": shard,
                        "failed_at_ns": stalled_at,
                        "recovered_at_ns": now,
                    }
                )
                if self.tracer is not None:
                    self.tracer.emit(
                        now,
                        "supervisor",
                        "fault_recover",
                        {"kind": "shard_stall", "shard": shard, "failed_at_ns": stalled_at},
                    )
                if (has_work or self._loan_inbox[shard]) and not armed:
                    self._wake_shard(shard)
            elif has_work and not armed:
                # Liveness belt for failure modes no flag marked.
                stats.watchdog_kicks += 1
                self._wake_shard(shard)
        if self._wedged:
            for lane in sorted(self._wedged):
                wedged_at = self._wedged.pop(lane)
                stats.wedges_cleared += 1
                stats.recoveries += 1
                stats.recovery_ns_total += now - wedged_at
                self.recovery_log.append(
                    {
                        "kind": "ingress_wedge",
                        "lane": lane,
                        "failed_at_ns": wedged_at,
                        "recovered_at_ns": now,
                    }
                )
                if self.tracer is not None:
                    self.tracer.emit(
                        now,
                        "supervisor",
                        "fault_recover",
                        {"kind": "ingress_wedge", "lane": lane, "failed_at_ns": wedged_at},
                    )
                if not self.ingress_cores[lane].ring.empty:
                    self._wake_ingress(lane)
        if (
            self._dead
            or self._stalled
            or self._wedged
            or (self.lease_deadline_ns is not None and self._open_leases)
        ):
            self._arm_supervision()

    def _recover_shard(self, shard: int, now: int) -> None:
        """Crash-restart one shard: salvage what survives, account the loss.

        Ordering matters:

        1. snapshot the dead incarnation's counters *before* dumping its
           state (the dump drains the queue through its own stats);
        2. reclaim every lease the dead shard held as thief — each victim
           re-adopts its travelled shapers and flushes its deferred flows;
           stolen packets still queued on the thief die in step 3, and a
           lease that never left the handoff inbox loses its whole burst;
        3. dump the core-private state: queued and lease-deferred packets
           are the crash loss, written off against the flow table;
        4. build the replacement and transplant what survives — the mailbox
           *object* (a producer-owned ring whose buffered arrivals replay
           into the fresh worker, keeping the ingress ``on_low`` wiring and
           stats continuity), open-loan markers for flows this shard had
           lent out, banked lease returns that arrived while it lay dead,
           and pacing state of flows that still have packets in flight here
           (:meth:`PacingTable.detach` → ``install``);
        5. flows homed here with nothing in flight re-home lazily: the home
           clears, the next packet routes by policy, and the re-armed
           rebalancer re-pins from fresh load figures.
        """
        crashed_at = self._dead.pop(shard)
        old = self.workers[shard]
        stats = self.fault_stats
        self._retired_shards.setdefault(shard, []).append(
            _RetiredShard(
                stats=old.stats.snapshot(),
                queue_stats=old.queue_stats_snapshot(),
                steals=old.steal.snapshot(),
                cycles=old.cost.total_cycles,
                mailbox_wait=(
                    old.mailbox_wait.snapshot() if old.mailbox_wait is not None else None
                ),
                queue_wait=(
                    old.queue_wait.snapshot() if old.queue_wait is not None else None
                ),
            )
        )
        in_flight = self._in_flight

        def write_off(packets) -> None:
            for packet in packets:
                count = in_flight.pop(packet.flow_id, 0)
                if count > 1:
                    in_flight[packet.flow_id] = count - 1
            stats.packets_lost += len(packets)

        inbox_ids = {lease.lease_id for lease in self._loan_inbox[shard]}
        self._loan_inbox[shard] = []
        reclaim = [
            lease_id
            for lease_id, entry in self._open_leases.items()
            if entry[0].thief_shard == shard
        ]
        for lease_id in reclaim:
            lease, _remaining = self._open_leases.pop(lease_id)
            stats.leases_reclaimed += 1
            if lease_id in inbox_ids:
                # Granted but never accepted: the burst died in the handoff.
                write_off([packet for _send_at, packet in lease.packets])
            if self._dead and lease.victim_shard in self._dead:
                # The victim crashed in the same sweep and is not yet
                # rebuilt: bank the return for its own recovery pass.
                self._orphan_returns.setdefault(lease.victim_shard, []).append(lease)
                continue
            victim = self.workers[lease.victim_shard]
            flushed = victim.end_lease(lease, now)
            for flow_id in lease.flow_ids:
                self.sharder.restore(flow_id)
            self._deliver(flushed, now)
            if victim.pending:
                self._wake_shard(lease.victim_shard)
        lost, loaned = old.crash_dump()
        write_off(lost)
        mailbox = old.mailbox
        stats.packets_salvaged += len(mailbox)
        fresh = ShardWorker(shard, **self._worker_config)
        # Same object, not a copy: self._mailboxes[shard] and the ingress
        # on_low wiring keep pointing at it, and its stats run on.
        fresh.mailbox = mailbox
        for lease in self._orphan_returns.pop(shard, ()):
            # Leases that came back while this shard lay dead: re-adopt the
            # travelled shapers; the deferred work died in the dump above.
            for flow_id, shaper in lease.shapers.items():
                fresh.adopt_shaper(flow_id, shaper)
                stats.shapers_recovered += 1
            for flow_id in lease.flow_ids:
                loaned.pop(flow_id, None)
                self.sharder.restore(flow_id)
        for flow_id, thief in loaned.items():
            fresh.mark_on_loan(flow_id, thief)
        home_col = self._home
        for flow_id, slot in self.flows.items():
            if home_col[slot] != shard:
                continue
            if flow_id in in_flight:
                # Packets survive (mailbox, or out with a thief): the flow
                # stays homed here and its pacing state rides across.
                shaper = old.pacing.detach(flow_id)
                if shaper is not None:
                    fresh.pacing.install(flow_id, shaper)
                    stats.shapers_recovered += 1
            else:
                home_col[slot] = -1
                stats.flows_rehomed += 1
                self.sharder.forget(flow_id)
        self.workers[shard] = fresh
        stats.shards_recovered += 1
        stats.recoveries += 1
        stats.recovery_ns_total += now - crashed_at
        self.recovery_log.append(
            {
                "kind": "shard_crash",
                "shard": shard,
                "failed_at_ns": crashed_at,
                "recovered_at_ns": now,
                "packets_lost": len(lost),
                "packets_salvaged": len(mailbox),
            }
        )
        if self.tracer is not None:
            self.tracer.emit(
                now,
                "supervisor",
                "fault_recover",
                {
                    "kind": "shard_crash",
                    "shard": shard,
                    "failed_at_ns": crashed_at,
                    "packets_lost": len(lost),
                    "packets_salvaged": len(mailbox),
                },
            )
        self._arm_rebalance()
        if len(mailbox):
            self._wake_shard(shard)

    # -- metrics timeline --------------------------------------------------

    def _arm_timeline(self) -> None:
        """Guarantee a timeline sample within one sampling interval.

        Armed lazily from the submit paths (like rebalancing) so an idle
        runtime with a timeline configured holds no standing timer.
        """
        handle = self._timeline_handle
        if handle is not None and handle.active:
            return
        assert self.timeline is not None
        self._timeline_handle = self.simulator.schedule(
            self.timeline.interval_ns, self._timeline_tick
        )

    def _timeline_tick(self) -> None:
        assert self.timeline is not None
        self._timeline_handle = None
        self.timeline.sample(self.simulator.now_ns, self._timeline_gauges())
        # Re-arm only while something is in flight or unresolved — a
        # standing sampler must never keep the event loop alive on its own.
        if (
            self.pending
            or self._open_leases
            or self._dead
            or self._stalled
            or self._wedged
        ):
            self._arm_timeline()

    def _timeline_gauges(self) -> Dict[str, GaugeValue]:
        """One gauge sample: the runtime's load picture at this instant."""
        workers = self.workers
        gauges: Dict[str, GaugeValue] = {
            "shard_backlog": {str(w.shard_id): w.backlog for w in workers},
            "mailbox_occupancy": {str(w.shard_id): len(w.mailbox) for w in workers},
            "shard_cycles": {str(w.shard_id): w.cost.total_cycles for w in workers},
            "pending_packets": self.pending,
            "live_flows": len(self.flows),
            "pacing_flows": sum(len(w.pacing) for w in workers),
            "open_leases": len(self._open_leases),
            "flows_on_loan": sum(w.flows_on_loan for w in workers),
            "dead_shards": len(self._dead),
            "stalled_shards": len(self._stalled),
        }
        if self.ingress_cores:
            gauges["rx_ring_depth"] = {
                str(core.core_id): core.backlog for core in self.ingress_cores
            }
            gauges["rx_cycles"] = {
                str(core.core_id): core.cost.total_cycles
                for core in self.ingress_cores
            }
        return gauges

    # -- driving -----------------------------------------------------------

    def run(self, until_ns: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Execute the workload; returns events processed.

        On the simulated backend this drives the shared clock (without a
        horizon it runs until every shard drains — worker ticks
        self-perpetuate only while work is pending).  On a parallel backend
        it fans the buffered :meth:`submit_at` schedule out to the shard
        cores, blocks until they all drain, and folds their results back
        into this runtime's telemetry, transmit log and drop counters
        (``until_ns``/``max_events`` don't apply there — the schedule runs
        to completion).
        """
        processed = self.backend.run(until_ns=until_ns, max_events=max_events)
        if self.backend.parallel:
            self._absorb_parallel_results()
        return processed

    def _absorb_parallel_results(self) -> None:
        """Fold the shard processes' results into the runtime's own counters."""
        results: Optional[List[ShardResult]] = self.backend.results
        if results is None:
            return
        self.ingress_drops = sum(result.drops for result in results)
        if self.record_transmits:
            # Within a shard the transmit order is exact; across shards the
            # same-nanosecond tie order is backend-defined, resolved here by
            # shard id so repeated runs merge deterministically.
            entries = [
                (departure_ns, result.shard_id, index, packet)
                for result in results
                for index, (departure_ns, packet) in enumerate(result.transmits)
            ]
            entries.sort(key=lambda entry: entry[:3])
            self.transmit_log = [
                (departure_ns, packet) for departure_ns, _shard, _idx, packet in entries
            ]

    def stop(self) -> None:
        """Cancel every outstanding shard, ingress, and rebalancing timer."""
        if self.simulator is None:
            return  # parallel backends hold no timers in this process
        for shard, handle in enumerate(self._tick_handles):
            if handle is not None and handle.active:
                self.simulator.cancel(handle)
            self._tick_handles[shard] = None
        for lane, handle in enumerate(self._ingress_handles):
            if handle is not None and handle.active:
                self.simulator.cancel(handle)
            self._ingress_handles[lane] = None
        if self._rebalance_handle is not None and self._rebalance_handle.active:
            self.simulator.cancel(self._rebalance_handle)
        self._rebalance_handle = None
        if self._supervise_handle is not None and self._supervise_handle.active:
            self.simulator.cancel(self._supervise_handle)
        self._supervise_handle = None
        if self._timeline_handle is not None and self._timeline_handle.active:
            self.simulator.cancel(self._timeline_handle)
        self._timeline_handle = None

    # -- introspection -----------------------------------------------------

    @property
    def transmit_log(self) -> List[tuple[int, Packet]]:
        """Every recorded departure as ``(now_ns, packet)``, in release order.

        One persistent flat list: the same object on every read, so edits
        made in place are still there on the next one.  The hot path logs
        per *drain* (:meth:`_deliver`): the released packets onto one flat
        list, ``(now_ns, count)`` onto an integer array; a read appends the
        per-packet view of everything logged since the previous read.
        Whoever reads the log pays for the per-packet tuples, at the read; a
        run that never reads it never allocates them.  Empty with
        ``record_transmits=False``.
        """
        log = self._transmit_log
        packets = self._unread_packets
        if packets:
            drains = self._unread_drains
            times = itertools.chain.from_iterable(
                map(itertools.repeat, drains[::2], drains[1::2])
            )
            log.extend(zip(times, packets))
            packets.clear()
            del drains[:]
        return log

    @transmit_log.setter
    def transmit_log(self, entries: List[tuple[int, Packet]]) -> None:
        self._transmit_log = entries
        self._unread_packets.clear()
        del self._unread_drains[:]

    @property
    def pending(self) -> int:
        """Packets in flight anywhere: RX rings + mailboxes + queues + lease deferrals.

        On a parallel backend before :meth:`run`, this counts the buffered
        schedule; after the run everything has drained by construction.
        """
        if self.backend.parallel:
            return self.backend.pending_submitted
        in_flight = sum(worker.pending for worker in self.workers)
        return in_flight + sum(core.backlog for core in self.ingress_cores)

    def flows_in_flight(self) -> int:
        """Sum of the per-flow in-flight packet counts.

        Zero after a complete drain: a non-zero residue means the ownership
        map believes packets exist that no queue holds (a stranded flow).
        """
        return sum(self._in_flight.values())

    def residual_state(self) -> Dict[str, int]:
        """Post-drain audit: every gauge that must read zero once idle.

        The scenario fuzz suite's "no stranded state" invariant: after a
        workload fully drains there must be no packets anywhere in the
        pipeline, no flow-table slot claiming packets in flight, no flow on
        loan to a thief, no lease open or held, and no RX core parked on
        backpressure with a non-empty ring.
        """
        return {
            "pending_packets": self.pending,
            "flows_in_flight": self.flows_in_flight(),
            "loaned_flows": len(self.sharder.loaned_flows()),
            "open_leases": len(self._open_leases),
            "leases_held": sum(worker.leases_held for worker in self.workers),
            "flows_on_loan": sum(worker.flows_on_loan for worker in self.workers),
            "stalled_ingress_cores": sum(
                1
                for core in self.ingress_cores
                if core.stalled and not core.ring.empty
            ),
            "dead_shards": len(self._dead),
            "stalled_shards": len(self._stalled),
            "wedged_ingress_cores": len(self._wedged),
            "orphaned_lease_returns": sum(
                len(leases) for leases in self._orphan_returns.values()
            ),
        }

    @property
    def transmitted(self) -> int:
        """Packets released by all shards."""
        results = self.backend.results if self.backend.parallel else None
        if results is not None:
            return sum(result.stats.transmitted for result in results)
        total = sum(worker.stats.transmitted for worker in self.workers)
        if self._retired_shards:
            total += sum(
                retired.stats.transmitted
                for retirees in self._retired_shards.values()
                for retired in retirees
            )
        return total

    def _shard_telemetry(self) -> List[ShardTelemetry]:
        """Per-shard telemetry rows — live workers, or joined shard results."""
        results = self.backend.results if self.backend.parallel else None
        if results is not None:
            return [
                ShardTelemetry(
                    shard_id=result.shard_id,
                    ingested=result.stats.ingested,
                    transmitted=result.stats.transmitted,
                    ticks=result.stats.ticks,
                    idle_ticks=result.stats.idle_ticks,
                    backlog_peak=result.stats.backlog_peak,
                    cycles=result.cycles,
                    queue_stats=result.queue_stats,
                    mailbox=result.mailbox,
                    steals=StealStats(),
                )
                for result in results
            ]
        rows = []
        for worker in self.workers:
            stats = worker.stats
            queue_stats = worker.queue_stats_snapshot()
            steals = worker.steal.snapshot()
            cycles = worker.cost.total_cycles
            retirees = (
                self._retired_shards.get(worker.shard_id)
                if self._retired_shards
                else None
            )
            if retirees:
                # Fold the crashed incarnations' final counters back in so
                # a restart never makes work disappear from telemetry.
                stats = stats.snapshot()
                for retired in retirees:
                    stats.merge(retired.stats)
                    queue_stats.merge(retired.queue_stats)
                    steals.merge(retired.steals)
                    cycles += retired.cycles
                # merge() sums every field; a peak must take the max.
                stats.backlog_peak = max(
                    worker.stats.backlog_peak,
                    *(retired.stats.backlog_peak for retired in retirees),
                )
            rows.append(
                ShardTelemetry(
                    shard_id=worker.shard_id,
                    ingested=stats.ingested,
                    transmitted=stats.transmitted,
                    ticks=stats.ticks,
                    idle_ticks=stats.idle_ticks,
                    backlog_peak=stats.backlog_peak,
                    cycles=cycles,
                    queue_stats=queue_stats,
                    mailbox=worker.mailbox.stats,
                    steals=steals,
                )
            )
        return rows

    def _latency_telemetry(self) -> Dict[str, LogHistogram]:
        """Merge the per-seam latency histograms into runtime-wide ones.

        ``rx_sojourn`` is present whenever ingress cores ran (it is always
        recorded); the other seams appear only with ``latency_histograms``
        armed.  Crashed incarnations' histograms fold back in exactly like
        their counters, and a parallel run merges the picklable per-shard
        histograms off the joined :class:`ShardResult` rows.
        """
        latency: Dict[str, LogHistogram] = {}
        if self.ingress_cores:
            latency["rx_sojourn"] = LogHistogram.aggregate(
                core.sojourn_hist for core in self.ingress_cores
            )
        results = self.backend.results if self.backend.parallel else None
        if results is not None:
            mailbox = [r.mailbox_wait for r in results if r.mailbox_wait is not None]
            queue = [r.queue_wait for r in results if r.queue_wait is not None]
            e2e = [r.e2e_latency for r in results if r.e2e_latency is not None]
            if mailbox:
                latency["mailbox_wait"] = LogHistogram.aggregate(mailbox)
            if queue:
                latency["queue_sojourn"] = LogHistogram.aggregate(queue)
            if e2e:
                latency["e2e"] = LogHistogram.aggregate(e2e)
            return latency
        if not self.latency_histograms:
            return latency
        mailbox = [w.mailbox_wait for w in self.workers if w.mailbox_wait is not None]
        queue = [w.queue_wait for w in self.workers if w.queue_wait is not None]
        if self._retired_shards:
            for retirees in self._retired_shards.values():
                for retired in retirees:
                    if retired.mailbox_wait is not None:
                        mailbox.append(retired.mailbox_wait)
                    if retired.queue_wait is not None:
                        queue.append(retired.queue_wait)
        latency["mailbox_wait"] = LogHistogram.aggregate(mailbox)
        latency["queue_sojourn"] = LogHistogram.aggregate(queue)
        assert self._e2e is not None
        latency["e2e"] = self._e2e.snapshot()
        return latency

    def telemetry(self) -> RuntimeTelemetry:
        """Aggregate per-shard accounting into runtime-level telemetry.

        Works identically on every backend: the simulated path reads the
        live workers, a parallel run reads the picklable per-shard
        snapshots merged on join — same rows, same roll-up.
        """
        shards = self._shard_telemetry()
        cycles = [shard.cycles for shard in shards]
        results = self.backend.results if self.backend.parallel else None
        if results is not None:
            pacing_flows = sum(result.pacing_live_flows for result in results)
            pacing_bytes = sum(result.pacing_memory_bytes for result in results)
        else:
            pacing_flows = sum(len(worker.pacing) for worker in self.workers)
            pacing_bytes = sum(worker.pacing.memory_bytes() for worker in self.workers)
        flow_stats = self.flows.stats
        flow_state = {
            "live_flows": len(self.flows),
            "slot_limit": self.flows.slot_limit,
            "pacing_flows": pacing_flows,
            "memory_bytes": (
                self.flows.memory_bytes()
                + sys.getsizeof(self._in_flight)
                + self.sharder.memory_bytes()
                + pacing_bytes
            ),
            "gc_sweeps": flow_stats.gc_sweeps,
            "gc_examined": flow_stats.gc_examined,
            "gc_reclaimed": flow_stats.gc_reclaimed,
            "window_evictions": self.sharder.stats.window_evictions,
        }
        ingress = [
            IngressTelemetry(
                core_id=core.core_id,
                stats=core.stats.snapshot(),
                cycles=core.cost.total_cycles,
                ring_backlog=core.backlog,
                ring_peak=core.ring.peak,
                sojourn=core.sojourn_hist.snapshot(),
            )
            for core in self.ingress_cores
        ]
        fault_block = self.fault_stats.as_dict()
        fault_block["recovery_log"] = list(self.recovery_log)
        return RuntimeTelemetry(
            shards=shards,
            queue_stats=QueueStats.aggregate(shard.queue_stats for shard in shards),
            total_cycles=sum(cycles) + sum(core.cycles for core in ingress),
            max_shard_cycles=max(cycles),
            transmitted=self.transmitted,
            ingress_drops=self.ingress_drops,
            migrations_applied=self.migrations_applied,
            rebalance_rounds=self.rebalancer.rounds if self.rebalancer else 0,
            # Summed over the telemetry rows, not the live workers, so the
            # counters of crashed incarnations stay included.
            steals_attempted=sum(shard.steals.requests_posted for shard in shards),
            steals_succeeded=sum(shard.steals.leases_received for shard in shards),
            packets_stolen=sum(shard.steals.packets_stolen for shard in shards),
            steal_cycles=sum(shard.steals.cycles_stolen for shard in shards),
            ingress=ingress,
            max_ingress_cycles=max((core.cycles for core in ingress), default=0.0),
            admission_drops=sum(core.stats.rx_dropped for core in ingress),
            flow_state=flow_state,
            faults=fault_block,
            latency=self._latency_telemetry(),
        )


__all__ = ["RuntimeTelemetry", "ShardTelemetry", "ShardedRuntime"]
