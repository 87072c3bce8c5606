"""The sharded multi-core scheduling runtime driver.

:class:`ShardedRuntime` multiplexes N :class:`~repro.runtime.worker.ShardWorker`
loops onto one :class:`~repro.netsim.simulator.Simulator` clock, the way a
multi-core scheduler runs one worker loop per CPU against shared wall time:

* **ingress** (:meth:`submit` / :meth:`submit_batch`) routes each packet to a
  shard via the :class:`~repro.runtime.sharder.FlowSharder` and hands each
  shard's group to its batched SPSC mailbox (:meth:`ShardedRuntime._handoff`,
  the one handoff of every path); with ``ingress_cores=N`` the submission
  instead goes to an :class:`~repro.runtime.ingress.IngressPlane` in
  :mod:`repro.runtime.ingress`, which lands it in the RX ring of one of N
  asynchronous :class:`~repro.runtime.ingress.IngressCore`\\ s (flows spread
  over cores by an RSS-style hash with its own seed); they classify and hand
  off in batches on their own tick cadence, charge their own cycle accounts,
  pause on mailbox watermarks (backpressure) and optionally run admission
  control;
* each shard **ticks** once per scheduling quantum — one batched mailbox
  drain + stamp + ``enqueue_batch``, then one batched ``extract_due`` — and
  re-programs its own wake-up timer (a cancellable simulator event) for the
  next quantum, or jumps ahead to its soonest deadline when the queue is
  paced far into the future;
* a periodic **rebalancing** sweep (optional) asks the skew-aware
  :class:`~repro.runtime.sharder.ShardRebalancer` for hot-flow migrations;
* **faults** (optional): with a :class:`~repro.runtime.faults.FaultPlan` or
  a lease deadline, a :class:`~repro.runtime.faults.Supervisor` fires the
  planned faults at the seams and runs the recovery sweep; the crash
  transplant it calls stays here (:meth:`ShardedRuntime._restart_shard`);
* **work stealing** (optional): with ``steal_enabled`` and more than one
  shard, a :class:`~repro.runtime.stealing.Stealer` lets an idle shard take
  over a busy sibling's imminent due window under a
  :class:`~repro.runtime.stealing.FlowLease`; the per-packet lease
  countdown stays in :meth:`ShardedRuntime._deliver`.  Rebalancing splits
  the *flow population* across cores; stealing splits a single elephant
  flow *in time*, which is the one imbalance migration cannot repair.

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

Work stealing keeps the same invariant with ownership leases (see
:mod:`repro.runtime.stealing`); while one is out, the sharder's ownership
view keeps routing and the rebalancer pointed at the victim.
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
from .faults import RESIDUAL_KEYS, FaultPlan, FaultStats, ShardRecord, Supervisor
from .flowstate import FlowTable
from .ingress import IngressCore, IngressPlane, IngressTelemetry, make_admission_factory
from .mailbox import MailboxStats
from .observability import FlightRecorder, GaugeValue, LogHistogram, MetricsTimeline
from .sharder import FlowSharder, ShardRebalancer
from .stealing import FlowLease, Stealer, StealStats
from .worker import QueueFactory, ShardWorker
from ..core.model.packet import Packet
from ..core.queues import QueueStats
from ..netsim.simulator import EventHandle, Simulator


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
            next due window under an order-preserving flow lease.  With
            more than one shard it builds the
            :class:`~repro.runtime.stealing.Stealer` plane, which owns the
            three knobs below; otherwise no stealing code runs.
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
            budget of each ingress core (each core pulls every quarter
            ``quantum_ns``: see :class:`~repro.runtime.ingress.IngressPlane`).
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
            pins, expired shard pacing entries) every this
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
        fault_plan: optional :class:`~repro.runtime.faults.FaultPlan` of
            deterministic faults (shard crash/stall, mailbox handoff drops,
            ingress ring wedge).  With it or ``lease_deadline_ns`` set the
            runtime builds a :class:`~repro.runtime.faults.Supervisor` that
            fires the faults at the seams and recovers from them; with
            neither (the default) it holds ``None``, every seam guards on one
            ``is not None`` check, and the modelled cycle accounts are
            byte-identical.  Simulated backend only.
        lease_deadline_ns: deadline on outstanding
            :class:`~repro.runtime.stealing.FlowLease`\\ s — a thief that has
            not released a stolen window within it is presumed hung and
            crash-restarted by the supervisor, which reclaims the lease (the
            thief's private queue, stolen packets included, is the loss).
            ``None`` (the default) trusts thieves forever.
        supervise_interval_ns: period of the supervisor's sweep (defaults to
            two quanta — the detection latency of a crash).  The sweep only
            runs while something needs watching.  Simulated backend only.
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
        if ingest_per_quantum is not None and ingest_per_quantum <= 0:
            raise ValueError("ingest_per_quantum must be positive")
        if shard_backlog_limit is not None and shard_backlog_limit <= 0:
            raise ValueError("shard_backlog_limit must be positive")
        if lease_deadline_ns is not None and lease_deadline_ns <= 0:
            raise ValueError("lease_deadline_ns must be positive")
        if supervise_interval_ns is not None and supervise_interval_ns <= 0:
            raise ValueError("supervise_interval_ns must be positive")
        if fault_plan is not None:
            fault_plan.check_targets(num_shards, ingress_cores)
        self.backend = resolve_backend(backend, simulator)
        if self.backend.parallel:
            # The latency histograms do decompose (per-shard, merged like
            # counter snapshots) — but the tracer and timeline observe the
            # runtime-global seams, which only the shared clock has.
            armed = {
                "steal_enabled": steal_enabled,
                "rebalancing": rebalance_interval_ns is not None,
                "ingress_cores": ingress_cores > 0,
                "on_transmit": on_transmit is not None,
                "fault_plan": fault_plan is not None,
                "lease_deadline_ns": lease_deadline_ns is not None,
                "supervise_interval_ns": supervise_interval_ns is not None,
                "tracer": tracer is not None,
                "metrics_timeline": metrics_timeline is not None,
            }
            conflicts = [name for name, on in armed.items() if on]
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
        # -- the observability plane ----------------------------------------
        # Disarmed, the tracer and timeline are None (one `is not None`
        # guard per seam) and the latency stamps are never written, so a
        # clean run stays byte-identical; armed, nothing here charges
        # modelled cycles.
        self.latency_histograms = latency_histograms
        self.tracer = tracer
        self.timeline = metrics_timeline
        self._e2e: Optional[LogHistogram] = (
            LogHistogram() if latency_histograms else None
        )
        self._timeline_handle: Optional[EventHandle] = None
        # -- the fault plane ------------------------------------------------
        # The driver keeps the ledger, so an unarmed runtime reports zeros;
        # the Supervisor that fires faults and recovers from them exists
        # only with a plan or a lease deadline, behind the same one-guard
        # discipline as the observability plane.
        self.fault_stats = FaultStats()
        #: One entry per recovery event (crash restart, stall clear, wedge
        #: clear, deadline escalation) with failure/recovery timestamps.
        self.recovery_log: List[dict] = []
        self._supervisor: Optional[Supervisor] = None
        if fault_plan is not None or lease_deadline_ns is not None:
            interval = 2 * quantum_ns if supervise_interval_ns is None else supervise_interval_ns
            self._supervisor = Supervisor(self, fault_plan, lease_deadline_ns, interval)
        # -- the stealing plane ---------------------------------------------
        # Built only when stealing can fire, after the supervisor it keeps.
        horizon = quantum_ns if steal_horizon_ns is None else steal_horizon_ns
        self._stealer: Optional[Stealer] = (
            Stealer(self, steal_batch, horizon, steal_min_backlog)
            if steal_enabled and num_shards > 1
            else None
        )
        # -- the RX plane ----------------------------------------------------
        admission_factory = make_admission_factory(admission)
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
        self._ingress: Optional[IngressPlane] = (
            IngressPlane(self, ingress_hash_seed) if ingress_cores else None
        )
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
           flow holds a slot.  A kept answer lives until the driver changes
           that flow's placement itself (a rebalancer pin, a crash
           restart's forget: :meth:`_change_placement` drops that one
           answer) or until :attr:`FlowSharder.epoch` moves by a change the
           driver did not make (a direct ``sharder.pin``, ``unpin`` or
           ``forget``), which drops every kept answer at the next burst.  A
           flow with no slot yet asks.

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
        """Drop every cached placement: the epoch moved by a change not the driver's."""
        placed = self._placed
        placed[:] = array("i", [-1]) * len(placed)
        self._placed_epoch = self.sharder.epoch

    def _change_placement(self, slot: int, change: Callable[..., None], *args) -> None:
        """Make a placement change of the driver's own: ``change(*args)``.

        The change names one flow, whose driver slot is ``slot`` (``-1``:
        none); only that flow's kept answer is dropped.  The kept answers
        stay in step with the sharder's epoch only if they were before the
        change, so a foreign epoch move still drops them all at the next
        burst (:meth:`_route_burst` step 3).
        """
        in_step = self._placed_epoch == self.sharder.epoch
        change(*args)
        if slot >= 0:
            self._placed[slot] = -1
        if in_step:
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

    def submit(self, packet: Packet) -> bool:
        """Offer one packet to the runtime; False when it was dropped."""
        return self.submit_batch([packet]) == 1

    def submit_batch(self, packets: List[Packet]) -> int:
        """Offer a burst; routing stays per-flow, pushes are batched per shard.

        With ingress cores the burst lands in its flows' RX rings (drops are
        then the admission policy's verdict); otherwise each shard's group
        goes straight to its mailbox.  Returns the number of packets
        accepted.

        On a parallel backend this buffers the burst for time 0 of the run
        (see :meth:`submit_at`) and optimistically reports acceptance —
        drops are settled inside the shard processes and surface in
        :attr:`ingress_drops` after :meth:`run`.
        """
        if self.backend.parallel:
            self.backend.submit_at(0, packets)
            return len(packets)
        if self.timeline is not None:
            self._arm_timeline()
        if self.latency_histograms:
            # The e2e clock starts at submission — RX-ring wait included.
            now = self.simulator.now_ns
            for packet in packets:
                packet.metadata["e2e_ns"] = now
        if self._ingress is not None:
            return self._ingress.offer(packets)
        by_shard, slots_by_shard = self._route_burst(packets)
        accepted = 0
        for shard, group in by_shard.items():
            accepted += self._handoff(shard, group, slots_by_shard[shard])
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

    def _handoff(self, shard: int, packets: List[Packet], slots: List[int]) -> int:
        """Land one routed group in ``shard``'s mailbox; returns packets taken.

        The one handoff of every submit path: :meth:`submit_batch` calls it
        per shard group, and so does the RX pull (its ``deliver``).  An
        armed ``handoff_drop`` eats the head of the group first; tail drop
        keeps the accepted prefix, so the commit takes the prefix of each
        flow's packets within the group.
        """
        if self._supervisor is not None:
            packets, slots = self._supervisor.trim_handoff(shard, packets, slots)
            if not packets:
                return 0
        mailbox = self.workers[shard].mailbox
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
            self._work_arrived(shard)
        return taken

    # -- shard scheduling --------------------------------------------------

    def _work_arrived(self, shard: int) -> None:
        """Work reached ``shard``'s mailbox: tick it and kick idle thieves."""
        self._wake_shard(shard)
        if self._stealer is not None:
            self._stealer.wake_idle_thieves(shard)

    def _wake_shard(self, shard: int) -> None:
        """Guarantee the shard ticks within one quantum of new work."""
        if self._supervisor is not None and self._supervisor.frozen(shard):
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
        if self._supervisor is not None and self._supervisor.tick_blocked(shard, now):
            return  # a fault fired, or the stale timer of a crashed core
        stealer = self._stealer
        if stealer is not None:
            stealer.splice(shard, now)
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
        if stealer is not None:
            stealer.after_drain(shard, now)
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
        stealer = self._stealer
        open_leases = stealer.open_leases if stealer is not None else None
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
        if finished:
            stealer.finish(finished, now)
        if self.gc_interval_packets is not None:
            self._since_gc += len(released)
            if self._since_gc >= self.gc_interval_packets:
                self._since_gc = 0
                self._gc_flow_state(now)

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
            # packets deliberately don't count: the lease's return wakes).
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
        # Each reclaimed flow leaves the driver's table before it is
        # forgotten, so no kept placement names it, and nothing but these
        # forgets moves the epoch inside the sweep: kept answers that were
        # in step with the epoch before the sweep still are after it.
        in_step = self._placed_epoch == self.sharder.epoch
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
        if in_step:
            self._placed_epoch = self.sharder.epoch

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
        lookup = self.flows.lookup
        pin = self.sharder.pin
        for migration in self.rebalancer.plan():
            # Re-pin now; routing applies it once the flow drains (FIFO).
            flow_id = migration.flow_id
            self._change_placement(lookup(flow_id), pin, flow_id, migration.dst_shard)
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

    # -- recovery: what the supervisor asks of the driver ------------------

    def _kick_shard(self, shard: int) -> bool:
        """Wake ``shard`` if it has work but no tick armed; True when woken.

        A healthy shard with work always has a tick armed.  A granted lease
        still in the inbox counts as work: only a thief stalled since the
        grant can hold one with no tick armed (the grant wakes the thief).
        """
        handle = self._tick_handles[shard]
        if handle is not None and handle.active:
            return False
        worker = self.workers[shard]
        inbox = self._stealer.inbox[shard] if self._stealer is not None else None
        if worker.backlog > 0 or len(worker.mailbox) > 0 or inbox:
            self._wake_shard(shard)
            return True
        return False

    def _restart_shard(self, shard: int, now: int) -> Tuple[int, int]:
        """Crash-restart one shard: salvage what survives, account the loss.

        The supervisor keeps the dead incarnation's counters, calls this,
        and books the returned ``(packets lost, packets salvaged)``.
        Ordering matters:

        1. reclaim every lease the dead shard held as thief — each victim
           re-adopts its travelled shapers and flushes its deferred flows;
           stolen packets still queued on the thief die in step 2, and a
           lease that never left the handoff inbox loses its whole burst;
        2. dump the core-private state: queued and lease-deferred packets
           are the crash loss, written off against the flow table;
        3. build the replacement and transplant what survives — the mailbox
           *object* (a producer-owned ring whose buffered arrivals replay
           into the fresh worker, keeping the ingress ``on_low`` wiring and
           stats continuity), open-loan markers for flows this shard had
           lent out, banked lease returns that arrived while it lay dead,
           and pacing state of flows that still have packets in flight here
           (:meth:`PacingTable.detach` → ``install``);
        4. flows homed here with nothing in flight re-home lazily: the home
           clears, the next packet routes by policy, and the re-armed
           rebalancer re-pins from fresh load figures.
        """
        old = self.workers[shard]
        stats = self.fault_stats
        in_flight = self._in_flight

        def write_off(packets) -> None:
            for packet in packets:
                count = in_flight.pop(packet.flow_id, 0)
                if count > 1:
                    in_flight[packet.flow_id] = count - 1
            stats.packets_lost += len(packets)

        stealer = self._stealer
        for lease, never_accepted in stealer.reclaim(shard) if stealer is not None else ():
            stats.leases_reclaimed += 1
            if never_accepted:
                # Granted but never spliced in: the burst died in the handoff.
                write_off([packet for _send_at, packet in lease.packets])
            # A victim that crashed in the same sweep and is not yet
            # rebuilt has the return banked for its own restart.
            stealer.return_lease(lease, now)
        lost, loaned = old.crash_dump()
        write_off(lost)
        mailbox = old.mailbox
        stats.packets_salvaged += len(mailbox)
        fresh = ShardWorker(shard, **self._worker_config)
        # Same object, not a copy: the RX plane's mailbox list and its
        # on_low wiring keep pointing at it, and its stats run on.
        fresh.mailbox = mailbox
        for lease in self._supervisor.take_returns(shard):
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
                self._change_placement(slot, self.sharder.forget, flow_id)
        self.workers[shard] = fresh
        self._arm_rebalance()
        if len(mailbox):
            self._wake_shard(shard)
        return len(lost), len(mailbox)

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
            or self._leases_out
            or (self._supervisor is not None and self._supervisor.unresolved)
        ):
            self._arm_timeline()

    def _timeline_gauges(self) -> Dict[str, GaugeValue]:
        """One gauge sample: the runtime's load picture at this instant."""
        workers = self.workers
        faults = self._fault_residual()
        gauges: Dict[str, GaugeValue] = {
            "shard_backlog": {str(w.shard_id): w.backlog for w in workers},
            "mailbox_occupancy": {str(w.shard_id): len(w.mailbox) for w in workers},
            "shard_cycles": {str(w.shard_id): w.cost.total_cycles for w in workers},
            "pending_packets": self.pending,
            "live_flows": len(self.flows),
            "pacing_flows": sum(len(w.pacing) for w in workers),
            "open_leases": self._leases_out,
            "flows_on_loan": sum(w.flows_on_loan for w in workers),
            "dead_shards": faults["dead_shards"],
            "stalled_shards": faults["stalled_shards"],
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
        for handle in (*self._tick_handles, self._rebalance_handle, self._timeline_handle):
            if handle is not None and handle.active:
                self.simulator.cancel(handle)
        self._tick_handles[:] = [None] * len(self._tick_handles)
        self._rebalance_handle = self._timeline_handle = None
        if self._ingress is not None:
            self._ingress.stop()
        if self._supervisor is not None:
            self._supervisor.cancel()

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
            "open_leases": self._leases_out,
            "leases_held": sum(worker.leases_held for worker in self.workers),
            "flows_on_loan": sum(worker.flows_on_loan for worker in self.workers),
            "stalled_ingress_cores": sum(
                1
                for core in self.ingress_cores
                if core.stalled and not core.ring.empty
            ),
            **self._fault_residual(),
        }

    @property
    def _leases_out(self) -> int:
        """Leases granted and not yet returned (none with stealing unarmed)."""
        return len(self._stealer.open_leases) if self._stealer is not None else 0

    def _fault_residual(self) -> Dict[str, int]:
        """The fault plane's residual gauges (all zero on an unarmed runtime)."""
        if self._supervisor is None:
            return dict.fromkeys(RESIDUAL_KEYS, 0)
        return self._supervisor.residual()

    @property
    def transmitted(self) -> int:
        """Packets released by all shards."""
        return sum(record.stats.transmitted for record in self._shard_records())

    def _shard_records(self) -> List[ShardRecord]:
        """Every shard's counters: the joined shard results of a parallel
        run, else the live workers with their crashed incarnations folded in."""
        results = self.backend.results if self.backend.parallel else None
        if results is not None:
            return [
                ShardRecord(
                    r.shard_id, r.stats, r.queue_stats, r.mailbox, StealStats(), r.cycles,
                    r.mailbox_wait, r.queue_wait,
                )
                for r in results
            ]
        fold = ShardRecord.of if self._supervisor is None else self._supervisor.fold
        return [fold(worker) for worker in self.workers]

    def _shard_telemetry(self) -> List[ShardTelemetry]:
        """Per-shard telemetry rows, one per :meth:`_shard_records` entry."""
        return [
            ShardTelemetry(
                shard_id=record.shard_id,
                ingested=record.stats.ingested,
                transmitted=record.stats.transmitted,
                ticks=record.stats.ticks,
                idle_ticks=record.stats.idle_ticks,
                backlog_peak=record.stats.backlog_peak,
                cycles=record.cycles,
                queue_stats=record.queue_stats,
                mailbox=record.mailbox,
                steals=record.steals,
            )
            for record in self._shard_records()
        ]

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
        if not self.latency_histograms:
            return latency
        records = self._shard_records()
        latency["mailbox_wait"] = LogHistogram.aggregate(r.mailbox_wait for r in records)
        latency["queue_sojourn"] = LogHistogram.aggregate(r.queue_wait for r in records)
        results = self.backend.results if self.backend.parallel else None
        if results is not None:
            latency["e2e"] = LogHistogram.aggregate(r.e2e_latency for r in results)
        else:
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
        ingress = self._ingress.telemetry() if self._ingress is not None else []
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
