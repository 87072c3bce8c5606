"""Deterministic fault injection for the sharded runtime, and its supervisor.

Every layer the runtime has grown — cross-shard ownership leases, an
ingress pipeline with backpressure — assumed until now that nothing ever
fails.  This module makes failure a
first-class, *replayable* part of the experiment matrix instead of an
untested code path: a :class:`FaultPlan` is a seeded, spec-driven schedule
of faults armed at the runtime's existing seams, and one
:class:`Supervisor` per armed runtime fires them there and recovers from
them:

* ``shard_crash`` / ``shard_stall`` — fired as a shard is about to run its
  N-th tick.  A crash loses the core's private state (timestamp queue and
  lease-deferral buffers); the mailbox survives (it models a shared-memory
  ring owned by the producer side) and pacing state is salvaged through
  :meth:`PacingTable.detach() <repro.runtime.flowstate.PacingTable.detach>`
  / ``install()``.  A stall simply freezes the tick chain until the
  supervisor re-kicks it.
* ``handoff_drop`` — the mailbox handoff seam drops the next ``count``
  packets bound for the target shard before they are committed anywhere,
  the torn-cross-core-write analogue.
* ``ingress_wedge`` — an ingress core stops pulling its RX ring (a wedged
  NAPI poller); arrivals keep landing in the ring until the supervisor
  un-wedges the core.

Every kind fires on the shared simulated clock.  The process backend has no
fault kinds: it is a differential oracle, and a child that dies or pops a
torn frame makes the run raise.

Injection hooks are **zero-cost when disarmed**: a runtime with neither a
plan nor a lease deadline holds ``None`` instead of a supervisor and every
seam guards on one ``is not None`` check, so the modelled cycle accounts of
a clean run are byte-identical with the module imported or not.

Determinism: :meth:`FaultPlan.from_seed` draws every event from one
``random.Random(seed)`` stream, and firing is keyed to *logical* progress
(per-shard tick ordinals, per-lane pull ordinals, per-seam packet counts),
never to wall time — the same seed against the same workload injects the
same faults at the same points, which is what lets the scenario fuzz suite
compose random faults with random configurations under the existing
conservation / per-flow-FIFO / no-stranded-state net.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from .mailbox import MailboxStats
from .observability import FlightRecorder, LogHistogram
from .stealing import FlowLease, StealStats
from .worker import ShardWorker, ShardWorkerStats
from ..core.model.packet import Packet
from ..core.queues import QueueStats
from ..core.queues.base import CounterStatsMixin

if TYPE_CHECKING:
    from ..netsim.simulator import EventHandle
    from .runtime import ShardedRuntime

#: Every fault kind a plan may carry: the simulated runtime's own seams.
FAULT_KINDS = ("shard_crash", "shard_stall", "handoff_drop", "ingress_wedge")

#: The ``residual_state()`` gauges the fault plane owns; all read zero once
#: every failure is recovered (and always on an unarmed runtime).
RESIDUAL_KEYS = (
    "dead_shards", "stalled_shards", "wedged_ingress_cores", "orphaned_lease_returns"
)


@dataclass(frozen=True)
class FaultEvent:
    """One armed fault.

    ``target`` is a shard id (or an ingress lane for ``ingress_wedge``).
    ``at`` is the 1-based ordinal of the logical step the fault fires on:
    the target shard's tick for ``shard_crash``/``shard_stall``, the lane's
    RX pull for ``ingress_wedge``.  ``handoff_drop`` instead uses ``count``
    — how many packets the handoff seam swallows — and fires from the first
    packet offered.
    """

    kind: str
    target: int = 0
    at: int = 1
    count: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}")
        if self.target < 0:
            raise ValueError("target must be non-negative")
        if self.at <= 0:
            raise ValueError("at must be positive (1-based ordinal)")
        if self.count <= 0:
            raise ValueError("count must be positive")

    def as_dict(self) -> dict:
        """JSON-friendly snapshot."""
        return {"kind": self.kind, "target": self.target, "at": self.at, "count": self.count}


@dataclass(slots=True)
class FaultStats(CounterStatsMixin):
    """Injection and recovery counters kept by the runtime.

    The ``*_injected`` counters record faults that actually fired (a plan
    entry beyond the run's horizon never does); ``packets_lost`` are the
    packets that died with a crashed core's private state, while
    ``packets_salvaged`` survived in its mailbox and were re-ingested by the
    restarted incarnation.  ``recovery_ns_total`` over ``recoveries`` is the
    mean detection-plus-repair latency of the supervision loop.
    """

    crashes_injected: int = 0
    stalls_injected: int = 0
    wedges_injected: int = 0
    handoff_drops: int = 0
    deadline_escalations: int = 0
    shards_recovered: int = 0
    stalls_cleared: int = 0
    wedges_cleared: int = 0
    watchdog_kicks: int = 0
    leases_reclaimed: int = 0
    packets_lost: int = 0
    packets_salvaged: int = 0
    flows_rehomed: int = 0
    shapers_recovered: int = 0
    recoveries: int = 0
    recovery_ns_total: int = 0


class FaultPlan:
    """A deterministic schedule of faults, indexed for cheap armed-checks.

    The runtime polls the plan from its hot seams (one dict probe when the
    target has nothing armed), consuming events one-shot as their logical
    trigger point passes.  Ordinals are counted by the plan itself — one
    :meth:`next_shard_action` call per shard tick, one :meth:`next_wedge`
    call per lane pull — so firing survives a crash-restart of the target
    (the ordinal keeps counting across worker incarnations).
    """

    def __init__(self, events: Iterable[FaultEvent]) -> None:
        self.events: Tuple[FaultEvent, ...] = tuple(events)
        self._shard_queues: Dict[int, Deque[FaultEvent]] = {}
        self._shard_ticks: Dict[int, int] = {}
        self._wedge_queues: Dict[int, Deque[FaultEvent]] = {}
        self._wedge_pulls: Dict[int, int] = {}
        self._handoff_budget: Dict[int, int] = {}
        # A stable sort: events of one target with equal ordinals keep
        # their plan order.
        for event in sorted(self.events, key=lambda event: event.at):
            if event.kind in ("shard_crash", "shard_stall"):
                self._shard_queues.setdefault(event.target, deque()).append(event)
            elif event.kind == "ingress_wedge":
                self._wedge_queues.setdefault(event.target, deque()).append(event)
            else:  # handoff_drop
                self._handoff_budget[event.target] = (
                    self._handoff_budget.get(event.target, 0) + event.count
                )

    @classmethod
    def from_seed(
        cls,
        seed: int,
        *,
        num_shards: int,
        kinds: Sequence[str] = FAULT_KINDS,
        events: int = 1,
        max_tick: int = 32,
        max_handoff_drops: int = 4,
        ingress_lanes: int = 0,
    ) -> "FaultPlan":
        """Draw ``events`` random faults from one seeded stream.

        Every draw — kind, target, trigger ordinal, drop count — comes from
        a single ``random.Random(seed)``, so a scenario-level seed pins the
        whole fault schedule exactly as it pins the workload.
        """
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        if events <= 0:
            raise ValueError("events must be positive")
        if max_tick <= 0:
            raise ValueError("max_tick must be positive")
        if max_handoff_drops <= 0:
            raise ValueError("max_handoff_drops must be positive")
        if not kinds:
            raise ValueError("kinds must be non-empty")
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {kind!r}; choose from {FAULT_KINDS}")
        if "ingress_wedge" in kinds and ingress_lanes <= 0:
            raise ValueError("ingress_wedge faults need ingress_lanes > 0")
        rng = random.Random(seed)
        drawn: List[FaultEvent] = []
        for _ in range(events):
            kind = kinds[rng.randrange(len(kinds))]
            if kind == "ingress_wedge":
                target = rng.randrange(ingress_lanes)
            else:
                target = rng.randrange(num_shards)
            at = rng.randint(1, max_tick)
            count = rng.randint(1, max_handoff_drops) if kind == "handoff_drop" else 1
            drawn.append(FaultEvent(kind=kind, target=target, at=at, count=count))
        return cls(drawn)

    # -- armed-checks polled from the runtime's seams ----------------------

    def next_shard_action(self, shard: int) -> Optional[str]:
        """Fault kind to inject before this shard's next tick, or ``None``.

        Called once per tick of ``shard`` while the plan is armed; counts
        the shard's tick ordinal and pops the next due event.
        """
        queue = self._shard_queues.get(shard)
        if not queue:
            return None
        tick = self._shard_ticks.get(shard, 0) + 1
        self._shard_ticks[shard] = tick
        if tick >= queue[0].at:
            return queue.popleft().kind
        return None

    def next_wedge(self, lane: int) -> bool:
        """True when this ingress lane's next pull should wedge instead."""
        queue = self._wedge_queues.get(lane)
        if not queue:
            return False
        pull = self._wedge_pulls.get(lane, 0) + 1
        self._wedge_pulls[lane] = pull
        if pull >= queue[0].at:
            queue.popleft()
            return True
        return False

    def take_handoff_drops(self, shard: int, offered: int) -> int:
        """How many of ``offered`` packets the handoff seam should drop."""
        budget = self._handoff_budget.get(shard)
        if not budget:
            return 0
        taken = budget if budget < offered else offered
        self._handoff_budget[shard] = budget - taken
        return taken

    # -- introspection -----------------------------------------------------

    def check_targets(self, num_shards: int, ingress_lanes: int) -> None:
        """Raise ``ValueError`` unless every event names a shard or lane that exists."""
        shards = [event.target for event in self.events if event.kind != "ingress_wedge"]
        if max(shards, default=-1) >= num_shards:
            raise ValueError(
                f"fault plan targets shard {max(shards)} "
                f"but only {num_shards} shards exist"
            )
        for lane in sorted({e.target for e in self.events if e.kind == "ingress_wedge"}):
            if lane >= ingress_lanes:
                raise ValueError(
                    f"fault plan wedges ingress lane {lane} but only "
                    f"{ingress_lanes} ingress cores exist"
                )

    def describe(self) -> List[dict]:
        """JSON-friendly listing of every armed event (telemetry/debugging)."""
        return [event.as_dict() for event in self.events]


@dataclass
class ShardRecord:
    """One shard's counters as its telemetry row reads them.

    A crash-restart replaces the worker object, but the supervisor keeps the
    dead incarnation's record and adds it back on every read
    (:meth:`Supervisor.fold`): work done survives any number of restarts.
    """

    shard_id: int
    stats: ShardWorkerStats
    queue_stats: QueueStats
    mailbox: MailboxStats
    steals: StealStats
    cycles: float
    mailbox_wait: Optional[LogHistogram] = None
    queue_wait: Optional[LogHistogram] = None

    @classmethod
    def of(cls, worker: ShardWorker) -> "ShardRecord":
        """Copies of ``worker``'s counters (its mailbox, which outlives a
        crash, is read live)."""
        mailbox_wait, queue_wait = worker.mailbox_wait, worker.queue_wait
        return cls(
            worker.shard_id, worker.stats.snapshot(), worker.queue_stats_snapshot(),
            worker.mailbox.stats, worker.steal.snapshot(), worker.cost.total_cycles,
            mailbox_wait.snapshot() if mailbox_wait is not None else None,
            queue_wait.snapshot() if queue_wait is not None else None,
        )


class Supervisor:
    """The fault plane of one :class:`~repro.runtime.runtime.ShardedRuntime`.

    The driver builds one only when a plan or a lease deadline is armed.
    It owns the plan, the dead / stalled / wedged maps, the lease returns
    banked for a dead victim, the crashed incarnations' records and the
    supervision timer, and books into the driver's ``fault_stats`` and
    ``recovery_log`` (which an unarmed runtime reports as zeros and empty).

    The driver and its stealing plane ask one question per seam
    (:meth:`frozen`, :meth:`tick_blocked`, :meth:`trim_handoff`, ...).  The
    other way, the supervisor reads only the driver's ``simulator``,
    ``workers``, ``ingress_cores``, ``tracer`` and ``_stealer`` (``None``:
    no lease is ever out), calls only ``_restart_shard`` (the crash
    transplant), ``_kick_shard`` and ``_wake_ingress``, and asks the plane
    only for ``overdue_thieves`` and whether ``open_leases`` is empty.
    """

    def __init__(
        self, runtime: "ShardedRuntime", plan: Optional[FaultPlan],
        lease_deadline_ns: Optional[int], interval_ns: int,
    ) -> None:
        self._runtime = runtime
        #: Empty when only a lease deadline is armed: every poll then misses.
        self.plan = plan if plan is not None else FaultPlan(())
        self.lease_deadline_ns = lease_deadline_ns
        self.interval_ns = interval_ns
        self.stats: FaultStats = runtime.fault_stats
        self.recovery_log: List[dict] = runtime.recovery_log
        self.tracer: Optional[FlightRecorder] = runtime.tracer
        self._dead: Dict[int, int] = {}  # shard -> crashed_at_ns
        self._stalled: Dict[int, int] = {}  # shard -> stalled_at_ns
        self._wedged: Dict[int, int] = {}  # ingress lane -> wedged_at_ns
        self._orphan_returns: Dict[int, List[FlowLease]] = {}
        self._retired: Dict[int, List[ShardRecord]] = {}
        self._handle: Optional["EventHandle"] = None

    # -- the driver's questions, one per seam ---------------------------------

    def frozen(self, shard: int) -> bool:
        """True while ``shard`` is dead or stalled: it cannot be woken or lent work."""
        return shard in self._dead or shard in self._stalled

    def is_dead(self, shard: int) -> bool:
        """True while ``shard`` awaits its restart."""
        return shard in self._dead

    def is_wedged(self, lane: int) -> bool:
        """True while RX ``lane`` is wedged: it ignores wakes until the sweep."""
        return lane in self._wedged

    def tick_blocked(self, shard: int, now: int) -> bool:
        """Poll the plan before ``shard`` ticks; True when the tick must not run.

        A due crash marks the shard dead: its tick chain stops, wakes are
        suppressed, and its state sits untouched until the sweep restarts it
        (detection latency is part of the modelled recovery time).  A due
        stall just freezes the tick chain.  A dead shard's stale timer is
        blocked too.
        """
        action = self.plan.next_shard_action(shard)
        if action is None:
            return shard in self._dead
        if action == "shard_crash":
            self._dead[shard] = now
            self.stats.crashes_injected += 1
        else:
            self._stalled[shard] = now
            self.stats.stalls_injected += 1
        self._injected(now, f"shard-{shard}", {"kind": action})
        return True

    def rx_blocked(self, lane: int, now: int) -> bool:
        """Poll the plan before RX ``lane`` pulls; True when the pull must not run.

        A wedged poller neither pulls nor reschedules: arrivals keep landing
        in the ring until the sweep un-wedges the lane.
        """
        if not self.plan.next_wedge(lane):
            return lane in self._wedged
        self._wedged[lane] = now
        self.stats.wedges_injected += 1
        self._injected(now, f"rx-{lane}", {"kind": "ingress_wedge"})
        return True

    def trim_handoff(
        self, shard: int, packets: List[Packet], slots: List[int]
    ) -> Tuple[List[Packet], List[int]]:
        """Cut what an armed ``handoff_drop`` eats off the head of a routed group.

        The seam loses the packets before anything commits — no route, no
        pending count — so only the fault ledger (and the tracer) sees
        them.  Returns the surviving packets and their flow-table slots.
        """
        dropped = self.plan.take_handoff_drops(shard, len(packets))
        if not dropped:
            return packets, slots
        self.stats.handoff_drops += dropped
        if self.tracer is not None:
            now = self._runtime.simulator.now_ns
            payload = {"kind": "handoff_drop", "count": dropped}
            self.tracer.emit(now, f"shard-{shard}", "fault_inject", payload)
        return packets[dropped:], slots[dropped:]

    def bank_return(self, lease: FlowLease) -> bool:
        """Keep a lease coming back to a dead victim; True when it was banked.

        The victim's restart takes it back (:meth:`take_returns`); the dead
        core's deferred work for these flows is already part of its loss.
        """
        if lease.victim_shard not in self._dead:
            return False
        self._orphan_returns.setdefault(lease.victim_shard, []).append(lease)
        return True

    def take_returns(self, shard: int) -> List[FlowLease]:
        """The lease returns banked while ``shard`` lay dead."""
        return self._orphan_returns.pop(shard, [])

    def lease_granted(self) -> None:
        """A lease went out: watch its deadline, when one is set."""
        if self.lease_deadline_ns is not None:
            self._arm()

    @property
    def unresolved(self) -> bool:
        """True while any injected failure awaits the sweep."""
        return bool(self._dead or self._stalled or self._wedged)

    def residual(self) -> Dict[str, int]:
        """The fault plane's :data:`RESIDUAL_KEYS` gauges."""
        orphans = sum(len(leases) for leases in self._orphan_returns.values())
        return dict(
            zip(RESIDUAL_KEYS, (len(self._dead), len(self._stalled), len(self._wedged), orphans))
        )

    def fold(self, worker: ShardWorker) -> ShardRecord:
        """``worker``'s record with every crashed incarnation of its shard added in.

        Live counters first, then the retirees in crash order, so the float
        cycle sums add up in the same order on every read.
        """
        record = ShardRecord.of(worker)
        retirees = self._retired.get(worker.shard_id)
        if retirees:
            for retired in retirees:
                record.stats.merge(retired.stats)
                record.queue_stats.merge(retired.queue_stats)
                record.steals.merge(retired.steals)
                record.cycles += retired.cycles
                if record.mailbox_wait is not None:
                    record.mailbox_wait.merge(retired.mailbox_wait)
                if record.queue_wait is not None:
                    record.queue_wait.merge(retired.queue_wait)
            # merge() sums every field; a peak must take the max.
            peaks = [retired.stats.backlog_peak for retired in retirees]
            record.stats.backlog_peak = max(worker.stats.backlog_peak, *peaks)
        return record

    # -- the supervision sweep ---------------------------------------------

    def cancel(self) -> None:
        """Drop the pending sweep, if any."""
        if self._handle is not None and self._handle.active:
            self._runtime.simulator.cancel(self._handle)
        self._handle = None

    def _injected(self, now: int, track: str, payload: dict) -> None:
        if self.tracer is not None:
            self.tracer.emit(now, track, "fault_inject", payload)
        self._arm()

    def _arm(self) -> None:
        """Guarantee a sweep within one supervise interval.

        Armed only at injection sites and lease grants (under a deadline) —
        a clean runtime never schedules one.
        """
        handle = self._handle
        if handle is not None and handle.active:
            return
        self._handle = self._runtime.simulator.schedule(self.interval_ns, self._sweep)

    def _sweep(self) -> None:
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
        self._handle = None
        runtime = self._runtime
        now = runtime.simulator.now_ns
        stats = self.stats
        for shard in sorted(self._dead):
            self._restart(shard, self._dead.pop(shard), now)
        stealer = runtime._stealer
        watch_leases = self.lease_deadline_ns is not None and stealer is not None
        if watch_leases:
            for thief in stealer.overdue_thieves(now - self.lease_deadline_ns):
                # Escalate-to-restart: a thief sitting on a lease past its
                # deadline is presumed hung.  Crash it — the standard
                # recovery reclaims every lease it holds and its victims
                # resume their deferred flows.
                stats.deadline_escalations += 1
                self._restart(thief, now, now)
        for shard in range(len(runtime.workers)):
            stalled_at = self._stalled.pop(shard, None) if self._stalled else None
            if stalled_at is not None:
                stats.stalls_cleared += 1
                self._recovered(now, {"kind": "shard_stall", "shard": shard}, stalled_at)
                runtime._kick_shard(shard)
            elif runtime._kick_shard(shard):
                # Liveness belt for failure modes no flag marked.
                stats.watchdog_kicks += 1
        for lane in sorted(self._wedged):
            wedged_at = self._wedged.pop(lane)
            stats.wedges_cleared += 1
            self._recovered(now, {"kind": "ingress_wedge", "lane": lane}, wedged_at)
            if not runtime.ingress_cores[lane].ring.empty:
                runtime._wake_ingress(lane)
        if self.unresolved or (watch_leases and stealer.open_leases):
            self._arm()

    def _restart(self, shard: int, crashed_at: int, now: int) -> None:
        # Keep the dead incarnation's counters before the transplant dumps
        # its state (the dump drains the queue through the worker's stats).
        dead = self._runtime.workers[shard]
        self._retired.setdefault(shard, []).append(ShardRecord.of(dead))
        lost, salvaged = self._runtime._restart_shard(shard, now)
        self.stats.shards_recovered += 1
        where = {"kind": "shard_crash", "shard": shard}
        self._recovered(now, where, crashed_at, packets_lost=lost, packets_salvaged=salvaged)

    def _recovered(self, now: int, where: dict, failed_at: int, **losses: int) -> None:
        """Book one recovery: the counters, the log entry and the trace event."""
        self.stats.recoveries += 1
        self.stats.recovery_ns_total += now - failed_at
        self.recovery_log.append(
            {**where, "failed_at_ns": failed_at, "recovered_at_ns": now, **losses}
        )
        if self.tracer is not None:
            payload = {**where, "failed_at_ns": failed_at, **losses}
            self.tracer.emit(now, "supervisor", "fault_recover", payload)


__all__ = [
    "FAULT_KINDS",
    "RESIDUAL_KEYS",
    "FaultEvent",
    "FaultPlan",
    "FaultStats",
    "ShardRecord",
    "Supervisor",
]
