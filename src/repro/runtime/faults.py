"""Deterministic fault injection for the sharded runtime.

Every layer the runtime has grown — cross-shard ownership leases, an
ingress pipeline with backpressure — assumed until now that nothing ever
fails.  This module makes failure a
first-class, *replayable* part of the experiment matrix instead of an
untested code path: a :class:`FaultPlan` is a seeded, spec-driven schedule
of faults armed at the runtime's existing seams, and the recovery machinery
it exercises lives next to each seam:

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

Injection hooks are **zero-cost when disarmed**: the runtime holds ``None``
instead of a plan and every seam guards on one ``is not None`` check, so the
modelled cycle accounts of a clean run are byte-identical with the module
imported or not.

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
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.queues.base import CounterStatsMixin

#: Faults injected into the simulated runtime's own seams.
RUNTIME_FAULT_KINDS = ("shard_crash", "shard_stall", "handoff_drop", "ingress_wedge")

#: Every fault kind a plan may carry.
FAULT_KINDS = RUNTIME_FAULT_KINDS


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
        by_shard: Dict[int, List[FaultEvent]] = {}
        by_lane: Dict[int, List[FaultEvent]] = {}
        for event in self.events:
            if event.kind in ("shard_crash", "shard_stall"):
                by_shard.setdefault(event.target, []).append(event)
            elif event.kind == "ingress_wedge":
                by_lane.setdefault(event.target, []).append(event)
            else:  # handoff_drop
                self._handoff_budget[event.target] = (
                    self._handoff_budget.get(event.target, 0) + event.count
                )
        for shard, entries in by_shard.items():
            entries.sort(key=lambda event: event.at)
            self._shard_queues[shard] = deque(entries)
        for lane, entries in by_lane.items():
            entries.sort(key=lambda event: event.at)
            self._wedge_queues[lane] = deque(entries)

    @classmethod
    def from_seed(
        cls,
        seed: int,
        *,
        num_shards: int,
        kinds: Sequence[str] = RUNTIME_FAULT_KINDS,
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

    @property
    def max_shard_target(self) -> int:
        """Largest shard id any shard-targeted event names (-1 when none)."""
        targets = [
            event.target for event in self.events if event.kind != "ingress_wedge"
        ]
        return max(targets, default=-1)

    @property
    def wedge_lanes(self) -> Tuple[int, ...]:
        """Ingress lanes targeted by wedge events."""
        return tuple(sorted({e.target for e in self.events if e.kind == "ingress_wedge"}))

    def describe(self) -> List[dict]:
        """JSON-friendly listing of every armed event (telemetry/debugging)."""
        return [event.as_dict() for event in self.events]

    def __len__(self) -> int:
        return len(self.events)


__all__ = [
    "FAULT_KINDS",
    "RUNTIME_FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "FaultStats",
]
