"""Execution backends: who drives the shard tick loops, and on what clock.

Everything the sharded runtime models — per-shard tick loops, batched
mailbox drains, deadline sleeps — was designed as one worker loop per CPU
core, then multiplexed onto a single :class:`~repro.netsim.simulator.Simulator`
because a simulation only has one thread.  This module extracts that choice
into an object.  :class:`~repro.runtime.runtime.ShardedRuntime` drives its
workers through an :class:`ExecutionBackend`:

* :class:`SimulatedBackend` (the default) reproduces the historical
  behaviour bit-for-bit: every shard's tick events interleave on the shared
  simulated clock.  Every modelled number the benchmarks report comes from
  here.
* :class:`ProcessBackend` is the differential oracle for that clock: it
  forks **one OS process per shard**, streams the shard's arrival schedule
  over a :class:`~repro.runtime.shm.ShmRing` (a shared-memory SPSC byte
  ring), lets the child replay it on a *private* virtual clock with
  :class:`ShardClockDriver`, and joins the children's results.  The modelled
  results must equal the simulated run's; any child failure raises.  It
  does not beat the simulated backend on wall clock (the transport and the
  fork cost more than the replay saves on two cores), so it is kept for
  proof, not for speed.

Why per-shard replay is exact
-----------------------------

With work stealing, rebalancing, ingress cores, flow-state GC and transmit
callbacks disabled (the runtime enforces this for parallel backends), a
shard's entire evolution is a deterministic function of its own arrival
schedule: routing is the static RSS hash, every tick reads only shard-local
state, and the tick-timer policy (:meth:`ShardWorker.next_wake_ns
<repro.runtime.worker.ShardWorker.next_wake_ns>`) is pure.  The driver
below re-creates the exact event sequence the shared simulator would have
produced for that shard — including the "arrival beats the tick at equal
timestamps" tie rule that pre-scheduled submissions enjoy on the shared
heap — so per-flow packet sequences, departure times, queue counters and
cycle accounts all match the simulated backend exactly.  The differential
suite (``tests/runtime/test_backend_differential.py``) asserts this.

Cross-shard *wall-clock* interleaving is not deterministic, so the only
backend-defined order is the tie order of same-nanosecond departures across
different shards.
"""

from __future__ import annotations

import abc
import multiprocessing
import os
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from .mailbox import MailboxStats
from .observability import LogHistogram
from .shm import RING_EMPTY, ShmFrameCorrupt, ShmRing
from .worker import ShardWorker, ShardWorkerStats
from ..core.model.packet import Packet
from ..core.queues import QueueStats
from ..netsim.simulator import EventHandle, Simulator

#: One timed submission: every packet of the burst arrives at ``when_ns``.
Burst = Tuple[int, List[Packet]]


def free_threaded() -> bool:
    """True on a CPython build running with the GIL disabled.

    Part of the host fingerprint a wall-clock measurement is reported with
    (``sys._is_gil_enabled()`` exists on 3.13+ free-threading builds and
    returns False when threads truly run in parallel).
    """
    import sys

    probe = getattr(sys, "_is_gil_enabled", None)
    return probe is not None and not probe()


@dataclass
class WorkerSpec:
    """Everything needed to rebuild one shard's scheduling loop elsewhere.

    ``worker_kwargs`` are the :class:`~repro.runtime.worker.ShardWorker`
    constructor arguments; the remaining fields are the runtime's driving
    knobs, mirrored so a child process reproduces the exact per-tick budget
    arithmetic of :meth:`ShardedRuntime._tick`.
    """

    shard_id: int
    worker_kwargs: Dict[str, Any]
    quantum_ns: int
    batch_per_quantum: int
    ingest_per_quantum: Optional[int]
    shard_backlog_limit: Optional[int]
    record_transmits: bool = True


@dataclass
class ShardResult:
    """Picklable end-of-run snapshot one shard driver hands back on join.

    Every field is either a plain value or a counter dataclass whose
    :class:`~repro.core.queues.base.CounterStatsMixin` makes it pickle
    cleanly despite ``__slots__`` — this is the "telemetry crosses the
    process boundary" half of the backend refactor.
    """

    shard_id: int
    stats: ShardWorkerStats
    queue_stats: QueueStats
    mailbox: MailboxStats
    cycles: float
    cost_breakdown: Dict[str, float]
    transmits: List[Tuple[int, Packet]]
    drops: int
    end_ns: int
    events_processed: int
    #: End-of-run gauges of the shard's array-backed pacing table (see
    #: :mod:`repro.runtime.flowstate`): flows still holding pacing state and
    #: the measured bytes of the columns — the per-shard halves of the
    #: runtime's ``flow_state`` telemetry block on parallel backends.
    pacing_live_flows: int = 0
    pacing_memory_bytes: int = 0
    #: Per-seam latency histograms (``None`` unless the runtime armed
    #: ``latency_histograms``) — merged across shards on join exactly like
    #: the counter snapshots above (the histogram is picklable through the
    #: same ``__getstate__`` wire-format discipline).
    mailbox_wait: Optional[LogHistogram] = None
    queue_wait: Optional[LogHistogram] = None
    e2e_latency: Optional[LogHistogram] = None


@dataclass
class _ChildError:
    """A child's formatted traceback, shipped in place of its result."""

    shard_id: int
    message: str


class ShardClockDriver:
    """Replays one shard's arrival schedule on a private virtual clock.

    This is :meth:`ShardedRuntime._wake_shard` / ``_tick`` /
    ``_schedule_next_tick`` for exactly one shard, against a simulator no
    other shard shares.  Arrivals must be fed in nondecreasing ``when_ns``
    order (the backend sorts submissions before partitioning).

    The equal-timestamp tie rule deserves a note: on the shared simulator,
    submissions are scheduled *before* the run starts, so at equal times
    they carry lower sequence numbers than any runtime-armed tick and fire
    first.  The driver preserves that by replaying events strictly *before*
    each arrival instant (``run(until_ns=when - 1)``), applying the arrival
    by direct call, and only then letting a tick armed at that same instant
    fire — arrivals always precede same-time ticks, as on the shared heap.
    """

    __slots__ = (
        "worker",
        "spec",
        "simulator",
        "transmits",
        "drops",
        "_handle",
        "_e2e",
    )

    def __init__(self, spec: WorkerSpec) -> None:
        self.spec = spec
        self.worker = ShardWorker(spec.shard_id, **spec.worker_kwargs)
        self.simulator = Simulator()
        self.transmits: List[Tuple[int, Packet]] = []
        self.drops = 0
        self._handle: Optional[EventHandle] = None
        # The driver plays ShardedRuntime's role for the e2e seam too: one
        # submit→transmit histogram per shard, merged on join.
        self._e2e: Optional[LogHistogram] = (
            LogHistogram() if spec.worker_kwargs.get("latency_histograms") else None
        )

    # -- the arrival side --------------------------------------------------

    def on_arrival(self, when_ns: int, packets: List[Packet]) -> None:
        """Apply one burst at ``when_ns``, replaying the clock up to it."""
        if when_ns > 0:
            self.simulator.run(until_ns=when_ns - 1)
        mailbox = self.worker.mailbox
        before = len(mailbox)
        if self._e2e is not None:
            # Same stamps ShardedRuntime.submit_batch writes on the shared
            # clock: arrival instant for both the e2e and the mailbox seam.
            for packet in packets:
                packet.metadata["e2e_ns"] = when_ns
                packet.metadata["mbox_ns"] = when_ns
        taken = mailbox.push_batch(packets)
        self.drops += len(packets) - taken
        if taken or before:
            self._wake(when_ns)

    def _wake(self, now_ns: int) -> None:
        # Mirrors ShardedRuntime._wake_shard: an armed tick within one
        # quantum is soon enough; a far-off deadline sleep is pulled forward.
        handle = self._handle
        if handle is not None and handle.active:
            if handle.time_ns <= now_ns + self.spec.quantum_ns:
                return
            handle.cancel()
        self._handle = self.simulator.schedule_at(now_ns, self._tick)

    # -- the tick side -----------------------------------------------------

    def _tick(self) -> None:
        self._handle = None
        now = self.simulator.now_ns
        worker = self.worker
        spec = self.spec
        ingest_limit = spec.ingest_per_quantum
        if spec.shard_backlog_limit is not None:
            room = max(0, spec.shard_backlog_limit - worker.backlog)
            ingest_limit = room if ingest_limit is None else min(ingest_limit, room)
        released = worker.tick(
            now, ingest_limit=ingest_limit, drain_limit=spec.batch_per_quantum
        )
        if released:
            record = self.transmits.append if spec.record_transmits else None
            e2e = self._e2e
            for packet in released:
                packet.departure_ns = now
                if e2e is not None:
                    submitted_ns = packet.metadata.pop("e2e_ns", None)
                    if submitted_ns is not None:
                        e2e.record(now - submitted_ns)
                if record is not None:
                    record((now, packet))
        next_ns = worker.next_wake_ns(now, spec.quantum_ns)
        if next_ns is not None:
            self._handle = self.simulator.schedule_at(next_ns, self._tick)

    # -- completion --------------------------------------------------------

    def finish(self) -> ShardResult:
        """Drain the shard to quiescence and snapshot its accounting."""
        self.simulator.run()
        worker = self.worker
        return ShardResult(
            shard_id=worker.shard_id,
            stats=worker.stats.snapshot(),
            queue_stats=worker.queue_stats_snapshot(),
            mailbox=worker.mailbox.stats.snapshot(),
            cycles=worker.cost.total_cycles,
            cost_breakdown=worker.cost.breakdown(),
            transmits=self.transmits,
            drops=self.drops,
            end_ns=self.simulator.now_ns,
            events_processed=self.simulator.processed_events,
            pacing_live_flows=len(worker.pacing),
            pacing_memory_bytes=worker.pacing.memory_bytes(),
            mailbox_wait=(
                worker.mailbox_wait.snapshot()
                if worker.mailbox_wait is not None
                else None
            ),
            queue_wait=(
                worker.queue_wait.snapshot() if worker.queue_wait is not None else None
            ),
            e2e_latency=self._e2e.snapshot() if self._e2e is not None else None,
        )


class ExecutionBackend(abc.ABC):
    """The seam between :class:`ShardedRuntime` and whatever runs its loops.

    A backend receives timed submissions (:meth:`submit_at`) and, on
    :meth:`run`, executes the whole workload.  ``parallel`` distinguishes
    the two families: the simulated backend shares one clock with the
    runtime's own event wiring, the process backend buffers the schedule
    and fans it out to one child per shard at run time.
    """

    #: True for backends that execute shards in their own OS processes.
    parallel: bool = False

    def bind(self, runtime) -> None:
        """Attach the owning runtime (called once from its constructor)."""
        self._runtime = runtime

    @abc.abstractmethod
    def submit_at(self, when_ns: int, packets: Sequence[Packet]) -> None:
        """Arrange for ``packets`` to arrive at absolute time ``when_ns``."""

    @abc.abstractmethod
    def run(
        self, until_ns: Optional[int] = None, max_events: Optional[int] = None
    ) -> int:
        """Execute the workload; returns events processed across all clocks."""


class SimulatedBackend(ExecutionBackend):
    """The historical single-clock execution: all shards on one simulator.

    Thin by design — the runtime keeps talking to ``self.simulator``
    directly for its event wiring, so this backend's existence changes
    nothing about the simulated schedule (the golden-equivalence guarantee:
    committed ``BENCH_hotpath.json`` / ``BENCH_sharding.json`` modelled
    numbers are reproduced exactly).
    """

    parallel = False

    def __init__(self, simulator: Optional[Simulator] = None) -> None:
        self.simulator = simulator or Simulator()

    def submit_at(self, when_ns: int, packets: Sequence[Packet]) -> None:
        """Schedule the burst as a simulator event (pre-run ties beat ticks)."""
        batch = list(packets)
        self.simulator.schedule_at(
            when_ns, lambda: self._runtime.submit_batch(batch)
        )

    def run(
        self, until_ns: Optional[int] = None, max_events: Optional[int] = None
    ) -> int:
        return self.simulator.run(until_ns=until_ns, max_events=max_events)


#: Byte capacity of each per-shard ring: it must hold one whole pickled
#: burst, and 1 MiB comfortably fits a 128-packet one.
RING_CAPACITY = 1 << 20
#: A run in which no child makes progress for this long raises.
RESULT_TIMEOUT_S = 300.0
#: Exit code of a child that popped a corrupt shared-memory frame.
EXIT_FRAME_CORRUPT = 70


def _shard_worker_main(spec: WorkerSpec, ring_name: str, conn) -> None:
    """Child-process entry point: drain the shm ring into a clock driver.

    Records are ``(when_ns, [packets])`` bursts in nondecreasing time order;
    the ``None`` sentinel is end-of-schedule.  The result (or a formatted
    traceback) returns over ``conn``; the ring mapping is always detached.
    A corrupt shared-memory frame means the transport itself is
    compromised, so the child exits with :data:`EXIT_FRAME_CORRUPT` instead
    of reporting over a channel it can no longer trust.
    """
    ring = ShmRing(name=ring_name)
    try:
        try:
            driver = ShardClockDriver(spec)
            empty_polls = 0
            while True:
                try:
                    record = ring.pop()
                except ShmFrameCorrupt:
                    os._exit(EXIT_FRAME_CORRUPT)
                if record is RING_EMPTY:
                    # The producer is still feeding: spin briefly (the ring
                    # is usually refilled within microseconds), then back off
                    # so a slow feeder does not see a core burned on polling.
                    empty_polls += 1
                    time.sleep(0 if empty_polls < 200 else 0.0005)
                    continue
                empty_polls = 0
                if record is None:
                    break
                when_ns, packets = record
                driver.on_arrival(when_ns, packets)
            conn.send(driver.finish())
        except BaseException:
            conn.send(_ChildError(spec.shard_id, traceback.format_exc()))
        finally:
            conn.close()
    finally:
        ring.close()


@dataclass
class _Child:
    """One shard's child process, its ring and pipe, and what is left to feed."""

    shard: int
    proc: Any
    ring: ShmRing
    conn: Any
    #: Records not yet pushed into the ring (bursts, then the ``None`` EOF).
    queue: Deque[Optional[Burst]]
    result: Optional[ShardResult] = None


class ProcessBackend(ExecutionBackend):
    """One forked OS process per shard, fed over shared-memory SPSC rings.

    Submissions are buffered until :meth:`run`, then stable-sorted by time
    (preserving submission order at equal instants, the shared simulator's
    tie rule) and partitioned per shard with the runtime's static hash.
    The parent then plays the ingress core: it streams each shard's bursts
    into that shard's :class:`~repro.runtime.shm.ShmRing`, interleaving
    across rings so no child starves while another's ring is full, and
    collects one picklable :class:`ShardResult` per child over a pipe.

    Any failure raises :class:`RuntimeError` on the spot, naming the shard:
    a child that reports a traceback, a child that exits without a result
    (with its exit code; :data:`EXIT_FRAME_CORRUPT` after a failed CRC), and
    a run in which no child makes progress for :data:`RESULT_TIMEOUT_S`.
    Nothing is restarted.  Teardown is unconditional: whatever interrupts
    the run — ``KeyboardInterrupt`` included — live children are terminated
    (``terminate()`` then ``kill()``) and every shared-memory segment is
    unlinked before the exception propagates.
    """

    parallel = True

    def __init__(self) -> None:
        self._bursts: List[Burst] = []
        #: Per-shard end-of-run snapshots, populated by :meth:`run`.
        self.results: Optional[List[ShardResult]] = None

    @property
    def pending_submitted(self) -> int:
        """Packets buffered for a run that has not started yet."""
        return sum(len(packets) for _when, packets in self._bursts)

    def submit_at(self, when_ns: int, packets: Sequence[Packet]) -> None:
        if when_ns < 0:
            raise ValueError("when_ns must be non-negative")
        if self.results is not None:
            raise RuntimeError(
                "the process backend executes one buffered schedule per run(); "
                "create a fresh runtime for another workload"
            )
        batch = list(packets)
        if batch:
            self._bursts.append((when_ns, batch))

    def run(
        self, until_ns: Optional[int] = None, max_events: Optional[int] = None
    ) -> int:
        if until_ns is not None or max_events is not None:
            raise ValueError(
                "the process backend runs the buffered schedule to completion; "
                "until_ns/max_events apply only to the simulated backend"
            )
        if self.results is not None:
            return 0  # idempotent: the schedule already ran
        runtime = self._runtime
        bursts = sorted(self._bursts, key=lambda burst: burst[0])  # stable
        self._bursts = []
        schedules: List[List[Burst]] = [[] for _ in range(runtime.num_shards)]
        shard_for = runtime.sharder.shard_for
        for when_ns, packets in bursts:
            groups: Dict[int, List[Packet]] = {}
            for packet in packets:
                groups.setdefault(shard_for(packet.flow_id), []).append(packet)
            for shard, group in groups.items():
                schedules[shard].append((when_ns, group))
        specs = [runtime._worker_spec(shard) for shard in range(runtime.num_shards)]
        self.results = self._execute(specs, schedules)
        return sum(result.events_processed for result in self.results)

    def _feed_hook(self) -> None:
        """Called once per pump-loop pass (test seam for interrupt injection)."""

    def _execute(
        self, specs: List[WorkerSpec], schedules: List[List[Burst]]
    ) -> List[ShardResult]:
        # fork start method: WorkerSpec (with its possibly-closure
        # queue_factory) is inherited by the child, not pickled; only the
        # packet stream crosses via the shm rings.
        ctx = multiprocessing.get_context("fork")
        rings: List[ShmRing] = []
        children: List[_Child] = []
        try:
            for spec, schedule in zip(specs, schedules):
                ring = ShmRing(capacity=RING_CAPACITY)
                rings.append(ring)
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_shard_worker_main,
                    args=(spec, ring.name, child_conn),
                    daemon=True,
                    name=f"repro-shard-{spec.shard_id}",
                )
                proc.start()
                child_conn.close()  # parent's copy; the child holds the write end
                children.append(
                    _Child(spec.shard_id, proc, ring, parent_conn, deque([*schedule, None]))
                )
            self._pump(children)
            return [child.result for child in children]  # type: ignore[misc]
        finally:
            for child in children:
                child.conn.close()
            for child in children:
                _reap(child.proc, child.shard)
            for ring in rings:
                ring.close()
                ring.unlink()

    def _pump(self, children: List[_Child]) -> None:
        """Feed every ring and collect every result; raise on any failure.

        One loop does both jobs so no child's pipe goes unread while another
        child's ring is being fed.
        """
        last_progress = time.monotonic()
        while any(child.result is None for child in children):
            progressed = False
            for child in children:
                if child.result is not None:
                    continue
                if child.conn.poll(0):
                    _receive(child)
                    progressed = True
                    continue
                queue = child.queue
                while queue and child.ring.push(queue[0]):
                    queue.popleft()
                    progressed = True
                if not child.proc.is_alive():
                    # A result or traceback may have raced the exit; if not,
                    # the pipe reads EOF and the exit code is reported.
                    _receive(child)
                    progressed = True
            self._feed_hook()
            if progressed:
                last_progress = time.monotonic()
            elif time.monotonic() - last_progress > RESULT_TIMEOUT_S:
                waiting = [child.shard for child in children if child.result is None]
                raise RuntimeError(
                    f"shards {waiting} made no progress within "
                    f"{RESULT_TIMEOUT_S:.0f}s"
                )
            else:
                time.sleep(0.0002)


def _receive(child: _Child) -> None:
    """Take the message waiting on a child's pipe: its result, or raise."""
    try:
        message = child.conn.recv()
    except EOFError:
        child.proc.join(timeout=10.0)
        raise RuntimeError(
            f"shard {child.shard} worker exited without a result "
            f"(exit code {child.proc.exitcode})"
        ) from None
    if isinstance(message, _ChildError):
        raise RuntimeError(f"shard {child.shard} worker failed:\n{message.message}")
    child.result = message


def _reap(proc, shard: int) -> None:
    """Join a child, escalating terminate() → kill() if it lingers."""
    if proc.is_alive():
        proc.terminate()
        proc.join(timeout=10.0)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=10.0)
            if proc.is_alive():
                raise RuntimeError(
                    f"shard {shard} worker (pid {proc.pid}) survived both "
                    f"terminate() and kill(); exit code {proc.exitcode}"
                )
    else:
        proc.join(timeout=10.0)


def resolve_backend(
    backend: "str | ExecutionBackend", simulator: Optional[Simulator]
) -> ExecutionBackend:
    """Normalise a runtime's ``backend=`` argument into a backend instance.

    Accepts ``"simulated"`` / ``"process"`` or a ready instance.
    ``simulator`` only composes with the simulated backend — a shared clock
    has no meaning for shards running on their own cores.
    """
    if isinstance(backend, str):
        if backend == "simulated":
            return SimulatedBackend(simulator)
        if backend != "process":
            raise ValueError(
                f"unknown backend {backend!r}; choose from 'simulated', 'process'"
            )
        resolved: ExecutionBackend = ProcessBackend()
    elif isinstance(backend, ExecutionBackend):
        resolved = backend
    else:
        raise TypeError(f"backend must be a name or ExecutionBackend, got {backend!r}")
    if simulator is not None and not isinstance(resolved, SimulatedBackend):
        raise ValueError("simulator= applies only to the simulated backend")
    return resolved


__all__ = [
    "Burst",
    "ExecutionBackend",
    "ProcessBackend",
    "ShardClockDriver",
    "ShardResult",
    "SimulatedBackend",
    "WorkerSpec",
    "free_threaded",
    "resolve_backend",
]
