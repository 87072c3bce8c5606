"""Queue workloads: ``core.queues`` alone, no runtime around it.

Eight queue families, 4,096 buckets each, are fed seeded rank streams and
held at about 2k resident items.  ``queues_batched`` interleaves
``enqueue_batch`` of 32 with ``extract_due(limit=32)``; ``queues_per_packet``
sends the same streams through ``enqueue`` / ``peek_min`` / ``extract_min``,
so a batch-path gain bought at the per-packet path's expense shows.

Two stream shapes, from the same seeded draws:

* families that take a *moving* rank range (the circular queues, and the
  binary heap, which has no range at all) see a base that advances 16 ranks
  a step with ranks up to 2,048 ahead of it, and release what is due at
  each step — the window rotates, so ``rotations`` > 0;
* fixed-range families see ranks uniform over their 4,096 buckets, fill for
  64 steps, then release the 32 smallest per step (everything is due: a
  saturated link draining in rank order).

Every family's output is checked against a sorted reference fed the same
operations: exact families must match it item for item (rank order, FIFO
within a rank); the approximate family must lose and invent nothing.
"""

from __future__ import annotations

import heapq
import math
import random
import resource
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

import tracing
from harness import Budget, exact, fastest, measured, single, timed_rounds
from runtime_workload import BASE_ROUNDS, CYCLES_PER_SECOND, cost_rows

NUM_BUCKETS = 4_096
BATCH = 32
#: Ranks the moving base advances per step; with ranks up to
#: ``NUM_BUCKETS // 2`` ahead, about ``32 * 2048 / (2 * 16)`` = 2k are resident.
ADVANCE = 16
#: Steps a fixed-range family fills before it starts draining (64 * 32 = 2k).
FILL_STEPS = 64
#: "Due by" value that releases whatever is left.
FOREVER = 1 << 62

#: Ranks per family: (full, smoke).
RANKS = {"queues_batched": (50_000, 2_048), "queues_per_packet": (20_000, 2_048)}

Schedule = List[Tuple[int, List[Tuple[int, int]]]]


def _families() -> Dict[str, Tuple[Callable[[], object], bool, bool]]:
    """``name -> (factory, exact, moving_range)``."""
    from repro.core.queues import (
        ApproximateGradientQueue,
        BinaryHeapQueue,
        BucketedHeapQueue,
        BucketSpec,
        CircularFFSQueue,
        CircularGradientQueue,
        GradientQueue,
        HierarchicalFFSQueue,
        MultiWordFFSQueue,
    )
    from repro.core.queues.gradient import alpha_for_buckets

    spec = BucketSpec(num_buckets=NUM_BUCKETS)
    alpha = alpha_for_buckets(NUM_BUCKETS)
    return {
        "ffs_multiword": (lambda: MultiWordFFSQueue(spec), True, False),
        "hierarchical_ffs": (lambda: HierarchicalFFSQueue(spec), True, False),
        "circular_ffs": (lambda: CircularFFSQueue(spec), True, True),
        "gradient": (lambda: GradientQueue(spec), True, False),
        "approx_gradient": (lambda: ApproximateGradientQueue(spec, alpha=alpha), False, False),
        "circular_gradient": (lambda: CircularGradientQueue(spec), True, True),
        "bucketed_heap": (lambda: BucketedHeapQueue(spec), True, False),
        "binary_heap": (lambda: BinaryHeapQueue(), True, True),
    }


FAMILY_NAMES = (
    "ffs_multiword",
    "hierarchical_ffs",
    "circular_ffs",
    "gradient",
    "approx_gradient",
    "circular_gradient",
    "bucketed_heap",
    "binary_heap",
)


def schedule(seed: int, ranks: int, moving: bool) -> Schedule:
    """``(due_by, [(rank, item), ...])`` per step, from one seeded stream."""
    rng = random.Random(seed)
    draw = rng.randrange
    steps: Schedule = []
    for first in range(0, ranks, BATCH):
        step = first // BATCH
        count = min(BATCH, ranks - first)
        if moving:
            base = step * ADVANCE
            pairs = [(base + draw(NUM_BUCKETS) // 2, first + i) for i in range(count)]
            due_by = base
        else:
            pairs = [(draw(NUM_BUCKETS), first + i) for i in range(count)]
            due_by = NUM_BUCKETS if step >= FILL_STEPS else -1
        steps.append((due_by, pairs))
    return steps


def drive_batched(queue, steps: Schedule, out: Optional[list] = None, mark_burst=None) -> int:
    """``enqueue_batch`` + ``extract_due`` per step, then drain.

    Returns the number released; ``out`` collects them when given, and a
    traced pass has ``mark_burst`` called at every step (one step is one
    burst of the raw trace).
    """
    released = 0
    enqueue_batch, extract_due = queue.enqueue_batch, queue.extract_due
    for due_by, pairs in steps:
        if mark_burst is not None:
            mark_burst()
        enqueue_batch(pairs)
        batch = extract_due(due_by, limit=BATCH)
        released += len(batch)
        if out is not None:
            out.extend(batch)
    while len(queue):
        batch = extract_due(FOREVER, limit=BATCH)
        released += len(batch)
        if out is not None:
            out.extend(batch)
    return released


def drive_per_packet(queue, steps: Schedule, out: Optional[list] = None, mark_burst=None) -> int:
    """The same operations through ``enqueue`` / ``peek_min`` / ``extract_min``."""
    released = 0
    enqueue, peek_min, extract_min = queue.enqueue, queue.peek_min, queue.extract_min
    for due_by, pairs in steps:
        if mark_burst is not None:
            mark_burst()
        for rank, item in pairs:
            enqueue(rank, item)
        for _ in range(BATCH):
            if not len(queue) or peek_min()[0] > due_by:
                break
            entry = extract_min()
            released += 1
            if out is not None:
                out.append(entry)
    while len(queue):
        entry = extract_min()
        released += 1
        if out is not None:
            out.append(entry)
    return released


DRIVERS = {"queues_batched": drive_batched, "queues_per_packet": drive_per_packet}


def reference(steps: Schedule) -> List[Tuple[int, int]]:
    """What a sorted queue releases for the same operations."""
    heap: List[Tuple[int, int]] = []
    out = []
    for due_by, pairs in steps:
        for pair in pairs:
            heapq.heappush(heap, pair)
        taken = 0
        while heap and taken < BATCH and heap[0][0] <= due_by:
            out.append(heapq.heappop(heap))
            taken += 1
    while heap:
        out.append(heapq.heappop(heap))
    return out


def count_failures(released: list, expected: list, is_exact: bool) -> int:
    """Items lost, invented or (on an exact family) out of rank order."""
    if is_exact:
        wrong = sum(1 for got, want in zip(released, expected) if got != want)
        return wrong + abs(len(released) - len(expected))
    got = sorted(item for _rank, item in released)
    want = sorted(item for _rank, item in expected)
    if got == want:
        return 0
    return len(set(want) ^ set(got)) + abs(len(got) - len(want))


def _geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(value) for value in values) / len(values))


def _modelled(queue) -> Dict[str, float]:
    from repro.cpu import CostModel

    model = CostModel()
    model.charge_queue_stats(queue.stats.as_dict())
    return model.breakdown()


class QueueWorkload:
    """One named queue workload at one seed: every family, pass by pass."""

    def __init__(self, name: str, seed: int, smoke: bool) -> None:
        self.drive = DRIVERS[name]
        self.seed = seed
        self.ranks = RANKS[name][1 if smoke else 0]
        self.families = _families()
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        #: Per family: modelled cycles by operation, and the raw counters.
        self.ref_cycles: Dict[str, Dict[str, float]] = {}
        self.stats: Dict[str, object] = {}
        #: Per family, one sample per pass after verification.
        self.generate_s: Dict[str, List[float]] = {family: [] for family in FAMILY_NAMES}
        self.build_s: Dict[str, List[float]] = {family: [] for family in FAMILY_NAMES}

    def verify(self) -> None:
        """Check every family against the sorted reference; set the modelled
        cycles every later pass must reproduce."""
        streams = {moving: schedule(self.seed, self.ranks, moving) for moving in (False, True)}
        expected = {moving: reference(steps) for moving, steps in streams.items()}
        for family in FAMILY_NAMES:
            factory, is_exact, moving = self.families[family]
            queue = factory()
            released: list = []
            self.drive(queue, streams[moving], released)
            wrong = count_failures(released, expected[moving], is_exact)
            self.attempted += self.ranks
            if wrong:
                self.failed += wrong
                self.errors.append(f"{family}: {wrong} items lost or out of rank order")
            self.ref_cycles[family] = _modelled(queue)
            self.stats[family] = queue.stats.snapshot()

    def one_pass(
        self, family: str, label: str, recorder: Optional[tracing.SpanRecorder] = None
    ) -> int:
        """One family once, on a fresh queue; returns the timed region's ns.

        Stream generation and queue construction run before the clock starts
        and are sampled on their own.
        """
        factory, _is_exact, moving = self.families[family]
        start = perf_counter()
        steps = schedule(self.seed, self.ranks, moving)
        generated_at = perf_counter()
        queue = factory()
        self.generate_s[family].append(generated_at - start)
        self.build_s[family].append(perf_counter() - generated_at)
        mark_burst = None
        if recorder is not None:
            mark_burst = recorder.mark_burst
            recorder.begin()
        start_ns = perf_counter_ns()
        released = self.drive(queue, steps, None, mark_burst)
        wall_ns = perf_counter_ns() - start_ns
        if recorder is not None:
            recorder.end()
        self.attempted += self.ranks
        if released != self.ranks:
            self.failed += abs(self.ranks - released)
            self.errors.append(f"{family} {label}: released {released} of {self.ranks}")
        if _modelled(queue) != self.ref_cycles[family]:
            self.errors.append(
                f"{family} {label}: modelled cycles differ from the verification pass"
            )
        return wall_ns


def run(
    name: str,
    seed: int,
    budget: Budget,
    *,
    smoke: bool,
    want_end_to_end: bool,
    want_per_layer: bool,
    out_dir: Optional[Path],
) -> dict:
    """Run one queue workload; returns its record (units not yet attached)."""
    workload = QueueWorkload(name, seed, smoke)
    workload.verify()
    ranks = workload.ranks
    total_ranks = ranks * len(FAMILY_NAMES)

    # One round is every family once, so each round's rates sit side by side
    # in time and the samples of all families line up.
    walls: Dict[str, List[float]] = {family: [] for family in FAMILY_NAMES}

    def one_round() -> float:
        for family in FAMILY_NAMES:
            walls[family].append(workload.one_pass(family, "timed round") / 1e9)
        return sum(walls[family][-1] for family in FAMILY_NAMES)

    if not want_end_to_end:
        budget = Budget(rounds=BASE_ROUNDS)
    rounds = range(len(timed_rounds(budget, one_round)))
    setup_s = [
        sum(workload.generate_s[f][i] + workload.build_s[f][i] for f in FAMILY_NAMES)
        for i in rounds
    ]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cycles = {family: sum(workload.ref_cycles[family].values()) for family in FAMILY_NAMES}

    record: dict = {}
    if want_end_to_end:
        # Geometric means over families, so one slow family cannot hide the
        # rest (the approximate gradient queue's 4k-11k cycles a packet would
        # otherwise be the whole number).
        record["end_to_end"] = {
            "pkts_per_s": fastest(
                [_geomean([ranks / walls[f][i] for f in FAMILY_NAMES]) for i in rounds],
                better="higher",
            ),
            "modelled_cycles_per_pkt": exact(
                _geomean([cycles[family] / ranks for family in FAMILY_NAMES])
            ),
            "peak_rss_mb": single(peak_rss_mb),
            "setup_s": fastest(setup_s),
        }
    if want_per_layer:
        merged: Dict[str, float] = {}
        for family in FAMILY_NAMES:
            for op, value in workload.ref_cycles[family].items():
                merged[op] = merged.get(op, 0.0) + value
        rows = cost_rows(merged, total_ranks)

        def total(counter: str) -> int:
            return sum(getattr(workload.stats[family], counter) for family in FAMILY_NAMES)

        rows.update(
            {
                # The slowest family's modelled one-core rate.
                "modelled_bottleneck_mpps": exact(
                    ranks * CYCLES_PER_SECOND / max(cycles.values()) / 1e6
                ),
                "core.queues.enqueues_per_pkt": exact(total("enqueues") / total_ranks),
                "core.queues.bucket_lookups_per_pkt": exact(total("bucket_lookups") / total_ranks),
                "core.queues.word_scans_per_pkt": exact(total("word_scans") / total_ranks),
                "core.queues.rotations": exact(total("rotations")),
                "core.queues.overflow_enqueues": exact(total("overflow_enqueues")),
            }
        )
        for family in FAMILY_NAMES:
            rows[f"core.queues.{family}.pkts_per_s"] = fastest(
                [ranks / wall for wall in walls[family]], better="higher"
            )
            rows[f"core.queues.{family}.cycles_per_pkt"] = exact(cycles[family] / ranks)
        rows["traffic.generate_ns_per_pkt"] = measured(
            [s * 1e9 / ranks for f in FAMILY_NAMES for s in workload.generate_s[f]]
        )
        rows["scenario.compile_s"] = measured(
            [s for f in FAMILY_NAMES for s in workload.build_s[f]]
        )

        # Pass 3: every family under the seam table, one ledger for all.
        values, unresolved = tracing.traced_ledger(
            lambda recorder: sum(
                workload.one_pass(family, "traced run", recorder) for family in FAMILY_NAMES
            ),
            untraced_wall_s=sum(min(walls[family]) for family in FAMILY_NAMES),
            packets=total_ranks,
            smoke=smoke,
            # Tracing adds a tenth or two here, not 2x, and a pass is 3 s.
            passes=1,
            trace_path=out_dir / f"{name}.trace.json" if out_dir else None,
        )
        rows.update({key: single(value) for key, value in values.items()})
        record["per_layer"] = rows
        record["trace"] = {"unresolved": unresolved}
    record.update(
        attempted=workload.attempted, failed=workload.failed, errors=workload.errors
    )
    return record
