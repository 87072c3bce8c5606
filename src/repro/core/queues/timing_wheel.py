"""Timing Wheel — the data structure underlying Carousel (the shaping baseline).

Carousel [SIGCOMM'17] stores every packet in a timing wheel indexed by its
transmission timestamp: a circular array of time slots, each holding a FIFO
of packets, advanced by a clock.  The wheel supports O(1) insertion and O(1)
"release everything whose slot has passed", but — as the Eiffel paper points
out (Section 2) — it does *not* support ``ExtractMin``: the earliest enqueued
packet cannot be found without scanning slots, so the wheel only fits
non-work-conserving, time-indexed schedules, and its driver must poll (fire a
timer) every slot interval whether or not packets are due.

``HierarchicalTimingWheel`` extends the horizon with coarser outer wheels
(the classic hashed/hierarchical design of Varghese & Lauck) and is used by
the ablation benchmarks.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Iterable, Optional


class TimingWheel:
    """A single-level timing wheel over ``num_slots`` slots of ``granularity`` ticks.

    Timestamps are absolute integers (e.g. nanoseconds).  The wheel maintains
    ``current_time``; packets with timestamps in the past are placed in the
    current slot (sent as soon as possible) and packets beyond the horizon are
    placed in the last future slot, mirroring Carousel's behaviour.
    """

    __slots__ = (
        "num_slots",
        "granularity",
        "current_time",
        "_slots",
        "_size",
        "_pending_scratch",
        "insertions",
        "slot_advances",
        "overflow_insertions",
        "stale_insertions",
    )

    def __init__(
        self, num_slots: int, granularity: int = 1, start_time: int = 0
    ) -> None:
        if num_slots <= 0:
            raise ValueError("num_slots must be positive")
        if granularity <= 0:
            raise ValueError("granularity must be positive")
        self.num_slots = num_slots
        self.granularity = granularity
        self.current_time = start_time
        # Slot FIFOs are attached on first insert (``None`` until then): a
        # wheel with millions of slots allocates only the ones it uses.
        self._slots: list[Optional[Deque[tuple[int, Any]]]] = [None] * num_slots
        self._size = 0
        # Reused by advance_to for the not-yet-due holdback of a scanned
        # slot, so the per-slot visit allocates nothing.
        self._pending_scratch: Deque[tuple[int, Any]] = deque()
        # Operation counters for the CPU cost model.
        self.insertions = 0
        self.slot_advances = 0
        self.overflow_insertions = 0
        self.stale_insertions = 0

    # -- helpers ---------------------------------------------------------------

    @property
    def horizon(self) -> int:
        """Ticks covered by the wheel from ``current_time``."""
        return self.num_slots * self.granularity

    def __len__(self) -> int:
        return self._size

    @property
    def empty(self) -> bool:
        """True when no packets are stored."""
        return self._size == 0

    def _effective_timestamp(self, timestamp: int) -> int:
        """Clamp ``timestamp`` into the wheel's current horizon.

        Past timestamps collapse to "now" (send as soon as possible) and
        timestamps beyond the horizon collapse to the last future slot, which
        is exactly Carousel's behaviour for out-of-range transmission times.
        """
        if timestamp <= self.current_time:
            self.stale_insertions += 1
            return self.current_time
        if timestamp >= self.current_time + self.horizon:
            self.overflow_insertions += 1
            return self.current_time + self.horizon - self.granularity
        return timestamp

    def _slot_index(self, timestamp: int) -> int:
        return (timestamp // self.granularity) % self.num_slots

    # -- operations --------------------------------------------------------------

    def insert(self, timestamp: int, item: Any) -> None:
        """Insert ``item`` to be released at ``timestamp``."""
        self.insertions += 1
        effective = self._effective_timestamp(timestamp)
        slot = self._slot_index(effective)
        entries = self._slots[slot]
        if entries is None:
            entries = self._slots[slot] = deque()
        entries.append((effective, item))
        self._size += 1

    def insert_batch(self, pairs: Iterable[tuple[int, Any]]) -> int:
        """Insert every ``(timestamp, item)`` pair; returns the count inserted."""
        count = 0
        for timestamp, item in pairs:
            self.insert(timestamp, item)
            count += 1
        return count

    def advance_to(self, now: int) -> list[tuple[int, Any]]:
        """Advance the wheel clock to ``now`` and release every due packet.

        Every slot between the previous clock value and ``now`` is visited
        (that per-slot visit is exactly the polling overhead Carousel pays,
        and what Figure 10's softirq panel shows); packets in visited slots
        are returned in slot order.  Entries within one slot are *not*
        ordered by timestamp — packets may be inserted out of order within a
        slot interval — so the whole slot is scanned and not-yet-due entries
        are retained (in arrival order) for a later advance.
        """
        released: list[tuple[int, Any]] = []
        if now < self.current_time:
            return released
        num_slots = self.num_slots
        slots = self._slots
        current_slot = (self.current_time // self.granularity) % num_slots
        slots_to_advance = (now // self.granularity) - (
            self.current_time // self.granularity
        )
        slots_to_advance = min(slots_to_advance, num_slots)
        pending = self._pending_scratch
        drained = 0
        for step in range(slots_to_advance + 1):
            slot = (current_slot + step) % num_slots
            self.slot_advances += 1
            entries = slots[slot]
            if not entries:
                continue
            held = 0
            while entries:
                entry = entries.popleft()
                if entry[0] > now:
                    pending.append(entry)
                    held += 1
                    continue
                drained += 1
                released.append(entry)
            if held:
                entries.extend(pending)
                pending.clear()
        self._size -= drained
        self.current_time = now
        return released

    def peek_slots(self) -> Iterable[int]:
        """Yield the indices of non-empty slots (for inspection/tests)."""
        for index, slot in enumerate(self._slots):
            if slot:
                yield index

    def next_due_time(self) -> Optional[int]:
        """Timestamp of the earliest stored packet, found by scanning slots.

        This is an O(num_slots) operation — the whole point of the paper's
        comparison: a timing wheel cannot answer ExtractMin/SoonestDeadline
        cheaply, so Carousel's driver polls instead.
        """
        best: Optional[int] = None
        for slot in self._slots:
            for timestamp, _item in slot or ():
                if best is None or timestamp < best:
                    best = timestamp
        return best


class HierarchicalTimingWheel:
    """Multi-level timing wheel with geometrically coarser outer levels.

    Packets whose timestamps exceed the innermost horizon are parked in an
    outer wheel and cascaded inward as the clock advances.  Used by ablation
    benchmarks to show that extending Carousel's horizon does not remove the
    per-slot polling cost.
    """

    __slots__ = ("levels", "current_time", "_size")

    def __init__(
        self,
        slots_per_level: int,
        granularity: int = 1,
        levels: int = 2,
        start_time: int = 0,
    ) -> None:
        if levels <= 0:
            raise ValueError("levels must be positive")
        self.levels = [
            TimingWheel(
                slots_per_level,
                granularity * (slots_per_level**level),
                start_time=start_time,
            )
            for level in range(levels)
        ]
        self.current_time = start_time
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def empty(self) -> bool:
        """True when no packets are stored at any level."""
        return self._size == 0

    @property
    def horizon(self) -> int:
        """Total ticks covered across all levels."""
        return self.levels[-1].horizon

    def insert(self, timestamp: int, item: Any) -> None:
        """Insert into the finest level whose horizon covers ``timestamp``."""
        for wheel in self.levels:
            if timestamp < self.current_time + wheel.horizon:
                wheel.insert(timestamp, item)
                break
        else:
            self.levels[-1].insert(timestamp, item)
        self._size += 1

    def insert_batch(self, pairs: Iterable[tuple[int, Any]]) -> int:
        """Insert every ``(timestamp, item)`` pair; returns the count inserted."""
        count = 0
        for timestamp, item in pairs:
            self.insert(timestamp, item)
            count += 1
        return count

    def advance_to(self, now: int) -> list[tuple[int, Any]]:
        """Advance all levels to ``now``; cascade and return due packets."""
        due: list[tuple[int, Any]] = []
        released_inner = self.levels[0].advance_to(now)
        due.extend(released_inner)
        for wheel in self.levels[1:]:
            for timestamp, item in wheel.advance_to(now):
                if timestamp <= now:
                    due.append((timestamp, item))
                else:  # pragma: no cover - defensive; outer slots are coarse
                    self.levels[0].insert(timestamp, item)
                    self._size += 1
        self.current_time = now
        self._size -= len(due)
        return due


__all__ = ["HierarchicalTimingWheel", "TimingWheel"]
