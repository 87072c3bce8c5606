"""Discrete-event simulation core for the datacenter fabric experiments."""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional


class EventHandle:
    """A scheduled event that can be cancelled before it fires.

    Cancellation is *lazy*: the heap entry stays in place and is discarded
    when it reaches the front, so ``cancel`` is O(1) and never perturbs the
    ordering of the remaining events.  Shard wake-up timers and rebalancing
    sweeps (``repro.runtime``) re-program their timers far more often than
    they let them fire, which is exactly the pattern lazy removal favours —
    the same reason kernel hrtimers keep cancelled timers out of the softirq
    path instead of re-heapifying.
    """

    __slots__ = ("time_ns", "_callback", "_fired", "_simulator")

    def __init__(
        self,
        time_ns: int,
        callback: Callable[[], None],
        simulator: Optional["Simulator"] = None,
    ) -> None:
        self.time_ns = time_ns
        self._callback: Optional[Callable[[], None]] = callback
        self._fired = False
        self._simulator = simulator

    @property
    def active(self) -> bool:
        """True while the event is still scheduled to fire."""
        return self._callback is not None

    @property
    def fired(self) -> bool:
        """True once the event has run normally."""
        return self._fired

    @property
    def cancelled(self) -> bool:
        """True once the event has been cancelled (it never fired and never
        will); False for an event that ran normally."""
        return self._callback is None and not self._fired

    def cancel(self) -> bool:
        """Prevent the event from firing; returns False when already fired
        or cancelled.

        Notifies the owning simulator so its pending-event count stays exact
        and cancel-heavy workloads keep triggering heap compaction —
        ``handle.cancel()`` and ``Simulator.cancel(handle)`` are equivalent.
        """
        if self._callback is None:
            return False
        self._callback = None
        if self._simulator is not None:
            self._simulator.notify_cancelled()
        return True


class Simulator:
    """A minimal discrete-event simulator (nanosecond clock).

    Events are ``(time, sequence, handle)`` triples in a binary heap; the
    sequence number keeps same-time events in scheduling order, which keeps
    packet orderings deterministic.  ``schedule`` / ``schedule_at`` return a
    cancellable :class:`EventHandle`; cancelled entries are skipped lazily
    when they surface at the head of the heap.  The heap list keeps its
    identity for the simulator's lifetime (compaction filters it in place),
    so :meth:`run` holds it in a local across callbacks.
    """

    def __init__(self) -> None:
        self.now_ns = 0
        self._events: list[tuple[int, int, EventHandle]] = []
        self._sequence = itertools.count()
        self._processed = 0
        self._cancelled_pending = 0

    def schedule(self, delay_ns: int, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to run ``delay_ns`` after the current time."""
        if delay_ns < 0:
            raise ValueError("delay_ns must be non-negative")
        return self.schedule_at(self.now_ns + delay_ns, callback)

    def schedule_at(self, time_ns: int, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at absolute ``time_ns`` (>= now)."""
        if time_ns < self.now_ns:
            raise ValueError("cannot schedule in the past")
        handle = EventHandle(time_ns, callback, self)
        heapq.heappush(self._events, (time_ns, next(self._sequence), handle))
        return handle

    def run(self, until_ns: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events until the horizon / event budget / queue exhaustion.

        Returns the number of events processed by this call (cancelled
        events are discarded without counting against ``max_events``).

        One loop does the whole dispatch: a cancelled head (its handle's
        callback already ``None``) is popped and uncounted, a live one is
        popped, marked fired and called — no helper method per event.  The
        horizon and budget are checked against the first *live* head, so a
        run stopped by them leaves no cancelled entry in front.
        """
        events = self._events
        heappop = heapq.heappop
        processed = 0
        while events:
            time_ns, _seq, handle = events[0]
            callback = handle._callback
            if callback is None:
                heappop(events)
                if self._cancelled_pending > 0:
                    self._cancelled_pending -= 1
                continue
            if until_ns is not None and time_ns > until_ns:
                break
            if max_events is not None and processed >= max_events:
                break
            heappop(events)
            self.now_ns = time_ns
            handle._callback = None
            handle._fired = True
            callback()
            processed += 1
        self._processed += processed
        return processed

    def notify_cancelled(self) -> None:
        """Account one newly cancelled event (keeps ``pending_events`` exact).

        Called automatically by :meth:`EventHandle.cancel` for handles this
        simulator issued; external callers never need it.
        """
        self._cancelled_pending += 1
        # Compact when the heap is mostly corpses so a cancel-heavy workload
        # (timer re-programming) cannot grow the heap without bound.
        events = self._events
        if self._cancelled_pending > 64 and self._cancelled_pending > len(events) // 2:
            events[:] = [entry for entry in events if entry[2].active]
            heapq.heapify(events)
            self._cancelled_pending = 0

    def cancel(self, handle: EventHandle) -> bool:
        """Cancel a scheduled event; returns False when it already fired.

        Equivalent to ``handle.cancel()`` (the handle notifies this
        simulator's accounting itself).
        """
        return handle.cancel()

    @property
    def pending_events(self) -> int:
        """Events still queued and not cancelled."""
        return len(self._events) - self._cancelled_pending

    @property
    def processed_events(self) -> int:
        """Total events processed so far."""
        return self._processed


__all__ = ["EventHandle", "Simulator"]
