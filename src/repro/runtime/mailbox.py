"""Batched SPSC mailboxes: the ingress-to-shard handoff.

On real multi-core schedulers the dispatching core never touches another
core's queue structures directly — it posts packets into a single-producer /
single-consumer ring (a BESS queue module, a kernel per-CPU backlog) and the
owning core drains the ring in batches at the top of its scheduling loop.
That handoff is what keeps the hot data structures core-local.

:class:`Mailbox` models that ring: the ingress side pushes (bounded, with
drop accounting, like a real ring that overflows), the shard side drains one
batch per scheduling quantum.  In simulation both sides run on one thread,
so there is no locking — the SPSC discipline survives as the API shape:
exactly one producer calls ``push``/``push_batch`` and exactly one consumer
calls ``drain``.

Watermark backpressure
----------------------

A bounded ring that silently overflows is a loss point; a real ingress
pipeline instead *pauses the producer* before the ring fills — kernel NAPI
backlog limits, BESS queue occupancy thresholds, NIC flow control.  The
mailbox models that with a high watermark and hysteresis: when occupancy
rises to the high watermark the mailbox enters the *paused* state (one
``stalls`` count); it leaves it only when the consumer drains occupancy down
to the low watermark, always half the high one (the optional ``on_low``
callback fires then).  The mailbox never blocks anything itself — producers
(the ingress cores of :mod:`repro.runtime.ingress`) consult :attr:`paused`
before pulling more work off their RX rings, and the ``on_low`` edge is the
wake-up that resumes a stalled ingress core without polling.

The ``on_low`` callback fires only after the drain has fully settled:
counters and the paused flag all describe the completed drain by the time
it runs, so the callback (or anything it re-enters) can snapshot ``stats``
and see a consistent state — a requirement for execution backends whose
producer and consumer interleave differently than the single simulated
thread.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Generic, Iterable, List, Optional, TypeVar

from ..core.queues.base import CounterStatsMixin

T = TypeVar("T")


@dataclass(slots=True)
class MailboxStats(CounterStatsMixin):
    """Counters kept by one mailbox.

    ``stalls`` counts high-watermark crossings (pause events), not paused
    ticks: one producer stall episode is one count however long it lasts.
    """

    pushed: int = 0
    dropped: int = 0
    drained: int = 0
    drain_calls: int = 0
    peak_occupancy: int = 0
    stalls: int = 0


class Mailbox(Generic[T]):
    """Bounded FIFO handoff between one producer and one consumer.

    Args:
        capacity: maximum resident items; ``None`` means unbounded (the
            simulation default — backpressure is then the runtime's problem,
            as it is for an unbounded qdisc backlog).
        high_watermark: occupancy that pauses the producer (see module
            docstring); ``None`` carries no watermark.  The producer resumes
            at ``high_watermark // 2``.

    :attr:`on_low`, the callback fired on the falling (resume) edge, is
    ``None`` until the producer sets it.
    """

    __slots__ = (
        "capacity",
        "stats",
        "high_watermark",
        "on_low",
        "_paused",
        "_items",
    )

    def __init__(
        self,
        capacity: Optional[int] = None,
        high_watermark: Optional[int] = None,
    ) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive (or None for unbounded)")
        self.capacity = capacity
        self.stats = MailboxStats()
        self._items: Deque[T] = deque()
        self.high_watermark: Optional[int] = None
        self.on_low: Optional[Callable[[], None]] = None
        self._paused = False
        if high_watermark is not None:
            self.configure_watermarks(high_watermark)

    # -- watermarks ----------------------------------------------------------

    def configure_watermarks(self, high: int) -> None:
        """Install the high watermark.

        The low watermark is ``high // 2``; at ``high == 1`` that is 0, i.e.
        the producer resumes only on a fully drained ring — the capacity-1
        hysteresis edge the tests pin down.  A retune keeps :attr:`on_low`
        (retuning a live runtime mailbox must not sever the ingress resume
        wiring).
        """
        if high <= 0:
            raise ValueError("high watermark must be positive")
        if self.capacity is not None and high > self.capacity:
            raise ValueError("high watermark cannot exceed capacity")
        self.high_watermark = high
        self._settle_high()

    @property
    def paused(self) -> bool:
        """True while occupancy sits inside the high/low hysteresis band."""
        return self._paused

    # Edge detection is split from edge *firing* so that a drain settles
    # all of its state — ring contents, counters, the paused flag — before
    # on_low runs.  The callback re-enters the runtime (it resumes stalled
    # RX cores, which push more packets, which may re-pause this very
    # mailbox), so a callback that fired mid-mutation would observe
    # counters mid-update; execution backends that interleave producer and
    # consumer differently would then disagree on stall accounting.
    # Contract: by the time on_low runs, pushed / dropped / drained /
    # peak_occupancy / stalls and ``paused`` all describe the completed
    # drain (``stats.snapshot()`` inside the callback is always consistent).

    def _settle_high(self) -> None:
        """Settle the rising (pause) edge."""
        if (
            not self._paused
            and self.high_watermark is not None
            and len(self._items) >= self.high_watermark
        ):
            self._paused = True
            self.stats.stalls += 1

    def _settle_low(self) -> Optional[Callable[[], None]]:
        """Settle the falling (resume) edge; returns the callback to fire last."""
        if self._paused and len(self._items) <= self.high_watermark // 2:
            self._paused = False
            return self.on_low
        return None

    # -- producer side -----------------------------------------------------

    def push(self, item: T) -> bool:
        """Post one item; returns False (and counts a drop) when full."""
        if self.capacity is not None and len(self._items) >= self.capacity:
            self.stats.dropped += 1
            return False
        self._items.append(item)
        self.stats.pushed += 1
        if len(self._items) > self.stats.peak_occupancy:
            self.stats.peak_occupancy = len(self._items)
        self._settle_high()
        return True

    def push_batch(self, items: Iterable[T]) -> int:
        """Post a burst of items; returns how many were accepted.

        Items beyond the free space are dropped (tail drop), matching ring
        overflow semantics: earlier items of the burst are kept.  The whole
        burst lands with one ``deque.extend`` — the producer-side analogue of
        a ring's bulk write — instead of a Python-level loop of pushes.
        """
        if not isinstance(items, (list, tuple)):
            items = list(items)
        ring = self._items
        capacity = self.capacity
        offered = len(items)
        if capacity is None:
            take = offered
        else:
            take = min(offered, max(0, capacity - len(ring)))
            if take < offered:
                items = items[:take]
        ring.extend(items)
        stats = self.stats
        stats.pushed += take
        stats.dropped += offered - take
        occupancy = len(ring)
        if occupancy > stats.peak_occupancy:
            stats.peak_occupancy = occupancy
        self._settle_high()
        return take

    # -- consumer side -----------------------------------------------------

    def drain(self, limit: Optional[int] = None) -> List[T]:
        """Remove and return up to ``limit`` items in FIFO order.

        One call per scheduling quantum is the intended pattern; the whole
        available batch is returned when ``limit`` is ``None``.  The full
        drain is one ``list()`` + ``clear()`` — the ring's bulk read.
        """
        if limit is not None and limit < 0:
            raise ValueError("limit must be non-negative")
        items = self._items
        if limit is None or limit >= len(items):
            batch = list(items)
            items.clear()
        else:
            popleft = items.popleft
            batch = [popleft() for _ in range(limit)]
        stats = self.stats
        stats.drained += len(batch)
        stats.drain_calls += 1
        edge = self._settle_low()
        if edge is not None:
            edge()
        return batch

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._items)

    @property
    def empty(self) -> bool:
        """True when no items await the consumer."""
        return not self._items


__all__ = ["Mailbox", "MailboxStats"]
