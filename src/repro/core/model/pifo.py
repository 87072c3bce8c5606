"""The PIFO building block, generalised over Eiffel's integer queues.

A Push-In-First-Out (PIFO) queue admits elements at arbitrary rank positions
but only releases the head (the minimum-rank element).  The hardware PIFO of
Sivaraman et al. implements this with parallel comparisons and is limited to
~2048 flows; Eiffel's insight is that a software PIFO backed by a bucketed
integer priority queue gives the same abstraction with O(1) operations and no
capacity cliff.

:class:`PIFOBlock` is that software PIFO.  It stores arbitrary elements
(packets, flows, child-node references) keyed by integer rank, and — because
the underlying bucketed queues support cheap removal — also supports
*reordering*: removing an element and re-pushing it with a new rank, which is
what Eiffel's per-flow and on-dequeue primitives need.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

from ..queues import BucketSpec, CircularFFSQueue, EmptyQueueError, IntegerPriorityQueue

#: Factory signature used wherever a PIFO needs to build its backing queue.
QueueFactory = Callable[[BucketSpec], IntegerPriorityQueue]


def default_queue_factory(spec: BucketSpec) -> IntegerPriorityQueue:
    """Default backing queue: the circular hierarchical FFS queue (cFFS)."""
    return CircularFFSQueue(spec)


class PIFOBlock:
    """A software PIFO: push at any rank, pop the minimum rank.

    Args:
        spec: bucket layout for the backing integer queue.
        queue_factory: callable building the backing queue; defaults to cFFS.
        name: optional label used in scheduler descriptions and repr.
    """

    def __init__(
        self,
        spec: BucketSpec,
        queue_factory: QueueFactory = default_queue_factory,
        name: str = "pifo",
    ) -> None:
        self.spec = spec
        self.name = name
        self.queue = queue_factory(spec)
        self._membership: dict[int, tuple[int, Any]] = {}

    # -- core operations -------------------------------------------------------

    def push(self, rank: int, element: Any) -> None:
        """Insert ``element`` at ``rank``."""
        self.queue.enqueue(rank, element)
        self._membership[id(element)] = (rank, element)

    def pop(self) -> tuple[int, Any]:
        """Remove and return ``(rank, element)`` with the smallest rank."""
        rank, element = self.queue.extract_min()
        self._membership.pop(id(element), None)
        return rank, element

    def peek(self) -> tuple[int, Any]:
        """Return ``(rank, element)`` with the smallest rank without removing it."""
        return self.queue.peek_min()

    def push_batch(self, pairs: Iterable[tuple[int, Any]]) -> int:
        """Insert many ``(rank, element)`` pairs through the queue's batch path."""
        pairs = list(pairs)
        count = self.queue.enqueue_batch(pairs)
        for rank, element in pairs:
            self._membership[id(element)] = (rank, element)
        return count

    def pop_batch(self, n: int) -> list[tuple[int, Any]]:
        """Remove up to ``n`` minimum-rank elements in one batched call."""
        batch = self.queue.extract_min_batch(n)
        for _rank, element in batch:
            self._membership.pop(id(element), None)
        return batch

    def remove(self, element: Any) -> bool:
        """Remove ``element`` wherever it currently sits; True when found.

        Requires the backing queue to support ``remove`` (cFFS and every
        fixed-range bucketed queue do).  Over a queue that cannot — the
        comparison-based baselines — removing a member raises instead of
        reporting a miss, because a ``reinsert`` that went on to push would
        leave the element in twice.

        Raises:
            TypeError: ``element`` is enqueued and the backing queue has no
                ``remove``.
        """
        entry = self._membership.get(id(element))
        if entry is None:
            return False
        rank, stored = entry
        remover = getattr(self.queue, "remove", None)
        if remover is None:
            raise TypeError(
                f"{type(self.queue).__name__} does not support remove(); "
                f"PIFO {self.name!r} cannot remove or reinsert an enqueued element"
            )
        if remover(rank, stored):
            del self._membership[id(element)]
            return True
        return False

    def reinsert(self, element: Any, new_rank: int) -> None:
        """Move ``element`` to ``new_rank`` (remove + push); pushes if absent.

        This is the reordering operation the per-flow primitive relies on:
        when a flow's rank changes, the flow handle is relocated in O(1).
        """
        self.remove(element)
        self.push(new_rank, element)

    # -- informational ------------------------------------------------------------

    def rank_of(self, element: Any) -> Optional[int]:
        """Current rank of ``element``, or ``None`` when not enqueued."""
        entry = self._membership.get(id(element))
        return entry[0] if entry else None

    def __contains__(self, element: Any) -> bool:
        return id(element) in self._membership

    def __len__(self) -> int:
        return len(self.queue)

    @property
    def empty(self) -> bool:
        """True when the PIFO holds no elements."""
        return len(self.queue) == 0

    def min_rank(self) -> Optional[int]:
        """Smallest rank currently enqueued, or ``None`` when empty."""
        if self.empty:
            return None
        try:
            rank, _ = self.queue.peek_min()
        except EmptyQueueError:  # pragma: no cover - guarded by self.empty
            return None
        return rank

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PIFOBlock(name={self.name!r}, size={len(self)})"


__all__ = ["PIFOBlock", "QueueFactory", "default_queue_factory"]
