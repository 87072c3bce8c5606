"""Packet and flow abstractions shared by every scheduler and substrate."""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterator, Optional

#: Monotonic packet identifier source (per-process).
_packet_ids = itertools.count()


@dataclass(slots=True, eq=False)
class Packet:
    """A packet as seen by the scheduler.

    Slotted (no per-packet ``__dict__``) and compared by identity: every
    constructed packet draws a unique ``packet_id``, so field equality only
    ever held between a packet and a copy of it, and removing a packet from
    a list no longer compares eight fields per candidate.

    Attributes:
        flow_id: identifier of the flow/class the packet belongs to.
        size_bytes: wire size of the packet (payload + headers).
        rank: the rank assigned by the packet annotator / enqueue component.
            ``None`` until the scheduler computes it.  The sharded runtime
            (:mod:`repro.runtime`) writes a packet's send time here when a
            shard stamps it: a shaper's send time is its enqueue rank.
        arrival_ns: arrival timestamp in nanoseconds (set by the substrate).
        departure_ns: transmission timestamp, filled on dequeue.
        priority_class: optional class annotation used by strict-priority or
            multi-queue policies.
        metadata: free-form per-packet annotations (e.g. deadline, slack,
            remaining flow size) written by the packet annotator and read by
            ranking functions.
        packet_id: unique identifier for tracing and test assertions.
    """

    flow_id: int
    size_bytes: int = 1500
    rank: Optional[int] = None
    arrival_ns: int = 0
    departure_ns: Optional[int] = None
    priority_class: int = 0
    metadata: Dict[str, Any] = field(default_factory=dict)
    packet_id: int = field(default_factory=_packet_ids.__next__)

    def annotate(self, **annotations: Any) -> "Packet":
        """Attach annotations (returns self for chaining)."""
        self.metadata.update(annotations)
        return self

    @property
    def size_bits(self) -> int:
        """Packet size in bits."""
        return self.size_bytes * 8

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet(id={self.packet_id}, flow={self.flow_id}, "
            f"size={self.size_bytes}, rank={self.rank})"
        )


@dataclass
class FlowState:
    """Mutable per-flow scheduler state (the ``f.*`` variables of Figure 6/11/14).

    The ranking functions of per-flow scheduling transactions read and update
    these fields; the dictionary ``extra`` holds policy-specific values such
    as hClock's three tags.
    """

    flow_id: int
    rank: int = 0
    weight: float = 1.0
    rate_limit_bps: Optional[float] = None
    extra: Dict[str, Any] = field(default_factory=dict)
    enqueued_packets: int = 0
    enqueued_bytes: int = 0
    dequeued_packets: int = 0
    dequeued_bytes: int = 0

    @property
    def backlog_packets(self) -> int:
        """Packets currently queued for this flow."""
        return self.enqueued_packets - self.dequeued_packets

    @property
    def backlog_bytes(self) -> int:
        """Bytes currently queued for this flow."""
        return self.enqueued_bytes - self.dequeued_bytes


class Flow:
    """A flow: FIFO of its packets plus its scheduler state.

    The Eiffel per-flow primitive assumes "a sequence of packets that belong
    to a single flow should not be reordered by the scheduler", so packets of
    one flow always leave in arrival order; only the flow's position relative
    to other flows changes.
    """

    def __init__(self, flow_id: int, weight: float = 1.0) -> None:
        self.state = FlowState(flow_id=flow_id, weight=weight)
        self._packets: Deque[Packet] = deque()

    @property
    def flow_id(self) -> int:
        """Identifier of this flow."""
        return self.state.flow_id

    @property
    def rank(self) -> int:
        """Current flow rank (position among flows)."""
        return self.state.rank

    @rank.setter
    def rank(self, value: int) -> None:
        self.state.rank = value

    def push(self, packet: Packet) -> None:
        """Append a packet to the flow FIFO and update byte/packet counters."""
        self._packets.append(packet)
        self.state.enqueued_packets += 1
        self.state.enqueued_bytes += packet.size_bytes

    def pop(self) -> Packet:
        """Remove and return the oldest packet of the flow."""
        packet = self._packets.popleft()
        self.state.dequeued_packets += 1
        self.state.dequeued_bytes += packet.size_bytes
        return packet

    def front(self) -> Optional[Packet]:
        """The oldest queued packet, or ``None`` when the flow is idle."""
        return self._packets[0] if self._packets else None

    def __len__(self) -> int:
        return len(self._packets)

    @property
    def empty(self) -> bool:
        """True when the flow has no queued packets."""
        return not self._packets

    @property
    def backlog_bytes(self) -> int:
        """Bytes currently queued."""
        return self.state.backlog_bytes

    def __iter__(self) -> Iterator[Packet]:
        return iter(self._packets)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Flow(id={self.flow_id}, backlog={len(self)}, rank={self.rank})"


class FlowTable:
    """Lazily-created mapping of flow id to :class:`Flow`."""

    def __init__(self) -> None:
        self._flows: Dict[int, Flow] = {}

    def get(self, flow_id: int, weight: float = 1.0) -> Flow:
        """Return the flow for ``flow_id``, creating it if needed."""
        flow = self._flows.get(flow_id)
        if flow is None:
            flow = Flow(flow_id, weight=weight)
            self._flows[flow_id] = flow
        return flow

    def existing(self, flow_id: int) -> Optional[Flow]:
        """Return the flow if it exists, without creating it."""
        return self._flows.get(flow_id)

    def remove(self, flow_id: int) -> None:
        """Drop a flow from the table (used by garbage collection)."""
        self._flows.pop(flow_id, None)

    def __len__(self) -> int:
        return len(self._flows)

    def __iter__(self) -> Iterator[Flow]:
        return iter(self._flows.values())

    def active_flows(self) -> list[Flow]:
        """Flows that currently have queued packets."""
        return [flow for flow in self._flows.values() if not flow.empty]


__all__ = ["Flow", "FlowState", "FlowTable", "Packet"]
