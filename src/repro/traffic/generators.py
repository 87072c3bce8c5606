"""Workload generators for the three evaluation substrates.

* :class:`NeperLikeGenerator` — mimics the ``neper`` load generator used in
  Use Case 1: a large number of long-running TCP-like flows, each with a
  per-flow ``SO_MAX_PACING_RATE``, together targeting a given aggregate rate.
* :class:`RoundRobinAnnotator` + :class:`SyntheticPacketGenerator` — the BESS
  experiments of Use Cases 2 and 3: a packet generator producing batches of
  fixed-size packets spread over N traffic classes round-robin.
* :class:`FlowWorkload` — open-loop flow arrivals (Poisson) with empirical
  sizes for the network simulator (Figure 19).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional

from .distributions import FlowSizeDistribution, PoissonArrivals
from ..core.model.packet import Packet


@dataclass(frozen=True)
class FlowSpec:
    """Static description of one generated flow."""

    flow_id: int
    rate_bps: float
    packet_bytes: int = 1500


class NeperLikeGenerator:
    """Generates packet arrivals for N paced flows at an aggregate target rate.

    Mirrors the Use Case 1 configuration: ``num_flows`` flows (20k in the
    paper), each limited with ``SO_MAX_PACING_RATE`` so the aggregate reaches
    ``aggregate_rate_bps`` (24 Gbps in the paper).  Packets of each flow
    arrive at their flow's rate — the TCP stack upstream of the qdisc is
    modelled as saturating each flow's allowance, with TSQ keeping at most
    ``tsq_limit`` packets of a flow inside the scheduler.
    """

    def __init__(
        self,
        num_flows: int,
        aggregate_rate_bps: float,
        packet_bytes: int = 1500,
        seed: Optional[int] = None,
        jitter: float = 0.05,
        rate_jitter: float = 0.0,
    ) -> None:
        if num_flows <= 0:
            raise ValueError("num_flows must be positive")
        if aggregate_rate_bps <= 0:
            raise ValueError("aggregate_rate_bps must be positive")
        if packet_bytes <= 0:
            raise ValueError("packet_bytes must be positive")
        if not 0.0 <= rate_jitter < 1.0:
            raise ValueError("rate_jitter must be in [0, 1)")
        self.num_flows = num_flows
        self.aggregate_rate_bps = aggregate_rate_bps
        self.packet_bytes = packet_bytes
        self.rng = random.Random(seed)
        self.jitter = jitter
        per_flow = aggregate_rate_bps / num_flows
        # Real flows never share an exact rate; a small multiplicative jitter
        # (renormalised to keep the aggregate) desynchronises their pacing
        # deadlines, which matters for closed-loop (saturated) simulations.
        factors = [
            1.0 + rate_jitter * (2.0 * self.rng.random() - 1.0)
            for _ in range(num_flows)
        ]
        scale = num_flows / sum(factors)
        self.flows = [
            FlowSpec(
                flow_id=flow_id,
                rate_bps=per_flow * factors[flow_id] * scale,
                packet_bytes=packet_bytes,
            )
            for flow_id in range(num_flows)
        ]

    def flow_rates(self) -> dict[int, float]:
        """Mapping of flow id to its pacing rate (bits/second)."""
        return {flow.flow_id: flow.rate_bps for flow in self.flows}

    def packets_for_interval(
        self, start_ns: int, duration_ns: int
    ) -> List[tuple[int, Packet]]:
        """Arrival events ``(arrival_ns, packet)`` within an interval.

        Each flow contributes ``rate * duration / packet_size`` packets spread
        evenly over the interval with small random jitter, which is how a
        saturated paced TCP flow presents packets to the qdisc.
        """
        if duration_ns <= 0:
            raise ValueError("duration_ns must be positive")
        events: List[tuple[int, Packet]] = []
        for flow in self.flows:
            packets = flow.rate_bps * duration_ns / 1e9 / (flow.packet_bytes * 8)
            count = int(packets)
            if self.rng.random() < packets - count:
                count += 1
            if count == 0:
                continue
            spacing = duration_ns / count
            for index in range(count):
                jitter_ns = int(spacing * self.jitter * (self.rng.random() - 0.5))
                arrival = start_ns + int(index * spacing) + jitter_ns
                arrival = min(max(arrival, start_ns), start_ns + duration_ns - 1)
                packet = Packet(
                    flow_id=flow.flow_id,
                    size_bytes=flow.packet_bytes,
                    arrival_ns=arrival,
                )
                events.append((arrival, packet))
        events.sort(key=lambda item: item[0])
        return events

    def expected_packets_per_second(self) -> float:
        """Aggregate packet rate implied by the configuration."""
        return self.aggregate_rate_bps / (self.packet_bytes * 8)


class RoundRobinAnnotator:
    """Assigns packets to ``num_classes`` traffic classes round-robin.

    This is the "simple round robin annotator to distribute packets over
    traffic classes" used in the BESS experiments.
    """

    def __init__(self, num_classes: int) -> None:
        if num_classes <= 0:
            raise ValueError("num_classes must be positive")
        self.num_classes = num_classes
        self._next = 0

    def annotate(self, packet: Packet) -> Packet:
        """Set the packet's flow id (traffic class) and return it."""
        packet.flow_id = self._next
        self._next = (self._next + 1) % self.num_classes
        return packet


class SyntheticPacketGenerator:
    """Produces batches of identical-size packets (the BESS packet source)."""

    def __init__(
        self,
        packet_bytes: int = 1500,
        batch_size: int = 32,
        annotator: Optional[RoundRobinAnnotator] = None,
    ) -> None:
        if packet_bytes <= 0:
            raise ValueError("packet_bytes must be positive")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.packet_bytes = packet_bytes
        self.batch_size = batch_size
        self.annotator = annotator
        self.generated = 0

    def next_batch(self) -> List[Packet]:
        """One batch of packets (annotated when an annotator is configured)."""
        batch = []
        for _ in range(self.batch_size):
            packet = Packet(flow_id=0, size_bytes=self.packet_bytes)
            if self.annotator is not None:
                self.annotator.annotate(packet)
            batch.append(packet)
        self.generated += len(batch)
        return batch

    def batches(self, count: int) -> Iterator[List[Packet]]:
        """Yield ``count`` consecutive batches."""
        for _ in range(count):
            yield self.next_batch()


class OpenLoopBurstSource:
    """NIC-style RX bursts at a fixed offered packet rate (open loop).

    The ingress experiments need to hold a pipeline at a precise multiple of
    its drain capacity — "2× overload" must mean exactly 2×, or the
    backpressure and admission comparisons measure the workload instead of
    the policy.  This source emits ``burst_size`` packets every
    ``burst_size / offered_pps`` seconds, the arrival shape an
    interrupt-coalesced NIC presents to its RX core, regardless of what the
    receiver does with them (open loop: a dropped packet is not re-offered).

    Args:
        offered_pps: aggregate offered rate, packets per second.
        burst_size: packets per RX burst (interrupt coalescing depth).
        packet_bytes: size of every generated packet.
        num_flows: flow-id space; ignored when ``flow_sampler`` is given.
        flow_sampler: optional ``index -> flow_id`` map (e.g. wrap a
            :class:`~repro.traffic.distributions.ZipfFlowSampler` for a
            skewed population); defaults to round-robin over ``num_flows``.
    """

    def __init__(
        self,
        offered_pps: float,
        burst_size: int = 32,
        packet_bytes: int = 1500,
        num_flows: int = 16,
        flow_sampler: Optional[Callable[[int], int]] = None,
    ) -> None:
        if offered_pps <= 0:
            raise ValueError("offered_pps must be positive")
        if burst_size <= 0:
            raise ValueError("burst_size must be positive")
        if packet_bytes <= 0:
            raise ValueError("packet_bytes must be positive")
        if flow_sampler is None and num_flows <= 0:
            raise ValueError("num_flows must be positive")
        self.offered_pps = offered_pps
        self.burst_size = burst_size
        self.packet_bytes = packet_bytes
        self.num_flows = num_flows
        self.flow_sampler = flow_sampler or (lambda index: index % num_flows)
        self.burst_gap_ns = max(1, int(round(burst_size * 1e9 / offered_pps)))

    def bursts(
        self, total_packets: int, start_ns: int = 0
    ) -> Iterator[tuple[int, List[Packet]]]:
        """Yield ``(offer_ns, packets)`` bursts until ``total_packets`` sent.

        The last burst is truncated rather than rounded up, so the offered
        count is exact.
        """
        if total_packets < 0:
            raise ValueError("total_packets must be non-negative")
        emitted = 0
        when_ns = start_ns
        sampler = self.flow_sampler
        size_bytes = self.packet_bytes
        burst_size = self.burst_size
        gap_ns = self.burst_gap_ns
        make = Packet  # positional: flow_id, size_bytes, rank, arrival_ns
        while emitted < total_packets:
            end = min(emitted + burst_size, total_packets)
            burst = [
                make(sampler(index), size_bytes, None, when_ns)
                for index in range(emitted, end)
            ]
            yield when_ns, burst
            emitted = end
            when_ns += gap_ns


@dataclass
class FlowArrival:
    """One flow arrival for the network simulator."""

    flow_id: int
    src: int
    dst: int
    size_bytes: int
    arrival_ns: int


class FlowWorkload:
    """Open-loop flow arrivals over a set of hosts (the Figure 19 workload).

    Flows arrive as a Poisson process at a rate chosen to hit ``target_load``
    of the edge-link capacity; sizes come from the named empirical
    distribution; sources and destinations are picked uniformly among
    distinct hosts.

    Seeding contract (three independent random streams feed the workload —
    flow sizes, inter-arrival gaps, and src/dst picks):

    * ``seed=<int>`` — every stream is derived deterministically from the
      seed (``seed``, ``seed + 1``, ``seed + 2``); two workloads built with
      the same arguments generate identical flows, run after run.
    * ``rng=<random.Random>`` — the sub-stream seeds are drawn from ``rng``
      instead, so reproducibility follows from the *caller's* generator
      state; this is how the sharding benchmarks keep multi-workload sweeps
      reproducible without hand-assigning a seed per configuration.
    * both ``None`` — streams are seeded from OS entropy (non-reproducible).

    ``seed`` and ``rng`` are mutually exclusive.
    """

    def __init__(
        self,
        num_hosts: int,
        link_bps: float,
        target_load: float,
        workload: str = "websearch",
        seed: Optional[int] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        if num_hosts < 2:
            raise ValueError("need at least two hosts")
        if seed is not None and rng is not None:
            raise ValueError("pass either seed or rng, not both")
        from .distributions import load_for_fabric

        if rng is not None:
            # Derive one master seed from the caller's generator so all three
            # sub-streams are pinned by its state (see the seeding contract).
            seed = rng.randrange(1 << 62)
        self.num_hosts = num_hosts
        self.link_bps = link_bps
        self.target_load = target_load
        self.sizes = FlowSizeDistribution(workload, seed=seed)
        rate = load_for_fabric(
            target_load, link_bps, num_hosts, self.sizes.mean_bytes()
        )
        self.arrivals = PoissonArrivals(rate, seed=None if seed is None else seed + 1)
        self.rng = random.Random(None if seed is None else seed + 2)

    def generate(self, num_flows: int, start_ns: int = 0) -> List[FlowArrival]:
        """Generate ``num_flows`` flow arrivals."""
        flows: List[FlowArrival] = []
        now = start_ns
        for flow_id in range(num_flows):
            now += self.arrivals.next_gap_ns()
            src = self.rng.randrange(self.num_hosts)
            dst = self.rng.randrange(self.num_hosts - 1)
            if dst >= src:
                dst += 1
            flows.append(
                FlowArrival(
                    flow_id=flow_id,
                    src=src,
                    dst=dst,
                    size_bytes=self.sizes.sample_bytes(),
                    arrival_ns=now,
                )
            )
        return flows


__all__ = [
    "FlowArrival",
    "FlowSpec",
    "FlowWorkload",
    "NeperLikeGenerator",
    "OpenLoopBurstSource",
    "RoundRobinAnnotator",
    "SyntheticPacketGenerator",
]
