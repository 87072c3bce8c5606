"""``OpenLoopBurstSource``: offer times, burst sizes and the packets it builds."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.model.packet import Packet
from repro.traffic import OpenLoopBurstSource


def _drain(source, total, start_ns=0):
    return list(source.bursts(total, start_ns=start_ns))


def test_offer_times_step_by_the_burst_gap():
    source = OpenLoopBurstSource(offered_pps=1e6, burst_size=32)
    assert source.burst_gap_ns == 32_000
    bursts = _drain(source, 32 * 5, start_ns=7)
    assert [when for when, _ in bursts] == [7 + 32_000 * i for i in range(5)]
    for when, burst in bursts:
        assert all(packet.arrival_ns == when for packet in burst)


def test_gap_rounds_and_never_falls_below_one_ns():
    assert OpenLoopBurstSource(offered_pps=3e6, burst_size=2).burst_gap_ns == 667
    assert OpenLoopBurstSource(offered_pps=1e12, burst_size=1).burst_gap_ns == 1


def test_last_burst_is_truncated_to_the_exact_count():
    source = OpenLoopBurstSource(offered_pps=1e6, burst_size=32)
    sizes = [len(burst) for _, burst in _drain(source, 70)]
    assert sizes == [32, 32, 6]


def test_zero_packets_yield_no_burst_and_negative_is_rejected():
    source = OpenLoopBurstSource(offered_pps=1e6)
    assert _drain(source, 0) == []
    with pytest.raises(ValueError):
        _drain(source, -1)


def test_sampler_sees_consecutive_indices_once_each():
    seen = []

    def sampler(index):
        seen.append(index)
        return index * 3

    source = OpenLoopBurstSource(offered_pps=1e6, burst_size=8, flow_sampler=sampler)
    flows = [packet.flow_id for _, burst in _drain(source, 29) for packet in burst]
    assert seen == list(range(29))
    assert flows == [index * 3 for index in range(29)]


def test_default_sampler_is_round_robin():
    source = OpenLoopBurstSource(offered_pps=1e6, burst_size=4, num_flows=3)
    flows = [packet.flow_id for _, burst in _drain(source, 10) for packet in burst]
    assert flows == [index % 3 for index in range(10)]


def test_packets_equal_keyword_built_ones():
    source = OpenLoopBurstSource(
        offered_pps=2e6, burst_size=5, packet_bytes=900, num_flows=7
    )
    packets = []
    for when, burst in _drain(source, 23, start_ns=100):
        for packet in burst:
            index = len(packets)
            reference = Packet(flow_id=index % 7, size_bytes=900, arrival_ns=when)
            for field in dataclasses.fields(Packet):
                if field.name != "packet_id":
                    assert getattr(packet, field.name) == getattr(
                        reference, field.name
                    ), field.name
            packets.append(packet)
    assert all(packet.metadata == {} for packet in packets)
    assert len({id(packet.metadata) for packet in packets}) == len(packets)
    ids = [packet.packet_id for packet in packets]
    assert ids == sorted(ids) and len(set(ids)) == len(ids)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"offered_pps": 0},
        {"offered_pps": 1e6, "burst_size": 0},
        {"offered_pps": 1e6, "packet_bytes": 0},
        {"offered_pps": 1e6, "num_flows": 0},
    ],
)
def test_rejects_bad_arguments(kwargs):
    with pytest.raises(ValueError):
        OpenLoopBurstSource(**kwargs)
