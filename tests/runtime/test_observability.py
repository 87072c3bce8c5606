"""The deterministic observability plane: histograms, tracer, timeline.

Three layers of coverage.  Property tests pin :class:`LogHistogram` against
a sorted-list reference — ``quantile()`` must stay inside the documented
bucket error bound for *any* sample set, and ``merge()`` must commute and
associate so per-shard histograms can fold in any order.  Unit tests pin the
:class:`FlightRecorder` ring discipline and Chrome trace-event schema and
the :class:`MetricsTimeline` exporters.  Integration tests arm the full
plane on a real runtime and assert the two contracts that make it safe to
ship: arming changes **no modelled cycle account** (the instruments observe
the cost model, they never participate in it), and the same seed replays
the same histograms, trace, and timeline byte for byte.  Last,
``BENCH_observability.json``'s disarmed modelled block is rebuilt at full
size from the artifact's own ``workload`` block (the recipe is restated
here, so the pin does not depend on ``benchmarks/bench_observability.py``).
"""

import json
import pickle
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model.packet import Packet
from repro.runtime import (
    FaultEvent,
    FaultPlan,
    FlightRecorder,
    LogHistogram,
    MetricsTimeline,
    ShardedRuntime,
)
from repro.runtime.observability import MAX_TRACKABLE_NS, _ceil_rank

#: Latency-like magnitudes: sub-microsecond up to ~18 minutes in ns.
sample_values = st.integers(min_value=0, max_value=10**12)
sample_lists = st.lists(sample_values, min_size=1, max_size=300)


def _filled(values, precision=7):
    histogram = LogHistogram(precision)
    for value in values:
        histogram.record(value)
    return histogram


class TestLogHistogramProperties:
    @given(values=sample_lists, q=st.floats(min_value=0.0, max_value=1.0))
    def test_quantile_within_documented_bound_of_sorted_reference(self, values, q):
        histogram = _filled(values)
        ordered = sorted(values)
        exact = ordered[min(len(values), max(1, _ceil_rank(q, len(values)))) - 1]
        estimate = histogram.quantile(q)
        assert exact <= estimate <= exact + (exact >> histogram.precision)

    @given(values=sample_lists)
    def test_count_sum_min_max_mean_are_exact(self, values):
        histogram = _filled(values)
        assert histogram.count == len(values)
        assert histogram.sum == sum(values)
        assert histogram.min_value == min(values)
        assert histogram.max_value == max(values)
        assert histogram.mean == pytest.approx(sum(values) / len(values))

    @given(a=sample_lists, b=sample_lists)
    def test_merge_commutes(self, a, b):
        left = _filled(a).merge(_filled(b))
        right = _filled(b).merge(_filled(a))
        assert left == right

    @given(a=sample_lists, b=sample_lists, c=sample_lists)
    def test_merge_associates(self, a, b, c):
        ha, hb, hc = _filled(a), _filled(b), _filled(c)
        left = _filled(a).merge(_filled(b)).merge(hc.snapshot())
        right = ha.snapshot().merge(_filled(b).merge(_filled(c)))
        assert left == right

    @given(a=sample_lists, b=sample_lists)
    def test_merge_equals_bulk_record(self, a, b):
        assert _filled(a).merge(_filled(b)) == _filled(a + b)

    @given(values=sample_lists)
    def test_pickle_round_trip_preserves_equality(self, values):
        original = _filled(values)
        assert pickle.loads(pickle.dumps(original)) == original

    @settings(max_examples=25)
    @given(values=st.lists(sample_values, min_size=1, max_size=50))
    def test_aggregate_matches_pairwise_merge(self, values):
        shards = [_filled(values[i::3]) for i in range(3)]
        total = LogHistogram.aggregate(h.snapshot() for h in shards)
        expected = _filled(values[0::3] + values[1::3] + values[2::3])
        assert total == expected


class TestLogHistogramEdges:
    def test_negative_values_clamp_to_zero(self):
        histogram = _filled([-5])
        assert histogram.min_value == 0
        assert histogram.quantile(1.0) == 0

    def test_huge_values_clamp_to_max_trackable(self):
        histogram = _filled([MAX_TRACKABLE_NS * 10])
        assert histogram.max_value == MAX_TRACKABLE_NS
        assert histogram.quantile(1.0) == MAX_TRACKABLE_NS

    def test_empty_histogram_reads_as_zero(self):
        histogram = LogHistogram()
        assert histogram.count == 0
        assert histogram.mean == 0.0
        assert histogram.quantile(0.99) == 0
        assert histogram.min_value is None

    def test_unit_buckets_are_exact(self):
        # Values below 2**precision land in width-1 buckets: zero error.
        histogram = _filled(range(128))
        for q, exact in ((0.5, 63), (1.0, 127)):
            assert histogram.quantile(q) == exact

    def test_reset_zeroes_everything(self):
        histogram = _filled([1, 10**6])
        histogram.reset()
        assert histogram == LogHistogram()

    def test_merge_rejects_precision_mismatch(self):
        with pytest.raises(ValueError, match="precision"):
            LogHistogram(precision=7).merge(LogHistogram(precision=5))

    def test_invalid_precision_rejected(self):
        with pytest.raises(ValueError, match="precision"):
            LogHistogram(precision=0)

    def test_invalid_quantile_rejected(self):
        with pytest.raises(ValueError, match="q must be"):
            LogHistogram().quantile(1.5)

    def test_as_dict_is_json_friendly(self):
        row = _filled([100, 200, 300]).as_dict()
        assert row["count"] == 3
        assert row["p50_ns"] >= 200
        json.dumps(row)  # must not raise

    def test_nonzero_buckets_cover_every_sample(self):
        values = [3, 500, 123_456]
        total = sum(count for _lo, _hi, count in _filled(values).nonzero())
        assert total == len(values)


class TestFlightRecorder:
    def test_ring_keeps_newest_and_counts_drops(self):
        recorder = FlightRecorder(capacity=4)
        for i in range(10):
            recorder.emit(i * 100, "shard-0", f"event-{i}")
        assert len(recorder) == 4
        assert recorder.recorded == 10
        assert recorder.dropped == 6
        assert [name for _ts, _track, name, _args in recorder.events()] == [
            "event-6", "event-7", "event-8", "event-9",
        ]

    def test_counts_by_track(self):
        recorder = FlightRecorder()
        recorder.emit(0, "shard-0", "a")
        recorder.emit(1, "shard-0", "b")
        recorder.emit(2, "rx-0", "c")
        assert recorder.counts_by_track() == {"shard-0": 2, "rx-0": 1}

    def test_chrome_trace_schema(self):
        recorder = FlightRecorder()
        recorder.emit(1500, "shard-0", "drain_batch", {"released": 3})
        recorder.emit(2000, "supervisor", "fault_recover")
        trace = recorder.to_chrome_trace()
        assert set(trace) == {"traceEvents", "displayTimeUnit"}
        events = trace["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        instants = [e for e in events if e["ph"] == "i"]
        assert [m["args"]["name"] for m in metadata] == ["shard-0", "supervisor"]
        assert all(e["name"] == "thread_name" for e in metadata)
        assert [e["ts"] for e in instants] == [1.5, 2.0]  # ns -> us
        assert all(e["s"] == "t" and e["pid"] == 0 for e in instants)
        assert instants[0]["args"] == {"released": 3}
        # Tracks map to distinct tids; metadata and instants agree on them.
        assert instants[0]["tid"] != instants[1]["tid"]
        json.dumps(trace)  # Perfetto needs real JSON

    def test_clear_resets_drop_accounting(self):
        recorder = FlightRecorder(capacity=1)
        recorder.emit(0, "shard-0", "a")
        recorder.emit(1, "shard-0", "b")
        recorder.clear()
        assert len(recorder) == 0 and recorder.recorded == 0 and recorder.dropped == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            FlightRecorder(capacity=0)


class TestMetricsTimeline:
    def test_samples_accumulate_in_order(self):
        timeline = MetricsTimeline(interval_ns=1000)
        timeline.sample(1000, {"pending": 5})
        timeline.sample(2000, {"pending": 2})
        assert len(timeline) == 2
        series = timeline.as_dict()
        assert series["interval_ns"] == 1000
        assert [s["ts_ns"] for s in series["samples"]] == [1000, 2000]

    def test_prometheus_renders_scalars_and_labelled_maps(self):
        timeline = MetricsTimeline()
        timeline.sample(100, {"pending": 7, "backlog": {"0": 3, "1": 0}})
        text = timeline.to_prometheus()
        assert "# TYPE repro_backlog gauge" in text
        assert 'repro_backlog{id="0"} 3' in text
        assert "repro_pending 7" in text
        assert text.endswith("\n")

    def test_prometheus_scrapes_only_the_last_sample(self):
        timeline = MetricsTimeline()
        timeline.sample(100, {"pending": 7})
        timeline.sample(200, {"pending": 1})
        assert "repro_pending 1" in timeline.to_prometheus()
        assert "repro_pending 7" not in timeline.to_prometheus()

    def test_empty_timeline_renders_empty(self):
        assert MetricsTimeline().to_prometheus() == ""

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError, match="interval_ns"):
            MetricsTimeline(interval_ns=0)


#: Slow pacing so packets genuinely wait in queues (non-trivial latencies).
RATE_BPS = 1e9
PACKET_BYTES = 1500


def _run(
    *,
    latency_histograms=False,
    tracer=None,
    metrics_timeline=None,
    fault_plan=None,
    ingress_cores=0,
    packets=240,
    flows=12,
    shards=4,
):
    runtime = ShardedRuntime(
        shards,
        default_rate_bps=RATE_BPS,
        steal_enabled=True,
        steal_min_backlog=4,
        ingress_cores=ingress_cores,
        latency_histograms=latency_histograms,
        tracer=tracer,
        metrics_timeline=metrics_timeline,
        fault_plan=fault_plan,
    )
    # Zipf-ish skew: low flow ids dominate, so stealing actually fires.
    for i in range(packets):
        flow_id = (i * i) % flows
        runtime.submit(Packet(flow_id=flow_id, size_bytes=PACKET_BYTES))
    runtime.run()
    return runtime


class TestRuntimeIntegration:
    def test_arming_the_full_plane_changes_no_modelled_account(self):
        disarmed = _run(ingress_cores=2)
        armed = _run(
            ingress_cores=2,
            latency_histograms=True,
            tracer=FlightRecorder(),
            metrics_timeline=MetricsTimeline(interval_ns=50_000),
        )
        bare, instrumented = disarmed.telemetry(), armed.telemetry()
        assert instrumented.total_cycles == bare.total_cycles
        assert instrumented.max_shard_cycles == bare.max_shard_cycles
        assert instrumented.max_ingress_cycles == bare.max_ingress_cycles
        assert instrumented.transmitted == bare.transmitted
        # Packet ids are process-global, so compare (time, flow) schedules.
        armed_schedule = [(ts, p.flow_id) for ts, p in armed.transmit_log]
        bare_schedule = [(ts, p.flow_id) for ts, p in disarmed.transmit_log]
        assert armed_schedule == bare_schedule

    def test_armed_seams_populate_histograms(self):
        runtime = _run(latency_histograms=True, ingress_cores=2)
        latency = runtime.telemetry().latency
        assert set(latency) == {"rx_sojourn", "mailbox_wait", "queue_sojourn", "e2e"}
        transmitted = runtime.telemetry().transmitted
        assert latency["e2e"].count == transmitted
        assert latency["queue_sojourn"].count == transmitted
        assert latency["mailbox_wait"].count >= transmitted
        # Paced drain means end-to-end dominates any single component.
        assert latency["e2e"].max_value >= latency["queue_sojourn"].max_value

    def test_disarmed_run_reports_no_component_seams(self):
        latency = _run(ingress_cores=0).telemetry().latency
        assert latency == {}

    def test_rx_sojourn_is_always_on_with_ingress_cores(self):
        telemetry = _run(ingress_cores=2).telemetry()
        assert set(telemetry.latency) == {"rx_sojourn"}
        per_lane = sum(lane.sojourn.count for lane in telemetry.ingress)
        assert telemetry.latency["rx_sojourn"].count == per_lane > 0

    def test_tracer_covers_every_expected_track_and_seam(self):
        recorder = FlightRecorder()
        runtime = _run(tracer=recorder, ingress_cores=2)
        names = {name for _ts, _track, name, _args in recorder.events()}
        assert {"ingress_pull", "mailbox_handoff", "drain_batch"} <= names
        assert {"lease_grant", "lease_return"} <= names  # stealing fired
        tracks = recorder.counts_by_track()
        assert {"rx-0", "rx-1"} <= set(tracks)
        assert any(track.startswith("shard-") for track in tracks)
        assert runtime.telemetry().steals_succeeded > 0

    def test_direct_submit_traces_one_handoff_per_shard_group(self):
        # With no RX cores, submit_batch lands each shard's group through the
        # same handoff the RX pull uses, so each group leaves one
        # mailbox_handoff event with what was offered and what was taken.
        recorder = FlightRecorder()
        runtime = ShardedRuntime(4, tracer=recorder, mailbox_capacity=3)
        packets = [Packet(flow_id=i % 8, size_bytes=PACKET_BYTES) for i in range(24)]
        offered = {}
        for packet in packets:
            shard = runtime.sharder.shard_for(packet.flow_id)
            offered[shard] = offered.get(shard, 0) + 1
        expected = [
            (f"shard-{shard}", {"offered": count, "accepted": min(count, 3)})
            for shard, count in offered.items()
        ]
        assert runtime.submit_batch(packets) == sum(min(count, 3) for count in offered.values())
        handoffs = [
            (track, args) for _ts, track, name, args in recorder.events()
            if name == "mailbox_handoff"
        ]
        assert handoffs == expected
        assert any(args["accepted"] < args["offered"] for _track, args in handoffs)

    def test_fault_events_land_in_trace_with_recovery_timestamps(self):
        recorder = FlightRecorder()
        plan = FaultPlan([FaultEvent("shard_crash", target=0, at=3)])
        runtime = _run(tracer=recorder, fault_plan=plan, latency_histograms=True)
        injects = [e for e in recorder.events() if e[2] == "fault_inject"]
        recovers = [e for e in recorder.events() if e[2] == "fault_recover"]
        assert [e[3]["kind"] for e in injects] == ["shard_crash"]
        assert len(recovers) == 1
        log = runtime.telemetry().faults["recovery_log"]
        assert len(log) == 1
        assert recovers[0][3]["failed_at_ns"] == log[0]["failed_at_ns"]
        assert recovers[0][3]["packets_lost"] == log[0]["packets_lost"]
        # Crashed-incarnation histograms fold into the merged telemetry.
        latency = runtime.telemetry().latency
        assert latency["e2e"].count == runtime.telemetry().transmitted

    def test_same_seed_replays_identical_observability(self):
        def observe():
            recorder = FlightRecorder()
            timeline = MetricsTimeline(interval_ns=50_000)
            runtime = _run(
                latency_histograms=True,
                tracer=recorder,
                metrics_timeline=timeline,
                ingress_cores=1,
            )
            return runtime.telemetry().latency, recorder, timeline

        latency_a, recorder_a, timeline_a = observe()
        latency_b, recorder_b, timeline_b = observe()
        assert latency_a == latency_b
        assert recorder_a.events() == recorder_b.events()
        assert recorder_a.to_chrome_trace() == recorder_b.to_chrome_trace()
        assert timeline_a.as_dict() == timeline_b.as_dict()

    def test_timeline_samples_while_work_is_in_flight(self):
        timeline = MetricsTimeline(interval_ns=50_000)
        runtime = _run(metrics_timeline=timeline)
        assert len(timeline) > 0
        first = timeline.samples[0]
        gauges = first["gauges"]
        assert set(gauges) >= {
            "pending_packets", "live_flows", "shard_backlog", "shard_cycles",
        }
        assert set(gauges["shard_backlog"]) == {"0", "1", "2", "3"}
        assert timeline.to_prometheus().startswith("# TYPE repro_")
        # The sampler disarms once the run drains: no trailing idle samples.
        drained_at = runtime.simulator.now_ns
        assert timeline.samples[-1]["ts_ns"] <= drained_at

    def test_process_backend_merges_per_shard_histograms(self):
        def telemetry_for(backend):
            runtime = ShardedRuntime(
                2,
                default_rate_bps=RATE_BPS,
                latency_histograms=True,
                backend=backend,
            )
            for i in range(80):
                runtime.submit(Packet(flow_id=i % 8, size_bytes=PACKET_BYTES))
            runtime.run()
            return runtime.telemetry()

        simulated = telemetry_for("simulated")
        process = telemetry_for("process")
        assert set(process.latency) == {"mailbox_wait", "queue_sojourn", "e2e"}
        assert process.latency == simulated.latency


ARTIFACT = Path(__file__).resolve().parent.parent.parent / "BENCH_observability.json"


def test_bench_observability_disarmed_block_rebuilds_from_its_workload_block():
    # Zipf traffic into four shards behind two RX cores with stealing on:
    # the steal checks run on every tick, so this pins them too.
    committed = json.loads(ARTIFACT.read_text())
    workload = committed["workload"]
    rng = random.Random(workload["seed"])
    weights = [
        1.0 / (rank + 1) ** workload["zipf_skew"] for rank in range(workload["num_flows"])
    ]
    flow_ids = rng.choices(
        range(workload["num_flows"]), weights=weights, k=workload["num_packets"]
    )
    runtime = ShardedRuntime(
        workload["num_shards"],
        default_rate_bps=workload["flow_rate_bps"],
        quantum_ns=workload["quantum_ns"],
        steal_enabled=True,
        steal_min_backlog=4,
        ingress_cores=workload["ingress_cores"],
        record_transmits=False,
    )
    burst = workload["burst"]
    for index in range(0, len(flow_ids), burst):
        runtime.submit_at(
            (index // burst) * workload["burst_gap_ns"],
            [
                Packet(flow_id=flow_id, size_bytes=workload["packet_bytes"])
                for flow_id in flow_ids[index : index + burst]
            ],
        )
    runtime.run()
    telemetry = runtime.telemetry()
    assert telemetry.packets_stolen > 0
    assert {
        "total_cycles": telemetry.total_cycles,
        "max_shard_cycles": telemetry.max_shard_cycles,
        "max_ingress_cycles": telemetry.max_ingress_cycles,
        "steal_cycles": telemetry.steal_cycles,
        "transmitted": telemetry.transmitted,
    } == committed["modelled"]["disarmed"]
