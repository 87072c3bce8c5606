"""The ``[observability]`` block: schema, validation, and end-to-end runs.

The declarative plane must behave exactly like the programmatic one: an
armed spec compiles a runtime with the tracer/timeline/histograms attached,
a disarmed spec compiles the byte-identical default, the ``p99_latency_ns``
bound is evaluated against the end-to-end histogram, and the same seed
replays the same trace and timeline through the whole scenario pipeline.
"""

import pytest

from repro.scenario import (
    AssertionSpec,
    BackendIncompatibleError,
    MalformedSpecError,
    ObservabilitySpec,
    PolicyTreeSpec,
    RuntimeSpec,
    ScenarioSpec,
    ScenarioSpecError,
    TopologySpec,
    TrafficSpec,
    UnknownNameError,
    compile_scenario,
    dump_toml,
    load_toml,
    run_scenario,
    validate,
)


def _spec(**overrides):
    """A small paced runtime scenario that finishes fast but queues packets."""
    defaults = dict(
        name="obs",
        seed=11,
        topology=TopologySpec(kind="runtime"),
        runtime=RuntimeSpec(shards=2),
        traffic=TrafficSpec(pattern="zipf", num_flows=8, total_packets=160),
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def _reject(spec, error_type, field_name):
    for entry in (validate, compile_scenario):
        with pytest.raises(error_type) as excinfo:
            entry(spec)
        assert excinfo.value.field == field_name
        assert isinstance(excinfo.value, ScenarioSpecError)


class TestSchema:
    def test_toml_round_trip_of_an_armed_block(self):
        spec = _spec(
            observability=ObservabilitySpec(
                latency_histograms=True,
                tracer=True,
                trace_capacity=4096,
                timeline=True,
                timeline_interval_ns=25_000,
            ),
            assertions=AssertionSpec(p99_latency_ns=5_000_000),
        )
        text = dump_toml(spec)
        assert "[observability]" in text
        assert load_toml(text) == spec

    def test_disarmed_block_is_the_default(self):
        assert _spec().observability == ObservabilitySpec()
        assert load_toml(dump_toml(_spec())).observability == ObservabilitySpec()


class TestValidation:
    def test_p99_bound_needs_histograms(self):
        _reject(
            _spec(assertions=AssertionSpec(p99_latency_ns=1_000_000)),
            UnknownNameError,
            "assertions.p99_latency_ns",
        )

    def test_p99_bound_must_be_positive(self):
        _reject(
            _spec(
                observability=ObservabilitySpec(latency_histograms=True),
                assertions=AssertionSpec(p99_latency_ns=0),
            ),
            MalformedSpecError,
            "assertions.p99_latency_ns",
        )

    @pytest.mark.parametrize(
        "observability, field_name",
        [
            (ObservabilitySpec(trace_capacity=0), "observability.trace_capacity"),
            (
                ObservabilitySpec(timeline_interval_ns=-1),
                "observability.timeline_interval_ns",
            ),
        ],
    )
    def test_bounds_must_be_positive(self, observability, field_name):
        _reject(_spec(observability=observability), MalformedSpecError, field_name)

    @pytest.mark.parametrize("knob", ["tracer", "timeline"])
    def test_tracer_and_timeline_need_the_shared_clock(self, knob):
        _reject(
            _spec(
                runtime=RuntimeSpec(shards=2, backend="process"),
                observability=ObservabilitySpec(**{knob: True}),
            ),
            BackendIncompatibleError,
            f"observability.{knob}",
        )

    def test_histograms_are_allowed_on_the_process_backend(self):
        spec = _spec(
            runtime=RuntimeSpec(shards=2, backend="process"),
            observability=ObservabilitySpec(latency_histograms=True),
        )
        assert validate(spec) is spec

    def test_non_runtime_kinds_reject_the_block(self):
        _reject(
            ScenarioSpec(
                topology=TopologySpec(kind="fabric"),
                observability=ObservabilitySpec(tracer=True),
            ),
            MalformedSpecError,
            "observability",
        )


class TestCompilation:
    def test_armed_spec_binds_the_instruments(self):
        compiled = compile_scenario(
            _spec(
                observability=ObservabilitySpec(
                    latency_histograms=True,
                    tracer=True,
                    trace_capacity=512,
                    timeline=True,
                )
            )
        )
        assert compiled.runtime.latency_histograms is True
        assert compiled.runtime.tracer is not None
        assert compiled.runtime.tracer.capacity == 512
        assert compiled.runtime.timeline is not None
        # Unset interval defaults to the runtime quantum.
        assert compiled.runtime.timeline.interval_ns == compiled.spec.runtime.quantum_ns

    def test_disarmed_spec_binds_none(self):
        compiled = compile_scenario(_spec())
        assert compiled.runtime.latency_histograms is False
        assert compiled.runtime.tracer is None
        assert compiled.runtime.timeline is None


class TestExecution:
    def _paced_spec(self, **overrides):
        # Pacing slow enough that queues form and the e2e tail is non-trivial.
        return _spec(policy=PolicyTreeSpec(default_rate_bps=1e9), **overrides)

    def test_p99_bound_passes_when_generous(self):
        result = run_scenario(
            self._paced_spec(
                observability=ObservabilitySpec(latency_histograms=True),
                assertions=AssertionSpec(p99_latency_ns=10**12),
            )
        )
        assert result.ok
        assert result.telemetry.latency["e2e"].count == result.transmitted > 0

    def test_p99_bound_fails_when_impossible(self):
        compiled = compile_scenario(
            self._paced_spec(
                observability=ObservabilitySpec(latency_histograms=True),
                assertions=AssertionSpec(p99_latency_ns=1),
            )
        )
        result = compiled.run()
        assert any(f.startswith("p99_latency_ns") for f in result.failures)

    def test_same_seed_replays_identical_trace_and_timeline(self):
        def observe():
            compiled = compile_scenario(
                self._paced_spec(
                    observability=ObservabilitySpec(
                        latency_histograms=True, tracer=True, timeline=True
                    )
                )
            )
            result = compiled.run()
            assert result.ok
            return (
                compiled.runtime.tracer.to_chrome_trace(),
                compiled.runtime.timeline.as_dict(),
                result.telemetry.latency,
            )

        trace_a, timeline_a, latency_a = observe()
        trace_b, timeline_b, latency_b = observe()
        # Chrome export carries packet-id-free args, so it compares across
        # runs even though Packet ids are process-global.
        assert trace_a == trace_b
        assert timeline_a == timeline_b
        assert latency_a == latency_b
