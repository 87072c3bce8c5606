"""Smoke tests of the benchmark itself.

Run as ``python -m pytest bench/tests -q`` from the repository root; this
directory is outside tier-1's ``testpaths`` on purpose.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def bench(*argv):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *argv],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.fixture(scope="module")
def smoke_document():
    done = bench("--smoke", "--seed", "5")
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_manifest_meets_the_contract():
    assert set(MANIFEST) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert MANIFEST["paths"] == ["bench"]
    names = [w["name"] for w in MANIFEST["workloads"]]
    names += [m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in MANIFEST["workloads"])
    for metric in MANIFEST["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    assert all(set(m) == {"name", "unit", "better"} for m in MANIFEST["per_layer"])
    assert len(MANIFEST["per_layer"]) <= 128
    setup = next(m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in MANIFEST["end_to_end"])


def test_smoke_emits_every_workload_and_metric_and_nothing_else(smoke_document):
    assert smoke_document["claim"] is None
    assert {"cpu_count", "python", "free_threaded", "loadavg_at_start", "host.calibration_ns"} <= set(
        smoke_document["host"]
    )
    assert list(smoke_document["workloads"]) == [w["name"] for w in MANIFEST["workloads"]]
    for name, record in smoke_document["workloads"].items():
        assert record["correct"] and record["failed"] == 0 and record["failed_share"] == 0, name
        assert record["attempted"] >= 1
        assert record["trace"]["unresolved"] == []
        for section in ("end_to_end", "per_layer"):
            produced = record[section]
            assert list(produced) == [m["name"] for m in MANIFEST[section]], (name, section)
            for spec in MANIFEST[section]:
                assert produced[spec["name"]]["unit"] == spec["unit"]
                assert isinstance(produced[spec["name"]]["value"], (int, float))
        assert all(metric["value"] > 0 for metric in record["end_to_end"].values()), name
        assert ("ungated" in record) == (name == "uniform_s1")
    ungated = smoke_document["workloads"]["uniform_s1"]["ungated"]
    assert set(ungated) == {
        "packets",
        "runtime.shm.push_ns_per_record",
        "runtime.shm.pop_ns_per_record",
        "runtime.shm.bytes_per_pkt",
        "runtime.backend.process_pkts_per_s",
    }
    assert all(ungated[name]["value"] > 0 for name in ungated if name != "packets")


def test_smoke_workloads_discriminate_as_written_down(smoke_document):
    def layer(workload, metric):
        return smoke_document["workloads"][workload]["per_layer"][metric]["value"]

    for quiet in ("uniform_s1", "uniform_s8", "shaped_s4"):
        assert layer(quiet, "runtime.ingress.calls_per_pkt") == 0
        assert layer(quiet, "runtime.stealing.attempted") == 0
    assert layer("zipf_ingress_steal_s4", "runtime.ingress.calls_per_pkt") > 0
    assert layer("zipf_ingress_steal_s4", "runtime.stealing.attempted") > 0
    assert layer("uniform_s8", "runtime.worker.ticks_per_pkt") > 2 * layer(
        "uniform_s1", "runtime.worker.ticks_per_pkt"
    )
    # 4x at smoke size; over 100x (24.9k against 128) at full size.
    assert layer("shaped_s4", "runtime.worker.backlog_peak") > 2 * layer(
        "uniform_s1", "runtime.worker.backlog_peak"
    )
    assert layer("megaflow_churn_s4", "runtime.flowstate.gc_examined_per_pkt") > 0
    # (rotations > 0 needs the base to pass the 4,096-rank window: full size.)
    assert layer("queues_batched", "runtime.runtime.calls_per_pkt") == 0


def test_driver_form_prints_one_line_per_trace_mode():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = bench("--smoke", "--workload", "queues_per_packet", "--seed", "9", "--trace", str(trace))
        assert done.returncode == 0, done.stderr
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert list(line["metrics"]) == [m["name"] for m in MANIFEST[section]]
        assert all(set(metric) == {"value", "unit"} for metric in line["metrics"].values())


def test_same_seed_repeats_every_exact_metric_and_compare_passes(smoke_document, tmp_path):
    again = bench("--smoke", "--seed", "5")
    assert again.returncode == 0, again.stderr
    second = json.loads(again.stdout)
    for name, record in smoke_document["workloads"].items():
        for section in ("end_to_end", "per_layer"):
            for metric, row in record[section].items():
                if row.get("exact"):
                    assert second["workloads"][name][section][metric]["value"] == row["value"], metric
    rows, _status = compare.compare(smoke_document, second, MANIFEST, layers=False)
    exact_rows = [row for row in rows if row[1] in compare.PINNED + ("modelled_cycles_per_pkt",)]
    assert exact_rows and all(row[-1] == "same" for row in exact_rows)


def test_compare_flags_a_regression_and_an_unresolved_spread(smoke_document):
    worse = json.loads(json.dumps(smoke_document))
    record = worse["workloads"]["uniform_s1"]
    rate = record["end_to_end"]["pkts_per_s"]
    for key in ("value", "median", "min", "q1", "q3", "max"):
        rate[key] *= 0.5
    rate["samples"] = [sample * 0.5 for sample in rate["samples"]]
    record["end_to_end"]["modelled_cycles_per_pkt"]["value"] += 1
    rows, status = compare.compare(smoke_document, worse, MANIFEST, layers=False)
    verdicts = {(row[0], row[1]): row[-1] for row in rows}
    assert status == 1
    assert verdicts[("uniform_s1", "pkts_per_s")] == "REGRESSION"
    assert verdicts[("uniform_s1", "modelled_cycles_per_pkt")] == "REGRESSION"

    noisy = json.loads(json.dumps(smoke_document))
    rate = noisy["workloads"]["uniform_s1"]["end_to_end"]["pkts_per_s"]
    rate["q1"], rate["q3"] = rate["median"] * 0.8, rate["median"] * 1.2
    rows, status = compare.compare(smoke_document, noisy, MANIFEST, layers=False)
    verdicts = {(row[0], row[1]): row[-1] for row in rows}
    assert verdicts[("uniform_s1", "pkts_per_s")].startswith("unresolved")
    assert status == 0


def test_compare_marks_a_changed_layer_counter_without_failing(smoke_document):
    # More simulator events is the "worse" direction in BENCHMARK.json, but a
    # per-layer counter is a diagnostic: it is shown, never judged.
    shifted = json.loads(json.dumps(smoke_document))
    shifted["workloads"]["uniform_s8"]["per_layer"]["netsim.simulator.events_per_pkt"]["value"] += 1
    rows, status = compare.compare(smoke_document, shifted, MANIFEST, layers=False)
    verdicts = {(row[0], row[1]): row[-1] for row in rows}
    assert verdicts[("uniform_s8", "netsim.simulator.events_per_pkt")] == "changed"
    assert status == 0

    pinned = json.loads(json.dumps(smoke_document))
    pinned["workloads"]["uniform_s8"]["per_layer"]["sim_latency_p99_ns"]["value"] += 1
    rows, status = compare.compare(smoke_document, pinned, MANIFEST, layers=False)
    assert status == 1


def _child(capsys, *argv):
    code = run.main(["--child", "--smoke", "--seed", "5", *argv])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_a_reordered_transmit_log_fails_the_run(monkeypatch, capsys):
    from repro.runtime import ShardedRuntime

    real_run = ShardedRuntime.run

    def run_then_reorder(self, *args, **kwargs):
        processed = real_run(self, *args, **kwargs)
        log = self.transmit_log
        flow = log[0][1].flow_id
        later = next(i for i in range(1, len(log)) if log[i][1].flow_id == flow)
        log[0], log[later] = log[later], log[0]
        return processed

    monkeypatch.setattr(ShardedRuntime, "run", run_then_reorder)
    code, record = _child(capsys, "--workload", "uniform_s1", "--trace", "0")
    assert code != 0
    assert not record["correct"] and record["failed"] > 0 and record["failed_share"] > 0


def test_a_dropped_queue_item_fails_the_run(monkeypatch, capsys):
    from repro.core.queues import BinaryHeapQueue

    real_extract = BinaryHeapQueue.extract_due
    dropped = []

    def lossy(self, now, limit=None):
        batch = real_extract(self, now, limit=limit)
        if batch and not dropped:
            dropped.append(batch.pop())
        return batch

    monkeypatch.setattr(BinaryHeapQueue, "extract_due", lossy)
    code, record = _child(capsys, "--workload", "queues_batched", "--trace", "0")
    assert code != 0
    assert not record["correct"] and record["failed"] > 0 and record["failed_share"] > 0


def test_a_seam_that_no_longer_resolves_is_listed_not_fatal():
    seams = (
        layers.Seam("runtime.mailbox", "repro.runtime.mailbox:Mailbox", ("push", "renamed_away")),
        layers.Seam("runtime.stealing", "repro.runtime.stealing:GoneClass", ("post",)),
    )
    recorder = tracing.SpanRecorder(layers.LAYERS)
    with tracing.install(recorder, seams) as installed:
        assert installed.unresolved == [
            "repro.runtime.mailbox:Mailbox.renamed_away",
            "repro.runtime.stealing:GoneClass.post",
        ]
        assert installed.dead_layers == ["runtime.stealing"]
    from repro.runtime.mailbox import Mailbox

    assert not getattr(Mailbox.push, "_bench_span", False)  # patches restored


def test_spans_nest_and_self_times_close_the_ledger():
    from time import perf_counter_ns

    class Inner:
        def work(self):
            return sum(range(2_000))

    class Outer:
        def work(self, inner):
            return inner.work() + sum(range(2_000))

    recorder = tracing.SpanRecorder(["outer", "inner"])
    Outer.work = recorder.wrap("outer", "Outer.work", Outer.work)
    Inner.work = recorder.wrap("inner", "Inner.work", Inner.work)
    recorder.begin()
    start = perf_counter_ns()
    for _ in range(50):
        Outer().work(Inner())
    wall = perf_counter_ns() - start
    recorder.end()
    assert recorder.calls[:2] == [50, 50]
    assert recorder.child_calls == [50, 0, 50]
    assert all(ns > 0 for ns in recorder.self_ns)
    # Self times telescope to the root span's duration, and the root span
    # opened before ``start`` and closed after ``wall`` was read.
    assert sum(recorder.self_ns) >= wall
