"""Smoke test of ``tools/opcount.py``, the exact work counter.

Runs the script the way a reader does, in a fresh interpreter, on 2,000
packets of a runtime workload and 2,000 ranks of a queue family, and checks
the report is whole: positive per-packet counts, rows that add up to the
totals, the heap-block budget the runtime keeps (no dict key per packet), and
the collector columns: passes per generation, and GC-tracked objects per
packet, which a shaped backlog of ``(rank, packet)`` tuples drives to about
0.5 a packet and the shard queue holding bare packets keeps under 0.1.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
TOOL = ROOT / "tools" / "opcount.py"


def _run(*args):
    completed = subprocess.run(
        [sys.executable, str(TOOL), "--json", "--packets", "2000", *args],
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    return [json.loads(line) for line in completed.stdout.splitlines()]


def test_counts_a_runtime_workload_and_a_queue_family():
    runtime, queue = _run("--by", "function", "uniform_s1", "queue:binary_heap")
    for result in (runtime, queue):
        assert result["packets"] == 2000 and result["seed"] == 1
        assert result["opcodes_per_pkt"] > 0 and result["calls_per_pkt"] > 0
        rows = result["rows"].values()
        assert abs(sum(op for op, _calls in rows) - result["opcodes_per_pkt"]) < 1e-6
        assert abs(sum(calls for _op, calls in rows) - result["calls_per_pkt"]) < 1e-6
    assert any(key.startswith("runtime/runtime.py:") for key in runtime["rows"])
    assert "core/queues/comparison.py:BinaryHeapQueue.enqueue_batch" in queue["rows"]
    assert runtime["blocks_per_pkt"] < 0.5
    for result in (runtime, queue):
        passes = result["gc_passes"]
        assert len(passes) == 3 and all(count >= 0 for count in passes)
        assert result["gc_objects_per_pkt"] >= 0
    # The heap holds a (rank, item) pair per resident rank; the runtime
    # holds none per packet.
    assert queue["gc_objects_per_pkt"] > 0.5 > runtime["gc_objects_per_pkt"]


def test_counts_the_objects_a_shaped_backlog_keeps_for_the_collector():
    (shaped,) = _run("shaped_s4")
    assert shaped["gc_objects_per_pkt"] < 0.1
    assert sum(shaped["gc_passes"]) <= 1


def test_rejects_a_non_positive_size():
    completed = subprocess.run(
        [sys.executable, str(TOOL), "--packets", "0", "uniform_s1"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode == 2
