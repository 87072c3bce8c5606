"""Count a workload's interpreted work exactly: bytecodes, calls, heap blocks, GC.

Wall clock on a shared machine is noisy; executed bytecodes, Python calls and
live heap blocks are not.  This script runs one workload of the repo's
benchmark three times, in this process, from the checkout it sits in (or the
one ``--checkout`` names):

* once under ``sys.settrace`` with opcode events on, counting every executed
  bytecode and every Python call, keyed by the code object that ran them;
* once untraced with the cyclic collector off, reading
  ``sys.getallocatedblocks()`` before and after: the heap blocks the run
  leaves alive (a per-packet dict key, a kept int, an unfreed cycle);
* once untraced with the cyclic collector on at its default thresholds,
  counting its passes per generation through ``gc.callbacks`` and the
  GC-tracked objects the run allocated as CPython counts them — allocations
  minus deallocations, read at every pass and at the end — so an object
  that lives only while its packet is queued (a ``(rank, packet)`` tuple in
  a deep shaping backlog) shows, though it is gone when the run ends and
  executes no bytecode of its own.

A runtime workload is named as in ``bench/workloads/`` (``uniform_s1``); its
counted region is ``submit_at`` for every burst plus ``run()``, with traffic
generation outside it, and it is resized to ``--packets`` at ``--seed``.  A
queue family of ``bench/queue_workload.py`` is named ``queue:FAMILY``
(``queue:approx_gradient``); its counted region is ``drive_batched`` over
``--packets`` ranks.  Counts are printed per packet (per rank for a queue),
in total and per file or per function::

    python tools/opcount.py uniform_s1
    python tools/opcount.py uniform_s1 --by function --top 12
    python tools/opcount.py queue:approx_gradient --packets 50000
    python tools/opcount.py --json uniform_s1 zipf_ingress_steal_s4

Bytecode counts differ between Python minor versions; compare two trees on
one interpreter.  Nothing under ``bench/`` is edited: its workload files and
``queue_workload`` module are only read.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent


def _runtime_region(checkout: Path, name: str, packets: int, seed: int) -> Callable[[], None]:
    """Build the workload and return its counted region, ready to call once."""
    from repro.scenario import compile_scenario, load_toml_file

    spec = load_toml_file(checkout / "bench" / "workloads" / f"{name}.toml")
    spec = dataclasses.replace(
        spec, seed=seed, traffic=dataclasses.replace(spec.traffic, total_packets=packets)
    )
    compiled = compile_scenario(spec)
    bursts = list(compiled.source.bursts(packets))
    runtime = compiled.runtime

    def region() -> None:
        for when_ns, burst in bursts:
            runtime.submit_at(when_ns, burst)
        runtime.run()
        region.runtime = runtime  # keep what the run built alive for the block count

    return region


def _queue_region(checkout: Path, family: str, ranks: int, seed: int) -> Callable[[], None]:
    sys.path.insert(0, str(checkout / "bench"))
    import queue_workload

    factory, _exact, moving = queue_workload._families()[family]
    steps = queue_workload.schedule(seed, ranks, moving)
    queue = factory()

    def region() -> None:
        queue_workload.drive_batched(queue, steps)
        region.queue = queue

    return region


def _region(checkout: Path, target: str, packets: int, seed: int) -> Callable[[], None]:
    if target.startswith("queue:"):
        return _queue_region(checkout, target.split(":", 1)[1], packets, seed)
    return _runtime_region(checkout, target, packets, seed)


def count_work(region: Callable[[], None]) -> Tuple[Counter, Counter]:
    """Executed bytecodes and Python calls of one call of ``region``, by code object."""
    opcodes: Counter = Counter()
    calls: Counter = Counter()

    def tracer(frame, event, _arg):
        code = frame.f_code
        if event == "opcode":
            opcodes[code] += 1
        elif event == "call":
            frame.f_trace_opcodes = True
            calls[code] += 1
        return tracer

    sys.settrace(tracer)
    try:
        region()
    finally:
        sys.settrace(None)
    return opcodes, calls


def live_blocks(region: Callable[[], None]) -> int:
    """Heap blocks one call of ``region`` leaves alive, with the collector off."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = sys.getallocatedblocks()
        region()
        return sys.getallocatedblocks() - before
    finally:
        if enabled:
            gc.enable()


def collector_work(region: Callable[[], None]) -> Tuple[List[int], int]:
    """Collector passes per generation, and GC-tracked objects allocated, in ``region``.

    Generation 0's counter is GC-tracked allocations minus deallocations
    since the last pass, so what it reads at the start of every pass, plus
    what it gained by the end, is the allocations the collector saw: an
    object freed before the next pass cancels out, one still alive then is
    counted.  Runs with the collector on, whatever its state outside.
    """
    passes = [0, 0, 0]
    seen = [0]

    def hook(phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            passes[info["generation"]] += 1
            seen[0] += gc.get_count()[0]

    gc.collect()
    enabled = gc.isenabled()
    gc.enable()
    gc.callbacks.append(hook)
    try:
        start = gc.get_count()[0]
        region()
        return passes, seen[0] + gc.get_count()[0] - start
    finally:
        gc.callbacks.remove(hook)
        if not enabled:
            gc.disable()


def _key(code, by: str, checkout: Path) -> str:
    path = Path(code.co_filename)
    for base in (checkout / "src" / "repro", checkout):
        try:
            name = str(path.resolve().relative_to(base))
            break
        except ValueError:
            continue
    else:
        name = path.name
    if by == "file":
        return name
    return f"{name}:{getattr(code, 'co_qualname', code.co_name)}"


def measure(target: str, packets: int = 20_000, seed: int = 1, by: str = "file",
            checkout: Path = ROOT) -> Dict[str, object]:
    """Per-packet bytecodes, calls, live heap blocks and GC work of one workload."""
    sys.path.insert(0, str(checkout / "src"))
    opcodes, calls = count_work(_region(checkout, target, packets, seed))
    blocks = live_blocks(_region(checkout, target, packets, seed))
    passes, allocated = collector_work(_region(checkout, target, packets, seed))
    rows: Dict[str, List[float]] = {}
    for counter, column in ((opcodes, 0), (calls, 1)):
        for code, count in counter.items():
            row = rows.setdefault(_key(code, by, checkout), [0.0, 0.0])
            row[column] += count / packets
    return {
        "target": target,
        "packets": packets,
        "seed": seed,
        "opcodes_per_pkt": sum(opcodes.values()) / packets,
        "calls_per_pkt": sum(calls.values()) / packets,
        "blocks_per_pkt": blocks / packets,
        "gc_passes": passes,
        "gc_objects_per_pkt": allocated / packets,
        "by": by,
        "rows": dict(sorted(rows.items(), key=lambda item: -item[1][0])),
    }


def _print(result: Dict[str, object], top: int) -> None:
    print(
        f"{result['target']} seed {result['seed']}, {result['packets']} packets: "
        f"{result['opcodes_per_pkt']:.1f} bytecodes, {result['calls_per_pkt']:.2f} calls, "
        f"{result['blocks_per_pkt']:.3f} live heap blocks, "
        f"{result['gc_objects_per_pkt']:.3f} GC-tracked objects per packet; "
        f"collector passes gen0/1/2 {'/'.join(map(str, result['gc_passes']))}"
    )
    for index, (key, (opcodes, calls)) in enumerate(result["rows"].items()):
        if index == top:
            break
        print(f"  {opcodes:9.1f} op {calls:7.3f} calls  {key}")


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("targets", nargs="+", help="workload name or queue:FAMILY")
    parser.add_argument("--packets", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--by", choices=("file", "function"), default="file")
    parser.add_argument("--top", type=int, default=10, help="rows printed per target")
    parser.add_argument("--checkout", type=Path, default=ROOT, help="tree to measure")
    parser.add_argument("--json", action="store_true", help="one JSON document per target")
    args = parser.parse_args(argv)
    if args.packets <= 0:
        parser.error("--packets must be positive")
    for target in args.targets:
        result = measure(target, args.packets, args.seed, args.by, args.checkout.resolve())
        if args.json:
            print(json.dumps(result))
        else:
            _print(result, args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
