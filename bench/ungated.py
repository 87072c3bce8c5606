"""Recorded, never gated: the shared-memory ring and the process backend.

On the 2-core sizing host ``backend="process"`` gave 53k then 24k packets/s
in two consecutive sets of seven rounds, and CPU seconds were no steadier
because the ring busy-polls: it cannot repeat within a tenth, so no bound
could mean anything.  These numbers are recorded in the ``ungated`` block of
``uniform_s1`` in every full document until a quiet host with four or more
cores exists.  They create shared-memory segments, which live outside the
checkout, so the driver's one-line form of the command leaves them out.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from time import perf_counter_ns

from harness import measured

#: The workload whose arrival schedule is replayed.
WORKLOAD = "uniform_s1"

#: Packets the process backend is run on (a quarter of the workload: one
#: round is 2-4 s, and the number is a record, not a gate).
PROCESS_PACKETS = 50_000
PROCESS_ROUNDS = 3


def measure(path: Path, seed: int, smoke: bool) -> dict:
    """``runtime.shm.*`` and ``runtime.backend.process_pkts_per_s``."""
    from repro.runtime.shm import ShmRing
    from repro.scenario import compile_scenario, load_toml_file

    spec = dataclasses.replace(load_toml_file(path), seed=seed)
    packets = 2_048 if smoke else PROCESS_PACKETS
    spec = dataclasses.replace(
        spec, traffic=dataclasses.replace(spec.traffic, total_packets=packets)
    )

    # The arrival schedule, one record per burst, through one ring in one
    # process: what a push and a pop cost with no second core involved.
    bursts = list(compile_scenario(spec).source.bursts(packets))
    ring = ShmRing()
    push_ns = pop_ns = ring_bytes = 0
    try:
        for record in bursts:
            start = perf_counter_ns()
            pushed = ring.push(record)
            pushed_at = perf_counter_ns()
            ring_bytes += len(ring)
            ring.pop()
            pop_ns += perf_counter_ns() - pushed_at
            push_ns += pushed_at - start
            if not pushed:
                raise RuntimeError("burst record does not fit the shared-memory ring")
    finally:
        ring.close()
        ring.unlink()

    process_spec = dataclasses.replace(
        spec, runtime=dataclasses.replace(spec.runtime, backend="process")
    )
    rates = []
    for _ in range(1 if smoke else PROCESS_ROUNDS):
        compiled = compile_scenario(process_spec)
        schedule = list(compiled.source.bursts(packets))
        start = perf_counter_ns()
        for when_ns, burst in schedule:
            compiled.runtime.submit_at(when_ns, burst)
        compiled.runtime.run()
        elapsed = perf_counter_ns() - start
        if compiled.runtime.telemetry().transmitted != packets:
            raise RuntimeError("process backend lost packets")
        rates.append(packets * 1e9 / elapsed)
    return {
        "packets": packets,
        "runtime.shm.push_ns_per_record": {"value": push_ns / len(bursts), "unit": "ns"},
        "runtime.shm.pop_ns_per_record": {"value": pop_ns / len(bursts), "unit": "ns"},
        "runtime.shm.bytes_per_pkt": {"value": ring_bytes / packets, "unit": "B"},
        "runtime.backend.process_pkts_per_s": {**measured(rates), "unit": "1/s"},
    }
