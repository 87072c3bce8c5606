#!/usr/bin/env python3
"""One wall-clock benchmark for the scheduler.

    python3 bench/run.py [--workload NAME ...] [--seed N] [--rounds K]
                         [--smoke] [--out DIR]

runs each workload named in ``BENCHMARK.json`` in its own fresh subprocess,
one at a time, checks its outputs, and prints every metric by name with its
unit as one JSON document (progress goes to stderr).  With ``--out`` the
document is also written to ``DIR/result.json`` and each workload's raw
spans to ``DIR/<workload>.trace.json`` (Chrome trace format).  ``uniform_s1``
also carries an ``ungated`` block (see :mod:`ungated`).

The driver's form measures one workload and prints one line:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones; the last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``.  Any failed check exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns
from typing import List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MANIFEST = ROOT / "BENCHMARK.json"

#: A child that has not finished by then is killed (the driver allows 180 s).
CHILD_TIMEOUT_S = 170

SCHEMA = "eiffel-bench/1"


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", help="workload name (repeatable)")
    parser.add_argument("--seed", type=int, default=1, help="replaces every workload's seed")
    parser.add_argument("--rounds", type=int, default=7, help="timed rounds per workload")
    parser.add_argument(
        "--seconds", type=float, help="time budget for the timed rounds, instead of --rounds"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), help="driver form: which metrics")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every code path")
    parser.add_argument("--out", type=Path, help="directory for result.json and traces")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_manifest() -> dict:
    with open(MANIFEST) as handle:
        return json.load(handle)


# -- the child: one workload, in this process ---------------------------------


def run_child(args: argparse.Namespace) -> int:
    """Run one workload here and print its record as one JSON line."""
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import queue_workload
    import runtime_workload
    import ungated
    from harness import Budget, assemble

    manifest = load_manifest()
    (name,) = args.workload
    runner = queue_workload if name in queue_workload.DRIVERS else runtime_workload
    if args.smoke:
        budget = Budget(rounds=2)
    else:
        budget = Budget(rounds=args.rounds, seconds=args.seconds)
    record = runner.run(
        name,
        args.seed,
        budget,
        smoke=args.smoke,
        want_end_to_end=args.trace != 1,
        want_per_layer=args.trace != 0,
        out_dir=args.out,
    )
    if "end_to_end" in record:
        record["end_to_end"] = assemble(
            manifest["end_to_end"], record["end_to_end"], default_zero=False
        )
    if "per_layer" in record:
        record["per_layer"] = assemble(manifest["per_layer"], record["per_layer"], default_zero=True)
    # Shared-memory segments live outside the checkout, so the driver's form
    # (which may write only inside it) leaves the ungated block out.
    if args.trace is None and name == ungated.WORKLOAD:
        record["ungated"] = ungated.measure(
            runtime_workload.WORKLOAD_DIR / f"{name}.toml", args.seed, args.smoke
        )
    record["correct"] = record["failed"] == 0 and not record["errors"]
    record["failed_share"] = record["failed"] / record["attempted"]
    print(json.dumps(record))
    return 0 if record["correct"] else 1


# -- the parent: one subprocess per workload ----------------------------------


def spawn(name: str, args: argparse.Namespace) -> Optional[dict]:
    """Run one workload in a fresh interpreter; its record, or None if it died."""
    command = [sys.executable, str(Path(__file__).resolve()), "--child", "--workload", name]
    command += ["--seed", str(args.seed), "--rounds", str(args.rounds)]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.trace is not None:
        command += ["--trace", str(args.trace)]
    if args.smoke:
        command.append("--smoke")
    if args.out is not None:
        command += ["--out", str(args.out)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"bench: {name} did not finish within {CHILD_TIMEOUT_S}s", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    if not lines:
        print(f"bench: {name} exited {done.returncode} without a result", file=sys.stderr)
        return None
    record = json.loads(lines[-1])
    for error in record["errors"]:
        print(f"bench: {name}: {error}", file=sys.stderr)
    return record


def calibration_ns() -> float:
    """A fixed pure-Python loop, timed: the yardstick for reading artifacts
    from different machines side by side.  Median of five."""
    samples = []
    for _ in range(5):
        start = perf_counter_ns()
        total = 0
        for index in range(200_000):
            total += index * index % 7
        samples.append(perf_counter_ns() - start)
    return sorted(samples)[2]


def host_block() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.runtime.backend import free_threaded

    return {
        "cpu_count": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "python_build": " ".join(platform.python_build()),
        "compiler": platform.python_compiler(),
        "machine": platform.machine(),
        "free_threaded": free_threaded(),
        "loadavg_at_start": list(os.getloadavg()),
        "host.calibration_ns": calibration_ns(),
    }


def driver_line(record: dict, trace: int) -> dict:
    """The driver's one-line form of a record: value and unit per metric."""
    section = record["per_layer" if trace else "end_to_end"]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            # A layer whose seams no longer resolve reads null in the full
            # document; the driver's form needs a number.
            name: {"value": 0 if metric["value"] is None else metric["value"], "unit": metric["unit"]}
            for name, metric in section.items()
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    if args.child:
        return run_child(args)
    manifest = load_manifest()
    known = [workload["name"] for workload in manifest["workloads"]]
    chosen = args.workload or known
    unknown = [name for name in chosen if name not in known]
    if unknown:
        print(f"bench: unknown workload(s) {unknown}; choose from {known}", file=sys.stderr)
        return 2

    if args.trace is not None:
        if len(chosen) != 1:
            print("bench: --trace measures exactly one --workload", file=sys.stderr)
            return 2
        record = spawn(chosen[0], args)
        if record is None:
            return 2
        print(json.dumps(driver_line(record, args.trace)))
        return 0 if record["correct"] else 1

    document = {
        "schema": SCHEMA,
        "claim": None,
        "seed": args.seed,
        "rounds": None if args.seconds is not None or args.smoke else args.rounds,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "host": host_block(),
        "workloads": {},
    }
    status = 0
    for name in chosen:
        print(f"bench: {name} ...", file=sys.stderr)
        record = spawn(name, args)
        if record is None:
            return 2
        if not record["correct"]:
            status = 1
        document["workloads"][name] = record
    text = json.dumps(document, indent=1)
    if args.out is not None:
        (args.out / "result.json").write_text(text + "\n")
    print(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
