#!/usr/bin/env python3
"""Compare two result documents of bench/run.py, metric by metric.

    python3 bench/compare.py A.json B.json [--layers]

A is the base (the parent commit), B the change.  One row per (workload,
end-to-end metric) with both values, the ratio B/A and its base, and a
verdict from the metric's direction and bound in ``BENCHMARK.json``:

* ``ok`` / ``improved`` / ``REGRESSION`` — B is worse than A by no more /
  by more than the bound (as a share of A);
* ``unresolved`` — the rounds inside either run spread (quartile distance
  over median) wider than the bound, so the runs cannot tell; unless every
  round of B is better, or every round worse, than every round of A;
* exact metrics (the program's own counters and virtual clock) compare with
  ``==`` when both runs used the same seed: ``same``, or the direction
  decides.  The modelled rate and the simulated latency quantiles are
  per-layer rows for the driver but pinned here the same way, and any
  ``failed_share`` above zero is a regression.

The other per-layer rows are diagnostics and carry no verdict: their
directions in ``BENCHMARK.json`` say which way is usually cheaper, not which
way is wrong (a change may fire more events and still be faster).  Exact ones
that differ at equal seeds are printed as ``changed``; ``--layers`` prints
every one, wall-clock rows with their ratio.  Exits 1 on a regression in an
end-to-end metric, a pinned row or ``failed_share``; 2 when the documents
cannot be compared.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Tuple

MANIFEST = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: End-to-end by nature, but they cannot sit in the driver's gated list (they
#: are zero on some workloads and move with the seed, not with the code), so
#: they are pinned here instead: exact, and any worsening is a regression.
PINNED = ("modelled_bottleneck_mpps", "sim_latency_p50_ns", "sim_latency_p99_ns")


def spread(metric: dict) -> Optional[float]:
    """Quartile distance of a metric's rounds as a share of their median."""
    if "q1" not in metric or not metric["median"]:
        return None
    return (metric["q3"] - metric["q1"]) / metric["median"]


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse B is than A, as a share of A (negative = better)."""
    delta = a - b if better == "higher" else b - a
    if a == 0:
        return 0.0 if delta == 0 else float("inf") if delta > 0 else -float("inf")
    return delta / abs(a)


def separated(a: dict, b: dict, better: str) -> Optional[str]:
    """``improved`` / ``REGRESSION`` when every round of B beats / trails
    every round of A; None when the rounds overlap."""
    sa, sb = a.get("samples"), b.get("samples")
    if not sa or not sb:
        return None
    if better == "lower":
        sa, sb = [-x for x in sa], [-x for x in sb]
    if min(sb) > max(sa):
        return "improved"
    if max(sb) < min(sa):
        return "REGRESSION"
    return None


def verdict(a: dict, b: dict, better: str, bound: Optional[float], same_seed: bool) -> str:
    """The verdict on a gated row: end-to-end, or pinned (exact, no bound:
    it moves with the seed, so at different seeds it says nothing)."""
    va, vb = a["value"], b["value"]
    if a.get("exact") and b.get("exact") and same_seed:
        if va == vb:
            return "same"
        return "REGRESSION" if worse_by(va, vb, better) > 0 else "improved"
    if bound is None:
        return ""
    widest = max((s for s in (spread(a), spread(b)) if s is not None), default=0.0)
    if widest > bound:
        return separated(a, b, better) or f"unresolved (spread {widest:.1%} > bound)"
    worse = worse_by(va, vb, better)
    if worse > bound:
        return "REGRESSION"
    return "improved" if worse < -bound else "ok"


def note(a: dict, b: dict, same_seed: bool) -> str:
    """What a diagnostic per-layer row says: never a verdict."""
    if a["value"] is None or b["value"] is None:
        return "unresolved (seam names no longer resolve)"
    if a.get("exact") and b.get("exact") and same_seed:
        return "same" if a["value"] == b["value"] else "changed"
    return ""


def fmt(value) -> str:
    if value is None:
        return "null"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def rows_for(
    workload: str,
    a: dict,
    b: dict,
    specs: List[dict],
    same_seed: bool,
    *,
    gated: bool,
    only_changed: bool = False,
) -> List[Tuple[str, ...]]:
    """One row per metric of ``specs``; only ``gated`` rows get a verdict."""
    rows = []
    for spec in specs:
        name = spec["name"]
        ma, mb = a.get(name), b.get(name)
        if ma is None or mb is None:
            rows.append((workload, name, "-", "-", "-", "unresolved (missing from a document)"))
            continue
        if gated:
            result = verdict(ma, mb, spec["better"], spec.get("bound"), same_seed)
        else:
            result = note(ma, mb, same_seed)
        if only_changed and result in ("same", ""):
            continue
        va, vb = ma["value"], mb["value"]
        ratio = f"{vb / va:.4f} of {fmt(va)}" if va and vb is not None else "-"
        rows.append((workload, name, fmt(va), fmt(vb), ratio, result))
    return rows


def compare(doc_a: dict, doc_b: dict, manifest: dict, layers: bool) -> Tuple[List[tuple], int]:
    same_seed = doc_a["seed"] == doc_b["seed"]
    pinned = [spec for spec in manifest["per_layer"] if spec["name"] in PINNED]
    others = [spec for spec in manifest["per_layer"] if spec["name"] not in PINNED]
    rows: List[tuple] = []
    for workload in (w["name"] for w in manifest["workloads"]):
        ra, rb = doc_a["workloads"].get(workload), doc_b["workloads"].get(workload)
        if ra is None or rb is None:
            continue
        rows += rows_for(
            workload, ra["end_to_end"], rb["end_to_end"], manifest["end_to_end"], same_seed, gated=True
        )
        failed = "REGRESSION" if rb["failed_share"] > 0 else "same"
        rows.append(
            (workload, "failed_share", fmt(ra["failed_share"]), fmt(rb["failed_share"]), "-", failed)
        )
        rows += rows_for(workload, ra["per_layer"], rb["per_layer"], pinned, same_seed, gated=True)
        rows += rows_for(
            workload,
            ra["per_layer"],
            rb["per_layer"],
            others,
            same_seed,
            gated=False,
            only_changed=not layers,
        )
    status = 1 if any(row[-1].startswith("REGRESSION") for row in rows) else 0
    return rows, status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="base document (the parent commit)")
    parser.add_argument("b", type=Path, help="document of the change")
    parser.add_argument("--layers", action="store_true", help="print every per-layer row")
    args = parser.parse_args(argv)
    doc_a, doc_b = json.loads(args.a.read_text()), json.loads(args.b.read_text())
    manifest = json.loads(MANIFEST.read_text())
    if doc_a.get("schema") != doc_b.get("schema"):
        print("compare: the documents have different schemas", file=sys.stderr)
        return 2
    if not set(doc_a["workloads"]) & set(doc_b["workloads"]):
        print("compare: the documents share no workload", file=sys.stderr)
        return 2
    if doc_a["seed"] != doc_b["seed"]:
        print("compare: seeds differ, so exact metrics are compared by bound", file=sys.stderr)
    rows, status = compare(doc_a, doc_b, manifest, args.layers)
    header = ("workload", "metric", "A", "B", "B/A of base", "verdict")
    widths = [max(len(str(row[i])) for row in [header, *rows]) for i in range(len(header))]
    for row in [header, *rows]:
        print("  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)).rstrip())
    return status


if __name__ == "__main__":
    sys.exit(main())
