"""Shared measurement helpers: round budgets, summaries, metric records."""

from __future__ import annotations

import gc
import statistics
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

#: Fewest timed rounds a time budget buys.
MIN_ROUNDS = 3
#: Most timed rounds a time budget may buy (short rounds stop here).
MAX_ROUNDS = 15


@dataclass(frozen=True)
class Budget:
    """How many timed rounds to run: a fixed count, or a wall-time budget.

    With ``seconds`` set, as many rounds run as the *fastest* round so far
    fits into that many seconds (at least :data:`MIN_ROUNDS`, at most
    :data:`MAX_ROUNDS`); otherwise exactly ``rounds`` run.  Counting in
    fastest rounds, not elapsed time, makes the count a property of the
    program (it changes only when the program's speed does), not of how busy
    the host happened to be.
    """

    rounds: int = 7
    seconds: Optional[float] = None

    def spent(self, samples: List[float]) -> bool:
        """True once ``samples`` (timed-region seconds) use the budget up."""
        if self.seconds is None:
            return len(samples) >= self.rounds
        return len(samples) >= MAX_ROUNDS or (
            len(samples) >= MIN_ROUNDS and len(samples) * min(samples) >= self.seconds
        )


def timed_rounds(budget: Budget, one_round: Callable[[], float]) -> List[float]:
    """Run ``one_round`` until the budget is spent; its timed-region seconds.

    The collector stays on (allocation cost is part of what users pay) but is
    run to completion between rounds so one round's garbage is not collected
    on the next round's clock.
    """
    samples: List[float] = []
    while not budget.spent(samples):
        gc.collect()
        samples.append(one_round())
    return samples


def measured(samples: List[float], value: Optional[float] = None) -> dict:
    """A wall-clock metric from several samples.

    ``value`` defaults to the median; every record also carries the median,
    min, max, quartiles and the sample count.  A handful of samples supports
    no percentile above the median, so none is reported.  Units are attached
    from ``BENCHMARK.json`` when the record is assembled (:func:`assemble`).
    """
    ordered = sorted(samples)
    median = statistics.median(ordered)
    if len(ordered) >= 2:
        q1, _median, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {
        "value": median if value is None else value,
        "median": median,
        "n": len(ordered),
        "min": ordered[0],
        "q1": q1,
        "q3": q3,
        "max": ordered[-1],
        "samples": samples,
    }


def fastest(samples: List[float], better: str = "lower") -> dict:
    """A duration (or, with ``better="higher"``, a rate) sampled once per
    round and valued at the *fastest* round.

    On a shared host interference only ever adds time, so the fastest whole
    round is the steadiest estimate of what the code costs (the README has
    the numbers).  The median and quartiles of the same rounds are kept
    beside it: they are what a user of a busy host sees.
    """
    return measured(samples, value=max(samples) if better == "higher" else min(samples))


def single(value: float) -> dict:
    """A wall-clock metric measured once (one traced run)."""
    return {"value": value}


def exact(value) -> dict:
    """A metric computed from the program's own counters or virtual clock:
    the same seed gives the same value on every run and every host."""
    return {"value": value, "exact": True}


def assemble(specs: List[dict], produced: Dict[str, dict], *, default_zero: bool) -> dict:
    """The metrics ``BENCHMARK.json`` names, in its order, with its units.

    ``BENCHMARK.json`` is the one list of metric names and units.  A produced
    name it does not list is an error; a listed name nothing produced reads
    0 when ``default_zero`` (a layer that does no work on this workload) and
    is an error otherwise.
    """
    names = [spec["name"] for spec in specs]
    unknown = sorted(set(produced) - set(names))
    if unknown:
        raise KeyError(f"metrics not named in BENCHMARK.json: {unknown}")
    missing = [name for name in names if name not in produced]
    if missing and not default_zero:
        raise KeyError(f"metrics named in BENCHMARK.json but not produced: {missing}")
    return {
        spec["name"]: {**produced.get(spec["name"], exact(0)), "unit": spec["unit"]}
        for spec in specs
    }


def share(part: float, whole: float) -> float:
    """``part / whole``, or 0.0 when there is no whole."""
    return part / whole if whole else 0.0
