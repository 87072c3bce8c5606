"""Outside-in span recorder: wall-clock self time per layer, from bench/ only.

The program under test is not edited.  :func:`install` replaces the public
entry points named in :mod:`layers` with wrappers, at class level, before a
workload builds its objects; each wrapper brackets the call with
``perf_counter_ns`` on a parent stack, so a layer's *self* time is its spans
minus the part their children cover, and every nanosecond of a traced region
lands in exactly one layer (or in ``harness``, the root span the benchmark's
own driving loop runs under).

Callbacks cross layers in the other direction: the simulator fires closures
the runtime scheduled, and an RX core calls back into the runtime to route
and deliver.  Seams marked ``callback_args`` wrap every callable argument in
a span of the layer that *defined* the callable (its ``__module__``), so
``Simulator.run`` is not charged for ``ShardedRuntime._tick``.

Wrappers cost time themselves.  :func:`calibrate` times an empty wrapped
call and splits the cost into the part inside the wrapper's own clock pair
(it lands in the callee's self time) and the part outside it (it lands in
the parent's); :meth:`SpanRecorder.corrected_self_ns` subtracts both, so a
layer called seven times per packet is not billed for seven wrappers.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter_ns
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import layers

HARNESS = "harness"


class SpanRecorder:
    """Aggregates spans in place; optionally keeps the first bursts raw.

    ``layers`` are the layer names spans may be charged to; ``harness`` is
    appended as the root.  ``raw_bursts`` > 0 keeps ``(name, layer, start,
    end, parent, burst)`` for every span opened before that many bursts
    have been marked (see :meth:`mark_burst`), for the Chrome trace.
    """

    def __init__(self, layers: Iterable[str], raw_bursts: int = 0) -> None:
        self.layers: List[str] = [*layers, HARNESS]
        self.index: Dict[str, int] = {name: i for i, name in enumerate(self.layers)}
        count = len(self.layers)
        self.self_ns = [0] * count
        self.calls = [0] * count
        #: Direct child spans opened under spans of each layer (the parent
        #: pays the part of a wrapper that runs outside the child's clocks).
        self.child_calls = [0] * count
        self._child_ns: List[int] = []
        self._layer_stack: List[int] = []
        self._root_start = 0
        self.raw: List[Optional[tuple]] = []
        self._raw_stack: List[int] = []
        self._raw_bursts = raw_bursts
        self._raw_open = False
        self.burst = -1

    # -- the traced region ---------------------------------------------------

    def begin(self) -> None:
        """Open the root ``harness`` span; wrappers are inert until then."""
        if self._layer_stack:
            raise RuntimeError("traced region already open")
        self._raw_open = self._raw_bursts > 0
        self._layer_stack.append(self.index[HARNESS])
        self._child_ns.append(0)
        self._root_start = perf_counter_ns()

    def end(self) -> None:
        """Close the root span and settle the harness's self time."""
        end = perf_counter_ns()
        if len(self._layer_stack) != 1:
            raise RuntimeError("unbalanced span stack at end of traced region")
        self._layer_stack.pop()
        duration = end - self._root_start
        harness = self.index[HARNESS]
        self.self_ns[harness] += duration - self._child_ns.pop()
        self.calls[harness] += 1
        self._raw_open = False

    def mark_burst(self) -> None:
        """Start the next burst id; raw capture stops after ``raw_bursts``."""
        self.burst += 1
        if self.burst >= self._raw_bursts:
            self._raw_open = False

    # -- wrappers ------------------------------------------------------------

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        """``fn`` bracketed by a span charged to ``layer``."""
        idx = self.index[layer]
        child_ns = self._child_ns
        layer_stack = self._layer_stack
        self_ns, calls, child_calls = self.self_ns, self.calls, self.child_calls
        raw, raw_stack = self.raw, self._raw_stack
        clock = perf_counter_ns
        rec = self

        def traced(*args, **kwargs):
            if not layer_stack:  # outside a traced region (set-up, teardown)
                return fn(*args, **kwargs)
            mine = -1
            if rec._raw_open:
                mine = len(raw)
                raw.append(None)
                parent_raw = raw_stack[-1] if raw_stack else -1
                raw_stack.append(mine)
            child_calls[layer_stack[-1]] += 1
            layer_stack.append(idx)
            child_ns.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                self_ns[idx] += duration - child_ns.pop()
                calls[idx] += 1
                layer_stack.pop()
                child_ns[-1] += duration
                if mine >= 0:
                    raw_stack.pop()
                    raw[mine] = (name, idx, start, end, parent_raw, rec.burst)

        traced._bench_span = True
        return traced

    def wrap_burst_marker(self, layer: str, name: str, fn: Callable) -> Callable:
        """Like :meth:`wrap`, and each call starts the next burst id."""
        traced = self.wrap(layer, name, fn)
        mark = self.mark_burst

        def marked(*args, **kwargs):
            mark()
            return traced(*args, **kwargs)

        marked._bench_span = True
        return marked

    def wrap_with_callbacks(self, layer: str, name: str, fn: Callable) -> Callable:
        """Like :meth:`wrap`, and callable arguments get spans of their own.

        Each callable argument is charged to the layer named by its
        ``__module__`` (``repro.runtime.runtime`` -> ``runtime.runtime``),
        or to ``layer`` when that module is not a known layer.
        """
        traced = self.wrap(layer, name, fn)
        index = self.index
        wrap = self.wrap

        def spanned(value):
            if not callable(value) or isinstance(value, type):
                return value
            if getattr(value, "_bench_span", False):
                return value
            module = getattr(value, "__module__", None) or ""
            owner = module.removeprefix("repro.")
            label = getattr(value, "__qualname__", None) or type(value).__name__
            return wrap(owner if owner in index else layer, label, value)

        def with_callbacks(*args, **kwargs):
            args = tuple(spanned(arg) for arg in args)
            if kwargs:
                kwargs = {key: spanned(arg) for key, arg in kwargs.items()}
            return traced(*args, **kwargs)

        with_callbacks._bench_span = True
        return with_callbacks

    # -- results -------------------------------------------------------------

    def corrected_self_ns(self, inner_ns: float, outer_ns: float) -> Dict[str, float]:
        """Self time per layer with the wrappers' own cost taken out.

        ``inner_ns`` of every span ran between its own clock reads (charged
        to its layer); ``outer_ns`` ran outside them (charged to the layer
        of the span it was opened under).  Clamped at zero.
        """
        harness = self.index[HARNESS]
        corrected = {}
        for idx, layer in enumerate(self.layers):
            own = 0 if idx == harness else self.calls[idx]
            value = self.self_ns[idx] - inner_ns * own - outer_ns * self.child_calls[idx]
            corrected[layer] = max(0.0, value)
        return corrected

    def chrome_trace(self) -> dict:
        """The raw spans as Chrome trace-event JSON (Perfetto opens it)."""
        spans = [span for span in self.raw if span is not None]
        origin = min((span[2] for span in spans), default=0)
        events = [
            {
                "name": name,
                "cat": self.layers[layer],
                "ph": "X",
                "ts": (start - origin) / 1000.0,
                "dur": (end - start) / 1000.0,
                "pid": 1,
                "tid": 1,
                "args": {"burst": burst, "parent": parent},
            }
            for name, layer, start, end, parent, burst in spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ns"}

    def write_chrome_trace(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)


# -- installing the seam table -----------------------------------------------


def _subclasses(cls: type) -> List[type]:
    found, stack = [], [cls]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                stack.append(sub)
    return found


class Installed:
    """Class-level patches in force; a context manager that restores them."""

    def __init__(self) -> None:
        self._restore: List[Tuple[type, str, Callable]] = []
        #: Seam names that no longer resolve, as ``module:Class.method``.
        self.unresolved: List[str] = []
        #: Layers none of whose seam names resolved (their metrics are null).
        self.dead_layers: List[str] = []

    def __enter__(self) -> "Installed":
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            cls, name, original = self._restore.pop()
            setattr(cls, name, original)


def install(recorder: SpanRecorder, seams) -> Installed:
    """Wrap every seam that resolves; list the ones that do not.

    A seam names ``module:Class`` and some of its methods.  Only functions
    found in the class's own ``__dict__`` are wrapped (an inherited method is
    covered where it is defined); with ``subclasses`` the same method names
    are wrapped on every subclass that overrides them.  Nothing here raises
    on a missing name — a later refactor may rename internals, and the
    untraced end-to-end numbers never depend on this table.
    """
    installed = Installed()
    resolved_layers = set()
    for seam in seams:
        module_name, _, class_name = seam.target.partition(":")
        try:
            cls = getattr(importlib.import_module(module_name), class_name)
        except (ImportError, AttributeError):
            installed.unresolved.extend(f"{seam.target}.{m}" for m in seam.methods)
            continue
        classes = [cls, *_subclasses(cls)] if seam.subclasses else [cls]
        for method in seam.methods:
            if not hasattr(cls, method):
                installed.unresolved.append(f"{seam.target}.{method}")
                continue
            for owner in classes:
                original = owner.__dict__.get(method)
                if not callable(original) or getattr(original, "__isabstractmethod__", False):
                    continue
                if isinstance(original, (staticmethod, classmethod)):
                    continue
                label = f"{owner.__name__}.{method}"
                if method in seam.burst_markers:
                    wrapper = recorder.wrap_burst_marker(seam.layer, label, original)
                elif seam.callback_args:
                    wrapper = recorder.wrap_with_callbacks(seam.layer, label, original)
                else:
                    wrapper = recorder.wrap(seam.layer, label, original)
                setattr(owner, method, wrapper)
                installed._restore.append((owner, method, original))
                resolved_layers.add(seam.layer)
    seam_layers = {seam.layer for seam in seams}
    installed.dead_layers = sorted(seam_layers - resolved_layers)
    return installed


# -- span-cost calibration ---------------------------------------------------


class _Probe:
    def noop(self, a, b):
        return None


def calibrate(calls: int = 100_000, repeats: int = 5) -> Tuple[float, float]:
    """Cost of one wrapper: ``(span_cost_ns, inner_share)``.

    ``span_cost_ns`` is what a wrapped empty call costs beyond the bare call;
    ``inner_share`` is the part of it that falls between the wrapper's own
    clock reads (and so lands in the callee's self time; the rest lands in
    the parent's).  The smallest of ``repeats`` loops each: interference
    only ever adds time.
    """
    probe = _Probe()
    bare = probe.noop
    span_costs, inners = [], []
    for _ in range(repeats):
        recorder = SpanRecorder(["probe"])
        traced = recorder.wrap("probe", "probe.noop", _Probe.noop)
        recorder.begin()
        start = perf_counter_ns()
        for _i in range(calls):
            traced(probe, 1, 2)
        traced_ns = perf_counter_ns() - start
        recorder.end()
        start = perf_counter_ns()
        for _i in range(calls):
            bare(1, 2)
        bare_ns = perf_counter_ns() - start
        start = perf_counter_ns()
        for _i in range(calls):
            pass
        loop_ns = perf_counter_ns() - start
        span_costs.append((traced_ns - bare_ns) / calls)
        measured = recorder.self_ns[recorder.index["probe"]] / calls
        inners.append(measured - (bare_ns - loop_ns) / calls)
    span_cost = max(0.0, min(span_costs))
    inner = min(span_cost, max(0.0, min(inners)))
    return span_cost, inner / span_cost if span_cost else 0.0


# -- the ledger a traced run yields ------------------------------------------

#: Bursts whose raw spans go to the Chrome trace.
RAW_BURSTS = 64


def traced_ledger(
    drive: Callable[[SpanRecorder], int],
    *,
    untraced_wall_s: float,
    packets: int,
    smoke: bool,
    passes: int = 2,
    trace_path=None,
) -> Tuple[Dict[str, Optional[float]], List[str]]:
    """Run ``drive`` under the seam table of :mod:`layers`; returns
    ``(values, unresolved)``.

    ``drive(recorder)`` runs one whole pass with the seams installed,
    opening and closing the recorder's traced region around its timed part,
    and returns that part's wall ns measured with its own clock pair.
    ``passes`` of them run (one under ``smoke``) and the fastest one's
    ledger is kept.

    ``<layer>.self_ns_per_pkt`` has the wrappers' own cost taken out, so the
    layers and ``harness`` add up to the *untraced* wall per packet.  The
    cost per span is taken from this run — traced minus untraced wall, over
    the spans closed (``trace.span_cost_in_situ_ns``) — because a wrapper
    around real arguments in a cold cache costs about a quarter more than
    the empty-call calibration (``trace.span_cost_ns``) says; the
    calibration supplies the split between the part charged to the callee
    and the part charged to its parent.  Self times telescope, so the raw
    ledger adds up to the traced wall by construction: time spent in a call
    the seam table does not wrap is not lost, it lands in the layer that made
    the call (or in ``harness``).
    """
    span_cost, inner_share = calibrate(calls=5_000 if smoke else 100_000)
    best = None
    for _ in range(1 if smoke else passes):
        recorder = SpanRecorder(layers.LAYERS, RAW_BURSTS if trace_path else 0)
        with install(recorder, layers.SEAMS) as installed:
            wall_ns = drive(recorder)
        if best is None or wall_ns < best[2]:
            best = (recorder, installed, wall_ns)
    recorder, installed, wall_ns = best
    if trace_path is not None:
        recorder.write_chrome_trace(trace_path)

    untraced_ns = untraced_wall_s * 1e9
    spans = sum(recorder.calls) - recorder.calls[recorder.index[HARNESS]]
    in_situ = max(0.0, (wall_ns - untraced_ns) / spans) if spans else 0.0
    corrected = recorder.corrected_self_ns(in_situ * inner_share, in_situ * (1 - inner_share))
    values: Dict[str, Optional[float]] = {}
    for idx, layer in enumerate(recorder.layers):
        dead = layer in installed.dead_layers
        values[f"{layer}.self_ns_per_pkt"] = None if dead else corrected[layer] / packets
        if layer != HARNESS:
            values[f"{layer}.calls_per_pkt"] = None if dead else recorder.calls[idx] / packets
    values["trace.overhead_x"] = wall_ns / untraced_ns
    values["trace.span_cost_ns"] = span_cost
    values["trace.span_cost_in_situ_ns"] = in_situ
    values["trace.unresolved_names"] = len(installed.unresolved)
    return values, installed.unresolved
