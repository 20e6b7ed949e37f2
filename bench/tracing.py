"""Spans around the package's public entry points, recorded from outside.

Each entry point is wrapped where its caller looks it up (a module global
such as ``diskextrema.sweep.find_min_on_disk``, or a method on a class
such as ``PowerSeries.__call__``), so the package itself is unchanged.
A span records its name, start, end, parent span and one amount (points
evaluated, or refinement iterations).  Spans stay in flat arrays until
the run ends; self time is a span's duration minus that of its children.
"""

from __future__ import annotations

from array import array
from time import perf_counter

import numpy as np

#: Amount recorded for an evaluation at a single point.
SCALAR = -1.0
#: ``ExtremumResult.bracket_width`` at or below this means the polish was accepted.
POLISHED_WIDTH = 1e-13


def _eval_points(args, result) -> float:
    """Points evaluated by ``f(self, z)``: the array size, or ``SCALAR``."""
    z = args[1]
    return float(z.size) if isinstance(z, np.ndarray) and z.ndim else SCALAR


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.amount = array("d")
        self.counters: dict[str, float] = {}
        self.circle_results: list = []
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, object]] = []
        #: Entry points the package no longer has under the expected name.
        self.missing: list[str] = []

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recorded as span ``name``; ``observe(args, result)`` gives its amount."""
        nid = len(self.names)
        self.names.append(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        amounts, stack = self.amount, self._stack

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            amounts.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                starts[i] = t0
                stack.pop()
            if observe is not None:
                amounts[i] = observe(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, observe=None) -> None:
        if attr not in vars(owner):
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original, self.wrap(name, original, observe)))

    def install(self) -> None:
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def arrays(self):
        """``(name_id, parent_id, duration, self_time, amount)`` as numpy arrays.

        ``name_id`` indexes ``names``; ``parent_id`` is the parent span's
        name id, or ``len(names)`` for a root span.
        """
        name_id = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
        parent_id = np.where(nested, name_id[np.maximum(parent, 0)], len(self.names))
        return name_id, parent_id, duration, duration - children, np.frombuffer(self.amount)


def _observe_circle(tracer: Tracer):
    def observe(args, result) -> float:
        tracer.circle_results.append(result)
        return float(result.refine_iterations)

    return observe


def package_tracer() -> Tracer:
    """A tracer with every layer boundary of ``diskextrema`` patched (not installed)."""
    from diskextrema import cli, extremum, functions, series, sweep

    t = Tracer()
    t.patch(cli, "main", "cli.main")
    t.patch(cli, "read_series", "series.read")
    t.patch(series.PowerSeries, "__call__", "series.call", _eval_points)
    for cls in (
        functions.SeriesFunction,
        functions.ExampleFamily,
        functions.ExpSeriesFunction,
        functions.Reciprocal,
    ):
        for method in ("value", "deriv1", "deriv2"):
            t.patch(cls, method, f"functions.{method}", _eval_points)
    for module in (sweep, cli):
        t.patch(module, "find_min_on_disk", "extremum.disk")
        t.patch(module, "find_max_on_disk", "extremum.disk")
        t.patch(module, "check_min_theorem", "lemma.check")
        t.patch(module, "check_max_lemma", "lemma.check")
    observe = _observe_circle(t)
    t.patch(extremum, "find_min_on_circle", "extremum.circle", observe)
    t.patch(extremum, "find_max_on_circle", "extremum.circle", observe)
    t.patch(extremum, "modulus_profile", "extremum.profile")
    t.patch(cli, "modulus_profile", "extremum.export_profile")
    t.patch(cli, "write_profile_csv", "extremum.csv_write")
    t.patch(sweep, "run_sweep", "sweep.run")
    t.patch(sweep, "run_trial", "sweep.trial")
    t.patch(sweep, "draw_trial", "sweep.draw")
    return t


#: Per-layer metric names and units, in report order.
LAYER_UNITS = {
    "extremum.searches": "count/op",
    "extremum.refine_s": "s/op",
    "extremum.scalar_evals_per_search": "count",
    "extremum.refine_iterations_mean": "count",
    "extremum.polished_frac": "frac",
    "extremum.screen_s": "s/op",
    "extremum.profile_s": "s/op",
    "extremum.points_per_search": "count",
    "extremum.csv_write_s": "s/op",
    "extremum.csv_bytes": "B/op",
    "series.scalar_calls": "count/op",
    "series.scalar_call_us": "us",
    "series.vector_calls": "count/op",
    "series.points": "count/op",
    "series.eval_s": "s/op",
    "series.parse_s": "s/op",
    "functions.value_calls": "count/op",
    "functions.deriv1_calls": "count/op",
    "functions.deriv2_calls": "count/op",
    "functions.self_s": "s/op",
    "lemma.checks": "count/op",
    "lemma.check_s": "s/op",
    "lemma.evals_per_check": "count",
    "sweep.draw_s": "s/op",
    "sweep.trial_s": "s/op",
    "sweep.self_s": "s/op",
    "cli.commands": "count/op",
    "cli.self_s": "s/op",
    "cli.output_bytes": "B/op",
    "trace.overhead_frac": "frac",
}


def _ratio(num: float, den: float) -> float:
    return float(num / den) if den else 0.0


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-layer values from the recorded spans, normalised by ``ops`` traced ops.

    ``trace.overhead_frac`` is left to the caller, which timed both modes.
    """
    name_id, parent_id, duration, self_time, amount = tracer.arrays()
    labels = tracer.names + [""]

    def where(ids, pred):
        return np.array([pred(label) for label in labels], dtype=bool)[ids]

    def span(name):
        return where(name_id, lambda label: label == name)

    def layer(ids, *prefixes):
        return where(ids, lambda label: label.split(".", 1)[0] in prefixes)

    circle, disk, profile = span("extremum.circle"), span("extremum.disk"), span("extremum.profile")
    search = ("extremum.disk", "extremum.circle", "extremum.profile")
    checks, series_call = span("lemma.check"), span("series.call")
    scalar = amount == SCALAR
    funcs = layer(name_id, "functions")
    entered = funcs & layer(parent_id, "extremum", "lemma")
    in_search = funcs & where(parent_id, lambda label: label in search)
    searches = int(circle.sum())
    results = tracer.circle_results

    def under(parent_name):
        return where(parent_id, lambda label: label == parent_name)

    return {
        "extremum.searches": _ratio(searches, ops),
        "extremum.refine_s": _ratio(
            duration[circle].sum() - duration[profile & under("extremum.circle")].sum(), ops
        ),
        "extremum.scalar_evals_per_search": _ratio((in_search & scalar).sum(), searches),
        "extremum.refine_iterations_mean": _ratio(
            sum(r.refine_iterations for r in results), len(results)
        ),
        "extremum.polished_frac": _ratio(
            sum(r.bracket_width <= POLISHED_WIDTH for r in results), len(results)
        ),
        "extremum.screen_s": _ratio(
            duration[disk].sum() - duration[circle & under("extremum.disk")].sum(), ops
        ),
        "extremum.profile_s": _ratio(
            duration[profile | span("extremum.export_profile")].sum(), ops
        ),
        "extremum.points_per_search": _ratio(amount[in_search & ~scalar].sum(), searches),
        "extremum.csv_write_s": _ratio(duration[span("extremum.csv_write")].sum(), ops),
        "extremum.csv_bytes": _ratio(tracer.counters.get("extremum.csv_bytes", 0.0), ops),
        "series.scalar_calls": _ratio((series_call & scalar).sum(), ops),
        "series.scalar_call_us": 1e6
        * _ratio(duration[series_call & scalar].sum(), (series_call & scalar).sum()),
        "series.vector_calls": _ratio((series_call & ~scalar).sum(), ops),
        "series.points": _ratio(amount[series_call & ~scalar].sum(), ops),
        "series.eval_s": _ratio(duration[series_call].sum(), ops),
        "series.parse_s": _ratio(duration[span("series.read")].sum(), ops),
        "functions.value_calls": _ratio((entered & span("functions.value")).sum(), ops),
        "functions.deriv1_calls": _ratio((entered & span("functions.deriv1")).sum(), ops),
        "functions.deriv2_calls": _ratio((entered & span("functions.deriv2")).sum(), ops),
        "functions.self_s": _ratio(self_time[funcs].sum(), ops),
        "lemma.checks": _ratio(checks.sum(), ops),
        "lemma.check_s": _ratio(duration[checks].sum(), ops),
        "lemma.evals_per_check": _ratio((funcs & under("lemma.check")).sum(), checks.sum()),
        "sweep.draw_s": _ratio(duration[span("sweep.draw")].sum(), ops),
        "sweep.trial_s": _ratio(duration[span("sweep.trial")].sum(), ops),
        "sweep.self_s": _ratio(self_time[layer(name_id, "sweep")].sum(), ops),
        "cli.commands": _ratio(span("cli.main").sum(), ops),
        "cli.self_s": _ratio(self_time[span("cli.main")].sum(), ops),
        "cli.output_bytes": _ratio(tracer.counters.get("cli.output_bytes", 0.0), ops),
    }
