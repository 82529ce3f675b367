"""Per-layer spans and counters for one in-process fedsurv command, taken
from outside the package.

Each traced function is replaced, in every loaded ``fedsurv`` module that
binds it, by a wrapper that opens a span on entry and closes it on exit.
Replacing the binding the caller looks up matters: ``experiments`` holds
its own reference to ``pr_curve`` through ``from .evaluation import``, so
patching ``evaluation.pr_curve`` alone would miss those calls.

A span's self time is its duration minus the durations of the spans it
directly encloses, so the self times of all spans add up to the root
span's duration. Work the tracer does for its own counters is taken off
the span clock, so it lands in no layer's self time; seen from outside,
it is part of the run's unattributed time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

import numpy as np

__all__ = ["Tracer", "TRACE_POINTS", "install"]


class Tracer:
    """Aggregated spans (calls, self time) and named counters."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._hidden = 0.0  # bookkeeping time removed from the span clock
        self._stack: list[list] = []  # [name, start, time in child spans]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self.root_s = 0.0

    def _now(self) -> float:
        return self._clock() - self._hidden

    def enter(self, name: str) -> None:
        self._stack.append([name, self._now(), 0.0])

    def exit(self) -> None:
        name, start, child_s = self._stack.pop()
        duration = self._now() - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child_s
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.root_s += duration

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    @contextlib.contextmanager
    def bookkeeping(self):
        """Time spent inside is invisible to every span."""
        start = self._clock()
        try:
            yield
        finally:
            self._hidden += self._clock() - start

    def wrap(self, fn, name, count=None):
        """`fn` under a span called `name`, or `name(args, kwargs)` when
        `name` is callable; `count(tracer, args, kwargs)` runs before the
        span opens, as bookkeeping."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                with self.bookkeeping():
                    count(self, args, kwargs)
            self.enter(name(args, kwargs) if callable(name) else name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return traced


# ----------------------------------------------------------------- counters


def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs.get(key)


def _count_binomial(tracer, args, kwargs):
    c, n = np.broadcast_arrays(
        np.asarray(_arg(args, kwargs, 0, "c")), np.asarray(_arg(args, kwargs, 1, "n"))
    )
    elements = c.size
    if elements > 1:
        # c <= n, so n * (max n + 1) + c is one integer per distinct (c, n)
        n64 = n.astype(np.int64).ravel()
        key = n64 * (int(n64.max()) + 1) + c.astype(np.int64).ravel()
        distinct = np.unique(key).size
    else:
        distinct = elements
    tracer.add("numerics.binomial_cdf.elements", elements)
    tracer.add("numerics.binomial_cdf.distinct", distinct)


def _combiner_span(args, kwargs):
    return "combine." + str(_arg(args, kwargs, 0, "method"))


def _count_cells(tracer, args, kwargs):
    method = str(_arg(args, kwargs, 0, "method"))
    tracer.add(f"combine.{method}.cells", np.size(_arg(args, kwargs, 1, "p_matrix")))
    tracer.add("combine.combine_matrix.calls", 1)  # its spans are named by method


def _count_share_scan(tracer, args, kwargs):
    # estimate_shares(coarse, t, cfg, site_ids) and
    # estimated_window_total(coarse, t, cfg, site_ids) share this signature
    coarse = _arg(args, kwargs, 0, "coarse")
    site_ids = _arg(args, kwargs, 3, "site_ids")
    if site_ids is None:  # estimate_shares' default: every site that reported
        site_ids = {r.site_id for r in coarse}
    tracer.add("federation.share_scan.sites", len(site_ids))
    tracer.add("federation.share_scan.scanned", len(coarse))


# (module, function, span name, counter). The span name is the layer the
# function belongs to; `cli.main` is the root of every traced run.
TRACE_POINTS = (
    ("fedsurv.cli", "main", "cli", None),
    ("fedsurv.numerics", "binomial_cdf", "numerics.binomial_cdf", _count_binomial),
    ("fedsurv.surge", "exact_p_value", "surge.exact_p_value", None),
    ("fedsurv.combine", "combine_matrix", _combiner_span, _count_cells),
    ("fedsurv.combine", "combine_by_id", "combine.combine_by_id", None),
    ("fedsurv.evaluation", "pr_curve", "evaluation.pr_curve", None),
    ("fedsurv.evaluation", "alarms_from_pvalues", "evaluation.alarms_from_pvalues", None),
    ("fedsurv.evaluation", "match_alarms", "evaluation.match_alarms", None),
    ("fedsurv.evaluation", "alarms_from_growth", "evaluation.alarms_from_growth", None),
    ("fedsurv.semisynth", "poisson_sample", "semisynth.poisson_sample", None),
    ("fedsurv.semisynth", "split_multinomial", "semisynth.split_multinomial", None),
    ("fedsurv.semisynth", "moving_average", "semisynth.moving_average", None),
    ("fedsurv.federation", "site_compute_report", "federation.site_compute_report", None),
    ("fedsurv.federation", "estimate_shares", "federation.estimate_shares", _count_share_scan),
    (
        "fedsurv.federation",
        "estimated_window_total",
        "federation.estimated_window_total",
        _count_share_scan,
    ),
    ("fedsurv.federation", "aggregate_period", "federation.aggregate_period", None),
    ("fedsurv.federation", "run_federation", "federation.run_federation", None),
    ("fedsurv.experiments", "run_power_curve", "experiments.run_power_curve", None),
    ("fedsurv.experiments", "calibrate_threshold", "experiments.calibrate_threshold", None),
    ("fedsurv.experiments", "run_semisynth_sweep", "experiments.run_semisynth_sweep", None),
)


@contextlib.contextmanager
def install(tracer: Tracer):
    """Wrap every trace point at each binding a loaded fedsurv module holds;
    restore the original bindings on exit."""
    for module_name, _, _, _ in TRACE_POINTS:
        importlib.import_module(module_name)
    modules = [m for k, m in list(sys.modules.items()) if k == "fedsurv" or k.startswith("fedsurv.")]
    saved = []
    try:
        for module_name, attr, name, count in TRACE_POINTS:
            original = getattr(sys.modules[module_name], attr)
            traced = tracer.wrap(original, name, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        saved.append((module, key, value))
                        setattr(module, key, traced)
        yield tracer
    finally:
        for module, key, value in reversed(saved):
            setattr(module, key, value)
