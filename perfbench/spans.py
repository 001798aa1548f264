"""Spans around the public functions of every coinwords module.

``Tracer.install`` replaces each traced function at every binding that names
it: its own module, each module that imported it with ``from .x import f``,
and the ``coinwords`` package namespace.  Calls made inside the package go
through those bindings, so they are traced too.  ``Tracer.restore`` puts the
original objects back.  Spans (name, start, end, parent) stay in memory until
the run ends; ``Tracer.layer_metrics`` turns them into the per-layer numbers.
"""

import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict

MODULES = ("words", "counting", "genfun", "stats", "closedform", "montecarlo", "verify", "cli")

# Methods traced on top of each module's public functions.
METHODS = {
    "stats": {"DyadicRational": ("__init__",)},
    "genfun": {"RationalFunction": ("derivative", "__call__")},
}

# Spans reported with calls and self time, then spans reported by calls only.
TIMED = (
    "counting.extend_counts", "counting.automaton_counts", "counting.transition_table",
    "stats.pmf", "stats.cdf", "stats.tail", "stats.threshold", "stats.closed_tail",
    "stats.moments", "stats.partial_moment_sums", "stats.DyadicRational",
    "genfun.closed_gf", "genfun.finite_gf",
    "genfun.RationalFunction.derivative", "genfun.RationalFunction.__call__",
    "closedform.solve_denominator", "closedform.certify_horizon",
    "words.brute_force_count", "verify.run_checks",
    "montecarlo.run_trials", "montecarlo.histogram_csv", "cli.main",
)
COUNTED = ("counting.counts", "closedform.closed_form_count")

# Work counts: span name -> ((counter, f(arguments by name, result) -> amount),
# ...).  Each must repeat exactly for a given op list.
WORK = {
    "counting.extend_counts": (("terms", lambda a, r: len(r)),),
    "counting.automaton_counts": (("terms", lambda a, r: len(r)),),
    "words.brute_force_count": (
        ("strings", lambda a, r: 1 << a["n"] if a["n"] >= len(a["w"]) else 0),
    ),
    "stats.threshold": (("scan_n", lambda a, r: r),),
    "verify.run_checks": (("checks_failed", lambda a, r: sum(not c.passed for c in r)),),
    "montecarlo.run_trials": (
        ("trials", lambda a, r: r.trials),
        ("truncated", lambda a, r: r.truncated),
        ("tosses", lambda a, r: sum(t * c for t, c in r.histogram.items())
         + r.truncated * a["cfg"].max_tosses_per_trial),
    ),
}
WORK_NAMES = tuple(f"{span}.{c}" for span, counters in WORK.items() for c, _ in counters)

#: Every per-layer metric the traced run reports, with its unit.
LAYER_METRICS = {
    **{f"{s}.calls": "count" for s in TIMED + COUNTED},
    **{f"{s}.self_ms": "ms" for s in TIMED},
    **{name: "count" for name in WORK_NAMES},
    "counting.terms_per_op": "terms/op",
    "cli.import_ms": "ms",
    "cli.interpreter_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.work: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        counters = WORK.get(name, ())
        signature = inspect.signature(fn)
        spans, lock, local, work = self.spans, self._lock, self._local, self.work

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            with lock:
                index = len(spans)
                spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counters:
                named = signature.bind(*args, **kwargs).arguments
                for counter, amount in counters:
                    work[f"{name}.{counter}"] += amount(named, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of each module, at every binding."""
        package = importlib.import_module("coinwords")
        modules = {m: importlib.import_module(f"coinwords.{m}") for m in MODULES}
        wrappers: dict[int, object] = {}
        for short, mod in modules.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for method in methods:
                    original = cls.__dict__[method]
                    label = f"{short}.{cls_name}" if method == "__init__" else f"{short}.{cls_name}.{method}"
                    self._set(cls, method, self._wrap(label, original), original)
        for mod in (package, *modules.values()):
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, attr, hit[1], value)

    def _set(self, owner, attr: str, new, old) -> None:
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def restore(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def self_times(self) -> dict[str, tuple[int, float]]:
        """span name -> (calls, self seconds): duration minus time in child spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for (name, start, end, _), inner in zip(self.spans, child_time):
            agg = out[name]
            agg[0] += 1
            agg[1] += end - start - inner
        return {k: (v[0], v[1]) for k, v in out.items()}

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Values for every metric in LAYER_METRICS that the spans determine."""
        times = self.self_times()
        values: dict[str, float] = {}
        for metric in LAYER_METRICS:
            span, _, kind = metric.rpartition(".")
            if kind == "calls":
                values[metric] = times.get(span, (0, 0.0))[0]
            elif kind == "self_ms":
                values[metric] = times.get(span, (0, 0.0))[1] * 1000
            elif metric in WORK_NAMES:
                values[metric] = self.work.get(metric, 0)
        terms = self.work.get("counting.extend_counts.terms", 0) + self.work.get(
            "counting.automaton_counts.terms", 0
        )
        values["counting.terms_per_op"] = terms / ops if ops else 0.0
        return values

