"""Per-layer spans, taken from outside the program.

:meth:`Tracer.install` replaces every function binding in the nine
``tropgeo`` modules and in the package's re-exports with a wrapper, and
``RPoly.__mul__`` likewise; no file of the program changes.  A span is
one call of a wrapped function.  Its self time is its duration minus the
durations of the spans opened inside it, and each span is charged to
the module that defines the function.  Spans are folded into totals as
they close rather than kept, which bounds memory on long runs.

Wrappers only record while ``active`` is true, so the benchmark's own
reference checks, which call into the program too, are not counted.
"""

from __future__ import annotations

import functools
import importlib
import types
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("trop_core", "trop_linalg", "residual", "stable_ops", "genpos",
           "construction", "theorems", "dsl", "cli")

# the functions whose calls and self time are reported one by one
REPORTED = {
    "trop_core": ("dual_subdivision", "curve"),
    "trop_linalg": ("trop_det_value_regular", "cramer_stable", "masked_det"),
    "residual": ("residual_terms", "rpoly_roots_univariate", "density_test", "RPoly.mul"),
    "stable_ops": ("stable_curve", "stable_intersection", "curve_step_jets",
                   "intersection_step_conditions", "sylvester_resultant",
                   "local_intersection_solve"),
    "genpos": ("in_general_position",),
    "construction": ("validate_construction", "is_admissible", "realize",
                     "lift_conditions", "classify_certificates"),
    "theorems": ("check_statement", "thesis_feasible_curve", "thesis_feasible_point"),
    "dsl": ("parse", "to_construction"),
    "cli": ("main",),
}

# computed counts and ratios, with their units
DERIVED = {
    "trop_linalg.hungarian_n3": "count",
    "trop_linalg.hungarian_per_cramer": "ratio",
    "trop_core.dual_subdivision.repeat_ratio": "ratio",
    "theorems.stable_curves_per_curve_thesis": "ratio",
    "construction.realize_per_trial": "ratio",
    "construction.validate_per_realize": "ratio",
    "residual.rpoly_mul_terms": "count",
}


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for mod, fns in REPORTED.items():
        for fn in fns:
            out[f"{mod}.{fn}.calls"] = "count"
            out[f"{mod}.{fn}.self_s"] = "s"
    for mod in MODULES:
        out[f"{mod}.self_s"] = "s"
        out[f"{mod}.errors"] = "count"
    out.update(DERIVED)
    out["trace.overhead_s"] = "s"
    return out


class Tracer:
    def __init__(self):
        self.active = False
        self.stack = []          # [key, child seconds] of the open spans
        self.open = Counter()    # key -> open spans of that function
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.errors = Counter()
        self.hungarian_n3 = 0
        self.hungarians_in_cramer = 0
        self.curves_in_thesis = 0
        self.subdivided = set()
        self.subdivision_repeats = 0
        self.rpoly_mul_terms = 0
        self.trials = 0
        self._on_enter = {
            "trop_linalg.trop_det_value_regular": self._hungarian,
            "stable_ops.stable_curve": self._stable_curve,
            "trop_core.dual_subdivision": self._subdivision,
            "residual.RPoly.mul": self._rpoly_mul,
            "theorems.check_statement": self._check_statement,
        }

    # -- counters taken at the layer boundaries

    def _hungarian(self, args, kwargs):
        self.hungarian_n3 += len(args[0]) ** 3
        if self.open["trop_linalg.cramer_stable"]:
            self.hungarians_in_cramer += 1

    def _stable_curve(self, args, kwargs):
        if self.open["theorems.thesis_feasible_curve"]:
            self.curves_in_thesis += 1

    def _subdivision(self, args, kwargs):
        f = args[0]
        key = (f.support.points, f.coeffs)
        if key in self.subdivided:
            self.subdivision_repeats += 1
        self.subdivided.add(key)

    def _rpoly_mul(self, args, kwargs):
        a, b = args
        self.rpoly_mul_terms += len(a.terms) * len(getattr(b, "terms", (0,)))

    def _check_statement(self, args, kwargs):
        self.trials += kwargs["trials"] if "trials" in kwargs else args[1]

    # -- wrapping

    def _wrap(self, key: str, fn):
        mod = key.split(".", 1)[0]
        hook = self._on_enter.get(key)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if hook is not None:
                hook(args, kwargs)
            span = [key, 0.0]
            tracer.stack.append(span)
            tracer.open[key] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                caller = tracer.stack[-2][0] if len(tracer.stack) > 1 else ""
                if caller.split(".", 1)[0] != mod:
                    tracer.errors[mod] += 1
                raise
            finally:
                dt = perf_counter() - t0
                tracer.stack.pop()
                tracer.open[key] -= 1
                tracer.calls[key] += 1
                tracer.self_s[key] += dt - span[1]
                if tracer.stack:
                    tracer.stack[-1][1] += dt

        return functools.wraps(fn)(wrapper)

    def install(self):
        """Wrap every function binding of the program, once per function."""
        pkg = importlib.import_module("tropgeo")
        mods = {m: importlib.import_module(f"tropgeo.{m}") for m in MODULES}
        wrapped = {}

        def wrapper_for(fn):
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self._wrap(f"{fn.__module__.split('.')[-1]}.{fn.__name__}", fn)
            return wrapped[id(fn)]

        for ns in [pkg, *mods.values()]:
            for name, obj in list(vars(ns).items()):
                if (isinstance(obj, types.FunctionType)
                        and obj.__module__.split(".")[-1] in mods
                        and obj.__module__.startswith("tropgeo.")):
                    setattr(ns, name, wrapper_for(obj))
        rpoly = mods["residual"].RPoly
        mul = self._wrap("residual.RPoly.mul", rpoly.__mul__)
        rpoly.__mul__ = mul
        rpoly.__rmul__ = mul

    # -- report

    def metrics(self) -> dict:
        out = {}
        for mod, fns in REPORTED.items():
            for fn in fns:
                out[f"{mod}.{fn}.calls"] = self.calls[f"{mod}.{fn}"]
                out[f"{mod}.{fn}.self_s"] = self.self_s[f"{mod}.{fn}"]
        for mod in MODULES:
            out[f"{mod}.self_s"] = sum(v for k, v in self.self_s.items() if k.split(".", 1)[0] == mod)
            out[f"{mod}.errors"] = self.errors[mod]

        def ratio(a, b):
            return a / b if b else 0.0

        c = self.calls
        out["trop_linalg.hungarian_n3"] = self.hungarian_n3
        out["trop_linalg.hungarian_per_cramer"] = ratio(self.hungarians_in_cramer,
                                                        c["trop_linalg.cramer_stable"])
        out["trop_core.dual_subdivision.repeat_ratio"] = ratio(self.subdivision_repeats,
                                                              c["trop_core.dual_subdivision"])
        out["theorems.stable_curves_per_curve_thesis"] = ratio(self.curves_in_thesis,
                                                              c["theorems.thesis_feasible_curve"])
        out["construction.realize_per_trial"] = ratio(c["construction.realize"], self.trials)
        out["construction.validate_per_realize"] = ratio(c["construction.validate_construction"],
                                                         c["construction.realize"])
        out["residual.rpoly_mul_terms"] = self.rpoly_mul_terms
        return out
