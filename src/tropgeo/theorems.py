"""Constructible incidence statements and the tropical thesis checker.

A statement is (G, H, x): hypothesis construction H plus a single thesis
node x with its incidences.  Checking is property-based: sample inputs,
realize the hypothesis, then decide exactly whether a tropical element x
exists (a curve of fixed support through the produced points, or a
common point of the produced curves).

The curve-thesis decision is exact and has no search bound.  delta points
lie on a common curve of support I exactly when their delta x delta
point-value matrix is tropically singular (Richter-Gebert, Sturmfels and
Theobald, "First steps in tropical geometry").  A witness is a stable
curve through delta-1 of the points; infeasibility is proven by a
regular delta x delta minor, read off the Cramer solutions that the
witness search computed.

A point thesis is decided on the vertices of the union of the curves,
which is the curve of their product: the dual vertices of the maximal
cells of the product subdivision (Maclagan and Sturmfels, "Introduction
to Tropical Geometry", section 3).
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from .trop_core import Support, TropPoly, curve, dual_subdivision, frac
from .residual import DEFAULT_FIELD, LIKELY_EMPTY, NONEMPTY_DENSE, trial_rng
from .stable_ops import _solve_curve, trop_product
from .construction import (
    Construction,
    Intersect,
    Statement,
    ThesisCurve,
    ThesisPoint,
    _passes,
    _realize,
    _require_exact,
    is_admissible,
    labeling_choices,
)
from .genpos import in_general_position
from . import dsl


# ---------------------------------------------------------------------------
# thesis feasibility


def thesis_feasible_curve(I: Support, pts):
    """A curve of support I through all of ``pts``, or None.

    The witness is the first stable curve through delta-1 of the points
    (padded by repeating the last one) that passes through all of them.
    Without one, None is proven by delta of the points whose point-value
    matrix is tropically regular: a curve through all the points would
    make every such minor singular.  The proof reads the Cramer
    solutions that the witness search computed: expanded along its last
    point p, the minor of delta points is f(p) for f the stable curve
    through the others, with coefficients the tropical minors of their
    matrix, so it is regular exactly when one monomial k attains f(p)
    and f's minor k is regular.
    """
    pts = [(frac(p[0]), frac(p[1])) for p in pts]
    delta = I.delta()
    need = delta - 1
    base = list(pts)
    while len(base) < need:
        base.append(base[-1] if base else (Fraction(0), Fraction(0)))
    solved = {}
    for sub in itertools.combinations(range(len(base)), need):
        f, sol = _solve_curve(I, [base[i] for i in sub])
        if all(f.on_curve(p) for p in pts):
            return f
        solved[sub] = sol
    # with delta points or more, base is pts and each delta-subset's
    # first delta-1 points were solved above
    for sub in itertools.combinations(range(len(pts)), delta):
        sol = solved[sub[:-1]]
        _, attained = TropPoly(I, sol.values).eval(pts[sub[-1]])
        if len(attained) == 1 and sol.regular[I.points.index(attained[0])]:
            return None
    # Not reached with at most delta points.  Fewer than delta points lie
    # on the stable curve through them.  For delta points with a singular
    # matrix A, two optimal permutations differ in some row i.  The stable
    # curve through the other rows has the tropical minors of A as its
    # coefficients, and the Laplace expansion of det A along row i attains
    # its maximum at both columns, so that curve passes through point i
    # and the loop above returned it.
    raise AssertionError(f"no witness curve and no regular minor for {len(pts)} points")


def thesis_feasible_point(curves):
    """A point common to all curves, or None.

    The union of the curves is the curve of their tropical product, whose
    vertices are the dual vertices of the maximal cells of the product
    subdivision: every vertex of one curve and every point where edges of
    two curves cross.  A common point that is no such vertex lies inside
    parallel edges of all the curves, and moving along them reaches an
    end, a vertex, unless all of those edges are whole lines.  Only
    collinear supports have lines, so the base points of their lines are
    candidates too.  The lexicographic minimum of the candidates that lie
    on every curve is returned.
    """
    if not curves:
        raise ValueError("need at least one curve")
    candidates = {c.dual_vertex for c in dual_subdivision(reduce(trop_product, curves)).facets}
    for f in curves:
        if len(f.support.corners()) == 2:
            candidates.update(e.base for e in curve(f).edges)
    return next((p for p in sorted(candidates) if all(f.on_curve(p) for f in curves)), None)


# ---------------------------------------------------------------------------
# statements and checking


@dataclass
class Trial:
    index: int
    inputs: dict
    witness: object
    passed: bool
    note: str = ""
    lift_verdict: str | None = None


@dataclass
class TheoremVerdict:
    name: str
    trials: list
    passed: int
    failures: list

    @property
    def holds(self):
        return not self.failures

    def to_json(self):
        return {
            "name": self.name,
            "trials": len(self.trials),
            "passed": self.passed,
            "failures": [
                {
                    "trial": t.index,
                    "inputs": {k: value_json(v) for k, v in t.inputs.items()},
                    "note": t.note,
                }
                for t in self.failures
            ],
        }


def value_json(v):
    """A realized point or curve as JSON."""
    if isinstance(v, TropPoly):
        return v.to_json()
    return [str(v[0]), str(v[1])]


BOX = 8  # sampled input coordinates and coefficients lie in [-BOX, BOX]


def sample_inputs(c: Construction, rng: random.Random, special=None):
    """Random integer input realization; specials: 'zero' and 'repeat'."""
    vals = {}
    if special == "zero":
        for n in c.input_points:
            vals[n] = (Fraction(0), Fraction(0))
        for n, sup in c.input_curves:
            vals[n] = TropPoly(sup, [Fraction(0)] * sup.delta())
        return vals
    repeat_point = None
    if special == "repeat":
        repeat_point = (Fraction(rng.randint(-BOX, BOX)), Fraction(rng.randint(-BOX, BOX)))
    for n in c.input_points:
        if repeat_point is not None:
            vals[n] = repeat_point
        else:
            vals[n] = (Fraction(rng.randint(-BOX, BOX)), Fraction(rng.randint(-BOX, BOX)))
    for n, sup in c.input_curves:
        vals[n] = TropPoly(sup, [Fraction(rng.randint(-BOX, BOX)) for _ in sup.points])
    return vals


def _run_thesis(s: Statement, r):
    if isinstance(s.thesis, ThesisPoint):
        curves = [r.values[n] for n in s.thesis.on]
        return thesis_feasible_point(curves)
    pts = [r.values[n] for n in s.thesis.through]
    return thesis_feasible_curve(s.thesis.support, pts)


def check_statement(s: Statement, trials: int = 100, seed: int = 0) -> TheoremVerdict:
    """Property-based check: the thesis element must exist for every
    sampled realization of the hypothesis, including the degenerate
    corner cases of trial 0 (every input zero) and trial 1 (every input
    point the same).  For admissible hypotheses the first trial also
    cross-runs the numeric lifting conditions, exhibiting the transfer
    mechanism: the verdict of ``lift_conditions(..., DEFAULT_FIELD,
    trials=4)``, which is nonempty-dense exactly when some trial
    succeeds, so the probe stops at the first success."""
    if trials < 1:
        raise ValueError(f"a statement check needs at least one trial, got {trials}")
    admissible, _ = is_admissible(s.hypothesis)
    _require_exact(s.hypothesis)  # once: every trial realizes the same hypothesis
    out = []
    failures = []
    for t in range(trials):
        rng = trial_rng(seed, t)
        inputs = sample_inputs(s.hypothesis, rng, {0: "zero", 1: "repeat"}.get(t))
        r = _realize(s.hypothesis, inputs)
        if s.genpos_pairs:
            trial = _check_with_labelings(s, inputs, r, t)
        else:
            witness = _run_thesis(s, r)
            trial = Trial(index=t, inputs=inputs, witness=witness, passed=witness is not None)
        if admissible and t == 0:
            lifts = any(ok for *_, ok in _passes(s.hypothesis, r, DEFAULT_FIELD, seed, trials=4))
            trial.lift_verdict = NONEMPTY_DENSE if lifts else LIKELY_EMPTY
        out.append(trial)
        if not trial.passed:
            failures.append(trial)
    return TheoremVerdict(
        name=s.name, trials=out, passed=sum(1 for t in out if t.passed), failures=failures
    )


def _check_with_labelings(s: Statement, inputs, r0, t) -> Trial:
    """Conditional statements (weak Pascal): for every labeling whose
    double-path point sets are in generic position, the thesis must hold.
    ``r0`` is the realization of ``inputs`` in the default labeling.

    The labeling-independent work is done once per trial: each labeling
    is realized against r0, re-solving only the steps whose input values
    a relabeled point changed, and the genpos curves keep one gamma graph
    each across labelings and pairs (``genpos.build_gamma``)."""
    results = []
    ok = True
    for lab in labeling_choices(s.hypothesis, r0):
        r = _realize(s.hypothesis, inputs, labeling=lab, base=r0)
        pre = all(
            in_general_position(r.values[cv], [r.values[p] for p in pts])[0]
            for pts, cv in s.genpos_pairs
        )
        witness = _run_thesis(s, r)
        results.append((lab, pre, witness))
        if pre and witness is None:
            ok = False
    note = f"{sum(1 for _, pre, _ in results if pre)}/{len(results)} labelings satisfy the precondition"
    return Trial(index=t, inputs=inputs, witness=results, passed=ok, note=note)


# ---------------------------------------------------------------------------
# the catalog


def cayley_bacharach_statement(d: int = 3, e: int = 3) -> Statement:
    if d < 3 or e < 3:
        raise ValueError("Cayley-Bacharach needs d, e >= 3")
    l = 1 + (d * d + e * e - 3 * d - 3 * e) // 2
    supd, supe = Support.degree(d), Support.degree(e)
    thesis_sup = Support.degree(d + e - 3)
    c = Construction(
        input_points=[f"p{i}" for i in range(1, l + 1)],
        input_curves=[("C1", supd), ("C2", supe)],
    )
    de = d * e
    c.steps.append(Intersect(names=[f"q{i}" for i in range(1, de + 1)], curves=("C1", "C2")))
    return Statement(
        name=f"cayley_bacharach_{d}_{e}",
        hypothesis=c,
        thesis=ThesisCurve(
            name="R",
            support=thesis_sup,
            through=[f"q{i}" for i in range(1, de + 1)] + [f"p{i}" for i in range(1, l + 1)],
        ),
    )


_CATALOG = ("fano", "pappus", "pascal_converse", "chasles", "cayley_bacharach_3_3", "weak_pascal")


def catalog() -> dict:
    """The built-in statements, keyed by name, parsed from their .tgc
    files in the package's ``catalog`` directory."""
    out = {}
    for name in _CATALOG:
        with open(os.path.join(os.path.dirname(__file__), "catalog", f"{name}.tgc")) as f:
            out[name] = dsl.to_statement(dsl.parse(f.read()), name=name)
    return out
