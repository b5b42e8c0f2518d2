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
regular delta x delta minor.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .trop_core import Support, TropPoly, curve, frac
from .trop_linalg import trop_det_value_regular
from .residual import ResidualField
from .stable_ops import point_value_matrix, stable_curve
from .construction import (
    Construction,
    Intersect,
    is_admissible,
    labeling_choices,
    lift_conditions,
    realize,
)
from .genpos import in_general_position
from . import dsl


# ---------------------------------------------------------------------------
# thesis feasibility


def tropical_collinear(p, q, r) -> bool:
    """Three points lie on a common tropical line iff the 3x3 tropical
    determinant of their projective coordinates is singular."""
    rows = [[frac(t[0]), frac(t[1]), Fraction(0)] for t in (p, q, r)]
    _, regular = trop_det_value_regular(rows)
    return not regular


def thesis_feasible_curve(I: Support, pts):
    """A curve of support I through all of ``pts``, or None.

    The witness is the first stable curve through delta-1 of the points
    (padded by repeating the last one) that passes through all of them.
    Without one, None is proven by delta of the points whose point-value
    matrix is tropically regular: a curve through all the points would
    make every such minor singular.
    """
    pts = [(frac(p[0]), frac(p[1])) for p in pts]
    delta = I.delta()
    need = delta - 1
    base = list(pts)
    while len(base) < need:
        base.append(base[-1] if base else (Fraction(0), Fraction(0)))
    subsets = itertools.combinations(range(len(base)), need)
    for sub in subsets:
        f = stable_curve(I, [base[i] for i in sub])
        if all(f.on_curve(p) for p in pts):
            return f
    for sub in itertools.combinations(pts, delta):
        if trop_det_value_regular(point_value_matrix(I, sub))[1]:
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

    Candidates: all curve vertices, all pairwise edge crossings, and
    base points of vertex-free curves; the lexicographic minimum of the
    candidates lying on every curve is returned.
    """
    if not curves:
        raise ValueError("need at least one curve")
    complexes = [curve(f) for f in curves]
    candidates = set()
    for cx in complexes:
        candidates.update(tuple(v) for v in cx.vertices)
        for e in cx.edges:
            if e.kind == "line":
                candidates.add(tuple(e.base))
    for a in range(len(complexes)):
        for b in range(a + 1, len(complexes)):
            for e1 in complexes[a].edges:
                for e2 in complexes[b].edges:
                    p = _edge_cross(e1, e2)
                    if p is not None:
                        candidates.add(p)
    good = [p for p in sorted(candidates) if all(f.on_curve(p) for f in curves)]
    return good[0] if good else None


def _edge_cross(e1, e2):
    d1, d2 = e1.dir, e2.dir
    det = d1[0] * d2[1] - d1[1] * d2[0]
    if det == 0:
        return None
    rx = e2.base[0] - e1.base[0]
    ry = e2.base[1] - e1.base[1]
    t = Fraction(rx * d2[1] - ry * d2[0], det)
    s = Fraction(rx * d1[1] - ry * d1[0], det)
    if not _in_range(e1, t) or not _in_range(e2, s):
        return None
    return (e1.base[0] + t * d1[0], e1.base[1] + t * d1[1])


def _in_range(e, t):
    if e.kind == "line":
        return True
    if t < 0:
        return False
    return e.kind == "ray" or t <= e.length


# ---------------------------------------------------------------------------
# statements and checking


@dataclass
class ThesisPoint:
    name: str
    on: list


@dataclass
class ThesisCurve:
    name: str
    support: Support
    through: list


@dataclass
class Statement:
    name: str
    hypothesis: Construction
    thesis: object
    genpos_pairs: list = dc_field(default_factory=list)  # [(point names, curve name)]


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
                    "inputs": {k: _input_json(v) for k, v in t.inputs.items()},
                    "note": t.note,
                }
                for t in self.failures
            ],
        }


def _input_json(v):
    if isinstance(v, TropPoly):
        return v.to_json()
    return [str(v[0]), str(v[1])]


def sample_inputs(c: Construction, rng: random.Random, box: int = 8, special=None):
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
        repeat_point = (Fraction(rng.randint(-box, box)), Fraction(rng.randint(-box, box)))
    for n in c.input_points:
        if repeat_point is not None:
            vals[n] = repeat_point
        else:
            vals[n] = (Fraction(rng.randint(-box, box)), Fraction(rng.randint(-box, box)))
    for n, sup in c.input_curves:
        vals[n] = TropPoly(sup, [Fraction(rng.randint(-box, box)) for _ in sup.points])
    return vals


def _run_thesis(s: Statement, r):
    if isinstance(s.thesis, ThesisPoint):
        curves = [r.values[n] for n in s.thesis.on]
        return thesis_feasible_point(curves)
    pts = [r.values[n] for n in s.thesis.through]
    return thesis_feasible_curve(s.thesis.support, pts)


def check_statement(
    s: Statement,
    trials: int = 100,
    seed: int = 0,
    box: int = 8,
    field: ResidualField | None = None,
    lift_probe: int = 1,
    specials: bool = True,
) -> TheoremVerdict:
    """Property-based check: the thesis element must exist for every
    sampled realization of the hypothesis (including degenerate corner
    cases).  For admissible hypotheses the first trials also cross-run
    the numeric lifting conditions, exhibiting the transfer mechanism."""
    if trials < 1:
        raise ValueError(f"a statement check needs at least one trial, got {trials}")
    field = field or ResidualField(10007)
    admissible, _ = is_admissible(s.hypothesis)
    out = []
    failures = []
    for t in range(trials):
        rng = random.Random(seed * 1000003 + t)
        special = None
        if specials and t == 0:
            special = "zero"
        elif specials and t == 1:
            special = "repeat"
        inputs = sample_inputs(s.hypothesis, rng, box, special)
        r = realize(s.hypothesis, inputs)
        if s.genpos_pairs:
            trial = _check_with_labelings(s, inputs, r, t)
        else:
            witness = _run_thesis(s, r)
            trial = Trial(index=t, inputs=inputs, witness=witness, passed=witness is not None)
        if admissible and t < lift_probe:
            rep = lift_conditions(
                s.hypothesis, r, mode="numeric", field=field, seed=seed + t, trials=4
            )
            trial.lift_verdict = rep.verdict
        out.append(trial)
        if not trial.passed:
            failures.append(trial)
    return TheoremVerdict(
        name=s.name, trials=out, passed=sum(1 for t in out if t.passed), failures=failures
    )


def _check_with_labelings(s: Statement, inputs, r0, t) -> Trial:
    """Conditional statements (weak Pascal): for every labeling whose
    double-path point sets are in generic position, the thesis must hold.
    ``r0`` is the realization of ``inputs`` in the default labeling."""
    results = []
    ok = True
    for lab in labeling_choices(s.hypothesis, r0):
        if all(perm == tuple(range(len(perm))) for perm in lab.values()):
            r = r0  # labeling_choices keeps the identity for its key
        else:
            r = realize(s.hypothesis, inputs, labeling=lab)
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
