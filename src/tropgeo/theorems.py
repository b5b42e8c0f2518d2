"""Constructible incidence statements and the tropical thesis checker.

A statement is (G, H, x): hypothesis construction H plus a single thesis
node x with its incidences.  Checking is property-based: sample inputs,
realize the hypothesis, then decide exactly whether a tropical element x
exists (a curve of fixed support through the produced points, or a
common point of the produced curves).

The curve-thesis decision is exact: fast path through stable curves of
(delta-1)-subsets, complete path by branching over per-point argmax
pairs with rational linear feasibility (substitution for the equalities,
Fourier-Motzkin for the inequalities).
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
from .stable_ops import stable_curve
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


class SearchBoundExceeded(RuntimeError):
    def __init__(self, bound):
        super().__init__(f"thesis search exceeded the node bound {bound}")
        self.bound = bound


# ---------------------------------------------------------------------------
# exact rational linear feasibility (Fourier-Motzkin with witnesses)


def _fm_solve(ineqs, nvars, cap=20000):
    """Feasibility of sum(c_i x_i) + d >= 0 systems over Q.

    Returns a witness assignment list or None.  Inequalities are
    (coeff tuple, const).  Eliminates the last variable first.
    """
    ineqs = _fm_dedupe(ineqs)
    if len(ineqs) > cap:
        raise SearchBoundExceeded(cap)
    if nvars == 0:
        for _, d in ineqs:
            if d < 0:
                return None
        return []
    k = nvars - 1
    pos, neg, rest = [], [], []
    for c, d in ineqs:
        ck = c[k]
        if ck > 0:
            pos.append((c, d))
        elif ck < 0:
            neg.append((c, d))
        else:
            rest.append((c[:k], d))
    new = list(rest)
    for cp, dp in pos:
        for cn, dn in neg:
            # x_k >= -(rest_p)/cp_k and x_k <= rest_n/(-cn_k)
            a = -cn[k]
            b = cp[k]
            c = tuple(cp[i] * a + cn[i] * b for i in range(k))
            new.append((c, dp * a + dn * b))
    sub = _fm_solve(new, k, cap)
    if sub is None:
        return None
    lo, hi = None, None
    for c, d in pos:
        val = sum(c[i] * sub[i] for i in range(k)) + d
        bound = -val / c[k]
        lo = bound if lo is None else max(lo, bound)
    for c, d in neg:
        val = sum(c[i] * sub[i] for i in range(k)) + d
        bound = -val / c[k]
        hi = bound if hi is None else min(hi, bound)
    if lo is None and hi is None:
        x = Fraction(0)
    elif lo is None:
        x = hi - 1
    elif hi is None:
        x = lo + 1
    else:
        if lo > hi:
            return None
        x = (lo + hi) / 2
    return sub + [x]


def _fm_dedupe(ineqs):
    seen = {}
    for c, d in ineqs:
        nz = [abs(x) for x in c if x] + ([abs(d)] if d else [])
        if not nz:
            continue
        scale = min(nz)
        key = (tuple(x / scale for x in c), d / scale)
        seen[key] = (c, d)
    return list(seen.values())


# ---------------------------------------------------------------------------
# thesis feasibility


def tropical_collinear(p, q, r) -> bool:
    """Three points lie on a common tropical line iff the 3x3 tropical
    determinant of their projective coordinates is singular."""
    rows = [[frac(t[0]), frac(t[1]), Fraction(0)] for t in (p, q, r)]
    _, regular = trop_det_value_regular(rows)
    return not regular


def thesis_feasible_curve(I: Support, pts, node_bound: int = 200000):
    """A curve of support I through all of ``pts``, or None.

    Fast path: stable curves through (delta-1)-subsets.  Complete path:
    exact search over argmax pairs per point; raises
    SearchBoundExceeded rather than returning a wrong answer.
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

    # complete path
    sup = list(I.points)
    nvar = len(sup)  # a_0 fixed to zero; variables are a_1..a_{nvar-1}
    budget = [node_bound]

    def mono_val(i, p):
        return sup[i][0] * p[0] + sup[i][1] * p[1]

    # coefficient expressions over the remaining free variables; per point
    # branch on the argmax pair (i, j), record the equality by
    # substitution, and at the leaf check all >= inequalities at once
    def solve(level, exprs, free, chosen):
        if budget[0] <= 0:
            raise SearchBoundExceeded(node_bound)
        budget[0] -= 1
        if level == len(pts):
            free_list = sorted(free)
            idx = {v: k for k, v in enumerate(free_list)}
            ineqs = []
            for lv, p in enumerate(pts):
                i_sel = chosen[lv]
                vi = _expr_plus_const(exprs[i_sel], mono_val(i_sel, p))
                for k in range(len(sup)):
                    if k == i_sel:
                        continue
                    vk = _expr_plus_const(exprs[k], mono_val(k, p))
                    diff = _expr_sub(vi, vk)
                    coeffs = [Fraction(0)] * len(free_list)
                    for v, cf in diff[0].items():
                        coeffs[idx[v]] = cf
                    ineqs.append((tuple(coeffs), diff[1]))
            sol = _fm_solve(ineqs, len(free_list))
            if sol is None:
                return None
            assign = dict(zip(free_list, sol))
            coeffs = []
            for i in range(len(sup)):
                e, d = exprs[i]
                coeffs.append(sum(cf * assign[v] for v, cf in e.items()) + d)
            f = TropPoly(I, coeffs)
            if not all(f.on_curve(p) for p in pts):
                raise AssertionError("feasibility witness fails verification")
            return f
        p = pts[level]
        for i, j in itertools.combinations(range(len(sup)), 2):
            lhs = _expr_sub(exprs[i], exprs[j])
            constd = mono_val(i, p) - mono_val(j, p)
            lhs = (lhs[0], lhs[1] + constd)
            newexprs, newfree, bad = _expr_apply_equality(exprs, free, lhs)
            if bad:
                continue
            res = solve(level + 1, newexprs, newfree, chosen + [i])
            if res is not None:
                return res
        return None

    exprs = {0: ({}, Fraction(0))}
    for v in range(1, nvar):
        exprs[v] = ({v: Fraction(1)}, Fraction(0))
    return solve(0, exprs, set(range(1, nvar)), [])


def _expr_sub(a, b):
    e = dict(a[0])
    for v, cf in b[0].items():
        e[v] = e.get(v, Fraction(0)) - cf
        if not e[v]:
            del e[v]
    return (e, a[1] - b[1])


def _expr_plus_const(a, c):
    return (a[0], a[1] + c)


def _expr_apply_equality(exprs, free, eq):
    """eq = (coeffs, const) == 0; substitute one free variable."""
    e, d = eq
    if not e:
        return exprs, free, d != 0
    v = max(e)
    cv = e[v]
    # v = -(rest + d)/cv
    rest = {w: -cf / cv for w, cf in e.items() if w != v}
    dd = -d / cv
    newexprs = {}
    for i, (ce, cd) in exprs.items():
        if v in ce:
            cf = ce[v]
            ne = {w: c2 for w, c2 in ce.items() if w != v}
            for w, c2 in rest.items():
                ne[w] = ne.get(w, Fraction(0)) + cf * c2
                if not ne[w]:
                    del ne[w]
            newexprs[i] = (ne, cd + cf * dd)
        else:
            newexprs[i] = (ce, cd)
    return newexprs, free - {v}, False


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
        if s.genpos_pairs:
            trial = _check_with_labelings(s, inputs, t)
        else:
            r = realize(s.hypothesis, inputs)
            witness = _run_thesis(s, r)
            trial = Trial(index=t, inputs=inputs, witness=witness, passed=witness is not None)
        if admissible and t < lift_probe:
            r = realize(s.hypothesis, inputs)
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


def _check_with_labelings(s: Statement, inputs, t) -> Trial:
    """Conditional statements (weak Pascal): for every labeling whose
    double-path point sets are in generic position, the thesis must hold."""
    r0 = realize(s.hypothesis, inputs)
    results = []
    ok = True
    for lab in labeling_choices(s.hypothesis, r0):
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
