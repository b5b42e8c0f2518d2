import hashlib
import itertools
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from tropgeo.trop_core import Support, TropPoly, curve
from tropgeo.residual import DEFAULT_FIELD, trial_rng
from tropgeo.stable_ops import stable_intersection
from tropgeo.construction import lift_conditions, realize
from tropgeo.theorems import (
    catalog,
    cayley_bacharach_statement,
    check_statement,
    sample_inputs,
    thesis_feasible_curve,
    thesis_feasible_point,
)
from tropgeo.trop_linalg import trop_det

LINE = Support.named("line")
CUBIC = Support.named("cubic")


def tropical_collinear(p, q, r) -> bool:
    """Three points lie on a common tropical line iff the 3x3 tropical
    determinant of their projective coordinates is singular: the oracle
    that the complete search is compared against."""
    return not trop_det([[F(t[0]), F(t[1]), F(0)] for t in (p, q, r)]).regular


def test_fano_points_admit_a_witness_line():
    s = catalog()["fano"]
    rng = random.Random(8)
    inputs = {n: (F(rng.randint(-9, 9)), F(rng.randint(-9, 9))) for n in s.hypothesis.input_points}
    r = realize(s.hypothesis, inputs)
    f = thesis_feasible_curve(LINE, [r.values[n] for n in ("2", "4", "6")])
    assert f is not None


def test_chasles_counterexample_cubic_through_eight():
    f = TropPoly.parse("0+1x+1y+1x^2+3xy+1y^2+0x^3+1x^2y+1xy^2+0y^3")
    g = TropPoly.parse("19+14x+20xy+24y+7x^2+12x^2y+23xy^2+28y^2+0x^3+31y^3")
    pts = [p for p, _ in stable_intersection(f, g).points]
    h = TropPoly.parse("0+1x+5y+(11/2)xy+1x^2+9y^2+5x^2y+9xy^2+0x^3+12y^3")
    on = [p for p in pts if h.on_curve(p)]
    assert len(on) == 8
    w = thesis_feasible_curve(CUBIC, on)
    assert w is not None and all(w.on_curve(p) for p in on)


def test_three_generic_points_are_not_collinear():
    rng = random.Random(3)
    hits = 0
    for _ in range(20):
        pts = [(F(rng.randint(-30, 30)), F(rng.randint(-30, 30))) for _ in range(3)]
        if tropical_collinear(*pts):
            continue
        hits += 1
        assert thesis_feasible_curve(LINE, pts) is None
    assert hits >= 15


def test_collinearity_fast_path_matches_complete_search():
    rng = random.Random(14)
    for _ in range(1000):
        pts = [(F(rng.randint(-6, 6)), F(rng.randint(-6, 6))) for _ in range(3)]
        fast = tropical_collinear(*pts)
        complete = thesis_feasible_curve(LINE, pts) is not None
        assert fast == complete


def test_fast_path_witness_implies_complete_search_witness():
    # whenever the stable-curve fast path finds a witness the complete
    # search must also report feasible (run it on a shifted-support copy
    # to force the slow route is not possible; instead verify the found
    # witness satisfies the containment the slow route would check)
    rng = random.Random(21)
    for _ in range(20):
        pts = [(F(rng.randint(-5, 5)), F(rng.randint(-5, 5))) for _ in range(3)]
        conic = Support.named("conic")
        w = thesis_feasible_curve(conic, pts)
        assert w is not None  # 3 points never overdetermine a conic
        assert all(w.on_curve(p) for p in pts)


def test_thesis_point_three_copies_of_a_line():
    f = TropPoly.parse("1x+0y+1")
    p = thesis_feasible_point([f, f, f])
    assert p is not None and f.on_curve(p)


def test_thesis_point_pappus_lines_concur():
    s = catalog()["pappus"]
    rng = random.Random(4)
    for t in range(10):
        inputs = {n: (F(rng.randint(-8, 8)), F(rng.randint(-8, 8)))
                  for n in s.hypothesis.input_points}
        r = realize(s.hypothesis, inputs)
        p = thesis_feasible_point([r.values[n] for n in ("a''", "b''", "c''")])
        assert p is not None


def test_thesis_point_three_generic_lines_fail():
    rng = random.Random(10)
    hits = 0
    for _ in range(20):
        lines = [TropPoly(LINE, [F(rng.randint(-9, 9)) for _ in range(3)]) for _ in range(3)]
        p = thesis_feasible_point(lines)
        if p is None:
            hits += 1
    assert hits >= 12


def test_thesis_point_of_two_curves_is_at_most_their_least_stable_point():
    # every stable intersection point is the dual vertex of a mixed cell
    # of the product subdivision, so the candidates that
    # thesis_feasible_point scans must contain it
    rng = random.Random(12)
    for _ in range(400):
        f, g = (TropPoly(sup, [F(rng.randint(-2, 2)) for _ in sup.points])
                for sup in (Support.degree(rng.randint(1, 3)) for _ in range(2)))
        p = thesis_feasible_point([f, g])
        assert p is not None and f.on_curve(p) and g.on_curve(p), (f, g)
        assert p <= stable_intersection(f, g).points[0][0], (f, g)


def test_thesis_point_three_coincident_vertical_lines():
    v = TropPoly(Support.named("vertical"), [F(1), F(0)])
    p = thesis_feasible_point([v, v, v])
    assert p is not None and v.on_curve(p)


# reference oracle for thesis points: the vertices of every curve, the
# base points of lines, and every crossing of two edges of different
# curves


def _edge_cross(e1, e2):
    d1, d2 = e1.dir, e2.dir
    det = d1[0] * d2[1] - d1[1] * d2[0]
    if det == 0:
        return None
    rx = e2.base[0] - e1.base[0]
    ry = e2.base[1] - e1.base[1]
    t = F(rx * d2[1] - ry * d2[0], det)
    s = F(rx * d1[1] - ry * d1[0], det)
    if not _in_range(e1, t) or not _in_range(e2, s):
        return None
    return (e1.base[0] + t * d1[0], e1.base[1] + t * d1[1])


def _in_range(e, t):
    if e.kind == "line":
        return True
    if t < 0:
        return False
    return e.kind == "ray" or t <= e.length


def _pairwise_thesis_point(curves):
    complexes = [curve(f) for f in curves]
    candidates = set()
    for cx in complexes:
        candidates.update(tuple(v) for v in cx.vertices)
        candidates.update(tuple(e.base) for e in cx.edges if e.kind == "line")
    for a, b in itertools.combinations(complexes, 2):
        for e1 in a.edges:
            for e2 in b.edges:
                p = _edge_cross(e1, e2)
                if p is not None:
                    candidates.add(p)
    good = [p for p in sorted(candidates) if all(f.on_curve(p) for f in curves)]
    return good[0] if good else None


_POINT_SUPPORTS = [Support.named(n) for n in ("line", "vertical", "horizontal", "pencil", "conic", "cubic")] + [
    Support([(0, 0), (1, 0), (2, 0)]), Support([(0, 0), (2, 1)]), Support([(0, 0)]),
]


def _is_product_vertex(curves, p):
    # the product's argmax set at p is the Minkowski sum of the factors'
    # argmax sets, and p is a vertex of the product's curve when that sum
    # spans the plane
    vecs = [(a[0] - arg[0][0], a[1] - arg[0][1]) for arg in (f.eval(p)[1] for f in curves) for a in arg]
    return any(u[0] * w[1] != u[1] * w[0] for u in vecs for w in vecs)


def test_thesis_point_matches_pairwise_crossing_oracle():
    rng = random.Random(13)
    found = off_product = 0
    for _ in range(5000):
        sups = [rng.choice(_POINT_SUPPORTS) for _ in range(rng.randint(1, 4))]
        curves = [TropPoly(sup, [F(rng.randint(-4, 4), 2) for _ in sup.points]) for sup in sups]
        p = thesis_feasible_point(curves)
        assert p == _pairwise_thesis_point(curves), curves
        if p is None:
            continue
        found += 1
        if not _is_product_vertex(curves, p):
            # only the base point of a collinear factor's line can be a
            # common point off the product's vertices
            assert any(p == e.base for f in curves for e in curve(f).edges if e.kind == "line")
            off_product += 1
    assert found >= 1000 and off_product >= 100, (found, off_product)


def test_pappus_witnesses_are_unchanged():
    # SHA-256 of the witness list as the pairwise-crossing scan found it
    v = check_statement(catalog()["pappus"], trials=30, seed=7)
    witnesses = repr([str(t.witness) for t in v.trials]).encode()
    assert hashlib.sha256(witnesses).hexdigest() == (
        "203f519361e65e087dae7474ec3bd7399a7aaf31964eb4f08444473d8cc1ad27"
    )


@pytest.mark.parametrize("name,digest", [
    ("fano", "40990d4284bb8f62f350097d8d509af9c587a5fd1073d38822dcfa58842893d3"),
    ("pascal_converse", "cbe753568faec4fad5f205ffd17ce500f94986e6f44afae97b4ab159093c0b97"),
    ("chasles", "3231732089f053db00e7c7d8705518fb9d127afe0b0fdea2f42dd249cf542740"),
    ("cayley_bacharach_3_3", "759d6db6c5cb0e2214769220d2371f860bbb50b3093dfe4fcc0798f8b5208e4b"),
    ("weak_pascal", "e27aa834e92889187fd97e227f2aff694d8310ea08d1e5a289f1b79c27c74bdd"),
])
def test_curve_thesis_witnesses_are_unchanged(name, digest):
    # SHA-256 of the witness lists as recorded while the "no curve" proof
    # still ran an assignment per minor; a weak_pascal trial lists
    # (labeling, precondition, witness) per labeling
    v = check_statement(catalog()[name], trials=100, seed=2026)
    if name == "weak_pascal":
        witnesses = [[(lab, pre, str(w)) for lab, pre, w in t.witness] for t in v.trials]
    else:
        witnesses = [str(t.witness) for t in v.trials]
    assert hashlib.sha256(repr(witnesses).encode()).hexdigest() == digest


def test_ten_points_off_every_cubic_are_decided():
    rng = random.Random(2)
    pts = [(F(rng.randint(-40, 40)), F(rng.randint(-40, 40))) for _ in range(9)]
    assert thesis_feasible_curve(CUBIC, pts + [(F(1000), F(-997))]) is None


def test_six_points_off_every_conic_are_decided():
    rng = random.Random(1)
    pts = [(F(rng.randint(-40, 40)), F(rng.randint(-40, 40))) for _ in range(6)]
    assert thesis_feasible_curve(Support.named("conic"), pts) is None


def test_catalog_contents():
    cat = catalog()
    assert list(cat) == [
        "fano", "pappus", "pascal_converse", "chasles",
        "cayley_bacharach_3_3", "weak_pascal",
    ]
    fano = cat["fano"]
    assert fano.hypothesis.input_points == ["1", "3", "5", "7"]
    assert sum(1 for s in fano.hypothesis.steps if hasattr(s, "through")) == 6
    cb = cat["cayley_bacharach_3_3"]
    # l = 1 for (3,3): the construction reduces to the Chasles shape
    assert cb.hypothesis.input_points == ["p1"]
    assert len(cb.thesis.through) == 10
    assert replace(cayley_bacharach_statement(3, 3), name=cb.name) == cb
    assert cat["weak_pascal"].genpos_pairs == [
        (("A", "C'"), "Z"), (("B", "A'"), "Z"), (("C", "B'"), "Z"),
    ]


def test_cayley_bacharach_dimension_formula():
    s = cayley_bacharach_statement(3, 4)
    assert len(s.hypothesis.input_points) == 1 + (9 + 16 - 9 - 12) // 2
    assert s.thesis.support == Support.degree(4)


def test_pascal_converse_support_space_dimension():
    s = catalog()["pascal_converse"]
    c = s.hypothesis
    dim = 2 * len(c.input_points) + sum(sup.delta() - 1 for _, sup in c.input_curves)
    assert dim == 14


def test_check_statement_small_runs():
    cat = catalog()
    for name in ("fano", "pappus"):
        v = check_statement(cat[name], trials=8, seed=3)
        assert v.holds
        assert v.trials[0].lift_verdict == "nonempty-dense"


@pytest.mark.parametrize("name", ["pappus", "weak_pascal"])
def test_check_statement_validates_the_hypothesis_a_fixed_number_of_times(monkeypatch, name):
    # weak_pascal also realizes every labeling of every trial
    import tropgeo.construction as construction

    s = catalog()[name]
    calls = []
    diagnostics = construction._diagnostics

    def counted(*args):
        calls.append(args)
        return diagnostics(*args)

    monkeypatch.setattr(construction, "_diagnostics", counted)
    counts = []
    for trials in (2, 20):
        calls.clear()
        assert check_statement(s, trials=trials, seed=3).holds
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_lift_probe_stops_at_its_first_successful_trial(monkeypatch):
    # the probe's verdict is that of lift_conditions(..., DEFAULT_FIELD,
    # trials=4), from the same passes up to the first one that succeeds
    import tropgeo.construction as construction

    passes = []
    propagate = construction._propagate

    def counted(*args):
        out = propagate(*args)
        passes.append(out[3])
        return out

    monkeypatch.setattr(construction, "_propagate", counted)
    lengths = set()
    for name in ("pappus", "pascal_converse", "chasles", "cayley_bacharach_3_3"):
        s = catalog()[name]
        for seed in range(6):
            passes.clear()
            verdict = check_statement(s, trials=1, seed=seed).trials[0].lift_verdict
            probe = list(passes)
            r = realize(s.hypothesis, sample_inputs(s.hypothesis, trial_rng(seed, 0), "zero"))
            passes.clear()
            assert lift_conditions(s.hypothesis, r, DEFAULT_FIELD, seed=seed, trials=4).verdict == verdict
            assert probe == passes[:len(probe)]
            assert not any(probe[:-1]) and (probe[-1] or len(probe) == 4)
            lengths.add(len(probe))
    assert min(lengths) == 1 and max(lengths) > 1


def test_degenerate_specials_are_exercised():
    s = catalog()["fano"]
    rng = random.Random(0)
    zero = sample_inputs(s.hypothesis, rng, special="zero")
    assert all(v == (0, 0) for v in zero.values())
    rep = sample_inputs(s.hypothesis, rng, special="repeat")
    assert len({tuple(v) for v in rep.values()}) == 1


def test_weak_pascal_reports_per_labeling():
    cat = catalog()
    v = check_statement(cat["weak_pascal"], trials=4, seed=6)
    assert v.holds
    for t in v.trials:
        assert "labelings" in t.note


def test_weak_pascal_trials_are_unchanged():
    # SHA-256 of each trial's (index, witness, passed, note), the witness
    # listing (labeling, precondition, thesis witness) per labeling, as
    # recorded while every labeling was realized from scratch and every
    # genpos query built its own gamma graph
    digests = {
        0: "3864621c73975cc18a1e44c3364fe529a52fa83b7b1d1d3b0d184f852f801e9e",
        1: "87f4f67318911745cc8f62afb1fc9b8a6c1be20b74672e538b3e01237fa7bf10",
        2: "e9df3dfa8004c4a9d4ce8ac56ac2cb137e361f5d8301cc2ed0934c019ac8ddeb",
    }
    s = catalog()["weak_pascal"]
    for seed, digest in digests.items():
        v = check_statement(s, trials=8, seed=seed)
        trials = [(t.index, t.witness, t.passed, t.note) for t in v.trials]
        assert hashlib.sha256(repr(trials).encode()).hexdigest() == digest


def test_weak_pascal_builds_one_gamma_per_curve_and_meets_z_once_per_trial(monkeypatch):
    # the labelings of a trial share its genpos curve's gamma graph and
    # the default realization's conic-line intersections
    import tropgeo.genpos as genpos
    import tropgeo.stable_ops as stable_ops

    conic_line = {Support.named("conic"), LINE}
    gammas, meets = [], []
    subdivide, mixed_cells = genpos.dual_subdivision, stable_ops._mixed_cells

    def counted_subdivision(f):
        gammas.append(f)
        return subdivide(f)

    def counted_mixed_cells(f, g):
        if {f.support, g.support} == conic_line:
            meets.append((f, g))
        return mixed_cells(f, g)

    monkeypatch.setattr(genpos, "dual_subdivision", counted_subdivision)
    monkeypatch.setattr(stable_ops, "_mixed_cells", counted_mixed_cells)
    s = catalog()["weak_pascal"]
    v = check_statement(s, trials=8, seed=5)
    curves = {t.inputs[cv] for t in v.trials for _, cv in s.genpos_pairs}
    assert len(gammas) == len(curves) == 8
    assert len(meets) == 3 * 8


# ---------------------------------------------------------------------------
# reference oracle: branch search over one argmax pair per point, with
# exact rational feasibility (substitution for the equalities,
# Fourier-Motzkin for the inequalities).  Exponential, so it runs only
# on small boxes and gives up at a node bound.


class _BoundExceeded(Exception):
    pass


def _fm_solve(ineqs, nvars, cap=20000):
    """A rational solution of the system sum(c_i x_i) + d >= 0 over the
    (coefficient tuple, constant) pairs, or None; eliminates the last
    variable first."""
    ineqs = _fm_dedupe(ineqs)
    if len(ineqs) > cap:
        raise _BoundExceeded(cap)
    if nvars == 0:
        return None if any(d < 0 for _, d in ineqs) else []
    k = nvars - 1
    pos = [(c, d) for c, d in ineqs if c[k] > 0]
    neg = [(c, d) for c, d in ineqs if c[k] < 0]
    new = [(c[:k], d) for c, d in ineqs if c[k] == 0]
    for cp, dp in pos:
        for cn, dn in neg:
            a, b = -cn[k], cp[k]
            new.append((tuple(cp[i] * a + cn[i] * b for i in range(k)), dp * a + dn * b))
    sub = _fm_solve(new, k, cap)
    if sub is None:
        return None
    bounds = [(-(sum(c[i] * sub[i] for i in range(k)) + d) / c[k], c[k] > 0) for c, d in pos + neg]
    lo = max((b for b, is_lo in bounds if is_lo), default=None)
    hi = min((b for b, is_lo in bounds if not is_lo), default=None)
    if lo is None and hi is None:
        x = F(0)
    elif lo is None:
        x = hi - 1
    elif hi is None:
        x = lo + 1
    elif lo > hi:
        return None
    else:
        x = (lo + hi) / 2
    return sub + [x]


def _fm_dedupe(ineqs):
    seen = {}
    for c, d in ineqs:
        nz = [abs(x) for x in c if x] + ([abs(d)] if d else [])
        if nz:
            scale = min(nz)
            seen[(tuple(x / scale for x in c), d / scale)] = (c, d)
    return list(seen.values())


def _expr_sub(a, b):
    e = dict(a[0])
    for v, cf in b[0].items():
        e[v] = e.get(v, F(0)) - cf
        if not e[v]:
            del e[v]
    return (e, a[1] - b[1])


def _expr_apply_equality(exprs, free, eq):
    """Substitute one free variable out of eq = (coeffs, const) == 0;
    the flag is True when eq is a false constant equation."""
    e, d = eq
    if not e:
        return exprs, free, d != 0
    v = max(e)
    rest = {w: -cf / e[v] for w, cf in e.items() if w != v}
    dd = -d / e[v]
    out = {}
    for i, (ce, cd) in exprs.items():
        if v not in ce:
            out[i] = (ce, cd)
            continue
        cf = ce[v]
        ne = {w: c2 for w, c2 in ce.items() if w != v}
        for w, c2 in rest.items():
            ne[w] = ne.get(w, F(0)) + cf * c2
            if not ne[w]:
                del ne[w]
        out[i] = (ne, cd + cf * dd)
    return out, free - {v}, False


def _branch_search(I, pts, node_bound):
    """A curve of support I through all of ``pts``, or None; raises
    _BoundExceeded after ``node_bound`` search nodes."""
    pts = [(F(p[0]), F(p[1])) for p in pts]
    sup = list(I.points)
    budget = [node_bound]

    def mono_val(i, p):
        return sup[i][0] * p[0] + sup[i][1] * p[1]

    def feasible(exprs, free, chosen):
        # the chosen monomial attains the maximum at each point so far
        free_list = sorted(free)
        idx = {v: k for k, v in enumerate(free_list)}
        ineqs = []
        for p, i_sel in zip(pts, chosen):
            for k in range(len(sup)):
                if k == i_sel:
                    continue
                e, d = _expr_sub(exprs[i_sel], exprs[k])
                coeffs = [F(0)] * len(free_list)
                for v, cf in e.items():
                    coeffs[idx[v]] = cf
                ineqs.append((tuple(coeffs), d + mono_val(i_sel, p) - mono_val(k, p)))
        sol = _fm_solve(ineqs, len(free_list))
        return None if sol is None else dict(zip(free_list, sol))

    # coefficient expressions over the remaining free variables (a_0 is
    # fixed to zero); per point branch on the argmax pair (i, j), record
    # the equality by substitution, and prune branches whose inequalities
    # are already infeasible
    def solve(level, exprs, free, chosen):
        if budget[0] <= 0:
            raise _BoundExceeded(node_bound)
        budget[0] -= 1
        assign = feasible(exprs, free, chosen)
        if assign is None:
            return None
        if level == len(pts):
            return TropPoly(I, [sum(cf * assign[v] for v, cf in e.items()) + d
                                for e, d in (exprs[i] for i in range(len(sup)))])
        p = pts[level]
        for i, j in itertools.combinations(range(len(sup)), 2):
            e, d = _expr_sub(exprs[i], exprs[j])
            eq = (e, d + mono_val(i, p) - mono_val(j, p))
            newexprs, newfree, bad = _expr_apply_equality(exprs, free, eq)
            if bad:
                continue
            res = solve(level + 1, newexprs, newfree, chosen + [i])
            if res is not None:
                return res
        return None

    exprs = {0: ({}, F(0))}
    for v in range(1, len(sup)):
        exprs[v] = ({v: F(1)}, F(0))
    return solve(0, exprs, set(range(1, len(sup))), [])


def _has_regular_minor(I, pts):
    """Whether delta of the points have a point-value matrix whose
    maximum over permutations is attained once (brute force)."""
    for sub in itertools.combinations(pts, I.delta()):
        rows = [[p[0] * i[0] + p[1] * i[1] for i in I.points] for p in sub]
        sums = sorted(sum(r[c] for r, c in zip(rows, perm))
                      for perm in itertools.permutations(range(len(rows))))
        if sums[-1] != sums[-2]:
            return True
    return False


def test_thesis_decision_matches_branch_search():
    rng = random.Random(2005)
    # (support, points, box, node bound, denominator): coordinates are
    # integers over the denominator in [-box, box]
    cases = [(LINE, m, 2, 20000, 1) for m in (3, 4, 5) for _ in range(60)]
    cases += [(Support.named("conic"), m, 1, 400, 1) for m in (6, 7) for _ in range(10)]
    cases += [(LINE, m, 2, 20000, 2) for m in (3, 4) for _ in range(40)]
    cases += [(Support.named("conic"), 6, 2, 400, 2) for _ in range(10)]
    decided = {}
    for sup, m, box, bound, den in cases:
        pts = [(F(rng.randint(-box, box), den), F(rng.randint(-box, box), den)) for _ in range(m)]
        got = thesis_feasible_curve(sup, pts)
        if got is None:
            assert _has_regular_minor(sup, pts)
        else:
            assert all(got.on_curve(p) for p in pts)
        try:
            ref = _branch_search(sup, pts, bound)
        except _BoundExceeded:
            continue
        if ref is not None:
            assert all(ref.on_curve(p) for p in pts)
        assert (got is None) == (ref is None), (sup, pts)
        key = (sup.delta(), ref is None, den)
        decided[key] = decided.get(key, 0) + 1
    assert decided[(3, True, 1)] >= 20 and decided[(3, False, 1)] >= 20 and decided[(6, False, 1)] >= 5
    assert decided[(3, True, 2)] >= 20 and decided[(3, False, 2)] >= 10 and decided[(6, False, 2)] >= 3
