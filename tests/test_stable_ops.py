import hashlib
import itertools
import random
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from tropgeo.trop_core import (
    CurveEdge,
    Support,
    TropPoly,
    area2,
    dual_subdivision,
    mixed_volume,
    polygon_area2,
    scaled_ints,
    upper_chain,
)
from tropgeo.residual import (
    PROVABLY_EMPTY,
    ConditionSet,
    InformationLostError,
    Jet,
    ResidualField,
    RPoly,
    dense_det,
    dense_roots,
    fp_det,
    residual_terms,
)
from tropgeo.stable_ops import (
    SHAPE_BOUND,
    _Degenerate,
    _by_y,
    _common_y_roots,
    _corner_coeff,
    _inside,
    _mixed_cells,
    _monomial_flag,
    _dense_in_y,
    _family_view,
    _perturbed_intersection,
    _point_values,
    _resultant_corners,
    _resultant_family,
    _sylvester_rows,
    curve_step_jets,
    intersection_step_conditions,
    intersection_step_plan,
    local_intersection_solve,
    perturbation_oracle,
    stable_curve,
    stable_intersection,
    trop_product,
)
from tropgeo.trop_linalg import (
    cramer_conditions,
    cramer_stable,
    masked_det,
    pseudodet,
    trop_det,
)

from test_residual import is_monomial
from test_trop_core import normalized

LINE = Support.named("line")
F10007 = ResidualField(10007)


def rand_poly(rng, d, lo=-12, hi=12):
    sup = Support.degree(d)
    return TropPoly(sup, [F(rng.randint(lo, hi)) for _ in sup.points])


# ---------------------------------------------------------------------------
# stable curves


def test_stable_line_examples():
    f = stable_curve(LINE, [(0, 0), (-2, 1)])
    assert f.coeff((1, 0)) == 1 and f.coeff((0, 1)) == 0 and f.coeff((0, 0)) == 1
    g = stable_curve(LINE, [(0, 0), (-1, 3)])
    assert (g.coeff((1, 0)), g.coeff((0, 1)), g.coeff((0, 0))) == (3, 0, 3)


def test_stable_line_through_equal_points_is_defined():
    f = stable_curve(LINE, [(1, 2), (1, 2)])
    assert f.on_curve((1, 2))


def test_stable_curve_contains_its_points():
    rng = random.Random(2)
    for _ in range(40):
        d = rng.randint(1, 3)
        sup = Support.degree(d)
        pts = [(F(rng.randint(-7, 7)), F(rng.randint(-7, 7))) for _ in range(sup.delta() - 1)]
        f = stable_curve(sup, pts)
        assert all(f.on_curve(p) for p in pts)


def test_stable_curve_continuity_exact_limit():
    # along a line of perturbations the normalized coefficients are
    # eventually affine in t; their limit is the unperturbed curve
    rng = random.Random(31)
    for _ in range(10):
        sup = Support.degree(2)
        pts = [(F(rng.randint(-5, 5)), F(rng.randint(-5, 5))) for _ in range(5)]
        v = [(F(rng.randint(-3, 3)), F(rng.randint(-3, 3))) for _ in range(5)]
        f0 = normalized(stable_curve(sup, pts))

        def at(t):
            moved = [(p[0] + t * w[0], p[1] + t * w[1]) for p, w in zip(pts, v)]
            return normalized(stable_curve(sup, moved))

        ts = [F(1, 2**k) for k in (7, 8, 9)]
        f1, f2, f3 = (at(t) for t in ts)
        for i in range(sup.delta()):
            a1, a2, a3 = f1.coeffs[i], f2.coeffs[i], f3.coeffs[i]
            # affine in t on the tail: a(t) = c0 + c1 t
            c1 = (a1 - a2) / (ts[0] - ts[1])
            c0 = a1 - c1 * ts[0]
            assert a3 == c0 + c1 * ts[2]
            assert c0 == f0.coeffs[i]


# ---------------------------------------------------------------------------
# stable intersections


def test_conic_pair_from_the_plane_geometry_example():
    C1 = TropPoly.parse("(-11)+2x+2y+2xy+0x^2+0y^2")
    C2 = TropPoly.parse("0+8x+14y+20xy+12x^2+14y^2")
    si = stable_intersection(C1, C2)
    assert si.points == [
        ((F(-13), F(-14)), 1),
        ((F(-6), F(-6)), 1),
        ((F(-4), F(2)), 1),
        ((F(2), F(-6)), 1),
    ]


def test_degenerate_conic_pair_single_quadruple_point():
    C1 = TropPoly.parse("0+(-10)x+(-10)y+(-10)xy+0x^2+0y^2")
    C2 = TropPoly.parse("0+(-10)x+(-10)y+(-10)xy+1x^2+2y^2")
    si = stable_intersection(C1, C2)
    assert len(si.points) == 1
    (p, m), = si.points
    assert m == 4 and p[0] == 0


def test_two_lines_vertex_on_ray():
    l1 = TropPoly.parse("1x+0y+1")
    l2 = TropPoly.parse("3x+0y+3")
    si = stable_intersection(l1, l2)
    assert si.points == [((F(0), F(1)), 1)]


def test_bernstein_count_random():
    rng = random.Random(6)
    for _ in range(60):
        f = rand_poly(rng, rng.randint(1, 3))
        g = rand_poly(rng, rng.randint(1, 3))
        si = stable_intersection(f, g)
        assert si.total() == mixed_volume(f.support, g.support)


def test_oracle_equivalence_random():
    rng = random.Random(42)
    for _ in range(60):
        f = rand_poly(rng, rng.randint(1, 3))
        g = rand_poly(rng, rng.randint(1, 3))
        assert stable_intersection(f, g).points == perturbation_oracle(f, g).points


def test_oracle_on_the_degenerate_pair():
    C1 = TropPoly.parse("0+(-10)x+(-10)y+(-10)xy+0x^2+0y^2")
    C2 = TropPoly.parse("0+(-10)x+(-10)y+(-10)xy+1x^2+2y^2")
    assert perturbation_oracle(C1, C2).points == stable_intersection(C1, C2).points


def test_oracle_edge_parameters_are_ordered_for_infinitesimal_eps():
    # a parameter is (value, eps-coefficient): just before a segment's end
    # is inside, just past it is not, and an exact end is degenerate
    ray = CurveEdge(base=(F(0), F(0)), dir=(1, 0), length=None, weight=1, dual=((0, 0), (0, 1)), kind="ray")
    seg = CurveEdge(base=(F(0), F(0)), dir=(1, 0), length=F(2), weight=1, dual=((0, 0), (0, 1)))
    assert _inside(seg, (F(2), F(-1))) and not _inside(seg, (F(2), F(1)))
    assert _inside(ray, (F(0), F(1))) and not _inside(ray, (F(0), F(-1)))
    assert _inside(ray, (F(5), F(-7))) and not _inside(seg, (F(5), F(-7)))
    for e, t in ((ray, (0, 0)), (seg, (0, 0)), (seg, (F(2), 0))):
        with pytest.raises(_Degenerate):
            _inside(e, t)


def test_a_crossing_at_an_end_of_one_edge_and_outside_the_other_is_no_crossing():
    # e2 lies on the line x - 2 = y/2 and v = (1, 2) moves it along itself,
    # so it meets e1's line exactly at e1's end (2, 0), at s = -1 on e2
    e1 = CurveEdge(base=(F(0), F(0)), dir=(1, 0), length=F(2), weight=1, dual=((0, 0), (0, 1)))
    e2 = CurveEdge(base=(F(3), F(2)), dir=(1, 2), length=F(1), weight=1, dual=((0, 0), (2, -1)))
    cf, cg = SimpleNamespace(edges=[e1]), SimpleNamespace(edges=[e2])
    assert _perturbed_intersection(cf, cg, (1, 2)).points == []
    # the same end inside e2's range is still degenerate
    e2 = CurveEdge(base=(F(1), F(-2)), dir=(1, 2), length=F(3), weight=1, dual=((0, 0), (2, -1)))
    with pytest.raises(_Degenerate):
        _perturbed_intersection(cf, SimpleNamespace(edges=[e2]), (1, 2))


# ---------------------------------------------------------------------------
# differential oracles: the Fraction code the int kernel replaced


def _fraction_product(f, g):
    """The max-plus product on Fraction coefficients."""
    pts = {}
    for i, a in f.coeff_map().items():
        for j, b in g.coeff_map().items():
            k = (i[0] + j[0], i[1] + j[1])
            v = a + b
            if k not in pts or v > pts[k]:
                pts[k] = v
    return TropPoly(Support(pts.keys()), pts)


def _fraction_argmax(f, p):
    vals = [c + i * p[0] + j * p[1] for (i, j), c in zip(f.support.points, f.coeffs)]
    return [q for q, v in zip(f.support.points, vals) if v == max(vals)]


def _mixed_cell_oracle(f, g):
    """The stable intersection from dual_subdivision of the Fraction
    product: a maximal cell's summands are the argmaxes of f and g at its
    dual vertex, by Fraction evaluation, and its multiplicity is half of
    its doubled area less theirs."""
    out = []
    for cell in dual_subdivision(_fraction_product(f, g)).facets:
        p = cell.dual_vertex
        m2 = polygon_area2(cell.hull) - area2(_fraction_argmax(f, p)) - area2(_fraction_argmax(g, p))
        assert m2 >= 0 and m2 % 2 == 0
        if m2:
            out.append((p, m2 // 2))
    return sorted(out)


def _differential_pairs():
    """Seeded pairs: degree supports at d = 1..5 against each other with
    tie-heavy and with spread rational coefficients, then collinear and
    one-point supports, parallel ones included."""
    rng = random.Random(1515)

    def tie():
        return F(rng.randint(-1, 1), rng.choice([1, 1, 2, 3]))

    def spread():
        return F(rng.randint(-40, 40), rng.randint(1, 6))

    def poly(sup, coeff):
        return TropPoly(sup, [coeff() for _ in sup.points])

    pairs = []
    for d in range(1, 6):
        for coeff in (tie, spread):
            for _ in range(6):
                pairs.append((poly(Support.degree(d), coeff), poly(Support.degree(rng.randint(1, 5)), coeff)))
    segments = [Support.named(n) for n in ("vertical", "horizontal")]
    segments += [Support([(0, 0), (2, 0), (3, 0)]), Support([(0, 0), (1, 1), (3, 3)]), Support([(0, 0)])]
    for a in segments:
        for b in segments + [Support.named("line"), Support.degree(2)]:
            for coeff in (tie, spread):
                pairs.append((poly(a, coeff), poly(b, coeff)))
    return pairs


def test_trop_product_matches_the_fraction_product():
    for f, g in _differential_pairs():
        h = trop_product(f, g)
        assert h == _fraction_product(f, g)
        assert h.scaled() == scaled_ints(h.coeffs)


def test_stable_intersection_matches_the_mixed_cell_oracle():
    pairs = _differential_pairs()
    for f, g in pairs:
        assert stable_intersection(f, g).points == _mixed_cell_oracle(f, g), (f, g)
    # parallel collinear supports: vertical x vertical never meet
    v = Support.named("vertical")
    parallel = [(f, g) for f, g in pairs if f.support == v and g.support == v]
    assert parallel and mixed_volume(v, v) == 0
    assert all(stable_intersection(f, g).points == [] for f, g in parallel)


def _line_pairs():
    """Seeded pairs of lines, coefficients in the support order (0,0),
    (0,1), (1,0): tie-heavy and spread rationals, g = f, g = f shifted
    along x, along y and along both, and g equal to f in one or in two
    coefficients."""
    rng = random.Random(2005)

    def tie():
        return F(rng.randint(-1, 1), rng.choice([1, 1, 2, 3]))

    def spread():
        return F(rng.randint(-40, 40), rng.randint(1, 6))

    pairs = []
    for _ in range(150):
        for coeff in (tie, spread):
            f = [coeff() for _ in range(3)]
            s, t = coeff() or F(1), coeff() or F(-1, 2)
            one, two = [coeff() for _ in range(3)], list(f)
            k = rng.randrange(3)
            one[k], two[k] = f[k], f[k] + (coeff() or F(1))
            # f(x - s, y - t) has the coefficients c00, c01 - t, c10 - s
            pairs += [
                (f, [coeff() for _ in range(3)]), (f, f),
                (f, [f[0], f[1], f[2] - s]), (f, [f[0], f[1] - t, f[2]]),
                (f, [f[0], f[1] - t, f[2] - s]), (f, one), (f, two),
            ]
    return [(TropPoly(LINE, a), TropPoly(LINE, b)) for a, b in pairs]


def test_two_lines_meet_at_their_cramer_solution():
    # the line path shares no code with either oracle, nor with the
    # product subdivision that every other pair of supports goes through
    pairs = _line_pairs()
    assert len(pairs) >= 2000
    for f, g in pairs:
        points = stable_intersection(f, g).points
        assert len(points) == 1 and all(type(c) is F for c in points[0][0]), (f, g)
        assert points == _mixed_cell_oracle(f, g), (f, g)
        assert points == perturbation_oracle(f, g).points, (f, g)
        assert points == _mixed_cells(f, g).points, (f, g)


def test_only_two_lines_skip_the_product_subdivision(monkeypatch):
    from tropgeo import stable_ops

    calls = []
    facets = stable_ops._upper_facets_ints
    monkeypatch.setattr(stable_ops, "_upper_facets_ints", lambda *args: calls.append(args) or facets(*args))
    rng = random.Random(7)
    line, conic = rand_poly(rng, 1), rand_poly(rng, 2)
    vertical = TropPoly(Support.named("vertical"), [F(0), F(3)])
    stable_intersection(line, rand_poly(rng, 1))
    assert calls == []
    for f, g in ((line, conic), (vertical, line)):
        stable_intersection(f, g)
        assert len(calls) == 1
        calls.clear()


def _fraction_canonical(f):
    """The concave canonical form read off dual_subdivision with Fraction
    arithmetic: coefficient p is the minimum over the maximal cells C of
    c_q + (q - p).v, q a point of C and v the point dual to C."""
    pts = f.support.points
    if len(pts) <= 2:
        return f
    sub = dual_subdivision(f)
    cmap = f.coeff_map()
    if sub.facets:
        cells = [(c.on_points[0], c.dual_vertex) for c in sub.facets]
    else:
        cells = []
        for e in sub.edges:
            a, b = e.ends
            u = (b[0] - a[0], b[1] - a[1])
            lam = (cmap[a] - cmap[b]) / (u[0] * u[0] + u[1] * u[1])
            cells.append((a, (lam * u[0], lam * u[1])))
    return TropPoly(f.support, tuple(
        min(cmap[q] + (q[0] - p[0]) * v[0] + (q[1] - p[1]) * v[1] for q, v in cells)
        for p in pts
    ))


def point_value_matrix(I, pts):
    """The point-value matrix of pts over I as Fractions: row r is p_r.i
    over i in I."""
    w, e = _point_values(I, pts)
    return [[F(v, e) for v in row] for row in w]


def test_stable_curve_matches_cramer_on_the_fraction_matrix():
    rng = random.Random(77)

    def q():
        return F(rng.randint(-12, 12), rng.choice([1, 1, 2, 3, 4]))

    sups = [Support.degree(d) for d in (1, 2, 3, 4)]
    sups += [Support.named("vertical"), Support([(0, 0), (2, 0), (3, 0)]), Support([(0, 0), (1, 0), (0, 1), (2, 2)])]
    for sup in sups:
        for _ in range(12):
            pts = [(q(), q()) for _ in range(sup.delta() - 1)]
            if rng.random() < 0.3:  # repeated points
                pts[-1] = pts[0]
            a = [[F(p[0]) * i[0] + F(p[1]) * i[1] for i in sup.points] for p in pts]
            assert point_value_matrix(sup, pts) == a
            want = _fraction_canonical(TropPoly(sup, cramer_stable(a).values))
            assert stable_curve(sup, pts) == want, (sup, pts)


def _golden_pairs():
    """Seeded pairs of random rational curves at d = 2..8, then tie-heavy
    pairs at d <= 4 with coefficients in {-1, 0, 1} and p/q, q <= 3."""
    rng = random.Random(2027)

    def poly(d, coeff):
        sup = Support.degree(d)
        return TropPoly(sup, [coeff() for _ in sup.points])

    for d in range(2, 9):
        def rq():
            return F(rng.randint(-60, 60), rng.randint(1, 4))
        yield f"d{d}", [(poly(d, rq), poly(d, rq))]

    def tie():
        return F(rng.randint(-1, 1), rng.choice([1, 1, 2, 3]))
    yield "ties", [(poly(rng.randint(1, 4), tie), poly(rng.randint(1, 4), tie)) for _ in range(30)]


GOLDEN_PAIRS = list(_golden_pairs())

# SHA-256 of repr(stable_intersection(f, g).points) over each group, recorded
# before the mixed cells were read from the integer facet normals
GOLDEN_INTERSECTIONS = {
    "d2": "51082e2a45069318739d3eae7cfd53199fa72b4970ee5f39f4f0f60183cf8f86",
    "d3": "4f8ed5c6e907c583ffa9e0cb77829b35aeb8e5721f2926189dadc3aff51fe7cd",
    "d4": "386ce0fe0e203e808b0c9925bf47c426ab3f599101ba19698891368ec8197267",
    "d5": "39c95fb840e1f184c1fce63f83fda216be16c7f948b4adc61d13a8b88c12772b",
    "d6": "8a780ca09c41cdb3ad7b96e62fffad2a6e0b6efc18a731abaafe2498ba84bc9b",
    "d7": "f8cd90a4ddae7e6cb3681c1a91b31ba13b0bf3dc68ff8c7979d3d6d92a5e1f03",
    "d8": "2c195dbce0a7cb6fc54dba32855007991c45ffe77df09da376dddc4f2ec6cd4d",
    "ties": "03419fb80e1240dc91d91f23887107953c37737e6cef8165acd16ea817ad048a",
}


@pytest.mark.parametrize("name,pairs", GOLDEN_PAIRS, ids=[name for name, _ in GOLDEN_PAIRS])
def test_stable_intersection_points_are_unchanged(name, pairs):
    pts = [stable_intersection(f, g).points for f, g in pairs]
    assert hashlib.sha256(repr(pts).encode()).hexdigest() == GOLDEN_INTERSECTIONS[name]


def test_stable_intersection_never_evaluates(monkeypatch):
    # each mixed cell's summands are integer argmaxes along the facet
    # normal, so no Fraction evaluation of f or g is needed
    calls = []
    evaluate = TropPoly.eval

    def counted(self, p):
        calls.append(p)
        return evaluate(self, p)

    monkeypatch.setattr(TropPoly, "eval", counted)
    for _, pairs in GOLDEN_PAIRS:
        for f, g in pairs[:5]:
            stable_intersection(f, g)
    assert calls == []


def test_segment_supports_intersect():
    v = TropPoly(Support.named("vertical"), [F(0), F(0)])    # x = 0
    h = TropPoly(Support.named("horizontal"), [F(0), F(-2)])  # y = 2
    si = stable_intersection(v, h)
    assert si.points == [((F(0), F(2)), 1)]
    # parallel verticals never meet: mixed volume 0
    v2 = TropPoly(Support.named("vertical"), [F(5), F(0)])
    assert stable_intersection(v, v2).points == []


# ---------------------------------------------------------------------------
# curve step conditions


def curve_step_conditions(I, pts, var_names=None, values=None):
    """The curve step through the tropical points pts, with symbolic
    residuals (``var_names``: one (name_x, name_y) per point, q<k>.x and
    q<k>.y by default) or numeric ones (``values``: one (cx, cy) per
    point): its plan, and the evaluator's coefficient jets, conditions
    and undecidable flag.  An undecidable step's conditions are
    provably empty."""
    pt_jets = []
    for idx, p in enumerate(pts):
        if values is not None:
            cx, cy = values[idx]
        else:
            nx, ny = var_names[idx] if var_names else (f"q{idx}.x", f"q{idx}.y")
            cx, cy = RPoly.var(nx), RPoly.var(ny)
        pt_jets.append((Jet.principal(p[0], cx), Jet.principal(p[1], cy)))
    plan = cramer_stable(point_value_matrix(I, pts))
    coeff_jets, conds, undecidable = curve_step_jets(I, pt_jets, plan, RPoly())
    if undecidable:
        conds.empty_flag = PROVABLY_EMPTY
    return SimpleNamespace(plan=plan, coeff_jets=coeff_jets, conditions=conds,
                           undecidable=undecidable)


def test_curve_step_all_minors_regular_gives_monomials():
    res = curve_step_conditions(LINE, [(0, 0), (-2, 1)])
    assert all(res.plan.regular)
    for c in res.conditions.conditions:
        assert is_monomial(c.poly)
    assert not res.undecidable


def test_curve_step_all_zero_matrix_gives_full_determinants():
    res = curve_step_conditions(LINE, [(0, 0), (0, 0)], var_names=[("x1", "y1"), ("x2", "y2")])
    # all minors singular: each condition is a full 2x2 determinant
    for c in res.conditions.conditions:
        assert len(c.poly.terms) == 2
    assert not any(res.plan.regular)


def test_curve_step_conic_through_five_symbolic_points():
    rng = random.Random(12)
    conic = Support.named("conic")
    pts = [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(5)]
    res = curve_step_conditions(conic, pts)
    assert len(res.conditions.conditions) <= 6
    polys = [c.poly for c in res.conditions.conditions]
    assert all(not p.is_zero for p in polys)
    seen = [set(p.terms) for p in polys]
    for i in range(len(seen)):
        for j in range(i + 1, len(seen)):
            assert not (seen[i] & seen[j])


def test_curve_step_numeric_equal_residuals_is_undecidable():
    # both points share coordinates and residuals: every pseudodet cancels
    res = curve_step_conditions(
        LINE, [(0, 0), (0, 0)], values=[(F(2), F(3)), (F(2), F(3))]
    )
    assert res.undecidable
    assert res.conditions.provably_empty


def _full_det(n, entry, zero):
    """Unmasked memoized Laplace expansion, every cell multiplied."""
    memo = {}

    def rec(r, mask):
        if r == n - 1:
            return entry(r, mask.bit_length() - 1)
        if mask not in memo:
            total, sign, m = zero, 1, mask
            while m:
                low = m & -m
                m ^= low
                term = entry(r, low.bit_length() - 1) * rec(r + 1, mask ^ low)
                total = total + term if sign > 0 else total - term
                sign = -sign
            memo[mask] = total
        return memo[mask]

    return rec(0, (1 << n) - 1)


def _monomial_jet(pj, i, deg, one):
    """The jet of the monomial x^i1 y^i2 at a point whose jets pj are
    (x, y), or X^i1 Y^i2 Z^(deg-i1-i2) at a homogeneous one (X, Y, Z),
    as a product of jets; the constant monomial's coefficient is one."""
    out = None
    for j, e in zip(pj, (*i, deg - i[0] - i[1])):
        for _ in range(e):
            out = j if out is None else out * j
    return Jet.principal(0, one) if out is None else out


def _reference_curve_step(I, pt_jets, zero):
    """Each minor as the full jet determinant of its deleted-column
    matrix, over the ring whose zero is zero: the top order cancels iff
    the pseudodeterminant vanishes."""
    trop = point_value_matrix(I, [p for p, _ in pt_jets])
    deg = max(i + j for i, j in I.points)
    entries = [[_monomial_jet(pj, i, deg, zero + 1) for i in I.points] for _, pj in pt_jets]
    conds, coeff_jets, any_nonzero = ConditionSet(), {}, False
    for k, i in enumerate(I.points):
        cols = [c for c in range(len(I.points)) if c != k]
        value = trop_det([[row[c] for c in cols] for row in trop]).value
        det = _full_det(len(pt_jets), lambda r, c: entries[r][cols[c]], Jet.zero())
        if det.is_principal and det.order == value:
            cond_val, any_nonzero = det.coeff, True
            jet = det if k % 2 == 0 else -det
        else:
            cond_val, jet = zero, Jet.degenerate(value)
        coeff_jets[i] = jet
        conds.add(cond_val, f"curve minor {i}")
    return coeff_jets, conds, not any_nonzero


def _random_point_jet(rng, coords, kind, name):
    """(tropical point, point jets): (jet_x, jet_y) principal in F_7,
    symbolic or rational residuals, with an occasional degenerate
    coordinate.  Kind "homog" gives symbolic homogeneous jets
    (jet_X, jet_Y, jet_Z) with Z of order 0, and kind "dead" F_7 jets of
    which every one is degenerate at about one point in three."""
    field = ResidualField(7)
    dead = kind == "dead" and rng.random() < 0.35
    jets = []
    for axis, o in zip("XYZ" if kind == "homog" else "xy", (*coords, 0)):
        if dead or rng.random() < 0.15:
            jets.append(Jet.degenerate(o))
        elif kind in ("fp", "dead"):
            jets.append(Jet.principal(o, field.elt(rng.randint(1, 6))))
        elif kind in ("sym", "homog") or rng.random() < 0.5:
            jets.append(Jet.principal(o, RPoly.var(f"{name}.{axis}")))
        else:
            jets.append(Jet.principal(o, F(rng.choice([-2, -1, 1, 3]))))
    return coords, tuple(jets)


def test_curve_step_jets_matches_full_jet_minors():
    # the evaluator's residue minors against the full jet determinants,
    # on affine and homogeneous point jets; with degenerate points some
    # rows keep no tight cell whose monomial is principal
    rng = random.Random(77)
    cases = [(Support.named("vertical"), "sym", 40), (Support.named("horizontal"), "fp", 40),
             (LINE, "sym", 120), (LINE, "fp", 120), (LINE, "mixed", 80),
             (Support.named("conic"), "fp", 60), (Support.named("conic"), "mixed", 25),
             (Support.named("cubic"), "fp", 6), (LINE, "homog", 80), (Support.named("conic"), "homog", 20),
             (LINE, "dead", 80), (Support.named("conic"), "dead", 30)]
    dead_rows = 0
    for sup, kind, count in cases:
        deg = max(i + j for i, j in sup.points)
        for _ in range(count):
            box = rng.choice([1, 2, 6])
            pts = []
            for idx in range(sup.delta() - 1):
                if pts and rng.random() < 0.2:
                    coords = rng.choice(pts)[0]  # a repeated point
                else:
                    coords = (F(rng.randint(-box, box)), F(rng.randint(-box, box)))
                pts.append(_random_point_jet(rng, coords, kind, f"q{idx}"))
            plan = cramer_stable(point_value_matrix(sup, [p for p, _ in pts]))
            zero = ResidualField(7).zero if kind in ("fp", "dead") else RPoly()
            got_jets, got_conds, got_undecidable = curve_step_jets(sup, [pj for _, pj in pts], plan, zero)
            coeff_jets, conds, undecidable = _reference_curve_step(sup, pts, zero)
            assert got_jets == coeff_jets, (sup, pts)
            assert [(c.origin, repr(c.poly)) for c in got_conds.conditions] == [
                (c.origin, repr(c.poly)) for c in conds.conditions], (sup, pts)
            assert got_undecidable == undecidable
            dead_rows += sum(not any(_monomial_jet(pj, sup.points[c], deg, zero + 1).is_principal for c in cs)
                             for (_, pj), cs in zip(pts, plan.tight))
    assert dead_rows >= 20, dead_rows


def test_cramer_conditions_match_per_column_pseudodet():
    rng = random.Random(78)
    for _ in range(150):
        n = rng.randint(1, 5)
        box = rng.choice([0, 1, 3])
        a = [[rng.randint(-box, box) for _ in range(n + 1)] for _ in range(n)]
        b = [[F(rng.randint(-3, 3)) for _ in range(n + 1)] for _ in range(n)]
        expected = [(k, pseudodet([r[:k] + r[k + 1:] for r in a], [r[:k] + r[k + 1:] for r in b]))
                    for k in range(n + 1)]
        assert cramer_conditions(a, b) == expected, (a, b)
    with pytest.raises(ValueError):
        cramer_conditions([[0, 0, 0]], [[1, 2]])


# ---------------------------------------------------------------------------
# resultants and local solving


def _line_jets(coeffs, names=None, orders=None):
    sup = [(1, 0), (0, 1), (0, 0)]
    out = {}
    for k, pt in enumerate(sup):
        coeff = coeffs[k]
        order = orders[k] if orders else 0
        out[pt] = Jet.principal(order, coeff)
    return out


def _stable_points(f_jets, g_jets):
    """The stable intersection, [(point, multiplicity)], of the tropical
    polynomials whose coefficients are the orders of the jets."""
    return stable_intersection(*(TropPoly(Support(jets), {i: j.order for i, j in jets.items()})
                                 for jets in (f_jets, g_jets))).points


def _x_roots(f_jets, g_jets):
    """The tropical roots of Res_y(f, g), [(root, multiplicity)]
    ascending: the x-coordinates of the stable points, with the
    multiplicities of the points that share one summed."""
    out = {}
    for (x, _), m in _stable_points(f_jets, g_jets):
        out[x] = out.get(x, 0) + m
    return sorted(out.items())


def _symbolic_line_jets(orders):
    """Two lines f and g on (x, y, 1) with the given orders and one
    variable per coefficient."""
    return [_line_jets([RPoly.var(f"{tag}{k}") for k in range(3)], orders=os)
            for tag, os in zip("fg", orders)]


def test_two_lines_on_a_shared_ray_are_fixed_not_always_compatible():
    f, g = _symbolic_line_jets([(1, 0, 1), (3, 0, 3)])
    plan = intersection_step_plan(f, g, _stable_points(f, g))
    conds, undecidable = intersection_step_conditions(f, g, plan, RPoly())
    assert plan.shear is not None
    assert not undecidable and all(c.poly for c in conds.conditions)
    # both lines contain the ray x = 0 below (0, 1), so the first vertex
    # of R_y is not a monomial: every family has a monomial vertex
    # condition, so the step is fixed, but not every vertex condition is
    # one, so it is not always compatible
    assert {n: fam.monomial_flags for n, fam in plan.families.items()} == {
        "x": [True, True], "y": [False, True], "z": [True, True]}
    assert plan.fixed
    assert not plan.always_compatible


def test_two_transversal_lines_are_always_compatible():
    f, g = _symbolic_line_jets([(0, 0, 0), (0, 3, 1)])
    assert stable_intersection(*(TropPoly(LINE, {i: j.order for i, j in jets.items()})
                                 for jets in (f, g))).points == [((F(0), F(-2)), 1)]
    plan = intersection_step_plan(f, g, _stable_points(f, g))
    conds, undecidable = intersection_step_conditions(f, g, plan, RPoly())
    assert not undecidable
    # a vertex-free edge-edge crossing: every vertex condition of every
    # resultant is a monomial
    assert all(all(fam.monomial_flags) for fam in plan.families.values())
    assert all(is_monomial(c.poly) for c in conds.conditions)
    assert plan.fixed and plan.always_compatible


def sylvester_resultant(f_jets, g_jets):
    """The strict upper-hull corners of Res_y(f, g) over the jet ring, by
    x-exponent, for principal input jets: each corner's exponent, order
    and coefficient, the corner and its tight graph read off the orders,
    the coefficient the determinant of the residues on that graph."""
    coeffs = tuple({i: j.coeff for i, j in jets.items()} for jets in (f_jets, g_jets))
    zero = next(iter(coeffs[0].values())) * 0
    return [SimpleNamespace(index=e, order=h, coeff=_corner_coeff(picks, coeffs, zero))
            for e, h, _, picks in _resultant_corners(f_jets, g_jets, _x_roots(f_jets, g_jets))]


# The masked Laplace expansion of the Sylvester matrix over the jet ring,
# which computed every coefficient of the jet resultant before the hull
# corners did: the differential oracle of ``sylvester_resultant``.


class JPoly:
    """Univariate polynomial with jet coefficients (a commutative ring)."""

    __slots__ = ("c",)

    def __init__(self, c=None):
        self.c = {e: j for e, j in (c or {}).items() if not j.is_zero}

    def __add__(self, o):
        out = dict(self.c)
        for e, j in o.c.items():
            s = out.get(e, Jet.zero()) + j
            if s.is_zero:
                out.pop(e, None)
            else:
                out[e] = s
        return JPoly(out)

    def __neg__(self):
        return JPoly({e: -j for e, j in self.c.items()})

    def __mul__(self, o):
        out = {}
        for e1, j1 in self.c.items():
            for e2, j2 in o.c.items():
                e = e1 + e2
                s = out.get(e, Jet.zero()) + j1 * j2
                if s.is_zero:
                    out.pop(e, None)
                else:
                    out[e] = s
        return JPoly(out)


def _laplace_resultant(f_jets, g_jets):
    """Res_y(f, g) over the jet ring, every x-exponent: {exponent: jet}."""
    fy = {j: JPoly(c) for j, c in _by_y(f_jets).items()}
    gy = {j: JPoly(c) for j, c in _by_y(g_jets).items()}
    m, n = max(fy), max(gy)
    rows = []
    for coeffs, deg, shifts in ((fy, m, n), (gy, n, m)):
        for r in range(shifts):
            row = [None] * (m + n)
            for k in range(deg + 1):
                row[r + k] = coeffs.get(deg - k)
            rows.append(row)
    return masked_det([{c: e for c, e in enumerate(row) if e is not None} for row in rows], JPoly()).c


def _oracle_corners(f_jets, g_jets):
    res = _laplace_resultant(f_jets, g_jets)
    return [(e, res[e]) for e, _ in upper_chain(sorted((e, j.order) for e, j in res.items()))]


def _corners(f_jets, g_jets):
    return [(k.index, Jet.of(k.order, k.coeff)) for k in sylvester_resultant(f_jets, g_jets)]


def _ydeg(p):
    return max(j for _, j in p) - min(j for _, j in p)


def _random_jets(rng, field, shear, orders, degrees=(1, 2, 3)):
    """Jets on a random subset of a degree-d triangle, sheared by (i, j) ->
    (i, j + shear*i)."""
    d = rng.choice(degrees)
    pts = [(i, j) for i in range(d + 1) for j in range(d + 1 - i)]
    return {(i, j + shear * i): Jet.principal(rng.choice(orders), field.random_nonzero(rng))
            for i, j in rng.sample(pts, rng.randint(1, len(pts)))}


EQUAL = [F(0)]
TIED = [F(k) for k in (-1, 0, 1)]
HALF = [F(k, 2) for k in range(-3, 4)]


def test_sylvester_corners_match_laplace_oracle():
    # each corner's exponent, order and coefficient; with equal orders
    # over F_3 and F_5 the top coefficients cancel often
    rng = random.Random(53)
    checked = degenerate = 0
    dims = set()
    while checked < 500:
        field = ResidualField(rng.choice([3, 5, 10007]))
        shear, orders = rng.randint(0, 2), rng.choice([EQUAL, TIED, HALF])
        f, g = (_random_jets(rng, field, shear, orders) for _ in range(2))
        dim = _ydeg(f) + _ydeg(g)
        if not 0 < dim <= 8:
            continue
        expected = _oracle_corners(f, g)
        assert _corners(f, g) == expected, (f, g)
        degenerate += sum(j.is_degenerate for _, j in expected)
        dims.add(dim)
        checked += 1
    assert degenerate >= 20
    assert dims == set(range(1, 9))


def test_sylvester_corners_match_laplace_oracle_at_dim_9_and_10():
    rng = random.Random(67)
    checked = 0
    while checked < 4:
        f, g = (_random_jets(rng, F10007, 2, HALF, degrees=(2, 3)) for _ in range(2))
        if _ydeg(f) + _ydeg(g) not in (9, 10):
            continue
        assert _corners(f, g) == _oracle_corners(f, g), (f, g)
        checked += 1


def _family_roots(points, name, a):
    """The tropical roots of resultant family name at shear a: the stable
    points' x, y or x - a*y, with the multiplicities of the points that
    share one summed, [(root, multiplicity)] ascending."""
    coord = {"x": lambda b: b[0], "y": lambda b: b[1], "z": lambda b: b[0] - a * b[1]}[name]
    roots = {}
    for b, m in points:
        roots[coord(b)] = roots.get(coord(b), 0) + m
    return sorted(roots.items())


def test_shape_flags_match_symbolic_oracle():
    # the monomial flags, counted over the matchings of each corner's
    # tight graph, against a full Laplace run with one variable per input
    # coefficient, on the views of R_x, R_y and R_z sheared by a = 1, 2
    rng = random.Random(59)
    checked = {}
    seen = set()
    while min(checked.values(), default=0) < 100 or len(checked) < 4:
        shear, orders = rng.randint(0, 1), rng.choice([TIED, HALF])
        f, g = (_random_jets(rng, F10007, shear, orders, degrees=(1, 2)) for _ in range(2))
        points = _stable_points(f, g)
        syms = tuple({i: Jet.principal(j.order, RPoly.var(f"{tag}[{i[0]},{i[1]}]")) for i, j in jets.items()}
                     for tag, jets in (("f", f), ("g", g)))
        for name, a in (("x", None), ("y", None), ("z", 1), ("z", 2)):
            view = _family_view(name, (f, g), a)
            if not 0 < _ydeg(view[0]) + _ydeg(view[1]) <= SHAPE_BOUND:
                continue
            fam = _resultant_family(*view, _family_roots(points, name, a))
            res = _laplace_resultant(*_family_view(name, syms, a))
            expected = [res[e].is_principal and is_monomial(res[e].coeff) for e in fam.vertex_indices]
            assert fam.monomial_flags == expected, (f, g, name, a)
            seen.update(expected)
            checked[name, a] = checked.get((name, a), 0) + 1
    assert seen == {True, False}
    # a Sylvester matrix this small cancels no monomial, so random tight
    # graphs with repeated coefficients check the signs: rows that pick
    # alike cancel, as in [[a, b], [a, b]]
    coeffs = ({(0, 0): RPoly.var("a")}, {(0, 0): RPoly.var("b")})
    cancelled = 0
    for _ in range(300):
        n = rng.randint(2, SHAPE_BOUND)
        perm = rng.sample(range(n), n)
        picks = [{c: (rng.randint(0, 1), (0, 0)) for c in {perm[r], *rng.sample(range(n), rng.randint(0, n))}}
                 for r in range(n)]
        det = _corner_coeff(picks, coeffs, RPoly())
        assert _monomial_flag(picks) == (bool(det) and is_monomial(det)), picks
        cancelled += not det
    assert _monomial_flag([{0: (0, (0, 0)), 1: (1, (0, 0))}] * 2) is False
    assert cancelled >= 20, cancelled


def test_r_z_at_shear_0_is_r_x():
    # the identity behind listing R_x's plan again as R_z at shear 0: the
    # view of R_z is the identity and its roots are the x-roots
    rng = random.Random(83)
    compared = 0
    for _ in range(300):
        f, g = _identity_jets(rng), _identity_jets(rng)
        if _ydeg(f) + _ydeg(g) == 0:
            continue
        points = _stable_points(f, g)
        z = _resultant_family(*_family_view("z", (f, g), 0), _family_roots(points, "z", 0))
        assert z == _resultant_family(f, g, _family_roots(points, "x", None)), (f, g)
        compared += 1
        plan = intersection_step_plan(f, g, points)
        if plan.shear == 0:
            assert plan.families["z"] is plan.families["x"]
    assert compared >= 250


def test_sheared_cubic_resultant_past_the_old_bound():
    # dimension 18: at most 8 was expanded before, and larger resultant
    # families were dropped from the conditions
    cubic = Support.named("cubic")
    f = {pt: Jet.principal(0, F(1 + i)) for i, pt in enumerate(cubic.points)}
    shear = {(i, j + 3 * i): v for (i, j), v in f.items()}
    assert _ydeg(shear) == 9
    heights = {pt: j.order for pt, j in shear.items()}
    corners = sylvester_resultant(shear, shear)
    assert [(k.index, k.order) for k in corners] == upper_chain(
        sorted(_brute_trop_resultant(heights, heights).items()))
    assert not any(k.coeff for k in corners)  # Res(f, f) = 0
    rng = random.Random(61)
    f, g = ({(i, j + 3 * i): Jet.principal(F(rng.randint(-6, 6), rng.randint(1, 2)), F10007.random_nonzero(rng))
             for i, j in cubic.points} for _ in range(2))
    corners = sylvester_resultant(f, g)
    brute = _brute_trop_resultant(*({pt: j.order for pt, j in jets.items()} for jets in (f, g)))
    assert [(k.index, k.order) for k in corners] == upper_chain(sorted(brute.items()))
    assert len(corners) > 2


def _identity_jets(rng):
    """Principal jets with half-integer orders on a dense degree-1..6
    triangle or on a sparse subset of a box."""
    if rng.random() < 0.5:
        d = rng.choice([1, 1, 2, 2, 3, 3, 4, 5, 6])
        pts = [(i, j) for i in range(d + 1) for j in range(d + 1 - i)]
    else:
        box = [(i, j) for i in range(4) for j in range(4)]
        pts = rng.sample(box, rng.randint(2, 7))
    return {pt: Jet.principal(F(rng.randint(-12, 12), rng.choice([1, 2])), F10007.random_nonzero(rng))
            for pt in pts}


def test_resultant_corners_are_read_at_slopes_from_the_stable_intersection():
    # tropical elimination is the projection of the stable intersection,
    # with multiplicities: the roots of R_x, R_y and the sheared R_z are
    # the stable points' x, y and x - a*y.  A plan whose corners disagree
    # with them raises; where the Sylvester matrix is small the corners
    # are the upper hull of the max-plus Sylvester permanent.
    rng = random.Random(89)
    families = compared = large = 0
    for _ in range(500):
        f, g = _identity_jets(rng), _identity_jets(rng)
        points = _stable_points(f, g)
        plan = intersection_step_plan(f, g, points)
        families += len(plan.families)
        for name, fam in plan.families.items():
            view = _family_view(name, (f, g), plan.shear)
            dim = _ydeg(view[0]) + _ydeg(view[1])
            large += dim >= 10
            if dim > 6:
                continue
            corners = _resultant_corners(*view, _family_roots(points, name, plan.shear))
            assert [e for e, *_ in corners] == fam.vertex_indices
            brute = _brute_trop_resultant(*({pt: j.order for pt, j in jets.items()} for jets in view))
            assert [(e, h) for e, h, *_ in corners] == upper_chain(sorted(brute.items())), (f, g, name)
            compared += 1
    assert families >= 1200 and compared >= 600 and large >= 50, (families, compared, large)
    # the tripwire: R_x handed the roots of R_y
    f, g = _symbolic_line_jets([(0, 0, 0), (0, 3, 1)])
    with pytest.raises(AssertionError, match="disagree with the stable intersection"):
        _resultant_corners(f, g, [(F(-2), 1)])


def test_the_shear_separates_the_stable_points():
    # the shear of R_z is the least a >= 0 for which x - a*y is injective
    # on the stable points.  At chasles' first step at sample_inputs
    # t = 17 the three stable points have distinct x, so a = 0; the point
    # (-4/3, 2) lies on both cubics and shares its x with (-4/3, -8), but
    # it is not a stable point
    from tropgeo.construction import realize
    from tropgeo.theorems import catalog, sample_inputs

    hyp = catalog()["chasles"].hypothesis
    r = realize(hyp, sample_inputs(hyp, random.Random(17)))
    points = r.intersections[0].points
    assert points == [((F(-4, 3), F(-8)), 3), ((F(-1, 2), F(2)), 4), ((F(1), F(2)), 2)]
    curves = [r.values[n] for n in hyp.steps[0].curves]
    assert all(f.on_curve((F(-4, 3), F(2))) for f in curves)
    f, g = ({i: Jet.principal(o, F10007.elt(1)) for i, o in f.coeff_map().items()} for f in curves)
    assert intersection_step_plan(f, g, points).shear == 0


def test_each_resultant_corner_costs_one_assignment(monkeypatch):
    from tropgeo import stable_ops

    calls = []
    hungarian = stable_ops._hungarian_max

    def counted(w):
        calls.append(len(w))
        return hungarian(w)

    monkeypatch.setattr(stable_ops, "_hungarian_max", counted)
    rng = random.Random(97)
    for _ in range(40):
        f, g = _identity_jets(rng), _identity_jets(rng)
        for name in ("x", "y"):
            view = _family_view(name, (f, g), None)
            if _ydeg(view[0]) + _ydeg(view[1]) == 0:
                continue
            roots = _x_roots(*view)
            calls.clear()
            fam = _resultant_family(*view, roots)
            assert len(calls) == len(fam.vertex_indices) == len(roots) + 1
    # a shear-0 plan makes one assignment per corner of R_x and R_y, and
    # none for R_z, which is R_x
    shear_0 = 0
    while shear_0 < 20:
        f, g = _identity_jets(rng), _identity_jets(rng)
        points = _stable_points(f, g)
        calls.clear()
        plan = intersection_step_plan(f, g, points)
        if plan.shear != 0:
            continue
        assert len(calls) == len(plan.families["x"].vertex_indices) + len(plan.families["y"].vertex_indices)
        shear_0 += 1


def _rand_bivariate(rng, max_deg=2, max_terms=4):
    """Random sparse {(i, j): coefficient} with 1..max_terms terms,
    exponents <= max_deg."""
    pts = [(i, j) for i in range(max_deg + 1) for j in range(max_deg + 1)]
    return {pt: rng.randint(-5, 5) or 1 for pt in rng.sample(pts, rng.randint(1, max_terms))}


def _eliminant(f, g, field):
    """Res_y(f, g) as the local solve computes it: the Sylvester
    determinant of the {y-degree: dense x-list} readings of f and g."""
    rows = _sylvester_rows(*(_dense_in_y(t, field) for t in (f, g)))
    return dense_det([[cell or [] for cell in row] for row in rows], field.p)


def _sympy_resultant(sympy, f, g, field):
    """Res_y(f, g) by sympy over Z of two int polynomials, as a dense list
    reduced mod p.  sympy's sign follows the Sylvester matrix only when
    deg_y f >= deg_y g, so the arguments go in that order."""
    x, y = sympy.symbols("x y")
    fs, gs = (sum(c * x**i * y**j for (i, j), c in t.items()) for t in (f, g))
    m, n = sympy.degree(fs, y), sympy.degree(gs, y)
    res = sympy.resultant(fs, gs, y) if m >= n else (-1) ** (m * n) * sympy.resultant(gs, fs, y)
    return _dense([int(c) for c in reversed(sympy.Poly(res, x).all_coeffs())], field.p)


def _monomial_free(t):
    """{(i, j): c} divided by x^min(i) * y^min(j)."""
    mi, mj = min(i for i, _ in t), min(j for _, j in t)
    return {(i - mi, j - mj): c for (i, j), c in t.items()}


def test_dense_eliminant_matches_sympy():
    # the local solve divides each polynomial by its monomial content
    # first, so that a common power of x or y does not make its
    # eliminant vanish
    sympy = pytest.importorskip("sympy")
    rng = random.Random(41)
    for spec in ("fp:2", "fp:3", "fp:10007"):
        field = ResidualField.parse(spec)
        checked = 0
        dims = set()
        while checked < 40:
            deg = rng.choice([2, 2, 4, 6])
            f, g = (_rand_bivariate(rng, max_deg=deg, max_terms=deg + 2) for _ in range(2))
            # coefficients that vanish mod p drop out
            f, g = ({pt: c for pt, c in t.items() if c % field.p} for t in (f, g))
            if not f or not g or _ydeg(f) + _ydeg(g) == 0:
                continue
            expected = _sympy_resultant(sympy, _monomial_free(f), _monomial_free(g), field)
            assert _eliminant(f, g, field) == expected, (spec, f, g)
            dims.add(_ydeg(f) + _ydeg(g))
            checked += 1
        assert max(dims) >= 10, spec
    # the largest Sylvester matrix, 12 x 12
    f = {(0, 6): 1, (1, 3): 2, (2, 0): -3, (0, 0): 1}
    g = {(0, 6): 2, (2, 5): 1, (1, 1): 1, (0, 0): -1}
    field = ResidualField.parse("fp:10007")
    assert _eliminant(f, g, field) == _sympy_resultant(sympy, f, g, field)


def _leibniz_det(a, p):
    """sum over permutations of sign * product, on dense coefficient lists."""
    total = []
    for perm in itertools.permutations(range(len(a))):
        inversions = sum(perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm)))
        term = [(-1) ** inversions]
        for r, c in enumerate(perm):
            term = [sum(term[k] * a[r][c][e - k] for k in range(len(term)) if 0 <= e - k < len(a[r][c]))
                    for e in range(len(term) + len(a[r][c]) - 1)]
        total = [x + y for x, y in itertools.zip_longest(total, term, fillvalue=0)]
    return _dense(total, p)


def test_dense_det_swaps_zero_pivots():
    # zero pivots, at the first step and after elimination, over F_p[x],
    # against the permutation expansion
    rng = random.Random(71)
    swapped = 0
    for p in (2, 3, 10007):
        for n in range(1, 6):
            for _ in range(8):
                a = [[_dense([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))], p) if rng.random() < 0.5 else []
                      for _ in range(n)] for _ in range(n)]
                if n > 1 and rng.random() < 0.5:
                    a[0][0] = []
                    swapped += 1
                assert dense_det(a, p) == _leibniz_det(a, p), (p, a)
    assert swapped > 20
    # a matrix whose second pivot vanishes after the first step
    assert dense_det([[[1], [1], [1]], [[1], [1], [2]], [[1], [2], [4]]], 10007) == [10006]


def test_fp_det_matches_the_permutation_expansion():
    # scalar matrices mod p, zero pivots included, as dense_det's constants
    rng = random.Random(73)
    for p in (2, 3, 10007):
        for n in range(1, 7):
            for _ in range(10):
                a = [[rng.randint(-5, 5) if rng.random() < 0.6 else 0 for _ in range(n)] for _ in range(n)]
                expected = _leibniz_det([[_dense([x], p) for x in row] for row in a], p)
                assert fp_det(a, p) == (expected[0] if expected else 0), (p, a)


def _dense(coeffs, p):
    out = [c % p for c in coeffs]
    while out and not out[-1]:
        out.pop()
    return out


def test_vanishing_eliminant_is_information_lost():
    # f and g share the factor y + x, so Res_y(f, g) = 0
    f = {(0, 2): 1, (0, 1): 1, (1, 1): 1, (1, 0): 1}   # (y + x)(y + 1)
    g = {(0, 2): 1, (0, 1): 2, (1, 1): 1, (1, 0): 2}   # (y + x)(y + 2)
    for spec in ("fp:2", "fp:3", "fp:10007"):
        field = ResidualField.parse(spec)
        assert _eliminant(f, g, field) == []
        fj, gj = ({pt: Jet.principal(0, field.elt(c)) for pt, c in t.items() if field.elt(c)}
                  for t in (f, g))
        with pytest.raises(InformationLostError, match="eliminant vanishes"):
            local_intersection_solve(fj, gj, (0, 0), field)


def _trop_sylvester_cells(f_trop, g_trop):
    """The max-plus Sylvester matrix: cell (r, c) is {x-exponent: height}."""

    def by_y(poly):
        mi = min(i for i, _ in poly)
        mj = min(j for _, j in poly)
        out = {}
        for (i, j), h in poly.items():
            out.setdefault(j - mj, {})[i - mi] = h
        return out

    fy, gy = by_y(f_trop), by_y(g_trop)
    m, n = max(fy), max(gy)

    def entry(r, c):
        coeffs, deg, shift = (fy, m, r) if r < n else (gy, n, r - n)
        k = c - shift
        return coeffs.get(deg - k, {}) if 0 <= k <= deg else {}

    return [[entry(r, c) for c in range(m + n)] for r in range(m + n)]


def _permutation_trop_resultant(f_trop, g_trop):
    """Max over permutations and term choices, term by term."""
    rows = _trop_sylvester_cells(f_trop, g_trop)
    best = {}
    for perm in itertools.permutations(range(len(rows))):
        for terms in itertools.product(*(rows[r][c].items() for r, c in enumerate(perm))):
            exp = sum(t[0] for t in terms)
            h = sum(t[1] for t in terms)
            if exp not in best or h > best[exp]:
                best[exp] = h
    return best


def _brute_trop_resultant(f_trop, g_trop):
    """The same maximum by a dynamic program over the rows, in the order of
    their first cell, keeping the best heights per set of columns used so
    far; a set that leaves a column no later row reaches is dropped."""
    rows = sorted(_trop_sylvester_cells(f_trop, g_trop),
                  key=lambda row: min(c for c, e in enumerate(row) if e))
    size = len(rows)
    reach = [0] * (size + 1)  # the columns rows k.. have cells in, as bits
    for k in range(size - 1, -1, -1):
        reach[k] = reach[k + 1] | sum(1 << c for c, e in enumerate(rows[k]) if e)
    full = (1 << size) - 1
    states = {0: {0: 0}}
    for k, row in enumerate(rows):
        nxt = {}
        for used, best in states.items():
            for c, cell in enumerate(row):
                u = used | 1 << c
                if not cell or u == used or (full ^ u) & ~reach[k + 1]:
                    continue
                tgt = nxt.setdefault(u, {})
                for e, h in best.items():
                    for i, hi in cell.items():
                        if e + i not in tgt or h + hi > tgt[e + i]:
                            tgt[e + i] = h + hi
        states = nxt
    return states[full]


def test_brute_trop_resultant_is_the_permutation_maximum():
    rng = random.Random(45)
    checked = 0
    while checked < 60:
        f = {pt: F(rng.randint(-3, 3), rng.randint(1, 2)) for pt in _rand_bivariate(rng)}
        g = {pt: F(rng.randint(-3, 3), rng.randint(1, 2)) for pt in _rand_bivariate(rng)}
        if not 0 < _ydeg(f) + _ydeg(g) <= 5:
            continue
        assert _brute_trop_resultant(f, g) == _permutation_trop_resultant(f, g), (f, g)
        checked += 1


def test_trop_resultant_heights_matches_brute_force():
    # the orders of the jet resultant are the max-plus Sylvester
    # permanent, also where top coefficients cancel: with all
    # coefficients 1 and tied heights (hi = 1) the signed permutation
    # terms cancel often.  The corners are its upper hull.
    for coeffs, (hi, den) in itertools.product(("ones", "random"), ((9, 3), (1, 1))):
        rng, coeff_rng = random.Random(43), random.Random(44)

        def jets(heights):
            return {pt: Jet.principal(h, F(1) if coeffs == "ones" else F(coeff_rng.choice([-3, -1, 1, 2])))
                    for pt, h in heights.items()}

        checked = cancelled = 0
        while checked < 80:
            f = {pt: F(rng.randint(-hi, hi), rng.randint(1, den)) for pt in _rand_bivariate(rng)}
            g = {pt: F(rng.randint(-hi, hi), rng.randint(1, den)) for pt in _rand_bivariate(rng)}
            if not 0 < _ydeg(f) + _ydeg(g) <= 4:
                continue
            fj, gj = jets(f), jets(g)
            res = _laplace_resultant(fj, gj)
            brute = _brute_trop_resultant(f, g)
            assert {e: j.order for e, j in res.items()} == brute, (coeffs, f, g)
            assert _corners(fj, gj) == _oracle_corners(fj, gj), (coeffs, f, g)
            assert [(e, j.order) for e, j in _corners(fj, gj)] == upper_chain(sorted(brute.items()))
            cancelled += any(j.is_degenerate for j in res.values())
            checked += 1
        if (coeffs, hi) == ("ones", 1):
            assert cancelled >= 5


def _jet_poly_in_s(jets, x, y, s):
    """sum c * s^order * x^i * y^j after _by_y's translation to the origin."""
    mi = min(i for i, _ in jets)
    mj = min(j for _, j in jets)
    return sum(int(jet.coeff) * s ** int(jet.order) * x ** (i - mi) * y ** (j - mj)
               for (i, j), jet in jets.items())


def test_jet_sylvester_resultant_matches_sympy():
    # with s = 1/t, a jet c*t^(-o) + o(t^(-o)) stands for c*s^o + lower
    # powers of s: a principal coefficient of the resultant is sympy's
    # top s-term, a degenerate one bounds sympy's s-degree from above.
    # The oracle's every coefficient is checked, and the corners are its
    # corners.
    sympy = pytest.importorskip("sympy")
    x, y, s = sympy.symbols("x y s")
    rng = random.Random(47)
    pts = [(i, j) for i in range(3) for j in range(3)]
    checked = degenerate = 0
    while checked < 150:
        f, g = ({pt: Jet.principal(rng.randint(0, 3), F(rng.choice([1, -1, 2])))
                 for pt in rng.sample(pts, rng.randint(1, 4))} for _ in range(2))
        if all(j == min(q for _, q in p) for p in (f, g) for _, j in p):
            continue  # both y-free
        res = _laplace_resultant(f, g)
        expected = sympy.Poly(
            sympy.resultant(_jet_poly_in_s(f, x, y, s), _jet_poly_in_s(g, x, y, s), y), x
        )
        by_x = {e: sympy.Poly(c, s) for (e,), c in expected.terms()}
        for e, jet in res.items():
            top = by_x.get(e, sympy.Poly(0, s))
            if jet.is_principal:
                assert top.degree() == jet.order and top.LC() == jet.coeff, (f, g, e)
            else:
                degenerate += 1
                assert top.is_zero or top.degree() < jet.order, (f, g, e)
        # an exponent the jets drop must vanish in sympy too; one the jets
        # keep as degenerate may cancel to an exact zero
        assert set(by_x) <= set(res), (f, g)
        assert {e for e, j in res.items() if j.is_principal} <= set(by_x)
        assert _corners(f, g) == _oracle_corners(f, g), (f, g)
        checked += 1
    assert degenerate > 0


def test_local_solve_transversal_lines():
    f = _line_jets([F(3), F(2), F(4)])
    g = _line_jets([F(5), F(1), F(2)])
    # tropical lines are both all-zero; the stable point is the origin.
    # algebraically 3x+2y+4 and 5x+y+2 meet at x=0: outside the torus.
    sols = local_intersection_solve(f, g, (0, 0), F10007)
    assert sols == []


def test_local_solve_generic_lines_in_torus():
    f = _line_jets([F(3), F(2), F(5)])
    g = _line_jets([F(5), F(1), F(2)])
    sols = local_intersection_solve(f, g, (0, 0), F10007)
    assert len(sols) == 1
    s = sols[0]
    assert 3 * s.x + 2 * s.y + 5 == 0 and 5 * s.x + s.y + 2 == 0


def test_y_free_local_systems_without_a_common_x_root_have_no_solution():
    # at (0, 0), x + 1 and y*(x + 2) are y-free after the shift to the
    # origin; their x-polynomials are coprime, so there is no common zero
    def jets(terms):
        return {pt: Jet.principal(0, F10007.elt(c)) for pt, c in terms.items()}

    f = jets({(1, 0): 1, (0, 0): 1})
    assert local_intersection_solve(f, jets({(1, 1): 1, (0, 1): 2}), (0, 0), F10007) == []
    # x + 1 and y*(x + 1)*(x + 2) share the line x = -1
    g = jets({(2, 1): 1, (1, 1): 3, (0, 1): 2})
    with pytest.raises(InformationLostError, match="y-free; not zero-dimensional"):
        local_intersection_solve(f, g, (0, 0), F10007)


def test_local_solve_over_q_is_refused():
    # symbolic mode has no field, and no Q field can be built to pass
    f = _line_jets([F(3), F(2), F(5)])
    g = _line_jets([F(5), F(1), F(2)])
    with pytest.raises(ValueError, match="int prime"):
        ResidualField(None)
    with pytest.raises(ValueError, match="finite field F_p, not None"):
        local_intersection_solve(f, g, (0, 0), None)


def test_local_solve_multiplicity_four():
    # the degenerate conic pair: residual system x^2 = -a, y^2 = -b x^2
    C1 = TropPoly.parse("0+(-10)x+(-10)y+(-10)xy+0x^2+0y^2")
    C2 = TropPoly.parse("0+(-10)x+(-10)y+(-10)xy+1x^2+2y^2")
    field = ResidualField(10007)
    rng = random.Random(5)
    for attempt in range(50):
        f = {pt: Jet.principal(c, field.random_nonzero(rng))
             for pt, c in zip(C1.support.points, C1.coeffs)}
        g = {pt: Jet.principal(c, field.random_nonzero(rng))
             for pt, c in zip(C2.support.points, C2.coeffs)}
        b = stable_intersection(C1, C2).points[0][0]
        try:
            sols = local_intersection_solve(f, g, b, field)
        except Exception:
            continue
        if sols:
            assert sum(s.multiplicity for s in sols) == 4
            for s in sols:
                ft = residual_terms(f, b)
                val = sum((c * s.x**i * s.y**j for (i, j), c in ft.items()),
                          field.zero)
                assert not val
            return
    pytest.fail("no solvable sample found")


def test_local_solve_random_conic_pairs_substitution_check():
    rng = random.Random(9)
    field = F10007
    checked = 0
    for _ in range(40):
        f_tp = rand_poly(rng, 2)
        g_tp = rand_poly(rng, 2)
        f = {pt: Jet.principal(c, field.random_nonzero(rng))
             for pt, c in zip(f_tp.support.points, f_tp.coeffs)}
        g = {pt: Jet.principal(c, field.random_nonzero(rng))
             for pt, c in zip(g_tp.support.points, g_tp.coeffs)}
        for b, m in stable_intersection(f_tp, g_tp).points:
            try:
                sols = local_intersection_solve(f, g, b, field)
            except Exception:
                continue
            for s in sols:
                for terms in (residual_terms(f, b), residual_terms(g, b)):
                    val = sum((c * s.x**i * s.y**j for (i, j), c in terms.items()),
                              field.zero)
                    assert not val
                checked += 1
    assert checked > 20


def _fp_torus_zeros(f, g, p):
    """Every (x, y) in (F_p^*)^2 with f(x, y) = g(x, y) = 0, by enumeration."""

    def fiber(t, x):
        ys = [0] * 4
        for (i, j), c in t.items():
            ys[j] += c * pow(x, i, p)
        return ys

    def vanishes(ys, y):
        return not (((ys[3] * y + ys[2]) * y + ys[1]) * y + ys[0]) % p

    out = set()
    for x in range(1, p):
        fy, gy = fiber(f, x), fiber(g, x)
        out |= {(x, y) for y in range(1, p) if vanishes(fy, y) and vanishes(gy, y)}
    return out


def _common_component(sympy, f, g, p):
    """Whether f and g share a factor over GF(p) that is not a monomial,
    a curve of common torus zeros: the degree of the gcd of the two
    polynomials divided by their monomial contents, by sympy."""
    x, y = sympy.symbols("x y")
    fs, gs = (sympy.Poly(sum(c * x**i * y**j for (i, j), c in _monomial_free(t).items()), x, y, modulus=p)
              for t in (f, g))
    return sympy.gcd(fs, gs).total_degree() > 0


def test_local_solve_matches_brute_force_over_small_fields():
    # p = 67 and 101 take the gcd(x^p - x, f) splitting branch of the root
    # finder, the smaller fields its scan of F_p^*.  A refused system must
    # have a common component in the torus.
    sympy = pytest.importorskip("sympy")
    rng = random.Random(29)
    tri = [(i, j) for i in range(4) for j in range(4 - i)]
    compared = nonsimple = refused = 0
    for p in (5, 7, 13, 67, 101):
        field = ResidualField(p)
        for _ in range(120):
            f, g = ({pt: rng.randrange(1, p) for pt in rng.sample(tri, rng.randint(2, 6))}
                    for _ in range(2))
            fj, gj = ({pt: Jet.principal(0, field.elt(c)) for pt, c in t.items()} for t in (f, g))
            try:
                sols = local_intersection_solve(fj, gj, (0, 0), field)
            except InformationLostError:
                assert _common_component(sympy, f, g, p), (p, f, g)
                refused += 1
                continue
            got = [(s.x.v, s.y.v) for s in sols]
            assert len(set(got)) == len(got) and set(got) == _fp_torus_zeros(f, g, p), (p, f, g)
            assert all(s.multiplicity > 0 for s in sols)
            nonsimple += any(s.multiplicity != 1 for s in sols)
            compared += 1
    assert compared >= 500 and nonsimple >= 20 and refused >= 1, (compared, nonsimple, refused)


def _intersected_y_roots(f0, g0, field):
    """The common roots of two fibers as ``_common_y_roots`` found them
    before it took their gcd: the roots of each nonzero fiber, kept where
    both have them at the smaller multiplicity, ordered by repr."""
    if not f0 and not g0:
        raise InformationLostError("residual fiber is the whole line")
    candidates = None
    for q in (f0, g0):
        if len(q) == 1:
            return []  # nonzero constant: no roots
        if not q:
            continue
        roots = dict(dense_roots(q, field))
        if candidates is None:
            candidates = roots
        else:
            candidates = {y: min(m, roots[y]) for y, m in candidates.items() if y in roots}
    return sorted(candidates.items(), key=lambda t: repr(t[0])) if candidates else []


def _random_fiber(rng, p, shared):
    """A dense fiber mod p: zero, a nonzero constant, or a product of
    linear factors, some of them the shared roots (0 among them at
    times), with multiplicities up to 3, times a random cofactor."""
    kind = rng.random()
    if kind < 0.08:
        return []
    if kind < 0.16:
        return [rng.randrange(1, p)]
    out = [rng.randrange(1, p)]
    roots = rng.sample(shared, rng.randint(0, len(shared))) + [rng.randrange(p)]
    for r in roots:
        for _ in range(rng.randint(1, 3)):
            out = _dense([sum(out[k] * c for k, c in [(e, -r), (e - 1, 1)] if 0 <= k < len(out))
                          for e in range(len(out) + 1)], p)
    cofactor = [rng.randrange(p) for _ in range(rng.randint(1, 3))] + [1]
    return _dense([sum(out[k] * cofactor[e - k] for k in range(len(out)) if 0 <= e - k < len(cofactor))
                   for e in range(len(out) + len(cofactor) - 1)], p)


def test_common_y_roots_match_the_per_fiber_intersection():
    rng = random.Random(83)
    compared = both_zero = shared_zero = repeated = 0
    for p in (2, 3, 10007):
        field = ResidualField(p)
        for _ in range(800):
            shared = rng.sample(range(min(p, 6)), min(p, rng.randint(1, 3)))
            f0, g0 = _random_fiber(rng, p, shared), _random_fiber(rng, p, shared)
            if not f0 and not g0:
                for find in (_common_y_roots, _intersected_y_roots):
                    with pytest.raises(InformationLostError, match="whole line"):
                        find(f0, g0, field)
                both_zero += 1
                continue
            got = _common_y_roots(f0, g0, field)
            assert got == _intersected_y_roots(f0, g0, field), (p, f0, g0)
            shared_zero += any(y == 0 for y, _ in got)
            repeated += any(m > 1 for _, m in got)
            compared += 1
    assert compared >= 2000 and both_zero >= 10 and shared_zero >= 100 and repeated >= 100, (
        compared, both_zero, shared_zero, repeated)


# ---------------------------------------------------------------------------
# line∩line steps by their 2 x 3 masked minors


def _line_step_runs(f, g, draw, field):
    """One line∩line step on the input lines f and g, residues from draw:
    (outputs, lift plans met) by the dual step, and by the resultant path,
    which runs when the realization keeps no Cramer solution of the step.
    The outputs are the step report's conditions, flags and notes, the
    condition set and the jets of the point."""
    from dataclasses import replace

    from tropgeo import construction

    c = construction.Construction(input_curves=[("f", LINE), ("g", LINE)],
                                  steps=[construction.Intersect(["p"], ("f", "g"))])
    r = construction.realize(c, {"f": f, "g": g})
    assert set(r.cramer) == {0}
    out = []
    for rr in (r, replace(r, cramer={})):
        plans = {}
        (rep,), conds, jets, ok = construction._propagate(c, rr, draw, field, plans)
        assert rep.nodes == ["p"]
        out.append(((rep.conditions, [str(v) for _, v in rep.conditions], rep.all_zero, rep.some_zero,
                     rep.fixed, rep.always_compatible, rep.notes, conds.to_json(), jets["p"], ok), plans))
    return out


def _memo_draw(pool):
    """A residual draw that gives each variable one value from pool(), so
    that the two paths read the same residues."""
    values = {}
    return lambda name: values[name] if name in values else values.setdefault(name, pool())


def test_line_step_by_minors_matches_the_resultant_path():
    # the dual step (masked minors M0, M1, M2 on the Cramer tight graph)
    # against the resultant path (three Sylvester families, argmax
    # supports and the local solve) on tie-heavy, shared-ray and shifted
    # line pairs, over F_10007 with generic and with few residues, over
    # F_7, and symbolically with distinct and with repeated variables;
    # g = f with equal residues makes all three minors vanish
    pairs = _line_pairs()
    assert len(pairs) >= 2000
    rng = random.Random(29)
    f7 = ResidualField(7)
    few = [F10007.elt(v) for v in (1, -1, 2)]
    uvw = [RPoly.var(v) for v in "uvw"] + [-RPoly.var(v) for v in "uvw"]
    fresh = itertools.count()
    seen = {"point": 0, "no torus solution": 0, "lost": 0, "symbolic zero": 0, "fixed": 0,
            "always-compatible": 0}
    for k, (f, g) in enumerate(pairs):
        shared = [F10007.random_nonzero(rng) for _ in range(3)]
        same = {f"{n}[{i},{j}]": v for n in "fg" for (i, j), v in zip(LINE.points, shared)}
        fp = [
            (lambda: F10007.random_nonzero(rng), F10007),
            (lambda: rng.choice(few), F10007),
            (None, F10007),
        ][k % 3]
        symbolic = [lambda: RPoly.var(f"c{next(fresh)}"), lambda: rng.choice(uvw)][k % 2]
        modes = [fp, (lambda: f7.random_nonzero(rng), f7), (symbolic, None)]
        for pool, field in modes:
            draw = same.__getitem__ if pool is None else _memo_draw(pool)
            (dual, dual_plans), (ref, ref_plans) = _line_step_runs(f, g, draw, field)
            assert dual == ref, (f, g, field)
            assert dual_plans == {} and ref_plans, (f, g)
            conditions, _, _, some_zero, fixed, always, notes, *_ = dual
            seen["fixed"] += fixed
            seen["always-compatible"] += always
            origins = [o for o, _ in conditions]
            if any(n.endswith("not zero-dimensional") for n in notes):
                seen["lost"] += 1
            elif any(" no torus solution at " in o for o in origins):
                seen["no torus solution"] += 1
            elif field is None and some_zero:
                seen["symbolic zero"] += 1
            elif not some_zero:
                seen["point"] += 1
    assert all(seen.values()), seen
