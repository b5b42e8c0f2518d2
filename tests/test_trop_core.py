import hashlib
import itertools
import random
from math import gcd
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import tropgeo.trop_core as trop_core
from tropgeo.trop_core import (
    Support,
    TropPoly,
    concave_canonical,
    convex_hull,
    cross,
    curve,
    dual_subdivision,
    mixed_volume,
    on_segment,
)


def scale(f, c):
    """f plus the constant c, which leaves its curve in place."""
    return TropPoly(f.support, tuple(a + F(c) for a in f.coeffs))


def normalized(f):
    """f's tropical-scaling normal form: its first coefficient shifted to 0."""
    return scale(f, -f.coeffs[0])


def same_curve(f, g):
    """Same support and same curve: concave canonical forms agree up to
    adding a constant."""
    return f.support == g.support and (normalized(concave_canonical(f)).coeffs
                                       == normalized(concave_canonical(g)).coeffs)


def test_eval_all_zero_line():
    f = TropPoly.parse("0x+0y+0")
    value, arg = f.eval((0, 0))
    assert value == 0
    assert set(arg) == {(0, 0), (1, 0), (0, 1)}
    assert f.on_curve((0, 0))


def test_eval_line_on_and_off_curve():
    f = TropPoly.parse("1x+0y+1")
    value, arg = f.eval((0, 0))
    assert value == 1
    assert set(arg) == {(1, 0), (0, 0)}
    value, arg = f.eval((5, 0))
    assert value == 6
    assert arg == ((1, 0),)
    assert not f.on_curve((5, 0))


def _fraction_eval(f, p):
    """The Fraction loop TropPoly.eval ran before the int form: the value
    and the argmax of max_i(c_i + i.p), in support order."""
    px, py = F(p[0]), F(p[1])
    best, arg = None, []
    for pt, c in zip(f.support.points, f.coeffs):
        v = c + pt[0] * px + pt[1] * py
        if best is None or v > best:
            best, arg = v, [pt]
        elif v == best:
            arg.append(pt)
    return best, tuple(arg)


def test_eval_matches_the_fraction_loop_with_forced_ties():
    rng = random.Random(15)
    box = [(i, j) for i in range(4) for j in range(4)]

    def q():
        return F(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 6]))

    ties = vertices = 0
    for _ in range(300):
        if rng.random() < 0.5:
            sup = Support.degree(rng.randint(1, 4))
        else:
            sup = Support(rng.sample(box, rng.randint(1, 9)))
        f = TropPoly(sup, [q() for _ in sup.points])
        pts = [(q(), q()), (rng.randint(-5, 5), rng.randint(-5, 5))]
        # forced ties: the curve's vertices (argmax of 3 or more points) and
        # a point inside each of its edges (2 points)
        for e in curve(f).edges:
            t = e.length / 2 if e.kind == "segment" else F(1)
            pts += [e.base, (e.base[0] + t * e.dir[0], e.base[1] + t * e.dir[1])]
        for p in pts:
            want = _fraction_eval(f, p)
            assert f.eval(p) == want, (f, p)
            assert type(f.eval(p)[0]) is F
            assert f.on_curve(p) == (len(want[1]) >= 2)
            ties += len(want[1]) >= 2
            vertices += len(want[1]) >= 3
    assert ties > 1000 and vertices > 300


def test_parse_print_roundtrip():
    for text in [
        "(-11)+2x+2y+2xy+0x^2+0y^2",
        "3y+5+3y^2+0x^2+4x+0xy",
        "0 + 1 x + 5 y + (11/2) x y + 1 x^2 + 9 y^2 + 5 x^2 y + 9 x y^2 + 0 x^3 + 12 y^3",
    ]:
        f = TropPoly.parse(text)
        assert TropPoly.parse(str(f)) == f


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        TropPoly.parse("2x + + 3")
    with pytest.raises(ValueError):
        TropPoly.parse("1x + 2x")  # repeated monomial


def test_support_normalization_and_named():
    s = Support([(2, 3), (3, 3), (2, 4)])
    assert s == Support.named("line")
    assert Support.named("conic").delta() == 6
    assert Support.named("cubic").delta() == 10
    assert Support.named("degree(4)").delta() == 15
    assert Support.named("pencil").points == ((0, 1), (1, 0))


def test_dual_subdivision_line_single_cell():
    f = TropPoly.parse("0x+0y+0")
    sub = dual_subdivision(f)
    assert len(sub.facets) == 1
    assert set(sub.facets[0].on_points) == {(0, 0), (1, 0), (0, 1)}


def test_dual_subdivision_all_zero_conic():
    # all coefficients zero: one cell, curve is three rays from the origin
    conic = Support.named("conic")
    f = TropPoly(conic, [0] * 6)
    sub = dual_subdivision(f)
    assert len(sub.facets) == 1
    cx = curve(f)
    assert cx.vertices == [(0, 0)]
    assert sorted(e.dir for e in cx.edges) == [(-1, 0), (0, -1), (1, 1)]
    assert all(e.weight == 2 for e in cx.edges)


def test_dual_subdivision_paper_conic_four_cells():
    f = TropPoly.parse("(-11)+2x+2y+2xy+0x^2+0y^2")
    sub = dual_subdivision(f)
    assert len(sub.facets) == 4
    assert len(curve(f).vertices) == 4


def test_curve_line_structure():
    cx = curve(TropPoly.parse("1x+0y+1"))
    assert cx.vertices == [(0, 1)]
    assert sorted(e.dir for e in cx.edges) == [(-1, 0), (0, -1), (1, 1)]
    assert all(e.kind == "ray" and e.weight == 1 for e in cx.edges)


def test_curve_tripod():
    cx = curve(TropPoly.parse("0x+0y+0"))
    assert cx.vertices == [(0, 0)]


def test_curve_double_edge_weight():
    # degenerate conic: boundary edges have lattice length 2
    f = TropPoly.parse("0+(-10)x+(-10)y+(-10)xy+0x^2+0y^2")
    cx = curve(f)
    assert {e.weight for e in cx.edges} == {2}


def test_segment_support_gives_lines():
    f = TropPoly(Support.named("vertical"), [F(3), F(1)])  # max(3, 1+x): x = 2
    cx = curve(f)
    assert cx.vertices == []
    assert len(cx.edges) == 1
    e = cx.edges[0]
    assert e.kind == "line"
    assert e.base[0] == 2 or e.dir[0] == 0


def test_concave_canonical_examples():
    sup = Support([(0, 0), (1, 0), (2, 0)])
    f = TropPoly(sup, [0, -5, 0])
    g = concave_canonical(f)
    assert g.coeffs == (F(0), F(0), F(0))
    assert concave_canonical(g) == g  # idempotent


def test_concave_canonical_preserves_curve():
    rng = random.Random(7)
    for _ in range(25):
        d = rng.randint(1, 3)
        sup = Support.degree(d)
        f = TropPoly(sup, [F(rng.randint(-6, 6)) for _ in sup.points])
        g = concave_canonical(f)
        for x in range(-8, 9, 2):
            for y in range(-8, 9, 2):
                p = (F(x, 2), F(y, 2))
                assert f.on_curve(p) == g.on_curve(p)


def _envelope_oracle(f):
    """Concave envelope at each support point by brute force: by
    Caratheodory, the max over the point itself and every segment and
    triangle of support points containing it of the interpolated height."""
    cm = f.coeff_map()
    out = []
    for p in f.support.points:
        best = cm[p]
        for a, b in itertools.combinations(f.support.points, 2):
            if on_segment(p, a, b):
                k = 0 if a[0] != b[0] else 1
                t = F(p[k] - a[k], b[k] - a[k])
                best = max(best, (1 - t) * cm[a] + t * cm[b])
        for a, b, c in itertools.combinations(f.support.points, 3):
            area = cross(a, b, c)
            if area == 0:
                continue
            lam = (F(cross(p, b, c), area), F(cross(a, p, c), area), F(cross(a, b, p), area))
            if min(lam) >= 0:
                best = max(best, lam[0] * cm[a] + lam[1] * cm[b] + lam[2] * cm[c])
        out.append(best)
    return tuple(out)


def test_concave_canonical_matches_envelope_oracle():
    rng = random.Random(13)
    box = [(i, j) for i in range(4) for j in range(4)]
    polys = []
    for _ in range(150):  # random supports in a box, heavy ties
        sup = Support(rng.sample(box, rng.randint(1, 10)))
        den = rng.randint(1, 3)
        polys.append(TropPoly(sup, [F(rng.randint(-2, 2), den) for _ in sup.points]))
    for _ in range(60):  # collinear, non-primitive steps
        step = rng.choice([(2, 1), (1, 0), (0, 3), (1, -1)])
        ks = rng.sample(range(6), rng.randint(1, 6))
        sup = Support([(k * step[0], k * step[1]) for k in ks])
        den = rng.randint(1, 3)
        polys.append(TropPoly(sup, [F(rng.randint(-3, 3), den) for _ in sup.points]))
    for d in (1, 2, 3):  # degree supports, all coefficients tied
        polys.append(TropPoly(Support.degree(d), [0] * Support.degree(d).delta()))
    for f in polys:
        g = concave_canonical(f)
        assert g.support == f.support
        assert g.coeffs == _envelope_oracle(f), f
        assert concave_canonical(g) == g


def _brute_upper_facets(pts, hts):
    """Upper-hull facets of lifted points, by exhaustive plane search:
    the library's O(n^4) hull before gift wrapping replaced it.

    Returns list of (on_point_indices, normal) with normal (nx, ny, nz),
    nz > 0, such that the facet plane in the original height scale is
    dot((nx,ny,nz), (x,y,h)) == const and every lifted point lies on or
    below it.
    """
    den = 1
    for h in hts:
        den = den * h.denominator // gcd(den, h.denominator)
    P = [(p[0], p[1], int(h * den)) for p, h in zip(pts, hts)]
    n = len(P)
    facets = {}
    for i in range(n):
        for j in range(i + 1, n):
            dx1 = (P[j][0] - P[i][0], P[j][1] - P[i][1], P[j][2] - P[i][2])
            for k in range(j + 1, n):
                dx2 = (P[k][0] - P[i][0], P[k][1] - P[i][1], P[k][2] - P[i][2])
                nz = dx1[0] * dx2[1] - dx1[1] * dx2[0]
                if nz == 0:
                    continue
                nx = dx1[1] * dx2[2] - dx1[2] * dx2[1]
                ny = dx1[2] * dx2[0] - dx1[0] * dx2[2]
                if nz < 0:
                    nx, ny, nz = -nx, -ny, -nz
                base = nx * P[i][0] + ny * P[i][1] + nz * P[i][2]
                ok = True
                on = []
                for m in range(n):
                    s = nx * P[m][0] + ny * P[m][1] + nz * P[m][2] - base
                    if s > 0:
                        ok = False
                        break
                    if s == 0:
                        on.append(m)
                if ok:
                    facets[frozenset(on)] = (tuple(sorted(on)), (nx, ny, nz * den))
    return sorted(facets.values())


def _dual_vertex(normal):
    nx, ny, nz = normal
    return (F(nx, nz), F(ny, nz))


def _oracle_inputs():
    """Seeded 2-D supports with heavy ties in the heights."""
    rng = random.Random(31)
    box = [(i, j) for i in range(5) for j in range(5)]

    def height():
        if rng.random() < 0.5:
            return F(rng.randint(-1, 1))
        return F(rng.randint(-3, 3), rng.randint(1, 3))

    out = []
    for _ in range(100):  # degree-1..5 supports
        sup = Support.degree(rng.randint(1, 5))
        out.append((sup, [height() for _ in sup.points]))
    while len(out) < 300:  # random subsets of [0, 4]^2
        sup = Support(rng.sample(box, rng.randint(3, 14)))
        if len(convex_hull(sup.points)) > 2:
            out.append((sup, [height() for _ in sup.points]))
    for d in range(1, 6):  # all heights equal: one facet
        sup = Support.degree(d)
        out.append((sup, [F(7, 3)] * sup.delta()))
    for _ in range(20):  # interior points lifted below every facet
        sup = Support(rng.sample(box, rng.randint(4, 14)))
        corners = set(convex_hull(sup.points))
        if len(corners) > 2:
            out.append((sup, [height() if p in corners else F(-10) for p in sup.points]))
    for d in range(2, 6):  # the seed edge (the row y = 0) carries tied interior points
        sup = Support.degree(d)
        out.append((sup, [F(0) if p[1] == 0 else height() for p in sup.points]))
    return out


def test_upper_facets_match_brute_force(monkeypatch):
    got = []
    for sup, hts in _oracle_inputs():
        pts = list(sup.points)
        fast = trop_core._upper_facets_ints(pts, *trop_core.scaled_ints(hts), convex_hull(pts))
        slow = _brute_upper_facets(pts, hts)
        assert [on for on, _, _ in fast] == [on for on, _ in slow], (pts, hts)
        assert [_dual_vertex(n) for _, n, _ in fast] == [_dual_vertex(n) for _, n in slow]
        for on, _, hull in fast:
            assert list(hull) == convex_hull([pts[i] for i in on])
        got.append(dual_subdivision(TropPoly(sup, hts)))

    def brute(pts, H, den, poly):
        return [
            (on, n, tuple(convex_hull([pts[i] for i in on])))
            for on, n in _brute_upper_facets(pts, [F(h, den) for h in H])
        ]

    monkeypatch.setattr(trop_core, "_upper_facets_ints", brute)
    for (sup, hts), sub in zip(_oracle_inputs(), got):
        want = dual_subdivision(TropPoly(sup, hts))
        assert sub.facets == want.facets
        assert sub.edges == want.edges
        assert sub.vertices == want.vertices


def _golden_polys():
    """Seeded random rationals at d = 2..8, then tie-heavy polynomials:
    degree supports at d <= 4 and collinear supports, some with every
    lifted point on one line."""
    rng = random.Random(2026)
    for d in range(2, 9):
        sup = Support.degree(d)
        yield f"d{d}", [TropPoly(sup, [F(rng.randint(-60, 60), rng.randint(1, 4)) for _ in sup.points])]

    def tie():
        return F(rng.randint(-1, 1), rng.choice([1, 1, 2, 3]))

    ties = []
    for _ in range(30):
        sup = Support.degree(rng.randint(1, 4))
        ties.append(TropPoly(sup, [tie() for _ in sup.points]))
    for _ in range(12):
        step = rng.choice([(2, 1), (1, 0), (0, 3), (1, -1)])
        ks = rng.sample(range(6), rng.randint(2, 6))
        pts = [(k * step[0], k * step[1]) for k in ks]
        ties.append(TropPoly(Support(pts), [tie() for _ in pts]))
        # heights affine along the segment: one cell holding every point
        ties.append(TropPoly(Support(pts), {p: F(k, 2) for k, p in zip(ks, pts)}))
    yield "ties", ties


GOLDEN_POLYS = list(_golden_polys())

# SHA-256 of repr(dual_subdivision(f)) over each group, recorded before the
# plane search gave way to gift wrapping
GOLDEN_SUBDIVISIONS = {
    "d2": "94daf8807ccabbef868ffe91db9257930274a591e1dea377786bc1a18f0ea3a4",
    "d3": "82515c470a64425018f5d176548b135d086c53e04e9e4617aba6f1c275277cb1",
    "d4": "b2a7885a3b8b8c22f97063b001db061b920cf08fd670486e6da39992218d8052",
    "d5": "31dcda05e6be671ef1744161a83cb0b100ced6f6c40fd1c524f86154d3d4f2b6",
    "d6": "db1fe9f2554a4e3c3bd802b0d06b3c46523aaf80aaa32558dbb3c541a42b05b8",
    "d7": "d27d9325d5e57bdb8f0e1404326660a7384130790dc5733499668b21a2b26acc",
    "d8": "48ca93054adb18c05f35fd9bd8ca23edef73aa53cb3d01e023feabe272c1085f",
    "ties": "554b4c1a90f246befea2faf3a7fdaef6a345e8071a6b6745356ee29e299593db",
}


def _recorded_repr(f, sub):
    """repr(sub) in the form the digests were recorded in, when a
    subdivision also kept the heights of f and a cell its dimension 2."""
    head = f"NewtonSubdivision(support={sub.support!r}, "
    return repr(sub).replace(head, f"{head}heights={tuple(f.coeffs)!r}, ", 1).replace("Cell(", "Cell(dim=2, ")


@pytest.mark.parametrize("name,polys", GOLDEN_POLYS, ids=[name for name, _ in GOLDEN_POLYS])
def test_dual_subdivisions_are_unchanged(name, polys):
    subs = "[" + ", ".join(_recorded_repr(f, dual_subdivision(f)) for f in polys) + "]"
    assert hashlib.sha256(subs.encode()).hexdigest() == GOLDEN_SUBDIVISIONS[name]


def test_concavity_inequality_holds():
    # Definition of concavity on convex combinations staying inside I
    rng = random.Random(1)
    sup = Support.degree(2)
    pts = sup.points
    for _ in range(10):
        f = TropPoly(sup, [F(rng.randint(-9, 9)) for _ in pts])
        g = concave_canonical(f)
        cm = g.coeff_map()
        for a in pts:
            for b in pts:
                mid = (F(a[0] + b[0], 2), F(a[1] + b[1], 2))
                key = (int(mid[0]), int(mid[1]))
                if mid[0].denominator == 1 and mid[1].denominator == 1 and key in cm:
                    assert cm[key] >= (cm[a] + cm[b]) / 2


def test_mixed_volume_values():
    line = Support.named("line")
    conic = Support.named("conic")
    cubic = Support.named("cubic")
    assert mixed_volume(line, line) == 1
    assert mixed_volume(cubic, cubic) == 9
    assert mixed_volume(line, conic) == 2
    assert mixed_volume(conic, line) == 2  # symmetry


def test_mixed_volume_self_is_twice_area():
    conic = Support.named("conic")
    # area of the degree-2 triangle is 2
    assert mixed_volume(conic, conic) == 4


def test_duality_counts_random():
    rng = random.Random(13)
    for _ in range(40):
        d = rng.randint(1, 4)
        sup = Support.degree(d)
        f = TropPoly(sup, [F(rng.randint(-9, 9)) for _ in sup.points])
        sub = dual_subdivision(f)
        cx = curve(f)
        assert len(cx.vertices) == len(sub.facets)
        hull = convex_hull(list(sup.points))
        boundary_edges = [e for e in sub.edges if len(e.facets) == 1]
        rays = [e for e in cx.edges if e.kind == "ray"]
        assert len(rays) == len(boundary_edges)


def test_balancing_at_every_vertex():
    rng = random.Random(23)
    for _ in range(40):
        d = rng.randint(1, 4)
        sup = Support.degree(d)
        f = TropPoly(sup, [F(rng.randint(-9, 9), rng.choice([1, 2])) for _ in sup.points])
        cx = curve(f)
        for v in cx.vertices:
            acc = [0, 0]
            for e in cx.edges:
                if e.base == v:
                    acc[0] += e.weight * e.dir[0]
                    acc[1] += e.weight * e.dir[1]
                elif e.kind == "segment" and (e.base[0] + e.length * e.dir[0],
                                              e.base[1] + e.length * e.dir[1]) == v:
                    acc[0] -= e.weight * e.dir[0]
                    acc[1] -= e.weight * e.dir[1]
            assert acc == [0, 0]


@given(
    st.lists(
        st.tuples(st.integers(-5, 10), st.integers(-5, 10)),
        min_size=1,
        max_size=8,
    )
)
def test_support_normalization_idempotent(pts):
    s = Support(pts)
    assert Support(s.points) == s
    assert min(p[0] for p in s.points) == 0
    assert min(p[1] for p in s.points) == 0


@given(
    st.lists(st.fractions(min_value=-20, max_value=20), min_size=3, max_size=3),
    st.integers(-30, 30),
)
@settings(max_examples=60)
def test_scaling_does_not_move_the_curve(coeffs, c):
    f = TropPoly(Support.named("line"), coeffs)
    assert same_curve(f, scale(f, c))
