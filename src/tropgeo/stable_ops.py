"""The two construction primitives and their residual lifting conditions.

Tropical side:

* ``stable_curve``        -- tropical Cramer minors of the point-value matrix.
* ``stable_intersection`` -- mixed cells of the product subdivision: a maximal
  cell of Subdiv(f*g) decomposes as (argmax cell of f) + (argmax cell of g)
  over its dual vertex; its mixed area is the intersection multiplicity there.
  The argmax cells are int argmaxes along the cell's facet normal.
* ``perturbation_oracle`` -- an independent check: translate g by an
  infinitesimal epsilon*v and cross every edge pair transversally.  Edge
  directions are integral, so every coordinate and edge parameter stays
  affine in eps: a (value, eps-coefficient) pair, ordered as a tuple.
  The limits as eps -> 0 are the intersection points.

Residual side: conditions are pseudodeterminants, the jet-ring minors on
the tight entries of the Cramer system, and the Newton-segment vertex
coefficients of Sylvester resultants over the jet ring, where an exact
top-order cancellation is precisely a vanishing pseudodeterminant.  Only
the strict upper-hull corners of a jet resultant's heights are computed:
each is found by a max-weight assignment at a slope inside its normal
cone (parametric bisection, Eisner-Severance 1976), and its coefficient
is the determinant of the dominant coefficients on that assignment's
tight graph.  No Sylvester dimension is bounded.

Each residual step splits into a plan and an evaluator.  The plan reads
only the orders and kinds of the input jets: a curve step's Cramer tight
graph and regular flags (``curve_step_plan``), an intersection step's
resultant corners, their tight graphs, the monomial flags of their
conditions, the shear, and the argmax supports of the two residual
polynomials at each stable point (``intersection_step_plan``).  The
evaluator reads the residues: the jet-ring minors, the corner
determinants and the coefficients on those supports.  Given a plan,
``curve_step_jets``, ``intersection_step_conditions`` and
``local_intersection_solve`` only evaluate.

A numeric local system stays on dense int lists from its residual terms
to its roots: each polynomial is read as {y-degree: dense x-list}, mod p
or cleared of denominators over Q, its eliminant is the fraction-free
(Bareiss) determinant of the Sylvester matrix over F_p[x] or Z[x], and
each fiber over an x-root is evaluated by Horner.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod

from .trop_core import (
    Support,
    TropPoly,
    _upper_facets_ints,
    area2,
    curve,
    concave_canonical,
    frac,
    mixed_volume,
    polygon_area2,
    scaled_ints,
    upper_chain,
)
from .trop_linalg import _cramer, _hungarian_max, masked_det, masked_minors
from .residual import (
    ConditionSet,
    FpElt,
    InformationLostError,
    Jet,
    JET_ZERO,
    PROVABLY_EMPTY,
    ResidualField,
    RFrac,
    RPoly,
    _dense_trim,
    dense_det,
    dense_roots,
    fp_det,
    residual_support,
    support_terms,
)


class NonGenericDirection(ValueError):
    """Perturbation direction still degenerate after bounded retries."""


SHAPE_BOUND = 4  # largest Sylvester dimension given a monomial-shape run


# ---------------------------------------------------------------------------
# stable intersection via the product subdivision


@dataclass
class StableIntersection:
    """Intersection points with multiplicities; total = mixed volume."""

    points: list  # [(point, multiplicity)], lex-sorted by point

    def total(self):
        return sum(m for _, m in self.points)

    def as_labeled(self):
        """Points repeated by multiplicity, in deterministic label order."""
        out = []
        for p, m in self.points:
            out.extend([p] * m)
        return out


def _product_ints(f: TropPoly, g: TropPoly):
    """(support, ints, d): the max-plus product f*g on the int forms,
    its coefficients ints/d with d the lcm of f's and g's denominators."""
    (a, da), (b, db) = f.scaled(), g.scaled()
    d = lcm(da, db)
    sa, sb = d // da, d // db
    gs = [(j, c * sb) for j, c in zip(g.support.points, b)]
    best = {}
    for (i0, i1), c in zip(f.support.points, a):
        c *= sa
        for (j0, j1), cg in gs:
            k = (i0 + j0, i1 + j1)
            v = c + cg
            if k not in best or v > best[k]:
                best[k] = v
    sup = Support(best)
    return sup, [best[k] for k in sup.points], d


def trop_product(f: TropPoly, g: TropPoly) -> TropPoly:
    return TropPoly.from_ints(*_product_ints(f, g))


def stable_intersection(f: TropPoly, g: TropPoly) -> StableIntersection:
    """Mixed cells of the product subdivision, read from its facets: at a
    facet normal (nx, ny, nz) the summands are the argmaxes of f and g at
    the dual vertex (nx/nz, ny/nz), and a summand that is one point makes
    the cell a translate of the other, of mixed area 0."""
    sup, ints, d = _product_ints(f, g)
    corners = sup.corners()
    out = []
    facets = _upper_facets_ints(sup.points, ints, d, corners) if len(corners) > 2 else ()
    for _, (nx, ny, nz), hull in facets:
        sf = f.argmax(nx, ny, nz)[1]
        if len(sf) == 1:
            continue
        sg = g.argmax(nx, ny, nz)[1]
        if len(sg) == 1:
            continue
        m2 = polygon_area2(hull) - area2(sf) - area2(sg)
        if m2 < 0 or m2 % 2:
            raise AssertionError("mixed cell area must be a nonnegative even integer")
        if m2:
            out.append(((Fraction(nx, nz), Fraction(ny, nz)), m2 // 2))
    out.sort(key=lambda t: t[0])
    si = StableIntersection(out)
    if si.total() != mixed_volume(f.support, g.support):
        raise AssertionError("Bernstein count violated")
    return si


# ---------------------------------------------------------------------------
# perturbation oracle: g translated by eps*v, eps > 0 infinitesimal


_DIRECTIONS = [
    (1, 2), (2, 1), (1, 3), (3, 1), (2, 5), (5, 2), (1, 7), (7, 1),
    (3, 7), (7, 3), (1, 11), (11, 1), (5, 11), (11, 5), (2, 13), (13, 2),
    (3, 13), (13, 3), (1, 17), (17, 1),
]


class _Degenerate(Exception):
    pass


def _reaches(e, t) -> bool:
    """Whether the parameter t = (value, eps-coefficient) lies in the
    closed range of the edge e; tuple order is the order for
    infinitesimal eps > 0."""
    return e.kind == "line" or (t >= (0, 0) and (e.kind == "ray" or t <= (e.length, 0)))


def _inside(e, t) -> bool:
    """Whether t lies inside the edge e.  A crossing at an end of a ray
    or segment is degenerate."""
    if not _reaches(e, t):
        return False
    if e.kind != "line" and (t == (0, 0) or (e.kind == "segment" and t == (e.length, 0))):
        raise _Degenerate()
    return True


def perturbation_oracle(f: TropPoly, g: TropPoly) -> StableIntersection:
    """Stable intersection via an infinitesimal translation of g.

    Translating by eps*v makes every crossing a transversal edge-edge
    point whose multiplicity is |det(d1, d2)|*w1*w2; grouping the limits
    as eps -> 0 reproduces the stable intersection.  Retries a
    deterministic direction sequence on any degeneracy.
    """
    cf = curve(f)
    cg = curve(g)
    for v in _DIRECTIONS:
        try:
            return _perturbed_intersection(cf, cg, v)
        except _Degenerate:
            continue
    raise NonGenericDirection(f"none of the {len(_DIRECTIONS)} directions is generic")


def _perturbed_intersection(cf, cg, v) -> StableIntersection:
    """Edge crossings of cf and cg + eps*v, grouped by their limits."""
    crossings = {}
    for e1 in cf.edges:
        d1 = e1.dir
        for e2 in cg.edges:
            d2 = e2.dir
            det = d1[0] * d2[1] - d1[1] * d2[0]
            # b2 + eps*v - b1: a (value, eps-coefficient) pair per coordinate
            r = (e2.base[0] - e1.base[0], v[0]), (e2.base[1] - e1.base[1], v[1])
            if det == 0:
                # parallel; generic v keeps them disjoint, verify
                if all(x * d1[1] == y * d1[0] for x, y in zip(*r)):
                    raise _Degenerate()
                continue
            t = tuple(Fraction(x * d2[1] - y * d2[0], det) for x, y in zip(*r))
            s = tuple(Fraction(x * d1[1] - y * d1[0], det) for x, y in zip(*r))
            # a crossing outside either closed range is no crossing, even
            # at an end of the other edge: only then may an end raise
            if not (_reaches(e1, t) and _reaches(e2, s) and _inside(e1, t) and _inside(e2, s)):
                continue
            key = tuple((e1.base[k] + t[0] * d1[k], t[1] * d1[k]) for k in (0, 1))
            if key in crossings:
                raise _Degenerate()
            crossings[key] = abs(det) * e1.weight * e2.weight
    grouped = {}
    for ((px, _), (py, _)), mult in crossings.items():
        grouped[(px, py)] = grouped.get((px, py), 0) + mult
    return StableIntersection(sorted(grouped.items()))


# ---------------------------------------------------------------------------
# stable curve through points


def _point_values(I: Support, pts):
    """(w, e): the point-value matrix times e, the lcm of the points'
    coordinate denominators, as ints; row r is p_r.i over i in I."""
    flat, e = scaled_ints([frac(c) for p in pts for c in p])
    return [[i * x + j * y for i, j in I.points] for x, y in zip(flat[::2], flat[1::2])], e


def point_value_matrix(I: Support, pts):
    w, e = _point_values(I, pts)
    return [[Fraction(v, e) for v in row] for row in w]


def stable_curve(I: Support, pts) -> TropPoly:
    """The unique curve of support I through delta-1 points that varies
    continuously with them, in concave canonical form."""
    if I.delta() < 2:
        raise ValueError("curve supports need at least two points")
    if len(pts) != I.delta() - 1:
        raise ValueError(f"need {I.delta() - 1} points, got {len(pts)}")
    sol = _cramer(*_point_values(I, pts))
    return concave_canonical(TropPoly(I, sol.values))


# ---------------------------------------------------------------------------
# curve step over jets


def _jet_pow(j: Jet, e: int) -> Jet:
    if e == 0:
        raise ValueError("use an explicit one jet")
    out = j
    for _ in range(e - 1):
        out = out * j
    return out


def _monomial_jet(jx: Jet, jy: Jet, i) -> Jet:
    if i == (0, 0):
        return Jet.principal(0, _one_like_coeff(jx))
    parts = []
    if i[0]:
        parts.append(_jet_pow(jx, i[0]))
    if i[1]:
        parts.append(_jet_pow(jy, i[1]))
    out = parts[0]
    for p in parts[1:]:
        out = out * p
    return out


def _one_like_coeff(j: Jet):
    c = j.coeff if j.is_principal else None
    if isinstance(c, RPoly):
        return RPoly.const(1)
    if isinstance(c, RFrac):
        return RFrac.of(1)
    if c is None:
        return Fraction(1)
    return c / c  # field one of the right characteristic


def _zero_like_coeff(sample):
    if isinstance(sample, RPoly):
        return RPoly()
    if isinstance(sample, RFrac):
        return RFrac(RPoly())
    return sample * 0


@dataclass
class CurveStepResult:
    coeff_jets: dict          # support point -> cofactor-signed minor jet
    conditions: ConditionSet  # one pseudodeterminant != 0 per support point
    minor_regular: dict       # support point -> tropical minor regularity
    undecidable: bool         # every pseudodeterminant vanished


def curve_step_plan(I: Support, pts):
    """The residue-free half of a curve step through the tropical points
    pts: the Cramer solution of their point-value matrix, whose tight
    graph and regular flags every residual evaluation reads."""
    return _cramer(*_point_values(I, pts))


def curve_step_jets(I: Support, pt_jets, origin="curve", plan=None) -> CurveStepResult:
    """Stable curve through points given as (tropical point, (jet_x, jet_y)).

    The minors of the homogeneous system are evaluated in the jet ring;
    a minor whose top order cancels is exactly a vanishing
    pseudodeterminant.  Coefficient jets carry cofactor signs so they
    solve the residual linear system.  ``plan`` is the points'
    ``curve_step_plan``, computed here when not given.
    """
    sol = plan or curve_step_plan(I, [p for p, _ in pt_jets])

    entries = []
    for _, (jx, jy) in pt_jets:
        entries.append([_monomial_jet(jx, jy, i) for i in I.points])
    # a minor's top order cancels iff its pseudodeterminant vanishes, and
    # only the optimal permutations, the tight ones, reach the top order
    minors = masked_minors(
        len(pt_jets), lambda r, c: entries[r][c] if c in sol.tight[r] else None, JET_ZERO
    )
    conds = ConditionSet()
    coeff_jets = {}
    minor_regular = {}
    any_nonzero = False
    for k, i in enumerate(I.points):
        det = minors[k]
        minor_regular[i] = sol.regular[k]
        if det.is_principal:
            cond_val = det.coeff
            any_nonzero = True
        else:
            cond_val = _condition_zero(entries)
        coeff_jets[i] = det if k % 2 == 0 else -det
        conds.add(_condition_poly(cond_val), f"{origin} minor {i}")
    return CurveStepResult(
        coeff_jets=coeff_jets,
        conditions=conds,
        minor_regular=minor_regular,
        undecidable=not any_nonzero,
    )


def _condition_zero(entries):
    for row in entries:
        for e in row:
            if e.is_principal:
                return _zero_like_coeff(e.coeff)
    return Fraction(0)


def _condition_poly(value):
    """Conditions are stored as polynomials: numerators for fractions."""
    if isinstance(value, RFrac):
        return value.num
    return value


def curve_step_conditions(I: Support, pts, var_names=None, values=None) -> CurveStepResult:
    """Public form of the curve step: symbolic or numeric residual data.

    ``var_names``: list of (name_x, name_y) per point for symbolic mode;
    ``values``: list of (cx, cy) residual scalars for numeric mode.
    """
    if len(pts) != I.delta() - 1:
        raise ValueError(f"need {I.delta() - 1} points, got {len(pts)}")
    pt_jets = []
    for idx, p in enumerate(pts):
        if values is not None:
            cx, cy = values[idx]
            jx = Jet.principal(frac(p[0]), cx)
            jy = Jet.principal(frac(p[1]), cy)
        else:
            nx, ny = var_names[idx] if var_names else (f"q{idx}.x", f"q{idx}.y")
            jx = Jet.principal(frac(p[0]), RPoly.var(nx))
            jy = Jet.principal(frac(p[1]), RPoly.var(ny))
        pt_jets.append((p, (jx, jy)))
    res = curve_step_jets(I, pt_jets)
    if res.undecidable:
        res.conditions.empty_flag = PROVABLY_EMPTY
    return res


# ---------------------------------------------------------------------------
# Sylvester resultants in y


def _by_y(poly: dict) -> dict:
    """{(i, j): c} as {j: {i: c}}, after moving the support to the origin
    so that neither x nor y divides the polynomial (torus roots are
    unaffected)."""
    mi = min(i for i, _ in poly)
    mj = min(j for _, j in poly)
    out = {}
    for (i, j), c in poly.items():
        out.setdefault(j - mj, {})[i - mi] = c
    return out


def _sylvester_rows(fy: dict, gy: dict):
    """The Sylvester matrix of f and g in y from their y-coefficients
    {degree: coefficient}: deg_y g shifted rows of f, then deg_y f
    shifted rows of g, None where f or g has no coefficient.  With no y
    in f the matrix is diagonal, so the resultant is fy[0]^n."""
    m, n = max(fy), max(gy)
    if m == 0 and n == 0:
        raise ValueError("resultant of two y-free polynomials")
    rows = []
    for coeffs, deg, shifts in ((fy, m, n), (gy, n, m)):
        for r in range(shifts):
            row = [None] * (m + n)
            for k in range(deg + 1):
                row[r + k] = coeffs.get(deg - k)
            rows.append(row)
    return rows


@dataclass
class ResultantCorner:
    """A strict upper-hull corner of the heights of a jet resultant."""

    index: int        # the exponent of x
    order: Fraction   # its height, the order of its coefficient
    coeff: object     # the coefficient at that order; zero when it cancels
    tight: list       # row -> {column: dominant x-exponent} inside its cone


def sylvester_resultant(f_jets: dict, g_jets: dict) -> list:
    """The strict upper-hull corners of Res_y(f, g) over the jet ring, by
    x-exponent, for principal input jets.

    Cell (r, c) of the Sylvester matrix is sum_i J_i x^i with jets J_i of
    order o_i.  The orders h_e of the resultant's coefficients are the
    max-plus Sylvester permanent (the generic heights), and at a slope
    lam the weights max_i(o_i + lam*i) have the max-plus permanent
    max_e(h_e + lam*e): a max-weight assignment at lam lands on the upper
    hull of {(e, h_e)}.  lam = -L and +L, L above n times the spread of
    the orders, give the two end corners; the corners between two known
    hull points are found by assigning at the slope where their lines
    meet (Eisner-Severance parametric bisection).  Orders are scaled
    once to ints by their lcm, and lam = a/b weighs b*o + a*i.

    At a lam strictly inside corner e's normal cone the optimal
    (permutation, term) choices are exactly those of exponent e and
    order h_e, so each cell on an optimal permutation has one dominant
    term, and the corner's coefficient is the masked determinant of the
    dominant coefficients on the assignment's tight graph; it vanishes
    exactly when the top order cancels, and the jet is then degenerate.

    The orders fix the corners and their tight graphs
    (``_resultant_corners``); only the determinants read the
    coefficients (``_corner_coeff``).
    """
    corners = _resultant_corners(f_jets, g_jets)
    coeffs = _coeffs((f_jets, g_jets))
    zero = _zero_like_coeff(next(iter(coeffs[0].values())))
    return [ResultantCorner(e, h, _corner_coeff(picks, coeffs, zero), tight)
            for e, h, tight, picks in corners]


def _resultant_corners(f_jets: dict, g_jets: dict) -> list:
    """The corner half of ``sylvester_resultant``, read off the jets'
    orders alone: (x-exponent, order, tight, picks) per corner, where
    picks[r] = {column: (0 for f or 1 for g, support point)} names the
    input coefficient of each dominant entry on the tight graph."""
    ints, d = scaled_ints([j.order for jets in (f_jets, g_jets) for j in jets.values()])
    it = iter(ints)
    # each entry of a cell is (its input coefficient, its order scaled by d)
    rows = _sylvester_rows(*(_by_y({i: ((k, i), next(it)) for i in jets})
                             for k, jets in enumerate((f_jets, g_jets))))
    n = len(rows)
    cells = [[None if cell is None else [(i, o) for i, (_, o) in cell.items()] for cell in row]
             for row in rows]
    orders = [o for row in cells for cell in row if cell for _, o in cell]
    big = n * (max(orders) - min(orders)) + 1

    def assign(a, b):
        """(e, h, tight): the hull point a max-weight assignment at
        lam = a/b picks, and its tight graph."""
        best = [[None if cell is None else max((b * o + a * i, i, o) for i, o in cell)
                 for cell in row] for row in cells]
        finite = [t[0] for row in best for t in row if t]
        absent = -2 * n * max(map(abs, finite)) - 1  # below every permutation of cells
        w = [[absent if t is None else t[0] for t in row] for row in best]
        _, u, v, col = _hungarian_max(w)
        tight = [{c: t[1] for c, t in enumerate(row) if t and u[r] + v[c] == t[0]}
                 for r, row in enumerate(best)]
        chosen = [best[r][col[r]] for r in range(n)]
        return sum(t[1] for t in chosen), sum(t[2] for t in chosen), tight

    ends = assign(-big, 1), assign(big, 1)
    found = {p[0]: p for p in ends}
    stack = [ends]
    while stack:
        (e1, h1, _), (e2, h2, _) = stack.pop()
        if e2 - e1 < 2:
            continue
        a, b = h1 - h2, e2 - e1  # the slope where the two lines meet
        mid = assign(a, b)
        if b * mid[1] + a * mid[0] > b * h1 + a * e1:
            found[mid[0]] = mid
            stack += [(found[e1], mid), (mid, found[e2])]
    hull = upper_chain(sorted((e, h) for e, h, _ in found.values()))

    out = []
    for k, (e, h) in enumerate(hull):
        if k == 0:
            tight = ends[0][2]
        elif k == len(hull) - 1:
            tight = ends[1][2]
        else:
            (el, hl), (er, hr) = hull[k - 1], hull[k + 1]
            lam = (Fraction(hl - h, e - el) + Fraction(h - hr, er - e)) / 2
            tight = assign(lam.numerator, lam.denominator)[2]
        picks = [{c: rows[r][c][i][0] for c, i in t.items()} for r, t in enumerate(tight)]
        out.append((e, Fraction(h, d), tight, picks))
    return out


def _coeffs(pair):
    """The coefficients of a pair of jet dicts, by support point."""
    return tuple({i: j.coeff for i, j in jets.items()} for jets in pair)


def _corner_coeff(picks, coeffs, zero):
    """The coefficient half of ``sylvester_resultant``: the determinant,
    on a corner's tight graph, of the coefficients coeffs = (f's, g's)
    that its picks name."""
    return _tight_det([{c: coeffs[k][i] for c, (k, i) in row.items()} for row in picks], zero)


def _tight_det(rows, zero):
    """Determinant of the matrix whose row r is rows[r] = {column: entry},
    empty elsewhere: elimination on ints when the entries are scalars of
    one field (mod p, or fraction-free on rows of Fractions cleared of
    denominators), the masked Laplace expansion over any other ring."""
    n = len(rows)
    vals = [e for row in rows for e in row.values()]
    if all(isinstance(e, FpElt) for e in vals):
        p = vals[0].p
        return FpElt(fp_det([[row[c].v if c in row else 0 for c in range(n)] for row in rows], p), p)
    if all(isinstance(e, Fraction) for e in vals):
        scaled = [scaled_ints(list(row.values())) for row in rows]
        ints = [dict(zip(row, w)) for row, (w, _) in zip(rows, scaled)]
        det = dense_det([[[row[c]] if c in row else [] for c in range(n)] for row in ints])
        return Fraction(det[0] if det else 0, prod(d for _, d in scaled))
    return masked_det(n, lambda r, c: rows[r].get(c), zero)


def trop_univariate_roots(heights: dict):
    """Roots with multiplicities of a univariate max-plus polynomial: one
    per segment between consecutive Newton-segment vertices."""
    verts = [e for e, _ in upper_chain(sorted(heights.items()))]
    return [(Fraction(heights[e0] - heights[e1], e1 - e0), e1 - e0)
            for e0, e1 in zip(verts, verts[1:])]


# ---------------------------------------------------------------------------
# intersection step over jets


@dataclass
class ResultantFamily:
    """Vertex conditions of one resultant's Newton segment."""

    name: str                   # "x", "y" or "z"
    heights: dict               # orders of the resultant's corner coefficients
    vertex_indices: list
    conditions: list            # [(index, value)] at the vertices
    monomial_flags: list | None  # per vertex; None when shape analysis skipped

    @property
    def fixed(self):
        return bool(self.monomial_flags) and any(self.monomial_flags)

    @property
    def always_compatible(self):
        return bool(self.monomial_flags) and all(self.monomial_flags)


@dataclass
class ResultantBundle:
    shear: int | None
    families: list
    conditions: ConditionSet
    undecidable: bool

    @property
    def fixed(self):
        return bool(self.families) and all(f.fixed for f in self.families)

    @property
    def always_compatible(self):
        return bool(self.families) and all(f.always_compatible for f in self.families)


@dataclass
class FamilyPlan:
    """The residue-free half of a resultant family: its corners, their
    tight graphs as picks, and the monomial flags of their conditions."""

    name: str
    heights: dict
    vertex_indices: list
    picks: list                  # per vertex: row -> {column: (0 or 1, support point)}
    monomial_flags: list | None  # per vertex; None when shape analysis skipped


def _resultant_family(name, f_jets, g_jets) -> FamilyPlan:
    """The plan of one resultant family, from the orders of its jets."""
    corners = _resultant_corners(f_jets, g_jets)
    flags = None
    if len(corners[0][2]) <= SHAPE_BOUND:
        # monomial-ness of the vertex conditions: the same tight graphs
        # with a fresh local variable per input coefficient
        var = tuple({i: RPoly.var(f"{tag}[{i[0]},{i[1]}]") for i in jets}
                    for tag, jets in (("f", f_jets), ("g", g_jets)))
        flags = []
        for *_, picks in corners:
            det = _corner_coeff(picks, var, RPoly())
            flags.append(bool(det) and det.is_monomial())
    return FamilyPlan(
        name=name,
        heights={e: h for e, h, *_ in corners},
        vertex_indices=[e for e, *_ in corners],
        picks=[picks for *_, picks in corners],
        monomial_flags=flags,
    )


def _swap_xy(jets):
    return {(j, i): v for (i, j), v in jets.items()}


def _shear(jets, a):
    return {(i, j + a * i): v for (i, j), v in jets.items()}


def _family_view(name, pair, a):
    """A pair of dicts over the support points as resultant family
    ``name`` reads them: as given (R_x), with x and y swapped (R_y), or
    sheared by a (R_z)."""
    if name == "y":
        return tuple(map(_swap_xy, pair))
    if name == "z":
        return tuple(_shear(d, a) for d in pair)
    return pair


def _nonzero(jets):
    return {i: j for i, j in jets.items() if not j.is_zero}


def choose_shear(f: TropPoly, g: TropPoly, rx_heights, ry_heights):
    """Smallest a >= 0 with x - a*y injective on the candidate point set
    T(f) n T(g) n T(R_x) n T(R_y)."""
    xs = [r for r, _ in trop_univariate_roots(rx_heights)]
    ys = [r for r, _ in trop_univariate_roots(ry_heights)]
    cands = []
    for x in xs:
        for y in ys:
            p = (x, y)
            if f.on_curve(p) and g.on_curve(p):
                cands.append(p)
    a = 0
    while True:
        vals = {p[0] - a * p[1] for p in cands}
        if len(vals) == len(cands):
            return a
        a += 1


@dataclass
class IntersectionPlan:
    """The residue-free half of an intersection step."""

    families: list | None  # FamilyPlans; None when an input jet is degenerate
    shear: int | None
    supports: dict         # stable point -> its local solve's ``point_supports``


def point_supports(f_jets: dict, g_jets: dict, b):
    """The argmax supports (f's, g's) over the stable point b of the two
    residual polynomials, or the InformationLostError that the first of
    them raises: the residue-free half of a local solve."""
    try:
        return residual_support(f_jets, b), residual_support(g_jets, b)
    except InformationLostError as exc:
        return exc


def intersection_step_plan(f_jets: dict, g_jets: dict, points=()) -> IntersectionPlan:
    """The plan of an intersection step, read off the kinds and orders of
    its input jets alone: the families R_x, R_y and R_z, with the shear
    of R_z, and the argmax supports at each of the stable points.  A
    family whose resultant is not defined is left out."""
    supports = {b: point_supports(f_jets, g_jets, b) for b in points}
    f_jets, g_jets = _nonzero(f_jets), _nonzero(g_jets)
    if any(j.is_degenerate for j in [*f_jets.values(), *g_jets.values()]):
        return IntersectionPlan(families=None, shear=None, supports=supports)
    f, g = (TropPoly(Support(jets), {i: j.order for i, j in jets.items()}) for jets in (f_jets, g_jets))
    families = []

    def run(name, a=None):
        try:
            families.append(_resultant_family(name, *_family_view(name, (f_jets, g_jets), a)))
        except ValueError:
            return None
        return families[-1]

    fam_x, fam_y = run("x"), run("y")
    shear = None
    if fam_x is not None and fam_y is not None:
        shear = choose_shear(f, g, fam_x.heights, fam_y.heights)
        run("z", shear)
    return IntersectionPlan(families=families, shear=shear, supports=supports)


def intersection_step_conditions(f_jets: dict, g_jets: dict, origin="intersect",
                                 plan=None) -> ResultantBundle:
    """Residual conditions for the compatibility of the stable and the
    algebraic intersection: principal coefficients at the Newton-segment
    vertices of the three resultants R_x, R_y, R_z must not vanish.
    ``plan`` is the jets' ``intersection_step_plan``, computed here when
    not given; only the corner coefficients are computed from the
    residues."""
    plan = plan or intersection_step_plan(f_jets, g_jets)
    f_jets, g_jets = _nonzero(f_jets), _nonzero(g_jets)
    cs = ConditionSet()
    if plan.families is None:
        cs.add(_condition_zero([list(f_jets.values()), list(g_jets.values())]), f"{origin} degenerate input jets")
        return ResultantBundle(shear=None, families=[], conditions=cs, undecidable=True)

    coeffs = _coeffs((f_jets, g_jets))
    families = []
    for fam in plan.families:
        view = _family_view(fam.name, coeffs, plan.shear)
        zero = _zero_like_coeff(next(iter(coeffs[0].values())))
        conditions = [(e, _corner_coeff(picks, view, zero))
                      for e, picks in zip(fam.vertex_indices, fam.picks)]
        for idx, val in conditions:
            cs.add(_condition_poly(val), f"{origin} R_{fam.name} coeff {idx}")
        families.append(ResultantFamily(fam.name, fam.heights, fam.vertex_indices,
                                        conditions, fam.monomial_flags))

    undecidable = bool(families) and all(
        all(not val for _, val in fam.conditions) for fam in families
    )
    return ResultantBundle(shear=plan.shear, families=families, conditions=cs, undecidable=undecidable)


# ---------------------------------------------------------------------------
# local residual systems at an intersection point


def _xy_terms_linear(terms: dict):
    if not set(terms) <= {(0, 0), (1, 0), (0, 1)}:
        return None
    z = _zero_like_coeff(next(iter(terms.values())))
    return (
        terms.get((1, 0), z),
        terms.get((0, 1), z),
        terms.get((0, 0), z),
    )


def solve_local_linear(ft: dict, gt: dict):
    """Unique torus solution of two affine-linear residual polynomials.

    Works over scalars and over rational functions; returns
    (x, y, det) and leaves the nonvanishing of det and of the
    coordinates to the caller's condition set.
    """
    l1 = _xy_terms_linear(ft)
    l2 = _xy_terms_linear(gt)
    if l1 is None or l2 is None:
        raise ValueError("local system is not linear")
    a1, b1, c1 = l1
    a2, b2, c2 = l2
    det = a1 * b2 - a2 * b1
    if not det:
        raise ValueError("local linear system is singular")
    x = (b1 * c2 - b2 * c1) / det
    y = (c1 * a2 - c2 * a1) / det
    return x, y, det


@dataclass
class LocalSolution:
    x: object
    y: object
    multiplicity: object


def local_intersection_solve(f_jets: dict, g_jets: dict, b, field: ResidualField, supports=None):
    """Solve the residual system f_b = g_b = 0 in (k*)^2, numeric mode.

    Elimination by Sylvester resultant in y, then root scan; returns the
    solutions with multiplicity bookkeeping (fiber multiplicities sum to
    the multiplicity of the x-root in the eliminant).  Both polynomials
    are read as {y-degree: dense x-list} of ints, so the eliminant is a
    fraction-free determinant over F_p[x] or Z[x].  ``supports`` is the
    pair of argmax supports at b (``point_supports``), found here when
    not given.
    """
    if supports is None:
        supports = residual_support(f_jets, b), residual_support(g_jets, b)
    f, g = (_dense_in_y(support_terms(jets, sup), field) for jets, sup in zip((f_jets, g_jets), supports))
    if max(f) == 0 and max(g) == 0:
        raise InformationLostError("residual system is y-free; not zero-dimensional")
    res = dense_det([[cell or [] for cell in row] for row in _sylvester_rows(f, g)], field.p)
    if not res:
        raise InformationLostError("residual eliminant vanishes; not zero-dimensional")
    if len(res) == 1:
        return []
    out = []
    for x0, mx in dense_roots(res, field):
        if not x0:
            continue  # outside the torus
        ys = _common_y_roots(_fiber(f, x0, field.p), _fiber(g, x0, field.p), field)
        ys = [(y0, my) for y0, my in ys if y0]
        tot = sum(my for _, my in ys)
        out += [LocalSolution(x=x0, y=y0, multiplicity=Fraction(mx * my, tot)) for y0, my in ys]
    return out


def _dense_in_y(terms: dict, field):
    """{(i, j): c} as {j: dense list over x}: ints mod p, or over Q the
    coefficients times their denominator lcm, which keeps the roots."""
    if any(isinstance(c, (RPoly, RFrac)) for c in terms.values()):
        raise ValueError("numeric local solve needs scalar coefficients")
    vals = [field.elt(c) for c in terms.values()]
    out = {}
    for (i, j), c in zip(terms, [c.v for c in vals] if field.finite else scaled_ints(vals)[0]):
        if c:
            col = out.setdefault(j, [])
            col += [0] * (i + 1 - len(col))
            col[i] = c
    return out


def _fiber(h: dict, x0, p):
    """h(x0, y) as a dense list over y, by Horner in x.  Over Q (p None)
    it is scaled by den(x0)^deg_x(h) so that it stays in ints."""
    a, b = (x0.v, 1) if p else (x0.numerator, x0.denominator)
    deg = max(map(len, h.values()))
    out = [0] * (max(h) + 1)
    for j, col in h.items():
        acc, bk = 0, b ** (deg - len(col))
        for c in reversed(col):
            acc = acc * a + c * bk
            bk *= b
        out[j] = acc
    return _dense_trim(out, p)


def _common_y_roots(f0: list, g0: list, field):
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
            candidates = {
                y: min(m, roots[y]) for y, m in candidates.items() if y in roots
            }
    return sorted(candidates.items(), key=lambda t: repr(t[0])) if candidates else []
