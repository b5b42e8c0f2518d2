"""The two construction primitives and their residual lifting conditions.

Tropical side:

* ``stable_curve``        -- tropical Cramer minors of the point-value matrix.
* ``stable_intersection`` -- two lines meet at the tropical cross product of
  their coefficient rows (Richter-Gebert, Sturmfels and Theobald, "First
  steps in tropical geometry", 2005), the stable Cramer solution of the
  2 x 3 coefficient matrix.  Every other pair is read from the mixed cells
  of the product subdivision: a maximal cell of Subdiv(f*g) decomposes as
  (argmax cell of f) + (argmax cell of g) over its dual vertex; its mixed
  area is the intersection multiplicity there.  The argmax cells are int
  argmaxes along the cell's facet normal.
* ``perturbation_oracle`` -- an independent check: translate g by an
  infinitesimal epsilon*v and cross every edge pair transversally.  Edge
  directions are integral, so every coordinate and edge parameter stays
  affine in eps: a (value, eps-coefficient) pair, ordered as a tuple.
  The limits as eps -> 0 are the intersection points.

Residual side: every condition is a pseudodeterminant, the signed sum of
residue products over the optimal permutations of a tropical matrix,
which is the determinant of the residues on its tight graph
(``masked_det``, ``masked_minors``).  At a curve step it is a Cramer
minor, whose tight cells hold the residues of their monomials at the
points; at an intersection step it is the coefficient of a
Newton-segment vertex of a Sylvester resultant, and at the meet of two
lines with principal jets one of the three minors of their 2 x 3
residue matrix (``line_rows``, ``line_minors``), which are those
vertex coefficients up to sign and also give the meet's point.  It
vanishes exactly when the top order of the jet minor or jet coefficient
cancels, so no jet arithmetic is done: a coefficient jet is an order
from the tropical solve and a residue.  Only the strict upper-hull corners of a jet
resultant's heights are computed: the resultant's tropical roots are
the projections of the stable intersection, with multiplicities
(Sturmfels-Tevelev 2008), so each corner is one max-weight assignment at
a slope between two of them, and its coefficient is the determinant of
the dominant coefficients on that assignment's tight graph.  No
Sylvester dimension is bounded.

Each residual step splits into a residue-free plan and an evaluator.  A
curve step's plan is the Cramer solution of its realization, which
``_solve_curve`` returns beside the curve: a point jet's order is its
realized coordinate, and the solution has its regular flags from the
2 x 3 closed form (a line's) or computes them when the lift first
reads them.  So is a line∩line step's, when both input
jets are principal: the Cramer solution of the 2 x 3 coefficient
matrix that ``_intersect`` returns beside the stable point.  Every
other intersection step's plan reads the orders and kinds of its input
jets and its stable points: the resultant corners,
their tight graphs, whether each corner is regular, the shear
of R_z (the least a >= 0 for which x - a*y is injective on the stable
points) and the argmax supports of the two residual polynomials at each
stable point (``intersection_step_plan``).  At shear 0 R_z is R_x, so
the plan lists R_x's family again as R_z, and the evaluator computes
each distinct family's corners once.  One regularity test serves every
condition: it is regular when its tight graph has exactly one perfect
matching (``_matching_unique``, a linear-time peel), and then it is
plus or minus one product of nonzero residues, which vanishes over no
field.  The plan alone says whether a step is fixed or always compatible: a curve
step's regular flags, a line∩line step's (fixed when M0, or M1 and M2,
are regular, always compatible when all three are), another
intersection plan's ``fixed`` and ``always_compatible``, read from its
corners' regular flags at every Sylvester dimension.  The evaluators
take the plan and the ring that the lift names for its pass, the
``ResidualField`` F_p, whose residues are ints in [0, p), or the zero of
``RPoly``, so that every condition lies in that one ring (a constant
monomial's residue is its one, and a vanishing condition its zero), and
read the residues, returning only what the residues decide: ``curve_step_jets`` the coefficient jets, the minors'
conditions and whether all of them vanish, ``line_minors`` the three
minors of a line pair, ``intersection_step_conditions`` the corner
determinants and whether all of them vanish, and the local solve on
the plan's supports either the rows of two residual lines
(``local_line_rows``), met by the minors of a line pair, or the roots of
``local_intersection_solve``.

A numeric local system that is not two residual lines lives in F_p and
stays on dense int lists from its residual terms to its roots: each
polynomial is divided by its monomial content and read as {y-degree:
dense x-list} mod p, its eliminant is the fraction-free (Bareiss)
determinant of the Sylvester matrix over F_p[x], each fiber over an
x-root is evaluated by Horner, and the common y-roots of the two fibers
are the roots of their gcd.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

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
)
from .trop_linalg import _cramer, _hungarian_max, _matching_unique, masked_det, masked_minors
from .residual import (
    ConditionSet,
    InformationLostError,
    Jet,
    ResidualField,
    RPoly,
    _dense_trim,
    _fp_eval,
    _fp_polygcd,
    dense_det,
    dense_roots,
    residual_support,
    support_terms,
)


class NonGenericDirection(ValueError):
    """Perturbation direction still degenerate after bounded retries."""


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


_LINE = Support.named("line")


def stable_intersection(f: TropPoly, g: TropPoly) -> StableIntersection:
    """The stable intersection of T(f) and T(g).  Two lines meet at the
    tropical cross product of their coefficient rows (Richter-Gebert,
    Sturmfels and Theobald 2005): the stable Cramer solution of the 2 x 3
    coefficient matrix, its columns in the support order (0,0), (0,1),
    (1,0), is the point (0 : y : x).  Every other pair is read from the
    product subdivision (``_mixed_cells``)."""
    return _intersect(f, g)[0]


def _intersect(f: TropPoly, g: TropPoly):
    """(``stable_intersection`` of f and g, the Cramer solution of their
    2 x 3 coefficient matrix when both are lines, else None): the
    solution's tight graph and regular flags are the residue-free half of
    the line∩line step (``line_minors``)."""
    if f.support == _LINE == g.support:
        (a, da), (b, db) = f.scaled(), g.scaled()
        d = lcm(da, db)
        sol = _cramer([[c * (d // da) for c in a], [c * (d // db) for c in b]], d)
        v = sol.values
        return StableIntersection([((v[2] - v[0], v[1] - v[0]), 1)]), sol
    return _mixed_cells(f, g), None


def _mixed_cells(f: TropPoly, g: TropPoly) -> StableIntersection:
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


def stable_curve(I: Support, pts) -> TropPoly:
    """The unique curve of support I through delta-1 points that varies
    continuously with them, in concave canonical form."""
    return _solve_curve(I, pts)[0]


def _solve_curve(I: Support, pts):
    """(``stable_curve`` of I through pts, the Cramer solution of their
    point-value matrix): the solution's tight graph and regular flags,
    computed on first read, are the residue-free half of the curve step
    through pts."""
    if I.delta() < 2:
        raise ValueError("curve supports need at least two points")
    if len(pts) != I.delta() - 1:
        raise ValueError(f"need {I.delta() - 1} points, got {len(pts)}")
    sol = _cramer(*_point_values(I, pts))
    return concave_canonical(TropPoly(I, sol.values)), sol


# ---------------------------------------------------------------------------
# curve step over jets


def _residue(pj, i, deg, one):
    """The residue of the monomial x^i1 y^i2 at a point whose jets pj are
    (x, y), or homogeneous (X, Y, Z), where it is X^i1 Y^i2 Z^(deg-i1-i2)
    for the support's largest degree deg: the affine row scaled by Z^deg.
    Z has order 0, so the scaling changes no order.  The constant
    monomial's residue is one, the one of the caller's ring.  None when
    the monomial uses a degenerate coordinate: its terms lie strictly
    below the top order."""
    out = None
    for j, e in zip(pj, (*i, deg - i[0] - i[1])):
        if e:
            if not j.is_principal:
                return None
            out = j.coeff ** e if out is None else out * j.coeff ** e
    return one if out is None else out


def _ring_ops(ring):
    """(zero, one, reduce, negate) of ``ring``: F_p's ints and its
    arithmetic for a ``ResidualField``, else the ring whose zero ring is,
    whose values need no reduction."""
    if isinstance(ring, ResidualField):
        return 0, 1, ring.reduce, ring.neg
    return ring, ring + 1, _same, operator.neg


def _same(v):
    return v


def curve_step_jets(I: Support, pt_jets, plan, ring, origin="curve"):
    """Stable curve through points given by their jets, whose orders have
    the Cramer solution plan (``_solve_curve``), in ``ring``:
    (coefficient jets, conditions, undecidable).  Point jets are (jet_x,
    jet_y), or homogeneous (jet_X, jet_Y, jet_Z) with Z of order 0, whose
    row of monomials is homogenized to the support's largest degree
    (``_residue``).

    Only the optimal permutations, the perfect matchings of the plan's
    tight graph, reach the top order of a minor, so minor k's top
    coefficient is the pseudodeterminant: the determinant of the
    residues on the tight graph without column k (``masked_minors``).
    It vanishes exactly when the top order cancels, one condition per
    support point.  Coefficient jet k has order ``plan.values[k]`` and
    carries its cofactor sign, so the jets solve the residual linear
    system.  The step is undecidable when every pseudodeterminant
    vanishes.
    """
    deg = max(i + j for i, j in I.points)
    _zero, one, reduce, neg = _ring_ops(ring)
    rows = [{c: reduce(v) for c in cs if (v := _residue(pj, I.points[c], deg, one)) is not None}
            for pj, cs in zip(pt_jets, plan.tight)]
    conds = ConditionSet()
    coeff_jets = {}
    for k, (i, det) in enumerate(zip(I.points, masked_minors(rows, ring))):
        coeff_jets[i] = Jet.of(plan.values[k], det if k % 2 == 0 else neg(det))
        conds.add(det, f"{origin} minor {i}")
    return coeff_jets, conds, not any(j.is_principal for j in coeff_jets.values())


def line_rows(f_jets: dict, g_jets: dict, sol):
    """The 2 x 3 matrix of the residues of two lines with principal
    coefficient jets, whose orders have the Cramer solution sol
    (``_intersect``), on sol's tight graph, the columns in the support
    order (0,0), (0,1), (1,0).  The tight graph's rows are the argmax
    supports of the two lines at their stable point, so these are the
    rows of the two residual lines a0 + a1*y + a2*x."""
    return [{c: jets[_LINE.points[c]].coeff for c in cs} for jets, cs in zip((f_jets, g_jets), sol.tight)]


def local_line_rows(f_jets: dict, g_jets: dict, supports):
    """The rows of ``line_rows`` for the local system of two residual
    polynomials on their argmax supports (``point_supports``) when both,
    moved to the origin, lie in the line support; else None."""
    rows = []
    for jets, sup in zip((f_jets, g_jets), supports):
        terms = _to_origin(support_terms(jets, sup))
        if not all(pt in _LINE.points for pt in terms):
            return None
        rows.append({_LINE.points.index(pt): c for pt, c in terms.items()})
    return rows


def line_minors(rows, ring):
    """The masked minors (M0, M1, M2) of the 2 x 3 residue matrix rows of
    two residual lines a0 + a1*y + a2*x in ``ring``, Mk deleting
    column k: their resultant in y is R_x = -M2 + M0*x, in x it is
    R_y = -M1 - M0*y, and their common zero is (1 : y : x) =
    (M0 : -M1 : M2).  On a Cramer solution's tight graph (``line_rows``)
    they are its pseudodeterminants."""
    return masked_minors(rows, ring)


# ---------------------------------------------------------------------------
# Sylvester resultants in y


def _to_origin(poly: dict) -> dict:
    """{(i, j): c} divided by its monomial content, so that neither x nor
    y divides it; its torus roots are unaffected."""
    mi = min(i for i, _ in poly)
    mj = min(j for _, j in poly)
    return {(i - mi, j - mj): c for (i, j), c in poly.items()}


def _by_y(poly: dict) -> dict:
    """{(i, j): c} moved to the origin, as {j: {i: c}}."""
    out = {}
    for (i, j), c in _to_origin(poly).items():
        out.setdefault(j, {})[i] = c
    return out


def _sylvester_rows(fy: dict, gy: dict):
    """The Sylvester matrix of f and g in y from their y-coefficients
    {degree: coefficient}: deg_y g shifted rows of f, then deg_y f
    shifted rows of g, None where f or g has no coefficient.  With no y
    in f the matrix is diagonal, so the resultant is fy[0]^n."""
    m, n = max(fy), max(gy)
    if m == 0 and n == 0:
        raise AssertionError("resultant of two y-free polynomials")
    rows = []
    for coeffs, deg, shifts in ((fy, m, n), (gy, n, m)):
        for r in range(shifts):
            row = [None] * (m + n)
            for k in range(deg + 1):
                row[r + k] = coeffs.get(deg - k)
            rows.append(row)
    return rows


def _resultant_corners(f_jets: dict, g_jets: dict, roots) -> list:
    """The strict upper-hull corners of Res_y(f, g) over the jet ring, by
    x-exponent, for principal input jets whose resultant has the tropical
    roots roots, [(root, multiplicity)] ascending: (x-exponent, order,
    picks) per corner, where picks[r] = {column: (0 for f or 1 for g,
    support point)} is row r of the tight graph, naming the input
    coefficient of each dominant entry.

    Cell (r, c) of the Sylvester matrix is sum_i J_i x^i with jets J_i of
    order o_i.  The orders h_e of the resultant's coefficients are the
    max-plus Sylvester permanent (the generic heights), and at a slope
    lam the weights max_i(o_i + lam*i) have the max-plus permanent
    max_e(h_e + lam*e): a max-weight assignment at lam lands on the upper
    hull of {(e, h_e)}.  The hull's slopes are the tropical roots, the
    projections of the stable intersection (Sturmfels-Tevelev,
    "Elimination theory for tropical varieties", 2008), so each corner is
    one assignment at a slope inside its normal cone: below the least
    root, between two consecutive roots, above the largest, or 0 with no
    root.  Orders are scaled once to ints by their lcm d, and lam = a/b
    weighs b*o + a*i.  Consecutive corners must be a root's multiplicity
    apart and their lines must meet at it.

    At a lam strictly inside corner e's normal cone the optimal
    (permutation, term) choices are exactly those of exponent e and
    order h_e, so each cell on an optimal permutation has one dominant
    term, and the corner's coefficient is the masked determinant of the
    dominant coefficients on that tight graph (``_corner_coeff``); it
    vanishes exactly when the top order cancels, and the jet is then
    degenerate.
    """
    ints, d = scaled_ints([j.order for jets in (f_jets, g_jets) for j in jets.values()])
    it = iter(ints)
    # each entry of a cell is (its input coefficient, its order scaled by d)
    rows = _sylvester_rows(*(_by_y({i: ((k, i), next(it)) for i in jets})
                             for k, jets in enumerate((f_jets, g_jets))))
    n = len(rows)
    xs = [r for r, _ in roots]
    slopes = [xs[0] - 1, *((r0 + r1) / 2 for r0, r1 in zip(xs, xs[1:])), xs[-1] + 1] if xs else [Fraction(0)]
    out = []
    for lam in slopes:
        a, b = (lam * d).numerator, (lam * d).denominator
        best = [[None if cell is None else max((b * o + a * i, i, o) for i, (_, o) in cell.items())
                 for cell in row] for row in rows]
        finite = [t[0] for row in best for t in row if t]
        absent = -2 * n * max(map(abs, finite)) - 1  # below every permutation of cells
        _, u, v, col = _hungarian_max([[absent if t is None else t[0] for t in row] for row in best])
        tight = [{c: t[1] for c, t in enumerate(row) if t and u[r] + v[c] == t[0]}
                 for r, row in enumerate(best)]
        chosen = [best[r][col[r]] for r in range(n)]
        picks = [{c: rows[r][c][i][0] for c, i in t.items()} for r, t in enumerate(tight)]
        out.append((sum(t[1] for t in chosen), sum(t[2] for t in chosen), picks))
    for (e0, h0, _), (e1, h1, _), (r, m) in zip(out, out[1:], roots):
        if e1 - e0 != m or h0 - h1 != r * d * m:
            raise AssertionError("resultant corners disagree with the stable intersection")
    return [(e, Fraction(h, d), picks) for e, h, picks in out]


def _corner_coeff(picks, coeffs, ring):
    """The coefficient of a resultant corner in ``ring``: the determinant,
    on its tight graph, of the coefficients coeffs = (f's, g's) that its
    picks name."""
    return masked_det([{c: coeffs[k][i] for c, (k, i) in row.items()} for row in picks], ring)


# ---------------------------------------------------------------------------
# intersection step over jets


@dataclass
class FamilyPlan:
    """The residue-free half of a resultant family: its corners, their
    tight graphs as picks, and whether each corner is regular."""

    vertex_indices: list
    picks: list    # per vertex: row -> {column: (0 or 1, support point)}
    regular: list  # per vertex: whether its tight graph has one perfect matching

    @property
    def fixed(self):
        return any(self.regular)

    @property
    def always_compatible(self):
        return all(self.regular)


def _resultant_family(f_jets, g_jets, roots) -> FamilyPlan:
    """The plan of one resultant family, from the orders of its jets and
    its tropical roots."""
    corners = _resultant_corners(f_jets, g_jets, roots)
    picks = [p for *_, p in corners]
    return FamilyPlan([e for e, *_ in corners], picks, [_matching_unique(p) for p in picks])


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


@dataclass
class IntersectionPlan:
    """The residue-free half of an intersection step.  The step is fixed
    when every family has a regular vertex, and always compatible when
    every vertex is regular."""

    families: dict | None  # name -> FamilyPlan; None when an input jet is degenerate
    shear: int | None
    supports: dict         # stable point -> its local solve's ``point_supports``

    @property
    def fixed(self):
        return bool(self.families) and all(f.fixed for f in self.families.values())

    @property
    def always_compatible(self):
        return bool(self.families) and all(f.always_compatible for f in self.families.values())


def point_supports(f_jets: dict, g_jets: dict, b):
    """The argmax supports (f's, g's) over the stable point b of the two
    residual polynomials, or the InformationLostError that the first of
    them raises: the residue-free half of a local solve."""
    try:
        return residual_support(f_jets, b), residual_support(g_jets, b)
    except InformationLostError as exc:
        return exc


def intersection_step_plan(f_jets: dict, g_jets: dict, points) -> IntersectionPlan:
    """The plan of an intersection step, read off the kinds and orders of
    its input jets and its stable points, [(point, multiplicity)]: the
    families R_x, R_y and R_z, whose tropical roots are the points'
    projections, with the shear of R_z, and the argmax supports at each
    stable point.  Every family's resultant is defined: two views free of
    y would put both supports on parallel lines, of mixed volume 0, and
    the step has a stable point.  At shear 0 the view of R_z is the
    identity and its roots are those of R_x, so R_z is R_x: the plan
    lists R_x's family again as "z"."""
    supports = {b: point_supports(f_jets, g_jets, b) for b, _ in points}
    if any(j.is_degenerate for j in [*f_jets.values(), *g_jets.values()]):
        return IntersectionPlan(families=None, shear=None, supports=supports)
    families = {}

    def run(name, coord, a=None):
        roots = {}
        for b, m in points:
            roots[coord(b)] = roots.get(coord(b), 0) + m
        families[name] = _resultant_family(*_family_view(name, (f_jets, g_jets), a), sorted(roots.items()))

    run("x", lambda b: b[0])
    run("y", lambda b: b[1])
    # the least a >= 0 for which x - a*y is injective on the stable points
    shear = 0
    while len({b[0] - shear * b[1] for b, _ in points}) < len(points):
        shear += 1
    if shear:
        run("z", lambda b: b[0] - shear * b[1], shear)
    else:
        families["z"] = families["x"]
    return IntersectionPlan(families=families, shear=shear, supports=supports)


def intersection_step_conditions(f_jets: dict, g_jets: dict, plan, ring, origin="intersect"):
    """Residual conditions for the compatibility of the stable and the
    algebraic intersection, whose ``intersection_step_plan`` is plan, in
    ``ring``: (conditions, undecidable).  The principal coefficients
    at the Newton-segment vertices of the three resultants R_x, R_y, R_z
    must not vanish; only these corner coefficients are computed from
    the residues, once per distinct family.  The step is undecidable when an
    input jet is degenerate or every vertex condition vanishes."""
    cs = ConditionSet()
    if plan.families is None:
        cs.add(_ring_ops(ring)[0], f"{origin} degenerate input jets")
        return cs, True

    coeffs = tuple({i: j.coeff for i, j in jets.items()} for jets in (f_jets, g_jets))
    undecidable = True
    values = {}  # id of a family plan -> its corner coefficients
    for name, fam in plan.families.items():
        if id(fam) not in values:
            view = _family_view(name, coeffs, plan.shear)
            values[id(fam)] = [_corner_coeff(picks, view, ring) for picks in fam.picks]
        for e, val in zip(fam.vertex_indices, values[id(fam)]):
            cs.add(val, f"{origin} R_{name} coeff {e}")
            undecidable = undecidable and not val
    return cs, undecidable


# ---------------------------------------------------------------------------
# local residual systems at an intersection point


@dataclass
class LocalSolution:
    x: int  # a residue in F_p*
    y: int
    multiplicity: Fraction


def local_intersection_solve(f_jets: dict, g_jets: dict, b, field: ResidualField, supports=None):
    """Solve the residual system f_b = g_b = 0 in (F_p*)^2, numeric mode.

    Elimination by Sylvester resultant in y, then the roots in F_p;
    returns the solutions with multiplicity bookkeeping (fiber
    multiplicities sum to the multiplicity of the x-root in the
    eliminant).  Both polynomials are moved to the origin and read as
    {y-degree: dense x-list} of ints mod p (``_dense_in_y``), so a
    common monomial factor, which has no torus zero, does not make the
    eliminant vanish, and the eliminant is a fraction-free determinant
    over F_p[x].  ``supports`` is the pair of
    argmax supports at b (``point_supports``), found here when not
    given.  The lift meets two residual lines by their minors
    (``local_line_rows``) and sends only the other systems here.  Over
    Q (``field`` None, symbolic mode) there is no local solve: it raises
    ``ValueError``.
    """
    if not isinstance(field, ResidualField):
        raise ValueError(f"a local solve needs a finite field F_p, not {field!r}")
    if supports is None:
        supports = residual_support(f_jets, b), residual_support(g_jets, b)
    f, g = (_dense_in_y(support_terms(jets, sup), field) for jets, sup in zip((f_jets, g_jets), supports))
    if max(f) == 0 and max(g) == 0:
        # y-free: common zeros are whole lines x = r over the common x-roots
        if len(_fp_polygcd(f[0], g[0], field.p)) == 1:
            return []
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
        ys = _common_y_roots(_fiber(f, x0, field), _fiber(g, x0, field), field)
        ys = [(y0, my) for y0, my in ys if y0]
        tot = sum(my for _, my in ys)
        out += [LocalSolution(x=x0, y=y0, multiplicity=Fraction(mx * my, tot)) for y0, my in ys]
    return out


def _dense_in_y(terms: dict, field):
    """{(i, j): c} as {j: dense list over x} of ints mod p, the residues
    that vanish mod p dropped and the rest moved to the origin
    (``_by_y``)."""
    if any(isinstance(c, RPoly) for c in terms.values()):
        raise ValueError("numeric local solve needs scalar coefficients")
    nonzero = {ij: v for ij, c in terms.items() if (v := field.reduce(c))}
    return {j: [row.get(i, 0) for i in range(max(row) + 1)] for j, row in _by_y(nonzero).items()}


def _fiber(h: dict, x0, field):
    """h(x0, y) mod p as a dense list over y: each y-column evaluated at
    the residue x0 by Horner."""
    out = [0] * (max(h) + 1)
    for j, col in h.items():
        out[j] = _fp_eval(col, x0, field.p)
    return _dense_trim(out, None)


def _common_y_roots(f0: list, g0: list, field):
    """The common roots in F_p of two fibers, with multiplicities, ordered
    by repr: the roots of their gcd, in which a root's multiplicity is
    the smaller of its two multiplicities."""
    if not f0 and not g0:
        raise InformationLostError("residual fiber is the whole line")
    d = _fp_polygcd(f0, g0, field.p)
    if len(d) == 1:
        return []
    return sorted(dense_roots(d, field), key=lambda t: repr(t[0]))
