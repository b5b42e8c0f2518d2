"""The two construction primitives and their residual lifting conditions.

Tropical side:

* ``stable_curve``        -- tropical Cramer minors of the point-value matrix.
* ``stable_intersection`` -- mixed cells of the product subdivision: a maximal
  cell of Subdiv(f*g) decomposes as (argmax cell of f) + (argmax cell of g)
  over its dual vertex; its mixed area is the intersection multiplicity there.
* ``perturbation_oracle`` -- an independent check: translate g by an
  infinitesimal epsilon*v, intersect transversally over the ring Q[eps]
  (coordinates stay affine in eps because edge directions are integral),
  then take limits as eps -> 0.

Residual side: conditions are pseudodeterminants computed implicitly by
running determinants over the jet ring, where an exact top-order
cancellation is precisely a vanishing pseudodeterminant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .trop_core import (
    Support,
    TropPoly,
    area2,
    curve,
    concave_canonical,
    dual_subdivision,
    frac,
    mixed_volume,
    upper_chain,
)
from .trop_linalg import cramer_stable, masked_det
from .residual import (
    ConditionSet,
    InformationLostError,
    Jet,
    JET_ZERO,
    PROVABLY_EMPTY,
    ResidualField,
    RFrac,
    RPoly,
    residual_terms,
    rpoly_roots_univariate,
)


class ResultantBoundExceeded(ValueError):
    """The Sylvester dimension needed for a resultant exceeds the bound."""


class NonGenericDirection(ValueError):
    """Perturbation direction still degenerate after bounded retries."""


SYLVESTER_BOUND = 8


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


def trop_product(f: TropPoly, g: TropPoly) -> TropPoly:
    pts = {}
    fm, gm = f.coeff_map(), g.coeff_map()
    for i, a in fm.items():
        for j, b in gm.items():
            k = (i[0] + j[0], i[1] + j[1])
            v = a + b
            if k not in pts or v > pts[k]:
                pts[k] = v
    return TropPoly(Support(pts.keys()), pts)


def stable_intersection(f: TropPoly, g: TropPoly) -> StableIntersection:
    h = trop_product(f, g)
    sub = dual_subdivision(h)
    out = []
    for cell in sub.facets:
        p = cell.dual_vertex
        _, sf = f.eval(p)
        _, sg = g.eval(p)
        m2 = area2(cell.on_points) - area2(sf) - area2(sg)
        if m2 < 0 or m2 % 2:
            raise AssertionError("mixed cell area must be a nonnegative even integer")
        if m2:
            out.append((p, int(m2 // 2)))
    out.sort(key=lambda t: t[0])
    si = StableIntersection(out)
    if si.total() != mixed_volume(f.support, g.support):
        raise AssertionError("Bernstein count violated")
    return si


# ---------------------------------------------------------------------------
# perturbation oracle over Q[eps]


class Eps:
    """a + b*eps with Fractions; ordered lexicographically (eps > 0, tiny)."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=Fraction(0)):
        self.a = frac(a)
        self.b = frac(b)

    def __add__(self, o):
        if isinstance(o, Eps):
            return Eps(self.a + o.a, self.b + o.b)
        return Eps(self.a + frac(o), self.b)

    __radd__ = __add__

    def __sub__(self, o):
        return self + (-o if isinstance(o, Eps) else Eps(-frac(o)))

    def __rsub__(self, o):
        return Eps(frac(o)) - self

    def __neg__(self):
        return Eps(-self.a, -self.b)

    def scaled(self, c):
        c = frac(c)
        return Eps(self.a * c, self.b * c)

    def cmp(self, o):
        o = o if isinstance(o, Eps) else Eps(frac(o))
        if self.a != o.a:
            return -1 if self.a < o.a else 1
        if self.b != o.b:
            return -1 if self.b < o.b else 1
        return 0

    def __eq__(self, o):
        return self.cmp(o) == 0

    def __lt__(self, o):
        return self.cmp(o) < 0

    def __le__(self, o):
        return self.cmp(o) <= 0

    def __repr__(self):
        return f"({self.a}+{self.b}e)"


_DIRECTIONS = [
    (1, 2), (2, 1), (1, 3), (3, 1), (2, 5), (5, 2), (1, 7), (7, 1),
    (3, 7), (7, 3), (1, 11), (11, 1), (5, 11), (11, 5), (2, 13), (13, 2),
    (3, 13), (13, 3), (1, 17), (17, 1),
]


class _Degenerate(Exception):
    pass


def _edge_range_contains(e, t: Eps, strict=True):
    if e.kind == "line":
        return True
    if t.cmp(0) == 0 or (e.kind == "segment" and t.cmp(e.length) == 0):
        raise _Degenerate()
    if t.cmp(0) < 0:
        return False
    if e.kind == "segment" and t.cmp(e.length) > 0:
        return False
    return True


def perturbation_oracle(f: TropPoly, g: TropPoly, direction=None) -> StableIntersection:
    """Stable intersection via an infinitesimal translation of g.

    Translating by eps*v makes every crossing a transversal edge-edge
    point whose multiplicity is |det(d1, d2)|*w1*w2; grouping the limits
    as eps -> 0 reproduces the stable intersection.  Retries a
    deterministic direction sequence on any degeneracy.
    """
    dirs = [direction] if direction is not None else _DIRECTIONS
    cf = curve(f)
    cg = curve(g)
    last = None
    for v in dirs:
        try:
            return _perturbed_intersection(cf, cg, v)
        except _Degenerate as exc:
            last = exc
            continue
    raise NonGenericDirection(f"no generic direction found (last: {last})")


def _perturbed_intersection(cf, cg, v) -> StableIntersection:
    crossings = {}
    for e1 in cf.edges:
        b1 = (Eps(e1.base[0]), Eps(e1.base[1]))
        d1 = e1.dir
        for e2 in cg.edges:
            b2 = (Eps(e2.base[0], v[0]), Eps(e2.base[1], v[1]))
            d2 = e2.dir
            det = d1[0] * d2[1] - d1[1] * d2[0]
            if det == 0:
                # parallel; generic v keeps them disjoint, verify
                rx = b2[0] - b1[0]
                ry = b2[1] - b1[1]
                c = rx.scaled(d1[1]) - ry.scaled(d1[0])
                if c.cmp(0) == 0:
                    raise _Degenerate()
                continue
            rx = b2[0] - b1[0]
            ry = b2[1] - b1[1]
            t = (rx.scaled(d2[1]) - ry.scaled(d2[0])).scaled(Fraction(1, det))
            s = (rx.scaled(d1[1]) - ry.scaled(d1[0])).scaled(Fraction(1, det))
            if not _edge_range_contains(e1, t):
                continue
            if not _edge_range_contains(e2, s):
                continue
            px = Eps(b1[0].a, b1[0].b) + Eps(t.a * d1[0], t.b * d1[0])
            py = Eps(b1[1].a, b1[1].b) + Eps(t.a * d1[1], t.b * d1[1])
            key = (px.a, px.b, py.a, py.b)
            if key in crossings:
                raise _Degenerate()
            mult = abs(det) * e1.weight * e2.weight
            crossings[key] = ((px.a, py.a), mult)
    grouped = {}
    for (limit, mult) in crossings.values():
        grouped[limit] = grouped.get(limit, 0) + mult
    return StableIntersection(sorted(grouped.items()))


# ---------------------------------------------------------------------------
# stable curve through points


def point_value_matrix(I: Support, pts):
    return [[frac(p[0]) * i[0] + frac(p[1]) * i[1] for i in I.points] for p in pts]


def stable_curve(I: Support, pts) -> TropPoly:
    """The unique curve of support I through delta-1 points that varies
    continuously with them, in concave canonical form."""
    if I.delta() < 2:
        raise ValueError("curve supports need at least two points")
    if len(pts) != I.delta() - 1:
        raise ValueError(f"need {I.delta() - 1} points, got {len(pts)}")
    sol = cramer_stable(point_value_matrix(I, pts))
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
    curve: TropPoly
    coeff_jets: dict          # support point -> cofactor-signed minor jet
    conditions: ConditionSet  # one pseudodeterminant != 0 per support point
    minor_regular: dict       # support point -> tropical minor regularity
    undecidable: bool         # every pseudodeterminant vanished


def curve_step_jets(I: Support, pt_jets, origin="curve") -> CurveStepResult:
    """Stable curve through points given as (tropical point, (jet_x, jet_y)).

    The minors of the homogeneous system are evaluated in the jet ring;
    a minor whose top order cancels is exactly a vanishing
    pseudodeterminant.  Coefficient jets carry cofactor signs so they
    solve the residual linear system.
    """
    pts = [p for p, _ in pt_jets]
    trop = point_value_matrix(I, pts)
    sol = cramer_stable(trop)
    f = concave_canonical(TropPoly(I, sol.values))

    n = len(pt_jets)
    entries = []
    for _, (jx, jy) in pt_jets:
        entries.append([_monomial_jet(jx, jy, i) for i in I.points])
    conds = ConditionSet()
    coeff_jets = {}
    minor_regular = {}
    any_nonzero = False
    for k, i in enumerate(I.points):
        cols = [c for c in range(len(I.points)) if c != k]
        det = masked_det(n, lambda r, c: entries[r][cols[c]], JET_ZERO)
        trop_value = sol.values[k]
        minor_regular[i] = sol.regular[k]
        if det.is_principal and det.order == trop_value:
            cond_val = det.coeff
            any_nonzero = True
            jet = det if k % 2 == 0 else -det
        else:
            cond_val = _condition_zero(entries)
            jet = Jet.degenerate(trop_value)
        coeff_jets[i] = jet
        conds.add(_condition_poly(cond_val), f"{origin} minor {i}")
    return CurveStepResult(
        curve=f,
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
# univariate polynomials over jets (for Sylvester determinants)


class JPoly:
    """Univariate polynomial with jet coefficients (a commutative ring)."""

    __slots__ = ("c",)

    def __init__(self, c=None):
        self.c = {e: j for e, j in (c or {}).items() if not j.is_zero}

    def __add__(self, o):
        out = dict(self.c)
        for e, j in o.c.items():
            s = out.get(e, JET_ZERO) + j
            if s.is_zero:
                out.pop(e, None)
            else:
                out[e] = s
        return JPoly(out)

    def __neg__(self):
        return JPoly({e: -j for e, j in self.c.items()})

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, o):
        out = {}
        for e1, j1 in self.c.items():
            for e2, j2 in o.c.items():
                e = e1 + e2
                t = j1 * j2
                s = out.get(e, JET_ZERO) + t
                if s.is_zero:
                    out.pop(e, None)
                else:
                    out[e] = s
        return JPoly(out)

    def degree(self):
        return max(self.c, default=0)

    def __bool__(self):
        return bool(self.c)

    def __repr__(self):
        return f"JPoly({self.c})"


JPOLY_ZERO = JPoly()


def _normalize_support(jets: dict) -> dict:
    mi = min(i for i, _ in jets)
    mj = min(j for _, j in jets)
    return {(i - mi, j - mj): jet for (i, j), jet in jets.items()}


def _by_y(poly: dict) -> dict:
    """{(i, j): c} as {j: {i: c}}, after moving the support to the origin
    so that neither x nor y divides the polynomial (torus roots are
    unaffected)."""
    out = {}
    for (i, j), c in _normalize_support(poly).items():
        out.setdefault(j, {})[i] = c
    return out


def _sylvester(fy: dict, gy: dict, zero, det, bound=None):
    """Res_y(f, g) from the y-coefficients {degree: coefficient} of f and g.

    The rows of the Sylvester matrix are filled with ``zero`` where f and
    g have no coefficient; ``det(size, entry, zero)`` takes the
    determinant in the coefficient ring (``masked_det``, or
    ``_tp_permanent`` for max-plus heights).  With no y in f the matrix
    is diagonal, so the resultant is fy[0]^n.
    """
    m, n = max(fy), max(gy)
    if bound is not None and m + n > bound:
        raise ResultantBoundExceeded(f"Sylvester dimension {m + n} exceeds the bound {bound}")
    if m == 0 and n == 0:
        raise ValueError("resultant of two y-free polynomials")
    rows = []
    for coeffs, deg, shifts in ((fy, m, n), (gy, n, m)):
        for r in range(shifts):
            row = [zero] * (m + n)
            for k in range(deg + 1):
                row[r + k] = coeffs.get(deg - k, zero)
            rows.append(row)
    return det(m + n, lambda r, c: rows[r][c], zero)


def sylvester_resultant(f_jets: dict, g_jets: dict, bound=SYLVESTER_BOUND) -> JPoly:
    """Res_y(f, g) over the jet ring, as a JPoly in x."""
    fy = {j: JPoly(c) for j, c in _by_y(f_jets).items()}
    gy = {j: JPoly(c) for j, c in _by_y(g_jets).items()}
    return _sylvester(fy, gy, JPOLY_ZERO, masked_det, bound)


def trop_resultant_heights(f_trop: dict, g_trop: dict, bound=SYLVESTER_BOUND) -> dict:
    """Generic heights of the resultant coefficients: the tropical
    (max-plus) Sylvester permanent, coefficientwise."""
    return _sylvester(_by_y(f_trop), _by_y(g_trop), None, _tp_permanent, bound)


def _tp_mul(a: dict, b: dict) -> dict:
    out = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            e = e1 + e2
            v = v1 + v2
            if e not in out or v > out[e]:
                out[e] = v
    return out


def _tp_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, v in b.items():
        if e not in out or v > out[e]:
            out[e] = v
    return out


def _tp_permanent(n, entry, zero):
    """Max-plus permanent of polynomial entries ({exponent: height});
    ``zero`` marks the missing entries."""
    memo = {}

    def rec(r, mask):
        if r == n:
            return {0: Fraction(0)}
        key = mask
        if key in memo:
            return memo[key]
        total = None
        m = mask
        while m:
            low = m & -m
            c = low.bit_length() - 1
            m ^= low
            e = entry(r, c)
            if e is not zero:
                sub = rec(r + 1, mask ^ low)
                if sub is not None:
                    term = _tp_mul(e, sub)
                    total = term if total is None else _tp_add(total, term)
        memo[key] = total
        return total

    out = rec(0, (1 << n) - 1)
    return out or {}


def trop_univariate_roots(heights: dict):
    """Roots with multiplicities of a univariate max-plus polynomial."""
    if len(heights) < 2:
        return []
    chain = upper_chain([(Fraction(e), v) for e, v in sorted(heights.items())])
    roots = []
    for a in range(len(chain) - 1):
        (e0, v0), (e1, v1) = chain[a], chain[a + 1]
        roots.append(((v0 - v1) / (e1 - e0), int(e1 - e0)))
    return roots


def _newton_segment_vertices(heights: dict):
    """Indices at the upper-hull breakpoints of {(i, h_i)}."""
    chain = upper_chain([(Fraction(e), v) for e, v in sorted(heights.items())])
    return [int(e) for e, _ in chain]


# ---------------------------------------------------------------------------
# intersection step over jets


@dataclass
class ResultantFamily:
    """Vertex conditions of one resultant's Newton segment."""

    name: str                   # "x", "y" or "z"
    heights: dict               # generic coefficient heights
    vertex_indices: list
    conditions: list            # [(index, value)] at the vertices
    monomial_flags: list | None  # per vertex; None when shape analysis skipped
    bound_exceeded: bool = False

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
        return all(f.fixed for f in self.families if not f.bound_exceeded) and any(
            not f.bound_exceeded for f in self.families
        )

    @property
    def always_compatible(self):
        return bool(self.families) and all(
            f.always_compatible and not f.bound_exceeded for f in self.families
        )


def _shape_monomial_flags(f_trop, g_trop, vertex_indices, bound):
    """Monomial-ness of the vertex condition polynomials, from a run with
    fresh local variables per input coefficient.  Only done for small
    Sylvester dimensions; None means unknown."""
    f_jets = {
        i: Jet.principal(v, RPoly.var(f"f[{i[0]},{i[1]}]")) for i, v in f_trop.items()
    }
    g_jets = {
        i: Jet.principal(v, RPoly.var(f"g[{i[0]},{i[1]}]")) for i, v in g_trop.items()
    }
    res = sylvester_resultant(f_jets, g_jets, bound)
    flags = []
    for idx in vertex_indices:
        jet = res.c.get(idx, JET_ZERO)
        flags.append(jet.is_principal and jet.coeff.is_monomial())
    return flags


def _resultant_family(name, f_trop, f_jets, g_trop, g_jets, shape_bound=4):
    heights = trop_resultant_heights(f_trop, g_trop)
    res = sylvester_resultant(f_jets, g_jets)
    verts = _newton_segment_vertices(heights)
    conds = []
    sample = next((j.coeff for j in res.c.values() if j.is_principal), None)
    for idx in verts:
        jet = res.c.get(idx, JET_ZERO)
        if jet.is_principal and jet.order == heights[idx]:
            conds.append((idx, jet.coeff))
        else:
            conds.append((idx, _zero_like_coeff(sample) if sample is not None else Fraction(0)))
    size = _sylvester_dim(f_trop, g_trop)
    flags = None
    if size <= shape_bound:
        flags = _shape_monomial_flags(f_trop, g_trop, verts, SYLVESTER_BOUND)
    return ResultantFamily(
        name=name,
        heights=heights,
        vertex_indices=verts,
        conditions=conds,
        monomial_flags=flags,
    )


def _sylvester_dim(f_trop, g_trop):
    def ydeg(tr):
        js = [j for _, j in tr]
        return max(js) - min(js)

    return ydeg(f_trop) + ydeg(g_trop)


def _swap_xy(jets_or_trop):
    return {(j, i): v for (i, j), v in jets_or_trop.items()}


def _shear(jets_or_trop, a):
    return {(i, j + a * i): v for (i, j), v in jets_or_trop.items()}


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
            return a, cands
        a += 1


def intersection_step_conditions(
    f_jets: dict, g_jets: dict, origin="intersect", shape_bound=4
) -> ResultantBundle:
    """Residual conditions for the compatibility of the stable and the
    algebraic intersection: principal coefficients at the Newton-segment
    vertices of the three resultants R_x, R_y, R_z must not vanish."""
    f_trop = {i: j.order for i, j in f_jets.items() if not j.is_zero}
    g_trop = {i: j.order for i, j in g_jets.items() if not j.is_zero}
    if any(j.is_degenerate for j in f_jets.values()) or any(
        j.is_degenerate for j in g_jets.values()
    ):
        cs = ConditionSet()
        cs.add(_condition_zero([list(f_jets.values()), list(g_jets.values())]), f"{origin} degenerate input jets")
        return ResultantBundle(shear=None, families=[], conditions=cs, undecidable=True)
    f = TropPoly(Support(f_trop.keys()), _normalize_support(f_trop))
    g = TropPoly(Support(g_trop.keys()), _normalize_support(g_trop))

    families = []
    cs = ConditionSet()

    def run(name, ft, fj, gt, gj):
        try:
            fam = _resultant_family(name, ft, fj, gt, gj, shape_bound)
        except ResultantBoundExceeded:
            fam = ResultantFamily(
                name=name, heights={}, vertex_indices=[], conditions=[],
                monomial_flags=None, bound_exceeded=True,
            )
        except ValueError:
            return None
        families.append(fam)
        for idx, val in fam.conditions:
            cs.add(_condition_poly(val), f"{origin} R_{name} coeff {idx}")
        return fam

    fam_x = run("x", f_trop, f_jets, g_trop, g_jets)
    fam_y = run("y", _swap_xy(f_trop), _swap_xy(f_jets), _swap_xy(g_trop), _swap_xy(g_jets))

    if fam_x is not None and fam_y is not None and not fam_x.bound_exceeded and not fam_y.bound_exceeded:
        a, _ = choose_shear(f, g, fam_x.heights, fam_y.heights)
        run("z", _shear(f_trop, a), _shear(f_jets, a), _shear(g_trop, a), _shear(g_jets, a))
        shear = a
    else:
        shear = None

    undecidable = bool(families) and all(
        all(not val for _, val in fam.conditions) for fam in families if not fam.bound_exceeded
    ) and any(not fam.bound_exceeded for fam in families)
    return ResultantBundle(shear=shear, families=families, conditions=cs, undecidable=undecidable)


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


def local_intersection_solve(f_jets: dict, g_jets: dict, b, field: ResidualField):
    """Solve the residual system f_b = g_b = 0 in (k*)^2, numeric mode.

    Elimination by Sylvester resultant in y, then root scan; returns the
    solutions with multiplicity bookkeeping (fiber multiplicities sum to
    the multiplicity of the x-root in the eliminant).
    """
    fx = _terms_to_rpoly_in(residual_terms(f_jets, b), field)
    gx = _terms_to_rpoly_in(residual_terms(g_jets, b), field)
    return _solve_by_elimination(fx, gx, field)


def _terms_to_rpoly_in(terms: dict, field):
    out = RPoly()
    for (i, j), c in terms.items():
        if isinstance(c, (RPoly, RFrac)):
            raise ValueError("numeric local solve needs scalar coefficients")
        mono = {}
        if i:
            mono["x"] = i
        if j:
            mono["y"] = j
        key = tuple(sorted(mono.items()))
        out = out + RPoly({key: field.elt(c)})
    return out


def _rpoly_y_coeffs(p: RPoly):
    """Split an RPoly in x, y into {deg_y: RPoly in x}."""
    out = {}
    for m, c in p.terms.items():
        d = dict(m)
        j = d.pop("y", 0)
        key = tuple(sorted(d.items()))
        out.setdefault(j, RPoly())
        out[j] = out[j] + RPoly({key: c})
    return out


def _resultant_rpoly_y(f: RPoly, g: RPoly):
    return _sylvester(_rpoly_y_coeffs(f), _rpoly_y_coeffs(g), RPoly(), masked_det)


def _subs_x(p: RPoly, x0, field):
    acc = RPoly()
    for m, c in p.terms.items():
        d = dict(m)
        i = d.pop("x", 0)
        val = field.elt(c) * (x0**i if i else field.one)
        acc = acc + RPoly({tuple(sorted(d.items())): val})
    return acc


def _solve_by_elimination(f: RPoly, g: RPoly, field: ResidualField):
    have_y_f = any("y" in dict(m) for m in f.terms)
    have_y_g = any("y" in dict(m) for m in g.terms)
    if not have_y_f and not have_y_g:
        raise InformationLostError("residual system is y-free; not zero-dimensional")
    res = _resultant_rpoly_y(f, g)
    if not res:
        raise InformationLostError("residual eliminant vanishes; not zero-dimensional")
    if res.is_constant():
        return []
    out = []
    for x0, mx in rpoly_roots_univariate(res, field):
        if not x0:
            continue  # outside the torus
        f0 = _subs_x(f, x0, field)
        g0 = _subs_x(g, x0, field)
        ys = _common_y_roots(f0, g0, field)
        ys = [(y0, my) for y0, my in ys if y0]
        if not ys:
            continue
        tot = sum(my for _, my in ys)
        for y0, my in ys:
            out.append(LocalSolution(x=x0, y=y0, multiplicity=Fraction(mx * my, tot)))
    return out


def _common_y_roots(f0: RPoly, g0: RPoly, field):
    if not f0 and not g0:
        raise InformationLostError("residual fiber is the whole line")
    candidates = None
    for p in (f0, g0):
        if not p or p.is_constant():
            if p and p.is_constant():
                return []  # nonzero constant: no roots
            continue
        roots = dict(rpoly_roots_univariate(p, field))
        if candidates is None:
            candidates = roots
        else:
            candidates = {
                y: min(m, roots[y]) for y, m in candidates.items() if y in roots
            }
    return sorted(candidates.items(), key=lambda t: repr(t[0])) if candidates else []
