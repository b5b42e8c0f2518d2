"""Exact max-plus plane curves.

Everything here is exact: coefficients are `fractions.Fraction`, convex
hulls are computed with integer predicates after clearing denominators,
and all outputs are deterministically ordered so results are
reproducible bit for bit.

The central objects:

* ``Support``   -- a finite set of lattice points modulo translation.
* ``TropPoly``  -- a max-plus polynomial with fixed support.
* ``NewtonSubdivision`` -- the regular subdivision of the Newton polygon
  induced by the coefficients (upper hull of the lifted points).
* ``DualComplex`` -- the plane curve, cell-dual to the subdivision.

Both objects are immutable, so each computes a derived form once and
keeps it: a ``Support`` its Newton-polygon corners, a ``TropPoly`` its
coefficients over their common denominator, ``scaled_ints(coeffs)``.
Evaluation, the curve test and the concave canonical form run on that
int form: a point is scaled once to a common denominator, and every
comparison of monomial values is an int comparison.  The only
``Fraction``s they build are the values they return.

``_upper_facets_ints`` is the one upper-hull computation: the
subdivision and the curve dual to it, the concave canonical form (the
minimum, over the maximal cells, of their affine height functions) and
the mixed cells of a stable intersection are all read from it.  The hull
is gift wrapping on the heights scaled once to ints by the lcm of their
denominators (a polynomial's cached ``scaled()``).  It starts from the
first segment of the upper chain over one Newton-polygon edge; across
each cell edge not on the polygon boundary, one pass over the points
keeps the one whose plane through the edge lies above all the others.
The tie rule: a cell's points are all the support points lifted onto
its plane, so coplanar points stay in it, and its corners are their
convex hull.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

Point = tuple[Fraction, Fraction]
LPoint = tuple[int, int]


def frac(x) -> Fraction:
    """Coerce ints, strings like '11/2' and Fractions to Fraction; '1/0' is a ValueError."""
    if isinstance(x, Fraction):
        return x
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {x!r}") from None


def scaled_ints(values):
    """(ints, d): the lcm d of the values' denominators and the ints d*v."""
    d = lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


# ---------------------------------------------------------------------------
# small exact lattice/plane geometry helpers


def cross(o, a, b):
    """Orientation of the triangle o-a-b (positive = counterclockwise)."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(pts):
    """Counterclockwise hull vertices (Andrew monotone chain), exact."""
    pts = sorted(set(pts))
    if len(pts) <= 2:
        return pts
    # the lower chain is the upper chain of the points (x, -y), mirrored back
    lower = [(x, -y) for x, y in upper_chain([(x, -y) for x, y in pts])]
    upper = upper_chain(pts)[::-1]
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:  # all collinear: keep the two extreme points
        return [pts[0], pts[-1]]
    return hull


def upper_chain(pts):
    """Vertices of the upper hull of plane points sorted by abscissa, left
    to right; points on the hull but not at a corner are dropped."""
    chain = []
    for p in pts:
        while len(chain) >= 2 and cross(chain[-2], chain[-1], p) >= 0:
            chain.pop()
        chain.append(p)
    return chain


def area2(pts) -> int:
    """Doubled area of the convex hull of lattice points (0 for dim < 2)."""
    return polygon_area2(convex_hull(pts))


def polygon_area2(hull) -> int:
    """Doubled area of a convex polygon given by its ccw corners."""
    if len(hull) < 3:
        return 0
    return abs(sum(a[0] * b[1] - a[1] * b[0] for a, b in zip(hull, hull[1:] + hull[:1])))


def primitive(v) -> LPoint:
    g = gcd(int(v[0]), int(v[1]))
    if g == 0:
        raise ValueError("zero vector has no primitive direction")
    return (int(v[0]) // g, int(v[1]) // g)


def lattice_length(a, b) -> int:
    """Number of lattice steps from a to b (gcd of coordinate gaps)."""
    return gcd(abs(int(b[0]) - int(a[0])), abs(int(b[1]) - int(a[1])))


def on_segment(p, a, b) -> bool:
    if cross(a, b, p) != 0:
        return False
    return min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])


def in_convex_polygon(p, hull) -> bool:
    """Point in the (closed) convex polygon given by ccw hull vertices."""
    if len(hull) == 1:
        return tuple(p) == tuple(hull[0])
    if len(hull) == 2:
        return on_segment(p, hull[0], hull[1])
    for i in range(len(hull)):
        if cross(hull[i], hull[(i + 1) % len(hull)], p) < 0:
            return False
    return True


# ---------------------------------------------------------------------------
# supports


_NAMED_SUPPORTS = {
    "line": ((0, 0), (1, 0), (0, 1)),
    "vertical": ((0, 0), (1, 0)),
    "horizontal": ((0, 0), (0, 1)),
    "pencil": ((1, 0), (0, 1)),
    "conic": ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)),
    "cubic": ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)),
}


class Support:
    """Finite subset of Z^2 modulo translation.

    Stored normalized: the componentwise minimum is translated to the
    origin, points sorted lexicographically.  Two supports are equal iff
    their normalized forms coincide.
    """

    __slots__ = ("points", "_corners")

    def __init__(self, pts):
        pts = {(int(p[0]), int(p[1])) for p in pts}
        if not pts:
            raise ValueError("support must be nonempty")
        mx = min(p[0] for p in pts)
        my = min(p[1] for p in pts)
        self.points: tuple[LPoint, ...] = tuple(sorted((p[0] - mx, p[1] - my) for p in pts))
        self._corners = None

    def corners(self) -> tuple[LPoint, ...]:
        """The ccw corners of the Newton polygon (``convex_hull``),
        computed once."""
        if self._corners is None:
            self._corners = tuple(convex_hull(self.points))
        return self._corners

    @staticmethod
    def named(name: str) -> "Support":
        name = name.strip()
        if name in _NAMED_SUPPORTS:
            return Support(_NAMED_SUPPORTS[name])
        m = re.fullmatch(r"degree\((\d+)\)", name)
        if m:
            return Support.degree(int(m.group(1)))
        raise ValueError(f"unknown support name {name!r}")

    @staticmethod
    def degree(d: int) -> "Support":
        return Support((i, j) for i in range(d + 1) for j in range(d + 1 - i))

    def delta(self) -> int:
        return len(self.points)

    def __eq__(self, other):
        return isinstance(other, Support) and self.points == other.points

    def __hash__(self):
        return hash(self.points)

    def __repr__(self):
        return f"Support({list(self.points)})"

    def to_json(self):
        return [list(p) for p in self.points]


# ---------------------------------------------------------------------------
# tropical polynomials


_TERM_RE = re.compile(
    r"^\s*(?:\((?P<pc>-?\d+(?:/\d+)?)\)|(?P<c>-?\d+(?:/\d+)?))?\s*(?P<mon>(?:[xy](?:\^\d+)?\s*)*)\s*$"
)


def _parse_monomial(s: str) -> LPoint:
    i = j = 0
    for var, exp in re.findall(r"([xy])(?:\^(\d+))?", s):
        e = int(exp) if exp else 1
        if var == "x":
            i += e
        else:
            j += e
    return (i, j)


class TropPoly:
    """Max-plus polynomial: evaluation at p is max_i(coeff_i + i.p)."""

    __slots__ = ("support", "coeffs", "_scaled", "_gamma")

    def __init__(self, support: Support, coeffs):
        self.support = support
        if isinstance(coeffs, dict):
            norm = _normalize_coeff_keys(support, coeffs)
            self.coeffs = tuple(frac(norm[p]) for p in support.points)
        else:
            coeffs = tuple(frac(c) for c in coeffs)
            if len(coeffs) != support.delta():
                raise ValueError("one coefficient per support point required")
            self.coeffs = coeffs
        self._scaled = None
        self._gamma = None  # genpos.build_gamma's graph, built on first use

    def scaled(self):
        """(ints, d) = ``scaled_ints(coeffs)``, computed once: a TropPoly
        is immutable."""
        if self._scaled is None:
            self._scaled = scaled_ints(self.coeffs)
        return self._scaled

    def argmax(self, x: int, y: int, e: int):
        """(top, argmax) at the point (x/e, y/e), for ints x, y and e > 0:
        the largest monomial value there times e*d, d the denominator of
        ``scaled()``, and the support points attaining it."""
        ints, d = self.scaled()
        dx, dy = d * x, d * y
        vals = [e * c + i * dx + j * dy for (i, j), c in zip(self.support.points, ints)]
        top = max(vals)
        return top, tuple(pt for pt, v in zip(self.support.points, vals) if v == top)

    @staticmethod
    def parse(text: str) -> "TropPoly":
        """Parse text like ``"(-11) + 2x + 2y + 2xy + 0x^2 + 0y^2"``."""
        text = text.replace("−", "-").replace("**", "^").strip()
        if not text:
            raise ValueError("empty tropical polynomial")
        terms = {}
        for raw in text.split("+"):
            m = _TERM_RE.match(raw)
            if not m or (m.group("pc") is None and m.group("c") is None and not m.group("mon").strip()):
                raise ValueError(f"cannot parse tropical term {raw!r}")
            cs = m.group("pc") or m.group("c")
            coeff = frac(cs) if cs is not None else Fraction(0)
            mono = _parse_monomial(m.group("mon"))
            if mono in terms:
                raise ValueError(f"repeated monomial x^{mono[0]}y^{mono[1]}")
            terms[mono] = coeff
        return TropPoly(Support(terms.keys()), terms)

    def coeff(self, pt) -> Fraction:
        return self.coeffs[self.support.points.index((int(pt[0]), int(pt[1])))]

    def coeff_map(self) -> dict:
        return dict(zip(self.support.points, self.coeffs))

    def eval(self, p: Point):
        """Value and argmax set at p; p is on the curve iff len(argmax) >= 2."""
        (x, y), e = scaled_ints((frac(p[0]), frac(p[1])))
        top, arg = self.argmax(x, y, e)
        return Fraction(top, e * self.scaled()[1]), arg

    def on_curve(self, p: Point) -> bool:
        (x, y), e = scaled_ints((frac(p[0]), frac(p[1])))
        return len(self.argmax(x, y, e)[1]) >= 2

    def __eq__(self, other):
        return (
            isinstance(other, TropPoly)
            and self.support == other.support
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.support, self.coeffs))

    def __str__(self):
        parts = []
        for pt, c in zip(self.support.points, self.coeffs):
            cs = str(c)
            if c < 0 or c.denominator != 1:
                cs = f"({cs})"
            mono = ""
            if pt[0]:
                mono += " x" if pt[0] == 1 else f" x^{pt[0]}"
            if pt[1]:
                mono += " y" if pt[1] == 1 else f" y^{pt[1]}"
            parts.append(cs + mono)
        return " + ".join(parts)

    def __repr__(self):
        return f"TropPoly({self})"

    def to_json(self):
        return {
            "support": self.support.to_json(),
            "coeffs": [str(c) for c in self.coeffs],
        }


def _normalize_coeff_keys(support: Support, coeffs: dict):
    keys = {(int(k[0]), int(k[1])) for k in coeffs}
    mx = min(k[0] for k in keys)
    my = min(k[1] for k in keys)
    norm = {(int(k[0]) - mx, int(k[1]) - my): v for k, v in coeffs.items()}
    if set(norm) != set(support.points):
        raise ValueError("coefficient keys do not match the support")
    return norm


# ---------------------------------------------------------------------------
# regular subdivisions (upper hull of the lifted support)


@dataclass(frozen=True)
class Cell:
    """A maximal (2-dimensional) cell of the Newton subdivision.

    ``on_points`` are the support points lying on the lifted face (these
    are the argmax set at the dual cell); ``hull`` is the ccw boundary of
    the cell in the plane; ``dual_vertex`` is the vertex of the curve
    dual to the cell.
    """

    on_points: tuple[LPoint, ...]
    hull: tuple[LPoint, ...]
    dual_vertex: Point | None = None


@dataclass(frozen=True)
class SubdivEdge:
    """A 1-cell: endpoints, support points lying on it, incident 2-cells."""

    ends: tuple[LPoint, LPoint]
    on_points: tuple[LPoint, ...]
    facets: tuple[int, ...]  # indices into NewtonSubdivision.facets


@dataclass
class NewtonSubdivision:
    support: Support
    facets: list[Cell]          # maximal cells, lex-sorted by on_points
    edges: list[SubdivEdge]     # 1-cells, lex-sorted by ends
    vertices: list[LPoint]      # 0-cells


def _upper_facets_ints(pts, H, den, poly):
    """Upper-hull facets of the lifted points (p, H/den) of a 2-D support
    with ccw Newton polygon ``poly``, by gift wrapping on the int heights H.

    Returns [(on_point_indices, normal, hull)] sorted by the indices: every
    point whose lift lies on the facet plane, the plane's normal
    (nx, ny, nz), nz > 0, with dot((nx, ny, nz), (x, y, h)) the same at
    each of them in the original height scale (and larger at no point),
    and the cell's ccw corners.

    The planes through an upper-hull edge a-b form a pencil, totally
    ordered by their slope towards one side, so one pass over the points
    on that side keeps the one whose plane passes above all the others:
    that plane is the facet's.  Each cell edge is wrapped across at most
    once, and not at all once the facets on both its sides are found.
    """
    lifted = list(zip(pts, H))
    height = dict(lifted)

    def wrap(a, b):
        """The facet left of a -> b through the lifted edge a-b, or None
        when no point lies left of a -> b (a polygon edge)."""
        ax, ay = a
        ah = height[a]
        ux, uy, uh = b[0] - ax, b[1] - ay, height[b] - ah
        nx = ny = nz = 0
        for (x, y), h in lifted:
            wx, wy, wh = x - ax, y - ay, h - ah
            s = ux * wy - uy * wx
            if s > 0 and (not nz or nx * wx + ny * wy + nz * wh > 0):
                nx, ny, nz = uy * wh - uh * wy, uh * wx - ux * wh, s
        if not nz:
            return None
        top = nx * ax + ny * ay + nz * ah
        on = tuple(i for i, ((x, y), h) in enumerate(lifted) if nx * x + ny * y + nz * h == top)
        # the scaled heights were den*h, so the true normal is (nx, ny, nz*den)
        return on, (nx, ny, nz * den)

    # the polygon lies left of its edge u -> v, and the lift of the first
    # upper-chain segment over that edge is an edge of the upper hull
    u, v = poly[0], poly[1]
    e = (v[0] - u[0], v[1] - u[1])
    seed = upper_chain(sorted(
        ((p[0] - u[0]) * e[0] + (p[1] - u[1]) * e[1], h, p) for p, h in lifted if cross(u, v, p) == 0
    ))
    todo = [(u, seed[1][2])]
    facets = []
    found = {}  # cell edge -> number of facets found on it
    while todo:
        a, b = todo.pop()
        if found.get((a, b) if a < b else (b, a)) == 2:
            continue
        facet = wrap(a, b)
        if facet is None:
            continue
        on, normal = facet
        hull = tuple(convex_hull([pts[i] for i in on]))
        facets.append((on, normal, hull))
        for p, q in zip(hull, hull[1:] + hull[:1]):
            key = (p, q) if p < q else (q, p)
            found[key] = found.get(key, 0) + 1
            if found[key] == 1:
                todo.append((q, p))
    return sorted(facets)


def _upper_chain_1d(pts, H):
    """Upper hull for supports whose points are collinear, on the int
    heights H (the heights over a common denominator).

    Returns the list of 1-cells as (on_point_indices,) tuples, in order
    along the segment.
    """
    d = primitive((pts[-1][0] - pts[0][0], pts[-1][1] - pts[0][1]))
    base = pts[0]
    lifted = sorted(
        ((p[0] - base[0]) * d[0] + (p[1] - base[1]) * d[1], h, i) for i, (p, h) in enumerate(zip(pts, H))
    )
    chain = upper_chain(lifted)
    # all points on the chord between consecutive hull vertices
    return [
        tuple(sorted(i for t, h, i in lifted if a[0] <= t <= b[0] and cross(a, b, (t, h)) == 0))
        for a, b in zip(chain, chain[1:])
    ]


def dual_subdivision(f: TropPoly) -> NewtonSubdivision:
    """Regular subdivision of the Newton polygon induced by the coefficients.

    The maximal cells come from ``_upper_facets_ints``: gift wrapping over
    the lifted support on the polynomial's cached lcm-scaled int heights
    (``f.scaled()``).  A cell's ``on_points`` are all the support points
    whose lift lies on its facet plane, so points tied on a face (in its
    interior or on an edge) are kept, and its ``hull`` is their ccw
    convex hull.  Collinear supports are subdivided by the upper chain of
    the same int heights along the segment.
    """
    pts = list(f.support.points)
    if len(pts) == 1:
        return NewtonSubdivision(f.support, [], [], [pts[0]])
    hull = f.support.corners()
    if len(hull) == 2:  # collinear support: subdivision of a segment
        chain = _upper_chain_1d(pts, f.scaled()[0])
        edges = []
        verts = set()
        for on in chain:
            ends = (pts[on[0]], pts[on[-1]])
            edges.append(SubdivEdge(ends=ends, on_points=tuple(pts[i] for i in on), facets=()))
            verts.update(ends)
        edges.sort(key=lambda e: e.ends)
        return NewtonSubdivision(f.support, [], edges, sorted(verts))

    # sorted by on-point indices, hence (the support being sorted) by on_points
    facets = [
        Cell(on_points=tuple(pts[i] for i in on), hull=fh,
             dual_vertex=(Fraction(nx, nz), Fraction(ny, nz)))
        for on, (nx, ny, nz), fh in _upper_facets_ints(pts, *f.scaled(), hull)
    ]

    # 1-cells: maximal boundary segments of facets, shared facets recorded
    edge_map: dict[tuple[LPoint, LPoint], dict] = {}
    for fi, c in enumerate(facets):
        h = c.hull
        for a in range(len(h)):
            p0, p1 = h[a], h[(a + 1) % len(h)]
            key = tuple(sorted((p0, p1)))
            rec = edge_map.setdefault(key, {"facets": set(), "on": None})
            rec["facets"].add(fi)
            if rec["on"] is None:
                rec["on"] = tuple(sorted(p for p in c.on_points if on_segment(p, p0, p1)))
    edges = [
        SubdivEdge(ends=key, on_points=rec["on"], facets=tuple(sorted(rec["facets"])))
        for key, rec in sorted(edge_map.items())
    ]
    verts = sorted({e.ends[0] for e in edges} | {e.ends[1] for e in edges})
    return NewtonSubdivision(f.support, facets, edges, verts)


# ---------------------------------------------------------------------------
# the dual curve


@dataclass(frozen=True)
class CurveEdge:
    """PL edge of a tropical curve.

    Parametrized as base + t*dir with t in [0, length]; ``length`` is
    None for rays and ``kind`` is "segment", "ray" or "line" (lines are
    unbounded both ways; they occur for collinear supports).
    """

    base: Point
    dir: LPoint
    length: Fraction | None
    weight: int
    dual: tuple[LPoint, LPoint]
    kind: str = "segment"


@dataclass
class DualComplex:
    vertices: list[Point]       # dual vertices of the maximal cells, same order
    edges: list[CurveEdge]
    subdivision: NewtonSubdivision


def _outward_normal(hull, p0, p1) -> LPoint:
    d = primitive((p1[0] - p0[0], p1[1] - p0[1]))
    n = (d[1], -d[0])
    for q in hull:
        s = (q[0] - p0[0]) * n[0] + (q[1] - p0[1]) * n[1]
        if s > 0:
            n = (-n[0], -n[1])
            break
        if s < 0:
            break
    return n


def curve(f: TropPoly) -> DualComplex:
    """The tropical curve of f as a PL complex, dual to the subdivision."""
    return _curve_of(f, dual_subdivision(f))


def _curve_of(f: TropPoly, sub: NewtonSubdivision) -> DualComplex:
    """The curve of f from its already computed ``dual_subdivision``."""
    pts = f.support.points
    if len(pts) == 1:
        return DualComplex([], [], sub)
    hull = f.support.corners()
    edges: list[CurveEdge] = []

    if not sub.facets:  # collinear support: curve is a family of lines
        cmap = f.coeff_map()
        for e in sub.edges:
            i, j = e.ends
            w = lattice_length(i, j)
            d = primitive((j[0] - i[0], j[1] - i[1]))
            # points p with a_i + i.p == a_j + j.p: (i-j).p = a_j - a_i
            rhs = cmap[j] - cmap[i]
            u = (i[0] - j[0], i[1] - j[1])
            if u[0] != 0:
                base = (Fraction(rhs, u[0]), Fraction(0))
            else:
                base = (Fraction(0), Fraction(rhs, u[1]))
            ldir = primitive((-u[1], u[0]))
            edges.append(
                CurveEdge(base=base, dir=ldir, length=None, weight=w, dual=e.ends, kind="line")
            )
        edges.sort(key=lambda e: (e.dual, e.base))
        return DualComplex([], edges, sub)

    verts = [c.dual_vertex for c in sub.facets]
    for e in sub.edges:
        w = lattice_length(*e.ends)
        if len(e.facets) == 2:
            a, b = verts[e.facets[0]], verts[e.facets[1]]
            if a == b:
                raise AssertionError("adjacent cells share a dual vertex")
            # the edge direction is the 90-degree rotation of its dual
            # subdivision edge (an integer vector); b - a is parallel to it
            d = primitive((e.ends[0][1] - e.ends[1][1], e.ends[1][0] - e.ends[0][0]))
            if d[0] * (b[0] - a[0]) + d[1] * (b[1] - a[1]) < 0:
                d = (-d[0], -d[1])
            if d[1] * (b[0] - a[0]) - d[0] * (b[1] - a[1]) != 0:
                raise AssertionError("dual edge direction mismatch")
            t = (b[0] - a[0]) / d[0] if d[0] else (b[1] - a[1]) / d[1]
            edges.append(CurveEdge(base=a, dir=d, length=t, weight=w, dual=e.ends))
        else:
            v = verts[e.facets[0]]
            n = _outward_normal(hull, *e.ends)
            edges.append(CurveEdge(base=v, dir=n, length=None, weight=w, dual=e.ends, kind="ray"))
    edges.sort(key=lambda e: (e.dual, e.base))
    return DualComplex(verts, edges, sub)


# ---------------------------------------------------------------------------
# canonical concave representative and mixed volume


def concave_canonical(f: TropPoly) -> TropPoly:
    """Raise every coefficient to the upper hull of the lifted support.

    The result is the biconjugate of f: coefficient p becomes the
    minimum, over the maximal cells C, of the height at p of C's affine
    function.  On the int heights H = d*c of ``f.scaled()`` that height
    is (A - B*p_x - C*p_y)/D, D > 0: from a facet normal (B, C, D*d) of
    ``_upper_facets_ints``, A being the plane's value at the cell's
    points, and for an edge a-b of a collinear support, u = b - a, from
    H_a + (H_b - H_a)*(p - a).u/|u|^2.  Minima are compared by cross
    multiplication.  It is the unique concave polynomial with the same
    support and the same curve; the operation is idempotent.
    """
    pts = f.support.points
    corners = f.support.corners()
    if len(corners) == len(pts):  # every point a corner, so on the hull
        return f
    H, den = f.scaled()
    planes = []
    if len(corners) > 2:
        for on, (nx, ny, nz), _ in _upper_facets_ints(pts, H, den, corners):
            (qx, qy), nz = pts[on[0]], nz // den
            planes.append((nx * qx + ny * qy + nz * H[on[0]], nx, ny, nz))
    else:  # collinear support: the maximal cells are edges
        for on in _upper_chain_1d(pts, H):
            (ax, ay), (bx, by) = pts[on[0]], pts[on[-1]]
            ux, uy, s = bx - ax, by - ay, H[on[-1]] - H[on[0]]
            uu = ux * ux + uy * uy
            planes.append((H[on[0]] * uu - s * (ax * ux + ay * uy), -s * ux, -s * uy, uu))
    out = []
    for x, y in pts:
        num = dd = None
        for a, b, c, d in planes:
            v = a - b * x - c * y
            if num is None or v * dd < num * d:
                num, dd = v, d
        out.append(Fraction(num, dd * den))
    return TropPoly(f.support, out)


def minkowski_sum_points(a, b):
    return sorted({(p[0] + q[0], p[1] + q[1]) for p in a for q in b})


@lru_cache(maxsize=256)
def mixed_volume(d1: Support, d2: Support) -> int:
    """area(D1+D2) - area(D1) - area(D2); the Bernstein intersection
    count, memoized per support pair."""
    s = minkowski_sum_points(d1.points, d2.points)
    m2 = area2(s) - area2(d1.points) - area2(d2.points)
    if m2 % 2 != 0:
        raise AssertionError("mixed volume must be an integer")
    return int(m2 // 2)

