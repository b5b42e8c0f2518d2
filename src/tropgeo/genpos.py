"""Generic position of points inside a tropical curve.

The combinatorial criterion: refine the subdivision skeleton at the
support points (interior-of-cell points become isolated vertices), then
try to assign each query point to a refined edge of its dual cell (or an
interior support point, for curve vertices) so that targets are pairwise
distinct and the chosen edges form an acyclic subgraph.  A successful
assignment certifies that the curve is the stable curve through the
points (extended by free points when fewer than delta-1 are given).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .trop_core import (
    TropPoly,
    _curve_of,
    area2,
    dual_subdivision,
    frac,
    in_convex_polygon,
    on_segment,
)


class PointNotOnCurve(ValueError):
    pass


@dataclass
class GammaGraph:
    """Refined skeleton of the dual subdivision of a polynomial f.  f
    keeps it (``build_gamma``), so it holds no reference back to f."""

    vertices: list          # lattice points of I on 0/1-cells
    edges: list             # refined edges, as sorted lattice-point pairs
    isolated: dict          # lattice point -> enclosing facet index
    refined_of: dict        # subdivision-edge index -> list of refined edges
    subdivision: object
    facet_of: dict          # dual vertex of a maximal cell -> its index
    curve: object = None    # f's DualComplex, built by the first completion that needs it


def _sorted_pair(a, b):
    return (a, b) if a <= b else (b, a)


def build_gamma(f: TropPoly) -> GammaGraph:
    """The gamma graph of f, built once per polynomial and kept on f, as
    ``f.scaled()`` is: a TropPoly is immutable, so every genpos query on
    the same curve (each labeling and each pair of a labeled statement)
    shares one dual subdivision."""
    if f._gamma is None:
        f._gamma = _gamma_of(f)
    return f._gamma


def _gamma_of(f: TropPoly) -> GammaGraph:
    sub = dual_subdivision(f)
    I = list(f.support.points)
    endpoint_set = set()
    for e in sub.edges:
        endpoint_set.update(e.ends)

    on_edge = {}
    for p in I:
        if p in endpoint_set:
            continue
        for k, e in enumerate(sub.edges):
            if on_segment(p, *e.ends):
                on_edge.setdefault(k, []).append(p)
                break

    placed = set(endpoint_set)
    for pts in on_edge.values():
        placed.update(pts)
    isolated = {}
    for p in I:
        if p in placed:
            continue
        for fi, cell in enumerate(sub.facets):
            if in_convex_polygon(p, list(cell.hull)):
                isolated[p] = fi
                break
        else:
            raise AssertionError(f"support point {p} not located in the subdivision")

    refined_of = {}
    edges = []
    vertices = set(p for p in I if p in placed)
    for k, e in enumerate(sub.edges):
        a, b = e.ends
        interior = sorted(
            on_edge.get(k, []),
            key=lambda p: ((p[0] - a[0]) ** 2 + (p[1] - a[1]) ** 2),
        )
        chain = [a] + interior + [b]
        pieces = [_sorted_pair(chain[i], chain[i + 1]) for i in range(len(chain) - 1)]
        refined_of[k] = pieces
        edges.extend(pieces)
    return GammaGraph(
        vertices=sorted(vertices),
        edges=sorted(set(edges)),
        isolated=isolated,
        refined_of=refined_of,
        subdivision=sub,
        facet_of={cell.dual_vertex: fi for fi, cell in enumerate(sub.facets)},
    )


# ---------------------------------------------------------------------------
# assignments


@dataclass
class Assignment:
    """Chosen target per query point: ("edge", pair) or ("iso", point)."""

    targets: list

    def edge_targets(self):
        return [t[1] for t in self.targets if t[0] == "edge"]

    def to_json(self):
        out = []
        for t in self.targets:
            if t[0] == "edge":
                out.append({"kind": "edge", "edge": [list(t[1][0]), list(t[1][1])]})
            else:
                out.append({"kind": "interior-point", "point": list(t[1])})
        return out


def _candidate_targets(f: TropPoly, gamma: GammaGraph, q):
    """Valid targets of a point on the curve of f: refined pieces of its
    dual edge, or (at a vertex) interior points and boundary pieces of
    the dual polygon."""
    sub = gamma.subdivision
    _, arg = f.eval(q)
    if len(arg) < 2:
        raise PointNotOnCurve(f"({q[0]}, {q[1]}) is not on the curve")
    if area2(arg) == 0:
        # on an edge of the curve; the dual 1-cell is the unique
        # subdivision edge whose lifted points contain the argmax
        for k, e in enumerate(sub.edges):
            if set(arg) <= set(e.on_points):
                return [("edge", piece) for piece in gamma.refined_of[k]]
        raise AssertionError(f"dual edge of {q} not found")
    fi = gamma.facet_of.get((frac(q[0]), frac(q[1])))
    if fi is None:
        raise AssertionError(f"dual vertex of {q} not found")
    iso = [("iso", p) for p, idx in gamma.isolated.items() if idx == fi]
    pieces = []
    for k, e in enumerate(sub.edges):
        if fi in e.facets:
            pieces.extend(("edge", pc) for pc in gamma.refined_of[k])
    return iso + sorted(pieces)


class _DSU:
    def __init__(self):
        self.parent = {}
        self.hist = []

    def find(self, x):
        p = self.parent.setdefault(x, x)
        while p != self.parent[p]:
            p = self.parent[p]
        return p

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        self.hist.append(ra)
        return True

    def undo(self):
        ra = self.hist.pop()
        self.parent[ra] = ra


def find_assignment(f: TropPoly, pts):
    """Backtracking search for an assignment of at most delta-1 points;
    None if none exists.  Fail-first ordering: fewest candidate targets
    first."""
    delta = f.support.delta()
    if len(pts) > delta - 1:
        raise ValueError(f"at most {delta - 1} points allowed")
    gamma = build_gamma(f)
    cands = [_candidate_targets(f, gamma, q) for q in pts]
    order = sorted(range(len(pts)), key=lambda i: (len(cands[i]), i))
    taken = set()  # targets are pairwise distinct
    dsu = _DSU()  # and the chosen edges acyclic
    chosen = [None] * len(pts)

    def rec(k):
        if k == len(order):
            return True
        i = order[k]
        for t in cands[i]:
            kind, tgt = t
            if tgt in taken or (kind == "edge" and not dsu.union(*tgt)):
                continue
            taken.add(tgt)
            chosen[i] = t
            if rec(k + 1):
                return True
            taken.discard(tgt)
            if kind == "edge":
                dsu.undo()
        return False

    return Assignment(targets=chosen) if rec(0) else None


# ---------------------------------------------------------------------------
# generic position, with explicit completion witnesses


@dataclass
class GenposWitness:
    assignment: Assignment
    free_points: list  # [(point, target)] completing the set to delta-1

    def to_json(self):
        return {
            "assignment": self.assignment.to_json(),
            "free_points": [
                {
                    "point": [str(p[0]), str(p[1])],
                    "target": {"kind": t[0], "value": [list(map(int, v)) for v in t[1]]
                               if t[0] == "edge" else list(t[1])},
                }
                for p, t in self.free_points
            ],
        }


def _point_on_dual_cell(gamma: GammaGraph, cv, refined_edge, salt: int):
    """A point in the relative interior of the cell of the curve ``cv`` of
    gamma dual to the subdivision edge containing the refined edge."""
    sub = gamma.subdivision
    for k, pieces in gamma.refined_of.items():
        if refined_edge in pieces:
            ends = sub.edges[k].ends
            break
    else:
        raise KeyError(refined_edge)
    for e in cv.edges:
        if _sorted_pair(*e.dual) == _sorted_pair(*ends):
            if e.kind == "segment":
                t = e.length * Fraction(salt % 7 + 1, 8)
            elif e.kind == "ray":
                t = Fraction(salt % 7 + 1)
            else:
                t = Fraction(salt % 13 - 6)
            return (e.base[0] + t * e.dir[0], e.base[1] + t * e.dir[1])
    raise AssertionError("dual curve edge not found")


def in_general_position(f: TropPoly, pts):
    """True iff an assignment exists; the witness includes the free
    points completing the set so the curve is the stable curve through
    all of them.  The gamma graph and the curve that places the free
    points are f's own (``build_gamma``), built once per polynomial."""
    asg = find_assignment(f, pts)
    if asg is None:
        return False, None
    gamma = build_gamma(f)

    taken = {t[1] for t in asg.targets}
    free = [(gamma.subdivision.facets[fi].dual_vertex, ("iso", p))
            for p, fi in sorted(gamma.isolated.items()) if p not in taken]

    # every refined edge that keeps the chosen edges acyclic gets a free
    # point; a chosen edge is already joined
    dsu = _DSU()
    for e in asg.edge_targets():
        dsu.union(*e)
    salt = 0
    for e in sorted(gamma.edges):
        if dsu.union(*e):
            if gamma.curve is None:
                gamma.curve = _curve_of(f, gamma.subdivision)
            free.append((_point_on_dual_cell(gamma, gamma.curve, e, salt), ("edge", e)))
            salt += 1
    delta = f.support.delta()
    total = len(pts) + len(free)
    if total != delta - 1:
        raise AssertionError(
            f"completion produced {total} points for delta-1 = {delta - 1}"
        )
    return True, GenposWitness(assignment=asg, free_points=free)
