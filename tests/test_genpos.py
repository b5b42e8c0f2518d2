import random
from fractions import Fraction as F

import pytest

from tropgeo.trop_core import Support, TropPoly
from tropgeo.genpos import (
    PointNotOnCurve,
    build_gamma,
    find_assignment,
    in_general_position,
)
from tropgeo.stable_ops import stable_curve

from test_trop_core import same_curve

Z = TropPoly.parse("3y+5+3y^2+0x^2+4x+0xy")


def test_gamma_of_generic_line():
    f = TropPoly.parse("0x+0y+0")
    g = build_gamma(f)
    assert g.vertices == [(0, 0), (0, 1), (1, 0)]
    assert len(g.edges) == 3
    assert g.isolated == {}


def test_gamma_isolated_point_inside_cell():
    cubic = Support.named("cubic")
    f = TropPoly(cubic, [0] * 10)  # one big cell; (1,1) is interior
    g = build_gamma(f)
    assert g.isolated == {(1, 1): 0}
    assert (1, 1) not in g.vertices


def test_a_point_at_a_vertex_takes_an_interior_point_of_its_cell():
    f = TropPoly(Support.named("cubic"), [0] * 10)  # one big cell; (1,1) is interior
    v = (F(0), F(0))  # the curve's only vertex
    assert find_assignment(f, [v]).targets == [("iso", (1, 1))]
    # (1, 1) serves one point only; the second takes an edge of the cell
    assert find_assignment(f, [v, v]).targets == [("iso", (1, 1)), ("edge", ((0, 0), (0, 1)))]
    ok, witness = in_general_position(f, [v, v])
    assert ok and witness.to_json()["assignment"][0] == {"kind": "interior-point", "point": [1, 1]}
    pts = [v, v] + [p for p, _ in witness.free_points]
    assert same_curve(stable_curve(f.support, pts), f)


def test_gamma_refines_length_two_edges():
    f = TropPoly.parse("0+(-10)x+(-10)y+(-10)xy+0x^2+0y^2")
    g = build_gamma(f)
    # every boundary edge of the big triangle has lattice length 2 and is
    # refined at its midpoint
    for pieces in g.refined_of.values():
        assert len(pieces) == 2


def test_point_not_on_curve_is_rejected():
    with pytest.raises(PointNotOnCurve):
        find_assignment(TropPoly.parse("1x+0y+1"), [(5, 0)])


def test_single_point_on_a_ray_is_assignable():
    f = TropPoly.parse("0x+0y+0")
    asg = find_assignment(f, [(-3, 0)])
    assert asg is not None and asg.targets[0][0] == "edge"


def test_weak_pascal_pairs_match_the_worked_example():
    bad = [(1, F(-3, 2)), (1, F(0))]
    assert find_assignment(Z, bad) is None
    assert in_general_position(Z, bad) == (False, None)
    good = [(4, F(-1, 2)), (3, F(2))]
    asg = find_assignment(Z, good)
    assert asg is not None
    ok, witness = in_general_position(Z, good)
    assert ok and witness is not None


def test_two_points_on_a_unit_edge_fail():
    f = TropPoly.parse("0x+0y+0")
    assert find_assignment(f, [(-3, 0), (-5, 0)]) is None


def test_completion_recovers_the_curve():
    good = [(4, F(-1, 2)), (3, F(2))]
    ok, witness = in_general_position(Z, good)
    assert ok
    pts = good + [p for p, _ in witness.free_points]
    assert len(pts) == Z.support.delta() - 1
    C = stable_curve(Z.support, pts)
    assert same_curve(C, Z)


def test_full_assignment_is_a_maximal_tree():
    # every success on delta-1 points covers all isolated vertices and the
    # edges form a spanning tree of the non-isolated skeleton
    rng = random.Random(3)
    checked = 0
    for _ in range(30):
        sup = Support.degree(2)
        P = [(F(rng.randint(-6, 6)), F(rng.randint(-6, 6))) for _ in range(5)]
        f = stable_curve(sup, P)
        gamma = build_gamma(f)
        asg = find_assignment(f, P)
        if asg is None:
            continue
        checked += 1
        iso_used = {t[1] for t in asg.targets if t[0] == "iso"}
        assert iso_used == set(gamma.isolated)
        edges = asg.edge_targets()
        verts = set()
        for e in edges:
            verts.update(e)
        n_noniso = len(gamma.vertices)
        assert len(edges) == n_noniso - 1 - 0 if not gamma.isolated else True
        # connectivity: union-find over the assigned edges
        parent = {}

        def find(x):
            while parent.setdefault(x, x) != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in edges:
            ra, rb = find(a), find(b)
            assert ra != rb  # acyclic
            parent[ra] = rb
        roots = {find(v) for v in verts}
        assert len(roots) == 1
        assert verts == set(gamma.vertices)
    assert checked >= 20


def test_sufficiency_direction_of_the_criterion():
    # whenever the search succeeds on delta-1 points, the stable curve
    # through those points reproduces the curve
    rng = random.Random(19)
    hits = 0
    for _ in range(30):
        sup = Support.degree(2)
        P = [(F(rng.randint(-5, 5)), F(rng.randint(-5, 5))) for _ in range(5)]
        f = stable_curve(sup, P)
        if find_assignment(f, P) is not None:
            assert same_curve(stable_curve(sup, P), f)
            hits += 1
    assert hits >= 20


def test_stable_curve_roundtrip_property():
    rng = random.Random(77)
    for _ in range(25):
        d = rng.randint(1, 3)
        sup = Support.degree(d)
        P = [(F(rng.randint(-6, 6)), F(rng.randint(-6, 6))) for _ in range(sup.delta() - 1)]
        f = stable_curve(sup, P)
        ok, _witness = in_general_position(f, P)
        assert ok


def test_too_many_points_are_rejected_before_any_subdivision(monkeypatch):
    import tropgeo.genpos as genpos

    def refused(f):
        raise AssertionError("subdivided before validating the point count")

    monkeypatch.setattr(genpos, "dual_subdivision", refused)
    f = TropPoly.parse("0x+0y+0")
    with pytest.raises(ValueError, match="at most 2 points allowed"):
        in_general_position(f, [(-3, 0), (-5, 0), (0, -4)])


def test_general_position_reuses_the_stored_subdivision(monkeypatch):
    import tropgeo.genpos as genpos
    import tropgeo.trop_core as trop_core
    from tropgeo.construction import realize
    from tropgeo.theorems import catalog, sample_inputs

    s = catalog()["weak_pascal"]
    r = realize(s.hypothesis, sample_inputs(s.hypothesis, random.Random(0)))
    calls = []
    build = trop_core.dual_subdivision

    def counted(f):
        calls.append(f)
        return build(f)

    monkeypatch.setattr(trop_core, "dual_subdivision", counted)
    monkeypatch.setattr(genpos, "dual_subdivision", counted)
    for pts, cv in s.genpos_pairs:
        ok, witness = in_general_position(r.values[cv], [r.values[p] for p in pts])
        assert ok and any(kind == "edge" for _, (kind, _) in witness.free_points)
    # the three pairs share Z's gamma: one subdivision, none for the curve
    assert calls == [r.values["Z"]] and {cv for _, cv in s.genpos_pairs} == {"Z"}
