import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from tropgeo.trop_core import Support, TropPoly
from tropgeo.stable_ops import stable_intersection
from tropgeo.construction import realize
from tropgeo.theorems import (
    SearchBoundExceeded,
    catalog,
    cayley_bacharach_statement,
    check_statement,
    sample_inputs,
    thesis_feasible_curve,
    thesis_feasible_point,
    tropical_collinear,
)

LINE = Support.named("line")
CUBIC = Support.named("cubic")


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


def test_thesis_point_three_coincident_vertical_lines():
    v = TropPoly(Support.named("vertical"), [F(1), F(0)])
    p = thesis_feasible_point([v, v, v])
    assert p is not None and v.on_curve(p)


def test_search_bound_is_reported():
    rng = random.Random(2)
    pts = [(F(rng.randint(-40, 40)), F(rng.randint(-40, 40))) for _ in range(9)]
    with pytest.raises(SearchBoundExceeded):
        thesis_feasible_curve(Support.named("cubic"), pts + [(F(1000), F(-997))],
                              node_bound=5)


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
