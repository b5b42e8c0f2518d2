import hashlib
import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import replace
from fractions import Fraction as F
from importlib import resources

import pytest

from tropgeo.trop_core import Support, TropPoly, curve, mixed_volume
from tropgeo.residual import (
    LIKELY_EMPTY,
    PROVABLY_EMPTY,
    Jet,
    ResidualField,
    RPoly,
    residual_terms,
)
from tropgeo.cli import main
from tropgeo.construction import (
    CERT_ALWAYS,
    CERT_NEVER,
    CERT_UNDECIDABLE,
    Construction,
    CurveThrough,
    IncidenceStructure,
    Intersect,
    complete_to_construction,
    construction_to_incidence,
    is_admissible,
    lift_acyclic,
    lift_conditions,
    realize,
    subconstruction_to,
    validate_construction,
    verify_witness,
)
from tropgeo.theorems import catalog
from tropgeo.trop_linalg import cramer_stable
from tropgeo import construction, dsl

LINE = Support.named("line")
F10007 = ResidualField(10007)


def catalog_construction(name):
    """The construction of a file in the package's .tgc catalog."""
    path = resources.files("tropgeo") / "catalog" / f"{name}.tgc"
    return dsl.to_construction(dsl.parse(path.read_text()))


# ---------------------------------------------------------------------------
# validation


def test_pappus_hypothesis_is_a_valid_exact_construction():
    d = validate_construction(catalog()["pappus"].hypothesis)
    assert d.ok and d.exact


def test_validation_computes_each_mixed_volume_once(monkeypatch):
    # lines L_i through a_i a_(i+1); q_i = L_i meet L_(i+2): 10 line pairs
    n = 12
    text = "\n".join(
        [f"input point a{i}" for i in range(n + 1)]
        + [f"curve L{i} = through a{i} a{i + 1} support line" for i in range(n)]
        + [f"points {{q{i}}} = intersect L{i} L{i + 2}" for i in range(n - 2)]
    )
    c = dsl.to_construction(dsl.parse(text + "\n"))
    calls = []

    def counting(d1, d2):
        calls.append((d1, d2))
        return mixed_volume(d1, d2)

    monkeypatch.setattr(construction, "mixed_volume", counting)
    d = validate_construction(c)
    assert d.ok and d.exact
    assert calls == [(LINE, LINE)]


def test_point_with_three_predecessors_rejected():
    g = IncidenceStructure(
        points=["p"],
        blocks=[("a", LINE), ("b", LINE), ("c", LINE)],
        flags=[("p", "a"), ("p", "b"), ("p", "c")],
        orientation={("p", "a"): "bp", ("p", "b"): "bp", ("p", "c"): "bp"},
    )
    d = validate_construction(g)
    assert not d.ok
    assert any("3 direct predecessors" in e for e in d.errors)


def test_desargues_needs_an_orientation():
    pts = ["A", "B", "C", "A'", "B'", "C'", "P", "Q", "R", "O"]
    blocks = ["AA'O", "BB'O", "CC'O", "ABP", "A'B'P", "ACQ", "A'C'Q", "BCR", "B'C'R", "PQR"]
    flags = []
    for b in blocks:
        # block names encode their three points
        members = []
        rest = b
        for p in sorted(pts, key=len, reverse=True):
            while p in rest:
                members.append(p)
                rest = rest.replace(p, "", 1)
        for p in members:
            flags.append((p, b))
    g = IncidenceStructure(points=pts, blocks=[(b, LINE) for b in blocks], flags=flags)
    assert not g.is_acyclic()  # plenty of cycles in the Levi graph
    with pytest.raises(ValueError):
        validate_construction(g)


def test_oriented_cycle_is_reported():
    # p feeds a, a feeds q, q feeds b and b feeds p
    flags = [("p", "a"), ("q", "a"), ("q", "b"), ("p", "b")]
    g = IncidenceStructure(
        points=["p", "q"],
        blocks=[("a", LINE), ("b", LINE)],
        flags=flags,
        orientation=dict(zip(flags, ("pb", "bp", "pb", "bp"))),
    )
    d = validate_construction(g)
    assert d.errors == ["oriented cycle through 'a'"]
    with pytest.raises(ValueError, match="oriented cycle"):
        complete_to_construction(g)


# ---------------------------------------------------------------------------
# completion


def test_complete_single_predecessor_point_adds_a_line():
    g = IncidenceStructure(
        points=["q"], blocks=[("C", LINE)], flags=[("q", "C")],
        orientation={("q", "C"): "bp"},
    )
    c = complete_to_construction(g)
    assert len(c.input_curves) == 2  # C plus one auxiliary line
    assert validate_construction(c).exact
    assert isinstance(c.steps[0], Intersect) and "q" in c.steps[0].names


def test_complete_is_idempotent_on_exact_constructions():
    pp = catalog()["pappus"].hypothesis
    c = complete_to_construction(construction_to_incidence(pp))
    assert validate_construction(c).exact
    assert sorted(n for s in c.steps for n in s.new_nodes) == sorted(
        n for s in pp.steps for n in s.new_nodes
    )
    assert not [n for n in c.input_points if n.startswith("_aux")]


def test_complete_pads_curve_steps_with_input_points():
    g = IncidenceStructure(
        points=["q"], blocks=[("K", Support.named("conic"))],
        flags=[("q", "K")], orientation={("q", "K"): "pb"},
    )
    c = complete_to_construction(g)
    assert validate_construction(c).exact
    step = c.steps[0]
    assert isinstance(step, CurveThrough) and len(step.through) == 5


# ---------------------------------------------------------------------------
# admissibility


def test_fano_and_pappus_are_admissible():
    assert is_admissible(catalog()["fano"].hypothesis)[0]
    assert is_admissible(catalog()["pappus"].hypothesis)[0]


def test_depth_one_constructions_are_admissible():
    c = Construction(input_points=["a", "b"])
    c.steps.append(CurveThrough(name="l", support=LINE, through=["a", "b"]))
    assert is_admissible(c)[0]


def test_double_path_witness():
    ok, wit = is_admissible(catalog_construction("abc_double_path"))
    assert not ok
    assert wit.source == "a" and wit.target == "p"
    assert len(wit.paths) == 2 and wit.paths[0] != wit.paths[1]


def test_vector_addition_not_admissible():
    ok, wit = is_admissible(catalog_construction("vector_addition"))
    assert not ok and wit is not None


# ---------------------------------------------------------------------------
# realization


def test_abc_realization_gives_p_ne_a():
    c = catalog_construction("abc_double_path")
    r = realize(c, {"a": (0, 0), "b": (-2, 1), "c": (-1, 3)})
    assert r.values["p"] == (F(0), F(1))
    assert r.values["p"] != r.values["a"]


def test_all_degenerate_input_realizes_at_the_origin():
    c = catalog_construction("four_lines")
    r = realize(c, {n: (0, 0) for n in c.input_points})
    for s in c.steps:
        if isinstance(s, Intersect):
            for q in s.names:
                assert r.values[q] == (F(0), F(0))
        else:
            assert all(v == 0 for v in r.values[s.name].coeffs)


def _ray_of_point(line_poly: TropPoly, p):
    """Which ray direction of a tropical line contains the point."""
    cx = curve(line_poly)
    for e in cx.edges:
        if e.base == tuple(p):
            return "vertex"
    for e in cx.edges:
        d = e.dir
        b = e.base
        t = None
        if d[0] and (p[0] - b[0]) % d[0] == 0:
            t = F(p[0] - b[0], d[0])
        elif d[1]:
            t = F(p[1] - b[1], d[1])
        if t is not None and t > 0:
            if (b[0] + t * d[0], b[1] + t * d[1]) == tuple(p):
                return d
    return None


def test_most_degenerate_input_is_liftable():
    # every node at the origin, all curves all-zero: the construction is
    # still realizable algebraically with all elements of order zero
    c = catalog_construction("four_lines")
    r = realize(c, {n: (0, 0) for n in c.input_points})
    rep = lift_conditions(c, r, field=F10007, seed=77, trials=6)
    assert rep.successes and rep.successes >= 4
    assert verify_witness(c, r, rep.witness_jets) == []


def test_verify_witness_reports_each_violation():
    c = Construction(input_points=["a", "b"], steps=[CurveThrough(name="m", support=LINE, through=["a", "b"])])
    r = realize(c, {"a": (F(0), F(0)), "b": (F(1), F(3))})
    jets = lift_conditions(c, r, field=F10007, seed=1, trials=4).witness_jets
    assert verify_witness(c, r, jets) == []
    off = replace(r, values={**r.values, "a": (F(-50), F(7))})
    assert verify_witness(c, off, jets) == ["a not on tropical curve m"]
    assert verify_witness(c, r, {**jets, "a": (Jet.degenerate(0), jets["a"][1])}) == [
        "a has non-principal witness jets"
    ]
    lost = {pt: Jet.degenerate(j.order) for pt, j in jets["m"].items()}
    assert verify_witness(c, r, {**jets, "m": lost}) == [
        f"residual terms of m at {q}: no principal jet in the lift" for q in "ab"
    ]
    bx, by = jets["b"]
    moved = (Jet.principal(bx.order, bx.coeff * 2), by)
    [msg] = verify_witness(c, r, {**jets, "b": moved})
    assert msg.startswith("residual incidence of b on m fails: ")


@pytest.mark.parametrize("name", ["pappus", "fano", "pascal_converse"])
def test_symbolic_witnesses_are_sound(name):
    # a symbolic intersection point is homogeneous, (X : Y : Z), and is
    # checked on each curve's residual polynomial homogenized to the
    # curve support's largest degree; fresh residues at one point break
    # the incidences through it
    from tropgeo.theorems import sample_inputs

    c = catalog_construction(name)
    witnessed = 0
    for t in range(20):
        r = realize(c, sample_inputs(c, random.Random(t)))
        jets = lift_conditions(c, r).witness_jets
        if jets is None:
            continue
        witnessed += 1
        assert verify_witness(c, r, jets) == [], (name, t)
        homogeneous = next(n for n, j in jets.items() if isinstance(j, tuple) and len(j) == 3)
        for q in (c.input_points[0], homogeneous):
            fresh = {**jets, q: tuple(Jet.principal(j.order, RPoly.var(f"fresh{k}"))
                                      for k, j in enumerate(jets[q]))}
            bad = verify_witness(c, r, fresh)
            assert bad and all(m.startswith(f"residual incidence of {q} on ") for m in bad), (name, t, q)
    assert witnessed == 20, (name, witnessed)


def test_lift_does_no_jet_arithmetic(monkeypatch):
    # every residual condition is a determinant of residues on a tight
    # graph, and every jet the lift makes is one order and one residue
    from tropgeo.theorems import sample_inputs

    calls = []
    for op in ("__add__", "__sub__", "__neg__", "__mul__"):
        def counted(*args, op=op, orig=getattr(Jet, op)):
            calls.append(op)
            return orig(*args)

        monkeypatch.setattr(Jet, op, counted)
    symbolic = 0
    for path in sorted((resources.files("tropgeo") / "catalog").iterdir()):
        doc = dsl.parse(path.read_text())
        c = dsl.to_construction(doc)
        inputs = sample_inputs(c, random.Random(3))
        inputs.update(doc.realization_map())
        r = realize(c, inputs)
        lift_conditions(c, r, field=F10007, seed=3, trials=4)
        try:
            lift_conditions(c, r)
            symbolic += 1
        except construction.SymbolicModeUnsupported:
            pass
    assert calls == []
    assert symbolic >= 5, symbolic


def test_numeric_lifts_compute_every_determinant_in_their_field(monkeypatch):
    # a numeric pass names its ring, F_p, once: every entry and the zero of
    # every masked determinant and expansion lie in that field, even where
    # a point jet is degenerate and a constant monomial's residue is one
    from collections import Counter

    from tropgeo import stable_ops, trop_linalg
    from tropgeo.residual import FpElt

    checked, mixed = Counter(), Counter()
    current = []

    def in_field(fn):
        def wrapped(rows, zero):
            entries = [zero, *(e for row in rows for e in row.values())]
            checked[current[-1]] += 1
            mixed[current[-1]] += not all(type(e) is FpElt and e.p == F10007.p for e in entries)
            return fn(rows, zero)
        return wrapped

    monkeypatch.setattr(trop_linalg, "_laplace", in_field(trop_linalg._laplace))
    monkeypatch.setattr(stable_ops, "masked_det", in_field(trop_linalg.masked_det))
    for path in sorted((resources.files("tropgeo") / "catalog").iterdir()):
        current.append(path.stem)
        for seed in range(6):
            with redirect_stdout(io.StringIO()):
                main(["certify", str(path), "--trials", "8", "--seed", str(seed)])
    assert len(checked) == 9 and min(checked.values()) >= 50, checked
    assert sum(mixed.values()) == 0, mixed


def test_four_lines_always_share_a_ray_direction():
    c = catalog_construction("four_lines")
    rng = random.Random(123)
    for _ in range(30):
        inputs = {n: (F(rng.randint(-9, 9)), F(rng.randint(-9, 9))) for n in c.input_points}
        r = realize(c, inputs)
        a = r.values["a"]
        dirs = []
        for nm in ("l1", "l2", "l3", "l4"):
            d = _ray_of_point(r.values[nm], a)
            assert d is not None
            dirs.append(d)
        vertex_hits = [d for d in dirs if d == "vertex"]
        ray_dirs = [d for d in dirs if d != "vertex"]
        assert vertex_hits or len(set(ray_dirs)) < len(ray_dirs)


# ---------------------------------------------------------------------------
# lifting


def test_abc_symbolic_lift_is_provably_empty():
    c = catalog_construction("abc_double_path")
    r = realize(c, {"a": (0, 0), "b": (-2, 1), "c": (-1, 3)})
    rep = lift_conditions(c, r)
    assert rep.verdict == PROVABLY_EMPTY
    final = rep.steps[-1]
    assert final.certificate == CERT_NEVER
    # the torus condition on the second coordinate is the zero polynomial
    zero_origins = [o for o, v in final.conditions if not v]
    assert any("torus y" in o for o in zero_origins)


def test_symbolic_lift_takes_no_field():
    # the field alone picks the mode: none is symbolic over Q, F_p numeric
    from tropgeo.theorems import sample_inputs

    c = catalog_construction("fano")
    r = realize(c, sample_inputs(c, random.Random(0)))
    rep = lift_conditions(c, r)
    assert rep.field is None and rep.trials is None
    assert (rep.to_json()["mode"], rep.to_json()["field"]) == ("symbolic", "Q")
    rep = lift_conditions(c, r, ResidualField(61), trials=2)
    assert rep.field == ResidualField(61) and rep.trials == 2
    assert (rep.to_json()["mode"], rep.to_json()["field"]) == ("numeric", "F_61")


def test_symbolic_lift_stops_at_a_nonlinear_step_before_its_resultants(monkeypatch):
    # the symbolic corner coefficients of two quintics take seconds; a
    # step whose local systems are not linear must not compute them
    c = Construction(input_curves=[("f", Support.degree(5)), ("g", Support.degree(5))])
    c.steps.append(Intersect(names=[f"p{k}" for k in range(25)], curves=("f", "g")))
    rng = random.Random(1)
    r = realize(c, {n: TropPoly(Support.degree(5), [F(rng.randint(-2, 2)) for _ in range(21)])
                    for n in ("f", "g")})

    def unreachable(*args, **kwargs):
        raise AssertionError("resultants computed for an unsupported step")

    monkeypatch.setattr(construction, "intersection_step_conditions", unreachable)
    with pytest.raises(construction.SymbolicModeUnsupported, match="not linear"):
        lift_conditions(c, r)


def test_a_singular_symbolic_local_system_is_a_zero_local_det():
    # four_lines at sample_inputs t = 8: the residual lines of l2 and l3
    # at their stable point are parallel, so the homogeneous point
    # (X : Y : Z) has Z = 0, a "local det" condition that is the zero
    # polynomial.  The symbolic lift is then provably empty, with the
    # certificates of the numeric lift, which finds no torus solution there
    from tropgeo.theorems import sample_inputs

    c = catalog_construction("four_lines")
    r = realize(c, sample_inputs(c, random.Random(8)))
    sym = lift_conditions(c, r)
    num = lift_conditions(c, r, field=F10007, seed=0, trials=8)
    assert (sym.verdict, num.verdict) == (PROVABLY_EMPTY, LIKELY_EMPTY)
    assert [s.certificate for s in sym.steps] == [s.certificate for s in num.steps]
    step = sym.steps[7]
    assert step.certificate == CERT_NEVER
    det = [v for o, v in step.conditions if o.startswith("step#7 intersect l2*l3 local det at ")]
    assert det == [RPoly()]


ABC_TWICE = """\
input point a
input point b
input point c
input point d
input point e
curve l1 = through a b support line
curve l2 = through a c support line
points {p} = intersect l1 l2
curve m1 = through d b support line
curve m2 = through d c support line
points {r} = intersect m1 m2
curve l3 = through p r support line
curve l4 = through b e support line
points {q} = intersect l3 l4
realize a = (0, 0)
realize b = (-2, 1)
realize c = (-1, 3)
realize d = (-3, 5)
realize e = (3, 4)
"""


@pytest.mark.parametrize("mode,verdict,code,digest", [
    ("symbolic", PROVABLY_EMPTY, 1,
     "e2acf3e00e38daea9baf850a421d824a7f053fd96d418811807315a5abab6045"),
    ("sample", LIKELY_EMPTY, 1,
     "4f3cc5db9e03d88745f493b4105dd7b04bd223613eab876170394f59087306e2"),
], ids=["symbolic", "sample"])
def test_local_solve_notes_lost_information_in_both_modes(tmp_path, mode, verdict, code,
                                                          digest):
    # the abc double path done twice: p and r carry degenerate jets, so
    # the line l3 through them has no principal jet at q's stable point
    # (the digests re-recorded when the note came to print that point as
    # realize does)
    path = tmp_path / "abc_twice.tgc"
    path.write_text(ABC_TWICE)
    doc = dsl.parse(ABC_TWICE)
    c = dsl.to_construction(doc)
    r = realize(c, doc.realization_map())
    rep = lift_conditions(c, r, F10007 if mode == "sample" else None, seed=4)
    assert rep.verdict == verdict
    last = rep.steps[8]
    assert last.certificate == CERT_UNDECIDABLE
    assert last.notes == [
        "local solve at (0, 1): no principal jet in the lift"
    ]
    out = io.StringIO()
    with redirect_stdout(out):
        rc = main(["lift", str(path), "--mode", mode, "--seed", "4", "--json", "-"])
    assert rc == code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


def test_local_solve_of_conics_with_a_common_factor_loses_information():
    # (x - y)(x + y + 1) and (x - y)(x + 2y + 3) share the line x = y,
    # whose torus zeros form a curve: the eliminant vanishes, and the
    # solve ends in the error instead of a root list
    from tropgeo.residual import InformationLostError
    from tropgeo.stable_ops import point_supports

    conic = Support.named("conic")
    f, g = ({pt: Jet.principal(0 if pt in terms else -1, F10007.elt(terms.get(pt, 1))) for pt in conic.points}
            for terms in ({(2, 0): 1, (1, 0): 1, (0, 1): -1, (0, 2): -1},
                          {(2, 0): 1, (1, 1): 1, (1, 0): 3, (0, 1): -3, (0, 2): -2}))
    b = (F(0), F(0))
    out = construction._local_solve(f, g, b, F10007, F10007.zero, "t", point_supports(f, g, b))
    assert isinstance(out, InformationLostError)
    assert str(out) == "residual eliminant vanishes; not zero-dimensional"


def test_transversal_line_intersection_is_always_compatible():
    # a vertex-free edge-edge crossing: every vertex condition of every
    # resultant is a monomial
    c = Construction(input_curves=[("f", LINE), ("g", LINE)])
    c.steps.append(Intersect(names=["p"], curves=("f", "g")))
    r = realize(c, {
        "f": TropPoly.parse("0x+0y+0"),
        "g": TropPoly.parse("(-10)x+0y+(-4)"),
    })
    assert r.values["p"] == (F(0), F(-4))
    rep = lift_conditions(c, r, field=F10007, seed=1, trials=4)
    assert rep.steps[0].certificate == CERT_ALWAYS
    assert rep.steps[0].fixed


def test_fano_pappus_numeric_lift_with_sound_witnesses():
    rng = random.Random(55)
    for stmt in (catalog()["fano"], catalog()["pappus"]):
        c = stmt.hypothesis
        good = 0
        for t in range(10):
            inputs = {n: (F(rng.randint(-8, 8)), F(rng.randint(-8, 8)))
                      for n in c.input_points}
            r = realize(c, inputs)
            rep = lift_conditions(c, r, field=F10007, seed=100 + t, trials=3)
            if rep.witness_jets is not None:
                assert verify_witness(c, r, rep.witness_jets) == []
                good += 1
        assert good >= 9


def test_input_curve_intersections_lift_after_the_shift_to_the_origin():
    # two residual polynomials that share a power of y have no common
    # torus zero on it: the local solve divides the monomial content out,
    # so its eliminant does not vanish and no step is refused as not
    # zero-dimensional
    from tropgeo.theorems import sample_inputs

    for name in ("chasles", "cayley_bacharach_3_3"):
        c = catalog()[name].hypothesis
        witnessed = 0
        for t in range(10):
            r = realize(c, sample_inputs(c, random.Random(t)))
            rep = lift_conditions(c, r, field=F10007, seed=0, trials=8)
            notes = [n for s in rep.steps for n in s.notes]
            assert not any("not zero-dimensional" in n for n in notes), (name, t, notes)
            if rep.witness_jets is not None:
                assert verify_witness(c, r, rep.witness_jets) == [], (name, t)
                witnessed += 1
        # at t = 7 some local systems have no root in F_p
        assert witnessed == 9, (name, witnessed)


def _catalog_doc(name):
    """The parsed catalog file; vector_addition_z is vector_addition
    without its last line l9, which symbolic mode runs in full."""
    text = (resources.files("tropgeo") / "catalog" / f"{name.removesuffix('_z')}.tgc").read_text()
    if name.endswith("_z"):
        text = "".join(ln for ln in text.splitlines(True) if not ln.startswith("curve l9 "))
    return dsl.parse(text)


def _failed_local_solves(step):
    """The stable points of an intersection step whose local solve failed:
    a vanishing "no torus solution" condition or a note of lost information."""
    return ({o.rsplit(" at ", 1)[1] for o, v in step.conditions
             if " no torus solution at " in o and not v}
            | {n.split(": ", 1)[0].removeprefix("local solve at ")
               for n in step.notes if n.startswith("local solve at ")})


def _evaluates_to(sym, num, sample):
    """Whether symbolic node jets evaluated at sample are the numeric jets
    num, with the same kinds and orders: a homogeneous point (X, Y, Z) is
    (X/Z, Y/Z), and a curve's coefficients are num's times one nonzero
    factor."""
    def value(j):
        return F10007.elt(j.coeff.evaluate(sample))

    if isinstance(num, tuple):
        z = value(sym[2]) if len(sym) == 3 else F10007.elt(1)
        return z and all((s.kind, s.order) == (n.kind, n.order) and (
            not n.is_principal or value(s) == n.coeff * z) for s, n in zip(sym, num))
    if any((sym[i].kind, sym[i].order) != (n.kind, n.order) for i, n in num.items()):
        return False
    return len({value(sym[i]) / n.coeff for i, n in num.items() if n.is_principal}) <= 1


@pytest.mark.parametrize("name", ["fano", "pappus", "pascal_converse", "abc_double_path",
                                  "vector_addition_z"])
def test_symbolic_conditions_vanish_where_the_numeric_pass_does(name):
    # one symbolic pass, its conditions evaluated at a residue sample in
    # F_10007, against a numeric pass at the same residues: per step the
    # same conditions vanish.  A symbolic point is (X : Y : Z) and the
    # numeric one (X/Z, Y/Z), so the two passes' conditions differ by
    # powers of the local determinants Z, which the symbolic pass keeps
    # nonzero: where its local det, torus x or torus y condition vanishes
    # at b, the numeric local solve at b fails.  Past the first step with
    # a vanishing condition that is not the zero polynomial, the numeric
    # jets are degenerate where the symbolic ones are not, so the
    # comparison stops there.  A pass compared to its end also has the
    # numeric pass's jets: (X/Z, Y/Z) at each point, and each curve's
    # coefficients up to one nonzero factor.
    from tropgeo.theorems import sample_inputs

    doc = _catalog_doc(name)
    c = dsl.to_construction(doc)
    local = (" local det at ", " torus x at ", " torus y at ")
    compared = seed = full = 0
    while compared < 20:
        inputs = sample_inputs(c, random.Random(seed))
        inputs.update(doc.realization_map())
        r = realize(c, inputs)
        seed += 1
        try:
            sym, conds, sym_jets, _ = construction._propagate(c, r, RPoly.var, None, {})
        except construction.SymbolicModeUnsupported:
            continue
        rng = random.Random(1000 + seed)
        sample = {v: F10007.random_nonzero(rng) for v in conds.variables}
        num, _, num_jets, _ = construction._propagate(c, r, sample.__getitem__, F10007, {})
        compared += 1
        for s, n in zip(sym, num, strict=True):
            assert all(isinstance(v, RPoly) for _, v in s.conditions), (name, s.index)
            vanish = [(o, v) for o, v in s.conditions if not v.evaluate(sample)]
            sym_zero = {o for o, _ in vanish if not any(k in o for k in local)}
            num_zero = {o for o, v in n.conditions if not v and " no torus solution at " not in o}
            assert sym_zero == num_zero, (name, seed, s.index)
            failed = {o.rsplit(" at ", 1)[1] for o, _ in vanish if any(k in o for k in local)}
            assert failed | _failed_local_solves(s) == _failed_local_solves(n), (name, seed, s.index)
            if any(v for _, v in vanish):
                break
        else:
            full += 1
            for node, nj in num_jets.items():
                assert _evaluates_to(sym_jets[node], nj, sample), (name, seed, node)
    # a sample makes a nonzero condition vanish with probability about
    # (its degree)/p, so almost every pass is compared to its end
    assert full >= 18, (name, full)


def test_vector_addition_certificates():
    c = catalog_construction("vector_addition")
    r = realize(c, {"a": (0, 0), "b": (-1, -1), "c": (-2, -2), "q": (2, -1)})
    assert r.values["z"] == (F(0), F(0))
    rep = lift_conditions(c, r, field=F10007, seed=11, trials=4)
    final = [s for s in rep.steps if "l9" in s.nodes][0]
    assert final.certificate == CERT_UNDECIDABLE

    sub = subconstruction_to(c, "z")
    rz = realize(sub, {"a": (0, 0), "b": (-1, -1), "c": (-2, -2), "q": (2, -1)})
    repz = lift_conditions(sub, rz, field=F10007, seed=11, trials=6)
    assert repz.successes and repz.successes >= 5


def test_failed_numeric_lift_reports_a_pass_with_fewest_failed_steps():
    # with these inputs passes 0-6 fail at l9 only (step 44) and pass 7
    # fails 25 steps after an accidental vanishing at step 11; reporting
    # pass 7 made steps 11 and 20 NeverLiftable and l9 GenericLiftFails
    c = catalog_construction("vector_addition")
    r = realize(c, {"a": (-6, -7), "b": (-7, -8), "c": (-8, -9), "q": (-4, -8)})
    rep = lift_conditions(c, r, field=F10007, seed=653219, trials=8)
    assert rep.successes == 0
    assert [s.index for s in rep.steps if s.some_zero] == [44]
    assert [s.certificate for s in rep.steps if "l9" in s.nodes] == [CERT_UNDECIDABLE]


def test_weak_pascal_general_position_instance_lifts():
    # the almost-admissible case: when the double-path point pairs are in
    # general position the numeric lift finds a witness
    stmt = catalog()["weak_pascal"]
    inputs = {
        "Z": TropPoly.parse("3y+5+3y^2+0x^2+4x+0xy"),
        "L1": TropPoly.parse("1y+0x+0"),
        "L2": TropPoly.parse("0y+0x+2"),
        "L3": TropPoly.parse("(9/2)y+0x+3"),
    }
    from tropgeo.construction import labeling_choices
    from tropgeo.genpos import in_general_position

    r0 = realize(stmt.hypothesis, inputs)
    for lab in labeling_choices(stmt.hypothesis, r0):
        r = realize(stmt.hypothesis, inputs, labeling=lab)
        pre = all(
            in_general_position(r.values[cv], [r.values[p] for p in pts])[0]
            for pts, cv in stmt.genpos_pairs
        )
        if not pre:
            continue
        rep = lift_conditions(stmt.hypothesis, r, field=F10007,
                              seed=5, trials=40)
        assert rep.successes
        return
    pytest.fail("no labeling satisfied the general position precondition")


def test_a_relabeled_realization_on_a_shared_prefix_is_the_fresh_one():
    # every labeling of 64 weak_pascal trials, the all-zero and the
    # repeated-point inputs among them, realized against the default
    # realization gives the realization from scratch, and takes the
    # default's Z meets L_i unsolved
    from tropgeo.construction import _realize, labeling_choices
    from tropgeo.residual import trial_rng
    from tropgeo.theorems import sample_inputs

    c = catalog()["weak_pascal"].hypothesis
    counts = []
    for t in range(64):
        inputs = sample_inputs(c, trial_rng(37, t), {0: "zero", 1: "repeat"}.get(t))
        r0 = _realize(c, inputs)
        labelings = list(labeling_choices(c, r0))
        counts.append(len(labelings))
        for lab in labelings:
            shared = _realize(c, inputs, labeling=lab, base=r0)
            fresh = _realize(c, inputs, labeling=lab)
            assert shared.values == fresh.values
            assert shared.cramer.keys() == fresh.cramer.keys()
            assert all(shared.cramer[k].values == fresh.cramer[k].values for k in fresh.cramer)
            assert shared.intersections.keys() == fresh.intersections.keys()
            assert all(shared.intersections[k].points == fresh.intersections[k].points
                       for k in fresh.intersections)
            assert all(shared.intersections[k] is r0.intersections[k] for k in range(3))
    assert max(counts) == 8  # both orders at each of the three meets


def _line_chain(n_lines, rng):
    """Lines L_i through a_i a_(i+1), and q_i = L_i meet L_(i+2): a
    construction of 2*n_lines - 2 steps and one realization of it."""
    c = Construction(input_points=[f"a{i}" for i in range(n_lines + 1)])
    c.steps += [CurveThrough(f"L{i}", LINE, [f"a{i}", f"a{i + 1}"]) for i in range(n_lines)]
    c.steps += [Intersect([f"q{i}"], (f"L{i}", f"L{i + 2}")) for i in range(n_lines - 2)]
    return c, realize(c, {n: (rng.randint(-999, 999), rng.randint(-999, 999)) for n in c.input_points})


def test_lines_and_line_theses_run_no_assignment(monkeypatch):
    # every line through two points and every meet of two lines is a
    # 2 x 3 Cramer system, decided in closed form without the Hungarian
    from tropgeo import trop_linalg
    from tropgeo.theorems import sample_inputs, thesis_feasible_curve

    calls = []
    hungarian = trop_linalg._hungarian_max
    monkeypatch.setattr(trop_linalg, "_hungarian_max", lambda w: calls.append(len(w)) or hungarian(w))
    rng = random.Random(6)
    realized = {}
    for name in ("pappus", "fano"):
        s = catalog()[name]
        realized[name] = construction._realize(s.hypothesis, sample_inputs(s.hypothesis, rng))
        assert len(realized[name].cramer) == len(s.hypothesis.steps)
    fano = catalog()["fano"].thesis
    assert fano.support == LINE
    assert thesis_feasible_curve(LINE, [realized["fano"].values[n] for n in fano.through]) is not None
    # three input points, a witness search that fails and reads regular flags
    assert thesis_feasible_curve(LINE, [(0, 0), (1, 3), (4, 1)]) is None
    c, _ = _line_chain(65, rng)
    assert len(c.steps) == 128
    r = construction._realize(c, {n: (rng.randint(-999, 999), rng.randint(-999, 999)) for n in c.input_points})
    assert len(r.cramer) == 128
    assert calls == []
    cramer_stable([[0, 1, 2, 3], [3, 2, 1, 0], [1, 0, 0, 1]])  # the hook does count
    assert calls == [4]


@pytest.mark.parametrize("kw,digest", [
    ({"field": F10007, "seed": 0, "trials": 4},
     "9d6de7d93d08ed2f751fb56d109f5badc52980926fd390c1b86af99dcee7ff11"),
    ({},
     "f3b2990924ab641d79ecaa461a1599fd6263fc2623e1a31702175a01f7672ba1"),
], ids=["numeric", "symbolic"])
def test_line_chain_reports_are_unchanged(kw, digest):
    # 31 line∩line steps with principal input jets, recorded before two
    # lines were lifted by their 2 x 3 masked minors (the symbolic digest
    # again when its local-det origins came to print their stable points
    # as realize does)
    c, r = _line_chain(33, random.Random(5))
    report = json.dumps(lift_conditions(c, r, **kw).to_json(), sort_keys=True)
    assert hashlib.sha256(report.encode()).hexdigest() == digest


def _plan_cases():
    from tropgeo.theorems import sample_inputs

    # at weak_pascal's realizations 7 and 9 some local solves fail in
    # some trials only, so trials 2 to 15 meet keys that trials 0 and 1 did not
    for name, ks in (("pappus", (0, 1, 2)), ("chasles", (0, 1, 2)), ("weak_pascal", (7, 9))):
        hyp = catalog()[name].hypothesis
        for k in ks:
            r = realize(hyp, sample_inputs(hyp, random.Random(k)))
            yield pytest.param(name, hyp, r, id=f"{name}-{k}")
    yield pytest.param("chain", *_line_chain(33, random.Random(5)), id="chain-64")


@pytest.mark.parametrize("name, c, r", list(_plan_cases()))
def test_lift_plan_runs_the_tropical_work_once_per_step_and_input_kinds(monkeypatch, name, c, r):
    # per lift_conditions call, the corner assignments, monomial flags
    # and the argmax supports of the local solves run only when an
    # intersection step meets a new (step, input-jet kinds) key, whatever
    # the trial count, and no Cramer solve runs: curve steps read theirs
    # from the realization
    from collections import Counter

    from tropgeo import stable_ops
    from tropgeo.residual import RPoly

    counts = Counter()
    for fn in ("_hungarian_max", "_cramer", "residual_support", "_monomial_flag"):
        def counted(*args, fn=fn, orig=getattr(stable_ops, fn)):
            counts[fn] += 1
            return orig(*args)
        monkeypatch.setattr(stable_ops, fn, counted)
    symbols = []  # a numeric lift builds no RPoly variable
    rpoly_var = RPoly.var
    monkeypatch.setattr(RPoly, "var", staticmethod(lambda *args: symbols.append(args) or rpoly_var(*args)))
    orders = {}  # key -> the orders of its input jets, over every trial
    step_key = construction._step_key

    def recorded_key(idx, ins):
        key = step_key(idx, ins)
        met = tuple(j.order for jets in ins for j in jets.values())
        assert orders.setdefault(key, met) == met, key
        return key

    monkeypatch.setattr(construction, "_step_key", recorded_key)
    built = {}  # key -> the counted calls made while building its plan
    step_plan = construction._step_plan

    def recorded_plan(plans, idx, ins, build):
        before, new = Counter(counts), construction._step_key(idx, ins) not in plans
        plan = step_plan(plans, idx, ins, build)
        work = counts - before
        if new:
            built[construction._step_key(idx, ins)] = work
        assert new or not work, (idx, work)
        return plan

    monkeypatch.setattr(construction, "_step_plan", recorded_plan)
    runs = {}
    for trials in (2, 16):
        counts.clear()
        built.clear()
        lift_conditions(c, r, field=F10007, seed=3, trials=trials)
        assert counts == sum(built.values(), Counter())
        runs[trials] = dict(built), Counter(counts)
    (few, few_total), (many, many_total) = runs[2], runs[16]
    assert all(many[k] == w for k, w in few.items() if k in many)
    assert many_total == few_total + sum((w for k, w in many.items() if k not in few), Counter())
    assert (len(many) > len(few)) == (name == "weak_pascal")
    assert symbols == []
    # chasles intersects two cubics, whose Sylvester dimension 6 is past
    # SHAPE_BOUND; the line∩line steps of pappus and of the chain, whose
    # input jets are principal here, are read off their Cramer solutions
    # and build no plan
    expected = {"_hungarian_max", "residual_support"}
    expected |= {"_monomial_flag"} if name != "chasles" else set()
    assert set(many_total) == (set() if name in ("pappus", "chain") else expected)


@pytest.mark.parametrize("name, c, r", list(_plan_cases()))
def test_a_shared_lift_plan_gives_the_report_of_a_fresh_plan_per_pass(monkeypatch, name, c, r):
    shared = lift_conditions(c, r, field=F10007, seed=3, trials=16).to_json()
    monkeypatch.setattr(construction, "_step_plan", lambda plans, idx, ins, build: build())
    assert lift_conditions(c, r, field=F10007, seed=3, trials=16).to_json() == shared


@pytest.mark.parametrize("mode", ["numeric", "symbolic"])
@pytest.mark.parametrize("name", ["chain", "fano"])
def test_principal_line_pairs_run_no_resultant_and_no_local_solve(monkeypatch, name, mode):
    # a line∩line step with principal input jets is read off the masked
    # minors of its Cramer solution: no lift plan, resultant corner,
    # assignment or local solve runs for it.  The same lift without the
    # realization's line-pair solutions takes the resultant path, so the
    # counters do count, and gives the same report
    from collections import Counter

    from tropgeo import stable_ops, trop_linalg
    from tropgeo.theorems import sample_inputs

    if name == "chain":
        c, r = _line_chain(33, random.Random(5))
    else:
        c = catalog()[name].hypothesis
        r = realize(c, sample_inputs(c, random.Random(0)))
    counts, lines = Counter(), []
    for mod, fn in ((construction, "intersection_step_plan"), (stable_ops, "_resultant_corners"),
                    (construction, "_local_solve"),
                    (stable_ops, "_hungarian_max"), (trop_linalg, "_hungarian_max")):
        def counted(*args, fn=fn, orig=getattr(mod, fn)):
            counts[fn, lines[-1]] += 1
            return orig(*args)
        monkeypatch.setattr(mod, fn, counted)
    step = construction._propagate_intersection_step

    def tracked(idx, s, jets, conds, r, field, zero, plans):
        lines.append(all(r.values[n].support == LINE for n in s.curves)
                     and all(j.is_principal for n in s.curves for j in jets[n].values()))
        return step(idx, s, jets, conds, r, field, zero, plans)

    monkeypatch.setattr(construction, "_propagate_intersection_step", tracked)
    kw = {"field": F10007, "seed": 0, "trials": 8} if mode == "numeric" else {}
    report = lift_conditions(c, r, **kw).to_json()
    assert sum(lines) >= (31 if name == "chain" else 3) * kw.get("trials", 1)
    assert not any(principal for _, principal in counts), counts
    lines.clear()
    assert lift_conditions(c, _line_pairs_by_resultant(c, r), **kw).to_json() == report
    assert {fn for fn, principal in counts if principal} >= {
        "intersection_step_plan", "_resultant_corners", "_hungarian_max", "_local_solve"}


def _line_pairs_by_resultant(c, r):
    """r without the Cramer solutions of its line∩line steps, which then
    take the resultant path and its local solves."""
    return replace(r, cramer={k: v for k, v in r.cramer.items() if isinstance(c.steps[k], CurveThrough)})


def _linear_local_solves(monkeypatch):
    """The local solves of linear systems (``local_line_rows``) that the
    lifts run from now on: (f_jets, g_jets, b, supports, outcome) each."""
    from tropgeo import stable_ops

    met = []
    local_solve = construction._local_solve

    def recorded(f_jets, g_jets, b, field, zero, origin, supports):
        out = local_solve(f_jets, g_jets, b, field, zero, origin, supports)
        if not isinstance(supports, Exception) and stable_ops.local_line_rows(f_jets, g_jets, supports):
            met.append((f_jets, g_jets, b, supports, out))
        return out

    monkeypatch.setattr(construction, "_local_solve", recorded)
    return met


def test_linear_local_systems_meet_as_the_eliminant_solves_them(monkeypatch):
    # the numeric eliminant stays the reference of the minors rule: at
    # every linear local system of seeded numeric lifts, the line pairs
    # sent down the resultant path, local_intersection_solve gives the
    # same point, or no torus solution too, or loses information too.
    # Two residual monomials, which degenerate jets leave at some stable
    # points of vector_addition, make all three minors vanish and have no
    # torus solution
    from collections import Counter

    from tropgeo.residual import InformationLostError
    from tropgeo.stable_ops import local_intersection_solve
    from tropgeo.theorems import sample_inputs

    met = _linear_local_solves(monkeypatch)
    seen = Counter()
    for name in ("vector_addition", "weak_pascal", "chasles", "fano", "pappus", "pascal_converse",
                 "abc_double_path", "four_lines"):
        met.clear()
        c = catalog_construction(name)
        for seed in range(8):
            r = _line_pairs_by_resultant(c, realize(c, sample_inputs(c, random.Random(seed))))
            lift_conditions(c, r, field=F10007, seed=seed, trials=4)
        assert met, name
        for f_jets, g_jets, b, supports, out in met:
            try:
                ref = [(t.x, t.y) for t in local_intersection_solve(f_jets, g_jets, b, F10007, supports)]
            except InformationLostError as exc:
                ref = str(exc)
            got = str(out) if isinstance(out, InformationLostError) else out[0]
            assert got == ref, (name, b, supports)
            seen["lost" if isinstance(ref, str) else "point" if ref else
                 "two monomials" if len(supports[0]) == len(supports[1]) == 1 else "no torus solution"] += 1
    assert seen["point"] >= 500 and seen["no torus solution"] >= 50 and seen["two monomials"] >= 10, seen


def _sympy_poly(sympy, p):
    """An ``RPoly`` as a sympy expression in symbols of its variables' names."""
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(sympy.Symbol(v) ** e for v, e in mono)) for mono, c in p.terms.items()),
               sympy.Integer(0))


def test_symbolic_line_meets_are_sympys_solutions(monkeypatch):
    # in symbolic mode the meet (X : Y : Z) of two residual lines, moved
    # to the origin, is sympy's solution (X/Z, Y/Z) of them; a meet with a
    # vanishing coordinate has no unique solution in the torus
    from collections import Counter

    from tropgeo.residual import support_terms
    from tropgeo.stable_ops import _to_origin
    from tropgeo.theorems import sample_inputs

    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    met = _linear_local_solves(monkeypatch)
    seen = Counter()
    for name in ("fano", "pappus", "pascal_converse", "abc_double_path", "four_lines", "vector_addition_z"):
        met.clear()
        doc = _catalog_doc(name)
        c = dsl.to_construction(doc)
        for seed in range(4):
            inputs = sample_inputs(c, random.Random(seed))
            inputs.update(doc.realization_map())
            try:
                lift_conditions(c, _line_pairs_by_resultant(c, realize(c, inputs)))
            except construction.SymbolicModeUnsupported:
                pass
        assert met, name
        for f_jets, g_jets, b, supports, (solved, _checks) in met[:30]:
            lines = [sum((_sympy_poly(sympy, v) * x ** i * y ** j
                          for (i, j), v in _to_origin(support_terms(jets, sup)).items()), sympy.Integer(0))
                     for jets, sup in zip((f_jets, g_jets), supports)]
            sols = sympy.solve(lines, [x, y], dict=True)
            if solved:
                (X, Y, Z), = (tuple(_sympy_poly(sympy, v) for v in p) for p in solved)
                assert len(sols) == 1 and set(sols[0]) == {x, y}, (name, b, sols)
                assert sympy.cancel(X / Z - sols[0][x]) == 0 and sympy.cancel(Y / Z - sols[0][y]) == 0
                seen["point"] += 1
            else:
                assert not any(set(s) == {x, y} and s[x] != 0 and s[y] != 0 for s in sols), (name, b, sols)
                seen["none"] += 1
    assert seen["point"] >= 50 and seen["none"] >= 5, seen


def test_numeric_linear_local_systems_build_no_eliminant(monkeypatch):
    # a linear local system is met by its minors and never reaches the
    # Sylvester determinant; a nonlinear one still does
    from collections import Counter

    from tropgeo import stable_ops
    from tropgeo.theorems import sample_inputs

    dets = []
    monkeypatch.setattr(stable_ops, "dense_det",
                        lambda *args, det=stable_ops.dense_det: dets.append(1) or det(*args))
    counts = Counter()
    local_solve = construction._local_solve

    def counted(f_jets, g_jets, b, field, zero, origin, supports):
        before = len(dets)
        out = local_solve(f_jets, g_jets, b, field, zero, origin, supports)
        if not isinstance(supports, Exception):
            linear = stable_ops.local_line_rows(f_jets, g_jets, supports) is not None
            counts["linear" if linear else "nonlinear"] += 1
            counts[("linear" if linear else "nonlinear") + " dets"] += len(dets) - before
        return out

    monkeypatch.setattr(construction, "_local_solve", counted)
    for name in ("weak_pascal", "chasles", "pappus"):
        c = catalog_construction(name)
        for seed in range(3):
            r = _line_pairs_by_resultant(c, realize(c, sample_inputs(c, random.Random(seed))))
            lift_conditions(c, r, field=F10007, seed=seed, trials=4)
    assert counts["linear"] >= 50 and counts["linear dets"] == 0, counts
    assert counts["nonlinear"] >= 30 and counts["nonlinear dets"] == counts["nonlinear"], counts


def _count_peels_and_facets(monkeypatch):
    """Count the regularity peels (``_matching_unique``) and the product
    subdivisions' upper-hull runs (``_upper_facets_ints``)."""
    from collections import Counter

    from tropgeo import stable_ops, trop_linalg

    counts = Counter()
    for mod, fn in ((trop_linalg, "_matching_unique"), (stable_ops, "_upper_facets_ints")):
        def counted(*args, fn=fn, orig=getattr(mod, fn)):
            counts[fn] += 1
            return orig(*args)
        monkeypatch.setattr(mod, fn, counted)
    return counts


def test_realize_of_lines_runs_no_product_subdivision_and_no_peel(monkeypatch):
    # two lines meet at their Cramer solution, and nothing in realize
    # reads the Cramer solutions' regularity flags
    from tropgeo.theorems import sample_inputs

    counts = _count_peels_and_facets(monkeypatch)
    _line_chain(33, random.Random(5))
    hyp = catalog()["fano"].hypothesis
    realize(hyp, sample_inputs(hyp, random.Random(0)))
    assert counts == {}


@pytest.mark.parametrize("name", ["pappus", "fano", "weak_pascal", "chain"])
def test_lift_peels_each_curve_step_once_per_solution(monkeypatch, name):
    # the lift reads the regular flags of each curve step and of each
    # line∩line step with principal input jets in every trial; they are
    # computed on first read, one peel per deleted column
    from tropgeo.theorems import sample_inputs

    if name == "chain":
        c, r = _line_chain(33, random.Random(5))
    else:
        c = catalog()[name].hypothesis
        r = realize(c, sample_inputs(c, random.Random(1)))
    counts = _count_peels_and_facets(monkeypatch)
    rep = lift_conditions(c, r, field=F10007, seed=0, trials=16)
    assert rep.successes > 1
    curve_steps = [s for s in c.steps if isinstance(s, CurveThrough)]
    line_pairs = [s for s in c.steps if isinstance(s, Intersect)
                  and all(r.values[n].support == LINE for n in s.curves)]
    assert counts == {"_matching_unique": sum(s.support.delta() for s in curve_steps) + 3 * len(line_pairs)}


def test_thesis_curves_make_no_peel(monkeypatch):
    from tropgeo.theorems import cayley_bacharach_statement, check_statement

    counts = _count_peels_and_facets(monkeypatch)
    assert check_statement(cayley_bacharach_statement(6, 6), trials=3, seed=0).holds
    assert counts["_matching_unique"] == 0


# ---------------------------------------------------------------------------
# acyclic lifting


def _acyclic_structures():
    """A point p on a line C, and the path C - p - D - q: lines C and D
    through p, and q on D; each with its realization."""
    from tropgeo.stable_ops import stable_curve

    on_line = IncidenceStructure(points=["p"], blocks=[("C", LINE)], flags=[("p", "C")])
    path = IncidenceStructure(
        points=["p", "q"],
        blocks=[("C", LINE), ("D", LINE)],
        flags=[("p", "C"), ("p", "D"), ("q", "D")],
    )
    Cv = TropPoly.parse("1x+0y+1")
    Dv = stable_curve(LINE, [(0, 1), (4, 4)])
    return [(on_line, {"C": Cv, "p": (0, 1)}),
            (path, {"C": Cv, "p": (0, 1), "D": Dv, "q": (4, 4)})]


def _assert_lifted(g, real, jets):
    for pt, blk in g.flags:
        terms = residual_terms(jets[blk], real[pt])
        px, py = jets[pt]
        val = sum((c * px.coeff**i * py.coeff**j for (i, j), c in terms.items()),
                  F10007.zero)
        assert not val


def test_lift_acyclic_point_on_line():
    g, real = _acyclic_structures()[0]
    _assert_lifted(g, real, lift_acyclic(g, real, F10007, seed=2))


def test_lift_acyclic_path_point_line_point_line():
    g, real = _acyclic_structures()[1]
    _assert_lifted(g, real, lift_acyclic(g, real, F10007, seed=9))


def test_lift_acyclic_jets_are_unchanged():
    # the residues drawn at seeds 0-9, in their order: recorded before the
    # acyclic lift evaluated its monomials with the curve step's residue
    rows = []
    for seed in range(10):
        for g, real in _acyclic_structures():
            jets = lift_acyclic(g, real, F10007, seed=seed)
            for n in sorted(jets):
                j = jets[n]
                cells = enumerate(j) if isinstance(j, tuple) else sorted(j.items())
                rows.append((seed, n, [(k, str(v.order), str(v.coeff)) for k, v in cells]))
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "713a43ea97720e5cc6545a3cec1e8c06eba3bafc9ba4ec8e6f3b620aebd56259"


def test_lift_acyclic_empty_structure():
    g = IncidenceStructure(points=[], blocks=[], flags=[])
    assert lift_acyclic(g, {}, F10007) == {}


def test_lift_acyclic_rejects_cycles():
    g = IncidenceStructure(
        points=["p", "q"],
        blocks=[("C", LINE), ("D", LINE)],
        flags=[("p", "C"), ("p", "D"), ("q", "C"), ("q", "D")],
    )
    with pytest.raises(ValueError):
        lift_acyclic(g, {}, F10007)
