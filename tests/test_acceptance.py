"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Criterion 2 asserts its recorded reference value verbatim; that
value is internally inconsistent with its own defining polynomials
(which force the quadruple point to (0, -1/2), pinned down by the
companion test and the independent perturbation oracle), so the verbatim
assertion is expected to stay red rather than silently correcting the
reference data.
"""

import itertools
import json
import random
import time
from fractions import Fraction as F

from tropgeo.trop_core import Support, TropPoly
from tropgeo.trop_linalg import cramer_conditions, cramer_stable, trop_det
from tropgeo.residual import PROVABLY_EMPTY, ResidualField, RPoly
from tropgeo.stable_ops import perturbation_oracle, stable_curve, stable_intersection
from tropgeo.construction import (
    CERT_UNDECIDABLE,
    is_admissible,
    lift_conditions,
    realize,
    subconstruction_to,
    verify_witness,
)
from tropgeo.theorems import catalog, check_statement
from tropgeo import dsl
from tropgeo.cli import main as cli_main
from test_construction import _ray_of_point, catalog_construction
from test_trop_core import same_curve

F10007 = ResidualField(10007)
LINE = Support.named("line")


def _report(num, desc, ok):
    print(f"ACCEPTANCE {num:>2} {'PASS' if ok else 'FAIL'}: {desc}")


class _criterion:
    def __init__(self, num, desc):
        self.num, self.desc = num, desc

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        _report(self.num, self.desc, exc_type is None)
        return False


def test_criterion_01_conic_stable_intersection():
    with _criterion(1, "conic pair stable intersection, exact, < 1 s"):
        t0 = time.time()
        C1 = TropPoly.parse("(-11)+2x+2y+2xy+0x^2+0y^2")
        C2 = TropPoly.parse("0+8x+14y+20xy+12x^2+14y^2")
        si = stable_intersection(C1, C2)
        expect = sorted([(F(2), F(-6)), (F(-4), F(2)), (F(-13), F(-14)), (F(-6), F(-6))])
        assert si.points == [(p, 1) for p in expect]
        assert time.time() - t0 < 1.0


def test_criterion_02_degenerate_conic_pair_as_published():
    # the recorded reference coordinates, asserted verbatim; see the
    # module docstring
    with _criterion(2, "degenerate conic pair at the published point (0, 1/2)"):
        C1 = TropPoly.parse("0+(-10)x+(-10)y+(-10)xy+0x^2+0y^2")
        C2 = TropPoly.parse("0+(-10)x+(-10)y+(-10)xy+1x^2+2y^2")
        si = stable_intersection(C1, C2)
        assert si.points == [((F(0), F(1, 2)), 4)]


def test_criterion_02_companion_mathematical_value():
    with _criterion(2, "degenerate conic pair: single point of multiplicity 4 (exact value)"):
        C1 = TropPoly.parse("0+(-10)x+(-10)y+(-10)xy+0x^2+0y^2")
        C2 = TropPoly.parse("0+(-10)x+(-10)y+(-10)xy+1x^2+2y^2")
        si = stable_intersection(C1, C2)
        assert si.points == [((F(0), F(-1, 2)), 4)]
        assert perturbation_oracle(C1, C2).points == si.points
        # the point lies on both curves, as any stable point must
        assert C1.on_curve(si.points[0][0]) and C2.on_curve(si.points[0][0])


def test_criterion_03_chasles_grid_and_eight_of_nine():
    with _criterion(3, "Chasles 3x3 grid with total multiplicity 9; h misses one point, < 5 s"):
        t0 = time.time()
        f = TropPoly.parse("0+1x+1y+1x^2+3xy+1y^2+0x^3+1x^2y+1xy^2+0y^3")
        g = TropPoly.parse("19+14x+20xy+24y+7x^2+12x^2y+23xy^2+28y^2+0x^3+31y^3")
        si = stable_intersection(f, g)
        grid = sorted((F(x), F(y)) for x in (-1, 0, 1) for y in (-3, -4, -5))
        assert si.points == [(p, 1) for p in grid]
        assert si.total() == 9
        h = TropPoly.parse("0+1x+5y+(11/2)xy+1x^2+9y^2+5x^2y+9xy^2+0x^3+12y^3")
        on = [p for p, _ in si.points if h.on_curve(p)]
        assert len(on) == 8
        assert time.time() - t0 < 5.0


def test_criterion_04_weak_pascal_instance():
    with _criterion(4, "weak Pascal worked instance: both labelings, exact"):
        Z = TropPoly.parse("3y+5+3y^2+0x^2+4x+0xy")
        L1 = TropPoly.parse("1y+0x+0")
        L2 = TropPoly.parse("0y+0x+2")
        L3 = TropPoly.parse("(9/2)y+0x+3")
        assert stable_intersection(Z, L1).points == [((F(1), F(0)), 1), ((F(3), F(2)), 1)]
        assert stable_intersection(Z, L2).points == [((F(2), F(3, 2)), 2)]
        assert stable_intersection(Z, L3).points == [
            ((F(1), F(-3, 2)), 1), ((F(4), F(-1, 2)), 1)
        ]
        A, Bp = (F(3), F(2)), (F(1), F(0))
        B = Cp = (F(2), F(3, 2))
        C, Ap = (F(1), F(-3, 2)), (F(4), F(-1, 2))

        def run(A, Bp, B, Cp, C, Ap):
            L4 = stable_curve(LINE, [A, Cp])
            L5 = stable_curve(LINE, [B, Ap])
            L6 = stable_curve(LINE, [C, Bp])
            P = stable_intersection(L1, L5).points[0][0]
            Q = stable_intersection(L2, L6).points[0][0]
            R = stable_intersection(L3, L4).points[0][0]
            return L4, L5, L6, P, Q, R

        L4, L5, L6, P, Q, R = run(A, Bp, B, Cp, C, Ap)
        assert same_curve(L4, TropPoly.parse("3y+2x+(9/2)"))
        assert same_curve(L5, TropPoly.parse("(3/2)x+4y+(11/2)"))
        assert same_curve(L6, TropPoly.parse("0x+1y+1"))
        assert (P, Q, R) == ((F(5, 2), F(3, 2)), (F(2), F(1)), (F(5, 2), F(-3, 2)))
        from tropgeo.theorems import thesis_feasible_curve

        assert thesis_feasible_curve(LINE, [P, Q, R]) is None  # not collinear

        # the alternative labeling swaps both depth-1 pairs
        L4b, L5b, L6b, P2, Q2, R2 = run(Bp, A, B, Cp, Ap, C)
        assert (P2, Q2, R2) == ((F(1), F(0)), (F(2), F(2)), (F(1), F(-3, 2)))
        Lw = TropPoly.parse("2x+2y+3")
        assert all(Lw.on_curve(p) for p in (P2, Q2, R2))


def test_criterion_05_double_path_counterexample():
    with _criterion(5, "a,b,c double path: p = (0,1) != a and provably-empty conditions"):
        c = catalog_construction("abc_double_path")
        r = realize(c, {"a": (0, 0), "b": (-2, 1), "c": (-1, 3)})
        assert r.values["p"] == (F(0), F(1))
        assert r.values["p"] != r.values["a"]
        rep = lift_conditions(c, r)
        assert rep.verdict == PROVABLY_EMPTY


def test_criterion_06_vector_addition_undecidable():
    with _criterion(6, "vector addition: final line Undecidable, z-subconstruction nonempty"):
        c = catalog_construction("vector_addition")
        inp = {"a": (0, 0), "b": (-1, -1), "c": (-2, -2), "q": (2, -1)}
        r = realize(c, inp)
        rep = lift_conditions(c, r, field=F10007, seed=11, trials=6)
        final = [s for s in rep.steps if "l9" in s.nodes][0]
        assert final.certificate == CERT_UNDECIDABLE

        sub = subconstruction_to(c, "z")
        rz = realize(sub, inp)
        repz = lift_conditions(sub, rz, field=F10007, seed=11, trials=8)
        assert repz.verdict == "nonempty-dense" and repz.successes >= 7

        inp2 = {"a": (0, 0), "b": (-1, -2), "c": (-2, -2), "q": (2, -1)}
        r2 = realize(c, inp2)
        rep2 = lift_conditions(c, r2, field=F10007, seed=11, trials=6)
        final2 = [s for s in rep2.steps if "l9" in s.nodes][0]
        assert final2.certificate == CERT_UNDECIDABLE


def test_criterion_07_theorem_suite():
    with _criterion(7, "Fano/Pappus/conv-Pascal/Chasles/CB(3,3): 100 seeded trials each, < 60 s"):
        t0 = time.time()
        cat = catalog()
        for name in ("fano", "pappus", "pascal_converse", "chasles", "cayley_bacharach_3_3"):
            v = check_statement(cat[name], trials=100, seed=2026)
            assert v.holds, (name, [t.index for t in v.failures])
            assert v.passed == 100
        assert time.time() - t0 < 60.0


def test_criterion_08_admissibility():
    with _criterion(8, "admissibility verdicts with explicit double-path witnesses"):
        assert is_admissible(catalog()["fano"].hypothesis) == (True, None)
        assert is_admissible(catalog()["pappus"].hypothesis) == (True, None)
        ok, wit = is_admissible(catalog_construction("abc_double_path"))
        assert not ok and len(wit.paths) == 2 and wit.paths[0] != wit.paths[1]
        ok, wit = is_admissible(catalog_construction("vector_addition"))
        assert not ok and len(wit.paths) == 2


def test_criterion_09_oracle_suites():
    with _criterion(9, "trop_det vs brute force (500); intersection vs perturbation (500); Bernstein"):
        rng = random.Random(314159)
        for _ in range(500):
            n = rng.randint(1, 7)
            a = [[F(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)]
            r = trop_det(a)
            best, perms = None, []
            for sigma in itertools.permutations(range(n)):
                v = sum(a[i][sigma[i]] for i in range(n))
                if best is None or v > best:
                    best, perms = v, [sigma]
                elif v == best:
                    perms.append(sigma)
            assert r.value == best and r.optimal_perms == sorted(perms)

        from tropgeo.trop_core import mixed_volume

        for _ in range(500):
            d1, d2 = rng.randint(1, 3), rng.randint(1, 3)
            s1, s2 = Support.degree(d1), Support.degree(d2)
            f = TropPoly(s1, [F(rng.randint(-12, 12)) for _ in s1.points])
            g = TropPoly(s2, [F(rng.randint(-12, 12)) for _ in s2.points])
            si = stable_intersection(f, g)
            assert si.points == perturbation_oracle(f, g).points
            assert si.total() == mixed_volume(s1, s2)


def test_criterion_10_lifting_soundness():
    with _criterion(10, "Fano & Pappus: 100 numeric lifts each, witnesses residually sound"):
        rng = random.Random(271828)
        for stmt in (catalog()["fano"], catalog()["pappus"]):
            c = stmt.hypothesis
            good = 0
            for t in range(100):
                inputs = {
                    n: (F(rng.randint(-8, 8)), F(rng.randint(-8, 8)))
                    for n in c.input_points
                }
                r = realize(c, inputs)
                rep = lift_conditions(
                    c, r, field=F10007, seed=7000 + t, trials=3
                )
                if rep.witness_jets is not None and not verify_witness(c, r, rep.witness_jets):
                    good += 1
            assert good >= 99, (stmt.name, good)


def test_criterion_11_four_lines_impossibility():
    with _criterion(11, "four lines through a point: a ray direction repeats, 100 inputs"):
        c = catalog_construction("four_lines")

        rng = random.Random(1618)
        for _ in range(100):
            inputs = {
                n: (F(rng.randint(-9, 9)), F(rng.randint(-9, 9))) for n in c.input_points
            }
            r = realize(c, inputs)
            a = r.values["a"]
            dirs = [_ray_of_point(r.values[nm], a) for nm in ("l1", "l2", "l3", "l4")]
            assert all(d is not None for d in dirs)
            rays = [d for d in dirs if d != "vertex"]
            assert len(set(rays)) < len(rays) or len(rays) < 4


def test_criterion_12_matrix_trichotomy():
    with _criterion(12, "principal data of the three illustrative matrices; exact t-solve"):
        A = [[0, 0, 0], [0, 0, 0]]
        ones = [[F(1)] * 3, [F(1)] * 3]
        # all three lifts share the same principal data: every
        # pseudodeterminant vanishes, the undecidable case
        for _ in range(3):
            assert [v for _, v in cramer_conditions(A, ones)] == [0, 0, 0]

        # third matrix, exact entries 1 + k*t: solve over Q[t]
        t = RPoly.var("t")
        one = RPoly.const(1)
        rows = [[one + t, one + 2 * t, one + 3 * t], [one, one, one]]

        def det2(m):
            return m[0][0] * m[1][1] - m[0][1] * m[1][0]

        sol = []
        for k in range(3):
            cols = [c for c in range(3) if c != k]
            minor = [[rows[r][c] for c in cols] for r in range(2)]
            d = det2(minor)
            sol.append(d if k % 2 == 0 else -d)
        # the solution is (-t, 2t, -t) = t * [-1 : 2 : -1]
        assert sol[0] == -t and sol[1] == 2 * t and sol[2] == -t
        # check it solves the system exactly
        for r in range(2):
            acc = RPoly()
            for k in range(3):
                acc = acc + rows[r][k] * sol[k]
            assert acc.is_zero
        # tropicalization: every entry has valuation 1, so the projective
        # point is [0:0:0], the stable solution of the tropical system
        vals = [min(dict(m).get("t", 0) for m in s.terms) for s in sol]
        assert vals == [1, 1, 1]
        stable = cramer_stable(A)
        assert stable.values == (0, 0, 0)


def test_criterion_13_dsl_roundtrip_and_deterministic_json(tmp_path, capsys):
    with _criterion(13, "DSL print/parse identity on the corpus; byte-identical JSON"):
        from importlib import resources

        for name in (
            "fano", "pappus", "pascal_converse", "chasles", "cayley_bacharach_3_3",
            "weak_pascal", "abc_double_path", "four_lines", "vector_addition",
        ):
            path = resources.files("tropgeo") / "catalog" / f"{name}.tgc"
            text = path.read_text()
            doc = dsl.parse(text)
            assert dsl.print_doc(doc) == text
            assert dsl.parse(dsl.print_doc(doc)) == doc

        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        path = str(resources.files("tropgeo") / "catalog" / "pappus.tgc")
        for out in (out1, out2):
            assert cli_main(["theorem", path, "--trials", "6", "--seed", "17",
                             "--json", str(out)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        assert json.loads(out1.read_text())["passed"] == 6
