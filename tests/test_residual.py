import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from tropgeo.residual import (
    ConditionSet,
    FpElt,
    InformationLostError,
    Jet,
    LIKELY_EMPTY,
    NONEMPTY_DENSE,
    PROVABLY_EMPTY,
    ResidualField,
    RFrac,
    RPoly,
    RootsOutsideFieldError,
    dense_roots,
    density_test,
    residual_poly,
    residual_terms,
    _fp_roots,
)


def test_field_parsing_and_elements():
    f = ResidualField.parse("fp:10007")
    assert f.finite and f.char == 10007
    q = ResidualField.parse("q")
    assert not q.finite and q.char == 0
    assert f.elt(F(1, 2)) * f.elt(2) == f.one
    with pytest.raises(ValueError):
        ResidualField(10)  # not prime


def test_fp_arithmetic():
    p = 7
    a, b = FpElt(3, p), FpElt(5, p)
    assert a + b == FpElt(1, p)
    assert a * b == FpElt(1, p)
    assert a - b == FpElt(5, p)
    assert a / b == a * FpElt(3, p)
    assert (a ** 3) == FpElt(27 % 7, p)
    assert not FpElt(0, p)


# ---------------------------------------------------------------------------
# jets


def test_jet_cancellation_gives_degenerate():
    j = Jet.principal(0, F(1)) + Jet.principal(0, F(-1))
    assert j.is_degenerate and j.order == 0


def test_jet_dominant_order_wins():
    j = Jet.principal(2, F(3)) + Jet.principal(0, F(5))
    assert j.is_principal and j.order == 2 and j.coeff == 3


def test_jet_multiplication_adds_orders():
    a = Jet.principal(1, RPoly.var("a"))
    b = Jet.principal(2, RPoly.var("b"))
    c = a * b
    assert c.order == 3 and c.coeff == RPoly.var("a") * RPoly.var("b")


def test_degenerate_absorption():
    d = Jet.degenerate(2)
    p = Jet.principal(3, F(1))
    assert (d + p).is_principal
    # a principal term exactly at the bound survives: the degenerate part
    # lives strictly below it
    q = Jet.principal(2, F(5))
    assert (d + q) == q
    r = Jet.principal(1, F(5))
    assert (d + r).is_degenerate and (d + r).order == 2
    assert (d * p).is_degenerate and (d * p).order == 5


def test_jet_zero_is_exact():
    z = Jet.zero()
    p = Jet.principal(4, F(2))
    assert z + p == p
    assert (z * p).is_zero
    assert (p - p).is_degenerate  # cancellation is not exact zero


jets = st.builds(
    lambda o, c: Jet.principal(F(o), F(c)),
    st.integers(-4, 4),
    st.integers(1, 9),
)


@given(jets, jets, jets)
@settings(max_examples=80)
def test_jet_ring_laws_without_degeneracy(a, b, c):
    # products of principal jets with positive coefficients never cancel
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    s1 = a * (b + c)
    s2 = a * b + a * c
    assert s1 == s2
    assert (a + b) + c == a + (b + c)


@given(jets, jets)
@settings(max_examples=60)
def test_tropicalization_is_a_homomorphism_on_orders(a, b):
    assert (a * b).order == a.order + b.order
    assert (a + b).order == max(a.order, b.order)


# ---------------------------------------------------------------------------
# residual polynomials


def test_residual_poly_unit_line():
    jets = {
        (1, 0): Jet.principal(0, F(1)),
        (0, 1): Jet.principal(0, F(1)),
        (0, 0): Jet.principal(0, F(1)),
    }
    p = residual_poly(jets, (0, 0))
    assert p == RPoly.var("x") + RPoly.var("y") + RPoly.const(1)


def test_residual_poly_symbolic_at_vertex_and_ray():
    jets = {
        (1, 0): Jet.principal(1, RPoly.var("ax")),
        (0, 1): Jet.principal(0, RPoly.var("ay")),
        (0, 0): Jet.principal(1, RPoly.var("a1")),
    }
    p = residual_poly(jets, (0, 1))
    expect = (
        RPoly.var("ax") * RPoly.var("x")
        + RPoly.var("ay") * RPoly.var("y")
        + RPoly.var("a1")
    )
    assert p == expect
    p = residual_poly(jets, (5, 6))  # on the (1,1) ray: only x and y attain
    assert p == RPoly.var("ax") * RPoly.var("x") + RPoly.var("ay") * RPoly.var("y")


def test_residual_poly_degenerate_raises():
    jets = {
        (1, 0): Jet.degenerate(1),
        (0, 0): Jet.principal(0, F(1)),
    }
    with pytest.raises(InformationLostError):
        residual_terms(jets, (2, 0))


def test_residual_poly_matches_jet_substitution():
    # Pc(f(x t^-b1, y t^-b2)) agrees with the argmax characterization
    rng = random.Random(17)
    from tropgeo.trop_core import Support

    for _ in range(30):
        sup = Support.degree(2)
        jets = {
            pt: Jet.principal(F(rng.randint(-5, 5)), F(rng.randint(1, 19)))
            for pt in sup.points
        }
        b = (F(rng.randint(-4, 4)), F(rng.randint(-4, 4)))
        terms = residual_terms(jets, b)
        # direct substitution: order of x^i y^j coefficient becomes
        # order + i*b1 + j*b2; the principal part keeps the max order
        shifted = {pt: Jet.principal(j.order + pt[0] * b[0] + pt[1] * b[1], j.coeff)
                   for pt, j in jets.items()}
        top = max(j.order for j in shifted.values())
        expect = {pt: j.coeff for pt, j in shifted.items() if j.order == top}
        assert terms == expect


# ---------------------------------------------------------------------------
# univariate roots


def test_roots_over_f5():
    roots = dense_roots([-1, 0, 1], ResidualField(5))
    assert [(r.v, m) for r, m in roots] == [(1, 1), (4, 1)]


def test_roots_x_squared_over_q():
    roots = dense_roots([0, 0, 1], ResidualField(None))
    assert roots == [(F(0), 2)]


def test_roots_quadratic_over_q():
    # x^2 - 9/4, given as 4x^2 - 9: any integer multiple keeps the roots
    roots = dense_roots([-9, 0, 4], ResidualField(None))
    assert roots == [(F(-3, 2), 1), (F(3, 2), 1)]
    with pytest.raises(RootsOutsideFieldError):
        dense_roots([-2, 0, 1], ResidualField(None))


def test_q_quadratic_roots_are_exact_on_huge_squares():
    Q, r = ResidualField(None), 10**20 + 7
    assert dense_roots([-r * r, 0, 1], Q) == [(F(-r), 1), (F(r), 1)]
    assert dense_roots([r * r, -2 * r, 1], Q) == [(F(r), 2)]
    assert dense_roots([-(10**400), 0, r * r], Q) == [(F(-(10**200), r), 1), (F(10**200, r), 1)]
    for coeffs in ([-(r * r + 1), 0, 1], [4, 0, 1]):  # not a square; negative
        with pytest.raises(RootsOutsideFieldError, match="irrational quadratic roots"):
            dense_roots(coeffs, Q)


def test_roots_random_cubic_matches_exhaustive_scan():
    field = ResidualField(10007)
    rng = random.Random(4)
    for _ in range(5):
        coeffs = [rng.randrange(10007) for _ in range(3)] + [rng.randrange(1, 10007)]
        roots = {r.v: m for r, m in dense_roots(coeffs, field)}
        found = {}
        for v in range(10007):
            acc = 0
            for e in range(3, -1, -1):
                acc = (acc * v + coeffs[e]) % 10007
            if acc == 0:
                found[v] = 1
        assert set(roots) == set(found)


def test_roots_with_multiplicity_over_fp():
    # (x - 3)^2 (x - 5)
    roots = dense_roots([-45, 39, -11, 1], ResidualField(10007))
    assert [(r.v, m) for r, m in roots] == [(3, 2), (5, 1)]


def test_fp_roots_match_sympy():
    # p <= 64 takes the scan branch, 10007 the gcd(x^p - x, f) splitting one
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(23)
    for p in (2, 3, 61, 10007):
        for _ in range(25):
            # chosen roots repeat and include 0; the cofactor may add more
            pool = [0, 1, rng.randrange(p), rng.randrange(p)]
            roots = [rng.choice(pool) for _ in range(rng.randint(0, 5))]
            cof = [rng.randrange(p) for _ in range(rng.randint(0, 3))] + [rng.randrange(1, p)]
            if not roots and len(cof) == 1:
                roots = [rng.choice(pool)]
            f = sympy.Poly(list(reversed(cof)), x, modulus=p)
            for r in roots:
                f = f * sympy.Poly(x - r, x, modulus=p)
            dense = [int(c) % p for c in reversed(f.all_coeffs())]
            expected = sorted(
                ((-int(g.all_coeffs()[1]) * pow(int(g.all_coeffs()[0]), -1, p)) % p, m)
                for g, m in f.factor_list()[1]
                if g.degree() == 1
            )
            assert _fp_roots(dense, p) == expected, (p, dense)


# ---------------------------------------------------------------------------
# condition sets and density tests


def test_density_empty_condition_list():
    cs = ConditionSet()
    verdict, witness = density_test(cs, ResidualField(10007), trials=3, seed=1)
    assert verdict == NONEMPTY_DENSE and witness == {}


def test_density_zero_condition_is_provably_empty():
    cs = ConditionSet()
    cs.add(RPoly(), "the zero polynomial")
    assert cs.provably_empty
    verdict, witness = density_test(cs, ResidualField(10007), trials=3, seed=1)
    assert verdict == PROVABLY_EMPTY and witness is None


def test_density_finds_witness():
    cs = ConditionSet()
    cs.add(RPoly.var("a") - RPoly.var("b"), "a != b")
    cs.add(RPoly.var("a") * RPoly.var("c") + RPoly.const(1), "ac != -1")
    verdict, witness = density_test(cs, ResidualField(10007), trials=20, seed=3)
    assert verdict == NONEMPTY_DENSE
    assert (witness["a"] - witness["b"]) and (witness["a"] * witness["c"] + 1)


def test_density_rejects_samples_on_which_a_condition_vanishes():
    cs = ConditionSet()
    cs.add(RPoly.var("a") + RPoly.var("b"), "a != -b")
    F3 = ResidualField(3)
    # half the samples over F_3 have a = -b; under seed 1 the first five do
    assert density_test(cs, F3, trials=5, seed=1) == (LIKELY_EMPTY, None)
    verdict, witness = density_test(cs, F3, trials=20, seed=1)
    assert verdict == NONEMPTY_DENSE and witness["a"] + witness["b"]
    # every sample over F_3 has a = b or a = -b
    cs.add(RPoly.var("a") - RPoly.var("b"), "a != b")
    assert density_test(cs, F3, trials=20, seed=1) == (LIKELY_EMPTY, None)


def test_units_and_duplicates_are_pruned():
    cs = ConditionSet()
    cs.add(RPoly.const(5), "unit")
    cs.add(RPoly.var("a"), "first")
    cs.add(RPoly.var("a"), "again")
    assert len(cs.conditions) == 1


def test_duplicates_keep_the_first_origin_and_order():
    a, b = RPoly.var("a"), RPoly.var("a") * RPoly.var("b") + RPoly.const(2)
    cs = ConditionSet()
    for poly, origin in [(a, "a first"), (b, "b first"), (RPoly.var("a"), "a again"),
                         (RPoly(), "zero"), (b * RPoly.const(1), "b again"), (RPoly(), "zero again")]:
        cs.add(poly, origin)
    assert [c.origin for c in cs.conditions] == ["a first", "b first", "zero", "zero again"]
    merged = ConditionSet()
    merged.add(RPoly.var("b"), "b alone")
    merged.add(b, "b earlier")
    merged.merge(cs)
    assert [c.origin for c in merged.conditions] == ["b alone", "b earlier", "a first", "zero", "zero again"]
    assert merged.provably_empty


def test_random_nonzero_needs_a_finite_field():
    with pytest.raises(ValueError, match="finite field"):
        ResidualField(None).random_nonzero(random.Random(0))
    draws = {ResidualField(3).random_nonzero(random.Random(t)).v for t in range(40)}
    assert draws == {1, 2}


def test_schwartz_zippel_sanity():
    # empirical vanishing rate of a nonzero polynomial is at most d/q + 3 sigma
    field = ResidualField(101)
    rng = random.Random(8)
    poly = (RPoly.var("a") + RPoly.var("b")) * RPoly.var("a") + RPoly.const(3)
    d = poly.total_degree()
    trials = 4000
    hits = 0
    for t in range(trials):
        sample = {v: field.random_nonzero(random.Random(t * 31 + 7)) for v in poly.variables()}
        if not poly.evaluate(sample):
            hits += 1
    bound = d / 100 + 3 * (d / 100) ** 0.5 / trials**0.5 + 3 * (trials ** -0.5)
    assert hits / trials <= d / 100 + 0.05


def test_rfrac_zero_test_and_arithmetic():
    a = RFrac.of(RPoly.var("x")) / RFrac.of(RPoly.var("y"))
    b = RFrac.of(RPoly.var("x")) / RFrac.of(RPoly.var("y"))
    assert a == b
    assert not (a - b)
    with pytest.raises(ZeroDivisionError):
        a / (b - a)
