import math
import random
import time
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
    _MR_BOUND,
    _is_prime,
    RPoly,
    dense_roots,
    density_test,
    residual_terms,
    _fp_roots,
)


def is_monomial(p):
    """Whether an ``RPoly`` has one term."""
    return len(p.terms) == 1


def total_degree(p):
    """The largest total degree of an ``RPoly``'s monomials, 0 for zero."""
    return max((sum(e for _, e in m) for m in p.terms), default=0)


def test_field_parsing_and_elements():
    f = ResidualField.parse("fp:10007")
    assert f.p == 10007 and f == ResidualField(10007) and repr(f) == "F_10007"
    for spec in ("q", "f61", "f9"):  # a field is spelled fp:P only
        with pytest.raises(ValueError, match=f"cannot parse field spec '{spec}'"):
            ResidualField.parse(spec)
    assert f.elt(F(1, 2)) * f.elt(2) == f.elt(1)
    with pytest.raises(ValueError):
        ResidualField(10)  # not prime


def _trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


# Carmichael numbers; strong pseudoprimes to base 2, the smallest to the
# bases 2..3, 2..5 and 2..7; 2^61 + 1; and psi_12, the smallest strong
# pseudoprime to every prime base 2..37 (Sorenson-Webster 2015)
CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185, 5394826801]
PSEUDOPRIMES = CARMICHAEL + [2047, 3277, 4033, 1373653, 25326001, 3215031751,
                             2 ** 61 + 1, 399165290221 * 798330580441]


def test_is_prime_matches_trial_division():
    assert [n for n in range(10 ** 5) if _is_prime(n) != _trial_division_is_prime(n)] == []
    assert [n for n in PSEUDOPRIMES if _is_prime(n)] == []
    primes = [2 ** 31 - 1, 10 ** 9 + 7, 10 ** 14 + 31]
    assert all(_trial_division_is_prime(n) for n in primes[:2])
    # 3317044064679887385961813 is the largest prime below the bound
    assert all(_is_prime(n) for n in primes + [2 ** 61 - 1, 3317044064679887385961813])


def test_residual_field_of_a_large_prime_and_the_size_bound():
    assert ResidualField(2 ** 61 - 1).p == 2 ** 61 - 1
    assert ResidualField.parse(f"fp:{2 ** 61 - 1}") == ResidualField(2 ** 61 - 1)
    # the bound is psi_13, a strong pseudoprime to every base used, so it
    # and every larger n (2^89 - 1 is prime) are refused, not guessed
    assert _MR_BOUND == 1287836182261 * 2575672364521
    for n in (_MR_BOUND, 2 ** 89 - 1):
        with pytest.raises(ValueError, match=f"{n} is too large for a residue field"):
            ResidualField(n)
    for n in (10, 9, 1, 0, -7):
        with pytest.raises(ValueError, match=f"^{n} is not prime$"):
            ResidualField(n)


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
# RPoly against an independent tuple-monomial oracle


class _TuplePoly:
    """Differential oracle: a sparse polynomial with the same monomials as
    RPoly, sorted (var, exp) tuples, written independently of it.
    Coefficients are Fractions, and every product term builds a dict and
    a sorted tuple; powers square after the last multiply too."""

    def __init__(self, terms=None):
        self.terms = dict(terms or {})

    @staticmethod
    def var(name, exp=1):
        return _TuplePoly({((name, exp),): F(1)})

    @staticmethod
    def const(c):
        c = F(c)
        return _TuplePoly({(): c} if c else {})

    def __bool__(self):
        return bool(self.terms)

    def is_monomial(self):
        return len(self.terms) == 1

    def is_constant(self):
        return not self.terms or set(self.terms) == {()}

    def variables(self):
        return sorted({v for m in self.terms for v, _ in m})

    def total_degree(self):
        return max((sum(e for _, e in m) for m in self.terms), default=0)

    def __add__(self, other):
        t = dict(self.terms)
        for m, c in other.terms.items():
            s = t.get(m, 0) + c
            if s:
                t[m] = s
            elif m in t:
                del t[m]
        return _TuplePoly(t)

    def __neg__(self):
        return _TuplePoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        t = {}
        for m1, c1 in self.terms.items():
            d1 = dict(m1)
            for m2, c2 in other.terms.items():
                d = dict(d1)
                for v, e in m2:
                    d[v] = d.get(v, 0) + e
                m = tuple(sorted(d.items()))
                s = t.get(m, 0) + c1 * c2
                if s:
                    t[m] = s
                elif m in t:
                    del t[m]
        return _TuplePoly(t)

    def __pow__(self, n):
        out, b = _TuplePoly.const(1), self
        while n:
            if n & 1:
                out = out * b
            b = b * b
            n >>= 1
        return out

    def canonical(self):
        return tuple(sorted(self.terms.items()))

    def __eq__(self, other):
        return self.canonical() == other.canonical()

    def __hash__(self):
        return hash(self.canonical())

    def evaluate(self, assignment):
        out = None
        for m, c in self.terms.items():
            v = c
            for var, e in m:
                v = v * assignment[var] ** e
            out = v if out is None else out + v
        return F(0) if out is None else out

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in sorted(self.terms.items()):
            mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in m)
            cs = str(c)
            if c < 0 or c.denominator != 1:
                cs = f"({cs})"
            parts.append(f"{cs}*{mono}" if mono else cs)
        return " + ".join(parts)


# listed in an order unlike their sorted one, so that a monomial or a
# printed polynomial left unsorted would show
_DIFF_VARS = ["d.z", "d[1,0]", "d.b", "d_q", "d.a", "d[0,2]", "D", "d.x", "d.y", "d0"]


def _random_pair(rng):
    """One polynomial as an RPoly and as the oracle, from the same
    terms: integer or proper rational coefficients over up to 10
    variables, exponents up to 200."""
    new, old = RPoly(), _TuplePoly()
    rational = rng.random() < 0.5
    for _ in range(rng.randint(0, 6)):
        c = F(rng.randint(-9, 9), rng.choice([1, 2, 3, 7]) if rational else 1)
        mono = [(v, rng.choice([1, 1, 2, 3, rng.randint(1, 200)]))
                for v in rng.sample(_DIFF_VARS, rng.randint(0, 4))]
        tn, to = RPoly.const(c), _TuplePoly.const(c)
        for v, e in mono:
            tn, to = tn * RPoly.var(v, e), to * _TuplePoly.var(v, e)
        new, old = new + tn, old + to
    return new, old


def _assert_same(new, old, point):
    assert str(new) == str(old)
    assert dict(new.terms) == old.terms and len(new.terms) == len(old.terms)
    assert sorted(new.terms) == sorted(old.terms)
    assert new.variables() == old.variables()
    assert total_degree(new) == old.total_degree()
    assert new.is_constant() == old.is_constant()
    assert is_monomial(new) == old.is_monomial()
    assert bool(new) == bool(old)
    assert new.evaluate(point) == old.evaluate(point)


def test_packed_rpoly_matches_tuple_monomial_oracle():
    rng = random.Random(2017)
    field = ResidualField(10007)
    cancelled = 0
    for _ in range(300):
        (a, oa), (b, ob) = _random_pair(rng), _random_pair(rng)
        k = rng.choice([2, -1, F(-3, 2), F(1, 7)])
        if rng.random() < 0.3:
            # b cancels every term of a in a + b, and a + b is c or zero
            c, oc = _random_pair(rng) if rng.random() < 0.5 else (RPoly(), _TuplePoly())
            b, ob = c - a, oc - oa
        ints = {v: field.random_nonzero(rng) for v in _DIFF_VARS}
        point = {v: field.elt(x) for v, x in ints.items()}
        qpoint = {v: F(rng.choice([-2, -1, 1, 2]), rng.choice([1, 3])) for v in _DIFF_VARS}
        results = [(a, oa), (b, ob), (a + b, oa + ob), (a - b, oa - ob), (b - b, ob - ob),
                   (a * b, oa * ob), (-a, -oa), (a * k, oa * _TuplePoly.const(k)),
                   (k * a + b, oa * _TuplePoly.const(k) + ob)]
        for new, old in results:
            _assert_same(new, old, point)
            assert new.evaluate(qpoint) == old.evaluate(qpoint)
            # on int residues the field evaluates mod p what Q evaluates
            assert new.evaluate(ints, field) == field.reduce(new.evaluate(ints))
        for n in range(4):
            _assert_same(a ** n, oa ** n, point)
        cancelled += not (a + b) and bool(a)
        assert (a == b) == (oa == ob)
        assert ((a + b) - b == a) and hash((a + b) - b) == hash(a)
        assert (a * b == b * a) and hash(a * b) == hash(b * a)
        if a == b:
            assert hash(a) == hash(b)
        if a.is_constant():
            assert a == oa.terms.get((), 0) and a == RPoly.const(oa.terms.get((), 0))
    assert cancelled > 10


def test_product_cost_does_not_depend_on_other_variables():
    """RPoly keeps no state across polynomials: the product of eight
    trinomials (6,561 terms) over fresh names costs the same after 20,000
    other names have been used."""

    def best_product_time(prefix):
        best = math.inf
        for rep in range(5):
            factors = [RPoly.var(f"{prefix}{rep}.u{i}") + RPoly.var(f"{prefix}{rep}.w{i}") + 1
                       for i in range(8)]
            start = time.perf_counter()
            prod = factors[0]
            for f in factors[1:]:
                prod = prod * f
            best = min(best, time.perf_counter() - start)
            assert len(prod.terms) == 3 ** 8
        return best

    before = best_product_time("hist.before")
    for i in range(20000):
        RPoly.var(f"hist.other{i}")
    after = best_product_time("hist.after")
    assert after < 4 * before, (before, after)


def test_negative_exponents_raise():
    x = RPoly.var("neg.x")
    with pytest.raises(ValueError):
        RPoly.var("neg.x", -1)
    with pytest.raises(ValueError):
        x ** -1
    assert RPoly.var("neg.x", 0) == RPoly.const(1)
    assert dict((x ** 40000 * RPoly.var("neg.y")).terms) == {(("neg.x", 40000), ("neg.y", 1)): 1}


# ---------------------------------------------------------------------------
# residual polynomials


def test_residual_poly_unit_line():
    jets = {
        (1, 0): Jet.principal(0, F(1)),
        (0, 1): Jet.principal(0, F(1)),
        (0, 0): Jet.principal(0, F(1)),
    }
    assert residual_terms(jets, (0, 0)) == {(1, 0): 1, (0, 1): 1, (0, 0): 1}


def test_residual_poly_symbolic_at_vertex_and_ray():
    ax, ay, a1 = (RPoly.var(v) for v in ("ax", "ay", "a1"))
    jets = {
        (1, 0): Jet.principal(1, ax),
        (0, 1): Jet.principal(0, ay),
        (0, 0): Jet.principal(1, a1),
    }
    assert residual_terms(jets, (0, 1)) == {(1, 0): ax, (0, 1): ay, (0, 0): a1}
    # on the (1,1) ray: only x and y attain
    assert residual_terms(jets, (5, 6)) == {(1, 0): ax, (0, 1): ay}


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
    assert dense_roots([-1, 0, 1], ResidualField(5)) == [(1, 1), (4, 1)]


def test_numeric_residues_over_q_are_refused():
    # numeric residues live in F_p only: there is no residual field Q
    for arg in (None, 61.0, F(61), "61"):
        with pytest.raises(ValueError, match="int prime"):
            ResidualField(arg)
    for spec in ("q", "qq", "rationals", "Q"):
        with pytest.raises(ValueError, match=f"cannot parse field spec '{spec.lower()}'"):
            ResidualField.parse(spec)


def test_roots_random_cubic_matches_exhaustive_scan():
    field = ResidualField(10007)
    rng = random.Random(4)
    for _ in range(5):
        coeffs = [rng.randrange(10007) for _ in range(3)] + [rng.randrange(1, 10007)]
        roots = dict(dense_roots(coeffs, field))
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
    assert dense_roots([-45, 39, -11, 1], ResidualField(10007)) == [(3, 2), (5, 1)]


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
    draws = {ResidualField(3).random_nonzero(random.Random(t)) for t in range(40)}
    assert draws == {1, 2}


def test_schwartz_zippel_sanity():
    # empirical vanishing rate of a nonzero polynomial is at most d/q + 3 sigma
    field = ResidualField(101)
    rng = random.Random(8)
    poly = (RPoly.var("a") + RPoly.var("b")) * RPoly.var("a") + RPoly.const(3)
    d = total_degree(poly)
    trials = 4000
    hits = 0
    for t in range(trials):
        sample = {v: field.random_nonzero(random.Random(t * 31 + 7)) for v in poly.variables()}
        if not poly.evaluate(sample, field):
            hits += 1
    bound = d / 100 + 3 * (d / 100) ** 0.5 / trials**0.5 + 3 * (trials ** -0.5)
    assert hits / trials <= d / 100 + 0.05
