import itertools
import random
from fractions import Fraction as F

import pytest

from tropgeo.residual import FpElt, Jet, ResidualField, RPoly
from tropgeo.stable_ops import curve_step_jets
from tropgeo.trop_linalg import (
    _cramer,
    _cramer_assignment,
    _hungarian_max,
    _laplace,
    _scaled,
    cramer_conditions,
    cramer_stable,
    masked_det,
    pseudodet,
    trop_det,
)

from test_residual import is_monomial


def brute_det(a):
    n = len(a)
    best, perms = None, []
    for sigma in itertools.permutations(range(n)):
        v = sum(a[i][sigma[i]] for i in range(n))
        if best is None or v > best:
            best, perms = v, [sigma]
        elif v == best:
            perms.append(sigma)
    return best, sorted(perms)


def test_trop_det_examples():
    r = trop_det([[0, 0], [0, 0]])
    assert r.value == 0 and len(r.optimal_perms) == 2 and not r.regular
    r = trop_det([[1, 0], [0, 1]])
    assert r.value == 2 and r.regular

    # 2x2 minors of [[0,0,0],[-2,1,0]]: deleting the last column
    r = trop_det([[0, 0], [-2, 1]])
    assert r.value == 1 and r.regular


def test_trop_det_rejects_oversize_and_nonsquare():
    with pytest.raises(ValueError):
        trop_det([[0, 0, 0], [0, 0, 0]])
    with pytest.raises(ValueError):
        trop_det([[0] * 13] * 13)


def test_trop_det_brute_force_oracle():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 5)
        a = [[F(rng.randint(-6, 6)) for _ in range(n)] for _ in range(n)]
        r = trop_det(a)
        value, perms = brute_det(a)
        assert r.value == value
        assert r.optimal_perms == perms
        assert r.regular == (len(perms) == 1)


def test_row_scaling_invariance():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(2, 4)
        a = [[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        c = F(rng.randint(-5, 5))
        row = rng.randrange(n)
        b = [list(r) for r in a]
        b[row] = [x + c for x in b[row]]
        ra, rb = trop_det(a), trop_det(b)
        assert rb.value == ra.value + c
        assert rb.optimal_perms == ra.optimal_perms
        assert rb.regular == ra.regular


def test_cramer_stable_examples():
    sol = cramer_stable([[0, 0, 0], [0, 0, 0]])
    assert sol.values == (0, 0, 0)
    assert sol.regular == (False, False, False)

    sol = cramer_stable([[0, 0, 0], [-2, 1, 0]])
    assert sol.values == (1, 0, 1)

    sol = cramer_stable([[0, 0, 0], [-1, 3, 0]])
    assert sol.values == (3, 0, 3)


ORACLE_FAMILIES = {
    "ties": lambda rng: F(rng.randint(-2, 2)),
    "mixed_denominators": lambda rng: F(rng.randint(-3, 3), rng.randint(1, 7)),
    "huge": lambda rng: F(rng.randint(-3, 3), rng.randint(1, 3)) * 10**40,
}


@pytest.mark.parametrize("family", sorted(ORACLE_FAMILIES))
def test_cramer_minors_match_brute_force(family):
    entry = ORACLE_FAMILIES[family]
    rng = random.Random(f"cramer-{family}")
    regular_seen = set()
    for n in range(1, 6):
        for _ in range(12):
            a = [[entry(rng) for _ in range(n + 1)] for _ in range(n)]
            sol = cramer_stable(a)
            for k in range(n + 1):
                minor = [row[:k] + row[k + 1 :] for row in a]
                value, perms = brute_det(minor)
                assert sol.values[k] == value
                assert sol.regular[k] == (len(perms) == 1)
                regular_seen.add(sol.regular[k])
                # the integer assignment is dual feasible and tight
                d, w = _scaled(minor)
                total, u, v, col = _hungarian_max(w)
                assert sorted(col) == list(range(n))
                assert F(total, d) == value == F(sum(u) + sum(v), d)
                for r in range(n):
                    assert u[r] + v[col[r]] == w[r][col[r]]
                    assert all(u[r] + v[c] >= w[r][c] for c in range(n))
    assert regular_seen == {True, False}


def _minor_matchings(tight, k):
    """The perfect matchings of a two-row tight graph without column k."""
    t0, t1 = (cs - {k} for cs in tight)
    return {(a, b) for a in t0 for b in t1 if a != b}


def _closed_form_agrees(w, d):
    got, want = _cramer(w, d), _cramer_assignment(w, d)
    assert got.values == want.values, (w, d)
    for k in range(3):
        assert _minor_matchings(got.tight, k) == _minor_matchings(want.tight, k), (w, d, k)
    assert got.regular == want.regular, (w, d)
    assert got.tight == want.tight, (w, d)


def test_two_by_three_closed_form_matches_the_assignment_path():
    # the closed form that decides every 2 x 3 system against the
    # Hungarian + Dijkstra path it bypasses there: every int matrix with
    # entries in [-2, 2], then 10,000 seeded ones, wide, tied and huge,
    # over denominators 1..7
    for flat in itertools.product(range(-2, 3), repeat=6):
        _closed_form_agrees([list(flat[:3]), list(flat[3:])], 1)
    rng = random.Random("cramer-2x3")
    families = [lambda r=r: rng.randint(-r, r) for r in (1, 3, 1000)]
    families.append(lambda: rng.randint(-3, 3) * 10**40 + rng.randint(-1, 1))
    for entry in families:
        for _ in range(2500):
            _closed_form_agrees([[entry() for _ in range(3)] for _ in range(2)], rng.randint(1, 7))


def test_cramer_leaves_its_matrix_unchanged():
    rng = random.Random(4)
    for n in range(1, 5):
        w = [[rng.randint(-5, 5) for _ in range(n + 1)] for _ in range(n)]
        kept = [list(row) for row in w]
        _cramer(w, 1)
        _cramer_assignment(w, 1)
        assert w == kept


def test_pseudodet_regular_is_single_product():
    a = [[1, 0], [0, 1]]
    b = [[F(5), F(7)], [F(2), F(3)]]
    assert pseudodet(a, b) == 15  # the identity permutation only


def test_pseudodet_all_zero_weights_is_full_determinant():
    a = [[0, 0], [0, 0]]
    b = [[F(1), F(1)], [F(1), F(1)]]
    assert pseudodet(a, b) == 0
    bsym = [[RPoly.var("b11"), RPoly.var("b12")], [RPoly.var("b21"), RPoly.var("b22")]]
    d = pseudodet(a, bsym, zero=RPoly())
    assert d == RPoly.var("b11") * RPoly.var("b22") - RPoly.var("b12") * RPoly.var("b21")


def test_pseudodet_matches_signed_enumeration():
    rng = random.Random(3)
    for _ in range(80):
        n = rng.randint(2, 4)
        a = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        b = [[F(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        _, perms = brute_det(a)
        expected = F(0)
        for sigma in perms:
            sign = (-1) ** sum(
                1 for i in range(n) for j in range(i + 1, n) if sigma[i] > sigma[j]
            )
            prod = F(1)
            for i in range(n):
                prod *= b[i][sigma[i]]
            expected += sign * prod
        assert pseudodet(a, b) == expected


def test_masked_det_elimination_matches_laplace():
    # over F_p masked_det eliminates on ints; the masked Laplace
    # expansion of the same rows is its oracle, on 320 sparse graphs
    # with empty rows, and on all-empty ones, whose determinant is zero
    rng = random.Random(2005)
    for p in (7, 10007):
        field = ResidualField(p)
        for n in range(1, 9):
            for _ in range(20):
                density = rng.choice([0.2, 0.4, 0.7, 1.0])
                rows = [{c: field.elt(rng.randrange(p)) for c in range(n) if rng.random() < density}
                        for _ in range(n)]
                if rng.random() < 0.1:
                    rows[rng.randrange(n)] = {}
                got = masked_det(rows, field.zero)
                assert isinstance(got, FpElt) and got == _laplace(rows, field.zero)((1 << n) - 1), rows
            empty = [{} for _ in range(n)]
            assert masked_det(empty, field.zero) == field.zero == _laplace(empty, field.zero)((1 << n) - 1)


def test_cramer_conditions_all_ones():
    # the third illustrative matrix family: Cram_A(Pc) = (0, 0, 0)
    a = [[0, 0, 0], [0, 0, 0]]
    b = [[F(1)] * 3, [F(1)] * 3]
    assert [v for _, v in cramer_conditions(a, b)] == [0, 0, 0]


def test_cramer_conditions_regular_minors_are_monomials():
    a = [[0, 0, 0], [-2, 1, 0]]
    b = [[RPoly.var("x1"), RPoly.var("y1"), RPoly.const(1)],
         [RPoly.var("x2"), RPoly.var("y2"), RPoly.const(1)]]
    conds = cramer_conditions(a, b, zero=RPoly())
    for _, poly in conds:
        assert is_monomial(poly)


def test_cramer_conditions_are_signed_cramer_minors():
    # minor k keeps only the optimal permutations of A^k, the ones through
    # tight entries, so it is the plain minor of B with the other entries
    # zeroed, and the cofactor-signed minors solve that system
    rng = random.Random(9)
    regular = 0
    for _ in range(40):
        n = rng.randint(2, 3)
        a = [[F(rng.randint(-3, 3)) for _ in range(n + 1)] for _ in range(n)]
        b = [[F(rng.randint(1, 9)) for _ in range(n + 1)] for _ in range(n)]
        sol = cramer_stable(a)
        bt = [[b[r][c] if c in sol.tight[r] else F(0) for c in range(n + 1)] for r in range(n)]
        x = []
        for k, minor in cramer_conditions(a, b):
            cols = [c for c in range(n + 1) if c != k]
            plain = _plain_det([[bt[r][c] for c in cols] for r in range(n)])
            assert minor == plain
            x.append((-1) ** k * minor)
        for row in bt:
            assert sum(row[k] * x[k] for k in range(n + 1)) == 0
        if all(sol.regular):
            # one optimal permutation per minor: a nonzero monomial
            assert all(x)
            regular += 1
    assert regular >= 5


def _plain_det(m):
    n = len(m)
    out = F(0)
    for sigma in itertools.permutations(range(n)):
        sign = (-1) ** sum(
            1 for i in range(n) for j in range(i + 1, n) if sigma[i] > sigma[j]
        )
        prod = F(1)
        for i in range(n):
            prod *= m[i][sigma[i]]
        out += sign * prod
    return out


def test_lemma_disjoint_monomials_for_homogenized_points():
    """Curve-through-points with homogenized symbolic residual points:
    every Cramer entry is a nonzero multihomogeneous polynomial and no
    two entries share a monomial (line and conic supports).  The lift's
    curve step on homogeneous point jets (X, Y, Z), Z of order 0, gives
    these entries as its conditions, and with every Z set to 1 the
    conditions of the same step on the affine jets (X, Y), with the same
    orders: scaling a row by Z^deg changes no order."""
    from tropgeo.trop_core import Support

    rng = random.Random(21)
    for sup_name, npts, deg in [("line", 2, 1), ("conic", 5, 2)]:
        sup = Support.named(sup_name)
        pts = [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(npts)]
        a = [[F(i[0] * q[0] + i[1] * q[1]) for i in sup.points] for q in pts]
        b = []
        for j in range(npts):
            row = []
            for i in sup.points:
                row.append(
                    RPoly.var(f"g{j}.1") ** i[0]
                    * RPoly.var(f"g{j}.2") ** i[1]
                    * RPoly.var(f"g{j}.3") ** (deg - i[0] - i[1])
                )
            b.append(row)
        conds = cramer_conditions(a, b, zero=RPoly())
        monomial_sets = []
        for _, s in conds:
            assert not s.is_zero
            monomial_sets.append(set(s.terms))
        for u in range(len(monomial_sets)):
            for v in range(u + 1, len(monomial_sets)):
                assert not (monomial_sets[u] & monomial_sets[v])
        for mono in set().union(*monomial_sets):
            for j in range(npts):
                assert sum(e for v, e in mono if v.startswith(f"g{j}.")) == deg

        plan = cramer_stable(a)
        var = [[RPoly.var(f"g{j}.{k}") for k in (1, 2, 3)] for j in range(npts)]
        homog = [(Jet.principal(q[0], X), Jet.principal(q[1], Y), Jet.principal(0, Z))
                 for q, (X, Y, Z) in zip(pts, var)]
        affine = [(jx, jy) for jx, jy, _ in homog]
        h_jets, h_conds, h_undecidable = curve_step_jets(sup, homog, plan, RPoly())
        a_jets, a_conds, _ = curve_step_jets(sup, affine, plan, RPoly())
        assert not h_undecidable
        assert [c.poly for c in h_conds.conditions] == [s for _, s in conds]
        dehomogenize = {f"g{j}.{k}": var[j][k - 1] if k < 3 else 1 for j in range(npts) for k in (1, 2, 3)}
        assert [c.poly.evaluate(dehomogenize) for c in h_conds.conditions] == [
            c.poly for c in a_conds.conditions]
        assert {i: j.order for i, j in h_jets.items()} == {i: j.order for i, j in a_jets.items()}
