"""Residual-field arithmetic: scalars, sparse polynomials, jets, and
dense univariate polynomials over F_p (roots, determinants).

Symbolic values live in one ring: sparse ``RPoly``s over Q on sorted
(variable, exponent) monomials, with no division anywhere.  A symbolic
intersection point is homogeneous, (X : Y : Z) with Z the local
determinant, so no residue is ever a fraction.  Numeric residues live
in a prime field F_p only: numeric residual polynomials are dense int
coefficient lists mod p, low degree first, and ``dense_roots`` finds
their roots in F_p.  A lift's
values are *jets*: principal terms c*t^(-u), or an explicit element for
"principal information lost", so undecidability surfaces as a value
instead of a crash.  The lift makes each jet from one order and one
residue (``Jet.of``) and does no jet arithmetic, since every residual
condition is a determinant of residues on a tight graph; the jet ring's
operations are the semantics those determinants are tested against.

Coefficients of jets are numeric residues or ``RPoly``s.  A numeric
residue is a plain int in [0, p), and its ``ResidualField`` owns its
arithmetic: reduction, negation, products, inverses and the masked
determinant and maximal minors; its truth value is the zero test.  An
``RPoly`` carries its own +, -, * and exact equality.  ``FpElt`` wraps
a residue with its prime only at the boundary, for callers that
compute without the field: ``ResidualField.elt``, a numeric lift's
witness jets and the jets of ``lift_acyclic``.

A fixed multiplicative section of the valuation is assumed implicitly:
t^u * t^v = t^(u+v) exactly, so jets multiply orders additively and
principal coefficients directly.  At the principal-term level this
choice introduces no ambiguity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .trop_core import frac


class InformationLostError(ValueError):
    """Raised when a degenerate jet hides the needed principal data."""


class RootsOutsideFieldError(ValueError):
    """Raised when univariate roots do not live in the residual field."""


# ---------------------------------------------------------------------------
# residual fields


class FpElt:
    __slots__ = ("v", "p")

    def __init__(self, v, p):
        self.v = v % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, FpElt):
            if other.p != self.p:
                raise ValueError("mixed characteristics")
            return other.v
        if isinstance(other, int):
            return other % self.p
        if isinstance(other, Fraction):
            return (other.numerator * pow(other.denominator, -1, self.p)) % self.p
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FpElt(self.v + o, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FpElt(self.v - o, self.p)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FpElt(self.v * o, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FpElt(self.v * pow(o, -1, self.p), self.p)

    def __neg__(self):
        return FpElt(-self.v, self.p)

    def __pow__(self, e: int):
        if e < 0:
            return FpElt(pow(self.v, -1, self.p), self.p) ** (-e)
        return FpElt(pow(self.v, e, self.p), self.p)

    def __bool__(self):
        return self.v != 0

    def __eq__(self, other):
        if isinstance(other, FpElt):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.v, self.p))

    def __repr__(self):
        return f"{self.v}"


# Miller-Rabin on the first 13 prime bases, 2..41, is exact below the
# smallest strong pseudoprime to all of them (Sorenson-Webster 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; n at or above _MR_BOUND raises ValueError."""
    if n >= _MR_BOUND:
        raise ValueError(f"{n} is too large for a residue field")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class ResidualField:
    """F_p for a prime p, the field of numeric residues; symbolic mode has
    none.  Its elements are plain ints in [0, p), and its methods are
    their arithmetic; an int's truth value is its zero test."""

    def __init__(self, p: int):
        if not isinstance(p, int):
            raise ValueError(f"a residual field needs an int prime, got {p!r}")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    @staticmethod
    def parse(spec: str) -> "ResidualField":
        """'fp:P' for a prime P."""
        spec = spec.strip().lower()
        if spec.startswith("fp:"):
            try:
                p = int(spec[3:])
            except ValueError:
                pass
            else:
                return ResidualField(p)
        raise ValueError(f"cannot parse field spec {spec!r}")

    def reduce(self, x) -> int:
        """The residue of an int or a Fraction, whose denominator p must
        not divide."""
        if isinstance(x, Fraction):
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        return x % self.p

    def neg(self, a) -> int:
        return -a % self.p

    def mul(self, a, b) -> int:
        return a * b % self.p

    def inv(self, a) -> int:
        return pow(a, -1, self.p)

    def det(self, rows) -> int:
        """The determinant of the square matrix whose row r is rows[r] =
        {column: int entry}, zero elsewhere: 1 and 2 rows in closed form,
        more by elimination (``fp_det``)."""
        p = self.p
        if len(rows) == 1:
            return rows[0].get(0, 0) % p
        if len(rows) == 2:
            (a0, a1), (b0, b1) = ((row.get(0, 0), row.get(1, 0)) for row in rows)
            return (a0 * b1 - a1 * b0) % p
        return fp_det([[row.get(c, 0) for c in range(len(rows))] for row in rows], p)

    def minors(self, rows) -> list:
        """The n+1 maximal minors of the n x (n+1) matrix whose row r is
        rows[r] = {column: int entry}, zero elsewhere, minor k deleting
        column k: 1 and 2 rows in closed form, more by one elimination
        (``fp_minors``)."""
        p = self.p
        if len(rows) == 1:
            get = rows[0].get
            return [get(1, 0) % p, get(0, 0) % p]
        if len(rows) == 2:
            (a0, a1, a2), (b0, b1, b2) = ((row.get(0, 0), row.get(1, 0), row.get(2, 0)) for row in rows)
            return [(a1 * b2 - a2 * b1) % p, (a0 * b2 - a2 * b0) % p, (a0 * b1 - a1 * b0) % p]
        return fp_minors([[row.get(c, 0) for c in range(len(rows) + 1)] for row in rows], p)

    def elt(self, x):
        """The residue of an int or a Fraction as an ``FpElt``, which
        carries its prime, for callers that compute without the field."""
        return FpElt(self.reduce(x), self.p)

    def random_nonzero(self, rng: random.Random) -> int:
        """A uniform element of F_p*."""
        return rng.randrange(1, self.p)

    def __eq__(self, other):
        return isinstance(other, ResidualField) and self.p == other.p

    def __hash__(self):
        return hash(("field", self.p))

    def __repr__(self):
        return f"F_{self.p}"


# the residual field of numeric lifts unless one is given, of the lift probe
# of a statement check, and of symbolic density tests
DEFAULT_FIELD = ResidualField(10007)


# ---------------------------------------------------------------------------
# sparse multivariate polynomials over Q


class RPoly:
    """Sparse polynomial over Q in named variables.

    ``terms`` maps each monomial, a tuple of (name, exponent) pairs sorted
    by name with every exponent at least 1, to its nonzero int or
    Fraction coefficient; the constant monomial is ().  A product adds
    the exponent maps of each pair of monomials.
    """

    __slots__ = ("terms", "_s")

    def __init__(self, terms=None):
        """terms: monomial -> nonzero coefficient; ``RPoly()`` is zero."""
        self.terms = terms if terms is not None else {}
        self._s = None  # the printed form, made on the first ``__str__``

    @staticmethod
    def var(name: str, exp: int = 1) -> "RPoly":
        if exp < 0:
            raise ValueError(f"negative exponent {exp} of {name}")
        return RPoly({((name, exp),) if exp else (): 1})

    @staticmethod
    def const(c) -> "RPoly":
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"not a rational scalar: {c!r}")
        return RPoly({(): c} if c else {})

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def variables(self):
        return sorted({v for m in self.terms for v, _ in m})

    @staticmethod
    def _as_poly(other):
        if isinstance(other, RPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return RPoly.const(other)
        return None

    def __add__(self, other):
        o = self._as_poly(other)
        if o is None:
            return NotImplemented
        t = dict(self.terms)
        for m, c in o.terms.items():
            s = t.get(m, 0) + c
            if s:
                t[m] = s
            else:
                del t[m]
        return RPoly(t)

    __radd__ = __add__

    def __neg__(self):
        return RPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        o = self._as_poly(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        o = self._as_poly(other)
        if o is None:
            return NotImplemented
        t = {}
        get = t.get
        b = o.terms.items()
        for m1, c1 in self.terms.items():
            d1 = dict(m1)
            for m2, c2 in b:
                d = d1.copy()
                for v, e in m2:
                    d[v] = d.get(v, 0) + e
                m = tuple(sorted(d.items()))
                t[m] = get(m, 0) + c1 * c2
        return RPoly({m: c for m, c in t.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("RPoly has no negative powers: symbolic mode divides nothing")
        out, b = RPoly({(): 1}), self
        while n:
            if n & 1:
                out = out * b
            n >>= 1
            if n:
                b = b * b
        return out

    def canonical(self):
        return frozenset(self.terms.items())

    def __eq__(self, other):
        o = self._as_poly(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        return hash(self.canonical())

    def evaluate(self, assignment: dict, field: ResidualField | None = None):
        """The value at assignment, {variable: value}: over Q, or, with a
        field F_p, on int residues mod p, term by term."""
        if field is not None:
            p, acc = field.p, 0
            for m, c in self.terms.items():
                c = field.reduce(c)
                for var, e in m:
                    c = c * pow(assignment[var], e, p) % p
                acc += c
            return acc % p
        out = None
        for m, c in self.terms.items():
            v = c
            for var, e in m:
                v = v * assignment[var] ** e
            out = v if out is None else out + v
        return Fraction(0) if out is None else out

    def __str__(self):
        if self._s is None:
            parts = []
            for mono, c in sorted(self.terms.items()):
                mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in mono)
                cs = f"({c})" if c < 0 or c.denominator != 1 else str(c)
                parts.append(f"{cs}*{mono}" if mono else cs)
            self._s = " + ".join(parts) or "0"
        return self._s

    def __repr__(self):
        return f"RPoly({self})"


# ---------------------------------------------------------------------------
# jets: principal terms with an explicit information-loss element


_ZERO, _PRINCIPAL, _DEGENERATE = 0, 1, 2


class Jet:
    """c*t^(-order) + o(t^(-order)), exact zero, or an unknown below a bound.

    ``order`` is the tropical value (negative valuation).  Addition takes
    the dominant order and sums coefficients on ties; a tie that cancels
    yields a degenerate jet, the carrier of "principal information lost".
    """

    __slots__ = ("kind", "order", "coeff")

    def __init__(self, kind, order, coeff):
        self.kind = kind
        self.order = order
        self.coeff = coeff

    @staticmethod
    def zero() -> "Jet":
        return Jet(_ZERO, None, None)

    @staticmethod
    def principal(order, coeff) -> "Jet":
        if not coeff:
            raise ValueError("principal coefficient must be nonzero")
        return Jet(_PRINCIPAL, frac(order), coeff)

    @staticmethod
    def degenerate(bound) -> "Jet":
        return Jet(_DEGENERATE, frac(bound), None)

    @staticmethod
    def of(order, coeff) -> "Jet":
        """Principal if the coefficient is nonzero, degenerate otherwise."""
        return Jet.principal(order, coeff) if coeff else Jet.degenerate(order)

    @property
    def is_zero(self):
        return self.kind == _ZERO

    @property
    def is_principal(self):
        return self.kind == _PRINCIPAL

    @property
    def is_degenerate(self):
        return self.kind == _DEGENERATE

    def __add__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        a, b = self, other
        if a.is_zero:
            return b
        if b.is_zero:
            return a
        if a.is_principal and b.is_principal:
            if a.order > b.order:
                return a
            if a.order < b.order:
                return b
            return Jet.of(a.order, a.coeff + b.coeff)
        if a.is_degenerate and b.is_degenerate:
            return Jet.degenerate(max(a.order, b.order))
        deg, pri = (a, b) if a.is_degenerate else (b, a)
        # the degenerate part lives strictly below its bound, so a
        # principal term at or above the bound survives exactly
        if pri.order >= deg.order:
            return pri
        return Jet.degenerate(deg.order)

    def __neg__(self):
        if self.is_principal:
            return Jet(_PRINCIPAL, self.order, -self.coeff)
        return self

    def __sub__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Jet.zero()
        order = self.order + other.order
        if self.is_principal and other.is_principal:
            return Jet.of(order, self.coeff * other.coeff)
        return Jet.degenerate(order)

    def __eq__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        return (self.kind, self.order, self.coeff) == (other.kind, other.order, other.coeff)

    def __repr__(self):
        if self.is_zero:
            return "Jet(0)"
        if self.is_degenerate:
            return f"Jet(<{self.order})"
        return f"Jet({self.coeff}*t^-({self.order}))"


# ---------------------------------------------------------------------------
# residual polynomial of a lift at a tropical point


def residual_support(f_jets: dict, b) -> list:
    """The argmax support points over b of the residual polynomial, in
    the order of ``f_jets``, which maps support points (i1, i2) to jets.
    It reads only the orders and kinds of the jets."""
    bx, by = frac(b[0]), frac(b[1])
    vals = [(pt, j, j.order + pt[0] * bx + pt[1] * by) for pt, j in f_jets.items() if not j.is_zero]
    best = max((v for _, j, v in vals if j.is_principal), default=None)
    if best is None:
        raise InformationLostError("no principal jet in the lift")
    support = []
    for pt, j, v in vals:
        if j.is_degenerate:
            # a degenerate jet lives strictly below its bound, so it can
            # only hide information when the bound exceeds the maximum
            if v > best:
                raise InformationLostError(
                    f"principal information lost at support point {pt}"
                )
            continue
        if v == best:
            support.append(pt)
    return support


def support_terms(f_jets: dict, support) -> dict:
    """The support points with their principal coefficients."""
    return {pt: f_jets[pt].coeff for pt in support}


def residual_terms(f_jets: dict, b) -> dict:
    """Terms of the residual polynomial over b: the argmax support points
    (``residual_support``) with their principal coefficients."""
    return support_terms(f_jets, residual_support(f_jets, b))


# ---------------------------------------------------------------------------
# dense univariate polynomials over F_p: int lists, low to high, [] for 0


def _dense_trim(a, p):
    """a, reduced mod p unless p is None, without its zero top
    coefficients; the zero polynomial is []."""
    if p is not None:
        a = [x % p for x in a]
    while a and not a[-1]:
        a.pop()
    return a


def _dense_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _dense_sub(a, b, p):
    """a - b, reduced and trimmed."""
    out = a + [0] * (len(b) - len(a))
    for e, c in enumerate(b):
        out[e] -= c
    return _dense_trim(out, p)


def _dense_exact_quotient(a, b, p):
    """a / b over F_p, for b dividing a."""
    if b == [1]:
        return a
    a = a[:]
    db, inv = len(b) - 1, pow(b[-1], -1, p)
    out = [0] * max(len(a) - db, 0)
    for i in range(len(out) - 1, -1, -1):
        c = a[i + db] * inv % p
        out[i] = c
        if c:
            for k, bk in enumerate(b):
                a[i + k] -= c * bk
    if _dense_trim(a, p):
        raise AssertionError("inexact polynomial division")
    return _dense_trim(out, p)


def dense_det(a, p):
    """Determinant of a square matrix over F_p[x]; entries are dense
    coefficient lists, low degree first, reduced mod the prime p and
    trimmed ([] for zero).

    Fraction-free elimination (Bareiss 1968): after step k every entry
    right of and below the pivot is a (k+2)-minor of the row-swapped
    matrix, so its division by the previous pivot is exact.  A zero
    pivot is swapped with a row below it; O(n^3) polynomial products.
    """
    a = [row[:] for row in a]
    n = len(a)
    sign, prev = 1, [1]
    for k in range(n - 1):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            return []
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        akk, rowk = a[k][k], a[k]
        for rowi in a[k + 1:]:
            aik = rowi[k]
            for j in range(k + 1, n):
                num = _dense_sub(_dense_mul(rowi[j], akk), _dense_mul(aik, rowk[j]), p)
                rowi[j] = _dense_exact_quotient(num, prev, p)
        prev = akk
    det = a[-1][-1]
    return det if sign > 0 else _dense_trim([-c for c in det], p)


def fp_det(a, p):
    """Determinant mod p of a square int matrix: ``dense_det`` on
    constants, by Gaussian elimination on ints."""
    a = [[x % p for x in row] for row in a]
    n = len(a)
    det = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        rowk = a[k]
        det = det * rowk[k] % p
        inv = pow(rowk[k], -1, p)
        for rowi in a[k + 1:]:
            f = rowi[k] * inv % p
            if f:
                for j in range(k + 1, n):
                    rowi[j] = (rowi[j] - f * rowk[j]) % p
    return det % p


def fp_minors(a, p):
    """The n+1 maximal minors mod p of an n x (n+1) int matrix, minor k
    deleting column k, from one elimination.

    Row additions keep every minor and a swap negates them all, so the
    echelon form has A's minors.  By Laplace expansion along a repeated
    row, ((-1)^k M_k)_k lies in A's kernel.  If the pivots miss two
    columns the rank is below n and every minor is 0; else the one free
    column q gives M_q, the signed product of the pivots, and the kernel
    vector v with v_q = 1 by back substitution, so M_k = (-1)^(k+q) M_q v_k.
    """
    a = [[x % p for x in row] for row in a]
    n = len(a)
    sign, pivots, free = 1, [], None
    for c in range(n + 1):
        r = len(pivots)
        piv = next((i for i in range(r, n) if a[i][c]), None)
        if piv is None:
            if free is not None:
                return [0] * (n + 1)
            free = c
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        rowr = a[r]
        inv = pow(rowr[c], -1, p)
        for rowi in a[r + 1:]:
            f = rowi[c] * inv % p
            if f:
                for j in range(c + 1, n + 1):
                    rowi[j] = (rowi[j] - f * rowr[j]) % p
        pivots.append(c)
    mq = sign
    for r, c in enumerate(pivots):
        mq = mq * a[r][c] % p
    v = [0] * (n + 1)
    v[free] = 1
    for r in range(n - 1, -1, -1):
        c, row = pivots[r], a[r]
        acc = sum(row[j] * v[j] for j in range(c + 1, n + 1))
        v[c] = -acc * pow(row[c], -1, p) % p
    return [(mq * v[k] if (k + free) % 2 == 0 else -mq * v[k]) % p for k in range(n + 1)]


# ---------------------------------------------------------------------------
# univariate roots over F_p


def _fp_eval(f, x, p):
    """f(x) mod p by Horner."""
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


def _fp_polymod(a, b, p):
    """a mod b over F_p, dense int lists (low to high)."""
    a = [x % p for x in a]
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] * inv % p
        if c:
            for k in range(db + 1):
                a[i - db + k] = (a[i - db + k] - c * b[k]) % p
    return _dense_trim(a[:db], None)


def _fp_polygcd(a, b, p):
    while b:
        a, b = b, _fp_polymod(a, b, p)
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]


def _fp_powmod(base, e, mod, p):
    out = [1]
    base = _fp_polymod(base, mod, p)
    while e:
        if e & 1:
            out = _fp_polymod(_dense_mul(out, base), mod, p)
        base = _fp_polymod(_dense_mul(base, base), mod, p)
        e >>= 1
    return out


def _fp_roots(coeffs, p):
    """Roots (with multiplicity) of a dense F_p polynomial, exact, sorted.

    Strips the root at zero; the others come from a scan of F_p* when
    p <= 64, else from f itself when it is linear, else from the
    linear-factor part gcd(x^p - x, f) by deterministic shift
    splitting.  Multiplicities by repeated exact division by x - r.
    """
    f = _dense_trim(list(coeffs), p)
    if len(f) <= 1:
        raise ValueError("root finding needs a nonconstant polynomial")
    k = next(i for i, c in enumerate(f) if c)
    f = f[k:]
    roots = [(0, k)] if k else []
    if len(f) == 1:
        return roots
    if p <= 64:
        cands = [r for r in range(1, p) if not _fp_eval(f, r, p)]
    elif len(f) == 2:
        cands = _fp_split(f, p)
    else:
        xp_minus_x = _dense_sub(_fp_powmod([0, 1], p, f, p), [0, 1], p)
        cands = sorted(_fp_split(_fp_polygcd(f, xp_minus_x, p), p))
    for r in cands:
        m = 0
        while not _fp_eval(f, r, p):
            f = _dense_exact_quotient(f, [-r % p, 1], p)
            m += 1
        roots.append((r, m))
    return roots


def _fp_split(g, p):
    """All roots of a product of distinct linear factors over F_p."""
    if len(g) <= 1:
        return []
    if len(g) == 2:
        return [(-g[0] * pow(g[1], -1, p)) % p]
    for shift in range(0, 4 * len(g) + 16):
        h = _dense_sub(_fp_powmod([shift, 1], (p - 1) // 2, g, p), [1], p)
        d = _fp_polygcd(g, h, p)
        if 1 < len(d) < len(g):
            rest = _dense_exact_quotient(g, d, p)
            return _fp_split(d, p) + _fp_split(rest, p)
    raise AssertionError("deterministic shift splitting failed")


def dense_roots(coeffs, field: ResidualField):
    """All roots in F_p, ints with multiplicities and sorted, of a
    polynomial given as dense ints mod p, low degree first
    (``_fp_roots``)."""
    return _fp_roots(coeffs, field.p)


# ---------------------------------------------------------------------------
# condition sets


NONEMPTY_DENSE = "nonempty-dense"
PROVABLY_EMPTY = "provably-empty"
UNKNOWN = "unknown"
LIKELY_EMPTY = "likely-empty"


@dataclass
class Condition:
    poly: object  # RPoly (symbolic) or a residue (numeric evaluation)
    origin: str


@dataclass
class ConditionSet:
    """A conjunction of 'polynomial != 0' constraints, with provenance."""

    conditions: list = dc_field(default_factory=list)
    empty_flag: str = UNKNOWN
    variables: list = dc_field(default_factory=list)
    _keys: set = dc_field(default_factory=set, init=False, repr=False, compare=False)

    def add(self, poly, origin: str):
        """Add poly != 0, unless it is a nonzero constant, an ``RPoly`` or
        a residue, or repeats a stored condition; the first of equal
        conditions keeps its place and origin.  A zero is always stored."""
        if not poly:
            self.empty_flag = PROVABLY_EMPTY
            self.conditions.append(Condition(poly, origin))
            return
        if not isinstance(poly, RPoly) or poly.is_constant():
            return  # nonzero constants carry no constraint
        key = poly.canonical()
        if key not in self._keys:
            self._keys.add(key)
            self.conditions.append(Condition(poly, origin))

    def merge(self, other: "ConditionSet"):
        """Add other's conditions; a zero one marks self provably empty."""
        for c in other.conditions:
            self.add(c.poly, c.origin)

    @property
    def provably_empty(self):
        return self.empty_flag == PROVABLY_EMPTY

    def to_json(self):
        return {
            "variables": list(self.variables),
            "conditions": [
                {"poly": str(c.poly), "origin": c.origin} for c in self.conditions
            ],
            "verdict": self.empty_flag,
        }


def trial_rng(seed: int, t: int) -> random.Random:
    """The generator of trial t of a seeded run: each trial draws from its
    own stream, so a trial's samples do not depend on the trials before it."""
    return random.Random(seed * 1000003 + t)


def density_test(cs: ConditionSet, field: ResidualField, trials: int, seed: int):
    """Sample the condition variables uniformly in k* and look for a witness.

    Returns (verdict, witness) where witness is an assignment satisfying
    every condition, its values ``FpElt``s, or None.  Each condition is
    evaluated on ints mod p (``RPoly.evaluate``).  Deterministic under the seed;
    by Schwartz-Zippel the failure probability per trial is at most
    (total degree)/|k*|.
    """
    if cs.provably_empty:
        return PROVABLY_EMPTY, None
    # add() drops nonzero scalars as units, and a zero makes the set
    # provably empty, so every condition left is an RPoly
    variables = sorted(set(cs.variables).union(*(c.poly.variables() for c in cs.conditions)))
    for t in range(max(trials, 1)):
        rng = trial_rng(seed, t)
        sample = {v: field.random_nonzero(rng) for v in variables}
        if all(c.poly.evaluate(sample, field) for c in cs.conditions):
            return NONEMPTY_DENSE, {v: field.elt(x) for v, x in sample.items()}
    return LIKELY_EMPTY, None
