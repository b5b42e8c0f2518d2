"""Residual-field arithmetic: scalars, sparse polynomials, jets, and
dense univariate polynomials over F_p or Z (roots, fraction-free
determinants).

The residual field k is either Q or a prime field F_p.  Symbolic values
are sparse ``RPoly``s over Q on packed int monomials; numeric residual
polynomials are dense int
coefficient lists, low degree first: reduced mod p, or over Q an
integer multiple of the polynomial, which has the same roots.
``dense_roots`` finds their roots in k.  All lifting
computations run over the ring of *jets*: principal terms c*t^(-u) with
an explicit absorbing element for "principal information lost", so
undecidability surfaces as a value instead of a crash.

Coefficients of jets range over any of the domains defined here
(field scalars, sparse polynomials, rational functions); all of them
support +, -, *, truth-testing for zero and exact equality.

A fixed multiplicative section of the valuation is assumed implicitly:
t^u * t^v = t^(u+v) exactly, so jets multiply orders additively and
principal coefficients directly.  At the principal-term level this
choice introduces no ambiguity.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from collections.abc import Mapping
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


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class ResidualField:
    """Either Q (p is None) or F_p for a prime p."""

    def __init__(self, p: int | None = None):
        if p is not None and not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    @staticmethod
    def parse(spec: str) -> "ResidualField":
        spec = spec.strip().lower()
        if spec in ("q", "qq", "rationals"):
            return ResidualField(None)
        if spec.startswith("fp:"):
            return ResidualField(int(spec[3:]))
        if spec.startswith("f"):
            return ResidualField(int(spec[1:]))
        raise ValueError(f"cannot parse field spec {spec!r}")

    @property
    def char(self) -> int:
        return self.p or 0

    @property
    def finite(self) -> bool:
        return self.p is not None

    def elt(self, x):
        if self.p is None:
            if isinstance(x, FpElt):
                raise ValueError("cannot coerce F_p element into Q")
            return frac(x)
        if isinstance(x, FpElt):
            if x.p != self.p:
                raise ValueError("mixed characteristics")
            return x
        if isinstance(x, str):
            x = frac(x)
        if isinstance(x, Fraction):
            return FpElt(x.numerator * pow(x.denominator, -1, self.p), self.p)
        return FpElt(int(x), self.p)

    @property
    def zero(self):
        return self.elt(0)

    @property
    def one(self):
        return self.elt(1)

    def random_nonzero(self, rng: random.Random):
        """A uniform element of F_p*; Q has no uniform distribution."""
        if self.p is None:
            raise ValueError("random residues need a finite field")
        return FpElt(rng.randrange(1, self.p), self.p)

    def __eq__(self, other):
        return isinstance(other, ResidualField) and self.p == other.p

    def __hash__(self):
        return hash(("field", self.p))

    def __repr__(self):
        return "Q" if self.p is None else f"F_{self.p}"


# ---------------------------------------------------------------------------
# sparse multivariate polynomials over Q, on packed monomials


_BITS = 16                        # bits of one variable's exponent field
_FIELD = (1 << _BITS) - 1
MAX_EXP = (1 << (_BITS - 1)) - 1  # the top bit of every field stays clear
_INDEX = {}                       # variable name -> field index, first use first
_NAMES = []                       # field index -> variable name
_GUARD = 0                        # the top bit of every registered field


def _index(name: str) -> int:
    global _GUARD
    i = _INDEX.get(name)
    if i is None:
        i = _INDEX[name] = len(_NAMES)
        _NAMES.append(name)
        _GUARD |= 1 << (_BITS * i + _BITS - 1)
    return i


def _pack(mono) -> int:
    """The packed monomial of (name, exponent) pairs with distinct names."""
    m = 0
    for name, e in mono:
        if not 0 <= e <= MAX_EXP:
            raise OverflowError(f"exponent {e} of {name} outside 0..{MAX_EXP}")
        m += e << (_BITS * _index(name))
    return m


def _unpack(m: int) -> tuple:
    """The sorted (name, exponent) pairs of a packed monomial."""
    out = []
    while m:
        shift = (m & -m).bit_length() - 1
        shift -= shift % _BITS
        e = (m >> shift) & _FIELD
        out.append((_NAMES[shift // _BITS], e))
        m -= e << shift
    out.sort()
    return tuple(out)


class _Terms(Mapping):
    """Read-only view of a polynomial's terms: sorted (var, exp) tuples
    to Fraction coefficients, decoded at the first lookup, so that
    counting the terms (as the benchmark's tracer does for every
    product) decodes nothing."""

    __slots__ = ("_t", "_d", "_decoded")

    def __init__(self, t, d):
        self._t, self._d, self._decoded = t, d, None

    def _map(self):
        if self._decoded is None:
            self._decoded = {_unpack(m): Fraction(c, self._d) for m, c in self._t.items()}
        return self._decoded

    def __len__(self):
        return len(self._t)

    def __iter__(self):
        return iter(self._map())

    def __getitem__(self, mono):
        return self._map()[mono]


class RPoly:
    """Sparse polynomial over Q in named variables.

    A monomial is one int (Kronecker packing): variable i owns the bits
    16*i .. 16*i+15, and its exponent sits there.  Indices come from the
    module registry, in first-use order, and never reach an output: the
    ``terms`` view, ``__str__``, ``variables()``, ``total_degree()`` and
    ``evaluate()`` decode to sorted (name, exponent) pairs.  Exponents
    stay in 0..MAX_EXP, so the top bit of every field is clear and the
    sum of two monomials cannot carry into the next variable; an
    exponent past MAX_EXP, from ``var`` or a product, raises
    OverflowError.  Coefficients are int numerators over one positive
    denominator, in lowest terms (1 wherever the library builds them),
    so a product term costs one int add and one int multiply.
    """

    __slots__ = ("_t", "_d")

    def __init__(self, terms=None, den=1):
        """terms: packed monomial -> nonzero int numerator over den, in
        lowest terms; ``RPoly()`` is zero."""
        self._t = terms if terms is not None else {}
        self._d = den

    @staticmethod
    def _reduced(t, d):
        if d != 1:
            g = math.gcd(d, *t.values())
            if g != 1:
                t = {m: c // g for m, c in t.items()}
                d //= g
        return RPoly(t, d)

    @staticmethod
    def var(name: str, exp: int = 1) -> "RPoly":
        return RPoly({_pack(((name, exp),)): 1})

    @staticmethod
    def const(c) -> "RPoly":
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"not a rational scalar: {c!r}")
        c = Fraction(c)
        return RPoly({0: c.numerator}, c.denominator) if c else RPoly()

    @property
    def terms(self):
        return _Terms(self._t, self._d)

    def __bool__(self):
        return bool(self._t)

    @property
    def is_zero(self):
        return not self._t

    def is_monomial(self):
        return len(self._t) == 1

    def is_constant(self):
        return not self._t or (len(self._t) == 1 and 0 in self._t)

    def variables(self):
        # a field of the OR of all monomials is nonzero iff its variable occurs
        return [v for v, _ in _unpack(functools.reduce(operator.or_, self._t, 0))]

    def total_degree(self):
        return max((sum(e for _, e in _unpack(m)) for m in self._t), default=0)

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
        a, b, d = self._t, o._t, self._d
        if d != o._d:
            d = math.lcm(d, o._d)
            a = {m: c * (d // self._d) for m, c in a.items()}
            b = {m: c * (d // o._d) for m, c in b.items()}
        t = dict(a)
        for m, c in b.items():
            s = t.get(m, 0) + c
            if s:
                t[m] = s
            else:
                del t[m]
        return RPoly._reduced(t, d)

    __radd__ = __add__

    def __neg__(self):
        return RPoly({m: -c for m, c in self._t.items()}, self._d)

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
        b = o._t.items()
        for m1, c1 in self._t.items():
            for m2, c2 in b:
                m = m1 + m2
                t[m] = get(m, 0) + c1 * c2
        t = {m: c for m, c in t.items() if c}
        if functools.reduce(operator.or_, t, 0) & _GUARD:
            raise OverflowError(f"a product exponent exceeds {MAX_EXP}")
        return RPoly._reduced(t, self._d * o._d)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers live in RFrac")
        out, b = RPoly({0: 1}), self
        while n:
            if n & 1:
                out = out * b
            n >>= 1
            if n:
                b = b * b
        return out

    def canonical(self):
        return self._d, frozenset(self._t.items())

    def __eq__(self, other):
        o = self._as_poly(other)
        if o is None:
            return NotImplemented
        return self._d == o._d and self._t == o._t

    def __hash__(self):
        return hash(self.canonical())

    def evaluate(self, assignment: dict):
        out = None
        for m, c in self._t.items():
            v = Fraction(c, self._d)
            for var, e in _unpack(m):
                v = v * assignment[var] ** e
            out = v if out is None else out + v
        if out is None:
            return Fraction(0)
        return out

    def __str__(self):
        if not self._t:
            return "0"
        parts = []
        for mono, c in sorted((_unpack(m), c) for m, c in self._t.items()):
            mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in mono)
            c = Fraction(c, self._d)
            cs = f"({c})" if c < 0 or c.denominator != 1 else str(c)
            parts.append(f"{cs}*{mono}" if mono else cs)
        return " + ".join(parts)

    def __repr__(self):
        return f"RPoly({self})"


class RFrac:
    """Rational function num/den; zero test is exact (num == 0)."""

    __slots__ = ("num", "den")

    def __init__(self, num: RPoly, den: RPoly | None = None):
        den = den if den is not None else RPoly.const(1)
        if not den:
            raise ZeroDivisionError("zero denominator in RFrac")
        if not num:
            den = RPoly.const(1)
        self.num = num
        self.den = den

    @staticmethod
    def of(x) -> "RFrac":
        if isinstance(x, RFrac):
            return x
        if isinstance(x, RPoly):
            return RFrac(x)
        return RFrac(RPoly.const(x))

    def __bool__(self):
        return bool(self.num)

    def __add__(self, other):
        o = RFrac.of(other)
        return RFrac(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RFrac(-self.num, self.den)

    def __sub__(self, other):
        return self + (-RFrac.of(other))

    def __mul__(self, other):
        o = RFrac.of(other)
        return RFrac(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = RFrac.of(other)
        if not o.num:
            raise ZeroDivisionError("division by symbolic zero")
        return RFrac(self.num * o.den, self.den * o.num)

    def __eq__(self, other):
        try:
            o = RFrac.of(other)
        except TypeError:
            return NotImplemented
        return (self.num * o.den).canonical() == (o.num * self.den).canonical()

    def __hash__(self):
        return hash(("rfrac", self.num.canonical(), self.den.canonical()))

    def __str__(self):
        if self.den == RPoly.const(1):
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RFrac({self})"


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


JET_ZERO = Jet.zero()


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


def residual_poly(f_jets: dict, b) -> RPoly:
    """The residual polynomial over b as an RPoly in x and y.

    Coefficients that are symbolic polynomials are multiplied through, so
    the result may mix x, y with input residual variables.
    """
    terms = residual_terms(f_jets, b)
    out = RPoly()
    for (i1, i2), c in terms.items():
        mono = RPoly({_pack((("x", i1), ("y", i2))): 1})
        cp = c if isinstance(c, RPoly) else RPoly.const(c)
        out = out + cp * mono
    return out


# ---------------------------------------------------------------------------
# dense univariate polynomials over F_p or Z: int lists, low to high, [] for 0


def _dense_trim(a, p):
    """a reduced mod p (over Z when p is None) without its zero top
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
    """a / b over F_p, or over Z when p is None, for b dividing a."""
    if b == [1]:
        return a
    a = a[:]
    db, lc = len(b) - 1, b[-1]
    inv = pow(lc, -1, p) if p is not None else None
    out = [0] * max(len(a) - db, 0)
    for i in range(len(out) - 1, -1, -1):
        c = a[i + db] * inv % p if p is not None else a[i + db] // lc
        out[i] = c
        if c:
            for k, bk in enumerate(b):
                a[i + k] -= c * bk
    if _dense_trim(a, p):
        raise AssertionError("inexact polynomial division")
    return _dense_trim(out, p)


def dense_det(a, p=None):
    """Determinant of a square matrix over F_p[x], or over Z[x] when p is
    None; entries are dense coefficient lists, low degree first, reduced
    and trimmed ([] for zero).

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


# ---------------------------------------------------------------------------
# univariate roots over the residual field


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
    """All roots in k, with multiplicities and sorted, of a polynomial
    given as dense ints, low degree first: mod p, or over Q any nonzero
    integer multiple of the polynomial.

    Over a finite field this is complete; over Q only degrees <= 2 with a
    square discriminant (after removing x^k) are supported, anything else
    raises RootsOutsideFieldError so callers can switch fields or go
    symbolic.
    """
    if field.finite:
        return [(FpElt(r, field.p), m) for r, m in _fp_roots(coeffs, field.p)]
    f = _dense_trim(list(coeffs), None)
    if len(f) <= 1:
        raise ValueError("root finding needs a nonconstant polynomial")
    k = next(i for i, c in enumerate(f) if c)
    f = f[k:]
    roots = [(Fraction(0), k)] if k else []
    deg = len(f) - 1
    if deg == 1:
        roots.append((Fraction(-f[0], f[1]), 1))
    elif deg == 2:
        c, b, a = f
        disc = b * b - 4 * a * c
        r = math.isqrt(max(disc, 0))
        if r * r != disc:
            raise RootsOutsideFieldError("irrational quadratic roots")
        if r == 0:
            roots.append((Fraction(-b, 2 * a), 2))
        else:
            roots += [(Fraction(-b + r, 2 * a), 1), (Fraction(-b - r, 2 * a), 1)]
    elif deg > 2:
        raise RootsOutsideFieldError(f"degree {deg} root finding over Q is unsupported")
    return sorted(roots)


# ---------------------------------------------------------------------------
# condition sets


NONEMPTY_DENSE = "nonempty-dense"
PROVABLY_EMPTY = "provably-empty"
UNKNOWN = "unknown"
LIKELY_EMPTY = "likely-empty"


@dataclass
class Condition:
    poly: object  # RPoly (symbolic) or a field scalar (numeric evaluation)
    origin: str

    def is_zero(self):
        return not self.poly

    def is_unit(self):
        if isinstance(self.poly, RPoly):
            return bool(self.poly) and self.poly.is_constant()
        return bool(self.poly)

    def key(self):
        if isinstance(self.poly, RPoly):
            return ("p", self.poly.canonical())
        return ("s", repr(self.poly))


@dataclass
class ConditionSet:
    """A conjunction of 'polynomial != 0' constraints, with provenance."""

    conditions: list = dc_field(default_factory=list)
    empty_flag: str = UNKNOWN
    variables: list = dc_field(default_factory=list)
    _keys: set = dc_field(default_factory=set, init=False, repr=False, compare=False)

    def add(self, poly, origin: str):
        """Add poly != 0, unless it is a nonzero constant or repeats a
        stored condition; the first of equal conditions keeps its place
        and origin.  A zero is always stored."""
        cond = Condition(poly, origin)
        if cond.is_zero():
            self.empty_flag = PROVABLY_EMPTY
            self.conditions.append(cond)
            return
        if cond.is_unit():
            return  # nonzero constants carry no constraint
        key = cond.key()
        if key not in self._keys:
            self._keys.add(key)
            self.conditions.append(cond)

    def merge(self, other: "ConditionSet"):
        for c in other.conditions:
            self.add(c.poly, c.origin)
        if other.empty_flag == PROVABLY_EMPTY:
            self.empty_flag = PROVABLY_EMPTY
        for v in other.variables:
            if v not in self.variables:
                self.variables.append(v)

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


def density_test(cs: ConditionSet, field: ResidualField, trials: int, seed: int):
    """Sample the condition variables uniformly in k* and look for a witness.

    Returns (verdict, witness) where witness is an assignment satisfying
    every condition, or None.  Deterministic under the seed; by
    Schwartz-Zippel the failure probability per trial is at most
    (total degree)/|k*|.
    """
    if cs.provably_empty:
        return PROVABLY_EMPTY, None
    variables = set(cs.variables)
    for c in cs.conditions:
        if isinstance(c.poly, RPoly):
            variables.update(c.poly.variables())
    variables = sorted(variables)
    for t in range(max(trials, 1)):
        rng = random.Random(seed * 1000003 + t)
        sample = {v: field.random_nonzero(rng) for v in variables}
        if all(c.poly.evaluate(sample) if isinstance(c.poly, RPoly) else c.poly for c in cs.conditions):
            return NONEMPTY_DENSE, sample
    return LIKELY_EMPTY, None
