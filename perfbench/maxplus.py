"""Hand-written max-plus reference used to check the program's outputs.

It shares no code with ``tropgeo``: a curve is a list of
``((i, j), coefficient)`` terms, a point lies on it when the maximum of
``c + i*x + j*y`` is attained at least twice, and the text printed by
``tropgeo realize`` is parsed here independently.
"""

from __future__ import annotations

import re
from fractions import Fraction

_TERM = re.compile(
    r"^\s*\(?\s*(-?\d+(?:/\d+)?)\s*\)?((?:\s*[xy](?:\^\d+)?)*)\s*$"
)
_MONO = re.compile(r"([xy])(?:\^(\d+))?")
_POINT = re.compile(r"^\(\s*(-?\d+(?:/\d+)?)\s*,\s*(-?\d+(?:/\d+)?)\s*\)$")


def terms_of(poly) -> list:
    """The terms of a ``tropgeo.TropPoly``, read from its public fields."""
    return [((i, j), Fraction(c)) for (i, j), c in zip(poly.support.points, poly.coeffs)]


def on_curve(terms, p) -> bool:
    """Whether at least two terms attain the maximum at the point p."""
    x, y = Fraction(p[0]), Fraction(p[1])
    vals = [c + i * x + j * y for (i, j), c in terms]
    top = max(vals)
    return sum(1 for v in vals if v == top) >= 2


def parse_poly(text: str) -> list:
    """Terms of a polynomial written as ``"(-1/2) + 3 x + 0 x y^2"``."""
    out = {}
    for raw in text.split("+"):
        m = _TERM.match(raw)
        if not m:
            raise ValueError(f"cannot read tropical term {raw!r}")
        i = j = 0
        for var, exp in _MONO.findall(m.group(2)):
            if var == "x":
                i += int(exp or 1)
            else:
                j += int(exp or 1)
        if (i, j) in out:
            raise ValueError(f"repeated monomial in {text!r}")
        out[(i, j)] = Fraction(m.group(1))
    return sorted(out.items())


def format_poly(terms) -> str:
    """Inverse of :func:`parse_poly`."""
    parts = []
    for (i, j), c in terms:
        s = f"({c})" if c < 0 or c.denominator != 1 else str(c)
        if i:
            s += " x" if i == 1 else f" x^{i}"
        if j:
            s += " y" if j == 1 else f" y^{j}"
        parts.append(s)
    return " + ".join(parts)


def parse_point(text: str):
    m = _POINT.match(text.strip())
    if not m:
        raise ValueError(f"cannot read point {text!r}")
    return (Fraction(m.group(1)), Fraction(m.group(2)))


def translate(terms, u, v) -> list:
    """Terms of the curve moved by the vector (u, v): g(p) = f(p - (u, v))."""
    return [((i, j), c - i * u - j * v) for (i, j), c in terms]


def parse_realize_output(text: str) -> dict:
    """Node values from the lines ``name = (x, y)`` and ``name = "poly"``."""
    out = {}
    for line in text.splitlines():
        name, sep, rhs = line.partition(" = ")
        if not sep:
            raise ValueError(f"unexpected realize line {line!r}")
        rhs = rhs.strip()
        if rhs.startswith('"'):
            out[name] = parse_poly(rhs.strip('"'))
        else:
            out[name] = parse_point(rhs)
    return out
