"""Line-oriented construction DSL.

One statement per line, so catalog files double as documentation of the
construction tables:

    input point A
    input curve Z support conic
    curve l1 = through A B support line
    points {P Q} = intersect l1 l2
    realize A = (0, -3/2)
    realize Z = "3y + 5 + 3y^2 + 0x^2 + 4x + 0xy"
    genpos A C' in Z
    thesis point p on a'' b'' c''
    thesis curve R support cubic through q0 q1 q2

A ``genpos`` line is a precondition of the thesis.  A statement with
such lines is checked over every labeling of its intersection points,
and the thesis must hold on each labeling in which all the listed
points are in generic position in their curve.

Named supports: line, conic, cubic, degree(d), vertical, horizontal,
pencil; explicit supports as lattice-point lists {(0,0), (1,0)}.
Rationals are written p/q.  Comments start with '#'.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field

from .trop_core import _NAMED_SUPPORTS, Support, TropPoly, frac
from .construction import (
    KIND,
    Construction,
    CurveThrough,
    Intersect,
    Statement,
    ThesisCurve,
    ThesisPoint,
    _node_table,
)


class DslError(ValueError):
    def __init__(self, msg, line, col=1):
        super().__init__(f"line {line}, column {col}: {msg}")
        self.line = line
        self.col = col


NAME = r"[A-Za-z0-9_.']+"
_INPUT_POINT = re.compile(rf"^input\s+point\s+({NAME})$")
_INPUT_CURVE = re.compile(rf"^input\s+curve\s+({NAME})\s+support\s+(.+)$")
_CURVE_STEP = re.compile(rf"^curve\s+({NAME})\s*=\s*through\s+((?:{NAME}\s+)*{NAME})\s+support\s+(.+)$")
_POINTS_STEP = re.compile(
    rf"^points\s+\{{\s*((?:{NAME}\s+)*{NAME})\s*\}}\s*=\s*intersect\s+({NAME})\s+({NAME})$"
)
_REALIZE_POINT = re.compile(
    rf"^realize\s+({NAME})\s*=\s*\(\s*(-?\d+(?:/\d+)?)\s*,\s*(-?\d+(?:/\d+)?)\s*\)$"
)
_REALIZE_CURVE = re.compile(rf"^realize\s+({NAME})\s*=\s*\"([^\"]*)\"$")
_GENPOS = re.compile(rf"^genpos\s+((?:{NAME}\s+)*{NAME})\s+in\s+({NAME})$")
_THESIS_POINT = re.compile(rf"^thesis\s+point\s+({NAME})\s+on\s+((?:{NAME}\s+)*{NAME})$")
_THESIS_CURVE = re.compile(
    rf"^thesis\s+curve\s+({NAME})\s+support\s+(.+?)\s+through\s+((?:{NAME}\s+)*{NAME})$"
)
_EXPLICIT_SUPPORT = re.compile(r"^\{\s*(.*?)\s*\}$")
_LATTICE_POINT = re.compile(r"\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)")
_POINT_LIST = re.compile(rf"{_LATTICE_POINT.pattern}(?:\s*,\s*{_LATTICE_POINT.pattern})*")


@dataclass
class InputDecl:
    kind: str  # "point" | "curve"
    name: str
    support: Support | None = None


@dataclass
class DslDocument:
    inputs: list = dc_field(default_factory=list)
    steps: list = dc_field(default_factory=list)  # CurveThrough and Intersect records
    realizations: list = dc_field(default_factory=list)  # (name, value)
    genpos: list = dc_field(default_factory=list)  # (tuple of point names, curve name)
    thesis: ThesisPoint | ThesisCurve | None = None

    def realization_map(self):
        return dict(self.realizations)


def parse_support(text: str, line: int) -> Support:
    text = text.strip()
    m = _EXPLICIT_SUPPORT.match(text)
    if m:
        if not m.group(1):
            raise DslError("empty explicit support", line)
        if not _POINT_LIST.fullmatch(m.group(1)):
            raise DslError(f"explicit support {text!r} is not lattice points (i,j) separated by commas", line)
        return Support((int(a), int(b)) for a, b in _LATTICE_POINT.findall(m.group(1)))
    try:
        return Support.named(text)
    except ValueError as exc:
        raise DslError(str(exc), line) from exc


def parse(text: str) -> DslDocument:
    doc = DslDocument()
    realized = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        col = len(raw) - len(raw.lstrip()) + 1
        m = _INPUT_POINT.match(stripped)
        if m:
            doc.inputs.append(InputDecl("point", m.group(1)))
            continue
        m = _INPUT_CURVE.match(stripped)
        if m:
            doc.inputs.append(
                InputDecl("curve", m.group(1), parse_support(m.group(2), lineno))
            )
            continue
        m = _CURVE_STEP.match(stripped)
        if m:
            doc.steps.append(CurveThrough(
                name=m.group(1), support=parse_support(m.group(3), lineno), through=m.group(2).split()
            ))
            continue
        m = _POINTS_STEP.match(stripped)
        if m:
            doc.steps.append(Intersect(names=m.group(1).split(), curves=(m.group(2), m.group(3))))
            continue
        m = _REALIZE_POINT.match(stripped) or _REALIZE_CURVE.match(stripped)
        if m:
            if m.group(1) in realized:
                raise DslError(f"node {m.group(1)!r} is realized twice", lineno, col)
            realized.add(m.group(1))
            try:
                if m.re is _REALIZE_POINT:
                    value = (frac(m.group(2)), frac(m.group(3)))
                else:
                    value = TropPoly.parse(m.group(2))
            except ValueError as exc:
                raise DslError(str(exc), lineno, col + m.start(2)) from exc
            doc.realizations.append((m.group(1), value))
            continue
        m = _GENPOS.match(stripped)
        if m:
            doc.genpos.append((tuple(m.group(1).split()), m.group(2)))
            continue
        m = _THESIS_POINT.match(stripped) or _THESIS_CURVE.match(stripped)
        if m:
            if doc.thesis is not None:
                raise DslError("a statement has one thesis; this is a second", lineno, col)
            if m.re is _THESIS_POINT:
                doc.thesis = ThesisPoint(name=m.group(1), on=m.group(2).split())
            else:
                doc.thesis = ThesisCurve(
                    name=m.group(1), support=parse_support(m.group(2), lineno), through=m.group(3).split()
                )
            continue
        raise DslError(f"cannot parse statement {stripped!r}", lineno, col)
    return doc


def print_support(sup: Support) -> str:
    for name, pts in _NAMED_SUPPORTS.items():
        if sup == Support(pts):
            return name
    d = max(i + j for i, j in sup.points)
    if 4 <= d <= 12 and sup == Support.degree(d):
        return f"degree({d})"
    return "{" + ", ".join(f"({i},{j})" for i, j in sup.points) + "}"


def print_doc(doc: DslDocument) -> str:
    lines = []
    for inp in doc.inputs:
        if inp.kind == "point":
            lines.append(f"input point {inp.name}")
        else:
            lines.append(f"input curve {inp.name} support {print_support(inp.support)}")
    for s in doc.steps:
        if isinstance(s, CurveThrough):
            lines.append(
                f"curve {s.name} = through {' '.join(s.through)} support {print_support(s.support)}"
            )
        else:
            lines.append(f"points {{{' '.join(s.names)}}} = intersect {s.curves[0]} {s.curves[1]}")
    for name, val in doc.realizations:
        if isinstance(val, TropPoly):
            lines.append(f'realize {name} = "{val}"')
        else:
            lines.append(f"realize {name} = ({val[0]}, {val[1]})")
    for pts, cv in doc.genpos:
        lines.append(f"genpos {' '.join(pts)} in {cv}")
    t = doc.thesis
    if isinstance(t, ThesisPoint):
        lines.append(f"thesis point {t.name} on {' '.join(t.on)}")
    elif t is not None:
        lines.append(
            f"thesis curve {t.name} support {print_support(t.support)} "
            f"through {' '.join(t.through)}"
        )
    return "\n".join(lines) + "\n"


def to_construction(doc: DslDocument) -> Construction:
    c = Construction(steps=list(doc.steps))
    for inp in doc.inputs:
        if inp.kind == "point":
            c.input_points.append(inp.name)
        else:
            c.input_curves.append((inp.name, inp.support))
    return c


def to_statement(doc: DslDocument, name="statement") -> Statement:
    t = doc.thesis
    if t is None:
        raise ValueError("document has no thesis clause")
    c = to_construction(doc)
    table = _node_table(c)
    # (name, the kind its clause needs, the clause's rule)
    if isinstance(t, ThesisPoint):
        named = [(n, "curve", f"thesis point {t.name!r} lies on curves") for n in t.on]
    else:
        named = [(n, "point", f"thesis curve {t.name!r} passes through points") for n in t.through]
    for pts, cv in doc.genpos:
        rule = "genpos lists points in a curve"
        named += [(n, "point", rule) for n in pts] + [(cv, "curve", rule)]
    unknown = sorted({n for n, _, _ in named} - set(table))
    if unknown:
        raise ValueError(f"thesis or genpos names unknown nodes: {' '.join(unknown)}")
    for n, kind, rule in named:
        if table[n][KIND] != kind:
            raise ValueError(f"{rule}; {n!r} is a {table[n][KIND]}")
    return Statement(name=name, hypothesis=c, thesis=t, genpos_pairs=list(doc.genpos))
