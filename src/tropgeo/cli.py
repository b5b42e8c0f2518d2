"""Command-line driver.

Exit codes: 0 on success (theorem holds, lift nonempty), 1 on theorem
failure / empty condition set / non-admissible, 2 on usage errors, 3 on
a broken internal invariant (an ``AssertionError``).  The
``TROPGEO_FIELD`` environment variable overrides the default residual
field (e.g. ``fp:10007`` or ``q``).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

from .trop_core import TropPoly, frac
from .residual import ResidualField, PROVABLY_EMPTY, LIKELY_EMPTY
from .construction import is_admissible, lift_conditions, realize
from .genpos import in_general_position
from . import dsl
from . import theorems as th


def _default_field():
    spec = os.environ.get("TROPGEO_FIELD")
    if spec:
        return ResidualField.parse(spec)
    return ResidualField(10007)


def _load_doc(path):
    with open(path) as f:
        return dsl.parse(f.read())


def _realization_inputs(doc, c, seed):
    binds = doc.realization_map()
    missing = [n for n in c.input_points if n not in binds]
    missing += [n for n, _ in c.input_curves if n not in binds]
    if not missing:
        return binds
    rng = random.Random(seed)
    sampled = th.sample_inputs(c, rng)
    sampled.update(binds)
    return sampled


def _write_json(path, obj):
    text = json.dumps(obj, sort_keys=True, indent=2)
    if path == "-":
        print(text)
    else:
        with open(path, "w") as f:
            f.write(text + "\n")


def _value_json(v):
    if isinstance(v, TropPoly):
        return v.to_json()
    return [str(v[0]), str(v[1])]


def cmd_realize(args):
    doc = _load_doc(args.file)
    c = dsl.to_construction(doc)
    inputs = _realization_inputs(doc, c, args.seed)
    r = realize(c, inputs)
    for n in c.node_names():
        v = r.values[n]
        if isinstance(v, TropPoly):
            print(f'{n} = "{v}"')
        else:
            print(f"{n} = ({v[0]}, {v[1]})")
    if args.json:
        _write_json(
            args.json,
            {"seed": args.seed, "nodes": {n: _value_json(v) for n, v in r.values.items()}},
        )
    return 0


def cmd_admissible(args):
    doc = _load_doc(args.file)
    c = dsl.to_construction(doc)
    ok, witness = is_admissible(c)
    if ok:
        print("admissible")
        return 0
    print(f"not admissible: double path {witness.source} => {witness.target}")
    for p in witness.paths:
        print("  path: " + " -> ".join(p))
    return 1


def _lift_report(args, mode):
    doc = _load_doc(args.file)
    c = dsl.to_construction(doc)
    inputs = _realization_inputs(doc, c, args.seed)
    r = realize(c, inputs)
    field = ResidualField.parse(args.field) if args.field else _default_field()
    if mode == "symbolic":
        rep = lift_conditions(c, r, mode="symbolic", seed=args.seed, trials=args.trials)
    else:
        rep = lift_conditions(
            c, r, mode="numeric", field=field, seed=args.seed, trials=args.trials
        )
    return rep, c, r


def cmd_lift(args):
    mode = "symbolic" if args.mode == "symbolic" else "numeric"
    rep, _c, _r = _lift_report(args, mode)
    print(f"verdict: {rep.verdict}")
    if rep.successes is not None:
        print(f"witness trials: {rep.successes}/{rep.trials}")
    if args.json:
        _write_json(args.json, rep.to_json())
    return 0 if rep.verdict not in (PROVABLY_EMPTY, LIKELY_EMPTY) else 1


def cmd_certify(args):
    mode = "symbolic" if args.mode == "symbolic" else "numeric"
    rep, c, _r = _lift_report(args, mode)
    for s in rep.steps:
        step = c.steps[s.index]
        if hasattr(step, "through"):
            desc = f"curve {step.name} through {' '.join(step.through)}"
        else:
            desc = f"points {{{' '.join(step.names)}}} = {step.curves[0]} ^ {step.curves[1]}"
        print(f"step#{s.index} [{s.certificate}] {desc}")
        for note in s.notes:
            print(f"    note: {note}")
    print(f"verdict: {rep.verdict}")
    if args.json:
        _write_json(args.json, rep.to_json())
    return 0 if rep.verdict not in (PROVABLY_EMPTY, LIKELY_EMPTY) else 1


def cmd_theorem(args):
    cat = th.catalog()
    if args.name in cat:
        stmt = cat[args.name]
    elif os.path.exists(args.name):
        doc = _load_doc(args.name)
        stmt = dsl.to_statement(doc, name=os.path.basename(args.name))
    else:
        print(f"unknown theorem {args.name!r}; catalog: {', '.join(sorted(cat))}",
              file=sys.stderr)
        return 2
    field = ResidualField.parse(args.field) if args.field else _default_field()
    verdict = th.check_statement(stmt, trials=args.trials, seed=args.seed, field=field)
    print(f"{verdict.name}: {verdict.passed}/{len(verdict.trials)} trials passed")
    if args.json:
        _write_json(args.json, verdict.to_json())
    if verdict.holds:
        return 0
    for t in verdict.failures[:3]:
        print(f"  failing trial {t.index}: {t.note}")
    return 1


def _parse_point(text):
    text = text.strip().lstrip("(").rstrip(")")
    a, b = text.split(",")
    return (frac(a.strip()), frac(b.strip()))


def cmd_genpos(args):
    doc = _load_doc(args.file)
    c = dsl.to_construction(doc)
    inputs = _realization_inputs(doc, c, args.seed)
    r = realize(c, inputs)
    f = r.values.get(args.curve)
    if not isinstance(f, TropPoly):
        print(f"{args.curve!r} is not a curve node", file=sys.stderr)
        return 2
    pts = [_parse_point(p) for p in args.points]
    ok, witness = in_general_position(f, pts)
    print("in general position" if ok else "no assignment found")
    if args.json:
        _write_json(
            args.json,
            {
                "curve": f.to_json(),
                "points": [[str(p[0]), str(p[1])] for p in pts],
                "in_general_position": ok,
                "witness": witness.to_json() if witness else None,
            },
        )
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# SVG plotting


def _clip_edge(e, bbox):
    """Clip base + t*dir to the box; returns (p0, p1) or None."""
    x0, y0, x1, y1 = bbox
    if e.kind == "segment":
        tlo, thi = Fraction(0), e.length
    elif e.kind == "ray":
        tlo, thi = Fraction(0), None
    else:
        tlo, thi = None, None
    for coord, d, lo, hi in (
        (e.base[0], e.dir[0], x0, x1),
        (e.base[1], e.dir[1], y0, y1),
    ):
        if d == 0:
            if not (lo <= coord <= hi):
                return None
            continue
        a = Fraction(lo - coord, d)
        b = Fraction(hi - coord, d)
        a, b = min(a, b), max(a, b)
        tlo = a if tlo is None else max(tlo, a)
        thi = b if thi is None else min(thi, b)
    if tlo is None or thi is None or tlo > thi:
        return None
    p0 = (e.base[0] + tlo * e.dir[0], e.base[1] + tlo * e.dir[1])
    p1 = (e.base[0] + thi * e.dir[0], e.base[1] + thi * e.dir[1])
    return p0, p1


_COLORS = ["#205080", "#a03020", "#207040", "#806020"]


def render_svg(curves, bbox, markers=None, size=600):
    """Curves clipped to the bbox; markers are ((x, y), multiplicity)."""
    from .trop_core import curve as curve_complex

    x0, y0, x1, y1 = (frac(v) for v in bbox)
    if x1 <= x0 or y1 <= y0:
        raise ValueError("empty bounding box")
    sx = Fraction(size) / (x1 - x0)
    sy = Fraction(size) / (y1 - y0)

    def to_px(p):
        return (
            float((p[0] - x0) * sx),
            float(size - (p[1] - y0) * sy),
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect x="0" y="0" width="{size}" height="{size}" fill="white" stroke="#ccc"/>',
    ]
    for ci, f in enumerate(curves):
        color = _COLORS[ci % len(_COLORS)]
        cx = curve_complex(f)
        for e in cx.edges:
            clipped = _clip_edge(e, (x0, y0, x1, y1))
            if clipped is None:
                continue
            (ax, ay), (bx, by) = map(to_px, clipped)
            w = 1.0 + 0.8 * (e.weight - 1)
            parts.append(
                f'<line x1="{ax:.2f}" y1="{ay:.2f}" x2="{bx:.2f}" y2="{by:.2f}" '
                f'stroke="{color}" stroke-width="{w:.1f}"/>'
            )
        for v in cx.vertices:
            if x0 <= v[0] <= x1 and y0 <= v[1] <= y1:
                px, py = to_px(v)
                parts.append(
                    f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3" fill="{color}"/>'
                )
    for (p, mult) in markers or []:
        if x0 <= p[0] <= x1 and y0 <= p[1] <= y1:
            px, py = to_px(p)
            parts.append(
                f'<rect x="{px - 4:.2f}" y="{py - 4:.2f}" width="8" height="8" '
                f'fill="none" stroke="black"/>'
            )
            parts.append(
                f'<text x="{px + 6:.2f}" y="{py - 6:.2f}" font-size="11">{mult}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_plot(args):
    from .stable_ops import stable_intersection

    doc = _load_doc(args.file)
    c = dsl.to_construction(doc)
    inputs = _realization_inputs(doc, c, args.seed)
    r = realize(c, inputs)
    curves = [v for v in r.values.values() if isinstance(v, TropPoly)]
    if not curves:
        print("nothing to plot: no curves realized", file=sys.stderr)
        return 2
    bbox = tuple(frac(v) for v in args.bbox.split(","))
    if len(bbox) != 4:
        print("bbox must be x0,y0,x1,y1", file=sys.stderr)
        return 2
    markers = []
    if len(curves) == 2:
        markers = stable_intersection(curves[0], curves[1]).points
    svg = render_svg(curves, bbox, markers)
    with open(args.svg, "w") as f:
        f.write(svg)
    print(f"wrote {args.svg}")
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="tropgeo", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, field=True):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--json", default=None, help="write a JSON report")
        if field:
            sp.add_argument("--field", default=None, help="fp:P or q")

    sp = sub.add_parser("realize", help="run a construction tropically")
    sp.add_argument("file")
    common(sp, field=False)
    sp.set_defaults(func=cmd_realize)

    sp = sub.add_parser("admissible", help="check the double-path criterion")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_admissible)

    sp = sub.add_parser("lift", help="compute residual lifting conditions")
    sp.add_argument("file")
    sp.add_argument("--mode", choices=["symbolic", "sample"], default="sample")
    sp.add_argument("--trials", type=int, default=32)
    common(sp)
    sp.set_defaults(func=cmd_lift)

    sp = sub.add_parser("certify", help="per-step lifting certificates")
    sp.add_argument("file")
    sp.add_argument("--mode", choices=["symbolic", "sample"], default="sample")
    sp.add_argument("--trials", type=int, default=32)
    common(sp)
    sp.set_defaults(func=cmd_certify)

    sp = sub.add_parser("theorem", help="check a catalog or file statement")
    sp.add_argument("name")
    sp.add_argument("--trials", type=int, default=100)
    common(sp)
    sp.set_defaults(func=cmd_theorem)

    sp = sub.add_parser("genpos", help="generic position of points in a curve")
    sp.add_argument("file")
    sp.add_argument("--curve", required=True)
    sp.add_argument("--points", nargs="+", required=True)
    common(sp, field=False)
    sp.set_defaults(func=cmd_genpos)

    sp = sub.add_parser("plot", help="SVG plot of realized curves")
    sp.add_argument("file")
    sp.add_argument("--svg", required=True)
    sp.add_argument("--bbox", required=True, help="x0,y0,x1,y1")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_plot)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (dsl.DslError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
