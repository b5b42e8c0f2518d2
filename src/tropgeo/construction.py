"""Geometric constructions: incidence DAGs, realization, lifting.

A construction is a DAG program with two step kinds: the stable curve of
a fixed support through delta-1 points, and the stable intersection of
two curves (which creates all of its mixed-volume many points at once).

``lift_conditions`` runs the forward jet propagation that realizes the
residual sufficient-condition set: curve steps contribute
pseudodeterminant conditions, intersection steps contribute resultant
vertex conditions plus the local residual systems at each intersection
point, and auxiliary variables are eliminated by solving those local
systems directly.  One pass serves both residual modes: the input
residuals are indeterminates (symbolic) or random elements of k*
(numeric), and each local system is solved in closed form when linear
(symbolic) or by elimination and root finding (numeric).

The tropical half of each step does not depend on the residues, so a
``lift_conditions`` call keeps a lift plan: each step's plan (see
``stable_ops``) is built at the first pass that meets the kinds
(principal, degenerate, zero) of its input jets, and reused by every
later trial; a trial only evaluates the residues.  The plan is dropped
when the call returns.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field as dc_field

from .trop_core import Support, TropPoly, frac, mixed_volume
from .residual import (
    ConditionSet,
    InformationLostError,
    Jet,
    NONEMPTY_DENSE,
    LIKELY_EMPTY,
    PROVABLY_EMPTY,
    ResidualField,
    RFrac,
    RPoly,
    RootsOutsideFieldError,
    density_test,
    dense_roots,
    residual_terms,
    support_terms,
)
from .genpos import _DSU
from .stable_ops import (
    _condition_poly,
    _dense_in_y,
    _fiber,
    curve_step_jets,
    curve_step_plan,
    intersection_step_conditions,
    intersection_step_plan,
    local_intersection_solve,
    solve_local_linear,
    stable_curve,
    stable_intersection,
)


class SymbolicModeUnsupported(ValueError):
    """Symbolic propagation hit a local system it cannot solve in closed form."""


# ---------------------------------------------------------------------------
# data model


@dataclass
class CurveThrough:
    name: str
    support: Support
    through: list

    @property
    def new_nodes(self):
        return [self.name]


@dataclass
class Intersect:
    names: list
    curves: tuple

    @property
    def new_nodes(self):
        return list(self.names)


@dataclass
class Construction:
    input_points: list = dc_field(default_factory=list)
    input_curves: list = dc_field(default_factory=list)  # (name, Support)
    steps: list = dc_field(default_factory=list)

    def node_names(self):
        return list(_node_table(self))

    def flags(self):
        """Point-on-curve incidences (point, curve), from all steps."""
        out = []
        for s in self.steps:
            if isinstance(s, CurveThrough):
                out.extend((q, s.name) for q in s.through)
            else:
                for q in s.names:
                    out.extend(((q, s.curves[0]), (q, s.curves[1])))
        return out


# A node table maps each node name to (kind, support, direct predecessors,
# defining step index, longest-path depth): kind is "point" or "curve",
# points have support None, inputs have no predecessors, step None and
# depth 0.  Every walk over a construction's DAG reads one.
KIND, SUPPORT, PREDS, STEP, DEPTH = range(5)


def _node_table(c: Construction) -> dict:
    """The node table of a construction, in definition order.

    Raises ValueError when a name is defined twice or a step names a node
    that is not defined above it, so the definition order is a
    topological order and the DAG has no oriented cycle.
    """
    table = {}

    def define(name, kind, support, preds, step):
        if name in table:
            raise ValueError(f"node {name!r} is defined twice")
        depth = 0
        for p in preds:
            if p not in table:
                raise ValueError(f"step #{step} names {p!r}, which is not defined above it")
            depth = max(depth, table[p][DEPTH] + 1)
        table[name] = (kind, support, preds, step, depth)

    for n in c.input_points:
        define(n, "point", None, (), None)
    for n, sup in c.input_curves:
        define(n, "curve", sup, (), None)
    for idx, s in enumerate(c.steps):
        if isinstance(s, CurveThrough):
            define(s.name, "curve", s.support, tuple(s.through), idx)
        else:
            for q in s.names:
                define(q, "point", None, tuple(s.curves), idx)
    return table


def _ancestors(table, name):
    seen = set()
    stack = list(table[name][PREDS])
    while stack:
        n = stack.pop()
        if n not in seen:
            seen.add(n)
            stack.extend(table[n][PREDS])
    return seen


@dataclass
class IncidenceStructure:
    points: list
    blocks: list  # (name, Support)
    flags: list   # (point, block)
    orientation: dict | None = None  # flag -> "pb" (point feeds block) or "bp"

    def support_of(self, name):
        for n, sup in self.blocks:
            if n == name:
                return sup
        raise KeyError(name)

    def is_acyclic(self):
        """Undirected acyclicity of the Levi graph (union-find)."""
        dsu = _DSU()
        return all(dsu.union(p, b) for p, b in self.flags)


def _incidence_table(g: IncidenceStructure):
    """The node table of an oriented incidence structure (points, then
    blocks), and the node at which an oriented cycle closes, or None.

    One iterative depth-first search yields the depths; on a cyclic
    structure the depths are meaningless and only the cycle counts.
    """
    if g.orientation is None:
        raise ValueError("incidence structure carries no orientation")
    preds = {p: [] for p in g.points}
    preds.update((b, []) for b, _ in g.blocks)
    for fl in g.flags:
        p, b = fl
        if g.orientation[fl] == "pb":
            preds[b].append(p)
        else:
            preds[p].append(b)
    depth, cycle = {}, None
    for root in preds:
        if root in depth:
            continue
        stack, open_ = [(root, iter(preds[root]))], {root}
        while stack:
            n, it = stack[-1]
            for p in it:
                if p in open_:
                    if cycle is None:
                        cycle = n
                elif p not in depth:
                    stack.append((p, iter(preds[p])))
                    open_.add(p)
                    break
            else:
                stack.pop()
                open_.discard(n)
                depth[n] = 1 + max((depth.get(p, -1) for p in preds[n]), default=-1)
    sups = dict(g.blocks)
    table = {p: ("point", None, tuple(preds[p]), None, depth[p]) for p in g.points}
    table.update((b, ("curve", sups[b], tuple(preds[b]), None, depth[b])) for b in sups)
    return table, cycle


def construction_to_incidence(c: Construction) -> IncidenceStructure:
    table = _node_table(c)
    flags = c.flags()
    return IncidenceStructure(
        points=[n for n, e in table.items() if e[KIND] == "point"],
        blocks=[(n, e[SUPPORT]) for n, e in table.items() if e[KIND] == "curve"],
        flags=flags,
        orientation={(q, cv): "bp" if cv in table[q][PREDS] else "pb" for q, cv in flags},
    )


# ---------------------------------------------------------------------------
# validation (the subgraph-of-a-construction conditions)


@dataclass
class Diagnostics:
    ok: bool
    exact: bool
    errors: list
    inexact: list


def validate_construction(obj) -> Diagnostics:
    """Check the five conditions for being (a subgraph of) a construction
    graph, and whether the equalities of an exact construction hold."""
    if isinstance(obj, Construction):
        return _diagnostics(_node_table(obj), None)
    return _diagnostics(*_incidence_table(obj))


def _diagnostics(table, cycle) -> Diagnostics:
    errors = [] if cycle is None else [f"oriented cycle through {cycle!r}"]
    inexact = []
    succs = {}  # curve pair -> the points fed by both
    full_steps = []  # curves with all of their delta-1 points
    # points before curves, the order of the messages
    for n, (kind, sup, ps, _step, _depth) in sorted(table.items(),
                                                    key=lambda e: e[1][KIND] == "curve"):
        if kind == "point":
            if len(ps) > 2:
                errors.append(f"point {n!r} has {len(ps)} direct predecessors (max 2)")
            elif len(ps) == 1:
                inexact.append(f"point {n!r} has one predecessor (needs 0 or 2)")
            elif ps:
                succs.setdefault(tuple(sorted(ps)), []).append(n)
        else:
            if any(table[p][KIND] != "point" for p in ps):
                errors.append(f"curve {n!r} passes through non-points")
            limit = sup.delta() - 1
            if len(ps) > limit:
                errors.append(
                    f"curve {n!r} has {len(ps)} direct predecessors (max {limit})"
                )
            elif 0 < len(ps) < limit:
                inexact.append(f"curve {n!r} has {len(ps)} of {limit} points")
            elif ps:
                full_steps.append(n)

    # common-successor bound per curve pair, one mixed volume per support pair
    volumes = {}
    for (c1, c2), pts in succs.items():
        if table[c1][KIND] != "curve" or table[c2][KIND] != "curve":
            errors.append(f"point fed by non-curves {c1!r}, {c2!r}")
            continue
        sups = (table[c1][SUPPORT], table[c2][SUPPORT])
        if sups not in volumes:
            volumes[sups] = mixed_volume(*sups)
        m = volumes[sups]
        if len(pts) > m:
            errors.append(
                f"curves {c1!r},{c2!r} share {len(pts)} successors (mixed volume {m})"
            )
        elif len(pts) < m:
            inexact.append(f"curves {c1!r},{c2!r} share {len(pts)} of {m} points")

    # no repeated full curve steps
    seen = {}
    for n in full_steps:
        key = (table[n][SUPPORT], tuple(sorted(table[n][PREDS])))
        if key in seen:
            errors.append(f"curves {seen[key]!r} and {n!r} repeat the same step")
        seen[key] = n

    return Diagnostics(ok=not errors, exact=not errors and not inexact,
                       errors=errors, inexact=inexact)


def complete_to_construction(g: IncidenceStructure) -> Construction:
    """Embed an oriented incidence structure into an exact construction,
    adding auxiliary input points/lines where arities fall short."""
    table, cycle = _incidence_table(g)
    diag = _diagnostics(table, cycle)
    if not diag.ok:
        raise ValueError("not a construction subgraph: " + "; ".join(diag.errors))
    order = sorted(table, key=lambda n: (table[n][DEPTH], n))
    sups = dict(g.blocks)

    c = Construction()
    aux = itertools.count()
    line = Support.named("line")

    for n in order:
        if not table[n][PREDS]:
            if table[n][KIND] == "point":
                c.input_points.append(n)
            else:
                c.input_curves.append((n, sups[n]))

    # single-predecessor points first get an auxiliary input line
    pair_of, members = {}, {}
    for n in order:
        kind, _sup, ps, _step, _depth = table[n]
        if kind != "point" or not ps:
            continue
        ps = list(ps)
        if len(ps) == 1:
            z = f"_auxline{next(aux)}"
            c.input_curves.append((z, line))
            sups[z] = line
            ps.append(z)
        pair_of[n] = tuple(sorted(ps))
        members.setdefault(pair_of[n], []).append(n)

    done_pairs = set()
    for n in order:
        kind, _sup, ps, _step, _depth = table[n]
        if not ps:
            continue
        if kind == "curve":
            pts = list(ps)
            need = sups[n].delta() - 1 - len(pts)
            for _ in range(need):
                q = f"_auxpt{next(aux)}"
                c.input_points.append(q)
                pts.append(q)
            c.steps.append(CurveThrough(name=n, support=sups[n], through=pts))
        elif pair_of[n] not in done_pairs:
            key = pair_of[n]
            done_pairs.add(key)
            names = list(members[key])
            m = mixed_volume(sups[key[0]], sups[key[1]])
            while len(names) < m:
                names.append(f"_auxint{next(aux)}")
            c.steps.append(Intersect(names=names, curves=key))
    return c


# ---------------------------------------------------------------------------
# admissibility


@dataclass
class DoublePath:
    source: str
    target: str
    paths: tuple


def is_admissible(c: Construction):
    """At most one oriented path between any two nodes; returns
    (True, None) or (False, DoublePath witness).  A malformed
    construction raises ValueError; an inexact one is checked."""
    table = _node_table(c)
    errors = _diagnostics(table, None).errors
    if errors:
        raise ValueError("; ".join(errors))
    counts = {}  # counts[b][a] = #paths a->b
    for b in sorted(table, key=lambda n: (table[n][DEPTH], n)):
        cb = counts[b] = {}
        for p in table[b][PREDS]:
            cb[p] = cb.get(p, 0) + 1
            for a, k in counts[p].items():
                cb[a] = cb.get(a, 0) + k
        for a, k in cb.items():
            if k >= 2:
                return False, DoublePath(source=a, target=b,
                                         paths=_two_paths(table, counts, a, b))
    return True, None


def _two_paths(table, counts, a, b):
    """The first two oriented paths a -> b in depth-first order over the
    direct predecessors, skipping the nodes that a does not reach."""
    out = []
    stack = [(b,)]
    while len(out) < 2:
        path = stack.pop()
        if path[0] == a:
            out.append(path)
            continue
        stack.extend((p,) + path for p in reversed(table[path[0]][PREDS])
                     if p == a or a in counts[p])
    return tuple(out)


# ---------------------------------------------------------------------------
# tropical realization


@dataclass
class TropRealization:
    values: dict                 # node -> point tuple or TropPoly
    intersections: dict          # step index -> StableIntersection
    labelings: dict              # step index -> tuple permutation applied


def realize(c: Construction, inputs: dict, labeling=None) -> TropRealization:
    """Forward tropical evaluation; total, never fails.

    ``labeling`` optionally permutes intersection labels per step index;
    the default order is lexicographic by point, multiplicities repeated.
    """
    _require_exact(c)
    return _realize(c, inputs, labeling)


def _require_exact(c: Construction):
    """Raise ValueError unless c is an exact construction."""
    diag = validate_construction(c)
    if not diag.exact:
        raise ValueError(
            "realize needs an exact construction: " + "; ".join(diag.errors + diag.inexact)
        )


def _realize(c: Construction, inputs: dict, labeling=None) -> TropRealization:
    """``realize`` of a construction that ``_require_exact`` accepted."""
    vals = {}
    for n in c.input_points:
        p = inputs[n]
        vals[n] = (frac(p[0]), frac(p[1]))
    for n, sup in c.input_curves:
        f = inputs[n]
        if not isinstance(f, TropPoly):
            raise TypeError(f"input curve {n!r} needs a TropPoly")
        if f.support != sup:
            raise ValueError(f"input curve {n!r} has the wrong support")
        vals[n] = f
    inters = {}
    labelings = {}
    for idx, s in enumerate(c.steps):
        if isinstance(s, CurveThrough):
            vals[s.name] = stable_curve(s.support, [vals[q] for q in s.through])
        else:
            si = stable_intersection(vals[s.curves[0]], vals[s.curves[1]])
            labeled = si.as_labeled()
            perm = tuple(range(len(labeled)))
            if labeling and idx in labeling:
                perm = tuple(labeling[idx])
            if len(labeled) != len(s.names):
                raise AssertionError("intersection arity mismatch")
            for k, q in enumerate(s.names):
                vals[q] = labeled[perm[k]]
            inters[idx] = si
            labelings[idx] = perm
    return TropRealization(values=vals, intersections=inters, labelings=labelings)


LABELING_MAX_POINTS = 4


def labeling_choices(c: Construction, r: TropRealization):
    """Distinct label assignments per intersection step.

    Permutations inducing the same point assignment are merged; steps
    with more than LABELING_MAX_POINTS labels keep only the default
    order (enumeration is meant for small sets, e.g. conic-line pairs).
    """
    per_step = {}
    for idx, si in r.intersections.items():
        labeled = si.as_labeled()
        if len(labeled) > LABELING_MAX_POINTS:
            per_step[idx] = [tuple(range(len(labeled)))]
            continue
        seen = {}
        for p in itertools.permutations(range(len(labeled))):
            key = tuple(labeled[i] for i in p)
            if key not in seen:
                seen[key] = p
        per_step[idx] = [seen[k] for k in sorted(seen)]
    keys = sorted(per_step)
    for combo in itertools.product(*(per_step[k] for k in keys)):
        yield dict(zip(keys, combo))


# ---------------------------------------------------------------------------
# lifting conditions (the residual-condition forward pass)


CERT_ALWAYS = "AlwaysCompatible"
CERT_CONDITIONAL = "Conditional"
CERT_NEVER = "NeverLiftable"
CERT_GENERIC_FAILS = "GenericLiftFails"
CERT_UNDECIDABLE = "Undecidable"


@dataclass
class StepReport:
    index: int
    kind: str
    nodes: list
    conditions: list      # (origin, value) pairs, value may be poly or scalar
    all_zero: bool
    some_zero: bool
    fixed: bool
    always_compatible: bool  # all minors regular, or the bundle's always_compatible
    certificate: str | None = None
    notes: list = dc_field(default_factory=list)


@dataclass
class LiftReport:
    mode: str
    field: ResidualField
    steps: list
    condition_set: ConditionSet
    verdict: str
    witness: dict | None
    seed: int | None = None
    trials: int | None = None
    successes: int | None = None
    witness_jets: dict | None = None

    def to_json(self):
        return {
            "mode": self.mode,
            "field": repr(self.field),
            "seed": self.seed,
            "trials": self.trials,
            "successes": self.successes,
            "verdict": self.verdict,
            "steps": [
                {
                    "id": s.index,
                    "kind": s.kind,
                    "nodes": list(s.nodes),
                    "certificate": s.certificate,
                    "conditions": [
                        {"origin": o, "poly": str(v)} for o, v in s.conditions
                    ],
                    "notes": list(s.notes),
                }
                for s in self.steps
            ],
            "conditions": self.condition_set.to_json(),
            "witness": self.witness,
        }


def _free_jets(n, value, draw):
    """The principal jets of an input node's tropical value, with the
    residual draw(v) of each of its variables v, drawn in order: x then y
    for a point, the support points in order for a curve."""
    if isinstance(value, TropPoly):
        return {pt: Jet.principal(o, draw(f"{n}[{pt[0]},{pt[1]}]"))
                for pt, o in value.coeff_map().items()}
    return (Jet.principal(frac(value[0]), draw(f"{n}.x")),
            Jet.principal(frac(value[1]), draw(f"{n}.y")))


def _sampler(field: ResidualField, rng: random.Random):
    """A residual draw of numeric mode: a random element of k* per variable."""
    return lambda _name: field.random_nonzero(rng)


def _propagate(c: Construction, r: TropRealization, draw, field, symbolic: bool, plans: dict):
    """One forward pass, with draw(name) the residual of each input
    variable; the condition set's variables are the names drawn, in
    order.  ``plans`` holds the step plans met so far (``_step_plan``).
    Returns (step reports, condition set, node jets, ok)."""
    conds = ConditionSet()

    def named(v):
        conds.variables.append(v)
        return draw(v)

    jets = {n: _free_jets(n, r.values[n], named)
            for n in [*c.input_points, *(n for n, _ in c.input_curves)]}
    reports = []
    ok = True
    for idx, s in enumerate(c.steps):
        if isinstance(s, CurveThrough):
            rep, ok_step = _propagate_curve_step(idx, s, jets, conds, plans)
        else:
            rep, ok_step = _propagate_intersection_step(
                idx, s, jets, conds, r, field, symbolic, plans
            )
        reports.append(rep)
        ok = ok and ok_step
    return reports, conds, jets, ok


def _step_key(idx, ins):
    """The plan key of step idx with input jets ins (pairs of point jets
    or dicts of curve jets): the step and the kinds of its jets.  A
    principal jet's order is fixed by the realization, and so is the
    bound of a degenerate one, so the kinds decide every input order."""
    return idx, tuple(j.kind for x in ins for j in (x.values() if isinstance(x, dict) else x))


def _step_plan(plans, idx, ins, build):
    """The residue-free half of step idx for input jets ins: built by
    build() at the first pass that meets their kinds, then reused."""
    key = _step_key(idx, ins)
    if key not in plans:
        plans[key] = build()
    return plans[key]


def _propagate_curve_step(idx, s: CurveThrough, jets, conds: ConditionSet, plans):
    ins = [jets[q] for q in s.through]
    pt_jets = [((jx.order, jy.order), (jx, jy)) for jx, jy in ins]
    plan = _step_plan(plans, idx, ins, lambda: curve_step_plan(s.support, [p for p, _ in pt_jets]))
    res = curve_step_jets(s.support, pt_jets, origin=f"step#{idx} curve {s.name}", plan=plan)
    jets[s.name] = res.coeff_jets
    conds.merge(res.conditions)
    step_conds = [(c.origin, c.poly) for c in res.conditions.conditions]
    zeroes = [v for _, v in step_conds if not v]
    # a regular minor gives a monomial pseudodeterminant: recompute flags
    all_reg = all(res.minor_regular.values())
    rep = StepReport(
        index=idx,
        kind="curve",
        nodes=[s.name],
        conditions=step_conds,
        all_zero=res.undecidable,
        some_zero=bool(zeroes) or res.undecidable,
        fixed=any(res.minor_regular.values()),
        always_compatible=all_reg,
    )
    if all_reg:
        rep.notes.append("all minors regular")
    return rep, not rep.some_zero


def _local_solve(f_jets, g_jets, b, field, symbolic, origin, supports):
    """The torus solutions of the local residual system at stable point b
    and the conditions [(what, value)] the solve adds, or the
    InformationLostError / RootsOutsideFieldError that ended it.
    ``supports`` is the step plan's ``point_supports`` at b.

    Symbolic mode solves linear systems only, in closed form; the
    coordinates and the determinant must not vanish.
    """
    if isinstance(supports, InformationLostError):
        return supports
    if not symbolic:
        try:
            sols = local_intersection_solve(f_jets, g_jets, b, field, supports)
        except (InformationLostError, RootsOutsideFieldError) as exc:
            return exc
        if not sols:
            return [], [("no torus solution", field.zero)]
        sols = sorted(sols, key=lambda t: (repr(t.x), repr(t.y)))
        return [(t.x, t.y) for t in sols], []
    ft, gt = (support_terms(jets, sup) for jets, sup in zip((f_jets, g_jets), supports))
    try:
        x, y, det = solve_local_linear(ft, gt)
    except ValueError as exc:
        raise SymbolicModeUnsupported(f"{origin}: {exc} at point {b}") from exc
    checks = [(what, _condition_poly(v))
              for what, v in (("local det", det), ("torus x", x), ("torus y", y))]
    return [(x, y)] if all(v for _, v in checks) else [], checks


def _propagate_intersection_step(idx, s: Intersect, jets, conds, r, field, symbolic, plans):
    f_jets = jets[s.curves[0]]
    g_jets = jets[s.curves[1]]
    origin = f"step#{idx} intersect {s.curves[0]}*{s.curves[1]}"
    si = r.intersections[idx]
    points = [b for b, _m in si.points]
    plan = _step_plan(plans, idx, (f_jets, g_jets), lambda: intersection_step_plan(f_jets, g_jets, points))
    # the local systems, one per distinct stable point, come before the
    # resultants, whose symbolic corner coefficients grow fast with the
    # degree, so that a step symbolic mode cannot solve stops at once
    outcomes = [(b, _local_solve(f_jets, g_jets, b, field, symbolic, origin, plan.supports[b]))
                for b in points]
    bundle = intersection_step_conditions(f_jets, g_jets, origin=origin, plan=plan)
    conds.merge(bundle.conditions)
    step_conds = [(c.origin, c.poly) for c in bundle.conditions.conditions]
    notes = [f"shear a={bundle.shear}"] if bundle.shear is not None else []

    if bundle.always_compatible:
        notes.append("always-compatible")
    failed = bool([v for _, v in step_conds if not v]) or bundle.undecidable

    solved = {}
    for b, out in outcomes:
        if isinstance(out, Exception):
            notes.append(f"local solve at {b}: {out}")
            solved[b] = []
        else:
            solved[b], checks = out
            for what, v in checks:
                conds.add(v, f"{origin} {what} at {b}")
                step_conds.append((f"{origin} {what} at {b}", v))
        failed = failed or not solved[b]

    # hand the solved principal terms to the labeled points
    perm = r.labelings[idx]
    labeled_pts = si.as_labeled()
    cursor = {}
    for k, q in enumerate(s.names):
        b = labeled_pts[perm[k]]
        options = solved[b]
        if options:
            i = cursor.get(b, 0)
            x, y = options[i % len(options)]
            cursor[b] = i + 1
            jets[q] = (Jet.principal(b[0], x), Jet.principal(b[1], y))
        else:
            jets[q] = (Jet.degenerate(b[0]), Jet.degenerate(b[1]))

    rep = StepReport(
        index=idx,
        kind="intersect",
        nodes=list(s.names),
        conditions=step_conds,
        all_zero=bundle.undecidable,
        some_zero=failed,
        fixed=bundle.fixed,
        always_compatible=bundle.always_compatible,
        notes=notes,
    )
    return rep, not failed


def lift_conditions(
    c: Construction,
    r: TropRealization,
    mode: str = "symbolic",
    field: ResidualField | None = None,
    seed: int = 0,
    trials: int = 32,
) -> LiftReport:
    """Residual conditions for the whole construction to lift.

    Both modes run the same forward pass; they differ in the input
    residuals and in the local solve.

    symbolic mode: one pass with indeterminate input residuals; the
    condition set is over the input variables only (auxiliary point
    coordinates are eliminated by forward substitution).  Restricted to
    constructions whose local residual systems are linear.

    numeric mode: samples input residuals in k* and propagates; a trial
    in which every condition is nonzero and every local system has a
    torus solution yields witness jets for every node.  The report is
    that of the first such trial, or else of the last one.
    """
    symbolic = mode == "symbolic"
    if symbolic:
        field = field or ResidualField(None)
    elif mode == "numeric":
        field = field or ResidualField(10007)
    else:
        raise ValueError("mode must be 'symbolic' or 'numeric'")
    kept, successes = None, 0
    for outcome in _passes(c, r, field, seed, None if symbolic else trials):
        successes += outcome[3]
        if kept is None or not kept[3]:
            kept = outcome
    reports, conds, jets, ok = kept
    if not symbolic:
        verdict = NONEMPTY_DENSE if successes else LIKELY_EMPTY
    elif conds.provably_empty:
        verdict = PROVABLY_EMPTY
    else:
        sample_field = field if field.finite else ResidualField(10007)
        verdict, _w = density_test(conds, sample_field, trials=max(trials, 8), seed=seed)
    rep = LiftReport(
        mode=mode, field=field, steps=reports, condition_set=conds,
        verdict=verdict, witness=_witness_json(jets) if ok else None, seed=seed,
        trials=None if symbolic else trials, successes=None if symbolic else successes,
        witness_jets=jets if ok else None,
    )
    return classify_certificates(rep, c)


def _passes(c: Construction, r: TropRealization, field, seed, trials):
    """The forward passes of ``lift_conditions``, one at a time: one
    symbolic pass when trials is None, else one numeric pass per trial
    over the finite field.  The passes share one lift plan, which lives
    as long as this generator: the tropical work of each step is done
    once per kinds of its input jets, and a pass evaluates only the
    residues."""
    if trials is None:
        draws = [lambda v: RFrac.of(RPoly.var(v))]
    else:
        if not field.finite:
            raise ValueError("numeric mode needs a finite residual field")
        if trials < 1:
            raise ValueError(f"numeric mode needs at least one trial, got {trials}")
        draws = (_sampler(field, random.Random(seed * 1000003 + t)) for t in range(trials))
    plans = {}
    for draw in draws:
        yield _propagate(c, r, draw, field, trials is None, plans)


def _witness_json(jets):
    out = {}
    for n, j in jets.items():
        if isinstance(j, tuple):
            out[n] = {
                "order": [str(j[0].order), str(j[1].order)],
                "coeff": [_jet_coeff_str(j[0]), _jet_coeff_str(j[1])],
            }
        else:
            pts = sorted(j)
            out[n] = {
                "support": [list(p) for p in pts],
                "order": [str(j[p].order) for p in pts],
                "coeff": [_jet_coeff_str(j[p]) for p in pts],
            }
    return out


def _jet_coeff_str(j: Jet):
    if j.is_principal:
        return str(j.coeff)
    if j.is_degenerate:
        return "?"
    return "0"


def classify_certificates(report: LiftReport, c: Construction) -> LiftReport:
    """Fill per-step certificate classes per the fixed-element case analysis."""
    table = _node_table(c)
    fixed_nodes = set(c.input_points) | {n for n, _ in c.input_curves}
    for rep in report.steps:
        if rep.fixed:
            fixed_nodes.update(rep.nodes)
    for rep in report.steps:
        step = c.steps[rep.index]
        if rep.all_zero:
            rep.certificate = CERT_UNDECIDABLE
            continue
        if rep.some_zero:
            if all(a in fixed_nodes for a in _ancestors(table, step.new_nodes[0])):
                rep.certificate = CERT_NEVER
            else:
                rep.certificate = CERT_GENERIC_FAILS
            continue
        rep.certificate = CERT_ALWAYS if rep.always_compatible else CERT_CONDITIONAL
    return report


def verify_witness(c: Construction, r: TropRealization, jets) -> list:
    """Soundness of witness jets: every flag's residual incidence holds.

    For each incidence (q, C), the residual polynomial of C's jets at q
    must vanish when evaluated at q's residual coordinates, and q must
    lie on the tropical curve.  Returns a list of violations.
    """
    bad = []
    for q, cv in c.flags():
        p = r.values[q]
        f = r.values[cv]
        if not f.on_curve(p):
            bad.append(f"{q} not on tropical curve {cv}")
            continue
        cj = jets[cv]
        qx, qy = jets[q]
        if not (qx.is_principal and qy.is_principal):
            bad.append(f"{q} has non-principal witness jets")
            continue
        try:
            terms = residual_terms(cj, p)
        except InformationLostError as exc:
            bad.append(f"residual terms of {cv} at {q}: {exc}")
            continue
        acc = None
        for (i, j), cf in terms.items():
            v = cf
            if i:
                v = v * qx.coeff**i
            if j:
                v = v * qy.coeff**j
            acc = v if acc is None else acc + v
        if acc:
            bad.append(f"residual incidence of {q} on {cv} fails: {acc}")
    return bad


# ---------------------------------------------------------------------------
# subconstructions and acyclic lifting


def subconstruction_to(c: Construction, node: str) -> Construction:
    """Minimal construction containing all inputs and the given node;
    intersection steps keep all their sibling points."""
    table = _node_table(c)
    needed = {table[n][STEP] for n in _ancestors(table, node) | {node}}
    return Construction(
        input_points=list(c.input_points),
        input_curves=list(c.input_curves),
        steps=[s for idx, s in enumerate(c.steps) if idx in needed],
    )


LIFT_TRIES = 64  # x-residuals tried per point-on-curve lift


def lift_acyclic(g: IncidenceStructure, realization: dict, field: ResidualField, seed: int = 0):
    """Witness jets for an acyclic incidence structure (tree-walk lifting).

    Alternates point-on-curve lifts (choose a residual root of the
    residual polynomial) and curve-through-point lifts (solve one
    coefficient from the linear residual relation).
    """
    if not g.is_acyclic():
        raise ValueError("graph not acyclic")
    if not field.finite:
        raise ValueError("acyclic lifting samples roots; use a finite field")
    rng = random.Random(seed)
    draw = _sampler(field, rng)
    adj = {}
    for p, b in g.flags:
        adj.setdefault(p, []).append(b)
        adj.setdefault(b, []).append(p)
    nodes = g.points + [b for b, _ in g.blocks]
    jets = {}
    block_names = {b for b, _ in g.blocks}

    def lift_point_on_curve(q, b):
        fj = jets[b]
        p = realization[q]
        terms = residual_terms(fj, p)
        if len(terms) < 2:
            raise ValueError(f"point {q!r} is not on curve {b!r} tropically")
        h = _dense_in_y(terms, field)
        for _ in range(LIFT_TRIES):
            # fix one coordinate, solve the other from the univariate trace
            xs = field.random_nonzero(rng)
            trace = _fiber(h, xs, field.p)
            if len(trace) <= 1:
                continue
            roots = [y for y, _ in dense_roots(trace, field) if y]
            if roots:
                y0 = roots[0]
                jets[q] = (
                    Jet.principal(frac(p[0]), xs),
                    Jet.principal(frac(p[1]), y0),
                )
                return
        raise RootsOutsideFieldError(f"no torus root for {q!r} on {b!r}")

    def lift_curve_through_point(b, q):
        sup = g.support_of(b)
        f = realization[b]
        cmap = f.coeff_map()
        p = realization[q]
        qx, qy = jets[q]
        # residual relation: sum over argmax of alpha_i * gamma^i = 0
        val, arg = f.eval(p)
        if len(arg) < 2:
            raise ValueError(f"point {q!r} is not on curve {b!r} tropically")
        coeffs = {}
        for pt in sup.points:
            if pt not in arg:
                coeffs[pt] = field.random_nonzero(rng)
        solve_for = arg[0]
        acc = field.zero
        for pt in arg[1:]:
            cfree = field.random_nonzero(rng)
            coeffs[pt] = cfree
            acc = acc + cfree * (qx.coeff ** pt[0] if pt[0] else field.one) * (
                qy.coeff ** pt[1] if pt[1] else field.one
            )
        mono = (qx.coeff ** solve_for[0] if solve_for[0] else field.one) * (
            qy.coeff ** solve_for[1] if solve_for[1] else field.one
        )
        coeffs[solve_for] = -acc / mono
        if not coeffs[solve_for]:
            raise ValueError("degenerate residual relation")
        jets[b] = {pt: Jet.principal(cmap[pt], coeffs[pt]) for pt in sup.points}

    seen = set()
    for start in sorted(nodes):
        if start in seen:
            continue
        jets[start] = _free_jets(start, realization[start], draw)
        seen.add(start)
        queue = [start]
        while queue:
            x = queue.pop()
            for y in adj.get(x, []):
                if y in seen:
                    continue
                if x in block_names:
                    lift_point_on_curve(y, x)
                else:
                    lift_curve_through_point(y, x)
                seen.add(y)
                queue.append(y)
    return jets
