"""Geometric constructions: incidence DAGs, realization, lifting.

A construction is a DAG program with two step kinds: the stable curve of
a fixed support through delta-1 points, and the stable intersection of
two curves (which creates all of its mixed-volume many points at once).
A statement adds a thesis node to one (``ThesisPoint``, ``ThesisCurve``);
``dsl`` parses its clauses into these records and ``theorems`` checks it.

``lift_conditions`` runs the forward jet propagation that realizes the
residual sufficient-condition set: curve steps contribute
pseudodeterminant conditions, intersection steps contribute resultant
vertex conditions plus the local residual systems at each intersection
point, and auxiliary variables are eliminated by solving those local
systems directly.  One pass serves both residual modes: the input
residuals are indeterminates over Q (symbolic mode, which has no field)
or random elements of F_p* (numeric).  The pass names its ring once, by
its zero (``RPoly()`` or the field's), and hands that zero to every
evaluator, so no ring is guessed from a residue.  A local system of two residual
lines is met in both modes by the masked minors of its 2 x 3 residue
matrix (``_meet``), symbolically as a homogeneous point (X : Y : Z), so
that symbolic mode never divides; every other local system is solved
by root finding in F_p (numeric) and refused symbolically.

The tropical half of each step does not depend on the residues, and the
realization solves it once: ``realize`` keeps the Cramer solution of
each curve step and of each line∩line step, and each intersection
step's stable points, and the lift reads them.  Two lines with
principal jets meet at the cross product of their residue rows, read
off the three masked minors of that Cramer solution with the outputs of
the resultant path (``_line_meet``).  The rest of every other
intersection step's residue-free work, its
resultant corners and the argmax supports of its local solves (see
``stable_ops``), depends on the kinds (principal, degenerate) of its
input jets too.  A ``lift_conditions`` call keeps it in a lift plan,
built at the first pass that meets those kinds and reused by every
later trial, so a trial only evaluates the residues.  The plan is
dropped when the call returns.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field as dc_field
from graphlib import CycleError, TopologicalSorter

from .trop_core import Support, TropPoly, frac, mixed_volume
from .residual import (
    ConditionSet,
    InformationLostError,
    Jet,
    NONEMPTY_DENSE,
    LIKELY_EMPTY,
    PROVABLY_EMPTY,
    DEFAULT_FIELD,
    ResidualField,
    RPoly,
    RootsOutsideFieldError,
    density_test,
    dense_roots,
    residual_terms,
    trial_rng,
)
from .genpos import _DSU
from .stable_ops import (
    _dense_in_y,
    _fiber,
    _intersect,
    _residue,
    _solve_curve,
    curve_step_jets,
    intersection_step_conditions,
    intersection_step_plan,
    line_minors,
    line_rows,
    local_intersection_solve,
    local_line_rows,
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


@dataclass
class ThesisPoint:
    name: str
    on: list


@dataclass
class ThesisCurve:
    name: str
    support: Support
    through: list


@dataclass
class Statement:
    """A hypothesis construction and a thesis node with its incidences;
    ``genpos_pairs`` are the thesis's precondition."""

    name: str
    hypothesis: Construction
    thesis: ThesisPoint | ThesisCurve
    genpos_pairs: list = dc_field(default_factory=list)  # [(point names, curve name)]


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

    def is_acyclic(self):
        """Undirected acyclicity of the Levi graph (union-find)."""
        dsu = _DSU()
        return all(dsu.union(p, b) for p, b in self.flags)


def _incidence_table(g: IncidenceStructure):
    """The node table of an oriented incidence structure (points, then
    blocks), and the least node of an oriented cycle, or None.

    Depths follow a topological order; a cyclic structure has none, so
    its depths stay 0 and only the cycle counts.
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
    depth, cycle = dict.fromkeys(preds, 0), None
    try:
        for n in TopologicalSorter(preds).static_order():
            depth[n] = 1 + max((depth[p] for p in preds[n]), default=-1)
    except CycleError as e:
        cycle = min(e.args[1])
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
    cramer: dict                 # curve or line∩line step index -> its CramerSolution
    intersections: dict          # intersection step index -> StableIntersection


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


def _realize(c: Construction, inputs: dict, labeling=None, base=None) -> TropRealization:
    """``realize`` of a construction that ``_require_exact`` accepted.

    ``base``, a realization of the same inputs in another labeling,
    shares its labeling-independent work: a step whose input values equal
    base's takes base's result (the curve and its Cramer solution, or
    the stable intersection and a line pair's Cramer solution) and only
    applies its own labeling, so a relabeled realization solves just the
    steps downstream of a changed label.
    """
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
    cramer = {}
    inters = {}
    for idx, s in enumerate(c.steps):
        if isinstance(s, CurveThrough):
            if base is not None and all(vals[q] == base.values[q] for q in s.through):
                vals[s.name], cramer[idx] = base.values[s.name], base.cramer[idx]
            else:
                vals[s.name], cramer[idx] = _solve_curve(s.support, [vals[q] for q in s.through])
        else:
            if base is not None and all(vals[n] == base.values[n] for n in s.curves):
                si, sol = base.intersections[idx], base.cramer.get(idx)
            else:
                si, sol = _intersect(vals[s.curves[0]], vals[s.curves[1]])
            if sol is not None:
                cramer[idx] = sol
            labeled = si.as_labeled()
            if len(labeled) != len(s.names):
                raise AssertionError("intersection arity mismatch")
            perm = (labeling or {}).get(idx, range(len(labeled)))
            vals.update((q, labeled[k]) for q, k in zip(s.names, perm, strict=True))
            inters[idx] = si
    return TropRealization(values=vals, cramer=cramer, intersections=inters)


LABELING_MAX_POINTS = 4


def labeling_choices(c: Construction, r: TropRealization):
    """Distinct label assignments per intersection step.

    Permutations inducing the same point assignment are merged; a step
    with more than LABELING_MAX_POINTS labels raises ValueError rather
    than check fewer than all of its labelings.
    """
    per_step = {}
    for idx, si in r.intersections.items():
        labeled = si.as_labeled()
        if len(labeled) > LABELING_MAX_POINTS:
            s = c.steps[idx]
            raise ValueError(f"step 'points {{{' '.join(s.names)}}} = intersect {' '.join(s.curves)}'"
                             f" has {len(labeled)} points; labelings are enumerated for at most"
                             f" {LABELING_MAX_POINTS}")
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
    always_compatible: bool  # all minors regular, or the plan's always_compatible
    certificate: str | None = None
    notes: list = dc_field(default_factory=list)


@dataclass
class LiftReport:
    field: ResidualField | None  # None in symbolic mode
    steps: list
    condition_set: ConditionSet
    verdict: str
    seed: int | None = None
    trials: int | None = None
    successes: int | None = None
    witness_jets: dict | None = None

    def to_json(self):
        return {
            "mode": "symbolic" if self.field is None else "numeric",
            "field": "Q" if self.field is None else repr(self.field),
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
            "witness": None if self.witness_jets is None else _witness_json(self.witness_jets),
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
    """A residual draw of numeric mode: a random element of F_p* per variable."""
    return lambda _name: field.random_nonzero(rng)


def _propagate(c: Construction, r: TropRealization, draw, field, plans: dict):
    """One forward pass, with draw(name) the residual of each input
    variable; the condition set's variables are the names drawn, in
    order; symbolic when field is None.  ``plans`` holds the
    intersection step plans met so far (``_step_plan``).
    Returns (step reports, condition set, node jets, ok)."""
    conds = ConditionSet()
    zero = RPoly() if field is None else field.zero

    def named(v):
        conds.variables.append(v)
        return draw(v)

    jets = {n: _free_jets(n, r.values[n], named)
            for n in [*c.input_points, *(n for n, _ in c.input_curves)]}
    reports = []
    ok = True
    for idx, s in enumerate(c.steps):
        if isinstance(s, CurveThrough):
            rep, ok_step = _propagate_curve_step(idx, s, jets, conds, r.cramer[idx], zero)
        else:
            rep, ok_step = _propagate_intersection_step(idx, s, jets, conds, r, field, zero, plans)
        reports.append(rep)
        ok = ok and ok_step
    return reports, conds, jets, ok


def _step_key(idx, ins):
    """The plan key of intersection step idx with input jets ins, the
    two curves' coefficient-jet dicts: the step and the kinds of its
    jets.  A principal jet's order is fixed by the realization, and so is
    the bound of a degenerate one, so the kinds decide every input order."""
    return idx, tuple(j.kind for jets in ins for j in jets.values())


def _step_plan(plans, idx, ins, build):
    """The residue-free half of intersection step idx for input jets ins:
    built by build() at the first pass that meets their kinds, then
    reused."""
    key = _step_key(idx, ins)
    if key not in plans:
        plans[key] = build()
    return plans[key]


def _propagate_curve_step(idx, s: CurveThrough, jets, conds: ConditionSet, plan, zero):
    """A curve step in zero's ring whose realized Cramer solution is plan:
    a point jet's order is its realized coordinate, whatever its kind."""
    jets[s.name], step_cs, undecidable = curve_step_jets(
        s.support, [jets[q] for q in s.through], plan, zero, origin=f"step#{idx} curve {s.name}")
    conds.merge(step_cs)
    step_conds = [(c.origin, c.poly) for c in step_cs.conditions]
    zeroes = [v for _, v in step_conds if not v]
    # a regular minor gives a monomial pseudodeterminant
    all_reg = all(plan.regular)
    rep = StepReport(
        index=idx,
        kind="curve",
        nodes=[s.name],
        conditions=step_conds,
        all_zero=undecidable,
        some_zero=bool(zeroes) or undecidable,
        fixed=any(plan.regular),
        always_compatible=all_reg,
    )
    if all_reg:
        rep.notes.append("all minors regular")
    return rep, not rep.some_zero


def _point_str(p):
    """A stable point as ``realize`` prints it: (-7, 1/2)."""
    return f"({p[0]}, {p[1]})"


def _local_solve(f_jets, g_jets, b, field, zero, origin, supports):
    """The torus solutions in zero's ring of the local residual system at
    stable point b and the conditions [(what, value)] the solve adds, or
    the InformationLostError that ended it.  ``supports`` is the step
    plan's ``point_supports`` at b.

    Two residual polynomials that, moved to the origin, lie in the line
    support are two residual lines, which both modes meet by the masked
    minors of their residue rows (``local_line_rows``, ``_meet``).
    Numeric mode (a field F_p) solves every other system by elimination
    and finds every solution (x, y) in (F_p*)^2, so an empty list adds
    the zero condition "no torus solution"; symbolic mode (field None)
    solves linear systems only.
    """
    if isinstance(supports, InformationLostError):
        return supports
    rows = local_line_rows(f_jets, g_jets, supports)
    if rows is not None:
        return _meet(rows[0], line_minors(rows, zero), field)
    if field is None:
        raise SymbolicModeUnsupported(f"{origin}: local system is not linear at point {_point_str(b)}")
    try:
        sols = local_intersection_solve(f_jets, g_jets, b, field, supports)
    except InformationLostError as exc:
        return exc
    if not sols:
        return [], [("no torus solution", zero)]
    sols = sorted(sols, key=lambda t: (repr(t.x), repr(t.y)))
    return [(t.x, t.y) for t in sols], []


def _meet(line, minors, field):
    """The outcome of a local solve of two residual lines a0 + a1*y +
    a2*x, the first with the residues line {column: residue} and both
    with the masked minors (M0, M1, M2) of their 2 x 3 residue matrix
    (``line_minors``): their meet is (1 : y : x) = (M0 : -M1 : M2).

    Symbolically it is the homogeneous point (X : Y : Z) = (-M2 : M1 :
    -M0), whose Z is the "local det" condition and X and Y the torus
    conditions, so a singular system, whose Z is zero, has no solution.
    Over F_p it is the point (M2/M0, -M1/M0) when no minor vanishes and
    "no torus solution" when some do.  When all three vanish the two
    lines are one: a monomial, which has no torus zero, or a line whose
    torus zeros form a curve, so the system is not zero-dimensional."""
    m0, m1, m2 = minors
    if field is None:
        checks = [("local det", -m0), ("torus x", -m2), ("torus y", m1)]
        return [(-m2, m1, -m0)] if m0 and m1 and m2 else [], checks
    if m0 and m1 and m2:
        return [(m2 / m0, -m1 / m0)], []
    if m0 or m1 or m2 or len(line) == 1:
        return [], [("no torus solution", field.zero)]
    return InformationLostError("residual eliminant vanishes; not zero-dimensional")


def _line_meet(f_jets, g_jets, sol, b, field, zero, origin):
    """A line∩line step with principal input jets whose orders have the
    Cramer solution sol, read off its pseudodeterminants (M0, M1, M2)
    (``line_rows``, ``line_minors``) with the outputs of the resultant
    path: (the conditions of ``intersection_step_conditions``, whether
    all of them vanish, the outcome of ``_meet`` at the stable point b,
    fixed, always compatible).

    R_x has the corners -M2 and M0, R_y has -M1 and -M0, and R_z is R_x
    at shear 0.  The step is fixed when both families have a monomial
    corner (M0 regular, or M1 and M2 regular) and always compatible when
    all three minors are regular.
    """
    rows = line_rows(f_jets, g_jets, sol)
    m0, m1, m2 = minors = line_minors(rows, zero)
    cs = ConditionSet()
    for name, corners in (("x", (-m2, m0)), ("y", (-m1, -m0)), ("z", (-m2, m0))):
        for e, v in enumerate(corners):
            cs.add(v, f"{origin} R_{name} coeff {e}")
    reg = sol.regular
    return cs, not any(minors), [(b, _meet(rows[0], minors, field))], reg[0] or (reg[1] and reg[2]), all(reg)


def _propagate_intersection_step(idx, s: Intersect, jets, conds, r, field, zero, plans):
    """Intersection step idx in zero's ring: its report and whether it
    lifted; sets the jets of its points and adds its conditions to
    conds.  Two lines with
    principal jets are read off the Cramer solution that the realization
    keeps for the step (``_line_meet``); every other pair, and two lines
    with a degenerate jet, take the resultant path: the lift plan from
    ``plans`` (``_step_plan``), a local solve per stable point and the
    resultant corners (``intersection_step_conditions``)."""
    f_jets = jets[s.curves[0]]
    g_jets = jets[s.curves[1]]
    origin = f"step#{idx} intersect {s.curves[0]}*{s.curves[1]}"
    si = r.intersections[idx]
    sol = r.cramer.get(idx)
    if sol is not None and all(j.is_principal for j in [*f_jets.values(), *g_jets.values()]):
        (b, _), = si.points
        step_cs, undecidable, outcomes, fixed, always = _line_meet(f_jets, g_jets, sol, b, field, zero, origin)
        notes = ["shear a=0"]
    else:
        plan = _step_plan(plans, idx, (f_jets, g_jets),
                          lambda: intersection_step_plan(f_jets, g_jets, si.points))
        # the local systems, one per distinct stable point, come before the
        # resultants, whose symbolic corner coefficients grow fast with the
        # degree, so that a step symbolic mode cannot solve stops at once
        outcomes = [(b, _local_solve(f_jets, g_jets, b, field, zero, origin, plan.supports[b]))
                    for b, _ in si.points]
        step_cs, undecidable = intersection_step_conditions(f_jets, g_jets, plan, zero, origin=origin)
        notes = [f"shear a={plan.shear}"] if plan.shear is not None else []
        fixed, always = plan.fixed, plan.always_compatible
    conds.merge(step_cs)
    step_conds = [(c.origin, c.poly) for c in step_cs.conditions]
    if always:
        notes.append("always-compatible")
    failed = bool([v for _, v in step_conds if not v]) or undecidable

    solved = {}
    for b, out in outcomes:
        if isinstance(out, Exception):
            notes.append(f"local solve at {_point_str(b)}: {out}")
            solved[b] = []
        else:
            solved[b], checks = out
            for what, v in checks:
                conds.add(v, f"{origin} {what} at {_point_str(b)}")
                step_conds.append((f"{origin} {what} at {_point_str(b)}", v))
        failed = failed or not solved[b]

    # hand the solved principal terms to the labeled points, whose stable
    # points the realization holds; a symbolic point's third jet, of
    # order 0, is its homogeneous coordinate Z
    cursor = {}
    for q in s.names:
        b = r.values[q]
        options = solved[b]
        if options:
            i = cursor.get(b, 0)
            cursor[b] = i + 1
            jets[q] = tuple(Jet.principal(o, v) for o, v in zip((*b, 0), options[i % len(options)]))
        else:
            jets[q] = (Jet.degenerate(b[0]), Jet.degenerate(b[1]))

    rep = StepReport(
        index=idx,
        kind="intersect",
        nodes=list(s.names),
        conditions=step_conds,
        all_zero=undecidable,
        some_zero=failed,
        fixed=fixed,
        always_compatible=always,
        notes=notes,
    )
    return rep, not failed


def lift_conditions(
    c: Construction,
    r: TropRealization,
    field: ResidualField | None = None,
    seed: int = 0,
    trials: int = 32,
) -> LiftReport:
    """Residual conditions for the whole construction to lift.

    The residual field picks the mode.  Both modes run the same forward
    pass; they differ in the input residuals and in the local solve.

    symbolic mode (field None): one pass with indeterminate input
    residuals over Q; the condition set is over the input variables only
    (auxiliary point coordinates are eliminated by forward substitution).
    Restricted to constructions whose local residual systems are linear;
    a singular one is a zero "local det" condition, so the set is
    provably empty.  Its density test samples in ``DEFAULT_FIELD``.

    numeric mode (field F_p): samples input residuals in F_p* and
    propagates; a trial in which every condition is nonzero and every
    local system has a torus solution yields witness jets for every
    node.  The report is that of the first such trial, or else of the
    last of the trials with the fewest failed steps (``some_zero``).

    Each step reads its tropical half from the realization r: a curve
    step its Cramer solution, an intersection step its stable points,
    and a line∩line step with principal input jets its Cramer solution
    too, whose masked minors give its conditions and its point.  The
    plans of the other intersection steps live for this call only
    (``_passes``).
    """
    if trials < 1:
        mode = "symbolic" if field is None else "numeric"
        raise ValueError(f"{mode} mode needs at least one trial, got {trials}")
    kept, kept_failed, successes = None, None, 0
    for outcome in _passes(c, r, field, seed, trials):
        successes += outcome[3]
        failed = sum(s.some_zero for s in outcome[0])
        if kept is None or not kept[3] and (outcome[3] or failed <= kept_failed):
            kept, kept_failed = outcome, failed
    reports, conds, jets, ok = kept
    if field is not None:
        verdict = NONEMPTY_DENSE if successes else LIKELY_EMPTY
    elif conds.provably_empty:
        verdict = PROVABLY_EMPTY
    else:
        verdict, _w = density_test(conds, DEFAULT_FIELD, trials=max(trials, 8), seed=seed)
    rep = LiftReport(
        field=field, steps=reports, condition_set=conds, verdict=verdict, seed=seed,
        trials=None if field is None else trials, successes=None if field is None else successes,
        witness_jets=jets if ok else None,
    )
    return classify_certificates(rep, c)


def _passes(c: Construction, r: TropRealization, field, seed, trials):
    """The forward passes of ``lift_conditions``, one at a time: one
    symbolic pass when field is None, else one numeric pass per trial
    over field.  The passes share one lift plan, which lives as long as
    this generator: the tropical work of each intersection step is done
    once per kinds of its input jets, and a pass evaluates only the
    residues."""
    if field is None:
        draws = [RPoly.var]
    else:
        draws = (_sampler(field, trial_rng(seed, t)) for t in range(trials))
    plans = {}
    for draw in draws:
        yield _propagate(c, r, draw, field, plans)


def _witness_json(jets):
    out = {}
    for n, j in jets.items():
        if isinstance(j, tuple):
            out[n] = {
                "order": [str(j[0].order), str(j[1].order)],
                "coeff": [_jet_coeff_str(j[0], *j[2:]), _jet_coeff_str(j[1], *j[2:])],
            }
        else:
            pts = sorted(j)
            out[n] = {
                "support": [list(p) for p in pts],
                "order": [str(j[p].order) for p in pts],
                "coeff": [_jet_coeff_str(j[p]) for p in pts],
            }
    return out


def _jet_coeff_str(j: Jet, z: Jet | None = None):
    """A witness jet's coefficient, which is principal: a witness is kept
    only when every step lifted.  A coordinate of a homogeneous point
    whose Z jet is z prints as the affine (coefficient)/(Z) unless Z is 1."""
    return str(j.coeff) if z is None or z.coeff == 1 else f"({j.coeff})/({z.coeff})"


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

    For each incidence (q, C), q must lie on the tropical curve, and the
    residual polynomial of C's jets at q must vanish on q's residues:
    sum c*x^i*y^j, or sum c*X^i*Y^j*Z^(D-i-j) at a homogeneous point
    (X : Y : Z), with D the largest degree of C's support, each monomial
    evaluated by ``_residue`` as in ``curve_step_jets``.  Returns a list
    of violations.
    """
    bad = []
    for q, cv in c.flags():
        p = r.values[q]
        f = r.values[cv]
        if not f.on_curve(p):
            bad.append(f"{q} not on tropical curve {cv}")
            continue
        cj = jets[cv]
        qj = jets[q]
        if not all(j.is_principal for j in qj):
            bad.append(f"{q} has non-principal witness jets")
            continue
        try:
            terms = residual_terms(cj, p)
        except InformationLostError as exc:
            bad.append(f"residual terms of {cv} at {q}: {exc}")
            continue
        deg = max(i + j for i, j in cj)
        acc = None
        for i, cf in terms.items():
            v = cf * _residue(qj, i, deg, 1)
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

    ``realization`` maps each node to its tropical value, and a curve's
    support is that of its ``TropPoly``.  The walk alternates
    point-on-curve lifts (choose a residual root of the residual
    polynomial) and curve-through-point lifts (solve one coefficient
    from the linear residual relation, whose monomials ``_residue``
    evaluates at the point).  A curve-through-point lift draws the
    coefficients outside the argmax first, then all of the argmax but
    its first point, which it solves for.
    """
    if not g.is_acyclic():
        raise ValueError("graph not acyclic")
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
        f = realization[b]
        # residual relation: sum over argmax of alpha_i * gamma^i = 0; the
        # point is affine, so its residues need no degree
        _val, arg = f.eval(realization[q])
        if len(arg) < 2:
            raise ValueError(f"point {q!r} is not on curve {b!r} tropically")
        coeffs = {pt: field.random_nonzero(rng) for pt in f.support.points if pt not in arg}
        coeffs.update((pt, field.random_nonzero(rng)) for pt in arg[1:])
        acc = sum((coeffs[pt] * _residue(jets[q], pt, 0, field.elt(1)) for pt in arg[1:]), field.zero)
        coeffs[arg[0]] = -acc / _residue(jets[q], arg[0], 0, field.elt(1))
        if not coeffs[arg[0]]:
            raise ValueError("degenerate residual relation")
        jets[b] = {pt: Jet.principal(o, coeffs[pt]) for pt, o in f.coeff_map().items()}

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
