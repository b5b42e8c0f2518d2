"""Op groups and the workloads made of them: inputs, operations, checks.

An op group hands out its operations one cycle at a time, and a workload
runs one or more groups together.  Every cycle has the same mix of
operation kinds, so a run made of whole cycles has the same composition
however many cycles fit in it.  The inputs of cycle ``c`` are drawn from
``(seed, c)`` alone, and every operation gets inputs of its own, so a
cache inside the program cannot serve one operation from the work of
another.  (``check_statement`` itself always tries the all-zero special
input first, as it does for a user.)

Each operation has a ``run`` callable, the only part that is timed, and
a ``check`` callable that compares the result with the hand-written
references in :mod:`maxplus` and returns ``(problems, digest_text)``.
The program is reached through module attributes at call time, so the
tracer's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import maxplus
import tropgeo as tg
from tropgeo import cli, dsl, theorems

CATALOG_DIR = os.path.join("src", "tropgeo", "catalog")


@dataclass
class Op:
    kind: str
    run: Callable
    check: Callable


def cycle_rng(group, seed: int, cycle: int) -> random.Random:
    return random.Random(f"{type(group).__name__}:{seed}:{cycle}")


def run_cli(argv):
    """One in-process ``tropgeo`` command: (exit code, stdout)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _realized(text: str):
    """Construction and realization of a fully realized ``.tgc`` text."""
    doc = dsl.parse(text)
    c = dsl.to_construction(doc)
    return c, tg.realize(c, doc.realization_map())


def _flag_problems(c, values) -> list:
    """Every point-on-curve incidence, checked with the reference evaluator."""
    bad = []
    for q, cv in c.flags():
        if not maxplus.on_curve(maxplus.terms_of(values[cv]), values[q]):
            bad.append(f"{q} is not on {cv}")
    return bad


# ---------------------------------------------------------------------------
# theorems: check_statement on the six catalog statements


class Theorems:
    """One op is ``check_statement(stmt, trials=TRIALS[name], seed=k)``;
    each cycle checks every statement ROUNDS times.

    The trial counts give every statement's op about the same cost (about
    0.25 s at the reference speed), so the ops of this group form one dense
    band in the middle of the workload's latencies.  The median op latency
    then falls inside that band, rather than in a gap between op kinds of
    very different cost, where it jumps with every small change of speed.
    chasles and cayley_bacharach_3_3 spend most of a call in their fixed
    cost (specials and lift probe), hence their few trials.
    """

    TRIALS = {"fano": 65, "pappus": 54, "pascal_converse": 26,
              "weak_pascal": 8, "chasles": 3, "cayley_bacharach_3_3": 2}
    ROUNDS = 2

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.statements = theorems.catalog()

    def cycle(self, c: int) -> list:
        rng = cycle_rng(self, self.seed, c)
        ops = []
        for _round in range(self.ROUNDS):
            for name, stmt in self.statements.items():
                k = rng.randrange(10**9)
                ops.append(Op(
                    kind=name,
                    run=lambda stmt=stmt, k=k, n=self.TRIALS[name]:
                        tg.check_statement(stmt, trials=n, seed=k),
                    check=lambda v, stmt=stmt, n=self.TRIALS[name]: self._check(stmt, n, v),
                ))
        return ops

    def _check(self, stmt, trials, verdict):
        bad = []
        if not verdict.holds or verdict.passed != trials or len(verdict.trials) != trials:
            bad.append(f"{stmt.name}: {verdict.passed}/{len(verdict.trials)} trials passed")
        digest = [json.dumps(verdict.to_json(), sort_keys=True)]
        for t in verdict.trials:
            if stmt.genpos_pairs:
                cases = [(lab, w) for lab, _pre, w in t.witness]
            else:
                cases = [(None, t.witness)]
            for lab, w in cases:
                digest.append(f"{t.index} {lab} {w} {t.lift_verdict}")
                if w is None:
                    continue
                r = tg.realize(stmt.hypothesis, t.inputs, labeling=lab)
                bad += [f"trial {t.index}: {p}" for p in _flag_problems(stmt.hypothesis, r.values)]
                bad += [f"trial {t.index}: {p}" for p in self._thesis_problems(stmt, r.values, w)]
        return bad, "\n".join(digest)

    @staticmethod
    def _thesis_problems(stmt, values, witness):
        th = stmt.thesis
        if isinstance(th, theorems.ThesisCurve):
            terms = maxplus.terms_of(witness)
            return [f"thesis curve misses {p}" for p in th.through
                    if not maxplus.on_curve(terms, values[p])]
        return [f"thesis point is off {n}" for n in th.on
                if not maxplus.on_curve(maxplus.terms_of(values[n]), witness)]


# ---------------------------------------------------------------------------
# kernel_degree: stable curves and stable intersections of degree 2..7


class KernelDegree:
    """One op is one ``stable_curve`` or ``stable_intersection`` at degree d;
    a cycle makes both calls once at each degree."""

    DEGREES = range(2, 8)
    ORACLE_MAX_DEGREE = 3

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def cycle(self, c: int) -> list:
        rng = cycle_rng(self, self.seed, c)

        def rq():
            return Fraction(rng.randint(-60, 60), rng.randint(1, 4))

        ops = []
        for d in self.DEGREES:
            sup = tg.Support.degree(d)
            pts = [(rq(), rq()) for _ in range(sup.delta() - 1)]
            f = tg.TropPoly(sup, [rq() for _ in sup.points])
            g = tg.TropPoly(sup, [rq() for _ in sup.points])
            ops.append(Op(
                kind=f"stable_curve.d{d}",
                run=lambda sup=sup, pts=pts: tg.stable_curve(sup, pts),
                check=lambda h, sup=sup, pts=pts: self._check_curve(sup, pts, h),
            ))
            ops.append(Op(
                kind=f"stable_intersection.d{d}",
                run=lambda f=f, g=g: tg.stable_intersection(f, g),
                check=lambda si, d=d, f=f, g=g: self._check_meet(d, f, g, si),
            ))
        return ops

    @staticmethod
    def _check_curve(sup, pts, h):
        bad = []
        if h.support != sup:
            bad.append(f"stable curve has support {h.support}")
        terms = maxplus.terms_of(h)
        bad += [f"stable curve misses {p}" for p in pts if not maxplus.on_curve(terms, p)]
        return bad, str(h)

    def _check_meet(self, d, f, g, si):
        bad = []
        if si.total() != d * d:
            bad.append(f"total multiplicity {si.total()} != {d * d}")
        f_terms, g_terms = maxplus.terms_of(f), maxplus.terms_of(g)
        for p, _m in si.points:
            if not (maxplus.on_curve(f_terms, p) and maxplus.on_curve(g_terms, p)):
                bad.append(f"intersection point {p} is not on both curves")
        if d <= self.ORACLE_MAX_DEGREE and tg.perturbation_oracle(f, g).points != si.points:
            bad.append("differs from the perturbation oracle")
        return bad, repr(si.points)


# ---------------------------------------------------------------------------
# lifting: lift and certify on the catalog files


def _file_problems(text: str, report: dict, expect: str | None) -> list:
    """Verdict, certificates and witness of one JSON lifting report."""
    bad = []
    verdict = report["verdict"]
    if expect is not None and verdict != expect:
        bad.append(f"verdict {verdict}, expected {expect}")
    if any(s["certificate"] is None for s in report["steps"]):
        bad.append("a step has no certificate")
    if report["mode"] == "numeric":
        has_witness = report["witness"] is not None
        if has_witness != (verdict == "nonempty-dense"):
            bad.append(f"witness present={has_witness} with verdict {verdict}")
        if has_witness:
            c, r = _realized(text)
            bad += _flag_problems(c, r.values)
            jets = _witness_jets(report["witness"], report["field"])
            bad += [f"witness: {p}" for p in tg.construction.verify_witness(c, r, jets)]
    return bad


def _report_problems(res, text, expect, report_path):
    """Problems, digest text and report of a command that writes a JSON report."""
    rc, out = res
    if not os.path.exists(report_path):
        return [f"exit code {rc} without a JSON report"], f"{rc}\n{out}", None
    with open(report_path) as f:
        raw = f.read()
    os.remove(report_path)
    report = json.loads(raw)
    empty = report["verdict"] in ("provably-empty", "likely-empty")
    bad = [] if rc == (1 if empty else 0) else [f"exit code {rc} with verdict {report['verdict']}"]
    bad += _file_problems(text, report, expect)
    return bad, f"{rc}\n{out}\n{raw}", report


def _witness_jets(witness: dict, field_repr: str) -> dict:
    field = tg.ResidualField(int(field_repr.removeprefix("F_")))

    def jet(order, coeff):
        if coeff == "0":
            return tg.Jet.zero()
        if coeff == "?":
            return tg.Jet.degenerate(order)
        return tg.Jet.principal(Fraction(order), field.elt(int(coeff)))

    out = {}
    for name, w in witness.items():
        if "support" in w:
            out[name] = {tuple(p): jet(o, k) for p, o, k in zip(w["support"], w["order"], w["coeff"])}
        else:
            out[name] = tuple(jet(o, k) for o, k in zip(w["order"], w["coeff"]))
    return out


class Lifting:
    """One op is one ``tropgeo lift`` or ``tropgeo certify`` command.

    Each cycle writes a fresh copy of every catalog file with all inputs
    realized: points and curves that the file fixes are moved by a seeded
    translation, which keeps their combinatorics and so their verdicts,
    and the other inputs are seeded integer points and curves.
    ``vector_addition`` in symbolic mode takes about 13 s, longer than a
    whole cycle, so symbolic mode runs on its prefix up to ``z`` instead.
    """

    SAMPLE_TRIALS = 8
    BOX = 8
    # Verdicts that hold for every input (criteria 05 and 06, the README).
    SAMPLE_EXPECT = {"abc_double_path": "likely-empty", "vector_addition": "likely-empty"}
    # Symbolic mode runs where every input gives linear local systems;
    # four_lines hits a singular one on about a quarter of inputs (exit 2).
    SYMBOLIC_EXPECT = {"abc_double_path": "provably-empty", "fano": "nonempty-dense",
                       "pappus": "nonempty-dense",
                       "pascal_converse": "nonempty-dense",
                       "vector_addition_z": "nonempty-dense"}

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.sources = {}
        for fn in sorted(os.listdir(CATALOG_DIR)):
            if fn.endswith(".tgc"):
                with open(os.path.join(CATALOG_DIR, fn)) as f:
                    self.sources[fn[:-4]] = f.read()
        va = self.sources["vector_addition"].splitlines()
        self.sources["vector_addition_z"] = "\n".join(
            ln for ln in va if not ln.startswith("curve l9 ")) + "\n"

    def _variant(self, text: str, rng: random.Random) -> str:
        doc = dsl.parse(text)
        fixed = doc.realization_map()
        u, v = rng.randint(-self.BOX, self.BOX), rng.randint(-self.BOX, self.BOX)
        lines = [ln for ln in text.splitlines() if not ln.startswith("realize ")]
        for d in doc.inputs:
            if d.kind == "point":
                if d.name in fixed:
                    x, y = fixed[d.name][0] + u, fixed[d.name][1] + v
                else:
                    x, y = rng.randint(-self.BOX, self.BOX), rng.randint(-self.BOX, self.BOX)
                lines.append(f"realize {d.name} = ({x}, {y})")
            else:
                if d.name in fixed:
                    terms = maxplus.translate(maxplus.terms_of(fixed[d.name]), u, v)
                else:
                    terms = [(p, Fraction(rng.randint(-self.BOX, self.BOX))) for p in d.support.points]
                lines.append(f'realize {d.name} = "{maxplus.format_poly(terms)}"')
        return "\n".join(lines) + "\n"

    def cycle(self, c: int) -> list:
        rng = cycle_rng(self, self.seed, c)
        report = os.path.join(self.workdir, "report.json")
        ops = []
        for name, src in self.sources.items():
            text = self._variant(src, rng)
            path = os.path.join(self.workdir, f"{name}.c{c}.tgc")
            with open(path, "w") as f:
                f.write(text)
            k = str(rng.randrange(10**6))
            commands = []
            if name != "vector_addition_z":
                commands += [
                    ("lift.sample", ["lift", path, "--mode", "sample", "--trials",
                                     str(self.SAMPLE_TRIALS), "--seed", k], self.SAMPLE_EXPECT.get(name)),
                    ("certify", ["certify", path, "--trials", str(self.SAMPLE_TRIALS), "--seed", k],
                     self.SAMPLE_EXPECT.get(name)),
                ]
            if name in self.SYMBOLIC_EXPECT:
                commands.append(("lift.symbolic", ["lift", path, "--mode", "symbolic", "--seed", k],
                                 self.SYMBOLIC_EXPECT[name]))
            for cmd, argv, expect in commands:
                ops.append(Op(
                    kind=f"{cmd}.{name}",
                    run=lambda argv=argv: run_cli(argv + ["--json", report]),
                    check=lambda res, name=name, text=text, expect=expect, cmd=cmd:
                        self._check(name, cmd, text, expect, res, report),
                ))
        return ops

    @staticmethod
    def _check(name, cmd, text, expect, res, report_path):
        bad, digest, report = _report_problems(res, text, expect, report_path)
        if report is not None and cmd == "certify" and name == "vector_addition":
            l9 = [s["certificate"] for s in report["steps"] if "l9" in s["nodes"]]
            if l9 != ["Undecidable"]:
                bad.append(f"l9 certificate {l9}, expected Undecidable")
        return bad, digest


# ---------------------------------------------------------------------------
# long_construction: realize / admissible / certify on generated chains


def chain_text(n_lines: int, rng: random.Random) -> str:
    """Lines L_i through a_i a_(i+1), and q_i = L_i meet L_(i+2)."""
    out = [f"input point a{i}" for i in range(n_lines + 1)]
    out += [f"curve L{i} = through a{i} a{i + 1} support line" for i in range(n_lines)]
    out += [f"points {{q{i}}} = intersect L{i} L{i + 2}" for i in range(n_lines - 2)]
    out += [f"realize a{i} = ({rng.randint(-999, 999)}, {rng.randint(-999, 999)})"
            for i in range(n_lines + 1)]
    return "\n".join(out) + "\n"


class LongConstruction:
    """One op is one ``realize``, ``admissible`` or ``certify --trials 2``
    command on a generated chain of 128 to 512 steps."""

    STEPS = (128, 256, 512)
    CERTIFY_TRIALS = 2

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def cycle(self, c: int) -> list:
        rng = cycle_rng(self, self.seed, c)
        report = os.path.join(self.workdir, "report.json")
        ops = []
        for steps in self.STEPS:
            text = chain_text(steps // 2 + 1, rng)
            path = os.path.join(self.workdir, f"chain{len(ops)}.c{c}.tgc")
            with open(path, "w") as f:
                f.write(text)
            k = str(rng.randrange(10**6))
            ops += [
                Op(f"realize.{steps}", lambda p=path: run_cli(["realize", p]),
                   lambda res, t=text: self._check_realize(t, res)),
                Op(f"admissible.{steps}", lambda p=path: run_cli(["admissible", p]),
                   self._check_admissible),
                Op(f"certify.{steps}",
                   lambda p=path, k=k: run_cli(["certify", p, "--trials", str(self.CERTIFY_TRIALS),
                                                "--seed", k, "--json", report]),
                   lambda res, t=text: self._check_certify(t, res, report)),
            ]
        return ops

    @staticmethod
    def _check_realize(text, res):
        rc, out = res
        if rc != 0:
            return [f"exit code {rc}"], out
        doc = dsl.parse(text)
        c = dsl.to_construction(doc)
        values = maxplus.parse_realize_output(out)
        bad = [f"{n} moved" for n, p in doc.realization_map().items() if values.get(n) != p]
        if set(values) != set(c.node_names()):
            bad.append("realize printed the wrong nodes")
            return bad, out
        for q, cv in c.flags():
            if not maxplus.on_curve(values[cv], values[q]):
                bad.append(f"{q} is not on {cv}")
        return bad, out

    @staticmethod
    def _check_admissible(res):
        rc, out = res
        return ([] if (rc, out) == (0, "admissible\n") else [f"not admissible: {out!r}"]), out

    @staticmethod
    def _check_certify(text, res, report_path):
        bad, digest, _report = _report_problems(res, text, "nonempty-dense", report_path)
        return bad, digest


class Workload:
    """Op groups run together: every cycle holds each group's ops for it."""

    def __init__(self, groups, seed: int, workdir: str):
        self.groups = [g(seed, workdir) for g in groups]

    def cycle(self, c: int) -> list:
        return [op for g in self.groups for op in g.cycle(c)]


# In-library calls (the checker and the kernels) and CLI commands (the
# residual layer and the construction bookkeeping) stress different layers.
WORKLOADS = {
    "library": (Theorems, KernelDegree),
    "commands": (Lifting, LongConstruction),
}
