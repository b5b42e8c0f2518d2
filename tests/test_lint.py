"""Static checks on the library source, with the standard ``ast`` module:
no module-level import goes unused, every module-level definition and
every method is reached from the command line, the catalog, the
package's re-exports or the benchmark, and no float enters the library
outside the SVG renderer, which only formats pixel coordinates; no class
but the prime field's element divides, and no module but ``residual``
names that element; only ``trop_det`` enumerates perfect matchings; no
function rebinds a module global; the library reads no environment
variable; and every ``name`` quoted in a docstring still names
something."""

import ast
import builtins
import re
from pathlib import Path

import tropgeo

SRC = Path(tropgeo.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
ROOT = Path(__file__).resolve().parent.parent
# the tests and the benchmark, by path from the root of the checkout
CALLERS = {path.relative_to(ROOT).as_posix(): ast.parse(path.read_text(), str(path))
           for d in ("tests", "perfbench") for path in sorted((ROOT / d).glob("*.py"))}


def _used_names(node):
    """Every name a subtree reads: bare names, attribute names and names
    imported from a module."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(a.name for a in n.names)
    return out


def _bound_names(stmt):
    """The names a module-level import statement binds."""
    return [a.asname or a.name.split(".")[0] for a in stmt.names]


def test_no_unused_module_level_imports():
    unused = []
    for name, tree in MODULES.items():
        if name == "__init__":
            continue  # its imports are the package's re-exports
        body_names = set()
        for stmt in tree.body:
            if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                body_names |= _used_names(stmt)
        imported_elsewhere = set()
        for other, t in MODULES.items():
            for n in ast.walk(t):
                if (other != name and isinstance(n, ast.ImportFrom)
                        and (n.module or "").split(".")[-1] == name):
                    imported_elsewhere.update(a.name for a in n.names)
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                unused += [f"{name}.py:{stmt.lineno}: {b}" for b in _bound_names(stmt)
                           if b not in body_names and b not in imported_elsewhere]
    assert not unused, unused


def _read_names(node):
    """The names a subtree reads as bare names or attributes; an import
    alone is no read."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _defined_names(stmt):
    """The names a module-level statement defines: a def, a class, or the
    targets of an assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [
        stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _bench_reads(tree, modules):
    """The names a benchmark module reads off ``tropgeo`` or its modules:
    each name it imports from them, and the first name past the package
    and its module names in each attribute chain, as ``realize`` in
    ``tg.realize`` and ``verify_witness`` in
    ``tg.construction.verify_witness``."""
    aliases, out = set(), set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            aliases.update(a.asname or a.name for a in n.names if a.name == "tropgeo")
        elif isinstance(n, ast.ImportFrom) and (n.module or "").split(".")[0] == "tropgeo":
            for a in n.names:
                (aliases if a.name in modules else out).add(a.asname or a.name)
    for n in ast.walk(tree):
        chain = []
        while isinstance(n, ast.Attribute):
            chain.insert(0, n.attr)
            n = n.value
        if isinstance(n, ast.Name) and n.id in aliases:
            out.update([a for a in chain if a not in modules][:1])
    return out


def _methods(cls):
    """A class's non-dunder methods."""
    return [m for m in cls.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (m.name.startswith("__") and m.name.endswith("__"))]


def _own_reads(node):
    """The names a definition reads: a class's bases, decorators and body
    without its non-dunder methods, which are reached on their own."""
    if isinstance(node, ast.ClassDef):
        methods = _methods(node)
        return set().union(*(_read_names(n) for n in [*node.bases, *node.keywords, *node.decorator_list,
                                                      *node.body] if n not in methods))
    return _read_names(node)


def _unreached(modules, callers):
    """Each module-level def, class and constant of the package, and each
    non-dunder method of its classes, that no root reaches. The roots are
    ``cli.main``, ``theorems.catalog``, the names ``__init__`` re-exports,
    the names the benchmark modules (``callers`` under ``perfbench/``)
    read off the package and, for methods, every attribute they read; a
    test is no caller. A reached definition reaches every definition
    whose name it reads; a class reaches its dunder methods, and a method
    is reached by a read of its name."""
    stmts = [(mod, stmt) for mod, tree in modules.items() if mod != "__init__" for stmt in tree.body]
    methods = [(mod, m, m.name) for mod, stmt in stmts if isinstance(stmt, ast.ClassDef) for m in _methods(stmt)]
    defs = [(mod, stmt, name) for mod, stmt in stmts for name in _defined_names(stmt)] + methods
    bench = [tree for path, tree in callers.items() if path.startswith("perfbench/")]
    todo = {"main", "catalog"}
    todo |= {a.name for stmt in modules["__init__"].body if isinstance(stmt, ast.ImportFrom)
             for a in stmt.names}
    todo |= {name for tree in bench for name in _bench_reads(tree, modules)}
    todo |= {name for _, _, name in methods} & set().union(*map(_read_names, bench))
    seen = set()
    while todo:
        seen.add(name := todo.pop())
        todo |= {r for _, node, n in defs if n == name for r in _own_reads(node)} - seen
    return [f"{mod}.py:{node.lineno}: {name}" for mod, node, name in defs if name not in seen]


def _unreached_of_kind(private):
    """The library's unreached private (``_``-prefixed) or public names."""
    return [u for u in _unreached(MODULES, CALLERS) if u.rsplit(" ", 1)[1].startswith("_") == private]


def test_every_private_definition_is_referenced():
    # a private name must be reached from a root, not merely named
    assert _unreached_of_kind(private=True) == []


def test_every_public_definition_is_read():
    # a public name must be read by a root or a reached definition; a
    # read from a test is no use
    assert _unreached_of_kind(private=False) == []


def test_every_definition_is_reached():
    orphan = ast.parse("def orphan():\n    return catalog()\n")
    assert _unreached({**MODULES, "planted": orphan}, CALLERS) == ["planted.py:1: orphan"]
    # a test reading a definition does not reach it
    helper = ast.parse("def helper():\n    return 1\n")
    test = ast.parse("from tropgeo.planted import helper\n\n\ndef test_helper():\n    assert helper() == 1\n")
    assert _unreached({**MODULES, "planted": helper},
                      {**CALLERS, "tests/test_planted.py": test}) == ["planted.py:1: helper"]
    # nor a method that only a test reads, though its class is reached
    method = ast.parse("class Planted:\n    def __init__(self):\n        self.v = 1\n\n"
                       "    def helper_only(self):\n        return self.v\n\n\n"
                       "def make():\n    return Planted().v\n")
    test = ast.parse("from tropgeo.planted import Planted\n\n\n"
                     "def test_helper_only():\n    assert Planted().helper_only() == 1\n")
    reach = ast.parse("from tropgeo.planted import make\n\nmake()\n")
    assert _unreached({**MODULES, "planted": method},
                      {**CALLERS, "tests/test_planted.py": test, "perfbench/planted.py": reach}) == [
        "planted.py:5: helper_only"]


FLOAT_MATH = {"sqrt", "log", "exp"}
FLOAT_OK = {("cli", "render_svg"), ("cli", "render_svg.to_px")}


def _float_uses(tree):
    """(enclosing qualified name, '' at module level; line) of each float
    literal, float(...) call and math.sqrt/log/exp in a module."""
    from_math = {a.asname or a.name for n in ast.walk(tree)
                 if isinstance(n, ast.ImportFrom) and n.module == "math"
                 for a in n.names if a.name in FLOAT_MATH}
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if ((isinstance(child, ast.Constant) and isinstance(child.value, float))
                    or (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                        and child.func.id in {"float"} | from_math)
                    or (isinstance(child, ast.Attribute) and child.attr in FLOAT_MATH
                        and isinstance(child.value, ast.Name) and child.value.id == "math")):
                out.append((inner, child.lineno))
            visit(child, inner)

    visit(tree, "")
    return out


def test_no_floats_outside_the_svg_renderer():
    hits = [f"{name}.py:{line}: {scope or '<module>'}"
            for name, tree in MODULES.items() for scope, line in _float_uses(tree)
            if (name, scope) not in FLOAT_OK]
    assert not hits, hits


def test_only_the_prime_field_divides():
    # symbolic residues are RPolys and symbolic points homogeneous, so the
    # only division in the library is F_p's
    dividers = [f"{name}.{node.name}"
                for name, tree in MODULES.items() for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef)
                and any(isinstance(d, ast.FunctionDef) and d.name in ("__truediv__", "__rtruediv__")
                        for d in node.body)]
    assert dividers == ["residual.FpElt"], dividers


def test_only_the_residual_module_names_the_field_element():
    # a numeric residue is a plain int under its ResidualField, which
    # owns its arithmetic; the element class that carries its prime
    # lives at residual.py's boundary alone
    assert [path.stem for path in sorted(SRC.glob("*.py")) if "FpElt" in path.read_text()] == ["residual"]


def _readers(modules, name):
    """module.def for each module-level def or class that reads name, and
    module.import for each module-level import of it."""
    return [f"{mod}.{getattr(stmt, 'name', 'import')}" for mod, tree in modules.items()
            for stmt in tree.body if name in _used_names(stmt) and getattr(stmt, "name", None) != name]


def test_only_the_tropical_determinant_enumerates_matchings():
    # a lifting condition is decided by one unique-matching peel, so no
    # plan or lift path counts over every perfect matching: only
    # trop_det, which returns them, runs the enumerator
    assert _readers(MODULES, "_enumerate_matchings") == ["trop_linalg.trop_det"]
    planted = {"m": ast.parse("from .t import _enumerate_matchings\n"
                              "def f(a):\n    return len(_enumerate_matchings(a))\n")}
    assert _readers(planted, "_enumerate_matchings") == ["m.import", "m.f"]


def test_no_global_statements():
    # no module keeps process-wide state that its functions rebind
    hits = [f"{name}.py:{node.lineno}: global {', '.join(node.names)}"
            for name, tree in MODULES.items() for node in ast.walk(tree)
            if isinstance(node, ast.Global)]
    assert not hits, hits


def _ring_guesses(tree):
    """The line of each product or power with the constant 0 as an
    operand, ``v * 0`` or ``v ** 0``: the zero or one of whatever ring the
    value v happens to lie in."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Pow))
            and any(isinstance(o, ast.Constant) and o.value == 0 for o in (node.left, node.right))]


def test_no_ring_is_guessed_from_a_residue():
    # a lift pass names its ring once, by its zero; a zero guessed from
    # the first residue at hand put Q's zero and one into F_p expansions
    hits = [f"{name}.py:{line}" for name, tree in MODULES.items() for line in _ring_guesses(tree)]
    assert not hits, hits
    planted = ast.parse("def f(v, w):\n    return v * 0, 0 * w,\\\n        w ** 0, v * 1, v + 0\n")
    assert _ring_guesses(planted) == [2, 2, 3]


def _package_names(modules):
    """The names the package binds: its modules, every def and class,
    the targets of module- and class-level assignments, the attributes
    set on self, and every imported name."""
    out = set(modules)
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                out.update(_bound_names(node))
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                  and isinstance(node.value, ast.Name) and node.value.id == "self"):
                out.add(node.attr)
            if isinstance(node, (ast.Module, ast.ClassDef)):
                for stmt in node.body:
                    targets = stmt.targets if isinstance(stmt, ast.Assign) else [
                        stmt.target] if isinstance(stmt, ast.AnnAssign) else []
                    out.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return out


def _parameters(fn):
    """The parameters of a function and of the closures it defines."""
    return {x.arg for f in ast.walk(fn) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
            for a in [f.args] for x in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if x}


def _stale_docstring_names(modules):
    """Each ``identifier`` in a docstring that names neither something the
    package binds, nor a parameter of the documented function, nor a
    builtin."""
    known = _package_names(modules) | set(dir(builtins))
    stale = []
    for name, tree in modules.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            params = _parameters(node) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else set()
            for ident in re.findall(r"``([A-Za-z_]\w*)``", ast.get_docstring(node) or ""):
                if ident not in known | params:
                    stale.append(f"{name}.py: {getattr(node, 'name', '<module>')}: {ident}")
    return stale


def test_docstrings_name_no_stale_definitions():
    assert _stale_docstring_names(MODULES) == []
    planted = ast.parse('def f(pj):\n    """Row ``pj`` by ``_monomial_jet``."""\n')
    assert _stale_docstring_names({**MODULES, "planted": planted}) == ["planted.py: f: _monomial_jet"]


ENV_READS = {"environ", "environb", "getenv", "getenvb"}


def test_the_library_reads_no_environment_variable():
    # each setting is an argument, as the residual field is lift_conditions'
    # field and the CLI's --field: none is read from the environment
    reads = {name: sorted(ENV_READS & _used_names(tree)) for name, tree in MODULES.items()}
    assert {name: r for name, r in reads.items() if r} == {}
    planted = ast.parse('from os import getenv\nimport os\nF = os.environ.get("F")\n')
    assert ENV_READS & _used_names(planted) == {"getenv", "environ"}


def _dataclass_fields(tree):
    """(class, field, line) of each annotated field of a ``@dataclass``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
                for d in node.decorator_list):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield node.name, stmt.target.id, stmt.lineno


def test_every_dataclass_field_is_read():
    # a field no attribute access reads is a stored copy nobody needs;
    # reads in the package, the tests and the benchmark count
    read = {n.attr for tree in [*MODULES.values(), *CALLERS.values()] for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = [f"{name}.py:{line}: {cls}.{fld}" for name, tree in MODULES.items()
              for cls, fld, line in _dataclass_fields(tree) if fld not in read]
    assert not unread, unread
