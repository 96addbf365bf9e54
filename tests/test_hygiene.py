"""Source hygiene: no module of the package imports a name it never uses,
and no module defines a private top-level name that nothing references.
The oracle modules under tests/ (every helper module that is neither a
test file nor conftest) import no unused name either, and each is
imported by at least one test file, so that the oracle of a retired
route cannot stay behind unused.

No linter is part of the toolchain, so these stdlib `ast` checks stand in
for one.  Four more rules keep `dataclasses` out of the package, keep
`assert` statements out of it (`python -O` strips them, so no validation
may rest on one), let only `cli.main` write stdout: no other code of
the package references `sys.stdout` or calls `print` without a file, and
keep the exact integer kernels of `_ratlinalg` free of generator-expression
product sums (`sum(x * y for x, y in zip(a, b))`), whose per-item bytecode
costs about twice `sum(map(mul, a, b))`.  Matrix ingestion stays behind
one module: no module imports `_ratlinalg` but `blocks`, and `blocks` only
inside `spec_from_matrix`, so only matrix input loads it.  `_ratlinalg`
imports no numpy at any level, and only its `ingest` imports `_numeric`,
the numeric fall-through, so a certified matrix loads neither.  The argument
checks live in one module too: no module but `errors` defines `_at_least`,
`_above`, `_point` or `_rational`, and none defines the retired
`_require_finite`.  Snapping has one kernel, `_numeric._snap`: no
module reaches `limit_denominator`, as an attribute, a name or a string,
and no other module defines a `_snap`.
The exact ranks have one call site: only `_ratlinalg.ingest` refers to
`rank_sequence`, so a new rank kernel replaces one call.  Pairs turn at
two sites, the flow and `maps._turned`, the one route that turns the
rotation planes of the maps: only `flows.FlowEvaluator` and `_turned`
refer to `_rotate_pairs`.  Every parameter
with a default of a private top-level function is passed by some call in
the package, so no knob stays that only a test turns.
Source text is run at one site: only `_record.record`, which compiles each
value type's `__init__`, refers to `exec` or `eval`.  `Relation` and
`Decision` hash by identity, so a set of their members could iterate in
another order in each process: no module builds a set or frozenset that
reads either enum, a verdict's `relation` or `decision`, or a table keyed
by them, and dicts, which keep insertion order, hold them instead.
For imports, `__init__.py` is exempt: its imports are the public
re-exports.  A name counts as used when it is read anywhere in the module
or listed in its `__all__`.  A private name (`_x`, dunders exempt) defined
at the top level of a module counts as referenced when any module of the
package reads it, imports it or reaches it as an attribute; a leftover
helper that the code stopped calling fails here.
"""

import ast
from pathlib import Path

import pytest

import linflow

PACKAGE = Path(linflow.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_names_it_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def imported_modules(source):
    """Top-level names of every module that source imports."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_does_not_import_dataclasses(path):
    # value types come from `_record`; dataclasses would load inspect at every launch
    assert "dataclasses" not in imported_modules(path.read_text(encoding="utf-8"))


def test_the_check_sees_dataclasses_imports():
    source = "def f():\n    from dataclasses import dataclass\nimport dataclasses.x\n"
    assert imported_modules(source) == {"dataclasses"}


def test_the_check_sees_unused_imports():
    source = "import os\nfrom math import pi, tau\nfrom x import y as z\nprint(pi)\n"
    assert unused_imports(source) == [(1, "os"), (2, "tau"), (3, "z")]


def _top_level_privates(tree):
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                names.setdefault(name, node.lineno)
    return names


def _references(tree):
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def unreferenced_privates(source, other_sources=()):
    """(line, name) of each private top-level name of source that neither
    source nor any of other_sources references."""
    tree = ast.parse(source)
    refs = _references(tree)
    for other in other_sources:
        refs |= _references(ast.parse(other))
    return sorted((line, name) for name, line in _top_level_privates(tree).items() if name not in refs)


ALL_MODULES = sorted(PACKAGE.glob("*.py"))


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_module_defines_only_private_names_in_use(path):
    others = [p.read_text(encoding="utf-8") for p in ALL_MODULES if p != path]
    assert unreferenced_privates(path.read_text(encoding="utf-8"), others) == []


def test_the_check_sees_unreferenced_privates():
    source = (
        "_USED = 1\n"
        "_UNUSED = 2\n"
        "def _helper():\n"
        "    return _USED\n"
        "class _Left:\n"
        "    pass\n"
        "def __getattr__(name):\n"
        "    pass\n"
        "def _elsewhere():\n"
        "    pass\n"
    )
    other = "from m import _elsewhere\n"
    assert unreferenced_privates(source, [other]) == [(2, "_UNUSED"), (3, "_helper"), (5, "_Left")]
    assert unreferenced_privates(source) == [(2, "_UNUSED"), (3, "_helper"), (5, "_Left"), (9, "_elsewhere")]


def unpassed_defaults(source, other_sources=()):
    """(line, function, parameter) of each parameter with a default of a
    private top-level function of source that no call in source or in
    other_sources passes, by position or by keyword.  A call is matched by
    the name it calls, bare or as an attribute; *args passes every
    position and **kwargs every keyword."""
    positions, keywords = {}, {}
    for tree in (ast.parse(s) for s in (source, *other_sources)):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                positions[name] = max(positions.get(name, 0),
                                      float("inf") if starred else len(node.args))
                keywords.setdefault(name, set()).update(k.arg for k in node.keywords)
    out = []
    for node in ast.parse(source).body:
        if not (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name.startswith("_") and not node.name.endswith("__")):
            continue
        args = node.args
        ordered = args.posonlyargs + args.args
        first = len(ordered) - len(args.defaults)
        params = [(i, a.arg) for i, a in enumerate(ordered) if i >= first]
        params += [(float("inf"), a.arg)
                   for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        keys = keywords.get(node.name, set())
        out += [(node.lineno, node.name, name) for i, name in params
                if not (positions.get(node.name, 0) > i or name in keys or None in keys)]
    return out


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_private_defaults_are_passed_in_the_package(path):
    # a default that no call overrides is a knob only tests turn; the value
    # belongs in the function or a module constant
    others = [p.read_text(encoding="utf-8") for p in ALL_MODULES if p != path]
    assert unpassed_defaults(path.read_text(encoding="utf-8"), others) == []


def test_the_check_sees_unpassed_defaults():
    source = (
        "def _solve(f, x, cap=5, *, tol=1e-9, seed=0):\n"
        "    return _solve(f, x, seed=1)\n"
        "def _grid(n, lo=0, hi=1):\n"
        "    pass\n"
        "def _spread(a, b=2):\n"
        "    pass\n"
        "def public(x, y=1):\n"
        "    return _grid(x, 0)\n"
        "class C:\n"
        "    def _m(self, z=1):\n"
        "        pass\n"
    )
    assert unpassed_defaults(source) == [
        (1, "_solve", "cap"), (1, "_solve", "tol"), (3, "_grid", "hi"), (5, "_spread", "b")]
    others = ["from m import _grid\n_grid(3, hi=2)\nm._solve(f, 1, 2)\n_spread(*args)\n",
              "m._solve(f, x, **opts)\n"]
    assert unpassed_defaults(source, others) == []


def assert_lines(source):
    """Line of each assert statement in source."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_module_validates_without_assert(path):
    # python -O strips assert statements, and validation must survive it
    assert assert_lines(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_assert_statements():
    source = "assert x\ndef f(y):\n    if y:\n        assert y > 0, 'y'\n    return y\n"
    assert assert_lines(source) == [1, 4]


def stdout_writers(source):
    """(line, enclosing top-level name or None) of each use of stdout in
    source: a `sys.stdout` reference, `from sys import stdout`, or a
    `print` call without a file argument."""
    out = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if (
                (isinstance(node, ast.Attribute) and node.attr == "stdout"
                 and isinstance(node.value, ast.Name) and node.value.id == "sys")
                or (isinstance(node, ast.ImportFrom) and node.module == "sys"
                    and any(alias.name == "stdout" for alias in node.names))
                or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "print"
                    and not any(k.arg == "file" for k in node.keywords))
            ):
                out.append((node.lineno, owner))
    return out


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_only_cli_main_writes_stdout(path):
    # handlers return (payload, exit code); one writer keeps every output
    # format in one place, and lets a caller such as a batch loop reuse them
    found = stdout_writers(path.read_text(encoding="utf-8"))
    allowed = {"main"} if path.name == "cli.py" else set()
    assert [(line, owner) for line, owner in found if owner not in allowed] == []


def test_the_check_sees_stdout_writers():
    source = (
        "import sys\n"
        "from sys import stdout, stderr\n"
        "def main():\n"
        "    sys.stdout.write('x')\n"
        "def _cmd(args):\n"
        "    print('x')\n"
        "    print('x', file=sys.stderr)\n"
        "class C:\n"
        "    def main(self):\n"
        "        sys.stdout.flush()\n"
    )
    assert stdout_writers(source) == [(2, None), (4, "main"), (6, "_cmd"), (10, "C")]


def product_sums(source):
    """Line of each `sum` over a generator expression whose item is a
    product, as in `sum(x * y for x, y in zip(a, b))`."""
    return [
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "sum" and node.args
        and isinstance(node.args[0], ast.GeneratorExp)
        and isinstance(node.args[0].elt, ast.BinOp) and isinstance(node.args[0].elt.op, ast.Mult)
    ]


def test_ratlinalg_sums_products_in_c():
    # the integer kernels' dot products are sum(map(mul, a, b))
    assert product_sums((PACKAGE / "_ratlinalg.py").read_text(encoding="utf-8")) == []


def test_the_check_sees_product_sums():
    source = (
        "def f(a, b, c):\n"
        "    s = sum(x * y for x, y in zip(a, b))\n"
        "    t = sum(map(mul, a, b)) + sum(x + y for x, y in zip(a, b))\n"
        "    return [sum(c[i - j] * b[j] for j in range(i)) for i in range(3)]\n"
    )
    assert product_sums(source) == [2, 4]


def imports_of(source, module):
    """(line, enclosing top-level name or None) of each import statement in
    source, at any depth, that names `module`, as a module, a dotted part
    of one or an imported name."""
    out = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.ImportFrom):
                names = (node.module or "").split(".") + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [part for a in node.names for part in a.name.split(".")]
            else:
                continue
            if module in names:
                out.append((node.lineno, owner))
    return out


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_only_spec_from_matrix_imports_ratlinalg(path):
    # matrix ingestion lives in one module, which only matrix input loads
    found = imports_of(path.read_text(encoding="utf-8"), "_ratlinalg")
    allowed = {"spec_from_matrix"} if path.name == "blocks.py" else set()
    assert [(line, owner) for line, owner in found if owner not in allowed] == []


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_only_ingest_imports_the_numeric_tier(path):
    # the numeric fall-through, and numpy with it, loads only when the
    # exact tier could not certify
    found = imports_of(path.read_text(encoding="utf-8"), "_numeric")
    allowed = {"ingest"} if path.name == "_ratlinalg.py" else set()
    assert [(line, owner) for line, owner in found if owner not in allowed] == []


def test_ratlinalg_imports_no_numpy():
    # the exact tier and its integer kernels use no float
    assert imports_of((PACKAGE / "_ratlinalg.py").read_text(encoding="utf-8"), "numpy") == []


def test_the_check_sees_ratlinalg_imports():
    source = (
        "from . import _ratlinalg\n"
        "from ._ratlinalg import charpoly\n"
        "import linflow._ratlinalg as rl\n"
        "from linflow import blocks, _ratlinalg\n"
        "def spec_from_matrix(m):\n"
        "    from . import _ratlinalg\n"
        "def other(m):\n"
        "    from .blocks import _floats\n"
        "class C:\n"
        "    def f(self):\n"
        "        from .. import _ratlinalg\n"
    )
    want = [(1, None), (2, None), (3, None), (4, None), (6, "spec_from_matrix"), (11, "C")]
    assert imports_of(source, "_ratlinalg") == want
    for module in ("numpy", "_numeric"):
        assert imports_of(source.replace("_ratlinalg", module), module) == want
        assert imports_of(source, module) == []
    blocks = (PACKAGE / "blocks.py").read_text(encoding="utf-8")
    assert [owner for _, owner in imports_of(blocks, "_ratlinalg")] == ["spec_from_matrix"]
    ratlinalg = (PACKAGE / "_ratlinalg.py").read_text(encoding="utf-8")
    assert [owner for _, owner in imports_of(ratlinalg, "_numeric")] == ["ingest"]


ARGUMENT_CHECKS = {"_at_least", "_above", "_point", "_rational"}


def defined_names(source):
    """Every name that source defines by def, class or assignment, at any depth."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update(t.id for t in targets if isinstance(t, ast.Name))
    return out


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_argument_checks_are_defined_only_in_errors(path):
    # one module decides what counts as a size, a count, a bound or a point
    banned = {"_require_finite"} | (set() if path.name == "errors.py" else ARGUMENT_CHECKS)
    assert sorted(defined_names(path.read_text(encoding="utf-8")) & banned) == []


def test_the_check_sees_argument_check_definitions():
    source = (
        "from .errors import _point\n"
        "def _at_least(value, least, what):\n"
        "    def _require_finite(**scalars): pass\n"
        "class Probe:\n"
        "    def _point(self, x): pass\n"
        "_above = lambda value: value\n"
        "_seen: int = 0\n"
        "def scale(alpha):\n"
        "    _rational = Fraction(alpha)\n"
    )
    assert defined_names(source) == {
        "_at_least", "_require_finite", "Probe", "_point", "_above", "_seen", "scale",
        "_rational"}
    errors = (PACKAGE / "errors.py").read_text(encoding="utf-8")
    assert ARGUMENT_CHECKS <= defined_names(errors)


TESTS = Path(__file__).resolve().parent
ORACLES = sorted(p for p in TESTS.glob("*.py")
                 if not p.name.startswith("test_") and p.name != "conftest.py")


def test_the_oracle_modules_are_found():
    names = {p.name for p in ORACLES}
    assert {"unstacked_solver.py", "grown_brackets.py", "hand_encoders.py",
            "nested_inverse.py", "full_rank_sequence.py", "float_exact_tier.py"} <= names


@pytest.mark.parametrize("path", ORACLES, ids=lambda p: p.name)
def test_oracle_module_imports_only_names_it_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", ORACLES, ids=lambda p: p.name)
def test_oracle_module_is_imported_by_a_test(path):
    users = [p.name for p in TESTS.glob("test_*.py")
             if path.stem in imported_modules(p.read_text(encoding="utf-8"))]
    assert users, path.name


def limit_denominator_uses(source):
    """Line of each reference to `limit_denominator` in source: an
    attribute, a name, or a string that is that name (as getattr takes it)."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Attribute) and node.attr == "limit_denominator")
        or (isinstance(node, ast.Name) and node.id == "limit_denominator")
        or (isinstance(node, ast.Constant) and node.value == "limit_denominator")
    )


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_snapping_has_one_kernel(path):
    # `_numeric._snap` finds the best approximation with integers only, and
    # no other module defines a `_snap`
    source = path.read_text(encoding="utf-8")
    assert limit_denominator_uses(source) == []
    assert ("_snap" in defined_names(source)) == (path.name == "_numeric.py")


def test_the_check_sees_limit_denominator():
    source = (
        "from fractions import Fraction\n"
        "def snap(x, n):\n"
        "    return Fraction(x).limit_denominator(n)\n"
        "best = getattr(Fraction(1, 3), 'limit_denominator')\n"
        "limit_denominator = Fraction.limit_denominator\n"
        "def f(x):\n"
        "    'the same as limit_denominator'\n"
        "    return x\n"
    )
    assert limit_denominator_uses(source) == [3, 4, 5, 5]


def name_uses(source, *names):
    """(line, enclosing top-level name or None) of each reference to one of
    names in source, by its name or as an attribute: a call, or an alias
    that a call could go through."""
    out = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if (isinstance(node, ast.Name) and node.id in names) or (
                    isinstance(node, ast.Attribute) and node.attr in names):
                out.append((node.lineno, owner))
    return out


def test_rank_sequence_has_one_call_site():
    # the exact ranks are taken at one place, so swapping the rank kernel is
    # one call
    found = [(path.name, owner) for path in ALL_MODULES
             for _, owner in name_uses(path.read_text(encoding="utf-8"), "rank_sequence")]
    assert found == [("_ratlinalg.py", "ingest")]


def test_rotate_pairs_has_two_call_sites():
    # pairs turn in the flow and in the one route that turns the rotation
    # planes of the spiral, uniform and unwind maps, so a second turning
    # route fails here
    found = [(path.name, owner) for path in ALL_MODULES
             for _, owner in name_uses(path.read_text(encoding="utf-8"), "_rotate_pairs")]
    assert found == [("flows.py", "FlowEvaluator"), ("maps.py", "_turned")]


def test_the_check_sees_rank_sequence_uses():
    source = (
        "from ._ratlinalg import rank_sequence\n"
        "def ingest(B):\n"
        "    def ranks(f, m):\n"
        "        return rank_sequence(B, f, m)\n"
        "    return ranks\n"
        "total = rl.rank_sequence(B, [0, 1], 2)\n"
        "class C:\n"
        "    def f(self):\n"
        "        return _ratlinalg.rank_sequence(self.B, [0, 1], 1)\n"
        "kernel = rank_sequence\n"
        "def rank_sequence(B, factor, mult):\n"
        "    'the same as rank_sequence'\n"
    )
    want = [(4, "ingest"), (6, None), (9, "C"), (10, None)]
    assert name_uses(source, "rank_sequence") == want
    assert name_uses(source.replace("rank_sequence", "_rotate_pairs"), "_rotate_pairs") == want
    assert name_uses(source, "_rotate_pairs") == []


def test_exec_has_one_call_site():
    # only the value types' constructors are compiled from source text
    found = [(path.name, owner) for path in ALL_MODULES
             for _, owner in name_uses(path.read_text(encoding="utf-8"), "exec", "eval")]
    assert found == [("_record.py", "record")]


def test_the_check_sees_exec_uses():
    source = (
        "import builtins\n"
        "def record(cls):\n"
        "    exec('def __init__(self): pass', {})\n"
        "total = eval('1 + 1')\n"
        "class C:\n"
        "    def f(self):\n"
        "        return builtins.exec(self.source)\n"
        "value = ast.literal_eval('1')\n"
        "run = eval\n"
        "def g():\n"
        "    'the same as exec'\n"
    )
    assert name_uses(source, "exec", "eval") == [(3, "record"), (4, None), (7, "C"), (9, None)]


# names that a set of Relation or Decision members is built from: the enums,
# a verdict's fields and the classifier's tables keyed by relation
ENUM_SOURCES = {"Relation", "Decision", "relation", "decision", "verdicts",
                "IMPLICATION_EDGES", "_TABLE", "_UNDECIDED_SCOPE"}


def enum_sets(source):
    """(line, enclosing top-level name or None) of each set display, set
    comprehension or `set`/`frozenset` call in source that reads one of
    ENUM_SOURCES, as a name or as an attribute."""
    out = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if not isinstance(node, (ast.Set, ast.SetComp)) and not (
                    isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("set", "frozenset")):
                continue
            if any((isinstance(n, ast.Name) and n.id in ENUM_SOURCES) or (
                    isinstance(n, ast.Attribute) and n.attr in ENUM_SOURCES)
                   for n in ast.walk(node)):
                out.append((node.lineno, owner))
    return out


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_set_of_relations_or_decisions(path):
    # an audit report lists its verdicts and violations in a fixed order
    assert enum_sets(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_sets_of_relations_and_decisions():
    source = (
        "EDGES = {Relation.LIN_EQUIV, Relation.LIP_EQUIV}\n"
        "def audit(report, alphas):\n"
        "    seen = {v.decision for v in report.verdicts.values()}\n"
        "    for rel in frozenset(report.verdicts):\n"
        "        pass\n"
        "    return set(alphas), {1, 2}, sorted(Relation), dict.fromkeys(Decision)\n"
        "class C:\n"
        "    PREMISES = frozenset(p for p, _ in IMPLICATION_EDGES)\n"
        "names = set(globals()) | set(_TABLE)\n"
    )
    assert enum_sets(source) == [(1, None), (3, "audit"), (4, "audit"), (8, "C"), (9, None)]
