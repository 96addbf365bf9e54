"""Source hygiene: no module of the package imports a name it never uses.

No linter is part of the toolchain, so this stdlib `ast` check stands in
for one.  `__init__.py` is exempt: its imports are the public re-exports.
A name counts as used when it is read anywhere in the module or listed in
its `__all__`.
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


def test_the_check_sees_unused_imports():
    source = "import os\nfrom math import pi, tau\nfrom x import y as z\nprint(pi)\n"
    assert unused_imports(source) == [(1, "os"), (2, "tau"), (3, "z")]
