"""Import-cost guard: the exact layer must not load the float stack.

Each check runs in a fresh interpreter, since this test process has long
since imported numpy and scipy.  Exact subcommands on block multisets must
leave both out of sys.modules; `verify` loads numpy, and never scipy: not
even the pw-hyp map, whose Lyapunov metrics have a closed form.  The
package's lazily resolved names must still all resolve, and
`from linflow import *` must still work.

Launches also keep out what they do not run: `dataclasses` (and the
`inspect` it imports) everywhere, `hashlib` and the integer kernel
`_ratlinalg` unless the input is a matrix, and `classifier` and
`similarity` from `transform`.  A bare `import linflow` loads none of its
submodules.

Every launch compiles the linflow modules it loads, so the exact set each
subcommand loads is pinned, and so is a ceiling on their total source
lines for each exact launch: code that regrows onto a launch path fails
here, not in the benchmark.  Each public name that moved to a module of
its own still resolves to the same object through `linflow.<name>`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import linflow

SRC = str(Path(linflow.__file__).resolve().parents[1])

SPECS = {
    "shear.json": {"blocks": [{"m": 2, "re": "-1", "im": "0"}]},
    "scalar.json": {"blocks": [{"m": 1, "re": "-1", "im": "0"}] * 2},
    "spiral.json": {"blocks": [{"m": 1, "re": "-1", "im": "2"}]},
    "saddle.json": {"blocks": [{"m": 2, "re": "-1", "im": "1"}, {"m": 1, "re": "1/2", "im": "0"}]},
}


def run_fresh(code, cwd):
    """Run `code` in a fresh interpreter; return the JSON of its last line."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=cwd, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def run_main(argv, cwd, watch=None):
    """Exit code of linflow.cli.main(argv) and the float modules it left
    loaded; with watch, instead the modules of watch that it left loaded."""
    report = (
        "'numpy': 'numpy' in sys.modules, 'scipy': 'scipy' in sys.modules"
        if watch is None
        else f"'loaded': [m for m in {list(watch)!r} if m in sys.modules]"
    )
    code = (
        "import contextlib, io, json, sys\n"
        "import linflow, linflow.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = linflow.cli.main({argv!r})\n"
        f"print(json.dumps({{'rc': rc, {report}}}))\n"
    )
    return run_fresh(code, cwd)


@pytest.fixture
def spec_dir(tmp_path):
    for name, doc in SPECS.items():
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    (tmp_path / "matrix.json").write_text(
        json.dumps({"dim": 2, "rows": [["-1", "1"], ["0", "-1"]]}), encoding="utf-8"
    )
    return tmp_path


def test_import_loads_neither_numpy_nor_scipy(spec_dir):
    out = run_fresh(
        "import json, sys, linflow, linflow.cli\n"
        "print(json.dumps({'numpy': 'numpy' in sys.modules, 'scipy': 'scipy' in sys.modules}))\n",
        spec_dir,
    )
    assert out == {"numpy": False, "scipy": False}


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "LipEquiv", "shear.json", "scalar.json"],
        ["classify", "PwLipConj", "spiral.json", "scalar.json"],
        ["audit", "shear.json", "scalar.json"],
        ["transform", "collapse", "spiral.json"],
        ["transform", "scale:1/2", "shear.json"],
        ["catalog2d", "spiral.json"],
        ["invariants", "spiral.json"],
    ],
)
def test_exact_subcommands_load_neither_numpy_nor_scipy(spec_dir, argv):
    assert run_main(argv, spec_dir) == {"rc": 0, "numpy": False, "scipy": False}


def test_verify_spiral_loads_numpy_but_not_scipy(spec_dir):
    out = run_main(["verify", "spiral:1", "--points", "4"], spec_dir)
    assert out == {"rc": 0, "numpy": True, "scipy": False}


def test_verify_pw_hyp_loads_numpy_but_not_scipy(spec_dir):
    out = run_main(["verify", "pw-hyp", "saddle.json", "--points", "4"], spec_dir)
    assert out == {"rc": 0, "numpy": True, "scipy": False}


# public names by the module they moved to, off the classify, audit and
# transform launches
MOVED = {
    "matrices": ["ApproxSpec", "RationalMatrix", "materialize", "parse_matrix", "realify",
                 "serialize_matrix"],
    "catalog": ["CatalogEntry", "catalog2d"],
    "summary": ["CoincidenceReport", "DistortionSubspace", "GrowthProfile", "class_coincidence",
                "distortion_subspace", "growth_profile", "is_bounded", "is_generic",
                "max_block_size_at", "minimal_period", "refined_dim", "top_rate", "top_size"],
}


def test_every_public_name_resolves(spec_dir):
    out = run_fresh(
        "import importlib, json, linflow\n"
        "missing = [n for n in linflow.__all__ if getattr(linflow, n, None) is None]\n"
        "same = linflow.verify_conjugacy is linflow.probes.verify_conjugacy\n"
        f"moved = {MOVED!r}\n"
        "elsewhere = [f'{m}.{n}' for m, names in moved.items() for n in names\n"
        "             if getattr(importlib.import_module('linflow.' + m), n) is not getattr(linflow, n)]\n"
        "listed = set(linflow.__all__) <= set(dir(linflow))\n"
        "try:\n"
        "    linflow.no_such_name\n"
        "    bogus = 'resolved'\n"
        "except AttributeError:\n"
        "    bogus = 'AttributeError'\n"
        "print(json.dumps({'missing': missing, 'same': same, 'elsewhere': elsewhere,\n"
        "                  'listed': listed, 'bogus': bogus}))\n",
        spec_dir,
    )
    assert out == {"missing": [], "same": True, "elsewhere": [], "listed": True,
                   "bogus": "AttributeError"}
    assert {n for names in MOVED.values() for n in names} <= set(linflow.__all__)


def test_star_import_binds_every_public_name(spec_dir):
    out = run_fresh(
        "import json, linflow\n"
        "ns = {}\n"
        "exec('from linflow import *', ns)\n"
        "print(json.dumps(sorted(set(linflow.__all__) - set(ns))))\n",
        spec_dir,
    )
    assert out == []


# stdlib modules the exact launches do without (`dataclasses` imports
# `inspect`), and the integer kernel that only matrix input needs
LEAN = ("dataclasses", "inspect", "hashlib", "linflow._ratlinalg")


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "LipEquiv", "shear.json", "scalar.json"],
        ["audit", "shear.json", "scalar.json"],
        ["transform", "collapse", "spiral.json"],
        ["invariants", "saddle.json"],
    ],
)
def test_exact_subcommands_on_blocks_stay_lean(spec_dir, argv):
    assert run_main(argv, spec_dir, LEAN) == {"rc": 0, "loaded": []}


@pytest.mark.parametrize("op", ["collapse", "decouple", "reverse", "realify", "scale:2"])
def test_transform_loads_neither_classifier_nor_similarity(spec_dir, op):
    out = run_main(["transform", op, "saddle.json"], spec_dir,
                   ("linflow.classifier", "linflow.similarity") + LEAN)
    assert out == {"rc": 0, "loaded": []}


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "LipEquiv", "matrix.json", "shear.json"],
        ["invariants", "matrix.json"],
        ["transform", "reverse", "matrix.json"],
    ],
)
def test_matrix_input_loads_the_integer_kernel(spec_dir, argv):
    out = run_main(argv, spec_dir, ("linflow._ratlinalg", "hashlib", "dataclasses"))
    assert out == {"rc": 0, "loaded": ["linflow._ratlinalg", "hashlib"]}


def test_bare_import_loads_no_submodule(spec_dir):
    out = run_fresh(
        "import json, sys, linflow\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('linflow.'))))\n",
        spec_dir,
    )
    assert out == []


def test_a_name_loads_only_its_module_and_what_that_imports(spec_dir):
    out = run_fresh(
        "import json, sys, linflow\n"
        "linflow.JordanBlock(1, 0, 0)\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('linflow.'))))\n",
        spec_dir,
    )
    assert out == ["linflow._record", "linflow.blocks", "linflow.errors"]


def launch_modules(argv, cwd):
    """The linflow modules that linflow.cli.main(argv) leaves loaded, short
    names with "linflow" for the package, and their total source lines."""
    code = (
        "import contextlib, io, json, pathlib, sys\n"
        "import linflow.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = linflow.cli.main({argv!r})\n"
        "mods = sorted(m for m in sys.modules if m.split('.')[0] == 'linflow')\n"
        "lines = sum(len(pathlib.Path(sys.modules[m].__file__).read_text(encoding='utf-8')\n"
        "                .splitlines()) for m in mods)\n"
        "print(json.dumps({'rc': rc, 'modules': [m.rpartition('.')[2] for m in mods],\n"
        "                  'lines': lines}))\n"
    )
    return run_fresh(code, cwd)


CORE = ["linflow", "_record", "blocks", "cli", "errors"]
DECIDE = CORE + ["classifier", "invariants", "similarity"]
FLOAT = CORE + ["_subcommands", "flows", "matrices"]

# launch -> (the linflow modules it loads, a ceiling on their source lines
# for the exact launches, set at the split of matrices, summary, catalog and
# _subcommands out of the launch path; None for the float launches)
LAUNCHES = {
    "classify": (["classify", "LipEquiv", "shear.json", "scalar.json"], DECIDE, 1640),
    "audit": (["audit", "shear.json", "scalar.json"], DECIDE, 1640),
    "transform-collapse": (["transform", "collapse", "spiral.json"], CORE + ["invariants"], 1078),
    "transform-reverse": (["transform", "reverse", "spiral.json"], CORE, 906),
    "invariants": (["invariants", "saddle.json"],
                   CORE + ["_subcommands", "invariants", "matrices", "summary"], 1681),
    "catalog2d": (["catalog2d", "spiral.json"], DECIDE + ["_subcommands", "catalog"], 1866),
    "classify-matrix": (["classify", "LipEquiv", "matrix.json", "shear.json"],
                        DECIDE + ["_ratlinalg", "matrices"], 2444),
    "invariants-matrix": (["invariants", "matrix.json"],
                          CORE + ["_ratlinalg", "_subcommands", "invariants", "matrices",
                                  "summary"], 2265),
    "verify-spiral": (["verify", "spiral:1", "--points", "4"],
                      FLOAT + ["homeos", "invariants", "probes"], None),
    "verify-pw-hyp": (["verify", "pw-hyp", "saddle.json", "--points", "4"],
                      FLOAT + ["homeos", "invariants", "probes"], None),
    "simulate": (["simulate", "shear.json", "--point", "1,1", "--times", "0,1"], FLOAT, None),
}


@pytest.mark.parametrize("argv, modules, ceiling", LAUNCHES.values(), ids=LAUNCHES.keys())
def test_each_launch_loads_its_modules_and_no_more_lines(spec_dir, argv, modules, ceiling):
    out = launch_modules(argv, spec_dir)
    assert (out["rc"], sorted(out["modules"])) == (0, sorted(modules))
    if ceiling is not None:
        assert out["lines"] <= ceiling
