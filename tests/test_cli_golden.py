"""Golden transcript of the command line.

Each case runs in process through `linflow.cli.main` in a temporary
working directory that holds the input files below, named by relative
paths, so that messages quoting a path read the same on every machine.
Its exit code (a SystemExit's code for usage errors and --help), stdout
and stderr must equal tests/data/cli_golden.json byte for byte.  Help
texts are formatted at COLUMNS=80.

Re-record the file with `PYTHONPATH=src python tests/test_cli_golden.py`,
only when the CLI's output changes on purpose.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from linflow.cli import main
from linflow.errors import InternalCheckError

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"


def spec_doc(*rows):
    return {"blocks": [{"m": m, "re": re, "im": im} for m, re, im in rows]}


FILES = {
    "shear.json": spec_doc((2, "-1", "0")),
    "scalar.json": spec_doc((1, "-1", "0"), (1, "-1", "0")),
    "spiral.json": spec_doc((1, "2", "6")),
    "center.json": spec_doc((1, "0", "1")),
    "saddle.json": spec_doc((1, "-1", "0"), (1, "2", "0")),
    "cube.json": spec_doc((3, "-1", "0")),
    # central rotation rates 1 vs 2 beside a saddle: TopEquiv stays Undecided
    "rot1.json": spec_doc((1, "0", "1"), (1, "-1", "0"), (1, "1", "0")),
    "rot2.json": spec_doc((1, "0", "2"), (1, "-1", "0"), (1, "1", "0")),
    "matrix.json": {"dim": 2, "rows": [["-1", "1"], ["0", "-1"]]},
    # only the numeric tier snaps 333333333334/10^12 (to 1/3)
    "near.json": {"dim": 2, "rows": [["333333333334/1000000000000", 0], [0, -1]]},
    "third.json": {"dim": 2, "rows": [["1/3", 0], [0, -1]]},
    "bad.json": "{oops",
    # the dimension cap, cli.MAX_DIM = 512
    "at-cap.json": spec_doc((512, "-1", "0")),
    "huge.json": spec_doc((10**20, "-1", "0"), (1, "1", "0")),
    "wide.json": {"dim": 513, "rows": [[0] * 513] * 513},
}

HELP = ["", "classify", "invariants", "transform", "catalog2d", "simulate", "verify", "audit"]

CASES = {
    **{f"help-{c or 'linflow'}": ([c] if c else []) + ["--help"] for c in HELP},
    "usage-bare": [],
    "usage-unknown-subcommand": ["frobnicate"],
    "usage-missing-point": ["simulate", "saddle.json"],
    "usage-bad-int": ["verify", "spiral:1", "--points", "x"],
    "classify-yes": ["classify", "HoelderEquiv", "shear.json", "scalar.json"],
    "classify-no": ["classify", "LipEquiv", "shear.json", "scalar.json"],
    "classify-undecided": ["classify", "TopEquiv", "rot1.json", "rot2.json"],
    "classify-strict-undecided": ["classify", "TopEquiv", "rot1.json", "rot2.json", "--strict"],
    "classify-unknown-relation": ["classify", "Bogus", "shear.json", "scalar.json"],
    "classify-missing-file": ["classify", "LipEquiv", "shear.json", "absent.json"],
    "classify-malformed-json": ["classify", "LipEquiv", "shear.json", "bad.json"],
    "classify-matrix": ["classify", "LinEquiv", "matrix.json", "shear.json"],
    "classify-uncertified": ["classify", "LinConj", "near.json", "third.json", "--strict"],
    "classify-allow-uncertified": ["classify", "LinConj", "near.json", "third.json",
                                   "--strict", "--allow-uncertified"],
    "classify-internal-check": ["classify", "LipEquiv", "shear.json", "scalar.json"],
    "invariants-shear": ["invariants", "shear.json"],
    "invariants-center": ["invariants", "center.json"],
    "invariants-matrix": ["invariants", "matrix.json"],
    "invariants-zero-tol": ["invariants", "--tol", "0", "matrix.json"],
    "transform-collapse": ["transform", "collapse", "spiral.json"],
    "transform-decouple": ["transform", "decouple", "spiral.json"],
    "transform-reverse": ["transform", "reverse", "shear.json"],
    "transform-realify": ["transform", "realify", "spiral.json"],
    "transform-scale": ["transform", "scale:1/2", "spiral.json"],
    "transform-unknown": ["transform", "swizzle", "spiral.json"],
    "catalog2d": ["catalog2d", "spiral.json"],
    "catalog2d-nonplanar": ["catalog2d", "cube.json"],
    "simulate-times": ["simulate", "saddle.json", "--point", "1,1", "--times", "0,1"],
    "simulate-t-range": ["simulate", "saddle.json", "--point", "1,0", "--t-range", "0,1,5"],
    "simulate-default-grid": ["simulate", "center.json", "--point", "1,0"],
    "simulate-wrong-point": ["simulate", "saddle.json", "--point", "1,2,3", "--times", "0"],
    "verify-spiral": ["verify", "spiral:-1/2", "--times=-2,0,3", "--points", "8"],
    "verify-shear": ["verify", "shear:1", "--points", "8"],
    "verify-uniform": ["verify", "uniform", "scalar.json", "--points", "8"],
    "verify-uniform-growing": ["verify", "uniform", "spiral.json"],
    "verify-pw-hyp": ["verify", "pw-hyp", "saddle.json", "--points", "8", "--seed", "3"],
    "verify-unwind": ["verify", "unwind:2,-1,1", "--times=-1,0,2", "--points", "8"],
    "verify-uniform-without-file": ["verify", "uniform"],
    "verify-unknown": ["verify", "mystery"],
    "verify-spiral-without-rate": ["verify", "spiral"],
    "verify-pw-hyp-with-rate": ["verify", "pw-hyp:1", "saddle.json"],
    "verify-unwind-arity": ["verify", "unwind:2,1"],
    "verify-unwind-cap": ["verify", "unwind:65,-1,1"],
    "verify-points-cap": ["verify", "spiral:1", "--points", "100001"],
    "verify-t-range-count": ["verify", "spiral:1", "--t-range", "0,1,x"],
    "verify-rate-range": ["verify", "spiral:1e400"],
    "audit": ["audit", "shear.json", "scalar.json"],
    "dimension-at-cap": ["transform", "reverse", "at-cap.json"],
    "dimension-cap-spec": ["verify", "pw-hyp", "huge.json"],
    "dimension-cap-matrix": ["invariants", "wide.json"],
}

# cases run with linflow.classifier.classify replaced by one that fails its cross-check
PATCHED = {"classify-internal-check"}


def _disagree(*args):
    raise InternalCheckError("the two routes disagree")


def write_files(directory):
    for name, doc in FILES.items():
        text = doc if isinstance(doc, str) else json.dumps(doc)
        (directory / name).write_text(text, encoding="utf-8")


def run_case(name):
    """(exit code, stdout, stderr) of CASES[name], run in the current directory."""
    out, err = io.StringIO(), io.StringIO()
    patch = (mock.patch("linflow.classifier.classify", _disagree) if name in PATCHED
             else contextlib.nullcontext())
    with patch, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(CASES[name]))
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def case_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli-golden")
    write_files(directory)
    return directory


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_case_is_recorded(golden):
    assert list(golden) == list(CASES)
    assert all(golden[name]["argv"] == CASES[name] for name in CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_case_replays_byte_identically(name, golden, case_dir, monkeypatch):
    monkeypatch.chdir(case_dir)
    monkeypatch.setenv("COLUMNS", "80")
    expected = {k: golden[name][k] for k in ("exit", "stdout", "stderr")}
    assert run_case(name) == expected


def record():
    import tempfile

    os.environ["COLUMNS"] = "80"
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        write_files(Path(directory))
        os.chdir(directory)
        try:
            doc = {name: {"argv": argv, **run_case(name)} for name, argv in CASES.items()}
        finally:
            os.chdir(here)
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(doc)} cases to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    record()
