"""End-to-end CLI tests: every subcommand exercised in process through
main(argv), with exit codes and emitted JSON/CSV checked against the
documented contract."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import linflow

from linflow.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    EXIT_UNDECIDED,
    EXIT_USAGE,
    main,
)


def spec_doc(*rows):
    return {"blocks": [{"m": m, "re": re, "im": im} for m, re, im in rows]}


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def shear_file(tmp_path):
    # one defective real block, growth -1
    return write_json(tmp_path, "shear.json", spec_doc((2, "-1", "0")))


@pytest.fixture
def scalar_file(tmp_path):
    # -identity on the plane
    return write_json(
        tmp_path, "scalar.json", spec_doc((1, "-1", "0"), (1, "-1", "0"))
    )


@pytest.fixture
def spiral_file(tmp_path):
    return write_json(tmp_path, "spiral.json", spec_doc((1, "2", "6")))


@pytest.fixture
def saddle_file(tmp_path):
    return write_json(
        tmp_path, "saddle.json", spec_doc((1, "-1", "0"), (1, "2", "0"))
    )


# ---------------------------------------------------------------------------
# classify


def test_classify_yes_emits_verdict_json(capsys, shear_file, scalar_file):
    code, out, _ = run_cli(
        capsys, "classify", "HoelderEquiv", shear_file, scalar_file
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["relation"] == "HoelderEquiv"
    assert doc["decision"] == "Yes"
    assert doc["scaling"] is not None
    assert doc["left"] == spec_doc((2, -1, 0))
    assert doc["right"] == spec_doc((1, -1, 0), (1, -1, 0))
    assert doc["trace"] and all(
        set(e) == {"step", "outcome", "detail"} for e in doc["trace"]
    )


def test_classify_no_still_exits_zero(capsys, shear_file, scalar_file):
    code, out, _ = run_cli(capsys, "classify", "LipEquiv", shear_file, scalar_file)
    assert code == EXIT_OK
    assert json.loads(out)["decision"] == "No"


def test_classify_relation_name_is_forgiving(capsys, shear_file, scalar_file):
    code, out, _ = run_cli(
        capsys, "classify", "lipequiv", shear_file, scalar_file
    )
    assert code == EXIT_OK
    assert json.loads(out)["relation"] == "LipEquiv"


def test_classify_strict_turns_undecided_into_exit_4(capsys, tmp_path):
    # central rotation rates 1 vs 2 beside a saddle: genuinely out of scope
    a = write_json(
        tmp_path,
        "a.json",
        spec_doc((1, "0", "1"), (1, "-1", "0"), (1, "1", "0")),
    )
    b = write_json(
        tmp_path,
        "b.json",
        spec_doc((1, "0", "2"), (1, "-1", "0"), (1, "1", "0")),
    )
    code, out, _ = run_cli(capsys, "classify", "TopEquiv", a, b)
    assert code == EXIT_OK
    assert json.loads(out)["decision"] == "Undecided"

    code, out, _ = run_cli(capsys, "classify", "TopEquiv", a, b, "--strict")
    assert code == EXIT_UNDECIDED
    assert json.loads(out)["decision"] == "Undecided"


def test_unknown_relation_exits_1(capsys, shear_file, scalar_file):
    code, _, err = run_cli(capsys, "classify", "Bogus", shear_file, scalar_file)
    assert code == EXIT_USAGE
    assert "error:" in err


def test_missing_file_exits_2(capsys, shear_file, tmp_path):
    absent = str(tmp_path / "absent.json")
    code, _, err = run_cli(capsys, "classify", "LipEquiv", shear_file, absent)
    assert code == EXIT_PARSE
    assert "error:" in err


def test_malformed_json_exits_2(capsys, shear_file, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    code, _, err = run_cli(capsys, "classify", "LipEquiv", shear_file, str(bad))
    assert code == EXIT_PARSE
    assert "invalid JSON" in err


@pytest.mark.parametrize("command", ["invariants", "classify"])
def test_deeply_nested_json_exits_2_without_traceback(capsys, shear_file, tmp_path, command):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000 + "]" * 200000, encoding="utf-8")
    argv = [command, str(deep)] if command == "invariants" else [command, "LipEquiv", shear_file, str(deep)]
    code, _, err = run_cli(capsys, *argv)
    assert code == EXIT_PARSE
    assert err.count("error:") == 1 and len(err.splitlines()) == 1
    assert "nested too deeply" in err and "Traceback" not in err


def test_malformed_block_payload_exits_2(capsys, shear_file, tmp_path):
    bad = write_json(tmp_path, "bad.json", spec_doc((0, "1", "0")))
    code, _, err = run_cli(capsys, "classify", "LipEquiv", shear_file, bad)
    assert code == EXIT_PARSE
    assert "error:" in err


def test_matrix_rows_file_is_ingested(capsys, shear_file, tmp_path):
    matrix = write_json(
        tmp_path,
        "matrix.json",
        {"dim": 2, "rows": [["-1", "1"], ["0", "-1"]]},
    )
    code, out, _ = run_cli(capsys, "classify", "LinEquiv", matrix, shear_file)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["decision"] == "Yes"
    assert doc["left"] == spec_doc((2, -1, 0))


def test_matrix_entry_beyond_float_range_exits_2(capsys, tmp_path):
    matrix = write_json(tmp_path, "huge.json", {"dim": 2, "rows": [[10**400, 0], [0, 1]]})
    code, _, err = run_cli(capsys, "invariants", matrix)
    assert code == EXIT_PARSE
    assert "Traceback" not in err
    assert "float range" in err


@pytest.fixture
def jordan_matrix_file(tmp_path):
    return write_json(tmp_path, "matrix.json", {"dim": 2, "rows": [["-1", "1"], ["0", "-1"]]})


def test_zero_tol_exits_3_with_one_line(capsys, jordan_matrix_file):
    code, _, err = run_cli(capsys, "invariants", "--tol", "0", jordan_matrix_file)
    assert code == EXIT_PRECONDITION
    assert err.startswith("error:") and err.count("\n") == 1


def test_infinite_tol_exits_3_with_one_line(capsys, tmp_path):
    # eigenvalues +-sqrt(2): an infinite tol would snap them to 0
    path = write_json(tmp_path, "irrational.json", {"dim": 2, "rows": [[0, 1], [2, 0]]})
    code, out, err = run_cli(capsys, "invariants", "--tol", "inf", path)
    assert code == EXIT_PRECONDITION and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("tol", ["0", "-1"])
def test_bad_tol_is_checked_under_python_O(jordan_matrix_file, tol):
    # -O strips assert statements; the tolerance check must not be one
    src = str(Path(linflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "linflow", "invariants", "--tol", tol, jordan_matrix_file],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == EXIT_PRECONDITION
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1


# ---------------------------------------------------------------------------
# transform


def test_transform_scale_half(capsys, spiral_file):
    code, out, _ = run_cli(capsys, "transform", "scale:1/2", spiral_file)
    assert code == EXIT_OK
    assert json.loads(out) == spec_doc((1, 1, 3))


def test_transform_collapse_splits_rotating_line(capsys, spiral_file):
    code, out, _ = run_cli(capsys, "transform", "collapse", spiral_file)
    assert code == EXIT_OK
    assert json.loads(out) == spec_doc((1, 2, 0), (1, 2, 0))


def test_transform_decouple_forgets_every_rotation(capsys, tmp_path):
    spec = write_json(tmp_path, "s.json", spec_doc((2, "-1", "1")))
    code, out, _ = run_cli(capsys, "transform", "decouple", spec)
    assert code == EXIT_OK
    assert json.loads(out) == spec_doc((2, -1, 0), (2, -1, 0))


def test_transform_reverse(capsys, shear_file):
    code, out, _ = run_cli(capsys, "transform", "reverse", shear_file)
    assert code == EXIT_OK
    assert json.loads(out) == spec_doc((2, 1, 0))


def test_transform_realify_keeps_real_form(capsys, spiral_file):
    # a complex pair listed once is already the real rotation block
    code, out, _ = run_cli(capsys, "transform", "realify", spiral_file)
    assert code == EXIT_OK
    assert json.loads(out) == spec_doc((1, 2, 6))


def test_transform_unknown_op_exits_2(capsys, spiral_file):
    code, _, err = run_cli(capsys, "transform", "swizzle", spiral_file)
    assert code == EXIT_PARSE
    assert "unknown transform" in err


def test_transform_bad_scale_factor_exits_2(capsys, spiral_file):
    code, _, err = run_cli(capsys, "transform", "scale:x", spiral_file)
    assert code == EXIT_PARSE
    assert "malformed rational" in err


# ---------------------------------------------------------------------------
# invariants


def test_invariants_summary_for_stable_rotating_block(capsys, tmp_path):
    spec = write_json(tmp_path, "s.json", spec_doc((2, "-1", "1")))
    code, out, _ = run_cli(capsys, "invariants", spec)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert set(doc) == {
        "dim",
        "partition",
        "spectrum",
        "growth",
        "generic",
        "bounded",
        "coincidence",
        "minimal_period_over_two_pi",
        "distortion_subspace",
    }
    assert doc["dim"] == 4
    assert doc["partition"]["stable"] == 4
    assert doc["bounded"] is False
    assert doc["minimal_period_over_two_pi"] is None
    assert doc["distortion_subspace"]["coords"] == [0, 2]
    assert doc["spectrum"] == ["-1", "-1", "-1", "-1"]


def test_invariants_summary_for_center(capsys, tmp_path):
    spec = write_json(tmp_path, "s.json", spec_doc((1, "0", "1")))
    code, out, _ = run_cli(capsys, "invariants", spec)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["bounded"] is True
    assert doc["minimal_period_over_two_pi"] == "1"
    assert doc["distortion_subspace"] is None  # not stable


# ---------------------------------------------------------------------------
# catalog2d


def test_catalog2d_rows(capsys, spiral_file):
    code, out, _ = run_cli(capsys, "catalog2d", spiral_file)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert set(doc) == {"similar", "lipschitz", "lyapunov", "topological"}
    assert doc["similar"]["representative"] == spec_doc((1, 1, 3))
    assert doc["similar"]["scaling"] == "1/2"
    assert doc["lipschitz"]["representative"] == spec_doc((1, 1, 0), (1, 1, 0))
    assert doc["lyapunov"]["representative"] == doc["lipschitz"]["representative"]
    assert doc["topological"]["label"] == "node"


def test_catalog2d_nonplanar_exits_3(capsys, tmp_path):
    cube = write_json(tmp_path, "cube.json", spec_doc((3, "-1", "0")))
    code, _, err = run_cli(capsys, "catalog2d", cube)
    assert code == EXIT_PRECONDITION
    assert "error:" in err


# ---------------------------------------------------------------------------
# simulate


def test_simulate_csv_values(capsys, saddle_file):
    code, out, _ = run_cli(
        capsys, "simulate", saddle_file, "--point", "1,1", "--times", "0,1"
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "t,x1,x2"
    row0 = [float(v) for v in lines[1].split(",")]
    row1 = [float(v) for v in lines[2].split(",")]
    assert row0 == [0.0, 1.0, 1.0]
    assert row1[0] == 1.0
    assert math.isclose(row1[1], math.exp(-1.0), rel_tol=1e-10)
    assert math.isclose(row1[2], math.exp(2.0), rel_tol=1e-10)


def test_simulate_t_range_row_count(capsys, saddle_file):
    code, out, _ = run_cli(
        capsys, "simulate", saddle_file, "--point", "1,0", "--t-range", "0,1,5"
    )
    assert code == EXIT_OK
    assert len(out.strip().splitlines()) == 6  # header + 5 samples


def test_simulate_wrong_point_count_exits_3(capsys, saddle_file):
    code, _, err = run_cli(
        capsys, "simulate", saddle_file, "--point", "1,2,3", "--times", "0"
    )
    assert code == EXIT_PRECONDITION
    assert "needs 2 coordinates" in err


def test_simulate_missing_point_flag_is_a_usage_error(capsys, saddle_file):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", saddle_file])
    assert exc.value.code == EXIT_USAGE


# ---------------------------------------------------------------------------
# verify


def test_verify_spiral_reports_residual_and_map(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "spiral:-1/2",
        "--times=-2,0,3",
        "--points",
        "8",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["residual"] < 1e-9
    assert doc["round_trip"] < 1e-9
    assert doc["n_points"] == 8
    assert doc["worst_time"] in (-2.0, 0.0, 3.0)
    assert doc["map"]["source"] is not None
    assert doc["map"]["target"] is not None


def test_verify_spiral_keeps_the_exact_rate(capsys):
    code, out, _ = run_cli(capsys, "verify", "spiral:1/3", "--points", "8")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["map"]["source"] == spec_doc((1, -1, "1/3"))
    assert doc["residual"] < 1e-9


def test_verify_unwind_runs(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "unwind:2,-1,1",
        "--times=-1,0,2",
        "--points",
        "8",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["residual"] < 1e-7
    assert doc["map"]["source"] == spec_doc((2, -1, 1))


def test_verify_uniform_without_spec_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "uniform")
    assert code == EXIT_PARSE
    assert "needs a generator file" in err


def test_verify_unwind_bad_arity_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "unwind:2,1")
    assert code == EXIT_PARSE
    assert "unwind:M,A,B" in err


def test_verify_unknown_construction_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "mystery")
    assert code == EXIT_PARSE
    assert "unknown construction" in err


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["spiral:1", "--points", "0"], EXIT_PRECONDITION, "n_points >= 1"),
        (["spiral:1", "--points", "-3"], EXIT_PRECONDITION, "n_points >= 1"),
        (["spiral:1", "--t-range", "0,1,x"], EXIT_PARSE, "malformed integer"),
        (["spiral:1", "--t-range", "0,1,-2"], EXIT_PRECONDITION, "N >= 1"),
        (["spiral:1", "--t-range", "1e400,1,3"], EXIT_PARSE, "float range"),
        (["spiral:1", "--times", "1e400"], EXIT_PARSE, "float range"),
        (["spiral:1", "--times=,"], EXIT_PRECONDITION, "at least one time"),
        (["spiral:1e400"], EXIT_PARSE, "float range"),
        (["shear:-1e400"], EXIT_PARSE, "float range"),
        (["unwind:x,-1,1"], EXIT_PARSE, "malformed integer"),
        (["unwind:2,1e400,1"], EXIT_PARSE, "float range"),
        (["spiral:1", "--points", "100001"], EXIT_PRECONDITION, "--points is capped at 100000"),
        (["spiral:1", "--t-range", "0,1,100001"], EXIT_PRECONDITION, "N is capped at 100000"),
        (["unwind:65,-1,1"], EXIT_PRECONDITION, "unwind size is capped at 64"),
        (["unwind:1000000000,-1,1"], EXIT_PRECONDITION, "size is capped at 64"),
        # the chain weights g^39 leave the float range before the norm is monotone
        (["unwind:40,1e-3,1e3"], EXIT_PRECONDITION, "made the norm strictly monotone"),
    ],
)
def test_verify_bad_number_arguments_end_in_typed_errors(capsys, argv, code, message):
    got, _, err = run_cli(capsys, "verify", *argv)
    assert got == code
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err


def test_simulate_point_beyond_float_range_exits_2(capsys, saddle_file):
    code, _, err = run_cli(capsys, "simulate", saddle_file, "--point", "1e400,0")
    assert code == EXIT_PARSE
    assert "float range" in err


@pytest.fixture
def fast_slow_file(tmp_path):
    # growth 3 beside decay -1: the second coordinate leaves the float range
    return write_json(tmp_path, "g.json", spec_doc((1, 3, 0), (1, -1, 0)))


@pytest.mark.filterwarnings("error")
def test_simulate_growth_past_the_float_range_on_a_zero_coordinate(capsys, fast_slow_file):
    # e^1200 overflows, but it multiplies an exact zero: no warning, no inf
    code, out, err = run_cli(
        capsys, "simulate", fast_slow_file, "--point", "1,0", "--times", "400"
    )
    assert code == EXIT_OK
    assert err.splitlines() == []
    assert out.splitlines() == ["t,x1,x2", "400,1.91516959671e-174,0"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "{g}", "--point", "0,1", "--times", "900"],
         "error: the orbit leaves the float range at t = 900"),
        (["simulate", "{g}", "--point", "0,1", "--times", "1,900,950"],
         "error: the orbit leaves the float range at t = 900"),
        # t^j / j! overflows from j ~ 300 on at t = 1000, though e^{0 t} does not
        (["simulate", "{big}", "--point", ",".join(["1"] * 400), "--times", "1000"],
         "error: the orbit leaves the float range at t = 1000"),
        (["verify", "pw-hyp", "{g}", "--times", "300"],
         "error: pw-hyp map: a point's norm is beyond the float range"),
        (["verify", "unwind:2,1,1", "--times", "800"],
         "error: |t| exceeds the simulation guard 1e+09"),
        # inf - inf on both sides of the conjugacy: a NaN residual, never 0.0
        (["verify", "shear:1", "--times=-400"],
         "error: conjugacy residual at t = -400 is not finite: the flows leave the float range"),
    ],
    ids=["simulate", "simulate-grid", "simulate-series", "pw-hyp", "unwind",
         "shear-nan-residual"],
)
def test_flows_past_the_float_range_end_in_one_error_line(
    capsys, tmp_path, fast_slow_file, argv, message
):
    files = {"{g}": fast_slow_file,
             "{big}": write_json(tmp_path, "big.json", spec_doc((400, 0, 0)))}
    argv = [files.get(a, a) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_PRECONDITION
    assert out == ""
    assert err.splitlines() == [message]


def test_verify_pw_hyp_with_overflowing_chain_weights_exits_3(capsys, tmp_path):
    # the size-150 block's chain weights g^149 leave the float range at g = 2^7
    path = write_json(tmp_path, "long.json", spec_doc((150, "-1/100", 0), (1, 1, 0)))
    code, out, err = run_cli(capsys, "verify", "pw-hyp", path)
    assert code == EXIT_PRECONDITION and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "strictly definite" in err


@pytest.mark.parametrize(
    "argv, code",
    [
        (["spiral:1", "--times", "1e400"], EXIT_PARSE),
        (["spiral:1", "--points", "0"], EXIT_PRECONDITION),
    ],
)
def test_verify_bad_number_arguments_under_python_O(argv, code):
    src = str(Path(linflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "linflow", "verify", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1


def test_stdout_closed_early_ends_quietly(tmp_path):
    # the reader takes two of 100001 lines and leaves; the rest meets a closed pipe
    path = write_json(tmp_path, "one.json", spec_doc((1, -1, 0)))
    src = str(Path(linflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "linflow", "simulate", path, "--point", "1",
         "--t-range", "0,10,100000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    lines = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == EXIT_BROKEN_PIPE
    assert lines == ["t,x1\n", "0,1\n"]
    assert err == ""  # no traceback, no error line


def test_verify_spiral_rate_zero_is_the_identity(capsys):
    code, out, _ = run_cli(capsys, "verify", "spiral:0", "--points", "8")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["residual"] == 0.0
    assert doc["round_trip"] == 0.0
    assert doc["map"]["source"] == doc["map"]["target"] == spec_doc((1, -1, 0), (1, -1, 0))


# ---------------------------------------------------------------------------
# audit and argument plumbing


def test_audit_emits_full_verdict_table(capsys, shear_file, scalar_file):
    code, out, _ = run_cli(capsys, "audit", shear_file, scalar_file)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert set(doc) == {"verdicts", "violations", "clean"}
    assert doc["clean"] is True
    assert doc["violations"] == []
    assert len(doc["verdicts"]) == 11
    assert doc["verdicts"]["HoelderEquiv"] == "Yes"
    assert doc["verdicts"]["LipEquiv"] == "No"


def test_bare_invocation_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == EXIT_USAGE


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == EXIT_USAGE
