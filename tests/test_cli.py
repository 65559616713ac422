"""End-to-end CLI behavior: exit codes, reports, determinism, pipelines."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import eigenpoly
from conftest import FIXTURES, MIN_ORDER, pattern, run_cli
from eigenpoly import cli
from eigenpoly.jsonio import dumps, polynomial_to_obj
from eigenpoly.structures import BUILTIN_KINDS, build_basis

EX1_DATA = str(FIXTURES / "example1_eigendata.json")
EX1_POLY = str(FIXTURES / "example1_solution.json")
EX2_DATA = str(FIXTURES / "example2_eigendata.json")
EX2_POLY = str(FIXTURES / "example2_solution.json")
EX2_BASIS = str(FIXTURES / "example2_alternate_basis.json")


def test_solve_reference_problem_one_report():
    res = run_cli("solve", EX1_DATA, "symmetric", "2")
    assert res.code == 0
    report = json.loads(res.out)
    assert report["consistent"] is True
    assert report["unique"] is False
    assert report["rank"] == 9
    assert report["nullity"] == 3
    assert report["consistency_residual"] < 1e-13
    assert report["residual_fro"] < 1e-13
    assert [c["i"] for c in report["coefficients"]] == [0, 1]
    for c in report["coefficients"]:
        mat = np.asarray(c["matrix"])
        assert mat.shape == (3, 3)
        np.testing.assert_allclose(mat, mat.T, atol=1e-14)
        assert len(c["coords"]) == 6
    tol = report["tolerances"]
    assert tol["consistency_tol"] == 1e-8
    assert tol["rank_cutoff_factor"] == pytest.approx(np.finfo(float).eps * 12)
    assert set(tol) == {"consistency_tol", "rank_cutoff_factor"}


def test_solve_inconsistent_exit_code_and_loose_tolerance():
    strict = run_cli("solve", EX2_DATA, "skew_symmetric", "2")
    assert strict.code == 2
    report = json.loads(strict.out)
    assert report["consistent"] is False
    assert report["coefficients"] == []
    assert report["residual_fro"] is None

    loose = run_cli("solve", EX2_DATA, "skew_symmetric", "2", "--tol-consistency", "1e-4")
    assert loose.code == 0
    report = json.loads(loose.out)
    assert report["consistent"] is True and report["unique"] is False
    a1 = np.asarray(report["coefficients"][1]["matrix"])
    np.testing.assert_array_equal(a1.T, -a1)


def test_solve_usage_and_input_errors(tmp_path):
    assert run_cli("solve").code == 1  # missing positional arguments
    assert run_cli().code == 1  # no subcommand

    res = run_cli("solve", EX1_DATA, "circulant", "2")
    assert res.code == 1
    assert "neither a built-in tag" in res.err

    res = run_cli("solve", str(tmp_path / "missing.json"), "symmetric", "2")
    assert res.code == 1

    res = run_cli("solve", EX1_DATA, "symmetric", "0")
    assert res.code == 1
    assert "degree must be at least 1" in res.err

    res = run_cli("solve", EX1_DATA, EX2_BASIS, "2")  # n = 4 basis, n = 3 data
    assert res.code == 1
    assert "does not match eigendata order" in res.err


def test_solve_rejects_nan_entry_by_field_path(tmp_path):
    obj = json.loads((FIXTURES / "example1_eigendata.json").read_text())
    obj["eigenpairs"][0]["vector"]["re"][1] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(obj))
    res = run_cli("solve", str(path), "symmetric", "2")
    assert res.code == 1
    assert "eigenpairs[0].vector.re: expected finite numbers" in res.err
    assert "SVD" not in res.err


def overflowing_example1(tmp_path, value=1e300):
    """Reference problem one with its real eigenvalue set to ``value``."""
    obj = json.loads((FIXTURES / "example1_eigendata.json").read_text())
    real = next(p for p in obj["eigenpairs"] if p["lambda"]["im"] == 0)
    real["lambda"]["re"] = value
    path = tmp_path / "big.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_solve_rejects_overflowing_eigenvalue(tmp_path):
    path = overflowing_example1(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no overflow warning on the way
        res = run_cli("solve", path, "symmetric", "2")
    assert res.code == 1
    assert "overflows for degree k = 2" in res.err
    assert "non-finite number" not in res.err


def test_solve_rejects_eigendata_whose_norm_overflows(tmp_path):
    # X E^2 stays finite near 1e200, but its Frobenius norm does not
    path = overflowing_example1(tmp_path, 1e100)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = run_cli("solve", path, "symmetric", "2")
    assert res.code == 1
    assert "overflows for degree k = 2" in res.err
    assert res.out == ""


def test_solve_with_custom_basis_file():
    res = run_cli("solve", EX2_DATA, EX2_BASIS, "2", "--tol-consistency", "1e-4")
    assert res.code == 0
    report = json.loads(res.out)
    assert report["consistent"] is True
    assert len(report["coefficients"][0]["coords"]) == 6


def test_solve_free_parameter_vector(tmp_path):
    default = json.loads(run_cli("solve", EX1_DATA, "symmetric", "2").out)
    y_path = tmp_path / "y.json"
    y_path.write_text(json.dumps([1.5] * 12))
    shifted = run_cli("solve", EX1_DATA, "symmetric", "2", "--y", str(y_path))
    assert shifted.code == 0
    report = json.loads(shifted.out)
    a0_default = np.asarray(default["coefficients"][0]["matrix"])
    a0_shifted = np.asarray(report["coefficients"][0]["matrix"])
    assert not np.allclose(a0_default, a0_shifted)
    np.testing.assert_allclose(a0_shifted, a0_shifted.T, atol=1e-14)
    # same data reproduction regardless of the family member chosen
    assert report["residual_fro"] < 1e-12

    y_path.write_text(json.dumps([1.0] * 7))
    assert run_cli("solve", EX1_DATA, "symmetric", "2", "--y", str(y_path)).code == 1
    y_path.write_text(json.dumps(["a", "b"]))
    assert run_cli("solve", EX1_DATA, "symmetric", "2", "--y", str(y_path)).code == 1
    y_path.write_text(json.dumps([float("nan")] * 12))
    res = run_cli("solve", EX1_DATA, "symmetric", "2", "--y", str(y_path))
    assert res.code == 1 and "expected finite numbers" in res.err


def test_parser_is_built_once_and_carries_no_state(tmp_path):
    assert cli._build_parser() is cli._build_parser()
    first = run_cli("solve", EX1_DATA, "symmetric", "2")
    assert first.code == 0
    assert run_cli("solve", EX1_DATA, "symmetric", "2") == first
    y_path = tmp_path / "y.json"
    y_path.write_text(json.dumps([1.5] * 12))
    shifted = run_cli("solve", EX1_DATA, "symmetric", "2", "--y", str(y_path))
    assert shifted.code == 0 and shifted.out != first.out
    # the next plain solve is the minimal-norm report again: y is not kept
    assert run_cli("solve", EX1_DATA, "symmetric", "2") == first
    for bad in (("solve", EX1_DATA, "symmetric"), ("solve", EX1_DATA, "symmetric", "two"),
                ("solve", EX1_DATA, "symmetric", "2", "--no-such-flag")):
        assert run_cli(*bad).code == 1
        assert run_cli("solve", EX1_DATA, "symmetric", "2") == first
    table = run_cli("verify", EX1_POLY, EX1_DATA, "--format", "table", "--tol-consistency", "1e-3")
    assert table.code == 0 and table.out.startswith("fro ")
    plain = run_cli("verify", EX1_POLY, EX1_DATA)
    assert plain.code == 3 and json.loads(plain.out)["fro"] > 0


def test_main_calls_the_command_function_bound_at_call_time(monkeypatch):
    # the parser is shared, so a wrapper put on cmd_* after it was built
    # (as the benchmark tracer does) must still be the function that runs
    cli._build_parser()
    seen = []
    monkeypatch.setattr(cli, "cmd_basis", lambda args: seen.append(args.structure) or 0)
    assert run_cli("basis", "symmetric", "--n", "3") == run_cli("basis", "full", "--n", "3")
    assert seen == ["symmetric", "full"]


def test_solve_overdetermined_flag(tmp_path):
    data = {
        "n": 1,
        "eigenpairs": [
            {"lambda": {"re": 1.0, "im": 0.0}, "vector": {"re": [1.0], "im": [0.0]}},
            {"lambda": {"re": 2.0, "im": 0.0}, "vector": {"re": [1.0], "im": [0.0]}},
        ],
    }
    path = tmp_path / "overdetermined.json"
    path.write_text(json.dumps(data))
    refused = run_cli("solve", str(path), "full", "1")
    assert refused.code == 1
    assert "allow_overdetermined" in refused.err
    allowed = run_cli("solve", str(path), "full", "1", "--allow-overdetermined")
    assert allowed.code == 2  # analyzed, found inconsistent
    report = json.loads(allowed.out)
    assert report["consistent"] is False


def test_solve_output_file(tmp_path):
    out = tmp_path / "report.json"
    res = run_cli("solve", EX1_DATA, "symmetric", "2", "--output", str(out))
    assert res.code == 0
    assert res.out == ""
    assert json.loads(out.read_text())["consistent"] is True


def test_verify_exit_codes():
    strict = run_cli("verify", EX1_POLY, EX1_DATA)
    assert strict.code == 3  # four-decimal matrices cannot hit 1e-8
    loose = run_cli("verify", EX1_POLY, EX1_DATA, "--tol-consistency", "1e-3")
    assert loose.code == 0
    report = json.loads(loose.out)
    assert report["fro"] == pytest.approx(7.768893800306532e-05, rel=1e-6)
    assert len(report["per_pair"]) == 2


def test_verify_table_format():
    res = run_cli("verify", EX2_POLY, EX2_DATA, "--format", "table", "--tol-consistency", "1e-2")
    assert res.code == 0
    lines = res.out.splitlines()
    assert lines[0].startswith("fro")
    assert lines[1].startswith("relative")
    assert lines[2] == "pair  residual"
    assert len(lines) == 4  # one conjugate-pair block in this data
    float(lines[3].split()[1])  # parses


def test_verify_input_errors(tmp_path):
    assert run_cli("verify", EX1_POLY).code == 1
    res = run_cli("verify", EX1_POLY, EX2_DATA)  # order mismatch 3 vs 4
    assert res.code == 1
    assert "does not match polynomial order" in res.err


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_verify_rejects_overflowing_eigenvalue(tmp_path, fmt):
    path = overflowing_example1(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no overflow warning on the way
        res = run_cli("verify", EX1_POLY, path, "--format", fmt)
    assert res.code == 1
    assert "overflows for degree k = 2" in res.err
    assert res.out == ""


def test_generate_reference_problems_round_trip(tmp_path):
    for kind, data_path in (("example1", EX1_DATA), ("example2", EX2_DATA)):
        res = run_cli("generate", kind)
        assert res.code == 0
        assert res.out == open(data_path).read()


def test_generate_rejects_ground_truth_without_generator(tmp_path):
    truth, out = tmp_path / "truth.json", tmp_path / "out.json"
    res = run_cli("generate", "example1", "--ground-truth", str(truth))
    assert res.code == 1
    assert "no generator polynomial" in res.err
    assert res.out == ""
    res = run_cli("generate", "example1", "--ground-truth", str(truth), "--output", str(out))
    assert res.code == 1
    assert "no generator polynomial" in res.err
    assert list(tmp_path.iterdir()) == []


def test_generate_random_is_deterministic(tmp_path):
    args = ("generate", "random", "--n", "3", "--k", "2", "--structure", "symmetric",
            "--m", "6", "--seed", "7")
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    ga = tmp_path / "ga.json"
    gb = tmp_path / "gb.json"
    assert run_cli(*args, "--output", str(a), "--ground-truth", str(ga)).code == 0
    assert run_cli(*args, "--output", str(b), "--ground-truth", str(gb)).code == 0
    assert a.read_bytes() == b.read_bytes()
    assert ga.read_bytes() == gb.read_bytes()
    other = run_cli(*args[:-1], "8")
    assert other.code == 0
    assert other.out != a.read_text()


def test_generate_random_requires_all_dimensions():
    res = run_cli("generate", "random", "--n", "3", "--k", "2", "--structure", "symmetric")
    assert res.code == 1
    assert "requires --m" in res.err


def test_generate_random_solve_verify_pipeline(tmp_path):
    data = tmp_path / "data.json"
    truth = tmp_path / "truth.json"
    gen = run_cli("generate", "random", "--n", "4", "--k", "2", "--structure", "toeplitz",
                  "--m", "8", "--seed", "3", "--output", str(data), "--ground-truth", str(truth))
    assert gen.code == 0
    solved = run_cli("solve", str(data), "toeplitz", "2")
    assert solved.code == 0
    report = json.loads(solved.out)
    assert report["consistent"] is True

    poly = tmp_path / "poly.json"
    coeffs = [np.asarray(c["matrix"]) for c in report["coefficients"]]
    poly.write_text(dumps(polynomial_to_obj(4, 2, coeffs)))
    checked = run_cli("verify", str(poly), str(data), "--tol-consistency", "1e-7")
    assert checked.code == 0

    # the generator polynomial itself also reproduces the data
    assert run_cli("verify", str(truth), str(data), "--tol-consistency", "1e-7").code == 0


def test_generate_example3_solve_pipeline(tmp_path):
    data = tmp_path / "band_data.json"
    res = run_cli("generate", "example3", "--m", "10", "--output", str(data))
    assert res.code == 0
    solved = run_cli("solve", str(data), "symmetric_tridiagonal", "2")
    assert solved.code == 0
    report = json.loads(solved.out)
    assert report["consistent"] is True
    assert report["unique"] is True
    assert report["rank"] == 198


def test_generate_example3_default_m_is_four(tmp_path):
    res = run_cli("generate", "example3")
    assert res.code == 0
    obj = json.loads(res.out)
    width = sum(1 if p["lambda"]["im"] == 0 else 2 for p in obj["eigenpairs"])
    assert obj["n"] == 50 and width == 4


FORMULA_TEXT = {
    "symmetric": "n(n+1)/2",
    "skew_symmetric": "n(n-1)/2",
    "tridiagonal": "3n-2",
    "symmetric_tridiagonal": "2n-1",
    "pentadiagonal": "5n-6",
    "hankel": "2n-1",
    "toeplitz": "2n-1",
    "diagonal": "n",
    "full": "n^2",
}


def test_basis_summary_and_pattern_dump():
    for kind in sorted(BUILTIN_KINDS):
        for n in (3, 5):
            basis = build_basis(kind, n)
            res = run_cli("basis", kind, "--n", str(n))
            assert res.code == 0
            assert res.out.splitlines() == [
                f"kind: {kind}",
                f"n: {n}",
                f"r: {basis.r}",
                f"dimension formula: {FORMULA_TEXT[kind]} = {basis.r} (ok)",
            ]

            dump = run_cli("basis", kind, "--n", str(n), "--print-p")
            rows = dump.out.splitlines()
            start = rows.index("pattern (row col value):") + 1
            dumped = np.zeros((n * n, basis.r))
            for line in rows[start:]:
                i, j, v = line.split()
                dumped[int(i), int(j)] = float(v)
            np.testing.assert_array_equal(dumped, pattern(basis))


@pytest.mark.parametrize("kind", sorted(BUILTIN_KINDS))
def test_basis_pattern_dump_lists_the_pattern_row_by_row(kind):
    for n in (3, 5):
        if n < MIN_ORDER[kind]:
            continue
        P = pattern(build_basis(kind, n))
        expected = [f"{i} {j} {P[i, j]:.17g}" for i, j in zip(*np.nonzero(P))]
        out = run_cli("basis", kind, "--n", str(n), "--print-p").out.splitlines()
        assert out[out.index("pattern (row col value):") + 1 :] == expected


def test_basis_custom_file_and_errors():
    res = run_cli("basis", EX2_BASIS)
    assert res.code == 0
    assert "kind: custom" in res.out
    assert "r: 6" in res.out

    missing_n = run_cli("basis", "symmetric")
    assert missing_n.code == 1
    assert "--n is required" in missing_n.err

    unknown = run_cli("basis", "circulant", "--n", "3")
    assert unknown.code == 1


def test_cli_rejects_unknown_generate_kind():
    assert run_cli("generate", "example9").code == 1


def _assert_calls_leave_unimported(calls):
    # run the CLI calls in one fresh interpreter, each expected to exit 0,
    # and check that none of them loaded numpy.ma or eigenpoly.sweep
    script = "\n".join([
        "import contextlib, io, sys",
        "from eigenpoly.cli import main",
        "with contextlib.redirect_stdout(io.StringIO()):",
        f"    codes = [main(argv) for argv in {calls!r}]",
        "assert codes == [0] * len(codes), codes",
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'",
        "assert 'eigenpoly.sweep' not in sys.modules, 'eigenpoly.sweep was imported'",
    ])
    env = dict(os.environ, PYTHONPATH=str(Path(eigenpoly.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_solve_leaves_numpy_ma_unimported(tmp_path):
    # np.unique imports numpy.ma on first use, which once added about 1 MiB
    # to a solve's traced peak; the solve path must not reach it.  Nor may
    # a solve that cannot use the QR sweep load its module, whose code and
    # compilation add to the traced peak of every process that loads it
    data = tmp_path / "full.json"
    made = run_cli("generate", "random", "--n", "4", "--k", "2", "--structure", "full", "--m", "6",
                   "--seed", "3", "--output", str(data))
    assert made.code == 0
    _assert_calls_leave_unimported([["solve", str(data), "full", "2"], ["solve", EX1_DATA, "symmetric", "2"]])


def test_generate_and_verify_leave_numpy_ma_and_sweep_unimported(tmp_path):
    # the rest of a generate/solve/verify cycle keeps the same two modules out
    data, truth = str(tmp_path / "data.json"), str(tmp_path / "truth.json")
    _assert_calls_leave_unimported([
        ["generate", "random", "--n", "4", "--k", "2", "--structure", "toeplitz", "--m", "8",
         "--seed", "3", "--output", data, "--ground-truth", truth],
        ["solve", data, "toeplitz", "2"],
        ["verify", truth, data],
        ["verify", truth, data, "--format", "table"],
        ["generate", "example2"],
        ["verify", EX2_POLY, EX2_DATA, "--tol-consistency", "1e-2"],
    ])
