"""Deterministic JSON serialization and schema validation."""

import json
from pathlib import Path

import numpy as np
import pytest

import eigenpoly
from conftest import reference_eigendata, reference_solution
from eigenpoly import fixtures
from eigenpoly.eigendata import Eigenpair
from eigenpoly.jsonio import (
    dumps,
    eigendata_to_obj,
    load_custom_basis_file,
    load_eigendata,
    load_polynomial,
    obj_to_eigenpairs,
    polynomial_to_obj,
)


def test_dumps_is_deterministic_and_round_trips_floats():
    obj = {
        "a": 0.1,
        "b": [1e-300, 1.7976931348623157e308, -0.0, 3],
        "c": {"nested": True, "x": None},
    }
    text = dumps(obj)
    assert text == dumps(obj)
    assert text.endswith("\n")
    back = json.loads(text)
    assert back["a"] == 0.1
    assert back["b"] == [1e-300, 1.7976931348623157e308, -0.0, 3]
    assert back["c"] == {"nested": True, "x": None}


def test_dumps_writes_null_and_strings_inside_lists():
    assert dumps([None, 1.0]) == "[null, 1]\n"
    assert dumps({"a": [None], "b": ["x", None, True]}) == '{\n  "a": [null],\n  "b": ["x", null, true]\n}\n'
    assert json.loads(dumps([[None, 'q"uote'], [np.int64(2), np.float64(0.5)]])) == [[None, 'q"uote'], [2, 0.5]]


def test_dumps_rejects_non_finite_and_unknown_types():
    with pytest.raises(ValueError, match="non-finite"):
        dumps({"bad": float("nan")})
    with pytest.raises(ValueError, match="non-finite"):
        dumps([float("inf")])
    with pytest.raises(TypeError, match="cannot serialize"):
        dumps({"bad": object()})


def test_eigendata_file_round_trip(tmp_path):
    path = tmp_path / "eigendata.json"
    path.write_text(dumps(eigendata_to_obj(3, fixtures.example1_eigenpairs())))
    ep = load_eigendata(path)
    ref = reference_eigendata("example1")
    np.testing.assert_array_equal(ep.X, ref.X)
    np.testing.assert_array_equal(ep.E, ref.E)


def test_obj_to_eigenpairs_parses_complex_and_real():
    obj = {
        "n": 2,
        "eigenpairs": [
            {
                "lambda": {"re": 1.0, "im": 2.0},
                "vector": {"re": [1.0, 0.0], "im": [0.0, 1.0]},
            },
            {"lambda": {"re": -3.0, "im": 0.0}, "vector": {"re": [0.5, 0.5], "im": [0.0, 0.0]}},
        ],
    }
    n, pairs = obj_to_eigenpairs(obj)
    assert n == 2
    assert pairs[0].eigenvalue == 1.0 + 2.0j
    np.testing.assert_array_equal(pairs[0].vector, [1.0, 1.0j])
    assert pairs[1].eigenvalue == -3.0 + 0j


def write_and_load_eigendata(tmp_path, obj):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    return load_eigendata(path)


def test_eigendata_errors_name_the_field(tmp_path):
    good_vec = {"re": [1.0, 0.0], "im": [0.0, 0.0]}
    with pytest.raises(ValueError, match="n must be a positive integer"):
        write_and_load_eigendata(tmp_path, {"n": 0, "eigenpairs": []})
    with pytest.raises(ValueError, match="eigenpairs must be a list"):
        write_and_load_eigendata(tmp_path, {"n": 2, "eigenpairs": "nope"})
    with pytest.raises(ValueError, match=r"eigenpairs\[0\].*missing field 'im'"):
        write_and_load_eigendata(
            tmp_path,
            {"n": 2, "eigenpairs": [{"lambda": {"re": 1.0}, "vector": good_vec}]},
        )
    with pytest.raises(ValueError, match=r"eigenpairs\[0\]\.vector: parts must have length n = 2"):
        write_and_load_eigendata(
            tmp_path,
            {
                "n": 2,
                "eigenpairs": [
                    {"lambda": {"re": 1.0, "im": 0.0}, "vector": {"re": [1.0], "im": [0.0]}}
                ],
            },
        )
    with pytest.raises(ValueError, match=r"eigenpairs\[0\]\.lambda\.im: expected finite numbers"):
        write_and_load_eigendata(
            tmp_path,
            {"n": 2, "eigenpairs": [{"lambda": {"re": 1.0, "im": float("inf")}, "vector": good_vec}]},
        )
    with pytest.raises(ValueError, match=r"eigenpairs\[0\]\.vector\.im: expected finite numbers"):
        write_and_load_eigendata(
            tmp_path,
            {"n": 2, "eigenpairs": [{"lambda": {"re": 1.0, "im": 0.0}, "vector": {**good_vec, "im": [0, 10**400]}}]},
        )
    with pytest.raises(ValueError, match=r"lambda\.re: expected a number"):
        write_and_load_eigendata(
            tmp_path,
            {"n": 2, "eigenpairs": [{"lambda": {"re": "x", "im": 0.0}, "vector": good_vec}]},
        )


def test_polynomial_file_round_trip(tmp_path):
    a0, a1 = reference_solution("example1")
    path = tmp_path / "poly.json"
    path.write_text(dumps(polynomial_to_obj(3, 2, [a0, a1])))
    n, k, coeffs = load_polynomial(path)
    assert (n, k) == (3, 2)
    np.testing.assert_array_equal(coeffs[0], a0)
    np.testing.assert_array_equal(coeffs[1], a1)


def write_and_load_polynomial(tmp_path, obj):
    path = tmp_path / "bad_poly.json"
    path.write_text(json.dumps(obj))
    return load_polynomial(path)


def test_polynomial_errors(tmp_path):
    eye = [[1.0, 0.0], [0.0, 1.0]]
    base = {"n": 2, "k": 1, "monic": True, "coefficients": [{"i": 0, "matrix": eye}]}
    with pytest.raises(ValueError, match="only monic polynomials"):
        write_and_load_polynomial(tmp_path, {**base, "monic": False})
    with pytest.raises(ValueError, match="exactly k = 2 coefficient entries"):
        write_and_load_polynomial(tmp_path, {**base, "k": 2})
    dup = {
        "n": 2,
        "k": 2,
        "monic": True,
        "coefficients": [{"i": 0, "matrix": eye}, {"i": 0, "matrix": eye}],
    }
    with pytest.raises(ValueError, match="cover 0..k-1 exactly once"):
        write_and_load_polynomial(tmp_path, dup)
    bad_shape = {
        "n": 2,
        "k": 1,
        "monic": True,
        "coefficients": [{"i": 0, "matrix": [[1.0, 0.0]]}],
    }
    nan_entry = {**base, "coefficients": [{"i": 0, "matrix": [[1.0, float("nan")], [0.0, 1.0]]}]}
    with pytest.raises(ValueError, match=r"coefficients\[0\]\.matrix: expected finite numbers"):
        write_and_load_polynomial(tmp_path, nan_entry)
    with pytest.raises(ValueError, match=r"coefficients\[0\]\.matrix: expected 2x2"):
        write_and_load_polynomial(tmp_path, bad_shape)
    with pytest.raises(ValueError, match="must be a positive integer"):
        write_and_load_polynomial(tmp_path, {**base, "n": -1})


def test_custom_basis_file(tmp_path):
    path = tmp_path / "basis.json"
    path.write_text(
        dumps({"n": 2, "matrices": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]})
    )
    basis = load_custom_basis_file(path)
    assert basis.kind == "custom"
    assert (basis.n, basis.r) == (2, 2)


def test_custom_basis_file_errors(tmp_path):
    path = tmp_path / "bad_basis.json"
    path.write_text(json.dumps({"n": 2, "matrices": []}))
    with pytest.raises(ValueError, match="nonempty list"):
        load_custom_basis_file(path)
    path.write_text(json.dumps({"n": 2, "matrices": [[[1.0]]]}))
    with pytest.raises(ValueError, match=r"basis\.matrices\[0\]: expected 2x2"):
        load_custom_basis_file(path)
    path.write_text(json.dumps({"n": 1, "matrices": [[[1.0]], [[float("-inf")]]]}))
    with pytest.raises(ValueError, match=r"basis\.matrices\[1\]: expected finite numbers"):
        load_custom_basis_file(path)
    path.write_text(json.dumps({"n": "two", "matrices": [[[1.0]]]}))
    with pytest.raises(ValueError, match="n must be a positive integer"):
        load_custom_basis_file(path)


def test_serialized_eigenpair_object_layout():
    pair = Eigenpair(1.5 - 2.5j, np.array([1.0 + 0.5j, -2.0 + 0j]))
    obj = eigendata_to_obj(2, [pair])
    entry = obj["eigenpairs"][0]
    assert entry["lambda"] == {"re": 1.5, "im": -2.5}
    assert entry["vector"]["re"] == [1.0, -2.0]
    assert entry["vector"]["im"] == [0.5, 0.0]


@pytest.mark.parametrize(
    "path", sorted((Path(eigenpoly.__file__).parent / "data").glob("*.json")), ids=lambda p: p.name
)
def test_shipped_data_is_exactly_what_dumps_writes(path):
    # pins the writer's bytes: every shipped file reads back to itself
    text = path.read_text()
    assert dumps(json.loads(text)) == text
