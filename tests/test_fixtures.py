"""The shipped reference files: one copy, packaged, and consistent with
each other and with what the package generates from them."""

import numpy as np
import pytest

from conftest import (
    FIXTURES,
    evaluate,
    example3_targets,
    example3_uniqueness,
    reference_json,
    reference_solution,
    run_cli,
)
from eigenpoly import fixtures
from eigenpoly.eigendata import encode
from eigenpoly.fixtures import generate_example3
from eigenpoly.jsonio import load_custom_basis_file, load_polynomial
from eigenpoly.solver import solve
from eigenpoly.structures import build_basis, coords_of, realize


def test_fixture_directory_is_complete():
    names = sorted(p.name for p in FIXTURES.iterdir())
    assert names == [
        "example1_eigendata.json",
        "example1_solution.json",
        "example2_alternate_basis.json",
        "example2_eigendata.json",
        "example2_reference.json",
        "example2_solution.json",
        "example3_bands.json",
    ]


def test_fixture_directory_is_the_package_data():
    assert FIXTURES.is_symlink()
    assert FIXTURES.resolve() == fixtures._DATA.resolve()


def test_example1_eigendata_file():
    # generate example1 reads this file and writes it back unchanged
    res = run_cli("generate", "example1")
    assert res.code == 0
    assert res.out == (FIXTURES / "example1_eigendata.json").read_text()
    pair, real = fixtures.example1_eigenpairs()
    assert pair.eigenvalue.imag > 0 and real.eigenvalue.imag == 0
    assert encode([pair, real], 3).m == 3


def test_example1_solution_file():
    n, k, coeffs = load_polynomial(FIXTURES / "example1_solution.json")
    assert (n, k) == (3, 2)
    basis = build_basis("symmetric", 3)
    for c in coeffs:
        coords_of(basis, c)


def test_example2_eigendata_file():
    res = run_cli("generate", "example2")
    assert res.code == 0
    assert res.out == (FIXTURES / "example2_eigendata.json").read_text()
    (pair,) = fixtures.example2_eigenpairs()
    assert pair.eigenvalue.imag > 0
    assert encode([pair], 4).m == 2


def test_example2_solution_file():
    n, k, coeffs = load_polynomial(FIXTURES / "example2_solution.json")
    assert (n, k) == (4, 2)
    for c in coeffs:
        np.testing.assert_array_equal(c.T, -c)


def test_example2_alternate_basis_file():
    # the skew-symmetric subspace with its first matrix replaced by a
    # non-orthogonal combination
    basis = load_custom_basis_file(FIXTURES / "example2_alternate_basis.json")
    canonical = build_basis("skew_symmetric", 4)
    assert (basis.n, basis.r) == (4, canonical.r)
    for j in range(basis.r):
        coords_of(canonical, realize(basis, np.eye(basis.r)[j]).dense)


def test_example2_reference_file():
    obj = reference_json("example2_reference.json")
    # x stacks the canonical coordinates of A_1, then those of A_0
    basis = build_basis("skew_symmetric", 4)
    a0, a1 = reference_solution("example2")
    np.testing.assert_allclose(obj["x"], np.concatenate([coords_of(basis, a1), coords_of(basis, a0)]), atol=1e-15)
    # the printed alternate A_0 differs from the computed one only in the
    # slipped (2,3)/(3,2) entries
    stated = np.array(obj["alternate_solution_stated_A0"])
    computed = np.array(obj["alternate_solution"]["A0"])
    assert sorted(zip(*np.nonzero(stated != computed))) == [(2, 3), (3, 2)]
    assert (stated[2, 3], computed[2, 3]) == (0.3732, 1.0272)


def test_example2_residual_constants_relationship():
    # the two constants differ by exactly one decimal exponent
    obj = reference_json("example2_reference.json")
    ratio = obj["residual_fro_squared"] / obj["residual_fro_squared_stated"]
    np.testing.assert_allclose(ratio, 10.0, rtol=1e-12)


def test_example3_bands_file_matches_generator():
    obj = reference_json("example3_bands.json")
    assert (obj["n"], obj["k"]) == (50, 2)
    gen = generate_example3()
    a0, a1 = gen.dense_coefficients()
    np.testing.assert_array_equal(obj["degree1"]["diag"], np.diagonal(a1))
    np.testing.assert_array_equal(obj["degree1"]["off"], np.diagonal(a1, 1))
    np.testing.assert_array_equal(obj["degree0"]["diag"], np.diagonal(a0))
    np.testing.assert_array_equal(obj["degree0"]["off"], np.diagonal(a0, 1))


def test_example3_uniqueness_tables():
    expected, observed = example3_uniqueness("expected"), example3_uniqueness("observed")
    assert sorted(expected) == sorted(observed) == [2, 4, 6, 10]
    # the observed table is what the solver measures on the shipped data;
    # it departs from the expected one at m = 4 and m = 6 (see README)
    basis = build_basis("symmetric_tridiagonal", 50)
    for m, unique in observed.items():
        assert solve(encode(fixtures.example3_eigenpairs(m), 50), basis, 2)[1].unique == unique
    assert [m for m in expected if expected[m] != observed[m]] == [4, 6]


@pytest.mark.parametrize("m,width", [(2, 2), (4, 4), (6, 6), (10, 10)])
def test_example3_eigenpairs_canonical_widths(m, width):
    pairs = fixtures.example3_eigenpairs(m)
    ep = encode(pairs, 50)
    assert ep.m == width


def test_example3_eigenpairs_m4_matches_published_targets():
    pairs = fixtures.example3_eigenpairs(4)
    got = sorted((p.eigenvalue for p in pairs), key=lambda z: (z.real, z.imag))
    want = sorted(example3_targets(4), key=lambda z: (z.real, z.imag))
    for g, w in zip(got, want):
        assert abs(g - w) <= 5e-4


def test_example3_eigenpairs_noncanonical_and_bounds():
    ep = encode(fixtures.example3_eigenpairs(5), 50)
    assert ep.m == 5
    with pytest.raises(ValueError):
        fixtures.example3_eigenpairs(0)
    with pytest.raises(ValueError):
        fixtures.example3_eigenpairs(101)


def test_reference_eigenpairs_satisfy_regenerated_polynomial():
    gen = generate_example3()
    for m in (2, 4, 6, 10):
        for p in fixtures.example3_eigenpairs(m):
            gap = np.linalg.norm(evaluate(gen, p.eigenvalue) @ p.vector)
            assert gap <= 1e-8 * (1 + abs(p.eigenvalue)) ** 2


def test_example3_is_built_once_and_cannot_be_changed(monkeypatch):
    original, calls = fixtures.companion_eigs, []

    def counted(poly):
        calls.append(poly)
        return original(poly)

    monkeypatch.setattr(fixtures, "companion_eigs", counted)
    fixtures._example3.cache_clear()
    try:
        first = fixtures.example3_eigenpairs(4)
        for m in (2, 5, 6, 10):
            fixtures.example3_eigenpairs(m)
        poly = generate_example3()
        assert len(calls) == 1 and calls[0] is poly
        # callers get fresh lists of frozen pairs and read-only coefficients
        size = len(first)
        first.clear()
        assert len(fixtures.example3_eigenpairs(4)) == size
        assert all(not p.vector.flags.writeable for p in fixtures.example3_eigenpairs(10))
        assert all(not c.dense.flags.writeable and not c.coords.flags.writeable for c in poly.coefficients)
    finally:
        fixtures._example3.cache_clear()
