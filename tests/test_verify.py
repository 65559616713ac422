"""Forward residuals, companion eigenpairs, reference problem regeneration."""

import json

import numpy as np
import pytest

from conftest import (
    evaluate,
    example3_targets,
    pair_residual,
    random_instance,
    reference_eigendata,
    reference_solution,
    run_cli,
)
from eigenpoly.eigendata import Eigenpair, encode
from eigenpoly.fixtures import generate_example3
from eigenpoly.jsonio import load_polynomial, obj_to_eigenpairs
from eigenpoly.solver import ToleranceConfig, solve
from eigenpoly.structures import build_basis
from eigenpoly.verify import choose_eigenpairs, companion_eigs, random_polynomial, residual


def test_residual_of_zero_coefficients_is_leading_term():
    ep = reference_eigendata("example1")
    zero = [np.zeros((3, 3)), np.zeros((3, 3))]
    report = residual(zero, ep)
    lead = np.linalg.norm(ep.X @ ep.E @ ep.E, "fro")
    np.testing.assert_allclose(report.fro, lead, rtol=1e-13)
    np.testing.assert_allclose(report.relative, lead / max(1.0, lead), rtol=1e-13)
    # one conjugate block plus one real column
    assert len(report.per_pair) == 2


def test_residual_of_printed_reference_solution():
    ep = reference_eigendata("example1")
    report = residual(reference_solution("example1"), ep)
    np.testing.assert_allclose(report.fro, 7.768893800306532e-05, rtol=1e-6)
    assert report.relative < 1e-4
    assert all(v <= report.fro + 1e-15 for v in report.per_pair)
    np.testing.assert_allclose(np.sqrt(sum(v * v for v in report.per_pair)), report.fro, rtol=1e-12)


def test_residual_validates_input():
    ep = reference_eigendata("example1")
    with pytest.raises(ValueError, match="does not match polynomial order"):
        residual([np.zeros((2, 2))], ep)
    with pytest.raises(ValueError, match="at least one trailing coefficient"):
        residual([], ep)
    with pytest.raises(ValueError, match="not 2x2"):
        residual([np.zeros((2, 2)), np.zeros((2, 3))], ep)


def test_companion_degree_one_matches_dense_eigensolver():
    rng = np.random.default_rng(41)
    s = rng.standard_normal((4, 4))
    a0 = s + s.T
    got = sorted(p.eigenvalue.real for p in companion_eigs([a0]))
    expected = sorted(np.linalg.eigvalsh(-a0))
    np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-12)
    for p in companion_eigs([a0]):
        assert p.eigenvalue.imag == 0.0
        np.testing.assert_allclose(np.linalg.norm(p.vector), 1.0, rtol=1e-12)


def test_companion_scalar_quadratic_roots():
    # lambda^2 + 3 lambda + 2 factors as (lambda + 1)(lambda + 2)
    pairs = companion_eigs([np.array([[2.0]]), np.array([[3.0]])])
    values = sorted(p.eigenvalue.real for p in pairs)
    np.testing.assert_allclose(values, [-2.0, -1.0], rtol=1e-12)
    for p in pairs:
        np.testing.assert_allclose(np.abs(p.vector), [1.0], rtol=1e-12)


def test_companion_zero_eigenvalue_vector_fallback():
    # lambda^2 + 3 lambda: the companion eigenvector for lambda = 0 has a
    # vanishing top block, the eigenvector lives in the trailing block
    pairs = companion_eigs([np.array([[0.0]]), np.array([[3.0]])])
    values = sorted(p.eigenvalue.real for p in pairs)
    np.testing.assert_allclose(values, [-3.0, 0.0], atol=1e-14)
    zero_pair = min(pairs, key=lambda p: abs(p.eigenvalue))
    np.testing.assert_allclose(np.abs(zero_pair.vector), [1.0], rtol=1e-12)


def backward_error(coeffs, pair):
    """Normwise backward error of one eigenpair of a monic polynomial (Tisseur, 2000)."""
    lam, z = pair.eigenvalue, pair.vector
    value = lam ** len(coeffs) * z + sum(lam**i * (a @ z) for i, a in enumerate(coeffs))
    weight = abs(lam) ** len(coeffs) + sum(abs(lam) ** i * np.linalg.norm(a, 2) for i, a in enumerate(coeffs))
    return float(np.linalg.norm(value) / (weight * np.linalg.norm(z)))


@pytest.mark.parametrize(
    "kind,n,k,m,seed",
    [("hankel", 3, 4, 8, 1232847585), ("tridiagonal", 6, 3, 10, 54038712)],
)
def test_generated_eigendata_satisfies_its_generator(tmp_path, kind, n, k, m, seed):
    # each case selects an eigenvalue of modulus below 1e-3, whose vector
    # the top block lambda^(k-1) z of the companion eigenvector loses
    data, truth = tmp_path / "data.json", tmp_path / "truth.json"
    res = run_cli("generate", "random", "--n", str(n), "--k", str(k), "--structure", kind, "--m", str(m),
                  "--seed", str(seed), "--output", str(data), "--ground-truth", str(truth))
    assert res.code == 0
    _, _, coeffs = load_polynomial(truth)
    _, pairs = obj_to_eigenpairs(json.loads(data.read_text()))
    assert min(abs(p.eigenvalue) for p in pairs) < 1e-3
    assert max(backward_error(coeffs, p) for p in pairs) <= 1e-10
    assert run_cli("verify", str(truth), str(data)).code == 0


@pytest.mark.parametrize(
    "kind,n,k", [("symmetric", 4, 2), ("tridiagonal", 3, 3), ("full", 5, 1), ("toeplitz", 4, 4)]
)
def test_companion_representatives_cover_all_eigenvalues(kind, n, k):
    basis, gen, pairs = random_instance(kind, n, k, seed=43)
    weight = sum(1 if p.eigenvalue.imag == 0.0 else 2 for p in pairs)
    assert weight == k * n
    assert all(p.eigenvalue.imag >= 0.0 for p in pairs)
    values = [p.eigenvalue for p in pairs]
    assert values == sorted(values, key=lambda z: (z.real, z.imag))
    for p in pairs:
        np.testing.assert_allclose(np.linalg.norm(p.vector), 1.0, rtol=1e-12)
        assert pair_residual(gen, p) <= 1e-8


def test_perturbed_eigenvalue_shows_in_residual():
    basis, gen, pairs = random_instance("symmetric", 3, 2, seed=44)
    real = next(p for p in pairs if p.eigenvalue.imag == 0.0)
    lam = real.eigenvalue.real + 0.1
    ep = encode([Eigenpair(complex(lam), real.vector)], 3)
    report = residual(gen, ep)
    direct = np.linalg.norm(evaluate(gen, lam) @ real.vector.real)
    np.testing.assert_allclose(report.fro, direct, rtol=1e-12)
    assert report.fro > 1e-4  # far outside any solve tolerance


def test_choose_eigenpairs_greedy_exact_fill():
    z2 = np.array([1.0 + 1.0j, 0.0 + 0.5j])
    r2 = np.array([1.0, 2.0])
    candidates = [
        Eigenpair(1.0 + 2.0j, z2),
        Eigenpair(3.0 + 1.0j, z2),
        Eigenpair(-1.0 + 0j, r2 + 0j),
    ]
    chosen = choose_eigenpairs(candidates, 3)
    assert [p.eigenvalue for p in chosen] == [1.0 + 2.0j, -1.0 + 0j]
    only_complex = candidates[:2]
    with pytest.raises(ValueError, match="cannot fill exactly m = 3"):
        choose_eigenpairs(only_complex, 3)
    assert choose_eigenpairs(only_complex, 4) == only_complex


def test_choose_eigenpairs_seeded_order_is_deterministic():
    _, _, pairs = random_instance("symmetric", 4, 2, seed=45)
    pick1 = choose_eigenpairs(pairs, 5, np.random.default_rng(9))
    pick2 = choose_eigenpairs(pairs, 5, np.random.default_rng(9))
    assert [p.eigenvalue for p in pick1] == [p.eigenvalue for p in pick2]
    assert sum(1 if p.eigenvalue.imag == 0 else 2 for p in pick1) == 5


def test_random_polynomial_respects_structure_and_seed():
    basis = build_basis("skew_symmetric", 4)
    p1 = random_polynomial(basis, 2, np.random.default_rng(7))
    p2 = random_polynomial(basis, 2, np.random.default_rng(7))
    for c1, c2 in zip(p1.coefficients, p2.coefficients):
        np.testing.assert_array_equal(c1.dense, c2.dense)
        np.testing.assert_array_equal(c1.dense.T, -c1.dense)
        assert np.max(np.abs(c1.coords)) <= 1.0


def test_regenerated_band_problem_spot_values():
    gen = generate_example3()
    assert (gen.n, gen.k) == (50, 2)
    a0, a1 = gen.dense_coefficients()
    assert a1[0, 0] == 10.0
    assert a1[0, 1] == 2.8 and a1[1, 0] == 2.8
    assert a0[0, 0] == 5.6
    assert a0[0, 1] == 3.2 and a0[1, 0] == 3.2
    for a in (a0, a1):
        np.testing.assert_array_equal(a, a.T)
        i, j = np.indices(a.shape)
        assert np.all(a[np.abs(i - j) > 1] == 0)


def test_regenerated_band_problem_matches_printed_eigenvalues():
    gen = generate_example3()
    pairs = companion_eigs(gen)
    for target in example3_targets(4):
        best = min(abs(p.eigenvalue - target) for p in pairs)
        assert best <= 5e-4, f"no companion eigenvalue near {target}, best gap {best}"


def test_round_trip_solve_from_companion_data():
    basis, gen, pairs = random_instance("symmetric", 4, 2, seed=46)
    ep = encode(choose_eigenpairs(pairs, 6), 4)
    poly, family = solve(ep, basis, 2)
    assert family.consistent
    assert residual(poly, ep).relative <= 1e-7


def test_round_trip_reference_problem_two_with_loose_tolerance():
    ep = reference_eigendata("example2")
    poly, family = solve(
        ep, build_basis("skew_symmetric", 4), 2, tol=ToleranceConfig(consistency_tol=1e-4)
    )
    report = residual(poly, ep)
    np.testing.assert_allclose(report.fro, family.consistency_residual, rtol=1e-10)
    assert report.relative <= 1e-4
