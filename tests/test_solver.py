"""Linear system assembly, classification, solving, monic reduction."""

import tracemalloc

import numpy as np
import pytest

from conftest import (
    assert_matches_dense_oracle,
    dense_oracle,
    gated_pairs,
    max_entry_gap,
    random_instance,
    random_real_form,
)
from eigenpoly import fixtures
from eigenpoly.eigendata import Eigenpair, RealEigenpairs, encode
from eigenpoly.solver import (
    ToleranceConfig,
    analyze,
    assemble,
    extract_coefficient,
    monicize,
    solve,
)
from eigenpoly.structures import BUILTIN_KINDS, build_basis, coords_of, load_custom_basis, realize, vec
from eigenpoly.verify import choose_eigenpairs, residual


def scalar_pairs(values):
    return [Eigenpair(complex(v), np.array([1.0])) for v in values]


def kronecker_system(ep, basis, k):
    """U and b by the literal formula [((X E^(k-1))^T kron I) P | ... | (X^T kron I) P]."""
    powers = [np.eye(ep.m)]
    for _ in range(k):
        powers.append(powers[-1] @ ep.E)
    eye = np.eye(ep.n)
    U = np.hstack([np.kron((ep.X @ powers[i]).T, eye) @ basis.pattern for i in range(k - 1, -1, -1)])
    return U, -(ep.X @ powers[k]).reshape(-1, order="F")


@pytest.mark.parametrize("kind", sorted(BUILTIN_KINDS))
@pytest.mark.parametrize("n", [3, 5])
def test_scatter_assembly_is_bit_identical_to_kronecker(kind, n):
    basis = build_basis(kind, n)
    for k in (1, 2, 3):
        ep = random_real_form(n, 4, seed=100 * n + k)
        system = assemble(ep, basis, k, allow_overdetermined=True)
        U, b = kronecker_system(ep, basis, k)
        assert np.array_equal(system.U, U)
        assert np.array_equal(system.b, b)


def test_scatter_assembly_with_overlapping_custom_supports():
    rng = np.random.default_rng(41)
    basis = load_custom_basis([rng.standard_normal((4, 4)) for _ in range(5)])
    for k in (1, 2, 3):
        ep = random_real_form(4, 5, seed=k)
        system = assemble(ep, basis, k, allow_overdetermined=True)
        U, b = kronecker_system(ep, basis, k)
        assert np.max(np.abs(system.U - U)) <= 1e-14 * np.max(np.abs(U))
        assert np.array_equal(system.b, b)


def test_assemble_rejects_overflowing_powers():
    ep = RealEigenpairs.from_matrices(np.ones((2, 1)), np.array([[1e200]]))
    assemble(ep, build_basis("diagonal", 2), 1)  # E^1 is finite
    with pytest.raises(ValueError, match="overflows for degree k = 2"):
        assemble(ep, build_basis("diagonal", 2), 2)


def test_free_parameter_member_matches_dense_projector():
    cases = [("symmetric", 4, 2, 31), ("full", 3, 3, 32), ("toeplitz", 5, 2, 33),
             ("tridiagonal", 4, 2, 34), ("pentadiagonal", 5, 2, 35), ("full", 4, 2, 36)]
    for kind, n, k, seed in cases:
        basis, _, pairs = random_instance(kind, n, k, seed=seed)
        ep = encode(pairs[:1], n)
        _, family = solve(ep, basis, k)
        assert not family.unique
        system = assemble(ep, basis, k)
        Vr = np.linalg.svd(system.U)[2][: dense_oracle(system)[0]]
        projector = np.eye(k * basis.r) - Vr.T @ Vr
        rng = np.random.default_rng(seed)
        for _ in range(3):
            y = rng.uniform(-4, 4, k * basis.r)
            expected = family.x0 + projector @ y
            poly, _ = solve(ep, basis, k, y=y)
            got = np.concatenate([poly.coefficients[i].coords for i in range(k - 1, -1, -1)])
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13 * np.linalg.norm(expected))


def test_assemble_shapes_reference_problems():
    sys1 = assemble(fixtures.example1_real_form(), build_basis("symmetric", 3), 2)
    assert sys1.U.shape == (9, 12)
    assert sys1.b.shape == (9,)
    sys2 = assemble(fixtures.example2_real_form(), build_basis("skew_symmetric", 4), 2)
    assert sys2.U.shape == (8, 12)
    assert sys2.b.shape == (8,)


def test_assemble_scalar_system_entries():
    ep = encode(scalar_pairs([2.0]), 1)
    system = assemble(ep, build_basis("full", 1), 1)
    np.testing.assert_array_equal(system.U, [[1.0]])
    np.testing.assert_array_equal(system.b, [-2.0])


def test_right_hand_side_is_negative_highest_power():
    ep = fixtures.example1_real_form()
    system = assemble(ep, build_basis("symmetric", 3), 2)
    expected = -(ep.X @ ep.E @ ep.E).reshape(-1, order="F")
    np.testing.assert_allclose(system.b, expected, rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("kind,n,k", [("symmetric", 3, 2), ("toeplitz", 4, 3), ("full", 2, 4)])
def test_block_columns_encode_coefficient_action(kind, n, k):
    """Block j of U applied to coords c equals vec(realize(c) @ X @ E^(k-j))."""
    basis, gen, pairs = random_instance(kind, n, k, seed=5)
    ep = encode(pairs, n)
    system = assemble(ep, basis, k)
    rng = np.random.default_rng(6)
    c = rng.uniform(-2, 2, basis.r)
    powers = [np.eye(ep.m)]
    for _ in range(k):
        powers.append(powers[-1] @ ep.E)
    for j in range(1, k + 1):
        block = system.U[:, (j - 1) * basis.r : j * basis.r]
        direct = vec(realize(basis, c).dense @ ep.X @ powers[k - j])
        np.testing.assert_allclose(block @ c, direct, atol=1e-12 * max(1, np.max(np.abs(direct))))


def test_residual_norm_matches_vectorized_system():
    """|| U x - b || equals the Frobenius residual of the matrix relation."""
    basis, gen, pairs = random_instance("symmetric_tridiagonal", 5, 2, seed=8)
    ep = encode(pairs, 5)
    system = assemble(ep, basis, 2)
    rng = np.random.default_rng(9)
    x = rng.uniform(-1, 1, 2 * basis.r)
    coeffs = [realize(basis, extract_coefficient(x, i, 2, basis.r)).dense for i in range(2)]
    vec_norm = np.linalg.norm(system.U @ x - system.b)
    np.testing.assert_allclose(vec_norm, residual(coeffs, ep).fro, rtol=1e-12)


def test_overdetermined_scalar_least_squares():
    ep = encode(scalar_pairs([1.0, 2.0]), 1)
    with pytest.raises(ValueError, match="exceed k\\*n"):
        assemble(ep, build_basis("full", 1), 1)
    system = assemble(ep, build_basis("full", 1), 1, allow_overdetermined=True)
    np.testing.assert_array_equal(system.U, [[1.0], [1.0]])
    np.testing.assert_array_equal(system.b, [-1.0, -2.0])
    family = analyze(system)
    assert not family.consistent
    assert family.unique  # full column rank even though inconsistent
    np.testing.assert_allclose(family.x0, [-1.5])
    np.testing.assert_allclose(family.consistency_residual, np.sqrt(0.5), rtol=1e-14)


def test_solve_refuses_overdetermined_without_flag():
    ep = encode(scalar_pairs([1.0, 2.0]), 1)
    with pytest.raises(ValueError, match="allow_overdetermined"):
        solve(ep, build_basis("full", 1), 1)
    poly, family = solve(ep, build_basis("full", 1), 1, allow_overdetermined=True)
    assert poly is None and not family.consistent


def test_in_bounds_inconsistent_diagonal_fixture():
    # two eigenvalues forcing contradictory diagonal entries, m = k*n exactly
    pairs = [
        Eigenpair(1.0 + 0j, np.array([1.0, 1.0])),
        Eigenpair(2.0 + 0j, np.array([1.0, 1.0])),
    ]
    ep = encode(pairs, 2)
    poly, family = solve(ep, build_basis("diagonal", 2), 1)
    assert poly is None
    assert not family.consistent
    np.testing.assert_allclose(family.x0, [-1.5, -1.5])
    np.testing.assert_allclose(family.consistency_residual, 1.0, rtol=1e-14)


def test_degree_and_data_bounds():
    ep = encode(scalar_pairs([1.0]), 1)
    with pytest.raises(ValueError, match="degree must be at least 1"):
        solve(ep, build_basis("full", 1), 0)
    with pytest.raises(ValueError, match="does not match basis order"):
        solve(ep, build_basis("full", 2), 1)


def test_extract_coefficient_layout():
    x = np.asarray(fixtures.EXAMPLE2_X_VECTOR)
    np.testing.assert_array_equal(extract_coefficient(x, 1, 2, 6), x[0:6])
    np.testing.assert_array_equal(extract_coefficient(x, 0, 2, 6), x[6:12])
    whole = np.arange(5.0)
    np.testing.assert_array_equal(extract_coefficient(whole, 0, 1, 5), whole)
    with pytest.raises(ValueError, match="0 <= i < k"):
        extract_coefficient(x, 2, 2, 6)
    with pytest.raises(ValueError, match="0 <= i < k"):
        extract_coefficient(x, -1, 2, 6)
    with pytest.raises(ValueError, match="length k\\*r = 12"):
        extract_coefficient(np.zeros(11), 0, 2, 6)


def test_solve_reference_problem_one():
    ep = fixtures.example1_real_form()
    basis = build_basis("symmetric", 3)
    poly, family = solve(ep, basis, 2)
    assert family.consistent and not family.unique
    assert family.rank == 9 and family.projector_rank == 3
    assert family.consistency_residual < 1e-13
    a0, a1 = fixtures.example1_expected()
    assert max_entry_gap(poly.dense_coefficients(), [a0, a1]) <= 1e-3
    # the reported Frobenius residual and the vectorized gap are the same number
    np.testing.assert_allclose(residual(poly, ep).fro, family.consistency_residual, atol=1e-12)


def test_solve_reference_problem_one_minimal_norm():
    ep = fixtures.example1_real_form()
    basis = build_basis("symmetric", 3)
    poly, family = solve(ep, basis, 2)
    base = np.linalg.norm(family.x0)
    rng = np.random.default_rng(14)
    for _ in range(100):
        w = rng.standard_normal(family.x0.shape[0])
        assert base <= np.linalg.norm(family.x0 + family.project(w)) + 1e-12


def test_solve_reference_problem_one_family_members():
    ep = fixtures.example1_real_form()
    basis = build_basis("symmetric", 3)
    _, family = solve(ep, basis, 2)
    system = assemble(ep, basis, 2)
    Vr = np.linalg.svd(system.U)[2][: dense_oracle(system)[0]]
    rng = np.random.default_rng(15)
    for _ in range(5):
        y = rng.uniform(-4, 4, 12)
        member, fam_y = solve(ep, basis, 2, y=y)
        expected_x = family.x0 + y - Vr.T @ (Vr @ y)
        got_x = np.concatenate([member.coefficients[1].coords, member.coefficients[0].coords])
        np.testing.assert_allclose(got_x, expected_x, atol=1e-12)
        # every member satisfies the relation as well as the particular solution
        assert residual(member, ep).fro <= family.consistency_residual + 1e-10
        for c in member.coefficients:
            np.testing.assert_allclose(c.dense, c.dense.T, atol=1e-14)


def test_solve_rejects_bad_free_parameter():
    ep = fixtures.example1_real_form()
    basis = build_basis("symmetric", 3)
    with pytest.raises(ValueError, match="length k\\*r = 12"):
        solve(ep, basis, 2, y=np.zeros(7))


def test_solve_reference_problem_two():
    ep = fixtures.example2_real_form()
    basis = build_basis("skew_symmetric", 4)
    tol = ToleranceConfig(consistency_tol=1e-4)  # four-decimal input data
    poly, family = solve(ep, basis, 2, tol=tol)
    assert family.consistent and not family.unique
    assert family.rank == 6 and family.projector_rank == 6
    x = np.concatenate([poly.coefficients[1].coords, poly.coefficients[0].coords])
    np.testing.assert_allclose(x, fixtures.EXAMPLE2_X_VECTOR, atol=1e-3)
    for c in poly.dense_coefficients():
        np.testing.assert_array_equal(c.T, -c)  # exactly skew, not approximately


def test_solve_reference_problem_two_default_tolerance_is_inconsistent():
    ep = fixtures.example2_real_form()
    poly, family = solve(ep, build_basis("skew_symmetric", 4), 2)
    assert poly is None and not family.consistent
    np.testing.assert_allclose(family.consistency_residual, 8.924121490906468e-3, rtol=1e-9)


def test_unique_instance_recovers_generator():
    basis, gen, pairs = random_instance("symmetric", 3, 2, seed=21)
    ep = encode(pairs, 3)
    assert ep.m == 6
    poly, family = solve(ep, basis, 2)
    assert family.consistent and family.unique
    assert family.rank == 12 and family.projector_rank == 0
    scale = max(np.max(np.abs(c.dense)) for c in gen.coefficients)
    assert max_entry_gap(poly.dense_coefficients(), gen.dense_coefficients()) <= 1e-6 * scale
    np.testing.assert_allclose(family.project(np.eye(12)), np.zeros((12, 12)), atol=1e-12)


def test_unique_solution_invariant_under_basis_presentation():
    basis, gen, pairs = random_instance("symmetric", 3, 2, seed=22)
    ep = encode(pairs, 3)
    ref, fam = solve(ep, basis, 2)
    assert fam.unique
    rng = np.random.default_rng(23)
    perm = rng.permutation(basis.r)
    scales = rng.uniform(0.5, 3.0, basis.r) * rng.choice([-1.0, 1.0], basis.r)
    mats = [scales[j] * realize(basis, np.eye(basis.r)[perm[j]]).dense for j in range(basis.r)]
    alt = load_custom_basis(mats)
    got, fam_alt = solve(ep, alt, 2)
    assert fam_alt.unique
    assert max_entry_gap(got.dense_coefficients(), ref.dense_coefficients()) <= 1e-8


def test_tolerance_config_validation():
    with pytest.raises(ValueError, match="strictly positive"):
        ToleranceConfig(consistency_tol=0.0)
    with pytest.raises(ValueError, match="strictly positive"):
        ToleranceConfig(rank_cutoff_factor=-1.0)
    default = ToleranceConfig()
    assert default.rank_cutoff(9, 12) == np.finfo(float).eps * 12
    fixed = ToleranceConfig(rank_cutoff_factor=1e-6)
    assert fixed.rank_cutoff(9, 12) == 1e-6


def test_rank_cutoff_factor_changes_classification():
    ep = fixtures.example1_real_form()
    basis = build_basis("symmetric", 3)
    # an absurdly large cutoff criterion flattens the numerical rank
    loose = ToleranceConfig(rank_cutoff_factor=0.99, consistency_tol=10.0)
    _, family = solve(ep, basis, 2, tol=loose)
    assert family.rank < 9


def test_monicize_identity_and_scalar_scaling():
    a0 = np.array([[1.0, 2.0], [2.0, 5.0]])
    out, transform = monicize(np.eye(2), [a0])
    np.testing.assert_allclose(out[0], a0, atol=1e-14)
    np.testing.assert_allclose(transform, np.eye(2), atol=1e-14)
    out, transform = monicize(4.0 * np.eye(2), [a0])
    np.testing.assert_allclose(out[0], a0 / 4.0, atol=1e-14)
    np.testing.assert_allclose(transform, 2.0 * np.eye(2), atol=1e-14)


def test_monicize_diagonal_oracle():
    # A_2 = diag(4, 9): L^(-1/2) = diag(1/2, 1/3)
    a0 = np.array([[1.0, 2.0], [2.0, 3.0]])
    out, transform = monicize(np.diag([4.0, 9.0]), [a0])
    expected = np.array([[1.0 / 4.0, 2.0 / 6.0], [2.0 / 6.0, 3.0 / 9.0]])
    np.testing.assert_allclose(out[0], expected, atol=1e-14)
    np.testing.assert_allclose(transform, np.diag([2.0, 3.0]), atol=1e-14)
    np.testing.assert_allclose(transform @ transform, np.diag([4.0, 9.0]), atol=1e-13)


def test_monicize_transform_is_matrix_square_root():
    rng = np.random.default_rng(31)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    leading = q @ np.diag(rng.uniform(0.5, 3.0, 4)) @ q.T
    leading = 0.5 * (leading + leading.T)
    coeffs = []
    for _ in range(2):
        s = rng.standard_normal((4, 4))
        coeffs.append(s + s.T)
    out, transform = monicize(leading, coeffs)
    np.testing.assert_allclose(transform @ transform, leading, atol=1e-12)
    inv_root = np.linalg.inv(transform)
    for got, orig in zip(out, coeffs):
        np.testing.assert_allclose(got, inv_root @ orig @ inv_root, atol=1e-12)
        np.testing.assert_allclose(got, got.T, atol=1e-12)


def test_monicize_rejects_bad_leading_coefficients():
    sym = np.eye(2)
    with pytest.raises(ValueError, match="not symmetric"):
        monicize(np.array([[1.0, 1.0], [0.0, 1.0]]), [sym])
    with pytest.raises(ValueError, match="not positive definite"):
        monicize(np.diag([1.0, -1.0]), [sym])
    with pytest.raises(ValueError, match="not positive definite"):
        monicize(np.diag([1.0, 0.0]), [sym])
    with pytest.raises(ValueError, match="not symmetric"):
        monicize(np.eye(2), [np.array([[0.0, 1.0], [-1.0, 0.0]])])


def test_assemble_rejects_empty_eigendata():
    empty = encode([], 2)
    assert empty.m == 0
    with pytest.raises(ValueError, match="at least one eigenpair"):
        assemble(empty, build_basis("full", 2), 1)


# --- block-by-block factorization against the dense SVD of the same U ---

ONE_BLOCK = ("symmetric", "skew_symmetric", "hankel", "toeplitz", "symmetric_tridiagonal")


def oracle_systems(kind, n=5):
    """Generated data at k = 1, 2, 3: one or two columns, half the spectrum,
    all of it, and all of it with noise on X, which is inconsistent wherever
    U has more rows than rank."""
    for k in (1, 2, 3):
        basis, gen, pairs = random_instance(kind, n, k, seed=7 * k + 1)
        good = gated_pairs(gen, pairs)
        for m in (1, k * n // 2, k * n):
            for width in (m, m + 1, m - 1):  # conjugate pairs fill two columns
                try:
                    chosen = choose_eigenpairs(good, width, np.random.default_rng(m))
                    break
                except ValueError:
                    continue
            ep = encode(chosen, n)
            yield assemble(ep, basis, k)
        rng = np.random.default_rng(k)
        noisy = RealEigenpairs.from_matrices(ep.X + 1e-3 * rng.standard_normal(ep.X.shape), ep.E)
        yield assemble(noisy, basis, k)


@pytest.mark.parametrize("kind", sorted(BUILTIN_KINDS))
def test_block_analysis_matches_dense_svd(kind):
    verdicts = set()
    for system in oracle_systems(kind):
        family = analyze(system)
        assert_matches_dense_oracle(system, family)
        if kind in ONE_BLOCK:
            # U is one block: the same SVD of the same matrix
            assert np.array_equal(family.x0, dense_oracle(system)[1])
        verdicts.add((family.consistent, family.unique))
    assert (True, False) in verdicts and (True, True) in verdicts


def test_block_analysis_covers_inconsistent_data():
    for kind in ("tridiagonal", "diagonal", "symmetric"):
        families = [analyze(system) for system in oracle_systems(kind)]
        assert any(not f.consistent for f in families)


def test_block_rank_uses_the_global_cutoff():
    # one row of X sits far below the others, so the diagonal block it
    # feeds has singular values under the global cutoff though they are
    # large next to that block's own largest one
    rng = np.random.default_rng(51)
    X = rng.standard_normal((4, 6))
    X[2] *= 1e-17
    ep = RealEigenpairs.from_matrices(X, np.diag(rng.uniform(-2, 2, 6)))
    system = assemble(ep, build_basis("diagonal", 4), 2, allow_overdetermined=True)
    family = analyze(system)
    assert_matches_dense_oracle(system, family)
    assert family.rank == 6
    assert np.all(family.x0[[2, 6]] == 0.0)


def test_block_analysis_counts_untouched_rows_in_the_gap():
    # no basis matrix touches row 1 of A, so those rows of U are zero while
    # b has entries there: the data cannot be matched
    mats = [np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 0.0, 1.0]), np.array([[0, 0, 1.0], [0, 0, 0], [0, 0, 0]])]
    basis = load_custom_basis(mats)
    ep = random_real_form(3, 2, seed=52)
    system = assemble(ep, basis, 1)
    family = analyze(system)
    assert_matches_dense_oracle(system, family)
    assert not family.consistent
    untouched = np.linalg.norm(system.b[1::3])
    assert family.consistency_residual >= untouched > 0.0


def test_multi_block_solve_never_forms_the_dense_system():
    # full at n = 32, m = 32: U would be 1024 x 2048 doubles (16 MiB), but
    # it splits into 32 blocks of 32 x 64 (0.5 MiB together)
    n, k, m = 32, 2, 32
    ep = random_real_form(n, m, seed=61)
    basis = build_basis("full", n)
    y = np.random.default_rng(62).standard_normal(k * basis.r)
    dense_bytes = (m * n) * (k * basis.r) * 8
    tracemalloc.start()
    try:
        poly, family = solve(ep, basis, k, y=y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert poly is not None and family.rank == m * n
    assert peak < dense_bytes / 4, f"peak {peak / 2**20:.2f} MiB"
