"""Linear system assembly, classification, solving, monic reduction."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    assert_matches_dense_oracle,
    dense_oracle,
    gated_pairs,
    max_entry_gap,
    pattern,
    random_instance,
    random_real_form,
    reference_eigendata,
    reference_json,
    reference_solution,
    row_basis,
)
from eigenpoly import fixtures
from eigenpoly.eigendata import Eigenpair, RealEigenpairs, encode
from eigenpoly.solver import (
    MonicPolynomial,
    ToleranceConfig,
    analyze,
    assemble,
    extract_coefficient,
    monicize,
    solve,
)
from eigenpoly.structures import BUILTIN_KINDS, build_basis, coords_of, load_custom_basis, realize
from eigenpoly.verify import choose_eigenpairs, companion_eigs, residual


def scalar_pairs(values):
    return [Eigenpair(complex(v), np.array([1.0])) for v in values]


def kronecker_system(ep, basis, k):
    """U and b by the literal formula [((X E^(k-1))^T kron I) P | ... | (X^T kron I) P]."""
    powers = [np.eye(ep.m)]
    for _ in range(k):
        powers.append(powers[-1] @ ep.E)
    eye = np.eye(ep.n)
    U = np.hstack([np.kron((ep.X @ powers[i]).T, eye) @ pattern(basis) for i in range(k - 1, -1, -1)])
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
    ep = RealEigenpairs(n=2, m=1, t=0, X=np.ones((2, 1)), E=np.array([[1e150]]))
    assemble(ep, build_basis("diagonal", 2), 1)  # X E^1 and its norm are finite
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
    sys1 = assemble(reference_eigendata("example1"), build_basis("symmetric", 3), 2)
    assert sys1.U.shape == (9, 12)
    assert sys1.b.shape == (9,)
    sys2 = assemble(reference_eigendata("example2"), build_basis("skew_symmetric", 4), 2)
    assert sys2.U.shape == (8, 12)
    assert sys2.b.shape == (8,)


def test_assemble_scalar_system_entries():
    ep = encode(scalar_pairs([2.0]), 1)
    system = assemble(ep, build_basis("full", 1), 1)
    np.testing.assert_array_equal(system.U, [[1.0]])
    np.testing.assert_array_equal(system.b, [-2.0])


def test_right_hand_side_is_negative_highest_power():
    ep = reference_eigendata("example1")
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
        direct = (realize(basis, c).dense @ ep.X @ powers[k - j]).reshape(-1, order="F")
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
    x = np.asarray(reference_json("example2_reference.json")["x"])
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
    ep = reference_eigendata("example1")
    basis = build_basis("symmetric", 3)
    poly, family = solve(ep, basis, 2)
    assert family.consistent and not family.unique
    assert family.rank == 9 and family.projector_rank == 3
    assert family.consistency_residual < 1e-13
    a0, a1 = reference_solution("example1")
    assert max_entry_gap(poly.dense_coefficients(), [a0, a1]) <= 1e-3
    # the reported Frobenius residual and the vectorized gap are the same number
    np.testing.assert_allclose(residual(poly, ep).fro, family.consistency_residual, atol=1e-12)


def test_solve_reference_problem_one_minimal_norm():
    ep = reference_eigendata("example1")
    basis = build_basis("symmetric", 3)
    poly, family = solve(ep, basis, 2)
    base = np.linalg.norm(family.x0)
    rng = np.random.default_rng(14)
    for _ in range(100):
        w = rng.standard_normal(family.x0.shape[0])
        assert base <= np.linalg.norm(family.x0 + family.project(w)) + 1e-12


def test_solve_reference_problem_one_family_members():
    ep = reference_eigendata("example1")
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
    ep = reference_eigendata("example1")
    basis = build_basis("symmetric", 3)
    with pytest.raises(ValueError, match="length k\\*r = 12"):
        solve(ep, basis, 2, y=np.zeros(7))


def test_solve_reference_problem_two():
    ep = reference_eigendata("example2")
    basis = build_basis("skew_symmetric", 4)
    tol = ToleranceConfig(consistency_tol=1e-4)  # four-decimal input data
    poly, family = solve(ep, basis, 2, tol=tol)
    assert family.consistent and not family.unique
    assert family.rank == 6 and family.projector_rank == 6
    x = np.concatenate([poly.coefficients[1].coords, poly.coefficients[0].coords])
    np.testing.assert_allclose(x, reference_json("example2_reference.json")["x"], atol=1e-3)
    for c in poly.dense_coefficients():
        np.testing.assert_array_equal(c.T, -c)  # exactly skew, not approximately


def test_solve_reference_problem_two_default_tolerance_is_inconsistent():
    ep = reference_eigendata("example2")
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
    ep = reference_eigendata("example1")
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
        noisy = replace(ep, X=ep.X + 1e-3 * rng.standard_normal(ep.X.shape))
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
    ep = RealEigenpairs(n=4, m=6, t=0, X=X, E=np.diag(rng.uniform(-2, 2, 6)))
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
    # it splits into 32 copies of one 32 x 64 block (16 KiB)
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


# --- blocks with copies: full as one matrix equation ---


@pytest.mark.parametrize("k", [1, 2, 3])
def test_full_is_one_block_with_a_copy_per_row(k):
    n = 6
    basis = build_basis("full", n)
    for m in (2, n, k * n):
        system = assemble(random_real_form(n, m, seed=70 + 10 * k + m), basis, k)
        [(rows, cols, Uj)] = system.blocks
        assert rows.shape == (n, m) and cols.shape == (n, k * n) and Uj.shape == (m, k * n)
        family = analyze(system)
        assert_matches_dense_oracle(system, family)
        assert family.rank == n * np.linalg.matrix_rank(Uj)
        # each row of [A_{k-1} ... A_0] is the minimal-norm solution of the
        # same m x kn system, with that row of -X E^k as right-hand side
        expected = np.linalg.lstsq(Uj, system.b[rows].T, rcond=None)[0].T
        np.testing.assert_allclose(family.x0[cols], expected, rtol=0, atol=1e-12 * np.linalg.norm(expected))


def shared_custom_basis():
    """A row-separable custom basis whose four rows carry the same two
    vectors: one block with four copies."""
    return row_basis([[np.array([1.0, 2.0, 0.0, -1.0]), np.array([0.0, 1.0, 3.0, 0.0])]] * 4)


def test_shared_custom_basis_assembles_the_kronecker_system():
    basis = shared_custom_basis()
    assert [len(P) for P, _ in basis.blocks] == [4]
    for k in (1, 2, 3):
        ep = random_real_form(4, 5, seed=80 + k)
        system = assemble(ep, basis, k, allow_overdetermined=True)
        U, b = kronecker_system(ep, basis, k)
        assert np.max(np.abs(system.U - U)) <= 1e-14 * np.max(np.abs(U))
        assert np.array_equal(system.b, b)


@pytest.mark.parametrize("basis", [build_basis("full", 5), shared_custom_basis()], ids=["full", "custom"])
def test_project_matches_the_dense_projector_of_shared_blocks(basis):
    n, k = basis.n, 2
    system = assemble(random_real_form(n, 3, seed=90), basis, k)
    family = analyze(system)
    assert len(system.blocks[0][0]) == n
    Vr = np.linalg.svd(system.U)[2][: dense_oracle(system)[0]]
    projector = np.eye(k * basis.r) - Vr.T @ Vr
    rng = np.random.default_rng(91)
    y = rng.uniform(-4, 4, k * basis.r)
    np.testing.assert_allclose(family.project(y), projector @ y, rtol=0, atol=1e-13 * np.linalg.norm(y))
    Y = rng.uniform(-4, 4, (k * basis.r, 3))
    np.testing.assert_allclose(family.project(Y), projector @ Y, rtol=0, atol=1e-13 * np.linalg.norm(Y))


def test_full_solve_at_order_150_stays_small():
    # U would be 15000 x 45000 doubles (5 GiB); its 150 equal row blocks
    # are built and factorized once, as one 100 x 300 matrix
    n, k, m = 150, 2, 100
    ep = random_real_form(n, m, seed=95)
    basis = build_basis("full", n)
    tracemalloc.start()
    try:
        poly, family = solve(ep, basis, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert poly is not None and family.rank == m * n
    assert peak < 10 * 2**20, f"peak {peak / 2**20:.2f} MiB"


# --- the certified QR sweep of a tall chain block ---


def certified(family):
    """Whether analyze took the sweep: a certified block keeps no V_j."""
    return all(V is None for _, V in family.factors)


def spring_chain_data(basis, m, seed):
    """A consistent, unique chain problem: a damped spring-mass quadratic
    (stiffness and damping of fixed-fixed chains) in the
    symmetric_tridiagonal ``basis`` and m real-form columns of its
    eigendata."""
    n = basis.n
    rng = np.random.default_rng(seed)

    def chain(w):
        return np.diag(w[:-1] + w[1:]) - np.diag(w[1:-1], 1) - np.diag(w[1:-1], -1)

    stiffness, damping = chain(rng.uniform(0.5, 2.0, n + 1)), chain(rng.uniform(0.02, 0.2, n + 1))
    gen = MonicPolynomial(n, 2, tuple(realize(basis, coords_of(basis, a)) for a in (stiffness, damping)))
    return gen, encode(choose_eigenpairs(companion_eigs(gen), m, rng), n)


def shuffled_chain_basis(n, seed):
    """A custom chain: diagonal entries and links (perm[l], perm[l + 1]),
    its rows visited in a random order and its matrices listed shuffled."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    mats = []
    for i, j in [(p, p) for p in range(n)] + list(zip(perm[:-1], perm[1:])):
        a = np.zeros((n, n))
        a[i, j] = a[j, i] = 1.0
        mats.append(a)
    return load_custom_basis([mats[i] for i in rng.permutation(len(mats))])


@pytest.mark.parametrize("k,n", [(1, 50), (2, 25), (3, 17)])
def test_sweep_matches_dense_svd_on_symmetric_tridiagonal(k, n):
    basis = build_basis("symmetric_tridiagonal", n)
    for m in (-(-k * basis.r // n), 2 * k + 3):
        system = assemble(random_real_form(n, m, seed=300 + 10 * k + m), basis, k, allow_overdetermined=True)
        assert system.plan is not None
        family = analyze(system)
        assert certified(family) and family.unique
        assert_matches_dense_oracle(system, family)


def test_sweep_matches_dense_svd_on_consistent_chain_data():
    basis = build_basis("symmetric_tridiagonal", 30)
    for seed in (1, 2):
        gen, ep = spring_chain_data(basis, 6, seed)
        system = assemble(ep, basis, 2)
        family = analyze(system)
        assert certified(family) and family.consistent and family.unique
        assert_matches_dense_oracle(system, family)
        x = np.concatenate([c.coords for c in gen.coefficients[::-1]])
        assert np.linalg.norm(family.x0 - x) <= 1e-8 * np.linalg.norm(x)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_sweep_follows_a_custom_chain_in_shuffled_order(k):
    n = 50 if k == 1 else 30
    basis = shuffled_chain_basis(n, seed=17 + k)
    for m in (-(-k * basis.r // n), 2 * k + 2):
        system = assemble(random_real_form(n, m, seed=400 + 10 * k + m), basis, k, allow_overdetermined=True)
        steps = system.plan[0]
        # the breadth-first order finds the chain: a step holds at most the
        # three coordinates of its row, times k
        assert max(front.size for _, front, *_ in steps) == 3 * k
        family = analyze(system)
        assert certified(family)
        assert_matches_dense_oracle(system, family)


@pytest.mark.parametrize("scale", [1e-11, 1e-17])
def test_refused_sweep_is_the_block_svd_bit_for_bit(scale, monkeypatch):
    # one row of X far below the others: at 1e-11 U keeps full rank but no
    # clear gap, at 1e-17 it loses rank; the certificate refuses both
    n, k, m = 40, 2, 6
    ep = random_real_form(n, m, seed=500)
    X = ep.X.copy()
    X[17] *= scale
    system = assemble(replace(ep, X=X), build_basis("symmetric_tridiagonal", n), k)
    assert system.plan is not None
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or svd(*a, **kw))
    family = analyze(system)
    assert len(calls) == 1 and not certified(family)
    monkeypatch.undo()
    # one block holding every row and column in order: U_j is U itself
    rank, x0, _, _ = dense_oracle(system)
    assert np.array_equal(family.x0, x0)
    assert family.rank == rank and family.unique == (rank == k * (2 * n - 1))
    gap = np.linalg.norm(system.U @ x0 - system.b)
    assert family.consistent == (gap <= 1e-8 * max(1.0, np.linalg.norm(system.b)))
    assert (family.rank == k * (2 * n - 1)) == (scale == 1e-11)


def test_certified_band_solve_takes_no_svd_and_keeps_no_square_factor(monkeypatch):
    # the band workload's size: n = 120, k = 2, m = 10, U is 1200 x 478
    basis = build_basis("symmetric_tridiagonal", 120)
    _, ep = spring_chain_data(basis, 10, seed=3)
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or svd(*a, **kw))
    _, family = solve(ep, basis, 2)
    y = np.random.default_rng(5).standard_normal(478)
    member, again = solve(ep, basis, 2, y=y)
    assert calls == [] and certified(family) and family.unique and family.consistent
    # x0 and the column indices are the largest arrays the family keeps
    held = [v for v in vars(family).values() if isinstance(v, np.ndarray)]
    held += [a for pair in family.factors for a in pair if a is not None]
    assert max(a.size for a in held) == 478
    assert np.array_equal(family.project(y), np.zeros(478))
    assert np.array_equal(family.project(np.ones((478, 3))), np.zeros((478, 3)))
    assert np.array_equal(again.x0, family.x0)
    x = np.concatenate([c.coords for c in member.coefficients[::-1]])
    assert np.array_equal(x, family.x0)


@pytest.mark.parametrize("kind,n", [("symmetric", 24), ("skew_symmetric", 24), ("hankel", 50), ("toeplitz", 50)])
def test_wide_fronts_stay_with_the_svd(kind, n):
    # tall and wide enough for the sweep, but a row of A meets n of the
    # coordinates (n - 1 for skew_symmetric), and every anti-diagonal or
    # diagonal meets many rows: the fronts hold half the columns or more
    basis = build_basis(kind, n)
    for k in (1, 2):
        m = -(-k * basis.r // n) + 1
        system = assemble(random_real_form(n, m, seed=600 + k), basis, k, allow_overdetermined=True)
        assert system.blocks[0][2].shape[1] >= 96 and system.plan is None
        assert np.array_equal(analyze(system).x0, dense_oracle(system)[1])


def test_small_and_shared_blocks_build_no_plan():
    # the sizes of the roundtrip cycle's chain and of the dense workload
    cases = [("symmetric_tridiagonal", 8, 2, 8), ("hankel", 3, 4, 8), ("full", 24, 2, 40), ("tridiagonal", 40, 2, 10)]
    for kind, n, k, m in cases:
        basis = build_basis(kind, n)
        system = assemble(random_real_form(n, m, seed=700), basis, k)
        assert system.plan is None and basis.plans == {}


@pytest.mark.parametrize("kind,n,m", [("tridiagonal", 2000, 20), ("pentadiagonal", 500, 100)])
def test_assemble_peak_stays_within_three_times_the_blocks(kind, n, m):
    # one coefficient block is scattered at a time, so the index and value
    # arrays of the scatter are (triplets, m), not (k, triplets, m)
    ep = random_real_form(n, m, seed=800)
    basis = build_basis(kind, n)
    basis.blocks  # built with the basis, not by assemble
    tracemalloc.start()
    try:
        system = assemble(ep, basis, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(Uj.nbytes for _, _, Uj in system.blocks)
    assert peak <= 3 * held, f"peak {peak / 2**20:.2f} MiB for {held / 2**20:.2f} MiB of blocks"


def test_example3_keeps_its_svd_ranks():
    # criterion 3's order-50 chain: the certificate refuses every tall
    # selection (no clear gap), so the ranks the README documents come from
    # the same block SVD as before
    basis = build_basis("symmetric_tridiagonal", 50)
    for m, expected in ((2, 47), (4, 86), (6, 190), (10, 198)):
        system = assemble(encode(fixtures.example3_eigenpairs(m), 50), basis, 2)
        assert (system.plan is not None) == (m >= 4)
        family = analyze(system)
        assert family.rank == expected and not certified(family)
        assert np.array_equal(family.x0, dense_oracle(system)[1])


def test_sweep_certificate_follows_a_user_rank_factor():
    basis = build_basis("symmetric_tridiagonal", 30)
    _, ep = spring_chain_data(basis, 6, seed=4)
    system = assemble(ep, basis, 2)
    sigma = np.linalg.svd(system.U, compute_uv=False)
    ratio = sigma[-1] / sigma[0]
    # a factor above sigma_min / sigma_max makes the SVD drop columns, so
    # the certificate must refuse and leave the block SVD's answer
    tol = ToleranceConfig(rank_cutoff_factor=10 * ratio)
    family = analyze(system, tol)
    rank, x0, _, _ = dense_oracle(system, tol)
    assert not certified(family) and family.rank == rank < system.U.shape[1]
    assert np.array_equal(family.x0, x0)
    # one far below it leaves a clear gap
    tol = ToleranceConfig(rank_cutoff_factor=1e-6 * ratio)
    family = analyze(system, tol)
    assert certified(family)
    assert_matches_dense_oracle(system, family, tol)
