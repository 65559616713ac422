"""Structure bases: patterns, dimensions, round trips, membership."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MIN_ORDER, assert_matches_dense_oracle, pattern, random_real_form, row_basis
from eigenpoly.solver import analyze, assemble
from eigenpoly.structures import (
    BUILTIN_KINDS,
    StructureBasis,
    StructureMembershipError,
    build_basis,
    builtin_dimension,
    coords_of,
    load_custom_basis,
    realize,
)

DIMENSION_FORMULAS = {
    "symmetric": lambda n: n * (n + 1) // 2,
    "skew_symmetric": lambda n: n * (n - 1) // 2,
    "tridiagonal": lambda n: 3 * n - 2,
    "symmetric_tridiagonal": lambda n: 2 * n - 1,
    "pentadiagonal": lambda n: 5 * n - 6,
    "hankel": lambda n: 2 * n - 1,
    "toeplitz": lambda n: 2 * n - 1,
    "diagonal": lambda n: n,
    "full": lambda n: n * n,
}


def dense_basis(kind, n):
    """The basis matrices S_1, ..., S_r of a built-in kind, one dense matrix each."""

    def entries(*ijs, signs=None):
        m = np.zeros((n, n))
        for t, (i, j) in enumerate(ijs):
            m[i, j] = 1.0 if signs is None else signs[t]
        return m

    def band(offsets):
        return [entries((i, i + d)) for d in offsets for i in range(max(0, -d), n - max(0, d))]

    if kind == "symmetric":
        return [entries((i, j), (j, i)) for j in range(n) for i in range(j + 1)]
    if kind == "skew_symmetric":
        return [entries((i, j), (j, i), signs=(1, -1)) for i in range(n) for j in range(i + 1, n)]
    if kind == "symmetric_tridiagonal":
        return band((0,)) + [entries((i, i + 1), (i + 1, i)) for i in range(n - 1)]
    if kind == "hankel":
        return [entries(*[(i, s - i) for i in range(n) if 0 <= s - i < n]) for s in range(2 * n - 1)]
    if kind == "toeplitz":
        return [entries(*[(i, i + d) for i in range(n) if 0 <= i + d < n]) for d in range(1 - n, n)]
    if kind == "full":
        return [entries((i, j)) for j in range(n) for i in range(n)]
    offsets = {"tridiagonal": (0, 1, -1), "pentadiagonal": (0, 1, -1, 2, -2), "diagonal": (0,)}
    return band(offsets[kind])


SAMPLE = np.array([[4.0, 2.0, 8.0], [2.0, 7.0, 9.0], [8.0, 9.0, 5.0]])


def test_symmetric_pattern_matrix_frozen():
    # upper triangle walked column by column: (1,1),(1,2),(2,2),(1,3),(2,3),(3,3)
    expected = np.array(
        [
            [1, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [0, 0, 0, 1, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, 1, 0],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 1],
        ],
        dtype=float,
    )
    basis = build_basis("symmetric", 3)
    np.testing.assert_array_equal(pattern(basis), expected)


def test_symmetric_coordinates_of_sample():
    basis = build_basis("symmetric", 3)
    np.testing.assert_allclose(coords_of(basis, SAMPLE), [4, 2, 7, 8, 9, 5], atol=1e-13)


def test_row_major_custom_ordering_changes_coordinates():
    # same subspace, basis listed row by row: (1,1),(1,2),(1,3),(2,2),(2,3),(3,3)
    def sym(i, j):
        m = np.zeros((3, 3))
        m[i, j] = m[j, i] = 1.0
        return m

    order = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    basis = load_custom_basis([sym(i, j) for i, j in order])
    np.testing.assert_allclose(coords_of(basis, SAMPLE), [4, 2, 8, 7, 9, 5], atol=1e-13)


@pytest.mark.parametrize("kind", sorted(BUILTIN_KINDS))
def test_dimension_table(kind):
    formula = DIMENSION_FORMULAS[kind]
    for n in range(MIN_ORDER[kind], 13):
        r = builtin_dimension(kind, n)
        assert r == formula(n)
        basis = build_basis(kind, n)
        assert basis.r == r
        assert np.unique(basis.index).tolist() == list(range(r))


@pytest.mark.parametrize("kind", sorted(BUILTIN_KINDS))
def test_triplet_pattern_matches_dense_basis(kind):
    for n in range(MIN_ORDER[kind], 7):
        basis = build_basis(kind, n)
        expected = np.column_stack([m.reshape(-1, order="F") for m in dense_basis(kind, n)])
        np.testing.assert_array_equal(pattern(basis), expected)
        positions = set(zip(basis.rows, basis.cols, basis.index))
        assert len(positions) == basis.rows.size  # no position listed twice
        for a in (basis.rows, basis.cols, basis.index, basis.values):
            assert not a.flags.writeable


def test_custom_basis_triplets_are_its_nonzeros():
    rng = np.random.default_rng(3)
    mats = [rng.standard_normal((3, 3)) * (rng.uniform(size=(3, 3)) < 0.6) for _ in range(4)]
    basis = load_custom_basis(mats)
    assert basis.rows.size == sum(np.count_nonzero(m) for m in mats)
    np.testing.assert_array_equal(pattern(basis), np.column_stack([m.reshape(-1, order="F") for m in mats]))
    coords = rng.standard_normal(4)
    expected = sum(c * m for c, m in zip(coords, mats))
    np.testing.assert_allclose(realize(basis, coords).dense, expected, rtol=1e-14, atol=1e-14)


def test_load_custom_basis_rejects_non_finite():
    with pytest.raises(ValueError, match="basis matrix 1 has non-finite entries"):
        load_custom_basis([np.eye(2), np.array([[0.0, np.inf], [0.0, 0.0]])])


@pytest.mark.parametrize("kind", sorted(BUILTIN_KINDS))
def test_pattern_columns_are_orthogonal(kind):
    basis = build_basis(kind, max(MIN_ORDER[kind], 4))
    gram = pattern(basis).T @ pattern(basis)
    off = gram - np.diag(np.diag(gram))
    assert np.all(np.diag(gram) > 0)
    np.testing.assert_array_equal(off, np.zeros_like(off))


ROW_SEPARABLE = ("full", "diagonal", "tridiagonal", "pentadiagonal")


@pytest.mark.parametrize(
    "n, kind", [(n, kind) for n in (1, 2, 3, 5, 6) for kind in sorted(BUILTIN_KINDS) if n >= MIN_ORDER[kind]]
)
def test_blocks_count_and_partition(n, kind):
    basis = build_basis(kind, n)
    blocks = basis.blocks
    # row-separable kinds split by row of A, every other kind couples all
    # rows; the n rows of full are copies of one block
    copies = [len(P) for P, _ in blocks]
    assert copies == ([n] if kind == "full" else [1] * (n if kind in ROW_SEPARABLE else 1))
    rows = np.concatenate([P.ravel() for P, _ in blocks])
    coords = np.concatenate([C.ravel() for _, C in blocks])
    np.testing.assert_array_equal(np.sort(rows), np.arange(n))
    np.testing.assert_array_equal(np.sort(coords), np.arange(basis.r))
    # every triplet links a row and a coordinate of the same copy
    owner = np.empty(n, int)
    for j, (P, C) in enumerate(blocks):
        assert P.ndim == C.ndim == 2 and len(C) == len(P)
        assert not P.flags.writeable and not C.flags.writeable
        for i, (Pi, Ci) in enumerate(zip(P, C)):
            owner[Pi] = j * n + i
            assert np.all(np.diff(Pi) > 0) and np.all(np.diff(Ci) > 0)
            np.testing.assert_array_equal(owner[basis.rows[np.isin(basis.index, Ci)]], j * n + i)
    assert basis.blocks is blocks  # built once per basis


def assert_one_block_solve_matches_dense_svd(basis, seed):
    for k, m in ((1, 2), (2, basis.n)):
        system = assemble(random_real_form(basis.n, m, seed + k), basis, k)
        assert len(system.blocks) == 1
        assert_matches_dense_oracle(system, analyze(system))


def test_blocks_of_custom_basis_with_two_row_groups():
    def at(*entries):
        m = np.zeros((4, 4))
        for i, j in entries:
            m[i, j] = 1.0
        return m

    # coordinates 0 and 2 couple rows 0 and 2, coordinates 1 and 3 rows 1
    # and 3: not every S_l lies in one row, so all of them form one block
    basis = load_custom_basis([at((0, 1), (2, 3)), at((1, 0)), at((2, 2)), at((3, 1), (1, 2))])
    got = [(P.ravel().tolist(), C.ravel().tolist()) for P, C in basis.blocks]
    assert got == [([0, 1, 2, 3], [0, 1, 2, 3])]
    assert_one_block_solve_matches_dense_svd(basis, seed=180)


def test_blocks_leave_out_untouched_rows():
    # row 1 of A is zero in every basis matrix
    mats = [np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 0.0, 1.0]), np.array([[0, 0, 1.0], [0, 0, 0], [0, 0, 0]])]
    basis = load_custom_basis(mats)
    got = [(P.ravel().tolist(), C.ravel().tolist()) for P, C in basis.blocks]
    assert got == [([0], [0, 2]), ([2], [1])]


def test_blocks_follow_a_chain_in_any_order():
    # coordinate l links rows perm[l] and perm[l + 1]: one chain through all
    # rows, visited in a random order; cut in two, it is still one block
    n = 12
    perm = np.random.default_rng(13).permutation(n)

    def link(i, j):
        m = np.zeros((n, n))
        m[i, j] = m[j, i] = 1.0
        return m

    mats = [link(perm[l], perm[l + 1]) for l in range(n - 1)]
    assert [C.size for _, C in load_custom_basis(mats).blocks] == [n - 1]
    cut = load_custom_basis(mats[:4] + mats[5:])
    got = [(P.ravel().tolist(), C.ravel().tolist()) for P, C in cut.blocks]
    assert got == [(list(range(n)), list(range(n - 2)))]
    assert_one_block_solve_matches_dense_svd(cut, seed=200)


def assert_row_basis_solve_matches_dense_svd(basis, seed):
    for k in (1, 2, 3):
        for m in (2, basis.n, 2 * basis.n):
            system = assemble(random_real_form(basis.n, m, seed + 10 * k + m), basis, k, allow_overdetermined=True)
            assert_matches_dense_oracle(system, analyze(system))


def test_custom_basis_with_equal_rows_shares_one_block():
    # every row of A carries the same two vectors, in the same order
    v = [np.array([1.0, 2.0, 0.0, -1.0]), np.array([0.0, 1.0, 3.0, 0.0])]
    basis = row_basis([v] * 4)
    [(P, C)] = basis.blocks
    np.testing.assert_array_equal(P, [[0], [1], [2], [3]])
    np.testing.assert_array_equal(C, [[0, 4], [1, 5], [2, 6], [3, 7]])
    assert_row_basis_solve_matches_dense_svd(basis, seed=300)


@pytest.mark.parametrize(
    "last",
    [
        [np.array([1.0, 2.0, 0.0, -1.0]), np.array([0.0, 1.0, 3.0, 0.5])],  # another value
        [np.array([1.0, 2.0, 0.0, -1.0]), np.array([0.0, 1.0, 0.0, 3.0])],  # another column
        [np.array([0.0, 1.0, 3.0, 0.0]), np.array([1.0, 2.0, 0.0, -1.0])],  # another place
        [np.array([1.0, 2.0, 0.0, -1.0])],  # another size
    ],
)
def test_custom_basis_with_unequal_rows_keeps_one_copy_per_row(last):
    v = [np.array([1.0, 2.0, 0.0, -1.0]), np.array([0.0, 1.0, 3.0, 0.0])]
    basis = row_basis([v, v, v, last])
    assert [P.ravel().tolist() for P, _ in basis.blocks] == [[0], [1], [2], [3]]
    assert [C.shape for _, C in basis.blocks] == [(1, 2)] * 3 + [(1, len(last))]
    assert_row_basis_solve_matches_dense_svd(basis, seed=400)


@pytest.mark.parametrize("kind", sorted(BUILTIN_KINDS))
def test_builtin_coords_match_least_squares(kind):
    basis = build_basis(kind, max(MIN_ORDER[kind], 5))
    a = realize(basis, np.random.default_rng(12).uniform(-3, 3, basis.r)).dense
    expected = np.linalg.lstsq(pattern(basis), a.reshape(-1, order="F"), rcond=None)[0]
    np.testing.assert_allclose(coords_of(basis, a), expected, rtol=0, atol=1e-14 * np.abs(expected).max())


@pytest.mark.parametrize("kind", sorted(BUILTIN_KINDS))
def test_realize_coords_round_trip(kind):
    n = max(MIN_ORDER[kind], 5)
    basis = build_basis(kind, n)
    rng = np.random.default_rng(11)
    coords = rng.uniform(-3, 3, basis.r)
    mat = realize(basis, coords)
    np.testing.assert_allclose(mat.coords, coords, rtol=1e-12, atol=0)
    back = coords_of(basis, mat.dense)
    np.testing.assert_allclose(back, coords, rtol=1e-12, atol=1e-14)
    # vec identity: stacking the matrix equals the pattern acting on coords
    np.testing.assert_allclose(mat.dense.reshape(-1, order="F"), pattern(basis) @ coords, atol=1e-14)


def test_identity_coordinates_in_symmetric_basis():
    basis = build_basis("symmetric", 3)
    coords = coords_of(basis, np.eye(3))
    np.testing.assert_allclose(coords, [1, 0, 1, 0, 0, 1], atol=1e-13)


def test_toeplitz_realization_has_constant_diagonals():
    basis = build_basis("toeplitz", 4)
    coords = np.arange(1.0, basis.r + 1)
    a = realize(basis, coords).dense
    for offset in range(-3, 4):
        diag = np.diagonal(a, offset)
        assert np.all(diag == diag[0])


def test_hankel_realization_has_constant_antidiagonals():
    basis = build_basis("hankel", 4)
    a = realize(basis, np.arange(1.0, basis.r + 1)).dense
    flipped = np.fliplr(a)
    for offset in range(-3, 4):
        diag = np.diagonal(flipped, offset)
        assert np.all(diag == diag[0])


def test_tridiagonal_zero_pattern():
    basis = build_basis("tridiagonal", 5)
    a = realize(basis, np.arange(1.0, basis.r + 1)).dense
    i, j = np.indices(a.shape)
    assert np.all(a[np.abs(i - j) > 1] == 0)
    assert np.all(a[np.abs(i - j) <= 1] != 0)


def test_pentadiagonal_zero_pattern():
    basis = build_basis("pentadiagonal", 6)
    a = realize(basis, np.arange(1.0, basis.r + 1)).dense
    i, j = np.indices(a.shape)
    assert np.all(a[np.abs(i - j) > 2] == 0)
    assert np.all(a[np.abs(i - j) <= 2] != 0)


def test_skew_symmetric_realization_is_skew():
    basis = build_basis("skew_symmetric", 4)
    a = realize(basis, np.arange(1.0, basis.r + 1)).dense
    np.testing.assert_array_equal(a.T, -a)
    assert np.any(a != 0)


def test_membership_rejects_matrix_outside_subspace():
    basis = build_basis("symmetric", 2)
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(StructureMembershipError, match="not symmetric"):
        coords_of(basis, skew)


def test_membership_rejects_wrong_shape():
    basis = build_basis("symmetric", 2)
    with pytest.raises(ValueError, match="expected a 2x2 matrix"):
        coords_of(basis, np.zeros((3, 3)))


def test_build_basis_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown structure kind"):
        build_basis("circulant", 4)
    with pytest.raises(ValueError, match="unknown structure kind"):
        builtin_dimension("circulant", 4)


def test_build_basis_rejects_orders_below_minimum():
    with pytest.raises(ValueError, match="needs n >= 2"):
        build_basis("skew_symmetric", 1)
    with pytest.raises(ValueError, match="needs n >= 3"):
        build_basis("pentadiagonal", 2)


@pytest.mark.parametrize("kind,n,least", [("pentadiagonal", 1, 3), ("pentadiagonal", 2, 3), ("skew_symmetric", 1, 2)])
def test_builtin_dimension_rejects_orders_below_minimum(kind, n, least):
    with pytest.raises(ValueError, match=f"needs n >= {least}"):
        builtin_dimension(kind, n)


def test_build_basis_rejects_custom_tag():
    with pytest.raises(ValueError, match="load_custom_basis"):
        build_basis("custom", 3)


def test_load_custom_basis_rejects_dependent_matrices():
    s1 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(ValueError, match="linearly dependent"):
        load_custom_basis([s1, 2 * s1])


def test_load_custom_basis_rejects_empty_and_misshapen():
    with pytest.raises(ValueError, match="at least one matrix"):
        load_custom_basis([])
    with pytest.raises(ValueError, match="not 2x2"):
        load_custom_basis([np.eye(2), np.eye(3)])
    with pytest.raises(ValueError):
        load_custom_basis([np.zeros((2, 3))])


@pytest.mark.parametrize(
    "mats, idx, shape",
    [
        ([np.ones(3)], 0, (3,)),
        ([np.float64(1.0)], 0, ()),
        ([np.zeros((2, 3))], 0, (2, 3)),
        ([np.eye(2), np.zeros((2, 2, 2))], 1, (2, 2, 2)),
        ([np.zeros((0, 0))], 0, (0, 0)),
    ],
)
def test_load_custom_basis_names_the_square_matrix_requirement(mats, idx, shape):
    message = f"basis matrix {idx} is not a nonempty square 2-D matrix, got shape {shape}"
    with pytest.raises(ValueError) as err:
        load_custom_basis(mats)
    assert str(err.value) == message


def random_custom_bases(count=600):
    """Seeded sparse custom bases at n = 1..5, every third one nearly
    dependent: its last matrix is a combination of the others plus noise
    of size 1e-8 to 1e-16.  Masked negative draws leave -0.0 entries."""
    for seed in range(count):
        rng = np.random.default_rng(seed)
        n = 1 + seed % 5
        r = int(rng.integers(1, n * n + 1))
        mats = [rng.standard_normal((n, n)) * (rng.uniform(size=(n, n)) < 0.6) for _ in range(r)]
        near = seed % 3 == 0 and r >= 2
        if near:
            noise = 10.0 ** -float(rng.integers(8, 17)) * rng.standard_normal((n, n))
            mats[-1] = sum(c * m for c, m in zip(rng.standard_normal(r - 1), mats[:-1])) + noise
        yield rng, near, mats


def oracle_rank(mats):
    """The triplets of the matrices and the rank of their pattern matrix,
    under the cutoff eps * max(n^2, r) * sigma_max."""
    stack = np.stack(mats)
    index, rows, cols = np.nonzero(stack)
    basis = StructureBasis("custom", stack.shape[1], len(mats), rows, cols, index, stack[index, rows, cols])
    P = pattern(basis)
    sv = np.linalg.svd(P, compute_uv=False)
    return basis, int(np.count_nonzero(sv > np.finfo(float).eps * max(P.shape) * sv[0]))


def test_custom_basis_verdicts_and_coordinates_match_the_pattern_oracle():
    verdicts = set()
    for rng, near, mats in random_custom_bases():
        expected, rank = oracle_rank(mats)
        verdicts.add((near, rank == len(mats)))
        if rank < len(mats):
            with pytest.raises(ValueError) as err:
                load_custom_basis(mats)
            assert str(err.value) == f"custom basis matrices are linearly dependent, rank {rank} < {len(mats)}"
            continue
        basis = load_custom_basis(mats)
        for name in ("rows", "cols", "index", "values"):
            assert getattr(basis, name).tobytes() == getattr(expected, name).tobytes()
        member = realize(basis, rng.uniform(-3, 3, basis.r)).dense
        for a in (member, rng.standard_normal((basis.n, basis.n))):
            coords = np.linalg.lstsq(pattern(basis), a.reshape(-1, order="F"), rcond=None)[0]
            if np.linalg.norm(realize(basis, coords).dense - a) > 1e-10 * max(1.0, np.linalg.norm(a)):
                with pytest.raises(StructureMembershipError):
                    coords_of(basis, a)
            else:
                assert coords_of(basis, a).tobytes() == coords.tobytes()
    assert {(False, True), (True, True), (True, False)} <= verdicts


def test_realize_rejects_wrong_length():
    basis = build_basis("diagonal", 3)
    with pytest.raises(ValueError, match="expected 3 coordinates"):
        realize(basis, np.zeros(4))


def test_minimum_orders_build():
    assert build_basis("diagonal", 1).r == 1
    assert build_basis("full", 1).r == 1
    assert build_basis("skew_symmetric", 2).r == 1
    assert build_basis("pentadiagonal", 3).r == 9


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["symmetric", "toeplitz", "skew_symmetric", "full"]),
    seed=st.integers(0, 2**31 - 1),
)
def test_round_trip_property(kind, seed):
    basis = build_basis(kind, 4)
    coords = np.random.default_rng(seed).uniform(-100, 100, basis.r)
    back = coords_of(basis, realize(basis, coords).dense)
    np.testing.assert_allclose(back, coords, rtol=1e-12, atol=1e-10)
