"""Real-form eigendata: encoding and validation."""

import numpy as np
import pytest

from conftest import evaluate, reference_eigendata, reference_json
from eigenpoly import fixtures
from eigenpoly.eigendata import Eigenpair, RealEigenpairs, encode
from eigenpoly.structures import build_basis, realize
from eigenpoly.verify import random_polynomial


def test_encode_reference_problem_one_reproduces_real_form():
    ep = encode(fixtures.example1_eigenpairs(), 3)
    pair, real = reference_json("example1_eigendata.json")["eigenpairs"]
    a, b, c = pair["lambda"]["re"], pair["lambda"]["im"], real["lambda"]["re"]
    ref = RealEigenpairs(
        n=3,
        m=3,
        t=1,
        X=np.column_stack([pair["vector"]["re"], pair["vector"]["im"], real["vector"]["re"]]),
        E=np.array([[a, b, 0.0], [-b, a, 0.0], [0.0, 0.0, c]]),
    )
    np.testing.assert_array_equal(ep.X, ref.X)
    np.testing.assert_array_equal(ep.E, ref.E)
    assert (ep.n, ep.m, ep.t) == (3, 3, 1)


def test_encode_reference_problem_one_spot_values():
    ep = encode(fixtures.example1_eigenpairs(), 3)
    # one conjugate pair block followed by one real eigenvalue
    np.testing.assert_array_equal(
        ep.E,
        [[-1.3064, 0.5436, 0.0], [-0.5436, -1.3064, 0.0], [0.0, 0.0, -0.2582]],
    )
    np.testing.assert_array_equal(ep.X[0], [-0.0406, -0.4699, 0.4231])


def test_encode_reference_problem_two_spot_values():
    ep = encode(fixtures.example2_eigenpairs(), 4)
    assert (ep.n, ep.m, ep.t) == (4, 2, 1)
    np.testing.assert_array_equal(ep.E, [[0.595, 9.5092], [-9.5092, 0.595]])
    np.testing.assert_array_equal(ep.X[:, 0], [-0.2164, -0.5435, -0.3518, -0.1845])
    np.testing.assert_array_equal(ep.X[:, 1], [-0.6066, -0.0169, 0.2746, 0.2374])


def test_encode_single_real_pair():
    ep = encode([Eigenpair(2.0 + 0j, np.array([1.0, 0.0, 0.0]))], 3)
    assert (ep.m, ep.t) == (1, 0)
    np.testing.assert_array_equal(ep.E, [[2.0]])
    np.testing.assert_array_equal(ep.X, [[1.0], [0.0], [0.0]])


def test_complex_pairs_are_listed_before_real_pairs():
    pairs = [
        Eigenpair(-1.5 + 0j, np.array([1.0, 1.0])),
        Eigenpair(0.25 + 2.0j, np.array([1.0 + 1.0j, 0.5 - 0.25j])),
    ]
    ep = encode(pairs, 2)
    assert ep.t == 1
    np.testing.assert_allclose(ep.E[0:2, 0:2], [[0.25, 2.0], [-2.0, 0.25]])
    np.testing.assert_allclose(ep.E[2, 2], -1.5)


def test_encode_layout_mixed_spectrum():
    rng = np.random.default_rng(3)
    pairs = [
        Eigenpair(1.0 + 2.0j, rng.standard_normal(4) + 1j * rng.standard_normal(4)),
        Eigenpair(-0.5 + 0.75j, rng.standard_normal(4) + 1j * rng.standard_normal(4)),
        Eigenpair(3.25 + 0j, rng.standard_normal(4) + 0j),
        Eigenpair(3.25 + 0j, rng.standard_normal(4) + 0j),  # repeated real value is fine
    ]
    ep = encode(pairs, 4)
    assert (ep.n, ep.m, ep.t) == (4, 6, 2)
    E = np.zeros((6, 6))
    for j, p in enumerate(pairs[:2]):
        a, b = p.eigenvalue.real, p.eigenvalue.imag
        E[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = [[a, b], [-b, a]]
    E[4, 4] = E[5, 5] = 3.25
    np.testing.assert_array_equal(ep.E, E)
    X = [pairs[0].vector.real, pairs[0].vector.imag, pairs[1].vector.real, pairs[1].vector.imag]
    np.testing.assert_array_equal(ep.X, np.column_stack(X + [pairs[2].vector.real, pairs[3].vector.real]))


def test_conjugate_member_encodings_are_sign_equivalent():
    # either member of a conjugate pair describes the same real relation,
    # with the imaginary column negated
    z = np.array([1.0 - 2.0j, 0.5 + 0.5j])
    lo = encode([Eigenpair(1.0 - 3.0j, z)], 2)
    hi = encode([Eigenpair(1.0 + 3.0j, z.conjugate())], 2)
    flip = np.diag([1.0, -1.0])
    np.testing.assert_allclose(hi.X, lo.X @ flip, atol=1e-15)
    np.testing.assert_allclose(hi.E, flip @ lo.E @ flip, atol=1e-15)


def test_encode_rejects_zero_vector():
    with pytest.raises(ValueError, match="nonzero"):
        encode([Eigenpair(1.0 + 0j, np.zeros(3))], 3)


def test_encode_rejects_real_eigenvalue_with_complex_vector():
    with pytest.raises(ValueError, match="real eigenvalue with complex eigenvector"):
        encode([Eigenpair(1.0 + 0j, np.array([1.0 + 1.0j, 0.0]))], 2)


def test_encode_rejects_conjugate_duplicates():
    z = np.array([1.0 + 1.0j, 2.0 - 0.5j])
    pairs = [Eigenpair(0.5 + 2.0j, z), Eigenpair(0.5 - 2.0j, z.conjugate())]
    with pytest.raises(ValueError, match="conjugates of each other"):
        encode(pairs, 2)


def test_encode_rejects_wrong_vector_length():
    with pytest.raises(ValueError, match="length 2, expected 3"):
        encode([Eigenpair(1.0 + 0j, np.array([1.0, 2.0]))], 3)


def test_eigenpair_rejects_bad_vectors_eagerly():
    with pytest.raises(ValueError, match="one-dimensional"):
        Eigenpair(1.0 + 0j, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="nonzero"):
        Eigenpair(1.0 + 0j, np.zeros(2))
    with pytest.raises(ValueError, match="non-finite"):
        Eigenpair(1.0 + 0j, np.array([1.0, np.nan]))
    with pytest.raises(ValueError, match="non-finite"):
        Eigenpair(complex(np.inf, 0.0), np.ones(2))


def test_constructor_validates_block_structure():
    X = np.eye(2)
    good = RealEigenpairs(n=2, m=2, t=1, X=X, E=np.array([[1.0, 2.0], [-2.0, 1.0]]))
    assert good.t == 1
    with pytest.raises(ValueError, match=r"\[\[a, b\], \[-b, a\]\]"):
        RealEigenpairs(n=2, m=2, t=1, X=X, E=np.array([[1.0, 2.0], [-2.0, 5.0]]))
    with pytest.raises(ValueError, match="outside its diagonal blocks"):
        RealEigenpairs(
            n=3, m=3, t=1, X=np.eye(3), E=np.array([[1.0, 2.0, 0.0], [-2.0, 1.0, 0.0], [0.5, 0.0, 3.0]])
        )
    with pytest.raises(ValueError, match="finite entries"):
        RealEigenpairs(n=2, m=2, t=0, X=X, E=np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match=r"X must be 3x2, got shape \(3, 3\)"):
        RealEigenpairs(n=3, m=2, t=0, X=np.eye(3), E=np.eye(2))


def test_arrays_are_frozen():
    ep = reference_eigendata("example1")
    with pytest.raises(ValueError):
        ep.X[0, 0] = 99.0
    with pytest.raises(ValueError):
        ep.E[0, 0] = 99.0


def test_complex_pair_columns_split_polynomial_action():
    """The two real columns of a conjugate-pair block carry Re and Im of P(lam) z.

    Checked on data that is deliberately not an eigenpair so both sides are
    far from zero.
    """
    basis = build_basis("full", 3)
    rng = np.random.default_rng(17)
    k = 3
    poly = random_polynomial(basis, k, rng)
    lam = 0.7 - 1.9j
    z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    ep = encode([Eigenpair(lam, z)], 3)

    powers = [np.eye(2)]
    for _ in range(k):
        powers.append(powers[-1] @ ep.E)
    relation = ep.X @ powers[k]
    for i, coeff in enumerate(poly.dense_coefficients()):
        relation = relation + coeff @ ep.X @ powers[i]

    action = evaluate(poly, lam) @ z  # complex n-vector
    np.testing.assert_allclose(relation[:, 0], action.real, atol=1e-12)
    np.testing.assert_allclose(relation[:, 1], action.imag, atol=1e-12)


def test_real_pair_column_is_polynomial_action():
    basis = build_basis("symmetric", 3)
    rng = np.random.default_rng(23)
    poly = random_polynomial(basis, 2, rng)
    lam, z = -1.25, rng.standard_normal(3)
    ep = encode([Eigenpair(complex(lam), z + 0j)], 3)
    relation = ep.X @ ep.E @ ep.E
    for i, coeff in enumerate(poly.dense_coefficients()):
        relation = relation + coeff @ ep.X @ np.linalg.matrix_power(ep.E, i)
    np.testing.assert_allclose(relation[:, 0], evaluate(poly, lam) @ z, atol=1e-12)


def test_realize_helper_consistency():
    # encode/realize agree on which dense matrix a coordinate vector means
    basis = build_basis("diagonal", 2)
    m = realize(basis, np.array([2.0, 5.0]))
    np.testing.assert_array_equal(m.dense, [[2.0, 0.0], [0.0, 5.0]])
