"""Forward verification of constructed polynomials.

The residual report evaluates the defining relation sum A_i X E^i directly,
while companion_eigs computes all eigenpairs of a monic polynomial through
its block companion linearization.  The two give independent routes to the
same facts: solver output can be checked against the relation it was built
from, and eigendata produced here can be fed back into the solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .eigendata import Eigenpair, RealEigenpairs
from .solver import MonicPolynomial
from .structures import build_basis, realize

__all__ = [
    "ResidualReport",
    "choose_eigenpairs",
    "companion_eigs",
    "generate_example3",
    "random_polynomial",
    "residual",
]

_REAL_SNAP_TOL = 1e-10


@dataclass(frozen=True)
class ResidualReport:
    """How far eigendata is from satisfying a polynomial.

    ``fro`` is the Frobenius norm of sum A_i X E^i (with A_k = I), ``relative``
    divides by max(1, ||X E^k||_F), and ``per_pair`` lists one block norm per
    prescribed eigenpair (complex pairs span two columns).
    """

    fro: float
    relative: float
    per_pair: tuple

    def __post_init__(self):
        object.__setattr__(self, "per_pair", tuple(float(v) for v in self.per_pair))


def _dense_coefficients(poly) -> list:
    if isinstance(poly, MonicPolynomial):
        return poly.dense_coefficients()
    coeffs = [np.asarray(c, dtype=float) for c in poly]
    if not coeffs:
        raise ValueError("polynomial needs at least one trailing coefficient")
    n = coeffs[0].shape[0]
    for i, c in enumerate(coeffs):
        if c.ndim != 2 or c.shape != (n, n):
            raise ValueError(f"coefficient {i} is not {n}x{n}, got shape {c.shape}")
    return coeffs


def residual(poly, ep: RealEigenpairs) -> ResidualReport:
    """Evaluate the defining relation of a monic polynomial on eigendata.

    Parameters
    ----------
    poly : MonicPolynomial or sequence of ndarray
        The trailing coefficients A_0, ..., A_{k-1}; the leading coefficient
        is the identity.
    ep : RealEigenpairs

    Returns
    -------
    ResidualReport

    Raises
    ------
    ValueError
        When X E^k or the residual overflows to a non-finite value.
    """
    coeffs = _dense_coefficients(poly)
    k = len(coeffs)
    n = coeffs[0].shape[0]
    if ep.n != n:
        raise ValueError(f"eigendata order n = {ep.n} does not match polynomial order n = {n}")
    power = np.eye(ep.m)
    R = np.zeros((n, ep.m))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(k):
            R += coeffs[i] @ ep.X @ power
            power = power @ ep.E
        lead = ep.X @ power
        R += lead
        fro = float(np.linalg.norm(R, "fro"))
        scale = float(np.linalg.norm(lead, "fro"))
    # a finite ||R||_F bounds the norm of every column block below
    if not (np.isfinite(fro) and np.isfinite(scale)):
        raise ValueError(
            f"the residual sum A_i X E^i overflows for degree k = {k}; largest |E| entry {np.max(np.abs(ep.E)):.3e}"
        )
    blocks = []
    for j in range(ep.t):
        blocks.append(float(np.linalg.norm(R[:, 2 * j : 2 * j + 2], "fro")))
    for col in range(2 * ep.t, ep.m):
        blocks.append(float(np.linalg.norm(R[:, col])))
    relative = fro / max(1.0, scale)
    return ResidualReport(fro=fro, relative=relative, per_pair=tuple(blocks))


def _companion(coeffs: list) -> np.ndarray:
    k = len(coeffs)
    n = coeffs[0].shape[0]
    C = np.zeros((k * n, k * n))
    for j in range(k):
        C[:n, j * n : (j + 1) * n] = -coeffs[k - 1 - j]
    for j in range(k - 1):
        C[(j + 1) * n : (j + 2) * n, j * n : (j + 1) * n] = np.eye(n)
    return C


def _realified(v: np.ndarray) -> np.ndarray:
    # rotate away the common phase, then drop the residual imaginary part
    pivot = v[np.argmax(np.abs(v))]
    return (v * (pivot.conjugate() / abs(pivot))).real


def companion_eigs(poly) -> list:
    """All eigenpairs of a monic polynomial via its block companion matrix.

    The companion matrix has the negated trailing coefficients across its
    first block row and identity blocks on the subdiagonal; its eigenvectors
    stack lambda^{k-1} z down to z.  The polynomial eigenvector is read off
    the leading n-block when |lambda| >= 1 and off the trailing n-block
    otherwise, the block of largest weight, so its relative accuracy does
    not degrade like eps / |lambda|^{k-1}; it is normalized to unit length.

    Eigenvalues with |imag| <= 1e-10 * (1 + |real|) are snapped to the real
    axis.  Conjugate pairs are collapsed to the representative with positive
    imaginary part.  The list is sorted by (real, imag).

    Returns
    -------
    list of Eigenpair
        Real eigenvalues contribute one entry each and complex conjugate
        pairs one entry, so entries weighted by pair size count to k*n.
    """
    coeffs = _dense_coefficients(poly)
    k = len(coeffs)
    n = coeffs[0].shape[0]
    values, vectors = np.linalg.eig(_companion(coeffs))
    snap = np.abs(values.imag) <= _REAL_SNAP_TOL * (1.0 + np.abs(values.real))
    values = np.where(snap, values.real.astype(complex), values)
    out = []
    for idx in range(k * n):
        lam = values[idx]
        if lam.imag < 0.0:
            continue
        w = vectors[:, idx]
        # the block with the largest weight |lambda|^j holds z most accurately
        z = w[:n] if abs(lam) >= 1.0 else w[-n:]
        if lam.imag == 0.0:
            z = _realified(z).astype(complex)
        z = z / np.linalg.norm(z)
        out.append(Eigenpair(complex(lam), z))
    out.sort(key=lambda p: (p.eigenvalue.real, p.eigenvalue.imag))
    return out


def choose_eigenpairs(pairs, m: int, rng: np.random.Generator | None = None) -> list:
    """Pick a subset of eigenpairs filling exactly m columns of eigendata.

    Complex representatives weigh two columns (the conjugate member is
    implied), real ones weigh one.  Candidates are taken greedily in list
    order, or in a seeded random order when ``rng`` is given; candidates
    that would overshoot m are skipped.

    Raises
    ------
    ValueError
        When no subset of the candidates fills m columns exactly.
    """
    order = list(pairs)
    if rng is not None:
        order = [order[i] for i in rng.permutation(len(order))]
    chosen, width = [], 0
    for p in order:
        span = 1 if p.eigenvalue.imag == 0.0 else 2
        if width + span <= m:
            chosen.append(p)
            width += span
        if width == m:
            return chosen
    raise ValueError(f"cannot fill exactly m = {m} columns from the offered eigenpairs")


def random_polynomial(basis, k: int, rng: np.random.Generator) -> MonicPolynomial:
    """Draw a random monic polynomial with coefficients in the given structure.

    Coordinates are sampled uniformly from [-1, 1], so every coefficient
    carries an exact structure certificate.
    """
    coeffs = tuple(realize(basis, rng.uniform(-1.0, 1.0, basis.r)) for _ in range(k))
    return MonicPolynomial(n=basis.n, k=k, coefficients=coeffs)


# Band vectors of the order-50 symmetric tridiagonal reference problem:
# main diagonal and symmetric off-diagonal of A_1, then the same for A_0.

_A1_DIAG = [
    10, 20, 6, 8, 40, 10, 50, 60, 3, 70, 30, 7, 9, 4, 80, 4.2, 6.5, 8.1, 1.2, 6.2,
    2.7, 4.3, 3.2, 2.6, 14, 2.9, 13, 12.4, 4.6, 14.2, 8, 1.9, 2.4, 1.6, 25, 10.84,
    22.3, 42.62, 54.24, 26.24, 1, 4, 0.5, 0.3, 7, 3, 8, 0.9, 5, 0.2,
]

_A1_OFF = [
    2.8, 1.2, 36, 8, 4, 16, 2, 1.2, 28, 12, 32, 3.6, 20, 0.8, 1.8, 0.96, 3.92,
    3.24, 1.04, 6, 0.9, 3, 0.4, 4, 0.2, 2, 0.5, 0.6, 0.8, 0.3, 2, 1, 6, 0.9, 3,
    0.4, 4, 0.2, 2, 5, 2, 1, 0.7, 8, 0.2, 0.6, 7, 0.4, 7,
]

_A0_DIAG = [
    5.6, 2.4, 16, 8, 48, 7.2, 24, 3.2, 32, 1.6, 16, 4, 4.8, 6.4, 72, 80, 168, 328,
    432, 200, 17.6, 26.4, 23.2, 17.6, 96, 19.2, 84, 75.2, 35.6, 85.6, 52, 12.4,
    15.6, 11.2, 168, 85.04, 175.8, 337.72, 433.44, 207.44, 0.4, 4, 0.2, 2, 0.5,
    0.6, 0.8, 9, 10, 21,
]

_A0_OFF = [
    3.2, 3.6, 16, 20, 8, 4, 2.8, 32, 0.8, 2.4, 28, 1.6, 28, 2, 76, 96, 112, 136,
    204, 4, 0.2, 2, 0.5, 0.6, 0.7, 0.3, 2, 1, 6, 8, 16, 4.8, 6.4, 32, 8, 40, 48,
    2.4, 56, 24, 5.6, 7.2, 3.2, 64, 3.36, 5.2, 6.48, 0.96, 4.96,
]


def generate_example3() -> MonicPolynomial:
    """The order-50 quadratic reference problem with symmetric tridiagonal
    coefficients, built from its hard-coded band vectors."""
    basis = build_basis("symmetric_tridiagonal", 50)
    a0 = realize(basis, np.concatenate([_A0_DIAG, _A0_OFF]))
    a1 = realize(basis, np.concatenate([_A1_DIAG, _A1_OFF]))
    return MonicPolynomial(n=50, k=2, coefficients=(a0, a1))
