"""Inverse eigenpair solver for monic structured matrix polynomials.

Given real-form eigendata (X, E) and a structure basis, find coefficients
A_0, ..., A_{k-1} inside the structure subspace so that the monic polynomial

    P(lambda) = lambda^k I + sum_{i<k} lambda^i A_i

has every prescribed eigenpair.  The defining relation

    sum_{i=0..k} A_i X E^i = 0        (A_k = I)

vectorizes to a single linear system U x = b over the stacked coordinate
vectors of the unknown coefficients:

    U = [ ((X E^{k-1})^T kron I) P | ... | (X^T kron I) P ],   b = vec(-X E^k)

``assemble`` forms neither the Kronecker products nor P: each structure
triplet (p, q, l, s) scatters U[p + n*c, blk*r + l] += s * (X E^i)[q, c]
over the columns c, where block blk holds A_i, i = k - 1 - blk.

``analyze`` takes the SVD of U: a solution exists iff U U^+ b = b, and it
is unique iff U has full column rank.  The general solution is
x = U^+ b + (I - V_r^T V_r) y with y free, where the rows of V_r span the
row space of U; ``solve`` applies the projector as y - V_r^T (V_r y).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .eigendata import RealEigenpairs
from .structures import (
    DEFAULT_MEMBERSHIP_TOL,
    StructureBasis,
    StructuredMatrix,
    realize,
)

__all__ = [
    "AssembledSystem",
    "MonicPolynomial",
    "SolutionFamily",
    "ToleranceConfig",
    "analyze",
    "assemble",
    "extract_coefficient",
    "monicize",
    "solve",
]

DEFAULT_CONSISTENCY_TOL = 1e-8
DEFAULT_PD_TOL = 1e-12


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical thresholds used across the solve pipeline.

    ``rank_cutoff_factor`` multiplies the largest singular value of U to give
    the rank cutoff; when None it defaults to eps * max(m*n, k*r), the usual
    dense least-squares convention.  All other fields are relative tolerances.
    """

    rank_cutoff_factor: float | None = None
    consistency_tol: float = DEFAULT_CONSISTENCY_TOL
    membership_tol: float = DEFAULT_MEMBERSHIP_TOL
    pd_tol: float = DEFAULT_PD_TOL

    def __post_init__(self):
        for name in ("rank_cutoff_factor", "consistency_tol", "membership_tol", "pd_tol"):
            value = getattr(self, name)
            if value is None and name == "rank_cutoff_factor":
                continue
            if not value > 0.0:
                raise ValueError(f"tolerance {name} must be strictly positive, got {value}")

    def rank_cutoff(self, rows: int, cols: int) -> float:
        if self.rank_cutoff_factor is not None:
            return self.rank_cutoff_factor
        return float(np.finfo(float).eps) * max(rows, cols)


@dataclass(frozen=True, eq=False)
class AssembledSystem:
    """The linear system U x = b for one inverse problem instance."""

    U: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    k: int = 0
    r: int = 0
    m: int = 0
    n: int = 0


@dataclass(frozen=True, eq=False)
class SolutionFamily:
    """Diagnostics and parameterization of the affine solution set.

    The full solution set, when nonempty, is x0 + nullspace_projector @ y
    over free vectors y of length k*r.  ``row_space`` holds orthonormal
    rows V_r spanning the row space of U, so the projector is
    I - V_r^T V_r.  ``unique`` records whether U has full column rank,
    i.e. whether that family has dimension zero.
    """

    x0: np.ndarray = field(repr=False)
    rank: int
    projector_rank: int
    row_space: np.ndarray = field(repr=False)
    consistent: bool
    unique: bool
    consistency_residual: float
    tolerances: ToleranceConfig

    @cached_property
    def nullspace_projector(self) -> np.ndarray:
        """The dense (k*r)-by-(k*r) projector onto the null space of U."""
        Vr = self.row_space
        return np.eye(Vr.shape[1]) - Vr.T @ Vr


@dataclass(frozen=True, eq=False)
class MonicPolynomial:
    """A monic matrix polynomial with structured coefficients.

    ``coefficients`` lists A_0, ..., A_{k-1} as StructuredMatrix values; the
    leading coefficient is the identity and is not stored.
    """

    n: int
    k: int
    coefficients: tuple

    def dense_coefficients(self) -> list:
        """The trailing coefficients A_0, ..., A_{k-1} as dense arrays."""
        return [c.dense for c in self.coefficients]

    def evaluate(self, lam: complex) -> np.ndarray:
        """Evaluate P(lambda) = lambda^k I + sum lambda^i A_i densely."""
        acc = lam**self.k * np.eye(self.n, dtype=complex)
        for i, c in enumerate(self.coefficients):
            acc += lam**i * c.dense
        return acc


def _powers(ep: RealEigenpairs, k: int) -> list:
    """The products X E^i for i = 0, ..., k; raises if any overflows."""
    pows = [np.eye(ep.m)]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(k):
            pows.append(pows[-1] @ ep.E)
        out = [ep.X @ p for p in pows]
    if not all(np.isfinite(y).all() for y in out):
        raise ValueError(f"X E^i overflows for degree k = {k}; largest |E| entry {np.max(np.abs(ep.E)):.3e}")
    return out


def assemble(
    ep: RealEigenpairs,
    basis: StructureBasis,
    k: int,
    allow_overdetermined: bool = False,
) -> AssembledSystem:
    """Build the vectorized system U x = b from eigendata and a structure.

    Parameters
    ----------
    ep : RealEigenpairs
        The prescribed eigenpairs in real form, m columns.
    basis : StructureBasis
        Structure of every unknown coefficient, with ep.n == basis.n.
    k : int
        Polynomial degree, at least 1.
    allow_overdetermined : bool
        Accept m > k*n.  More eigenpairs than k*n can never be attained by
        a degree-k polynomial with simple structure counting, so the bound
        is enforced unless explicitly waived; consistency analysis itself
        is unaffected.

    Returns
    -------
    AssembledSystem
        With U of shape (m*n, k*r) and b of length m*n.
    """
    if k < 1:
        raise ValueError(f"polynomial degree must be at least 1, got k = {k}")
    if ep.n != basis.n:
        raise ValueError(f"eigendata order n = {ep.n} does not match basis order n = {basis.n}")
    if ep.m < 1:
        raise ValueError("at least one eigenpair is required")
    if ep.m > k * ep.n and not allow_overdetermined:
        raise ValueError(
            f"m = {ep.m} eigenpair columns exceed k*n = {k * ep.n}; "
            "pass allow_overdetermined to analyze anyway"
        )
    n, r, m = ep.n, basis.r, ep.m
    Y = _powers(ep, k)
    # (block, triplet, eigendata column) -> s * (X E^i)[q, c], i = k - 1 - block
    vals = basis.values[None, :, None] * np.stack(Y[k - 1 :: -1])[:, basis.cols, :]
    rows = basis.rows[None, :, None] + n * np.arange(m)
    cols = r * np.arange(k)[:, None, None] + basis.index[None, :, None]
    U = np.zeros((m * n, k * r))
    np.add.at(U, (rows, cols), vals)
    b = -Y[k].reshape(-1, order="F")
    return AssembledSystem(U=U, b=b, k=k, r=r, m=m, n=n)


def analyze(system: AssembledSystem, tol: ToleranceConfig = ToleranceConfig()) -> SolutionFamily:
    """Factorize U by SVD, classify the system and compute the minimal-norm
    particular solution.

    Singular values at or below cutoff * sigma_max count as zero.  The
    system is consistent iff the pseudoinverse solution reproduces b within
    ``tol.consistency_tol`` relative to max(1, ||b||), and the solution is
    unique iff rank(U) equals the number of unknowns k*r.
    """
    W, sigma, Vt = np.linalg.svd(system.U, full_matrices=False)
    rows, cols = system.U.shape
    cutoff = tol.rank_cutoff(rows, cols) * (sigma[0] if sigma.size else 0.0)
    rank = int(np.count_nonzero(sigma > cutoff))
    x0 = Vt[:rank].T @ ((W[:, :rank].T @ system.b) / sigma[:rank])
    gap = float(np.linalg.norm(system.U @ x0 - system.b))
    consistent = gap <= tol.consistency_tol * max(1.0, float(np.linalg.norm(system.b)))
    return SolutionFamily(
        x0=x0,
        rank=rank,
        projector_rank=cols - rank,
        row_space=Vt[:rank],
        consistent=consistent,
        unique=rank == cols,
        consistency_residual=gap,
        tolerances=tol,
    )


def extract_coefficient(x: np.ndarray, i: int, k: int, r: int) -> np.ndarray:
    """Slice the coordinate block of A_i out of a stacked solution vector.

    The stacked layout runs from the highest coefficient down, so A_i lives
    at offset (k - 1 - i) * r.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (k * r,):
        raise ValueError(f"solution vector must have length k*r = {k * r}, got shape {x.shape}")
    if not 0 <= i < k:
        raise ValueError(f"coefficient index must satisfy 0 <= i < k = {k}, got {i}")
    start = (k - 1 - i) * r
    return x[start : start + r]


def solve(
    ep: RealEigenpairs,
    basis: StructureBasis,
    k: int,
    y: np.ndarray | None = None,
    tol: ToleranceConfig = ToleranceConfig(),
    allow_overdetermined: bool = False,
):
    """Solve the inverse eigenpair problem for structured monic polynomials.

    Parameters
    ----------
    ep, basis, k
        As in :func:`assemble`.
    y : ndarray, optional
        Free parameter of length k*r selecting a member of the solution
        family; omitted means the minimal-norm member.
    tol : ToleranceConfig
    allow_overdetermined : bool

    Returns
    -------
    (MonicPolynomial or None, SolutionFamily)
        The polynomial is None when the system is inconsistent; the family
        always carries the diagnostics, including the consistency residual.
    """
    system = assemble(ep, basis, k, allow_overdetermined=allow_overdetermined)
    family = analyze(system, tol)
    if not family.consistent:
        return None, family
    x = family.x0
    if y is not None:
        y = np.asarray(y, dtype=float)
        if y.shape != (k * basis.r,):
            raise ValueError(f"free parameter y must have length k*r = {k * basis.r}, got shape {y.shape}")
        Vr = family.row_space
        x = family.x0 + (y - Vr.T @ (Vr @ y))
    coeffs = tuple(
        realize(basis, extract_coefficient(x, i, k, basis.r)) for i in range(k)
    )
    return MonicPolynomial(n=basis.n, k=k, coefficients=coeffs), family


def monicize(leading: np.ndarray, coefficients, pd_tol: float = DEFAULT_PD_TOL):
    """Reduce a polynomial with symmetric positive definite leading coefficient
    to monic form by the congruence A_i -> L^{-1/2} A_i L^{-1/2}.

    The transform preserves eigenvalues and maps eigenvectors x to
    L^{1/2} x, where L is the leading coefficient.

    Parameters
    ----------
    leading : ndarray
        The leading coefficient A_k, symmetric positive definite.
    coefficients : sequence of ndarray
        Trailing coefficients A_0, ..., A_{k-1}, each symmetric.
    pd_tol : float
        Definiteness threshold: the smallest eigenvalue of A_k must exceed
        pd_tol times the largest.

    Returns
    -------
    (list of ndarray, ndarray)
        The transformed coefficients and the eigenvector transform L^{1/2}.
    """
    leading = np.asarray(leading, dtype=float)
    coeffs = [np.asarray(c, dtype=float) for c in coefficients]
    for label, m in [("leading coefficient", leading)] + [
        (f"coefficient {i}", c) for i, c in enumerate(coeffs)
    ]:
        gap = np.linalg.norm(m - m.T, "fro")
        if gap > 1e-10 * max(1.0, np.linalg.norm(m, "fro")):
            raise ValueError(f"{label} is not symmetric (asymmetry {gap:.3e})")
    w, Q = np.linalg.eigh(0.5 * (leading + leading.T))
    if w[0] <= pd_tol * w[-1]:
        raise ValueError(
            f"leading coefficient is not positive definite "
            f"(smallest eigenvalue {w[0]:.3e} vs largest {w[-1]:.3e})"
        )
    root = (Q * np.sqrt(w)) @ Q.T
    inv_root = (Q / np.sqrt(w)) @ Q.T
    out = []
    for c in coeffs:
        m = inv_root @ c @ inv_root
        out.append(0.5 * (m + m.T))
    return out, 0.5 * (root + root.T)
