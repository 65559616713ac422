"""Inverse eigenpair solver for monic structured matrix polynomials.

Given real-form eigendata (X, E) and a structure basis, find coefficients
A_0, ..., A_{k-1} inside the structure subspace so that the monic polynomial

    P(lambda) = lambda^k I + sum_{i<k} lambda^i A_i

has every prescribed eigenpair.  The defining relation

    sum_{i=0..k} A_i X E^i = 0        (A_k = I)

vectorizes to a single linear system U x = b over the stacked coordinate
vectors of the unknown coefficients:

    U = [ ((X E^{k-1})^T kron I) P | ... | (X^T kron I) P ],   b = vec(-X E^k)

``assemble`` forms neither the Kronecker products nor P nor U itself.
Entry (p + n*c, blk*r + l) of U, where block blk holds A_i with
i = k - 1 - blk, is nonzero only if S_l has an entry in row p of A, so the
blocks (P_j, C_j) of the basis (``StructureBasis.blocks``) cut U, after a
permutation, into diagonal blocks U_j with rows {p + n*c : p in P_j} and
columns {blk*r + l : l in C_j}.  Each structure triplet (p, q, l, s)
scatters s * (X E^i)[q, c] into its block.  When every S_l lies in one
row of A, as for full, diagonal, tridiagonal and pentadiagonal, there is
one block per row of A; for ``full`` this is the matrix equation
[A_{k-1} ... A_0] [X E^{k-1}; ...; X] = -X E^k solved row by row.  Every
other basis gives one block, U itself.

``analyze`` takes the SVD of each block.  The singular values of U are
those of its blocks taken together, so one global cutoff on all of them
gives the rank of U.  A solution exists iff U U^+ b = b, and it is unique
iff U has full column rank.  The general solution is
x = U^+ b + (I - V_r^T V_r) y with y free, where the rows of V_r span the
row space of U; ``SolutionFamily.project`` applies the projector block by
block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .eigendata import RealEigenpairs
from .structures import StructureBasis, realize

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
    dense least-squares convention.  ``consistency_tol`` is relative to
    max(1, ||b||).
    """

    rank_cutoff_factor: float | None = None
    consistency_tol: float = DEFAULT_CONSISTENCY_TOL

    def __post_init__(self):
        for name in ("rank_cutoff_factor", "consistency_tol"):
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
    """The linear system U x = b for one inverse problem instance.

    ``blocks`` lists one (rows, cols, U_j) triple per block of the
    basis, with U_j = U[np.ix_(rows, cols)]; U is zero outside its blocks.
    """

    blocks: tuple = field(repr=False)
    b: np.ndarray = field(repr=False)
    k: int = 0
    r: int = 0
    m: int = 0
    n: int = 0

    @property
    def U(self) -> np.ndarray:
        """The dense (m*n)-by-(k*r) matrix, built from the blocks on each read."""
        U = np.zeros((self.m * self.n, self.k * self.r))
        for rows, cols, Uj in self.blocks:
            U[np.ix_(rows, cols)] = Uj
        return U


@dataclass(frozen=True, eq=False)
class SolutionFamily:
    """Diagnostics and parameterization of the affine solution set.

    The full solution set, when nonempty, is x0 + project(y) over free
    vectors y of length k*r.  ``factors`` holds one (cols, V_j) pair per
    block of U, where the orthonormal rows of V_j span the row space of
    that block on the coordinates ``cols``.  ``unique`` records whether U
    has full column rank, i.e. whether that family has dimension zero.
    """

    x0: np.ndarray = field(repr=False)
    rank: int
    projector_rank: int
    factors: tuple = field(repr=False)
    consistent: bool
    unique: bool
    consistency_residual: float

    def project(self, y: np.ndarray) -> np.ndarray:
        """Project y onto the null space of U: y - V_r^T V_r y, block by block.

        ``y`` has length k*r; a (k*r, p) array is projected column by column.
        """
        out = np.array(y, dtype=float)
        for cols, V in self.factors:
            yj = out[cols]
            out[cols] = yj - V.T @ (V @ yj)
        return out


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


def _places(parts, size: int):
    """For disjoint index arrays ``parts`` over range(size): the part each
    index lies in, its position within that part, and the part sizes."""
    sizes = np.array([p.size for p in parts])
    nodes = np.concatenate(parts)
    part = np.zeros(size, dtype=np.intp)
    place = np.zeros(size, dtype=np.intp)
    part[nodes] = np.repeat(np.arange(len(parts)), sizes)
    place[nodes] = np.arange(nodes.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return part, place, sizes


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
        With one block of shape (m*|P_j|, k*|C_j|) per block (P_j, C_j)
        of the basis, and b of length m*n.
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
    part, row_at, height = _places([P for P, _ in basis.blocks], n)
    _, col_at, width = _places([C for _, C in basis.blocks], r)
    size = m * height * k * width
    start = np.cumsum(size) - size
    # every block lies C-ordered in one buffer; triplet (p, q, l, s) of
    # block j lands in row c*|P_j| + (place of p in P_j) and column
    # blk*|C_j| + (place of l in C_j) of U_j
    j = part[basis.rows]
    stride = k * width[j]
    first = start[j] + row_at[basis.rows] * stride + col_at[basis.index]
    at = (first + np.multiply.outer(np.arange(k), width[j]))[:, :, None]
    at = at + np.multiply.outer(height[j] * stride, np.arange(m))
    # (block, triplet, eigendata column) -> s * (X E^i)[q, c], i = k - 1 - block
    vals = basis.values[None, :, None] * np.stack(Y[k - 1 :: -1])[:, basis.cols, :]
    buf = np.zeros(size.sum())
    np.add.at(buf, at, vals)
    blocks = tuple(
        (
            (n * np.arange(m)[:, None] + P).ravel(),
            (r * np.arange(k)[:, None] + C).ravel(),
            buf[lo : lo + sz].reshape(m * P.size, k * C.size),
        )
        for (P, C), lo, sz in zip(basis.blocks, start, size)
    )
    b = -Y[k].reshape(-1, order="F")
    return AssembledSystem(blocks=blocks, b=b, k=k, r=r, m=m, n=n)


def analyze(system: AssembledSystem, tol: ToleranceConfig = ToleranceConfig()) -> SolutionFamily:
    """Factorize U block by block, classify the system and compute the
    minimal-norm particular solution.

    The singular values of U are those of its blocks taken together.  Each
    block gets its own SVD.  Singular values at or below
    cutoff * max_j sigma_max(U_j) count as zero, the rank is the sum of the
    block ranks, and x0 joins the blocks' minimal-norm solutions.  The
    system is consistent iff U x0 reproduces b within ``tol.consistency_tol``
    relative to max(1, ||b||); the gap starts from -b, so rows of U that no
    block holds still count.  The solution is unique iff rank(U) equals the
    number of unknowns k*r.
    """
    b = system.b
    svds = [np.linalg.svd(Uj, full_matrices=False) for _, _, Uj in system.blocks]
    cols = system.k * system.r
    cutoff = tol.rank_cutoff(system.m * system.n, cols) * max(sigma[0] for _, sigma, _ in svds)
    x0 = np.zeros(cols)
    misfit = -b
    factors = []
    for (R, C, Uj), (W, sigma, Vt) in zip(system.blocks, svds):
        rj = int(np.count_nonzero(sigma > cutoff))
        xj = Vt[:rj].T @ ((W[:, :rj].T @ b[R]) / sigma[:rj])
        x0[C] = xj
        misfit[R] += Uj @ xj
        factors.append((C, Vt[:rj]))
    rank = sum(V.shape[0] for _, V in factors)
    gap = float(np.linalg.norm(misfit))
    consistent = gap <= tol.consistency_tol * max(1.0, float(np.linalg.norm(b)))
    return SolutionFamily(
        x0=x0,
        rank=rank,
        projector_rank=cols - rank,
        factors=tuple(factors),
        consistent=consistent,
        unique=rank == cols,
        consistency_residual=gap,
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
        x = family.x0 + family.project(y)
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
