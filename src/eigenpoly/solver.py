"""Inverse eigenpair solver for monic structured matrix polynomials.

Given real-form eigendata (X, E) and a structure basis, find coefficients
A_0, ..., A_{k-1} inside the structure subspace so that the monic polynomial

    P(lambda) = lambda^k I + sum_{i<k} lambda^i A_i

has every prescribed eigenpair.  The defining relation

    sum_{i=0..k} A_i X E^i = 0        (A_k = I)

stacks, column by column, to a single linear system U x = b over the
stacked coordinate vectors of the unknown coefficients:

    U = [ ((X E^{k-1})^T kron I) P | ... | (X^T kron I) P ],   b = -X E^k stacked

where column l of the n^2-by-r matrix P is S_l stacked the same way.
``assemble`` forms neither the Kronecker products nor P nor U itself.
Entry (p + n*c, blk*r + l) of U, where block blk holds A_i with
i = k - 1 - blk, is nonzero only if S_l has an entry in row p of A, so the
blocks (P_j, C_j) of the basis (``StructureBasis.blocks``) cut U, after a
permutation, into diagonal blocks U_j with rows {p + n*c : p in P_j} and
columns {blk*r + l : l in C_j}.  Each structure triplet (p, q, l, s)
scatters s * (X E^i)[q, c] into its block.  A block that the basis lists
with several copies is the same matrix U_j at each copy's rows and
columns, so only the triplets of its first copy are scattered.  When every
S_l lies in one row of A, as for full, diagonal, tridiagonal and
pentadiagonal, there is one block per row of A; every other basis gives
one block, U itself.  For ``full`` the n row blocks are all copies of
Z^T with Z = [X E^{k-1}; ...; X], and U x = b is the matrix equation
[A_{k-1} ... A_0] Z = -X E^k.

``analyze`` takes one SVD per distinct block and solves all its copies at
once, with the copies' parts of b as the columns of one right-hand side.
The singular values of U are those of its blocks taken together, each
block counted once per copy, so one global cutoff on all of them gives the
rank of U.  A solution exists iff U U^+ b = b, and it is unique iff U has
full column rank.  The general solution is x = U^+ b + (I - V_r^T V_r) y
with y free, where the rows of V_r span the row space of U;
``SolutionFamily.project`` applies the projector block by block, all
copies of a block at once.  A tall chain block is first tried by the
certified QR sweep of ``sweep``, which needs no SVD.
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
_PD_TOL = 1e-12
# the QR sweep is tried on a tall one-block system of at least this many
# columns; the crossover against the SVD is measured in the README
SWEEP_MIN_COLS = 96


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

    ``blocks`` lists one (rows, cols, U_j) triple per distinct block of the
    basis.  ``rows`` has shape (copies, m*|P_j|) and ``cols`` shape
    (copies, k*|C_j|), and U_j = U[np.ix_(rows[i], cols[i])] for every
    copy i; U is zero outside its blocks.  ``plan`` is the QR sweep that
    ``analyze`` tries before the SVD (see ``assemble``), or None.
    """

    blocks: tuple = field(repr=False)
    b: np.ndarray = field(repr=False)
    k: int = 0
    r: int = 0
    m: int = 0
    n: int = 0
    plan: tuple | None = field(default=None, repr=False)

    @property
    def U(self) -> np.ndarray:
        """The dense (m*n)-by-(k*r) matrix, built from the blocks on each read."""
        U = np.zeros((self.m * self.n, self.k * self.r))
        for rows, cols, Uj in self.blocks:
            for R, C in zip(rows, cols):
                U[np.ix_(R, C)] = Uj
        return U


@dataclass(frozen=True, eq=False)
class SolutionFamily:
    """Diagnostics and parameterization of the affine solution set.

    The full solution set, when nonempty, is x0 + project(y) over free
    vectors y of length k*r.  ``factors`` holds one (cols, V_j) pair per
    distinct block of U, where ``cols`` has shape (copies, k*|C_j|) and the
    orthonormal rows of V_j span the row space of that block on the
    coordinates of each copy; V_j is None for a block certified to have
    full column rank, whose row space is everything.  ``unique`` records
    whether U has full column rank, i.e. whether that family has dimension
    zero.
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
        The copies of a block are gathered as the columns of one matrix.
        """
        out = np.array(y, dtype=float)
        for cols, V in self.factors:
            if V is None:  # a block of full column rank: no null space
                out[cols.T] = 0.0
                continue
            yj = out[cols.T]  # (k |C_j|, copies, p...)
            flat = yj.reshape(yj.shape[0], -1)
            out[cols.T] = (flat - V.T @ (V @ flat)).reshape(yj.shape)
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


def _powers(ep: RealEigenpairs, k: int) -> list:
    """The products X E^i for i = 0, ..., k; raises if any overflows.

    A finite product whose Frobenius norm overflows counts as overflowing,
    because ``analyze`` takes the norm of b, -X E^k stacked, by squaring."""
    pows = [np.eye(ep.m)]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(k):
            pows.append(pows[-1] @ ep.E)
        out = [ep.X @ p for p in pows]
        norms = [np.linalg.norm(y) for y in out]
    if not np.isfinite(norms).all():
        raise ValueError(f"X E^i overflows for degree k = {k}; largest |E| entry {np.max(np.abs(ep.E)):.3e}")
    return out


def _places(parts, size: int):
    """For disjoint index arrays ``parts`` over range(size): the part each
    index lies in (-1 for none), its position within that part, and the
    part sizes."""
    sizes = np.array([p.size for p in parts])
    nodes = np.concatenate(parts)
    part = np.full(size, -1, dtype=np.intp)
    place = np.zeros(size, dtype=np.intp)
    part[nodes] = np.repeat(np.arange(len(parts)), sizes)
    place[nodes] = np.arange(nodes.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return part, place, sizes


def _scatter(basis: StructureBasis, Y: list, m: int):
    """Scatter-add every distinct block U_j of the system into one buffer,
    C-ordered, from the triplets of its first copy and Y = [X E^i, i < k].

    Returns the buffer and each block's offset and size in it."""
    k, n, r = len(Y), basis.n, basis.r
    # only the triplets in the rows of each block's first copy are scattered
    part, row_at, height = _places([P[0] for P, _ in basis.blocks], n)
    _, col_at, width = _places([C[0] for _, C in basis.blocks], r)
    j = part[basis.rows]
    kept = j >= 0
    j, rows, cols, index, values = (a[kept] for a in (j, basis.rows, basis.cols, basis.index, basis.values))
    size = m * height * k * width
    start = np.cumsum(size) - size
    # triplet (p, q, l, s) of block j lands in row c*|P_j| + (place of p in
    # P_j) and column blk*|C_j| + (place of l in C_j) of U_j
    stride = k * width[j]
    first = start[j] + row_at[rows] * stride + col_at[index]
    down = height[j] * stride
    buf = np.zeros(size.sum())
    # one coefficient block at a time: each entry of U belongs to one, so
    # the sums run in the same order as in a single scatter of all of them
    for blk in range(k):
        at = np.multiply.outer(down, np.arange(m))  # (triplet, eigendata column)
        at += (first + blk * width[j])[:, None]
        vals = Y[k - 1 - blk][cols]  # s * (X E^i)[q, c], i = k - 1 - blk
        vals *= values[:, None]
        np.add.at(buf, at, vals)
        del at, vals
    return buf, start, size


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
        With one block of shape (m*|P_j|, k*|C_j|) per distinct block
        (P_j, C_j) of the basis, and b of length m*n.  ``plan`` holds the
        basis's QR sweep at degree k (``sweep.plan_for``) when the system is
        one block with one copy, with at least as many rows as columns and
        at least SWEEP_MIN_COLS columns, and no front of the sweep is too
        wide; it is None otherwise.
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
    b = -Y.pop().reshape(-1, order="F")
    buf, start, size = _scatter(basis, Y, m)
    # rows p + n*c and columns blk*r + l of every copy, one copy per row
    row_of, col_of = n * np.arange(m)[:, None], r * np.arange(k)[:, None]
    blocks = tuple(
        (
            (row_of + P[:, None]).reshape(len(P), -1),
            (col_of + C[:, None]).reshape(len(C), -1),
            buf[lo : lo + sz].reshape(m * P.shape[1], k * C.shape[1]),
        )
        for (P, C), lo, sz in zip(basis.blocks, start, size)
    )
    plan = None
    height, width = blocks[0][2].shape
    if len(blocks) == 1 and len(blocks[0][0]) == 1 and height >= width >= SWEEP_MIN_COLS:
        from . import sweep  # loaded only where it can run: loading costs time and memory

        plan = sweep.plan_for(basis, k)
    return AssembledSystem(blocks=blocks, b=b, k=k, r=r, m=m, n=n, plan=plan)


def analyze(system: AssembledSystem, tol: ToleranceConfig = ToleranceConfig()) -> SolutionFamily:
    """Factorize U block by block, classify the system and compute the
    minimal-norm particular solution.

    The singular values of U are those of its blocks taken together, each
    block counted once per copy.  Each distinct block gets one SVD, and its
    copies are solved at once: the parts of b at their rows are the columns
    of one right-hand side.  Singular values at or below
    cutoff * max_j sigma_max(U_j) count as zero, the rank is the sum of
    copies_j * rank(U_j), and x0 joins the blocks' minimal-norm solutions.  The
    system is consistent iff U x0 reproduces b within ``tol.consistency_tol``
    relative to max(1, ||b||); the gap starts from -b, so rows of U that no
    block holds still count.  The solution is unique iff rank(U) equals the
    number of unknowns k*r.

    When ``assemble`` attached a sweep plan, the QR sweep of
    ``sweep.solve`` runs first.  If it certifies full column rank under the
    same cutoff rule, its least-squares solution is x0 and the block keeps
    no V_j (``project`` returns zeros there); else the SVD above runs
    unchanged, so every uncertified result is the one the SVD gives.
    """
    b = system.b
    cols = system.k * system.r
    x = None
    if system.plan is not None:
        from . import sweep

        ((R, _, Uj),) = system.blocks
        x = sweep.solve(Uj, b[R[0]], system.m, system.plan, tol.rank_cutoff(system.m * system.n, cols))
    solved = _by_svd(system, tol) if x is None else [(x[:, None], None)]
    x0 = np.zeros(cols)
    misfit = -b
    factors = []
    for (R, C, Uj), (xj, V) in zip(system.blocks, solved):
        x0[C.T] = xj
        misfit[R.T] += Uj @ xj
        factors.append((C, V))
    rank = sum(len(C) * (C.shape[1] if V is None else len(V)) for C, V in factors)
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


def _by_svd(system: AssembledSystem, tol: ToleranceConfig) -> list:
    """(x_j, V_j) per distinct block from one SVD each: the minimal-norm
    solutions of its copies, one column per copy, and its kept rows of V^T."""
    svds = [np.linalg.svd(Uj, full_matrices=False) for _, _, Uj in system.blocks]
    cutoff = tol.rank_cutoff(system.m * system.n, system.k * system.r) * max(sigma[0] for _, sigma, _ in svds)
    solved = []
    for (R, _, _), (W, sigma, Vt) in zip(system.blocks, svds):
        rj = int(np.count_nonzero(sigma > cutoff))
        solved.append((Vt[:rj].T @ ((W[:, :rj].T @ system.b[R.T]) / sigma[:rj, None]), Vt[:rj]))
    return solved


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


def monicize(leading: np.ndarray, coefficients):
    """Reduce a polynomial with symmetric positive definite leading coefficient
    to monic form by the congruence A_i -> L^{-1/2} A_i L^{-1/2}.

    The transform preserves eigenvalues and maps eigenvectors x to
    L^{1/2} x, where L is the leading coefficient.

    Parameters
    ----------
    leading : ndarray
        The leading coefficient A_k, symmetric positive definite: its
        smallest eigenvalue must exceed 1e-12 times its largest.
    coefficients : sequence of ndarray
        Trailing coefficients A_0, ..., A_{k-1}, each symmetric.

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
    if w[0] <= _PD_TOL * w[-1]:
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
