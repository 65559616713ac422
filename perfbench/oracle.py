"""Computations the benchmark checks eigenpoly against, made without it.

Nothing in this module imports eigenpoly.  It holds the structure masks,
a complex evaluation of a matrix polynomial, eigenpairs read off the
benchmark's own companion matrix, and a naive assembly of the coefficient
system solved with ``numpy.linalg.lstsq``.
"""

from __future__ import annotations

import numpy as np

EPS = float(np.finfo(float).eps)

_BANDWIDTH = {"tridiagonal": 1, "symmetric_tridiagonal": 1, "pentadiagonal": 2, "diagonal": 0}


class CheckFailed(AssertionError):
    """An output of the program disagrees with the benchmark's own computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def has_structure(kind: str, a: np.ndarray) -> bool:
    """Exact membership test: built-in structures realize entries without rounding."""
    a = np.asarray(a)
    if kind in ("symmetric", "symmetric_tridiagonal") and not np.array_equal(a, a.T):
        return False
    if kind == "skew_symmetric":
        return bool(np.array_equal(a, -a.T))
    if kind in _BANDWIDTH:
        i, j = np.indices(a.shape)
        return bool(np.all(a[np.abs(i - j) > _BANDWIDTH[kind]] == 0.0))
    if kind == "hankel":
        return bool(np.array_equal(a[1:, :-1], a[:-1, 1:]))
    if kind == "toeplitz":
        return bool(np.array_equal(a[1:, 1:], a[:-1, :-1]))
    return kind in ("symmetric", "full")


def spanning_matrices(kind: str, n: int) -> np.ndarray:
    """One {-1, 0, 1} matrix per free parameter of a built-in structure, shape (r, n, n).

    The set equals the package's canonical basis up to order and sign, which
    leaves minimal-norm solutions and coordinate norms unchanged.
    """
    out = []

    def unit(pairs):
        m = np.zeros((n, n))
        for i, j, s in pairs:
            m[i, j] = s
        out.append(m)

    if kind in _BANDWIDTH or kind == "full":
        width = _BANDWIDTH.get(kind, n)
        for i in range(n):
            for j in range(n):
                if abs(i - j) <= width and (kind != "symmetric_tridiagonal" or i <= j):
                    unit([(i, j, 1.0), (j, i, 1.0)] if kind == "symmetric_tridiagonal" else [(i, j, 1.0)])
    elif kind == "symmetric":
        for i in range(n):
            for j in range(i, n):
                unit([(i, j, 1.0), (j, i, 1.0)])
    elif kind == "skew_symmetric":
        for i in range(n):
            for j in range(i + 1, n):
                unit([(i, j, 1.0), (j, i, -1.0)])
    elif kind == "hankel":
        for s in range(2 * n - 1):
            unit([(i, s - i, 1.0) for i in range(n) if 0 <= s - i < n])
    elif kind == "toeplitz":
        for d in range(-(n - 1), n):
            unit([(i, i + d, 1.0) for i in range(n) if 0 <= i + d < n])
    else:
        raise ValueError(f"unknown structure kind {kind!r}")
    return np.array(out)


def coordinates(mats: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Coordinates of ``a`` in a basis with disjoint supports (built-in kinds)."""
    flat = mats.reshape(len(mats), -1)
    return flat @ np.asarray(a).ravel() / np.einsum("ij,ij->i", flat, flat)


def random_structured(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """A matrix of the structure with coordinates uniform in [-1, 1]."""
    mats = spanning_matrices(kind, n)
    return np.tensordot(rng.uniform(-1.0, 1.0, len(mats)), mats, axes=1)


def spring_chain(values: np.ndarray) -> np.ndarray:
    """Stiffness-type matrix of a fixed-fixed chain: k_i + k_{i+1} on the diagonal."""
    d = values[:-1] + values[1:]
    return np.diag(d) - np.diag(values[1:-1], 1) - np.diag(values[1:-1], -1)


def companion_eigenpairs(coeffs) -> tuple:
    """Eigenpairs of the monic polynomial with trailing coefficients A_0..A_{k-1}.

    Reads the eigenvector off the last block of the companion eigenvector
    [lambda^{k-1} z; ...; z], keeps one member of each conjugate pair
    (imag >= 0) and normalizes z.  Returns (lams, Z) with Z of shape (n, count).
    """
    k = len(coeffs)
    n = coeffs[0].shape[0]
    C = np.zeros((k * n, k * n))
    for j in range(k):
        C[:n, j * n : (j + 1) * n] = -coeffs[k - 1 - j]
    C[n:, : (k - 1) * n] = np.eye((k - 1) * n)
    lams, V = np.linalg.eig(C)
    keep = lams.imag >= 0.0
    Z = V[-n:, keep]
    return lams[keep], Z / np.linalg.norm(Z, axis=0)


def select_columns(lams: np.ndarray, m: int, rng: np.random.Generator) -> list:
    """Indices of eigenpairs filling exactly m real-form columns, in seeded order."""
    chosen, width = [], 0
    for idx in rng.permutation(len(lams)):
        span = 2 if lams[idx].imag != 0.0 else 1
        if width + span <= m:
            chosen.append(int(idx))
            width += span
        if width == m:
            return chosen
    raise ValueError(f"cannot fill m = {m} columns")


def evaluate(coeffs, lam: complex, z: np.ndarray) -> np.ndarray:
    """P(lambda) z for the monic polynomial, in complex arithmetic."""
    acc = lam ** len(coeffs) * z
    for i, a in enumerate(coeffs):
        acc = acc + lam**i * (a @ z)
    return acc


def residual_fro(coeffs, lams, vectors) -> float:
    """sqrt(sum_j ||P(lambda_j) z_j||^2): the Frobenius residual of the real form."""
    return float(np.sqrt(sum(np.linalg.norm(evaluate(coeffs, l, z)) ** 2 for l, z in zip(lams, vectors))))


def rhs_norm(k: int, lams, vectors) -> float:
    """||X E^k||_F of the real form: sqrt(sum_j |lambda_j|^{2k} ||z_j||^2)."""
    return float(np.sqrt(sum(abs(l) ** (2 * k) * np.linalg.norm(z) ** 2 for l, z in zip(lams, vectors))))


def backward_error(coeffs, lams, vectors) -> float:
    """Largest normwise backward error over the pairs (Tisseur, LAA 309, 2000)."""
    norms = [np.linalg.norm(a, 2) for a in coeffs] + [1.0]
    worst = 0.0
    for lam, z in zip(lams, vectors):
        scale = sum(abs(lam) ** i * c for i, c in enumerate(norms)) * np.linalg.norm(z)
        worst = max(worst, float(np.linalg.norm(evaluate(coeffs, lam, z)) / scale))
    return worst


def naive_system(mats: np.ndarray, k: int, lams, vectors) -> tuple:
    """U x = b with one column per (coefficient, spanning matrix), entry by entry.

    Column (i, l) stacks lambda_j^i S_l z_j over the pairs; a conjugate pair
    contributes its real and imaginary rows, a real pair its real rows only.
    The columns run A_0 first.  Returns (U, b).
    """
    cols, rhs = [], []
    for lam, z in zip(lams, vectors):
        block = np.array([[lam**i * (s @ z) for s in mats] for i in range(k)])  # (k, r, n)
        rows = block.reshape(k * len(mats), -1).T
        parts = [rows.real, rows.imag] if lam.imag != 0.0 else [rows.real]
        cols.extend(parts)
        t = -(lam**k) * z
        rhs.extend([t.real, t.imag] if lam.imag != 0.0 else [t.real])
    return np.vstack(cols), np.concatenate(rhs)


def lstsq_oracle(mats: np.ndarray, k: int, lams, vectors, consistency_tol: float) -> dict:
    """Rank, consistency and the minimal-norm coefficients by naive assembly.

    ``clear`` says whether the singular values keep a factor of 10 from the
    rank cutoff eps * max(rows, cols) * sigma_max on both sides, so that the
    rank does not hinge on rounding; ``verdict_clear`` whether the
    residual is 100x away from the consistency threshold.
    """
    U, b = naive_system(mats, k, lams, vectors)
    rows, cols = U.shape
    rcond = EPS * max(rows, cols)
    x0, _, rank, sigma = np.linalg.lstsq(U, b, rcond=rcond)
    cutoff = rcond * sigma[0]
    above = sigma[rank - 1] / cutoff if rank else np.inf
    below = sigma[rank] / cutoff if rank < len(sigma) else 0.0
    gap = float(np.linalg.norm(U @ x0 - b))
    threshold = consistency_tol * max(1.0, float(np.linalg.norm(b)))
    r = len(mats)
    dense = [np.tensordot(x0[i * r : (i + 1) * r], mats, axes=1) for i in range(k)]
    return {
        "rank": int(rank),
        "cols": cols,
        "clear": bool(above >= 10.0 and below <= 0.1),
        "cond": float(sigma[0] / sigma[rank - 1]) if rank else 1.0,
        "gap": gap,
        "consistent": gap <= threshold,
        "verdict_clear": bool(gap <= threshold / 100.0 or gap >= threshold * 100.0),
        "dense": dense,
        "x0_norm": float(np.linalg.norm(x0)),
    }
