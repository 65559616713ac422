"""Real-form packing of prescribed eigenpairs.

A list of eigenpairs (lambda_j, z_j) is stored as a pair of real matrices
(X, E): complex eigenvalues alpha + i*beta contribute a 2x2 rotation-like
block [[alpha, beta], [-beta, alpha]] on the diagonal of E and the two
columns Re(z), Im(z) to X, while real eigenvalues contribute a scalar
diagonal entry and a single real column.  Complex blocks come first, in
input order, followed by the real entries.

Each complex input represents its whole conjugate pair, so the conjugate
member must not be listed again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Eigenpair", "RealEigenpairs", "decode", "encode"]

_CONJUGATE_TOL = 1e-10
_REAL_VECTOR_TOL = 1e-12
_BLOCK_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Eigenpair:
    """One prescribed eigenvalue with its eigenvector."""

    eigenvalue: complex
    vector: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=complex)
        if v.ndim != 1:
            raise ValueError(f"eigenvector must be one-dimensional, got shape {v.shape}")
        if not (np.isfinite(v).all() and np.isfinite(self.eigenvalue)):
            raise ValueError("eigenpair has non-finite entries")
        if np.linalg.norm(v) == 0.0:
            raise ValueError("eigenvector must be nonzero")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "eigenvalue", complex(self.eigenvalue))
        object.__setattr__(self, "vector", v)


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class RealEigenpairs:
    """Real-form eigendata: X holds eigenvector columns, E the eigenvalue blocks.

    Attributes
    ----------
    n : int
        Eigenvector length.
    m : int
        Number of columns of X (complex pairs count twice).
    t : int
        Number of leading 2x2 complex blocks in E.
    X : ndarray
        n-by-m, read-only.
    E : ndarray
        m-by-m block diagonal, read-only.
    """

    n: int
    m: int
    t: int
    X: np.ndarray = field(repr=False)
    E: np.ndarray = field(repr=False)

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        E = np.asarray(self.E, dtype=float)
        if X.shape != (self.n, self.m):
            raise ValueError(f"X must be {self.n}x{self.m}, got shape {X.shape}")
        if E.shape != (self.m, self.m):
            raise ValueError(f"E must be {self.m}x{self.m}, got shape {E.shape}")
        if not (np.isfinite(X).all() and np.isfinite(E).all()):
            raise ValueError("X and E must have finite entries")
        if not 0 <= 2 * self.t <= self.m:
            raise ValueError(f"block count t = {self.t} does not fit m = {self.m}")
        _check_block_diagonal(E, self.t)
        object.__setattr__(self, "X", _frozen(X))
        object.__setattr__(self, "E", _frozen(E))

    @classmethod
    def from_matrices(cls, X: np.ndarray, E: np.ndarray) -> "RealEigenpairs":
        """Build from raw (X, E), inferring the complex block count from E."""
        X = np.asarray(X, dtype=float)
        E = np.asarray(E, dtype=float)
        if X.ndim != 2 or E.ndim != 2 or E.shape[0] != E.shape[1]:
            raise ValueError("X must be n-by-m and E square m-by-m")
        m = E.shape[0]
        if X.shape[1] != m:
            raise ValueError(f"X has {X.shape[1]} columns but E is {m}x{m}")
        t, idx = 0, 0
        while idx + 1 < m and E[idx + 1, idx] != 0.0:
            t, idx = t + 1, idx + 2
        return cls(n=X.shape[0], m=m, t=t, X=X, E=E)


def _check_block_diagonal(E: np.ndarray, t: int) -> None:
    m = E.shape[0]
    scale = max(1.0, float(np.max(np.abs(E))) if m else 1.0)
    mask = np.zeros((m, m), dtype=bool)
    for j in range(t):
        a, b = 2 * j, 2 * j + 1
        mask[a : b + 1, a : b + 1] = True
        if abs(E[a, a] - E[b, b]) > _BLOCK_TOL * scale or abs(E[a, b] + E[b, a]) > _BLOCK_TOL * scale:
            raise ValueError(f"complex block {j} of E is not of the form [[a, b], [-b, a]]")
    mask[np.arange(2 * t, m), np.arange(2 * t, m)] = True
    stray = np.max(np.abs(E[~mask])) if (~mask).any() else 0.0
    if stray > _BLOCK_TOL * scale:
        raise ValueError("E has nonzero entries outside its diagonal blocks")


def encode(pairs, n: int) -> RealEigenpairs:
    """Pack a list of eigenpairs into real-form (X, E).

    Parameters
    ----------
    pairs : sequence of Eigenpair
        Eigenpairs with complex entries.  An eigenpair with nonzero
        imaginary eigenvalue stands for its whole conjugate pair; listing
        both members is rejected.  Real eigenvalues must come with real
        eigenvectors (imaginary parts below 1e-12).
    n : int
        Expected eigenvector length.

    Returns
    -------
    RealEigenpairs
    """
    complex_pairs, real_pairs = [], []
    for idx, p in enumerate(pairs):
        if p.vector.shape != (n,):
            raise ValueError(f"eigenpair {idx}: vector has length {p.vector.shape[0]}, expected {n}")
        if p.eigenvalue.imag != 0.0:
            complex_pairs.append((idx, p))
        else:
            worst = float(np.max(np.abs(p.vector.imag)))
            if worst > _REAL_VECTOR_TOL:
                raise ValueError(
                    f"eigenpair {idx}: real eigenvalue with complex eigenvector "
                    f"(max imaginary part {worst:.3e})"
                )
            real_pairs.append((idx, p))

    for a, (ia, pa) in enumerate(complex_pairs):
        for ib, pb in complex_pairs[a + 1 :]:
            close = abs(pa.eigenvalue - pb.eigenvalue.conjugate()) <= _CONJUGATE_TOL * max(
                1.0, abs(pa.eigenvalue)
            )
            vectors_match = np.linalg.norm(pa.vector - pb.vector.conjugate()) <= _CONJUGATE_TOL * max(
                1.0, float(np.linalg.norm(pa.vector))
            )
            if close and vectors_match:
                raise ValueError(
                    f"eigenpairs {ia} and {ib} are conjugates of each other; "
                    "list one member per conjugate pair"
                )

    t = len(complex_pairs)
    m = 2 * t + len(real_pairs)
    X = np.zeros((n, m))
    E = np.zeros((m, m))
    for j, (_, p) in enumerate(complex_pairs):
        a, b = p.eigenvalue.real, p.eigenvalue.imag
        E[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = [[a, b], [-b, a]]
        X[:, 2 * j] = p.vector.real
        X[:, 2 * j + 1] = p.vector.imag
    for j, (_, p) in enumerate(real_pairs):
        col = 2 * t + j
        E[col, col] = p.eigenvalue.real
        X[:, col] = p.vector.real
    return RealEigenpairs(n=n, m=m, t=t, X=X, E=E)


def decode(ep: RealEigenpairs) -> list:
    """Unpack real-form eigendata back into a list of Eigenpair values.

    Complex blocks yield the representative with the stored sign of the
    imaginary part; the implied conjugate member is not materialized.
    """
    out = []
    for j in range(ep.t):
        lam = complex(ep.E[2 * j, 2 * j], ep.E[2 * j, 2 * j + 1])
        out.append(Eigenpair(lam, ep.X[:, 2 * j] + 1j * ep.X[:, 2 * j + 1]))
    for col in range(2 * ep.t, ep.m):
        out.append(Eigenpair(complex(ep.E[col, col]), ep.X[:, col].astype(complex)))
    return out
