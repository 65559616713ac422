"""Linear matrix structures stored as coordinate triplets.

A structure is a linear subspace of real n-by-n matrices with an ordered
basis S_1, ..., S_r; a member is A = sum_l alpha_l * S_l.  A basis is held
as triplet arrays (rows, cols, index, values): S_{index[t]} has values[t]
at (rows[t], cols[t]).  Built-in kinds generate them from index rules,
custom bases from the nonzeros of their matrices.  Realizing a member,
extracting the coordinates of a built-in member and assembling the
solver's system work on the triplets, so the cost grows with the nonzeros,
not with n^2 * r.  The triplets are the only stored form of a basis.

Built-in kinds have {-1, 0, 1} basis matrices with disjoint supports.
Custom bases only need linear independence, which is checked on load.

``StructureBasis.blocks`` splits the rows of A and the coordinates by one
rule read off the triplets.  When every S_l has its entries in a single row
of A, as for full, diagonal, tridiagonal and pentadiagonal, each row with
entries is a block holding the coordinates that live in it; otherwise one
block holds every row with entries and all coordinates.  A coordinate acts
on the rows of its own block only, which makes the solver's system block
diagonal.  Equal blocks are listed once, with their copies: when every row
block has the same size and the same (place of l in the block, column,
value) triplets, as for full at n >= 2, the rows form one block with one
copy per row, so the solver builds and factorizes it once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .eigendata import _frozen

__all__ = [
    "BUILTIN_KINDS",
    "StructureBasis",
    "StructureMembershipError",
    "StructuredMatrix",
    "build_basis",
    "builtin_dimension",
    "coords_of",
    "load_custom_basis",
    "realize",
]

_MEMBERSHIP_TOL = 1e-10


class StructureMembershipError(ValueError):
    """Raised when a matrix does not lie in the claimed structure subspace."""


@dataclass(frozen=True, eq=False)
class StructureBasis:
    """An ordered basis of a linear subspace of n-by-n matrices.

    Attributes
    ----------
    kind : str
        One of the built-in structure tags, or ``"custom"``.
    n : int
        Matrix order.
    r : int
        Subspace dimension.
    rows, cols, index, values : ndarray
        Read-only triplets: S_{index[t]}[rows[t], cols[t]] = values[t].
        No (row, col, index) position is listed twice.
    """

    kind: str
    n: int
    r: int
    rows: np.ndarray = field(repr=False)
    cols: np.ndarray = field(repr=False)
    index: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    @cached_property
    def plans(self) -> dict:
        """The solver's QR sweep plans of this basis, by degree k, filled
        on first use (see ``solver.assemble``)."""
        return {}

    @cached_property
    def blocks(self) -> tuple:
        """The split of U into distinct blocks, as (rows of A, coordinates)
        pairs of shapes (copies, |P|) and (copies, |C|), one row per copy.

        When each S_l has all its entries in one row of A, every row with
        entries is a block holding the coordinates of that row.  If those
        row blocks all have the same size and the same triplets (place of
        l in the block, column, value), they are copies of one block.
        Otherwise every row block has one copy, and when some S_l spans two
        rows, one block holds every row with entries and all r coordinates.
        Rows and coordinates ascend within a copy, and copies and blocks are
        ordered by row.  Rows that no S_l touches belong to no block.
        """
        home = np.zeros(self.r, dtype=self.rows.dtype)
        home[self.index] = self.rows  # the row of one triplet of each S_l
        if not np.array_equal(home[self.index], self.rows):
            touched = np.flatnonzero(np.bincount(self.rows, minlength=self.n))
            return ((_frozen(touched[None]), _frozen(np.arange(self.r)[None])),)
        order = np.argsort(home, kind="stable")  # coordinates ascend within a row
        cuts = np.flatnonzero(np.diff(home[order])) + 1
        if self._copies_of_one(order, cuts):
            C = order.reshape(cuts.size + 1, -1)
            return ((_frozen(home[C[:, :1]]), _frozen(C)),)
        return tuple((_frozen(home[C[None, :1]]), _frozen(C[None])) for C in np.split(order, cuts))

    def _copies_of_one(self, order: np.ndarray, cuts: np.ndarray) -> bool:
        """Whether the row blocks that ``order`` lists, cut at ``cuts``, all
        have the same size and the same (place, column, value) triplets.

        Within a row block no (place, column) pair repeats, so the blocks
        are equal iff each holds as many triplets as the first and every
        triplet finds its value at its (place, column) in the first."""
        width, rest = divmod(order.size, cuts.size + 1)
        if rest or not np.array_equal(cuts, np.arange(width, order.size, width)):
            return False
        at = np.empty(self.r, dtype=np.intp)
        at[order] = np.arange(self.r)
        copy, place = np.divmod(at[self.index], width)
        if np.any(np.bincount(copy) != np.count_nonzero(copy == 0)):
            return False
        key = place * self.n + self.cols
        first = np.zeros(width * self.n)
        first[key[copy == 0]] = self.values[copy == 0]
        return bool(np.array_equal(first[key], self.values))


@dataclass(frozen=True, eq=False)
class StructuredMatrix:
    """A matrix certified to lie in a structure subspace.

    Carries the coordinate vector and the realized dense matrix, so
    dense = sum_l coords[l] * S_l holds by construction for the basis it
    was realized from.
    """

    coords: np.ndarray = field(repr=False)
    dense: np.ndarray = field(repr=False)


def _single(i, j, index=None):
    # S_l has a one at (i[l], j[l]), or at every (i[t], j[t]) with index[t] = l
    return i, j, np.arange(i.size) if index is None else index, np.ones(i.size)


def _paired(i, j, sign):
    # S_l = e_i e_j^T + sign * e_j e_i^T, a single one where i = j
    idx, off = np.arange(i.size), i != j
    return np.r_[i, j[off]], np.r_[j, i[off]], np.r_[idx, idx[off]], np.r_[np.ones(i.size), np.full(off.sum(), sign)]


def _band(n, offsets):
    # one matrix per entry (i, i + d), diagonal d after diagonal d
    i = np.concatenate([np.arange(max(0, -d), n - max(0, d)) for d in offsets])
    d = np.concatenate([np.full(n - abs(d), d) for d in offsets])
    return i, i + d


def _grid(n):
    # every (i, j), column by column
    j, i = np.divmod(np.arange(n * n), n)
    return i, j


def _constant_along(n, key):
    # one matrix per value of key(i, j): a diagonal or an anti-diagonal
    i, j = _grid(n)
    return _single(i, j, key(i, j))


# kind -> (builder, formula text as ``basis`` prints it, dimension at order n,
# smallest n for which the dimension formula yields a nonempty basis)
_KINDS = {
    # upper triangle, column-major: (0,0), (0,1), (1,1), (0,2), ...
    "symmetric": (lambda n: _paired(*np.tril_indices(n)[::-1], 1.0), "n(n+1)/2", lambda n: n * (n + 1) // 2, 1),
    # strict upper triangle, row-major: (0,1), (0,2), ..., (1,2), ...
    "skew_symmetric": (lambda n: _paired(*np.triu_indices(n, 1), -1.0), "n(n-1)/2", lambda n: n * (n - 1) // 2, 2),
    "tridiagonal": (lambda n: _single(*_band(n, (0, 1, -1))), "3n-2", lambda n: 3 * n - 2, 1),
    "symmetric_tridiagonal": (lambda n: _paired(*_band(n, (0, 1)), 1.0), "2n-1", lambda n: 2 * n - 1, 1),
    "pentadiagonal": (lambda n: _single(*_band(n, (0, 1, -1, 2, -2))), "5n-6", lambda n: 5 * n - 6, 3),
    # one matrix per anti-diagonal i + j = s, from the top-left corner down
    "hankel": (lambda n: _constant_along(n, lambda i, j: i + j), "2n-1", lambda n: 2 * n - 1, 1),
    # one matrix per diagonal j - i = d, from the bottom-left corner up
    "toeplitz": (lambda n: _constant_along(n, lambda i, j: j - i + n - 1), "2n-1", lambda n: 2 * n - 1, 1),
    "diagonal": (lambda n: _single(*_band(n, (0,))), "n", lambda n: n, 1),
    "full": (lambda n: _single(*_grid(n)), "n^2", lambda n: n * n, 1),
}

BUILTIN_KINDS = tuple(_KINDS)


def _kind(kind: str, n: int) -> tuple:
    """The builder and dimension formula of a built-in kind valid at order n."""
    if kind == "custom":
        raise ValueError("custom bases are loaded from explicit matrices, use load_custom_basis")
    if kind not in _KINDS:
        known = ", ".join(sorted(_KINDS))
        raise ValueError(f"unknown structure kind {kind!r}, expected one of: {known}")
    builder, _, dimension, least = _KINDS[kind]
    if n < least:
        raise ValueError(f"structure kind {kind!r} needs n >= {least}, got n = {n}")
    return builder, dimension


def builtin_dimension(kind: str, n: int) -> int:
    """Closed-form subspace dimension of a built-in kind at order n."""
    return _kind(kind, n)[1](n)


def build_basis(kind: str, n: int) -> StructureBasis:
    """Construct the canonical basis of a built-in structure kind.

    Parameters
    ----------
    kind : str
        One of ``BUILTIN_KINDS``.  The tag ``"custom"`` is rejected here;
        user-supplied bases go through :func:`load_custom_basis`.
    n : int
        Matrix order, at least 1 (2 for skew_symmetric, 3 for pentadiagonal).

    Returns
    -------
    StructureBasis
    """
    builder, dimension = _kind(kind, n)
    return StructureBasis(kind, n, dimension(n), *map(_frozen, builder(n)))


def load_custom_basis(matrices: Sequence[np.ndarray]) -> StructureBasis:
    """Wrap user-supplied basis matrices after checking linear independence.

    Parameters
    ----------
    matrices : sequence of ndarray
        Nonempty list of square matrices of a common order.

    Returns
    -------
    StructureBasis
        With ``kind="custom"``.

    Raises
    ------
    ValueError
        On empty input, shape mismatch, or linearly dependent matrices.
    """
    if len(matrices) == 0:
        raise ValueError("custom basis needs at least one matrix")
    mats = [np.asarray(m, dtype=float) for m in matrices]
    for idx, m in enumerate(mats):
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
            raise ValueError(f"basis matrix {idx} is not a nonempty square 2-D matrix, got shape {m.shape}")
        if m.shape != mats[0].shape:
            raise ValueError(f"basis matrix {idx} is not {len(mats[0])}x{len(mats[0])}, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError(f"basis matrix {idx} has non-finite entries")
    stack = np.stack(mats)
    index, rows, cols = np.nonzero(stack)
    basis = StructureBasis("custom", len(mats[0]), len(mats), *map(_frozen, (rows, cols, index, stack[index, rows, cols])))
    P = _stacked_columns(basis)
    sv = np.linalg.svd(P, compute_uv=False)
    cutoff = np.finfo(float).eps * max(P.shape) * sv[0]
    rank = int(np.count_nonzero(sv > cutoff))
    if rank < len(mats):
        raise ValueError(
            f"custom basis matrices are linearly dependent, rank {rank} < {len(mats)}"
        )
    return basis


def _stacked_columns(basis: StructureBasis) -> np.ndarray:
    """The n^2-by-r matrix whose column l is S_l stacked column by column,
    built for one call and not kept.  Entries no triplet lists are +0.0,
    also where a custom matrix held -0.0."""
    P = np.zeros((basis.n * basis.n, basis.r))
    P[basis.rows + basis.n * basis.cols, basis.index] = basis.values
    return P


def realize(basis: StructureBasis, coords: np.ndarray) -> StructuredMatrix:
    """Realize the dense matrix sum_l coords_l * S_l as a StructuredMatrix."""
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (basis.r,):
        raise ValueError(f"expected {basis.r} coordinates, got shape {coords.shape}")
    # column-major: a C-ordered array changes the last digits of the residuals
    dense = np.zeros((basis.n, basis.n), order="F")
    np.add.at(dense, (basis.rows, basis.cols), basis.values * coords[basis.index])
    return StructuredMatrix(coords=_frozen(coords), dense=_frozen(dense))


def coords_of(basis: StructureBasis, a: np.ndarray) -> np.ndarray:
    """Extract the coordinate vector of a matrix in the structure subspace.

    Built-in basis matrices have disjoint supports, so each coordinate is
    read off the triplets as sum_t s_t a[p_t, q_t] / sum_t s_t^2.  Custom
    bases solve for the coordinates by least squares on the stacked
    columns of their matrices.  The reconstruction is then verified so
    matrices outside the subspace are rejected.

    Raises
    ------
    StructureMembershipError
        If ||realize(coords) - a||_F > 1e-10 * max(1, ||a||_F).
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (basis.n, basis.n):
        raise ValueError(f"expected a {basis.n}x{basis.n} matrix, got shape {a.shape}")
    if basis.kind == "custom":
        coords = np.linalg.lstsq(_stacked_columns(basis), a.reshape(-1, order="F"), rcond=None)[0]
    else:
        weights = np.bincount(basis.index, basis.values * basis.values, basis.r)
        coords = np.bincount(basis.index, basis.values * a[basis.rows, basis.cols], basis.r) / weights
    gap = np.linalg.norm(realize(basis, coords).dense - a)
    if gap > _MEMBERSHIP_TOL * max(1.0, np.linalg.norm(a, "fro")):
        raise StructureMembershipError(
            f"matrix is not {basis.kind} within tolerance "
            f"(reconstruction gap {gap:.3e}, tol {_MEMBERSHIP_TOL:.1e})"
        )
    return coords
