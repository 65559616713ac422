"""Certified QR sweep for a tall chain block of the solver's system.

A block U_j whose columns each touch a narrow window of rows of A, as for
a symmetric tridiagonal chain, is block-banded.  A QR sweep along the chain
(George & Heath, LAA 34, 1980) factors it without an SVD.  The columns
are sorted by the step of their last row of A, ties by the step of their
first, so the columns a step touches are one window of that order.  The
rows p of A are visited in turn; each step stacks the m rows of U_j at p
in its window, with b appended as a last column, under the rows carried
from the step before, and QR-factors that small front.  The rows for the
columns whose last row is p are final rows of [R | Q^T b], and the others
are carried on.  R is banded, so block back-substitution gives R^{-1} and
the least-squares solution R^{-1} Q^T b.

The sweep answers only when it can certify full column rank.  With
sigma_max(U_j) <= min(||U_j||_F, sqrt(||U_j||_1 ||U_j||_inf)) and
sigma_min(U_j) = 1 / ||R^{-1}||_2 >= 1 / min(||R^{-1}||_F,
sqrt(||R^{-1}||_1 ||R^{-1}||_inf)), the rank is full when the lower bound on
sigma_min is at least CLEAR_GAP times the rank cutoff taken on the upper
bound of sigma_max.  That is the clear-gap rule of Hansen (*Rank-Deficient
and Discrete Ill-Posed Problems*, SIAM 1998): the SVD would keep every
column too.  Otherwise the caller takes the SVD.

When to try is a fixed rule on the system's shape and the plan, with no
option: ``solver.analyze`` calls ``solve`` only for one block with one
copy, at least as many rows as columns and at least
``solver.SWEEP_MIN_COLS`` columns, and ``solve`` refuses when a front of
the plan would hold more than FRONT of the columns.  Both figures come
from timing the sweep against the SVD (see the README).  The plan of a
basis at degree k is built on first use and kept here for as long as the
basis lives.
"""

from __future__ import annotations

import weakref

import numpy as np

# no front may hold more than this share of the block's columns
FRONT = 1 / 4
# rows per block of the back-substitution
SOLVE_ROWS = 16
# the lower bound on sigma_min must clear the rank cutoff by this factor,
# the clear-gap rule the block-oracle tests apply to the SVD
CLEAR_GAP = 1e3

# basis -> {k: plan or None}
_plans = weakref.WeakKeyDictionary()


def solve(U: np.ndarray, b: np.ndarray, basis, k: int, rank_cutoff: float) -> np.ndarray | None:
    """The least-squares solution of U x = b when the sweep certifies that U
    has full column rank, else None.

    U is the one block of ``basis`` at degree k, with m rows per row of A
    (rows c*|P| + p), and ``rank_cutoff`` is the factor on sigma_max(U) at
    or below which the SVD counts a singular value as zero
    (``ToleranceConfig.rank_cutoff``).  None also when a front is too wide
    or a step would have fewer rows than columns ending there.
    """
    plans = _plans.setdefault(basis, {})
    if k not in plans:
        plans[k] = _plan(basis, k)
    if plans[k] is None:
        return None
    order, lo, ends, hi, elim = plans[k]
    height, width = len(order), U.shape[1]
    m = len(U) // height
    # a step keeps min(c + m, window + 1) rows: f final ones, b's residual
    # last and the rest carried, so a short step is refused before any QR
    c = 0
    for f, w in zip(ends.tolist(), (hi - lo).tolist()):
        if c + m < f:
            return None
        c = min(c + m, w) - f
    T = np.zeros((width, width + 1))  # [R | Q^T b], columns in the order of elim
    carried = np.zeros((0, 1))
    for p, a, f, z in zip(order, lo, ends, hi):
        c, w = carried.shape
        G = np.zeros((c + m, z - a + 1))
        G[:c, : w - 1] = carried[:, :-1]
        G[:c, -1] = carried[:, -1]
        G[c:, :-1] = U[p::height, elim[a:z]]
        G[c:, -1] = b[p::height]
        G = np.linalg.qr(G, mode="r")
        T[a : a + f, a:z] = G[:f, :-1]
        T[a : a + f, width] = G[:f, -1]
        carried = G[f : z - a, f:]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        floor = CLEAR_GAP * rank_cutoff * _norm_bound(U)
        if not np.abs(np.diagonal(T)).min() >= floor:  # sigma_min(R) <= min |R_ii|
            return None
        Z = _back_substitute(T, np.repeat(hi, ends))
        if not 1.0 / _norm_bound(Z[:, :width]) >= floor:
            return None
    x = np.empty(width)
    x[elim] = Z[:, width]
    return x


def _back_substitute(T: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """[R^{-1} | R^{-1} Q^T b] from T = [R | Q^T b] by block
    back-substitution in blocks of SOLVE_ROWS rows, from the last up: row i
    of R has no entries from column reach[i] on, and reach does not fall."""
    width = len(T)
    Z = np.zeros((width, width + 1))
    for e0 in reversed(range(0, width, SOLVE_ROWS)):
        mid = min(e0 + SOLVE_ROWS, width)
        end = reach[mid - 1]
        rhs = -(T[e0:mid, mid:end] @ Z[mid:end, e0:])
        rhs[:, : mid - e0] += np.eye(mid - e0)
        rhs[:, -1] += T[e0:mid, width]
        Z[e0:mid, e0:] = np.linalg.solve(T[e0:mid, e0:mid], rhs)
    return Z


def _norm_bound(a: np.ndarray) -> float:
    """min(||a||_F, sqrt(||a||_1 ||a||_inf)), an upper bound on ||a||_2,
    read in slabs of rows so that no copy of the whole of a is made."""
    fro, row, col = 0.0, 0.0, np.zeros(a.shape[1])
    for lo in range(0, len(a), 128):
        slab = np.abs(a[lo : lo + 128])
        fro += float(np.vdot(slab, slab))
        row = max(row, float(slab.sum(axis=1).max()))
        col += slab.sum(axis=0)
    return min(np.sqrt(fro), np.sqrt(row * col.max()))


def _plan(basis, k: int) -> tuple | None:
    """The QR sweep of the one block of ``basis`` at degree k, or None when
    its widest front holds more than FRONT of the k |C| columns.

    Column blk*|C| + l of U_j touches the rows of A where S_l has entries.
    ``order`` lists the rows' places in P in breadth-first order
    (``_row_order``), and the front of step s is the columns whose first
    row comes at or before s and whose last row at or after it.  ``elim``
    sorts the columns by the step of their last row, ties by the step of
    their first, so the window elim[lo[s]:hi[s]] holds the front of step s,
    the ends[s] columns ending there first, and maybe columns that start
    later (zero there).  Returns (order, lo, ends, hi, elim).
    """
    ((P, C),) = basis.blocks
    rows, coords = P.shape[1], C.shape[1]
    row_at = np.empty(basis.n, dtype=np.intp)
    row_at[P[0]] = np.arange(rows)
    coord_at = np.empty(basis.r, dtype=np.intp)
    coord_at[C[0]] = np.arange(coords)
    # each (coordinate, row) incidence once, sorted by coordinate
    key = np.sort(coord_at[basis.index] * rows + row_at[basis.rows])
    coord, row = np.divmod(key[np.diff(key, prepend=-1) > 0], rows)
    order = _row_order(coord, row, rows)
    step = np.empty(rows, dtype=np.intp)
    step[order] = np.arange(rows)
    starts = np.flatnonzero(np.diff(coord, prepend=-1))
    first = np.tile(np.minimum.reduceat(step[row], starts), k)
    last = np.tile(np.maximum.reduceat(step[row], starts), k)
    live = np.cumsum(np.bincount(first, minlength=rows) - np.bincount(last + 1, minlength=rows + 1)[:rows])
    if live.max() > FRONT * k * coords:
        return None
    elim = np.lexsort((first, last))
    ends = np.bincount(last, minlength=rows)
    # hi[s] is one past the last place in elim of a column started by step s
    started = np.zeros(rows, dtype=np.intp)
    np.maximum.at(started, first[elim], np.arange(1, k * coords + 1))
    return order, np.cumsum(ends) - ends, ends, np.maximum.accumulate(started), elim


def _row_order(coord: np.ndarray, row: np.ndarray, rows: int) -> np.ndarray:
    """The rows of A in breadth-first order over shared coordinates, started
    from the last row a first search reaches (a pseudo-peripheral row, as
    in George & Liu), so that each coordinate's rows come close together.
    ``coord`` and ``row`` list each incidence once, sorted by coordinate."""
    of_coord = [a.tolist() for a in np.split(row, np.flatnonzero(np.diff(coord)) + 1)]
    by_row = np.argsort(row, kind="stable")
    of_row = [a.tolist() for a in np.split(coord[by_row], np.flatnonzero(np.diff(row[by_row])) + 1)]

    def search(start):
        order, seen, used, i = [], [False] * rows, [False] * len(of_coord), 0
        for root in (start, *range(rows)):  # later roots reach other components
            if seen[root]:
                continue
            seen[root] = True
            order.append(root)
            while i < len(order):
                for c in of_row[order[i]]:
                    if not used[c]:
                        used[c] = True
                        for q in of_coord[c]:
                            if not seen[q]:
                                seen[q] = True
                                order.append(q)
                i += 1
        return order

    return np.array(search(search(0)[-1]))
