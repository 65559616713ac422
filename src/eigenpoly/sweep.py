"""Certified QR sweep for a tall chain block of the solver's system.

A block U_j whose columns each touch a narrow window of rows of A, as for
a symmetric tridiagonal chain, is block-banded.  A QR sweep along the chain
(George & Heath, LAA 34, 1980) factors it without an SVD.  The rows p of A
are visited in turn; each step stacks the m rows of U_j at p, with b
appended as a last column, under the rows carried from the step before,
and QR-factors that small front.  The rows for the columns whose last row
is p are final rows of [R | Q^T b], and the others are carried on.  R is
banded, so block back-substitution gives R^{-1} and the least-squares
solution R^{-1} Q^T b.

The sweep answers only when it can certify full column rank.  With
sigma_max(U_j) <= min(||U_j||_F, sqrt(||U_j||_1 ||U_j||_inf)) and
sigma_min(U_j) = 1 / ||R^{-1}||_2 >= 1 / min(||R^{-1}||_F,
sqrt(||R^{-1}||_1 ||R^{-1}||_inf)), the rank is full when the lower bound on
sigma_min is at least CLEAR_GAP times the rank cutoff taken on the upper
bound of sigma_max.  That is the clear-gap rule of Hansen (*Rank-Deficient
and Discrete Ill-Posed Problems*, SIAM 1998): the SVD would keep every
column too.  Otherwise the caller takes the SVD.

When to try is a fixed rule on the system's shape and the plan, with no
option: ``solver.assemble`` asks for a plan only for one block with one
copy, at least as many rows as columns and at least
``solver.SWEEP_MIN_COLS`` columns, and ``plan_for`` returns None when a
front would hold more than FRONT of the columns.  Both figures come from
timing the sweep against the SVD (see the README).
"""

from __future__ import annotations

import numpy as np

# no front may hold more than this share of the block's columns
FRONT = 1 / 4
# rows per block of the back-substitution
SOLVE_ROWS = 16
# the lower bound on sigma_min must clear the rank cutoff by this factor,
# the clear-gap rule the block-oracle tests apply to the SVD
CLEAR_GAP = 1e3


def plan_for(basis, k: int) -> tuple | None:
    """The sweep plan of the one block of ``basis`` at degree k, or None
    when a front is too wide.  Built once per basis and degree and cached
    in ``basis.plans``."""
    if k not in basis.plans:
        basis.plans[k] = _plan(basis, k)
    return basis.plans[k]


def solve(U: np.ndarray, b: np.ndarray, m: int, plan: tuple, rank_cutoff: float) -> np.ndarray | None:
    """The least-squares solution of U x = b when the sweep certifies that U
    has full column rank, else None.

    U has m rows per row of A (rows c*|P| + p), and ``rank_cutoff`` is the
    factor on sigma_max(U) at or below which the SVD counts a singular
    value as zero (``ToleranceConfig.rank_cutoff``).
    """
    steps, solves, elim = plan
    height, width = U.shape
    height //= m
    T = np.zeros((width, width + 1))  # [R | Q^T b], columns in the order they end
    carried = np.zeros((0, 1))
    for p, front, into, f, at, e0 in steps:
        c = len(carried)
        G = np.zeros((c + m, front.size + 1))
        G[:c, into] = carried
        G[c:, :-1] = U[p::height, front]
        G[c:, -1] = b[p::height]
        G = np.linalg.qr(G, mode="r")
        if len(G) < f:  # fewer rows left than columns ending here
            return None
        T[e0 : e0 + f, at] = G[:f]
        carried = G[f : front.size, f:]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        floor = CLEAR_GAP * rank_cutoff * _norm_bound(U)
        if not np.abs(np.diagonal(T)).min() >= floor:  # sigma_min(R) <= min |R_ii|
            return None
        Z = _back_substitute(T, solves)
        if not 1.0 / _norm_bound(Z[:, :width]) >= floor:
            return None
    x = np.empty(width)
    x[elim] = Z[:, width]
    return x


def _back_substitute(T: np.ndarray, solves: tuple) -> np.ndarray:
    """[R^{-1} | R^{-1} Q^T b] from T = [R | Q^T b] by block
    back-substitution, from the last block of rows up: block (e0, f, end)
    is rows e0 to e0 + f of R, whose entries end before column end."""
    width = len(T)
    Z = np.zeros((width, width + 1))
    for e0, f, end in reversed(solves):
        mid = e0 + f
        rhs = -(T[e0:mid, mid:end] @ Z[mid:end, e0:])
        rhs[:, :f] += np.eye(f)
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
    The rows are visited in breadth-first order (``_row_order``), and step
    s holds the columns whose first row comes at or before s and whose last
    row at or after it, those ending at s first.  Each step is (place of its
    row in P, front columns, places of the carried columns and of b in the
    front, number of columns ending, the front's columns in [R | Q^T b],
    the first row there of the columns ending).  ``solves`` merges the rows
    of consecutive steps into blocks of at least SOLVE_ROWS rows for
    ``_back_substitute``, and ``elim`` lists the columns in the order they
    end.
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
    width = k * coords
    elim = np.argsort(last, kind="stable")
    epos = np.empty(width, dtype=np.intp)
    epos[elim] = np.arange(width)
    ends = np.bincount(last, minlength=rows)
    place = np.empty(width, dtype=np.intp)
    steps, solves, rest, lo, end = [], [], np.empty(0, dtype=np.intp), 0, 0
    for s, (p, f, e0) in enumerate(zip(order, ends, np.cumsum(ends) - ends)):
        front = np.flatnonzero((first <= s) & (last >= s))
        front = front[np.argsort(last[front] > s, kind="stable")]
        place[front] = np.arange(front.size)
        into = np.append(place[rest], front.size)
        steps.append((p, front, into, f, np.append(epos[front], width), e0))
        rest = front[f:]
        end = max(end, epos[front].max() + 1)
        if e0 + f - lo >= SOLVE_ROWS or s == rows - 1:
            solves.append((lo, e0 + f - lo, end))
            lo = e0 + f
    return tuple(steps), tuple(solves), elim


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
