"""Shared helpers: CLI driver, random instance factory, readers of the
shipped reference files, and the dense SVD oracle that the block solve is
checked against."""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from eigenpoly.cli import main as cli_main
from eigenpoly.eigendata import RealEigenpairs
from eigenpoly.jsonio import load_eigendata, load_polynomial
from eigenpoly.solver import ToleranceConfig
from eigenpoly.structures import _KINDS, BUILTIN_KINDS, build_basis, load_custom_basis
from eigenpoly.verify import companion_eigs, random_polynomial

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
EPS = np.finfo(float).eps


def reference_eigendata(example):
    """Real-form eigendata of a shipped reference problem, e.g. "example1"."""
    return load_eigendata(FIXTURES / f"{example}_eigendata.json")


def reference_solution(example):
    """The printed solution [A_0, A_1] of a shipped reference problem."""
    return load_polynomial(FIXTURES / f"{example}_solution.json")[2]


def reference_json(name):
    """A shipped reference file as parsed JSON."""
    with open(FIXTURES / name) as fh:
        return json.load(fh)


def example3_targets(m):
    """The frozen eigenvalue targets of the order-50 problem for m columns."""
    return [complex(t["re"], t["im"]) for t in reference_json("example3_bands.json")[f"m{m}_eigenvalue_targets"]]


def example3_uniqueness(table):
    """The "expected" or "observed" uniqueness table of the order-50 problem, by m."""
    return {int(m): u for m, u in reference_json("example3_bands.json")[f"{table}_unique"].items()}


# smallest order each built-in structure supports, as the kind table holds it
MIN_ORDER = {kind: spec[3] for kind, spec in _KINDS.items()}


def builtin_cases(n_values=range(2, 7), k_values=range(1, 5)):
    """Every (kind, n, k) combination valid for the built-in structures."""
    for kind in BUILTIN_KINDS:
        for n in n_values:
            if n < MIN_ORDER[kind]:
                continue
            for k in k_values:
                yield kind, n, k


def random_instance(kind, n, k, seed):
    """A structured generator polynomial plus its full eigenpair list."""
    basis = build_basis(kind, n)
    rng = np.random.default_rng(seed)
    gen = random_polynomial(basis, k, rng)
    return basis, gen, companion_eigs(gen)


def evaluate(poly, lam):
    """P(lambda) = lambda^k I + sum_i lambda^i A_i of a MonicPolynomial, densely."""
    acc = lam**poly.k * np.eye(poly.n, dtype=complex)
    for i, c in enumerate(poly.coefficients):
        acc += lam**i * c.dense
    return acc


def pair_residual(poly, pair):
    """Forward residual of one eigenpair, normalized by eigenvalue growth."""
    lam, z = pair.eigenvalue, pair.vector
    return float(np.linalg.norm(evaluate(poly, lam) @ z)) / (1.0 + abs(lam)) ** poly.k


def gated_pairs(gen, pairs, tol=1e-9):
    """Keep eigenpairs the forward oracle itself certifies to high accuracy.

    Clustered eigenvalues (structural for some coefficient patterns) limit
    eigenvector accuracy to roughly sqrt(eps); those columns are not valid
    inverse-problem data at tight tolerances and are dropped here.
    """
    return [p for p in pairs if pair_residual(gen, p) <= tol]


@dataclass
class CliResult:
    code: int
    out: str
    err: str


def run_cli(*argv) -> CliResult:
    """Run the CLI in-process, capturing exit code and both streams."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = int(exc.code) if exc.code is not None else 0
    return CliResult(code, out.getvalue(), err.getvalue())


def max_entry_gap(computed, expected) -> float:
    """Largest entrywise difference between two coefficient sequences."""
    return max(
        float(np.max(np.abs(np.asarray(c) - np.asarray(e))))
        for c, e in zip(computed, expected)
    )


def random_real_form(n, m, seed):
    """Real-form eigendata with one complex block and m - 2 real columns."""
    rng = np.random.default_rng(seed)
    E = np.diag(rng.uniform(-2, 2, m))
    E[1, 1] = E[0, 0]
    E[0, 1], E[1, 0] = 0.7, -0.7
    return RealEigenpairs(n=n, m=m, t=1, X=rng.standard_normal((n, m)), E=E)


def pattern(basis):
    """The n^2-by-r matrix P with vec(A) = P @ coords, vec stacking columns:
    P[rows + n*cols, index] = values, the layout in which the custom-basis
    SVD and least squares of the package read it."""
    P = np.zeros((basis.n * basis.n, basis.r))
    P[basis.rows + basis.n * basis.cols, basis.index] = basis.values
    return P


def row_basis(rows):
    """Basis matrices e_p v^T of a row-separable custom basis: rows[p] lists
    the vectors v of row p, and the a-th vectors of all rows come a-th."""
    n = len(rows)
    return load_custom_basis(
        [np.outer(np.eye(n)[p], vs[a]) for a in range(len(rows[0])) for p, vs in enumerate(rows) if a < len(vs)]
    )


def dense_oracle(system, tol=ToleranceConfig()):
    """Rank, x0 and singular values from one SVD of the whole U."""
    W, sigma, Vt = np.linalg.svd(system.U, full_matrices=False)
    cutoff = tol.rank_cutoff(*system.U.shape) * sigma[0]
    rank = int(np.count_nonzero(sigma > cutoff))
    x0 = Vt[:rank].T @ ((W[:, :rank].T @ system.b) / sigma[:rank])
    return rank, x0, sigma, cutoff


def assert_matches_dense_oracle(system, family, tol=ToleranceConfig()):
    rank, x0, sigma, cutoff = dense_oracle(system, tol)
    # the comparison only means something where the rank is clear
    assert sigma[rank - 1] >= 1e3 * cutoff and (rank == sigma.size or sigma[rank] <= cutoff / 10)
    assert family.rank == rank
    assert family.projector_rank == system.U.shape[1] - rank
    assert family.unique == (rank == system.U.shape[1])
    gap = np.linalg.norm(system.U @ x0 - system.b)
    assert family.consistent == (gap <= tol.consistency_tol * max(1.0, np.linalg.norm(system.b)))
    # first-order perturbation bounds for the truncated least-squares solution
    kappa = sigma[0] / sigma[rank - 1]
    scale = 1e3 * EPS * kappa
    assert np.linalg.norm(system.U @ (family.x0 - x0)) <= scale * np.linalg.norm(system.b)
    assert np.linalg.norm(family.x0 - x0) <= scale * (np.linalg.norm(x0) + kappa * gap / sigma[0])
    np.testing.assert_allclose(family.consistency_residual, gap, rtol=1e-6, atol=scale * np.linalg.norm(system.b))
    # the columns of N are project(e_i): N must be the orthogonal projector
    # onto the null space of U, of trace k r - rank
    cols = system.U.shape[1]
    N = np.column_stack([family.project(e) for e in np.eye(cols)])
    np.testing.assert_allclose(N @ N, N, atol=1e2 * EPS * cols)
    np.testing.assert_allclose(N, N.T, atol=1e2 * EPS * cols)
    np.testing.assert_allclose(np.trace(N), cols - rank, atol=1e2 * EPS * cols)
    np.testing.assert_allclose(system.U @ N, 0.0, atol=scale * sigma[0])
