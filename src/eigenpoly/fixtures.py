"""Reference problems shipped with the package.

Three mass-spring style problems used by the test-suite and the
``generate`` command: a 3-dof symmetric quadratic, a 4-dof skew-symmetric
quadratic, and an order-50 symmetric tridiagonal quadratic.  Their data
lives in the JSON files of the ``data`` directory next to this module,
which are the only copy; the functions here only read them.  The README
section "Reference problems" describes each file and the two printing
slips in the 4-dof problem's published figures.

The printed reference values are four-decimal truncations, so comparisons
against them belong at the 1e-3 level.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

import numpy as np

from .eigendata import Eigenpair
from .jsonio import obj_to_eigenpairs
from .solver import MonicPolynomial
from .structures import build_basis, realize
from .verify import choose_eigenpairs, companion_eigs

__all__ = [
    "example1_eigenpairs",
    "example2_eigenpairs",
    "example3_eigenpairs",
    "generate_example3",
]

_DATA = Path(__file__).with_name("data")


def _read(name: str):
    with open(_DATA / name) as fh:
        return json.load(fh)


def example1_eigenpairs() -> list:
    """One complex conjugate pair and one real eigenvalue of order 3."""
    return obj_to_eigenpairs(_read("example1_eigendata.json"))[1]


def example2_eigenpairs() -> list:
    """A single complex conjugate pair of order 4."""
    return obj_to_eigenpairs(_read("example2_eigendata.json"))[1]


@lru_cache(maxsize=None)
def _example3() -> tuple:
    """The order-50 polynomial, its eigenpairs and the (m, eigenvalue
    targets) pairs, built once.  All of it is immutable: a frozen
    polynomial with read-only coefficients, and tuples of frozen pairs."""
    bands = _read("example3_bands.json")
    basis = build_basis("symmetric_tridiagonal", bands["n"])
    coeffs = tuple(
        realize(basis, np.concatenate([bands[f"degree{i}"]["diag"], bands[f"degree{i}"]["off"]]))
        for i in range(bands["k"])
    )
    poly = MonicPolynomial(n=bands["n"], k=bands["k"], coefficients=coeffs)
    targets = tuple(
        (size, tuple(complex(t["re"], t["im"]) for t in bands[f"m{size}_eigenvalue_targets"]))
        for size in (4, 6, 10)
    )
    return poly, tuple(companion_eigs(poly)), targets


def generate_example3() -> MonicPolynomial:
    """The order-50 quadratic reference problem with symmetric tridiagonal
    coefficients, built from the band vectors in ``example3_bands.json``."""
    return _example3()[0]


def _nearest(pairs, target: complex) -> Eigenpair:
    return min(pairs, key=lambda p: abs(p.eigenvalue - target))


def example3_eigenpairs(m: int = 4) -> list:
    """Select m columns of eigendata from the order-50 reference polynomial.

    The canonical sizes m in {2, 4, 6, 10} use the frozen eigenvalue
    targets of ``example3_bands.json`` (a conjugate pair counts as two
    columns); m = 2 takes the first m = 4 target.  Any other m starts from
    the m = 4 targets and extends with remaining eigenpairs by increasing
    magnitude.
    """
    if not 1 <= m <= 100:
        raise ValueError(f"m must lie in 1..100, got {m}")
    _, pairs, targets = _example3()
    targets = dict(targets)
    targets[2] = targets[4][:1]
    if m in targets:
        return [_nearest(pairs, t) for t in targets[m]]
    core = [_nearest(pairs, t) for t in targets[4]]
    chosen = choose_eigenpairs(core, m) if m <= 4 else list(core)
    if m > 4:
        rest = sorted(
            (p for p in pairs if p not in chosen),
            key=lambda p: (abs(p.eigenvalue), p.eigenvalue.imag),
        )
        chosen += choose_eigenpairs(rest, m - 4)
    return chosen
