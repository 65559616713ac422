"""Self-tests of the benchmark's checks: each plants a wrong answer and expects a rejection.

    python3 perfbench/selftest.py          (or: python3 -m pytest perfbench/selftest.py)

The workloads run at tiny sizes.  Every test first shows that the untouched
output passes its check, then that the check rejects the planted fault.
"""

from __future__ import annotations

import atexit
import copy
import dataclasses
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads  # noqa: E402
from oracle import CheckFailed  # noqa: E402


class TinyBand(workloads.Band):
    N, M, SELECTIONS = 8, 6, 1


class TinyDense(workloads.Dense):
    N, M, SELECTIONS = 4, 6, 1


def _ready(cls):
    wl = cls()
    wl.setup(7)
    return wl


def _rejects(wl, i, out) -> bool:
    try:
        wl.check(i, out)
    except CheckFailed:
        return True
    return False


def _clean(wl, i):
    _, out = wl.run(i)
    assert not _rejects(wl, i, out), "the untouched output must pass"
    return out


def _with_coefficients(poly, coeffs):
    return types.SimpleNamespace(dense_coefficients=lambda: coeffs, coefficients=poly.coefficients)


_ROUNDTRIP = None


def _roundtrip_case(kind):
    """A set-up roundtrip workload and the index of its random case of ``kind``."""
    global _ROUNDTRIP
    if _ROUNDTRIP is None:
        _ROUNDTRIP = _ready(workloads.Roundtrip)
        atexit.register(_ROUNDTRIP.close)
    wl = _ROUNDTRIP
    return wl, next(i for i, c in enumerate(wl.cases) if c["op"] == "random" and c["kind"] == kind)


def _tampered_report(out, change):
    out = list(copy.deepcopy(out))
    change(out[3])
    return tuple(out)


def test_coefficient_off_by_relative_1e_6():
    wl = _ready(TinyBand)
    poly, family = _clean(wl, 0)
    a0, a1 = poly.dense_coefficients()
    assert _rejects(wl, 0, (_with_coefficients(poly, [a0 * (1 + 1e-6), a1]), family))

    rt, i = _roundtrip_case("toeplitz")
    out = _clean(rt, i)

    def scale(report):
        m = report["coefficients"][0]["matrix"]
        report["coefficients"][0]["matrix"] = [[v * (1 + 1e-6) for v in row] for row in m]

    assert _rejects(rt, i, _tampered_report(out, scale))


def test_asymmetric_coefficient_for_symmetric_structure():
    wl = _ready(TinyBand)
    poly, family = _clean(wl, 0)
    a0, a1 = poly.dense_coefficients()
    skewed = a0.copy()
    skewed[0, 1] += 1e-13 * (abs(skewed[0, 1]) or 1.0)
    assert _rejects(wl, 0, (_with_coefficients(poly, [skewed, a1]), family))

    rt, i = _roundtrip_case("symmetric")
    out = _clean(rt, i)

    def skew(report):
        row = report["coefficients"][1]["matrix"][0]
        row[1] += 1e-13 * (abs(row[1]) or 1.0)

    assert _rejects(rt, i, _tampered_report(out, skew))


def test_flipped_consistent_flag():
    wl = _ready(TinyBand)
    poly, family = _clean(wl, 0)
    assert _rejects(wl, 0, (poly, dataclasses.replace(family, consistent=False)))

    rt = _roundtrip_case("symmetric")[0]
    for i, case in enumerate(rt.cases):
        if case["op"] in ("random", "given", "example"):
            out = _clean(rt, i)
            assert _rejects(rt, i, _tampered_report(out, lambda r: r.update(consistent=not r["consistent"]))), case


def test_wrong_rank():
    wl = _ready(TinyDense)
    (p0, f0), member = _clean(wl, 0)
    wrong = dataclasses.replace(f0, rank=f0.rank - 1, projector_rank=f0.projector_rank + 1)
    assert _rejects(wl, 0, ((p0, wrong), member))

    rt, i = _roundtrip_case("tridiagonal")
    out = _clean(rt, i)
    assert _rejects(rt, i, _tampered_report(out, lambda r: r.update(rank=r["rank"] - 1, nullity=r["nullity"] + 1)))


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failures = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
