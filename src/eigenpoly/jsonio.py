"""JSON wire formats for eigendata, polynomials, bases, and reports.

All emitted numbers carry 17 significant digits so float64 values survive a
round trip and repeated runs produce byte-identical output.  The stdlib
encoder offers no hook for float formatting, hence the small writer here.

Formats
-------
eigendata     {"n": int, "eigenpairs": [{"lambda": {"re", "im"},
               "vector": {"re": [...], "im": [...]}}]}
polynomial    {"n": int, "k": int, "monic": true,
               "coefficients": [{"i": int, "matrix": [[...]]}]}
custom basis  {"n": int, "matrices": [[[...]], ...]}

Matrices are nested row-major arrays.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .eigendata import Eigenpair, RealEigenpairs, encode
from .structures import StructureBasis, load_custom_basis

__all__ = [
    "dumps",
    "eigendata_to_obj",
    "load_custom_basis_file",
    "load_eigendata",
    "load_polynomial",
    "obj_to_eigenpairs",
    "polynomial_to_obj",
]


def _format(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"cannot serialize non-finite number {value!r}")
        return f"{value:.17g}"
    raise TypeError(f"cannot serialize value of type {type(value).__name__}")


def _is_scalar(v) -> bool:
    return v is None or isinstance(v, (bool, int, float, str, np.integer, np.floating))


def _write(obj, indent: int, parts: list) -> None:
    pad = "  " * indent
    if obj is None:
        parts.append("null")
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif _is_scalar(obj):
        parts.append(_format(obj))
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        for pos, (key, value) in enumerate(obj.items()):
            parts.append(f'{pad}  {json.dumps(str(key))}: ')
            _write(value, indent + 1, parts)
            parts.append(",\n" if pos < len(obj) - 1 else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        items = list(obj)
        if not items:
            parts.append("[]")
        elif all(_is_scalar(v) for v in items):
            parts.append("[" + ", ".join(_format(v) if not isinstance(v, str) else json.dumps(v) for v in items) + "]")
        else:
            parts.append("[\n")
            for pos, value in enumerate(items):
                parts.append(pad + "  ")
                _write(value, indent + 1, parts)
                parts.append(",\n" if pos < len(items) - 1 else "\n")
            parts.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize value of type {type(obj).__name__}")


def dumps(obj) -> str:
    """Render a report object as deterministic pretty-printed JSON."""
    parts: list = []
    _write(obj, 0, parts)
    parts.append("\n")
    return "".join(parts)


def _matrix(rows) -> list:
    return np.asarray(rows, dtype=float).tolist()


def _require(obj, key, context):
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"{context}: missing field {key!r}")
    return obj[key]


def _positive_int(obj, key, context) -> int:
    value = _require(obj, key, context)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{context}: {key} must be a positive integer, got {value!r}")
    return value


def _floats(obj, context) -> np.ndarray:
    # an integer beyond the float range counts as non-finite
    try:
        a = np.asarray(obj, dtype=float)
    except OverflowError:
        a = np.array(np.inf)
    if not np.isfinite(a).all():
        raise ValueError(f"{context}: expected finite numbers")
    return a


def _number_list(obj, context) -> np.ndarray:
    if not isinstance(obj, list) or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj):
        raise ValueError(f"{context}: expected a list of numbers")
    return _floats(obj, context)


def obj_to_eigenpairs(obj) -> tuple:
    """Parse an eigendata object into (n, list of Eigenpair)."""
    n = _positive_int(obj, "n", "eigendata")
    raw = _require(obj, "eigenpairs", "eigendata")
    if not isinstance(raw, list):
        raise ValueError("eigendata: eigenpairs must be a list")
    pairs = []
    for idx, entry in enumerate(raw):
        where = f"eigenpairs[{idx}]"
        lam = _require(entry, "lambda", where)
        vector = _require(entry, "vector", where)
        re_part = _require(lam, "re", f"{where}.lambda")
        im_part = _require(lam, "im", f"{where}.lambda")
        for label, v in (("re", re_part), ("im", im_part)):
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise ValueError(f"{where}.lambda.{label}: expected a number")
            _floats(v, f"{where}.lambda.{label}")
        v_re = _number_list(_require(vector, "re", f"{where}.vector"), f"{where}.vector.re")
        v_im = _number_list(_require(vector, "im", f"{where}.vector"), f"{where}.vector.im")
        if v_re.shape != (n,) or v_im.shape != (n,):
            raise ValueError(f"{where}.vector: parts must have length n = {n}")
        pairs.append(Eigenpair(complex(re_part, im_part), v_re + 1j * v_im))
    return n, pairs


def eigendata_to_obj(n: int, pairs) -> dict:
    return {
        "n": int(n),
        "eigenpairs": [
            {
                "lambda": {"re": p.eigenvalue.real, "im": p.eigenvalue.imag},
                "vector": {"re": p.vector.real.tolist(), "im": p.vector.imag.tolist()},
            }
            for p in pairs
        ],
    }


def load_eigendata(path) -> RealEigenpairs:
    """Read an eigendata JSON file and pack it into real form."""
    with open(path) as fh:
        obj = json.load(fh)
    n, pairs = obj_to_eigenpairs(obj)
    return encode(pairs, n)


def polynomial_to_obj(n: int, k: int, coefficients) -> dict:
    return {
        "n": int(n),
        "k": int(k),
        "monic": True,
        "coefficients": [
            {"i": i, "matrix": _matrix(c)} for i, c in enumerate(coefficients)
        ],
    }


def load_polynomial(path) -> tuple:
    """Read a polynomial JSON file; returns (n, k, [A_0, ..., A_{k-1}])."""
    with open(path) as fh:
        obj = json.load(fh)
    n = _positive_int(obj, "n", "polynomial")
    k = _positive_int(obj, "k", "polynomial")
    if obj.get("monic") is not True:
        raise ValueError("polynomial: only monic polynomials are supported, expected \"monic\": true")
    raw = _require(obj, "coefficients", "polynomial")
    if not isinstance(raw, list) or len(raw) != k:
        raise ValueError(f"polynomial: expected exactly k = {k} coefficient entries")
    coeffs: list = [None] * k
    for entry in raw:
        i = _require(entry, "i", "polynomial.coefficients[]")
        if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < k or coeffs[i] is not None:
            raise ValueError(f"polynomial: coefficient indices must cover 0..k-1 exactly once, got {i!r}")
        m = _floats(_require(entry, "matrix", f"coefficients[{i}]"), f"coefficients[{i}].matrix")
        if m.shape != (n, n):
            raise ValueError(f"coefficients[{i}].matrix: expected {n}x{n}, got shape {m.shape}")
        coeffs[i] = m
    return n, k, coeffs


def load_custom_basis_file(path) -> StructureBasis:
    """Read a custom basis JSON file and validate it."""
    with open(path) as fh:
        obj = json.load(fh)
    n = _positive_int(obj, "n", "basis")
    raw = _require(obj, "matrices", "basis")
    if not isinstance(raw, list) or not raw:
        raise ValueError("basis: matrices must be a nonempty list")
    mats = []
    for idx, rows in enumerate(raw):
        m = _floats(rows, f"basis.matrices[{idx}]")
        if m.shape != (n, n):
            raise ValueError(f"basis.matrices[{idx}]: expected {n}x{n}, got shape {m.shape}")
        mats.append(m)
    return load_custom_basis(mats)
