"""Command line front end.

Subcommands
-----------
solve      eigendata + structure + degree -> solution report JSON
verify     polynomial + eigendata -> residual report, JSON or table
generate   reference or random problems -> eigendata JSON (and ground truth)
basis      inspect a structure basis: dimension and pattern matrix

Exit codes: 0 success, 1 usage or input error, 2 inconsistent system,
3 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import fixtures
from .eigendata import encode
from .jsonio import (
    _number_list,
    dumps,
    eigendata_to_obj,
    load_custom_basis_file,
    load_eigendata,
    load_polynomial,
    polynomial_to_obj,
)
from .solver import DEFAULT_CONSISTENCY_TOL, ToleranceConfig, solve
from .structures import _KINDS, BUILTIN_KINDS, build_basis
from .verify import choose_eigenpairs, companion_eigs, random_polynomial, residual

class _Parser(argparse.ArgumentParser):
    # the contract reserves exit code 2 for inconsistent systems, so usage
    # errors must leave through code 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _resolve_structure(spec: str, n: int):
    if spec in BUILTIN_KINDS:
        return build_basis(spec, n)
    if os.path.exists(spec):
        basis = load_custom_basis_file(spec)
        if basis.n != n:
            raise ValueError(f"custom basis order n = {basis.n} does not match eigendata order n = {n}")
        return basis
    known = ", ".join(sorted(BUILTIN_KINDS))
    raise ValueError(f"structure {spec!r} is neither a built-in tag ({known}) nor an existing file")


def _load_vector(path: str) -> np.ndarray:
    with open(path) as fh:
        return _number_list(json.load(fh), path)


def cmd_solve(args) -> int:
    ep = load_eigendata(args.eigendata)
    basis = _resolve_structure(args.structure, ep.n)
    tol = ToleranceConfig(
        rank_cutoff_factor=args.tol_rank_factor,
        consistency_tol=args.tol_consistency,
    )
    y = _load_vector(args.y) if args.y else None
    poly, family = solve(
        ep,
        basis,
        args.degree,
        y=y,
        tol=tol,
        allow_overdetermined=args.allow_overdetermined,
    )
    report = {
        "consistent": family.consistent,
        "unique": family.unique,
        "rank": family.rank,
        "nullity": family.projector_rank,
        "consistency_residual": family.consistency_residual,
        "residual_fro": None,
        "coefficients": [],
        "tolerances": {
            "consistency_tol": tol.consistency_tol,
            "rank_cutoff_factor": tol.rank_cutoff(ep.m * ep.n, args.degree * basis.r),
        },
    }
    if poly is not None:
        report["residual_fro"] = residual(poly, ep).fro
        report["coefficients"] = [
            {"i": i, "matrix": c.dense.tolist(), "coords": c.coords.tolist()}
            for i, c in enumerate(poly.coefficients)
        ]
    _emit(dumps(report), args.output)
    return 0 if family.consistent else 2


def cmd_verify(args) -> int:
    n, k, coeffs = load_polynomial(args.polynomial)
    ep = load_eigendata(args.eigendata)
    report = residual(coeffs, ep)
    if args.format == "table":
        lines = [
            f"fro       {report.fro:.17g}",
            f"relative  {report.relative:.17g}",
            "pair  residual",
        ]
        lines += [f"{i:<5d} {v:.17g}" for i, v in enumerate(report.per_pair)]
        _emit("\n".join(lines) + "\n", args.output)
    else:
        obj = {
            "fro": report.fro,
            "relative": report.relative,
            "per_pair": list(report.per_pair),
        }
        _emit(dumps(obj), args.output)
    return 0 if report.relative <= args.tol_consistency else 3


def cmd_generate(args) -> int:
    ground_truth = None
    if args.kind == "example1":
        n, pairs = 3, fixtures.example1_eigenpairs()
    elif args.kind == "example2":
        n, pairs = 4, fixtures.example2_eigenpairs()
    elif args.kind == "example3":
        n = 50
        pairs = fixtures.example3_eigenpairs(args.m if args.m is not None else 4)
        ground_truth = fixtures.generate_example3()
    else:
        for field in ("n", "k", "structure", "m"):
            if getattr(args, field) is None:
                raise ValueError(f"generate random requires --{field}")
        basis = _resolve_structure(args.structure, args.n)
        rng = np.random.default_rng(args.seed)
        ground_truth = random_polynomial(basis, args.k, rng)
        pairs = choose_eigenpairs(companion_eigs(ground_truth), args.m, rng)
        n = args.n
    # validate before writing anything
    encode(pairs, n)
    if args.ground_truth and ground_truth is None:
        raise ValueError(f"kind {args.kind!r} has no generator polynomial to write")
    _emit(dumps(eigendata_to_obj(n, pairs)), args.output)
    if args.ground_truth:
        obj = polynomial_to_obj(ground_truth.n, ground_truth.k, ground_truth.dense_coefficients())
        with open(args.ground_truth, "w") as fh:
            fh.write(dumps(obj))
    return 0


def cmd_basis(args) -> int:
    if args.structure in BUILTIN_KINDS:
        if args.n is None:
            raise ValueError("--n is required with a built-in structure tag")
        basis = build_basis(args.structure, args.n)
        formula = _KINDS[args.structure][1]
        # the triplets must use every one of the r coordinates the formula gives
        check = "ok" if np.unique(basis.index).size == basis.r else "MISMATCH"
        lines = [
            f"kind: {basis.kind}",
            f"n: {basis.n}",
            f"r: {basis.r}",
            f"dimension formula: {formula} = {basis.r} ({check})",
        ]
    elif os.path.exists(args.structure):
        basis = load_custom_basis_file(args.structure)
        lines = [f"kind: {basis.kind}", f"n: {basis.n}", f"r: {basis.r}"]
    else:
        raise ValueError(f"structure {args.structure!r} is neither a built-in tag nor an existing file")
    if args.print_p:
        lines.append("pattern (row col value):")
        # the row-major order of the pattern matrix P, without forming P
        entry = basis.rows + basis.n * basis.cols
        order = np.lexsort((basis.index, entry))
        lines += [f"{i} {j} {v:.17g}" for i, j, v in zip(entry[order], basis.index[order], basis.values[order])]
    _emit("\n".join(lines) + "\n", args.output)
    return 0


# the parser holds no per-call state (parse_args returns a fresh Namespace,
# no argument appends, no default is mutable), so one build serves every call
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="eigenpoly", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an inverse eigenpair problem")
    p_solve.add_argument("eigendata", help="eigendata JSON file")
    p_solve.add_argument("structure", help="built-in structure tag or custom basis JSON file")
    p_solve.add_argument("degree", type=int, help="polynomial degree k")
    p_solve.add_argument("--y", help="JSON file with a free-parameter vector of length k*r")
    p_solve.add_argument("--tol-consistency", type=float, default=DEFAULT_CONSISTENCY_TOL)
    p_solve.add_argument("--tol-rank-factor", type=float, default=None,
                         help="rank cutoff as a multiple of the largest singular value")
    p_solve.add_argument("--allow-overdetermined", action="store_true",
                         help="accept more than k*n eigenpair columns")
    p_solve.add_argument("--output", help="write the report here instead of stdout")

    p_verify = sub.add_parser("verify", help="check eigenpairs against a polynomial")
    p_verify.add_argument("polynomial", help="polynomial JSON file")
    p_verify.add_argument("eigendata", help="eigendata JSON file")
    p_verify.add_argument("--tol-consistency", type=float, default=DEFAULT_CONSISTENCY_TOL)
    p_verify.add_argument("--format", choices=("json", "table"), default="json")
    p_verify.add_argument("--output", help="write the report here instead of stdout")

    p_gen = sub.add_parser("generate", help="emit eigendata for reference or random problems")
    p_gen.add_argument("kind", choices=("example1", "example2", "example3", "random"))
    p_gen.add_argument("--m", type=int, default=None, help="eigendata columns to select")
    p_gen.add_argument("--n", type=int, default=None, help="matrix order (random)")
    p_gen.add_argument("--k", type=int, default=None, help="polynomial degree (random)")
    p_gen.add_argument("--structure", default=None, help="structure tag or basis file (random)")
    p_gen.add_argument("--seed", type=int, default=0, help="random seed")
    p_gen.add_argument("--ground-truth", help="also write the generator polynomial JSON here")
    p_gen.add_argument("--output", help="write eigendata here instead of stdout")

    p_basis = sub.add_parser("basis", help="inspect a structure basis")
    p_basis.add_argument("structure", help="built-in structure tag or custom basis JSON file")
    p_basis.add_argument("--n", type=int, default=None, help="matrix order for built-in tags")
    p_basis.add_argument("--print-p", action="store_true", help="also print the pattern matrix as triplets")
    p_basis.add_argument("--output", help="write the summary here instead of stdout")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # looked up on every call, not bound into the shared parser, so a
        # wrapper put on a cmd_* function (perfbench's tracer) takes effect
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, OSError) as exc:
        print(f"eigenpoly: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
