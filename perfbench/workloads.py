"""The three workloads: their seeded inputs, one operation each, and its checks.

Each workload is set up once per process.  ``setup`` covers the import of
eigenpoly, input generation and any basis the workload reuses; warm-up is
left to the caller.  One timed operation is one round of ``round`` calls:
a single solve on the library workloads, the whole cycle on ``roundtrip``.
``run(i)`` performs call ``i`` and returns (seconds spent in the program,
output); ``check(i, output)`` raises ``CheckFailed`` when an output is
wrong and returns True when the call failed in a way the benchmark counts
instead (a rescaling probe whose verdict moved).
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

import oracle
from oracle import require

ROOT = Path(__file__).resolve().parent.parent
# relative accuracy to which the library workloads must recover the generator;
# it also bounds how far the minimal-norm member may exceed the generator's norm
RECOVERY = 1e-6


def _import_library():
    from eigenpoly import solver, structures
    from eigenpoly.eigendata import Eigenpair, encode

    return solver, structures, Eigenpair, encode


def _pairs(Eigenpair, lams, Z, idx):
    return [Eigenpair(complex(lams[i]), Z[:, i]) for i in idx]


def _generated(coeffs, lams, Z, idx, what):
    err = oracle.backward_error(coeffs, lams[idx], Z[:, idx].T)
    require(err <= 1e-10, f"{what}: generated eigendata has backward error {err:.2e}")


class Band:
    """Spring-mass chains: symmetric tridiagonal quadratics, one seeded chain.

    The basis is built once.  An operation encodes one of SELECTIONS
    seeded eigendata selections (M conjugate-pair columns) and runs a
    minimal-norm solve.  At N = 120 the Kronecker assembly and the dense
    n^2 x r pattern dominate.
    """

    N, M, SELECTIONS, KIND = 120, 10, 4, "symmetric_tridiagonal"
    round = 1

    def setup(self, seed: int) -> None:
        self.solver, structures, Eigenpair, self.encode = _import_library()
        rng = np.random.default_rng(seed)
        n = self.N
        stiffness = oracle.spring_chain(rng.uniform(0.5, 2.0, n + 1))
        damping = oracle.spring_chain(rng.uniform(0.02, 0.2, n + 1))
        self.gen = [stiffness, damping]
        lams, Z = oracle.companion_eigenpairs(self.gen)
        self.data = []
        for _ in range(self.SELECTIONS):
            idx = oracle.select_columns(lams, self.M, rng)
            _generated(self.gen, lams, Z, idx, "band")
            self.data.append((lams[idx], Z[:, idx].T, _pairs(Eigenpair, lams, Z, idx)))
        self.gen_norm = float(np.sqrt(sum(np.sum(np.diag(a) ** 2) + np.sum(np.diag(a, 1) ** 2) for a in self.gen)))
        self.basis = structures.build_basis(self.KIND, n)

    def __len__(self) -> int:
        return self.SELECTIONS

    def run(self, i: int):
        pairs = self.data[i][2]
        t0 = time.perf_counter()
        ep = self.encode(pairs, self.N)
        out = self.solver.solve(ep, self.basis, 2)
        return time.perf_counter() - t0, out

    def check(self, i: int, out) -> bool:
        poly, family = out
        lams, vectors, _ = self.data[i]
        require(family.consistent and poly is not None, "band: generated data reported inconsistent")
        coeffs = poly.dense_coefficients()
        require(all(oracle.has_structure(self.KIND, a) for a in coeffs), "band: coefficient leaves the structure")
        err = oracle.backward_error(coeffs, lams, vectors)
        require(err <= 1e-10, f"band: P(lambda) z backward error {err:.2e}")
        r = 2 * self.N - 1
        require(family.rank + family.projector_rank == 2 * r, "band: rank + nullity != k r")
        require(float(np.linalg.norm(family.x0)) <= self.gen_norm * (1 + RECOVERY), "band: minimal-norm member longer than generator")
        if family.unique:
            gap = max(np.linalg.norm(a - g) / np.linalg.norm(g) for a, g in zip(coeffs, self.gen))
            require(gap <= RECOVERY, f"band: unique solution misses the generator by {gap:.2e}")
        return False


class Dense:
    """Full-structure quadratics whose solution family is not unique.

    An operation is a minimal-norm solve plus the family member for one
    seeded free vector y.  At N = 24 and M = 40 < k n the dense SVD of the
    960 x 1152 system dominates; U splits into N row blocks.
    """

    N, M, SELECTIONS, KIND = 24, 40, 3, "full"
    round = 1

    def setup(self, seed: int) -> None:
        self.solver, structures, Eigenpair, encode = _import_library()
        rng = np.random.default_rng(seed)
        n = self.N
        self.gen = [rng.uniform(-1.0, 1.0, (n, n)) for _ in range(2)]
        lams, Z = oracle.companion_eigenpairs(self.gen)
        self.data = []
        for _ in range(self.SELECTIONS):
            idx = oracle.select_columns(lams, self.M, rng)
            _generated(self.gen, lams, Z, idx, "dense")
            # rank(U) = n * rank([X E; X]); the columns of [lambda z; z] span it
            W = np.vstack([lams[idx] * Z[:, idx], Z[:, idx]])
            W = np.hstack([W.real, W[:, lams[idx].imag != 0].imag])
            # the package's cutoff eps * max(m n, k r) * sigma_max, applied to W
            sigma = np.linalg.svd(W, compute_uv=False)
            cutoff = oracle.EPS * max(n * self.M, 2 * n * n) * sigma[0]
            rank = int(np.sum(sigma > cutoff))
            require(sigma[rank - 1] >= 10 * cutoff and (rank == len(sigma) or sigma[rank] <= cutoff / 10), "dense: rank of [X E; X] not clear")
            ep = encode(_pairs(Eigenpair, lams, Z, idx), n)
            self.data.append((lams[idx], Z[:, idx].T, ep, rng.standard_normal(2 * n * n), n * rank))
        self.gen_norm = float(np.sqrt(sum(np.sum(a**2) for a in self.gen)))
        self.basis = structures.build_basis(self.KIND, n)

    def __len__(self) -> int:
        return self.SELECTIONS

    def run(self, i: int):
        _, _, ep, y, _ = self.data[i]
        t0 = time.perf_counter()
        minimal = self.solver.solve(ep, self.basis, 2)
        member = self.solver.solve(ep, self.basis, 2, y=y)
        return time.perf_counter() - t0, (minimal, member)

    def check(self, i: int, out) -> bool:
        (p0, f0), (p1, f1) = out
        lams, vectors, _, _, rank = self.data[i]
        require(f0.consistent and f1.consistent and p0 is not None and p1 is not None, "dense: reported inconsistent")
        cols = 2 * self.N * self.N
        require(f0.rank + f0.projector_rank == cols, "dense: rank + nullity != k r")
        require(f0.rank == rank and not f0.unique, f"dense: rank {f0.rank}, expected {rank}")
        for poly in (p0, p1):
            coeffs = poly.dense_coefficients()
            require(all(a.shape == (self.N, self.N) for a in coeffs), "dense: coefficient shape")
            err = oracle.backward_error(coeffs, lams, vectors)
            require(err <= 1e-10, f"dense: P(lambda) z backward error {err:.2e}")
        x0 = np.concatenate([c.coords for c in p0.coefficients])
        x = np.concatenate([c.coords for c in p1.coefficients])
        require(float(np.linalg.norm(x0)) <= self.gen_norm * (1 + RECOVERY), "dense: minimal-norm member longer than generator")
        pyth = abs(x @ x - x0 @ x0 - (x - x0) @ (x - x0))
        require(pyth <= 1e-10 * (x @ x), f"dense: ||x(y)||^2 - ||x0||^2 - ||x(y) - x0||^2 = {pyth:.2e}")
        return False


# (kind, n, k, m) of the `generate random` cases: m has the parity of k n, so
# a selection always fills it.  Their seeds are fixed, not drawn from --seed:
# `generate random` reads eigenvectors off the top block lambda^(k-1) z of the
# companion eigenvector, which loses them for a small |lambda| (see
# CHANGES.md), so whether its output passes depends on the seed.  On fixed
# seeds a case passes or fails the same way in every run.
RANDOM_CASES = (
    ("symmetric", 5, 2, 4),
    ("skew_symmetric", 4, 2, 4),
    ("tridiagonal", 5, 2, 6),
    ("symmetric_tridiagonal", 8, 2, 8),
    ("pentadiagonal", 7, 1, 3),
    ("hankel", 3, 2, 6),
    ("toeplitz", 6, 2, 8),
    ("diagonal", 3, 2, 4),
    ("full", 4, 2, 6),
)
RANDOM_SEED = 20190423
# seeded cases whose generator and eigendata the benchmark makes itself:
# k = 3 and 4 consistent, and two with more rows than unknowns whose
# eigenvectors get noise, so that they are inconsistent
GIVEN_CASES = (("tridiagonal", 6, 3, 10), ("hankel", 3, 4, 8))
PERTURBED_CASES = (("symmetric", 4, 2, 8), ("toeplitz", 5, 2, 6))
PERTURBATION = 1e-3
PROBE_SCALE = 1e-7
PROBE_PHASE = 0.7
DEFAULT_TOL = 1e-8


def _read(path):
    with open(path) as fh:
        return json.load(fh)


def _write(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


def _eigendata(obj):
    lams = np.array([complex(p["lambda"]["re"], p["lambda"]["im"]) for p in obj["eigenpairs"]])
    vecs = [np.array(p["vector"]["re"]) + 1j * np.array(p["vector"]["im"]) for p in obj["eigenpairs"]]
    return lams, vecs


def _eigendata_obj(n, lams, vecs):
    return {
        "n": n,
        "eigenpairs": [
            {"lambda": {"re": l.real, "im": l.imag}, "vector": {"re": list(v.real), "im": list(v.imag)}}
            for l, v in zip(lams, vecs)
        ],
    }


def _matrices(obj):
    return [np.array(c["matrix"], dtype=float) for c in sorted(obj["coefficients"], key=lambda c: c["i"])]


class Roundtrip:
    """``cli.main`` in-process over a fixed cycle of small problems, on files.

    One operation is the whole cycle.  Each case runs generate (for the
    `generate random` and example cases), then solve, then verify; a probe
    runs solve on an instance and on the same instance with every
    eigenvector scaled.  Only the time inside ``cli.main`` is counted.
    """

    def setup(self, seed: int) -> None:
        from eigenpoly import cli

        self.cli = cli
        out = ROOT / "perfbench" / "out"
        out.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="roundtrip-", dir=out))
        rng = np.random.default_rng(seed)
        fixtures = ROOT / "fixtures"
        self.cases = []
        for j, (kind, n, k, m) in enumerate(RANDOM_CASES):
            self.cases.append({"op": "random", "kind": kind, "n": n, "k": k, "m": m, "consistent": True,
                               "seed": RANDOM_SEED + j})
        self.cases += [self._given(f"given{j}", *case, rng) for j, case in enumerate(GIVEN_CASES)]
        skew = {"structure": "skew_symmetric", "kind": "skew_symmetric"}
        alt = str(fixtures / "example2_alternate_basis.json")
        for gen, structure, tol, vtol, consistent in (
            ("example1", {"structure": "symmetric", "kind": "symmetric"}, DEFAULT_TOL, DEFAULT_TOL, True),
            ("example2", skew, 1e-4, 1e-2, True),
            ("example2", {"structure": alt, "kind": "custom"}, 1e-4, 1e-2, True),
            ("example2", skew, DEFAULT_TOL, DEFAULT_TOL, False),
        ):
            self.cases.append({"op": "example", "gen": gen, "k": 2, "tol": tol, "vtol": vtol, "consistent": consistent, **structure})
        # the inconsistent example2 has no generator; its shipped solution is verified instead
        self.cases[-1]["reference"] = str(fixtures / "example2_solution.json")
        self.cases += [self._given(f"perturbed{j}", *case, rng, PERTURBATION) for j, case in enumerate(PERTURBED_CASES)]
        # probes use fixed inputs, so the ones that fail do so on every seed
        self.custom = np.array(_read(alt)["matrices"], dtype=float)
        probes = [
            ("example1", fixtures / "example1_eigendata.json", "symmetric", 2, 1e-4),
            ("example2", fixtures / "example2_eigendata.json", "skew_symmetric", 2, 1e-4),
            ("example2", fixtures / "example2_eigendata.json", "skew_symmetric", 2, DEFAULT_TOL),
            ("perturbed", self._given("probe", "symmetric", 4, 2, 8, np.random.default_rng(RANDOM_SEED), PERTURBATION)["data"],
             "symmetric", 2, DEFAULT_TOL),
        ]
        for j, (name, path, structure, k, tol) in enumerate(probes):
            obj = _read(path)
            lams, vecs = _eigendata(obj)
            factor = [PROBE_SCALE * (np.exp(1j * PROBE_PHASE) if l.imag != 0 else -1.0) for l in lams]
            scaled = self.tmp / f"probe{j}-scaled.json"
            _write(scaled, _eigendata_obj(obj["n"], lams, [c * v for c, v in zip(factor, vecs)]))
            self.cases.append({"op": "probe", "name": name, "data": str(path), "scaled": str(scaled), "structure": structure, "k": k, "tol": tol})
        self.oracles = {}
        self.compared = self.skipped = 0

    def _given(self, name, kind, n, k, m, rng, noise=0.0) -> dict:
        """Files of a seeded generator and its eigendata; ``noise`` > 0 perturbs
        the eigenvectors so that the data is inconsistent."""
        coeffs = [oracle.random_structured(kind, n, rng) for _ in range(k)]
        lams, Z = oracle.companion_eigenpairs(coeffs)
        idx = oracle.select_columns(lams, m, rng)
        _generated(coeffs, lams, Z, idx, f"roundtrip {name}")
        vecs = [z + noise * (rng.standard_normal(n) + (1j * rng.standard_normal(n) if l.imag else 0))
                for l, z in zip(lams[idx], Z[:, idx].T)]
        data, truth = self.tmp / f"{name}-data.json", self.tmp / f"{name}-truth.json"
        _write(data, _eigendata_obj(n, lams[idx], vecs))
        _write(truth, {"n": n, "k": k, "monic": True, "coefficients": [{"i": i, "matrix": a.tolist()} for i, a in enumerate(coeffs)]})
        return {"op": "given", "kind": kind, "n": n, "k": k, "consistent": noise == 0.0, "data": str(data), "truth": str(truth)}

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    @property
    def round(self) -> int:
        return len(self.cases)

    def __len__(self) -> int:
        return len(self.cases)

    def _main(self, *argv):
        t0 = time.perf_counter()
        code = self.cli.main([str(a) for a in argv])
        return time.perf_counter() - t0, code

    def run(self, i: int):
        case = self.cases[i]
        f = {name: self.tmp / f"c{i}-{name}.json" for name in ("data", "truth", "report", "poly", "verify", "alt")}
        # remove the last cycle's outputs off the clock: overwriting a file in
        # place on ext4 starts writeback of its old blocks, which made a small
        # write 3x slower and its latency follow the disk's load
        for path in f.values():
            path.unlink(missing_ok=True)
        spent, codes = 0.0, {}

        def call(*argv):
            nonlocal spent
            dt, code = self._main(*argv)
            spent += dt
            codes[argv[0] if argv[0] not in codes else "scaled"] = code

        op = case["op"]
        if op == "probe":
            call("solve", case["data"], case["structure"], case["k"], "--tol-consistency", case["tol"], "--output", f["report"])
            call("solve", case["scaled"], case["structure"], case["k"], "--tol-consistency", case["tol"], "--output", f["alt"])
            return spent, (codes, _read(f["report"]), _read(f["alt"]))
        if op == "given":
            data, f["truth"] = case["data"], case["truth"]
        elif op == "example":
            call("generate", case["gen"], "--output", f["data"])
            data = f["data"]
        else:
            call("generate", "random", "--n", case["n"], "--k", case["k"], "--structure", case["kind"],
                 "--m", case["m"], "--seed", case["seed"], "--output", f["data"], "--ground-truth", f["truth"])
            data = f["data"]
        structure = case.get("structure", case["kind"])
        call("solve", data, structure, case["k"], "--tol-consistency", case.get("tol", DEFAULT_TOL), "--output", f["report"])
        report = _read(f["report"])
        if report["consistent"]:
            poly = {"n": _read(data)["n"], "k": case["k"], "monic": True, "coefficients": report["coefficients"]}
            _write(f["poly"], poly)
            target = f["poly"]
        else:
            target = case.get("reference", f["truth"])
        call("verify", target, data, "--tol-consistency", case.get("vtol", DEFAULT_TOL), "--output", f["verify"])
        truth = _read(f["truth"]) if op != "example" else None
        return spent, (codes, _read(data), truth, report, _read(target), _read(f["verify"]))

    def _oracle(self, i, case, data_obj):
        key = (i, json.dumps(data_obj, sort_keys=True))
        if key not in self.oracles:
            lams, vecs = _eigendata(data_obj)
            kind = case.get("kind")
            mats = self.custom if kind == "custom" else oracle.spanning_matrices(kind, data_obj["n"])
            tol = case.get("tol", DEFAULT_TOL)
            self.oracles[key] = oracle.lstsq_oracle(mats, case["k"], lams, vecs, tol) | {"mats": mats}
        return self.oracles[key]

    def check(self, i: int, out) -> bool:
        case = self.cases[i]
        if case["op"] == "probe":
            codes, plain, scaled = out
            verdict = lambda r: (r["consistent"], r["unique"], r["rank"], r["nullity"])
            return codes["solve"] != codes["scaled"] or verdict(plain) != verdict(scaled)
        codes, data_obj, truth, report, target, vreport = out
        what = f"roundtrip case {i} ({case['op']} {case.get('kind')})"
        k = case["k"]
        lams, vecs = _eigendata(data_obj)
        b_norm = max(1.0, oracle.rhs_norm(k, lams, vecs))
        orc = self._oracle(i, case, data_obj)
        self.compared += 1
        if truth is not None:
            gen = _matrices(truth)
            require(all(oracle.has_structure(case["kind"], a) for a in gen), f"{what}: generator leaves the structure")
        if case["op"] == "random" and oracle.backward_error(gen, lams, vecs) > 1e-10:
            # `generate random` wrote eigenpairs that its own generator does not satisfy
            return True
        expect_consistent = case["consistent"]
        require(codes.get("generate", 0) == 0, f"{what}: generate exited {codes.get('generate')}")
        require(codes["solve"] == (0 if expect_consistent else 2), f"{what}: solve exited {codes['solve']}")
        require(report["consistent"] == expect_consistent, f"{what}: consistent flag {report['consistent']}")
        if orc["verdict_clear"]:
            require(orc["consistent"] == report["consistent"], f"{what}: verdict differs from lstsq")
        require(report["rank"] + report["nullity"] == orc["cols"], f"{what}: rank + nullity != k r")
        require(report["unique"] == (report["nullity"] == 0), f"{what}: unique flag disagrees with nullity")
        if orc["clear"]:
            require(report["rank"] == orc["rank"], f"{what}: rank {report['rank']}, lstsq {orc['rank']}")
        else:
            self.skipped += 1
        if report["consistent"]:
            coeffs = _matrices(report)
            if case["kind"] == "custom":
                skew = max(np.linalg.norm(a + a.T) / max(1.0, np.linalg.norm(a)) for a in coeffs)
                require(skew <= 1e-14, f"{what}: coefficient not skew-symmetric ({skew:.1e})")
            else:
                require(all(oracle.has_structure(case["kind"], a) for a in coeffs), f"{what}: coefficient leaves the structure")
            res = oracle.residual_fro(coeffs, lams, vecs)
            require(res <= case.get("tol", DEFAULT_TOL) * b_norm * (1 + 1e-6), f"{what}: P(lambda) z = {res:.2e}")
            x0 = np.concatenate([c["coords"] for c in report["coefficients"]])
            if orc["clear"]:
                tol = 1e-9 + 1e3 * oracle.EPS * orc["cond"]
                gap = max(np.linalg.norm(a - o) / max(1.0, np.linalg.norm(o)) for a, o in zip(coeffs, orc["dense"]))
                require(gap <= tol, f"{what}: minimal-norm coefficients differ from lstsq by {gap:.2e}")
            if truth is not None:
                # first order: a relative error <= cond(U) * the data's backward error
                tol = 1e-12 + 100 * orc["cond"] * max(oracle.backward_error(gen, lams, vecs), oracle.EPS)
                gen_norm = float(np.linalg.norm(np.concatenate([oracle.coordinates(orc["mats"], g) for g in gen])))
                require(float(np.linalg.norm(x0)) <= gen_norm * (1 + tol), f"{what}: minimal-norm member longer than generator")
                if report["unique"]:
                    gap = max(np.linalg.norm(a - g) / np.linalg.norm(g) for a, g in zip(coeffs, gen))
                    require(gap <= tol, f"{what}: unique solution misses the generator by {gap:.2e}")
        elif orc["clear"]:
            gap = report["consistency_residual"]
            require(abs(gap - orc["gap"]) <= 1e-6 * orc["gap"] + 1e-12 * b_norm, f"{what}: consistency residual {gap:.3e}, lstsq {orc['gap']:.3e}")
        # verify: its residual must match the benchmark's own evaluation of the same polynomial
        fro = oracle.residual_fro(_matrices(target), lams, vecs)
        require(abs(vreport["fro"] - fro) <= 1e-6 * fro + 1e-13 * b_norm, f"{what}: verify fro {vreport['fro']:.3e}, expected {fro:.3e}")
        passes = fro / b_norm <= case.get("vtol", DEFAULT_TOL)
        require(codes["verify"] == (0 if passes else 3), f"{what}: verify exited {codes['verify']}")
        require(report["consistent"] == passes, f"{what}: verify verdict {passes} against solve verdict")
        return False


WORKLOADS = {"band": Band, "dense": Dense, "roundtrip": Roundtrip}
