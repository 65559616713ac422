"""Acceptance gate: one test per shipped criterion, stated tolerances only.

Each test prints a single ``[criterion N] PASS/FAIL`` line with measured
values; pytest -v adds the authoritative verdict per test.  Checks are
accumulated so the summary line always reflects every sub-check.
"""

import time

import numpy as np

from conftest import (
    FIXTURES,
    builtin_cases,
    example3_targets,
    example3_uniqueness,
    gated_pairs,
    max_entry_gap,
    random_instance,
    reference_eigendata,
    reference_json,
    reference_solution,
)
from eigenpoly import fixtures
from eigenpoly.eigendata import Eigenpair, encode
from eigenpoly.fixtures import generate_example3
from eigenpoly.solver import ToleranceConfig, analyze, assemble, monicize, solve
from eigenpoly.structures import build_basis, coords_of, load_custom_basis, realize
from eigenpoly.verify import choose_eigenpairs, companion_eigs, random_polynomial, residual


def finish(number: int, problems: list, detail: str):
    verdict = "PASS" if not problems else "FAIL"
    print(f"[criterion {number}] {verdict}: {detail}")
    assert not problems, "\n".join(problems)


def check(problems: list, ok: bool, message: str):
    if not ok:
        problems.append(message)


def test_criterion_1_order3_symmetric_quadratic():
    problems = []
    ep = reference_eigendata("example1")
    basis = build_basis("symmetric", 3)
    t0 = time.perf_counter()
    poly, family = solve(ep, basis, 2)
    elapsed = time.perf_counter() - t0

    check(problems, family.consistent, "system reported inconsistent")
    gap = max_entry_gap(poly.dense_coefficients(), reference_solution("example1"))
    check(problems, gap <= 1e-3, f"solution is {gap:.3e} from the reference entries, above 1e-3")
    printed = residual(reference_solution("example1"), ep).fro
    check(problems, printed <= 5e-3, f"reference-matrix residual {printed:.3e} above 5e-3")
    check(problems, elapsed < 0.1, f"solve took {elapsed:.4f}s, budget 0.1s")
    finish(1, problems, f"entry gap {gap:.2e}, reference residual {printed:.2e}, {elapsed*1e3:.1f} ms")


def test_criterion_2_order4_skew_symmetric_quadratic():
    problems = []
    ep = reference_eigendata("example2")
    reference = reference_json("example2_reference.json")
    basis = build_basis("skew_symmetric", 4)
    tol = ToleranceConfig(consistency_tol=1e-4)  # four-decimal eigendata
    t0 = time.perf_counter()
    poly, family = solve(ep, basis, 2, tol=tol)
    elapsed = time.perf_counter() - t0

    check(problems, family.consistent, "system reported inconsistent at 1e-4")
    x = np.concatenate([poly.coefficients[1].coords, poly.coefficients[0].coords])
    xgap = float(np.max(np.abs(x - np.asarray(reference["x"]))))
    check(problems, xgap <= 1e-3, f"coordinate vector is {xgap:.3e} from reference, above 1e-3")
    for label, c in zip(("A0", "A1"), poly.dense_coefficients()):
        exact = bool(np.array_equal(c.T, -c))
        check(problems, exact, f"{label} is not skew-symmetric to machine precision")

    # squared Frobenius residual of the printed truncated matrices
    printed_sq = residual(reference_solution("example2"), ep).fro ** 2
    corrected = reference["residual_fro_squared"]
    rel = abs(printed_sq - corrected) / corrected
    check(
        problems,
        rel <= 1e-2,
        f"printed-matrix squared residual {printed_sq:.6e} differs from {corrected:.4e} "
        f"by {rel:.2e} relative, above 1e-2",
    )
    # the figure as stated carries a dropped decimal exponent: even the
    # least-squares optimum over the whole structured family sits above it,
    # so no solution can attain it and the corrected constant is the only
    # faithful reading of the check
    optimum_sq = family.consistency_residual ** 2
    stated = reference["residual_fro_squared_stated"]
    check(
        problems,
        optimum_sq > stated,
        f"family optimum {optimum_sq:.3e} unexpectedly reaches the stated figure {stated:.3e}",
    )
    check(problems, elapsed < 0.1, f"solve took {elapsed:.4f}s, budget 0.1s")
    finish(
        2,
        problems,
        f"x gap {xgap:.2e}, squared residual {printed_sq:.5e} vs {corrected:.4e} "
        f"(rel {rel:.1e}), family optimum {optimum_sq:.3e} > stated {stated:.1e}, "
        f"{elapsed*1e3:.1f} ms",
    )


def test_criterion_3_order50_band_problem():
    problems = []
    gen = generate_example3()
    expected_unique, observed_unique = example3_uniqueness("expected"), example3_uniqueness("observed")
    basis = build_basis("symmetric_tridiagonal", 50)
    rows = []
    measured = {}
    recovery = {}
    for m in (2, 4, 6, 10):
        ep = encode(fixtures.example3_eigenpairs(m), 50)
        t0 = time.perf_counter()
        poly, family = solve(ep, basis, 2)
        elapsed = time.perf_counter() - t0
        check(problems, family.consistent, f"m={m}: reported inconsistent")
        fro = residual(poly, ep).fro if poly is not None else float("nan")
        check(problems, fro <= 1e-5, f"m={m}: residual {fro:.3e} above 1e-5")
        check(problems, elapsed < 10.0, f"m={m}: solve took {elapsed:.2f}s, budget 10s")
        measured[m] = family.unique
        scale = max(np.max(np.abs(c.dense)) for c in gen.coefficients)
        recovery[m] = (
            max_entry_gap(poly.dense_coefficients(), gen.dense_coefficients()) / scale
            if poly is not None
            else float("nan")
        )
        rows.append(
            f"  m={m:<3d} rank={family.rank:<4d} unique={family.unique!s:<6}"
            f" residual={fro:.2e} recovery={recovery[m]:.2e} time={elapsed*1e3:.0f}ms"
        )

    # the m = 4 eigendata must match the four published eigenvalues
    for target in example3_targets(4):
        best = min(abs(p.eigenvalue - target) for p in fixtures.example3_eigenpairs(4))
        check(problems, best <= 5e-4, f"m=4 eigendata misses published value {target} by {best:.2e}")

    # published uniqueness expectations; the shipped band matrices yield
    # exponentially localized eigenvectors whose m = 4 and m = 6 selections
    # leave most basis directions unobserved, so the measured rank falls
    # short of full and uniqueness cannot hold for this data
    for m, expected in sorted(expected_unique.items()):
        check(
            problems,
            measured[m] == expected,
            f"m={m}: expected unique={expected}, measured unique={measured[m]} "
            f"(observed table: {observed_unique[m]})",
        )
    check(
        problems,
        recovery[4] <= 1e-6,
        f"m=4: generator recovery {recovery[4]:.2e} above 1e-6 relative "
        "(minimal-norm member of a non-unique family differs from the generator)",
    )
    # where the data does span the structure, recovery is demonstrated
    check(problems, measured[10], "m=10: expected a unique reconstruction")
    check(
        problems,
        recovery[10] <= 1e-6,
        f"m=10: generator recovery {recovery[10]:.2e} above 1e-6 relative",
    )

    print("\n".join(rows))
    finish(
        3,
        problems,
        f"unique flags measured {measured} vs expected {expected_unique}; "
        f"m=10 recovery {recovery[10]:.1e}",
    )


def test_criterion_4_random_round_trips():
    problems = []
    combos = list(builtin_cases())
    instances = 0
    unique_count = 0
    worst_recovery = 0.0
    worst_residual = 0.0
    seed = 0
    while instances < 200:
        kind, n, k = combos[instances % len(combos)]
        basis, gen, pairs = random_instance(kind, n, k, seed=seed)
        seed += 1
        usable = gated_pairs(gen, pairs)
        check(problems, bool(usable), f"{kind} n={n} k={k}: no eigenpair passed the forward gate")
        if not usable:
            instances += 1
            continue
        ep = encode(usable, n)
        poly, family = solve(ep, basis, k)
        check(problems, family.consistent, f"{kind} n={n} k={k}: gated data reported inconsistent")
        if not family.consistent:
            instances += 1
            continue
        if family.unique:
            unique_count += 1
            scale = max(np.max(np.abs(c.dense)) for c in gen.coefficients)
            gap = max_entry_gap(poly.dense_coefficients(), gen.dense_coefficients()) / scale
            worst_recovery = max(worst_recovery, gap)
            check(
                problems,
                gap <= 1e-6,
                f"{kind} n={n} k={k} seed={seed-1}: recovery {gap:.3e} above 1e-6 relative",
            )
        else:
            rel = residual(poly, ep).relative
            worst_residual = max(worst_residual, rel)
            check(
                problems,
                rel <= 1e-7,
                f"{kind} n={n} k={k} seed={seed-1}: relative residual {rel:.3e} above 1e-7",
            )
        instances += 1
    finish(
        4,
        problems,
        f"{instances} instances over {len(combos)} structure/order/degree combinations, "
        f"{unique_count} unique (worst recovery {worst_recovery:.1e}), "
        f"{instances - unique_count} families (worst residual {worst_residual:.1e})",
    )


def test_criterion_5_consistency_dichotomy():
    problems = []
    # two scalar eigenvalues sharing one eigenvector: x + 1 = 0 and x + 2 = 0
    scalar = encode(
        [Eigenpair(1.0 + 0j, np.array([1.0])), Eigenpair(2.0 + 0j, np.array([1.0]))], 1
    )
    poly, family = solve(scalar, build_basis("full", 1), 1, allow_overdetermined=True)
    check(problems, poly is None and not family.consistent, "scalar contradiction not reported")
    expected_gap = np.sqrt(0.5)
    check(
        problems,
        abs(family.consistency_residual - expected_gap) <= 1e-12,
        f"scalar optimum residual {family.consistency_residual:.6f} != sqrt(1/2)",
    )

    # in-bounds contradiction: diagonal structure, m = k*n
    diag = encode(
        [Eigenpair(1.0 + 0j, np.array([1.0, 1.0])), Eigenpair(2.0 + 0j, np.array([1.0, 1.0]))], 2
    )
    poly2, family2 = solve(diag, build_basis("diagonal", 2), 1)
    check(problems, poly2 is None and not family2.consistent, "diagonal contradiction not reported")

    # appending additional true eigenpairs never flips a consistent verdict,
    # and a reported solve always reproduces its data within tolerance
    flips = 0
    checked = 0
    for idx, (kind, n, k) in enumerate(
        [("symmetric", 4, 2), ("toeplitz", 5, 2), ("full", 3, 3), ("tridiagonal", 4, 2),
         ("hankel", 4, 2), ("symmetric_tridiagonal", 5, 2), ("skew_symmetric", 4, 2),
         ("diagonal", 5, 3), ("pentadiagonal", 5, 2), ("full", 2, 4)]
    ):
        basis, gen, pairs = random_instance(kind, n, k, seed=100 + idx)
        usable = gated_pairs(gen, pairs)
        if len(usable) < 2:
            continue
        split = max(1, len(usable) // 2)
        base_ep = encode(usable[:split], n)
        base_poly, base_family = solve(base_ep, basis, k)
        grown_ep = encode(usable, n)
        grown_poly, grown_family = solve(grown_ep, basis, k)
        checked += 1
        if base_family.consistent and not grown_family.consistent:
            flips += 1
            check(problems, False, f"{kind} n={n} k={k}: appending true eigenpairs flipped "
                                   "a consistent system to inconsistent")
        if grown_family.consistent:
            rel = residual(grown_poly, grown_ep).relative
            check(
                problems,
                rel <= 1e-7,
                f"{kind} n={n} k={k}: solved but reproduces its data at {rel:.3e} only",
            )

        # appending a foreign eigenpair keeps the dichotomy: either the verdict
        # turns inconsistent or the returned member still reproduces the data
        _, other, other_pairs = random_instance(kind, n, k, seed=500 + idx)
        foreign = [p for p in gated_pairs(other, other_pairs) if p.eigenvalue.imag == 0.0]
        room = k * n - sum(1 if p.eigenvalue.imag == 0 else 2 for p in usable[:split])
        if foreign and room >= 1:
            mixed_ep = encode(usable[:split] + foreign[:1], n)
            mixed_poly, mixed_family = solve(mixed_ep, basis, k)
            if mixed_family.consistent:
                rel = residual(mixed_poly, mixed_ep).relative
                check(
                    problems,
                    rel <= 1e-7,
                    f"{kind} n={n} k={k}: foreign pair accepted but residual {rel:.3e}",
                )
    check(problems, checked >= 8, f"only {checked} append scenarios exercised")
    finish(5, problems, f"2 contradiction fixtures reported, {checked} append scenarios, {flips} flips")


def test_criterion_6_minimal_norm_families():
    problems = []
    cases = []
    for kind, k in (("symmetric", 2), ("full", 1), ("full", 2), ("hankel", 2),
                    ("toeplitz", 2), ("tridiagonal", 2), ("skew_symmetric", 3),
                    ("symmetric_tridiagonal", 2), ("pentadiagonal", 2), ("symmetric", 3)):
        for n in (3, 4, 5, 6, 7):
            cases.append((kind, n, k))
    cases = cases[:50]
    rng = np.random.default_rng(2026)
    families = 0
    for idx, (kind, n, k) in enumerate(cases):
        basis, gen, pairs = random_instance(kind, n, k, seed=900 + idx)
        assert 2 * n < k * basis.r, f"case {kind} n={n} k={k} cannot be underdetermined"
        chosen = choose_eigenpairs(pairs, 2, np.random.default_rng(idx))
        ep = encode(chosen, n)
        poly, family = solve(ep, basis, k)
        check(problems, family.consistent, f"{kind} n={n} k={k}: two-column data inconsistent")
        check(problems, not family.unique, f"{kind} n={n} k={k}: expected a nontrivial family")
        if not family.consistent or family.unique:
            continue
        families += 1
        base = np.linalg.norm(family.x0)
        for _ in range(100):
            w = rng.standard_normal(k * basis.r)
            alt = np.linalg.norm(family.x0 + family.project(w))
            check(
                problems,
                base <= alt + 1e-12,
                f"{kind} n={n} k={k}: minimal-norm violated, {base:.6e} > {alt:.6e}",
            )
        proj = family.project(np.eye(k * basis.r))
        check(
            problems,
            np.allclose(proj, proj.T, atol=1e-12) and np.allclose(proj @ proj, proj, atol=1e-12),
            f"{kind} n={n} k={k}: nullspace projector is not an orthogonal projector",
        )
        scale = max(1.0, float(np.linalg.norm(assemble(ep, basis, k).b)))
        for sample in range(3):
            y = rng.uniform(-5, 5, k * basis.r)
            member, _ = solve(ep, basis, k, y=y)
            for c in member.coefficients:
                coords_of(basis, c.dense)  # membership certificate
            rel = residual(member, ep).fro / scale
            check(
                problems,
                rel <= 1e-8,
                f"{kind} n={n} k={k}: family member {sample} residual {rel:.3e}",
            )
    check(problems, families == 50, f"only {families} of 50 cases produced families")
    finish(6, problems, f"{families} families, 100 norm probes and 3 members each")


def test_criterion_7_basis_presentation_invariance():
    problems = []
    combos = [c for c in builtin_cases(n_values=(3, 4), k_values=(1, 2))]
    rng = np.random.default_rng(77)
    tested = 0
    for idx, (kind, n, k) in enumerate(combos):
        if tested >= 20:
            break
        basis, gen, pairs = random_instance(kind, n, k, seed=700 + idx)
        usable = gated_pairs(gen, pairs)
        if not usable:
            continue
        ep = encode(usable, n)
        ref_poly, ref_family = solve(ep, basis, k)
        if not (ref_family.consistent and ref_family.unique):
            continue
        tested += 1
        perm = rng.permutation(basis.r)
        scales = rng.uniform(0.4, 2.5, basis.r) * rng.choice([-1.0, 1.0], basis.r)
        eye = np.eye(basis.r)
        mats = [scales[j] * realize(basis, eye[perm[j]]).dense for j in range(basis.r)]
        alt = load_custom_basis(mats)
        alt_poly, alt_family = solve(ep, alt, k)
        check(problems, alt_family.unique, f"{kind} n={n} k={k}: uniqueness lost under re-basis")
        gap = max_entry_gap(alt_poly.dense_coefficients(), ref_poly.dense_coefficients())
        check(
            problems,
            gap <= 1e-8,
            f"{kind} n={n} k={k}: coefficients moved {gap:.3e} under re-ordered/re-scaled basis",
        )
    check(problems, tested == 20, f"only {tested} unique instances available for the invariance check")
    finish(7, problems, f"{tested} unique instances, re-ordered and re-scaled presentations")


def test_criterion_8_monic_reduction():
    problems = []
    rng = np.random.default_rng(88)
    cases = 0
    worst_eig = 0.0
    worst_res = 0.0
    while cases < 50:
        n = 2 + cases % 5
        k = 1 + cases % 3
        sym = build_basis("symmetric", n)
        trailing = [realize(sym, rng.uniform(-1, 1, sym.r)).dense for _ in range(k)]
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        leading = q @ np.diag(rng.uniform(0.5, 3.0, n)) @ q.T
        leading = 0.5 * (leading + leading.T)

        monic_coeffs, transform = monicize(leading, trailing)
        np.testing.assert_allclose(transform @ transform, leading, atol=1e-10)

        # independent route: premultiply by the inverse leading coefficient
        inverse_route = [np.linalg.solve(leading, c) for c in trailing]
        before = companion_eigs(inverse_route)
        after = companion_eigs(monic_coeffs)
        check(problems, len(before) == len(after),
              f"case {cases}: representative counts differ, {len(before)} vs {len(after)}")
        taken = set()
        for p in before:
            best_j, best_gap = -1, np.inf
            for j, q_pair in enumerate(after):
                if j in taken:
                    continue
                gap = abs(p.eigenvalue - q_pair.eigenvalue)
                if gap < best_gap:
                    best_j, best_gap = j, gap
            taken.add(best_j)
            rel = best_gap / max(1.0, abs(p.eigenvalue))
            worst_eig = max(worst_eig, rel)
            check(
                problems,
                rel <= 1e-8,
                f"case {cases}: eigenvalue {p.eigenvalue} moved {rel:.3e} under reduction",
            )

        # transformed eigenvectors satisfy the monic polynomial
        for p in before[:3]:
            xi = transform @ p.vector
            ep = encode([Eigenpair(p.eigenvalue, xi)], n)
            rel = residual(monic_coeffs, ep).relative
            worst_res = max(worst_res, rel)
            check(
                problems,
                rel <= 1e-8,
                f"case {cases}: transformed eigenvector residual {rel:.3e} above 1e-8",
            )
        cases += 1
    finish(
        8,
        problems,
        f"{cases} reductions, worst eigenvalue drift {worst_eig:.1e}, "
        f"worst transformed-eigenvector residual {worst_res:.1e}",
    )
