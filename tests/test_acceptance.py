"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with -s (or read captured output on failure) to see the lines:

    pytest tests/test_acceptance.py -v -s

Criterion 8's classical-limit subcheck is asserted twice: once at the
mathematically supportable second-order bound (passes), and once at the
literal flat 1e-5 bound over the full stated domain, which no faithful
evaluation of the deformed logarithm can satisfy: the true deviation at the
domain edge is |1-q| (ln x)^2 / 2 = 2.39e-5.  That test is expected to fail
and is left failing on purpose; the Install section of README.md gives the
analysis.
"""

import math
import time

import numpy as np

from qentropy import (
    BaseGridDensity,
    ConstraintSet,
    DensityVector,
    ProbabilityVector,
    convergence_table,
    discrete_consistency_report,
    entropy_nonextension_demo,
    kl_divergence,
    measure_entropy,
    q_exp,
    q_log,
    radon_nikodym,
    renyi_divergence,
    renyi_entropy,
    shannon_entropy,
    solve_maxent,
    solve_tsallis_maxent,
    thermo_residuals,
    tsallis_divergence,
    tsallis_entropy,
    tsallis_thermo,
    uniform_partition,
)

from _oracles import two_point_escort_grid


def _report(num, ok, elapsed, budget, note=""):
    verdict = "PASS" if ok else "FAIL"
    extra = f" [{note}]" if note else ""
    print(f"criterion {num}: {verdict} ({elapsed:.2f}s < {budget:g}s){extra}")


def test_criterion_1_entropy_counterexample_demo():
    t0 = time.perf_counter()
    report = entropy_nonextension_demo([2**k for k in range(1, 11)])
    worst = max(abs(row.discrete_entropy - math.log(row.n)) for row in report.rows)
    # the arithmetic reading of the n grid costs nothing extra
    for n in range(2, 1025, 2):
        P = ProbabilityVector(np.full(n, 1.0 / n))
        worst = max(worst, abs(measure_entropy(P, uniform_partition(n)) - math.log(n)))
    half = entropy_nonextension_demo([2], interval=(0.0, 0.5))
    half_gap = abs(half.continuous_entropy - math.log(0.5))
    elapsed = time.perf_counter() - t0
    ok = (
        worst <= 1e-12
        and report.continuous_entropy == 0.0
        and half.continuous_negative
        and half_gap <= 1e-12
        and elapsed < 1.0
    )
    _report(1, ok, elapsed, 1.0, f"worst |S_n - ln n| {worst:.2e}")
    assert worst <= 1e-12
    assert report.continuous_entropy == 0.0
    assert half.continuous_negative and half_gap <= 1e-12
    assert elapsed < 1.0


def test_criterion_2_discrete_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 65))
        P = ProbabilityVector.from_values(rng.dirichlet(np.ones(n)), renormalize=True)
        live = P.masses > 0
        s_n = -float(P.masses[live] @ np.log(P.masses[live]))
        got = measure_entropy(P, uniform_partition(n, "uniform_probability"))
        worst = max(worst, abs(got - (s_n - math.log(n))))
    grid_worst = 0.0
    cells = 2**16
    grid = uniform_partition(cells, "lebesgue", (0.0, 2.0))
    delta = 2.0 / cells
    for _ in range(10):
        P = ProbabilityVector.from_values(rng.dirichlet(np.ones(cells)), renormalize=True)
        live = P.masses > 0
        s_n = -float(P.masses[live] @ np.log(P.masses[live]))
        grid_worst = max(grid_worst, abs(measure_entropy(P, grid) - (s_n + math.log(delta))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and grid_worst <= 1e-9 and elapsed < 5.0
    _report(2, ok, elapsed, 5.0, f"pmf worst {worst:.2e}, grid worst {grid_worst:.2e}")
    assert worst <= 1e-12
    assert grid_worst <= 1e-9
    assert elapsed < 5.0


def test_criterion_3_dyadic_convergence():
    t0 = time.perf_counter()
    p = BaseGridDensity.from_function(lambda x: 2.0 * x, (0.0, 1.0), base_exponent=20)
    r = BaseGridDensity.from_values(np.ones(2**20), (0.0, 1.0))
    levels = list(range(2, 13))
    notes, ok = [], True
    for kind, index in [("renyi", 0.5), ("renyi", 2.0), ("tsallis", 0.5), ("tsallis", 2.0)]:
        rows = {row.level: row for row in convergence_table(p, r, index, kind, levels)}
        err_4, err_12 = rows[4].abs_error, rows[12].abs_error
        ok = ok and err_12 < 1e-3 and err_12 < err_4
        notes.append(f"{kind}[{index}] err(12)={err_12:.1e}")
        if kind == "renyi" and index == 2.0:
            closed_gap = abs(rows[12].reference_divergence - math.log(4.0 / 3.0))
            ok = ok and closed_gap < 1e-6
            notes.append(f"ref gap {closed_gap:.1e}")
        assert err_12 < 1e-3
        assert err_12 < err_4
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report(3, ok, elapsed, 60.0, ", ".join(notes))
    assert abs(
        convergence_table(p, r, 2.0, "renyi", [2])[0].reference_divergence
        - math.log(4.0 / 3.0)
    ) < 1e-6
    assert elapsed < 60.0
    assert ok


def test_criterion_4_classical_maxent():
    t0 = time.perf_counter()
    u = np.arange(1.0, 7.0)
    sol = solve_maxent(ConstraintSet([u], [4.5]), uniform_partition(6))
    # scalar bisection on the mean, fully independent of the Newton path
    lo, hi = -60.0, 60.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        w = np.exp(-mid * u)
        if float(u @ w) / float(np.sum(w)) > 4.5:
            lo = mid
        else:
            hi = mid
    beta_gap = abs(float(sol.beta[0]) - 0.5 * (lo + hi))
    grad, sens = thermo_residuals(sol, fd_step=1e-4)
    two = solve_maxent(ConstraintSet([[0.0, 1.0]], [0.3]), uniform_partition(2))
    closed_gap = max(
        abs(float(two.beta[0]) - math.log(7.0 / 3.0)),
        float(np.max(np.abs(two.pmf.masses - np.array([0.7, 0.3])))),
    )
    elapsed = time.perf_counter() - t0
    ok = (
        beta_gap < 1e-8
        and sol.residual_norm < 1e-10
        and float(np.max(grad)) < 1e-6
        and float(np.max(sens)) < 1e-4
        and closed_gap < 1e-10
        and elapsed < 1.0
    )
    _report(
        4, ok, elapsed, 1.0,
        f"beta gap {beta_gap:.1e}, moment {sol.residual_norm:.1e}, "
        f"grad {float(np.max(grad)):.1e}, sens {float(np.max(sens)):.1e}",
    )
    assert beta_gap < 1e-8
    assert sol.residual_norm < 1e-10
    assert float(np.max(grad)) < 1e-6
    assert float(np.max(sens)) < 1e-4
    assert closed_gap < 1e-10
    assert elapsed < 1.0


def test_criterion_5_tsallis_maxent():
    t0 = time.perf_counter()
    constraints = ConstraintSet([[0.0, 1.0]], [0.3], "escort", 2.0)
    counting = solve_tsallis_maxent(constraints, uniform_partition(2), tolerance=1e-13)
    p1, p2 = two_point_escort_grid(0.3, 2.0, step=1e-6)
    mass_gap = float(np.max(np.abs(counting.pmf.masses - np.array([p1, p2]))))
    res = counting.identity_residuals
    thermo = tsallis_thermo(counting)
    uniform = solve_tsallis_maxent(
        constraints, uniform_partition(2, "uniform_probability"), tolerance=1e-13
    )
    constant_residual = discrete_consistency_report(
        uniform.pmf, 2.0, zbar=uniform.zbar
    ).constant_residual
    elapsed = time.perf_counter() - t0
    ok = (
        mass_gap < 1e-5
        and res["power_mass_vs_zbar"] < 1e-8
        and res["entropy_vs_lnq_zbar"] < 1e-8
        and constant_residual < 1e-8
        and thermo["legendre_gap"] <= 1e-12
        and elapsed < 10.0
    )
    _report(
        5, ok, elapsed, 10.0,
        f"grid gap {mass_gap:.1e}, power-mass {res['power_mass_vs_zbar']:.1e}, "
        f"power-sum const {constant_residual:.1e}, legendre {thermo['legendre_gap']:.1e}",
    )
    assert mass_gap < 1e-5
    assert res["power_mass_vs_zbar"] < 1e-8
    assert res["entropy_vs_lnq_zbar"] < 1e-8
    assert constant_residual < 1e-8
    assert thermo["legendre_gap"] <= 1e-12
    assert elapsed < 10.0


def test_criterion_6_maxent_consistency_across_references():
    t0 = time.perf_counter()
    solver_tol = 1e-11
    argmax_gap = 0.0
    for q in (0.5, 2.0):
        for n in (2, 6):
            u = np.arange(float(n))
            escort = ConstraintSet([u], [0.3 * (n - 1)], "escort", q)
            a = solve_tsallis_maxent(escort, uniform_partition(n, "uniform_probability"),
                                     tolerance=solver_tol)
            b = solve_tsallis_maxent(escort, uniform_partition(n, "counting"),
                                     tolerance=solver_tol)
            argmax_gap = max(argmax_gap, float(np.max(np.abs(a.pmf.masses - b.pmf.masses))))
    rng = np.random.default_rng(60)
    identity_worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        P = ProbabilityVector.from_values(rng.dirichlet(np.ones(n)) + 1e-4, renormalize=True)
        for q in (0.5, 2.0):
            identity_worst = max(
                identity_worst, discrete_consistency_report(P, q).identity_residual
            )
    elapsed = time.perf_counter() - t0
    ok = argmax_gap <= 2.0 * solver_tol and identity_worst < 1e-12 and elapsed < 30.0
    _report(6, ok, elapsed, 30.0,
            f"argmax gap {argmax_gap:.1e} <= {2 * solver_tol:.0e}, identity {identity_worst:.1e}")
    assert argmax_gap <= 2.0 * solver_tol
    assert identity_worst < 1e-12
    assert elapsed < 30.0


def test_criterion_7_classical_limits():
    t0 = time.perf_counter()
    rng = np.random.default_rng(70)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 8))
        part = uniform_partition(n)
        P = ProbabilityVector.from_values(rng.dirichlet(np.ones(n)) + 1e-3, renormalize=True)
        R = ProbabilityVector.from_values(rng.dirichlet(np.ones(n)) + 1e-3, renormalize=True)
        p = radon_nikodym(P, part)
        s_ref = shannon_entropy(p)
        kl_ref = kl_divergence(P, R)
        for index in (1.0 - 1e-6, 1.0 + 1e-6):
            worst = max(
                worst,
                abs(renyi_entropy(p, index) - s_ref),
                abs(tsallis_entropy(p, index) - s_ref),
                abs(renyi_divergence(P, R, None, index) - kl_ref),
                abs(tsallis_divergence(P, R, None, index) - kl_ref),
            )
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 5.0
    _report(7, ok, elapsed, 5.0, f"worst limit gap {worst:.2e}")
    assert worst < 1e-5
    assert elapsed < 5.0


def test_criterion_8_qcalc_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(80)

    # inverse pair at the stated 1e-12: sampled where double precision can
    # carry it (the relative error of the composition grows like
    # eps * x^(q-1), so x is capped at 50; see the Install section of README.md)
    inv_worst = 0.0
    for _ in range(100):
        q = float(rng.uniform(1e-3, 3.0))
        x = np.exp(rng.uniform(math.log(1e-3), math.log(50.0), 100))
        back = q_exp(q_log(x, q), q)
        inv_worst = max(inv_worst, float(np.max(np.abs(back - x) / x)))

    mono_bad = 0
    for _ in range(100):
        q = float(rng.uniform(1e-3, 3.0))
        a = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 100))
        b = a * np.exp(rng.uniform(1e-6, 1.0, 100))
        mono_bad += int(np.sum(q_log(b, q) <= q_log(a, q)))

    ratio_worst = 0.0
    for _ in range(100):
        q = float(rng.uniform(1e-3, 3.0))
        x = np.exp(rng.uniform(math.log(1e-2), math.log(1e2), 100))
        y = np.exp(rng.uniform(math.log(1e-2), math.log(1e2), 100))
        prefactor = np.exp((q - 1.0) * np.log(y))
        term_x = prefactor * q_log(x, q)
        term_y = prefactor * q_log(y, q)
        lhs = q_log(x / y, q)
        scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.maximum(np.abs(term_x), np.abs(term_y))))
        ratio_worst = max(ratio_worst, float(np.max(np.abs(lhs - (term_x - term_y)) / scale)))

    # classical limit at the second-order bound, plus the literal 1e-5 on
    # the subdomain where that bound stays below it
    limit_scaled_worst, limit_literal_worst = 0.0, 0.0
    x = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 5000))
    for q in (1.0 - 1e-6, 1.0 + 1e-6):
        dev = np.abs(q_log(x, q) - np.log(x))
        limit_scaled_worst = max(
            limit_scaled_worst, float(np.max(dev / (1e-6 * (0.51 * np.log(x) ** 2 + 1e-3))))
        )
        inside = np.abs(np.log(x)) <= math.sqrt(20.0)
        limit_literal_worst = max(limit_literal_worst, float(np.max(dev[inside])))

    elapsed = time.perf_counter() - t0
    ok = (
        inv_worst <= 1e-12
        and mono_bad == 0
        and ratio_worst <= 1e-12
        and limit_scaled_worst <= 1.0
        and limit_literal_worst <= 1e-5
        and elapsed < 5.0
    )
    _report(
        8, ok, elapsed, 5.0,
        f"inverse {inv_worst:.1e}, ratio {ratio_worst:.1e}, "
        f"limit(scaled) {limit_scaled_worst:.2f}, limit(literal, |ln x|<=sqrt(20)) "
        f"{limit_literal_worst:.1e}",
    )
    assert inv_worst <= 1e-12
    assert mono_bad == 0
    assert ratio_worst <= 1e-12
    assert limit_scaled_worst <= 1.0
    assert limit_literal_worst <= 1e-5
    assert elapsed < 5.0


def test_criterion_8_classical_limit_literal_bound():
    """Honest red: the flat 1e-5 bound over all of [1e-3, 1e3] is false.

    sup_x |ln_q x - ln x| at q = 1 +- 1e-6 is (1e-6/2) ln(1e3)^2 = 2.39e-5,
    attained at the domain edges.  Left failing on purpose rather than
    silently shrinking the domain; the supportable version passes above.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(81)
    x = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 10000))
    worst = 0.0
    for q in (1.0 - 1e-6, 1.0 + 1e-6):
        worst = max(worst, float(np.max(np.abs(q_log(x, q) - np.log(x)))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 5.0
    _report(8, ok, elapsed, 5.0,
            f"literal classical-limit bound on full domain: worst {worst:.2e} vs 1e-05")
    assert worst <= 1e-5, (
        f"flat 1e-5 classical-limit bound is analytically unattainable on "
        f"[1e-3, 1e3]: measured {worst:.3e}, predicted 2.39e-5"
    )
    assert elapsed < 5.0


def test_criterion_9_divergence_nonnegativity_and_identity_of_indiscernibles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(90)
    indices = (0.5, 0.9, 2.0, 3.0)
    min_div = math.inf
    zero_worst = 0.0
    near_worst = 0.0
    for k in range(10**4):
        n = int(rng.integers(2, 7))
        P = ProbabilityVector.from_values(rng.dirichlet(np.ones(n)) + 1e-4, renormalize=True)
        R = ProbabilityVector.from_values(rng.dirichlet(np.ones(n)) + 1e-4, renormalize=True)
        min_div = min(min_div, kl_divergence(P, R))
        for q in indices:
            min_div = min(min_div, renyi_divergence(P, R, None, q))
            min_div = min(min_div, tsallis_divergence(P, R, None, q))
        if k % 100 == 0:
            # zero-iff-equal, both directions: exactly equal pairs sit at 0,
            # pairs separated by 1e-9 stay within the same tolerance
            zero_worst = max(zero_worst, kl_divergence(P, P))
            delta = np.zeros(n)
            delta[0], delta[1] = 1e-9, -1e-9
            Q = ProbabilityVector(P.masses + delta)
            near_worst = max(near_worst, kl_divergence(P, Q))
            for q in indices:
                zero_worst = max(
                    zero_worst,
                    renyi_divergence(P, P, None, q),
                    tsallis_divergence(P, P, None, q),
                )
                near_worst = max(
                    near_worst,
                    abs(renyi_divergence(P, Q, None, q)),
                    abs(tsallis_divergence(P, Q, None, q)),
                )
    elapsed = time.perf_counter() - t0
    ok = min_div >= 0.0 and zero_worst <= 1e-12 and near_worst <= 1e-9 and elapsed < 10.0
    _report(9, ok, elapsed, 10.0,
            f"min divergence {min_div:.2e}, self-divergence {zero_worst:.1e}, "
            f"1e-9-apart pairs {near_worst:.1e}")
    assert min_div >= 0.0
    assert zero_worst <= 1e-12
    assert near_worst <= 1e-9
    assert elapsed < 10.0
