"""Runnable invariant suites: the library's key identities as named checks.

Each suite draws its own randomness from a seeded generator, so a (suite,
seed, samples) triple is fully reproducible.  These are the checks the CLI
`verify` verb reports on; the pytest suite covers the same ground (and more)
with frozen oracle values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyadic import BaseGridDensity, _levels, convergence_table
from .entropy import (
    kl_divergence,
    measure_entropy,
    renyi_divergence,
    renyi_entropy,
    tsallis_divergence,
    tsallis_entropy,
)
from .maxent import ConstraintSet, partition_function, solve_maxent
from .measure import (
    DensityVector,
    ProbabilityVector,
    WeightedPartition,
    induced_pmf,
    uniform_partition,
)
from .qcalc import q_exp, q_log
from .tsallis import discrete_consistency_report, solve_tsallis_maxent

__all__ = ["CheckResult", "SuiteResult", "SUITES", "run_suite", "run_suites"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    bound: float


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _check(name: str, worst: float, bound: float) -> CheckResult:
    return CheckResult(name, bool(worst <= bound), float(worst), float(bound))


def _random_pmf(rng: np.random.Generator, n: int, floor: float = 0.0) -> np.ndarray:
    raw = rng.dirichlet(np.ones(n))
    if floor > 0.0:
        raw = (1.0 - floor * n) * raw + floor
    return raw / raw.sum()


def _suite_qcalc(rng: np.random.Generator, samples: int) -> list[CheckResult]:
    checks = []
    x = np.exp(rng.uniform(math.log(1e-3), math.log(50.0), samples))
    q = rng.uniform(1e-3, 3.0, samples)
    back = q_exp(q_log(x, q), q)
    checks.append(_check("inverse_pair", np.max(np.abs(back - x) / x), 1e-12))

    a = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), samples))
    b = a * np.exp(rng.uniform(1e-6, 1.0, samples))
    violations = np.count_nonzero(~(q_log(b, q) > q_log(a, q)))
    checks.append(_check("monotonicity", float(violations), 0.0))

    y = np.exp(rng.uniform(math.log(1e-2), math.log(1e2), samples))
    xr = np.exp(rng.uniform(math.log(1e-2), math.log(1e2), samples))
    prefactor = np.exp((q - 1.0) * np.log(y))
    term_x = prefactor * q_log(xr, q)
    term_y = prefactor * q_log(y, q)
    lhs = q_log(xr / y, q)
    scale = np.max(np.abs([term_x, term_y, lhs]), axis=0, initial=1.0)
    checks.append(_check("ratio_identity", np.max(np.abs(lhs - (term_x - term_y)) / scale), 1e-12))

    xc = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), samples))
    log_xc = np.log(xc)
    errs = np.abs(q_log(xc, [[1.0 - 1e-6], [1.0 + 1e-6]]) - log_xc) / np.maximum(1.0, np.abs(log_xc))
    checks.append(_check("classical_limit", np.max(errs), 1e-5))
    return checks


def _suite_measures(rng: np.random.Generator, samples: int) -> list[CheckResult]:
    checks = []
    n_draws = max(20, samples // 50)

    worst = 0.0
    for _ in range(n_draws):
        n = int(rng.integers(2, 7))
        mu = _random_pmf(rng, n, floor=0.02)
        partition = WeightedPartition(mu)
        density = DensityVector.from_values(rng.uniform(0.1, 2.0, n), partition, renormalize=True)
        P = induced_pmf(density)
        mu_pmf = ProbabilityVector(mu)
        # against a probability reference the entropy is minus the divergence
        # from the reference, for all three families
        for index in (0.5, 2.0, 3.0):
            worst = max(
                worst,
                abs(renyi_entropy(density, index) + renyi_divergence(P, mu_pmf, partition, index)),
                abs(tsallis_entropy(density, index) + tsallis_divergence(P, mu_pmf, partition, index)),
            )
    checks.append(_check("entropy_divergence_duality", worst, 1e-10))

    worst = 0.0
    for _ in range(n_draws):
        n = int(rng.integers(2, 7))
        mu = _random_pmf(rng, n, floor=0.02)
        partition = WeightedPartition(mu)
        P = ProbabilityVector(_random_pmf(rng, n, floor=0.01))
        worst = max(
            worst,
            abs(measure_entropy(P, partition) + kl_divergence(P, ProbabilityVector(mu), partition)),
        )
    checks.append(_check("shannon_duality", worst, 1e-12))

    worst = 0.0
    for _ in range(n_draws):
        n = int(rng.integers(2, 9))
        partition = uniform_partition(n, "uniform_probability")
        P = ProbabilityVector(_random_pmf(rng, n, floor=0.01))
        s_n = -float(P.masses @ np.log(P.masses))
        worst = max(worst, abs(measure_entropy(P, partition) - (s_n - math.log(n))))
    checks.append(_check("discrete_consistency", worst, 1e-12))

    worst = -math.inf
    for _ in range(n_draws):
        n = int(rng.integers(2, 7))
        P = ProbabilityVector(_random_pmf(rng, n, floor=0.005))
        R = ProbabilityVector(_random_pmf(rng, n, floor=0.005))
        for index in (0.5, 0.9, 2.0, 3.0):
            low = min(
                kl_divergence(P, R),
                renyi_divergence(P, R, None, index),
                tsallis_divergence(P, R, None, index),
            )
            worst = max(worst, -low)
    checks.append(_check("divergence_nonnegativity", worst, 0.0))

    worst = 0.0
    for _ in range(n_draws):
        n = int(rng.integers(2, 7))
        P = ProbabilityVector(_random_pmf(rng, n, floor=0.005))
        R = ProbabilityVector(_random_pmf(rng, n, floor=0.005))
        for index in (0.5, 2.0, 3.0):
            i_alpha = renyi_divergence(P, R, None, index)
            i_q = tsallis_divergence(P, R, None, index)
            bridged = math.expm1((index - 1.0) * i_alpha) / (index - 1.0)
            worst = max(worst, abs(i_q - bridged))
    checks.append(_check("renyi_tsallis_bijection", worst, 1e-10))
    return checks


def _random_grid_density(rng: np.random.Generator, exponent: int) -> DensityVector:
    # smooth positive density: random low-order trigonometric polynomial
    c1, c2 = rng.uniform(-0.4, 0.4, 2)
    return BaseGridDensity.from_function(
        lambda x: 1.0 + c1 * np.sin(2.0 * math.pi * x) + c2 * np.cos(4.0 * math.pi * x),
        (0.0, 1.0),
        base_exponent=exponent,
    )


def _suite_dyadic(rng: np.random.Generator, samples: int) -> list[CheckResult]:
    checks = []
    exponent = 14
    p = _random_grid_density(rng, exponent)
    r = _random_grid_density(rng, exponent)
    delta = p.partition.weights[0]

    alpha = 2.0
    exact = float(np.sum(p.values**alpha * r.values ** (1.0 - alpha)) * delta)
    worst_mass, worst_point, worst_mean, worst_jensen = 0.0, -math.inf, 0.0, -math.inf
    # the pass the convergence tables run, here with per-base-cell labels
    for approx, _, refinement in _levels(p, r, [1, 2, 4, 5, 6, 8], labels=True):
        level = approx.level
        if level == 5:
            pmf = ProbabilityVector(approx.masses)
            continue
        worst_mass = max(worst_mass, abs(float(np.sum(approx.masses)) - 1.0))
        f_n = approx.simple_function()
        below = p.values < level
        gap = np.max(np.abs(f_n[below] - p.values[below])) if np.any(below) else 0.0
        worst_point = max(worst_point, float(gap) - 2.0 ** (-level))
        regular = approx.bin_ids != approx.overflow_id
        k, mean = approx.bin_ids[regular], approx.mean_values[regular]
        scale = 2.0 ** level
        worst_mean += np.count_nonzero(~((k / scale <= mean) & (mean < (k + 1) / scale)))
        if level in (2, 4, 6):
            # generic pair: with the true conditional means over each refinement
            # cell the per-level power sum cannot exceed the exact one, because
            # (a, b) -> a^alpha * b^(1-alpha) is jointly convex for alpha > 1
            counts = np.bincount(refinement.labels)
            a = np.bincount(refinement.labels, weights=p.values) / counts
            b = np.bincount(refinement.labels, weights=r.values) / counts
            per_level = float(np.sum(a**alpha * b ** (1.0 - alpha) * refinement.mu_masses))
            worst_jensen = max(worst_jensen, per_level - exact)
    checks.append(_check("mass_conservation", worst_mass, 1e-12))
    checks.append(_check("pointwise_bound_margin", worst_point, 0.0))
    checks.append(_check("mean_inside_bin", worst_mean, 0.0))
    checks.append(_check("jensen_refinement_means", worst_jensen, 1e-9))

    # constant reference: refinement cells are exactly the level sets of p's
    # approximation, so the stored level-set means are conditional means and
    # the bound holds for the pmf pair the convergence tables actually use
    r_const = BaseGridDensity.from_values(np.ones(p.values.size), p.partition.interval)
    exact = float(np.sum(p.values**alpha * r_const.values ** (1.0 - alpha)) * delta)
    worst = -math.inf
    for _, _, refinement in _levels(p, r_const, [2, 4, 6]):
        per_level = float(
            np.sum(refinement.f_means**alpha * refinement.g_means ** (1.0 - alpha) * refinement.mu_masses)
        )
        worst = max(worst, per_level - exact)
    checks.append(_check("jensen_per_level", worst, 1e-9))

    rows = convergence_table(p, r, 2.0, "renyi", [3, 8])
    improvement = rows[1].abs_error - rows[0].abs_error
    checks.append(_check("error_decreases", improvement, 0.0))
    checks.append(_check("pmf_sums_to_one", abs(float(np.sum(pmf.masses)) - 1.0), 1e-12))
    return checks


def _suite_maxent(rng: np.random.Generator, samples: int) -> list[CheckResult]:
    checks = []
    partition = uniform_partition(6, "counting")
    u = np.arange(1.0, 7.0)
    constraints = ConstraintSet([u], [4.5])
    solution = solve_maxent(constraints, partition)

    worst = 0.0
    for _ in range(max(50, samples // 100)):
        b0, b1 = rng.normal(0.0, 1.0, 2)
        mid = partition_function([0.5 * (b0 + b1)], constraints, partition)
        avg = 0.5 * (
            partition_function([b0], constraints, partition)
            + partition_function([b1], constraints, partition)
        )
        worst = max(worst, mid - avg)
    checks.append(_check("dual_convexity", worst, 1e-12))

    base_masses = solution.pmf.masses
    base_entropy = -float(base_masses @ np.log(base_masses))
    eps = 1e-3
    # orthonormalize {ones, u} so the projection kills both constraint
    # components at once; the vectors are far from orthogonal
    basis, _ = np.linalg.qr(np.stack([np.ones(6), u], axis=1))
    worst = -math.inf
    for _ in range(max(200, samples // 10)):
        direction = rng.normal(0.0, 1.0, 6)
        direction = direction - basis @ (basis.T @ direction)
        trial = base_masses + eps * direction
        if np.any(trial <= 0.0):
            continue
        worst = max(worst, -float(trial @ np.log(trial)) - base_entropy)
    checks.append(_check("perturbation_optimality", worst, 1e-9))

    checks.append(_check("entropy_identity", solution.entropy_identity, 1e-10))

    lo, hi = -60.0, 60.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        masses = np.exp(-mid * u)
        mean = float((u @ masses) / masses.sum())
        # mean is decreasing in beta
        if mean > 4.5:
            lo = mid
        else:
            hi = mid
    checks.append(_check("bisection_oracle", abs(float(solution.beta[0]) - 0.5 * (lo + hi)), 1e-8))
    return checks


def _suite_tsallis(rng: np.random.Generator, samples: int) -> list[CheckResult]:
    checks = []
    partition = uniform_partition(2, "counting")
    constraints = ConstraintSet([[0.0, 1.0]], [0.3], "escort", 2.0)
    solution = solve_tsallis_maxent(constraints, partition)
    residuals = solution.identity_residuals
    checks.append(_check("escort_moment", residuals["escort_moment"], 1e-9))
    checks.append(_check("power_mass_vs_zbar", residuals["power_mass_vs_zbar"], 1e-8))
    checks.append(_check("entropy_vs_lnq_zbar", residuals["entropy_vs_lnq_zbar"], 1e-8))

    worst = 0.0
    for _ in range(max(50, samples // 100)):
        n = int(rng.integers(2, 7))
        P = ProbabilityVector(_random_pmf(rng, n, floor=0.01))
        # 1 + 5e-10 lies in the classical band
        for q in (0.5, 1.0 + 5e-10, 2.0):
            report = discrete_consistency_report(P, q)
            worst = max(worst, report.identity_residual)
    checks.append(_check("discrete_identity", worst, 1e-12))

    u = np.arange(2.0)
    uniform_mu = uniform_partition(2, "uniform_probability")
    counting = uniform_partition(2, "counting")
    worst = 0.0
    solver_tol = 1e-11
    for q in (0.5, 2.0):
        escort = ConstraintSet([u], [0.3], "escort", q)
        measure_side = solve_tsallis_maxent(escort, uniform_mu, tolerance=solver_tol)
        discrete_side = solve_tsallis_maxent(escort, counting, tolerance=solver_tol)
        worst = max(
            worst,
            float(np.max(np.abs(measure_side.pmf.masses - discrete_side.pmf.masses))),
        )
    checks.append(_check("me_consistency", worst, 2.0 * solver_tol))
    return checks


SUITES = {
    "qcalc": _suite_qcalc,
    "measures": _suite_measures,
    "dyadic": _suite_dyadic,
    "maxent": _suite_maxent,
    "tsallis": _suite_tsallis,
}


def run_suite(name: str, seed: int = 0, samples: int = 2000) -> SuiteResult:
    if name not in SUITES:
        raise ValueError(f"suite: unknown suite {name!r}; choose from {sorted(SUITES)}")
    rng = np.random.default_rng(seed)
    return SuiteResult(name, tuple(SUITES[name](rng, samples)))


def run_suites(names=None, seed: int = 0, samples: int = 2000) -> list[SuiteResult]:
    if names is None:
        names = list(SUITES)
    return [run_suite(name, seed, samples) for name in names]
