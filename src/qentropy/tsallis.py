"""Tsallis maximum entropy under normalized q-expectation (escort) constraints.

The maximizer has the deformed-exponential form

    p_k = e_q(-lambda . (u(x_k) - t)) / zbar,   lambda = beta / w,   w = sum_k p_k^q mu_k,

which is self-referential in the true multipliers beta through the escort
normalizer w.  In the renormalized multipliers lambda = beta_q it is not:
since e_q' = e_q^q and e_q is convex, the solution minimizes the convex dual

    zbar(lambda) = sum_k mu_k e_q(-lambda . (u_k - t)),

whose gradient -sum_k mu_k e_q^q (u_k - t) vanishes exactly where the escort
moments meet the targets (the "optimal Lagrange multipliers" reading of
Martinez, Nicolas, Pennini & Plastino, Physica A 286 (2000) 489).  The
Hessian is sum_k mu_k q e_q^(2q-1) (u_k - t)(u_k - t)^T over the live cells.
maxent._dual_newton minimizes it in the span units of the Gibbs solver: on
z_k = (u_k - t)/s in the variable lambda s, so that lambda . (u_k - t) is read
as (lambda s) . z_k.  The dual is +inf past the q > 1 pole, cells past the
q < 1 cut-off drop out, and at q = 1 (the whole classical band) e_q = exp.
Afterwards lambda = (lambda s)/s, w = sum_k p_k^q mu_k, beta = lambda w and
the escort moments are t + s E[z].  _escort_family is the one evaluation of
e_q, zbar and the escort weights, for the solver and the log_z_gradient audit.

The solver returns its identity checks as a named residual map rather than
asserting them, so a caller can log them: w = zbar^(1-q), S_q = ln_q zbar,
beta = beta_q w and the escort moments, each read off the q-mass, entropy and
moments the solve has just computed (the test suite pins them at 1e-8).
discrete_consistency_report sets the measure-theoretic Tsallis entropy against
the discrete one; both are entropy.tsallis_entropy, on the uniform-probability
and the counting partition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import _power_sum, tsallis_entropy
from .maxent import (
    ConstraintSet,
    _central_differences,
    _check_arguments,
    _check_independent,
    _dual_newton,
    _per_unit,
    _resolved_sensitivity,
    _start_point,
    _support_setup,
)
from .measure import (
    DensityVector,
    ProbabilityVector,
    WeightedPartition,
    _ratio_density,
    induced_pmf,
    radon_nikodym,
    uniform_partition,
)
from .qcalc import check_index, q_exp, q_log

__all__ = [
    "EmptySupportError",
    "TsallisSolution",
    "ConsistencyReport",
    "solve_tsallis_maxent",
    "tsallis_thermo",
    "discrete_consistency_report",
]


class EmptySupportError(ValueError):
    """Every cell fell below the q-exponential cutoff (beta too extreme)."""


@dataclass(frozen=True, eq=False)
class TsallisSolution:
    """Converged escort-constrained Tsallis MaxEnt output.

    beta are the true multipliers; beta_q = beta / q_mass the renormalized
    ones appearing inside the q-exponential.  iterations = (Newton steps,
    total step halvings).  identity_residuals maps escort_moment,
    power_mass_vs_zbar, entropy_vs_lnq_zbar and multiplier_scaling to the
    defects of those identities, computed from the fields above.
    """

    constraints: ConstraintSet
    partition: WeightedPartition
    q: float
    beta: np.ndarray
    beta_q: np.ndarray
    q_mass: float
    zbar: float
    density: DensityVector
    escort_moments: np.ndarray
    entropy_q: float
    residual_norm: float
    iterations: tuple[int, int]
    identity_residuals: dict

    @property
    def pmf(self) -> ProbabilityVector:
        return induced_pmf(self.density)


def _escort_family(lam: np.ndarray, z: np.ndarray, mu: np.ndarray, one_minus_q: float):
    """The target-centred family at lam (in span units), one entry per column of z.

    Returns (raw, ratio, zbar, escort): raw = e_q(x_k) and ratio = e_q(x_k)^(q-1)
    at x_k = -lam . z_k, both 0 past the q < 1 cut-off; zbar = mu . raw;
    and the escort weights mu_k e_q(x_k)^q.  None where no density exists:
    past the q > 1 pole, or with every cell cut off.
    """
    x = -(lam @ z)
    if one_minus_q == 0.0:
        raw, ratio = np.exp(x), np.ones_like(x)
    else:
        base = 1.0 + one_minus_q * x
        live = base > 0.0
        if one_minus_q < 0.0 and not np.all(live):
            return None
        raw = np.zeros_like(x)
        ratio = np.zeros_like(x)
        # log1p keeps the exponent accurate when q is close to the classical band
        raw[live] = np.exp(np.log1p(one_minus_q * x[live]) / one_minus_q)
        ratio[live] = 1.0 / base[live]
    zbar = float(mu @ raw)
    if zbar == 0.0:
        return None
    return raw, ratio, zbar, mu * raw * ratio


def solve_tsallis_maxent(
    constraints: ConstraintSet,
    partition: WeightedPartition,
    tolerance: float = 1e-10,
    max_outer: int = 100,
    max_inner: int = 500,
    *,
    start=None,
) -> TsallisSolution:
    """Damped Newton on the escort dual zbar(lambda), lambda = beta_q.

    The iteration starts at lambda = start, the beta_q of a nearby problem,
    or at lambda = 0 where start is None or no density exists there (past
    the q > 1 pole, or with every cell cut off).  max_outer caps the Newton
    steps and max_inner the step halvings within one Newton step.
    """
    _check_arguments(tolerance=tolerance, max_outer=max_outer, max_inner=max_inner)
    support, z, scales, mu = _support_setup(constraints, partition, "escort")
    q, targets = constraints.q, constraints.targets
    one_minus_q = 1.0 - q

    def evaluate(lam: np.ndarray):
        family = _escort_family(lam, z, mu, one_minus_q)
        if family is None:
            return math.inf, None, None, math.inf, None
        raw, ratio, zbar, escort = family
        moments = (z @ escort) / float(np.sum(escort))
        hessian = (z * ((1.0 - one_minus_q) * escort * ratio)) @ z.T
        return zbar, -(z @ escort), hessian, moments, (raw, zbar, moments)

    lam, (raw, zbar, moments), residual_norm, steps, halvings = _dual_newton(
        evaluate, z, tolerance, max_outer, max_inner, "solve_tsallis_maxent",
        _start_point(start, scales),
    )
    moments = targets + scales * moments
    with np.errstate(over="ignore"):
        on_support = raw / zbar
    density = _ratio_density(on_support, support, partition)
    q_mass = _power_sum(density, q)
    beta_q = _per_unit(lam, scales)
    beta = beta_q * q_mass
    entropy_q = tsallis_entropy(density, q)
    residuals = {
        "escort_moment": float(np.max(np.abs(moments - targets), initial=0.0)),
        "power_mass_vs_zbar": abs(q_mass - zbar ** (1.0 - q)),
        "entropy_vs_lnq_zbar": abs(entropy_q - q_log(zbar, q)),
        "multiplier_scaling": float(np.max(np.abs(beta_q * q_mass - beta), initial=0.0)),
    }
    return TsallisSolution(
        constraints=constraints,
        partition=partition,
        q=q,
        beta=beta,
        beta_q=beta_q,
        q_mass=q_mass,
        zbar=zbar,
        density=density,
        escort_moments=moments,
        entropy_q=entropy_q,
        residual_norm=residual_norm,
        iterations=(steps, halvings),
        identity_residuals=residuals,
    )


def _lnq_z_gradient(center: np.ndarray, q: float, z, mu, fd_step: float) -> np.ndarray:
    """d(ln_q Z_q + beta . t)/d(beta s) by maxent._central_differences at
    center +- h e_m, h from fd_step down while a step leaves the escort family,
    everything in span units: center = beta_q s, and the family lives on z.

    At each shifted gamma the solver's target-centred density is re-centred on
    its own escort mean, c = E[z] in span units, in closed form through
    e_q(x + y) = e_q(x) e_q(y / (1 + (1-q) x)):
    lambda' = gamma / (1 - (1-q) gamma . c), beta' = lambda' w and
    zbar_c = e_q(lambda' . c) zbar(gamma), so ln_q Z_q + beta . t = ln_q zbar_c - beta' . c,
    differenced as zbar_c^(1-q)/(1-q) - beta' . c (ln zbar_c - beta' . c in the
    classical band).
    The shifts move beta' along no coordinate axis, so the gradient solves the
    M x M system of the differences of (beta', ln_q Z_q + beta . t).
    """
    one_minus_q = 1.0 - q

    outside = ValueError(f"fd_step: every step from {fd_step!r} down leaves the escort family "
                         "(past the q > 1 pole, or every cell cut off); use a smaller fd_step")

    def point(gamma: np.ndarray) -> np.ndarray:
        family = _escort_family(gamma, z, mu, one_minus_q)
        if family is None:
            raise outside
        _, _, zbar, escort = family
        escort_mass = float(np.sum(escort))
        offset = (z @ escort) / escort_mass
        w = escort_mass / zbar ** (1.0 - one_minus_q)
        lam = gamma / (1.0 - one_minus_q * float(gamma @ offset))
        beta = lam * w
        zbar_c = q_exp(float(lam @ offset), q) * zbar
        if not 0.0 < zbar_c < math.inf:
            raise outside
        # ln_q zbar_c less its constant -1/(1-q), which cancels in the
        # differences: at large q, zbar_c^(1-q) is far below that constant's
        # rounding
        lnq = math.log(zbar_c) if one_minus_q == 0.0 else zbar_c**one_minus_q / one_minus_q
        return np.append(beta, lnq - float(beta @ offset))

    M = center.size
    rises = _central_differences(point, center, np.full(M, fd_step))[0].reshape(M, M + 1)
    return np.linalg.solve(rises[:, :M], rises[:, M])


def tsallis_thermo(solution: TsallisSolution, fd_step: float = 1e-4) -> dict:
    """Finite-difference checks of the deformed thermodynamic identities.

    legendre_gap:        |beta . (achieved - targets)|, the exact defect in
                         ln_q Z_q = ln_q zbar - beta . moments when moments
                         are read at the targets instead of the achieved values
    log_z_gradient[m]:   |d(ln_q Z_q)/d(beta_m) + <<u_m>>|, differencing the
                         family re-centred on its own escort mean at
                         beta_q +- fd_step/s_m (see _lnq_z_gradient), which
                         is s_m |d(ln_q Z_q + beta . t)/d(beta_m s_m) + E[z_m]|
    entropy_sensitivity[m]: |dS_q/d(t_m) - beta_m|, re-solving at
                         t_m +- fd_step s_m from the solution's beta_q
    Both differences shrink their step as in maxent._central_differences.

    The sensitivity sign matches the classical solver: for this family
    dS_q/dt_m = beta_m (the two-point closed form fixes the sign).
    A feature that is an affine combination of those before it is refused
    first, as functions[m] (see maxent._check_independent).
    """
    _check_arguments(fd_step=fd_step)
    constraints = solution.constraints
    _, z, scales, mu = _support_setup(constraints, solution.partition, "escort")
    _check_independent(z)
    gap = solution.escort_moments - constraints.targets
    gradient = _lnq_z_gradient(solution.beta_q * scales, solution.q, z, mu, fd_step)
    return {
        "legendre_gap": float(abs(solution.beta @ gap)) if constraints.size else 0.0,
        "log_z_gradient": scales * np.abs(gradient + gap / scales),
        "entropy_sensitivity": _resolved_sensitivity(
            solve_tsallis_maxent, "entropy_q", solution, fd_step * scales, solution.beta_q
        ),
    }


@dataclass(frozen=True)
class ConsistencyReport:
    """Measure-theoretic vs discrete Tsallis entropy on the uniform reference.

    measure_entropy is tsallis_entropy of the density n P_k against
    mu_k = 1/n, discrete_entropy that of P on counting cells (both Shannon
    at q = 1, the whole classical band); identity_residual is the defect in
    measure = discrete - n^(q-1) ln_q(n) sum P^q, which vanishes analytically:
    it is rounding in the band, and just outside it the cancellation in
    (1 - sum)/(q - 1), about eps/|q - 1| (9.2e-8 at q = 1 + 2e-9).
    constant_residual (when zbar is supplied) checks
    sum P^q = n^(1-q) zbar^(1-q), constant across the constraint set.
    """

    q: float
    n: int
    measure_entropy: float
    discrete_entropy: float
    power_sum: float
    identity_residual: float
    constant_residual: float | None


def discrete_consistency_report(
    P: ProbabilityVector,
    q: float,
    zbar: float | None = None,
) -> ConsistencyReport:
    q = check_index(q)
    n = P.masses.size
    # discrete side: P_k on counting cells; measure side: n P_k against mu_k = 1/n
    counted = radon_nikodym(P, uniform_partition(n))
    power_sum = _power_sum(counted, q)
    discrete = tsallis_entropy(counted, q)
    measure = tsallis_entropy(radon_nikodym(P, uniform_partition(n, "uniform_probability")), q)
    rhs = discrete - n ** (q - 1.0) * q_log(float(n), q) * power_sum
    constant_residual = None if zbar is None else abs(power_sum - n ** (1.0 - q) * zbar ** (1.0 - q))
    return ConsistencyReport(
        q=q,
        n=n,
        measure_entropy=measure,
        discrete_entropy=discrete,
        power_sum=power_sum,
        identity_residual=abs(measure - rhs),
        constant_residual=constant_residual,
    )
