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
e_q, zbar and the escort weights.  It is each _escort_dual evaluation's state,
which the density and the audit read; both audit checks difference it as
_escort_member, re-centred on its own escort mean, and neither solves again;
a member's S_q is summed on the support, e_q(x_k)/zbar against mu.

The solver returns its identity checks as a named residual map rather than
asserting them, so a caller can log them: w = zbar^(1-q), S_q = ln_q zbar and
the escort moments, each read off the q-mass, entropy and moments the solve
has just computed (the test suite pins them at 1e-8).
discrete_consistency_report sets the measure-theoretic Tsallis entropy against
the discrete one, on the uniform-probability and the counting partition; the
discrete side reads S_q off the power sum it reports.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .entropy import _power_sum, _shannon_sum, shannon_entropy, tsallis_entropy
from .maxent import (
    ConstraintSet,
    _central_differences,
    _check_arguments,
    _check_independent,
    _dual_newton,
    _family_sensitivity,
    _first_steps,
    _per_unit,
    _support_setup,
)
from .measure import (
    DensityVector,
    ProbabilityVector,
    WeightedPartition,
    _carried,
    _live_index,
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
    power_mass_vs_zbar and entropy_vs_lnq_zbar to the defects of those
    identities, computed from the fields above.  _dual = (support, z, scales,
    mu, lambda s, point): the posed dual, lambda s and its last _escort_dual
    evaluation (see maxent).
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
    _dual: tuple = field(repr=False)

    @property
    def pmf(self) -> ProbabilityVector:
        return induced_pmf(self.density)


def _escort_family(lam: np.ndarray, z: np.ndarray, mu: np.ndarray, one_minus_q: float):
    """The target-centred family at lam (in span units), one entry per column of z.

    Returns (x, raw, ratio, zbar, escort): the exponents x_k = -lam . z_k;
    raw = e_q(x_k) and ratio = e_q(x_k)^(q-1) = 1/(1 + (1-q) x_k), both 0 past
    the q < 1 cut-off; zbar = mu . raw; and the escort weights mu_k e_q(x_k)^q.
    None where no density exists: past the q > 1 pole, or with every cell cut
    off.  (1-q) x is formed once, and the live cells are picked out only where
    some cell is cut off (measure._live_index); otherwise every array is read
    whole.
    """
    x = -(lam @ z)
    if one_minus_q == 0.0:
        raw, ratio = np.exp(x), np.ones_like(x)
    else:
        scaled = one_minus_q * x
        base = 1.0 + scaled
        live = _live_index(base > 0.0)
        if one_minus_q < 0.0 and not isinstance(live, slice):
            return None
        raw, ratio = np.zeros_like(x), np.zeros_like(x)
        # log1p keeps the exponent accurate when q is close to the classical band
        raw[live] = np.exp(np.log1p(scaled[live]) / one_minus_q)
        ratio[live] = 1.0 / base[live]
    zbar = float(mu @ raw)
    if zbar == 0.0:
        return None
    return x, raw, ratio, zbar, mu * raw * ratio


def _escort_dual(z: np.ndarray, mu: np.ndarray, one_minus_q: float):
    """evaluate(lam) for maxent._dual_newton on the escort dual zbar(lambda),
    in span units; its state is the _escort_family tuple at lam."""

    def evaluate(lam: np.ndarray):
        family = _escort_family(lam, z, mu, one_minus_q)
        if family is None:
            return math.inf, None, None, math.inf, None, None
        x, raw, ratio, zbar, escort = family
        moments = (z @ escort) / float(np.sum(escort))
        hessian = (z * ((1.0 - one_minus_q) * escort * ratio)) @ z.T
        return zbar, -(z @ escort), hessian, moments, x, family

    return evaluate


def solve_tsallis_maxent(
    constraints: ConstraintSet,
    partition: WeightedPartition,
    tolerance: float = 1e-10,
    max_outer: int = 100,
    max_inner: int = 500,
) -> TsallisSolution:
    """Damped Newton on the escort dual zbar(lambda), lambda = beta_q, from
    lambda = 0, evaluated by _escort_dual.  max_outer caps the Newton steps
    and max_inner the step halvings within one Newton step.
    """
    _check_arguments(tolerance=tolerance, max_outer=max_outer, max_inner=max_inner)
    support, z, scales, mu = _support_setup(constraints, partition, "escort")
    q, targets = constraints.q, constraints.targets
    lam, point, residual_norm, steps, halvings = _dual_newton(
        _escort_dual(z, mu, 1.0 - q), z, tolerance, max_outer, max_inner, "solve_tsallis_maxent"
    )
    zbar = point[0]
    moments = targets + scales * point[3]
    with np.errstate(over="ignore"):
        density = _ratio_density(point[5][1] / zbar, support, partition)
    q_mass = _power_sum(density.values, partition.weights, q)
    if q_mass == math.inf:
        raise ValueError(f"q: the escort normalizer w = sum_k p_k^q mu_k overflows at q = {q!r} "
                         f"on this partition, so beta = beta_q w is not a float")
    beta_q = _per_unit(lam, scales)
    beta = beta_q * q_mass
    entropy_q = shannon_entropy(density) if q == 1.0 else (1.0 - q_mass) / (q - 1.0) + 0.0
    residuals = {
        "escort_moment": float(np.max(np.abs(moments - targets), initial=0.0)),
        "power_mass_vs_zbar": abs(q_mass - zbar ** (1.0 - q)),
        "entropy_vs_lnq_zbar": abs(entropy_q - q_log(zbar, q)),
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
        _dual=(support, z, scales, mu, lam, point),
    )


_LOG_TINY, _LOG_HUGE = math.log(sys.float_info.min), math.log(sys.float_info.max)


def _normal(log_value: float, name: str, q: float) -> float:
    """exp(log_value), refused where it is not a normal float: a power such as
    zbar^q overflows where the quotient it enters is a float."""
    if not _LOG_TINY <= log_value <= _LOG_HUGE:
        raise ValueError(f"q: {name} is exp({log_value!r}), outside the normal floats, "
                         f"at q = {q!r} on this partition, so the escort audit cannot "
                         f"difference it")
    return math.exp(log_value)


def _escort_member(gamma: np.ndarray, q: float, z, mu):
    """(family, c, lambda', beta'): the _escort_family at gamma (span units)
    re-centred on its own escort mean c = E[z] through
    e_q(x + y) = e_q(x) e_q(y / (1 + (1-q) x)), the escort solution at target c
    with lambda' = gamma / (1 - (1-q) gamma . c) and beta' = lambda' w, w in log
    scale; None past the q > 1 pole or with every cell cut off."""
    one_minus_q = 1.0 - q
    family = _escort_family(gamma, z, mu, one_minus_q)
    if family is None:
        return None
    _, _, _, zbar, escort = family
    escort_mass = float(np.sum(escort))
    offset = (z @ escort) / escort_mass
    w = _normal(math.log(escort_mass) - q * math.log(zbar),
                "the escort normalizer w = sum_k p_k^q mu_k", q)
    lam = gamma / (1.0 - one_minus_q * float(gamma @ offset))
    return family, offset, lam, lam * w


def _lnq_z_gradient(center: np.ndarray, q: float, z, mu, steps: np.ndarray) -> np.ndarray:
    """d(ln_q Z_q + beta . t)/d(beta s) by maxent._central_differences at
    center +- h e_m, h from steps[m] (see tsallis_thermo) down while a step
    leaves the escort family, everything in span units: center = beta_q s, and
    the family lives on z.

    At each _escort_member, zbar_c = e_q(lambda' . c) zbar(gamma) and
    ln_q Z_q + beta . t = ln_q zbar_c - beta' . c, differenced as
    zbar_c^(1-q)/(1-q) - beta' . c (ln zbar_c - beta' . c in the classical
    band).  The shifts move beta' along no coordinate axis, so the gradient
    solves the M x M system of the differences of (beta', ln_q Z_q + beta . t).
    """
    one_minus_q = 1.0 - q

    def point(gamma: np.ndarray) -> np.ndarray:
        member = _escort_member(gamma, q, z, mu)
        if member is not None:
            family, offset, lam, beta = member
            zbar_c = q_exp(float(lam @ offset), q) * family[3]
        if member is None or not 0.0 < zbar_c < math.inf:
            raise ValueError(f"fd_step: every step from {steps.tolist()!r} down leaves the escort "
                             "family (past the q > 1 pole, or every cell cut off); use a smaller "
                             "fd_step")
        # ln_q zbar_c less its constant -1/(1-q), which cancels in the
        # differences: at large q, zbar_c^(1-q) is far below that constant's
        # rounding
        if one_minus_q == 0.0:
            lnq = math.log(zbar_c)
        else:
            lnq = _normal(one_minus_q * math.log(zbar_c), "zbar_c^(1-q)", q) / one_minus_q
        return np.append(beta, lnq - float(beta @ offset))

    M = center.size
    rises = _central_differences(point, center, steps)[0].reshape(M, M + 1)
    return np.linalg.solve(rises[:, :M], rises[:, M])


def tsallis_thermo(solution: TsallisSolution, fd_step: float = 1e-4) -> dict:
    """Finite-difference checks of the deformed thermodynamic identities.

    legendre_gap:        |beta . (achieved - targets)|, the exact defect in
                         ln_q Z_q = ln_q zbar - beta . moments when moments
                         are read at the targets instead of the achieved values
    log_z_gradient[m]:   |d(ln_q Z_q)/d(beta_m) + <<u_m>>|, differencing the
                         family re-centred on its own escort mean at
                         beta_q +- h/s_m (see _lnq_z_gradient), which
                         is s_m |d(ln_q Z_q + beta . t)/d(beta_m s_m) + E[z_m]|
    entropy_sensitivity[m]: |dS_q/d(t_m) - beta_m|, along the same re-centred
                         family (see maxent._family_sensitivity)
    Both differences shrink their step as in maxent._central_differences.

    The sensitivity sign matches the classical solver: for this family
    dS_q/dt_m = beta_m (the two-point closed form fixes the sign).  At the
    solution dc/dlambda = -H / sum_k mu_k e_q^q, H the solve's last Hessian,
    so the members are taken at lambda s +- h T e_m, T = -(H / sum_k mu_k e_q^q)^-1,
    inverted after the division so that a subnormal H on light weights keeps T finite.
    Both checks start from _first_steps of fd_step along their own directions
    (e_m, and T e_m), so that near the q > 1 pole or the q < 1 cut-off no step
    moves the cell nearest it by more than fd_step of its distance.
    S_q is differenced as -sum_k p_k^q mu_k/(q - 1) of the member's e_q(x_k)/zbar
    against mu, with no DensityVector built: the constant 1/(q - 1) cancels, and
    would round away a change below eps (Shannon in the classical band); one
    whose density overflows (measure._carried) shrinks its step.  The problem,
    lambda s and H are read off solution._dual, so the audit checks the solve
    that produced the solution.  A feature that is an affine combination of
    those before it is refused first (see maxent._check_independent).
    """
    _check_arguments(fd_step=fd_step)
    q = solution.q
    support, z, scales, mu, center, point = solution._dual
    _check_independent(z)
    gap = solution.escort_moments - solution.constraints.targets
    # a live base 1 + (1-q) x_k's room is its distance to (1 - fd_step) b, b the
    # smallest base (the q > 1 pole and the q < 1 cut-off lie at base 0); ratio
    # is 1/base on the live cells, 0 past the cut-off, so per_room is 1/room
    ratio = point[5][2]
    per_room = ratio / (1.0 - (1.0 - fd_step) * ratio / np.max(ratio))
    gradient = _lnq_z_gradient(center, q, z, mu, _first_steps(z * per_room * (1.0 - q), fd_step))

    def member(gamma: np.ndarray):
        found = _escort_member(gamma, q, z, mu)
        if found is None:
            return None
        family, offset, _, beta = found
        with np.errstate(over="ignore"):
            density = _carried(family[1] / family[3], support, solution.partition)
        entropy = _shannon_sum(density, mu) if q == 1.0 else -_power_sum(density, mu, q) / (q - 1.0)
        return offset, beta, entropy

    tangents = -np.linalg.inv(point[2] / float(np.sum(point[5][4])))
    steps = _first_steps(tangents.T @ z * per_room * (1.0 - q), fd_step)
    return {
        "legendre_gap": float(abs(solution.beta @ gap)) if center.size else 0.0,
        "log_z_gradient": scales * np.abs(gradient + gap / scales),
        "entropy_sensitivity": _family_sensitivity(solution, tangents, member, steps),
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
    power_sum = _power_sum(counted.values, counted.partition.weights, q)
    discrete = shannon_entropy(counted) if q == 1.0 else (1.0 - power_sum) / (q - 1.0) + 0.0
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
