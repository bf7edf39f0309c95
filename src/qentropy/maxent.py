"""Maximum-entropy solvers' shared engine and the classical (Gibbs) solver.

Both MaxEnt prescriptions are solved in their M-dimensional convex dual by
one damped Newton routine, _dual_newton.  The classical solver maximizes the
measure entropy -sum p_k ln(p_k) mu_k subject to sum u_m(x_k) p_k mu_k = t_m;
the maximizer is the Gibbs density p_k = exp(-sum_m beta_m u_m(x_k)) / Z(beta)
and the dual is log Z(beta) + beta . t (gradient t - E[u], curvature the
moment covariance).  The escort dual that tsallis.py hands to the same
routine is described there.

Both solvers pose their dual on _support_setup and check their arguments
with _check_arguments.  The dual is written in span units: each feature is
centred on its target and divided by s_m, the power of two nearest its span
on the support, z_k = (u_k - t)/s, and the dual variable is b = beta s.
Dividing by a power of two is exact, so z, every Newton step, the pmf and the
stopping test are the same floats whatever the units of a feature; tolerance
bounds each |E[z_m]|, and beta = b/s and E[u] = t + s E[z] are formed once,
after the solve.  A direction d with d . z_k > 0 on the whole support proves
the targets jointly infeasible, and along it the dual decreases without
bound; the routine tests each Newton step and iterate as such a d and raises
InfeasibleError naming it.  Both audits step by fd_step/s_m in beta and
check dS/dt_m = beta_m by re-solving at t_m +- fd_step s_m in
_resolved_sensitivity, each difference taken by _central_differences.  Each
re-solve starts from the audited solution's multipliers (the start keyword of
both solvers), next to its answer, in place of 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import _logsumexp, shannon_entropy
from .measure import (
    DensityVector,
    ProbabilityVector,
    WeightedPartition,
    _ratio_density,
    induced_pmf,
)
from .qcalc import check_index

__all__ = [
    "InfeasibleError",
    "ConvergenceError",
    "ConstraintSet",
    "GibbsSolution",
    "partition_function",
    "solve_maxent",
    "thermo_residuals",
]


class InfeasibleError(ValueError):
    """Targets outside the strict interior of the moment polytope."""


class ConvergenceError(RuntimeError):
    """Iteration cap reached; carries the last residual, max_m |E[u_m] - t_m|/s_m
    in span units, for diagnostics."""

    def __init__(self, message: str, residual_norm: float, iterations: int):
        super().__init__(message)
        self.residual_norm = residual_norm
        self.iterations = iterations


@dataclass(frozen=True, eq=False)
class ConstraintSet:
    """Observables u_m with prescribed expectations t_m.

    kind selects the expectation: "ordinary" (plain mean) or "escort"
    (normalized q-expectation, used by the Tsallis solver; requires q).
    """

    functions: tuple
    targets: np.ndarray
    kind: str = "ordinary"
    q: float | None = None

    def __post_init__(self) -> None:
        funcs = tuple(np.asarray(u, dtype=float) for u in self.functions)
        object.__setattr__(self, "functions", funcs)
        targets = np.atleast_1d(np.asarray(self.targets, dtype=float))
        object.__setattr__(self, "targets", targets)
        if targets.ndim != 1 or targets.size != len(funcs):
            raise ValueError(
                f"targets: need one target per function, got {targets.size} "
                f"targets for {len(funcs)} functions"
            )
        if np.any(~np.isfinite(targets)):
            raise ValueError("targets: must be finite")
        for m, u in enumerate(funcs):
            if u.ndim != 1 or u.size == 0:
                raise ValueError(f"functions[{m}]: need a nonempty 1-d value list")
            if np.any(~np.isfinite(u)):
                raise ValueError(f"functions[{m}]: values must be finite")
            if u.size != funcs[0].size:
                raise ValueError(
                    f"functions[{m}]: length {u.size} differs from functions[0] "
                    f"length {funcs[0].size}"
                )
            if not (float(np.min(u)) <= targets[m] <= float(np.max(u))):
                raise ValueError(
                    f"targets[{m}]: {targets[m]!r} lies outside the attainable "
                    f"range [{float(np.min(u))!r}, {float(np.max(u))!r}]"
                )
        if self.kind not in ("ordinary", "escort"):
            raise ValueError(f"kind: expected 'ordinary' or 'escort', got {self.kind!r}")
        if self.kind == "escort":
            if self.q is None:
                raise ValueError("q: escort constraints require a deformation index")
            object.__setattr__(self, "q", check_index(self.q))
        elif self.q is not None:
            raise ValueError("q: ordinary constraints take no deformation index")

    @property
    def size(self) -> int:
        return len(self.functions)

    def feature_matrix(self, cells: int) -> np.ndarray:
        if self.functions and self.functions[0].size != cells:
            raise ValueError(
                f"functions: value lists have {self.functions[0].size} entries "
                f"but the partition has {cells} cells"
            )
        if not self.functions:
            return np.empty((0, cells), dtype=float)
        return np.vstack(self.functions)

    def with_targets(self, targets) -> "ConstraintSet":
        return ConstraintSet(self.functions, targets, self.kind, self.q)


@dataclass(frozen=True, eq=False)
class GibbsSolution:
    """Converged classical MaxEnt output.

    entropy equals log_z + beta . achieved_moments up to rounding;
    entropy_identity reports the defect rather than assuming it is zero.
    """

    constraints: ConstraintSet
    partition: WeightedPartition
    beta: np.ndarray
    log_z: float
    density: DensityVector
    achieved_moments: np.ndarray
    entropy: float
    residual_norm: float
    iterations: int

    @property
    def pmf(self) -> ProbabilityVector:
        return induced_pmf(self.density)

    @property
    def entropy_identity(self) -> float:
        """|entropy - (log_z + beta . achieved_moments)|."""
        return abs(self.entropy - (self.log_z + float(self.beta @ self.achieved_moments)))


def partition_function(
    beta, constraints: ConstraintSet, partition: WeightedPartition
) -> float:
    """log of sum_k exp(-sum_m beta_m u_m(x_k)) mu_k, max-shifted for safety."""
    beta = _multipliers(beta, constraints.size, "beta")
    U = constraints.feature_matrix(len(partition))
    support = partition.weights > 0.0
    return float(_logsumexp(-(beta @ U[:, support]), b=partition.weights[support]))


def _multipliers(values, size: int, field: str) -> np.ndarray:
    """values as M = size finite multipliers, a flat float array."""
    values = np.asarray(values, dtype=float).ravel()
    if values.size != size or not np.all(np.isfinite(values)):
        raise ValueError(f"{field}: need {size} finite multipliers, got {values!r}")
    return values


def _check_arguments(**arguments) -> None:
    """tolerance and fd_step must lie in (0, 1); every other argument is an
    iteration count and must be at least 1."""
    for name, value in arguments.items():
        if name in ("tolerance", "fd_step"):
            if not (0.0 < value < 1.0):
                raise ValueError(f"{name}: need a value in (0, 1), got {value!r}")
        elif value < 1:
            raise ValueError(f"{name}: need at least 1, got {value!r}")


def _support_setup(constraints: ConstraintSet, partition: WeightedPartition, kind: str):
    """The problem both MaxEnt duals are posed on: the support cells (mu_k > 0),
    the features there in span units z_k = (u_k - t)/s, the scales s, and mu_k.

    s_m = 2^round(log2 span_m), span_m the range of u_m on the support.  It is
    read off half the span, hi/2 - lo/2, and z as u/s - t/s, so that neither an
    overflowing hi - lo nor u - t is formed.  The constraints must be of the
    solver's kind, the total weight finite, and each target strictly inside its
    feature's range on the support; on the range's edge the maximizer would be
    a degenerate limit.
    """
    if constraints.kind != kind:
        raise ValueError(
            f"constraints: kind must be {kind!r} for this solver, got {constraints.kind!r}"
        )
    weights = partition.weights
    targets = constraints.targets
    support = weights > 0.0
    features = constraints.feature_matrix(len(partition))
    if support.all():
        # a contiguous mu: a zero-stride one would change the order of mu @ x
        mu = np.ascontiguousarray(weights)
    else:
        # compress, not [:, support]: that copy is Fortran-ordered, and every
        # evaluation walks z a row at a time
        features, mu = features.compress(support, axis=1), weights[support]
    with np.errstate(over="ignore"):
        total = float(mu.sum())
    if not math.isfinite(total):
        raise ValueError(
            f"partition.weights: the total weight {total!r} overflows; rescale the weights"
        )
    scales = np.empty(constraints.size)
    for m, u in enumerate(features):
        lo, hi = float(np.min(u)), float(np.max(u))
        if not (lo < targets[m] < hi):
            raise InfeasibleError(
                f"targets[{m}]: {targets[m]!r} is not strictly inside the "
                f"attainable range ({lo!r}, {hi!r}) on the support; the "
                f"maximizer would be a degenerate limit"
            )
        # span = 2 mantissa 2^exponent; half a span of two subnormal ulps can
        # round to 0, and is then the smallest subnormal
        mantissa, exponent = math.frexp(max(hi / 2.0 - lo / 2.0, _TINY))
        scales[m] = math.ldexp(1.0, exponent + round(math.log2(2.0 * mantissa)))
    z = features / scales[:, None] - (targets / scales)[:, None]
    return support, z, scales, mu


def _start_point(start, scales: np.ndarray) -> np.ndarray | None:
    """b = start s for a solver's start multipliers; None where none were given
    or where a product overflows, and the solve then starts from b = 0."""
    if start is None:
        return None
    with np.errstate(over="ignore"):
        b = _multipliers(start, scales.size, "start") * scales
    return b if np.all(np.isfinite(b)) else None


def _per_unit(b: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """The multipliers beta = b/s, refused where one overflows: its feature
    spans too little on the support (about 1e-307 or less) for beta to be a float."""
    beta = b / scales
    if not np.all(np.isfinite(beta)):
        m = int(np.argmin(np.isfinite(beta)))
        raise ValueError(
            f"functions[{m}]: the multiplier b/s = {float(b[m])!r}/{float(scales[m])!r} "
            f"overflows, because the feature spans too little on the support; rescale "
            f"the feature and its target"
        )
    return beta


_ARMIJO = 1e-4
_ROUNDING = 64.0 * float(np.finfo(float).eps)
_TINY = math.ulp(0.0)
_CERTIFICATE_MARGIN = 1e-12


def _max_abs(x: np.ndarray) -> float:
    return float(np.abs(x).max(initial=0.0))


def _certify_infeasible(direction: np.ndarray, z: np.ndarray) -> None:
    """Raise InfeasibleError when d = direction/|direction| has d . z_k > 0 on
    every support cell: then every pmf on the support has d . E[z] > 0, so no
    density reaches the targets."""
    norm = _max_abs(direction)
    if not (0.0 < norm < math.inf):
        return
    d = direction / norm
    margin = float(np.min(d @ z))
    if margin > _CERTIFICATE_MARGIN:
        raise InfeasibleError(
            f"targets: jointly infeasible; the direction d = {d.tolist()!r} has "
            f"d . (u_k - t)/s >= {margin!r} on every support cell (s: each feature's "
            f"span, rounded to a power of two), so no density meets all the targets at once"
        )


def _dual_newton(evaluate, z, tolerance, max_steps, max_halvings, name, start=None):
    """Damped Newton on a convex dual; both MaxEnt solvers run here.

    The iteration starts at b = start, or at b = 0 where start is None or
    lies outside the dual's domain.  evaluate(b) returns (value, gradient,
    hessian, residual, state), with value +inf outside the dual's domain and
    residual E[z].  The loop stops once each |E[z_m]| is within tolerance
    or, where larger, the rounding of the moment, _ROUNDING max_k |z_mk|.
    A step is taken when it passes the Armijo test; a full step is also
    taken when the dual moved by no more than rounding and the residual
    fell, because near the minimum the dual is flat to machine precision
    while its gradient still carries information.
    z holds the support cells as columns; each step and each new iterate is
    tested as an infeasibility certificate.

    Returns (b, state, residual_norm, newton_steps, total_halvings).
    """
    spread = np.abs(z)
    tolerances = np.maximum(tolerance, _ROUNDING * np.max(spread, axis=1, initial=0.0))
    point = None if start is None else evaluate(start)
    if point is not None and math.isfinite(point[0]):
        b = start
    else:
        b = np.zeros(z.shape[0])
        point = evaluate(b)
    value, gradient, hessian, residual, state = point
    halvings = 0
    for steps in range(max_steps + 1):
        residual_norm = _max_abs(residual)
        if (np.abs(residual) <= tolerances).all():
            break
        if steps == max_steps:
            raise ConvergenceError(
                f"{name}: moment residual {residual_norm!r} above tolerance "
                f"{tolerance!r} after {max_steps} iterations",
                residual_norm,
                steps,
            )
        try:
            step = np.linalg.solve(hessian, -gradient)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hessian, -gradient, rcond=None)[0]
        _certify_infeasible(step, z)
        decrease = _ARMIJO * float(gradient @ step)
        # the dual's rounding error grows with |f| and with the size of the
        # terms of the exponents b . z_k it is summed from
        rounding = _ROUNDING * (1.0 + abs(value)) * (1.0 + float(np.max(np.abs(b) @ spread)))
        scale = 1.0
        for halving in range(max_halvings + 1):
            trial = b + scale * step
            trial_eval = evaluate(trial)
            change = trial_eval[0] - value
            if change <= scale * decrease or (
                halving == 0 and abs(change) <= rounding and _max_abs(trial_eval[3]) < residual_norm
            ):
                break
            scale *= 0.5
        else:
            raise ConvergenceError(
                f"{name}: line search stalled at residual {residual_norm!r} "
                f"after {max_halvings} halvings",
                residual_norm,
                steps,
            )
        halvings += halving
        b = trial
        value, gradient, hessian, residual, state = trial_eval
        _certify_infeasible(b, z)
    return b, state, residual_norm, steps, halvings


def solve_maxent(
    constraints: ConstraintSet,
    partition: WeightedPartition,
    tolerance: float = 1e-10,
    max_iterations: int = 200,
    *,
    start=None,
) -> GibbsSolution:
    """Damped Newton on the convex dual log Z(beta) + beta . t.

    The iteration starts at beta = start, the multipliers of a nearby
    problem, or at beta = 0 where start is None or log Z is not finite there.
    In span units the dual is L(b) = log sum_k mu_k exp(-b . z_k), which is
    log Z(beta) + beta . t; summing it on the centred exponent keeps the
    digits that adding beta . t to log Z would cancel.  Each evaluation takes
    one exp, shifted by the largest exponent, for the value and the masses.
    """
    _check_arguments(tolerance=tolerance, max_iterations=max_iterations)
    support, z, scales, mu = _support_setup(constraints, partition, "ordinary")
    targets = constraints.targets

    def evaluate(b: np.ndarray):
        exponent = -(b @ z)
        shift = float(exponent.max())
        if not math.isfinite(shift):
            return math.inf, None, None, math.inf, None
        # each term is at most its mu_k, and the top one is mu_k, so with the
        # total of mu finite (_support_setup) the sum is a positive finite float
        terms = np.exp(exponent - shift) * mu
        total = float(terms.sum())
        value, masses = shift + math.log(total), terms / total
        moments = z @ masses
        deviations = z - moments[:, None]
        hessian = deviations @ (deviations * masses).T
        return value, -moments, hessian, moments, (exponent, value, moments)

    b, (exponent, dual, moments), residual_norm, iterations, _ = _dual_newton(
        evaluate, z, tolerance, max_iterations, 60, "solve_maxent", _start_point(start, scales)
    )
    beta = _per_unit(b, scales)
    values = np.zeros(len(partition))
    with np.errstate(over="ignore"):
        values[support] = np.exp(exponent - dual)
    density = _ratio_density(values, partition)
    entropy = shannon_entropy(density)
    return GibbsSolution(
        constraints=constraints,
        partition=partition,
        beta=beta,
        log_z=dual - float(beta @ targets),
        density=density,
        achieved_moments=targets + scales * moments,
        entropy=entropy,
        residual_norm=residual_norm,
        iterations=iterations,
    )


# a step that leaves the domain of what is differenced is divided by 10 at
# most this many times, down to its first value / 10^5, before the audit gives up
FD_STEP_SHRINKS = 5


def _central_differences(f, center: np.ndarray, steps: np.ndarray):
    """(rises, h): rises[m] = f(c + h_m e_m) - f(c - h_m e_m) for the h_m taken;
    every difference of both audits is taken here.  h_m starts at steps[m] and
    is divided by 10 while f raises ValueError (a shifted target past the
    feasible set, which can be thinner than the step, or a step past the escort
    family's pole or cut-off), up to FD_STEP_SHRINKS times; then f's error is raised."""
    rises, steps = [], np.array(steps, dtype=float)
    for m in range(steps.size):
        for shrinks in range(FD_STEP_SHRINKS + 1):
            plus, minus = center.copy(), center.copy()
            plus[m], minus[m] = center[m] + steps[m], center[m] - steps[m]
            try:
                rises.append(f(plus) - f(minus))
                break
            except ValueError:
                if shrinks == FD_STEP_SHRINKS:
                    raise
                steps[m] /= 10.0
    return np.array(rises), steps


def _resolved_sensitivity(
    solve, entropy_field: str, solution, steps: np.ndarray, start: np.ndarray
) -> np.ndarray:
    """|dS/dt_m - beta_m| per constraint: (S(t_m + h) - S(t_m - h)) / 2h, S
    read from entropy_field of re-solves at tolerance 1e-12, each started
    from the solution's own multipliers start, which lie next to its answer.
    h starts at steps[m] (fd_step s_m)."""
    constraints, partition = solution.constraints, solution.partition

    def entropy_at(targets: np.ndarray) -> float:
        solved = solve(constraints.with_targets(targets), partition, tolerance=1e-12, start=start)
        return getattr(solved, entropy_field)

    rises, steps = _central_differences(entropy_at, constraints.targets, steps)
    return np.abs(rises / (2.0 * steps) - solution.beta)


def thermo_residuals(solution: GibbsSolution, fd_step: float = 1e-4):
    """Finite-difference checks of the two thermodynamic identities.

    grad_residual[m]:        |d(log Z)/d(beta_m) + <u_m>|   (central difference
                             at beta_m +- fd_step/s_m)
    sensitivity_residual[m]: |dS/d(t_m) - beta_m|           (re-solve at
                             t_m +- fd_step s_m from the solution's beta,
                             the step shrinking as in _central_differences)

    The gradient is differenced in span units, on L(b) = log Z + beta . t,
    whose b-gradient is -E[z]: the residual is s_m |dL/db_m + E[z_m]|.
    The sensitivity sign follows from S(t) = log Z(beta(t)) + beta(t) . t and
    the envelope theorem: dS/dt_m = beta_m for the Gibbs form used here.
    """
    _check_arguments(fd_step=fd_step)
    constraints = solution.constraints
    _, z, scales, mu = _support_setup(constraints, solution.partition, "ordinary")
    offset = (solution.achieved_moments - constraints.targets) / scales
    rises, steps = _central_differences(lambda point: _logsumexp(-(point @ z), b=mu),
                                        solution.beta * scales, np.full(constraints.size, fd_step))
    return scales * np.abs(rises / (2.0 * steps) + offset), _resolved_sensitivity(
        solve_maxent, "entropy", solution, fd_step * scales, solution.beta
    )
