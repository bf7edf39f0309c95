"""Maximum-entropy solvers' shared engine and the classical (Gibbs) solver.

Both MaxEnt prescriptions are solved in their M-dimensional convex dual by
one damped Newton routine, _dual_newton.  The classical solver maximizes the
measure entropy -sum p_k ln(p_k) mu_k subject to sum u_m(x_k) p_k mu_k = t_m;
the maximizer is the Gibbs density p_k = exp(-sum_m beta_m u_m(x_k)) / Z(beta)
and the dual is log Z(beta) + beta . t (gradient t - E[u], curvature the
moment covariance).  The escort dual that tsallis.py hands to the same
routine is described there.

Both solvers pose their dual on _support_setup (the support cells, the
features and the target-centred features on them, and mu) and check their
arguments with _check_arguments.  A direction d with d . (u_k - t) > 0 on the
whole support proves the targets jointly infeasible, and along it the dual
decreases without bound; the routine tests each Newton step and iterate as
such a d and raises InfeasibleError naming it.  Both audits check dS/dt_m =
beta_m by re-solving at t_m +- h in _resolved_sensitivity.
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
    """Iteration cap reached; carries the last residual for diagnostics."""

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

    entropy always equals log_z + beta . achieved_moments up to rounding;
    that identity is re-checked downstream rather than assumed.
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


def partition_function(
    beta, constraints: ConstraintSet, partition: WeightedPartition
) -> float:
    """log of sum_k exp(-sum_m beta_m u_m(x_k)) mu_k, max-shifted for safety."""
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    if beta.size != constraints.size or np.any(~np.isfinite(beta)):
        raise ValueError(
            f"beta: need {constraints.size} finite multipliers, got {beta!r}"
        )
    U = constraints.feature_matrix(len(partition))
    support = partition.weights > 0.0
    return float(_logsumexp(-(beta @ U[:, support]), b=partition.weights[support]))


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
    the features u_k on them, the centred features u_k - t, and mu_k.

    The constraints must be of the solver's kind, and each target strictly
    inside its feature's range on the support; on the range's edge the
    maximizer would be a degenerate limit.
    """
    if constraints.kind != kind:
        raise ValueError(
            f"constraints: kind must be {kind!r} for this solver, got {constraints.kind!r}"
        )
    weights = partition.weights
    targets = constraints.targets
    support = weights > 0.0
    features = constraints.feature_matrix(len(partition))[:, support]
    for m, u in enumerate(features):
        lo, hi = float(np.min(u)), float(np.max(u))
        if not (lo < targets[m] < hi):
            raise InfeasibleError(
                f"targets[{m}]: {targets[m]!r} is not strictly inside the "
                f"attainable range ({lo!r}, {hi!r}) on the support; the "
                f"maximizer would be a degenerate limit"
            )
        if not hi - lo <= _MAX_SPAN:
            raise ValueError(
                f"functions[{m}]: values span {hi - lo!r} on the support, past the "
                f"{_MAX_SPAN:.3g} at which the Newton curvature overflows; rescale the "
                f"feature and its target"
            )
    return support, features, features - targets[:, None], weights[support]


_ARMIJO = 1e-4
_ROUNDING = 64.0 * float(np.finfo(float).eps)
# the curvature sums squares of feature deviations, which overflow past this span
_MAX_SPAN = math.sqrt(float(np.finfo(float).max))
_CERTIFICATE_MARGIN = 1e-12


def _max_abs(x: np.ndarray) -> float:
    return float(np.abs(x).max(initial=0.0))


def _certify_infeasible(direction: np.ndarray, centered: np.ndarray) -> None:
    """Raise InfeasibleError when d = direction/|direction| has d . (u_k - t) > 0
    on every support cell: then every pmf on the support has d . (E[u] - t) > 0,
    so no density reaches the targets."""
    norm = _max_abs(direction)
    if not (0.0 < norm < math.inf):
        return
    d = direction / norm
    margin = float(np.min(d @ centered))
    if margin > _CERTIFICATE_MARGIN:
        raise InfeasibleError(
            f"targets: jointly infeasible; the direction d = {d.tolist()!r} has "
            f"d . (u_k - t) >= {margin!r} on every support cell, so no density "
            f"meets all the targets at once"
        )


def _dual_newton(evaluate, centered, tolerance, max_steps, max_halvings, name):
    """Damped Newton from b = 0 on a convex dual; both MaxEnt solvers run here.

    evaluate(b) returns (value, gradient, hessian, residual, state), with
    value +inf outside the dual's domain and residual E[u] - t.  The loop
    stops once each |E[u_m] - t_m| is within tolerance or, where larger, the
    rounding of the moment, _ROUNDING max_k |u_mk - t_m|.  A step is taken
    when it passes the Armijo test; a full step is also taken when the dual
    moved by no more than rounding and the residual fell, because near the
    minimum the dual is flat to machine precision while its gradient still
    carries information.
    centered holds u_k - t for the support cells as columns; each step and
    each new iterate is tested as an infeasibility certificate.

    Returns (b, state, residual_norm, newton_steps, total_halvings).
    """
    b = np.zeros(centered.shape[0])
    spread = np.abs(centered)
    tolerances = np.maximum(tolerance, _ROUNDING * np.max(spread, axis=1, initial=0.0))
    value, gradient, hessian, residual, state = evaluate(b)
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
        _certify_infeasible(step, centered)
        decrease = _ARMIJO * float(gradient @ step)
        # the dual's rounding error grows with |f| and with the size of the
        # terms of the exponents b . (u_k - t) it is summed from
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
        _certify_infeasible(b, centered)
    return b, state, residual_norm, steps, halvings


def solve_maxent(
    constraints: ConstraintSet,
    partition: WeightedPartition,
    tolerance: float = 1e-10,
    max_iterations: int = 200,
) -> GibbsSolution:
    """Damped Newton on the convex dual log Z(beta) + beta . t from beta = 0."""
    _check_arguments(tolerance=tolerance, max_iterations=max_iterations)
    support, features, centered, mu = _support_setup(constraints, partition, "ordinary")
    targets = constraints.targets

    def evaluate(b: np.ndarray):
        # log Z + b . t summed on the centred exponent: adding b . t to log Z
        # would cancel digits and hide the dual's last decrease in rounding
        value = float(_logsumexp(-(b @ centered), b=mu))
        if not math.isfinite(value):
            return math.inf, None, None, math.inf, None
        exponent = -(b @ features)
        log_z = float(_logsumexp(exponent, b=mu))
        masses = np.exp(exponent - log_z) * mu
        moments = features @ masses
        residual = moments - targets
        deviations = features - moments[:, None]
        hessian = deviations @ (deviations * masses).T
        return value, -residual, hessian, residual, (exponent, log_z, moments)

    beta, (exponent, log_z, moments), residual_norm, iterations, _ = _dual_newton(
        evaluate, centered, tolerance, max_iterations, 60, "solve_maxent"
    )
    values = np.zeros(len(partition))
    values[support] = np.exp(exponent - log_z)
    density = DensityVector(values, partition)
    entropy = shannon_entropy(density)
    return GibbsSolution(
        constraints=constraints,
        partition=partition,
        beta=beta,
        log_z=log_z,
        density=density,
        achieved_moments=moments,
        entropy=entropy,
        residual_norm=residual_norm,
        iterations=iterations,
    )


# a re-solve step that leaves the feasible set is divided by 10 at most this
# many times, down to fd_step / 10^5, before the audit gives up
FD_STEP_SHRINKS = 5


def _resolved_sensitivity(solve, entropy_field: str, solution, fd_step: float) -> np.ndarray:
    """|dS/dt_m - beta_m| per constraint, S read from entropy_field of the
    solution that solve returns at the shifted targets.

    dS/dt_m is the central difference (S(t_m + h) - S(t_m - h)) / 2h of
    re-solves at tolerance 1e-12.  h starts at fd_step and is divided by 10
    while either re-solve raises ValueError: the shifted target left the
    feasible set, which can be thinner than fd_step around a solvable target.
    Below fd_step / 10^FD_STEP_SHRINKS the last error is raised.
    """
    constraints, partition = solution.constraints, solution.partition
    targets = constraints.targets

    def entropy_at(m: int, value: float) -> float:
        shifted = targets.copy()
        shifted[m] = value
        resolved = solve(constraints.with_targets(shifted), partition, tolerance=1e-12)
        return getattr(resolved, entropy_field)

    residual = np.zeros(constraints.size)
    for m in range(constraints.size):
        step = fd_step
        for shrinks in range(FD_STEP_SHRINKS + 1):
            try:
                rise = entropy_at(m, targets[m] + step) - entropy_at(m, targets[m] - step)
                break
            except ValueError:
                if shrinks == FD_STEP_SHRINKS:
                    raise
                step /= 10.0
        residual[m] = abs(rise / (2.0 * step) - solution.beta[m])
    return residual


def thermo_residuals(solution: GibbsSolution, fd_step: float = 1e-4):
    """Finite-difference checks of the two thermodynamic identities.

    grad_residual[m]:        |d(log Z)/d(beta_m) + <u_m>|   (central difference)
    sensitivity_residual[m]: |dS/d(t_m) - beta_m|           (re-solve at t +- h,
                             h shrinking as in _resolved_sensitivity)

    The sensitivity sign follows from S(t) = log Z(beta(t)) + beta(t) . t and
    the envelope theorem: dS/dt_m = beta_m for the Gibbs form used here.
    """
    _check_arguments(fd_step=fd_step)
    constraints, partition = solution.constraints, solution.partition
    M = constraints.size
    grad_residual = np.zeros(M)
    for m, unit in enumerate(np.eye(M)):
        log_plus = partition_function(solution.beta + fd_step * unit, constraints, partition)
        log_minus = partition_function(solution.beta - fd_step * unit, constraints, partition)
        grad_fd = (log_plus - log_minus) / (2.0 * fd_step)
        grad_residual[m] = abs(grad_fd + solution.achieved_moments[m])
    return grad_residual, _resolved_sensitivity(solve_maxent, "entropy", solution, fd_step)
