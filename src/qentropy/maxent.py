"""Maximum-entropy solvers' shared engine and the classical (Gibbs) solver.

Both MaxEnt prescriptions are solved in their M-dimensional convex dual by
one damped Newton routine, _dual_newton.  The classical solver maximizes the
measure entropy -sum p_k ln(p_k) mu_k subject to sum u_m(x_k) p_k mu_k = t_m;
the maximizer is the Gibbs density p_k = exp(-sum_m beta_m u_m(x_k)) / Z(beta)
and the dual is log Z(beta) + beta . t (gradient t - E[u], curvature the
moment covariance).  The escort dual that tsallis.py hands to the same
routine is described there.

Both solvers pose their dual once, on _support_setup, and check their
arguments with _check_arguments.  The dual is written in span units: each
feature is centred on its target and divided by s_m, the power of two nearest
its span on the support, z_k = (u_k - t)/s, and the dual variable is
b = beta s.  Dividing by a power of two is exact, so z, every Newton step,
the pmf and the stopping test are the same floats whatever the units of a
feature; tolerance bounds each |E[z_m]|, and beta = b/s and E[u] = t + s E[z]
are formed once, after the solve.  A direction d with d . z_k > 0 on the
whole support proves the targets jointly infeasible, and along it the dual
decreases without bound; the routine tests each Newton step and iterate as
such a d and raises InfeasibleError naming it.  Each solution keeps, in its
private _dual field, the posed support, z, scales and mu, its multipliers in
span units and the last _dual_newton evaluation; both audits read them there,
so they check the solve that produced the solution and pose nothing again.
They first refuse, with _check_independent, a feature that is an affine
combination of those before it on the support, whose target cannot move
alone.  Every difference is taken by _central_differences.  dS/dt_m = beta_m
is read along the solution's own family in _family_sensitivity, and no audit
solves again: each member is the exact maximizer at its own mean, and its
entropy is summed on the support, its density against mu.  _first_steps sizes
every step, moving an exponent by at most 30 (Gibbs Newton) or fd_step (Gibbs
member), an escort base by fd_step of its distance to the pole or cut-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .entropy import _logsumexp, _shannon_sum, shannon_entropy
from .measure import (
    DensityVector,
    ProbabilityVector,
    WeightedPartition,
    _carried,
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
                    f"targets[{m}]: {float(targets[m])!r} lies outside the attainable "
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


@dataclass(frozen=True, eq=False)
class GibbsSolution:
    """Converged classical MaxEnt output.

    entropy equals log_z + beta . achieved_moments up to rounding;
    entropy_identity reports the defect rather than assuming it is zero.
    _dual = (support, z, scales, mu, b, point): the posed dual, b and its
    last _gibbs_dual evaluation (see the module docstring).
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
    _dual: tuple = field(repr=False)

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
    beta = np.asarray(beta, dtype=float).ravel()
    if beta.size != constraints.size or not np.all(np.isfinite(beta)):
        raise ValueError(f"beta: need {constraints.size} finite multipliers, got {beta!r}")
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
                f"targets[{m}]: {float(targets[m])!r} is not strictly inside the attainable "
                f"range ({lo!r}, {hi!r}) on the support; the maximizer would be a degenerate limit"
            )
        # span = 2 mantissa 2^exponent; half a span of two subnormal ulps can
        # round to 0, and is then the smallest subnormal
        mantissa, exponent = math.frexp(max(hi / 2.0 - lo / 2.0, _TINY))
        scales[m] = math.ldexp(1.0, exponent + round(math.log2(2.0 * mantissa)))
    z = features / scales[:, None] - (targets / scales)[:, None]
    return support, z, scales, mu


# a correlation eigenvalue this small leaves a feature 1e-6 of its spread off
# the span of the others; an exact dependence leaves rounding, about 1e-16
_DEPENDENT = 1e-12


def _check_independent(z: np.ndarray) -> None:
    """Refuse a feature that is, to rounding, an affine combination of the
    features before it on the support.  Its target then follows from theirs:
    the solve can succeed, but the audit, which moves one target at a time,
    cannot.  The first leading block of the correlation matrix of the centred
    features z whose smallest eigenvalue is at most _DEPENDENT names its last
    feature; the matrix is M x M, so this costs one pass over z."""
    if len(z) < 2:
        return
    centred = z - z.mean(axis=1, keepdims=True)
    gram = centred @ centred.T
    norms = np.sqrt(np.diag(gram))
    correlation = gram / np.outer(norms, norms)
    for m in range(1, len(z)):
        if np.linalg.eigvalsh(correlation[: m + 1, : m + 1])[0] <= _DEPENDENT:
            raise ValueError(
                f"functions[{m}]: an affine combination of the features before it on the "
                f"support, so its target follows from theirs and cannot move alone in the "
                f"audit; drop this constraint"
            )


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
# the most a Gibbs Newton step moves any exponent -b . z_k: e^30 is 1e13
_GIBBS_REACH = 30.0


def _max_abs(x: np.ndarray) -> float:
    return float(np.abs(x).max(initial=0.0))


def _first_steps(moves: np.ndarray, first: float, room: float = 1.0) -> np.ndarray:
    """first, per row m of moves (each cell's move per unit step, in units of
    room) shrunk to first room / max(room, first max_k |moves_mk|)."""
    return first * room / np.maximum(room, first * np.max(np.abs(moves), axis=1, initial=0.0))


def _certify_infeasible(direction: np.ndarray, exponent: np.ndarray) -> None:
    """Raise InfeasibleError when d = direction/|direction| has d . z_k > 0 on
    every support cell, read off exponent = -(direction . z_k): then every pmf
    on the support has d . E[z] > 0, so no density reaches the targets."""
    norm = _max_abs(direction)
    if not (0.0 < norm < math.inf):
        return
    margin = -float(np.max(exponent)) / norm
    if margin > _CERTIFICATE_MARGIN:
        d = direction / norm
        raise InfeasibleError(
            f"targets: jointly infeasible; the direction d = {d.tolist()!r} has "
            f"d . (u_k - t)/s >= {margin!r} on every support cell (s: each feature's "
            f"span, rounded to a power of two), so no density meets all the targets at once"
        )


def _dual_newton(evaluate, z, tolerance, max_steps, max_halvings, name, reach=None):
    """Damped Newton on a convex dual from b = 0; both MaxEnt solvers run here.

    evaluate(b) returns (value, gradient, hessian, residual, exponent,
    state), with value +inf outside the dual's domain, residual E[z] and
    exponent -(b . z_k) per cell.  The loop stops once each |E[z_m]|
    is within tolerance or, where larger, the rounding of the moment,
    _ROUNDING r_m, r_m = max_k |z_mk|.
    A step is taken when it passes the Armijo test; a full step is also
    taken when the dual moved by no more than rounding and the residual
    fell, because near the minimum the dual is flat to machine precision
    while its gradient still carries information.  That rounding bounds the
    exponents' terms, max_k sum_m |b_m||z_mk|, by |b| . r: equal at M = 1, at
    most M times larger, and O(M) a step where the maximum is a pass over z.
    z holds the support cells as columns; each step and each new iterate is
    tested as an infeasibility certificate, the iterate on the exponent of its
    evaluation.  Given a reach, _first_steps scales a Newton step down so that
    it moves no exponent by more, before the line search: a cell of weight w
    far below the others puts the first full step about 1/w out.

    Returns (b, point, residual_norm, newton_steps, total_halvings), point
    being evaluate(b).
    """
    row_max = np.max(np.abs(z), axis=1, initial=0.0)
    tolerances = np.maximum(tolerance, _ROUNDING * row_max)
    b = np.zeros(z.shape[0])
    point = evaluate(b)
    value, gradient, hessian, residual = point[:4]
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
        move = (-step) @ z
        _certify_infeasible(step, move)
        # |step| . r bounds every exponent's move, so move is only read where
        # that bound passes the reach
        if reach and float(np.abs(step) @ row_max) > reach:
            step = step * _first_steps(move[None], 1.0, reach)[0]
        del move  # an n-vector, freed before the line search allocates its own
        decrease = _ARMIJO * float(gradient @ step)
        # the dual's rounding error grows with |f| and with the size of the
        # terms of the exponents b . z_k it is summed from
        rounding = _ROUNDING * (1.0 + abs(value)) * (1.0 + float(np.abs(b) @ row_max))
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
        b, point = trial, trial_eval
        value, gradient, hessian, residual = point[:4]
        _certify_infeasible(b, point[4])
    return b, point, residual_norm, steps, halvings


# how far a _gibbs_dual evaluation goes: the value alone; also the moments and
# the density's state; also the Hessian, which only Newton steps and the audit's
# tangents read, without the state
_VALUE, _MOMENTS, _HESSIAN = range(3)


def _gibbs_dual(z: np.ndarray, mu: np.ndarray):
    """evaluate(b, upto=_HESSIAN) for _dual_newton on the Gibbs dual in span
    units, L(b) = log sum_k mu_k exp(-b . z_k), which is log Z(beta) + beta . t;
    summing it on the centred exponent keeps the digits that adding
    beta . t to log Z would cancel.  Each evaluation takes one exp, shifted
    by the largest exponent, for the value and the masses.  upto stops after
    the value (_VALUE) or the moments (_MOMENTS) and leaves None in the slots
    not computed: the audit reads no Hessian.  Stopped after the moments, the
    state is (exp(exponent - shift), the total), whose quotient is the
    density; otherwise it is None."""

    def evaluate(b: np.ndarray, upto: int = _HESSIAN):
        exponent = -(b @ z)
        shift = float(exponent.max())
        if not math.isfinite(shift):
            return math.inf, None, None, math.inf, None, None
        # each term is at most its mu_k, and the top one is mu_k, so with the
        # total of mu finite (_support_setup) the sum is a positive finite float
        raw = np.exp(exponent - shift)
        # only a member's density reads raw; elsewhere it becomes the terms
        terms = raw * mu if upto == _MOMENTS else np.multiply(raw, mu, out=raw)
        total = float(terms.sum())
        value = shift + math.log(total)
        if upto == _VALUE:
            return value, None, None, None, exponent, None
        masses = terms / total
        moments = z @ masses
        if upto == _MOMENTS:
            return value, -moments, None, moments, exponent, (raw, total)
        deviations = z - moments[:, None]
        hessian = deviations @ (deviations * masses).T
        return value, -moments, hessian, moments, exponent, None

    return evaluate


def solve_maxent(
    constraints: ConstraintSet,
    partition: WeightedPartition,
    tolerance: float = 1e-10,
    max_iterations: int = 200,
) -> GibbsSolution:
    """Damped Newton on the convex dual log Z(beta) + beta . t, from beta = 0,
    evaluated by _gibbs_dual."""
    _check_arguments(tolerance=tolerance, max_iterations=max_iterations)
    support, z, scales, mu = _support_setup(constraints, partition, "ordinary")
    targets = constraints.targets
    b, point, residual_norm, iterations, _ = _dual_newton(
        _gibbs_dual(z, mu), z, tolerance, max_iterations, 60, "solve_maxent", _GIBBS_REACH
    )
    dual, moments = point[0], point[3]
    beta = _per_unit(b, scales)
    with np.errstate(over="ignore"):
        density = _ratio_density(np.exp(point[4] - dual), support, partition)
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
        _dual=(support, z, scales, mu, b, point),
    )


# a step that leaves the domain of what is differenced or the feasible set is
# divided by 10 at most this many times, to its first value / 10^5, then refused
FD_STEP_SHRINKS = 5


def _central_differences(f, center: np.ndarray, steps: np.ndarray):
    """(rises, means, h): rises[m] = f(c + h_m e_m) - f(c - h_m e_m) and means[m]
    the pair's average, for the h_m taken.  h_m starts at steps[m] and is
    divided by 10 while f raises ValueError (a step past the escort family's
    pole or cut-off, or wider than the feasible set), up to FD_STEP_SHRINKS
    times; then f's error is raised."""
    rises, means, steps = [], [], np.array(steps, dtype=float)
    for m in range(steps.size):
        for shrinks in range(FD_STEP_SHRINKS + 1):
            plus, minus = center.copy(), center.copy()
            plus[m], minus[m] = center[m] + steps[m], center[m] - steps[m]
            try:
                high, low = f(plus), f(minus)
                break
            except ValueError:
                if shrinks == FD_STEP_SHRINKS:
                    raise
                steps[m] /= 10.0
        rises.append(high - low)
        # halves first, exact for normal floats: high + low can overflow
        means.append(high / 2.0 + low / 2.0)
    return np.array(rises), np.array(means), steps


def _family_sensitivity(solution, tangents: np.ndarray, member, steps: np.ndarray) -> np.ndarray:
    """|dS/dt_m - beta_m| per constraint along the solution's own family.

    member(b) is (c, b', S) for the member at b (span units), or None: its mean
    c = E[z], where it is the exact maximizer, its multipliers b' in span
    units, so dS/dc = b', and S summed from its density.  tangents = db/dc at
    the solution b*.  The members at b* +- h tangents e_m give row m of
    (c+ - c-) . g = (S+ - S-) - cbar . (b'+ - b'-), cbar = (c+ + c-)/2, which
    moves the difference back to the solution to second order; the residual
    is |g/s - beta|.  h starts at steps[m].  A missing member, or a mean off
    +-h e_m by more than h/2 (a feasible set thinner than h, or a solve residual
    above h/2), shrinks h as in _central_differences; at its floor
    InfeasibleError names targets[m].
    """
    scales, center = solution._dual[2], solution._dual[4]
    M = center.size

    def at(shift: np.ndarray) -> np.ndarray:
        found = member(center + tangents @ shift)
        h = _max_abs(shift)
        if found is None or not _max_abs(found[0] - shift) <= h / 2.0:
            m = int(np.argmax(np.abs(shift)))
            raise InfeasibleError(
                f"targets[{m}]: {float(solution.constraints.targets[m])!r} lies too close to the "
                f"edge of the feasible set for the audit: a step of {h!r} in span units (s = "
                f"{float(scales[m])!r}) does not fit inside it (10^-{FD_STEP_SHRINKS} of the first "
                f"step, which moves no exponent by more than fd_step, an escort base by fd_step of "
                f"its distance to the pole or cut-off); move the target inward or change fd_step"
            )
        mean, multipliers, entropy = found
        return np.concatenate((mean, multipliers, [entropy]))

    rises, means, _ = _central_differences(at, np.zeros(M), steps)
    rises, means = rises.reshape(M, 2 * M + 1), means.reshape(M, 2 * M + 1)[:, :M]
    slope = np.linalg.solve(rises[:, :M], rises[:, -1] - np.sum(means * rises[:, M:-1], axis=1))
    return np.abs(slope / scales - solution.beta)


def thermo_residuals(solution: GibbsSolution, fd_step: float = 1e-4):
    """Finite-difference checks of the two thermodynamic identities.

    grad_residual[m]:        |d(log Z)/d(beta_m) + <u_m>|   (central difference
                             at beta_m +- fd_step/s_m)
    sensitivity_residual[m]: |dS/d(t_m) - beta_m|           (along the family
                             mu exp(-b . z), see _family_sensitivity)
    The sensitivity step shrinks as in _central_differences; the gradient
    step stays at fd_step, as L(b) is finite at every finite b.

    The gradient is differenced in span units, on L(b) = log Z + beta . t as
    _gibbs_dual sums it, evaluated up to its value alone; L's b-gradient is
    -E[z], and the residual is s_m |dL/db_m + E[z_m]|.  S(t) = log Z(beta(t))
    + beta(t) . t gives dS/dt_m = beta_m by the envelope theorem.
    dE_b[z]/db = -H, so the members are taken at b* -+ h H^-1 e_m, H the
    solve's last Hessian and h from _first_steps.  Each member is evaluated up
    to its moments, and S is summed from that evaluation's own exp(exponent -
    shift)/total against mu: no member forms a Hessian, takes a second exp or
    builds a DensityVector, and one whose density overflows (measure._carried)
    shrinks its step.  The problem, b* and H are read off solution._dual, so
    the audit checks the solve that produced the solution.  A feature that is
    an affine combination of those before it is refused first (see
    _check_independent).
    """
    _check_arguments(fd_step=fd_step)
    support, z, scales, mu, center, point = solution._dual
    _check_independent(z)
    offset = (solution.achieved_moments - solution.constraints.targets) / scales
    evaluate, first = _gibbs_dual(z, mu), np.full(center.size, fd_step)
    rises, _, steps = _central_differences(lambda b: evaluate(b, _VALUE)[0], center, first)

    def member(b: np.ndarray):
        at = evaluate(b, _MOMENTS)
        if not math.isfinite(at[0]):
            return None
        raw, total = at[5]
        with np.errstate(over="ignore"):
            density = _carried(raw / total, support, solution.partition)
        return at[3], b, _shannon_sum(density, mu)

    tangents = -np.linalg.inv(point[2])
    return scales * np.abs(rises / (2.0 * steps) + offset), _family_sensitivity(
        solution, tangents, member, _first_steps(tangents.T @ z / fd_step, fd_step)
    )
