"""Classical moment-constrained entropy maximization on weighted partitions.

Frozen literals regenerated by tests/_oracles.py (300-step bisection /
mpmath).  The six-cell mean-4.5 problem and the two-point mean-0.3 problem
both have independent routes to the multiplier.
"""

import importlib.util
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qentropy import (
    ConstraintSet,
    ConvergenceError,
    DensityVector,
    InfeasibleError,
    ProbabilityVector,
    WeightedPartition,
    partition_function,
    radon_nikodym,
    shannon_entropy,
    solve_maxent,
    solve_tsallis_maxent,
    thermo_residuals,
    tsallis_thermo,
    uniform_partition,
)
from qentropy import maxent, tsallis
from qentropy.maxent import _dual_newton, _support_setup

DICE_U = np.arange(1.0, 7.0)
DICE_BETA = -0.37104893808103334
DICE_PMF = [
    0.05435316782649152,
    0.07877154563305352,
    0.11415997722944056,
    0.16544680311005334,
    0.23977444042689998,
    0.34749406577406109,
]


def dice_problem(target=4.5):
    return ConstraintSet([DICE_U], [target]), uniform_partition(6)


def test_dice_solution_matches_bisection_oracle():
    constraints, partition = dice_problem()
    sol = solve_maxent(constraints, partition)
    assert abs(float(sol.beta[0]) - DICE_BETA) < 1e-12
    assert np.allclose(sol.pmf.masses, DICE_PMF, rtol=0, atol=1e-12)
    assert sol.residual_norm < 1e-10
    assert abs(float(sol.achieved_moments[0]) - 4.5) < 1e-10
    assert sol.iterations <= 20


def test_log_partition_frozen_value():
    constraints, partition = dice_problem()
    assert math.isclose(
        partition_function([0.5], constraints, partition),
        0.38168294862448699,
        rel_tol=0,
        abs_tol=1e-14,
    )
    with pytest.raises(ValueError):
        partition_function([0.5, 0.1], constraints, partition)
    with pytest.raises(ValueError):
        partition_function([math.nan], constraints, partition)


def test_two_point_closed_form():
    # mean 0.3 on u = (0, 1) forces the pmf (0.7, 0.3) and multiplier ln(7/3)
    sol = solve_maxent(ConstraintSet([[0.0, 1.0]], [0.3]), uniform_partition(2))
    assert abs(float(sol.beta[0]) - 0.8472978603872036) < 1e-10
    assert np.allclose(sol.pmf.masses, [0.7, 0.3], rtol=0, atol=1e-10)


def test_entropy_equals_dual_value():
    constraints, partition = dice_problem()
    sol = solve_maxent(constraints, partition)
    dual = sol.log_z + float(sol.beta @ sol.achieved_moments)
    assert math.isclose(sol.entropy, dual, rel_tol=0, abs_tol=1e-12)
    assert sol.entropy_identity == abs(sol.entropy - dual)
    assert math.isclose(sol.entropy, shannon_entropy(sol.density), rel_tol=0, abs_tol=1e-12)


def test_unconstrained_problem_returns_uniform():
    partition = uniform_partition(5)
    sol = solve_maxent(ConstraintSet([], []), partition)
    assert np.allclose(sol.pmf.masses, 0.2, rtol=0, atol=1e-14)
    assert math.isclose(sol.entropy, math.log(5.0), rel_tol=0, abs_tol=1e-13)
    assert sol.beta.shape == (0,)


def test_weighted_reference_enters_the_family():
    # doubling one cell's weight doubles its odds at beta = 0
    partition = WeightedPartition([2.0, 1.0])
    sol = solve_maxent(ConstraintSet([], []), partition)
    assert np.allclose(sol.pmf.masses, [2.0 / 3.0, 1.0 / 3.0], rtol=1e-14)


def test_multiple_constraints_converge():
    rng = np.random.default_rng(2)
    partition = uniform_partition(8)
    u1 = np.arange(8.0)
    u2 = rng.uniform(-1.0, 1.0, 8)
    targets = [3.1, float(u2 @ np.full(8, 0.125)) + 0.05]
    sol = solve_maxent(ConstraintSet([u1, u2], targets), partition)
    assert sol.residual_norm < 1e-10
    assert np.allclose(sol.achieved_moments, targets, rtol=0, atol=1e-9)


def test_target_range_validation():
    with pytest.raises(ValueError):
        ConstraintSet([DICE_U], [6.5])
    with pytest.raises(ValueError):
        ConstraintSet([DICE_U], [0.9])
    with pytest.raises(ValueError):
        ConstraintSet([DICE_U], [4.5, 3.0])
    with pytest.raises(ValueError):
        ConstraintSet([DICE_U, np.arange(5.0)], [4.5, 2.0])
    with pytest.raises(ValueError):
        ConstraintSet([DICE_U], [4.5], kind="fancy")


def test_boundary_target_is_infeasible_for_the_solver():
    # 6.0 passes construction (attainable as a degenerate limit) but no
    # interior Gibbs density reaches it
    constraints, partition = dice_problem(6.0)
    with pytest.raises(InfeasibleError):
        solve_maxent(constraints, partition)


def test_null_cells_are_excluded_from_support():
    partition = WeightedPartition([1.0, 0.0, 1.0])
    sol = solve_maxent(ConstraintSet([[0.0, 5.0, 1.0]], [0.4]), partition)
    assert sol.density.values[1] == 0.0
    assert abs(float(sol.achieved_moments[0]) - 0.4) < 1e-10
    # a target only attainable through the null cell is infeasible
    with pytest.raises(InfeasibleError):
        solve_maxent(ConstraintSet([[0.0, 5.0, 1.0]], [2.0]), partition)


def test_nonconvergence_raises_with_residual_payload():
    constraints, partition = dice_problem(5.9999999)
    with pytest.raises(ConvergenceError) as err:
        solve_maxent(constraints, partition, tolerance=1e-14, max_iterations=2)
    assert err.value.iterations == 2
    assert err.value.residual_norm > 0.0


def test_solver_parameter_validation():
    constraints, partition = dice_problem()
    with pytest.raises(ValueError):
        solve_maxent(constraints, partition, tolerance=0.0)
    with pytest.raises(ValueError):
        solve_maxent(constraints, partition, max_iterations=0)
    with pytest.raises(ValueError):
        solve_maxent(ConstraintSet([[0.0, 1.0]], [0.3], "escort", 2.0), partition)


def test_dual_is_convex_along_random_segments():
    constraints, partition = dice_problem()
    rng = np.random.default_rng(4)
    for _ in range(50):
        b0, b1 = rng.normal(0.0, 2.0, 2)
        mid = partition_function([0.5 * (b0 + b1)], constraints, partition)
        avg = 0.5 * (
            partition_function([b0], constraints, partition)
            + partition_function([b1], constraints, partition)
        )
        assert mid <= avg + 1e-12


def test_thermo_residuals_dice():
    constraints, partition = dice_problem()
    sol = solve_maxent(constraints, partition)
    grad, sens = thermo_residuals(sol, fd_step=1e-4)
    assert float(np.max(grad)) < 1e-6
    assert float(np.max(sens)) < 1e-4


def test_sensitivity_identity_against_closed_form():
    # two-point problem: S(t) = -t ln t - (1-t) ln(1-t), so dS/dt at 0.3 is
    # ln(7/3), which is exactly the converged multiplier
    sol = solve_maxent(ConstraintSet([[0.0, 1.0]], [0.3]), uniform_partition(2))
    h = 1e-5
    fd = (
        solve_maxent(ConstraintSet([[0.0, 1.0]], [0.3 + h]), uniform_partition(2)).entropy
        - solve_maxent(ConstraintSet([[0.0, 1.0]], [0.3 - h]), uniform_partition(2)).entropy
    ) / (2.0 * h)
    assert abs(fd - math.log(7.0 / 3.0)) < 1e-8
    assert abs(float(sol.beta[0]) - math.log(7.0 / 3.0)) < 1e-10


def test_thermo_step_shrinks_near_the_boundary():
    # target close enough to the range edge that the default fd step would
    # leave the feasible set; the check retries with a smaller one
    sol = solve_maxent(*dice_problem(5.99995))
    # fd_step is in span units, and the dice span 5 rounds to s = 4: this is
    # the absolute step 1e-4
    grad, sens = thermo_residuals(sol, fd_step=1e-4 / 4.0)
    assert np.all(np.isfinite(grad)) and np.all(np.isfinite(sens))
    # the entropy surface is sharply curved this close to the edge, so the
    # finite difference is only good to a few percent here
    assert float(np.max(sens)) < 0.1


def midpoints(n):
    return (np.arange(n) + 0.5) / n


def jointly_infeasible_problem(kind="ordinary", q=None):
    # each target lies inside its own range and E x^2 >= (E x)^2 holds, but
    # no pmf on [0, 1] has (E x, E x^2, E sin 3x) = (0.4, 0.25, 0.3)
    n = 10_000
    x = midpoints(n)
    return (
        ConstraintSet([x, x * x, np.sin(3.0 * x)], [0.4, 0.25, 0.3], kind, q),
        uniform_partition(n, "lebesgue", (0.0, 1.0)),
    )


def test_jointly_infeasible_targets_raise_with_a_certificate():
    with pytest.raises(InfeasibleError, match="jointly infeasible; the direction d = "):
        solve_maxent(*jointly_infeasible_problem())


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
def test_jointly_infeasible_escort_targets_raise_with_a_certificate(q):
    with pytest.raises(InfeasibleError, match="jointly infeasible; the direction d = "):
        solve_tsallis_maxent(*jointly_infeasible_problem("escort", q))


def test_audit_resolves_where_the_dual_is_flat_to_rounding():
    # near this optimum the dual's last decrease is below its rounding; the
    # audit's re-solves at 1e-12, before it read the solution's family, had to
    # finish on the moment residual alone
    n = 100
    constraints = ConstraintSet([midpoints(n)], [0.5147])
    sol = solve_maxent(constraints, uniform_partition(n, "lebesgue", (0.0, 1.0)))
    grad, sens = thermo_residuals(sol)
    assert float(np.max(grad)) < 1e-6
    assert float(np.max(sens)) < 1e-4


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    masses=st.lists(st.floats(0.01, 1.0), min_size=3, max_size=200),
    q=st.sampled_from([0.5, 0.7, 1.0, 1.5, 2.0, 3.0]),
    count=st.integers(1, 2),
    mode=st.sampled_from(["counting", "lebesgue"]),
    escort=st.booleans(),
)
def test_moments_of_a_positive_pmf_always_solve_and_audit(masses, q, count, mode, escort):
    # targets read off a strictly positive pmf are feasible by construction
    n = len(masses)
    partition = uniform_partition(n, mode, (0.0, 1.0) if mode == "lebesgue" else None)
    P = ProbabilityVector(np.asarray(masses) / math.fsum(masses))
    x = midpoints(n)
    U = np.vstack([x, x * x][:count])
    if escort:
        powers = radon_nikodym(P, partition).values ** q * partition.weights
        targets = U @ (powers / np.sum(powers))
        sol = solve_tsallis_maxent(ConstraintSet(list(U), targets, "escort", q), partition)
        audit = tsallis_thermo(sol)
        assert np.all(np.isfinite(audit["log_z_gradient"]))
        assert np.all(np.isfinite(audit["entropy_sensitivity"]))
        assert np.all(np.abs(sol.escort_moments - targets) <= 1e-10)
    else:
        targets = U @ P.masses
        sol = solve_maxent(ConstraintSet(list(U), targets), partition)
        grad, sens = thermo_residuals(sol)
        assert np.all(np.isfinite(grad)) and np.all(np.isfinite(sens))
        assert np.all(np.abs(sol.achieved_moments - targets) <= 1e-10)


@pytest.mark.parametrize("kind, q", [("ordinary", None), ("escort", 0.7), ("escort", 2.0)])
def test_audit_step_shrinks_inside_a_thin_feasible_set(kind, q):
    # (E x, E x^2) on {0, 1/2, 1} lies in a triangle whose edge y = x passes
    # 2e-6 from the targets, so t_1 - h is infeasible for h = 1e-4 and 1e-5;
    # the audit's step has to go down to 1e-6 or below to fit on both sides
    x = np.array([0.0, 0.5, 1.0])
    constraints = ConstraintSet([x, x * x], [0.5, 0.5 - 2e-6], kind, q)
    partition = uniform_partition(3, "counting")
    if kind == "ordinary":
        solution = solve_maxent(constraints, partition)
        grad, sens = thermo_residuals(solution, fd_step=1e-4)
    else:
        solution = solve_tsallis_maxent(constraints, partition)
        audit = tsallis_thermo(solution, fd_step=1e-4)
        grad, sens = audit["log_z_gradient"], audit["entropy_sensitivity"]
    assert solution.residual_norm <= 1e-10
    assert np.all(grad < 1e-8)
    # the re-solves at t_m +- h read 3.6% of |beta| at q = 2
    assert np.all(sens < 0.01 * np.abs(solution.beta))


def test_audit_gives_up_below_its_step_floor():
    # 2e-11 from the edge: the first steps move no exponent by more than
    # fd_step, and down to their 10^-5 (about 6e-20) each member's mean misses
    # its target shift by more than half the step
    x = np.array([0.0, 0.5, 1.0])
    constraints = ConstraintSet([x, x * x], [0.5, 0.5 - 2e-11])
    solution = solve_maxent(constraints, uniform_partition(3, "counting"))
    with pytest.raises(InfeasibleError):
        thermo_residuals(solution, fd_step=1e-4)


@pytest.mark.parametrize("scale", [1e6, 1e8, 1e154])
def test_badly_scaled_features_converge(scale):
    # E[u] carries rounding of about 1e-16 * scale, above an absolute 1e-12:
    # the audit's re-solves stalled from 1e6 on, the solve itself from 1e8 on.
    # tolerance is in span units; 1e-10 / scale is the absolute 1e-10
    constraints = ConstraintSet([[0.0, scale]], [scale / 10.0])
    solution = solve_maxent(constraints, uniform_partition(2), tolerance=1e-10 / scale)
    assert np.allclose(solution.pmf.masses, [0.9, 0.1], rtol=1e-12, atol=0.0)
    # the audit reads a finite sensitivity
    _, sensitivity = thermo_residuals(solution)
    assert np.all(np.isfinite(sensitivity))


@pytest.mark.parametrize("scale", [1e6, 1e8])
def test_badly_scaled_escort_features_converge(scale):
    constraints = ConstraintSet([[0.0, scale]], [scale / 10.0], "escort", 0.5)
    solution = solve_tsallis_maxent(constraints, uniform_partition(2))
    assert math.isclose(solution.escort_moments[0], scale / 10.0, rel_tol=1e-14)
    assert np.all(np.isfinite(tsallis_thermo(solution)["entropy_sensitivity"]))


def solve_and_audit(constraints, partition):
    """(solution, log_z_gradient, entropy_sensitivity) as the CLI computes them."""
    if constraints.kind == "ordinary":
        solution = solve_maxent(constraints, partition)
        return (solution, *thermo_residuals(solution))
    solution = solve_tsallis_maxent(constraints, partition)
    audit = tsallis_thermo(solution)
    return solution, audit["log_z_gradient"], audit["entropy_sensitivity"]


@pytest.mark.parametrize("kind, q", [("ordinary", None), ("escort", 0.5), ("escort", 2.0)])
@pytest.mark.parametrize("s", [1e-6, 1e-3, 1e3, 1e6, 1e8, 1e100, 1e160, 1e308])
def test_two_cell_problem_is_the_same_at_every_scale(kind, q, s):
    # values [0, s] and target s/10.  Before the features were divided by
    # their power-of-two span, s = 1e6 audited log_z_gradient 3.9e5, s = 1e-6
    # stopped at p = (0.8999992, 0.1000008), escort q = 0.5 at 1e100 left the
    # escort family in the audit, and spans past 1.3e154 were refused
    unit = solve_and_audit(ConstraintSet([[0.0, 1.0]], [0.1], kind, q), uniform_partition(2))[0]
    constraints = ConstraintSet([[0.0, s]], [s / 10.0], kind, q)
    solution, gradient, sensitivity = solve_and_audit(constraints, uniform_partition(2))
    assert np.max(np.abs(solution.pmf.masses - unit.pmf.masses)) <= 1e-15
    assert gradient[0] / s < 1e-6 and sensitivity[0] * s < 1e-6


@pytest.mark.parametrize("kind, q", [("ordinary", None), ("escort", 0.7), ("escort", 2.0)])
def test_scaling_a_feature_by_a_power_of_two_scales_only_its_multiplier(kind, q):
    # x 2^k and its target: z = (u - t)/s is the same floats for every k, so
    # the pmf is bit-identical, beta_0 is exactly 2^-k times as large, and the
    # audit residuals scale with the units of u_0 (gradient) and beta_0
    n = 50
    x = midpoints(n)
    partition = uniform_partition(n, "lebesgue", (0.0, 1.0))

    def run(k):
        scale = 2.0**k
        constraints = ConstraintSet([x * scale, np.sin(3.0 * x)], [0.4 * scale, 0.5], kind, q)
        return solve_and_audit(constraints, partition)

    base, base_gradient, base_sensitivity = run(0)
    for k in (-40, -7, 3, 40):
        solution, gradient, sensitivity = run(k)
        assert np.array_equal(solution.pmf.masses, base.pmf.masses)
        assert solution.beta[0] == base.beta[0] * 2.0**-k
        assert solution.beta[1] == base.beta[1]
        assert gradient[0] == base_gradient[0] * 2.0**k
        assert sensitivity[0] == base_sensitivity[0] * 2.0**-k


def test_an_offset_feature_solves():
    # values 1e6 + (0, 0, 1): E[u] - t cancels six digits in the units of u,
    # and the line search stalled at residual 1.2e-5
    constraints = ConstraintSet([[1e6, 1e6, 1000001.0]], [1000000.3])
    solution = solve_maxent(constraints, uniform_partition(3))
    assert np.max(np.abs(solution.pmf.masses - [0.35, 0.35, 0.3])) <= 1e-9


@pytest.mark.parametrize("kind, q", [("ordinary", None), ("escort", 2.0)])
def test_a_multiplier_that_overflows_is_refused(kind, q):
    # beta = b/s is past the largest float when the span s is about 1e-310
    constraints = ConstraintSet([[0.0, 1e-310]], [1e-311], kind, q)
    solve = solve_maxent if kind == "ordinary" else solve_tsallis_maxent
    message = r"functions\[0\]: the multiplier b/s = .* rescale"
    with np.errstate(over="ignore"), pytest.raises(ValueError, match=message):
        solve(constraints, uniform_partition(2))


@pytest.mark.parametrize("kind, q", [("ordinary", None), ("escort", 0.5), ("escort", 2.0)])
def test_no_audit_solves_again(monkeypatch, kind, q):
    # both checks read the solution's own family; neither runs _dual_newton
    solve, audit = SOLVERS[kind]
    solution = solve(ConstraintSet([DICE_U, DICE_U**2], [3.0, 11.0], kind, q), uniform_partition(6))
    calls = []

    def spy(*args):
        calls.append(args[5])
        return _dual_newton(*args)

    monkeypatch.setattr(maxent, "_dual_newton", spy)
    monkeypatch.setattr(tsallis, "_dual_newton", spy)
    audit(solution)
    assert calls == []


@pytest.mark.parametrize("kind, q", [("ordinary", None), ("escort", 2.0)])
def test_no_audit_member_forms_a_hessian(monkeypatch, kind, q):
    # only the solve's Newton steps and the tangents read a Hessian; the audit
    # takes its tangents from the solve's last one
    solve, audit = SOLVERS[kind]
    solution = solve(ConstraintSet([DICE_U, DICE_U**2], [3.0, 11.0], kind, q), uniform_partition(6))
    formed = []

    def spying(dual):
        def spy(*args):
            evaluate = dual(*args)

            def counted(*point_args):
                point = evaluate(*point_args)
                formed.append(point[2] is not None)
                return point

            return counted

        return spy

    monkeypatch.setattr(maxent, "_gibbs_dual", spying(maxent._gibbs_dual))
    monkeypatch.setattr(tsallis, "_escort_dual", spying(tsallis._escort_dual))
    audit(solution)
    assert not any(formed)
    # the Gibbs audit evaluates its dual: 2 gradient points and 2 members per constraint
    assert len(formed) == (8 if kind == "ordinary" else 0)


@pytest.mark.parametrize("kind, q", [("ordinary", None), ("escort", 0.5), ("escort", 1.0), ("escort", 2.0)])
def test_no_audit_member_builds_a_density_vector(monkeypatch, kind, q):
    # a member's entropy is summed on the support arrays its evaluation holds;
    # only a solution's density is built and checked as a DensityVector
    solve, audit = SOLVERS[kind]
    solution = solve(ConstraintSet([DICE_U, DICE_U**2], [3.0, 11.0], kind, q), uniform_partition(6))
    built, check = [], DensityVector.__post_init__

    def spy(density):
        built.append(density)
        check(density)

    monkeypatch.setattr(DensityVector, "__post_init__", spy)
    audit(solution)
    assert built == []


@pytest.mark.parametrize("kind, q", [("ordinary", None), ("escort", 2.0)])
def test_the_audit_names_a_shifted_target_past_its_range(monkeypatch, kind, q):
    # 1e-9 below the top of the dice's range (a quarter of it in span units,
    # s = 4), every step from the first down to its 10^-5 misses, and the
    # refusal names the caller's target, not a shifted one.  The first steps
    # are fd_step = 0.5 shrunk by _first_steps; at 1e-7 below the top the
    # Gibbs ones fit
    solve, audit = SOLVERS[kind]
    solution = solve(ConstraintSet([DICE_U], [6.0 - 1e-9], kind, q), uniform_partition(6))
    first = []
    first_steps = maxent._first_steps

    def spy(*args):
        first.append(first_steps(*args))
        return first[-1]

    monkeypatch.setattr(maxent, "_first_steps", spy)
    monkeypatch.setattr(tsallis, "_first_steps", spy)
    with pytest.raises(InfeasibleError) as refusal:
        audit(solution, fd_step=0.5)
    floor = float(first[-1][0])
    for _ in range(5):
        floor /= 10.0
    assert str(refusal.value).startswith(
        f"targets[0]: {6.0 - 1e-9!r} lies too close to the edge of the feasible set for the "
        f"audit: a step of {floor!r} in span units (s = 4.0) does not fit inside it")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(5, 1000),
    count=st.integers(1, 3),
    mode=st.sampled_from(["counting", "lebesgue"]),
    tilt=st.floats(-2.0, 2.0),
    q=st.sampled_from([None, 0.5, 2.0]),
)
def test_the_in_place_resolves_match_fresh_solves(n, count, mode, tilt, q):
    # the audit's sensitivity, read along the solution's family, is no worse
    # than one read off fresh solves of new ConstraintSets at t_m +- h,
    # h = fd_step s_m, within 1% and the fresh side's own error: each of its
    # four S carries rounding, about eps max(1, |S|), and each solve stops
    # within 1e-12 of its targets in span units, which moves S by at most
    # sum_m |beta_m s_m| 1e-12 (dS/dt = beta); a difference of two can be off by
    # twice their sum, over h
    kind = "ordinary" if q is None else "escort"
    solve, audit = SOLVERS[kind]
    partition = uniform_partition(n, mode, (0.0, 1.0) if mode == "lebesgue" else None)
    x = midpoints(n)
    U = np.vstack([x, x * x, np.sin(3.0 * x)][:count])
    tilted = np.exp(tilt * x - x * x) ** (q or 1.0) * partition.weights
    targets = U @ (tilted / tilted.sum())
    solution = solve(ConstraintSet(list(U), targets, kind, q), partition)
    sensitivity = audit(solution)[1] if kind == "ordinary" else audit(solution)["entropy_sensitivity"]
    scales = solution._dual[2]
    fd_step, eps = 1e-4, float(np.finfo(float).eps)
    convergence = float(np.sum(np.abs(solution.beta * scales))) * 1e-12
    for m in range(count):
        h = fd_step * scales[m]
        entropies = []
        for sign in (1.0, -1.0):
            shifted = targets.copy()
            shifted[m] += sign * h
            fresh = solve(ConstraintSet(list(U), shifted, kind, q), partition, tolerance=1e-12)
            entropies.append(fresh.entropy if kind == "ordinary" else fresh.entropy_q)
        reference = abs((entropies[0] - entropies[1]) / (2.0 * h) - solution.beta[m])
        rounding = eps * max(1.0, *map(abs, entropies))
        assert sensitivity[m] <= 1.01 * reference + 2.0 * (rounding + convergence) / h


@pytest.mark.parametrize("kind, q", [("ordinary", None), ("escort", 2.0)])
def test_a_total_weight_that_overflows_is_refused(kind, q):
    # at b = 0 the dual's sum of mu is +inf, so no solve can begin there
    constraints = ConstraintSet([[0.0, 1.0, 2.0]], [0.7], kind, q)
    solve = solve_maxent if kind == "ordinary" else solve_tsallis_maxent
    with pytest.raises(ValueError, match=r"^partition\.weights: the total weight inf overflows"):
        solve(constraints, WeightedPartition([1e308, 1e308, 1e308]))


@pytest.mark.parametrize("weights", [[1.0, 1.0, 1.0, 1.0], [1.0, 0.0, 1.0, 1.0]])
def test_support_features_are_row_contiguous(weights):
    # a Fortran-ordered z slowed every evaluation of both duals
    u = np.array([[0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 4.0, 9.0]])
    constraints = ConstraintSet(list(u), [1.2, 3.1])
    support, z, scales, mu = _support_setup(constraints, WeightedPartition(weights), "ordinary")
    assert z.flags.c_contiguous and mu.flags.c_contiguous
    t = constraints.targets
    assert np.array_equal(z, u[:, support] / scales[:, None] - (t / scales)[:, None])
    assert np.array_equal(mu, np.asarray(weights)[support])


SOLVERS = {"ordinary": (solve_maxent, thermo_residuals), "escort": (solve_tsallis_maxent, tsallis_thermo)}


@pytest.mark.parametrize("kind, q", [("ordinary", None), ("escort", 2.0)])
def test_a_solve_and_its_audit_pose_the_dual_once(monkeypatch, kind, q):
    # the audit reads the solve's support, z, scales and mu from solution._dual
    solve, audit = SOLVERS[kind]
    kinds = []

    def spy(*args):
        kinds.append(args[2])
        return _support_setup(*args)

    monkeypatch.setattr(maxent, "_support_setup", spy)
    monkeypatch.setattr(tsallis, "_support_setup", spy)
    audit(solve(ConstraintSet([DICE_U, DICE_U**2], [3.0, 11.0], kind, q), uniform_partition(6)))
    assert kinds == [kind]


POSING_WEIGHTS = {
    "counting": np.ones(7),
    "lebesgue": np.full(7, 1.0 / 7.0),
    # zero weights take _support_setup's compress branch
    "zero_weight": np.array([0.5, 0.0, 2.0, 1.0, 0.0, 0.0, 3.0]),
}


@pytest.mark.parametrize("weights", sorted(POSING_WEIGHTS))
@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("kind, q", [("ordinary", None), ("escort", 0.5), ("escort", 2.0)])
def test_the_carried_dual_is_the_problem_posed_afresh(kind, q, count, weights):
    # support, z, scales and mu bit for bit, the targets the (escort) moments
    # of a seeded positive pmf on the support
    mu = POSING_WEIGHTS[weights]
    partition = WeightedPartition(mu)
    x = midpoints(7)
    U = np.vstack([x, x * x, np.sin(3.0 * x)][:count])
    p = np.random.default_rng(count).uniform(0.5, 1.5, 7) * (mu > 0.0)
    tilted = p ** (q or 1.0) * mu
    solution = SOLVERS[kind][0](ConstraintSet(list(U), U @ tilted / tilted.sum(), kind, q), partition)
    fresh = _support_setup(solution.constraints, solution.partition, kind)
    for carried, posed in zip(solution._dual[:4], fresh):
        assert (carried.dtype, carried.shape) == (posed.dtype, posed.shape)
        assert carried.tobytes() == posed.tobytes()
    SOLVERS[kind][1](solution)
# second constraints that repeat [0, 1, 2] -> 0.7 on three counting cells
DEPENDENT_PAIRS = {
    "duplicate": ([0.0, 1.0, 2.0], 0.7),
    "scaled": ([0.0, 2.0, 4.0], 1.4),
    "affine": ([1.0, 2.0, 3.0], 1.7),
}


@pytest.mark.parametrize("kind, q", [("ordinary", None), ("escort", 0.5), ("escort", 2.0)])
@pytest.mark.parametrize("pair", sorted(DEPENDENT_PAIRS))
def test_a_dependent_constraint_solves_and_its_audit_refuses_it(kind, q, pair):
    # the solve returns the single constraint's pmf; the audit, which moves one
    # target at a time, cannot move one target of the pair alone: its re-solves
    # at t_1 +- h exited 2 or read the shifted pair as jointly infeasible
    solve, audit = SOLVERS[kind]
    partition = uniform_partition(3)
    values, target = DEPENDENT_PAIRS[pair]
    single = solve(ConstraintSet([[0.0, 1.0, 2.0]], [0.7], kind, q), partition)
    solution = solve(ConstraintSet([[0.0, 1.0, 2.0], values], [0.7, target], kind, q), partition)
    np.testing.assert_allclose(solution.pmf.masses, single.pmf.masses, atol=1e-12)
    with pytest.raises(ValueError, match=r"^functions\[1\]: an affine combination .*; drop this"):
        audit(solution)


@pytest.mark.parametrize("kind, q", [("ordinary", None), ("escort", 0.5), ("escort", 2.0)])
def test_smooth_independent_features_pass_the_dependence_check(kind, q):
    # the benchmark's feature set x, x^2, sin 3x, whose correlation matrix has
    # a smallest eigenvalue of about 9e-5
    solve, audit = SOLVERS[kind]
    x = (np.arange(1000) + 0.5) / 1000
    U = [x, x * x, np.sin(3.0 * x)]
    tilt = np.exp(0.5 * x - x * x) ** (q or 1.0)
    targets = [float(u @ tilt / tilt.sum()) for u in U]
    solution = solve(ConstraintSet(U, targets, kind, q), uniform_partition(1000, "lebesgue", (0.0, 1.0)))
    residuals = audit(solution)
    gradient = residuals[0] if kind == "ordinary" else residuals["log_z_gradient"]
    assert np.all(gradient < 1e-8)


def gibbs_workload_problems():
    """The problems of the maxent_gibbs benchmark workload, drawn as it draws
    them from seed 0: per n, mode, feature count and draw, the features x,
    x^2, sin 3x on the cell midpoints, and as targets the moments of a
    generator, a random smooth tilt times exponential cell noise."""
    rng = np.random.default_rng(0)
    for n in (100, 1000, 10_000):
        x = midpoints(n)
        for mode in ("counting", "lebesgue"):
            weights = np.ones(n) if mode == "counting" else np.full(n, 1.0 / n)
            for count in (1, 2, 3):
                U = np.vstack([x, x * x, np.sin(3.0 * x)][:count])
                for _ in range(2):
                    tilt = rng.uniform(0.0, 3.0)
                    shape = rng.normal(size=3) @ np.vstack([x, x * x, np.cos(2.0 * np.pi * x)])
                    raw = weights * np.exp(tilt * shape) * rng.exponential(1.0, n)
                    yield n, mode, U, U @ (raw / raw.sum())


GIBBS_M3 = [problem for problem in gibbs_workload_problems() if len(problem[2]) == 3]


@pytest.mark.parametrize("n, mode, U, targets", GIBBS_M3,
                         ids=[f"{mode}-n{n}-{i % 2}" for i, (n, mode, _, _) in enumerate(GIBBS_M3)])
def test_the_gibbs_audit_reads_ill_conditioned_problems_closely(n, mode, U, targets):
    # cond(H) is 1e4 to 1.5e5 here: members at b* +- fd_step T e_m, T = -H^-1,
    # moved exponents by up to fd_step |T e_m| and read 1.6e-4 to 1.4e-2
    partition = uniform_partition(n, mode, (0.0, 1.0) if mode == "lebesgue" else None)
    solution = solve_maxent(ConstraintSet(list(U), targets), partition)
    _, sensitivity = thermo_residuals(solution, fd_step=1e-4)
    assert np.all(sensitivity <= 1e-6)


@pytest.mark.parametrize("q", [None, 0.5, 0.7, 1.5, 2.0, 3.0])
@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    n=st.integers(3, 300),
    count=st.integers(1, 3),
    tilt=st.floats(-3.0, 3.0),
    light=st.sampled_from([0, 5, 30, 100, 300]),
    fd_step=st.sampled_from([1e-4, 1e-2, 0.5]),
)
def test_no_first_step_moves_a_cell_past_its_room(q, n, count, tilt, light, fd_step):
    # every step is sized by _first_steps: a Gibbs Newton step moves no
    # exponent by more than 30, a Gibbs member none by more than fd_step, and
    # an escort audit step no live base 1 + (1-q) x_k by more than its
    # distance to (1 - fd_step) times the smallest.  Gibbs problems put most
    # of the targets' mass on a cell of weight 10^-light, so the first full
    # Newton step goes about 10^light out
    kind = "ordinary" if q is None else "escort"
    solve, audit = SOLVERS[kind]
    x = midpoints(n)
    U = np.vstack([x, x * x, np.sin(3.0 * x)][:count])
    weights, tilted = np.ones(n), np.exp(tilt * x - x * x) ** (q or 1.0)
    if kind == "ordinary":
        weights[0], tilted[0] = 10.0**-light, n * tilted[1:].sum()
    targets = U @ (tilted / tilted.sum())
    calls, first_steps = [], maxent._first_steps
    certified, certify = [], maxent._certify_infeasible

    def spy(*args):
        calls.append((args, first_steps(*args)))
        return calls[-1][1]

    def witness(direction, exponent):
        certified.append(direction)
        certify(direction, exponent)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(maxent, "_first_steps", spy)
        patch.setattr(tsallis, "_first_steps", spy)
        patch.setattr(maxent, "_certify_infeasible", witness)
        try:
            solution = solve(ConstraintSet(list(U), targets, kind, q), WeightedPartition(weights))
            audit(solution, fd_step=fd_step)
        except (ValueError, ConvergenceError):
            # a refused problem or audit: the steps sized before it still count
            solution = None
    slack = 1.0 + 1e-12
    for (moves, first, *room), steps in calls:
        room = room[0] if room else 1.0
        assert np.all(steps <= first)
        assert np.all(steps * np.max(np.abs(moves), axis=1) <= room * slack)
    if solution is None:
        return
    support, z, scales, mu, center, point = solution._dual
    if kind == "ordinary":
        assert all(args[1:] == (1.0, 30.0) for args, _ in calls[:-1])
        # each Newton step's direction is certified, then the iterate it led to
        iterates = np.array([np.zeros(count), *certified[1::2]])
        assert np.all(np.abs(np.diff(iterates, axis=0) @ z) <= 30.0 * slack)
        tangents = -np.linalg.inv(point[2])
        members = calls[-1][1] * np.max(np.abs(tangents.T @ z), axis=1)
        assert np.all(members <= fd_step * slack)
        return
    # the escort checks, from the bases at the solution; the room, a
    # difference of bases, is known to a few of their ulps
    base = 1.0 + (1.0 - q) * point[4]
    live = point[5][2] > 0.0
    room = base[live] - (1.0 - fd_step) * np.min(base[live]) + 8.0 * np.spacing(base[live])
    tangents = -np.linalg.inv(point[2] / float(np.sum(point[5][4])))
    (_, gradient), (_, members) = calls
    for steps, directions in ((gradient, np.eye(count)), (members, tangents)):
        moved = abs(1.0 - q) * np.abs(steps[:, None] * (directions.T @ z)[:, live])
        assert np.all(moved <= room * slack)


GALLERY = Path(__file__).resolve().parent.parent / "scripts" / "maxent_gallery.py"


@pytest.mark.parametrize("argv", [[], ["--q", "1.5", "--target", "0.4"]])
def test_maxent_gallery_script_runs(capsys, argv):
    spec = importlib.util.spec_from_file_location("maxent_gallery", GALLERY)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(argv) == 0
    out = capsys.readouterr().out
    for section in ("classical: die face average", "escort: two-point problem", "classical band"):
        assert section in out
    # every residual the gallery prints is small
    checks = ("moment residual", "entropy identity", "log Z gradient check", "sensitivity check",
              "escort_moment", "power_mass_vs_zbar", "entropy_vs_lnq_zbar", "legendre_gap",
              "log_z_gradient", "entropy_sensitivity")
    for name in checks:
        found = re.search(rf"^{name} +(\S+)$", out, re.MULTILINE)
        assert found is not None and float(found.group(1)) < 1e-6, name
