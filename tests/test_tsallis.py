"""Escort-constrained Tsallis entropy maximization and its identity checks.

Frozen literals regenerated by tests/_oracles.py: the two-point escort
problem has a closed form (mass ratio (t/(1-t))^(1/q)), and a brute-force
simplex scan provides a second, implementation-free route.
"""

import json
import math
import warnings

import numpy as np
import pytest

from qentropy import (
    ConstraintSet,
    ProbabilityVector,
    WeightedPartition,
    discrete_consistency_report,
    q_log,
    radon_nikodym,
    solve_maxent,
    solve_tsallis_maxent,
    tsallis_entropy,
    tsallis_thermo,
    uniform_partition,
)
from qentropy.cli import main
from qentropy import tsallis
from qentropy.tsallis import _escort_family, _lnq_z_gradient

from _oracles import two_point_escort_grid

# closed form for u = (0, 1), escort target 0.3, q = 2 (tests/_oracles.py)
TP_P1 = 0.6043560762610400
TP_P2 = 0.3956439237389600
TP_Q_MASS = 0.5217803813052000
TP_BETA_Q = 0.45544725589980956
TP_BETA = 0.23764344284780963
TP_ZBAR_COUNTING = 1.9165151389911680
TP_ZBAR_UNIFORM = 0.9582575694955840
TP_ENTROPY = 0.4782196186948000


def two_point_problem(measure="counting", target=0.3, q=2.0):
    return (
        ConstraintSet([[0.0, 1.0]], [target], "escort", q),
        uniform_partition(2, measure),
    )


def test_escort_expectation_by_hand():
    # on two cells one escort moment fixes the pmf: (0.8, 0.2) has squared
    # masses (0.64, 0.04), which normalize to (16/17, 1/17), so the solve at
    # the order-2 escort mean 1/17 of (0, 1) returns it, with q-mass 0.68
    sol = solve_tsallis_maxent(*two_point_problem(target=1.0 / 17.0), tolerance=1e-12)
    powers = sol.pmf.masses**2  # p^q mu on counting cells
    assert math.isclose(sol.q_mass, 0.68, rel_tol=1e-15)
    assert np.allclose(powers / np.sum(powers), [16.0 / 17.0, 1.0 / 17.0], rtol=1e-14)
    assert math.isclose(sol.escort_moments[0], 1.0 / 17.0, rel_tol=1e-14)
    # order 1 is the plain expectation
    sol = solve_tsallis_maxent(*two_point_problem(target=0.2, q=1.0), tolerance=1e-12)
    assert np.allclose(sol.pmf.masses, [0.8, 0.2], rtol=0, atol=1e-12)


def test_two_point_solution_matches_closed_form():
    sol = solve_tsallis_maxent(*two_point_problem(), tolerance=1e-12)
    assert np.allclose(sol.pmf.masses, [TP_P1, TP_P2], rtol=0, atol=1e-11)
    assert abs(sol.q_mass - TP_Q_MASS) < 1e-11
    assert abs(sol.beta_q - TP_BETA_Q) < 1e-10
    assert abs(float(sol.beta[0]) - TP_BETA) < 1e-10
    assert abs(sol.zbar - TP_ZBAR_COUNTING) < 1e-10
    assert abs(sol.entropy_q - TP_ENTROPY) < 1e-11
    assert abs(float(sol.escort_moments[0]) - 0.3) < 1e-12


def test_two_point_solution_matches_grid_scan():
    p1, p2 = two_point_escort_grid(0.3, 2.0, step=1e-6)
    sol = solve_tsallis_maxent(*two_point_problem())
    assert abs(float(sol.pmf.masses[0]) - p1) < 1e-5
    assert abs(float(sol.pmf.masses[1]) - p2) < 1e-5


def test_identity_residuals_are_small():
    sol = solve_tsallis_maxent(*two_point_problem(), tolerance=1e-12)
    res = sol.identity_residuals
    assert set(res) == {
        "escort_moment",
        "power_mass_vs_zbar",
        "entropy_vs_lnq_zbar",
    }
    assert res["escort_moment"] < 1e-11
    assert res["power_mass_vs_zbar"] < 1e-11
    assert res["entropy_vs_lnq_zbar"] < 1e-11
    # the map is read off the solution's own fields
    q = sol.q
    assert sol.entropy_q == tsallis_entropy(sol.density, q)
    assert res == {
        "escort_moment": float(np.max(np.abs(sol.escort_moments - sol.constraints.targets))),
        "power_mass_vs_zbar": abs(sol.q_mass - sol.zbar ** (1.0 - q)),
        "entropy_vs_lnq_zbar": abs(sol.entropy_q - q_log(sol.zbar, q)),
    }


def test_uniform_probability_reference_scales_the_normalizer():
    # same escort problem against mu_k = 1/2: identical pmf, normalizer
    # divided by the cell count
    counting = solve_tsallis_maxent(*two_point_problem(), tolerance=1e-12)
    uniform = solve_tsallis_maxent(*two_point_problem("uniform_probability"), tolerance=1e-12)
    assert np.allclose(counting.pmf.masses, uniform.pmf.masses, rtol=0, atol=1e-10)
    assert abs(uniform.zbar - TP_ZBAR_UNIFORM) < 1e-10
    assert abs(uniform.zbar - counting.zbar / 2.0) < 1e-10


def test_power_sum_constant_needs_the_uniform_probability_normalizer():
    uniform = solve_tsallis_maxent(*two_point_problem("uniform_probability"), tolerance=1e-12)
    report = discrete_consistency_report(uniform.pmf, 2.0, zbar=uniform.zbar)
    assert report.constant_residual < 1e-12
    # the counting normalizer does not satisfy the same constant
    counting = solve_tsallis_maxent(*two_point_problem(), tolerance=1e-12)
    wrong = discrete_consistency_report(counting.pmf, 2.0, zbar=counting.zbar)
    assert wrong.constant_residual > 0.1


def test_discrete_identity_on_random_pmfs():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        P = ProbabilityVector.from_values(rng.dirichlet(np.ones(n)) + 1e-3, renormalize=True)
        counting, uniform = uniform_partition(n), uniform_partition(n, "uniform_probability")
        for q in (0.5, 1.0, 1.0 + 5e-10, 1.0 - 9e-10, 2.0, 3.0):
            report = discrete_consistency_report(P, q)
            assert report.identity_residual < 1e-12
            assert report.constant_residual is None
            # both sides are the entropy verb's own tsallis_entropy
            assert report.discrete_entropy == tsallis_entropy(radon_nikodym(P, counting), q)
            assert report.measure_entropy == tsallis_entropy(radon_nikodym(P, uniform), q)


@pytest.mark.parametrize("q", [1.0 + 5e-10, 1.0 - 9e-10])
def test_discrete_identity_inside_the_classical_band(q):
    report = discrete_consistency_report(ProbabilityVector([0.1, 0.2, 0.3, 0.4]), q)
    assert report.q == 1.0 and report.power_sum == 1.0
    assert report.identity_residual <= 1e-12


def test_escort_solve_inside_the_band_is_the_gibbs_solve():
    # q = 1 + 5e-10 is taken as 1: w = sum p mu, so beta and beta_q agree
    sol = solve_tsallis_maxent(*two_point_problem(q=1.0 + 5e-10), tolerance=1e-12)
    gibbs = solve_maxent(ConstraintSet([[0.0, 1.0]], [0.3]), uniform_partition(2),
                         tolerance=1e-12)
    assert sol.q == 1.0
    assert np.array_equal(sol.beta, sol.beta_q * sol.q_mass)
    assert abs(float(sol.beta[0]) - float(gibbs.beta[0])) <= 1e-12


@pytest.mark.parametrize("q", [0.5, 1.0 + 2e-9, 2.0, 3.0])
def test_entropy_is_read_off_the_q_mass(q):
    # one power sum for the q-mass and for tsallis_entropy
    sol = solve_tsallis_maxent(*two_point_problem(q=q), tolerance=1e-12)
    assert sol.entropy_q == (1.0 - sol.q_mass) / (q - 1.0) + 0.0


def test_classical_band_matches_gibbs():
    escort = ConstraintSet([np.arange(1.0, 7.0)], [4.5], "escort", 1.0)
    ordinary = ConstraintSet([np.arange(1.0, 7.0)], [4.5])
    partition = uniform_partition(6)
    t_sol = solve_tsallis_maxent(escort, partition)
    g_sol = solve_maxent(ordinary, partition)
    assert np.allclose(t_sol.pmf.masses, g_sol.pmf.masses, rtol=0, atol=1e-12)
    assert abs(t_sol.q_mass - 1.0) < 1e-12
    assert abs(t_sol.zbar - math.exp(g_sol.log_z + float(g_sol.beta @ [4.5]))) < 1e-12
    assert abs(float(t_sol.beta[0]) - float(g_sol.beta[0])) < 1e-12


def test_solution_is_continuous_across_the_classical_band():
    escort = lambda q: ConstraintSet([np.arange(1.0, 7.0)], [4.5], "escort", q)
    partition = uniform_partition(6)
    at_one = solve_tsallis_maxent(escort(1.0), partition).pmf.masses
    for q in (1.0 - 1e-4, 1.0 + 1e-4):
        near = solve_tsallis_maxent(escort(q), partition).pmf.masses
        assert float(np.max(np.abs(near - at_one))) < 1e-3


def test_unconstrained_problem_is_uniform():
    partition = uniform_partition(4)
    sol = solve_tsallis_maxent(ConstraintSet([], [], "escort", 2.0), partition)
    assert np.allclose(sol.pmf.masses, 0.25, rtol=0, atol=1e-12)
    assert abs(sol.zbar - 4.0) < 1e-12
    assert abs(sol.entropy_q - q_log(4.0, 2.0)) < 1e-12


def test_density_builder_normalizes():
    constraints, partition = two_point_problem()
    sol = solve_tsallis_maxent(constraints, partition)
    assert abs(float(sol.beta[0]) - TP_BETA) < 1e-9 and abs(sol.q_mass - TP_Q_MASS) < 1e-9
    density, zbar = sol.density, sol.zbar
    assert math.isclose(float(density.values @ partition.weights), 1.0, rel_tol=0, abs_tol=1e-12)
    assert abs(zbar - TP_ZBAR_COUNTING) < 1e-9


def test_escort_kind_is_required():
    with pytest.raises(ValueError):
        solve_tsallis_maxent(ConstraintSet([[0.0, 1.0]], [0.3]), uniform_partition(2))
    with pytest.raises(ValueError):
        ConstraintSet([[0.0, 1.0]], [0.3], "escort")  # q missing
    with pytest.raises(ValueError):
        ConstraintSet([[0.0, 1.0]], [0.3], q=2.0)  # q forbidden for ordinary


def test_solver_parameter_validation():
    constraints, partition = two_point_problem()
    with pytest.raises(ValueError):
        solve_tsallis_maxent(constraints, partition, tolerance=0.0)
    with pytest.raises(ValueError):
        solve_tsallis_maxent(constraints, partition, max_outer=0)
    with pytest.raises(ValueError):
        solve_tsallis_maxent(constraints, partition, max_inner=0)


def test_thermo_identities_two_point():
    sol = solve_tsallis_maxent(*two_point_problem(), tolerance=1e-13)
    thermo = tsallis_thermo(sol)
    assert thermo["legendre_gap"] < 1e-12
    assert float(np.max(thermo["log_z_gradient"])) < 1e-4
    assert float(np.max(thermo["entropy_sensitivity"])) < 1e-4


def test_subextensive_q_direction():
    # q = 0.5 problem, checked against the same identities rather than a
    # second closed form
    constraints, partition = two_point_problem(target=0.4, q=0.5)
    sol = solve_tsallis_maxent(constraints, partition, tolerance=1e-12)
    res = sol.identity_residuals
    assert abs(float(sol.escort_moments[0]) - 0.4) < 1e-11
    assert res["power_mass_vs_zbar"] < 1e-10
    assert res["entropy_vs_lnq_zbar"] < 1e-10
    # beta = beta_q w is tested by dS_q/dt = beta
    assert tsallis_thermo(sol)["entropy_sensitivity"][0] < 1e-6


def test_argmax_agrees_across_uniform_references():
    # the discrete and measure-theoretic objectives are monotone images of
    # each other, so the constrained maximizers coincide
    for q in (0.5, 2.0):
        for n in (2, 6):
            u = np.arange(float(n))
            target = 0.3 * (n - 1)
            escort = ConstraintSet([u], [target], "escort", q)
            a = solve_tsallis_maxent(escort, uniform_partition(n, "uniform_probability"), tolerance=1e-11)
            b = solve_tsallis_maxent(escort, uniform_partition(n, "counting"), tolerance=1e-11)
            assert float(np.max(np.abs(a.pmf.masses - b.pmf.masses))) < 2e-11


def test_null_cells_stay_null():
    partition = WeightedPartition([1.0, 0.0, 1.0])
    constraints = ConstraintSet([[0.0, 5.0, 1.0]], [0.4], "escort", 2.0)
    sol = solve_tsallis_maxent(constraints, partition)
    assert sol.density.values[1] == 0.0
    assert sol.pmf.masses[1] == 0.0
    assert abs(float(sol.escort_moments[0]) - 0.4) < 1e-9


def test_escort_moment_against_direct_recomputation():
    sol = solve_tsallis_maxent(*two_point_problem(), tolerance=1e-12)
    # counting cells: the density is the pmf, and its escort weights are p^2 / sum p^2
    powers = sol.pmf.masses**2
    direct = float(powers @ [0.0, 1.0]) / float(np.sum(powers))
    assert abs(direct - 0.3) < 1e-11


@pytest.mark.parametrize(
    "q, n, target", [(2.0, 100, 0.3), (3.0, 1000, 0.3), (3.0, 1000, 0.52), (3.0, 3000, 0.52)]
)
def test_solve_and_audit_on_large_counting_grids(q, n, target):
    # counting weights give escort normalizers far from 1, and the dual is
    # flat to rounding well before the solve's tolerance
    x = (np.arange(n) + 0.5) / n
    sol = solve_tsallis_maxent(ConstraintSet([x], [target], "escort", q), uniform_partition(n))
    thermo = tsallis_thermo(sol)
    assert sol.residual_norm <= 1e-10
    assert float(np.max(thermo["log_z_gradient"])) < 1e-4
    assert float(np.max(thermo["entropy_sensitivity"])) < 1e-4


def test_thermo_identities_with_cut_off_cells():
    n = 100
    x = (np.arange(n) + 0.5) / n
    sol = solve_tsallis_maxent(ConstraintSet([x], [0.15], "escort", 0.5), uniform_partition(n))
    assert np.count_nonzero(sol.density.values == 0.0) > 0
    thermo = tsallis_thermo(sol)
    assert float(np.max(thermo["log_z_gradient"])) < 1e-6
    assert float(np.max(thermo["entropy_sensitivity"])) < 1e-4


@pytest.mark.parametrize("q", [3.0, 5.0])
def test_log_z_gradient_at_large_q(q):
    # counting n = 4000 with features x, x^2: the q-mass is about 5e-15 at
    # q = 5, far below the rounding of ln_q's constant -1/(1-q), which read
    # [0.4, 0.2] (the escort moments themselves) before it was cancelled
    n = 4000
    x = (np.arange(n) + 0.5) / n
    constraints = ConstraintSet([x, x * x], [0.4, 0.2], "escort", q)
    sol = solve_tsallis_maxent(constraints, uniform_partition(n))
    thermo = tsallis_thermo(sol)
    assert float(np.max(thermo["log_z_gradient"])) < 1e-6
    assert float(np.max(thermo["entropy_sensitivity"])) < 1e-6


def light_cell_problem(weight):
    """q = 2, values [0, 1], target 0.5 on weights [weight, 1]: the light cell's
    base lies about sqrt(weight) from the q > 1 pole.  The span is 1, so span
    units are the problem's own."""
    partition = WeightedPartition(np.array([weight, 1.0]))
    solution = solve_tsallis_maxent(ConstraintSet([[0.0, 1.0]], [0.5], "escort", 2.0), partition)
    z = np.array([[-0.5, 0.5]])
    return solution, z, partition.weights


def leaves_the_family(solution, z, mu, step, one_minus_q=-1.0):
    """Whether beta_q s +- step leaves the escort family on either side (past
    the q > 1 pole, or a live cell past the q < 1 cut-off)."""
    live = _escort_family(solution.beta_q, z, mu, one_minus_q)[2] > 0.0
    sides = [_escort_family(solution.beta_q + sign * step, z, mu, one_minus_q) for sign in (1.0, -1.0)]
    return any(side is None or not np.all(side[2][live] > 0.0) for side in sides)


def test_the_escort_gradient_check_shrinks_its_step():
    # a step of 1e-4 crosses the pole and one of 1e-5 does not, so a check
    # asked for 1e-4 takes 1e-5: the same differences as when asked for 1e-5
    solution, z, mu = light_cell_problem(1e-10)
    assert leaves_the_family(solution, z, mu, 1e-4)
    assert not leaves_the_family(solution, z, mu, 1e-5)
    gradient = _lnq_z_gradient(solution.beta_q, 2.0, z, mu, np.array([1e-4]))
    assert np.all(np.isfinite(gradient))
    assert np.array_equal(gradient, _lnq_z_gradient(solution.beta_q, 2.0, z, mu, np.array([1e-5])))


@pytest.mark.parametrize("q, k", [(2.0, k) for k in range(7, 15)] + [(0.5, k) for k in range(5, 8)])
def test_the_escort_audit_steps_from_the_distance_to_the_pole(monkeypatch, q, k):
    # values [0, 1], target 0.5 on weights [10^-k, 1]: at q = 2 the light
    # cell's base lies about 10^(-k/2) from the pole, at q = 0.5 the heavy
    # cell's about 10^-k from the cut-off.  The first step, fd_step times that
    # distance over the step's reach, stays in the family; a step of fd_step =
    # 1e-4 read log_z_gradient 0.0047 to 0.42 at q = 2 and 0.029 to 0.48 at
    # q = 0.5
    partition = WeightedPartition(np.array([10.0**-k, 1.0]))
    solution = solve_tsallis_maxent(ConstraintSet([[0.0, 1.0]], [0.5], "escort", q), partition)
    z, mu = solution._dual[1], solution._dual[3]
    first, first_steps = [], tsallis._first_steps

    def spy(*args):
        first.append(first_steps(*args))
        return first[-1]

    monkeypatch.setattr(tsallis, "_first_steps", spy)
    thermo = tsallis_thermo(solution)
    steps = first[0]  # the gradient check's
    assert 0.0 < steps[0] < 1e-4
    assert not leaves_the_family(solution, z, mu, steps[0], 1.0 - q)
    assert thermo["log_z_gradient"][0] < 1e-8
    assert thermo["entropy_sensitivity"][0] < 1e-7


def test_a_step_that_leaves_the_family_at_its_floor_is_refused():
    # at weight 1e-12 even 0.5 / 10^5 = 5e-6 crosses the pole
    solution, z, mu = light_cell_problem(1e-12)
    assert leaves_the_family(solution, z, mu, 0.5 / 10**5)
    with pytest.raises(ValueError, match="^fd_step: "):
        _lnq_z_gradient(solution.beta_q, 2.0, z, mu, np.array([0.5]))


def test_a_wide_fd_step_near_the_pole_stays_in_the_family(capsys):
    # fd_step = 0.5 at weight 1e-12 was refused under fd_step, every step from
    # 0.5 down crossing the pole; steps from the pole's distance fit, and the
    # family check, unbounded, read 1.6e22 there.  A step of half the distance
    # to the pole is coarse, so the residuals are large but finite
    spec = ('{"partition": {"cells": ["a", "b"], "weights": [1e-12, 1]}, "fd_step": 0.5, '
            '"constraints": [{"values": [0, 1], "target": 0.5}]}')
    assert main(["maxent", "--kind", "tsallis", "--q", "2", "--input", spec]) == 0
    thermo = json.loads(capsys.readouterr().out)["thermo_residuals"]
    assert thermo["log_z_gradient"][0] < 1.0
    assert thermo["entropy_sensitivity"][0] < 1.0


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
def test_the_escort_audit_on_weights_near_the_subnormals_warns_nothing(q):
    # weights [0, w, w]: H is subnormal, and Sigma inv(H) overflowed to inf
    # before it was scaled (invalid values in the steps and the matmul); at
    # q = 2 the mean of the members' S_q, about -1/w, overflowed as S+ + S-
    constraints = ConstraintSet([[0.0, 0.0, 1.0]], [0.5], "escort", q)
    for w in np.geomspace(3.3e-309, 1.4e-308, 9):
        partition = WeightedPartition(np.array([0.0, w, w]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            thermo = tsallis_thermo(solve_tsallis_maxent(constraints, partition))
        assert np.all(np.isfinite(thermo["entropy_sensitivity"]))
        assert np.all(np.isfinite(thermo["log_z_gradient"]))
