"""Classical and generalized information measures on weighted partitions.

Frozen literals regenerated by tests/_oracles.py (mpmath, 50 dps).
"""

import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qentropy import (
    DensityVector,
    ProbabilityVector,
    WeightedPartition,
    induced_pmf,
    kl_divergence,
    measure_entropy,
    radon_nikodym,
    renyi_divergence,
    renyi_entropy,
    shannon_entropy,
    tsallis_divergence,
    tsallis_entropy,
    uniform_partition,
)
from qentropy.entropy import _logsumexp, _power_sum
from qentropy.measure import _ratio_density
from qentropy.tsallis import _escort_family

P82 = ProbabilityVector([0.8, 0.2])
R55 = ProbabilityVector([0.5, 0.5])


def _density(masses, partition):
    return radon_nikodym(ProbabilityVector(masses), partition)


@pytest.mark.parametrize("divergence", [renyi_divergence, tsallis_divergence])
@pytest.mark.parametrize("masses", [[0.2, 0.8], [0.1, 0.0, 0.3, 0.6], [1.0 / 3.0] * 3])
def test_divergence_of_a_pmf_from_itself_is_exactly_zero(divergence, masses):
    P = ProbabilityVector(masses)
    for index in (0.5, 2.0, 7.0):
        assert divergence(P, ProbabilityVector(list(masses)), None, index) == 0.0
    # unequal vectors still take the power sum
    assert divergence(P82, R55, None, 2.0) > 0.0 and divergence(R55, P82, None, 0.5) > 0.0


def test_shannon_entropy_of_uniform_density():
    for n in (2, 5, 16):
        part = uniform_partition(n)
        p = DensityVector(np.full(n, 1.0 / n), part)
        assert math.isclose(shannon_entropy(p), math.log(n), rel_tol=0, abs_tol=1e-13)


def test_kl_divergence_frozen_value():
    assert math.isclose(kl_divergence(P82, R55), 0.1927447570217575, rel_tol=0, abs_tol=1e-15)
    assert kl_divergence(R55, R55) == 0.0


def test_kl_divergence_infinite_off_support():
    assert kl_divergence(ProbabilityVector([1.0, 0.0]), ProbabilityVector([0.0, 1.0])) == math.inf
    # the other direction is finite: 0 ln 0 = 0
    assert kl_divergence(ProbabilityVector([0.0, 1.0]), R55) == math.log(2.0)


# the correctly rounded values (mpmath, 50 dps); each naive ratio p/r leaves the floats
KL_TINY_R = 367.720473264927  # I([0.5, 0.5] || [1e-320, 1]); p/r overflows
MEASURE_TINY_P = 3.6893989311501579e-321  # S([5e-324, 1]) against weights (10, 1); p/mu underflows


def test_kl_takes_the_log_difference_where_the_ratio_leaves_the_floats():
    # each of these read +-inf when every cell took ln(p/r)
    P, R = ProbabilityVector([0.5, 0.5]), ProbabilityVector([1e-320, 1.0])
    assert math.isclose(kl_divergence(P, R), KL_TINY_R, rel_tol=1e-15)
    assert renyi_divergence(P, R, None, 1.0) == kl_divergence(P, R)
    tiny_weight = WeightedPartition([1e-320, 1.0])
    assert measure_entropy(P, tiny_weight) == -kl_divergence(P, R)
    tiny_mass = ProbabilityVector([5e-324, 1.0])
    assert measure_entropy(tiny_mass, WeightedPartition([10.0, 1.0])) == MEASURE_TINY_P


def test_measure_entropy_discrete_consistency():
    # against the uniform probability reference the value is S_n - ln n
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        P = ProbabilityVector.from_values(rng.dirichlet(np.ones(n)), renormalize=True)
        s_n = -float(np.sum(P.masses[P.masses > 0] * np.log(P.masses[P.masses > 0])))
        part = uniform_partition(n, "uniform_probability")
        got = measure_entropy(P, part)
        assert math.isclose(got, s_n - math.log(n), rel_tol=0, abs_tol=1e-13)
        # one kernel: the negated divergence from the reference, bit for bit
        assert got == -kl_divergence(P, ProbabilityVector(part.weights))


def test_measure_entropy_on_null_cell_warns_and_is_minus_inf():
    part = WeightedPartition([1.0, 0.0])
    with pytest.warns(RuntimeWarning, match=r"^mass 0\.25 on mu-null cell 1: measure entropy is -inf$"):
        assert measure_entropy(ProbabilityVector([0.75, 0.25]), part) == -math.inf
    # a null cell without mass is no violation: no warning, a finite value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert measure_entropy(ProbabilityVector([1.0, 0.0]), part) == 0.0


def test_renyi_entropy_frozen_value():
    part = uniform_partition(3)
    p = _density([0.5, 0.25, 0.25], part)
    assert math.isclose(renyi_entropy(p, 2.0), 0.9808292530117262, rel_tol=0, abs_tol=1e-15)
    # order 1 collapses to Shannon
    assert math.isclose(renyi_entropy(p, 1.0), shannon_entropy(p), rel_tol=0, abs_tol=0)


def test_renyi_divergence_frozen_value():
    got = renyi_divergence(P82, R55, None, 2.0)
    assert math.isclose(got, 0.3074846997479607, rel_tol=0, abs_tol=1e-15)
    # the power-sum route rounds (0.64/0.8 is not exact), so self-divergence
    # lands within an ulp of zero rather than on it
    assert abs(renyi_divergence(P82, P82, None, 2.0)) <= 1e-15
    assert renyi_divergence(ProbabilityVector([1.0, 0.0]), ProbabilityVector([0.0, 1.0]), None, 0.5) == math.inf


def test_tsallis_divergence_frozen_value():
    got = tsallis_divergence(P82, R55, None, 2.0)
    assert math.isclose(got, 0.36, rel_tol=0, abs_tol=1e-14)
    assert abs(tsallis_divergence(P82, P82, None, 2.0)) <= 1e-15


# mpmath, 50 dps, on these float inputs; a power in each sum overflows though the sum does not
TSALLIS_LARGE_DENSITY = -2.5000000000000003252e299  # S_2 of [5e299, 1] on weights (1e-300, 0.5)
TSALLIS_HIGH_INDEX = 2.0863624633541471446e237  # I_800([0.5, 0.5] || [0.25, 0.75])


def test_tsallis_sums_are_finite_where_a_power_overflows():
    # each read -inf or +inf when the terms were summed only as floats
    density = DensityVector([5e299, 1.0], WeightedPartition([1e-300, 0.5]))
    assert math.isclose(tsallis_entropy(density, 2.0), TSALLIS_LARGE_DENSITY, rel_tol=1e-12)
    got = tsallis_divergence(ProbabilityVector([0.5, 0.5]), ProbabilityVector([0.25, 0.75]), None, 800.0)
    assert math.isclose(got, TSALLIS_HIGH_INDEX, rel_tol=1e-12)


def test_tsallis_entropy_of_uniform_is_deformed_log():
    from qentropy import q_log

    for n in (2, 5, 12):
        for q in (0.5, 2.0, 3.0):
            part = uniform_partition(n)
            p = DensityVector(np.full(n, 1.0 / n), part)
            assert math.isclose(tsallis_entropy(p, q), q_log(float(n), q), rel_tol=1e-13)


def test_entropy_is_minus_divergence_from_probability_reference():
    # for a probability-measure reference, each entropy is the negated
    # divergence of the induced measure from that reference
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        mu = rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n
        mu = mu / mu.sum()
        part = WeightedPartition(mu)
        p = DensityVector.from_values(rng.uniform(0.1, 2.0, n), part, renormalize=True)
        P = induced_pmf(p)
        mu_pmf = ProbabilityVector(mu)
        assert math.isclose(
            shannon_entropy(p), -kl_divergence(P, mu_pmf), rel_tol=0, abs_tol=1e-12
        )
        for index in (0.5, 2.0, 3.0):
            assert math.isclose(
                renyi_entropy(p, index),
                -renyi_divergence(P, mu_pmf, part, index),
                rel_tol=0,
                abs_tol=1e-12,
            )
            assert math.isclose(
                tsallis_entropy(p, index),
                -tsallis_divergence(P, mu_pmf, part, index),
                rel_tol=0,
                abs_tol=1e-12,
            )


def test_divergences_reduce_to_kl_at_index_one():
    ref = kl_divergence(P82, R55)
    for idx in (1.0 - 1e-6, 1.0 + 1e-6):
        assert abs(renyi_divergence(P82, R55, None, idx) - ref) < 1e-5
        assert abs(tsallis_divergence(P82, R55, None, idx) - ref) < 1e-5
    # inside the classical band the reduction is exact
    assert renyi_divergence(P82, R55, None, 1.0) == ref
    assert tsallis_divergence(P82, R55, None, 1.0) == ref


def test_index_validation():
    with pytest.raises(ValueError):
        renyi_entropy(DensityVector([0.5, 0.5], uniform_partition(2, "uniform_probability")), 0.0)
    with pytest.raises(ValueError):
        tsallis_divergence(P82, R55, None, -1.0)


def test_partition_size_cross_checks():
    with pytest.raises(ValueError):
        kl_divergence(P82, R55, uniform_partition(3))
    with pytest.raises(ValueError):
        kl_divergence(P82, ProbabilityVector([0.2, 0.3, 0.5]))


def test_renyi_tsallis_monotone_bridge():
    # same-index pair is linked by a strictly monotone map, so the two
    # divergences order any pair of distributions identically
    rng = np.random.default_rng(5)
    for _ in range(20):
        P = ProbabilityVector.from_values(rng.dirichlet(np.ones(4)), renormalize=True)
        R = ProbabilityVector.from_values(rng.dirichlet(np.ones(4)) + 0.01, renormalize=True)
        for q in (0.5, 2.0, 3.0):
            i_alpha = renyi_divergence(P, R, None, q)
            i_q = tsallis_divergence(P, R, None, q)
            bridged = math.expm1((q - 1.0) * i_alpha) / (q - 1.0)
            assert math.isclose(i_q, bridged, rel_tol=0, abs_tol=1e-11)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2**31 - 1))
def test_divergence_nonnegativity_property(n, seed):
    rng = np.random.default_rng(seed)
    P = ProbabilityVector.from_values(rng.dirichlet(np.ones(n)) + 1e-3, renormalize=True)
    R = ProbabilityVector.from_values(rng.dirichlet(np.ones(n)) + 1e-3, renormalize=True)
    assert kl_divergence(P, R) >= 0.0
    for q in (0.5, 0.9, 2.0, 3.0):
        assert renyi_divergence(P, R, None, q) >= 0.0
        assert tsallis_divergence(P, R, None, q) >= 0.0


# values frozen from scipy.special.logsumexp 1.17.1; a plain max-shifted sum
# differs from it in the last digit on the first case
LOGSUMEXP_FROZEN = [
    ([-2.0041390383268505, -3.165451653615364], [1.9169077841885873, 0.6399822111227037],
     -1.2540114246804237),
    ([1.0, 1.0, 0.5], None, 1.9580200879470337),  # tied maxima
    ([2.0, 2.0, 2.0], [0.5, 0.25, 0.25], 2.0),
    ([0.3, 5.0, -1.0], [1.0, 0.0, 2.0], 0.7350650655339068),  # zero weight on the max
    ([0.7], [3.0], 1.7986122886681097),  # a single element
    ([-2.5], None, -2.5),
    (np.linspace(-1000.0, 3.0, 7).tolist(), [0.5, 1.0, 2.0, 0.25, 1.5, 3.0, 0.75],
     2.712317927548219),  # a spread of 1e3
    ([-700.0, 0.0, 300.0, 299.5], None, 300.4740769841801),
]


@pytest.mark.parametrize("a, b, frozen", LOGSUMEXP_FROZEN)
def test_logsumexp_port_is_frozen(a, b, frozen):
    b = None if b is None else np.asarray(b)
    assert _logsumexp(np.asarray(a), b) == frozen


def test_import_leaves_scipy_out():
    probe = "import sys, qentropy; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "False\n")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 40), extra=st.integers(1, 5), q=st.sampled_from([0.5, 2.0, 3.0]),
       seed=st.integers(0, 2**32 - 1))
def test_dead_cells_leave_the_live_values_bit_for_bit(n, extra, q, seed):
    # with every cell live the sums read the arrays whole; with a zero-weight,
    # zero-density, cut-off or (0, 0) divergence cell among them they pick the
    # live cells out, and the live values must not change by a bit
    rng = np.random.default_rng(seed)
    weights, values = rng.uniform(0.1, 2.0, n), rng.uniform(0.01, 3.0, n)
    values /= values @ weights
    dead = np.sort(rng.choice(n + extra, extra, replace=False))
    live = np.ones(n + extra, dtype=bool)
    live[dead] = False
    zero_weight = rng.integers(0, 2, extra) == 1
    padded_weights, padded_values = np.zeros(n + extra), np.zeros(n + extra)
    padded_weights[live], padded_values[live] = weights, values
    padded_weights[dead] = np.where(zero_weight, 0.0, rng.uniform(0.1, 2.0, extra))
    padded_values[dead] = np.where(zero_weight, rng.uniform(0.1, 3.0, extra), 0.0)
    whole = DensityVector(values, WeightedPartition(weights))
    picked = DensityVector(padded_values, WeightedPartition(padded_weights))
    assert shannon_entropy(picked) == shannon_entropy(whole)
    assert _power_sum(padded_values, padded_weights, q) == _power_sum(values, weights, q)
    assert renyi_entropy(picked, q) == renyi_entropy(whole, q)

    # divergences: P and R padded with cells where both are 0
    P, R = values * weights, rng.uniform(0.1, 2.0, n)
    R /= R.sum()
    padded_P, padded_R = np.zeros(n + extra), np.zeros(n + extra)
    padded_P[live], padded_R[live] = P, R
    pair = ProbabilityVector(P), ProbabilityVector(R)
    padded_pair = ProbabilityVector(padded_P), ProbabilityVector(padded_R)
    assert renyi_divergence(*padded_pair, alpha=q) == renyi_divergence(*pair, alpha=q)
    assert tsallis_divergence(*padded_pair, q=q) == tsallis_divergence(*pair, q=q)

    support = padded_weights > 0.0
    scattered = _ratio_density(padded_values[support], support, picked.partition).values
    assert np.array_equal(scattered[live], _ratio_density(values, weights > 0.0, whole.partition).values)
    assert not np.any(scattered[~support])

    # the escort family on one feature, whose exponents x = -lam z are exact
    # products: extra cells past the q < 1 cut-off (base 1 + (1-q) x <= 0),
    # or, for q > 1, where no cell may be cut off, of zero weight
    lam = rng.uniform(0.05, 0.3, 1)
    z = rng.uniform(-1.0, 1.0, (1, n))
    padded_z = np.zeros((1, n + extra))
    padded_z[:, live] = z
    if q < 1.0:
        # x <= 1/(q - 1) = -2 on each extra cell
        padded_z[:, dead] = rng.uniform(2.0, 5.0, extra) / lam
        padded_mu = np.where(live, padded_weights, 1.0)
    else:
        padded_z[:, dead] = rng.uniform(-1.0, 1.0, extra)
        padded_mu = np.where(live, padded_weights, 0.0)
    compact = _escort_family(lam, z, weights, 1.0 - q)
    padded = _escort_family(lam, padded_z, padded_mu, 1.0 - q)
    for whole_part, padded_part in zip(compact[:3] + compact[4:], padded[:3] + padded[4:]):
        assert np.array_equal(padded_part[live], whole_part)
    assert not np.any(padded[4][dead])
    assert padded[3] == pytest.approx(compact[3], rel=1e-14)
