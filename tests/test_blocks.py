"""Elementwise passes run block by block give the bits of the whole-array formulas.

Each oracle below is the formula as it was written before the passes were
blocked, over the whole array at once.  The blocked code must match it with
tobytes() equality at lengths on either side of the block edges.
"""

import math

import numpy as np
import pytest

from qentropy import BaseGridDensity
from qentropy.entropy import _logsumexp, renyi_divergence, tsallis_divergence
from qentropy.measure import BLOCK, ProbabilityVector, blocks
from qentropy.serialize import expression_function

LENGTHS = [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7]


def whole_logsumexp(a):
    """_logsumexp(a) without weights, whole-array."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a)
        top = a == a_max
        m = np.sum(top, dtype=float)
        terms = np.exp(np.where(top, -np.inf, a) - a_max)
        s = np.sum(terms)
        out = np.log1p(s if s == 0 else s / m) + np.log(m) + a_max
        if not np.isfinite(out):
            out = np.log(np.sum(np.exp(a)))
    return out


def same(a: float, b: float) -> bool:
    return float(a).hex() == float(b).hex()


def whole_live(p, r):
    live = p > 0.0
    return (p, r) if live.all() else (p[live], r[live])


def whole_renyi(p, r, alpha):
    p, r = whole_live(p, r)
    log_sum = whole_logsumexp(alpha * np.log(p) + (1.0 - alpha) * np.log(r))
    return float(log_sum / (alpha - 1.0)) + 0.0


def whole_tsallis(p, r, q):
    p, r = whole_live(p, r)
    with np.errstate(over="ignore", invalid="ignore"):
        power_sum = float(np.sum(p ** q * r ** (1.0 - q)))
        if not math.isfinite(power_sum):
            power_sum = float(np.exp(whole_logsumexp(q * np.log(p) + (1.0 - q) * np.log(r))))
    return (power_sum - 1.0) / (q - 1.0) + 0.0


EXPRESSIONS = {
    "7.25": lambda x: np.full(x.shape, 7.25),
    "x*0 + 2": lambda x: x * 0.0 + 2.0,
    "x >= 0.75": lambda x: (x >= 0.75).astype(float),
    "where(x < 0.5, 2.0, x*x) + minimum(x, 0.3)": lambda x: np.where(x < 0.5, 2.0, x * x) + np.minimum(x, 0.3),
    "1 + 0.3*sin(2*pi*x) - 0.2*cos(4*pi*x)":
        lambda x: 1.0 + 0.3 * np.sin(2.0 * np.pi * x) - 0.2 * np.cos(4.0 * np.pi * x),
    "exp(-x) * sqrt(x) + log(1 + x) / tan(x + 0.1) % 0.7":
        lambda x: np.exp(-x) * np.sqrt(x) + np.log(1.0 + x) / np.tan(x + 0.1) % 0.7,
}


@pytest.mark.parametrize("n", [0, *LENGTHS])
def test_blocks_cut_the_range_in_order(n):
    cuts = list(blocks(n))
    assert cuts[0].start == 0 and cuts[-1].stop == n
    assert all(a.stop == b.start for a, b in zip(cuts, cuts[1:]))
    assert all(0 < cut.stop - cut.start <= BLOCK for cut in cuts) or n == 0


@pytest.mark.parametrize("expr", sorted(EXPRESSIONS))
@pytest.mark.parametrize("n", LENGTHS)
def test_an_expression_has_the_bits_of_one_whole_array_evaluation(expr, n):
    x = np.random.default_rng(n).uniform(0.0, 1.5, n)
    got = expression_function(expr)(x)
    want = EXPRESSIONS[expr](x)
    assert got.shape == x.shape and got.dtype == np.float64
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("interval", [(0.0, 1.0), (-3.7, 11.3), (1e-300, 3e-300)])
@pytest.mark.parametrize("exponent", [14, 15, 16, 17])
def test_grid_midpoints_have_the_bits_of_the_whole_array_formula(interval, exponent):
    seen = []

    def density(x):
        seen.append(x.copy())
        return np.ones_like(x)

    BaseGridDensity.from_function(density, interval, base_exponent=exponent)
    a, b = interval
    n = 2**exponent
    assert seen[0].tobytes() == (a + (b - a) * (np.arange(n) + 0.5) / n).tobytes()


def pmf_pair(n, seed):
    """Two pmfs on n cells; p has zero cells past the first block when n > 1."""
    rng = np.random.default_rng(seed)
    p, r = rng.lognormal(0.0, 2.0, n), rng.uniform(0.5, 1.5, n)
    p[n // 2 + 1 :: 97] = 0.0
    return p / p.sum(), r / r.sum()


@pytest.mark.parametrize("q", [0.5, 2.0])
@pytest.mark.parametrize("n", LENGTHS)
def test_divergences_have_the_bits_of_the_whole_array_sums(n, q):
    p, r = pmf_pair(n, 7 + n)
    P, R = ProbabilityVector(p), ProbabilityVector(r)
    assert same(renyi_divergence(P, R, None, q), whole_renyi(p, r, q))
    assert same(tsallis_divergence(P, R, None, q), whole_tsallis(p, r, q))
    # r is positive everywhere, so its cells are read in place
    s = r[::-1].copy()
    S = ProbabilityVector(s)
    assert same(renyi_divergence(R, S, None, q), whole_renyi(r, s, q))
    assert same(tsallis_divergence(R, S, None, q), whole_tsallis(r, s, q))


@pytest.mark.parametrize("n", LENGTHS[1:])
def test_pmfs_that_differ_only_in_the_last_block_are_not_equal(n):
    p = np.full(n, 1.0 / n)
    r = p.copy()
    r[-2:] = [0.5 / n, 1.5 / n]
    P, R = ProbabilityVector(p), ProbabilityVector(r)
    for q in (0.5, 2.0):
        assert same(renyi_divergence(P, R, None, q), whole_renyi(p, r, q))
        assert renyi_divergence(P, R, None, q) != 0.0
        assert renyi_divergence(P, ProbabilityVector(p.copy()), None, q) == 0.0


@pytest.mark.parametrize("n", LENGTHS)
def test_logsumexp_counts_a_maximum_tied_across_blocks(n):
    a = np.random.default_rng(n).uniform(-30.0, 0.5, n)
    a[0] = a[-1] = 0.75  # in the first block and, past BLOCK, in the last
    assert _logsumexp(a).tobytes() == whole_logsumexp(a).tobytes()
