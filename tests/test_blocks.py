"""Elementwise passes run block by block give the bits of the whole-array formulas.

Each oracle below is the formula as it was written before the passes were
blocked, over the whole array at once.  The blocked code must match it with
tobytes() equality at lengths on either side of the block edges.  The
divergences' oracle is the route they took before one blocked pass formed,
checked and picked their masses: the induced pmfs, then one live pick and
the terms over the whole array.
"""

import math

import numpy as np
import pytest

from qentropy import BaseGridDensity
from qentropy.dyadic import reference_divergence
from qentropy.entropy import _logsumexp, _renyi, _tsallis, renyi_divergence, tsallis_divergence
from qentropy.measure import BLOCK, ProbabilityVector, blocks, induced_pmf
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


def whole_closed_form(p, r):
    """The one live pick of two mass arrays: 0.0 when P = R, +inf unless
    P << R, else the masses where p > 0."""
    if np.array_equal(p, r):
        return 0.0
    live = p > 0.0
    p, r = (p, r) if live.all() else (p[live], r[live])
    return math.inf if np.any(r == 0.0) else (p, r)


def whole_terms(p, r, q, log):
    return q * np.log(p) + (1.0 - q) * np.log(r) if log else p ** q * r ** (1.0 - q)


def whole_renyi(p, r, alpha):
    closed = whole_closed_form(p, r)
    if not isinstance(closed, tuple):
        return closed
    log_sum = whole_logsumexp(whole_terms(*closed, alpha, log=True))
    return float(log_sum / (alpha - 1.0)) + 0.0


def whole_tsallis(p, r, q):
    closed = whole_closed_form(p, r)
    if not isinstance(closed, tuple):
        return closed
    with np.errstate(over="ignore", invalid="ignore"):
        power_sum = float(np.sum(whole_terms(*closed, q, log=False)))
        if not math.isfinite(power_sum):
            power_sum = float(np.exp(whole_logsumexp(whole_terms(*closed, q, log=True))))
    return (power_sum - 1.0) / (q - 1.0) + 0.0


WHOLE = {"renyi": whole_renyi, "tsallis": whole_tsallis}
KERNELS = {"renyi": _renyi, "tsallis": _tsallis}


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
    assert _logsumexp(a.copy()).tobytes() == whole_logsumexp(a).tobytes()


@pytest.mark.parametrize("case", ["finite", "dead", "inf", "all_dead", "nan"])
@pytest.mark.parametrize("n", LENGTHS)
def test_logsumexp_writes_its_exps_over_the_terms_only_below_a_finite_maximum(n, case):
    # a maximum of +inf, -inf or nan sends the result to the fallback, which
    # reads the terms again: they must be left as they were
    a = np.random.default_rng(n).uniform(-30.0, 0.5, n)
    if case == "dead":
        a[1::3] = -np.inf
    elif case == "inf":
        a[-1] = np.inf
    elif case == "all_dead":
        a[:] = -np.inf
    elif case == "nan":
        a[0] = np.nan
    terms = a.copy()
    assert _logsumexp(terms).tobytes() == whole_logsumexp(a).tobytes()
    if case in ("finite", "dead"):
        a_max = np.max(a)
        assert terms.tobytes() == np.exp(np.where(a == a_max, -np.inf, a) - a_max).tobytes()
    else:
        assert terms.tobytes() == a.tobytes()


@pytest.mark.parametrize("cell", ["p", "r"])
@pytest.mark.parametrize("n", LENGTHS[1:])
def test_renyi_log_terms_that_overflow_keep_the_whole_array_bits(n, cell):
    # at alpha = 1e307 a mass of 1e-200 in p makes its cell's log term -inf
    # (the maximum stays finite), and in r makes it +inf (the maximum is +inf)
    p, r = masses_of(n, "live", 19 + n)
    tiny = p if cell == "p" else r
    tiny[n // 2] = 1e-200
    tiny /= tiny.sum()
    with np.errstate(over="ignore", invalid="ignore"):
        want = whole_renyi(p, r, 1e307)
        assert same(_renyi(p, r, 1.0, 1e307), want)
        assert same(renyi_divergence(ProbabilityVector(p), ProbabilityVector(r), None, 1e307), want)
    assert want == math.inf if cell == "r" else math.isfinite(want)


def masses_of(n, case, seed):
    """A pmf pair on n cells: "live" has every p > 0, "dead" zero p cells in
    the first and the last block, "equal" R = P, "singular" r = 0 under a
    live p in the last block only, and "overflow" a cell whose Tsallis term
    p^3 r^-2 is 0 * inf, so that the power sum falls back to log space."""
    rng = np.random.default_rng(seed)
    p, r = rng.lognormal(0.0, 2.0, n), rng.uniform(0.5, 1.5, n)
    if case == "dead":
        p[[0, 1, n - 2]] = 0.0
    if case == "singular":
        r[n - 2] = 0.0
    if case == "overflow":
        p[n // 2], r[n // 2] = 1e-150 * p.sum(), 1e-200 * r.sum()
    p, r = p / p.sum(), r / r.sum()
    return p, (p.copy() if case == "equal" else r)


CASES = [(1, "live"), (1, "equal")] + [
    (n, case) for n in LENGTHS[1:] for case in ("live", "dead", "equal", "singular", "overflow")
]


@pytest.mark.parametrize("q", [0.5, 2.0, 3.0])
@pytest.mark.parametrize("kind", sorted(KERNELS))
@pytest.mark.parametrize("n, case", CASES)
def test_the_kernel_on_density_values_has_the_bits_of_the_induced_pmfs(n, case, kind, q):
    # values p / w on cells of weight w: the route through the induced pmfs
    # multiplies them back into masses and picks over the whole array
    p, r = masses_of(n, case, 11 + n)
    weight = 0.75 / n
    p_values, r_values = p / weight, r / weight
    P, R = ProbabilityVector(p_values * weight), ProbabilityVector(r_values * weight)
    want = WHOLE[kind](P.masses, R.masses, q)
    assert same(KERNELS[kind](p_values, r_values, weight, q), want)
    # the public divergences read the masses as given, at weight 1
    assert same(KERNELS[kind](p, r, 1.0, q), WHOLE[kind](p, r, q))
    if case == "equal":
        assert want == 0.0
    if case == "singular":
        assert want == math.inf


@pytest.mark.parametrize("n", LENGTHS[1:])
def test_the_tsallis_overflow_falls_back_to_log_space(n):
    p, r = masses_of(n, "overflow", 3)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not math.isfinite(np.sum(p ** 3.0 * r ** -2.0))
    got = tsallis_divergence(ProbabilityVector(p), ProbabilityVector(r), None, 3.0)
    assert math.isfinite(got) and same(got, whole_tsallis(p, r, 3.0))


def grid_pair(exponent, case):
    """Two base grids on (0, 1) with the masses of masses_of."""
    p, r = masses_of(2**exponent, case, exponent) if exponent else (np.ones(1), np.ones(1))
    return (BaseGridDensity.from_values(v * 2**exponent, (0.0, 1.0), renormalize=True) for v in (p, r))


@pytest.mark.parametrize("q", [0.5, 2.0, 3.0])
@pytest.mark.parametrize("kind", sorted(KERNELS))
@pytest.mark.parametrize("exponent, case", [(0, "live"), (15, "dead"), (15, "equal"), (17, "live"),
                                            (17, "dead"), (17, "singular"), (17, "overflow")])
def test_reference_divergence_has_the_bits_of_the_induced_pmfs(exponent, case, kind, q):
    p, r = grid_pair(exponent, case)
    want = WHOLE[kind](induced_pmf(p).masses, induced_pmf(r).masses, q)
    assert same(reference_divergence(p, r, q, kind), want)


def test_reference_divergence_checks_its_masses_as_the_induced_pmfs_do():
    p, r = grid_pair(17, "live")
    p.values[BLOCK + 3] = -1.0  # the grids' arrays are writable: a later edit
    with pytest.raises(ValueError, match="^masses: entries must be finite and nonnegative$"):
        induced_pmf(p)
    with pytest.raises(ValueError, match="^masses: entries must be finite and nonnegative$"):
        reference_divergence(p, r, 2.0, "renyi")
    p.values[BLOCK + 3] = 0.0
    with pytest.raises(ValueError, match=r"^masses: must sum to 1 \(got 0\.99"):
        induced_pmf(p)
    with pytest.raises(ValueError, match=r"^masses: must sum to 1 \(got 0\.99"):
        reference_divergence(p, r, 0.5, "tsallis")
