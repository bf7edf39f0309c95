"""Entropy and relative-entropy functionals against an explicit reference measure.

Conventions, applied literally throughout: 0 ln 0 = 0, a/0 = +inf for a > 0,
0 * (+-inf) = 0.  Every sum skips cells with zero probability mass, and the
absolute-continuity check runs before any power is taken, so 0^negative is
never evaluated.  Divergences return math.inf on the divergent branch; the
sums take (values, weights).

The Renyi and Tsallis divergences, of pmfs and of a dyadic grid's densities
alike, take their masses as values times one cell weight and run one kernel,
_live_terms, over them block by block (measure.blocks): per block it checks
the masses, compares P with R, picks the live cells and writes their logs
or powers into one array.  Every sum and maximum is then taken over that
whole array, in one pass and one order, so the result has the bits of the
unblocked formulas.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .measure import (
    DensityVector,
    ProbabilityVector,
    WeightedPartition,
    _check_total,
    _live_index,
    blocks,
)
from .qcalc import check_index

__all__ = [
    "shannon_entropy",
    "kl_divergence",
    "measure_entropy",
    "renyi_entropy",
    "renyi_divergence",
    "tsallis_entropy",
    "tsallis_divergence",
]


def _logsumexp(a: np.ndarray, b: np.ndarray | None = None) -> np.float64:
    """log sum_k b_k exp(a_k) for 1-D a and b >= 0, in the order of operations
    of scipy.special.logsumexp (1.17), so the result matches it bit for bit.

    Zero-weight terms drop out; the maximal terms are summed apart as m, and
    the result is log1p(rest/m) + log m + max a.  A non-finite result falls
    back to log sum b exp(a) as scipy's does.  Unweighted, the exps overwrite
    a when max a is finite, which is when the fallback cannot run.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if b is None:
            # unweighted, as the divergences call it on up to 2^B terms: the
            # exps block by block, m an exact count, the sum whole-array
            a_max = np.max(a)
            m, terms = 0, a if np.isfinite(a_max) else np.empty(a.shape)
            for block in blocks(a.size):
                top = a[block] == a_max
                m += int(np.count_nonzero(top))
                shifted = np.where(top, -np.inf, a[block])
                shifted -= a_max
                np.exp(shifted, out=terms[block])
            m, s = float(m), np.sum(terms)
        else:
            shifted = np.where(b == 0, -np.inf, a)
            a_max = np.max(shifted)
            top = shifted == a_max
            m = np.sum(b * top, dtype=float)
            s = np.sum(b * np.exp(np.where(top, -np.inf, shifted) - a_max))
        out = np.log1p(s if s == 0 else s / m) + np.log(m) + a_max
        if not np.isfinite(out):
            out = np.log(np.sum(np.exp(a) if b is None else b * np.exp(a)))
    return out


def _masses(P, R, partition) -> tuple[np.ndarray, np.ndarray]:
    """The mass arrays of a divergence's two pmfs, after their lengths are checked."""
    p, r = P.masses, R.masses
    if p.shape != r.shape:
        raise ValueError(
            f"R: length {r.size} does not match P length {p.size}"
        )
    if partition is not None and p.shape != (len(partition),):
        raise ValueError(
            f"partition: size {len(partition)} does not match vectors of length {p.size}"
        )
    return p, r


def _live_terms(p: np.ndarray, r: np.ndarray, weight: float, q: float,
                log: bool) -> float | np.ndarray:
    """A divergence's one pass over the masses P_k = p_k weight, R_k = r_k weight.

    Where no power sum is needed, the value: KL in the classical band, +inf
    unless P << R, and exactly 0 when P = R, where the sum would leave a
    rounding error of either sign.  Else, in one array, the term of each live
    cell (P_k > 0) in cell order: P_k^q R_k^(1-q), or its log
    q ln P_k + (1-q) ln R_k; ** keeps numpy's fast paths for q or 1 - q in
    {-1, 0.5, 2}.  Each block is weighed, compared, picked and turned into
    terms while it is in cache.  A weight of 1.0 reads the values as the
    masses, checked when their vector was built (a pmf, or a grid of unit
    cells); any other weight makes masses of density values, checked as
    induced_pmf's ProbabilityVector checks them, with the total taken as the
    sum of the block totals.
    """
    checked = weight != 1.0
    if q == 1.0:
        # KL's dot product takes its masses whole
        if checked:
            p, r = ProbabilityVector(p * weight).masses, ProbabilityVector(r * weight).masses
        return _kl(p, r)
    terms = np.empty(p.size)
    size, equal, dead = 0, True, False
    valid, totals = [True, True], [0.0, 0.0]
    for block in blocks(p.size):
        pb, rb = p[block], r[block]
        if checked:
            pb, rb = pb * weight, rb * weight
        lows = pb.min(), rb.min()
        if checked:
            for k, masses in enumerate((pb, rb)):
                total = float(np.sum(masses))
                # nonnegative entries with a finite sum are all finite
                valid[k] = valid[k] and lows[k] >= 0.0 and (
                    total < math.inf or masses.max() < math.inf)
                totals[k] += total
        equal = equal and np.array_equal(pb, rb)
        if dead or not all(valid):
            continue
        if lows[0] > 0.0:  # every cell live: read in place
            dead = lows[1] == 0.0
        else:
            live = pb > 0.0
            pb, rb = pb[live], rb[live]
            dead = bool(np.any(rb == 0.0))
        if dead:
            continue
        out = terms[size:size + pb.size]
        size += pb.size
        out[:] = q * np.log(pb) + (1.0 - q) * np.log(rb) if log else pb ** q * rb ** (1.0 - q)
    if checked:
        for ok, total in zip(valid, totals):
            if not ok:
                raise ValueError("masses: entries must be finite and nonnegative")
            _check_total(total)
    if equal:
        return 0.0
    return math.inf if dead else terms[:size]


def _shannon_sum(values: np.ndarray, weights: np.ndarray) -> float:
    """-sum_k v_k ln(v_k) w_k over the cells where v_k > 0 and w_k > 0."""
    live = _live_index((values > 0.0) & (weights > 0.0))
    v, w = values[live], weights[live]
    with np.errstate(over="ignore"):
        value = -np.dot(v * np.log(v), w)
    if value == -math.inf:  # v_k ln v_k overflowed (v_k above 2.5e305): sum over the masses
        value = -np.dot(v * w, np.log(v))
    # + 0.0 keeps a unit density from reporting -0.0
    return float(value) + 0.0


def shannon_entropy(p: DensityVector) -> float:
    """S(p) = -sum_k p_k ln(p_k) mu_k with 0 ln 0 = 0."""
    return _shannon_sum(p.values, p.partition.weights)


def _kl(p: np.ndarray, r: np.ndarray) -> float:
    """sum_k p_k ln(p_k/r_k) over the cells where p_k > 0, +inf where r_k = 0.

    A cell whose ratio p_k/r_k overflows to inf or underflows to 0 takes
    ln p_k - ln r_k instead, so a subnormal mass gives its finite term.
    """
    live = p > 0.0
    p, r = p[live], r[live]
    if np.any(r == 0.0):
        return math.inf
    with np.errstate(over="ignore", divide="ignore"):
        log_ratio = np.log(p / r)
    off = np.isinf(log_ratio)
    if np.any(off):
        log_ratio[off] = np.log(p[off]) - np.log(r[off])
    return float(np.dot(p, log_ratio))


def kl_divergence(
    P: ProbabilityVector,
    R: ProbabilityVector,
    partition: WeightedPartition | None = None,
) -> float:
    """I(P||R) = sum_k P_k ln(P_k/R_k) when P << R, +inf otherwise.

    The partition argument is only consulted to validate cell counts; the
    discrete divergence itself does not involve the reference weights.
    """
    return _kl(*_masses(P, R, partition))


def measure_entropy(P: ProbabilityVector, partition: WeightedPartition) -> float:
    """S(P) = -sum_k P_k ln(P_k/mu_k), the entropy of P relative to mu.

    Equals -kl_divergence(P, mu) and may be negative when mu is not a
    probability measure of matching shape.  Mass on a mu-null cell makes
    the value -inf; a warning names the offending cell.
    """
    p = P.masses
    if p.shape != (len(partition),):
        raise ValueError(
            f"partition: size {len(partition)} does not match vector of length {p.size}"
        )
    w = partition.weights
    null = (p > 0.0) & (w == 0.0)
    if np.any(null):
        k = int(np.argmax(null))
        warnings.warn(
            f"mass {p[k]} on mu-null cell {k}: measure entropy is -inf",
            RuntimeWarning,
            stacklevel=2,
        )
    # + 0.0 keeps a point mass on a unit cell from reporting -0.0
    return -_kl(p, w) + 0.0


def renyi_entropy(p: DensityVector, alpha: float) -> float:
    """S_alpha(p) = (1/(1-alpha)) ln sum_k p_k^alpha mu_k; Shannon in the band."""
    alpha = check_index(alpha)
    if alpha == 1.0:
        return shannon_entropy(p)
    v, w = p.values, p.partition.weights
    live = _live_index((v > 0.0) & (w > 0.0))
    log_sum = _logsumexp(alpha * np.log(v[live]), b=w[live])
    return float(log_sum / (1.0 - alpha)) + 0.0


def renyi_divergence(
    P: ProbabilityVector,
    R: ProbabilityVector,
    partition: WeightedPartition | None = None,
    alpha: float = 2.0,
) -> float:
    """I_alpha(P||R) = (1/(alpha-1)) ln sum_k P_k^alpha / R_k^(alpha-1).

    +inf whenever P puts mass where R does not, for every alpha; KL in the
    classical band.
    """
    alpha = check_index(alpha)
    return _renyi(*_masses(P, R, partition), 1.0, alpha)


def _renyi(p: np.ndarray, r: np.ndarray, weight: float, alpha: float) -> float:
    """renyi_divergence of the masses p weight and r weight (_live_terms)."""
    terms = _live_terms(p, r, weight, alpha, log=True)
    if not isinstance(terms, np.ndarray):
        return terms
    return float(_logsumexp(terms) / (alpha - 1.0)) + 0.0


def _power_sum(values: np.ndarray, weights: np.ndarray, q: float) -> float:
    """The q-mass sum_k v_k^q w_k over the cells where v_k > 0 and w_k > 0.
    Where the direct sum is not a normal float (a power v_k^q over- or
    underflows before w_k scales it), it is taken in log space."""
    live = _live_index((values > 0.0) & (weights > 0.0))
    v, w = values[live], weights[live]
    with np.errstate(over="ignore"):
        value = np.dot(v ** q, w)
        if not np.finfo(float).tiny <= value < math.inf:
            value = np.exp(_logsumexp(q * np.log(v), b=w))
    return float(value)


def tsallis_entropy(p: DensityVector, q: float) -> float:
    """S_q(p) = (1 - sum_k p_k^q mu_k)/(q - 1); Shannon in the band."""
    q = check_index(q)
    if q == 1.0:
        return shannon_entropy(p)
    return (1.0 - _power_sum(p.values, p.partition.weights, q)) / (q - 1.0) + 0.0


def tsallis_divergence(
    P: ProbabilityVector,
    R: ProbabilityVector,
    partition: WeightedPartition | None = None,
    q: float = 2.0,
) -> float:
    """I_q(P||R) = (sum_k P_k^q / R_k^(q-1) - 1)/(q - 1), +inf when not P << R."""
    q = check_index(q)
    return _tsallis(*_masses(P, R, partition), 1.0, q)


def _tsallis(p: np.ndarray, r: np.ndarray, weight: float, q: float) -> float:
    """tsallis_divergence of the masses p weight and r weight (_live_terms)."""
    with np.errstate(over="ignore", invalid="ignore"):
        terms = _live_terms(p, r, weight, q, log=False)
        if not isinstance(terms, np.ndarray):
            return terms
        power_sum = float(np.sum(terms))
        if not math.isfinite(power_sum):  # a power overflowed: sum in log space
            del terms
            power_sum = float(np.exp(_logsumexp(_live_terms(p, r, weight, q, log=True))))
    return (power_sum - 1.0) / (q - 1.0) + 0.0
