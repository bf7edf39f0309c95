"""Entropy and relative-entropy functionals against an explicit reference measure.

Conventions, applied literally throughout: 0 ln 0 = 0, a/0 = +inf for a > 0,
0 * (+-inf) = 0.  Every sum skips cells with zero probability mass, and the
absolute-continuity check runs before any power is taken, so 0^negative is
never evaluated.  Divergences return math.inf on the divergent branch.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .measure import DensityVector, ProbabilityVector, WeightedPartition
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
    back to log sum b exp(a) as scipy's does.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        shifted = a if b is None else np.where(b == 0, -np.inf, a)
        a_max = np.max(shifted)
        top = shifted == a_max
        m = np.sum(top if b is None else b * top, dtype=float)
        terms = np.exp(np.where(top, -np.inf, shifted) - a_max)
        s = np.sum(terms if b is None else b * terms)
        out = np.log1p(s if s == 0 else s / m) + np.log(m) + a_max
        if not np.isfinite(out):
            out = np.log(np.sum(np.exp(a) if b is None else b * np.exp(a)))
    return out


def _paired_masses(
    P: ProbabilityVector,
    R: ProbabilityVector,
    partition: WeightedPartition | None,
) -> tuple[np.ndarray, np.ndarray]:
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


def _closed_form(P, R, partition, index: float) -> float | None:
    """A Renyi or Tsallis divergence that needs no power sum, else None: KL in
    the classical band, +inf unless P << R, and exactly 0 when P = R, where
    the sum would leave a rounding error of either sign."""
    p, r = _paired_masses(P, R, partition)
    if index == 1.0:
        return kl_divergence(P, R, partition)
    if np.any(r[p > 0.0] == 0.0):
        return math.inf
    if np.array_equal(p, r):
        return 0.0
    return None


def shannon_entropy(p: DensityVector) -> float:
    """S(p) = -sum_k p_k ln(p_k) mu_k with 0 ln 0 = 0."""
    live = (p.values > 0.0) & (p.partition.weights > 0.0)
    v, w = p.values[live], p.partition.weights[live]
    with np.errstate(over="ignore"):
        value = -np.dot(v * np.log(v), w)
    if value == -math.inf:  # p_k ln p_k overflowed (p_k above 2.5e305): sum over the masses
        value = -np.dot(v * w, np.log(v))
    # + 0.0 keeps a unit density from reporting -0.0
    return float(value) + 0.0


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
    return _kl(*_paired_masses(P, R, partition))


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
    v = p.values
    w = p.partition.weights
    live = (v > 0.0) & (w > 0.0)
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
    closed = _closed_form(P, R, partition, alpha)
    if closed is not None:
        return closed
    p, r = P.masses, R.masses
    live = p > 0.0
    log_sum = _logsumexp(alpha * np.log(p[live]) + (1.0 - alpha) * np.log(r[live]))
    return float(log_sum / (alpha - 1.0)) + 0.0


def _power_sum(p: DensityVector, q: float) -> float:
    """The q-mass sum_k p_k^q mu_k over the cells where p_k > 0 and mu_k > 0.
    Where a power p_k^q overflows, the sum is taken in log space."""
    v = p.values
    w = p.partition.weights
    live = (v > 0.0) & (w > 0.0)
    with np.errstate(over="ignore"):
        value = np.dot(v[live] ** q, w[live])
        if not math.isfinite(value):
            value = np.exp(_logsumexp(q * np.log(v[live]), b=w[live]))
    return float(value)


def tsallis_entropy(p: DensityVector, q: float) -> float:
    """S_q(p) = (1 - sum_k p_k^q mu_k)/(q - 1); Shannon in the band."""
    q = check_index(q)
    if q == 1.0:
        return shannon_entropy(p)
    return (1.0 - _power_sum(p, q)) / (q - 1.0) + 0.0


def tsallis_divergence(
    P: ProbabilityVector,
    R: ProbabilityVector,
    partition: WeightedPartition | None = None,
    q: float = 2.0,
) -> float:
    """I_q(P||R) = (sum_k P_k^q / R_k^(q-1) - 1)/(q - 1), +inf when not P << R."""
    q = check_index(q)
    closed = _closed_form(P, R, partition, q)
    if closed is not None:
        return closed
    p, r = P.masses, R.masses
    live = p > 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        power_sum = float(np.sum(p[live] ** q * r[live] ** (1.0 - q)))
        if not math.isfinite(power_sum):  # a power overflowed: sum in log space
            power_sum = float(np.exp(_logsumexp(q * np.log(p[live]) + (1.0 - q) * np.log(r[live]))))
    return (power_sum - 1.0) / (q - 1.0) + 0.0
