"""Deformed logarithm/exponential pair underlying the Renyi and Tsallis functionals.

The deformed logarithm is ln_q(x) = (x^(1-q) - 1)/(1 - q) and its inverse on
the surviving branch is e_q(x) = [1 + (1-q) x]_+^(1/(1-q)), with the positive
part sending out-of-domain arguments to 0 (the usual cutoff convention, which
keeps densities nonnegative).  Both reduce to ln/exp as q -> 1, but the raw
power formulas lose all precision there, so indices within CLASSICAL_BAND of
1 take the classical branch.  The index is a plain float throughout the
library; check_index refuses the values no formula accepts.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["CLASSICAL_BAND", "check_index", "is_classical", "q_log", "q_exp"]

# half-width of the band around 1 where every consumer uses the ln/exp formulas
CLASSICAL_BAND = 1e-9


def check_index(q):
    """The entropic index q (or alpha) as a float, or as an array for an
    array; it must be finite and positive."""
    arr = np.asarray(q, dtype=float)
    # a nan fails both comparisons
    if not (0.0 < arr.min() and arr.max() < math.inf):
        raise ValueError(f"q: must be a finite positive real, got {q!r}")
    return float(arr) if arr.ndim == 0 else arr


def is_classical(q):
    """Whether q lies in the classical band (elementwise for an array)."""
    return abs(q - 1.0) <= CLASSICAL_BAND


def _branches(q):
    """The band mask of the checked index, and 1 - q with 1 in the band, where
    the general formulas are evaluated and then discarded."""
    q = check_index(q)
    classical = is_classical(q)
    return classical, np.where(classical, 1.0, 1.0 - q)


def _result(out: np.ndarray):
    return float(out) if out.ndim == 0 else out


def q_log(x, q):
    """Deformed logarithm ln_q(x) = (x^(1-q) - 1)/(1 - q); natural log in the band.

    Accepts positive reals; x and q broadcast against each other, and two
    scalars give a float.  The general branch is evaluated as
    expm1((1-q) ln x)/(1-q), the stable form of the power expression.
    """
    classical, one_minus_q = _branches(q)
    vals = np.asarray(x, dtype=float)
    if vals.size == 0:
        raise ValueError("x: q_log requires at least one value")
    if not np.all(np.isfinite(vals) & (vals > 0.0)):
        raise ValueError("x: q_log is defined only for finite x > 0")
    log_x = np.log(vals)
    return _result(np.where(classical, log_x, np.expm1(one_minus_q * log_x) / one_minus_q))


def q_exp(x, q):
    """Deformed exponential e_q(x) = [1 + (1-q) x]_+^(1/(1-q)); exp in the band.

    Total on the reals: arguments past the cutoff 1 + (1-q) x <= 0 map to 0,
    which makes q_exp(q_log(x)) = x wherever q_log is defined.  x and q
    broadcast as in q_log.
    """
    classical, one_minus_q = _branches(q)
    vals = np.asarray(x, dtype=float)
    alive = classical | (1.0 + one_minus_q * vals > 0.0)
    # log1p past the cutoff is nan or -inf, and those entries are discarded
    with np.errstate(divide="ignore", invalid="ignore"):
        exponent = np.where(classical, vals, np.log1p(one_minus_q * vals) / one_minus_q)
    return _result(np.where(alive, np.exp(exponent), 0.0))
