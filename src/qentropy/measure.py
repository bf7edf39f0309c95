"""Finite weighted-partition model of a measure space.

A WeightedPartition is its reference weights mu_k >= 0, and for a
partition of an interval [a, b] into cells, that interval.  Densities
(per-cell Radon-Nikodym values) and probability vectors (per-cell masses)
live against the weights; every measure here is a sum over them, so no
per-cell object is built.  mu-null cells are retained rather than dropped so
absolute-continuity violations stay detectable.  Partitions and the dyadic
grids share one cap, MAX_CELLS, checked before anything of that size is built.
An elementwise chain over an array of that size runs block by block (blocks).
A reduction over one output that the blocks filled keeps the bits of the
unblocked chain; one taken per block or per run moves them, as the dyadic
table's run sums do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = [
    "AbsoluteContinuityError",
    "WeightedPartition",
    "DensityVector",
    "ProbabilityVector",
    "uniform_partition",
    "induced_pmf",
    "radon_nikodym",
    "NORMALIZATION_TOL",
]

# tolerance on sum-to-one checks at construction time
NORMALIZATION_TOL = 1e-10
# the advice that ends a failed sum-to-one check
_RESCALE_ADVICE = "; pass renormalize=True to rescale"
# cap on every partition and grid: 2^24 cells, 128 MiB per float array
MAX_BASE_EXPONENT = 24
MAX_CELLS = 2**MAX_BASE_EXPONENT
# entries per block of an elementwise chain: 256 KiB of floats, so that each
# step of the chain reads what the step before it wrote while it is in L2
BLOCK = 2**15


class AbsoluteContinuityError(ValueError):
    """Probability mass sits on a cell the reference measure assigns zero weight."""


def check_capped(value, field: str, minimum: int = 1, cap: int = MAX_BASE_EXPONENT) -> int:
    """An integer in minimum..cap, checked before anything of that size is built."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (integer and minimum <= value <= cap):
        raise ValueError(
            f"{field}: need an integer in {minimum}..{cap} "
            f"(partitions and grids hold at most 2^{MAX_BASE_EXPONENT} cells), got {value!r}"
        )
    return int(value)


def check_interval(interval) -> tuple[float, float]:
    """The pair (a, b) as floats, both finite with a < b and a finite width."""
    try:
        a, b = float(interval[0]), float(interval[1])
    except (TypeError, IndexError, OverflowError):
        raise ValueError(f"interval: need [a, b] with finite a < b, got {interval!r}") from None
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise ValueError(f"interval: need finite a < b, got ({a}, {b})")
    if not math.isfinite(b - a):
        raise ValueError(f"interval: the width b - a of ({a}, {b}) overflows; need a finite width")
    return a, b


def blocks(n: int) -> Iterator[slice]:
    """Consecutive slices of at most BLOCK entries that cover range(n); one
    slice when n <= BLOCK (an empty one when n = 0), so a short array takes
    the same loop once.  Each step of an elementwise chain gives the same bits
    on a slice as on the whole array, so a caller that fills its output block
    by block and then reduces the whole output (np.sum, max, @, bincount, all
    in one pass and one order) returns what the unblocked chain returns."""
    return (slice(start, min(start + BLOCK, n)) for start in range(0, max(n, 1), BLOCK))


def _check_carries_density(a: float, b: float, cells: int) -> None:
    """Refuse an interval (a, b) from check_interval that cannot carry a
    density on `cells` equal cells: its uniform density 1/(b - a) overflows,
    or its cell width rounds to zero."""
    if not (math.isfinite(1.0 / (b - a)) and (b - a) / cells > 0.0):
        raise ValueError(f"interval: ({a}, {b}) cannot carry a density on {cells} cells")


def _check_vector(values: np.ndarray, what: str) -> None:
    if values.ndim != 1 or values.size == 0:
        raise ValueError(f"{what}: need a nonempty one-dimensional array")
    # two reductions, no temporary: a NaN fails both comparisons
    if not (values.min() >= 0.0 and values.max() < math.inf):
        raise ValueError(f"{what}: entries must be finite and nonnegative")


def _check_total(total: float) -> None:
    """Refuse masses whose total is not 1 within NORMALIZATION_TOL."""
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise ValueError(f"masses: must sum to 1 (got {total!r}){_RESCALE_ADVICE}")


def _check_length(values: np.ndarray, partition: "WeightedPartition", what: str = "values") -> None:
    if values.shape != (len(partition),):
        raise ValueError(
            f"{what}: length {values.size} does not match partition size {len(partition)}"
        )


def _renormalized(values: np.ndarray, total_of, what: str,
                  out: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """values / total, written into out if given, and 1 / total for the
    caller's own total_of(values); a zero or overflowing total is refused,
    after any bad entry."""
    with np.errstate(over="ignore"):
        total = float(total_of(values))
    if not 0.0 < total < math.inf:
        _check_vector(values, what)
        size = "zero" if total == 0.0 else "overflowing"
        raise ValueError(f"{what}: cannot renormalize {size} total mass")
    return np.divide(values, total, out=out), 1.0 / total


@dataclass(frozen=True, eq=False)
class WeightedPartition:
    """Finite measurable partition with reference-measure weights mu_k >= 0.

    interval is (a, b) when the cells cut [a, b] in order, as the Lebesgue
    partitions and the dyadic base grids do; None otherwise.
    """

    weights: np.ndarray
    interval: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", weights)
        # a zero-stride view, as a base grid's, holds one weight: check that one
        distinct = weights[:1] if weights.strides == (0,) else weights
        _check_vector(distinct, "weights")
        if not distinct.max() > 0.0:
            raise ValueError("weights: at least one cell must carry positive weight")
        if self.interval is not None:
            object.__setattr__(self, "interval", check_interval(self.interval))

    def __len__(self) -> int:
        return self.weights.size


def uniform_partition(
    n: int, mode: str = "counting", interval: tuple[float, float] | None = None
) -> WeightedPartition:
    """n equal cells under one of the three standard reference measures.

    mode "counting" gives mu_k = 1; "uniform_probability" gives mu_k = 1/n;
    "lebesgue" gives mu_k = (b - a)/n over interval=(a, b), which the
    partition records.  n is at most MAX_CELLS.
    """
    n = check_capped(n, "n", cap=MAX_CELLS)
    if mode == "counting":
        return WeightedPartition(np.ones(n))
    if mode == "uniform_probability":
        return WeightedPartition(np.full(n, 1.0 / n))
    if mode == "lebesgue":
        if interval is None:
            raise ValueError("interval: mode 'lebesgue' requires interval=(a, b)")
        a, b = check_interval(interval)
        _check_carries_density(a, b, n)
        return WeightedPartition(np.full(n, (b - a) / n), (a, b))
    raise ValueError(f"mode: unknown partition mode {mode!r}")


@dataclass(frozen=True, eq=False)
class DensityVector:
    """Per-cell density values p_k >= 0 with sum p_k mu_k = 1.

    renormalization records the factor applied to the caller's raw values
    when the vector was built with renormalize=True (1.0 otherwise).
    """

    values: np.ndarray
    partition: WeightedPartition
    renormalization: float = 1.0

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        _check_vector(values, "values")
        _check_length(values, self.partition)
        # @, not np.dot: np.dot copies a zero-stride weights view first
        total = float(values @ self.partition.weights)
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(
                f"values: must integrate to 1 against the partition "
                f"(got {total!r}){_RESCALE_ADVICE}"
            )

    @classmethod
    def from_values(
        cls,
        values,
        partition: WeightedPartition,
        renormalize: bool = False,
    ) -> "DensityVector":
        values = np.asarray(values, dtype=float)
        if not renormalize:
            return cls(values, partition)
        _check_vector(values, "values")
        # before the total, which would fail inside matmul
        _check_length(values, partition)
        values, factor = _renormalized(values, lambda v: v @ partition.weights, "values")
        return cls(values, partition, renormalization=factor)


@dataclass(frozen=True, eq=False)
class ProbabilityVector:
    """Per-cell probability masses P_k >= 0 summing to 1."""

    masses: np.ndarray
    renormalization: float = 1.0

    def __post_init__(self) -> None:
        masses = np.asarray(self.masses, dtype=float)
        object.__setattr__(self, "masses", masses)
        _check_vector(masses, "masses")
        _check_total(float(np.sum(masses)))

    def __len__(self) -> int:
        return int(self.masses.size)

    @classmethod
    def from_values(cls, masses, renormalize: bool = False) -> "ProbabilityVector":
        masses = np.asarray(masses, dtype=float)
        if not renormalize:
            return cls(masses)
        _check_vector(masses, "masses")
        masses, factor = _renormalized(masses, np.sum, "masses")
        return cls(masses, renormalization=factor)


def induced_pmf(p: DensityVector) -> ProbabilityVector:
    """Probability masses of the measure induced by the density: P_k = p_k mu_k."""
    return ProbabilityVector(p.values * p.partition.weights)


def radon_nikodym(P: ProbabilityVector, partition: WeightedPartition) -> DensityVector:
    """Per-cell derivative p_k = P_k / mu_k, zero on mu-null cells.

    Requires P to be absolutely continuous with respect to the partition
    weights; mass on a null cell raises AbsoluteContinuityError.
    """
    masses = P.masses
    _check_length(masses, partition, "masses")
    w = partition.weights
    offending = (masses > 0.0) & (w == 0.0)
    if np.any(offending):
        k = int(np.argmax(offending))
        raise AbsoluteContinuityError(
            f"masses: cell {k} carries mass {masses[k]} but zero reference weight"
        )
    support = w > 0.0
    with np.errstate(over="ignore"):
        on_support = masses[support] / w[support]
    return _ratio_density(on_support, support, partition)


def _live_index(mask: np.ndarray):
    """mask as an index: a full slice where it holds on every cell, so that the
    arrays it picks from are read in place, else the mask itself."""
    return slice(None) if mask.all() else mask


def _carried(on_support: np.ndarray, support: np.ndarray,
             partition: WeightedPartition) -> np.ndarray:
    """on_support, density values P_k / mu_k where support holds, refused under
    partition.weights where one overflowed: the cell's mu_k is too light to
    carry its mass as a float density."""
    overflowed = on_support == math.inf
    if np.any(overflowed):
        k = int(np.flatnonzero(support)[np.argmax(overflowed)])
        raise ValueError(
            f"partition.weights: P_k/mu_k overflows on cell {k}, whose weight "
            f"{float(partition.weights[k])!r} is too light to carry its mass; rescale the weights"
        )
    return on_support


def _ratio_density(on_support: np.ndarray, support: np.ndarray,
                   partition: WeightedPartition) -> DensityVector:
    """The density that is _carried(on_support) where support holds and 0 elsewhere."""
    values = np.zeros(len(partition))
    values[_live_index(support)] = _carried(on_support, support, partition)
    return DensityVector(values, partition)
