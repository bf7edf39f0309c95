"""Dyadic mean-value approximation of densities and the convergence harness.

A density is represented at a fixed base resolution (a DensityVector on 2^B
equal Lebesgue cells of an interval, whose one weight BaseGridDensity stores
as a zero-stride view) so that every level set of the dyadic construction is
an exact union of base cells and every integral below is a finite sum; no
quadrature enters the convergence claim.

The approximation at level n groups base cells by which dyadic bin
[k/2^n, (k+1)/2^n), k = 0..n*2^n - 1, their density value falls in, with one
overflow cell for values >= n.  The simple function f_n takes the mu-mean of
the density on each nonempty group; the masses of those groups form the
approximating pmf, whose discrete Renyi/Tsallis divergences converge to the
measure-theoretic value as n grows.

The levels form a refining chain: a level-n bin is a union of level-L bins,
floor(v 2^n) = floor(v 2^L) >> (L-n).  So one pass, _levels, bins a pair of
densities once at the finest level L, groups base cells into a table of
finest code pairs, and reads every level's level sets and common refinement
off that table.  A grid sampled in cell order repeats its pair along runs of
neighbouring cells, so _group, the one routine that builds the table and
every level's groupings, sorts only each run's first code.  convergence_table
maps the divergence over the pass; dyadic_approximation and common_refinement
are its one-level case.

No entropy or divergence is summed here: the tables take entropy's
divergences, and entropy_nonextension_demo takes shannon_entropy on a
Lebesgue partition and measure_entropy on counting partitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .entropy import measure_entropy, renyi_divergence, shannon_entropy, tsallis_divergence
from .measure import (
    MAX_BASE_EXPONENT,
    MAX_CELLS,
    DensityVector,
    ProbabilityVector,
    WeightedPartition,
    _check_carries_density,
    _renormalized,
    check_capped,
    check_interval,
    induced_pmf,
    uniform_partition,
)
from .qcalc import check_index

__all__ = [
    "ResolutionError",
    "BaseGridDensity",
    "DyadicApproximation",
    "CommonRefinement",
    "ConvergenceRow",
    "DemoRow",
    "DemoReport",
    "dyadic_approximation",
    "common_refinement",
    "reference_divergence",
    "convergence_table",
    "table_to_csv",
    "entropy_nonextension_demo",
    "demo_to_csv",
]

CSV_HEADER = "level,discrete_divergence,reference_divergence,abs_error"

# base-resolution defaults: acceptance runs use 20, property tests 16
DEFAULT_BASE_EXPONENT = 16


class ResolutionError(ValueError):
    """Requested dyadic level is finer than the base grid can resolve."""


class BaseGridDensity:
    """Constructors of a simple-function density on 2^B equal cells of [a, b],
    B <= MAX_BASE_EXPONENT: a DensityVector on the weights (b - a)/2^B that
    records interval=(a, b) and the factor applied to the raw inputs."""

    @classmethod
    def from_function(
        cls,
        fn: Callable[[np.ndarray], np.ndarray],
        interval: tuple[float, float],
        base_exponent: int = DEFAULT_BASE_EXPONENT,
    ) -> DensityVector:
        """Evaluate fn at base-cell midpoints and renormalize to unit mass."""
        n = 2 ** check_capped(base_exponent, "base_exponent")
        a, b = check_interval(interval)
        x = a + (b - a) * (np.arange(n) + 0.5) / n
        raw = np.broadcast_to(np.asarray(fn(x), dtype=float), x.shape).astype(float)
        return _grid(raw, (a, b), True)

    @classmethod
    def from_values(cls, values, interval, renormalize: bool = False) -> DensityVector:
        return _grid(np.asarray(values, dtype=float), interval, renormalize)


def _grid(values: np.ndarray, interval, renormalize: bool) -> DensityVector:
    # body of both constructors, so that a wrapper timing them counts one build per grid
    a, b = check_interval(interval)
    n = values.size
    if values.ndim != 1 or n == 0 or (n & (n - 1)) != 0 or n > MAX_CELLS:
        raise ValueError(
            f"values: need a power-of-two number of base cells up to "
            f"2^{MAX_BASE_EXPONENT}, got {values.shape}"
        )
    _check_carries_density(a, b, n)
    delta = (b - a) / n
    partition = WeightedPartition(np.broadcast_to(delta, (n,)), (a, b))
    if not renormalize:
        return DensityVector(values, partition)
    values, factor = _renormalized(values, lambda v: float(np.sum(v)) * delta, "values")
    return DensityVector(values, partition, factor)


def _grid_cells(p: DensityVector, field: str = "p") -> tuple[int, float]:
    """Cell count and weight of a base grid: (a, b) cut into 2^k cells that all
    weigh (b - a)/2^k."""
    partition, w, n = p.partition, p.partition.weights, p.values.size
    if partition.interval is not None and (n & (n - 1)) == 0:
        a, b = partition.interval
        # a zero-stride view holds one weight, so it is checked at one entry
        if (w.strides == (0,) or w.min() == w.max()) and w[0] == (b - a) / n:
            return n, float(w[0])
    raise ValueError(
        f"{field}: need a density on an interval cut into 2^k cells of equal weight "
        f"(build it with BaseGridDensity)"
    )


def check_levels(levels: Sequence[int], base_cells: int) -> list[int]:
    """The distinct levels in ascending order, each resolvable on the grid."""
    if len(levels) == 0:
        raise ValueError("levels: need at least one level")
    for level in levels:
        if check_capped(level, "levels", cap=MAX_CELLS) > base_cells.bit_length() - 1:
            raise ResolutionError(
                f"levels: 2^{level} dyadic bins exceed the {base_cells}-cell base grid; "
                f"rebuild the density with a larger base exponent"
            )
    return sorted({int(level) for level in levels})


def _bin_codes(values: np.ndarray, level: int) -> np.ndarray:
    """Level-n bin k = floor(v 2^n) of each value; n 2^n (overflow) for v >= n.
    Exact: multiplying by 2^n only shifts the float exponent."""
    return np.floor(np.minimum(values, level) * float(2**level)).astype(np.int64)


def _group(codes: np.ndarray, *weights: np.ndarray):
    """Merge rows that share a code: returns the distinct codes in ascending
    order, each row's group label, the rows per group, and per group the total
    of each weight.  Codes tend to repeat along runs of neighbouring rows, so
    only each run's first code is sorted, the run's label is spread back over
    its rows, and the row counts are sums of run lengths, exact integers.  The
    weights are summed row by row over the labels, in row order."""
    starts = np.flatnonzero(np.concatenate(([True], codes[1:] != codes[:-1])))
    lengths = np.diff(starts, append=codes.size)
    ids, run_labels = np.unique(codes[starts], return_inverse=True)
    labels = np.repeat(run_labels, lengths)
    counts = np.bincount(run_labels, weights=lengths)
    return (ids, labels, counts, *(np.bincount(labels, weights=w) for w in weights))


@dataclass(frozen=True, eq=False)
class DyadicApproximation:
    """Level-n simple function: nonempty dyadic level sets of the density.

    bin_ids holds the retained dyadic indices k in ascending order (empty bins
    are dropped; the id level*2^level marks the overflow cell for values >=
    level).  labels[j] is the cell of base cell j; mean_values[i] is the
    mu-mean of the density on cell i and masses[i] its integral, so the
    simple function is mean_values[labels].
    """

    grid: DensityVector
    level: int
    bin_ids: np.ndarray
    labels: np.ndarray
    mean_values: np.ndarray
    masses: np.ndarray
    mu_masses: np.ndarray

    @property
    def cell_count(self) -> int:
        return int(self.bin_ids.size)

    @property
    def overflow_id(self) -> int:
        return self.level * 2**self.level

    @property
    def has_overflow(self) -> bool:
        return bool(self.bin_ids.size and self.bin_ids[-1] == self.overflow_id)

    def simple_function(self) -> np.ndarray:
        """The approximation as per-base-cell values (for sup-norm checks)."""
        return self.mean_values[self.labels]


@dataclass(frozen=True, eq=False)
class CommonRefinement:
    """Nonempty pairwise intersections of two approximations' level sets.

    labels[j] is the refinement cell of base cell j.  Both simple functions
    are constant per refinement cell: f_means[i] and g_means[i] carry those
    values, mu_masses[i] the reference mass.
    """

    labels: np.ndarray
    mu_masses: np.ndarray
    f_means: np.ndarray
    g_means: np.ndarray

    @property
    def cell_count(self) -> int:
        return int(self.mu_masses.size)

    @property
    def f_masses(self) -> np.ndarray:
        return self.f_means * self.mu_masses

    @property
    def g_masses(self) -> np.ndarray:
        return self.g_means * self.mu_masses


def _levels(p: DensityVector, r: DensityVector, levels: Sequence[int],
            labels: bool = False) -> Iterator[tuple]:
    """(f, g, cells) per level, ascending: the DyadicApproximation of p and of
    r and their CommonRefinement.  The checks and the binning run at the call;
    _group merges base cells sharing a pair of finest codes into one row of
    the pair table, and each level, built as it is iterated, groups those rows
    with _group too: p's level sets, r's, and their pairs.  The per-base-cell
    labels compose the table's per-cell labels, or are None unless asked
    for."""
    n, delta = _shared_grid(p, r)
    levels = check_levels(levels, n)
    finest = levels[-1]
    # finest codes are at most L 2^L with L <= MAX_BASE_EXPONENT, so the pair
    # key stays below (L 2^L + 1)^2 < 2^63
    width = finest * 2**finest + 1
    pair_codes = _bin_codes(p.values, finest) * width + _bin_codes(r.values, finest)
    keys, inverse, counts, p_sums, r_sums = _group(pair_codes, p.values, r.values)
    per_cell = (lambda rows, inverse=inverse: rows[inverse]) if labels else (lambda rows: None)
    del pair_codes, inverse
    codes = np.stack(np.divmod(keys, width))  # each row's finest codes of p and of r

    def level_sets(level: int) -> tuple:
        # level-n codes: floor(v 2^n) = floor(v 2^L) >> (L - n), capped at the overflow code
        coarse = np.minimum(codes >> (finest - level), level * 2**level)
        # counts as a weight: a level set's base cells, not its table rows
        f_ids, f_rows, _, f_counts, f_sums = _group(coarse[0], counts, p_sums)
        g_ids, g_rows, _, g_counts, g_sums = _group(coarse[1], counts, r_sums)
        ids, rows, _, mu = _group(f_rows * g_ids.size + g_rows, counts)
        f_cells, g_cells = np.divmod(ids, g_ids.size)
        f_means, g_means = f_sums / f_counts, g_sums / g_counts
        f = DyadicApproximation(p, level, f_ids, per_cell(f_rows), f_means, f_sums * delta, f_counts * delta)
        g = DyadicApproximation(r, level, g_ids, per_cell(g_rows), g_means, g_sums * delta, g_counts * delta)
        cells = CommonRefinement(per_cell(rows), mu * delta, f_means[f_cells], g_means[g_cells])
        return f, g, cells

    return map(level_sets, levels)


def dyadic_approximation(p: DensityVector, level: int) -> DyadicApproximation:
    """Group base cells by dyadic bin of their density value at the given level
    (the one-level pass on (p, p)).  Bins are [k/2^n, (k+1)/2^n) for
    k = 0..n*2^n - 1 plus the overflow set {density >= n}."""
    return next(_levels(p, p, [level], labels=True))[0]


def common_refinement(f: DyadicApproximation, g: DyadicApproximation) -> CommonRefinement:
    """Shared partition on which both simple functions are constant (the
    one-level pass on both approximations' grids)."""
    if f.level != g.level:
        raise ValueError(f"g: level {g.level} differs from f's level {f.level}; refine at one level")
    _shared_grid(f.grid, g.grid, "f", "g")
    return next(_levels(f.grid, g.grid, [f.level], labels=True))[2]


@dataclass(frozen=True)
class ConvergenceRow:
    level: int
    discrete_divergence: float
    reference_divergence: float
    abs_error: float


def _shared_grid(p: DensityVector, r: DensityVector, p_field="p", r_field="r"):
    """The cell count and weight of the base grid that both densities are on."""
    grid, other = _grid_cells(p, p_field), _grid_cells(r, r_field)
    a, b = p.partition.interval, r.partition.interval
    if a != b or grid[0] != other[0]:
        raise ValueError(
            f"{r_field}: densities live on different base grids "
            f"({a} x {grid[0]} vs {b} x {other[0]})"
        )
    return grid


def _divergence(kind: str):
    if kind == "renyi":
        return renyi_divergence
    if kind == "tsallis":
        return tsallis_divergence
    raise ValueError(f"kind: expected 'renyi' or 'tsallis', got {kind!r}")


def reference_divergence(
    p: DensityVector,
    r: DensityVector,
    index: float,
    kind: str,
) -> float:
    """Measure-theoretic divergence at full base resolution (exact sum).

    It is the discrete divergence of the induced pmfs p delta, because
    p^a r^(1-a) delta = (p delta)^a (r delta)^(1-a) on every base cell.
    """
    _shared_grid(p, r)
    return _divergence(kind)(induced_pmf(p), induced_pmf(r), None, index)


def convergence_table(
    p: DensityVector,
    r: DensityVector,
    index: float,
    kind: str,
    levels: Sequence[int],
) -> list[ConvergenceRow]:
    """Discrete divergence of the approximating pmfs per level vs the reference.

    The pmfs of a level are the f and g masses of the common refinement of
    the two densities' level sets.  Rows come in ascending level order.
    """
    index = check_index(index)
    divergence = _divergence(kind)
    discrete = []
    for f, _, cells in _levels(p, r, levels):
        P, R = ProbabilityVector(cells.f_masses), ProbabilityVector(cells.g_masses)
        discrete.append((f.level, divergence(P, R, None, index)))
    reference = reference_divergence(p, r, index, kind)
    # equal infinities are no error
    return [ConvergenceRow(n, d, reference, 0.0 if d == reference else abs(d - reference))
            for n, d in discrete]


def table_to_csv(rows: Sequence[ConvergenceRow]) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(
            f"{row.level},{row.discrete_divergence!r},"
            f"{row.reference_divergence!r},{row.abs_error!r}"
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class DemoRow:
    n: int
    discrete_entropy: float
    continuous_entropy: float


@dataclass(frozen=True)
class DemoReport:
    """Discrete entropies ln n diverging while the continuous entropy stays put."""

    rows: tuple[DemoRow, ...]
    continuous_entropy: float
    continuous_negative: bool


def entropy_nonextension_demo(
    n_list: Sequence[int],
    interval: tuple[float, float] = (0.0, 1.0),
    continuous_exponent: int = 16,
) -> DemoReport:
    """Uniform density on [a, b]: S_n(P) = ln n grows without bound, yet the
    measure-theoretic entropy is the constant ln(b - a), negative when
    b - a < 1.  Discrete entropy is not the n -> inf limit of anything here.

    The continuous value is shannon_entropy of the uniform density on
    2^continuous_exponent Lebesgue cells of [a, b]; each discrete one is
    measure_entropy of the uniform pmf on n counting cells.
    """
    a, b = check_interval(interval)
    if len(n_list) == 0:
        raise ValueError("n_list: need at least one cell count")
    sizes = [check_capped(n, "n_list entries", cap=MAX_CELLS) for n in n_list]
    cells = 2 ** check_capped(continuous_exponent, "continuous_exponent", minimum=0)
    lebesgue = uniform_partition(cells, "lebesgue", (a, b))
    density = DensityVector.from_values(np.full(cells, 1.0 / (b - a)), lebesgue, renormalize=True)
    continuous = shannon_entropy(density)
    rows = tuple(
        DemoRow(n, measure_entropy(ProbabilityVector(np.full(n, 1.0 / n)), uniform_partition(n)),
                continuous)
        for n in sizes
    )
    return DemoReport(rows, continuous, continuous < 0.0)


def demo_to_csv(report: DemoReport) -> str:
    lines = ["n,discrete_entropy,continuous_entropy"]
    for row in report.rows:
        lines.append(f"{row.n},{row.discrete_entropy!r},{row.continuous_entropy!r}")
    return "\n".join(lines) + "\n"
