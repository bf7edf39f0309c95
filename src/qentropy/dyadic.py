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

The levels form a refining chain: a level-n bin is a union of level-m
bins for every m > n, floor(v 2^n) = floor(v 2^m) >> (m-n).  So one pass,
_levels, bins a pair of densities once at the finest level L and groups
base cells into a table of finest code pairs (_pair_table).  A grid sampled
in cell order repeats its pair along runs of neighbouring cells, so that
pass keeps one entry per run and sorts only each run's first key.  Each
coarser level's pair table is then merged from the next finer level's
(_coarsened), finest first, so the work is the sum of the table sizes, and
only one level's table is kept.  A level's table is its common refinement,
whose rows group into p's and r's level sets (_level_sets); one routine,
_group, merges the rows that share a key at each of these steps.
convergence_table maps the divergence over the pass; dyadic_approximation
and common_refinement are its one-level case.

No entropy or divergence is summed here: the tables take entropy's
divergences, and entropy_nonextension_demo takes shannon_entropy on a
Lebesgue partition and measure_entropy on counting partitions.

Each pass over all 2^B base cells runs block by block (measure.blocks), so
each step reads the block the step before it wrote while it is in cache:
the cell midpoints, a density expression, the finest codes, their pair key
and its runs, and the reference divergence's masses and terms.  No array of
2^B entries is built but the grids (a function's grid is renormalized into
its midpoint array), a density function's result, the reference's one array
of terms, and the per-cell labels when dyadic_approximation or
common_refinement return them.  The grid's total and the reference's sum
stay whole-array.  The finest table's sums over base cells are run sums
(np.add.reduceat, pairwise within a run) added up per row in run order, and
a coarser table's are its finer table's added up in that table's row order,
so a table's divergences differ in their last bits from a row-order sum
over the cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .entropy import (
    _renyi,
    _tsallis,
    measure_entropy,
    renyi_divergence,
    shannon_entropy,
    tsallis_divergence,
)
from .measure import (
    MAX_BASE_EXPONENT,
    MAX_CELLS,
    DensityVector,
    ProbabilityVector,
    WeightedPartition,
    _check_carries_density,
    _renormalized,
    blocks,
    check_capped,
    check_interval,
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
        """Evaluate fn at base-cell midpoints and renormalize to unit mass.

        The midpoint array passed to fn becomes the grid's values, so fn must
        not keep it; an array fn returns is only read."""
        n = 2 ** check_capped(base_exponent, "base_exponent")
        a, b = check_interval(interval)
        x = np.empty(n)
        for block in blocks(n):
            # a + (b - a)(k + 0.5)/n, each step in place: the float arange is exact
            midpoints = x[block]
            midpoints[:] = np.arange(block.start + 0.5, block.stop)
            midpoints *= b - a
            midpoints /= n
            midpoints += a
        # no copy of a fresh contiguous result; _grid divides it into the midpoints
        # (numpy handles a result that overlaps them)
        raw = np.ascontiguousarray(np.broadcast_to(np.asarray(fn(x), dtype=float), x.shape))
        return _grid(raw, (a, b), True, out=x)

    @classmethod
    def from_values(cls, values, interval, renormalize: bool = False) -> DensityVector:
        return _grid(np.asarray(values, dtype=float), interval, renormalize)


def _grid(values: np.ndarray, interval, renormalize: bool, out: np.ndarray | None = None) -> DensityVector:
    # body of both constructors, so that a wrapper timing them counts one build per
    # grid; a renormalized grid is written into out, a new array if None
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
    values, factor = _renormalized(values, lambda v: float(np.sum(v)) * delta, "values", out)
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
        if check_capped(level, "levels") > base_cells.bit_length() - 1:
            raise ResolutionError(
                f"levels: 2^{level} dyadic bins exceed the {base_cells}-cell base grid; "
                f"rebuild the density with a larger base exponent"
            )
    return sorted({int(level) for level in levels})


def _bin_codes(values: np.ndarray, level: int) -> np.ndarray:
    """Level-n bin k = floor(v 2^n) of each value; n 2^n (overflow) for v >= n.
    Exact: multiplying by 2^n only shifts the float exponent, and for v >= 0
    the int32 truncation is the floor.  The codes fit int32: n 2^n < 2^29 at
    n <= MAX_BASE_EXPONENT."""
    scaled = np.minimum(values, level)
    scaled *= float(2**level)
    return scaled.astype(np.int32)


def _pair_table(p: np.ndarray, r: np.ndarray, level: int) -> tuple:
    """The table of the pairs of level-n codes of p and of r over the cells.

    One pass, block by block, bins both arrays.  A grid sampled in cell order
    repeats its pair of codes along runs of neighbouring cells, so the pass
    keeps only each run's first cell and the key c_p w + c_r of its pair,
    w = n 2^n + 1, so that divmod(key, w) gives the codes back; codes are at
    most n 2^n < 2^29 (int32) and keys below w^2 < 2^63 (int64) at
    n <= MAX_BASE_EXPONENT.  Each block's first pair is compared with the
    last pair of the block before.  Returns the distinct keys in ascending
    order and w, each run's table row and length, and per row its cells and
    the sums of p and of r over them: the run sums (np.add.reduceat,
    pairwise within a run) added up in run order.  No per-cell key or label
    is kept; np.repeat(run_rows, lengths) composes the labels."""
    width = level * 2**level + 1
    starts, run_keys, last = [], [], None
    for block in blocks(p.size):
        p_codes, r_codes = _bin_codes(p[block], level), _bin_codes(r[block], level)
        new = np.empty(p_codes.size, dtype=bool)
        new[0] = last != (p_codes[0], r_codes[0])
        np.not_equal(p_codes[1:], p_codes[:-1], out=new[1:])
        new[1:] |= r_codes[1:] != r_codes[:-1]
        first = np.flatnonzero(new)
        starts.append(first + block.start)
        run_keys.append(np.multiply(p_codes[first], width, dtype=np.int64) + r_codes[first])
        last = p_codes[-1], r_codes[-1]
    starts, run_keys = np.concatenate(starts), np.concatenate(run_keys)
    # each weight is formed after the sort, one at a time: the run lengths
    # (kept for the labels), then the run sums
    weights = ((lengths := np.diff(starts, append=p.size)) if v is None
               else np.add.reduceat(v, starts) for v in (None, p, r))
    keys, run_rows, *sums = _group(run_keys, weights)
    return keys, width, run_rows, lengths, *sums


def _group(keys: np.ndarray, weights: Iterable[np.ndarray]) -> tuple:
    """The distinct keys in ascending order, each entry's row among them, and
    each weight's row sums (np.bincount), the weights read in turn after the sort."""
    ids, rows = np.unique(keys, return_inverse=True)
    return ids, rows, *(np.bincount(rows, weights=w) for w in weights)


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
    """(f, g, cells) per level, finest first: the DyadicApproximation of p and
    of r and their CommonRefinement.  The checks and the binning run at the
    call: _pair_table merges base cells sharing a pair of finest codes into
    one row of the finest pair table.  Each coarser level, built as it is
    iterated, merges the rows of the next finer level's table into its own
    (_coarsened), which replaces it, and reads its level sets and common
    refinement off its rows (_level_sets).  The per-base-cell labels spread
    each run's row over the run's cells, or are None unless asked for."""
    n, delta = _shared_grid(p, r)
    levels = check_levels(levels, n)[::-1]
    keys, width, run_rows, lengths, *sums = _pair_table(p.values, r.values, levels[0])
    runs = (run_rows, lengths) if labels else None
    return _chain(p, r, delta, levels, (keys, width, *sums), runs)


def _chain(p, r, delta, levels, table, runs) -> Iterator[tuple]:
    # the body of _levels' iteration: only the current level's table is kept
    finer = levels[0]
    for level in levels:
        if level < finer:
            table, runs = _coarsened(table, finer, level, runs)
            finer = level
        yield _level_sets(p, r, level, delta, table, runs)


def _coarsened(table: tuple, finer: int, level: int, runs) -> tuple:
    """The level-n pair table from the table of a finer level m: each row's
    codes become min(c >> (m - n), n 2^n), as floor(v 2^n) = floor(v 2^m) >>
    (m - n) and every value at or past the overflow threshold n is coded at
    or past n 2^n at level m.  Rows that come to share a pair are merged in
    key order, their cells and sums added up in the finer table's row order.
    runs, when labels are kept, gets each run's row in the new table."""
    keys, width, *sums = table
    codes = np.stack(np.divmod(keys, width))
    np.right_shift(codes, finer - level, out=codes)
    np.minimum(codes, level * 2**level, out=codes)
    width = level * 2**level + 1
    keys = codes[0] * width + codes[1]
    del codes
    keys, rows, *sums = _group(keys, sums)
    if runs is not None:
        runs = rows[runs[0]], runs[1]
    return (keys, width, *sums), runs


def _level_sets(p, r, level: int, delta: float, table: tuple, runs) -> tuple:
    """(f, g, cells) of one level off its pair table, whose rows are the
    cells of the common refinement.  _group gathers the rows by p's code into
    p's level sets and by r's code into r's.  A level set's cells and sums are
    those of its rows added up in row order."""
    keys, width, counts, p_sums, r_sums = table
    # counts as a weight: a level set's base cells, not its table rows
    f_ids, f_rows, f_counts, f_sums = _group(keys // width, (counts, p_sums))
    g_ids, g_rows, g_counts, g_sums = _group(keys % width, (counts, r_sums))
    f_means, g_means = f_sums / f_counts, g_sums / g_counts
    f_labels = g_labels = labels = None
    if runs is not None:
        run_rows, lengths = runs
        f_labels, g_labels, labels = (np.repeat(rows, lengths)
                                      for rows in (f_rows[run_rows], g_rows[run_rows], run_rows))
    f = DyadicApproximation(p, level, f_ids, f_labels, f_means, f_sums * delta, f_counts * delta)
    g = DyadicApproximation(r, level, g_ids, g_labels, g_means, g_sums * delta, g_counts * delta)
    return f, g, CommonRefinement(labels, counts * delta, f_means[f_rows], g_means[g_rows])


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
    """The kind's divergence of pmfs, and its kernel on values times a cell weight."""
    if kind == "renyi":
        return renyi_divergence, _renyi
    if kind == "tsallis":
        return tsallis_divergence, _tsallis
    raise ValueError(f"kind: expected 'renyi' or 'tsallis', got {kind!r}")


def reference_divergence(
    p: DensityVector,
    r: DensityVector,
    index: float,
    kind: str,
) -> float:
    """Measure-theoretic divergence at full base resolution (exact sum).

    It is the discrete divergence of the induced pmfs p delta, because
    p^a r^(1-a) delta = (p delta)^a (r delta)^(1-a) on every base cell.  The
    kernel forms and checks those masses block by block, so neither pmf is
    built.
    """
    _, delta = _shared_grid(p, r)
    _, kernel = _divergence(kind)
    return kernel(p.values, r.values, delta, check_index(index))


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
    divergence, _ = _divergence(kind)

    def discrete(level_sets: tuple) -> tuple[int, float]:
        f, _, cells = level_sets
        P, R = ProbabilityVector(cells.f_masses), ProbabilityVector(cells.g_masses)
        return f.level, divergence(P, R, None, index)

    # map holds no level's objects while the pass builds the next one
    rows = list(map(discrete, _levels(p, r, levels)))[::-1]
    reference = reference_divergence(p, r, index, kind)
    # equal infinities are no error
    return [ConvergenceRow(n, d, reference, 0.0 if d == reference else abs(d - reference))
            for n, d in rows]


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
