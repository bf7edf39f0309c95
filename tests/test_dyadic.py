"""Dyadic level-set approximations, common refinements, convergence tables.

The linear density p(x) = 2x on [0, 1] with a 2^4 base grid is small enough
to check the whole construction by hand; those literals are exact dyadic
floats.  Continuous reference values regenerated by tests/_oracles.py.
"""

import dataclasses
import importlib.util
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qentropy.dyadic import CSV_HEADER, _bin_codes, _levels, _pair_table
from qentropy.measure import BLOCK

from qentropy import (
    BaseGridDensity,
    ConvergenceRow,
    DensityVector,
    ProbabilityVector,
    WeightedPartition,
    ResolutionError,
    common_refinement,
    convergence_table,
    demo_to_csv,
    dyadic_approximation,
    entropy_nonextension_demo,
    induced_pmf,
    measure_entropy,
    reference_divergence,
    renyi_divergence,
    run_suite,
    shannon_entropy,
    table_to_csv,
    tsallis_divergence,
    uniform_partition,
)

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def linear_grid(exponent=4):
    return BaseGridDensity.from_function(lambda x: 2.0 * x, (0.0, 1.0), base_exponent=exponent)


def flat_grid(exponent=4):
    return BaseGridDensity.from_values(np.ones(2**exponent), (0.0, 1.0))


def test_linear_density_level_one_by_hand():
    # 16 midpoint values (2i+1)/16; value bins at width 1/2, truncation at 1
    approx = dyadic_approximation(linear_grid(), 1)
    assert approx.overflow_id == 2
    assert approx.has_overflow
    assert np.array_equal(approx.bin_ids, [0, 1, 2])
    assert np.array_equal(approx.mean_values, [0.25, 0.75, 1.5])
    assert np.array_equal(approx.masses, [0.0625, 0.1875, 0.75])
    assert np.array_equal(approx.mu_masses, [0.25, 0.25, 0.5])
    assert np.array_equal(approx.labels, [0] * 4 + [1] * 4 + [2] * 8)
    assert np.array_equal(approx.simple_function(), [0.25] * 4 + [0.75] * 4 + [1.5] * 8)
    assert math.fsum(approx.masses) == 1.0


def test_flat_density_is_one_overflow_cell_at_level_one():
    # the value 1.0 sits exactly at the level-1 truncation threshold
    approx = dyadic_approximation(flat_grid(), 1)
    assert approx.cell_count == 1
    assert approx.has_overflow
    assert np.array_equal(approx.mean_values, [1.0])
    # at level 2 the same value lands in a regular bin
    approx2 = dyadic_approximation(flat_grid(), 2)
    assert approx2.cell_count == 1
    assert not approx2.has_overflow
    assert np.array_equal(approx2.bin_ids, [4])


def test_refinement_of_linear_against_flat():
    refinement = common_refinement(
        dyadic_approximation(linear_grid(), 1), dyadic_approximation(flat_grid(), 1)
    )
    assert refinement.cell_count == 3
    assert np.array_equal(refinement.f_means, [0.25, 0.75, 1.5])
    assert np.array_equal(refinement.g_means, [1.0, 1.0, 1.0])
    assert np.array_equal(refinement.mu_masses, [0.25, 0.25, 0.5])
    assert np.array_equal(refinement.f_masses, [0.0625, 0.1875, 0.75])
    assert np.array_equal(refinement.g_masses, [0.25, 0.25, 0.5])


def test_level_one_divergence_is_exact_arithmetic():
    # pmf pair (0.0625, 0.1875, 0.75) vs (0.25, 0.25, 0.5): the order-2
    # power sum is 1.28125 in exact arithmetic
    rows = convergence_table(linear_grid(), flat_grid(), 2.0, "renyi", [1])
    assert math.isclose(rows[0].discrete_divergence, math.log(1.28125), rel_tol=0, abs_tol=1e-14)


def test_simple_function_sup_norm_bound():
    grid = BaseGridDensity.from_function(
        lambda x: 1.0 + 0.3 * np.sin(2.0 * math.pi * x), (0.0, 1.0), base_exponent=10
    )
    for level in (1, 2, 4, 6):
        approx = dyadic_approximation(grid, level)
        f_n = approx.simple_function()
        below = grid.values < level
        assert np.all(np.abs(f_n[below] - grid.values[below]) <= 2.0 ** (-level))
        assert math.isclose(float(np.sum(approx.masses)), 1.0, rel_tol=0, abs_tol=1e-12)


def test_levels_validation():
    with pytest.raises(ResolutionError):
        dyadic_approximation(linear_grid(4), 5)  # 32 bins > 16 cells
    dyadic_approximation(linear_grid(4), 4)  # boundary case is fine
    # a level is checked against the base exponent's cap, not the cell cap
    for level in (0, 25):
        with pytest.raises(ValueError, match=r"levels: need an integer in 1\.\.24 "):
            dyadic_approximation(linear_grid(4), level)
    with pytest.raises(ValueError):
        convergence_table(linear_grid(), flat_grid(), 2.0, "renyi", [])
    with pytest.raises(ValueError):
        convergence_table(linear_grid(), flat_grid(), 2.0, "hellinger", [2])
    with pytest.raises(ValueError):
        convergence_table(linear_grid(4), flat_grid(5), 2.0, "renyi", [2])


def test_grid_validation():
    with pytest.raises(ValueError):
        BaseGridDensity.from_values(np.full(12, 1.0 / 12), (0.0, 1.0))  # not a power of two
    with pytest.raises(ValueError):
        BaseGridDensity.from_values(np.array([2.0, 1.0]), (0.0, 1.0))  # mass 1.5
    with pytest.raises(ValueError):
        BaseGridDensity.from_values(np.array([2.0, -0.0001]), (0.0, 1.0), renormalize=True)
    with pytest.raises(ValueError, match="cannot renormalize zero total mass"):
        BaseGridDensity.from_function(lambda x: 0.0 * x, (0.0, 1.0), base_exponent=3)
    with pytest.raises(ValueError, match="overflowing total mass"):
        BaseGridDensity.from_values(np.array([1e308, 1e308]), (0.0, 1.0), renormalize=True)
    grid = BaseGridDensity.from_values(np.array([3.0, 1.0]), (0.0, 1.0), renormalize=True)
    assert np.array_equal(grid.values, [1.5, 0.5])
    assert grid.renormalization == 0.5


def test_a_grid_is_a_density_on_an_equal_weight_lebesgue_partition():
    grid = BaseGridDensity.from_values(np.array([1.0, 2.0, 3.0, 2.0]), (1.0, 3.0), renormalize=True)
    assert isinstance(grid, DensityVector)
    assert grid.partition.interval == (1.0, 3.0)
    assert grid.partition.weights.tolist() == [0.5] * 4
    assert grid.partition.weights.strides == (0,)  # one weight, not one per cell
    assert np.array_equal(grid.values, [0.25, 0.5, 0.75, 0.5])
    assert np.array_equal(induced_pmf(grid).masses, [0.125, 0.25, 0.375, 0.25])
    assert vars(BaseGridDensity).keys() >= {"from_function", "from_values"}
    assert not dataclasses.is_dataclass(BaseGridDensity)


def test_grid_build_holds_no_weights_array():
    # a 2^20-entry weights array would take 8 MiB
    values = np.ones(2**20)
    tracemalloc.start()
    try:
        grid = BaseGridDensity.from_values(values, (0.0, 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(grid.partition) == 2**20
    assert peak < 4 * 2**20


@pytest.mark.parametrize("kind", ["x", "reversed", "scalar", "int", "held"])
@pytest.mark.parametrize("exponent", [3, 16])
def test_a_function_grid_is_renormalized_into_its_midpoints(kind, exponent):
    # each kind of result gets the bits of raw / (sum(raw) delta) over the
    # whole array, written into the midpoint array that fn was given; an
    # array that the caller holds is only read
    n, (a, b) = 2**exponent, (0.3, 2.3)
    held = np.linspace(0.5, 2.0, n)
    before = held.copy()
    results = {"x": lambda x: x, "reversed": lambda x: x[::-1], "scalar": lambda x: 2.5,
               "int": lambda x: np.arange(1, n + 1), "held": lambda x: held}
    seen = []

    def fn(x):
        result = results[kind](x)
        seen.append((x, np.array(np.broadcast_to(np.asarray(result, dtype=float), x.shape))))
        return result

    grid = BaseGridDensity.from_function(fn, (a, b), base_exponent=exponent)
    (x, raw), = seen
    assert grid.values.tobytes() == (raw / (float(np.sum(raw)) * ((b - a) / n))).tobytes()
    assert grid.values is x
    assert held.tobytes() == before.tobytes()


def grid_faults():
    """(p, r) pairs that are not two densities on one base grid."""
    flat = flat_grid(4)
    on_lebesgue = DensityVector(np.ones(16), uniform_partition(16, "lebesgue", (0.0, 1.0)))
    uneven = WeightedPartition(np.r_[np.full(8, 0.5), np.full(8, 1.5)] / 16, (0.0, 1.0))
    return {
        "other interval": (flat, BaseGridDensity.from_values(np.ones(16), (0.0, 1.0 + 2.0**-20),
                                                              renormalize=True)),
        "other cell count": (flat, flat_grid(5)),
        "counting partition": (flat, DensityVector(np.full(16, 1.0 / 16), uniform_partition(16))),
        "counting partition first": (DensityVector(np.full(16, 1.0 / 16), uniform_partition(16)),
                                     flat),
        "no interval": (flat, DensityVector(np.ones(16), WeightedPartition(np.full(16, 1.0 / 16)))),
        "unequal cells": (flat, DensityVector(np.ones(16), uneven)),
        "not 2^k cells": (flat, DensityVector(np.ones(12), uniform_partition(12, "lebesgue",
                                                                           (0.0, 1.0)))),
        # a Lebesgue partition of 2^k cells is a base grid, checked at every weight
        "contiguous grid, other interval": (on_lebesgue, BaseGridDensity.from_values(
            np.ones(16), (0.5, 1.5))),
    }


@pytest.mark.parametrize("faults, field", [
    ({"index": 0.0, "kind": "hellinger", "r": flat_grid(5), "levels": [9]}, "q"),
    ({"kind": "hellinger", "r": flat_grid(5), "levels": [9]}, "kind"),
    ({"r": flat_grid(5), "levels": [9]}, "r"),
    ({"levels": [9]}, "levels"),
])
def test_table_checks_its_input_in_order(faults, field):
    # index, kind, grid, levels: the first fault named is the first checked
    args = {"p": flat_grid(4), "r": flat_grid(4), "index": 2.0, "kind": "renyi", "levels": [2], **faults}
    with pytest.raises(ValueError, match=f"^{field}:"):
        convergence_table(**args)


@pytest.mark.parametrize("fault", list(grid_faults()))
def test_grid_checks_refuse_densities_off_the_shared_grid(fault):
    p, r = grid_faults()[fault]
    with pytest.raises(ValueError):
        convergence_table(p, r, 2.0, "renyi", [1])
    with pytest.raises(ValueError):
        reference_divergence(p, r, 2.0, "renyi")
    approx = dyadic_approximation(flat_grid(4), 1)
    with pytest.raises(ValueError):
        common_refinement(dataclasses.replace(approx, grid=p), dataclasses.replace(approx, grid=r))


def test_refinement_refuses_approximations_at_different_levels():
    with pytest.raises(ValueError, match="g: level 2 differs from f's level 1"):
        common_refinement(dyadic_approximation(linear_grid(), 1), dyadic_approximation(flat_grid(), 2))


def test_grid_checks_name_the_mismatch():
    with pytest.raises(ValueError, match=r"r: densities live on different base grids "
                       r"\(\(0.0, 1.0\) x 16 vs \(0.0, 1.0\) x 32\)"):
        reference_divergence(flat_grid(4), flat_grid(5), 2.0, "renyi")
    with pytest.raises(ValueError, match="g: densities live on different base grids"):
        common_refinement(dyadic_approximation(flat_grid(4), 1), dyadic_approximation(flat_grid(5), 1))
    counting = DensityVector(np.full(16, 1.0 / 16), uniform_partition(16))
    with pytest.raises(ValueError, match="p: need a density on an interval cut into 2\\^k cells"):
        dyadic_approximation(counting, 1)
    # a density on a Lebesgue partition of 2^k cells is on a base grid
    on_lebesgue = DensityVector(np.ones(16), uniform_partition(16, "lebesgue", (0.0, 1.0)))
    assert reference_divergence(on_lebesgue, flat_grid(4), 2.0, "renyi") == 0.0
    assert convergence_table(on_lebesgue, flat_grid(4), 0.5, "tsallis", [2])[0].abs_error == 0.0


def test_reference_divergence_matches_closed_forms():
    # continuous values for p = 2x against the flat density (50-dps oracle);
    # the base grid is a midpoint rule, so the smooth index-2 integrand
    # converges like Delta^2 while sqrt(2x) at index 0.5 is held back by the
    # endpoint singularity (measured 1.1e-8 at this resolution)
    p, r = linear_grid(16), flat_grid(16)
    cases = [
        (2.0, "renyi", 0.2876820724517809, 1e-9),
        (0.5, "renyi", 0.11778303565638345, 5e-8),
        (2.0, "tsallis", 1.0 / 3.0, 1e-9),
        (0.5, "tsallis", 0.11438191683587327, 5e-8),
    ]
    for index, kind, exact, tol in cases:
        assert math.isclose(reference_divergence(p, r, index, kind), exact, rel_tol=0, abs_tol=tol)


def test_convergence_toward_reference():
    p, r = linear_grid(14), flat_grid(14)
    for index, kind in [(2.0, "renyi"), (0.5, "renyi"), (2.0, "tsallis"), (0.5, "tsallis")]:
        rows = convergence_table(p, r, index, kind, [2, 4, 8, 12])
        errors = [row.abs_error for row in rows]
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] < 1e-3
        assert rows[0].reference_divergence == rows[-1].reference_divergence


def test_mutually_singular_pair_is_infinite_on_both_routes():
    n = 16
    p = BaseGridDensity.from_values(np.ones(n), (0.0, 1.0))
    r_vals = np.zeros(n)
    r_vals[: n // 2] = 2.0
    r = BaseGridDensity.from_values(r_vals, (0.0, 1.0))
    assert reference_divergence(p, r, 2.0, "renyi") == math.inf
    rows = convergence_table(p, r, 2.0, "renyi", [2])
    assert rows[0].discrete_divergence == math.inf
    assert rows[0].abs_error == 0.0


def test_csv_format_is_byte_stable():
    rows = [ConvergenceRow(3, 0.25, 0.125, 0.125), ConvergenceRow(4, 1.0 / 3.0, 0.5, math.inf)]
    got = table_to_csv(rows)
    assert got == (
        "level,discrete_divergence,reference_divergence,abs_error\n"
        "3,0.25,0.125,0.125\n"
        "4,0.3333333333333333,0.5,inf\n"
    )
    assert got.splitlines()[0] == CSV_HEADER


VERIFY_DYADIC_CHECKS = [
    "mass_conservation", "pointwise_bound_margin", "mean_inside_bin", "jensen_refinement_means",
    "jensen_per_level", "error_decreases", "pmf_sums_to_one",
]


@pytest.mark.parametrize("seed", range(5))
def test_verify_dyadic_suite_passes(seed):
    result = run_suite("dyadic", seed)
    assert [check.name for check in result.checks] == VERIFY_DYADIC_CHECKS
    assert result.passed, result.checks


def test_demo_unit_interval():
    report = entropy_nonextension_demo([2, 4, 1024])
    assert report.continuous_entropy == 0.0
    assert not report.continuous_negative
    for row in report.rows:
        assert math.isclose(row.discrete_entropy, math.log(row.n), rel_tol=0, abs_tol=1e-12)
    csv = demo_to_csv(report)
    assert csv.startswith("n,discrete_entropy,continuous_entropy\n2,0.6931471805599453,0.0\n")


def test_demo_half_interval_goes_negative():
    report = entropy_nonextension_demo([2], interval=(0.0, 0.5))
    assert report.continuous_negative
    assert math.isclose(report.continuous_entropy, math.log(0.5), rel_tol=0, abs_tol=1e-12)
    # discrete side is measured against counting and does not move
    assert math.isclose(report.rows[0].discrete_entropy, math.log(2.0), rel_tol=0, abs_tol=1e-12)


@pytest.mark.parametrize("interval", [(0.0, 1.0), (0.0, 0.3), (-2.0, 5.0)])
def test_demo_rows_are_the_entropy_functions(interval):
    # the demo sums nothing itself: each value is shannon_entropy or measure_entropy
    report = entropy_nonextension_demo([1, 2, 3, 7, 1000], interval, continuous_exponent=10)
    lebesgue = uniform_partition(2**10, "lebesgue", interval)
    uniform = np.full(2**10, 1.0 / (interval[1] - interval[0]))
    continuous = shannon_entropy(DensityVector.from_values(uniform, lebesgue, renormalize=True))
    assert report.continuous_entropy == continuous
    for row in report.rows:
        P = ProbabilityVector(np.full(row.n, 1.0 / row.n))
        assert row.discrete_entropy == measure_entropy(P, uniform_partition(row.n))
        assert row.continuous_entropy == continuous


def test_demo_validation():
    with pytest.raises(ValueError):
        entropy_nonextension_demo([])
    with pytest.raises(ValueError):
        entropy_nonextension_demo([2.5])
    with pytest.raises(ValueError):
        entropy_nonextension_demo([2], interval=(1.0, 0.0))
    with pytest.raises(ValueError, match=r"^interval: \(0.0, 1e-310\) cannot carry a density on 65536 cells$"):
        entropy_nonextension_demo([2], interval=(0.0, 1e-310))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=1, max_value=6),
)
def test_mass_and_mean_properties(seed, level):
    rng = np.random.default_rng(seed)
    c1, c2 = rng.uniform(-0.4, 0.4, 2)
    grid = BaseGridDensity.from_function(
        lambda x: 1.0 + c1 * np.sin(2.0 * math.pi * x) + c2 * np.cos(4.0 * math.pi * x),
        (0.0, 1.0),
        base_exponent=8,
    )
    approx = dyadic_approximation(grid, level)
    assert abs(float(np.sum(ProbabilityVector(approx.masses).masses)) - 1.0) <= 1e-12
    scale = 2.0**level
    for i, k in enumerate(approx.bin_ids):
        if k == approx.overflow_id:
            assert approx.mean_values[i] >= level
        else:
            assert k / scale <= approx.mean_values[i] < (k + 1) / scale
    # refinement masses of the first margin telescope back to the pmf
    refinement = common_refinement(approx, dyadic_approximation(grid, level))
    assert math.isclose(float(np.sum(refinement.f_masses)), 1.0, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(float(np.sum(refinement.g_masses)), 1.0, rel_tol=0, abs_tol=1e-12)


def brute_force_divergence(p, r, index, kind, level):
    """The level-n pmf pair built cell by cell: bin every base value on its
    own, group by (p bin, r bin), and give each refinement cell the mu-mean
    of each density over that density's whole level set times its mu."""
    def code(v):
        return level * 2**level if v >= level else math.floor(v * 2**level)

    p_sets, r_sets, cells = {}, {}, {}
    for j, (a, b) in enumerate(zip(map(code, p.values), map(code, r.values))):
        p_sets.setdefault(a, []).append(j)
        r_sets.setdefault(b, []).append(j)
        cells.setdefault((a, b), []).append(j)
    p_mean = {a: math.fsum(p.values[idx]) / len(idx) for a, idx in p_sets.items()}
    r_mean = {b: math.fsum(r.values[idx]) / len(idx) for b, idx in r_sets.items()}
    keys = sorted(cells)
    mu = [len(cells[key]) * p.partition.weights[0] for key in keys]
    P = ProbabilityVector(np.array([p_mean[a] * m for (a, _), m in zip(keys, mu)]))
    R = ProbabilityVector(np.array([r_mean[b] * m for (_, b), m in zip(keys, mu)]))
    divergence = renyi_divergence if kind == "renyi" else tsallis_divergence
    return divergence(P, R, None, index)


def assert_matches_brute_force(p, r, index, kind, levels, tol=1e-13):
    rows = convergence_table(p, r, index, kind, levels)
    assert [row.level for row in rows] == sorted(set(levels))
    divergence = renyi_divergence if kind == "renyi" else tsallis_divergence
    for row in rows:
        expected = brute_force_divergence(p, r, index, kind, row.level)
        if math.isinf(expected):
            assert row.discrete_divergence == expected
        else:
            assert abs(row.discrete_divergence - expected) <= tol * max(1.0, abs(expected))
        # the single-level API runs the table's pass: the same bits
        cells = common_refinement(dyadic_approximation(p, row.level), dyadic_approximation(r, row.level))
        single = divergence(ProbabilityVector(cells.f_masses), ProbabilityVector(cells.g_masses), None, index)
        assert single == convergence_table(p, r, index, kind, [row.level])[0].discrete_divergence


def dyadic_pair(rng, cells, zero_share):
    """Two densities of exact multiples of 1/8 with equal sums, on an
    interval chosen so that both integrate to 1 without rescaling: the
    values stay on dyadic bin boundaries and many reach the overflow cell."""
    values = rng.integers(0, 8 * 12, size=(2, cells)) / 8.0
    values[rng.random((2, cells)) < zero_share] = 0.0
    values[:, 0] += 1.0
    gap = values[0].sum() - values[1].sum()
    values[1 if gap > 0 else 0, -1] += abs(gap)
    interval = (0.0, cells / values[0].sum())
    return (BaseGridDensity.from_values(v, interval) for v in values)


def lognormal_pair(rng, cells, zero_share):
    values = rng.lognormal(0.0, 1.5, size=(2, cells))
    values[rng.random((2, cells)) < zero_share] = 0.0
    values[:, 0] += 1.0
    return (BaseGridDensity.from_values(v, (0.0, 1.0), renormalize=True) for v in values)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=1, max_value=12),
    st.sampled_from([dyadic_pair, lognormal_pair]),
    st.sampled_from([0.0, 0.3, 0.9]),
    st.sampled_from([("renyi", 0.5), ("renyi", 2.0), ("renyi", 1.0), ("tsallis", 0.5), ("tsallis", 3.0)]),
)
def test_table_matches_per_level_brute_force(seed, exponent, pair, zero_share, family):
    rng = np.random.default_rng(seed)
    p, r = pair(rng, 2**exponent, zero_share)
    kind, index = family
    levels = [int(n) for n in rng.choice(np.arange(1, exponent + 1), size=min(exponent, 4))]
    assert_matches_brute_force(p, r, index, kind, levels)


def smooth_pair(rng, exponent):
    c = rng.uniform(-0.4, 0.4, 4)
    return (BaseGridDensity.from_function(
        lambda x, c1=c1, c2=c2: 1.0 + c1 * np.sin(2.0 * math.pi * x) + c2 * np.cos(4.0 * math.pi * x),
        (0.0, 1.0), base_exponent=exponent) for c1, c2 in (c[:2], c[2:]))


def constant_pair(rng, exponent):
    return (flat_grid(exponent), flat_grid(exponent))


def alternating_pair(rng, exponent):
    # 1 - s and 1 + s fall in different bins at every level: each cell is its own run
    s = rng.uniform(0.1, 0.9)
    values = 1.0 + s * (-1.0) ** np.arange(2**exponent)
    return (BaseGridDensity.from_values(v, (0.0, 1.0), renormalize=True) for v in (values, values[::-1]))


def raw_lognormal_pair(rng, exponent):
    return lognormal_pair(rng, 2**exponent, 0.3)


def reference_pair_table(p, r, level):
    """The finest pair table with np.unique over every base cell: per-cell pair
    codes and their runs' first cells, then keys, labels and counts, and the
    sums of p and of r, each run's np.add.reduceat sum added up by the run's
    row in run order."""
    width = level * 2**level + 1
    p_codes, r_codes = (np.floor(np.minimum(v.values, level) * 2.0**level).astype(np.int64) for v in (p, r))
    codes = p_codes * width + r_codes
    starts = np.flatnonzero(np.concatenate(([True], codes[1:] != codes[:-1])))
    keys, labels = np.unique(codes, return_inverse=True)
    sums = (np.bincount(labels[starts], weights=np.add.reduceat(v.values, starts)) for v in (p, r))
    return codes, starts, (keys, labels, np.bincount(labels, weights=np.ones(codes.size)), *sums)


def assert_run_grouping_is_exact(p, r, level):
    codes, starts, expected = reference_pair_table(p, r, level)
    keys, width, run_rows, lengths, counts, p_sums, r_sums = _pair_table(p.values, r.values, level)
    # the blocked pass finds the runs of the whole-array int64 floor codes,
    # those that cross a block edge included, and keys each run as they do
    assert width == level * 2**level + 1
    assert lengths.tobytes() == np.diff(starts, append=codes.size).tobytes()
    assert keys[run_rows].tobytes() == codes[starts].tobytes()
    table = (keys, np.repeat(run_rows, lengths), counts, p_sums, r_sums)
    for got, want in zip(table, expected, strict=True):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # each level n of the pass, finest first, merges the rows of the next
    # finer level's table by their codes coarsened to n, and groups its own
    # rows into p's and r's level sets
    keys, labels, counts, p_sums, r_sums = expected
    delta, finer = p.partition.weights[0], level
    for n, (f, g, cells) in zip(range(level, 0, -1), _levels(p, r, range(1, level + 1), labels=True),
                                strict=True):
        codes = np.minimum(np.stack(np.divmod(keys, width)) >> (finer - n), n * 2**n)
        width, finer = n * 2**n + 1, n
        keys, rows = np.unique(codes[0] * width + codes[1], return_inverse=True)
        labels = rows[labels]
        counts, p_sums, r_sums = (np.bincount(rows, weights=w) for w in (counts, p_sums, r_sums))
        for approx, margin, sums in ((f, keys // width, p_sums), (g, keys % width, r_sums)):
            ids, rows = np.unique(margin, return_inverse=True)
            assert approx.bin_ids.tobytes() == ids.tobytes()
            assert approx.labels.tobytes() == rows[labels].tobytes()
            assert approx.masses.tobytes() == (np.bincount(rows, weights=sums) * delta).tobytes()
            assert approx.mu_masses.tobytes() == (np.bincount(rows, weights=counts) * delta).tobytes()
        assert cells.labels.tobytes() == labels.tobytes()
        assert cells.mu_masses.tobytes() == (counts * delta).tobytes()
    return starts.size


GRID_KINDS = {"smooth": smooth_pair, "constant": constant_pair, "alternating": alternating_pair,
              "lognormal": raw_lognormal_pair}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=1, max_value=14),
    st.sampled_from(sorted(GRID_KINDS)),
)
def test_run_grouping_matches_np_unique_over_every_cell(seed, exponent, kind):
    rng = np.random.default_rng(seed)
    p, r = GRID_KINDS[kind](rng, exponent)
    level = int(rng.integers(1, exponent + 1))
    runs = assert_run_grouping_is_exact(p, r, level)
    if kind == "constant":
        assert runs == 1
    if kind == "alternating":
        assert runs == 2**exponent


def assert_chain_matches_the_finest_table(p, r, levels):
    """Each level of the pass, grouped from the next finer requested level,
    against the same level grouped straight from the finest pair table:
    ids, cell counts and labels are exact integers, and a level set's sums
    may differ only by the rounding of adding its finest rows in another
    order, a few ulps times their number."""
    finest = max(levels)
    keys, width, run_rows, lengths, counts, p_sums, r_sums = _pair_table(p.values, r.values, finest)
    delta, ulp = p.partition.weights[0], np.finfo(float).eps
    chained = list(_levels(p, r, levels, labels=True))
    assert [f.level for f, _, _ in chained] == sorted(set(levels), reverse=True)
    for f, g, cells in chained:
        n = f.level
        codes = np.minimum(np.stack(np.divmod(keys, width)) >> (finest - n), n * 2**n)
        _, rows = np.unique(codes[0] * (n * 2**n + 1) + codes[1], return_inverse=True)
        assert cells.labels.tobytes() == np.repeat(rows[run_rows], lengths).tobytes()
        assert cells.mu_masses.tobytes() == (np.bincount(rows, weights=counts) * delta).tobytes()
        for approx, margin, sums in ((f, codes[0], p_sums), (g, codes[1], r_sums)):
            ids, sets = np.unique(margin, return_inverse=True)
            assert approx.bin_ids.tobytes() == ids.tobytes()
            assert approx.labels.tobytes() == np.repeat(sets[run_rows], lengths).tobytes()
            assert approx.mu_masses.tobytes() == (np.bincount(sets, weights=counts) * delta).tobytes()
            want = np.bincount(sets, weights=sums) * delta
            summed = np.bincount(sets)  # finest rows added up into each level set
            assert np.all(np.abs(approx.masses - want) <= 2 * ulp * summed * want)
    return len(chained)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=1, max_value=14),
    st.sampled_from(sorted(GRID_KINDS)),
    st.sampled_from(["ends", "spread", "one", "any"]),
    st.data(),
)
def test_chained_levels_match_grouping_straight_from_the_finest_table(seed, exponent, kind, shape, data):
    rng = np.random.default_rng(seed)
    p, r = GRID_KINDS[kind](rng, exponent)
    top = range(1, exponent + 1)
    if shape == "ends":  # [1, L]: one coarsening across every level
        levels = [1, exponent]
    elif shape == "spread":  # as [2, 7, 12]: gaps of several levels
        levels = sorted({max(1, exponent - 10), max(1, exponent - 5), exponent})
    elif shape == "one":
        levels = [data.draw(st.sampled_from(top))]
    else:
        levels = data.draw(st.lists(st.sampled_from(top), min_size=1, max_size=5))
    assert assert_chain_matches_the_finest_table(p, r, levels) == len(set(levels))


def test_chained_levels_2_7_12_match_the_finest_table_at_2_14():
    for kind in sorted(GRID_KINDS):
        p, r = GRID_KINDS[kind](np.random.default_rng(23), 14)
        assert assert_chain_matches_the_finest_table(p, r, [12, 2, 7]) == 3


def test_run_grouping_is_exact_at_base_resolution_2_20():
    p, r = smooth_pair(np.random.default_rng(17), 20)
    assert_run_grouping_is_exact(p, r, 12)


def test_a_constant_grid_is_one_run_across_every_block():
    p, r = constant_pair(None, 17)
    assert assert_run_grouping_is_exact(p, r, 12) == 1


def test_runs_that_cross_or_start_at_a_block_edge():
    # p's second run crosses the first block edge and its third starts past
    # the second; r steps at the second edge, and p steps back at the third:
    # runs (1, 1), (2, 1), (2, 2), (3, 2), (1, 2), the third and fifth
    # starting exactly on an edge.  A jitter far inside each level-12 bin
    # makes a run's sum depend on its order of summation
    cells = 4 * BLOCK
    p = np.ones(cells)
    p[BLOCK - 3 : 2 * BLOCK + 5] = 2.0
    p[2 * BLOCK + 5 : 3 * BLOCK] = 3.0
    r = np.ones(cells)
    r[2 * BLOCK :] = 2.0
    jitter = np.random.default_rng(3).uniform(1.0, 1.0 + 1e-6, (2, cells))
    p, r = p * jitter[0], r * jitter[1]
    p, r = (BaseGridDensity.from_values(v, (0.0, 1.0), renormalize=True) for v in (p, r))
    assert assert_run_grouping_is_exact(p, r, 12) == 5
    lengths = _pair_table(p.values, r.values, 12)[3]
    assert lengths.tolist() == [BLOCK - 3, BLOCK + 3, 5, BLOCK - 5, BLOCK]


def test_coarsening_is_exact_at_dyadic_boundaries():
    # every level-L bin edge k / 2^L up to the overflow threshold L, and the
    # floats on either side of it
    finest = 10
    edges = np.arange(finest * 2**finest + 1) / 2.0**finest
    values = np.concatenate([edges, np.nextafter(edges, np.inf), np.nextafter(edges[1:], 0.0)])
    fine = np.floor(values * 2.0**finest).astype(np.int64)
    for level in range(1, finest + 1):
        assert np.array_equal(np.floor(values * 2.0**level).astype(np.int64), fine >> (finest - level))
    # the engine on a grid holding exactly those values: the coarsened table
    # agrees with binning each level on its own, overflow cells included
    cells = 2 ** math.ceil(math.log2(values.size))
    grid_values = np.zeros(cells)
    grid_values[: values.size] = values
    p = BaseGridDensity.from_values(grid_values, (0.0, cells / grid_values.sum()))
    r = BaseGridDensity.from_values(np.ones(cells), p.partition.interval, renormalize=True)
    for level in (1, 4, finest):
        approx = dyadic_approximation(p, level)
        expected = np.where(grid_values >= level, level * 2**level, np.floor(grid_values * 2.0**level))
        assert np.array_equal(approx.bin_ids[approx.labels], expected)
    assert_matches_brute_force(p, r, 2.0, "renyi", range(1, finest + 1))


def test_bin_codes_at_the_level_cap_are_exact_int32():
    # level 24, the cap, on a few values and no 2^24 grid: bin edges k/2^24 and
    # the floats on either side, 24 - ulp, 24 itself and far past it
    level = 24
    edges = np.array([0, 1, 2, 3, 2**23 - 1, 2**23, 2**24, 2**28 + 5, level * 2**level - 1]) / 2.0**level
    values = np.concatenate([edges, np.nextafter(edges, np.inf), np.nextafter(edges[1:], 0.0),
                             [np.nextafter(24.0, 0.0), 24.0, 1e300]])
    codes = _bin_codes(values, level)
    assert codes.dtype == np.int32
    exact = [math.floor(Fraction(min(v, 24.0)) * 2**level) for v in values.tolist()]
    assert codes.tolist() == exact
    assert exact[-1] == exact[-2] == level * 2**level  # the overflow code
    # the pass's int64 pair key gives both codes of each run back, the
    # overflow code on either side
    keys, width, run_rows, lengths, *_ = _pair_table(values, values[::-1], level)
    assert keys.dtype == np.int64 and width == level * 2**level + 1
    pairs = list(zip(exact, exact[::-1]))
    starts = [k for k in range(len(pairs)) if k == 0 or pairs[k] != pairs[k - 1]]
    assert lengths.tolist() == np.diff(starts, append=len(pairs)).tolist()
    high, low = np.divmod(keys[run_rows], width)
    assert list(zip(high.tolist(), low.tolist())) == [pairs[k] for k in starts]


def test_a_table_at_base_resolution_2_18_stays_within_its_memory():
    # tracemalloc peak of one table per family on 2^18 cells, in bytes per
    # cell: 12.0 measured for both, bounded at 13.5 to leave about 12%
    # headroom; the reference's terms take 8 of them, and Renyi's exps
    # overwrite them
    p, r = smooth_pair(np.random.default_rng(5), 18)
    for kind, bound in (("renyi", 13.5), ("tsallis", 13.5)):
        tracemalloc.start()
        try:
            rows = convergence_table(p, r, 0.5, kind, range(2, 13))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == 11
        assert peak < bound * 2**18, (kind, peak / 2**18)


def test_convergence_study_script_runs(capsys):
    spec = importlib.util.spec_from_file_location(
        "convergence_study", SCRIPTS / "convergence_study.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--base-exponent", "10", "--levels", "2..10"]) == 0
    out = capsys.readouterr().out
    for kind in ("renyi", "tsallis"):
        for index in (0.5, 2.0):
            assert f"{kind} divergence, index {index}" in out
    assert script.main(["--base-exponent", "10", "--levels", "2,5", "--kind", "renyi", "--csv"]) == 0
    out = capsys.readouterr().out
    assert out.count(CSV_HEADER) == 2
