"""Weighted partitions, densities, pmfs, and the derivative between them."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qentropy import (
    AbsoluteContinuityError,
    BaseGridDensity,
    DensityVector,
    ProbabilityVector,
    WeightedPartition,
    induced_pmf,
    radon_nikodym,
    uniform_partition,
)


def test_partition_validation():
    with pytest.raises(ValueError):
        WeightedPartition([-0.1, 0.6, 0.5])
    with pytest.raises(ValueError):
        WeightedPartition([0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        WeightedPartition([1.0, np.nan])
    with pytest.raises(ValueError):
        WeightedPartition([1.0, np.inf])
    with pytest.raises(ValueError):
        WeightedPartition([])
    with pytest.raises(ValueError, match="interval"):
        WeightedPartition([1.0, 1.0], (1.0, 0.0))
    # a zero-stride view is checked at its one weight
    for weight in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="weights"):
            WeightedPartition(np.broadcast_to(weight, (4,)))
    assert float(np.sum(WeightedPartition(np.broadcast_to(0.25, (4,))).weights)) == 1.0
    part = WeightedPartition([0.0, 1.0, 3.0])  # null cells are allowed
    assert len(part) == 3
    assert float(np.sum(part.weights)) == 4.0
    assert part.interval is None


def test_uniform_partition_modes():
    counting = uniform_partition(4)
    assert np.array_equal(counting.weights, np.ones(4))
    prob = uniform_partition(4, "uniform_probability")
    assert np.allclose(prob.weights, 0.25, rtol=0, atol=0)
    grid = uniform_partition(4, "lebesgue", interval=(0.0, 2.0))
    assert np.allclose(grid.weights, 0.5, rtol=0, atol=0)
    assert grid.interval == (0.0, 2.0)
    assert grid.weights.flags.c_contiguous and grid.weights.strides == (8,)
    assert counting.interval is None and prob.interval is None
    assert math.isclose(float(np.sum(grid.weights)), 2.0, rel_tol=0, abs_tol=1e-12)
    for n in (0, -1, 2.5, True, None, "3", 2**24 + 1):
        with pytest.raises(ValueError, match="2\\^24"):
            uniform_partition(n)
    with pytest.raises(ValueError):
        uniform_partition(4, "lebesgue")  # interval required
    with pytest.raises(ValueError):
        uniform_partition(4, "nonsense")


def test_density_normalization_gate():
    part = uniform_partition(2, "uniform_probability")
    DensityVector([1.2, 0.8], part)  # 0.5*1.2 + 0.5*0.8 = 1
    with pytest.raises(ValueError):
        DensityVector([1.0, 0.5], part)
    scaled = DensityVector.from_values([3.0, 2.0], part, renormalize=True)
    assert math.isclose(float(scaled.values @ part.weights), 1.0, rel_tol=0, abs_tol=1e-15)
    assert math.isclose(scaled.renormalization, 1.0 / 2.5, rel_tol=1e-15)
    with pytest.raises(ValueError):
        DensityVector.from_values([0.0, 0.0], part, renormalize=True)
    with pytest.raises(ValueError):
        DensityVector([1.0, np.nan], part)


def test_probability_vector_normalization_gate():
    ProbabilityVector([0.5, 0.5])
    with pytest.raises(ValueError):
        ProbabilityVector([0.5, 0.6])
    with pytest.raises(ValueError):
        ProbabilityVector([0.7, -0.3, 0.6])
    scaled = ProbabilityVector.from_values([2.0, 6.0], renormalize=True)
    assert np.allclose(scaled.masses, [0.25, 0.75], rtol=0, atol=1e-15)
    assert scaled.renormalization == 0.125


RENORMALIZERS = {
    "density": lambda v: DensityVector.from_values(v, uniform_partition(2), renormalize=True),
    "pmf": lambda v: ProbabilityVector.from_values(v, renormalize=True),
    "grid": lambda v: BaseGridDensity.from_values(v, (0.0, 1.0), renormalize=True),
}


@pytest.mark.parametrize("build", sorted(RENORMALIZERS))
def test_renormalize_refuses_zero_and_overflowing_totals(build):
    # one refusal for all three constructors, with no numpy warning on the way
    what = "masses" if build == "pmf" else "values"
    for values, size in (([0.0, 0.0], "zero"), ([1e308, 1e308], "overflowing")):
        with pytest.raises(ValueError, match=f"^{what}: cannot renormalize {size} total mass$"):
            RENORMALIZERS[build](np.array(values))


def test_density_pmf_roundtrip():
    part = WeightedPartition([0.5, 1.0, 2.5])
    p = DensityVector.from_values([0.5, 0.5, 0.1], part)
    P = induced_pmf(p)
    assert np.allclose(P.masses, [0.25, 0.5, 0.25], rtol=0, atol=1e-15)
    back = radon_nikodym(P, part)
    assert np.allclose(back.values, p.values, rtol=1e-15)


def test_radon_nikodym_on_null_cells():
    part = WeightedPartition([1.0, 0.0, 1.0])
    ok = radon_nikodym(ProbabilityVector([0.4, 0.0, 0.6]), part)
    assert ok.values[1] == 0.0
    with pytest.raises(AbsoluteContinuityError):
        radon_nikodym(ProbabilityVector([0.4, 0.2, 0.4]), part)


def test_radon_nikodym_shape_mismatch():
    with pytest.raises(ValueError):
        radon_nikodym(ProbabilityVector([0.5, 0.5]), uniform_partition(3))


def test_partition_keeps_weights_and_interval():
    c = WeightedPartition([0.25], (0.25, 0.5))
    assert [f.name for f in dataclasses.fields(c)] == ["weights", "interval"]
    assert c.interval == (0.25, 0.5) and c.weights.tolist() == [0.25]
    with pytest.raises(Exception):
        c.interval = (0.0, 1.0)  # frozen


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=2**31 - 1))
def test_roundtrip_property(n, seed):
    rng = np.random.default_rng(seed)
    mu = rng.uniform(0.1, 2.0, n)
    part = WeightedPartition(mu)
    masses = rng.dirichlet(np.ones(n))
    P = ProbabilityVector.from_values(masses, renormalize=True)
    again = induced_pmf(radon_nikodym(P, part))
    assert np.allclose(again.masses, P.masses, rtol=0, atol=1e-14)


@pytest.mark.parametrize("mode", ["counting", "uniform_probability", "lebesgue"])
def test_uniform_partition_builds_only_arrays(mode):
    # one object per cell took 42 MiB (counting) and 60 MiB (lebesgue) here
    tracemalloc.start()
    try:
        part = uniform_partition(2**18, mode, (0.0, 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(part) == 2**18
    assert peak < 16 * 2**20
