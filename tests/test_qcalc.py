"""Deformed log/exp pair: frozen values, branch behavior, and properties.

Frozen literals regenerated by tests/_oracles.py (mpmath, 50 dps).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qentropy import check_index, is_classical, q_exp, q_log


def test_unit_argument_gives_zero_for_every_index():
    for q in (0.2, 0.5, 1.0, 2.0, 3.0):
        assert q_log(1.0, q) == 0.0


def test_closed_form_values():
    # q=2 reduces to 1 - 1/x, q=0.5 to 2*(sqrt(x) - 1)
    assert math.isclose(q_log(4.0, 2.0), 0.75, rel_tol=0, abs_tol=1e-15)
    assert math.isclose(q_log(2.0, 2.0), 0.5, rel_tol=0, abs_tol=1e-15)
    assert math.isclose(q_log(4.0, 0.5), 2.0, rel_tol=0, abs_tol=1e-14)
    assert math.isclose(q_exp(0.75, 2.0), 4.0, rel_tol=1e-14)
    assert math.isclose(q_exp(2.0, 0.5), 4.0, rel_tol=1e-14)


def test_classical_band_is_the_natural_pair():
    assert q_log(math.e, 1.0) == 1.0
    assert math.isclose(q_log(5.0, 1.0 + 1e-10), math.log(5.0), rel_tol=0, abs_tol=0)
    assert q_exp(0.0, 0.7) == 1.0
    assert math.isclose(q_exp(1.0, 1.0 - 1e-10), math.e, rel_tol=0, abs_tol=0)


def test_cutoff_branch_returns_zero():
    # 1 + (1-q)x <= 0 is mapped to 0 rather than a complex power
    assert q_exp(-10.0, 0.5) == 0.0
    assert q_exp(-2.0, 0.5) == 0.0
    assert q_exp(-2.5, 0.5) == 0.0
    # just inside the domain stays positive
    assert q_exp(-1.999, 0.5) > 0.0


def test_q_above_one_has_no_cutoff_for_negative_arguments():
    assert math.isclose(q_exp(-3.0, 2.0), 0.25, rel_tol=1e-15)


def test_domain_errors():
    with pytest.raises(ValueError):
        q_log(0.0, 0.5)
    with pytest.raises(ValueError):
        q_log(-1.0, 2.0)
    for q in (0.0, -2.0, math.inf, math.nan, [0.5, 0.0]):
        with pytest.raises(ValueError, match="q: must be a finite positive real"):
            check_index(q)
    with pytest.raises(ValueError, match="q: must be a finite positive real"):
        q_log(2.0, 0.0)


def test_check_index_returns_floats_and_arrays():
    assert check_index(2) == 2.0 and type(check_index(2)) is float
    assert type(check_index(np.float64(0.5))) is float
    assert np.array_equal(check_index([0.5, 2.0]), [0.5, 2.0])


def test_classical_band():
    for q in (1.0, 1.0 + 5e-10, 1.0 - 5e-10):
        assert is_classical(q)
    for q in (1.0 + 2e-9, 1.0 - 2e-9, 0.5, 2.0):
        assert not is_classical(q)
    assert is_classical(np.array([1.0 + 5e-10, 1.0 + 2e-9])).tolist() == [True, False]


def test_check_index_takes_the_band_as_one():
    for q in (1.0 + 5e-10, 1.0 - 5e-10):
        assert check_index(q) == 1.0 and type(check_index(q)) is float
    for q in (1.0 + 2e-9, 1.0 - 2e-9):
        assert check_index(q) == q
    # elementwise for an array: only the in-band entries move
    snapped = check_index([0.5, 1.0 + 5e-10, 1.0 - 5e-10, 1.0 + 2e-9])
    assert snapped.tolist() == [0.5, 1.0, 1.0, 1.0 + 2e-9]


def test_against_high_precision_oracle():
    # spot values from tests/_oracles.py at 50 dps
    cases = [
        (3.0, 0.7, 1.3012972343863645),
        (0.02, 2.7, -454.1904333985175),
        (17.0, 0.3, 8.951879146286302),
    ]
    for x, q, expected in cases:
        assert math.isclose(q_log(x, q), expected, rel_tol=1e-14)
        assert math.isclose(q_exp(expected, q), x, rel_tol=1e-13)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=math.log(1e-3), max_value=math.log(50.0)),
    st.floats(min_value=1e-3, max_value=3.0),
)
def test_inverse_pair_property(log_x, q):
    x = math.exp(log_x)
    assert math.isclose(q_exp(q_log(x, q), q), x, rel_tol=1e-12)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=math.log(1e-3), max_value=math.log(1e3)),
    st.floats(min_value=1e-6, max_value=1.0),
    st.floats(min_value=1e-3, max_value=3.0),
)
def test_strict_monotonicity_property(log_a, gap, q):
    a = math.exp(log_a)
    b = a * math.exp(gap)
    assert q_log(b, q) > q_log(a, q)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=math.log(1e-2), max_value=math.log(1e2)),
    st.floats(min_value=math.log(1e-2), max_value=math.log(1e2)),
    st.floats(min_value=1e-3, max_value=3.0),
)
def test_ratio_identity_property(log_x, log_y, q):
    # chain rule of the deformed log, relative to its largest term
    x, y = math.exp(log_x), math.exp(log_y)
    prefactor = math.exp((q - 1.0) * math.log(y))
    term_x = prefactor * q_log(x, q)
    term_y = prefactor * q_log(y, q)
    lhs = q_log(x / y, q)
    scale = max(1.0, abs(term_x), abs(term_y), abs(lhs))
    assert abs(lhs - (term_x - term_y)) <= 1e-12 * scale


def test_classical_limit_second_order_deviation():
    # near q = 1 the deviation from ln x is (1-q) (ln x)^2 / 2 to leading
    # order; the literal 1e-5 cap only holds where |ln x| <= sqrt(20)
    for x in (1e-3, 0.02, 1.0, 15.0, 1e3):
        for q in (1.0 - 1e-6, 1.0 + 1e-6):
            dev = abs(q_log(x, q) - math.log(x))
            assert dev <= 1e-6 * (0.51 * math.log(x) ** 2 + 1e-3)
            if abs(math.log(x)) <= math.sqrt(20.0):
                assert dev <= 1e-5


def test_vector_arguments_broadcast():
    x = np.array([0.5, 1.0, 2.0, 8.0])
    out = q_log(x, 2.0)
    assert out.shape == x.shape
    assert np.allclose(out, 1.0 - 1.0 / x, rtol=0, atol=1e-15)
    back = q_exp(out, 2.0)
    assert np.allclose(back, x, rtol=1e-14)


def test_array_index_matches_scalar_calls_bit_for_bit():
    # in-band entries, q < 1 entries past the cut-off (x < -1/(1-q)) and
    # q > 1 entries at and past the pole (x >= 1/(q-1), where e_q is 0)
    q = np.array([1.0, 1.0 + 5e-10, 1.0 - 5e-10, 0.5, 0.5, 0.3, 2.0, 2.0, 3.0, 3.0, 1.0 + 2e-9])
    x = np.array([1.5, -2.0, 40.0, -2.5, -1.999, 0.7, 1.5, 0.5, 0.5, -3.0, 0.25])
    exp_out = q_exp(x, q)
    assert exp_out[3] == exp_out[6] == exp_out[8] == 0.0 and np.all(exp_out[[4, 7, 9]] > 0.0)

    def same_bits(out, scalars):
        return out.tobytes() == np.array(scalars).tobytes()

    assert same_bits(exp_out, [q_exp(xi, qi) for xi, qi in zip(x, q)])
    log_x = np.abs(x)
    assert same_bits(q_log(log_x, q), [q_log(xi, qi) for xi, qi in zip(log_x, q)])
    # a scalar x against an array q, and the reverse, broadcast
    assert same_bits(q_log(3.0, q), [q_log(3.0, qi) for qi in q])
    assert same_bits(q_exp(x, 0.5), [q_exp(xi, 0.5) for xi in x])
    assert type(q_log(3.0, 0.5)) is float and type(q_exp(3.0, 0.5)) is float
