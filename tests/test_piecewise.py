"""Exact piecewise-constant arithmetic."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from blockspaces import PiecewiseConstant1D


def chi(a, b, v=1.0):
    return PiecewiseConstant1D.indicator(a, b, v)


# small random functions for property tests
@st.composite
def piecewise_functions(draw, max_pieces=5):
    m = draw(st.integers(1, max_pieces))
    bps = draw(
        st.lists(
            st.floats(-8, 8, allow_nan=False).map(lambda x: round(x, 3)),
            min_size=m + 1,
            max_size=m + 1,
            unique=True,
        )
    )
    vals = draw(st.lists(st.integers(-5, 5), min_size=m, max_size=m))
    return PiecewiseConstant1D(sorted(bps), [float(v) for v in vals])


def test_constructor_validation():
    with pytest.raises(ValueError):
        PiecewiseConstant1D((0.0,), ())
    with pytest.raises(ValueError):
        PiecewiseConstant1D((0.0, 0.0), (1.0,))
    with pytest.raises(ValueError):
        PiecewiseConstant1D((1.0, 0.0), (1.0,))
    with pytest.raises(ValueError):
        PiecewiseConstant1D((0.0, 1.0), (np.inf,))
    with pytest.raises(ValueError):
        chi(2.0, 2.0)


def test_evaluation_convention():
    f = chi(0.0, 1.0, 2.0)
    x = np.array([-0.5, 0.25, 1.5])
    np.testing.assert_array_equal(f(x), [0.0, 2.0, 0.0])
    # breakpoints give the two-sided mean: (0 + 2)/2 at the edges
    np.testing.assert_array_equal(f(np.array([0.0, 1.0])), [1.0, 1.0])
    g = PiecewiseConstant1D((0.0, 1.0, 2.0), (2.0, 4.0))
    assert g(np.array(1.0)) == 3.0


def test_zero_function():
    z = PiecewiseConstant1D.zero()
    assert z.is_zero
    assert z.support_bounds is None
    assert z(np.array([0.0, 1.0])).tolist() == [0.0, 0.0]


def test_support_bounds_ignores_zero_pieces():
    f = PiecewiseConstant1D((-2.0, -1.0, 1.0, 2.0), (0.0, 3.0, 0.0))
    assert f.support_bounds == (-1.0, 1.0)


def test_addition_refines_breakpoints():
    f = chi(0.0, 2.0) + chi(1.0, 3.0)
    assert f.breakpoints == (0.0, 1.0, 2.0, 3.0)
    assert f.values == (1.0, 2.0, 1.0)


def test_restrict_is_exact():
    f = chi(0.0, 4.0, 2.0)
    g = f.restrict(1.0, 3.0)
    assert g.equal_as_functions(chi(1.0, 3.0, 2.0))
    assert f.restrict(5.0, 6.0).is_zero
    # restriction never changes values, only support
    h = f.restrict(-1.0, 0.5)
    assert h.equal_as_functions(chi(0.0, 0.5, 2.0))


def test_simplify_merges_and_trims():
    f = PiecewiseConstant1D((0.0, 1.0, 2.0, 3.0, 4.0), (0.0, 2.0, 2.0, 0.0))
    g = f.simplify()
    assert g.breakpoints == (1.0, 3.0)
    assert g.values == (2.0,)


def test_translate_dilate():
    f = chi(1.0, 2.0)
    assert f.dilate(2.0).support_bounds == (2.0, 4.0)
    x = np.array([3.0])
    assert f.dilate(2.0)(x) == f(x / 2.0)
    with pytest.raises(ValueError):
        f.dilate(0.0)


@given(piecewise_functions(), piecewise_functions())
def test_addition_commutes_pointwise(f, g):
    xs = np.linspace(-9.0, 9.0, 37)  # off the rounded breakpoints
    xs = xs + 0.0001
    np.testing.assert_allclose((f + g)(xs), f(xs) + g(xs), atol=1e-12)


@given(piecewise_functions())
def test_subtraction_gives_zero(f):
    assert (f - f).simplify().is_zero
    assert f.equal_as_functions(f.simplify())


@given(piecewise_functions(), st.integers(-4, 4))
def test_scalar_multiplication(f, c):
    xs = np.linspace(-9.0, 9.0, 23) + 0.0007
    np.testing.assert_allclose((f * float(c))(xs), float(c) * f(xs), atol=1e-12)


@given(piecewise_functions())
def test_abs_pointwise(f):
    xs = np.linspace(-9.0, 9.0, 23) + 0.0003
    np.testing.assert_allclose(f.abs()(xs), np.abs(f(xs)), atol=1e-12)
