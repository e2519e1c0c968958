"""Si against independent oracles: mpmath at spot points, scipy in bulk."""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import sici

from blockspaces import sine_integral

mpmath.mp.dps = 30


def mp_si(t: float) -> float:
    return float(mpmath.si(t))


def test_anchor_values():
    assert sine_integral(0.0) == 0.0
    # Si(pi) is the maximum of the first arch (Gibbs constant / (2/pi))
    assert math.isclose(sine_integral(math.pi), 1.8519370519824662, abs_tol=1e-13)
    assert math.isclose(sine_integral(1.0), 0.9460830703671830, abs_tol=1e-13)


def test_spot_checks_against_mpmath():
    # ~200 points straddling all three evaluation branches
    pts = np.concatenate(
        [
            np.linspace(1e-8, 8.0, 60),
            np.linspace(8.0, 44.0, 80),
            np.linspace(44.0, 1e3, 60),
        ]
    )
    got = sine_integral(pts)
    want = np.array([mp_si(t) for t in pts])
    assert np.max(np.abs(got - want)) < 1e-13


def test_bulk_against_scipy():
    rng = np.random.default_rng(5)
    t = rng.uniform(0.0, 1e3, size=10_000)
    got = sine_integral(t)
    want = sici(t)[0]
    assert np.max(np.abs(got - want)) < 1e-12


def test_branch_boundaries_are_seamless():
    for edge in (8.0, 44.0):
        below = sine_integral(np.nextafter(edge, 0.0))
        above = sine_integral(np.nextafter(edge, np.inf))
        assert abs(above - below) < 1e-12
        assert abs(sine_integral(edge) - mp_si(edge)) < 1e-13


def test_exactly_odd():
    t = np.array([0.3, 7.9, 12.5, 100.0, 999.0])
    np.testing.assert_array_equal(sine_integral(-t), -sine_integral(t))


def test_limit_at_infinity():
    # Si(t) -> pi/2 with O(1/t) envelope
    for t in (1e3, 1e4, 1e5):
        assert abs(sine_integral(t) - math.pi / 2) < 1.1 / t


def test_infinite_arguments_give_the_limit():
    # the asymptotic form reads cos(inf) = nan there; the limit is exact
    assert sine_integral(math.inf) == math.pi / 2
    assert sine_integral(-math.inf) == -math.pi / 2
    np.testing.assert_array_equal(
        sine_integral(np.array([-np.inf, 1e3, np.inf])),
        [-math.pi / 2, sine_integral(1e3), math.pi / 2],
    )
    assert math.isnan(sine_integral(math.nan))


@pytest.mark.filterwarnings("error")
def test_far_arguments_give_the_limit_without_warnings():
    # |t| past ~1.3e154 overflows t * t, and S_N's phase 2 pi N x overflows
    # near 1e308; both overflows are exact (1/t^2 = 0, Si(inf) = pi/2)
    from blockspaces import PiecewiseConstant1D, dirichlet_sn

    assert sine_integral(1e308) == 0.5 * math.pi
    f = PiecewiseConstant1D.indicator(-1.0, 1.0)
    assert dirichlet_sn(f, 8.0, np.array([1e308])).tolist() == [0.0]


def test_scalar_and_array_forms_agree():
    assert isinstance(sine_integral(2.0), float)
    arr = sine_integral(np.array([[2.0, 3.0]]))
    assert arr.shape == (1, 2)
    assert arr[0, 0] == sine_integral(2.0)
