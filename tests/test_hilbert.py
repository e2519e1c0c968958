"""Hilbert transform of step functions: exact log formula, truncations, sup."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockspaces import (
    DomainEvaluationError,
    EvalGrid,
    PiecewiseConstant1D,
    dirichlet_sn,
    geometric_schedule,
    hilbert,
    hilbert_maximal,
    hilbert_truncated,
    maximal_1d_exact,
    pv_exclusion_radius,
    refine_schedule,
)
from blockspaces.operators import _require_pv_clear, nearest_breakpoint

chi = PiecewiseConstant1D.indicator


def h_indicator(a, b, x):
    # closed form: H chi_{[a,b]}(x) = (1/pi) log|x-a| - (1/pi) log|x-b|
    return np.log(np.abs((x - a) / (x - b))) / math.pi


def test_indicator_closed_form():
    f = chi(1.0, 2.0)
    x = np.array([-3.0, 0.5, 1.5, 2.5, 4.0, 100.0])
    np.testing.assert_allclose(hilbert(f, x), h_indicator(1.0, 2.0, x), atol=1e-14)


def test_symmetric_point_vanishes():
    # x = 3/2 sees [1, 2] symmetrically: the principal value cancels exactly
    assert hilbert(chi(1.0, 2.0), np.array([1.5]))[0] == 0.0


def test_even_indicator_log2_anchor():
    # H chi_{[-1,1]}(3) = (1/pi) log 2
    got = hilbert(chi(-1.0, 1.0), np.array([3.0]))[0]
    assert math.isclose(got, math.log(2.0) / math.pi, rel_tol=1e-15)


def test_linearity_over_pieces():
    f = PiecewiseConstant1D((-2.0, -1.0, 1.0, 3.0), (1.0, -2.0, 0.5))
    x = np.array([-5.0, 0.3, 2.2, 7.0])
    want = (
        h_indicator(-2.0, -1.0, x)
        - 2.0 * h_indicator(-1.0, 1.0, x)
        + 0.5 * h_indicator(1.0, 3.0, x)
    )
    np.testing.assert_allclose(hilbert(f, x), want, atol=1e-13)


def test_zero_function_maps_to_zero():
    z = PiecewiseConstant1D.zero()
    np.testing.assert_array_equal(hilbert(z, np.array([0.0, 1.0])), [0.0, 0.0])


def test_breakpoint_evaluation_rejected():
    f = chi(1.0, 2.0)
    with pytest.raises(DomainEvaluationError) as err:
        hilbert(f, np.array([1.0]))
    assert "1.0" in str(err.value)
    # and anywhere inside the exclusion radius
    with pytest.raises(DomainEvaluationError):
        hilbert(f, np.array([2.0 + 0.5 * pv_exclusion_radius(f)]))


def test_eval_grid_strict_vs_filtered():
    f = chi(0.0, 1.0)
    with pytest.raises(DomainEvaluationError):
        EvalGrid.for_function(f, [0.5, 1.0])
    g = EvalGrid.filtered(f, [0.5, 1.0])
    assert g.points == (0.5,)
    # an all-zero f has no PV singularity: hilbert evaluates at its breakpoints too
    z = PiecewiseConstant1D((0.0, 1.0), (0.0,))
    assert EvalGrid.for_function(z, [0.0, 1.0]).points == (0.0, 1.0)
    np.testing.assert_array_equal(hilbert(z, np.array([0.0, 1.0])), [0.0, 0.0])
    # filtered drops exactly what for_function refuses, as Python floats
    for g in (EvalGrid.filtered(z, [0.0, 0.5, 1.0]), EvalGrid.filtered(f, [0.5, 1.0, 2.0])):
        assert all(type(v) is float for v in g.points)
    assert EvalGrid.filtered(z, [0.0, 0.5, 1.0]).points == (0.0, 0.5, 1.0)
    # operators take an EvalGrid in place of its points
    pts = [-0.5, 0.25, 0.5, 3.0]
    assert np.array_equal(hilbert(f, EvalGrid.for_function(f, pts)), hilbert(f, pts))


@settings(max_examples=200)
@given(
    st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=12, unique=True),
    st.lists(st.floats(-2e3, 2e3), max_size=20),
)
def test_nearest_breakpoint_matches_dense_scan(bps, extra):
    b = np.sort(np.asarray(bps))
    f = PiecewiseConstant1D(b, np.ones(b.size - 1))
    r = pv_exclusion_radius(f)
    # points exactly at the breakpoints, at +-r around them and one ulp outside
    x = np.concatenate(
        [extra, b, b - r, b + r, np.nextafter(b - r, -np.inf), np.nextafter(b + r, np.inf)]
    )
    idx, dist = nearest_breakpoint(x, b)
    dense = np.abs(x[:, None] - b[None, :])
    np.testing.assert_array_equal(dist, dense.min(axis=1))
    np.testing.assert_array_equal(dense[np.arange(x.size), idx], dist)
    # EvalGrid strict/filtered and the PV check keep their boundary semantics
    clear = dense.min(axis=1) > r
    np.testing.assert_array_equal(EvalGrid.filtered(f, x).points, x[clear])
    for check in (EvalGrid.for_function, _require_pv_clear):
        check(f, x[clear])
        for bad in x[~clear][:4]:
            with pytest.raises(DomainEvaluationError):
                check(f, np.array([bad]))


def test_anti_self_duality():
    # int (Hf) g = - int f (Hg) for disjointly supported steps, by quadrature
    f, g = chi(-2.0, -1.0), chi(1.0, 2.0)
    # on g's support Hf is smooth; 2000-point midpoint rule on each side
    xs_g = np.linspace(1.0, 2.0, 2001)
    xs_g = 0.5 * (xs_g[:-1] + xs_g[1:])
    xs_f = np.linspace(-2.0, -1.0, 2001)
    xs_f = 0.5 * (xs_f[:-1] + xs_f[1:])
    lhs = hilbert(f, xs_g).mean()  # int Hf * g over [1,2]
    rhs = -hilbert(g, xs_f).mean()
    assert math.isclose(lhs, rhs, rel_tol=1e-10)


# -- truncations --------------------------------------------------------------


def test_truncation_exact_once_window_clears_breakpoints():
    # the excluded window sits inside one piece, so the odd kernel cancels
    # there and the truncation equals the principal value exactly
    f = chi(1.0, 2.0)
    x = np.array([1.3, 0.25, 3.0])
    full = hilbert(f, x)
    np.testing.assert_allclose(hilbert_truncated(f, 0.05, x), full, atol=1e-13)
    # a window straddling a breakpoint deviates
    coarse = hilbert_truncated(f, 0.5, np.array([1.3]))
    assert abs(coarse[0] - full[0]) > 1e-3


def test_truncation_converges_inside_support():
    f = chi(1.0, 2.0)
    x = np.array([1.25])
    want = h_indicator(1.0, 2.0, x)
    got = hilbert_truncated(f, 1e-9, x)
    np.testing.assert_allclose(got, want, atol=1e-7)


def test_truncation_at_breakpoint_is_finite_and_silent():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = hilbert_truncated(chi(-1.0, 1.0), 0.25, np.array([-1.0, 1.0]))
    want = math.log(8.0) / math.pi
    np.testing.assert_allclose(got, [-want, want], rtol=1e-15)


def test_truncation_rejects_bad_eps():
    with pytest.raises(ValueError):
        hilbert_truncated(chi(0.0, 1.0), 0.0, np.array([2.0]))


def test_large_eps_sees_nothing():
    f = chi(-1.0, 1.0)
    out = hilbert_truncated(f, 100.0, np.array([0.5]))
    assert out[0] == 0.0


# -- maximal truncation -------------------------------------------------------


def test_maximal_dominates_each_truncation():
    f = PiecewiseConstant1D((-1.0, 0.0, 2.0), (1.0, -1.0))
    sched = geometric_schedule(1e-4, 1.0)
    x = np.array([-2.5, 0.7, 3.3])
    m = hilbert_maximal(f, sched, x)
    for eps in sched:
        assert np.all(m >= np.abs(hilbert_truncated(f, float(eps), x)) - 1e-15)


def test_maximal_at_least_pv_limit_off_support():
    f = chi(1.0, 2.0)
    x = np.array([4.0])
    sched = geometric_schedule(1e-6, 8.0)
    m = hilbert_maximal(f, sched, x)
    assert m[0] >= abs(hilbert(f, x)[0]) - 1e-9


def test_maximal_schedule_validation():
    for bad in ([], [0.1, math.nan], [0.1, -0.2], [0.1, 0.0]):
        with pytest.raises(ValueError, match="eps schedule must be nonempty and positive"):
            hilbert_maximal(chi(0.0, 1.0), bad, np.array([2.0]))


def test_refine_schedule_inserts_geometric_midpoints():
    s = np.array([1.0, 4.0])
    r = refine_schedule(s)
    np.testing.assert_allclose(r, [1.0, 2.0, 4.0])
    assert refine_schedule(np.array([3.0])).tolist() == [3.0]


def test_geometric_schedule_covers_and_overshoots_bounded():
    s = geometric_schedule(0.25, 64.0)
    assert s[0] == 0.25 and s[-1] >= 64.0
    assert s[-1] < 64.0 * 2.0 ** 0.25 * (1 + 1e-12)
    ratios = s[1:] / s[:-1]
    np.testing.assert_allclose(ratios, 2.0 ** 0.25, rtol=1e-12)


# -- scale covariance ---------------------------------------------------------


@settings(deadline=None, max_examples=30)
@given(k=st.integers(-20, 20))
def test_hilbert_commutes_with_dilation(k):
    # H(f(./lam))(x) = (Hf)(x/lam): dyadic lam keeps the identity bit-friendly
    lam = float(np.ldexp(1.0, k))
    f = PiecewiseConstant1D((-1.0, -0.25, 0.5, 1.0), (1.0, -1.0, 2.0))
    x = np.array([-3.0, 0.1, 0.7, 5.0])
    lhs = hilbert(f.dilate(lam), x * lam)
    rhs = hilbert(f, x)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-300)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**32 - 1))
def test_reflection_symmetry(seed):
    # with g(x) = f(-x): Hg(x) = -Hf(-x) and the same for every truncation,
    # while S_N and the maximal function are even in this sense.  The mirrored
    # sums run in reverse order, so the identities hold to rounding, not bitwise.
    rng = np.random.default_rng(seed)
    bps = np.sort(rng.uniform(-4.0, 4.0, 6))
    vals = rng.uniform(-3.0, 3.0, 5)
    f = PiecewiseConstant1D(bps, vals)
    g = PiecewiseConstant1D(-bps[::-1], vals[::-1])
    x = np.asarray(EvalGrid.filtered(g, rng.uniform(-6.0, 6.0, 16)).points)  # so -x clears f
    eps, N = rng.uniform(0.01, 2.0), rng.uniform(0.25, 16.0)
    close = dict(rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(hilbert(g, x), -hilbert(f, -x), **close)
    np.testing.assert_allclose(hilbert_truncated(g, eps, x), -hilbert_truncated(f, eps, -x), **close)
    np.testing.assert_allclose(dirichlet_sn(g, N, x), dirichlet_sn(f, N, -x), **close)
    np.testing.assert_allclose(maximal_1d_exact(g, x), maximal_1d_exact(f, -x), **close)
