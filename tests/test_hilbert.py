"""Hilbert transform of step functions: exact log formula, truncations, sup."""

import math
import warnings

import mpmath
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
from blockspaces import operators
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


def test_hilbert_checks_a_grid_cleared_for_f_once(monkeypatch):
    # a grid from for_function or filtered records f's breakpoints and
    # radius, and hilbert skips its own proximity check on it; a raw array,
    # a grid built by hand and a grid cleared for another f are checked
    f = chi(0.0, 1.0)
    g = PiecewiseConstant1D((0.0, 0.5, 1.0), (1.0, 2.0))  # 1/2 is a breakpoint of g only
    points = [0.25, 0.5, 2.0]
    checks = []
    require = operators._require_pv_clear
    monkeypatch.setattr(operators, "_require_pv_clear", lambda f, x: checks.append(x.size) or require(f, x))
    for grid in (EvalGrid.filtered(f, points), EvalGrid.for_function(f, points)):
        checks.clear()
        assert np.array_equal(hilbert(f, grid), hilbert(f, np.array(points)))
        assert checks == [3]  # the raw array's check only
    for grid in (np.array(points), EvalGrid(tuple(points)), EvalGrid.filtered(f, points)):
        with pytest.raises(DomainEvaluationError):
            hilbert(g, grid)
    # same breakpoints, other radius: the zero function clears every point
    z = PiecewiseConstant1D((0.0, 1.0), (0.0,))
    with pytest.raises(DomainEvaluationError):
        hilbert(f, EvalGrid.for_function(z, [0.5, 1.0]))


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
        # 1 +- 1e-300 rounds to 1, and H_eps chi_[1, 2](1) = (1/pi) log eps
        tiny = hilbert_truncated(chi(1.0, 2.0), 1e-300, np.array([1.0, 2.0]))
    want = math.log(8.0) / math.pi
    np.testing.assert_allclose(got, [-want, want], rtol=1e-15)
    want = math.log(1e300) / math.pi
    np.testing.assert_allclose(tiny, [-want, want], rtol=1e-14, atol=0)


def test_truncation_below_half_an_ulp_is_finite_and_silent():
    # x - eps or x + eps rounds to x, and H_eps f(x) is the value of every
    # eps below the distance to the nearest breakpoint: the clamped logs
    # never form x +- eps.  1.0 is a power of 2, so only x + eps rounds to
    # it at 2^-53, and x - eps falls on the breakpoint 1 - 2^-53
    f = PiecewiseConstant1D((-1.0, 1.0 - 2.0**-53, 2.0), (1.0, -2.0))
    x = np.array([1.5, 1.0 + 2.0**-20, 1.0, -0.5, 0.5, 3.0, 2.0**-30])
    clear = hilbert_truncated(f, float(nearest_breakpoint(x, np.asarray(f.breakpoints))[1].min()) / 2, x)
    wide = np.abs(hilbert_truncated(f, 2.0**-10, x))
    for eps in (2.0**-53, 1e-300, 5e-324):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = hilbert_truncated(f, eps, x)
            sup = hilbert_maximal(f, [2.0**-10, eps], x)
        # the logs summed are at most about 36, so a few of their ulps
        np.testing.assert_allclose(got, clear, rtol=0, atol=1e-14)
        np.testing.assert_allclose(sup, np.maximum(np.abs(clear), wide), rtol=0, atol=1e-14)


def test_subnormal_truncation_on_a_breakpoint_meets_its_closed_form():
    # eps 2^-k underflows to 0 on these breakpoints (k = 3 at 0 and 4, k = 2
    # at 1), so the floor is log eps - k log 2: H_eps chi_[0, 4] is
    # -+log(4/eps)/pi at 0 and 4, and H_eps of 1 on [0, 1], 2 on [1, 4] is
    # (log eps - 2 log 3)/pi at 1
    eps = 5e-324
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ends = hilbert_truncated(chi(0.0, 4.0), eps, np.array([0.0, 4.0]))
        step = hilbert_truncated(PiecewiseConstant1D((0.0, 1.0, 4.0), (1.0, 2.0)), eps, np.array([1.0]))
        sup = hilbert_maximal(chi(0.0, 4.0), [eps, 1.0], np.array([0.0, 4.0]))
    want = (math.log(eps) - math.log(4.0)) / math.pi
    assert want == pytest.approx(-237.4, abs=0.05)
    np.testing.assert_allclose(ends, [want, -want], rtol=1e-15, atol=0)
    np.testing.assert_allclose(sup, [-want, -want], rtol=1e-15, atol=0)
    want = (math.log(eps) - 2.0 * math.log(3.0)) / math.pi
    assert want == pytest.approx(-237.66, abs=0.005)
    np.testing.assert_allclose(step, [want], rtol=1e-15, atol=0)


def test_truncation_rejects_bad_eps():
    with pytest.raises(ValueError):
        hilbert_truncated(chi(0.0, 1.0), 0.0, np.array([2.0]))


def test_large_eps_sees_nothing():
    f = chi(-1.0, 1.0)
    out = hilbert_truncated(f, 100.0, np.array([0.5]))
    assert out[0] == 0.0
    # exactly 0 on and off the breakpoints, also where eps 2^-k would
    # overflow (a support near 1e-300 and eps = 1e10), and NaN at
    # non-finite points
    g = PiecewiseConstant1D((1e-300, 2e-300, 3e-300), (1.0, -2.0))
    x = np.array([0.0, 1e-300, 1.5e-300, 3e-300, -1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for eps in (1e10, 1e300, 4.0):
            assert hilbert_truncated(g, eps, x).tobytes() == np.zeros(x.size).tobytes(), eps
        assert hilbert_maximal(g, [1e10, 1e300], x).tobytes() == np.zeros(x.size).tobytes()
        assert hilbert_truncated(f, 2.0, [-1.0, 0.0, 1.0]).tobytes() == np.zeros(3).tobytes()
        assert np.isnan(hilbert_truncated(g, 1e10, [np.nan, np.inf, -np.inf])).all()
        assert np.isnan(hilbert_maximal(g, [1e-300, 1e10], [np.nan, np.inf, -np.inf])).all()


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


def test_geometric_schedule_octaves_are_exact():
    s = geometric_schedule(0.25, 64.0)
    assert s.size == 33 and s[-1] == 64.0
    assert s[::4].tolist() == [0.25 * 2.0**m for m in range(9)]


@settings(deadline=None, max_examples=300)
@given(lo=st.floats(1e-6, 1e6), octaves=st.floats(0.0, 20.0), k=st.integers(-30, 30))
def test_geometric_schedule_stops_at_hi_and_dilates_exactly(lo, octaves, k):
    hi = lo * 2.0**octaves
    s = geometric_schedule(lo, hi)
    assert s[0] == lo and s[-1] >= hi
    assert s.size == 1 or s[-2] < hi
    dilated = geometric_schedule(math.ldexp(lo, k), math.ldexp(hi, k))
    assert np.array_equal(dilated, np.ldexp(s, k))


# -- scale covariance ---------------------------------------------------------


@settings(deadline=None, max_examples=30)
@given(k=st.integers(-20, 20))
def test_hilbert_commutes_with_dilation(k):
    # H(f(./lam))(x) = (Hf)(x/lam): hilbert works in each point's own octave
    # scale, so a dyadic lam leaves every number it forms unchanged
    lam = float(np.ldexp(1.0, k))
    f = PiecewiseConstant1D((-1.0, -0.25, 0.5, 1.0), (1.0, -1.0, 2.0))
    x = np.array([-3.0, 0.1, 0.7, 5.0])
    lhs = hilbert(f.dilate(lam), x * lam)
    rhs = hilbert(f, x)
    assert lhs.tobytes() == rhs.tobytes()


#: dyadic numbers j / 2^8 with |j| <= 2^16: a difference of two is 0 or a
#: multiple of 2^-8 of size at most 2^9, so scaling by 2^k, |k| <= 1000,
#: keeps every point, breakpoint, level, difference and phase normal
DYADIC_INTS = st.integers(-(2**16), 2**16)
DYADIC = DYADIC_INTS.map(lambda j: math.ldexp(j, -8))
POSITIVE_DYADIC = st.integers(1, 2**16).map(lambda j: math.ldexp(j, -8))


@st.composite
def dyadic_functions(draw):
    ends = sorted(draw(st.sets(DYADIC_INTS, min_size=2, max_size=6)))
    values = draw(st.lists(DYADIC, min_size=len(ends) - 1, max_size=len(ends) - 1))
    return PiecewiseConstant1D([math.ldexp(j, -8) for j in ends], values)


@settings(deadline=None, max_examples=100)
@given(
    f=dyadic_functions(),
    x=st.lists(DYADIC, min_size=1, max_size=8),
    N=POSITIVE_DYADIC,
    eps=POSITIVE_DYADIC,
    k=st.integers(-1000, 1000),
)
def test_partial_sums_and_truncations_commute_with_power_of_two_dilation(f, x, N, eps, k):
    # D_k f = f(2^-k .) at 2^k x: every difference x - b_j is scaled by 2^k
    # exactly, N by 2^-k and eps by 2^k, so each Si phase and each clamped
    # log in its point's octave is the same number and the results agree
    # bit for bit.  H
    # scales each point by its own octave 2^k' and each breakpoint group by
    # its own 2^K, and those shift by k too.  Its points keep clear of the
    # breakpoints, which the dilation keeps
    g, y = f.dilate(math.ldexp(1.0, k)), np.ldexp(x, k)
    assert np.array_equal(dirichlet_sn(g, math.ldexp(N, -k), y), dirichlet_sn(f, N, x))
    assert np.array_equal(hilbert_truncated(g, math.ldexp(eps, k), y), hilbert_truncated(f, eps, x))
    clear = np.asarray(EvalGrid.filtered(f, x).points)
    assert hilbert(g, np.ldexp(clear, k)).tobytes() == hilbert(f, clear).tobytes()


# -- against 40-digit arithmetic ------------------------------------------------


def _mp_hilbert(f: PiecewiseConstant1D, x: float) -> float:
    """(1/pi) sum_j c_j log|x - b_j| at 40 digits, at the exact doubles x and b_j."""
    mpmath.mp.dps = 40
    c = np.diff(np.concatenate([[0.0], f.values, [0.0]]))
    terms = (mpmath.mpf(float(cj)) * mpmath.log(abs(mpmath.mpf(x) - mpmath.mpf(b))) for cj, b in zip(c, f.breakpoints))
    return float(mpmath.fsum(terms) / mpmath.pi)


def _budget(f: PiecewiseConstant1D, x: float) -> float:
    """perfbench's hilbert oracle budget: 1e-12 (sum over pieces of |v_i log|(x - a_i)/(x - b_i)|| / pi + 1)."""
    a, b, v = np.asarray(f.breakpoints[:-1]), np.asarray(f.breakpoints[1:]), np.asarray(f.values)
    terms = v * (np.log(np.abs(x - a)) - np.log(np.abs(x - b))) / math.pi
    return 1e-12 * (float(np.sum(np.abs(terms))) + 1.0)


def _log_uniform_points(f: PiecewiseConstant1D, rng, count: int = 100) -> np.ndarray:
    """count points of both signs, |x| log-uniform over 2^-40 .. 2^60 times f's support radius."""
    radius = max(abs(b) for b in f.breakpoints)
    x = radius * np.exp2(rng.uniform(-40.0, 60.0, count)) * rng.choice([-1.0, 1.0], count)
    return np.asarray(EvalGrid.filtered(f, x).points)


NONNEGATIVE = {
    "canonical block": PiecewiseConstant1D((-1.0, -0.5, 0.5, 1.0), (1.0, 0.0, 1.0)),
    "indicator": chi(1.0, 2.0),
    **{
        f"steps {seed}": PiecewiseConstant1D(
            np.sort(np.random.default_rng(seed).uniform(-3.0, 3.0, 7)), np.random.default_rng(seed).uniform(0.0, 2.0, 6)
        )
        for seed in range(3)
    },
}


@pytest.mark.parametrize("name", sorted(NONNEGATIVE))
def test_hilbert_of_nonnegative_f_is_relatively_exact(name):
    # off the hull of the support Hf of f >= 0 has one sign and is as large
    # as (1/pi) int f / |x| far out, so its relative error is the measure:
    # the far breakpoints go by their series and never cancel two logs of
    # nearly equal size (the plain log sum erred by 1.5e-2 on the block at
    # |x| = 2.2e12).  Inside the hull Hf has zeros; there the budget holds
    f = NONNEGATIVE[name]
    x = _log_uniform_points(f, np.random.default_rng(len(name)))
    lo, hi = f.breakpoints[0], f.breakpoints[-1]
    for xi, got in zip(x.tolist(), hilbert(f, x).tolist()):
        want = _mp_hilbert(f, xi)
        if lo <= xi <= hi:
            assert abs(got - want) <= _budget(f, xi), xi
        else:
            assert abs(got - want) <= 1e-15 * abs(want), xi


@pytest.mark.parametrize("x", [2.165e12, -2.165e12, 1e-9, -1e-9])
def test_canonical_block_far_and_near_zero(x):
    # claim 3.1's k = 0 block on its outer shells and deep in its gap: the
    # plain log sum erred there by 1.5e-2 and 2.8e-8 relative
    f = NONNEGATIVE["canonical block"]
    want = _mp_hilbert(f, x)
    assert abs(hilbert(f, np.array([x]))[0] - want) <= 1e-15 * abs(want)


@pytest.mark.parametrize("seed", range(3))
def test_hilbert_of_signed_f_is_within_the_oracle_budget(seed):
    # a signed f may make Hf vanish anywhere: the error is measured against
    # perfbench's budget, 1e-12 (sum of |piece terms| + 1)
    rng = np.random.default_rng(50 + seed)
    f = PiecewiseConstant1D(np.sort(rng.uniform(-3.0, 3.0, 9)), rng.standard_normal(8))
    x = _log_uniform_points(f, rng)
    for xi, got in zip(x.tolist(), hilbert(f, x).tolist()):
        assert abs(got - _mp_hilbert(f, xi)) <= _budget(f, xi), xi


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


@st.composite
def step_functions(draw):
    ends = sorted(draw(st.sets(st.floats(-8.0, 8.0), min_size=2, max_size=7)))
    size = len(ends) - 1
    values = draw(st.lists(st.floats(-10.0, 10.0), min_size=size, max_size=size))
    return PiecewiseConstant1D(ends, values)


def jumps(f):
    """f's breakpoints b_j and its jumps c_j there, f being 0 outside its support."""
    return np.asarray(f.breakpoints), np.diff(np.concatenate([[0.0], f.values, [0.0]]))


#: a subnormal jump rounds by an absolute 2^-1074 that no budget relative to
#: the jumps covers: H's and H_eps's budgets give each jump this floor
SUBNORMAL_FLOOR = 4 * 2.0**-1074

#: each operator and its rounding budget, given the differences d = x - b_j
#: and the sizes |c_j| of the jumps.  H and H_eps are jump sums
#: (1/pi) sum_j c_j K(x - b_j) with K = log|.| or log max(|.|, eps), so each
#: jump weighs 1e-13 (1 + |K|), plus the floor; S_N's kernel Si is bounded,
#: so its budget is 1e-13 (1 + sum_j |c_j|)
LINEARITY = {
    "hilbert": (
        lambda f, x, N, eps: hilbert(f, x),
        lambda d, c, eps: (1e-13 * c * (1.0 + np.abs(np.log(np.abs(d)))) + SUBNORMAL_FLOOR).sum(axis=1),
    ),
    "hilbert_truncated": (
        lambda f, x, N, eps: hilbert_truncated(f, eps, x),
        lambda d, c, eps: (
            1e-13 * c * (1.0 + np.abs(np.log(np.maximum(np.abs(d), eps)))) + SUBNORMAL_FLOOR
        ).sum(axis=1),
    ),
    "dirichlet_sn": (lambda f, x, N, eps: dirichlet_sn(f, N, x), lambda d, c, eps: 1e-13 * (1.0 + c.sum())),
}


@settings(deadline=None, max_examples=200)
@given(
    f=step_functions(),
    g=step_functions(),
    c=st.floats(-10.0, 10.0),
    x=st.lists(st.floats(-12.0, 12.0), min_size=1, max_size=16),
    N=st.floats(1.0 / 16.0, 64.0),
    eps=st.floats(1e-3, 4.0),
)
def test_operators_are_linear_to_rounding(f, g, c, x, N, eps):
    # T(f + c g)(x) = Tf(x) + c Tg(x) within each operator's budget for the
    # jumps of f and c g, at the points x and the breakpoints; H's points
    # stay 2^-10 clear of the breakpoints
    bps, cs = (np.concatenate(a) for a in zip(jumps(f), jumps(g * c)))
    everywhere = np.concatenate([x, bps])
    clear = everywhere[np.abs(everywhere[:, None] - bps).min(axis=1) > 2.0**-10]
    for name, (apply, budget) in LINEARITY.items():
        pts = clear if name == "hilbert" else everywhere
        lhs = apply(f + g * c, pts, N, eps)
        rhs = apply(f, pts, N, eps) + c * apply(g, pts, N, eps)
        bound = budget(pts[:, None] - bps, np.abs(cs), eps)
        assert np.all(np.abs(lhs - rhs) <= bound), name
