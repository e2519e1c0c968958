"""Frequency cutoffs S_N and the running sup over N.

The sine-integral evaluator is primary; the spectral route exists to
cross-check it.  Route-agreement bounds here assert the measured sampling
error of the spectral route (one straddled grid cell per jump: O(h) in L^inf
near jumps, O(h^2) at fixed interior points), not an idealized rate.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockspaces import (
    DomainEvaluationError,
    PiecewiseConstant1D,
    carleson,
    dirichlet_sn,
    dirichlet_sn_via_hilbert,
    geometric_schedule,
    hilbert_maximal,
    modulate,
    operators,
    refine_schedule,
    sine_integral,
)

chi = PiecewiseConstant1D.indicator


def sn_indicator(a, b, N, x):
    z = 2.0 * math.pi * N
    return (sine_integral(z * (x - a)) - sine_integral(z * (x - b))) / math.pi


def test_midpoint_anchor():
    # S_N chi_{[a,b]} at the midpoint = (2/pi) Si(pi N (b-a))
    got = dirichlet_sn(chi(1.0, 2.0), 3.0, np.array([1.5]))[0]
    assert math.isclose(got, 2.0 / math.pi * sine_integral(3.0 * math.pi), rel_tol=1e-13)


def test_matches_quadrature_oracle():
    # brute-force int_a^b sin(2 pi N (x-y))/(pi (x-y)) dy on a fine grid
    f = chi(-0.5, 1.0)
    N, x = 2.0, 0.7
    y = np.linspace(-0.5, 1.0, 200_001)
    y = 0.5 * (y[:-1] + y[1:])
    w = 1.5 / y.size
    kern = np.sin(2.0 * math.pi * N * (x - y)) / (math.pi * (x - y))
    want = np.sum(kern) * w
    got = dirichlet_sn(f, N, np.array([x]))[0]
    assert math.isclose(got, want, abs_tol=5e-9)


def test_pointwise_convergence_at_continuity_points():
    f = chi(-1.0, 1.0)
    x = np.array([0.0, 0.5, 2.0])
    errs = [np.abs(dirichlet_sn(f, 2.0 ** j, x) - f(x)).max() for j in (4, 8, 12)]
    assert errs[2] < errs[0] and errs[2] < 1e-3


def test_jump_points_are_admissible_and_converge_to_mean():
    # S_N is entire, and at a jump it tends to the two-sided mean
    f = chi(0.0, 1.0)
    got = dirichlet_sn(f, 2.0 ** 14, np.array([0.0]))[0]
    assert abs(got - 0.5) < 1e-3


def test_rejects_nonpositive_frequency():
    with pytest.raises(ValueError):
        dirichlet_sn(chi(0.0, 1.0), 0.0, np.array([0.5]))


def test_zero_function():
    out = dirichlet_sn(PiecewiseConstant1D.zero(), 4.0, np.array([0.0, 1.0]))
    np.testing.assert_array_equal(out, [0.0, 0.0])


def test_far_points_where_the_phase_overflows_give_zero():
    # 2 pi N (x - b) overflows to +-inf there, and Si(+-inf) = +-pi/2 cancels
    # across each jump pair, so S_N f and its sup over N are 0, not NaN
    x = np.array([-1e308, 1e308])
    with np.errstate(over="ignore"):
        sn = dirichlet_sn(chi(1.0, 2.0), 8.0, x)
        sup = carleson(chi(1.0, 2.0), geometric_schedule(1.0, 8.0), x)
    np.testing.assert_array_equal(sn, [0.0, 0.0])
    np.testing.assert_array_equal(sup, [0.0, 0.0])


def test_modulation_preserves_magnitude():
    rng = np.random.default_rng(0)
    v = rng.standard_normal(64)
    x = np.linspace(-1, 1, 64)
    w = modulate(v, x, 7.5)
    np.testing.assert_allclose(np.abs(w), np.abs(v), rtol=1e-14)
    back = modulate(w, x, -7.5)
    np.testing.assert_allclose(back.real, v, atol=1e-14)


# -- spectral cross-check route -------------------------------------------------


def test_routes_agree_at_measured_resolution():
    f = chi(-0.25, 0.25)
    N, L = 4.0, 64.0
    for m, bound in ((12, 5e-2), (16, 1e-3)):
        spec = dirichlet_sn_via_hilbert(f, N, m=m, L=L)
        keep = np.abs(np.abs(spec.x) - 0.25) > 2.0 * L / (1 << m)
        exact = dirichlet_sn(f, N, spec.x[keep])
        err = np.abs(spec.values[keep] - exact).max()
        assert err < bound
    # two extra dyadic levels buy roughly 16x; require at least 10x
    e12 = np.abs(
        dirichlet_sn_via_hilbert(f, N, m=12, L=L).values
        - dirichlet_sn(f, N, -L + 2.0 * L / 4096 * np.arange(4096))
    ).max()
    e16 = np.abs(
        dirichlet_sn_via_hilbert(f, N, m=16, L=L).values
        - dirichlet_sn(f, N, -L + 2.0 * L / 65536 * np.arange(65536))
    ).max()
    assert e16 * 10.0 < e12


def test_band_limited_input_identity():
    # a trigonometric polynomial below both the cutoff and the band limit is
    # reproduced exactly: S_N acts as the identity on it
    N, m, L = 4.0, 12, 64.0
    M = 1 << m
    x = -L + 2.0 * L / M * np.arange(M)

    class Trig:
        support_bounds = None

        def __call__(self, t):
            t = np.asarray(t, dtype=float)
            return np.cos(2.0 * math.pi * 1.5 * t) + 0.25 * np.sin(2.0 * math.pi * 3.0 * t)

    spec = dirichlet_sn_via_hilbert(Trig(), N, m=m, L=L)
    want = Trig()(spec.x)
    assert np.abs(spec.values - want).max() < 1e-8


def test_band_limit_enforced():
    with pytest.raises(DomainEvaluationError):
        dirichlet_sn_via_hilbert(chi(0.0, 1.0), 16.0, m=8, L=64.0)  # limit = 1


def test_incommensurate_frequency_warns():
    spec = dirichlet_sn_via_hilbert(chi(0.0, 1.0), 0.3, m=10, L=8.0)
    assert any("multiple" in w for w in spec.warnings)
    clean = dirichlet_sn_via_hilbert(chi(0.0, 1.0), 0.5, m=10, L=8.0)
    assert not any("multiple" in w for w in clean.warnings)


def test_wide_support_warns():
    spec = dirichlet_sn_via_hilbert(chi(-40.0, 40.0), 1.0, m=10, L=64.0)
    assert any("period" in w for w in spec.warnings)


# -- running supremum -----------------------------------------------------------


def test_carleson_anchor_value():
    # sup_N |S_N chi_{[1,2]}|(3/2) = (2/pi) Si(pi), attained as N -> odd integers
    f = chi(1.0, 2.0)
    sched = geometric_schedule(0.25, 64.0)
    got = carleson(f, sched, np.array([1.5]), refine_tolerance=1e-8)[0]
    want = 2.0 / math.pi * sine_integral(math.pi)
    assert math.isclose(got, want, abs_tol=1e-6)


def test_carleson_dominates_every_partial_sum():
    f = PiecewiseConstant1D((-1.0, 0.5, 2.0), (1.0, -0.5))
    sched = geometric_schedule(0.5, 32.0)
    x = np.array([-1.7, 0.2, 1.1, 3.0])
    c = carleson(f, sched, x)
    for N in sched:
        assert np.all(c >= np.abs(dirichlet_sn(f, float(N), x)) - 1e-15)


def test_carleson_monotone_under_refinement():
    f = chi(0.0, 1.0)
    x = np.array([0.3, 2.0])
    sched = 2.0 ** np.arange(6)
    coarse = carleson(f, sched, x)
    fine = carleson(f, sched, x, refine_tolerance=0.0, max_refinements=2)
    assert np.all(fine >= coarse - 1e-15)


def test_carleson_refinement_evaluates_only_inserted_levels(monkeypatch):
    # 33 levels, then the 32 midpoints of one doubling: 65 S_N evaluations
    # where re-evaluating the whole refined schedule would take 33 + 65
    f = chi(1.0, 2.0)
    sched = geometric_schedule(0.25, 64.0)
    x = np.array([0.5, 1.0, 1.5, 2.0, 3.0])
    calls = []

    def counting_sn(f, N, grid):
        calls.append(N)
        return dirichlet_sn(f, N, grid)

    monkeypatch.setattr(operators, "dirichlet_sn", counting_sn)
    got = carleson(f, sched, x, refine_tolerance=100.0)
    assert len(calls) == 65 == len(set(calls))
    assert np.array_equal(got, carleson(f, refine_schedule(sched), x))


def test_carleson_refines_the_sorted_schedule():
    # refinement splits the gaps between neighbouring levels, so their order must not matter
    f = chi(1.0, 2.0)
    x = np.linspace(-3.0, 5.0, 41) + 0.013
    want = carleson(f, [0.5, 1.0, 3.0, 7.0], x, refine_tolerance=1.0)
    for sched in ([3.0, 0.5, 7.0, 1.0], [0.5, 1.0, 1.0, 3.0, 7.0]):
        assert np.array_equal(carleson(f, sched, x, refine_tolerance=1.0), want)


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 2**32 - 1))
def test_sups_ignore_schedule_order_and_repeats(seed):
    # both sup operators take any permutation or duplication of their levels
    # to the same bits; carleson refines between sorted neighbours
    rng = np.random.default_rng(seed)
    f = PiecewiseConstant1D(np.sort(rng.uniform(-4.0, 4.0, 5)), rng.uniform(-3.0, 3.0, 4))
    x = rng.uniform(-6.0, 6.0, 12)
    sched = rng.uniform(1e-3, 16.0, 6)
    shuffled = rng.permutation(np.concatenate([sched, rng.choice(sched, 3)]))
    sups = [lambda s: hilbert_maximal(f, s, x)]
    sups += [lambda s, t=t: carleson(f, s, x, refine_tolerance=t, max_refinements=1) for t in (None, 0.0)]
    for sup in sups:
        assert np.array_equal(sup(shuffled), sup(np.sort(sched)))


def test_carleson_schedule_validation():
    for bad in ([], [1.0, -2.0], [1.0, 0.0], [1.0, math.nan]):
        with pytest.raises(ValueError, match="N schedule must be nonempty and positive"):
            carleson(chi(0.0, 1.0), bad, np.array([0.5]))


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 2**32 - 1), j=st.integers(-8, 8))
def test_partial_sums_commute_with_dyadic_dilation(seed, j):
    # S_N f(x) = S_{N/2^j} f(./2^j)(2^j x) bit for bit: every Si argument is the
    # same product with one factor scaled by 2^-j and the other by 2^j
    rng = np.random.default_rng(seed)
    f = PiecewiseConstant1D(np.sort(rng.uniform(-4.0, 4.0, 6)), rng.uniform(-3.0, 3.0, 5))
    N = rng.uniform(0.25, 16.0)
    x = rng.uniform(-6.0, 6.0, 16)
    lam = 2.0 ** j
    assert np.array_equal(dirichlet_sn(f.dilate(lam), N / lam, x * lam), dirichlet_sn(f, N, x))
    sched = 0.5 * 2.0 ** np.arange(6)
    got = carleson(f.dilate(lam), sched / lam, x * lam, refine_tolerance=1e-12, max_refinements=2)
    assert np.array_equal(got, carleson(f, sched, x, refine_tolerance=1e-12, max_refinements=2))
