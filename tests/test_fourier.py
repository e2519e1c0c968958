"""Frequency cutoffs S_N and the running sup over N.

The sine-integral evaluator is primary; the spectral route exists to
cross-check it.  Route-agreement bounds here assert the measured sampling
error of the spectral route (one straddled grid cell per jump: O(h) in L^inf
near jumps, O(h^2) at fixed interior points), not an idealized rate.

e(N) and claim 3.1's dirichlet_sn leg integrate dirichlet_sn (minus f) on
their near zones, on panels streamed in chunks: the chunks must hold the
panels of oscillation_edges, bit for bit, and the leg must keep the norms of
quadrature on every panel of [-1024, 1024] where its integrand has no kink.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockspaces import (
    DomainEvaluationError,
    PiecewiseConstant1D,
    WeightParams,
    carleson,
    dirichlet_sn,
    dirichlet_sn_via_hilbert,
    geometric_schedule,
    hilbert_maximal,
    make_canonical_block,
    modulate,
    operators,
    refine_schedule,
    sine_integral,
    verify,
)
from blockspaces.quadrature import (
    _gl_rule,
    _grading,
    _node_rows,
    _uniform_edges,
    oscillation_edges,
    panel_nodes,
    weighted_norm_from_samples,
)
from blockspaces.verify import _PANEL_CHUNK, _X_MAX, _edge_chunks, _partial_sum_integrals

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
    calls, sup = [], operators._sn_rows

    def counting_sup(bps, values, levels, x):
        calls.extend(levels)
        return sup(bps, values, levels, x)

    monkeypatch.setattr(operators, "_sn_rows", counting_sup)
    got = carleson(f, sched, x, refine_tolerance=100.0)
    assert len(calls) == 65 == len(set(calls))
    assert np.array_equal(got, carleson(f, refine_schedule(sched), x))



def test_a_nan_point_does_not_hold_carleson_refinement_open(monkeypatch):
    # a NaN point's sup moves by NaN at every doubling, and NaN is below no
    # tolerance: refinement must stop on the other points as it does
    # without it, here after one doubling, not run to its cap of 8
    f = PiecewiseConstant1D((0.0, 1.0, 3.0), (1.0, -2.0))
    (r,) = carleson(f, [1.0, 2.0], [0.5], refine_tolerance=1e-3)
    calls, rows = [], operators._sn_rows

    def counting_rows(bps, values, levels, x):
        calls.append(len(levels))
        return rows(bps, values, levels, x)

    monkeypatch.setattr(operators, "_sn_rows", counting_rows)
    for x, want in (([0.5], [r]), ([np.nan, 0.5], [np.nan, r]), ([], [])):
        calls.clear()
        got = carleson(f, [1.0, 2.0], x, refine_tolerance=1e-3)
        assert calls == [2, 1], x
        np.testing.assert_array_equal(got, want)

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


# -- the panels of e(N) and of claim 3.1's dirichlet_sn leg ------------------------


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("nodes", [4, 8, 16, 24])
def test_node_rows_are_the_broadcast_formula(nodes):
    # x = c + r t_k and w = r w_k per panel of centre c and half-width r,
    # bit for bit, panel-major from panel_nodes and node-major from _node_rows
    rng = np.random.default_rng(nodes)
    edges = np.unique(np.concatenate([rng.uniform(-300.0, 300.0, 200), rng.uniform(-1e-3, 1e-3, 57)]))
    t, w = _gl_rule(nodes)
    centers, halfw = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    want_x, want_w = centers[:, None] + halfw[:, None] * t[None, :], halfw[:, None] * w[None, :]
    x, wts = panel_nodes(edges, nodes)
    assert np.array_equal(bits(x), bits(want_x.ravel())) and np.array_equal(bits(wts), bits(want_w.ravel()))
    rows_x, rows_w = np.empty((nodes, edges.size - 1)), np.empty((nodes, edges.size - 1))
    _node_rows(edges, rows_x, rows_w)
    assert np.array_equal(bits(rows_x), bits(want_x.T)) and np.array_equal(bits(rows_w), bits(want_w.T))


def streamed_edges(bps, x_max, spacing):
    """The edges of _edge_chunks, each chunk's first edge dropped after the first chunk; checks the chunk size."""
    chunks = list(_edge_chunks(bps, x_max, spacing))
    assert all(chunk.size - 1 <= _PANEL_CHUNK for chunk in chunks)
    assert all(a[-1] == b[0] for a, b in zip(chunks, chunks[1:]))
    return np.concatenate([chunks[0], *(chunk[1:] for chunk in chunks[1:])])


def _assert_chunks_are_the_oscillation_panels(N, x_max, sub):
    # breakpoints off the lattice (1/(4N sub))Z, one past 256 and one at 0;
    # the edges have oscillation_edges' bits, up to the sign of 0, which
    # np.unique keeps from either of -0 and +0 and no node depends on
    f = PiecewiseConstant1D((-300.0, -1.0 / 3.0, 0.0, 0.7, 255.99), (1.0, 2.0, 3.0, -1.0))
    got = streamed_edges(f.breakpoints, x_max, 1.0 / (4.0 * N * sub))
    want = oscillation_edges(f.breakpoints, x_max, 1.0 / (4.0 * N * sub))
    assert got.size == want.size and np.array_equal(bits(got + 0.0), bits(want + 0.0))


@pytest.mark.parametrize("N", [1.0, 3.0, 1024.0])
def test_lattice_and_other_panels_are_the_oscillation_panels(N):
    # e(N)'s panels, one per cell of width 1/(4N): N = 3 also has the
    # grading edge 1/8 inside a cell, and N = 1024 streams 1025 chunks
    _assert_chunks_are_the_oscillation_panels(N, _X_MAX, 1)


@pytest.mark.parametrize("N", [1.0, 3.0, 1024.0])
def test_two_panel_cells_are_the_oscillation_panels(N):
    # as claim 3.1's dirichlet_sn leg takes them at N = 1: two panels per
    # cell of width 1/(4N), out to 1024 (to 64 at N = 1024, 2^19 panels a
    # side, so that the reference stays small)
    _assert_chunks_are_the_oscillation_panels(N, min(1024.0, 65536.0 / N), 2)


@pytest.mark.parametrize("N", [*(2.0**j for j in range(11)), 0.25, 3.0, 161 / 1024])
def test_lattice_edges_are_the_uniform_edges(N):
    # every N of claim 6.3's schedule, and others with 1024N an integer: the
    # uniform edges l fl(256 / 1024N) of the chunks are np.linspace's, bit for
    # bit; at N = 161/1024 the last edge 161 fl(1/(4N)) is not 256 but linspace's is
    got = streamed_edges((), _X_MAX, 1.0 / (4.0 * N))
    want = _uniform_edges(_X_MAX, 1.0 / (4.0 * N))
    assert want.size - 1 == 1024 * N
    positive = got[got > 0]
    assert positive.tobytes() == np.union1d(want[1:], _grading(_X_MAX)).tobytes()
    assert (-got[got < 0][::-1]).tobytes() == positive.tobytes()


@pytest.mark.parametrize("N, want", [(3.0, "0x1.22be70a1489b3p+0"), (161 / 1024, "0x1.069cb7eb63a48p+3")])
def test_partial_sum_integrals_keep_their_bits(N, want):
    # breakpoints off the lattice (1/(4N))Z and, at N = 3, the grading edge
    # 1/8 split cells of width 1/(4N) on [-256, 256]; every panel goes through
    # dirichlet_sn - f and each chunk adds its sum
    f = PiecewiseConstant1D((-300.0, -1.0 / 3.0, 0.0, 0.7, 255.99), (1.0, 2.0, 3.0, -1.0))
    ((total,),) = _partial_sum_integrals([f], [(1.0, -0.5)], N, _X_MAX, 1)
    assert total.hex() == want


def test_non_lattice_N_keeps_its_bits():
    # 1024 N = 307.2 is no integer: its 700 panels are one chunk, one sum as before
    ((total,),) = _partial_sum_integrals([chi(0.25, 0.5)], [(1.0, -0.5)], 0.3, _X_MAX, 1)
    assert total == 0.9854439963904995


# -- claim 3.1's dirichlet_sn leg ----------------------------------------------------

LEG_SCALES = list(range(verify._K_RANGE[0], verify._K_RANGE[1] + 1))


def test_sn_leg_norms_match_the_per_block_route():
    # at p = 2, alpha = 0, |S_1 f|^2 has no kinks, and the leg's near zone
    # plus closed-form tails to +-1024 must keep the norms of dirichlet_sn on
    # every node of the leg's panels on [-1024, 1024], weighed per block:
    # within 1e-13 relative at every scale (measured: 3.5e-14).  At p = 1 and
    # 1/2 that reference is off by the kinks of |S_1 f| that its panels cut
    # across, and the closed-form tails are not (tools/e_tail_audit.py --leg)
    x_max, spacing, nodes = (verify._SN_PANELS[key] for key in ("x_max", "spacing", "nodes"))
    params = WeightParams(1, 2.0, 2.0, 0.0)
    got = verify._block_norms("dirichlet_sn", (params,), LEG_SCALES)[0]
    for k, norm in zip(LEG_SCALES, got, strict=True):
        f = make_canonical_block(params, k).data
        x, w = panel_nodes(oscillation_edges(f.breakpoints, x_max, spacing), nodes)
        want = weighted_norm_from_samples(dirichlet_sn(f, verify._SN_N, x), x, w, 2.0, 0.0)
        assert abs(norm / want - 1.0) <= 1e-13, k


def test_partial_sum_integrals_are_per_function():
    # a function's integrals have the same bits whatever functions share the
    # call, in both modes and for the pairs in any order
    rng = np.random.default_rng(7)
    fs = [chi(0.25, 0.5), PiecewiseConstant1D((-1.0, -0.5, 0.5, 1.0), (1.0, 0.0, 1.0))]
    fs += [PiecewiseConstant1D(np.sort(rng.uniform(-3.0, 3.0, 4)), rng.standard_normal(3)) for _ in range(9)]
    pairs = [(1.0, -0.5), (0.5, -0.75), (2.0, 0.0)]
    for minus_f in (True, False):
        together = _partial_sum_integrals(fs, pairs, 2.0, 8.0, 2, minus_f)
        for f, row in zip(fs, together):
            alone = _partial_sum_integrals([f], pairs[::-1], 2.0, 8.0, 2, minus_f)[0][::-1]
            assert row.tobytes() == alone.tobytes()


# -- dirichlet_sn's interpolation route -------------------------------------------


@st.composite
def routed_cases(draw):
    """(f, N, x): a seeded step function and points that dirichlet_sn routes through its interpolant.

    100 to 300 breakpoints on [-2, 2] and 600 to 2000 points on a span
    that may hold all of them, some or none, and may lie far from 0.  Among
    the points are repeated ones, breakpoints, interior Chebyshev nodes of
    the span, NaN and +-inf.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bps = np.unique(rng.uniform(-2.0, 2.0, draw(st.integers(100, 300))))
    f = PiecewiseConstant1D(bps, rng.standard_normal(bps.size - 1) * draw(st.sampled_from([1e-3, 1.0, 1e3])))
    N = draw(st.sampled_from([2.0**-20, 2.0**-6, 0.25, 1.0]))
    center = draw(st.sampled_from([0.0, 0.5, -1.5, 1000.0]))
    half = draw(st.sampled_from([0.25, 1.0, 2.0]))
    x = rng.uniform(center - half, center + half, draw(st.integers(600, 2000)))
    route = operators._sn_nodes(bps, np.asarray(f.values), N, x)
    assert route is not None  # every drawn shape meets the dispatch rule
    c, h, n = route
    nodes = c + h * np.sin(0.5 * math.pi * (2 * np.arange(1, n) - n) / n)
    inside = bps[(bps > x.min()) & (bps < x.max())]
    extra = [x[: draw(st.integers(0, 20))], nodes[: draw(st.integers(0, n - 1))], inside[: draw(st.integers(0, 20))]]
    extra.append(np.array(draw(st.lists(st.sampled_from([math.nan, math.inf, -math.inf]), max_size=4))))
    x = np.concatenate([x, *extra])
    return f, N, rng.permutation(x)


@settings(deadline=None, max_examples=60)
@given(case=routed_cases())
def test_routed_sn_is_the_direct_kernel_within_its_bound(case):
    # the interpolant is within 2^-53 sum |c_j| of S_N f (_sn_degree's bound)
    # and the direct kernel within its rounding; 16 units of 2^-53 sum |c_j|
    # cover both roundings (the direct sum's, and its data's times the
    # Lebesgue constant, below 6 at n <= 1000).  Measured: at most 3.1 units
    # over 400 such cases.  A non-finite point takes the direct kernel on the
    # non-finite points alone: NaN at NaN, sum c_j (+-1/2) at +-inf
    f, N, x = case
    c = np.abs(np.diff(np.asarray(f.values), prepend=0.0, append=0.0)).sum()
    got, want = dirichlet_sn(f, N, x), operators._sn_rows(*operators._one_row(f), [N], x, sup=False)[0]
    number = ~np.isnan(x)
    assert np.array_equal(np.isnan(got), ~number) and np.array_equal(np.isnan(want), ~number)
    assert np.all(np.abs(got[number] - want[number]) <= (1.0 + 16.0) * 2.0**-53 * c)
    # the route is dilation covariant: every node, phase and z scales exactly
    assert dirichlet_sn(f.dilate(0.25), 4.0 * N, 0.25 * x).tobytes() == got.tobytes()


def test_routed_sn_takes_si_at_the_nodes_alone(monkeypatch):
    # large-input's shape: 1024 pieces over 2^-6 < |x| < 2^8 and 2048 points
    # over the same range, at N = 2^-10 and 2^-9.  The direct kernel passes
    # 2048 x 1025 arguments to sine_integral; the route passes (n + 1) x 1025,
    # with n = 18 and 23 for this seed
    rng = np.random.default_rng(0)

    def spread(count):
        return np.exp2(rng.uniform(-6.0, 8.0, count)) * rng.choice((-1.0, 1.0), count)

    bps = np.unique(spread(1025))
    f = PiecewiseConstant1D(bps, np.round(rng.standard_normal(bps.size - 1), 6))
    x = spread(2048)
    seen, si = [], operators.sine_integral
    monkeypatch.setattr(operators, "sine_integral", lambda t: seen.append(np.size(t)) or si(t))
    for N in (2.0**-10, 2.0**-9):
        seen.clear()
        dirichlet_sn(f, N, x)
        _, _, n = operators._sn_nodes(bps, np.asarray(f.values), N, x)
        assert n + 1 <= 32 and 0 < sum(seen) <= (n + 1) * bps.size, (n, seen)
