"""Frequency cutoffs S_N and the running sup over N.

The sine-integral evaluator is primary; the spectral route exists to
cross-check it.  Route-agreement bounds here assert the measured sampling
error of the spectral route (one straddled grid cell per jump: O(h) in L^inf
near jumps, O(h^2) at fixed interior points), not an idealized rate.

e(N)'s lattice kernel evaluates S_N f - f at the exact points of the lattice
Z/(4N) from exact phases; it must agree with dirichlet_sn - f at the nearest
doubles, and with 40-digit mpmath, and e(N)'s panels must be those of
oscillation_edges.
"""

import math
from fractions import Fraction

import mpmath
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
from blockspaces.operators import _sn_error_on_lattice
from blockspaces.quadrature import (
    _gl_rule,
    _node_rows,
    _uniform_edges,
    oscillation_edges,
    panel_nodes,
    weighted_norm_from_samples,
)
from blockspaces.verify import (
    _E_NODES,
    _X_MAX,
    _cell_nodes,
    _cell_panel_nodes,
    _lattice_edges,
    _lattice_panels,
    _partial_sum_integrals,
    partial_sum_error_norm,
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


# -- e(N)'s lattice kernel ------------------------------------------------------

GL_NODES = _gl_rule(_E_NODES)[0]


def lattice_kernel(bps, values, N, first, panels, width=None):
    """The kernel's values of each row over all its chunks, as a (rows x panels x nodes) array."""
    chunks = _sn_error_on_lattice(np.atleast_2d(bps), np.atleast_2d(values), N, first, panels, GL_NODES, width)
    return np.concatenate([err.copy() for _, err in chunks], axis=2).transpose(0, 2, 1)


def lattice_points(N, first, panels):
    """The exact points (l + (1 + t_k)/2) / (4N) of the kernel's rows, in its order."""
    h = 1 / (4 * Fraction(N))
    return [(l + (1 + Fraction(t)) / 2) * h for l in range(first, first + panels) for t in GL_NODES.tolist()]


@st.composite
def lattice_cases(draw):
    """N, a step function with breakpoints on and off the lattice Z/(4N), some past +-256, and panels."""
    N = draw(st.sampled_from([0.25, 1.0, 3.0, 64.0]))
    reach = int(1.2 * 4 * N * _X_MAX)
    on = draw(st.lists(st.integers(-reach, reach), max_size=4))
    off = draw(st.lists(st.floats(-1.2 * _X_MAX, 1.2 * _X_MAX), max_size=4))
    bps = sorted({float(k / (4 * Fraction(N))) for k in on} | set(off))
    if len(bps) < 2:
        bps = [-300.0, 0.3]
    values = draw(st.lists(st.floats(-10.0, 10.0), min_size=len(bps) - 1, max_size=len(bps) - 1))
    # the panels next to a breakpoint (|t| < 44 and the 22-term rows) or anywhere
    near = math.floor(4 * N * draw(st.sampled_from(bps))) + draw(st.integers(-720, 80))
    first = draw(st.one_of(st.just(near), st.integers(-reach, reach)))
    return N, PiecewiseConstant1D(bps, values), first, draw(st.integers(1, 140))


@settings(deadline=None, max_examples=150)
@given(case=lattice_cases())
def test_lattice_kernel_equals_dirichlet_sn_minus_f(case):
    # at the double x nearest each exact lattice point x*: the budget per
    # jump c_j is |c_j| 2^-45 for the two routes' rounding (Si errs by up to
    # 40 ulps of 1 on its Maclaurin branch, in each route), 4 * 2^-1074 for a
    # subnormal c_j, and 2N |c_j| |x - x*|, as |d/dx Si(2 pi N (x - b))| <=
    # 2 pi N.  Points with a breakpoint in [x, x*] are left out: f jumps there
    N, f, first, panels = case
    exact = lattice_points(N, first, panels)
    x = np.array([float(p) for p in exact])
    offset = np.array([float(abs(Fraction(xf) - p)) for xf, p in zip(x.tolist(), exact)])
    bps = np.asarray(f.breakpoints)
    got = lattice_kernel(bps, f.values, N, first, panels).ravel()
    want = dirichlet_sn(f, N, x) - f(x)
    jumps = np.abs(np.diff(np.concatenate([[0.0], f.values, [0.0]]))).sum()
    budget = jumps * (2.0**-45 + 2.0 * N * offset) + 4 * 2.0**-1074 * len(f.breakpoints)
    between = np.array([any(min(xf, p) <= b <= max(xf, p) for b in f.breakpoints) for xf, p in zip(x, exact)])
    assert np.all((np.abs(got - want) <= budget) | between)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@settings(deadline=None, max_examples=60)
@given(case=lattice_cases(), data=st.data())
def test_lattice_value_is_the_value_alone(case, data):
    # a value depends on its lattice point, node and offset alone: not on the
    # range or the cuts it is asked for (some ranges cross the kernel's chunks
    # of 8192 cells), nor on a second row whose breakpoints share f's offsets
    # (f's own breakpoints, their mirrors, lattice points) or have others,
    # some so far that 4N b_j is beyond int64
    N, f, first, panels = case
    panels = data.draw(st.one_of(st.just(panels), st.integers(8000, 17000)))
    h = 1 / (4 * Fraction(N))
    shared = [*f.breakpoints, *(-b for b in f.breakpoints), *(float(k * h) for k in range(-40, 40))]
    other = st.one_of(st.sampled_from(shared), st.floats(-1.2 * _X_MAX, 1.2 * _X_MAX), st.sampled_from([-1e200, 2.0**70]))
    size = len(f.breakpoints)
    g_bps = sorted(data.draw(st.lists(other, min_size=size, max_size=size, unique=True)))
    g_values = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=size - 1, max_size=size - 1))
    alone = lattice_kernel(f.breakpoints, f.values, N, first, panels)[0]
    both = lattice_kernel([f.breakpoints, g_bps], [f.values, g_values], N, first, panels)
    assert np.array_equal(bits(both[0]), bits(alone))
    assert np.array_equal(bits(both[1]), bits(lattice_kernel(g_bps, g_values, N, first, panels)[0]))
    cuts = sorted(data.draw(st.sets(st.integers(first + 1, first + panels - 1), max_size=3))) if panels > 1 else []
    ends = [first, *cuts, first + panels]
    parts = [lattice_kernel(f.breakpoints, f.values, N, lo, hi - lo)[0] for lo, hi in zip(ends, ends[1:])]
    assert np.array_equal(bits(np.concatenate(parts)), bits(alone))


@pytest.mark.parametrize("N, width", [(48.0, 64), (1.0, 3)])
@pytest.mark.parametrize(
    "f", [chi(0.25, 0.5), PiecewiseConstant1D([0.25, 0.3, 0.5], [1.0, -2.0])], ids=["one-offset", "two-offsets"]
)
def test_narrow_chunks_keep_the_lattice_bits(f, N, width):
    # narrow chunks over 1000 cells reach every way the kernel shares its
    # table: at N = 48 the jumps of chi[1/4, 1/2] are 48 cells apart, so its
    # table is built afresh, shifts the columns a new span shares with it and
    # fills the rest, and holds a later chunk's window whole; at N = 1 chunks
    # of 3 cells bring windows that end one column past the table; a second
    # offset builds a table per offset and chunk.  Every value is the
    # default width's, bit for bit
    wide = lattice_kernel(f.breakpoints, f.values, N, 1, 1000)
    assert np.array_equal(bits(lattice_kernel(f.breakpoints, f.values, N, 1, 1000, width=width)), bits(wide))


@pytest.mark.parametrize("nodes", [4, 8, 16, 24])
def test_node_rows_are_the_broadcast_formula(nodes):
    # x = c + r t_k and w = r w_k per panel of centre c and half-width r,
    # bit for bit, panel-major from panel_nodes and node-major for e(N)'s lattice
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


@pytest.mark.parametrize("N", [64.0, 1024.0])
def test_lattice_kernel_against_mpmath_at_far_nodes(N):
    # chi[1/4, 1/2] at lattice nodes far from its jumps, on both sides: within
    # 8 ulps of (1/pi) sum_j |c_j| |R(t_j)|, R(t) = Si(t) - sgn(t) pi/2.  The
    # two R(t_j) nearly cancel there, which costs dirichlet_sn - f its
    # digits: it forms Si(t_j) ~ pi/2 and subtracts f
    f = chi(0.25, 0.5)
    count = int(4 * N * _X_MAX)
    for first in (-count, -count // 2, count // 8, count - 16):
        got = lattice_kernel(f.breakpoints, f.values, N, first, 16)
        for value, point in zip(got.ravel().tolist(), lattice_points(N, first, 16)):
            with mpmath.workdps(40):
                x = mpmath.mpf(point.numerator) / point.denominator
                r = [mpmath.si(2 * mpmath.pi * N * (x - b)) - mpmath.sign(x - b) * mpmath.pi / 2 for b in (0.25, 0.5)]
                want, scale = (r[0] - r[1]) / mpmath.pi, (abs(r[0]) + abs(r[1])) / mpmath.pi
                assert abs(value - want) <= 8 * 2.0**-53 * scale


@pytest.mark.parametrize("N", [1.0, 3.0, 1024.0])
def test_lattice_and_other_panels_are_the_oscillation_panels(N):
    # breakpoints off the lattice, one past 256 and one at 0; N = 3 also has
    # the grading edge 1/8 inside a lattice cell
    _assert_lattice_panels_are_the_oscillation_panels(N, _X_MAX, 1)


@pytest.mark.parametrize("N", [1.0, 3.0])
def test_two_panel_cells_are_the_oscillation_panels(N):
    # as claim 3.1's dirichlet_sn leg takes them at N = 1: x_max = 1024 and
    # two panels per lattice cell
    _assert_lattice_panels_are_the_oscillation_panels(N, 1024.0, 2)


def _assert_lattice_panels_are_the_oscillation_panels(N, x_max, sub):
    f = PiecewiseConstant1D((-300.0, -1.0 / 3.0, 0.0, 0.7, 255.99), (1.0, 2.0, 3.0, -1.0))
    runs, count, split = _lattice_panels(f.breakpoints, N, x_max, sub)
    assert count == 4 * N * x_max
    uniform = np.linspace(0.0, x_max, count * sub + 1)
    pairs = [np.stack([e[:-1], e[1:]], axis=1) for e in runs]
    for cells, sign in zip(split, (1.0, -1.0)):
        assert np.array_equal(cells, np.unique(cells)) and cells[0] == 0
        l = (sub * np.setdiff1d(np.arange(count), cells)[:, None] + np.arange(sub)).ravel()
        ends = np.stack([sign * uniform[l], sign * uniform[l + 1]], axis=1)
        pairs.append(ends if sign > 0 else ends[:, ::-1])
    got = np.concatenate(pairs)
    got = got[np.argsort(got[:, 0], kind="stable")]
    edges = oscillation_edges(f.breakpoints, x_max, 1.0 / (4.0 * N * sub))
    assert np.array_equal(got, np.stack([edges[:-1], edges[1:]], axis=1))


@pytest.mark.parametrize("N", [*(2.0**j for j in range(11)), 0.25, 3.0, 161 / 1024])
def test_lattice_edges_are_the_uniform_edges(N):
    # every N of claim 6.3's schedule, and others with 1024N an integer; at
    # N = 161/1024 the last edge 161 fl(1/(4N)) is not 256 but linspace's is
    uniform = _uniform_edges(_X_MAX, 1.0 / (4.0 * N))
    count = uniform.size - 1
    assert count == 1024 * N
    assert _lattice_edges(np.arange(count + 1), N, _X_MAX, 1).tobytes() == uniform.tobytes()
    for lo in range(1, count, 8192):  # the chunks e(N) forms them in, from cell 1
        n = min(8192, count - lo)
        assert _lattice_edges(np.arange(lo, lo + n + 1), N, _X_MAX, 1).tobytes() == uniform[lo : lo + n + 1].tobytes()


@pytest.mark.parametrize("N, want", [(3.0, "0x1.22be70a1489b4p+0"), (161 / 1024, "0x1.069cb7eb63a47p+3")])
def test_split_lattice_cells_keep_their_bits(N, want):
    # breakpoints off the lattice and, at N = 3, the grading edge 1/8 split
    # lattice cells, which the lattice route must leave to dirichlet_sn; the
    # values are those of the (2, 1024N) cell mask this route replaced
    f = PiecewiseConstant1D((-300.0, -1.0 / 3.0, 0.0, 0.7, 255.99), (1.0, 2.0, 3.0, -1.0))
    assert partial_sum_error_norm(f, WeightParams(1, 1.0, 2.0, -0.5), N).hex() == want


def test_non_lattice_N_keeps_its_bits():
    # 1024 N = 307.2 is no integer: every panel goes through dirichlet_sn as before
    e = partial_sum_error_norm(chi(0.25, 0.5), WeightParams(1, 1.0, 2.0, -0.5), 0.3)
    assert e == 0.9854439963904995


# -- claim 3.1's dirichlet_sn leg on the lattice Z/4 -------------------------------

LEG = verify._SN_N, verify._SN_PANELS["x_max"], verify._SN_SUB
LEG_SCALES = list(range(verify._K_RANGE[0], verify._K_RANGE[1] + 1))


def leg_blocks():
    # both points of claim 3.1's grid give these blocks (tests/test_verify.py)
    return [make_canonical_block(verify._BLOCK_GRID[0], k).data for k in LEG_SCALES]


def test_sn_leg_lattice_values_match_dirichlet_sn():
    # (S_1 f - f) + f from the lattice kernel, at the leg's nodes in every
    # cell of Z/4 a block leaves whole, against dirichlet_sn at the same
    # nodes: per jump c_j at b_j, |c_j| 2^-45 for the two routes' Si
    # rounding (as in test_lattice_kernel_equals_dirichlet_sn_minus_f), plus
    # |c_j| min(2N, 1/(pi |x - b_j|)) 2 ulp(x) for the kernel taking the exact
    # point and dirichlet_sn the rounded node (|d/dx Si(2 pi N (x - b))| / pi
    # <= min(2N, 1/(pi |x - b|))), plus one rounding of |f| for adding f.
    # Measured: at most 2.8e-15 absolute and 4 % of the budget
    N, x_max, sub = LEG
    count = int(4 * N * x_max)
    for f in leg_blocks():
        bps, values = np.asarray(f.breakpoints), np.asarray(f.values)
        jumps = np.abs(np.diff(np.concatenate([[0.0], values, [0.0]])))
        split = _lattice_panels(bps, N, x_max, sub)[2][0]
        buffer = np.empty((2, _E_NODES, verify._SN_CHUNK * sub))
        for lo, err in _sn_error_on_lattice([bps], [values], N, 1, count - 1, _cell_nodes(sub), verify._SN_CHUNK):
            n = err.shape[2]
            x, _ = _cell_panel_nodes(lo, n, N, x_max, sub, buffer)
            got = err[0] + f((np.arange(lo, lo + n) + 0.5) / (4 * N))
            want = dirichlet_sn(f, N, x.ravel()).reshape(x.shape)
            slope = np.minimum(2 * N, 1 / (math.pi * np.abs(x[..., None] - bps))) @ jumps
            budget = jumps.sum() * 2.0**-45 + slope * 2 * np.spacing(x) + 2.0**-53 * np.abs(got)
            whole = ~np.isin(np.arange(lo, lo + n), split)
            assert np.all((np.abs(got - want) <= budget)[:, whole])


def test_sn_leg_norms_match_the_per_block_route():
    # the leg's norms against dirichlet_sn on every node of its panels,
    # weighed as one array of terms per block (the route before the lattice
    # kernel served the leg): within 1e-13 relative; measured 4.6e-15
    N, x_max, _ = LEG
    spacing, nodes = verify._SN_PANELS["spacing"], verify._SN_PANELS["nodes"]
    got = verify._block_norms("dirichlet_sn", verify._BLOCK_GRID, LEG_SCALES)
    for i, f in enumerate(leg_blocks()):
        x, w = panel_nodes(oscillation_edges(f.breakpoints, x_max, spacing), nodes)
        values = dirichlet_sn(f, N, x)
        for params, norms in zip(verify._BLOCK_GRID, got):
            want = weighted_norm_from_samples(values, x, w, params.p, params.alpha)
            assert abs(norms[i] / want - 1.0) <= 1e-13, (params, LEG_SCALES[i])


def test_partial_sum_integrals_are_per_function():
    # a function's integrals have the same bits whatever functions share the
    # call: more than _LATTICE_ROWS half-line rows go to several kernel calls,
    # a symmetric f is one row, and both modes and pairs come per function
    rng = np.random.default_rng(7)
    fs = [chi(0.25, 0.5), PiecewiseConstant1D((-1.0, -0.5, 0.5, 1.0), (1.0, 0.0, 1.0))]
    fs += [PiecewiseConstant1D(np.sort(rng.uniform(-3.0, 3.0, 4)), rng.standard_normal(3)) for _ in range(9)]
    pairs = [(1.0, -0.5), (0.5, -0.75), (2.0, 0.0)]
    for minus_f in (True, False):
        together = _partial_sum_integrals(fs, pairs, 2.0, 8.0, 2, minus_f, 64)
        for f, row in zip(fs, together):
            alone = _partial_sum_integrals([f], pairs[::-1], 2.0, 8.0, 2, minus_f, 64)[0][::-1]
            assert row.tobytes() == alone.tobytes()
