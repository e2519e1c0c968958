"""Uncentered maximal functions: exact continuum route and lattice route.

Oracle: for f = chi_{[c,d]} and x outside [c,d], the best interval is
[min(x,c), max(x,d)], so M f(x) = (d - c) / (max(x,d) - min(x,c)).
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blockspaces
from blockspaces import (
    LatticeFunction,
    PiecewiseConstant1D,
    geometric_schedule,
    hl_maximal,
    maximal_1d_exact,
)
from blockspaces.operators import _BLOCK_BYTES

chi = PiecewiseConstant1D.indicator


def m_indicator(c, d, x):
    x = np.asarray(x, dtype=float)
    width = np.maximum(x, d) - np.minimum(x, c)
    return (d - c) / width


def test_indicator_oracle_outside_support():
    f = chi(0.0, 1.0)
    x = np.array([2.0, -1.0, 10.0])
    np.testing.assert_allclose(maximal_1d_exact(f, x), m_indicator(0.0, 1.0, x), rtol=1e-14)
    assert maximal_1d_exact(f, np.array([2.0]))[0] == 0.5


def test_indicator_equals_one_on_support():
    f = chi(-1.0, 1.0)
    x = np.array([-0.7, 0.0, 0.9])
    np.testing.assert_allclose(maximal_1d_exact(f, x), 1.0, rtol=1e-14)


def test_even_indicator_decay_oracle():
    # M(chi_{[-1,1]})(x) = 2/(x+1) for x > 1
    f = chi(-1.0, 1.0)
    x = np.array([1.5, 3.0, 63.0])
    np.testing.assert_allclose(maximal_1d_exact(f, x), 2.0 / (x + 1.0), rtol=1e-14)


def test_zero_function():
    z = PiecewiseConstant1D.zero()
    np.testing.assert_array_equal(maximal_1d_exact(z, np.array([0.0, 5.0])), [0.0, 0.0])


def test_non_finite_points_give_nan():
    # no interval contains a non-finite point
    x = np.array([np.nan, np.inf, -np.inf, 1.5])
    for f in (chi(1.0, 2.0), PiecewiseConstant1D.zero()):
        got = maximal_1d_exact(f, x)
        assert np.isnan(got[:3]).all() and got[3] == abs(f(1.5))


def all_pairs_maximal(f, x):
    """The sup over every (left, right) candidate pair, with one mass lookup per pair."""
    g = f.abs()
    bps = np.asarray(g.breakpoints, dtype=float)
    v = np.asarray(g.values, dtype=float)
    cum = np.concatenate([[0.0], np.cumsum(v * np.diff(bps))])

    def mass_upto(t):
        tt = np.clip(t, bps[0], bps[-1])
        j = np.clip(np.searchsorted(bps, tt, side="right") - 1, 0, v.size - 1)
        return cum[j] + v[j] * (tt - bps[j])

    out = np.empty_like(x)
    for i, xi in enumerate(x):
        left = np.concatenate([bps[bps < xi], [xi]])
        right = np.concatenate([[xi], bps[bps > xi]])
        a = np.repeat(left, right.size)
        b = np.tile(right, left.size)
        ok = b > a
        a, b = a[ok], b[ok]
        avg = (mass_upto(b) - mass_upto(a)) / (b - a)
        out[i] = max(float(avg.max()), float(g(np.asarray(xi))))
    return out


# few distinct values, so adjacent pieces are often equal or zero
_PIECE_VALUES = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 1e-300, -3e-300, 7e-301, 2.5]),
    st.floats(-1e3, 1e3),
)


@settings(deadline=None, max_examples=300)
@given(
    bps=st.lists(st.floats(-64.0, 64.0), min_size=2, max_size=9, unique=True),
    data=st.data(),
    extra=st.lists(st.floats(-100.0, 100.0), max_size=4),
)
def test_exact_matches_all_pairs_bit_for_bit(bps, data, extra):
    b = np.sort(np.asarray(bps))
    vals = data.draw(st.lists(_PIECE_VALUES, min_size=b.size - 1, max_size=b.size - 1))
    f = PiecewiseConstant1D(b, vals)
    # every breakpoint, one ulp to either side of it, and free points
    x = np.concatenate([b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf), extra])
    assert np.array_equal(maximal_1d_exact(f, x), all_pairs_maximal(f, x))


@settings(deadline=None, max_examples=60)
@given(
    bps=st.lists(st.floats(-64.0, 64.0), min_size=2, max_size=9, unique=True),
    data=st.data(),
    extra=st.lists(st.floats(-100.0, 100.0), max_size=4),
    blocks=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_each_value_is_the_value_alone(bps, data, extra, blocks, seed):
    # maximal_1d_exact trims the candidate ends per row block; a point's bits
    # must not depend on its neighbours in the block, nor on its position
    b = np.sort(np.asarray(bps))
    vals = data.draw(st.lists(_PIECE_VALUES, min_size=b.size - 1, max_size=b.size - 1))
    f = PiecewiseConstant1D(b, vals)
    special = np.concatenate(
        [b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf), extra, [np.inf, -np.inf, np.nan, 0.0]]
    )
    rows = max(1, _BLOCK_BYTES // (8 * (b.size + 1) ** 2))
    rng = np.random.default_rng(seed)
    x = rng.permutation(np.resize(special, rows * blocks + int(rng.integers(0, rows))))
    alone = {v.tobytes(): maximal_1d_exact(f, v[None]) for v in special}
    want = np.concatenate([alone[v.tobytes()] for v in x])
    assert np.array_equal(maximal_1d_exact(f, x).view(np.int64), want.view(np.int64))


@settings(deadline=None, max_examples=40)
@given(
    vals=st.lists(st.integers(-4, 4), min_size=1, max_size=4),
    xs=st.lists(st.floats(-10, 10), min_size=1, max_size=4),
)
def test_dominates_absolute_value(vals, xs):
    bps = np.linspace(-2.0, 2.0, len(vals) + 1)
    f = PiecewiseConstant1D(bps, [float(v) for v in vals])
    x = np.asarray(xs, dtype=float)
    m = maximal_1d_exact(f, x)
    assert np.all(m >= np.abs(f(x)) - 1e-12)


def test_shell_block_average_lower_bound():
    # averaging chi_{C_0} over the whole ball B_0 gives |C_0|/|B_0| = 1/2,
    # so the maximal function is >= 1/2 everywhere on the ball
    f = PiecewiseConstant1D((-1.0, -0.5, 0.5, 1.0), (1.0, 0.0, 1.0))
    x = np.linspace(-0.99, 0.99, 21)
    assert np.all(maximal_1d_exact(f, x) >= 0.5 - 1e-12)


# -- lattice route ------------------------------------------------------------


def test_lattice_matches_exact_route():
    f = PiecewiseConstant1D((-1.0, -0.5, 0.5, 1.0), (1.0, 0.0, 1.0))
    h = 2.0 ** -8
    lat = LatticeFunction.from_callable(f, h, 4.0)
    # window widths geometric with ratio 2^(1/8): the best window is missed
    # by at most that factor, costing <= 1 - 2^(-1/8) ~ 8.3% relative
    cells = lat.cells_per_axis
    widths = np.unique(np.round(2.0 ** (np.arange(89) / 8)).astype(int))
    assert (widths.size, widths[0], widths[-1], int(widths.sum())) == (71, 1, cells, 24606)
    m = hl_maximal(lat, widths)
    centers = lat.axis_midpoints()
    keep = np.abs(np.abs(centers) - 0.5) > 0.01
    keep &= np.abs(np.abs(centers) - 1.0) > 0.01
    exact = maximal_1d_exact(f, centers[keep])
    got = m.values[keep]
    rel = np.abs(got - exact) / exact
    assert np.quantile(rel, 0.95) < 0.07
    assert np.max(rel) < 0.09


def test_lattice_dominates_function():
    rng = np.random.default_rng(3)
    lat = LatticeFunction(0.25, 4.0, rng.standard_normal(32))
    m = hl_maximal(lat, [1, 2, 4])
    assert np.all(m.values >= np.abs(lat.values) - 1e-12)


def test_lattice_window_validation():
    lat = LatticeFunction(1.0, 4.0, np.ones(8))
    with pytest.raises(ValueError):
        hl_maximal(lat, [])
    with pytest.raises(ValueError):
        hl_maximal(lat, [0])
    with pytest.raises(ValueError):
        hl_maximal(lat, [100])  # wider than the whole domain


def test_lattice_monotone_in_window_set():
    rng = np.random.default_rng(11)
    lat = LatticeFunction(0.125, 2.0, rng.standard_normal(32))
    m_small = hl_maximal(lat, [1, 2])
    m_big = hl_maximal(lat, [1, 2, 4, 8])
    assert np.all(m_big.values >= m_small.values - 1e-15)


def test_lattice_is_one_dimensional():
    assert LatticeFunction.n == 1
    assert LatticeFunction.from_callable(lambda x: x, 0.25, 1.0).n == 1


def test_import_leaves_ndimage_unloaded():
    # only hl_maximal needs scipy.ndimage, which dominates the package's import time
    src = str(Path(blockspaces.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, blockspaces; print('scipy.ndimage' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "False"


def _full_domain_hl(values, widths):
    # the filter pair over every cell of the domain, for each width
    from scipy import ndimage

    absf = np.abs(values)
    out = absf.copy()
    for w in sorted(set(widths)):
        size = 2 * w + 1
        avg = ndimage.uniform_filter(absf, size=size, mode="constant", cval=0.0)
        np.maximum(out, ndimage.maximum_filter(avg, size=size, mode="constant", cval=0.0), out=out)
    return out


@pytest.mark.parametrize("k", range(-6, 7))
def test_lattice_reach_equals_full_domain_on_claim_lattices(k):
    # a 524k-cell lattice on [-1024, 1024) with every window width up to its size
    from blockspaces import WeightParams, make_canonical_block

    h, L = 2.0 ** -8, 1024.0
    cells = int(round(2.0 * L / h))
    widths = np.round(geometric_schedule(1.0, cells)).astype(int)
    widths = np.unique(np.minimum(widths, cells))
    block = make_canonical_block(WeightParams(1, 1.0, 2.0, -0.5), k)
    lat = LatticeFunction.from_callable(block.data, h, L)
    assert np.array_equal(hl_maximal(lat, widths).values, _full_domain_hl(lat.values, widths))


def test_lattice_reach_on_general_input():
    rng = np.random.default_rng(5)
    values = np.zeros(2048)
    first, last = 700, 899
    values[first : last + 1] = rng.uniform(-10.0, 10.0, last + 1 - first)
    widths = [1, 2, 3, 5, 8, 13, 21, 34, 55]
    w_max = max(widths)
    got = hl_maximal(LatticeFunction(2.0 ** -6, 16.0, values), widths).values
    want = _full_domain_hl(values, widths)
    assert np.array_equal(got[: last + w_max + 1], want[: last + w_max + 1])
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(values))
    # past every width's reach the value is exactly the true 0, where the
    # full-domain running sum leaves ulp residues
    tail = last + 1 + 2 * (2 * w_max + 1)
    assert np.all(got[tail:] == 0.0)
    assert np.any(want[tail:] != 0.0)
