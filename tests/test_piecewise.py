"""Exact piecewise-constant arithmetic."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import blockspaces
from blockspaces import PiecewiseConstant1D
from blockspaces.piecewise import _sorted_unique


def chi(a, b, v=1.0):
    return PiecewiseConstant1D.indicator(a, b, v)


def _env() -> dict:
    src = str(Path(blockspaces.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


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
    with pytest.raises(ValueError):
        PiecewiseConstant1D((0.0, np.nan, 1.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        PiecewiseConstant1D((-0.0, 0.0), (1.0,))
    with pytest.raises((ValueError, TypeError)):
        PiecewiseConstant1D(((0.0, 1.0), (2.0, 3.0)), (1.0,))
    with pytest.raises((ValueError, TypeError)):
        PiecewiseConstant1D((0.0, 1.0), (None,))
    # read as np.asarray(x, dtype=float) reads it: a string or a number is 0-d,
    # a nested list or a 2-D array is not flat, None is NaN
    for bp, vals, message in (
        ("01", "1", "flat sequences"),
        ([[0, 1]], [1], "flat sequences"),
        (np.array([[0.0, 1.0]]), [1.0], "flat sequences"),
        (1.0, [1.0], "flat sequences"),
        ([0, None], [1], "breakpoints must be finite"),
        ([0, 1], [None], "values must be finite"),
    ):
        with pytest.raises(ValueError, match=message):
            PiecewiseConstant1D(bp, vals)
    with pytest.raises(TypeError):
        PiecewiseConstant1D((x for x in (0.0, 1.0)), (1.0,))
    accepted = (
        PiecewiseConstant1D([0, 1], ["2"]),
        PiecewiseConstant1D([np.float32(0.5), np.int64(1)], [np.float64(2.0)]),
        PiecewiseConstant1D([False, True], [True]),
        PiecewiseConstant1D(np.array([0.0, 1.0]), np.array([2.0])),
    )
    assert [(f.breakpoints, f.values) for f in accepted] == [
        ((0.0, 1.0), (2.0,)), ((0.5, 1.0), (2.0,)), ((0.0, 1.0), (1.0,)), ((0.0, 1.0), (2.0,))
    ]
    assert all(type(x) is float for f in accepted for x in f.breakpoints + f.values)
    # where the breakpoints of a sum coincide, the left operand's zero survives
    assert np.signbit((chi(-0.0, 1.0) + chi(0.0, 2.0)).breakpoints).tolist() == [True, False, False]
    assert np.signbit((chi(0.0, 2.0) + chi(-0.0, 1.0)).breakpoints).tolist() == [False, False, False]


def test_arithmetic_that_overflows_is_refused():
    # a derived function skips the breakpoint checks but not the value checks
    big = chi(0.0, 1.0, 1e308)
    for make in (lambda: big * 10.0, lambda: big + big, lambda: big - (-big), lambda: 2.0 * big):
        with pytest.raises(ValueError, match="values must be finite"):
            make()
    with pytest.raises(ValueError, match="breakpoints must be finite"):
        big.restrict(0.5, float("nan"))
    # a dilation still checks its breakpoints: 2 * 1e308 overflows
    with pytest.raises(ValueError, match="breakpoints must be finite"):
        chi(1.0, 2.0).dilate(1e308)


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


@given(
    st.one_of(st.just(PiecewiseConstant1D.zero()), piecewise_functions(max_pieces=12)),
    st.lists(st.floats(-9.0, 9.0), max_size=8),
)
def test_breakpoint_hits_are_isin(f, extra):
    x = np.array([*f.breakpoints, *(-b for b in f.breakpoints), *extra, 0.0, -0.0, np.inf, -np.inf, np.nan])
    assert f._is_breakpoint(x).tolist() == np.isin(x, f.breakpoints).tolist()
    assert [bool(f._is_breakpoint(np.asarray(v))) for v in x] == np.isin(x, f.breakpoints).tolist()


def test_evaluation_at_a_breakpoint_leaves_numpy_ma_unloaded():
    # with 64 breakpoints and one point, np.isin would take its sort path,
    # whose np.unique imports numpy.ma (about 20 ms)
    code = (
        "import sys\n"
        "from blockspaces import PiecewiseConstant1D\n"
        "f = PiecewiseConstant1D(range(65), [1.0] * 64)\n"
        "print(f(3.0), 'numpy.ma' in sys.modules)\n"
    )
    run = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True, text=True, check=True)
    assert run.stdout.split() == ["1.0", "False"]


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


#: sorted, strictly increasing breakpoint arrays, some with a -0 or +0
SORTED_BREAKPOINTS = st.lists(
    st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]), st.floats(-4.0, 4.0, allow_nan=False)),
    max_size=40,
    unique=True,
).map(sorted)


@given(SORTED_BREAKPOINTS, SORTED_BREAKPOINTS, SORTED_BREAKPOINTS)
def test_sorted_unique_is_union1d_and_unique_bit_for_bit(a, b, c):
    # np.unique's sort is unstable: which of a colliding -0 and +0 it keeps
    # depends on the whole array, and the signs must still agree
    for got, want in (
        (_sorted_unique(a, b), np.union1d(a, b)),
        (_sorted_unique(a, b, c), np.unique(np.concatenate([a, b, c]))),
    ):
        assert got.tolist() == want.tolist()
        assert np.signbit(got).tolist() == np.signbit(want).tolist()


def test_restriction_and_sums_leave_numpy_ma_unloaded():
    # the algebra works on tuples; np.union1d's np.unique would also import
    # numpy.ma (about 10 ms)
    code = (
        "import sys\n"
        "from blockspaces import PiecewiseConstant1D, WeightParams, decompose_nonhomogeneous, norm_profile\n"
        "f = PiecewiseConstant1D((-3.0, -1.0, 0.25, 0.5, 2.0), (1.0, -2.0, 0.0, 3.0))\n"
        "params = WeightParams(1, 1.0, 2.0, -0.5)\n"
        "norm_profile(f, params, (-6, 6))\n"
        "decompose_nonhomogeneous(f, params)\n"
        "(f + f.restrict(-2.0, 1.0) - 2.0 * f).simplify().abs()\n"
        "print('numpy' in sys.modules, 'numpy.ma' in sys.modules)\n"
    )
    run = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True, text=True, check=True)
    assert run.stdout.split() == ["False", "False"]



# -- bit-level algebra against the list-and-midpoint forms ---------------------

#: signed zeros included: simplify keeps the first value of a merged run
SIGNED_VALUES = (-0.0, 0.0, 1.0, -1.0, 2.0)


@st.composite
def functions_and_ends(draw):
    """A function on quarter-integer breakpoints, and restriction ends a <= b.

    Each end lies on a breakpoint, between two, or outside the span.  No piece
    is shorter than 1/4, so a midpoint lookup cannot round onto a breakpoint.
    """
    m = draw(st.integers(0, 6))
    if m == 0:
        return PiecewiseConstant1D.zero(), -1.0, 1.0
    ints = draw(st.lists(st.integers(-16, 16), min_size=m + 1, max_size=m + 1, unique=True))
    bp = sorted(i / 4.0 for i in ints)
    vals = draw(st.lists(st.sampled_from(SIGNED_VALUES), min_size=m, max_size=m))
    between = [0.5 * (x + y) for x, y in zip(bp, bp[1:])]
    ends = st.sampled_from([*bp, *between, bp[0] - 1.0, bp[-1] + 1.0])
    a, b = sorted((draw(ends), draw(ends)))
    return PiecewiseConstant1D(bp, vals), a, b


def _bits(f):
    return f.breakpoints, f.values, tuple(np.signbit(f.values))


def _midpoint_lookup(f, bp):
    """Value of f on each piece of the refinement bp, read at the piece's midpoint."""
    padded = [0.0, *f.values, 0.0]
    mids = 0.5 * (bp[:-1] + bp[1:])
    return [padded[i] for i in np.searchsorted(f.breakpoints, mids, side="right")]


def _oracle_add(f, g):
    if not f.values:
        return g
    if not g.values:
        return f
    bp = np.union1d(f.breakpoints, g.breakpoints)
    vals = [u + v for u, v in zip(_midpoint_lookup(f, bp), _midpoint_lookup(g, bp))]
    return PiecewiseConstant1D(bp, vals)


def _oracle_simplify(f):
    bp, vals = list(f.breakpoints), list(f.values)
    while vals and vals[0] == 0.0:
        vals.pop(0)
        bp.pop(0)
    while vals and vals[-1] == 0.0:
        vals.pop()
        bp.pop()
    if not vals:
        return PiecewiseConstant1D.zero()
    out_bp, out_vals = [bp[0]], []
    for i, v in enumerate(vals):
        if out_vals and v == out_vals[-1]:
            out_bp[-1] = bp[i + 1]
            continue
        out_vals.append(v)
        out_bp.append(bp[i + 1])
    return PiecewiseConstant1D(out_bp, out_vals)


def _oracle_restrict(f, a, b):
    if not f.values or b <= f.breakpoints[0] or a >= f.breakpoints[-1]:
        return PiecewiseConstant1D.zero()
    lo, hi = f.breakpoints[0], f.breakpoints[-1]
    bp = np.union1d(f.breakpoints, [x for x in (a, b) if lo < x < hi])
    mids = 0.5 * (bp[:-1] + bp[1:])
    vals = [v if a < m < b else 0.0 for m, v in zip(mids, _midpoint_lookup(f, bp))]
    return _oracle_simplify(PiecewiseConstant1D(bp, vals))


def _oracle_call(f, xs):
    padded = [0.0, *f.values, 0.0]
    out = []
    for x in xs:
        right = padded[np.searchsorted(f.breakpoints, x, side="right")] if f.values else 0.0
        if x in f.breakpoints:
            right = 0.5 * (padded[np.searchsorted(f.breakpoints, x, side="left")] + right)
        out.append(right)
    return np.array(out)


@example(
    fab=(PiecewiseConstant1D((0.0, 1.0, 2.0, 3.0, 4.0), (1.0, -0.0, 0.0, 1.0)), 1.0, 3.0),
    g=PiecewiseConstant1D((1.0, 2.0), (0.0,)),
)
@given(fab=functions_and_ends(), g=functions_and_ends().map(lambda t: t[0]))
def test_algebra_matches_midpoint_oracle_bit_for_bit(fab, g):
    f, a, b = fab
    assert _bits(f.simplify()) == _bits(_oracle_simplify(f))
    assert _bits(f.restrict(a, b)) == _bits(_oracle_restrict(f, a, b))
    assert _bits(f + g) == _bits(_oracle_add(f, g))
    assert _bits(f - g) == _bits(_oracle_add(f, -g))
    xs = np.array([*f.breakpoints, *g.breakpoints, a, b, 0.5 * (a + b)])
    got, want = f(xs), _oracle_call(f, xs)
    assert got.tolist() == want.tolist()
    assert np.signbit(got).tolist() == np.signbit(want).tolist()


def test_one_ulp_piece_survives_add_and_restrict():
    # the midpoint of [a, b] rounds onto b, so a midpoint lookup reads the 9 piece
    a = float(np.nextafter(1.0, 2.0))
    b = float(np.nextafter(a, 2.0))
    f = PiecewiseConstant1D((0.0, a, b, 2.0), (5.0, 7.0, 9.0))
    assert (f + chi(-1.0, 3.0, 0.0)).values == (0.0, 5.0, 7.0, 9.0, 0.0)
    assert f.restrict(-1.0, 1.5).breakpoints == (0.0, a, b, 1.5)
    assert f.restrict(-1.0, 1.5).values == (5.0, 7.0, 9.0)
