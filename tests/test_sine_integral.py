"""Si against independent oracles: mpmath at spot points, scipy in bulk."""

import importlib.util
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import sici

import blockspaces
from blockspaces import sine_integral

si_module = sys.modules["blockspaces.sine_integral"]

mpmath.mp.dps = 30

SRC = Path(blockspaces.__file__).resolve().parents[1]
GENERATOR = SRC.parent / "tools" / "gen_si_table.py"


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


def test_mid_branch_seams_against_mpmath():
    # each unit segment [k, k + 1) has its own table; k and the doubles on
    # either side of it are evaluated from different polynomials
    edges = np.arange(8.0, 45.0)
    pts = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    pts = pts[(pts > 8.0) & (pts < 44.0)]
    got = sine_integral(pts)
    want = np.array([mp_si(t) for t in pts])
    assert np.max(np.abs(got - want)) < 1e-15


def test_mid_branch_against_mpmath():
    t = np.random.default_rng(7).uniform(8.0, 44.0, size=2000)
    got = sine_integral(t)
    want = np.array([mp_si(x) for x in t])
    assert np.max(np.abs(got - want)) < 1e-15


def test_table_module_is_the_generator_output():
    spec = importlib.util.spec_from_file_location("gen_si_table", GENERATOR)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    assert gen.remainder_bound(gen.table_degree()) < 1e-16
    assert gen.render().encode() == gen.TARGET.read_bytes()


def _run(code: str, **env) -> str:
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


def test_mid_branch_bits_do_not_depend_on_cpu_dispatch():
    # the table branch uses only + and x, which round the same in every SIMD loop
    code = (
        "import numpy as np; from blockspaces import sine_integral; "
        "print(sine_integral(np.random.default_rng(7).uniform(8.0, 44.0, 10_000)).tobytes().hex())"
    )
    want = sine_integral(np.random.default_rng(7).uniform(8.0, 44.0, 10_000)).tobytes().hex()
    assert _run(code, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR").strip() == want


def test_import_loads_no_mpmath():
    code = "import sys, blockspaces; print(sorted(m for m in sys.modules if m.partition('.')[0] == 'mpmath'))"
    assert _run(code).strip() == "[]"


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


def test_far_arguments_against_mpmath():
    # log-uniform over [1e3, 2^53]: the near asymptotic part below the far
    # cutoff, the shortened series above it
    t = np.exp(np.random.default_rng(11).uniform(math.log(1e3), 53 * math.log(2.0), 2000))
    got = sine_integral(t)
    want = np.array([mp_si(x) for x in t])
    assert np.max(np.abs(got - want)) < 1e-15


def test_far_bulk_against_scipy():
    t = np.exp(np.random.default_rng(13).uniform(math.log(1e3), math.log(1e15), 100_000))
    assert np.max(np.abs(sine_integral(t) - sici(t)[0])) < 1e-15


def test_far_seam_against_mpmath():
    edge = si_module._FAR_CUTOFF
    pts = np.array([np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)])
    got = sine_integral(pts)
    want = np.array([mp_si(x) for x in pts])
    assert np.max(np.abs(got - want)) < 1e-15


def test_far_term_count_is_the_fewest_within_its_bound():
    k = si_module._FAR_TERMS
    bound = si_module._FAR_BOUND
    assert bound == Fraction(1, 2**64)
    assert si_module._asymptotic_remainder(k, si_module._FAR_CUTOFF) < bound
    assert si_module._asymptotic_remainder(k - 1, si_module._FAR_CUTOFF) >= bound
    assert k < si_module._ASYMPTOTIC_TERMS


_BRANCH_POINTS = st.one_of(
    st.floats(0.0, 8.0),
    st.floats(8.0, 44.0),
    st.floats(44.0, 1024.0),
    st.floats(1024.0, 1e300),
    st.sampled_from(
        [8.0, 44.0, 1024.0, math.nextafter(1024.0, 0.0), math.nextafter(1024.0, math.inf), 1e155, math.inf]
    ),
)


@settings(deadline=None, max_examples=60)
@given(
    data=st.data(),
    points=st.lists(st.tuples(_BRANCH_POINTS, st.booleans()), min_size=1, max_size=40),
)
def test_each_value_depends_only_on_its_argument(data, points):
    # a mixed-branch array gives, element for element, the bits of each
    # element evaluated alone, in any order: the terms are chosen per point
    t = np.array([-x if neg else x for x, neg in points])
    alone = np.array([sine_integral(x) for x in t])
    np.testing.assert_array_equal(sine_integral(t).view(np.uint64), alone.view(np.uint64))
    order = np.array(data.draw(st.permutations(range(t.size))))
    np.testing.assert_array_equal(sine_integral(t[order]).view(np.uint64), alone[order].view(np.uint64))


#: |t| wholly inside one branch each: <= 8, (8, 44), [44, 1024), [1024, inf)
_ONE_BRANCH = (
    st.floats(0.0, 8.0),
    st.floats(8.0, 44.0, exclude_min=True, exclude_max=True),
    st.floats(44.0, 1024.0, exclude_max=True),
    st.floats(1024.0, allow_infinity=False),
)
_OUTSIDE_EVERY_BRANCH = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])


@settings(deadline=None, max_examples=80)
@given(
    data=st.data(),
    branch=st.sampled_from(_ONE_BRANCH),
    signs=st.lists(st.booleans(), min_size=1, max_size=300),
    mixed_in=st.lists(_OUTSIDE_EVERY_BRANCH, max_size=4),
)
def test_one_branch_array_has_the_bits_of_the_gather(data, branch, signs, mixed_in):
    # an array whose |t| all lie in one branch's range is evaluated whole,
    # without a gather; each element keeps the bits it gets alone, and the
    # bits the masked path gives once a NaN sends the array there
    t = np.array([-x if neg else x for x, neg in ((data.draw(branch), neg) for neg in signs)])
    whole = sine_integral(t).view(np.uint64)
    alone = np.array([sine_integral(x) for x in t]).view(np.uint64)
    np.testing.assert_array_equal(whole, alone)
    gathered = sine_integral(np.append(t, math.nan))[:-1].view(np.uint64)
    np.testing.assert_array_equal(whole, gathered)
    mixed = np.insert(t, data.draw(st.integers(0, t.size)), mixed_in)
    np.testing.assert_array_equal(
        sine_integral(mixed).view(np.uint64), np.array([sine_integral(x) for x in mixed]).view(np.uint64)
    )


def test_grids_keep_their_shape_and_bits():
    # the driver works on the flattened array: a grid in either memory order
    # gets each element's bits in place on every path, and an empty array
    # comes back empty
    rng = np.random.default_rng(21)
    small = rng.uniform(-8.0, 8.0, 300)
    far = np.exp(rng.uniform(7.0, 30.0, 300)) * rng.choice([-1.0, 1.0], 300)
    for t in (small, far, np.concatenate([small, far])):
        alone = np.array([sine_integral(x) for x in t])
        for order in "CF":
            grid = sine_integral(t.reshape(20, -1, order=order))
            expected = alone.reshape(20, -1, order=order)
            np.testing.assert_array_equal(grid.view(np.uint64), expected.view(np.uint64))
    for shape in [(0,), (0, 3)]:
        empty = sine_integral(np.zeros(shape))
        assert empty.shape == shape and empty.dtype == np.float64


def test_auxiliary_taylor_coefficients_against_mpmath():
    # W = F - iG with F = Ci sin - (Si - pi/2) cos, G = -Ci cos - (Si - pi/2) sin,
    # and W^(n)/n! from W' = -iW + i/t, at t from 32 pi (where e(N)'s far tails
    # start) out to 1e9: within 1e-15 of |W^(n)/n!| for each n <= 5.  The
    # recurrence cancels about log10(t) digits per order, so it runs at 90
    from blockspaces.sine_integral import _auxiliary_taylor

    ts = [32 * math.pi, 150.0, 1e3, 1e6, 1e9]
    got = _auxiliary_taylor(np.array(ts), 6)
    with mpmath.workdps(90):
        for i, t in enumerate(mpmath.mpf(t) for t in ts):
            si, ci = mpmath.si(t) - mpmath.pi / 2, mpmath.ci(t)
            w = [(ci * mpmath.sin(t) - si * mpmath.cos(t)) + 1j * (ci * mpmath.cos(t) + si * mpmath.sin(t))]
            for n in range(1, 6):
                w.append((-1j * w[-1] + 1j * (-1) ** (n - 1) / t**n) / n)
            for n, want in enumerate(w):
                assert abs(got[n, i] - complex(want)) <= 1e-15 * abs(want), (float(t), n)
