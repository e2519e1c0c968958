"""Weighted norms: closed forms, divergence, covariance, shell profiles."""

import math

import pytest
from hypothesis import given, strategies as st

from blockspaces import (
    PiecewiseConstant1D,
    WeightParams,
    norm_profile,
    restrict_to_annulus,
    weighted_lp_norm,
)
from blockspaces.norms import weight_integral

chi = PiecewiseConstant1D.indicator


# -- weight integrals ---------------------------------------------------------


def test_weight_integral_closed_forms():
    assert weight_integral(-1.0, 1.0, 0.0) == 2.0
    assert weight_integral(1.0, 2.0, 1.0) == 1.5
    # log branch: int_1^e dx/x = 1
    assert math.isclose(weight_integral(1.0, math.e, -1.0), 1.0, rel_tol=1e-15)
    # symmetric: |x|^alpha is even
    assert weight_integral(-2.0, -1.0, 1.0) == weight_integral(1.0, 2.0, 1.0)


def test_weight_integral_divergence():
    assert weight_integral(0.0, 1.0, -1.0) == math.inf
    assert weight_integral(-1.0, 1.0, -1.5) == math.inf
    assert weight_integral(0.0, 1.0, -0.5) == 2.0  # integrable singularity


@given(
    a=st.floats(-4, 4),
    width=st.floats(0.01, 3),
    alpha=st.floats(-0.9, 2.0),
)
def test_weight_integral_additivity(a, width, alpha):
    b = a + width
    mid = a + width / 2.0
    whole = weight_integral(a, b, alpha)
    parts = weight_integral(a, mid, alpha) + weight_integral(mid, b, alpha)
    assert math.isclose(whole, parts, rel_tol=1e-10, abs_tol=1e-12)


# -- piecewise norms ----------------------------------------------------------


def test_norm_anchors():
    assert weighted_lp_norm(chi(-1.0, 1.0), 1.0, 0.0) == 2.0
    assert weighted_lp_norm(chi(1.0, 2.0), 1.0, 1.0) == 1.5
    assert weighted_lp_norm(chi(-1.0, 1.0), 2.0, 0.0) == math.sqrt(2.0)
    assert weighted_lp_norm(chi(0.0, 1.0), 1.0, -1.0) == math.inf


def test_sup_norm_ignores_weight():
    f = PiecewiseConstant1D((0.0, 1.0, 2.0), (3.0, -5.0))
    assert weighted_lp_norm(f, math.inf, -0.5) == 5.0
    assert weighted_lp_norm(PiecewiseConstant1D.zero(), math.inf, 0.0) == 0.0


def test_norm_rejects_nonpositive_p():
    # p = -inf is no sup norm: it is rejected before the p = inf branch
    f = chi(1.0, 2.0, 3.0)
    for p in (0.0, -math.inf):
        with pytest.raises(ValueError):
            weighted_lp_norm(f, p, 0.0)


@given(
    p=st.sampled_from([0.5, 1.0, 2.0]),
    alpha=st.floats(-0.9, 1.5),
    k=st.integers(-6, 6),
)
def test_dilation_covariance(p, alpha, k):
    # ||f(.|/2^k)||_{L^p_alpha} = 2^(k(alpha+1)/p) ||f||_{L^p_alpha} in 1D
    f = PiecewiseConstant1D((-1.0, -0.25, 0.5, 1.0), (1.0, -2.0, 0.5))
    lam = 2.0 ** k
    lhs = weighted_lp_norm(f.dilate(lam), p, alpha)
    rhs = lam ** ((alpha + 1.0) / p) * weighted_lp_norm(f, p, alpha)
    assert math.isclose(lhs, rhs, rel_tol=1e-11)


@given(
    p=st.sampled_from([0.5, 1.0, 2.0, 4.0]),
    alpha=st.floats(-0.9, 1.0),
)
def test_quasi_triangle_inequality(p, alpha):
    f = PiecewiseConstant1D((-2.0, 0.5, 1.0), (1.5, -1.0))
    g = PiecewiseConstant1D((-1.0, 0.0, 3.0), (-0.5, 2.0))
    pb = min(p, 1.0)
    lhs = weighted_lp_norm(f + g, p, alpha) ** pb
    rhs = weighted_lp_norm(f, p, alpha) ** pb + weighted_lp_norm(g, p, alpha) ** pb
    assert lhs <= rhs * (1.0 + 1e-12)


def test_annulus_restrictions_partition():
    # finitely many shells cover everything outside the innermost ball
    f = PiecewiseConstant1D((-4.0, -1.0, 2.0, 4.0), (1.0, 2.0, -1.0))
    total = PiecewiseConstant1D.zero()
    for k in range(-30, 3):
        total = total + restrict_to_annulus(f, k)
    hole = (f - total).simplify()
    bounds = hole.support_bounds
    assert bounds is not None  # f is nonzero at the origin
    assert -(2.0 ** -31) <= bounds[0] and bounds[1] <= 2.0 ** -31


def test_annulus_restrictions_partition_exactly_away_from_origin():
    f = PiecewiseConstant1D((-4.0, -1.0, 1.0, 4.0), (1.0, 0.0, -1.0))
    total = PiecewiseConstant1D.zero()
    for k in range(0, 3):
        total = total + restrict_to_annulus(f, k)
    assert total.equal_as_functions(f)


def test_restrict_type_shell_zero_is_ball():
    f = chi(-2.0, 2.0)
    g = restrict_to_annulus(f, 0, restrict_type=True)
    assert g.equal_as_functions(chi(-1.0, 1.0))


# -- shell profiles -----------------------------------------------------------


def test_profile_total_matches_norm():
    f = PiecewiseConstant1D((-4.0, -1.0, 2.0, 4.0), (1.0, 2.0, -1.0))
    params = WeightParams(1, 1.0, 2.0, -0.5)
    prof = norm_profile(f, params, (-8, 3))
    norm = weighted_lp_norm(f, params.p, params.alpha)
    assert math.isclose(prof.total, norm ** params.p, rel_tol=1e-12)
    assert prof.remainder >= 0.0
    covered = sum(t.contribution for t in prof.terms)
    assert math.isclose(covered + prof.remainder, prof.total, rel_tol=1e-12)


def test_profile_rejects_bad_range():
    f = chi(0.0, 1.0)
    with pytest.raises(ValueError):
        norm_profile(f, WeightParams(1, 1.0, 2.0, 0.0), (3, -3))
