"""Exponent arithmetic and dyadic geometry."""

import math

import pytest
from hypothesis import given, strategies as st

from blockspaces import DyadicAnnulus, HypothesisViolation, WeightParams
from blockspaces.params import unit_ball_volume


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        WeightParams(0, 1.0, 2.0, 0.0)
    with pytest.raises(ValueError):
        WeightParams(1, -1.0, 2.0, 0.0)
    with pytest.raises(ValueError):
        WeightParams(1, math.inf, 2.0, 0.0)
    with pytest.raises(ValueError):
        WeightParams(1, 1.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        WeightParams(1, 1.0, 2.0, math.nan)


def test_pbar_clips_at_one():
    assert WeightParams(1, 0.5, 2.0, 0.0).pbar == 0.5
    assert WeightParams(1, 1.0, 2.0, 0.0).pbar == 1.0
    assert WeightParams(1, 3.0, 4.0, 0.0).pbar == 1.0


def test_conjugate_exponent_edges():
    assert WeightParams(1, 1.0, 2.0, 0.0).s_conj == 2.0
    assert WeightParams(1, 1.0, 1.0, 0.0).s_conj == math.inf
    assert WeightParams(1, 1.0, math.inf, 0.0).s_conj == 1.0
    assert WeightParams(1, 1.0, math.inf, 0.0).inv_s == 0.0


def test_main_range_is_open():
    # -n < alpha < n(p-1); both endpoints excluded
    assert WeightParams(1, 2.0, 2.0, 0.5).in_main_range
    assert not WeightParams(1, 2.0, 2.0, 1.0).in_main_range
    assert not WeightParams(1, 2.0, 2.0, -1.0).in_main_range
    assert not WeightParams(1, 1.0, 2.0, 0.0).in_main_range  # upper endpoint at p=1


def test_inclusion_range_closed_above():
    # alpha <= n(p/s - 1), closed at the top
    assert WeightParams(1, 1.0, 2.0, -0.5).in_inclusion_range
    assert not WeightParams(1, 1.0, 2.0, -0.4).in_inclusion_range
    assert not WeightParams(1, 1.0, 2.0, -1.0).in_inclusion_range


def test_block_size_exponent_anchor():
    # p=1, s=2, alpha=0 in 1D: e = -1 + 1/2 = -1/2
    params = WeightParams(1, 1.0, 2.0, 0.0)
    assert params.block_size_exponent == -0.5
    assert params.block_coefficient_exponent == 0.5


def test_require_p_le_s():
    WeightParams(1, 2.0, 2.0, 0.0).require_p_le_s()
    with pytest.raises(HypothesisViolation):
        WeightParams(1, 3.0, 2.0, 0.0).require_p_le_s()


@given(
    p=st.floats(0.1, 4.0),
    s=st.floats(1.0, 8.0),
    alpha=st.floats(-3.0, 3.0),
    n=st.integers(1, 3),
)
def test_exponent_identity(p, s, alpha, n):
    params = WeightParams(n, p, s, alpha)
    e = params.block_size_exponent
    assert math.isclose(e, -alpha / (p * n) - 1.0 / p + 1.0 / s, abs_tol=1e-12)
    assert params.block_coefficient_exponent == -e
    assert params.pbar == min(p, 1.0)


def test_unit_ball_volumes():
    assert unit_ball_volume(1) == 2.0
    assert math.isclose(unit_ball_volume(2), math.pi, rel_tol=1e-15)
    assert math.isclose(unit_ball_volume(3), 4.0 * math.pi / 3.0, rel_tol=1e-15)


def test_annulus_geometry_1d():
    c0 = DyadicAnnulus(0, 1)
    assert c0.inner_radius == 0.5 and c0.outer_radius == 1.0
    assert c0.ball_measure == 2.0  # |B_0| = 2 in 1D
    assert c0.measure == 1.0       # two intervals of length 1/2

    ball = DyadicAnnulus(0, 1, restrict_type=True)
    assert ball.inner_radius == 0.0
    assert ball.measure == ball.ball_measure == 2.0

    with pytest.raises(ValueError):
        DyadicAnnulus(-1, 1, restrict_type=True)


@given(k=st.integers(-20, 20), n=st.integers(1, 3))
def test_shells_tile_the_ball(k, n):
    # |C_k| = |B_k| - |B_{k-1}|, exactly
    ck = DyadicAnnulus(k, n)
    bk = DyadicAnnulus(k, n).ball_measure
    bk1 = DyadicAnnulus(k - 1, n).ball_measure
    assert math.isclose(ck.measure, bk - bk1, rel_tol=1e-12)


def test_contains_radius_half_open():
    c1 = DyadicAnnulus(1, 1)
    assert not c1.contains_radius(1.0)
    assert c1.contains_radius(1.5)
    assert c1.contains_radius(2.0)
    assert not c1.contains_radius(2.5)
    assert DyadicAnnulus(0, 1, restrict_type=True).contains_radius(0.0)


def test_general_dimension():
    q = WeightParams(3, 2.0, 4.0, -1.0)
    assert q.in_main_range and not WeightParams(3, 2.0, 4.0, -3.0).in_main_range
    assert math.isclose(q.block_size_exponent, 1.0 / 6.0 - 0.5 + 0.25, rel_tol=1e-15)
    assert DyadicAnnulus(1, 2).ball_measure == unit_ball_volume(2) * 4.0
    assert DyadicAnnulus(1, 3).measure == unit_ball_volume(3) * 8.0 * (1.0 - 2.0 ** -3)
