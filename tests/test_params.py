"""Exponent arithmetic and dyadic geometry."""

import math

import pytest
from hypothesis import given, strategies as st

from blockspaces import DyadicAnnulus, HypothesisViolation, WeightParams
from blockspaces.cli import main


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
)
def test_exponent_identity(p, s, alpha):
    params = WeightParams(1, p, s, alpha)
    e = params.block_size_exponent
    assert math.isclose(e, -alpha / p - 1.0 / p + 1.0 / s, abs_tol=1e-12)
    assert params.block_coefficient_exponent == -e
    assert params.pbar == min(p, 1.0)


def test_annulus_geometry_1d():
    c0 = DyadicAnnulus(0)
    assert c0.inner_radius == 0.5 and c0.outer_radius == 1.0
    assert c0.ball_measure == 2.0  # |B_0| = 2 in 1D
    assert c0.measure == 1.0       # two intervals of length 1/2

    ball = DyadicAnnulus(0, restrict_type=True)
    assert ball.inner_radius == 0.0
    assert ball.measure == ball.ball_measure == 2.0

    with pytest.raises(ValueError):
        DyadicAnnulus(-1, restrict_type=True)
    with pytest.raises(TypeError):
        DyadicAnnulus(0, 1)  # restrict_type is keyword-only


@given(k=st.integers(-20, 20))
def test_shells_tile_the_ball(k):
    # |C_k| = |B_k| - |B_{k-1}|, exactly
    ck = DyadicAnnulus(k)
    bk = DyadicAnnulus(k).ball_measure
    bk1 = DyadicAnnulus(k - 1).ball_measure
    assert math.isclose(ck.measure, bk - bk1, rel_tol=1e-12)


def test_rejects_dimensions_other_than_one(tmp_path, capsys):
    # every evaluated function lives on R; another n would mix dimensions
    for n in (0, 2, 3):
        with pytest.raises(ValueError, match="n = 1"):
            WeightParams(n, 1.0, 2.0, 0.0)
    spec = tmp_path / "ball.json"
    spec.write_text('{"type": "indicator", "a": -1, "b": 1}')
    argv = ["norm", "--input", str(spec), "--params", "2,1,2,0", "--out", str(tmp_path / "n")]
    assert main(argv) == 2
    assert "n must be 1" in capsys.readouterr().err
    assert not (tmp_path / "n.json").exists()
