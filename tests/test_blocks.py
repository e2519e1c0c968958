"""Blocks and constructive decompositions.

Closed-form coefficient oracles: a shell indicator f = chi_{C_k} has
||f||_{L^s} = |C_k|^{1/s} and lambda_k = |B_k|^{-e} |C_k|^{1/s} with
e = -alpha/(pn) - 1/p + 1/s, all powers of 2 for dyadic parameters, so
several anchors below are asserted bit-exactly.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockspaces import (
    Block,
    HypothesisViolation,
    PiecewiseConstant1D,
    WeightParams,
    decompose_homogeneous,
    decompose_nonhomogeneous,
    homogeneous_total_cost,
    make_canonical_block,
    rl_norm_upper_bound,
    validate_block,
)

P0 = WeightParams(1, 1.0, 2.0, 0.0)
PMID = WeightParams(1, 1.0, 2.0, -0.5)


def chi(a, b, v=1.0):
    return PiecewiseConstant1D.indicator(a, b, v)


@st.composite
def ball_functions(draw, max_pieces=4):
    """Nonzero piecewise functions supported in the unit ball."""
    m = draw(st.integers(1, max_pieces))
    bps = draw(
        st.lists(
            st.floats(-1, 1, allow_nan=False).map(lambda x: round(x, 3)),
            min_size=m + 1,
            max_size=m + 1,
            unique=True,
        )
    )
    vals = draw(
        st.lists(st.integers(-5, 5), min_size=m, max_size=m).filter(lambda v: any(v))
    )
    return PiecewiseConstant1D(sorted(bps), [float(v) for v in vals])


# -- canonical blocks ---------------------------------------------------------


def test_canonical_indicator_block_meets_bound_with_equality():
    for k in (-3, 0, 2):
        blk = make_canonical_block(P0, k)
        rep = validate_block(blk)
        assert rep.ok and rep.support_ok
        assert math.isclose(rep.slack_ratio, 1.0, rel_tol=1e-12)


def test_validation_flags_support_leakage():
    # C_0 is 1/2 < |x| <= 1; this candidate spills into (0.4, 0.5)
    bad = Block(P0, 0, False, chi(0.4, 1.0, 0.1))
    rep = validate_block(bad)
    assert not rep.ok and not rep.support_ok
    assert rep.leakage is not None


def test_validation_flags_oversized_block():
    blk = make_canonical_block(P0, 0)
    fat = Block(P0, 0, False, blk.data * 1.1)
    rep = validate_block(fat)
    assert rep.support_ok and not rep.ok
    assert rep.slack_ratio > 1.05


# -- shell coefficients -------------------------------------------------------


def test_unit_shell_coefficient_is_sqrt2():
    # chi_{C_0}: ||.||_{L^2} = 1, scale |B_0|^{1/2} = sqrt 2 -- bit-exact
    f = PiecewiseConstant1D((-1.0, -0.5, 0.5, 1.0), (1.0, 0.0, 1.0))
    dec = decompose_homogeneous(f, P0, k_min=-2)
    assert len(dec.terms) == 1
    assert dec.terms[0].block.k == 0
    assert dec.terms[0].lam == math.sqrt(2.0)
    assert dec.residual_norm == 0.0


def test_interval_indicator_coefficient_is_two():
    # chi_{(1,2]} sits on the k = 1 shell: lambda = |B_1|^{1/2} * 1 = 2
    dec = decompose_nonhomogeneous(chi(1.0, 2.0), P0)
    assert len(dec.terms) == 1
    assert dec.terms[0].block.k == 1
    assert dec.terms[0].lam == 2.0


def test_nonhomogeneous_ball_indicator_term_count():
    # chi_{B_2} covers the restrict-type shells k = 0, 1, 2 and nothing else
    dec = decompose_nonhomogeneous(chi(-4.0, 4.0), P0)
    assert [t.block.k for t in dec.terms] == [0, 1, 2]
    assert dec.residual is None
    assert dec.synthesize().equal_as_functions(chi(-4.0, 4.0))


def test_nonhomogeneous_zero_function_is_empty():
    dec = decompose_nonhomogeneous(PiecewiseConstant1D.zero(), P0)
    assert dec.terms == ()
    assert dec.coefficient_cost == 0.0


def test_homogeneous_small_ball_skips_outer_shells():
    f = chi(-0.125, 0.125)  # = chi_{B_{-3}}
    dec = decompose_homogeneous(f, PMID, k_min=-5)
    assert [t.block.k for t in dec.terms] == [-3, -4, -5]
    assert dec.residual_norm > 0.0  # mass below 2^{-6} remains


def test_homogeneous_residual_shrinks_with_depth():
    f = chi(-1.0, 1.0)
    norms = [
        decompose_homogeneous(f, PMID, k_min=k).residual_norm for k in (0, -4, -8, -12)
    ]
    assert all(a > b for a, b in zip(norms, norms[1:]))


# -- hypothesis guards --------------------------------------------------------


def test_homogeneous_requires_p_below_s():
    with pytest.raises(HypothesisViolation):
        decompose_homogeneous(chi(-1.0, 1.0), WeightParams(1, 2.0, 2.0, 0.0), -2)


def test_homogeneous_requires_ball_support():
    with pytest.raises(HypothesisViolation):
        decompose_homogeneous(chi(0.0, 3.0), PMID, -2)


def test_homogeneous_rejects_positive_k_min():
    with pytest.raises(ValueError):
        decompose_homogeneous(chi(-1.0, 1.0), PMID, 1)


# -- exact geometric tail -----------------------------------------------------


def test_total_cost_matches_truncated_sums_geometrically():
    # remainder after truncating at k_min decays like 2^{k_min (alpha+1)/p}
    f = chi(-1.0, 1.0)
    total = homogeneous_total_cost(f, PMID)
    partial = lambda k: decompose_homogeneous(f, PMID, k).coefficient_cost
    rem1 = total - partial(-20)
    rem2 = total - partial(-40)
    assert rem1 > 0.0 and rem2 > 0.0
    q = 2.0 ** ((PMID.alpha + 1.0) / PMID.p)
    assert math.isclose(rem2 / rem1, q ** -20, rel_tol=1e-9)


def test_total_cost_infinite_at_critical_weight():
    # alpha = -n: shell coefficients stop decaying and the series diverges
    assert homogeneous_total_cost(chi(-1.0, 1.0), WeightParams(1, 1.0, 2.0, -1.0)) == math.inf
    near = WeightParams(1, 1.0, 2.0, -0.999)
    assert math.isfinite(homogeneous_total_cost(chi(-1.0, 1.0), near))


@pytest.mark.parametrize("a, b", [(1.5, 3.0), (0.5, 3.0)])
def test_total_cost_requires_ball_support(a, b):
    # the shells k <= 0 cover only B_0; the mass outside it would be dropped
    with pytest.raises(HypothesisViolation, match="unit ball"):
        homogeneous_total_cost(chi(a, b), PMID)


def test_tail_zero_when_origin_clean():
    # support away from 0: finitely many shells, the tail contributes nothing
    f = chi(0.25, 1.0)
    total = homogeneous_total_cost(f, PMID)
    assert math.isclose(total, decompose_homogeneous(f, PMID, -3).coefficient_cost, rel_tol=1e-12)


# -- upper bounds -------------------------------------------------------------


def test_upper_bound_at_most_single_block_cost():
    f = PiecewiseConstant1D((-1.0, -0.5, 0.5, 1.0), (1.0, 0.0, 1.0))
    assert rl_norm_upper_bound(f, P0) <= math.sqrt(2.0) * (1.0 + 1e-12)
    assert rl_norm_upper_bound(chi(1.0, 2.0), P0) <= 2.0 * (1.0 + 1e-12)


def test_upper_bound_zero_function():
    assert rl_norm_upper_bound(PiecewiseConstant1D.zero(), P0) == 0.0


def test_upper_bound_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        rl_norm_upper_bound(chi(0.0, 1.0), P0, strategy="anneal")


@settings(deadline=None, max_examples=40)
@given(f=ball_functions(), seed=st.integers(0, 2**16))
def test_perturbed_upper_bound_never_worse(f, seed):
    base = rl_norm_upper_bound(f, PMID, strategy="greedy")
    tried = rl_norm_upper_bound(f, PMID, strategy="greedy+perturbations", seed=seed)
    assert tried <= base * (1.0 + 1e-12)


# -- round trips and term validity --------------------------------------------


@settings(deadline=None, max_examples=40)
@given(f=ball_functions())
def test_homogeneous_synthesis_reproduces_function(f):
    dec = decompose_homogeneous(f, PMID, k_min=-8)
    back = dec.synthesize() + dec.residual
    diff = (f - back).simplify()
    scale = max(abs(v) for v in f.values)
    assert all(abs(v) <= 1e-12 * scale for v in diff.values)


@settings(deadline=None, max_examples=40)
@given(f=ball_functions())
def test_every_emitted_term_validates(f):
    dec = decompose_nonhomogeneous(f, PMID)
    for t in dec.terms:
        assert validate_block(t.block).ok
    dec2 = decompose_homogeneous(f, PMID, -6)
    for t in dec2.terms:
        assert validate_block(t.block).ok


@settings(deadline=None, max_examples=40)
@given(f=ball_functions())
def test_cost_scales_like_coefficients(f):
    # doubling f doubles every lambda: cost scales by 2^pbar
    dec1 = decompose_nonhomogeneous(f, PMID)
    dec2 = decompose_nonhomogeneous(f * 2.0, PMID)
    assert math.isclose(
        dec2.coefficient_cost, 2.0 ** PMID.pbar * dec1.coefficient_cost, rel_tol=1e-12
    )
