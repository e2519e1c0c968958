"""Blocks and constructive decompositions.

Closed-form coefficient oracles: a shell indicator f = chi_{C_k} has
||f||_{L^s} = |C_k|^{1/s} and lambda_k = |B_k|^{-e} |C_k|^{1/s} with
e = -alpha/(pn) - 1/p + 1/s, all powers of 2 for dyadic parameters, so
several anchors below are asserted bit-exactly.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    restrict_to_annulus,
    rl_norm_upper_bound,
    validate_block,
    weighted_lp_norm,
)
from blockspaces.blocks import _nonhomogeneous_cost, _shell_coefficient, _shell_coefficients, _shell_norm, split_pieces
from strategies import sweep_functions

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


@pytest.mark.parametrize("K", range(4, 61))
def test_nonhomogeneous_reaches_a_radius_just_above_a_power_of_two(K):
    # log2 rounds this radius down to K, which left the shell K + 1, and f's
    # mass in it, out of the decomposition and the cost
    edge = 2.0**K
    f = PiecewiseConstant1D((0.0, edge, math.nextafter(edge, math.inf)), (1.0, 1e20))
    dec = decompose_nonhomogeneous(f, P0)
    assert [t.block.k for t in dec.terms] == list(range(K + 2))
    back = dec.synthesize()
    assert back.breakpoints == f.breakpoints
    assert np.allclose(back.values, f.values, rtol=1e-15, atol=0.0)
    lams = _shell_coefficients(f, P0, range(K + 2), restrict_type=True)
    assert _nonhomogeneous_cost(f, P0) == sum(abs(lam) for _, lam in lams)
    # a block on B_k has L^1 norm at most 1, so ||f||_{L^1} <= the quasinorm at (1, 2, 0)
    assert rl_norm_upper_bound(f, P0) >= weighted_lp_norm(f, 1.0, 0.0)


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


# -- shell norms from one sweep over f's pieces --------------------------------


@settings(deadline=None, max_examples=200)
@example(  # a run of three equal pieces on C_0 sums to other bits unmerged
    f=PiecewiseConstant1D((0.25, 0.7845537517371617, 0.9523479922561183, 1.0), (0.75, 0.75, 0.75)),
    k=0,
    restrict_type=False,
    s=3.0,
    alpha=0.0,
)
@given(
    f=sweep_functions(),
    k=st.integers(-9, 3),
    restrict_type=st.booleans(),
    s=st.sampled_from([0.5, 1.0, 2.0, 3.0, math.inf]),
    alpha=st.sampled_from([-0.75, -0.5, 0.0, 0.5]),
)
def test_shell_norm_is_the_norm_of_the_restriction(f, k, restrict_type, s, alpha):
    if restrict_type:
        # restrict-type shells have k >= 0, and the ball at k = 0 is only normed unweighted
        k, alpha = k % 4, 0.0
    fk = restrict_to_annulus(f, k, restrict_type)
    got = _shell_norm(f, k, restrict_type, s, alpha)
    assert (got is None) == fk.is_zero
    if got is not None:
        assert got.hex() == weighted_lp_norm(fk, s, alpha).hex()


def _total_cost_by_restriction(f, params):
    """homogeneous_total_cost as formed from the shell restrictions of f, each normed on its own."""
    radii = [abs(x) for x in f.breakpoints if x != 0.0]
    if not radii:
        return 0.0
    k_tail = math.frexp(min(radii))[1] - 1

    def lam(k):
        fk = restrict_to_annulus(f, k)
        if fk.is_zero:
            return None
        value = _shell_coefficient(k, params.block_coefficient_exponent, weighted_lp_norm(fk, params.s, 0.0))
        if value == 0.0 or math.isinf(1.0 / value):
            # |v|^s underflowed or 1/lambda overflows: lambda is m ||f_k / m||, m = max |v|
            m = max(map(abs, fk.values))
            unit = PiecewiseConstant1D(fk.breakpoints, [v / m for v in fk.values])
            value = _shell_coefficient(k, params.block_coefficient_exponent, m * weighted_lp_norm(unit, params.s, 0.0))
        return value

    cost = sum(abs(v) ** params.pbar for v in map(lam, range(0, k_tail, -1)) if v is not None)
    if restrict_to_annulus(f, k_tail).is_zero:
        return cost + 0.0
    if params.alpha <= -1.0:
        return cost + math.inf
    ratio = 2.0 ** ((params.alpha + 1.0) / params.p * params.pbar)
    return cost + abs(lam(k_tail)) ** params.pbar / (1.0 - 1.0 / ratio)


@settings(deadline=None, max_examples=100)
@given(
    f=sweep_functions(top=0),
    p=st.sampled_from([0.5, 1.0, 2.0]),
    s=st.sampled_from([1.0, 2.0, 3.0, math.inf]),
    alpha=st.sampled_from([-1.0, -0.75, -0.5, 0.0]),
)
@example(  # k_tail = -1074: f(+-r/2) reads f(0) = (1 - 1)/2 = 0, but the tail shell holds f's two pieces
    f=PiecewiseConstant1D((-1.0, -0.5, -5e-324, 0.0, 0.0625, 1.0), (0.0, 0.0, 1.0, -1.0, 0.0)),
    p=0.5,
    s=2.0,
    alpha=-1.0,
)
@example(  # |B_k|^-1 = 2^-(k + 1) overflows on the shells k <= -1025 that hold (5e-324, 1]
    f=PiecewiseConstant1D((5e-324, 1.0), (1.0,)),
    p=0.5,
    s=1.0,
    alpha=-1.0,
)
@example(  # the value's square underflows, so lambda takes the rescale m ||f_k / m||
    f=PiecewiseConstant1D((0.25, 0.5), (2.2250738585072014e-308,)),
    p=0.5,
    s=2.0,
    alpha=-0.5,
)
def test_total_cost_is_the_restriction_route_bit_for_bit(f, p, s, alpha):
    params = WeightParams(1, p, s, alpha)
    assert homogeneous_total_cost(f, params).hex() == _total_cost_by_restriction(f, params).hex()


def test_cost_is_finite_where_the_ball_power_overflows():
    # every shell k = 0..-1073 of (5e-324, 1] has lambda_k = 2^-(k + 1) (2^(k - 1)) = 1/4,
    # though 2^-(k + 1) itself overflows past k = -1025
    f, params = PiecewiseConstant1D((5e-324, 1.0), (1.0,)), WeightParams(1, 0.5, 1.0, -1.0)
    lams = _shell_coefficients(f, params, range(0, -1074, -1), restrict_type=False)
    assert [lam for _, lam in lams] == [0.25] * 1074
    assert homogeneous_total_cost(f, params) == _total_cost_by_restriction(f, params) == 537.0


@settings(deadline=None, max_examples=100)
@given(
    f=sweep_functions(top=4),
    p=st.sampled_from([0.5, 1.0, 2.0]),
    s=st.sampled_from([2.0, 3.0, math.inf]),
    alpha=st.sampled_from([-0.75, -0.5, 0.0]),
)
def test_nonhomogeneous_cost_is_the_decomposition_cost_bit_for_bit(f, p, s, alpha):
    params = WeightParams(1, p, s, alpha)
    try:
        want = decompose_nonhomogeneous(f, params).coefficient_cost
    except ZeroDivisionError:
        # a shell whose lambda is 0 even as |B_k|^e m ||f_k / m||, m its
        # largest |v|, gives its block no scale (CHANGES.md); the cost still
        # counts that lambda.  One whose 1/lambda overflows divides by lambda
        lams = [lam for _, lam in _shell_coefficients(f, params, range(0, 5), True)]
        assert 0.0 in lams
        return
    # repr tells the doubles apart bit for bit, and both are the int 0 for f = 0
    assert repr(_nonhomogeneous_cost(f, params)) == repr(want)


@pytest.mark.parametrize("value, s", [(1.9234716284469627e-187, 2.0), (2.225073858507203e-309, math.inf)])
def test_nonhomogeneous_decomposition_where_the_shell_norm_underflows(value, s):
    # |v|^2 underflows to 0, so the first shell norm reads 0; the second
    # lambda is subnormal and 1/lambda overflows.  Both raised; lambda is now
    # |B_0|^e m ||f_0 / m|| with m = |v|, and the block f_0 / lambda
    f = PiecewiseConstant1D((0.0, 1.0), (value,))
    params = WeightParams(1, 0.5, s, -0.75)
    dec = decompose_nonhomogeneous(f, params)
    assert dec.synthesize() == f
    assert dec.coefficient_cost == _nonhomogeneous_cost(f, params) > 0.0


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


def test_tail_starts_below_a_radius_just_under_a_power_of_two():
    # log2 rounds this radius up to -3, which put the breakpoint inside shell
    # -3 and left f's mass on (x, 1/8] out of the cost
    x = math.ldexp(1.0 - 2.0**-53, -3)
    f = PiecewiseConstant1D((0.0, x, 1.0), (0.0, 1.0))
    assert homogeneous_total_cost(f, PMID) == decompose_homogeneous(f, PMID, -4).coefficient_cost


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


def _bound_by_decompositions(f, params, cuts):
    """rl_norm_upper_bound(f, params) with the restrict-type cost read off the
    decomposition of f; also the cost of decomposing each piece of f cut at cuts."""
    costs = [decompose_nonhomogeneous(f, params).coefficient_cost]
    lo, hi = f.support_bounds
    if max(abs(lo), abs(hi)) <= 1.0 and params.p < params.s:
        costs.append(homogeneous_total_cost(f, params))
    split = sum(decompose_nonhomogeneous(piece, params).coefficient_cost for piece in split_pieces(f, cuts))
    return min(costs) ** (1.0 / params.pbar), split


_BOUND_CASES = dict(
    f=sweep_functions(top=4),
    p=st.sampled_from([0.5, 1.0, 2.0]),
    s=st.sampled_from([2.0, 3.0, math.inf]),
    alpha=st.sampled_from([-0.75, -0.5, 0.0, 0.5]),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
)


@settings(deadline=None, max_examples=100)
@given(**_BOUND_CASES, seed=st.integers(0, 2**16))
def test_perturbed_bound_is_the_decomposition_route_bit_for_bit(f, p, s, alpha, fractions, seed):
    params = WeightParams(1, p, s, alpha)
    if f.is_zero:
        return
    lo, hi = f.support_bounds
    cuts = sorted(lo + u * (hi - lo) for u in fractions)
    try:
        want, split = _bound_by_decompositions(f, params, cuts)
    except (ZeroDivisionError, ValueError, OverflowError):
        # a piece whose lambda has no finite inverse gives its block no scale
        # (CHANGES.md), and a breakpoint near 2^-1074 overflows the
        # homogeneous route; the shell coefficients count such a lambda
        return
    assert repr(sum(_nonhomogeneous_cost(piece, params) for piece in split_pieces(f, cuts))) == repr(split)
    assert repr(rl_norm_upper_bound(f, params, "greedy+perturbations", seed)) == repr(want)


@settings(deadline=None, max_examples=100)
@given(**_BOUND_CASES)
def test_no_split_of_f_beats_the_upper_bound(f, p, s, alpha, fractions):
    # each lambda_k of f is at most the sum of its pieces' lambda_k and pbar <= 1,
    # so cutting f and decomposing each piece never costs less than the bound,
    # up to rounding
    params = WeightParams(1, p, s, alpha)
    if f.is_zero:
        return
    try:
        bound = rl_norm_upper_bound(f, params)
    except OverflowError:
        # a breakpoint near 2^-1074 overflows the homogeneous route's tail
        return
    lo, hi = f.support_bounds
    cuts = sorted(lo + u * (hi - lo) for u in fractions)
    split = sum(_nonhomogeneous_cost(piece, params) for piece in split_pieces(f, cuts))
    assert bound ** params.pbar <= split * (1.0 + 2.0**-50)


def test_perturbed_bound_counts_a_piece_whose_lambda_underflows():
    # the piece (0, 1/2) holds only 1.9e-187, whose square underflows: its
    # lambda is m ||f_0 / m||, m = 1.9e-187, which scales its block, and the
    # cost counts it
    f = PiecewiseConstant1D((0.0, 0.5, 1.0), (1.9234716284469627e-187, 1.0))
    params = WeightParams(1, 0.5, 2.0, -0.75)
    piece = f.restrict(0.0, 0.5)
    assert decompose_nonhomogeneous(piece, params).synthesize() == piece
    bound = rl_norm_upper_bound(f, params)
    assert bound == rl_norm_upper_bound(f, params, "greedy+perturbations", 3) == 0.7071067811865477
    split = sum(_nonhomogeneous_cost(piece, params) for piece in split_pieces(f, [0.5]))
    assert bound ** params.pbar <= split < math.inf


@settings(deadline=None, max_examples=40)
@given(f=ball_functions(), seed=st.integers(0, 2**16))
def test_perturbed_upper_bound_never_worse(f, seed):
    # "greedy+perturbations" is a synonym of "greedy": the same bits at any seed
    base = rl_norm_upper_bound(f, PMID, strategy="greedy")
    tried = rl_norm_upper_bound(f, PMID, strategy="greedy+perturbations", seed=seed)
    assert repr(tried) == repr(base)


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
