"""Central blocks on dyadic shells of the real line and decompositions into them.

A block at scale k is supported on the shell C_k (or, in the restrict-type
variant used for the nonhomogeneous space, on C-tilde_k, which is the full
unit ball when k = 0) and obeys the size bound

    ||a||_{L^s} <= |B_k|^e,   e = -alpha/p - 1/p + 1/s,   |B_k| = 2^(k+1).

The constructive decompositions normalize each shell restriction of f to a
block with equality in the size bound, carrying the scale factor in the
coefficient; the quasinorm of the decomposed space is exposed only as the
cost of the best decomposition found, never as the true infimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .norms import _shell_norm, restrict_to_annulus, weighted_lp_norm
from .params import DyadicAnnulus, HypothesisViolation, WeightParams
from .piecewise import PiecewiseConstant1D

_SLACK_TOLERANCE = 1e-10


@dataclass(frozen=True)
class Block:
    params: WeightParams
    k: int
    restrict_type: bool
    data: PiecewiseConstant1D

    @property
    def annulus(self) -> DyadicAnnulus:
        return DyadicAnnulus(self.k, restrict_type=self.restrict_type)

    @property
    def ls_bound(self) -> float:
        """The admissible L^s norm, |B_k|^e."""
        return self.annulus.ball_measure ** self.params.block_size_exponent


@dataclass(frozen=True)
class BlockValidation:
    ok: bool
    measured_norm: float
    allowed_bound: float
    slack_ratio: float
    support_ok: bool
    leakage: str | None = None


def validate_block(candidate: Block) -> BlockValidation:
    """Check the support condition and the L^s size bound.

    The support check is exact; the size bound allows 1e-10 relative slack so
    a block normalized to equality in exact arithmetic validates cleanly.
    """
    data = candidate.data
    stray = (data - restrict_to_annulus(data, candidate.k, candidate.restrict_type)).simplify()
    support_ok = stray.is_zero
    leakage = None if support_ok else f"support leaks into {stray.support_bounds}"
    measured = weighted_lp_norm(data, candidate.params.s, 0.0)
    bound = candidate.ls_bound
    slack = measured / bound
    ok = support_ok and measured <= bound * (1.0 + _SLACK_TOLERANCE)
    return BlockValidation(ok, measured, bound, slack, support_ok, leakage)


def make_canonical_block(params: WeightParams, k: int) -> Block:
    """The indicator block c * chi on the shell C_k, meeting the size bound with equality."""
    params.require_p_le_s()
    ann = DyadicAnnulus(k)
    bound = ann.ball_measure ** params.block_size_exponent
    c = bound if math.isinf(params.s) else bound / ann.measure ** (1.0 / params.s)
    r1, r2 = ann.inner_radius, ann.outer_radius
    return Block(params, k, False, PiecewiseConstant1D((-r2, -r1, r1, r2), (c, 0.0, c)))


@dataclass(frozen=True)
class DecompositionTerm:
    lam: float
    block: Block


@dataclass(frozen=True)
class Decomposition:
    """A finite combination sum_j lambda_j a_j of blocks on distinct shells."""

    params: WeightParams
    terms: tuple[DecompositionTerm, ...]
    homogeneous: bool
    residual: PiecewiseConstant1D | None = None
    residual_norm: float = 0.0

    @property
    def coefficient_cost(self) -> float:
        """sum |lambda_j|^pbar, the decomposition's cost."""
        pbar = self.params.pbar
        return sum(abs(t.lam) ** pbar for t in self.terms)

    def synthesize(self) -> PiecewiseConstant1D:
        """sum lambda_j * a_j, exact up to one rounding per piece value."""
        out = PiecewiseConstant1D.zero()
        for t in self.terms:
            out = out + t.lam * t.block.data
        return out.simplify()


def _shell_coefficients(
    f: PiecewiseConstant1D, params: WeightParams, ks, restrict_type: bool
) -> list[tuple[int, float]]:
    """(k, lambda_k) for each k of ks, in order, whose shell holds a nonzero piece of f.

    Where lambda_k is 0 (|v|^s underflows) or 1/lambda_k overflows, it is
    recomputed as |B_k|^e m ||f_k / m||, m the largest |v| on the shell.
    """
    out = []
    exponent = params.block_coefficient_exponent
    for k in ks:
        norm_s = _shell_norm(f, k, restrict_type, params.s)
        if norm_s is not None:
            lam = _shell_coefficient(k, exponent, norm_s)
            if lam == 0.0 or math.isinf(1.0 / lam):
                fk = restrict_to_annulus(f, k, restrict_type)
                m = max(map(abs, fk.values))
                unit = PiecewiseConstant1D(fk.breakpoints, [v / m for v in fk.values])
                lam = _shell_coefficient(k, exponent, m * _shell_norm(unit, k, restrict_type, params.s))
            out.append((k, lam))
    return out


def _shell_coefficient(k: int, exponent: float, norm_s: float) -> float:
    """lambda_k = |B_k|^exponent norm_s.

    Near k = -1074 with exponent < 0, |B_k|^exponent = 2^((k + 1) exponent)
    overflows while norm_s is tiny; only there the power of each half of
    2^(k + 1), ldexp(1, j) and ldexp(1, k + 1 - j), scales norm_s in turn.
    """
    try:
        return DyadicAnnulus(k).ball_measure ** exponent * norm_s
    except OverflowError:
        j = (k + 1) // 2
        return math.ldexp(1.0, j) ** exponent * (math.ldexp(1.0, k + 1 - j) ** exponent * norm_s)


def _shell_terms(
    f: PiecewiseConstant1D, params: WeightParams, ks, restrict_type: bool
) -> tuple[DecompositionTerm, ...]:
    """The nonzero shell restrictions of f, in the order of ks, normalized to (lambda, block).

    A block is f_k (1/lambda), or f_k / lambda piece by piece where 1/lambda overflows.
    """
    terms = []
    for k, lam in _shell_coefficients(f, params, ks, restrict_type):
        fk, inverse = restrict_to_annulus(f, k, restrict_type), 1.0 / lam
        block = fk * inverse if math.isfinite(inverse) else PiecewiseConstant1D(fk.breakpoints, [v / lam for v in fk.values])
        terms.append(DecompositionTerm(lam, Block(params, k, restrict_type, block)))
    return tuple(terms)


def _require_unit_ball_support(f: PiecewiseConstant1D) -> None:
    """The shell decompositions cover k <= 0 only, so mass outside B_0 would be dropped."""
    bounds = f.support_bounds
    if bounds is not None and max(abs(bounds[0]), abs(bounds[1])) > 1.0:
        raise HypothesisViolation(
            f"support {bounds} leaks outside the unit ball; this route needs supp f in B_0"
        )


def decompose_homogeneous(
    f: PiecewiseConstant1D, params: WeightParams, k_min: int
) -> Decomposition:
    """Shell-by-shell decomposition of f supported in the unit ball.

    Emits one term per nonempty shell with k_min <= k <= 0 and reports the
    truncated inner piece (f restricted to the ball of radius 2^(k_min - 1))
    together with its weighted L^s norm; synthesize() plus that piece
    reproduces f up to floating-point rounding.
    """
    if params.p >= params.s:
        raise HypothesisViolation(
            f"shell decomposition requires p < s, got p={params.p}, s={params.s}"
        )
    if params.alpha <= -1.0:
        raise HypothesisViolation(
            f"shell decomposition requires alpha > -n, got alpha={params.alpha}"
        )
    if k_min > 0:
        raise ValueError(f"k_min must be <= 0, got {k_min}")
    _require_unit_ball_support(f)
    terms = _shell_terms(f, params, range(0, k_min - 1, -1), restrict_type=False)
    inner = 2.0 ** (k_min - 1)
    residual = f.restrict(-inner, inner)
    residual_norm = weighted_lp_norm(residual, params.s, params.alpha)
    return Decomposition(params, terms, True, residual, residual_norm)


def decompose_nonhomogeneous(f: PiecewiseConstant1D, params: WeightParams) -> Decomposition:
    """Restrict-type decomposition over k = 0..K covering the whole support.

    Synthesis is exact (no residual): the k = 0 shell is the full unit ball
    and the shells partition space out to the support radius.
    """
    params.require_p_le_s()
    return Decomposition(params, _shell_terms(f, params, _restrict_type_scales(f), True), False)


def _restrict_type_scales(f: PiecewiseConstant1D) -> range:
    """k = 0..K, the restrict-type shells out to the support radius of f; none for f = 0."""
    bounds = f.support_bounds
    if bounds is None:
        return range(0)
    mantissa, exponent = math.frexp(max(abs(bounds[0]), abs(bounds[1])))
    # ceil(log2 radius) exactly (log2 rounds a radius a few ulps above 2^K down to K)
    K = exponent - 1 if mantissa == 0.5 else exponent
    return range(0, max(0, K) + 1)


def _nonhomogeneous_cost(f: PiecewiseConstant1D, params: WeightParams) -> float:
    """decompose_nonhomogeneous(f, params).coefficient_cost, bit for bit, without building the blocks."""
    params.require_p_le_s()
    lams = _shell_coefficients(f, params, _restrict_type_scales(f), restrict_type=True)
    return sum(abs(lam) ** params.pbar for _, lam in lams)


def split_pieces(f: PiecewiseConstant1D, cuts) -> list[PiecewiseConstant1D]:
    """The nonzero pieces of f cut at the sorted cuts and past its support's ends; they sum to f."""
    lo, hi = f.support_bounds
    edges = [lo - 1.0, *cuts, hi + 1.0]
    pieces = (f.restrict(a, b) for a, b in zip(edges, edges[1:]))
    return [piece for piece in pieces if not piece.is_zero]


def _tail_cost(f: PiecewiseConstant1D, params: WeightParams, k_tail: int) -> float:
    """Exact cost of the infinite shell family below scale k_tail.

    Valid when f is constant on (-2^k_tail, 0) and on (0, 2^k_tail): the
    coefficients are then 0 or exactly geometric with ratio 2^((alpha+1)/p)
    per scale, and the cost sums in closed form.
    """
    if _shell_norm(f, k_tail, False, params.s) is None:
        return 0.0
    if params.alpha <= -1.0:
        return math.inf
    ((_, lam),) = _shell_coefficients(f, params, [k_tail], restrict_type=False)
    ratio = 2.0 ** ((params.alpha + 1.0) / params.p * params.pbar)
    return abs(lam) ** params.pbar / (1.0 - 1.0 / ratio)


def homogeneous_total_cost(f: PiecewiseConstant1D, params: WeightParams) -> float:
    """Cost of the full shell decomposition of f (support in the unit ball),
    including the exact closed-form tail over the infinitely many inner shells."""
    _require_unit_ball_support(f)
    radii = [abs(x) for x in f.breakpoints if x != 0.0]
    if not radii:
        return 0.0
    # floor(log2 r) exactly, so no breakpoint lies inside shell k_tail (log2 rounds 2^k - ulp up to k)
    k_tail = math.frexp(min(radii))[1] - 1
    lams = _shell_coefficients(f, params, range(0, k_tail, -1), restrict_type=False)
    return sum(abs(lam) ** params.pbar for _, lam in lams) + _tail_cost(f, params, k_tail)


def rl_norm_upper_bound(
    f: PiecewiseConstant1D,
    params: WeightParams,
    strategy: str = "greedy",
    seed: int = 0,
) -> float:
    """Upper bound on the block-space quasinorm of f.

    Returns the smaller coefficient cost^(1/pbar) of two decompositions: the
    restrict-type route always, and the homogeneous route (with its exact
    geometric tail) when f is supported in the unit ball and p < s.  The
    result is always >= the true quasinorm.  Cutting f into pieces with
    disjoint supports and decomposing each cannot do better, since each
    lambda_k of f is at most the sum of the pieces' lambda_k and pbar <= 1;
    so strategy="greedy+perturbations" is a synonym of "greedy", and seed is
    accepted and unused.
    """
    if strategy not in ("greedy", "greedy+perturbations"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if f.is_zero:
        return 0.0
    cost = _nonhomogeneous_cost(f, params)
    lo, hi = f.support_bounds
    if max(abs(lo), abs(hi)) <= 1.0 and params.p < params.s:
        cost = min(cost, homogeneous_total_cost(f, params))
    return cost ** (1.0 / params.pbar)
