"""Weighted L^p norms against |x|^alpha dx, exact in 1D.

Piecewise-constant functions integrate in closed form (power antiderivative,
log branch at alpha = -1, split at the origin); divergent integrals return
math.inf as a distinguished value rather than raising, because the sharpness
harnesses need to observe divergence.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

from .params import DyadicAnnulus, WeightParams
from .piecewise import PiecewiseConstant1D


def _halfline_weight_integral(a: float, b: float, alpha: float) -> float:
    # int_a^b x^alpha dx for 0 <= a < b
    if a == b:
        return 0.0
    if alpha == 0.0:
        return b - a
    if alpha == -1.0:
        return math.inf if a == 0.0 else math.log(b / a)
    if alpha < -1.0 and a == 0.0:
        return math.inf
    return (b ** (alpha + 1.0) - a ** (alpha + 1.0)) / (alpha + 1.0)


def weight_integral(a: float, b: float, alpha: float) -> float:
    """int_a^b |x|^alpha dx, exact, for any a < b."""
    if b <= 0.0:
        return _halfline_weight_integral(-b, -a, alpha)
    if a >= 0.0:
        return _halfline_weight_integral(a, b, alpha)
    return _halfline_weight_integral(0.0, -a, alpha) + _halfline_weight_integral(0.0, b, alpha)


def _root(mass: float, p: float) -> float:
    """mass^(1/p); math.inf past the float range, as for a divergent integral."""
    try:
        return mass ** (1.0 / p)
    except OverflowError:
        return math.inf


def weighted_lp_norm(f: PiecewiseConstant1D, p: float, alpha: float) -> float:
    """(int |f|^p |x|^alpha dx)^(1/p); math.inf when the integral diverges or the norm is past the float range.

    p = math.inf computes the essential sup over pieces and ignores alpha
    (the weight does not change null sets while alpha > -1).
    """
    if not p > 0:
        raise ValueError(f"p must be positive, got {p}")
    if not isinstance(f, PiecewiseConstant1D):
        raise TypeError(f"unsupported function type {type(f).__name__}")
    if math.isinf(p):
        return max((abs(v) for v in f.values), default=0.0)
    mass = 0.0
    for a, b, v in zip(f.breakpoints, f.breakpoints[1:], f.values):
        if v == 0.0:
            continue
        w = weight_integral(a, b, alpha)
        if math.isinf(w):
            return math.inf
        mass += abs(v) ** p * w
    return _root(mass, p)


def restrict_to_annulus(
    f: PiecewiseConstant1D, k: int, restrict_type: bool = False
) -> PiecewiseConstant1D:
    """f times the indicator of the dyadic shell C_k (or its k = 0 ball variant)."""
    ann = DyadicAnnulus(k, restrict_type=restrict_type)
    r1, r2 = ann.inner_radius, ann.outer_radius
    if r1 == 0.0:
        return f.restrict(-r2, r2)
    return (f.restrict(-r2, -r1) + f.restrict(r1, r2)).simplify()


def _shell_norm(
    f: PiecewiseConstant1D, k: int, restrict_type: bool, s: float, alpha: float = 0.0
) -> float | None:
    """||f chi_{C_k}||_{L^s_{|x|^alpha}} from f's own pieces; None when the shell holds no nonzero piece.

    Bit for bit weighted_lp_norm(restrict_to_annulus(f, k, restrict_type), s, alpha),
    without building the restriction.  On each side of the shell a bisection
    finds f's first piece in it; the pieces are clipped to the side, and a
    run of equal values counts as the one piece simplify merges it into.  The
    two sides are apart, so no run joins them.  Zero runs add nothing, and
    the others add |v|^s times their weight integral, left to right, as the
    norm sums the restriction's pieces.  The cost routes take a shell that
    reaches 0 (the restrict-type ball; C_-1074, whose inner radius
    underflows) only at alpha = 0, where its weight integral stays finite.
    """
    ann = DyadicAnnulus(k, restrict_type=restrict_type)
    r1, r2 = ann.inner_radius, ann.outer_radius
    bps, vals = f.breakpoints, f.values
    runs = []  # (|v|, lo, hi) of each nonzero run, left to right
    for a, b in ((-r2, r2),) if r1 == 0.0 else ((-r2, -r1), (r1, r2)):
        i = max(bisect_right(bps, a) - 1, 0)
        while i < len(vals) and bps[i] < b:
            v, lo = vals[i], max(bps[i], a)
            while i + 1 < len(vals) and bps[i + 1] < b and vals[i + 1] == v:
                i += 1
            if v != 0.0:
                runs.append((abs(v), lo, min(bps[i + 1], b)))
            i += 1
    if not runs:
        return None
    if math.isinf(s):
        return max(v for v, _, _ in runs)
    mass = 0.0
    for v, lo, hi in runs:
        mass += v**s * weight_integral(lo, hi, alpha)
    return _root(mass, s)


@dataclass(frozen=True)
class ProfileTerm:
    k: int
    contribution: float  # exact int_{C_k} |f|^p |x|^alpha dx
    comparable: float    # |B_k|^alpha * ||f chi_{C_k}||_{L^p}^p


@dataclass(frozen=True)
class NormProfile:
    """Per-annulus split of the p-th power of the weighted norm.

    `contribution` entries are exact shell integrals and sum (with the
    remainder for everything outside the covered range) to total, which is
    weighted_lp_norm(f, p, alpha)^p.  `comparable` entries carry the
    ball-scaled unweighted terms, which reproduce the same totals only up to
    shell-width constants; both are reported.
    """

    params: WeightParams
    terms: tuple[ProfileTerm, ...]
    remainder: float
    total: float


def norm_profile(
    f: PiecewiseConstant1D, params: WeightParams, k_range: tuple[int, int]
) -> NormProfile:
    """Shell-by-shell weighted mass of f over k_range = (k_lo, k_hi)."""
    k_lo, k_hi = int(k_range[0]), int(k_range[1])
    if k_lo > k_hi:
        raise ValueError(f"empty annulus range {k_range}")
    p, alpha = params.p, params.alpha
    terms = []
    for k in range(k_lo, k_hi + 1):
        contribution = (_shell_norm(f, k, False, p, alpha) or 0.0) ** p
        comparable = DyadicAnnulus(k).ball_measure ** alpha * (_shell_norm(f, k, False, p) or 0.0) ** p
        terms.append(ProfileTerm(k, contribution, comparable))
    # f outside r < |x| <= R, the shells' union, in the pieces the shells cut it into
    r, R = 2.0 ** (k_lo - 1), 2.0**k_hi
    remainder = weighted_lp_norm(f - f.restrict(-R, -r) - f.restrict(r, R), p, alpha) ** p
    mass = sum(t.contribution for t in terms) + remainder
    return NormProfile(params=params, terms=tuple(terms), remainder=remainder, total=mass)
