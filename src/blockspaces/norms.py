"""Weighted L^p norms against |x|^alpha dx, exact in 1D.

Piecewise-constant functions integrate in closed form (power antiderivative,
log branch at alpha = -1, split at the origin); divergent integrals return
math.inf as a distinguished value rather than raising, because the sharpness
harnesses need to observe divergence.  Lattice functions use the exact
weight mass of each cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import LatticeFunction
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


def _lattice_weights(f: LatticeFunction, alpha: float) -> np.ndarray:
    """Per-cell masses int_cell |x|^alpha dx, exact.

    Power/log antiderivative per cell, with inf for the origin cells when
    alpha <= -1.
    """
    r = f.midpoint_radii()
    lo = np.maximum(r - 0.5 * f.h, 0.0)
    hi = r + 0.5 * f.h
    if alpha == 0.0:
        return np.full_like(r, f.h)
    w = np.full_like(r, math.inf)
    # origin cells (lo = 0) stay inf only when the singularity is non-integrable
    pos = lo > 0.0 if alpha <= -1.0 else np.ones_like(lo, dtype=bool)
    if alpha == -1.0:
        w[pos] = np.log(hi[pos] / lo[pos])
    else:
        w[pos] = (hi[pos] ** (alpha + 1.0) - lo[pos] ** (alpha + 1.0)) / (alpha + 1.0)
    return w


def weighted_lp_norm(f, p: float, alpha: float) -> float:
    """(int |f|^p |x|^alpha dx)^(1/p); math.inf when the integral diverges.

    p = math.inf computes the essential sup over pieces/cells and ignores
    alpha (the weight does not change null sets while alpha > -1).
    """
    if not p > 0:
        raise ValueError(f"p must be positive, got {p}")
    if isinstance(f, PiecewiseConstant1D):
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
        return mass ** (1.0 / p)
    if isinstance(f, LatticeFunction):
        vals = np.abs(f.values)
        if math.isinf(p):
            return float(vals.max(initial=0.0))
        w = _lattice_weights(f, alpha)
        nonzero = vals > 0
        if np.any(np.isinf(w[nonzero])):
            return math.inf
        return float(np.sum(vals[nonzero] ** p * w[nonzero]) ** (1.0 / p))
    raise TypeError(f"unsupported function type {type(f).__name__}")


def restrict_to_annulus(
    f: PiecewiseConstant1D, k: int, restrict_type: bool = False
) -> PiecewiseConstant1D:
    """f times the indicator of the dyadic shell C_k (or its k = 0 ball variant)."""
    ann = DyadicAnnulus(k, restrict_type=restrict_type)
    r1, r2 = ann.inner_radius, ann.outer_radius
    if r1 == 0.0:
        return f.restrict(-r2, r2)
    return (f.restrict(-r2, -r1) + f.restrict(r1, r2)).simplify()


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
    covered = PiecewiseConstant1D.zero()
    terms = []
    for k in range(k_lo, k_hi + 1):
        fk = restrict_to_annulus(f, k)
        contribution = weighted_lp_norm(fk, p, alpha) ** p
        comparable = DyadicAnnulus(k).ball_measure ** alpha * weighted_lp_norm(fk, p, 0.0) ** p
        terms.append(ProfileTerm(k, contribution, comparable))
        covered = covered + fk
    remainder = weighted_lp_norm(f - covered, p, alpha) ** p
    mass = sum(t.contribution for t in terms) + remainder
    return NormProfile(params=params, terms=tuple(terms), remainder=remainder, total=mass)
