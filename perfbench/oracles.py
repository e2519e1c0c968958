"""Independent reference values for the correctness checks.

Nothing here imports blockspaces.  Every oracle works piece by piece from the
(breakpoints, values) description of a function, so it shares no code and no
intermediate representation (jump coefficients, dense matrices) with the
program.  `scipy.special.sici` serves as the sine-integral oracle here only;
the program must never use it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import sici

EPS = np.finfo(float).eps


def _pieces(bps, vals):
    bps = np.asarray(bps, dtype=float)
    return bps[:-1], bps[1:], np.asarray(vals, dtype=float)


def hilbert(bps, vals, x: float) -> tuple[float, float]:
    """(value, budget) of the principal-value Hilbert transform at x.

    Budget: 1e-12 of the summed magnitude of the log terms, which bounds the
    rounding of 2k logs and their sum with room for the program's ordering.
    """
    a, b, v = _pieces(bps, vals)
    terms = v * (np.log(np.abs(x - a)) - np.log(np.abs(x - b))) / math.pi
    return math.fsum(terms), 1e-12 * (math.fsum(np.abs(terms)) + 1.0)


def hilbert_truncated(bps, vals, eps: float, x: float) -> tuple[float, float]:
    """(value, budget) of the truncation at eps, by clipping each piece."""
    terms = []
    for a, b, v in zip(*_pieces(bps, vals)):
        lo_end = min(b, x - eps)
        if a < lo_end:
            terms.append(v * math.log((x - a) / (x - lo_end)))
        hi_start = max(a, x + eps)
        if hi_start < b:
            terms.append(v * math.log((hi_start - x) / (b - x)))
    terms = np.asarray(terms) / math.pi
    return math.fsum(terms), 1e-12 * (math.fsum(np.abs(terms)) + 1.0)


def hilbert_maximal(bps, vals, eps_schedule, x: float) -> tuple[float, float]:
    best, budget = 0.0, 0.0
    for eps in eps_schedule:
        val, bud = hilbert_truncated(bps, vals, float(eps), x)
        best, budget = max(best, abs(val)), max(budget, bud)
    return best, budget


def partial_sum(bps, vals, N: float, x) -> tuple[np.ndarray, np.ndarray]:
    """(values, budgets) of S_N f at the points x through scipy's Si.

    Budget: the program documents Si to 1e-12 absolute on |t| <= 1e3, so each
    of the 2k Si terms may carry 1e-12 |v_i| / pi, plus 1e-13 relative
    rounding of their sum.
    """
    a, b, v = _pieces(bps, vals)
    x = np.atleast_1d(np.asarray(x, dtype=float))[:, None]
    si_a = sici(2.0 * math.pi * N * (x - a[None, :]))[0]
    si_b = sici(2.0 * math.pi * N * (x - b[None, :]))[0]
    terms = v[None, :] * (si_a - si_b) / math.pi
    values = np.array([math.fsum(row) for row in terms])
    budgets = 2e-12 * np.sum(np.abs(v)) / math.pi + 1e-13 * np.sum(np.abs(terms), axis=1)
    return values, budgets


def _refine(sched: np.ndarray) -> np.ndarray:
    """Insert geometric midpoints, as carleson's refinement does."""
    return np.sort(np.concatenate([sched, np.sqrt(sched[:-1] * sched[1:])]))


def _sup_abs_partial_sum(bps, vals, sched, x) -> tuple[np.ndarray, np.ndarray]:
    """(max over N in sched of |S_N f(x)|, largest budget)."""
    best = np.zeros(np.size(x))
    budget = np.zeros(np.size(x))
    for N in sched:
        values, bud = partial_sum(bps, vals, float(N), x)
        best = np.maximum(best, np.abs(values))
        budget = np.maximum(budget, bud)
    return best, budget


def carleson_bounds(bps, vals, schedule, refinements: int, x):
    """Lower and upper bounds for the refined sup over N of |S_N f(x)|.

    The sup over the initial schedule is a lower bound; refinement only
    inserts geometric midpoints, so the schedule refined `refinements` times
    contains every schedule the program can reach and gives the upper bound.
    """
    full = np.asarray(schedule, dtype=float)
    lower, low_budget = _sup_abs_partial_sum(bps, vals, full, x)
    for _ in range(refinements):
        full = _refine(full)
    upper, budget = _sup_abs_partial_sum(bps, vals, full, x)
    budget = np.maximum(budget, low_budget)
    return lower - budget, upper + budget


def refinement_schedule_sizes(bps, vals, schedule, tolerance, cap, x) -> list[int]:
    """Schedule sizes the seed algorithm evaluates: double until the sup moves < tolerance."""
    sched = np.asarray(schedule, dtype=float)
    sizes = [sched.size]
    cur = _sup_abs_partial_sum(bps, vals, sched, x)[0]
    for _ in range(cap):
        sched = _refine(sched)
        sizes.append(sched.size)
        nxt = _sup_abs_partial_sum(bps, vals, sched, x)[0]
        delta = float(np.max(nxt - cur))
        cur = nxt
        if delta < tolerance:
            break
    return sizes


def maximal(bps, vals, x: float) -> float:
    """Uncentered maximal function by search over every candidate interval.

    The average over [s, t] containing x is extremal with s, t drawn from the
    breakpoints and x; the degenerate interval gives |f(x)|.
    """
    bps = np.asarray(bps, dtype=float)
    mags = np.abs(np.asarray(vals, dtype=float))
    prefix = np.concatenate([[0.0], np.cumsum(mags * np.diff(bps))])

    def mass(t):
        t = np.clip(t, bps[0], bps[-1])
        j = np.clip(np.searchsorted(bps, t, side="right") - 1, 0, mags.size - 1)
        return prefix[j] + mags[j] * (t - bps[j])

    left = np.append(bps[bps < x], x)
    right = np.append(bps[bps > x], x)
    s, t = np.meshgrid(left, right, indexing="ij")
    ok = t > s
    best = np.max((mass(t[ok]) - mass(s[ok])) / (t[ok] - s[ok])) if ok.any() else 0.0
    inside = np.searchsorted(bps, x, side="right") - 1
    at_x = mags[inside] if 0 <= inside < mags.size and x not in bps else 0.0
    return float(max(best, at_x))


def power_integral(a: float, b: float, alpha: float) -> float:
    """int_a^b |x|^alpha dx for a < b, alpha > -1, split at the origin."""
    def half(lo, hi):  # 0 <= lo < hi
        return (hi ** (alpha + 1.0) - lo ** (alpha + 1.0)) / (alpha + 1.0)

    if a >= 0.0:
        return half(a, b)
    if b <= 0.0:
        return half(-b, -a)
    return half(0.0, -a) + half(0.0, b)


def weighted_norm(bps, vals, p: float, alpha: float, r_lo=0.0, r_hi=math.inf) -> float:
    """(int over r_lo < |x| < r_hi of |f|^p |x|^alpha dx)^(1/p), piece by piece."""
    terms = []
    for a, b, v in zip(*_pieces(bps, vals)):
        if v == 0.0:
            continue
        for s, t in ((max(a, r_lo), min(b, r_hi)), (max(a, -r_hi), min(b, -r_lo))):
            if s < t:
                terms.append(abs(v) ** p * power_integral(s, t, alpha))
    return math.fsum(terms) ** (1.0 / p)


def values_at(bps, vals, x) -> np.ndarray:
    """f at points away from breakpoints, zero outside the support."""
    bps = np.asarray(bps, dtype=float)
    padded = np.concatenate([[0.0], np.asarray(vals, dtype=float), [0.0]])
    return padded[np.searchsorted(bps, np.asarray(x, dtype=float), side="right")]


def synthesis_error(terms, bps, vals) -> tuple[float, float]:
    """(max |sum lambda_j a_j - f|, budget) on every piece, from the terms' own data.

    terms: iterable of (lambda, block breakpoints, block values).  Budget: a
    few roundings of each piece value, 8 eps |f|.
    """
    grid = set(np.asarray(bps, dtype=float).tolist())
    terms = list(terms)
    for _, tb, _ in terms:
        grid.update(np.asarray(tb, dtype=float).tolist())
    grid = np.array(sorted(grid))
    mids = 0.5 * (grid[:-1] + grid[1:])
    total = np.zeros_like(mids)
    for lam, tb, tv in terms:
        total += lam * values_at(tb, tv, mids)
    want = values_at(bps, vals, mids)
    err = float(np.max(np.abs(total - want))) if mids.size else 0.0
    return err, 8.0 * EPS * float(np.max(np.abs(want), initial=0.0)) + 1e-300
