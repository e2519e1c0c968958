"""The sine integral Si(t) = int_0^t sin(u)/u du to 1e-12 absolute accuracy.

Four branches, all vectorized and all odd in t:

* |t| <= 8: Maclaurin series in plain double Horner form.  The alternating
  terms peak near 41 at t = 8, a cancellation of ~26x against the result,
  which plain double absorbs with two digits to spare.
* 8 < |t| < 44: one Taylor polynomial per unit segment [m, m + 1), expanded
  at m + 1/2 (DLMF 6.6) and evaluated in h = |t| - m - 1/2 by Horner.  The
  degree-13 tables live in `_si_table.py`, generated by
  `tools/gen_si_table.py`; since |sinc^(j)| <= 1/(j + 1), the terms past h^13
  add at most (1/2)^14 / (14 * 14!) = 5.0e-17, and the largest error against
  50-digit mpmath is about 1 ulp of Si.  The branch uses only + and x on
  doubles, so its bits do not depend on numpy's CPU dispatch.
* 44 <= |t| < 1024: the asymptotic auxiliary expansion
  Si(t) = pi/2 - cos(t) P(1/t^2)/t - sin(t) Q(1/t^2)/t^2 with P, Q the
  (divergent) factorial series truncated at their smallest term, 22 terms,
  which at t = 44 is already ~1e-18.
* 1024 <= |t| < inf: the same expansion with the first K = 4 terms of P and
  Q.  For real t > 0 each remainder is at most its first omitted term (DLMF
  6.12(ii)), so the error after K terms is at most
  (2K)!/t^(2K+1) (1 + (2K+1)/t), 3.3e-23 at t = 1024.  K is the fewest terms
  that put this bound below 2^-64 at the far cutoff.  On 400k log-uniform
  points in [1024, 2e15] the result has the bits of the 22-term series.

`_auxiliary_taylor` sums the same expansion as W = F - iG, with
Si(t) = pi/2 - Re(W(t) e^(it)), and its derivatives, for e(N)'s far tails.

The limit pi/2 is returned at |t| = inf.  Against 40-digit mpmath the
largest error is 2.2e-16 (one ulp of pi/2) in every decade from 44 to 1e16.

`_BRANCHES` states each branch's half-open |t| range once.  An array wholly
in |t| <= 8 runs the series on t itself; one whose |t| all lie in one range
runs that branch on |t| without a gather; any other array, or one holding an
infinity or a NaN, gathers each branch's arguments and scatters the results
back.  Every value has the bits it has alone.

The series coefficients and K are computed once, exactly, from integer
factorials.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from . import _si_table

_TAYLOR_PLAIN_TERMS = 23   # series through t^45, remainder < 1e-17 at t = 8
_ASYMPTOTIC_TERMS = 22     # factorial series through (42)!, ~1e-18 at t = 44
_TABLE_CUTOFF = 8.0
_ASYMPTOTIC_CUTOFF = 44.0
_FAR_CUTOFF = 1024.0
_FAR_BOUND = Fraction(1, 2**64)


def _taylor_coefficient(m: int) -> Fraction:
    n = 2 * m + 1
    c = Fraction(1, n * math.factorial(n))
    return -c if m % 2 else c

_PLAIN_COEFFS = np.array(
    [float(_taylor_coefficient(m)) for m in range(_TAYLOR_PLAIN_TERMS)]
)

_TABLE = np.array(_si_table.COEFFS)  # row k: the h^k coefficient of every segment

# P(u) = sum (-1)^m (2m)! u^m,  Q(u) = sum (-1)^m (2m+1)! u^m
_ASY_P = np.array(
    [(-1.0) ** m * float(math.factorial(2 * m)) for m in range(_ASYMPTOTIC_TERMS)]
)
_ASY_Q = np.array(
    [(-1.0) ** m * float(math.factorial(2 * m + 1)) for m in range(_ASYMPTOTIC_TERMS)]
)


def _asymptotic_remainder(k: int, t) -> Fraction:
    """DLMF 6.12(ii) bound, exact, on |Si error| at real t > 0 after k terms of P and Q.

    Each remainder is at most its first omitted term, (2k)!/t^(2k+1) for the
    cosine part and (2k+1)!/t^(2k+2) for the sine part.
    """
    t = Fraction(t)
    return math.factorial(2 * k) / t ** (2 * k + 1) * (1 + (2 * k + 1) / t)

# the fewest terms whose remainder at the far cutoff is below 2^-64: 4
_FAR_TERMS = next(
    k for k in range(1, _ASYMPTOTIC_TERMS) if _asymptotic_remainder(k, _FAR_CUTOFF) < _FAR_BOUND
)


def _si_taylor_plain(t: np.ndarray) -> np.ndarray:
    t2 = t * t
    acc = np.full_like(t, _PLAIN_COEFFS[-1])
    for c in _PLAIN_COEFFS[-2::-1]:
        acc *= t2
        acc += c
    acc *= t
    return acc

def _si_taylor_table(t: np.ndarray) -> np.ndarray:
    seg = t.astype(np.intp)  # floor, as 8 < t < 44
    h = seg + 0.5
    np.subtract(t, h, out=h)  # exact: t and its segment's centre are within 1/2
    seg -= _si_table.FIRST_SEGMENT
    acc = _TABLE[-1].take(seg)
    term = np.empty_like(acc)
    for row in _TABLE[-2::-1]:
        acc *= h
        acc += row.take(seg, out=term, mode="clip")  # seg is in range; "raise" would copy via a buffer
    return acc

def _asymptotic_series(u: np.ndarray, terms: int) -> tuple[np.ndarray, np.ndarray]:
    """P(u) and Q(u) through their first `terms` (>= 2) terms, by Horner."""
    pacc = np.multiply(u, _ASY_P[terms - 1])
    qacc = np.multiply(u, _ASY_Q[terms - 1])
    for cp, cq in zip(_ASY_P[terms - 2 : 0 : -1], _ASY_Q[terms - 2 : 0 : -1]):
        pacc += cp
        pacc *= u
        qacc += cq
        qacc *= u
    pacc += _ASY_P[0]
    qacc += _ASY_Q[0]
    return pacc, qacc

@functools.lru_cache(maxsize=None)
def _auxiliary_coefficients(orders: int) -> np.ndarray:
    """Row n, column m: (m + n)! / n!, for n < orders and m < _ASYMPTOTIC_TERMS."""
    coeffs = np.array(
        [[math.factorial(m + n) // math.factorial(n) for m in range(_ASYMPTOTIC_TERMS)] for n in range(orders)],
        dtype=float,
    )
    coeffs.setflags(write=False)
    return coeffs

def _auxiliary_taylor(t: np.ndarray, orders: int) -> np.ndarray:
    """W^(n)(t) / n! for n < orders at real t >= 32 pi, with W = F - iG, so that Si(t) = pi/2 - Re(W(t) e^(it)).

    F = P(1/t^2)/t and G = Q(1/t^2)/t^2 are Si's auxiliary functions (DLMF
    6.2(ii)), so W(t) = sum_m m! (-i)^m / t^(m+1) and W^(n)(t) / n! =
    (-1)^n t^(-n-1) sum_m ((m+n)! / n!) (-i/t)^m, here through
    _ASYMPTOTIC_TERMS terms, whose first omitted one is below 1e-17 of the
    sum for n <= 5 at t = 32 pi.  Returns an (orders, *t.shape) complex array.
    """
    coeffs = _auxiliary_coefficients(orders).reshape(orders, _ASYMPTOTIC_TERMS, *(1,) * np.ndim(t))
    z = -1j / t
    out = np.empty((orders, *np.shape(t)), dtype=complex)
    out[...] = coeffs[:, -1]
    for m in range(_ASYMPTOTIC_TERMS - 2, -1, -1):
        out *= z
        out += coeffs[:, m]
    n = np.arange(orders).reshape(coeffs[:, 0].shape)
    out *= (-1.0) ** n / t ** (n + 1)
    return out

def _si_asymptotic(t: np.ndarray, terms: int) -> np.ndarray:
    with np.errstate(over="ignore"):  # t * t = inf past ~1.3e154 gives u = 0, which is exact there
        u = np.multiply(t, t)
        np.divide(1.0, u, out=u)
    pacc, qacc = _asymptotic_series(u, terms)
    # pi/2 - cos(t) P / t - sin(t) Q u, rounded in that order
    out = np.cos(t)
    out *= pacc
    out /= t
    sq = np.sin(t, out=pacc)
    sq *= qacc
    sq *= u
    np.subtract(0.5 * math.pi, out, out=out)
    out -= sq
    return out


#: Si's four branches, each evaluating the |t| in its half-open range [lo, hi);
#: +-inf and NaN fall in none and keep the limit pi/2
_BRANCHES = (
    (0.0, math.nextafter(_TABLE_CUTOFF, math.inf), _si_taylor_plain),
    (math.nextafter(_TABLE_CUTOFF, math.inf), _ASYMPTOTIC_CUTOFF, _si_taylor_table),
    (_ASYMPTOTIC_CUTOFF, _FAR_CUTOFF, lambda a: _si_asymptotic(a, _ASYMPTOTIC_TERMS)),
    (_FAR_CUTOFF, math.inf, lambda a: _si_asymptotic(a, _FAR_TERMS)),
)


def sine_integral(t):
    """Si(t) for scalar or array t; exactly odd, |error| < 1e-12 on |t| <= 1e3 and < 1e-15 on 1e3 <= |t| <= 2^53, pi/2 at inf."""
    arr = np.asarray(t, dtype=float)
    flat = arr.reshape(-1)
    if not flat.size:
        return np.empty_like(arr)
    small_end = _BRANCHES[0][1]
    if -small_end < flat.min() and flat.max() < small_end:  # False if a t is NaN
        # the series is odd in t, so its last factor t gives the sign; + 0.0
        # turns Si(-0) = -0 into the +0 that Si(|t|) sign(t) gives
        out = _si_taylor_plain(flat)
        out += 0.0
    else:
        a = np.abs(flat)
        a_min, a_max = a.min(), a.max()
        # None if the |t| span two ranges or one of them is inf or NaN
        out = next((si(a) for lo, hi, si in _BRANCHES if lo <= a_min and a_max < hi), None)
        if out is None:
            out = np.full_like(a, 0.5 * math.pi)
            for lo, hi, si in _BRANCHES:
                inside = (a >= lo) & (a < hi)
                if inside.any():
                    out[inside] = si(a[inside])
        out *= np.sign(flat, out=a)
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)
