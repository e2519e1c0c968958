"""The sine integral Si(t) = int_0^t sin(u)/u du to 1e-12 absolute accuracy.

Three branches, all vectorized and all odd in t:

* |t| <= 8: Maclaurin series in plain double Horner form.  The alternating
  terms peak near 41 at t = 8, a cancellation of ~26x against the result,
  which plain double absorbs with two digits to spare.
* 8 < |t| < 44: the same series evaluated in compensated (double-double)
  arithmetic.  Terms peak near 1.6e16 at t = 44; the 32-digit accumulator
  keeps the residual below 1e-13.  Products use Dekker splitting because
  this must run without a fused multiply-add.
* |t| >= 44: the asymptotic auxiliary expansion
  Si(t) = pi/2 - cos(t) P(1/t^2)/t - sin(t) Q(1/t^2)/t^2 with P, Q the
  (divergent) factorial series truncated at their smallest term, which at
  t = 44 is already ~1e-18.

Coefficients are computed once, exactly, from integer factorials; the
double-double branch stores each coefficient as an (hi, lo) pair so that
coefficient rounding cannot leak through the cancellation.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

_TAYLOR_PLAIN_TERMS = 23   # series through t^45, remainder < 1e-17 at t = 8
_TAYLOR_DD_TERMS = 76      # series through t^151, remainder < 1e-19 at t = 44
_ASYMPTOTIC_TERMS = 22     # factorial series through (42)!, ~1e-18 at t = 44
_DD_CUTOFF = 8.0
_ASYMPTOTIC_CUTOFF = 44.0


def _taylor_coefficient(m: int) -> Fraction:
    n = 2 * m + 1
    c = Fraction(1, n * math.factorial(n))
    return -c if m % 2 else c

_PLAIN_COEFFS = np.array(
    [float(_taylor_coefficient(m)) for m in range(_TAYLOR_PLAIN_TERMS)]
)

def _dd_pair(x: Fraction) -> tuple[float, float]:
    hi = float(x)
    return hi, float(x - Fraction(hi))

_DD_COEFFS = [ _dd_pair(_taylor_coefficient(m)) for m in range(_TAYLOR_DD_TERMS) ]

# P(u) = sum (-1)^m (2m)! u^m,  Q(u) = sum (-1)^m (2m+1)! u^m
_ASY_P = np.array(
    [(-1.0) ** m * float(math.factorial(2 * m)) for m in range(_ASYMPTOTIC_TERMS)]
)
_ASY_Q = np.array(
    [(-1.0) ** m * float(math.factorial(2 * m + 1)) for m in range(_ASYMPTOTIC_TERMS)]
)


# -- double-double primitives (vectorized, no fma available) ---------------

_SPLITTER = 134217729.0  # 2^27 + 1, Dekker splitting constant

def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)

def _quick_two_sum(a, b):
    s = a + b
    return s, b - (s - a)

def _two_prod(a, b):
    p = a * b
    ca = _SPLITTER * a
    ahi = ca - (ca - a)
    alo = a - ahi
    cb = _SPLITTER * b
    bhi = cb - (cb - b)
    blo = b - bhi
    err = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, err

def _dd_add(xh, xl, yh, yl):
    s, e = _two_sum(xh, yh)
    return _quick_two_sum(s, e + xl + yl)

def _dd_mul(xh, xl, yh, yl):
    p, e = _two_prod(xh, yh)
    return _quick_two_sum(p, e + xh * yl + xl * yh)


def _si_taylor_plain(t: np.ndarray) -> np.ndarray:
    t2 = t * t
    acc = np.full_like(t, _PLAIN_COEFFS[-1])
    for c in _PLAIN_COEFFS[-2::-1]:
        acc = acc * t2 + c
    return acc * t

def _si_taylor_dd(t: np.ndarray) -> np.ndarray:
    t2h, t2l = _two_prod(t, t)
    hi = np.full_like(t, _DD_COEFFS[-1][0])
    lo = np.full_like(t, _DD_COEFFS[-1][1])
    for ch, cl in _DD_COEFFS[-2::-1]:
        hi, lo = _dd_mul(hi, lo, t2h, t2l)
        hi, lo = _dd_add(hi, lo, ch, cl)
    hi, lo = _dd_mul(hi, lo, t, np.zeros_like(t))
    return hi + lo

def _si_asymptotic(t: np.ndarray) -> np.ndarray:
    u = 1.0 / (t * t)
    pacc = np.full_like(t, _ASY_P[-1])
    qacc = np.full_like(t, _ASY_Q[-1])
    for cp, cq in zip(_ASY_P[-2::-1], _ASY_Q[-2::-1]):
        pacc = pacc * u + cp
        qacc = qacc * u + cq
    return 0.5 * math.pi - np.cos(t) * pacc / t - np.sin(t) * qacc * u


def sine_integral(t):
    """Si(t) for scalar or array t; exactly odd, |error| < 1e-12 on |t| <= 1e3, pi/2 at inf."""
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    a = np.abs(np.atleast_1d(arr))
    out = np.full_like(a, 0.5 * math.pi)  # the limit, kept where |t| is infinite
    small = a <= _DD_CUTOFF
    mid = (a > _DD_CUTOFF) & (a < _ASYMPTOTIC_CUTOFF)
    large = (a >= _ASYMPTOTIC_CUTOFF) & (a < np.inf)
    if np.any(small):
        out[small] = _si_taylor_plain(a[small])
    if np.any(mid):
        out[mid] = _si_taylor_dd(a[mid])
    if np.any(large):
        out[large] = _si_asymptotic(a[large])
    out = out * np.sign(np.atleast_1d(arr))
    return float(out[0]) if scalar else out.reshape(arr.shape)
