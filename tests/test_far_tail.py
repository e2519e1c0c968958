"""e(N)'s closed-form far tails against the product's own S_N past its near zone.

`verify._far_tails(f, N, X, p, alpha)` are the integrals of |S_N f|^p |x|^alpha
over x > X and over x < -X, so T(X) - T(4X) is the integral over [X, 4X] (and
[-4X, -X]) for X = X_N.  Here that integral is Gauss-Legendre on the panels
between the zeros of `dirichlet_sn(f, N, .)`, bracketed on a 1/(8N) grid and
refined by bisection.  S_N f vanishes linearly at a panel's ends, so each
panel is mapped by x = c + r sin(pi u/2): (1 - sin^2)^p d(sin) = cos^(2p+1),
an integer power of cos for the p here, and the integrand is analytic in u.
"""

import math

import numpy as np
import pytest

from blockspaces import PiecewiseConstant1D, WeightParams, dirichlet_sn
from blockspaces.quadrature import _gl_rule
from blockspaces.verify import _far_tails, _near_zone_end, _partial_sum_error, _random_test_function

#: (p, alpha) inside alpha < p - 1, where the tails converge
PAIRS = [(0.5, -0.75), (1.0, -0.5), (2.0, 0.0)]


def zeros(f, N, a, b):
    """The sign changes of S_N f in (a, b), bracketed on a 1/(8N) grid and bisected to adjacent doubles."""
    x = np.linspace(a, b, int(math.ceil(8 * N * (b - a))) + 1)
    v = dirichlet_sn(f, N, x)
    i = np.flatnonzero(np.sign(v[:-1]) * np.sign(v[1:]) < 0)
    lo, hi, vlo = x[i], x[i + 1], v[i]
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        same = np.sign(dirichlet_sn(f, N, mid)) == np.sign(vlo)
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    return 0.5 * (lo + hi)


def stretch_integrals(f, N, a, b, pairs, nodes=24):
    """int_a^b |S_N f|^p |x|^alpha dx for each (p, alpha), panel by panel between the zeros."""
    edges = np.concatenate([[a], zeros(f, N, a, b), [b]])
    t, w = _gl_rule(nodes)
    c, r = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    x = c[:, None] + r[:, None] * np.sin(0.5 * math.pi * t)
    dx = r[:, None] * (0.5 * math.pi) * np.cos(0.5 * math.pi * t) * w
    s = np.abs(dirichlet_sn(f, N, x.ravel())).reshape(x.shape)
    return [float(np.sum(dx * s**p * np.abs(x) ** alpha)) for p, alpha in pairs]


CASES = [(PiecewiseConstant1D.indicator(0.25, 0.5), N) for N in (1.0, 2.0, 4.0)] + [(_random_test_function(3), 1.0)]


@pytest.mark.parametrize("f, N", CASES, ids=["chi-1", "chi-2", "chi-4", "random-1"])
def test_far_tail_is_the_integral_past_the_near_zone(f, N):
    # agreement within 1e-10 of e(N), to first order: the tail's error over
    # p e(N)^p.  At N = 4, f^(N) = 0 for chi[1/4, 1/2], so |S_N f| ~ x^-2
    x_n = _near_zone_end(f, N)
    for side, (a, b) in enumerate(((x_n, 4 * x_n), (-4 * x_n, -x_n))):
        want = stretch_integrals(f, N, a, b, PAIRS)
        for (p, alpha), stretch in zip(PAIRS, want):
            got = _far_tails(f, N, x_n, p, alpha)[side][0] - _far_tails(f, N, 4 * x_n, p, alpha)[side][0]
            total = _partial_sum_error(f, WeightParams(1, p, 2.0, alpha), N)[0]
            assert abs(got - stretch) <= 1e-10 * p * total, (side, p, got, stretch)
