"""e(N)'s closed-form far tails against the product's own S_N past its near zone.

`verify._far_tails(f, N, X, pairs)` are the integrals of |S_N f|^p |x|^alpha
over x > X and over x < -X, so T(X) - T(4X) is the integral over [X, 4X] (and
[-4X, -X]) for X = X_N, and so is the tail bounded at 4X.  Here that integral is Gauss-Legendre on the panels
between the zeros of `dirichlet_sn(f, N, .)`, bracketed on a 1/(8N) grid and
refined by bisection.  S_N f vanishes linearly at a panel's ends, so each
panel is mapped by x = c + r sin(pi u/2): (1 - sin^2)^p d(sin) = cos^(2p+1),
an integer power of cos for the p here, and the integrand is analytic in u.
"""

import math

import numpy as np
import pytest

from blockspaces import PiecewiseConstant1D, WeightParams, dirichlet_sn, make_canonical_block, verify
from blockspaces.quadrature import _gl_rule
from blockspaces.verify import (
    _far_tail,
    _far_tails,
    _near_zone_end,
    _partial_sum_error,
    _partial_sum_integrals,
    _random_test_function,
)

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
    # p e(N)^p.  At N = 4, f^(N) = 0 for chi[1/4, 1/2], so |S_N f| ~ x^-2.
    # The tail bounded at 4 X_N is held to the same
    x_n = _near_zone_end(f, N)
    whole, past, bounded = (_far_tails(f, N, a, PAIRS, b) for a, b in ((x_n, math.inf), (4 * x_n, math.inf), (x_n, 4 * x_n)))
    for side, (a, b) in enumerate(((x_n, 4 * x_n), (-4 * x_n, -x_n))):
        want = stretch_integrals(f, N, a, b, PAIRS)
        for q, ((p, alpha), stretch) in enumerate(zip(PAIRS, want)):
            total = _partial_sum_error(f, WeightParams(1, p, 2.0, alpha), N)[0]
            for got in (whole[side][q][0] - past[side][q][0], bounded[side][q][0]):
                assert abs(got - stretch) <= 1e-10 * p * total, (side, p, got, stretch)


@pytest.mark.parametrize("k", [-6, -3, -1])
def test_bounded_tail_is_the_difference_of_two_tails(k):
    # claim 3.1's dirichlet_sn leg takes the tail from X to 1024: at both of
    # its (p, alpha), within 1e-12 relative of the tail past X less the tail
    # past 1024 (measured: at most 4.5e-16).  From k = 0 on, S_1 f decays like
    # x^-2 and the tails to infinity at p = 1/2 move by up to 3e-11 relative
    # with the reach of their panels (2^30 to 2^60 times the support), while
    # the bounded tail keeps its bits as its nodes double: the reference is
    # the noisier number there, so those scales are left out
    f = make_canonical_block(verify._BLOCK_GRID[0], k).data
    bps, jumps = np.asarray(f.breakpoints), np.diff(f.values, prepend=0.0, append=0.0)
    x_n = _near_zone_end(f, 1.0, 1024.0)
    pairs = [(params.p, params.alpha) for params in verify._BLOCK_GRID]
    bounded, whole, past = (_far_tail(bps, jumps, 1.0, a, pairs, b) for a, b in ((x_n, 1024.0), (x_n, math.inf), (1024.0, math.inf)))
    for (got, _), (w, _), (r, _) in zip(bounded, whole, past, strict=True):
        assert abs(got / (w - r) - 1.0) <= 1e-12, (got, w - r)


@pytest.mark.parametrize("N", [1.0, 3.0])
def test_e_cut_at_256_adds_its_bounded_tails(N):
    # for alpha >= p - 1, e(N) is the integral on [-256, 256]: the near zone
    # plus the tails from X_N to 256, held here to the panels between the
    # zeros within 1e-12 relative.  The 4-node panels that ran out to 256
    # cut across the kinks of |S_N f - f|^p and read up to 1.1 % high at p = 1/2
    f = PiecewiseConstant1D.indicator(0.25, 0.5)
    for p, alpha in ((1.0, 0.0), (0.5, -0.25)):
        total, x_n, _ = _partial_sum_error(f, WeightParams(1, p, 2.0, alpha), N)
        assert x_n == _near_zone_end(f, N)
        ((near,),) = _partial_sum_integrals([f], [(p, alpha)], N, x_n, 1)
        tails = sum(stretch_integrals(f, N, a, b, [(p, alpha)])[0] for a, b in ((x_n, 256.0), (-256.0, -x_n)))
        assert abs(total / (near + tails) - 1.0) <= 1e-12, (p, total, near + tails)
