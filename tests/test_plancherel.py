"""Exact p = 2 answers for the claims' quadrature grids, by Plancherel.

At p = 2, alpha = 0 the Fourier side gives closed forms: H is unitary on
L^2, so ||Hf||_2 = ||f||_2, and ||S_N f - f||_2^2 = int_{|xi|>N} |f^|^2.  For
f with jumps c_j at b_j, |f^(xi)|^2 = sum_{i,j} c_i c_j cos(2 pi xi (b_i - b_j)) / (4 pi^2 xi^2),
and int_N^inf cos(a xi) / xi^2 d xi = cos(aN)/N - |a| (pi/2 - Si(|a| N)).  Si
comes from mpmath, so no oracle shares the toolkit's arithmetic.

Each grid is the claim's own, so a change of grid shows here.  Each bound
is the deviation the grid has today, rounded up at two significant digits;
a change that brings a grid closer to the exact value tightens its bound.
"""

import mpmath
import pytest

from blockspaces import PiecewiseConstant1D, WeightParams
from blockspaces.quadrature import weighted_norm_from_samples
from blockspaces.verify import _block_values, _random_test_function, _sn_leg_integrals, partial_sum_error_norm

mpmath.mp.dps = 30

#: claim 3.1's block at scale 0, chi[-1, -1/2] + chi[1/2, 1], with ||f||_2 = 1
BLOCK = PiecewiseConstant1D((-1.0, -0.5, 0.5, 1.0), (1.0, 0.0, 1.0))


def _high_frequency_mass(f, N):
    """int_{|xi|>N} |f^(xi)|^2 d xi, as the double sum over f's jumps."""
    padded = (0.0, *f.values, 0.0)
    jumps = [(mpmath.mpf(b), right - left) for b, left, right in zip(f.breakpoints, padded, padded[1:])]
    total = mpmath.mpf(0)
    for bi, ci in jumps:
        for bj, cj in jumps:
            a = 2 * mpmath.pi * abs(bi - bj)
            total += ci * cj * (mpmath.cos(a * N) / N - a * (mpmath.pi / 2 - mpmath.si(a * N)))
    return 2 * total / (4 * mpmath.pi**2)


def test_hilbert_grid_keeps_the_l2_norm():
    # claim 3.1's shell grid never grades toward the breakpoints, where Hf
    # has log singularities: -3.914e-3 today
    ((values, x, w),) = _block_values("hilbert", [(BLOCK, 0)])
    deviation = weighted_norm_from_samples(values, x, w, 2.0, 0.0) - 1.0
    assert abs(deviation) <= 4.0e-3


def test_sn_panels_keep_the_low_frequency_mass():
    # ||S_1 f||_2^2 = ||f||_2^2 - int_{|xi|>1} |f^|^2 on the dirichlet_sn
    # leg's panels, through the lattice route it shares with e(N): +5.31e-11 today
    ((got,),) = _sn_leg_integrals([BLOCK], [(2.0, 0.0)])
    exact = 1 - _high_frequency_mass(BLOCK, 1)
    deviation = got - float(exact)
    assert abs(deviation) <= 5.4e-11


@pytest.mark.parametrize(
    "N, bound",
    [
        (1, 8.4e-9),  # the 4-node Gauss-Legendre error; the tails past X_N are closed form
        (4, 2.8e-9),
        (64, 3.2e-9),
    ],
)
def test_partial_sum_error_matches_the_fourier_tail(N, bound):
    # e(N)^2 = (2/pi^2) [sin^2(pi N/4)/N + (pi/4)(pi/2 - Si(pi N/2))] for chi[1/4, 1/2];
    # the lattice route's only test at p != 1
    f = PiecewiseConstant1D.indicator(0.25, 0.5)
    pi = mpmath.pi
    exact = mpmath.sqrt(2 / pi**2 * (mpmath.sin(pi * N / 4) ** 2 / N + pi / 4 * (pi / 2 - mpmath.si(pi * N / 2))))
    assert abs(exact**2 / _high_frequency_mass(f, N) - 1) < 1e-25
    got = partial_sum_error_norm(f, WeightParams(1, 2.0, 2.0, 0.0), float(N))
    assert abs(got / float(exact) - 1.0) <= bound


@pytest.mark.parametrize(
    "N, bound",
    [
        (1, 4.1e-8),
        (4, 5.0e-8),
    ],
)
def test_partial_sum_error_matches_the_fourier_tail_on_random_functions(N, bound):
    # the same identity on claims 2.1 and 2.2's seeded 8-piece functions, a
    # fixed family so that it cannot flake: today's level is 4.08e-8 at N = 1
    # (seed 4) and 4.96e-8 at N = 4 (seed 5), the near zone's quadrature error
    for seed in range(8):
        f = _random_test_function(seed)
        got = partial_sum_error_norm(f, WeightParams(1, 2.0, 2.0, 0.0), float(N))
        exact = mpmath.sqrt(_high_frequency_mass(f, N))
        assert abs(got / float(exact) - 1.0) <= bound, seed
