"""An independent high-precision audit of claim 3.1's k = 0 hilbert norms.

At k = 0 claim 3.1's block is f = chi[-1, -1/2] + chi[1/2, 1] at both of its
parameter points, and Hf(x) = (1/pi) log|(x + 1)(x - 1/2) / ((x + 1/2)(x - 1))|
is odd, so the weighted norm is (2 int_0^inf |Hf|^p x^alpha dx)^(1/p).  mpmath
takes it at 30 digits, split where the integrand is singular or has a kink:
at 0, at the breakpoints 1/2 and 1, and at the zero 1/sqrt(2) of Hf.  A
second, finer ladder of splits checks the audit's own error.

The claim's values come from its own route, so a change of grid or kernel
shows here.  Each bound is today's deviation, rounded up; a change that
brings a norm closer tightens its bound.
"""

import mpmath

from blockspaces import verify

mpmath.mp.dps = 30

HALF = mpmath.mpf(1) / 2
LADDERS = (
    [0, HALF, 1 / mpmath.sqrt(2), 1, 2, mpmath.inf],
    [0, HALF / 2, HALF, mpmath.mpf(3) / 5, 1 / mpmath.sqrt(2), mpmath.mpf(17) / 20, 1, 1 + HALF, 2, 8, mpmath.inf],
)


def _hilbert_of_block(x):
    return mpmath.log(abs((x + 1) * (x - HALF) / ((x + HALF) * (x - 1)))) / mpmath.pi


def _audit(p, alpha, splits):
    p, alpha = mpmath.mpf(p), mpmath.mpf(alpha)
    integral = 2 * mpmath.quad(lambda x: abs(_hilbert_of_block(x)) ** p * x**alpha, splits)
    return integral ** (1 / p)


def test_claim_3_1_hilbert_norms_at_k_0_against_mpmath():
    # today: -7.5087e-4 at p = 1 (audit 2.57572465941383) and -1.48418e-3 at
    # p = 1/2 (audit 48.5238370967): the shell grid never grades toward the
    # breakpoints, where Hf has log singularities
    got = verify._block_norms("hilbert", verify._BLOCK_GRID, [0])
    bounds = {1.0: 7.51e-4, 0.5: 1.485e-3}
    for params, (value,) in zip(verify._BLOCK_GRID, got, strict=True):
        first, second = (_audit(params.p, params.alpha, splits) for splits in LADDERS)
        assert abs(first / second - 1) <= 1e-7
        assert abs(value / float(first) - 1.0) <= bounds[params.p], params
