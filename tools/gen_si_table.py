"""Write `src/blockspaces/_si_table.py`, the Taylor tables of Si's mid branch.

    python3 tools/gen_si_table.py

Each unit segment [m, m + 1), m = 8 ... 43, gets the Taylor polynomial of Si
at its centre c = m + 1/2 (DLMF 6.6):

    Si(c + h) = Si(c) + sum_{k >= 1} sinc^(k-1)(c) h^k / k!,   |h| <= 1/2.

The derivatives come from the product of the series of sin(c + h) and
1/(c + h), in 50-digit mpmath, and each coefficient is rounded once to the
nearest double.  Since sinc(x) = int_0^1 cos(x s) ds, |sinc^(j)| <= 1/(j + 1)
on the whole line, so cutting after h^d leaves at most
(1/2)^(d+1) / ((d+1) (d+1)!); the degree is the smallest d that puts this
below REMAINDER_TARGET.

mpmath is a test dependency; the package reads only the generated literals.
"""

from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path

import mpmath

FIRST_SEGMENT = 8      # the mid branch is 8 < |t| < 44
LAST_SEGMENT = 43
REMAINDER_TARGET = Fraction(1, 10**16)
DPS = 50

TARGET = Path(__file__).resolve().parents[1] / "src" / "blockspaces" / "_si_table.py"


def remainder_bound(degree: int) -> Fraction:
    """Lagrange bound on the terms past h^degree, for |h| <= 1/2."""
    n = degree + 1
    return Fraction(1, 2**n * n * math.factorial(n))


def table_degree() -> int:
    degree = 1
    while remainder_bound(degree) >= REMAINDER_TARGET:
        degree += 1
    return degree


def segment_coefficients(centre: Fraction, degree: int) -> list[float]:
    """Taylor coefficients of Si at centre, through h^degree, as doubles."""
    with mpmath.workdps(DPS):
        c = mpmath.mpf(centre.numerator) / centre.denominator
        s, co = mpmath.sin(c), mpmath.cos(c)
        # sin(c + h) = sum_j sin(c + j pi/2) h^j / j!, and 1/(c + h) = sum_j (-h)^j / c^(j+1)
        sin_series = [(s, co, -s, -co)[j % 4] / mpmath.factorial(j) for j in range(degree)]
        inv_series = [(-1) ** j / c ** (j + 1) for j in range(degree)]
        sinc_series = [
            mpmath.fsum(sin_series[j] * inv_series[n - j] for j in range(n + 1))
            for n in range(degree)
        ]
        return [float(mpmath.si(c))] + [float(b / (n + 1)) for n, b in enumerate(sinc_series)]


def render() -> str:
    """The text of `_si_table.py`."""
    degree = table_degree()
    segments = range(FIRST_SEGMENT, LAST_SEGMENT + 1)
    rows = list(zip(*(segment_coefficients(Fraction(2 * m + 1, 2), degree) for m in segments)))
    lines = [
        '"""Taylor tables of Si on the unit segments of its mid branch.',
        "",
        "Generated by tools/gen_si_table.py; do not edit.  COEFFS[k][m - FIRST_SEGMENT]",
        f"is the coefficient of h^k in Si(m + 1/2 + h), m = {FIRST_SEGMENT} ... {LAST_SEGMENT}.",
        f"The terms past h^DEGREE add at most {float(remainder_bound(degree)):.1e} on |h| <= 1/2.",
        '"""',
        "",
        f"FIRST_SEGMENT = {FIRST_SEGMENT}",
        f"DEGREE = {degree}",
        "",
        "COEFFS = (",
    ]
    for k, row in enumerate(rows):
        lines.append(f"    (  # h^{k}")
        lines += [f"        {v!r}," for v in row]
        lines.append("    ),")
    lines.append(")")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    TARGET.write_text(render())
