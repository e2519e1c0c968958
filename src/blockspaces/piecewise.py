"""Exact piecewise-constant functions on the line.

The function is v_i on the open interval (x_i, x_{i+1}) and zero outside
[x_0, x_m].  Breakpoints are strictly increasing and finite.  This restricted
class is closed under addition, scalar multiplication, and restriction to
intervals or dyadic shells, and every operator in this package admits a
closed form on it, so norms and operator values carry no quadrature error
beyond floating-point rounding.

The algebra (construction, sums, multiples, restriction, simplification)
works on tuples of Python floats, so the norms and decompositions built on
it never import numpy.  Only evaluation on arrays (`__call__`) and
`_sorted_unique`, which the operators and the quadrature call, import
numpy, inside the function.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from operator import lt
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

_FLAT = "breakpoints and values must be flat sequences of numbers"


def _sorted_unique(*arrays) -> np.ndarray:
    """np.unique of the concatenated arrays (np.union1d of two), bit for bit, for arrays without NaN.

    np.unique sorts a float array with numpy's default sort and keeps the
    first of each run of equal values.  That sort is not stable, so which of
    a colliding -0 and +0 survives depends on the whole array, and no merge
    of sorted inputs reproduces it; the same sort does.  np.unique's first
    call imports numpy.ma (10 to 30 ms), which this skips.
    """
    import numpy as np

    aux = np.concatenate(arrays, axis=None)
    aux.sort()
    keep = np.empty(aux.size, dtype=bool)
    keep[:1] = True
    np.not_equal(aux[1:], aux[:-1], out=keep[1:])
    return aux[keep]


def _floats(seq) -> tuple[float, ...]:
    """seq as a tuple of floats, read as np.asarray(seq, dtype=float) reads it.

    A number or a string is no flat sequence (numpy reads it as 0-d), nor is
    an array of another rank or a sequence holding a sequence; None reads as
    NaN, and anything float() refuses raises float()'s error.
    """
    if hasattr(seq, "ndim"):  # an ndarray or a numpy scalar
        if seq.ndim != 1:
            raise ValueError(_FLAT)
        seq = seq.tolist()
    elif isinstance(seq, (str, bytes)) or not isinstance(seq, Sequence):
        float(seq)  # a generator or a set raises TypeError here, as in numpy
        raise ValueError(_FLAT)
    try:
        return tuple(map(float, seq))
    except TypeError:
        return tuple(math.nan if v is None else _number(v) for v in seq)


def _number(v) -> float:
    if getattr(v, "ndim", 0) or isinstance(v, Sequence) and not isinstance(v, (str, bytes)):
        raise ValueError(_FLAT)
    return float(v)


def _finite(values: tuple[float, ...]) -> tuple[float, ...]:
    if not all(map(math.isfinite, values)):
        raise ValueError("values must be finite")
    return values


@dataclass(frozen=True)
class PiecewiseConstant1D:
    """A real function taking finitely many constant values on intervals."""

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __init__(self, breakpoints: Sequence[float], values: Sequence[float]):
        bp, vals = _floats(breakpoints), _floats(values)
        if len(bp) < 2 and not (len(bp) == 0 and len(vals) == 0):
            raise ValueError("need at least two breakpoints (or none for the zero function)")
        if len(vals) != max(len(bp) - 1, 0):
            raise ValueError(
                f"{len(bp)} breakpoints require {max(len(bp) - 1, 0)} values, got {len(vals)}"
            )
        if not all(map(math.isfinite, bp)):
            raise ValueError("breakpoints must be finite")
        if not all(map(lt, bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", _finite(vals))

    @classmethod
    def _derived(cls, breakpoints: tuple[float, ...], values: tuple[float, ...]) -> "PiecewiseConstant1D":
        """A function on breakpoints taken from a checked function, unchecked.

        The caller checks values that come from arithmetic with `_finite`.
        """
        f = object.__new__(cls)
        object.__setattr__(f, "breakpoints", breakpoints)
        object.__setattr__(f, "values", values)
        return f

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "PiecewiseConstant1D":
        return cls((), ())

    @classmethod
    def indicator(cls, a: float, b: float, value: float = 1.0) -> "PiecewiseConstant1D":
        """value * chi_[a, b]."""
        if not a < b:
            raise ValueError(f"need a < b, got [{a}, {b}]")
        return cls((a, b), (value,))

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return len(self.values) == 0 or all(v == 0.0 for v in self.values)

    @property
    def support_bounds(self) -> tuple[float, float] | None:
        """Smallest closed interval containing the support, or None if zero."""
        nz = [i for i, v in enumerate(self.values) if v != 0.0]
        if not nz:
            return None
        return self.breakpoints[nz[0]], self.breakpoints[nz[-1] + 1]

    @property
    def min_piece_length(self) -> float:
        if len(self.breakpoints) < 2:
            return math.inf
        return min(b - a for a, b in zip(self.breakpoints, self.breakpoints[1:]))

    def __call__(self, x):
        """Evaluate pointwise.

        On piece interiors this is the piece value.  At a breakpoint the mean
        of the two adjacent values (with 0 outside the support interval) is
        returned; this is the convention under which node sampling of a jump
        is trapezoid-exact, and it only differs from either one-sided value on
        a finite set.
        """
        import numpy as np

        x = np.asarray(x, dtype=float)
        out = self._piece_values_at(x)
        hit = self._is_breakpoint(x)
        if np.any(hit):
            out = np.where(hit, 0.5 * (self._piece_values_at(x, side="left") + out), out)
        return out

    # -- algebra -----------------------------------------------------------

    def __mul__(self, c: float) -> "PiecewiseConstant1D":
        if len(self.values) == 0:
            return self
        c = float(c)
        return self._derived(self.breakpoints, _finite(tuple(c * v for v in self.values)))

    __rmul__ = __mul__

    def __neg__(self) -> "PiecewiseConstant1D":
        return self * -1.0

    def __add__(self, other: "PiecewiseConstant1D") -> "PiecewiseConstant1D":
        """The sum on the merged breakpoints; where two coincide the left operand's survives (-0 or +0)."""
        if len(self.values) == 0:
            return other
        if len(other.values) == 0:
            return self
        a, u, m = self.breakpoints, self.values, len(self.breakpoints)
        b, w, n = other.breakpoints, other.values, len(other.breakpoints)
        bp, vals = [], []
        i = j = 0  # how many of a (of b) lie at or left of the current breakpoint
        while i < m or j < n:
            if j == n or i < m and a[i] <= b[j]:
                x = a[i]
                i += 1
                if j < n and b[j] == x:
                    j += 1
            else:
                x = b[j]
                j += 1
            bp.append(x)
            # each side's value right of x: its piece i - 1, or 0 outside it
            vals.append((u[i - 1] if 0 < i < m else 0.0) + (w[j - 1] if 0 < j < n else 0.0))
        vals.pop()
        return self._derived(tuple(bp), _finite(tuple(vals)))

    def __sub__(self, other: "PiecewiseConstant1D") -> "PiecewiseConstant1D":
        return self + (-other)

    def _is_breakpoint(self, x: np.ndarray) -> np.ndarray:
        """Whether each x equals a breakpoint (-0 equals 0, NaN equals none).

        The breakpoints are sorted, so a searchsorted finds the only candidate;
        np.isin would sort them again, and its first sort imports numpy.ma.
        """
        import numpy as np

        bp = np.asarray(self.breakpoints)
        if not bp.size:
            return np.zeros(x.shape, dtype=bool)
        return bp[np.minimum(np.searchsorted(bp, x), bp.size - 1)] == x

    def _piece_values_at(self, x: np.ndarray, side: str = "right") -> np.ndarray:
        """Value of the piece right of each x (left of it with side="left"), 0 outside.

        At a left endpoint this is the value of the piece it starts, so the
        lookup is exact for pieces of any length.
        """
        import numpy as np

        if len(self.values) == 0:
            return np.zeros_like(x)
        vals = np.concatenate(([0.0], np.asarray(self.values), [0.0]))
        return vals[np.searchsorted(self.breakpoints, x, side=side)]

    # -- structure ---------------------------------------------------------

    def restrict(self, a: float, b: float) -> "PiecewiseConstant1D":
        """Multiply by the indicator of (a, b); exact, inserts breakpoints.

        The result runs from lo = max(a, x_0) to hi = min(b, x_m) over the
        breakpoints strictly between them; an end that equals a breakpoint
        takes the breakpoint's bits (its -0 or +0).
        """
        bps, a, b = self.breakpoints, float(a), float(b)
        if len(self.values) == 0 or b <= bps[0] or a >= bps[-1]:
            return PiecewiseConstant1D.zero()
        if math.isnan(a) or math.isnan(b):
            raise ValueError("breakpoints must be finite")
        i, j = bisect_right(bps, a), bisect_left(bps, b)
        lo = bps[i - 1] if i and bps[i - 1] == a else max(a, bps[0])
        hi = bps[j] if j < len(bps) and bps[j] == b else min(b, bps[-1])
        if not lo < hi:
            return PiecewiseConstant1D.zero()
        i, j = max(i, 1), min(j, len(bps) - 1)  # bps[i:j] lie strictly inside (lo, hi)
        return self._derived((lo, *bps[i:j], hi), self.values[i - 1 : j]).simplify()

    def simplify(self) -> "PiecewiseConstant1D":
        """Drop leading/trailing zero pieces and merge equal neighbors.

        A merged run keeps its first value, which fixes the sign of a zero run.
        """
        vals, bps = self.values, self.breakpoints
        nz = [k for k, v in enumerate(vals) if v != 0.0]
        if not nz:
            return PiecewiseConstant1D.zero()
        first, last = nz[0], nz[-1]
        out_bp, out_vals = [bps[first]], [vals[first]]
        for k in range(first + 1, last + 1):
            if vals[k] != out_vals[-1]:
                out_bp.append(bps[k])
                out_vals.append(vals[k])
        out_bp.append(bps[last + 1])
        return self._derived(tuple(out_bp), tuple(out_vals))

    def abs(self) -> "PiecewiseConstant1D":
        return self._derived(self.breakpoints, tuple(map(abs, self.values)))

    def dilate(self, lam: float) -> "PiecewiseConstant1D":
        """x -> f(x / lam) for lam > 0, the support stretched by lam."""
        if lam <= 0:
            raise ValueError("dilation factor must be positive")
        if len(self.values) == 0:
            return self
        return PiecewiseConstant1D(tuple(x * lam for x in self.breakpoints), self.values)

    def equal_as_functions(self, other: "PiecewiseConstant1D") -> bool:
        """Exact equality almost everywhere (breakpoint values immaterial)."""
        return (self - other).simplify().is_zero
