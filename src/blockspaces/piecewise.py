"""Exact piecewise-constant functions on the line.

The function is v_i on the open interval (x_i, x_{i+1}) and zero outside
[x_0, x_m].  Breakpoints are strictly increasing and finite.  This restricted
class is closed under addition, scalar multiplication, and restriction to
intervals or dyadic shells, and every operator in this package admits a
closed form on it, so norms and operator values carry no quadrature error
beyond floating-point rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


def _sorted_unique(*arrays) -> np.ndarray:
    """np.unique of the concatenated arrays (np.union1d of two), bit for bit, for arrays without NaN.

    np.unique sorts a float array with numpy's default sort and keeps the
    first of each run of equal values.  That sort is not stable, so which of
    a colliding -0 and +0 survives depends on the whole array, and no merge
    of sorted inputs reproduces it; the same sort does.  np.unique's first
    call imports numpy.ma (10 to 30 ms), which this skips.
    """
    aux = np.concatenate(arrays, axis=None)
    aux.sort()
    keep = np.empty(aux.size, dtype=bool)
    keep[:1] = True
    np.not_equal(aux[1:], aux[:-1], out=keep[1:])
    return aux[keep]


@dataclass(frozen=True)
class PiecewiseConstant1D:
    """A real function taking finitely many constant values on intervals."""

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __init__(self, breakpoints: Sequence[float], values: Sequence[float]):
        bp = np.asarray(breakpoints, dtype=float)
        vals = np.asarray(values, dtype=float)
        if bp.ndim != 1 or vals.ndim != 1:
            raise ValueError("breakpoints and values must be flat sequences of numbers")
        if bp.size < 2 and not (bp.size == 0 and vals.size == 0):
            raise ValueError("need at least two breakpoints (or none for the zero function)")
        if vals.size != max(bp.size - 1, 0):
            raise ValueError(
                f"{bp.size} breakpoints require {max(bp.size - 1, 0)} values, got {vals.size}"
            )
        if not np.isfinite(bp).all():
            raise ValueError("breakpoints must be finite")
        if not (bp[1:] > bp[:-1]).all():
            raise ValueError("breakpoints must be strictly increasing")
        if not np.isfinite(vals).all():
            raise ValueError("values must be finite")
        object.__setattr__(self, "breakpoints", tuple(bp.tolist()))
        object.__setattr__(self, "values", tuple(vals.tolist()))

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
            return np.inf
        return min(b - a for a, b in zip(self.breakpoints, self.breakpoints[1:]))

    def __call__(self, x):
        """Evaluate pointwise.

        On piece interiors this is the piece value.  At a breakpoint the mean
        of the two adjacent values (with 0 outside the support interval) is
        returned; this is the convention under which node sampling of a jump
        is trapezoid-exact, and it only differs from either one-sided value on
        a finite set.
        """
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
        return PiecewiseConstant1D(self.breakpoints, tuple(float(c) * v for v in self.values))

    __rmul__ = __mul__

    def __neg__(self) -> "PiecewiseConstant1D":
        return self * -1.0

    def __add__(self, other: "PiecewiseConstant1D") -> "PiecewiseConstant1D":
        if len(self.values) == 0:
            return other
        if len(other.values) == 0:
            return self
        bp = _sorted_unique(self.breakpoints, other.breakpoints)
        vals = self._piece_values_at(bp[:-1]) + other._piece_values_at(bp[:-1])
        return PiecewiseConstant1D(bp, vals)

    def __sub__(self, other: "PiecewiseConstant1D") -> "PiecewiseConstant1D":
        return self + (-other)

    def _is_breakpoint(self, x: np.ndarray) -> np.ndarray:
        """Whether each x equals a breakpoint (-0 equals 0, NaN equals none).

        The breakpoints are sorted, so a searchsorted finds the only candidate;
        np.isin would sort them again, and its first sort imports numpy.ma.
        """
        bp = np.asarray(self.breakpoints)
        if not bp.size:
            return np.zeros(x.shape, dtype=bool)
        return bp[np.minimum(np.searchsorted(bp, x), bp.size - 1)] == x

    def _piece_values_at(self, x: np.ndarray, side: str = "right") -> np.ndarray:
        """Value of the piece right of each x (left of it with side="left"), 0 outside.

        At a left endpoint this is the value of the piece it starts, so the
        lookup is exact for pieces of any length.
        """
        if len(self.values) == 0:
            return np.zeros_like(x)
        vals = np.concatenate(([0.0], np.asarray(self.values), [0.0]))
        return vals[np.searchsorted(self.breakpoints, x, side=side)]

    # -- structure ---------------------------------------------------------

    def restrict(self, a: float, b: float) -> "PiecewiseConstant1D":
        """Multiply by the indicator of (a, b); exact, inserts breakpoints."""
        if len(self.values) == 0 or b <= self.breakpoints[0] or a >= self.breakpoints[-1]:
            return PiecewiseConstant1D.zero()
        # an end outside [x_0, x_m] adds no piece: the function is zero there
        ends = np.clip([a, b], self.breakpoints[0], self.breakpoints[-1])
        bp = _sorted_unique(self.breakpoints, ends)
        left = bp[:-1]
        vals = np.where((left >= a) & (bp[1:] <= b), self._piece_values_at(left), 0.0)
        return PiecewiseConstant1D(bp, vals).simplify()

    def simplify(self) -> "PiecewiseConstant1D":
        """Drop leading/trailing zero pieces and merge equal neighbors.

        A merged run keeps its first value, which fixes the sign of a zero run.
        """
        nz = np.flatnonzero(self.values)
        if not nz.size:
            return PiecewiseConstant1D.zero()
        vals = np.asarray(self.values)[nz[0] : nz[-1] + 1]
        bp = np.asarray(self.breakpoints)[nz[0] : nz[-1] + 2]
        starts = np.flatnonzero(np.concatenate(([True], vals[1:] != vals[:-1])))
        return PiecewiseConstant1D(np.append(bp[starts], bp[-1]), vals[starts])

    def abs(self) -> "PiecewiseConstant1D":
        return PiecewiseConstant1D(self.breakpoints, tuple(abs(v) for v in self.values))

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
