"""Sampled functions on a uniform one-dimensional lattice.

Cells are closed-open intervals of side h tiling [-L, L) with L/h an integer,
indexed left to right; the function is the cell value on each cell and zero
outside the domain.  This substrate carries the discretized maximal operator
and its weighted norms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class LatticeFunction:
    n: int
    h: float
    L: float
    values: np.ndarray  # length 2L/h, left to right

    def __post_init__(self) -> None:
        if self.n != 1:
            raise ValueError(f"lattice dimension must be 1, got {self.n}")
        if not self.h > 0:
            raise ValueError("cell width must be positive")
        ratio = self.L / self.h
        if not np.isclose(ratio, round(ratio)) or round(ratio) < 1:
            raise ValueError(f"L/h must be a positive integer, got {ratio}")
        vals = np.asarray(self.values, dtype=float)
        if vals.size != self.cells_per_axis:
            raise ValueError(f"expected {self.cells_per_axis} values, got {vals.size}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        vals = vals.reshape(-1).copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def cells_per_axis(self) -> int:
        return 2 * round(self.L / self.h)

    def axis_midpoints(self) -> np.ndarray:
        """Cell-center coordinates."""
        m = self.cells_per_axis
        return -self.L + (np.arange(m) + 0.5) * self.h

    def midpoint_radii(self) -> np.ndarray:
        """|cell center| for every cell."""
        return np.abs(self.axis_midpoints())

    def with_values(self, values: np.ndarray) -> "LatticeFunction":
        return LatticeFunction(self.n, self.h, self.L, values)

    @classmethod
    def from_callable(
        cls, fn: Callable[[np.ndarray], np.ndarray], n: int, h: float, L: float
    ) -> "LatticeFunction":
        """Sample fn at cell centers; fn maps a coordinate array to values."""
        probe = cls(n, h, L, np.zeros(2 * round(L / h)))
        return cls(n, h, L, np.asarray(fn(probe.axis_midpoints()), dtype=float))
