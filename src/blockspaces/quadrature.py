"""Gauss-Legendre quadrature on panel decompositions of the line.

Weighted norms of operator outputs are integrated shell-by-shell on dyadic
panels.  Panel nodes scale bit-exactly under multiplication by powers of two
(the affine node map commutes with exact binary scaling), which the scale
sweeps rely on: measuring a dilated function on a dilated grid reproduces
the base measurement to the last bit except for rounding inside the operator
evaluator itself.
"""

from __future__ import annotations

import functools
import math

import numpy as np


@functools.lru_cache(maxsize=None)
def _gl_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    t, w = np.polynomial.legendre.leggauss(nodes)
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def panel_nodes(edges, nodes: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature abscissae and weights for the panels between consecutive edges."""
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise ValueError("need at least two panel edges")
    if not np.all(np.diff(edges) > 0):
        raise ValueError("panel edges must be strictly increasing")
    t, w = _gl_rule(nodes)
    centers = 0.5 * (edges[:-1] + edges[1:])
    halfw = 0.5 * (edges[1:] - edges[:-1])
    x = centers[:, None] + halfw[:, None] * t[None, :]
    wts = halfw[:, None] * w[None, :]
    return x.ravel(), wts.ravel()


def shell_grid(j_min: int, j_max: int, nodes_per_shell: int = 24) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric quadrature over (2^j_min, 2^j_max+1] on both half-lines.

    One Gauss-Legendre panel per dyadic shell per sign.  Multiplying the
    nodes and weights by an exact power of two (np.ldexp) gives, bit for bit,
    the grid of the dilated shells, as long as the products stay normal floats.
    """
    if j_max < j_min:
        raise ValueError(f"empty shell range [{j_min}, {j_max}]")
    edges = np.ldexp(1.0, np.arange(j_min, j_max + 2))
    x_pos, w_pos = panel_nodes(edges, nodes_per_shell)
    x = np.concatenate([-x_pos[::-1], x_pos])
    w = np.concatenate([w_pos[::-1], w_pos])
    return x, w


def weighted_power_terms(values, x, w, p: float, alpha: float) -> np.ndarray:
    """w * |values|^p * |x|^alpha per node -- the integrand of the weighted norm."""
    values = np.asarray(values, dtype=float)
    x = np.asarray(x, dtype=float)
    return np.asarray(w) * np.abs(values) ** p * np.abs(x) ** alpha


def weighted_power_integral(values, x, w, p: float, alpha: float) -> float:
    """sum of w * |values|^p * |x|^alpha over the nodes."""
    return float(np.sum(weighted_power_terms(values, x, w, p, alpha)))


def weighted_norm_from_samples(values, x, w, p: float, alpha: float) -> float:
    return weighted_power_integral(values, x, w, p, alpha) ** (1.0 / p)


def oscillation_edges(breakpoints, x_max: float, spacing: float) -> np.ndarray:
    """Panel edges on [-x_max, x_max] resolving oscillation and a weight singularity at 0.

    Union of a uniform grid at the requested spacing, geometric grading
    toward 0 on both sides (down to min(1, x_max) * 2^-40), and the supplied
    breakpoints; sorted, deduplicated.
    """
    if x_max <= 0 or spacing <= 0:
        raise ValueError("x_max and spacing must be positive")
    count = int(math.ceil(x_max / spacing))
    uniform = np.linspace(0.0, x_max, count + 1)
    pos = np.concatenate([uniform, min(1.0, x_max) * np.ldexp(1.0, np.arange(-40, 1))])
    bps = np.asarray([b for b in breakpoints if abs(b) <= x_max], dtype=float)
    return np.unique(np.concatenate([-pos, pos, bps]))
