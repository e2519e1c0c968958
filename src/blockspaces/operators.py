"""Maximal, Hilbert, partial-sum, and Carleson operators on explicit data.

Everything here is evaluated through closed forms.  The Hilbert transform
and the partial sum S_N of a piecewise-constant f are one jump sum,
(1/pi) sum_j c_j g(x - b_j) over the jumps c_j of f at its breakpoints b_j,
with g = log|.| or g = Si(2 pi N .).  The maximal truncated Hilbert transform
and the Carleson operator are one sup over levels: the pointwise max of
|T f| over an explicit geometric schedule of truncations or frequencies.
The uncentered maximal function is evaluated exactly from a finite set of
candidate intervals; the claims measure it that way.  A discretized lattice
maximal function stays beside it as a second route.

Working sets stay bounded.  The points x breakpoints kernels (S_N and both
Hilbert forms) and the exact maximal function's candidate intervals run over
row blocks of about 256 KiB per float64 temporary instead of one dense
array, so their peak memory does not grow with the number of points and
each temporary stays in cache.  The blocks reproduce the dense results bit
for bit and do not depend on the BLAS thread count.  The lattice maximal
function filters each window width only over the cells that window can
reach from the support of |f|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import LatticeFunction
from .params import DomainEvaluationError
from .piecewise import PiecewiseConstant1D
from .sine_integral import sine_integral

#: ratio between consecutive schedule entries balancing cost vs sup accuracy
DEFAULT_SCHEDULE_RATIO = 2.0 ** 0.25

#: PV evaluation keeps this fraction of the minimal piece length clear of breakpoints
PV_EXCLUSION_SCALE = 2.0 ** -20

#: bytes of one float64 (block rows x columns) temporary in the row-blocked kernels
_BLOCK_BYTES = 1 << 18


def pv_exclusion_radius(f: PiecewiseConstant1D) -> float:
    if f.is_zero:
        return 0.0
    return PV_EXCLUSION_SCALE * f.min_piece_length


def nearest_breakpoint(x: np.ndarray, breakpoints: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of and distance to the nearest of the sorted breakpoints, per point.

    Float subtraction is monotone, so the minimum of |x - b| over all
    breakpoints is attained at one of the two neighbours searchsorted finds:
    the distance equals the dense points x breakpoints minimum bit for bit,
    in O(points) memory.  Ties go to the lower breakpoint.
    """
    hi = np.minimum(np.searchsorted(breakpoints, x), breakpoints.size - 1)
    lo = np.maximum(hi - 1, 0)
    d_lo = np.abs(x - breakpoints[lo])
    d_hi = np.abs(x - breakpoints[hi])
    take_hi = d_hi < d_lo
    return np.where(take_hi, hi, lo), np.where(take_hi, d_hi, d_lo)


@dataclass(frozen=True)
class EvalGrid:
    """Evaluation abscissae cleared for principal-value evaluation of f.

    for_function keeps the points and raises, as hilbert does, if one lies
    within pv_exclusion_radius(f) of a breakpoint of f; filtered drops those.
    """

    points: tuple[float, ...]

    @classmethod
    def for_function(cls, f: PiecewiseConstant1D, points) -> "EvalGrid":
        pts = np.atleast_1d(np.asarray(points, dtype=float))
        _require_pv_clear(f, pts)
        return cls(tuple(pts.tolist()))

    @classmethod
    def filtered(cls, f: PiecewiseConstant1D, points) -> "EvalGrid":
        """Like for_function but silently dropping offending abscissae."""
        pts = np.atleast_1d(np.asarray(points, dtype=float))
        return cls(tuple(pts[~_pv_hits(f, pts)[0]].tolist()))


def _as_points(grid) -> np.ndarray:
    if isinstance(grid, EvalGrid):
        return np.asarray(grid.points, dtype=float)
    return np.atleast_1d(np.asarray(grid, dtype=float))


def _pv_hits(f: PiecewiseConstant1D, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which x lie within pv_exclusion_radius(f) of a breakpoint (none if f is 0), and each nearest."""
    if f.is_zero or not x.size:
        return np.zeros(x.size, dtype=bool), np.zeros(x.size, dtype=int)
    nearest, dist = nearest_breakpoint(x, np.asarray(f.breakpoints, dtype=float))
    return dist <= pv_exclusion_radius(f), nearest


def _require_pv_clear(f: PiecewiseConstant1D, x: np.ndarray) -> None:
    hit, nearest = _pv_hits(f, x)
    if hit.any():
        i = int(np.flatnonzero(hit)[0])
        raise DomainEvaluationError(
            f"principal-value evaluation at x={float(x[i])!r} within "
            f"{float(pv_exclusion_radius(f))!r} of breakpoint {f.breakpoints[nearest[i]]!r}"
        )


def _rowwise(kernel, x: np.ndarray, ncols: int, coeffs: np.ndarray) -> np.ndarray:
    """kernel(x) @ coeffs for a kernel giving one row of ncols per point, in row blocks.

    Equal bit for bit to the dense product, whose kernel matrix the blocks
    never hold at once.
    """
    # OpenBLAS dgemv sums rows in groups of 4, so each row's reduction order
    # is the dense one only if every block starts at a multiple of 4;
    # multiples of 64 keep that for any kernel width.  Blocks this small
    # also give the same bits with one BLAS thread and with two, which the
    # dense product does not (tests/test_blocking.py)
    rows = max(64, _BLOCK_BYTES // (8 * ncols) // 64 * 64)
    starts = list(range(0, x.size, rows))
    # numpy sends a 1-row matmul to dot, which sums in another order than
    # gemv: a final 1-row block joins the block before it
    if len(starts) > 1 and x.size - starts[-1] == 1:
        starts.pop()
    out = np.empty(x.size)
    for lo, hi in zip(starts, starts[1:] + [x.size]):
        out[lo:hi] = kernel(x[lo:hi]) @ coeffs
    return out


def _jump_sum(f: PiecewiseConstant1D, x: np.ndarray, g) -> np.ndarray:
    """(1/pi) sum_i v_i (g(x - b_i) - g(x - b_i+1)), summed as (1/pi) sum_j c_j g(x - b_j).

    c_j is the jump of f at b_j.  g acts elementwise on a block of points x
    breakpoints differences that nothing else holds, and overwrites it: each
    further block-sized temporary that stays live takes fresh pages from the
    allocator on every block.
    """
    bps = np.asarray(f.breakpoints, dtype=float)
    c = np.diff(np.concatenate([[0.0], np.asarray(f.values, dtype=float), [0.0]]))
    return _rowwise(lambda xb: g(xb[:, None] - bps[None, :]), x, bps.size, c) / math.pi


def _sup_abs(levels, evaluate, x: np.ndarray) -> np.ndarray:
    """max over the levels of |evaluate(level)| at the points x."""
    out = np.zeros_like(x)
    for level in levels:
        np.maximum(out, np.abs(evaluate(float(level))), out=out)
    return out


def hilbert(f: PiecewiseConstant1D, grid) -> np.ndarray:
    """Principal-value convolution with 1/(pi x), exact away from breakpoints.

    Hf(x) = (1/pi) sum_i v_i (log|x - b_i| - log|x - b_i+1|); the only error
    is floating-point rounding.  Abscissae within the exclusion radius of a
    breakpoint raise DomainEvaluationError.
    """
    x = _as_points(grid)
    if f.is_zero:
        return np.zeros_like(x)
    _require_pv_clear(f, x)
    return _jump_sum(f, x, lambda d: np.log(np.abs(d, out=d), out=d))


def _clipped_log(num: np.ndarray, den: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """log(num / den) where mask holds, 0 elsewhere, written over num; the ratio is formed only under the mask."""
    np.divide(num, den, out=num, where=mask)
    np.copyto(num, 1.0, where=~mask)
    return np.log(num, out=num)


def hilbert_truncated(f: PiecewiseConstant1D, eps: float, grid) -> np.ndarray:
    """Integral of f(y)/(pi (x-y)) over |x - y| > eps, by exact interval clipping."""
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    x = _as_points(grid)
    if f.is_zero:
        return np.zeros_like(x)
    bps = np.asarray(f.breakpoints, dtype=float)
    v = np.asarray(f.values, dtype=float)
    a, b = bps[:-1][None, :], bps[1:][None, :]

    def clipped_logs(xb):
        # log((x - a) / (x - bl)) where a < bl = min(b, x - eps), plus
        # log((ar - x) / (b - x)) where ar = max(a, x + eps) < b, in three
        # block buffers: each further live temporary takes fresh pages
        xx = xb[:, None]
        bl = np.minimum(b, xx - eps)
        mask = a < bl
        left = _clipped_log(xx - a, np.subtract(xx, bl, out=bl), mask)
        ar = np.maximum(a, xx + eps, out=bl)
        np.less(ar, b, out=mask)
        right = _clipped_log(np.subtract(ar, xx, out=ar), b - xx, mask)
        return np.add(left, right, out=left)

    return _rowwise(clipped_logs, x, v.size, v) / math.pi


def geometric_schedule(lo: float, hi: float) -> np.ndarray:
    """Ascending lo * DEFAULT_SCHEDULE_RATIO^i, ending one level past the first one >= hi."""
    if not 0 < lo <= hi:
        raise ValueError("need 0 < lo <= hi")
    count = int(math.ceil(math.log(hi / lo) / math.log(DEFAULT_SCHEDULE_RATIO) - 1e-12)) + 1
    return lo * DEFAULT_SCHEDULE_RATIO ** np.arange(count + 1)


def refine_schedule(schedule: np.ndarray) -> np.ndarray:
    """Insert geometric midpoints, doubling the schedule's density."""
    s = np.asarray(schedule, dtype=float)
    if s.size < 2:
        return s
    mids = np.sqrt(s[:-1] * s[1:])
    return np.sort(np.concatenate([s, mids]))


def _levels(schedule, name: str) -> np.ndarray:
    """A sup operator's distinct levels, ascending: a sup ignores their order and repeats."""
    levels = np.unique(np.asarray(schedule, dtype=float))
    if not (levels.size and np.all(levels > 0)):  # NaN fails > 0 too
        raise ValueError(f"{name} schedule must be nonempty and positive")
    return levels


def hilbert_maximal(f: PiecewiseConstant1D, eps_schedule, grid) -> np.ndarray:
    """sup over the schedule's levels, in any order, of |truncated Hilbert transform|."""
    x = _as_points(grid)
    return _sup_abs(_levels(eps_schedule, "eps"), lambda eps: hilbert_truncated(f, eps, x), x)


def modulate(values, x, N: float) -> np.ndarray:
    """Pointwise multiplication by e^{2 pi i N x}; norm-preserving in every L^p."""
    return np.asarray(values) * np.exp(2j * math.pi * N * np.asarray(x, dtype=float))


def dirichlet_sn(f: PiecewiseConstant1D, N: float, grid) -> np.ndarray:
    """Frequency cutoff of f to [-N, N], exact through the sine integral.

    S_N f(x) = (1/pi) sum_i v_i (Si(2 pi N (x - b_i)) - Si(2 pi N (x - b_i+1))).
    Entire in x, so breakpoints are admissible abscissae.
    """
    if not N > 0:
        raise ValueError(f"N must be positive, got {N}")
    x = _as_points(grid)
    if f.is_zero:
        return np.zeros_like(x)
    scale = 2.0 * math.pi * N

    def si_of_phase(d):
        with np.errstate(over="ignore"):  # an overflowing phase is exact: Si(+-inf) = +-pi/2
            np.multiply(d, scale, out=d)
        return sine_integral(d)

    return _jump_sum(f, x, si_of_phase)


def _spectral_hilbert(samples: np.ndarray) -> np.ndarray:
    """Periodic Hilbert transform by Fourier multiplier -i sgn(xi).

    The zero mode and the unpaired Nyquist mode carry sgn = 0.
    """
    M = samples.size
    spec = np.fft.fft(samples)
    idx = np.fft.fftfreq(M, d=1.0 / M)
    mult = -1j * np.sign(idx)
    if M % 2 == 0:
        mult[M // 2] = 0.0
    return np.fft.ifft(spec * mult)


@dataclass(frozen=True)
class SpectralPartialSum:
    x: np.ndarray
    values: np.ndarray
    warnings: tuple[str, ...]


def dirichlet_sn_via_hilbert(
    f: PiecewiseConstant1D, N: float, m: int = 16, L: float = 64.0
) -> SpectralPartialSum:
    """Cross-validation route for S_N through modulated periodic Hilbert transforms.

    Samples f on 2^m nodes over [-L, L), then evaluates
    (i/2) (M^-N H M^N - M^N H M^-N) with the spectral H.  Node samples at
    on-grid jumps take the two-sided mean (the function's own calling
    convention), which keeps the sampling error O(h^2).  This is the
    secondary route; the sine-integral evaluator is the oracle.
    """
    if not N > 0:
        raise ValueError(f"N must be positive, got {N}")
    M = 1 << m
    h = 2.0 * L / M
    band_limit = M / (4.0 * L)
    if N >= band_limit:
        raise DomainEvaluationError(
            f"N={N} at or above the grid band limit {band_limit} (m={m}, L={L})"
        )
    warnings = []
    if (2.0 * L * N) != round(2.0 * L * N):
        warnings.append(
            f"N={N} is not a multiple of the torus frequency 1/(2L); spectral leakage expected"
        )
    bounds = f.support_bounds
    if bounds is not None and max(abs(bounds[0]), abs(bounds[1])) >= 0.5 * L:
        warnings.append(
            f"support {bounds} reaches half the period L={L}; periodization error grows"
        )
    x = -L + h * np.arange(M)
    g = f(x).astype(complex)
    up = modulate(_spectral_hilbert(modulate(g, x, N)), x, -N)
    down = modulate(_spectral_hilbert(modulate(g, x, -N)), x, N)
    s = 0.5j * (up - down)
    return SpectralPartialSum(x, s.real, tuple(warnings))


def carleson(
    f: PiecewiseConstant1D,
    N_schedule,
    grid,
    refine_tolerance: float | None = None,
    max_refinements: int = 8,
) -> np.ndarray:
    """max over the schedule of |S_N f|, each distinct level evaluated once.

    With refine_tolerance set, the schedule density doubles until the sup
    changes by less than the tolerance everywhere or the cap is hit; each
    doubling evaluates only the levels it inserts, so the values are
    monotone nondecreasing.  Refinement stops at the first doubling that
    moves the sup by less than the tolerance, even when that move is
    exactly 0 and a later doubling would move it by more.
    """
    sched = _levels(N_schedule, "N")  # sorted: refine_schedule splits the gaps between neighbours
    x = _as_points(grid)

    def sn(N):
        return dirichlet_sn(f, N, x)

    values = _sup_abs(sched, sn, x)
    if refine_tolerance is None:
        return values
    for _ in range(max_refinements):
        finer = refine_schedule(sched)
        refined = np.maximum(values, _sup_abs(np.setdiff1d(finer, sched), sn, x))
        delta = float(np.max(refined - values)) if x.size else 0.0
        values, sched = refined, finer
        if delta < refine_tolerance:
            break
    return values


def hl_maximal(f: LatticeFunction, window_halfwidths) -> LatticeFunction:
    """Uncentered lattice maximal function over interval windows.

    At each cell the value is the maximum, over windows of side (2w+1)h for
    every supplied halfwidth w plus the degenerate single-cell window, of the
    average of |f| over any such window containing the cell.  Averages use
    zero padding outside the domain with the window measure unreduced.

    Width w is filtered only over the cells within 2(2w+1) of the support of
    |f|; every cell it cannot reach keeps the exact value 0 for it.  A
    filter over the whole domain would leave a running-sum residue of ulp
    size past the support there, where the true average is 0.
    """
    widths = [int(w) for w in window_halfwidths]
    if not widths:
        raise ValueError("window halfwidth list is empty")
    if any(w <= 0 for w in widths):
        raise ValueError("window halfwidths must be positive integers")
    if max(widths) > f.cells_per_axis:
        raise ValueError(
            f"window halfwidth {max(widths)} exceeds the domain's {f.cells_per_axis} cells"
        )
    from scipy import ndimage  # only claim 3.1 needs it; kept out of `import blockspaces`

    absf = np.abs(f.values)
    out = absf.copy()
    support = np.flatnonzero(absf)
    if not support.size:
        return f.with_values(out)
    first, last = int(support[0]), int(support[-1])
    for w in sorted(set(widths)):
        size = 2 * w + 1
        lo, hi = max(first - 2 * size, 0), min(last + 1 + 2 * size, absf.size)
        avg = ndimage.uniform_filter(absf[lo:hi], size=size, mode="constant", cval=0.0)
        reach = ndimage.maximum_filter(avg, size=size, mode="constant", cval=0.0)
        np.maximum(out[lo:hi], reach, out=out[lo:hi])
    return f.with_values(out)


def maximal_1d_exact(f: PiecewiseConstant1D, grid) -> np.ndarray:
    """Exact continuum uncentered maximal function of piecewise-constant f.

    The average over [a, b] containing x is maximized at endpoints drawn from
    the breakpoints and x itself (the derivative in each endpoint has the
    sign of (average - boundary value), which is constant per piece), so the
    supremum over all intervals reduces to a finite candidate set.  Its
    averages share one mass per endpoint; a non-finite x gives NaN.

    Points go in row blocks whose (left, right) candidate arrays stay within
    _BLOCK_BYTES.  A block's left ends are the breakpoints below its largest
    point, each clipped to min(b, x), plus x: the clipped ones repeat x, so
    every point sees its own candidate set plus copies of x, and its value
    is bit-equal to the one it gets alone.  Right ends mirror this.
    """
    x = _as_points(grid)
    if f.is_zero:
        return np.where(np.isfinite(x), 0.0, np.nan)
    g = f.abs()
    bps = np.asarray(g.breakpoints, dtype=float)
    v = np.asarray(g.values, dtype=float)
    cum = np.concatenate([[0.0], np.cumsum(v * np.diff(bps))])

    def mass_upto(t: np.ndarray) -> np.ndarray:
        tt = np.clip(t, bps[0], bps[-1])
        j = np.clip(np.searchsorted(bps, tt, side="right") - 1, 0, v.size - 1)
        return cum[j] + v[j] * (tt - bps[j])

    out = np.full_like(x, np.nan)  # no interval contains a non-finite x
    finite = np.flatnonzero(np.isfinite(x))
    rows = max(1, _BLOCK_BYTES // (8 * (bps.size + 1) ** 2))
    for lo in range(0, finite.size, rows):
        idx = finite[lo : lo + rows]
        xb = x[idx][:, None]
        a = np.concatenate([np.minimum(bps[bps < xb.max()], xb), xb], axis=1)
        b = np.concatenate([xb, np.maximum(bps[bps > xb.min()], xb)], axis=1)
        span = b[:, None, :] - a[:, :, None]
        mass = mass_upto(b)[:, None, :] - mass_upto(a)[:, :, None]
        avg = np.divide(mass, span, out=np.full(span.shape, -np.inf), where=span > 0)
        out[idx] = np.maximum(avg.max(axis=(1, 2)), g(xb[:, 0]))
    return out
