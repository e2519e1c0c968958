"""Maximal, Hilbert, partial-sum, and Carleson operators on explicit data.

Everything here is evaluated through closed forms.  The Hilbert transform
and the partial sum S_N of a piecewise-constant f are one jump sum,
(1/pi) sum_j c_j g(x - b_j) over the jumps c_j of f at its breakpoints b_j,
with g = log|.| or g = Si(2 pi N .).  `hilbert` sums the logs only for the
breakpoints in and next to the octave of |x| and takes the others by the
far-field series of the fast multipole method, one table of coefficients
per group of breakpoints (see there).  The maximal truncated Hilbert transform
and the Carleson operator are one sup over levels: the pointwise max of
|T f| over an explicit geometric schedule of truncations or frequencies.
The uncentered maximal function is the max of |f|(x) and the averages
over the intervals between x and each breakpoint (`maximal_1d_exact`,
whose rounding is stated there); the claims measure it that way.  A
discretized lattice maximal function stays beside it as a second route.

Working sets stay bounded.  The points x breakpoints kernels (S_N, both
Hilbert forms and `maximal_1d_exact`) run over row blocks of about
256 KiB per float64 temporary instead of one dense array, so their peak
memory does not grow with the number of points and each temporary stays
in cache.  The S_N and H_eps kernels allocate their block buffers once
per call and reuse them for every block, so the blocks do not fault in
fresh pages one after another.  The blocks of S_N and H_eps reproduce the
dense results bit for bit, and every kernel's bits are the same for any
BLAS thread count.  The lattice maximal function filters each window
width only over the cells that window can reach from the support of |f|.

S_N and H_eps each have one kernel (`_sn_rows`, `_truncated_rows`), a
family over the levels N or eps, which serves both the fixed level
(`dirichlet_sn`, `hilbert_truncated`: one level) and the sup (`carleson`,
`hilbert_maximal`: the max of |T f| over the levels).  A block is one
generator, which does the work no level changes and then yields the
block's kernel at each level.  A block of H_eps takes the logs of the
distances |x - b_j| once, each point's row scaled by the octave of its
farthest breakpoint, and a level clamps them from below at log eps and
yields the pieces' differences L(a) - L(b); a block of S_N forms x - b_j
again for each level, in its one buffer.  The kernels also serve a
family of functions on shared breakpoints, one row of values per
function: each block's kernel is built once and multiplied with each row
as its own matrix-vector product, so every row has the bits of the call
on its function alone.  Claim 3.1 evaluates its 13
dilated blocks as one such family over the levels of its carleson and
hilbert_maximal schedules.

S_N f is band-limited, so `dirichlet_sn` may take it at few points
instead of many.  An explicit bound on the Chebyshev interpolant of an
entire function of exponential type 2 pi N (_sn_degree) gives, from the
span of the finite points alone, the least degree n that meets
2^-53 sum_j |c_j|.  Where (n + 1)(points + 4 breakpoints) <= points x
breakpoints, `_sn_rows` runs at the n + 1 Chebyshev points of the span
and the barycentric formula gives every finite point
(_sn_interpolated); elsewhere `_sn_rows` runs at every point.  So a
routed value depends on the span of its grid, within the bound plus
rounding of the direct value.  `carleson` and the lattice kernel below
are not routed.

The two fixed-N partial-sum integrals, claim 6.3's error norm e(N) and
claim 3.1's dirichlet_sn leg, evaluate S_N f - f at the Gauss-Legendre
nodes of the cells of width 1/(4N) of the lattice Z/(4N)
(`_sn_error_on_lattice`), each function and x -> f(-x) as rows of one
call.  There every Si phase is a quarter turn times an integer m plus a
fixed offset per node and per fractional part d of 4N b_j, so
R(t) = Si(t) - sgn(t) pi/2 is one table over (m, node) per offset,
computed at a lattice point once for every breakpoint of every row with
that offset, and each row sums its jumps times windows of the table.  Its
cos and sin come from four signed entries, so no trig runs per point, and
f is never cancelled against the limits pi/2.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .lattice import LatticeFunction
from .params import DomainEvaluationError
from .piecewise import PiecewiseConstant1D, _sorted_unique
from .sine_integral import (
    _ASYMPTOTIC_CUTOFF,
    _ASYMPTOTIC_TERMS,
    _FAR_BOUND,
    _FAR_TERMS,
    _asymptotic_remainder,
    _asymptotic_series,
    sine_integral,
)

#: 2^(j/4) for j = 0..3: a schedule steps by quarter octaves, balancing cost vs sup accuracy
_QUARTER_OCTAVES = np.array([1.0, 2.0 ** 0.25, 2.0 ** 0.5, 2.0 ** 0.75])

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
    Both record f's breakpoints and exclusion radius in `cleared`, and
    hilbert skips its own check on a grid cleared for the f it is given.
    """

    points: tuple[float, ...]
    #: (breakpoints, exclusion radius) of the f the points were cleared for, or None
    cleared: tuple | None = field(default=None, repr=False)

    @classmethod
    def for_function(cls, f: PiecewiseConstant1D, points) -> "EvalGrid":
        pts = np.atleast_1d(np.asarray(points, dtype=float))
        _require_pv_clear(f, pts)
        return cls(tuple(pts.tolist()), _clearance(f))

    @classmethod
    def filtered(cls, f: PiecewiseConstant1D, points) -> "EvalGrid":
        """Like for_function but silently dropping offending abscissae."""
        pts = np.atleast_1d(np.asarray(points, dtype=float))
        return cls(tuple(pts[~_pv_hits(f, pts)[0]].tolist()), _clearance(f))


def _clearance(f: PiecewiseConstant1D) -> tuple:
    """What a grid cleared for f records: f's breakpoints and exclusion radius."""
    return f.breakpoints, pv_exclusion_radius(f)


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


def _rowwise(kernel_for, x: np.ndarray, ncols: int, coeffs: np.ndarray, sup: bool) -> np.ndarray:
    """A family of kernels giving one row of ncols per point, times each row c of coeffs.

    kernel_for(rows) allocates the family's block buffers, once per call,
    for blocks of at most `rows` points, and returns blocks.  The generator
    blocks(xb) does a block's work that no level changes, then yields the
    block's kernel at each level, each used up before the next is made.
    With sup the result is max over the levels of |kernel @ c|; without,
    blocks yields one kernel and the result is kernel @ c.  It has one row
    per row of coeffs.

    Each block's kernel is built once and multiplied with every row c as
    the 1-D `block @ c`, so each row is equal bit for bit to the dense
    product for its c alone, whose kernel matrix the blocks never hold at
    once.
    """
    # OpenBLAS dgemv sums rows in groups of 4, so each row's reduction order
    # is the dense one only if every block starts at a multiple of 4;
    # multiples of 64 keep that for any kernel width.  Blocks this small
    # also give the same bits with one BLAS thread and with two, which the
    # dense product does not (tests/test_blocking.py)
    n = x.size
    rows = max(64, _BLOCK_BYTES // (8 * ncols) // 64 * 64)
    starts = list(range(0, n, rows))
    # numpy sends a 1-row matmul to dot, which sums in another order than
    # gemv: a final 1-row block joins the block before it, one row longer
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    bounds = list(zip(starts, starts[1:] + [n]))
    blocks = kernel_for(max((hi - lo for lo, hi in bounds), default=0))
    out = np.zeros((coeffs.shape[0], n))
    for lo, hi in bounds:
        for block in blocks(x[lo:hi]):
            # one gemv per row: a gemm over all rows would not pin each row's reduction order
            for row, c in zip(out, coeffs):
                if sup:
                    np.maximum(row[lo:hi], np.abs(block @ c), out=row[lo:hi])
                else:
                    row[lo:hi] = block @ c
    return out


def _differences(xb: np.ndarray, bps: np.ndarray, out: np.ndarray) -> np.ndarray:
    """x - b_j for every point x of xb and breakpoint b_j, written over out."""
    # copying the points first leaves a subtraction that broadcasts one way
    # only, which numpy runs faster than one broadcasting both ways
    np.copyto(out, xb[:, None])
    out -= bps
    return out


def _one_row(f: PiecewiseConstant1D) -> tuple[np.ndarray, np.ndarray]:
    """f's breakpoints and its values as a coefficient matrix of one row."""
    return np.asarray(f.breakpoints, dtype=float), np.asarray(f.values, dtype=float)[None]


def hilbert(f: PiecewiseConstant1D, grid) -> np.ndarray:
    """Principal-value convolution with 1/(pi x), exact away from breakpoints.

    Hf(x) = (1/pi) sum_j c_j log|x - b_j| over the jumps c_j of f at its
    breakpoints b_j.  Each point x, 2^k <= |x| < 2^(k+1), takes the sum in
    its own scale 2^k (the jumps sum to 0, so log 2^k drops out) and splits
    the breakpoints in three groups (_hilbert_rows):

    * inner, |b_j| <= 2^(k-1): the multipole form
      C_I log|x 2^-k| - sum_m A_m x^-m / m, A_m = sum_I c_j b_j^m, with
      C_I = sum_I c_j the exact difference of the values bounding the run;
    * outer, |b_j| >= 2^(k+2): the local form
      sum_O c_j log|b_j 2^-k| - sum_m B_m x^m / m, B_m = sum_O c_j b_j^-m;
    * near, the others: their logs.

    The ratio r of either series, |b_j / x| or |x / b_j| over its group, is
    at most 1/2, and a series stops at the first m with r^m <= 2^-56, so its
    tail is below 2^-56 r sum |c_j| over the group.  Far from the support no
    log of nearly equal numbers is cancelled.  Hf(2^j x) of f(2^-j .) has
    the bits of Hf(x) while every number stays normal, Hf of an even f is
    odd bit for bit, and a value depends on its point alone.  A non-finite
    x gives NaN.

    Abscissae within the exclusion radius of a breakpoint raise
    DomainEvaluationError; an EvalGrid cleared for f is not checked again.
    """
    x = _as_points(grid)
    if f.is_zero:
        return np.where(np.isfinite(x), 0.0, np.nan)
    if not (isinstance(grid, EvalGrid) and grid.cleared == _clearance(f)):
        _require_pv_clear(f, x)
    return _hilbert_rows(*_one_row(f), x)[0]


#: terms of a far series at most: its ratio is at most 1/2, and (1/2)^56 = 2^-56
_HILBERT_TERMS = 56

#: the octave of x = 0, and the scale exponent of an empty inner (-) or outer (+)
#: group: past every float's exponent, so 2^-_NO_OCTAVE underflows to 0
_NO_OCTAVE = 4096


def _hilbert_rows(bps: np.ndarray, values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """hilbert of each row of values on the sorted breakpoints bps at x, one row per function.

    A point's groups depend on its octave alone, and an inner or an outer
    group is a run of breakpoints that many octaves share: there are at
    most one more than the octaves of the breakpoints.  Each group's series
    coefficients are built once (_far_tables), in the scale 2^K of its own
    largest (inner) or smallest (outer) octave, where no power overflows,
    and a point reaches them through w = 2^K / x or x / 2^K.  Both series of
    all points run in one Horner loop (_horner); the near logs go per octave
    (_near_logs).

    Rounding: a value depends on its point and row alone, whatever else the
    call holds.  Every sum over breakpoints runs per sign of b_j in the order
    of increasing |b_j|, the negative side first, so on an even f the sides
    cancel or double exactly.
    """
    rows, m, n = values.shape[0], bps.size, x.size
    V = np.zeros((rows, m + 1))  # V[j] is f left of b_j, so c_j = V[j + 1] - V[j]
    V[:, 1:-1] = values
    c = V[:, 1:] - V[:, :-1]
    # each side's (|b_j|, b_j, c_j) in the order of increasing |b_j|; b_j = 0
    # is inner at every octave and takes part through C_I alone.  The c_j go
    # row-major, so that every sum over them runs along one row alone
    neg, pos = np.flatnonzero(bps < 0)[::-1], np.flatnonzero(bps > 0)
    sides = [(np.abs(bps[i]), bps[i], np.ascontiguousarray(c[:, i])) for i in (neg, pos)]

    mant, k = np.frexp(x)
    k -= 1
    u = np.multiply(mant, 2.0, out=mant)  # x 2^-k exactly
    special = np.flatnonzero(~np.isfinite(u) | (u == 0.0))
    u_or_1 = u
    if special.size:  # x = 0 takes the octave below all, where every b_j is outer; NaN goes in at the end
        k[special], u[special] = -_NO_OCTAVE, 0.0
        u_or_1 = u.copy()
        u_or_1[special] = 1.0
    low = int(k.min(initial=0))
    present = np.bincount(k - low) > 0
    octaves = np.flatnonzero(present) + low
    at = (np.cumsum(present) - 1).astype(np.int32)[k - low]
    # per side and octave, how many breakpoints are inner (|b_j| <= 2^(k-1),
    # the first ones) and how many outer (|b_j| >= 2^(k+2), the last ones)
    with np.errstate(over="ignore"):  # 2^(k+2) = inf past the float range: no outer group
        edges = np.ldexp(1.0, octaves - 1), np.ldexp(1.0, octaves + 2)
    inner = np.array([a.searchsorted(edges[0], side="right") for a, _, _ in sides])
    outer = np.array([a.size - a.searchsorted(edges[1]) for a, _, _ in sides])
    in_sets, in_id = _distinct_columns(inner)
    out_sets, out_id = _distinct_columns(outer)
    A, K_in, ratio_in = _far_tables(sides, in_sets, rows, True)
    B, K_out, ratio_out, logs = _far_tables(sides, out_sets, rows, False)
    # the exact sums of c_j over the inner run and over the two outer runs
    C_in = V[:, m - pos.size + in_sets[1]] - V[:, neg.size - in_sets[0]]
    C_out = V[:, out_sets[0]] - V[:, m - out_sets[1]]

    in_id, out_id = in_id[at], out_id[at]
    w = np.empty(2 * n)  # the inner series' w, then the outer series'
    np.ldexp(np.divide(1.0, u_or_1, out=w[:n]), K_in[in_id] - k, out=w[:n])
    np.ldexp(u, k - K_out[out_id], out=w[n:])
    series = _horner(
        np.concatenate([A, B], axis=1),
        np.concatenate([in_id, out_id + A.shape[1]]),  # the outer tables follow the inner ones
        w,
        np.concatenate([ratio_in, ratio_out]),
    )
    out = _near_logs(sides, inner, outer, octaves, at, u, rows)
    out += C_in[:, in_id] * np.log(np.abs(u_or_1))
    out += logs[:, out_id] + C_out[:, out_id] * ((K_out[out_id] - k) * math.log(2.0))
    out -= series[:, :n]
    out -= series[:, n:]
    out /= math.pi
    if special.size:
        out[:, ~np.isfinite(x)] = np.nan
    return out


def _distinct_columns(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct columns of counts, in order of first appearance, and each column's index among them."""
    index: dict = {}
    ids = [index.setdefault(col, len(index)) for col in zip(*counts.tolist())]
    return np.array(list(index), dtype=np.int64).reshape(-1, counts.shape[0]).T, np.array(ids, dtype=np.int32)


def _far_tables(sides, groups: np.ndarray, rows: int, inner: bool):
    """Series coefficients, scale exponents and ratio bounds of each inner or outer group.

    Column i of groups holds group i's counts per side: the first (inner)
    or last (outer) of each side's breakpoints by |b_j|.  With beta_j =
    b_j 2^-K, the inner tables hold A_m / m = sum_j c_j beta_j^m / m, K the
    least exponent with |b_j| < 2^K, and the outer ones B_m / m =
    sum_j c_j beta_j^-m / m, K the greatest with 2^K <= |b_j|; the tables
    are (terms, groups, rows).  The ratio bound is max |beta_j| (inner) or
    1 / min |beta_j| (outer), 0 for an empty group, whose K is
    -_NO_OCTAVE (inner) or _NO_OCTAVE (outer).  The outer groups also give
    sum_j c_j log|beta_j|, (rows, groups).
    """
    terms, count = _HILBERT_TERMS, groups.shape[1]
    table = np.zeros((terms, count, rows))
    scale, ratio = np.empty(count, dtype=np.int32), np.zeros(count)
    logs = np.zeros((rows, count))
    for s, counts in enumerate(groups.T.tolist()):
        if inner:
            group = [(a[:g], b[:g], cs[:, :g]) for (a, b, cs), g in zip(sides, counts) if g]
            edge = max((a[-1] for a, _, _ in group), default=0.0)
            K = math.frexp(edge)[1] if edge else -_NO_OCTAVE
        else:
            group = [(a[-g:], b[-g:], cs[:, -g:]) for (a, b, cs), g in zip(sides, counts) if g]
            edge = min((a[0] for a, _, _ in group), default=0.0)
            K = math.frexp(edge)[1] - 1 if edge else _NO_OCTAVE
        scale[s] = K
        if edge:
            ratio[s] = math.ldexp(edge, -K) if inner else 1.0 / math.ldexp(edge, -K)
        for _, b, cs in group:  # the negative side first, each in increasing |b_j|
            beta = np.ldexp(b, -K)
            powers = np.empty((terms, b.size))
            powers[:] = beta if inner else 1.0 / beta
            np.multiply.accumulate(powers, axis=0, out=powers)  # row m - 1 holds beta^(+-m)
            # each (row, m) sums its own products along the contiguous last axis
            table[:, s] += np.add.reduce(np.multiply(powers, cs[:, None, :]), axis=2).T
            if not inner:
                logs[:, s] += np.add.reduce(np.log(np.abs(beta)) * cs, axis=1)
    table /= np.arange(1.0, terms + 1.0)[:, None, None]
    return (table, scale, ratio) if inner else (table, scale, ratio, logs)


def _horner(table: np.ndarray, group: np.ndarray, w: np.ndarray, ratio: np.ndarray) -> np.ndarray:
    """sum_m table[m - 1, group] w^m at each point, for each row: (rows, points).

    A point's ratio is r = |w| ratio[group] <= 1/2, and it takes the terms
    up to the first m with r^m <= 2^-56, none where r = 0.  The points go
    in the order of decreasing terms, so the points that still take a term
    lead the order; each starts its Horner steps at its own last term.  Each
    step's coefficients are gathered by `take`, for as many steps at once as
    fill about _BLOCK_BYTES.
    """
    terms = np.abs(w)
    terms *= ratio[group]
    with np.errstate(divide="ignore"):  # r = 0 takes no term
        np.log(terms, out=terms)
    np.divide(-56.0 * math.log(2.0), terms, out=terms)
    # at most 56 terms: a stable argsort of the uint8 terms skipped is a radix sort
    skipped = (_HILBERT_TERMS - np.minimum(np.ceil(terms, out=terms), _HILBERT_TERMS)).astype(np.uint8)
    del terms
    order = np.argsort(skipped, kind="stable")
    # active[m]: how many points take term m, the first of the order
    active = np.cumsum(np.bincount(skipped, minlength=_HILBERT_TERMS + 1))[::-1].tolist()
    w, group = w[order, None], group[order]
    rows = table.shape[2]
    acc = np.zeros((order.size, rows))
    steps = max(1, _BLOCK_BYTES // (8 * rows * max(1, active[1])))
    coef = np.empty((steps, active[1], rows))
    top = max((m for m in range(_HILBERT_TERMS + 1) if active[m]), default=0)
    n = None
    for first in range(top, 0, -steps):
        last = max(first - steps, 0)
        most = active[last + 1]  # the most points of the chunk's steps take its lowest term
        gathered = table[last:first].take(group[:most], axis=1, out=coef[: first - last, :most], mode="clip")
        for m, coef_m in zip(range(first, last, -1), gathered[::-1]):
            if active[m] != n:  # the active prefix changes only where the terms do
                n = active[m]
                a, wa = acc[:n], w[:n]
            np.multiply(a, wa, out=a)
            np.add(a, coef_m[:n], out=a)
    acc *= w
    out = np.empty((rows, order.size))
    out[:, order] = acc.T
    return out


def _near_logs(sides, inner, outer, octaves: np.ndarray, at: np.ndarray, u: np.ndarray, rows: int) -> np.ndarray:
    """sum over the near breakpoints of c_j log|u - b_j 2^-k| at each point, for each row: (rows, points).

    inner and outer give the counts per side and octave.  Each octave's
    points go in blocks of about _BLOCK_BYTES through one buffer allocated
    per call; each value is one dot product per side, in numpy's order for
    that point and row alone.
    """
    out = np.zeros((rows, u.size))
    sizes = np.array([[a.size] for a, _, _ in sides])
    near = np.flatnonzero((sizes - inner - outer).sum(axis=0))
    if not near.size:
        return out
    by_octave = np.argsort(at.astype(np.uint16 if octaves.size < 1 << 16 else np.int64), kind="stable")
    starts = np.searchsorted(at[by_octave], np.arange(octaves.size + 1)).tolist()
    buf = np.empty(_BLOCK_BYTES // 8)
    for o in near.tolist():
        runs = [(b[i : b.size - j], cs[:, i : b.size - j]) for (_, b, cs), i, j in zip(sides, inner[:, o], outer[:, o])]
        split = runs[0][0].size
        beta = np.ldexp(np.concatenate([runs[0][0], runs[1][0]]), -int(octaves[o]))
        cn = np.concatenate([runs[0][1], runs[1][1]], axis=1)
        points = by_octave[starts[o] : starts[o + 1]]
        size = max(1, buf.size // beta.size)
        for lo in range(0, points.size, size):
            idx = points[lo : lo + size]
            d = _differences(u[idx], beta, buf[: idx.size * beta.size].reshape(idx.size, beta.size))
            np.log(np.abs(d, out=d), out=d)
            for r in range(rows):
                out[r, idx] = np.einsum("ij,j->i", d[:, :split], cn[r, :split]) + np.einsum(
                    "ij,j->i", d[:, split:], cn[r, split:]
                )
    return out


def hilbert_truncated(f: PiecewiseConstant1D, eps: float, grid) -> np.ndarray:
    """Integral of f(y)/(pi (x-y)) over |x - y| > eps, by clamped logs.

    With L(y) = max(log|x - y|, log eps), -dL/dy is 1/(x - y) where
    |x - y| > eps and 0 elsewhere, so a piece [a, b] of value v adds
    v (L(a) - L(b)) / pi.  No piece is clipped at x - eps or x + eps, which
    may round to x, and on a breakpoint L is log eps.  Each point scales its
    distances and eps by 2^-k, exactly, where 2^k is the octave of its
    farthest breakpoint: the far breakpoints' logs are near 0 and lose
    little to cancellation, and H_eps f(2^j x) of f(2^-j .) at 2^j eps has
    the bits of H_eps f(x) while every number stays normal.  An eps past
    every breakpoint gives exactly 0.  A non-finite x gives NaN.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    x = _as_points(grid)
    if f.is_zero:
        return np.where(np.isfinite(x), 0.0, np.nan)
    return _truncated_rows(*_one_row(f), [eps], x, sup=False)[0]


def _truncated_rows(bps: np.ndarray, values: np.ndarray, levels, x: np.ndarray, sup: bool = True) -> np.ndarray:
    """hilbert_truncated of each row of values on the breakpoints bps, at the levels eps.

    With sup the max over the levels of its absolute value (hilbert_maximal),
    without it the one level's value.  Each block of points forms the
    distances |x - b_j|, scales each point's row by 2^-k and takes the logs
    once.  A level clamps them from below at log(eps 2^-k) in a second
    buffer, takes the piece differences L(a) - L(b) in a third and yields
    them.  A sup row has the bits of max over the levels of
    |hilbert_truncated| of its function: fl(|g| / pi) is monotone in |g|,
    so dividing the sup of |g| once gives the sup of the divided values.
    """
    pieces = values.shape[1]

    def kernel_for(rows):
        logs, clamped, diffs = np.empty((rows, bps.size)), np.empty((rows, bps.size)), np.empty((rows, pieces))

        def blocks(xb):
            d, ell, t = logs[: xb.size], clamped[: xb.size], diffs[: xb.size]
            np.abs(_differences(xb, bps, d), out=d)
            # 2^-k takes the farthest breakpoint, the first or the last, into [1/2, 1)
            far = np.maximum(d[:, 0], d[:, -1])
            k = np.frexp(far)[1]
            np.ldexp(d, -k[:, None], out=d)
            with np.errstate(divide="ignore"):  # log 0 = -inf on a breakpoint, which a floor lifts
                np.log(d, out=d)
            for eps in levels:
                # an eps past the farthest breakpoint counts as its distance: every L is equal, every piece adds 0
                floor = np.ldexp(np.minimum(float(eps), far), -k)
                under = floor == 0.0
                with np.errstate(divide="ignore", invalid="ignore"):  # log 0 where eps 2^-k underflows; inf - inf at x = +-inf
                    np.log(floor, out=floor)
                    if under.any():
                        # eps 2^-k is below the least subnormal: log eps - k log 2 keeps its floor finite
                        floor[under] = math.log(eps) - k[under] * math.log(2.0)
                    np.maximum(d, floor[:, None], out=ell)
                    np.subtract(ell[:, :-1], ell[:, 1:], out=t)
                yield t

        return blocks

    return _rowwise(kernel_for, x, pieces, values, sup) / math.pi


def geometric_schedule(lo: float, hi: float) -> np.ndarray:
    """Ascending levels lo * 2^(i/4), from lo up to the first one >= hi.

    Level i is ldexp(lo * 2^(j/4), i // 4) with j = i mod 4, so octaves of lo
    are exact and scaling lo and hi by 2^k scales every level by 2^k exactly."""
    if not 0 < lo <= hi:
        raise ValueError("need 0 < lo <= hi")
    i = np.arange(int(4 * (math.log2(hi) - math.log2(lo))) + 3)  # 2 spare levels for rounding
    levels = np.ldexp(lo * _QUARTER_OCTAVES[i % 4], i // 4)
    return levels[: np.searchsorted(levels, hi) + 1]


def refine_schedule(schedule: np.ndarray) -> np.ndarray:
    """Insert geometric midpoints, doubling the schedule's density."""
    s = np.asarray(schedule, dtype=float)
    if s.size < 2:
        return s
    mids = np.sqrt(s[:-1] * s[1:])
    return np.sort(np.concatenate([s, mids]))


def _levels(schedule, name: str) -> np.ndarray:
    """A sup operator's distinct levels, ascending: a sup ignores their order and repeats."""
    levels = _sorted_unique(np.asarray(schedule, dtype=float))
    if not (levels.size and np.all(levels > 0)):  # NaN fails > 0 too
        raise ValueError(f"{name} schedule must be nonempty and positive")
    return levels


def hilbert_maximal(f: PiecewiseConstant1D, eps_schedule, grid) -> np.ndarray:
    """sup over the schedule's levels, in any order, of |truncated Hilbert transform|."""
    levels = _levels(eps_schedule, "eps")
    x = _as_points(grid)
    if f.is_zero:
        return np.where(np.isfinite(x), 0.0, np.nan)
    return _truncated_rows(*_one_row(f), levels, x)[0]


def modulate(values, x, N: float) -> np.ndarray:
    """Pointwise multiplication by e^{2 pi i N x}; norm-preserving in every L^p."""
    return np.asarray(values) * np.exp(2j * math.pi * N * np.asarray(x, dtype=float))


def dirichlet_sn(f: PiecewiseConstant1D, N: float, grid) -> np.ndarray:
    """Frequency cutoff of f to [-N, N], exact through the sine integral.

    S_N f(x) = (1/pi) sum_i v_i (Si(2 pi N (x - b_i)) - Si(2 pi N (x - b_i+1))).
    Entire in x, so breakpoints are admissible abscissae.

    S_N f is entire of exponential type 2 pi N, so on the span
    [c - h, c + h] of the finite points a Chebyshev interpolant of low
    degree meets it to 2^-53 sum_j |c_j| over the jumps c_j of f.  The
    least such degree n comes from an explicit bound (_sn_degree), before
    any value is taken.  Where (n + 1)(points + 4 breakpoints) <= points x
    breakpoints (_sn_nodes), S_N f is taken by the direct kernel at the
    n + 1 Chebyshev points of the second kind and interpolated at the
    finite points by the barycentric formula (_sn_interpolated); a point
    on a node takes that node's value, and a non-finite point its value
    from the direct kernel.  Every other call is the direct kernel
    (_sn_rows) at every point.  A routed value depends on the span of its
    grid, not on its point alone: within the bound plus rounding it is the
    direct kernel's value, not its bits.  Scaling f's breakpoints and the
    grid by 2^k and N by 2^-k keeps the bits while every number stays normal.
    """
    if not N > 0:
        raise ValueError(f"N must be positive, got {N}")
    x = _as_points(grid)
    if f.is_zero:
        return np.where(np.isnan(x), np.nan, 0.0)
    bps, values = _one_row(f)
    finite = np.isfinite(x)
    xf = x if finite.all() else x[finite]  # no copy of a finite grid
    route = _sn_nodes(bps, values[0], N, xf)
    if route is None:
        return _sn_rows(bps, values, [N], x, sup=False)[0]
    out = np.empty(x.size)
    out[finite] = _sn_interpolated(bps, values, N, xf, *route)
    if xf.size < x.size:
        out[~finite] = _sn_rows(bps, values, [N], x[~finite], sup=False)[0]
    return out


#: log rho of the Bernstein ellipses _sn_degree tries, 2^(i/16) from 2^-8 to
#: 2^9: below, rho - 1 < 0.004 needs degrees past any routed call; above,
#: cosh(log rho) nears the float range
_LOG_RHO = np.exp2(np.arange(-128, 145) / 16.0)


def _sn_degree(bps: np.ndarray, c: np.ndarray, N: float, center: float, half: float) -> float:
    """The least degree n whose Chebyshev interpolant of S_N f on [center - half, center + half] is within 2^-53 sum |c_j|.

    In z = (x - center) / half, S_N f = (1/pi) sum_j c_j Si(sigma (center -
    b_j + half z)), sigma = 2 pi N, is entire.  On the Bernstein ellipse
    E_rho, whose semi-axes are a = cosh(log rho) and b = sinh(log rho),
    |z| <= a and |Im z| <= b; with |Si(w)| <= |w| e^|Im w| this gives
    |S_N f| <= M_rho = (sigma / pi) sum_j |c_j| (half a + |center - b_j|) e^(sigma half b).
    The interpolant in the n + 1 Chebyshev points of the second kind is
    then within 4 M_rho rho^-n / (rho - 1) of S_N f on [-1, 1] (Trefethen,
    Approximation Theory and Approximation Practice, Thm 8.2).  The result
    is the least n >= 1 for which one rho of _LOG_RHO puts this at most
    2^-53 sum_j |c_j|, and inf (or NaN) where none does.
    """
    w = np.abs(c)
    w /= w.max()  # the bound is linear in the |c_j|: scaled, they cannot overflow
    spread = float(w @ np.abs(center - bps)) / float(w.sum())  # sum |c_j| |center - b_j| / sum |c_j|
    sigma = 2.0 * math.pi * N
    with np.errstate(over="ignore", invalid="ignore"):
        log_bound = (
            math.log(4.0 * sigma / math.pi)
            + np.log(half * np.cosh(_LOG_RHO) + spread)
            + sigma * half * np.sinh(_LOG_RHO)
            - np.log(np.expm1(_LOG_RHO))
        )
        # np.maximum keeps a NaN, which the dispatch rule then rejects
        return float(np.maximum(np.min(np.ceil((log_bound + 53.0 * math.log(2.0)) / _LOG_RHO)), 1.0))


def _sn_nodes(bps: np.ndarray, values: np.ndarray, N: float, x: np.ndarray) -> tuple | None:
    """(center, half, n) of the interpolation route for S_N f at the finite points x, or None for the direct kernel.

    The route takes (n + 1) x breakpoints Si arguments at the nodes and
    points x (n + 1) barycentric terms, the direct kernel points x
    breakpoints Si arguments.  Weighing a barycentric term as a quarter of
    an Si argument, which it costs at most (about 2.7 ns against 14-40 ns),
    the route runs where its cost is at most a quarter of the direct
    kernel's, which leaves room for its fixed cost of about 0.1 ms:
    (n + 1)(points + 4 breakpoints) <= points x breakpoints, that is
    n + 1 <= 1 / (1/breakpoints + 4/points), below both breakpoints and
    points / 4.  Every measured shape that met the rule ran in at most
    0.67 of the direct time (README, "Performance and memory").
    """
    points, size = x.size, bps.size
    if not 2 * (points + 4 * size) <= points * size:  # not even n = 1 meets the rule
        return None
    lo, hi = float(x.min()), float(x.max())
    center, half = 0.5 * lo + 0.5 * hi, 0.5 * hi - 0.5 * lo
    if not half > 0.0:
        return None
    n = _sn_degree(bps, np.diff(values, prepend=0.0, append=0.0), N, center, half)
    if not (n + 1) * (points + 4 * size) <= points * size:  # False for an infinite or NaN n
        return None
    return center, half, int(n)


def _sn_interpolated(bps: np.ndarray, values: np.ndarray, N: float, x: np.ndarray, center: float, half: float, n: int):
    """S_N f at the finite points x by its interpolant in the n + 1 Chebyshev points of [center - half, center + half].

    The nodes are z_k = sin(pi (2k - n) / 2n), ascending and exactly odd
    (z_(n-k) = -z_k), and S_N f is taken by _sn_rows at center + half z_k.
    Each point maps to z = (x - center) / half and takes the barycentric
    formula of the second kind, sum_k q_k S_k / sum_k q_k with
    q_k = w_k / (z - z_k), w_k = (-1)^k halved at both ends (Berrut and
    Trefethen, "Barycentric Lagrange Interpolation", SIAM Review 2004); a
    point whose sums are not finite lies on a node, or within an underflow
    of one, and takes that node's value.  The data are taken at the
    rounded nodes and the formula in z with the exact z_k, so rounding a
    node costs what rounding a point costs the direct kernel.  The sums are
    _rowwise's gemvs with the rows S_k and 1, over 64-aligned row blocks
    of about _BLOCK_BYTES in one buffer.
    """
    k = np.arange(n + 1)
    z = np.sin((0.5 * math.pi) * (2 * k - n) / n)
    s = _sn_rows(bps, values, [N], center + half * z, sup=False)[0]
    w = np.where(k % 2, -1.0, 1.0)
    w[[0, -1]] *= 0.5

    def kernel_for(rows):
        buf = np.empty((rows, n + 1))

        def blocks(xb):
            yield np.divide(w, _differences((xb - center) / half, z, buf[: xb.size]), out=buf[: xb.size])

        return blocks

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # a point on a node, mended below
        num, den = _rowwise(kernel_for, x, n + 1, np.stack([s, np.ones(n + 1)]), sup=False)
        out = num / den
    on_node = np.flatnonzero(~np.isfinite(out))
    if on_node.size:
        out[on_node] = s[nearest_breakpoint((x[on_node] - center) / half, z)[0]]
    return out


def _sn_rows(bps: np.ndarray, values: np.ndarray, levels, x: np.ndarray, sup: bool = True) -> np.ndarray:
    """dirichlet_sn of each row of values on the breakpoints bps, at the levels N.

    With sup the max over the levels of its absolute value (carleson),
    without it the one level's value: (1/pi) sum_j c_j Si(2 pi N (x - b_j))
    over the jumps c_j of f at b_j.  A level forms x - b_j in the block's
    one buffer, scales them there, takes Si and yields it: one subtraction
    per level costs less than a second buffer of the block's size.  A sup
    row has the bits of max over the levels of |dirichlet_sn| of its
    function, as in _truncated_rows.
    """
    c = np.diff(values, prepend=0.0, append=0.0)
    scales = [2.0 * math.pi * float(N) for N in levels]

    def kernel_for(rows):
        phases = np.empty((rows, bps.size))

        def blocks(xb):
            for scale in scales:
                t = _differences(xb, bps, phases[: xb.size])
                with np.errstate(over="ignore"):  # an overflowing phase is exact: Si(+-inf) = +-pi/2
                    t *= scale
                yield sine_integral(t)

        return blocks

    return _rowwise(kernel_for, x, bps.size, c, sup) / math.pi


#: (|t|, k): from |t| on, k terms of Si's asymptotic series leave a remainder
#: below 2^-64 / |t|, under the size 1/|t| of R; the least power of 2 for each k
_R_BANDS = tuple(
    (next(2.0**e for e in range(64) if _asymptotic_remainder(k, 2.0**e) * 2**e < _FAR_BOUND), k)
    for k in range(_FAR_TERMS, 1, -1)
)


def _si_minus_limit(v, turns, m0: int, terms: int, u, p, q) -> np.ndarray:
    """R(t) = Si(t) - sgn(t) pi/2 = -cos(t) P(u)/t - sin(t) Q(u) u, u = 1/t^2, for |t| >= 44.

    Node-major: t = (pi/2) (m + a_k) in row k and column m - m0.  v is 1/t,
    and turns[k, i] is -cos t for m = i mod 4, scaled by the factor that
    scales R (-sin t is the entry for m - 1); the rows repeat with period 4
    and are at least 3 columns longer than v.  u, p and q are buffers of v's
    shape; R is written over p.
    """
    n = v.shape[1]
    np.multiply(v, v, out=u)
    _asymptotic_series(u, terms, p, q)
    p *= v
    p *= turns[:, m0 % 4 : m0 % 4 + n]
    q *= u
    q *= turns[:, (m0 - 1) % 4 : (m0 - 1) % 4 + n]
    p += q
    return p


def _r_table(a: np.ndarray, turns: np.ndarray, m0: int, out: np.ndarray, work) -> None:
    """R(t) / pi at t = (pi/2) (m + a_k), m = m0, m0 + 1, ..., into the (nodes x m) out.

    turns are _si_minus_limit's, scaled by -1/pi, and work holds three
    (nodes x width) buffers; out is filled width columns at a time.

    Each 64-aligned block of m takes the fewest terms of Si's asymptotic
    series its least |t| needs (_R_BANDS); a block with an |t| < 1024 takes
    22 terms on t = (pi/2) fl(m + a_k), and there |t| < 44 goes through
    sine_integral.  Every other block takes 1/t = (2/pi) / fl(m + a_k).  So
    each value depends on m, a_k and the scaled turns alone.
    """
    m1 = m0 + out.shape[1]
    # each block's first m, as floats: m0 may be far beyond int64 (|n_j| up to 2^1000)
    blocks = 64.0 * (m0 // 64) + 64.0 * np.arange((m1 - 1) // 64 - m0 // 64 + 1)
    least = 0.5 * math.pi * np.maximum(np.maximum(blocks - 1.0, -64.0 - blocks), 0.0)
    band = np.searchsorted([t for t, _ in _R_BANDS], least, side="right")
    changes = (np.flatnonzero(np.diff(band)) + 1).tolist()
    starts = [m0, *(64 * (m0 // 64 + i) for i in changes)]
    width = work[0].shape[1]
    for start, stop, b in zip(starts, starts[1:] + [m1], band[[0, *changes]].tolist()):
        for lo in range(start, stop, width):
            hi = min(lo + width, stop)
            v, u, q = (w[:, : hi - lo] for w in work)
            p = out[:, lo - m0 : hi - m0]
            np.add(float(lo) + np.arange(hi - lo, dtype=float), a[:, None], out=v)  # fl(m + a_k)
            if b:
                np.divide(2.0 / math.pi, v, out=v)
                _si_minus_limit(v, turns, lo, _R_BANDS[b - 1][1], u, p, q)
                continue
            t = v * (0.5 * math.pi)
            with np.errstate(all="ignore"):  # the |t| < 44 this spoils are replaced next
                _si_minus_limit(np.divide(1.0, t, out=v), turns, lo, _ASYMPTOTIC_TERMS, u, p, q)
            small = np.abs(t) < _ASYMPTOTIC_CUTOFF
            ts = t[small]
            p[small] = (sine_integral(ts) - np.sign(ts) * (0.5 * math.pi)) * (1.0 / math.pi)


def _sn_error_on_lattice(
    bps, values, N: float, first: int, panels: int, nodes: np.ndarray, width: int | None = None
) -> Iterator[tuple[int, np.ndarray]]:
    """S_N f - f for each row f at x = (l + (1 + t_k)/2) / (4N), l = first, ..., first + panels - 1.

    Row i of bps and of values gives the breakpoints and values of one f
    (rows may differ in length), and t_k are the nodes, in (-1, 1): the
    points are nodes in the cells of width h = 1/(4N) of the lattice hZ,
    taken exactly.  A generator: per
    chunk of at most `width` cells [lo, hi), by default _BLOCK_BYTES // (8
    nodes.size), it yields (lo, err), err[i, k, l - lo] the value of row i
    at node k of cell l.  err is node-major, and the next chunk overwrites it.

    The value is (1/pi) sum_j c_j R(t_j) over the jumps c_j at b_j, with
    t_j = 2 pi N (x - b_j) and R(t) = Si(t) - sgn(t) pi/2.  The jumps sum
    to 0, so the limits sgn(t_j) pi/2 sum to pi f(x) and are never formed
    and then cancelled.  Breakpoints past the points count like the others,
    and a point on a breakpoint gets R(0) = 0 there, so f's two-sided mean.

    With 4N b_j = n_j + d_j exactly, n_j an integer and 0 <= d_j < 1, every
    phase is t_j = (pi/2) (m + a_k), m = l - n_j and a_k = (1 + t_k)/2 - d_j.
    So R(t_j) / pi is one table over (m, k) per offset d_j, shared by every
    breakpoint of every row with that offset.  The jumps of all rows go by
    offset, then by window [lo - n_j, hi - n_j), ascending, and each row
    sums its c_j table[window_j] in the order of its own (d_j, -n_j).  The
    call holds one table, of two chunks: a window it does not hold starts a
    span, which the next windows of its offset join while they overlap or
    touch it and it stays at most two chunks wide.  A span that starts
    inside the held one of its offset (the next chunk's windows overlap
    this chunk's) shifts the columns they share to the front and computes
    only the rest.
    cos t_j and sin t_j are +-cos or +-sin of (pi/2) a_k, by m mod 4, and no
    trig runs per point (see _r_table for the series).

    Rounding: m + a_k is rounded once, and a value depends on m, k and d_j
    alone, not on `first`, the chunk or the other breakpoints, and a row's
    sum depends on that row alone.  The table is scaled by fl(-1/pi)
    (fl(1/pi) where |t| < 44 goes through sine_integral), so a term of a
    jump c_j that is a power of 2 (+-1 included) has the bits of the
    per-breakpoint form, whose scale is fl(-c_j/pi); any other c_j is off by
    at most one rounding per term.
    """
    width = width or _BLOCK_BYTES // (8 * nodes.size)
    # (1 + t_k)/2 = s_k / 2e, where e is the largest denominator of a node, a power of 2
    e = max(t.as_integer_ratio()[1] for t in nodes.tolist())
    s = [int(t * e) + e for t in nodes.tolist()]
    num_n, den_n = (4.0 * N).as_integer_ratio()
    jumps, phases = [], {}  # (row, n_j, c_j, d_j) in breakpoint order; d_j -> (a, turns)
    for row, (b_row, v_row) in enumerate(zip(bps, values)):
        c_row = np.diff(np.asarray(v_row, dtype=float), prepend=0.0, append=0.0)
        for b, cj in zip(np.asarray(b_row, dtype=float).tolist(), c_row.tolist()):
            num, den = b.as_integer_ratio()
            n, r = divmod(num * num_n, den * den_n)  # 4N b_j = n_j + r / (den den_n)
            if cj == 0.0 or abs(n) > 2**1000:  # |R(t_j)| < 2^-999 there
                continue
            g = math.gcd(r, den * den_n)
            d = r // g, den * den_n // g  # d_j in lowest terms, so equal offsets get one key
            jumps.append((row, n, cj, d))
            if d not in phases:
                # a_k = A_k / D; each float below is one correctly rounded int division
                A, D = [sk * d[1] - 2 * e * d[0] for sk in s], 2 * e * d[1]
                cos_a = [math.sin(0.5 * math.pi * ((D - abs(ak)) / D)) for ak in A]
                sin_a = [math.sin(0.5 * math.pi * (abs(ak) / D)) * (1 if ak >= 0 else -1) for ak in A]
                # -cos((pi/2) (m + a)) / pi for m mod 4 = 0, 1, 2, 3; -sin is the entry for m - 1
                turns = np.array([cos_a, [-x for x in sin_a], [-x for x in cos_a], sin_a]) * (-1.0 / math.pi)
                phases[d] = np.array([ak / D for ak in A]), np.tile(turns.T, width // 4 + 2)
    jumps.sort(key=lambda jump: (jump[3], -jump[1]))  # stable: a row keeps its own order
    k = nodes.size
    err = np.empty((len(bps), k, width))
    work = [np.empty((k, width)) for _ in range(3)]
    table, held = np.empty((k, 2 * width)), (None, 0, 0)  # table[:, : m1 - m0] is R over [m0, m1) of offset d
    for lo in range(first, first + panels, width):
        cells = min(width, first + panels - lo)
        out = err[:, :, :cells]
        out.fill(0.0)
        for i, (row, n, cj, d) in enumerate(jumps):
            start = lo - n
            hd, m0, m1 = held
            if not (hd == d and m0 <= start and start + cells <= m1):
                # a new span from this window: the next windows of offset d, ascending, join
                # it while they overlap or touch it and it stays at most two chunks wide
                stop = start + cells
                for _, n_next, _, d_next in jumps[i + 1 :]:
                    if d_next != d or lo - n_next > stop or lo - n_next + cells - start > 2 * width:
                        break
                    stop = lo - n_next + cells
                # the columns it shares with the held span move to the front: they depend on m alone
                shared = m1 - start if hd == d and m0 <= start < m1 else 0
                for r in table:  # row by row, so the overlapping copy needs no temporary
                    r[:shared] = r[start - m0 : start - m0 + shared]
                _r_table(*phases[d], start + shared, table[:, shared : stop - start], work)
                held, m0 = (d, start, stop), start
            window = table[:, start - m0 : start - m0 + cells]
            if cj != 1.0:  # into a work buffer, which _r_table is done with
                window = np.multiply(window, cj, out=work[0][:, :cells])
            out[row] += window
        yield lo, out


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
    if f.is_zero:
        return np.where(np.isnan(x), np.nan, 0.0)
    bps, row = _one_row(f)
    values = _sn_rows(bps, row, sched, x)[0]
    if refine_tolerance is None:
        return values
    for _ in range(max_refinements):
        finer = refine_schedule(sched)
        # np.setdiff1d(finer, sched): searchsorted finds the one candidate in the sorted sched
        new = _sorted_unique(finer)
        new = new[sched[np.minimum(np.searchsorted(sched, new), sched.size - 1)] != new]
        refined = np.maximum(values, _sn_rows(bps, row, new, x)[0])
        # fmax passes over a NaN point's NaN move, so it cannot hold the loop open
        delta = float(np.fmax.reduce(refined - values, initial=0.0))
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
    from scipy import ndimage  # no claim uses hl_maximal; kept out of `import blockspaces`

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
    """Continuum uncentered maximal function of piecewise-constant f.

    Mf(x) = max(|f|(x), max over breakpoints b_j != x of |C_j - M(x)| / |b_j - x|),
    with C_j the mass of |f| up to b_j and M(x) the mass up to x.  The
    average over an interval containing x is a weighted mean of its averages
    left and right of x (the mediant inequality), and each of those is
    monotone in its far end across a piece, so the intervals from x to a
    breakpoint reach the supremum.  A non-finite x gives NaN.

    Each average is a difference of two cumulative masses divided by its
    span, so it is not exact: at the piece midpoints of a 1024-piece
    function its relative error reaches about 1.2e-9, and within a few ulps
    of a breakpoint, where the mass rounds to as much as itself, it can be
    O(1) (see the FOUND on `maximal_1d_exact` in CHANGES.md).

    Points go in row blocks whose points x breakpoints temporaries take
    about _BLOCK_BYTES each; a point's value does not depend on the others.
    """
    x = _as_points(grid)
    if f.is_zero:
        return np.where(np.isfinite(x), 0.0, np.nan)
    g = f.abs()
    bps = np.asarray(g.breakpoints, dtype=float)
    v = np.asarray(g.values, dtype=float)
    cum = np.concatenate([[0.0], np.cumsum(v * np.diff(bps))])
    out = np.full_like(x, np.nan)  # no interval contains a non-finite x
    finite = np.flatnonzero(np.isfinite(x))
    rows = max(1, _BLOCK_BYTES // (8 * bps.size))
    for lo in range(0, finite.size, rows):
        idx = finite[lo : lo + rows]
        xb = x[idx]
        t = np.clip(xb, bps[0], bps[-1])
        j = np.clip(np.searchsorted(bps, t, side="right") - 1, 0, v.size - 1)
        span = np.abs(bps - xb[:, None])
        avg = np.abs(cum - (cum[j] + v[j] * (t - bps[j]))[:, None])
        np.divide(avg, span, out=avg, where=span > 0)  # b_j = x has M(x) = C_j: its slot keeps 0
        out[idx] = np.maximum(avg.max(axis=1), g(xb))
    return out
