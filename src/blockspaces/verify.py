"""Numerical harnesses for boundedness, sharpness, and convergence claims.

Each harness turns one qualitative claim into measurements with explicit
pass/fail tolerances and returns a VerificationReport.  Conventions:

- "constant independent of the block/function" is operationalized as a
  max/min ratio across scale sweeps or seeds: < 1.05 for exact-formula
  operators (where dilation covariance makes the ratio 1 up to rounding),
  < 2.0 for seed stability.
- divergence is detected by fitting growth against log or power laws on
  geometric domain sweeps, never by comparing against a fixed big number.
- parameter points violating a claim's hypotheses yield verdicts flagged
  out_of_hypothesis with passed=None: observed behavior is recorded, but no
  pass is ever granted outside the hypotheses.

Each harness is the fixed experiment its claim names: the test functions,
parameter points, sweeps and resolutions are constants of this module, and a
report depends only on the seed it is given.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .blocks import (
    Decomposition,
    _nonhomogeneous_cost,
    decompose_nonhomogeneous,
    homogeneous_total_cost,
    make_canonical_block,
    rl_norm_upper_bound,
    split_pieces,
)
from .norms import weighted_lp_norm
from .params import _K_RANGE, THEOREM_IDS, DomainEvaluationError, WeightParams
from .piecewise import PiecewiseConstant1D, _sorted_unique
from .quadrature import (
    _gl_rule,
    _grading,
    _node_rows,
    oscillation_edges,
    panel_nodes,
    shell_grid,
    weighted_norm_from_samples,
    weighted_power_terms,
)
from .operators import (
    _BLOCK_BYTES,
    _hilbert_rows,
    _sn_error_on_lattice,
    _sn_rows,
    _truncated_rows,
    carleson,
    dirichlet_sn,
    geometric_schedule,
    hilbert,
    maximal_1d_exact,
    nearest_breakpoint,
    pv_exclusion_radius,
)
from .sine_integral import _auxiliary_taylor

EXACT_ROUTE_RATIO = 1.05
SEED_STABILITY_RATIO = 2.0


@dataclass(frozen=True)
class Verdict:
    criterion: str
    measurement: str
    tolerance: float
    value: float
    passed: bool | None
    out_of_hypothesis: bool = False
    note: str = ""


@dataclass(frozen=True)
class VerificationReport:
    theorem: str
    params: dict
    measurements: dict
    verdicts: tuple[Verdict, ...]
    provenance: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """True when every in-hypothesis verdict passes (vacuously true if none)."""
        checks = [v.passed for v in self.verdicts if not v.out_of_hypothesis]
        return all(checks) if checks else True

    @property
    def out_of_hypothesis(self) -> bool:
        return any(v.out_of_hypothesis for v in self.verdicts)


def _below(
    criterion: str,
    measurement: str,
    tolerance: float,
    value: float,
    note: str = "",
    in_hypothesis: bool = True,
    holds: bool = True,
) -> Verdict:
    """Verdict that passes when value < tolerance and the side condition holds;
    an abstention outside the hypotheses."""
    passed = bool(value < tolerance and holds) if in_hypothesis else None
    return Verdict(criterion, measurement, tolerance, value, passed, not in_hypothesis, note)


def _eventually_decreasing(criterion: str, measurement: str, errs: np.ndarray) -> Verdict:
    """Verdict that passes when errs peaks in its first half and strictly decreases after."""
    i0, half = int(np.argmax(errs)), errs.size // 2
    passed = i0 <= half and bool(np.all(np.diff(errs[i0:]) < 0.0))
    return Verdict(criterion, measurement, float(half), float(i0), passed)


def _curve(xs, ys) -> list:
    return [[float(a), float(b)] for a, b in zip(xs, ys)]


# ---------------------------------------------------------------------------
# scale-uniformity of operator norms on canonical blocks


#: dyadic shells (2^j_min, 2^(j_max+1)] of the grid the covariant operators are measured on
_BLOCK_SHELLS = (-40, 40)
#: Gauss-Legendre nodes per shell of that grid
_SHELL_NODES = 24
#: (lo, hi) of hilbert_maximal's truncation levels at scale 0, dilated by 2^k at scale k
_EPS_SCHEDULE = (2.0 ** -6, 4.0)
#: (lo, hi) of carleson's frequencies at scale 0, dilated by 2^-k at scale k
_N_SCHEDULE = (2.0 ** -4, 2.0 ** 6)
#: Gauss-Legendre nodes in each panel of e(N) and of the dirichlet_sn leg
_E_NODES = 4
#: the dirichlet_sn leg's cutoff N, the panels per lattice cell 1/(4N), and its cells
#: per lattice chunk: the blocks' breakpoints (|4 b_j| <= 256) shift a chunk's
#: windows by at most 512 cells, so each offset's windows share one Si table
_SN_N, _SN_SUB, _SN_CHUNK = 1.0, 2, 1024
#: dirichlet_sn's absolute panels: Gauss-Legendre nodes on panels of a spacing out to x_max
_SN_PANELS = {"x_max": 1024.0, "spacing": 1 / (4 * _SN_N * _SN_SUB), "nodes": _E_NODES}


def _sn_leg_integrals(blocks, pairs) -> np.ndarray:
    """The dirichlet_sn leg's integrals of |S_1 f|^p |x|^alpha on _SN_PANELS, per block f and (p, alpha)."""
    return _partial_sum_integrals(blocks, pairs, _SN_N, _SN_PANELS["x_max"], _SN_SUB, False, _SN_CHUNK)


#: each leg's parity on even blocks: on the symmetric shell grid Hf is odd and S_N f even
_MIRRORED_LEGS = {"hilbert": -1.0, "carleson": 1.0}


def _block_values(op: str, blocks):
    """op applied to each (block f, scale k) of blocks: yields (values, nodes, weights) in order.

    hilbert, hilbert_maximal, carleson and hl_maximal (by maximal_1d_exact)
    are measured on quadrature grids and schedules scaled by 2^k, so their
    scale invariance is isolated from discretization choices.  (dirichlet_sn
    at N = 1 is measured on an absolute oscillation-resolving grid, because
    no scaled grid is faithful to a fixed-frequency cutoff, and integrated
    without samples by _sn_leg_integrals.)

    Scaling the grid, the breakpoints and eps by 2^k and N by 2^-k leaves
    every S_N phase, H_eps's octave-scaled distance and eps, and hilbert's
    scaled point, group and series bit for bit unchanged.  So hilbert,
    hilbert_maximal and carleson pull every block back to scale 0 with
    ldexp(., -k) and run one family call on the scale-0 grid (and schedule)
    with all blocks' values as rows; each row has the bits of its own
    scale's call.  The maximal leg runs once per block.

    The legs of _MIRRORED_LEGS take only the grid's positive half, its
    second half, and give the negative half as parity times those values
    reversed.  Their blocks must be even, which the canonical blocks are.
    hilbert sums each sign of b_j on its own, so Hf is odd bit for bit on
    an even f (see _hilbert_rows).  For S_N, x - b_j at -x is
    -(x - b_{m-1-j}) exactly and Si is odd, so the jump sum at -x has the
    terms at x in reverse order, and the 4-term sums of the 4-breakpoint
    blocks give the same bits in either order.  H* and the maximal leg
    take the whole grid.  H*'s clamped-log terms at -x are those at x,
    negated and reversed, bit for bit; but the 3-term dot product with the
    values (v, 0, v) rounds the two orders apart where v is not a power of
    2, as at every odd k.
    """
    x0, w0 = shell_grid(*_BLOCK_SHELLS, _SHELL_NODES)
    parity, x = _MIRRORED_LEGS.get(op), x0
    if parity is not None:
        for f, _ in blocks:
            if f.breakpoints != tuple(-b for b in f.breakpoints[::-1]) or f.values != f.values[::-1]:
                raise ValueError(f"{op} mirrors its values on even blocks, got a block that is not even")
        x = x0[x0.size // 2 :]
    families = {
        "carleson": lambda bps, values: _sn_rows(bps, values, geometric_schedule(*_N_SCHEDULE), x),
        "hilbert_maximal": lambda bps, values: _truncated_rows(bps, values, geometric_schedule(*_EPS_SCHEDULE), x),
        "hilbert": lambda bps, values: _hilbert_rows(bps, values, x),
    }
    if op in families:
        pulled = [np.ldexp(f.breakpoints, -k) for f, k in blocks]
        bps, values = pulled[0], np.array([f.values for f, _ in blocks])
        if any(not np.array_equal(other, bps) for other in pulled):
            raise ValueError(f"{op} blocks must be dilations of one another by powers of 2")
        rows = families[op](bps, values)
    else:
        rows = (maximal_1d_exact(f, np.ldexp(x, k)) for f, k in blocks)
    for row, (_, k) in zip(rows, blocks):
        if parity is not None:
            row = np.concatenate([parity * row[::-1], row])
        yield row, np.ldexp(x0, k), np.ldexp(w0, k)  # scaled by 2^k, bit-exactly


#: block scales whose 2^k-scaled shell grid keeps finite, normal nodes: its
#: edges 2^(j_min+k) and 2^(j_max+1+k) stay within the normal exponents -1022 .. 1023
_BLOCK_SCALES = range(-1022 - _BLOCK_SHELLS[0], 1023 - _BLOCK_SHELLS[1])


def _block_norms(op: str, grid, ks) -> list[list[float]]:
    """Weighted norms of op on the indicator block at each scale of ks, one list per point of grid.

    op is applied once per distinct (block, scale), all of them in one
    `_block_values` call, and each result is weighed at every point whose
    block it is.  dirichlet_sn's integrals come from one _sn_leg_integrals
    call over the distinct blocks and (p, alpha) of grid.
    """
    outside = [k for k in ks if k not in _BLOCK_SCALES]
    if outside:
        raise ValueError(
            f"block-scale sweep wants scales {_BLOCK_SCALES[0]} <= k <= {_BLOCK_SCALES[-1]}, "
            "where the nodes of the 2^k-scaled quadrature grid stay finite and normal, "
            f"got k={outside[0]}"
        )
    norms = [[0.0] * len(ks) for _ in grid]
    weighed: dict = {}  # (block, k) -> (point, its norms, index into them) of each weighing
    for i, k in enumerate(ks):
        for params, row in zip(grid, norms):
            block = make_canonical_block(params, k).data
            weighed.setdefault((block, k), []).append((params, row, i))
    if op == "dirichlet_sn":
        pairs = list(dict.fromkeys((params.p, params.alpha) for params in grid))
        integrals = _sn_leg_integrals([block for block, _ in weighed], pairs)
        for totals, targets in zip(integrals, weighed.values()):
            for params, row, i in targets:
                row[i] = float(totals[pairs.index((params.p, params.alpha))]) ** (1.0 / params.p)
        return norms
    for samples, targets in zip(_block_values(op, list(weighed)), weighed.values()):
        for params, row, i in targets:
            row[i] = weighted_norm_from_samples(*samples, params.p, params.alpha)
    return norms


_BLOCK_GRID = (WeightParams(1, 1.0, 2.0, -0.5), WeightParams(1, 0.5, 2.0, -0.75))
_BLOCK_OPS = ("hilbert", "hilbert_maximal", "carleson", "dirichlet_sn", "hl_maximal")


def _uniform_block_bound(seed: int) -> VerificationReport:
    """Max/min ratio of weighted operator norms of indicator blocks over scales k = -6..6.

    hilbert, hilbert_maximal, carleson and dirichlet_sn (at N = 1) are
    measured at (p, s, alpha) = (1, 2, -1/2) and (1/2, 2, -3/4), hl_maximal
    at the first point only, each by one `_block_norms` call over all
    scales and points.  Parameters outside the main range give an
    out-of-hypothesis verdict; the seed is only echoed.
    """
    ks = list(range(_K_RANGE[0], _K_RANGE[1] + 1))
    sub, measurements, verdicts = [], {}, []
    for op in _BLOCK_OPS:
        # hl_maximal (the key still names the Hardy-Littlewood operator it
        # measures) keeps its one point: benchmark references compare each
        # claim's verdict list, so a new key or verdict would not match them
        grid = _BLOCK_GRID[:1] if op == "hl_maximal" else _BLOCK_GRID
        for params, row in zip(grid, _block_norms(op, grid, ks)):
            tag = f"{op}|p={params.p:g}"
            positive = [v for v in row if v > 0.0]
            ratio = max(positive) / min(positive) if positive else 1.0
            in_range = params.in_main_range
            note = "" if in_range else "parameters outside the main range"
            sub.append(params.as_dict())
            measurements[f"{tag}|norms|indicator"] = _curve(ks, row)
            measurements[f"{tag}|ratio"] = ratio
            criterion = f"{tag}|uniform-norm-ratio({op})"
            verdicts.append(
                _below(criterion, f"{tag}|ratio", EXACT_ROUTE_RATIO, ratio, note, in_range)
            )
    return VerificationReport(
        theorem="3.1",
        params={"sub": sub},
        measurements=measurements,
        verdicts=tuple(verdicts),
        provenance=dict(
            seed=seed, k_range=_K_RANGE, block_shells=_BLOCK_SHELLS, nodes_per_shell=_SHELL_NODES,
            eps_schedule=_EPS_SCHEDULE, N_schedule=_N_SCHEDULE, sn_panels=dict(_SN_PANELS),
        ),
    )


# ---------------------------------------------------------------------------
# sharpness of the maximal-function range


_NODES_PER_SHELL = 16
_J_TAIL_MAX = 12


def _shell_integrals(values_fn, edges: np.ndarray, p: float, alpha: float, nodes: int):
    """Integral of |values_fn|^p |x|^alpha over each panel between edges (one side)."""
    x, w = panel_nodes(edges, nodes)
    return weighted_power_terms(values_fn(x), x, w, p, alpha).reshape(-1, nodes).sum(axis=1)


def _two_sided_shell_integrals(values_fn, edges: np.ndarray, p: float, alpha: float, nodes: int):
    """Per-panel integrals over the panels between edges plus their mirror images."""
    return _shell_integrals(values_fn, edges, p, alpha, nodes) + _shell_integrals(
        lambda x: values_fn(-x), edges, p, alpha, nodes
    )


def _near_zero_growth(values_fn, top: float, p: float, alpha: float):
    """Integral over delta < |x| < top for delta = top 2^-1, ..., top 2^-12."""
    deltas = top * 2.0 ** -np.arange(1, _J_TAIL_MAX + 1)
    edges = np.concatenate([deltas[::-1], [top]])
    per_shell = _two_sided_shell_integrals(values_fn, edges, p, alpha, _NODES_PER_SHELL)
    return deltas, np.cumsum(per_shell[::-1])


def _fit_slope(log_x: np.ndarray, y: np.ndarray, last: int = 6) -> float:
    lx, ly = log_x[-last:], y[-last:]
    return float(np.polyfit(lx, ly, 1)[0])


def _boundary_log_slope(per_shell, edges, target, tag, measurements, verdicts):
    """Tail integral's slope in log R' against target, at two quadrature refinements.

    per_shell(nodes) gives the per-panel integrals over the panels between
    edges; the slope must be within 10 % of target and must not move away
    from it when the node count doubles.
    """
    slopes = []
    for nodes in (_NODES_PER_SHELL, 2 * _NODES_PER_SHELL):
        tails = np.cumsum(per_shell(nodes))
        slopes.append(_fit_slope(np.log(edges[1:]), tails))
        if nodes == _NODES_PER_SHELL:
            measurements[f"tail|{tag}"] = _curve(edges[1:], tails)
    slope, slope_fine = slopes
    measurements[f"tail_slope|{tag}"] = slope
    measurements[f"tail_slope_refined|{tag}"] = slope_fine
    verdicts.append(
        _below(
            f"boundary-log-slope[{tag}]",
            f"tail_slope|{tag}",
            0.10,
            abs(slope / target - 1.0),
            note=f"analytic target {target:g}",
        )
    )
    verdicts.append(
        Verdict(
            criterion=f"slope-refinement-monotone[{tag}]",
            measurement=f"tail_slope_refined|{tag}",
            tolerance=1e-12,
            value=abs(slope_fine - target) - abs(slope - target),
            passed=bool(abs(slope_fine - target) <= abs(slope - target) + 1e-12),
        )
    )


def _log_divergence(deltas, growth, name, tag, measurements, verdicts):
    """Logarithmic divergence of the integral over [delta, top] as delta -> 0.

    At alpha = -1 the per-halving slopes of the growth must be positive and
    flat to 15 %; they are returned.  name prefixes the measurement keys
    ("inner", "near_zero") and, hyphenated, the criteria.
    """
    measurements[f"{name}_growth|{tag}"] = _curve(np.log(1.0 / deltas), growth)
    step_slopes = np.diff(growth) / math.log(2.0)
    tail_slopes = step_slopes[-5:]
    spread = float(np.max(tail_slopes) / np.min(tail_slopes) - 1.0)
    measurements[f"{name}_slope_spread|{tag}"] = spread
    verdicts.append(
        _below(
            f"{name.replace('_', '-')}-log-divergence[{tag}]",
            f"{name}_slope_spread|{tag}",
            0.15,
            spread,
            holds=bool(np.all(tail_slopes > 0.0)),
        )
    )
    return step_slopes


_MAXIMAL_GRID = (
    WeightParams(1, 1.0, 2.0, 0.0),
    WeightParams(1, 1.0, 2.0, -0.5),
    WeightParams(1, 1.0, 2.0, -1.0),
)


def _maximal_sharpness() -> VerificationReport:
    """Convergence/divergence profile of the maximal function at p = 1, alpha = 0, -1/2, -1.

    Boundary alpha = p-1: the tail integral of (Mf)^p |x|^alpha grows
    linearly in log R' with analytic slope 2^(p+1) (= 4 at p = 1), and the
    fitted slope must move toward that target under quadrature refinement.
    Interior alpha: tail increments shrink geometrically per doubling.
    alpha = -1: the inner integral grows like log(1/delta).  All measurements
    use the exact 1D maximal evaluator on indicator(-1, 1) (tails) and a
    shell around the origin (inner integrals), with 16 Gauss-Legendre nodes
    per dyadic shell out to 2^12.
    """
    f = PiecewiseConstant1D.indicator(-1.0, 1.0)
    shell = PiecewiseConstant1D((-1.0, -0.5, 0.5, 1.0), (1.0, 0.0, 1.0))
    measurements: dict = {}
    verdicts: list[Verdict] = []

    tail_x = 2.0 ** np.arange(1, _J_TAIL_MAX + 1)
    oracle_dev = float(
        np.max(np.abs(maximal_1d_exact(f, tail_x) - 2.0 / (tail_x + 1.0)))
    )
    measurements["uncentered_oracle_max_dev"] = oracle_dev
    verdicts.append(
        _below("exact-evaluator-matches-2/(x+1)", "uncentered_oracle_max_dev", 1e-12, oracle_dev)
    )

    mf = lambda x: maximal_1d_exact(f, x)
    for params in _MAXIMAL_GRID:
        p, alpha = params.p, params.alpha
        tag = f"p={p:g},alpha={alpha:g}"
        boundary = p - 1.0
        edges = 2.0 ** np.arange(1, _J_TAIL_MAX + 1)
        if alpha == boundary:
            _boundary_log_slope(
                lambda nodes: _two_sided_shell_integrals(mf, edges, p, alpha, nodes),
                edges, 2.0 ** (p + 1.0), tag, measurements, verdicts,
            )
        elif alpha > -1.0:
            per_shell = _two_sided_shell_integrals(mf, edges, p, alpha, _NODES_PER_SHELL)
            tails = np.cumsum(per_shell)
            ratios = per_shell[1:] / per_shell[:-1]
            measurements[f"tail|{tag}"] = _curve(edges[1:], tails)
            measurements[f"increment_ratios|{tag}"] = _curve(edges[2:], ratios)
            shrink = float(1.0 / np.max(ratios[-5:]))
            measurements[f"increment_shrink_factor|{tag}"] = shrink
            last_change = float((tails[-1] - tails[-2]) / tails[-1])
            measurements[f"final_doubling_change|{tag}"] = last_change
            verdicts.append(
                _below(
                    f"interior-tail-geometric[{tag}]",
                    f"increment_ratios|{tag}",
                    0.9,
                    float(np.max(ratios[-5:])),
                )
            )
            verdicts.append(
                _below(
                    f"final-doubling-under-5%[{tag}]",
                    f"final_doubling_change|{tag}",
                    0.05,
                    last_change,
                )
            )
        else:
            grid_ball = np.linspace(-0.999, 0.999, 257)
            min_ball = float(np.min(maximal_1d_exact(shell, grid_ball)))
            measurements[f"shell_maximal_min_on_ball|{tag}"] = min_ball
            verdicts.append(
                Verdict(
                    criterion=f"shell-maximal-bounded-below[{tag}]",
                    measurement=f"shell_maximal_min_on_ball|{tag}",
                    tolerance=0.25,
                    value=min_ball,
                    passed=bool(min_ball >= 0.25),
                )
            )
            deltas, inner = _near_zero_growth(lambda x: maximal_1d_exact(shell, x), 1.0, p, alpha)
            slopes = _log_divergence(deltas, inner, "inner", tag, measurements, verdicts)
            measurements[f"inner_slopes|{tag}"] = _curve(np.log(1.0 / deltas[1:]), slopes)
    return VerificationReport(
        theorem="4.1",
        params={"grid": [q.as_dict() for q in _MAXIMAL_GRID]},
        measurements=measurements,
        verdicts=tuple(verdicts),
        provenance=dict(
            nodes_per_shell=_NODES_PER_SHELL, j_tail_max=_J_TAIL_MAX, f="indicator(-1,1)"
        ),
    )


# ---------------------------------------------------------------------------
# sharpness of the Hilbert-transform range


_HILBERT_GRID = _MAXIMAL_GRID + (WeightParams(1, 1.0, 2.0, 0.5),)


def _hilbert_sharpness() -> VerificationReport:
    """Weighted-norm behavior of the exact Hilbert transform of the unit indicator on [1,2].

    Boundary alpha = p-1: the one-sided tail integral over [3, R'] grows in
    log R' with analytic slope pi^-p (= 1/pi at p = 1); above the boundary the
    growth is polynomial; in the interior both the tail and the near-zero
    piece stabilize under refinement; at alpha = -1 the near-zero integral
    diverges logarithmically because |Hf| is bounded away from 0 on [0, 1/2].
    The points are p = 1, alpha = 0, -1/2, -1, 1/2, with the quadrature of
    _maximal_sharpness.
    """
    f = PiecewiseConstant1D.indicator(1.0, 2.0)
    evaluated: dict = {}  # the grid points share their node sets: each set is evaluated once

    def hf(x):
        key = x.tobytes()
        if key not in evaluated:
            evaluated[key] = hilbert(f, x)
        return evaluated[key]

    measurements: dict = {}
    verdicts: list[Verdict] = []

    small_grid = np.linspace(0.0, 0.5, 257)
    small_vals = np.abs(hf(small_grid))
    min_small = float(np.min(small_vals))
    analytic_min = math.log(2.0) / math.pi
    measurements["min_abs_on_[0,1/2]"] = min_small
    measurements["min_abs_analytic"] = analytic_min
    verdicts.append(
        _below(
            "nonvanishing-near-zero",
            "min_abs_on_[0,1/2]",
            1e-10,
            abs(min_small / analytic_min - 1.0),
            note="minimum attained at 0 with value log(2)/pi; |Hf| monotone on [0, 1/2]",
            holds=bool(np.all(np.diff(small_vals) >= 0.0)),
        )
    )

    for params in _HILBERT_GRID:
        p, alpha = params.p, params.alpha
        tag = f"p={p:g},alpha={alpha:g}"
        boundary = p - 1.0
        edges = np.concatenate([[3.0], 2.0 ** np.arange(2, _J_TAIL_MAX + 1)])
        if alpha == boundary:
            _boundary_log_slope(
                lambda nodes: _shell_integrals(hf, edges, p, alpha, nodes),
                edges, math.pi ** -p, tag, measurements, verdicts,
            )
        elif alpha > boundary:
            per_shell = _shell_integrals(hf, edges, p, alpha, _NODES_PER_SHELL)
            tails = np.cumsum(per_shell)
            expo = _fit_slope(np.log(edges[1:]), np.log(tails), last=5)
            target = alpha - p + 1.0
            measurements[f"tail|{tag}"] = _curve(edges[1:], tails)
            measurements[f"tail_power_exponent|{tag}"] = expo
            verdicts.append(
                _below(
                    f"above-boundary-polynomial-growth[{tag}]",
                    f"tail_power_exponent|{tag}",
                    0.25,
                    abs(expo / target - 1.0),
                    note=f"target exponent {target:g}",
                )
            )
        elif alpha > -1.0:
            per_shell = _shell_integrals(hf, edges, p, alpha, _NODES_PER_SHELL)
            tails = np.cumsum(per_shell)
            tail_change = float((tails[-1] - tails[-2]) / tails[-1])
            deltas, near = _near_zero_growth(hf, 0.5, p, alpha)
            near_change = float((near[-1] - near[-2]) / near[-1])
            measurements[f"tail|{tag}"] = _curve(edges[1:], tails)
            measurements[f"near_zero|{tag}"] = _curve(np.log(1.0 / deltas), near)
            measurements[f"tail_refinement_change|{tag}"] = tail_change
            measurements[f"near_zero_refinement_change|{tag}"] = near_change
            verdicts.append(
                _below(
                    f"interior-stabilizes[{tag}]",
                    f"tail_refinement_change|{tag}",
                    0.01,
                    max(tail_change, near_change),
                )
            )
        else:
            deltas, near = _near_zero_growth(hf, 0.5, p, alpha)
            _log_divergence(deltas, near, "near_zero", tag, measurements, verdicts)
    return VerificationReport(
        theorem="5.2",
        params={"grid": [q.as_dict() for q in _HILBERT_GRID]},
        measurements=measurements,
        verdicts=tuple(verdicts),
        provenance=dict(
            nodes_per_shell=_NODES_PER_SHELL, j_tail_max=_J_TAIL_MAX, f="indicator(1,2)"
        ),
    )


# ---------------------------------------------------------------------------
# decomposition independence of linear extensions


def _presplit_decomposition(
    f: PiecewiseConstant1D, params: WeightParams, seed: int
) -> Decomposition:
    """Structurally different decomposition: cut f at two seeded points, decompose each part."""
    lo, hi = f.support_bounds
    cuts = np.sort(np.random.default_rng(seed).uniform(lo, hi, size=2))
    terms = [t for piece in split_pieces(f, cuts) for t in decompose_nonhomogeneous(piece, params).terms]
    return Decomposition(params, tuple(terms), False)


def _decomposition_independence(seed: int) -> VerificationReport:
    """Term-by-term Hilbert synthesis must not depend on the decomposition.

    Applies the Hilbert transform to every block of the greedy decomposition
    of indicator(-2, 2) and of the presplit decompositions seeded by seed and
    seed + 1 (n, p, s, alpha = 1, 1, 2, -1/2), synthesizes sum lambda_i H a_i,
    and compares the results with each other and with H f in the weighted norm.
    """
    f = PiecewiseConstant1D.indicator(-2.0, 2.0)
    params = WeightParams(1, 1.0, 2.0, -0.5)
    seeds = (seed, seed + 1)
    decomps = {"greedy": decompose_nonhomogeneous(f, params)}
    for s in seeds:
        decomps[f"presplit[{s}]"] = _presplit_decomposition(f, params, s)

    # f and every block, on all their breakpoints, are the rows of one
    # hilbert family, on the shell nodes clear of every exclusion radius
    terms = [(name, t) for name, d in decomps.items() for t in d.terms]
    functions = [f] + [t.block.data for _, t in terms]
    sing = np.asarray(sorted(set().union(*(g.breakpoints for g in functions))))
    x, w = shell_grid(-20, 5, 16)
    keep = nearest_breakpoint(x, sing)[1] > max(pv_exclusion_radius(g) for g in functions)
    x, w = x[keep], w[keep]
    values = _hilbert_rows(sing, np.array([g._piece_values_at(sing[:-1]) for g in functions]), x)
    direct = values[0]
    denom = weighted_norm_from_samples(direct, x, w, params.p, params.alpha)
    routed = {name: np.zeros_like(x) for name in decomps}
    for (name, t), row in zip(terms, values[1:]):
        routed[name] += t.lam * row
    names = list(routed)
    measurements: dict = {
        "routes": names,
        "synthesis_dev": {
            name: float(
                max(
                    (abs(v) for v in (d.synthesize() - f).values),
                    default=0.0,
                )
            )
            for name, d in decomps.items()
        },
    }
    first = names[0]
    comparisons = [
        (f"pair-agreement({first}, {n})", f"rel_diff|{first}|{n}", routed[n] - routed[first])
        for n in names[1:]
    ] + [(f"direct-agreement({n})", f"rel_diff_direct|{n}", routed[n] - direct) for n in names]
    verdicts: list[Verdict] = []
    for criterion, key, diff in comparisons:
        rel = weighted_norm_from_samples(diff, x, w, params.p, params.alpha) / denom
        measurements[key] = rel
        verdicts.append(_below(criterion, key, 1e-8, rel))
    return VerificationReport(
        theorem="5.3",
        params=params.as_dict(),
        measurements=measurements,
        verdicts=tuple(verdicts),
        provenance=dict(seeds=list(seeds), grid="shells [-20,5], 16 nodes"),
    )


# ---------------------------------------------------------------------------
# fixed-N partial-sum integrals: e(N) and claim 3.1's dirichlet_sn leg


#: where e(N) is cut when its tails diverge (alpha >= p - 1)
_X_MAX = 256.0

#: half-line functions per lattice kernel call, whose err buffer holds one _BLOCK_BYTES for each
_LATTICE_ROWS = 16


def _lattice_edges(ls: np.ndarray, N: float, x_max: float, sub: int) -> np.ndarray:
    """The uniform edges l h / sub, h = 1/(4N), for the indices ls, bit for bit as _uniform_edges has them.

    For 4N x_max sub an integer count: np.linspace forms l * step with
    step = fl(x_max / count), which is fl(h / sub), and pins edge count to x_max.
    """
    return np.where(ls == 4.0 * N * x_max * sub, x_max, ls * (1.0 / (4.0 * N * sub)))


def _lattice_cells(N: float, x_max: float) -> int:
    """The number 4N x_max of lattice cells of width 1/(4N) in [0, x_max], or 0 if it is no integer."""
    cells = 4 * Fraction(N) * Fraction(x_max)
    return int(cells) if cells.denominator == 1 else 0


def _lattice_panels(bps, N: float, x_max: float, sub: int) -> tuple[list[np.ndarray], int, list[np.ndarray]]:
    """The panels of oscillation_edges(bps, x_max, 1/(4N sub)), split for the lattice route.

    Returns (runs, count, split).  When count = 4N x_max is an integer, the
    uniform edges l h / sub, h = 1/(4N), l = 0..count sub, are the lattice
    (h / sub)Z (_lattice_edges forms any of them), and split[0] and split[1]
    hold, as sorted indices, the cells [l h, (l + 1) h] and
    [-(l + 1) h, -l h] that are not `sub` panels: l = 0, and those with a
    grading edge or breakpoint inside.  Every other cell with 1 <= l < count
    is.  runs holds the edges of every other panel, one ascending array per
    run of adjacent split cells, where the two runs that meet at 0 are one.
    When 4N x_max is not an integer, count is 0 and the one run is
    oscillation_edges itself.
    """
    h, spacing = 1.0 / (4.0 * N), 1.0 / (4.0 * N * sub)
    count = _lattice_cells(N, x_max)
    if not count or count * sub != math.ceil(x_max / spacing):  # _uniform_edges' step count
        none = np.zeros(0, dtype=int)
        return [oscillation_edges(bps, x_max, spacing)], 0, [none, none]
    grading = _grading(x_max)
    inner = np.concatenate([-grading, grading, [b for b in bps if abs(b) <= x_max]])
    v = np.abs(inner)
    edge = lambda cells: _lattice_edges(cells * sub, N, x_max, sub)
    # the last edge at or below each v, as a searchsorted over all edges would
    # find it: the quotient is within one cell of it
    cell = np.minimum((v / h).astype(int), count)
    cell -= edge(cell) > v
    cell += (cell < count) & (edge(cell + 1) <= v)
    inside = edge(cell) < v  # inside cell l of its side, not one of its ends
    runs, split = [], []
    for negative, sign in ((False, 1.0), (True, -1.0)):
        cells = _sorted_unique(cell[inside & ((inner < 0) == negative)], [0])
        split.append(cells)
        ends = sign * inner[sign * inner > 0]
        side = []
        for run in np.split(cells, np.flatnonzero(np.diff(cells) > 1) + 1):
            uniform = _lattice_edges(np.arange(run[0] * sub, (run[-1] + 1) * sub + 1), N, x_max, sub)
            edges = _sorted_unique(uniform, ends[(uniform[0] < ends) & (ends < uniform[-1])])
            side.append(edges if sign > 0 else -edges[::-1])
        runs.append(side)
    (at_zero, *right), (left_of_zero, *left) = runs  # both sides' first runs hold cell 0
    return [*left, np.concatenate([left_of_zero[:-1], at_zero]), *right], count, split


def _partial_sum_integrals(
    fs, pairs, N: float, x_max: float, sub: int, minus_f: bool = True, width: int | None = None
) -> np.ndarray:
    """Integrals of |S_N f - f|^p |x|^alpha (or of |S_N f|^p |x|^alpha without minus_f) on [-x_max, x_max].

    One row per f of fs, one column per (p, alpha) of pairs.  The panels are
    those of oscillation_edges(f.breakpoints, x_max, 1/(4N sub)), which
    resolve both the oscillation and the weight singularity at 0
    (geometric grading to 2^-40), with _E_NODES Gauss-Legendre nodes each.

    When 4N x_max is an integer, the cells [l h, (l + 1) h], h = 1/(4N), that
    no grading edge or breakpoint splits are `sub` equal panels each (see
    _lattice_panels).  They go to operators._sn_error_on_lattice, with the
    _E_NODES sub nodes of those panels as the nodes of one cell, which takes
    their Si phases exactly and never cancels f against the limits pi/2.
    The nodes are symmetric, so a cell and its mirror share the weights
    w (|x|^alpha) of one chunk, and the mirror's values are those of
    x -> f(-x) on the cell: each f and x -> f(-x) are rows of one kernel
    call (one row if they are equal), which share its Si remainders, one per
    lattice point and offset.  Without minus_f a cell inside a support adds
    f's value on it.  Each chunk is weighed per node row: abs, **p, then a
    dot product with the weights, summed per row over the chunks, so a row's
    integral depends on that row alone.  Rows go _LATTICE_ROWS to a call,
    whose chunks are `width` cells (the kernel's default without it).

    Every other panel goes through dirichlet_sn, one call per f and chunk
    of panels whose nodes take _BLOCK_BYTES, into one array of terms summed
    once per pair; when 4N x_max is not an integer, that is every panel,
    and oscillation_edges and the terms grow with N.  The lattice route
    forms each chunk's edges on its own and skips the split cells by index,
    so none of its arrays grows with 4N x_max.
    """
    if not N > 0:
        raise ValueError(f"N must be positive, got {N}")
    out = np.zeros((len(fs), len(pairs)))
    rows, splits, sides, index = [], [], [], {}  # half-line functions, their split cells, each f's two
    count = 0
    for f, total in zip(fs, out):
        runs, count, split = _lattice_panels(f.breakpoints, N, x_max, sub)
        total[:] = _panel_integrals(f, runs, pairs, N, minus_f)
        bps, values = np.asarray(f.breakpoints, dtype=float), np.asarray(f.values, dtype=float)
        mine = []
        for row, cells in zip(((bps, values), (-bps[::-1], values[::-1])), split):
            key = tuple(row[0].tolist()), tuple(row[1].tolist())
            if key not in index:
                index[key] = len(rows)
                rows.append(row)
                splits.append(cells)
            mine.append(index[key])
        sides.append(mine)
    if count:
        sums = np.concatenate([
            _lattice_integrals(rows[i : i + _LATTICE_ROWS], splits[i : i + _LATTICE_ROWS], pairs, N, x_max, sub, minus_f, width)
            for i in range(0, len(rows), _LATTICE_ROWS)
        ])
        for total, (right, left) in zip(out, sides):
            total += sums[right]
            total += sums[left]
    return out


def _panel_integrals(f: PiecewiseConstant1D, runs, pairs, N: float, minus_f: bool) -> list[float]:
    """The integrals of _partial_sum_integrals over the panels between the edges of each run, by dirichlet_sn."""
    chunk = _BLOCK_BYTES // (8 * _E_NODES)  # panels whose nodes fill one temporary
    terms = np.empty((len(pairs), _E_NODES * sum(edges.size - 1 for edges in runs)))
    filled = 0
    for edges in runs:
        for i in range(0, edges.size - 1, chunk):
            x, w = panel_nodes(edges[i : i + chunk + 1], _E_NODES)
            values = dirichlet_sn(f, N, x) - f(x) if minus_f else dirichlet_sn(f, N, x)
            for row, (p, alpha) in zip(terms, pairs):
                row[filled : filled + x.size] = weighted_power_terms(values, x, w, p, alpha)
            filled += x.size
    return [float(np.sum(row)) for row in terms]


def _cell_nodes(sub: int) -> np.ndarray:
    """The nodes, in (-1, 1), of sub equal _E_NODES-node Gauss-Legendre panels of [-1, 1], panel j's first."""
    t = _gl_rule(_E_NODES)[0]
    return np.concatenate([(t + (2 * j + 1 - sub)) / sub for j in range(sub)])


def _cell_panel_nodes(lo: int, n: int, N: float, x_max: float, sub: int, out: np.ndarray):
    """Nodes and weights of the sub panels of the cells lo, ..., lo + n - 1, as _cell_nodes orders them.

    Returns (x, w), (sub _E_NODES x n) each: row j _E_NODES + k holds node
    k of panel j of each cell, with the bits panel_nodes gives it.  out is a
    (2, _E_NODES, n sub) or larger buffer.
    """
    x, w = out[:, :, : n * sub]
    _node_rows(_lattice_edges(np.arange(lo * sub, (lo + n) * sub + 1), N, x_max, sub), x, w)
    return (a.reshape(_E_NODES, n, sub).transpose(2, 0, 1).reshape(sub * _E_NODES, n) for a in (x, w))


def _lattice_integrals(rows, splits, pairs, N: float, x_max: float, sub: int, minus_f: bool, width) -> np.ndarray:
    """The integrals of _partial_sum_integrals over the lattice cells 1 <= l < 4N x_max of each half-line row.

    rows are (breakpoints, values) and splits their split cells; one row of
    integrals per row, one column per pair.  The node and weight buffers are
    allocated once, at the first chunk (from cell 1), which is the widest.
    """
    nodes = _cell_nodes(sub)
    count, h = _lattice_cells(N, x_max), 1.0 / (4.0 * N)
    functions = [PiecewiseConstant1D(*row) for row in rows]
    alphas = list(dict.fromkeys(alpha for _, alpha in pairs))
    sums = np.zeros((len(rows), len(pairs)))
    for lo, err in _sn_error_on_lattice(*zip(*rows), N, 1, count - 1, nodes, width):
        n = err.shape[2]
        if lo == 1:
            panels = np.empty((2, _E_NODES, n * sub))
            weights = np.empty((len(alphas), nodes.size, n))
        xs, ws = _cell_panel_nodes(lo, n, N, x_max, sub, panels)
        for alpha, wa in zip(alphas, weights):
            wa = wa[:, :n]
            np.power(xs, alpha, out=wa)  # x > 0
            wa *= ws
        for f, cells, e, total in zip(functions, splits, err, sums):
            if not minus_f:
                on_cells = f((np.arange(lo, lo + n) + 0.5) * h)  # f is constant on a cell it does not split
                inside = np.flatnonzero(on_cells)
                e[:, inside] += on_cells[inside]
            i, j = np.searchsorted(cells, [lo, lo + n])
            e[:, cells[i:j] - lo] = 0.0  # the split cells are other panels
            np.abs(e, out=e)
            for q, (p, alpha) in enumerate(pairs):
                powers = e if p == 1.0 else e**p  # e ** 1.0 == e
                wa = weights[alphas.index(alpha), :, :n]
                total[q] += sum(float(row @ wk) for row, wk in zip(powers, wa))
    return sums


#: e(N)'s near zone ends _TAIL_GAP lattice cells (16/N) or more past the support, where every Si phase is >= 32 pi
_TAIL_GAP = 64
#: the most lattice cells per side a near zone may take: 4N _X_MAX at N = 2^11
_NEAR_CELLS = 2**21
#: K, the integration-by-parts terms of each far tail
_TAIL_TERMS = 5
#: Gauss-Legendre nodes per panel of a far tail's mean part, whose panels reach 2^_TAIL_REACH times the support
_TAIL_NODES, _TAIL_REACH = 12, 40
#: Gauss-Jacobi nodes of the antiderivatives of |cos u|^p
_JACOBI_NODES = 32


def _near_zone_end(f: PiecewiseConstant1D, N: float) -> float:
    """X_N, the least multiple of 1/(4N) at or above max |b_j| + 16/N; DomainEvaluationError past _NEAR_CELLS cells."""
    if not N > 0:
        raise ValueError(f"N must be positive, got {N}")
    cells = math.ceil(4 * Fraction(N) * Fraction(max(map(abs, f.breakpoints), default=0.0))) + _TAIL_GAP
    if cells > _NEAR_CELLS:
        raise DomainEvaluationError(
            f"e(N) at N = {N!r} needs {cells} lattice cells per side to reach 16/N past the support, over {_NEAR_CELLS}"
        )
    return float(cells / (4 * Fraction(N)))


def _mean_cos_power(p: float) -> float:
    """M_p = Gamma(p + 1) / (2^p Gamma(p/2 + 1)^2), the mean of |cos u|^p."""
    return math.exp(math.lgamma(p + 1) - p * math.log(2.0) - 2 * math.lgamma(p / 2 + 1))


@functools.lru_cache(maxsize=None)
def _jacobi_rule(p: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the _JACOBI_NODES-point Gauss rule for the weight y^p on [0, 1] (Golub-Welsch)."""
    s, k = 2 * np.arange(_JACOBI_NODES) + p, np.arange(1, _JACOBI_NODES)
    off = 2 * k * (k + p) / (s[1:] * np.sqrt(s[1:] ** 2 - 1))
    x, v = np.linalg.eigh(np.diag(p * p / (s * (s + 2))) + np.diag(off, 1) + np.diag(off, -1))
    rule = (1 + x) / 2, v[0] ** 2 / (p + 1)
    for a in rule:
        a.setflags(write=False)
    return rule


def _cos_power_integrals(u: float, p: float, orders: int) -> np.ndarray:
    """I_k(u) = int_0^u (u - s)^(k-1) / (k-1)! (cos^p s - M_p) ds for k = 1, ..., orders and 0 <= u <= pi/2.

    With s = pi/2 - r and a = pi/2 - u, the cos^p part is the difference of
    int_0^c (r - a)^(k-1) / (k-1)! sin^p r dr at c = pi/2 and c = a, each by
    the Gauss rule for r^p on [0, c] times (sin r / r)^p, which is analytic.
    """
    y, w = _jacobi_rule(p)
    a, ks = 0.5 * math.pi - u, np.arange(orders)
    sums = np.zeros(orders)
    for c, sign in ((0.5 * math.pi, 1.0), (a, -1.0)):
        if c > 0.0:
            r = c * y
            sums += sign * c ** (p + 1) * ((r - a) ** ks[:, None] @ (w * (np.sin(r) / r) ** p))
    factorials = np.array([math.factorial(k) for k in range(orders + 1)], dtype=float)
    return sums / factorials[:-1] - _mean_cos_power(p) * u ** (ks + 1) / factorials[1:]


@functools.lru_cache(maxsize=None)
def _antiderivative_constants(p: float) -> dict[int, float]:
    """The constants C_j, j even, that make Q_k = I_k + sum_j C_j u^(k-j) / (k-j)! have zero mean for k <= _TAIL_TERMS."""
    top = _cos_power_integrals(0.5 * math.pi, p, _TAIL_TERMS + 1).tolist()
    constants = {}
    for j in range(2, _TAIL_TERMS + 1, 2):
        # the mean over [-pi/2, pi/2] of the even I_j is (2/pi) I_(j+1)(pi/2), and of u^m / m! it is (pi/2)^m / (m+1)!
        mean = 2 / math.pi * top[j] + sum(c * (0.5 * math.pi) ** (j - i) / math.factorial(j - i + 1) for i, c in constants.items())
        constants[j] = -mean
    return constants


def _cos_power_antiderivatives(theta: float, p: float) -> list[float]:
    """Q_1, ..., Q_K at theta: Q_1 the zero-mean antiderivative of |cos u|^p - M_p, and Q_(k+1) that of Q_k.

    Each Q_k has period pi and the parity of k, so it is the I_k of the
    reduced |u| <= pi/2 plus the polynomial that _antiderivative_constants fixes.
    """
    u = theta - math.pi * round(theta / math.pi)
    v = abs(u)
    integrals = _cos_power_integrals(v, p, _TAIL_TERMS)
    out = []
    for k, value in enumerate(integrals.tolist(), 1):
        value += sum(c * v ** (k - j) / math.factorial(k - j) for j, c in _antiderivative_constants(p).items() if j <= k)
        out.append(-value if u < 0 and k % 2 else value)
    return out


def _jet_quotient(a, b) -> list:
    """The Taylor coefficients of a / b through len(a) terms, from those of a and b."""
    out = []
    for n, an in enumerate(a):
        out.append((an - sum(b[i] * out[n - i] for i in range(1, n + 1))) / b[0])
    return out


def _far_tail(bps: np.ndarray, jumps: np.ndarray, N: float, x_n: float, p: float, alpha: float) -> tuple[float, list]:
    """int_{x_n}^inf |S_N f|^p x^alpha dx for f with jumps c_j at bps, |b_j| <= x_n - 16/N; and its K terms.

    There every t_j = 2 pi N (x - b_j) >= 32 pi, where Si(t) = pi/2 -
    Re(W(t) e^(it)) with W = F - iG (sine_integral._auxiliary_taylor).  The
    jumps sum to 0, so S_N f(x) = -(|Z|/pi) cos(theta), with
    Z(x) = sum_j c_j e^(-2 pi i N b_j) W(t_j) and theta = 2 pi N x + arg Z.
    Put h = (|Z|/pi)^p x^alpha, H_0 = h/theta' and H_(k+1) = H_k'/theta'.
    With |cos u|^p = M_p + (|cos u|^p - M_p) and K integrations by parts
    against the zero-mean antiderivatives Q_k of the second part,

        tail = M_p int_{x_n}^inf h dx - sum_{k<K} (-1)^k H_k(x_n) Q_(k+1)(theta(x_n)).

    The H_k come from Taylor coefficients at x_n: Z's are exact sums over
    the jumps, and log h and theta' follow from Z'/Z.  h is smooth and does
    not oscillate.  Its integral takes _TAIL_NODES Gauss-Legendre nodes on
    each panel [r + 2^i d, r + 2^(i+1) d], r = max |b_j| and d = x_n - r,
    whose singularities (the b_j and 0) are at least a panel's length away,
    out to 2^_TAIL_REACH times max(r, d); past that h is a power law to
    O(r/x), and h(x) x / gamma adds the rest, gamma + 1 its decay rate over
    the last panel.  The terms returned are (-1)^k H_k(x_n) Q_(k+1)(theta(x_n)).
    """
    if not np.any(jumps):
        return 0.0, [0.0] * _TAIL_TERMS
    omega = 2 * math.pi * N
    rotated = jumps * np.exp(-2j * math.pi * ((N * bps) % 1.0))
    z = (_auxiliary_taylor(omega * (x_n - bps), _TAIL_TERMS + 1) @ rotated * omega ** np.arange(_TAIL_TERMS + 1)).tolist()
    rate = _jet_quotient([n * c for n, c in enumerate(z[1:], 1)], z)  # Z'/Z
    theta_rate = [omega * (n == 0) + q.imag for n, q in enumerate(rate)]
    log_h_rate = [p * q.real + alpha * (-1) ** n / x_n ** (n + 1) for n, q in enumerate(rate)]
    h = [math.exp(p * math.log(abs(z[0]) / math.pi) + alpha * math.log(x_n))]
    for n in range(1, _TAIL_TERMS):
        h.append(sum(log_h_rate[k] * h[n - 1 - k] for k in range(n)) / n)
    theta = 2 * math.pi * ((N * x_n) % 0.5) + math.atan2(z[0].imag, z[0].real)
    H, terms = _jet_quotient(h, theta_rate), []
    for k, q in enumerate(_cos_power_antiderivatives(theta, p)):
        terms.append((-1) ** k * H[0] * q)
        H = _jet_quotient([n * c for n, c in enumerate(H[1:], 1)], theta_rate)
    r = float(np.max(np.abs(bps)))
    d = x_n - r
    edges = r + d * np.ldexp(1.0, np.arange(_TAIL_REACH + max(0, math.ceil(math.log2(r / d))) + 1))
    edges[0] = x_n
    x, w = panel_nodes(edges, _TAIL_NODES)
    x = np.concatenate([x, edges[-2:]])
    amplitude = np.empty(x.size)
    rows = max(1, _BLOCK_BYTES // (16 * bps.size))
    for i in range(0, x.size, rows):
        amplitude[i : i + rows] = np.abs(_auxiliary_taylor(omega * np.subtract.outer(x[i : i + rows], bps), 1)[0] @ rotated)
    with np.errstate(divide="ignore"):
        log_h = p * np.log(amplitude / math.pi) + alpha * np.log(x)
    values = np.exp(log_h)
    gamma = -1.0 - (log_h[-1] - log_h[-2]) / math.log(edges[-1] / edges[-2])
    gamma = gamma if gamma > p - alpha - 1 else p - alpha - 1  # h decays at least like x^(alpha - p)
    mean = float(w @ values[:-2] + values[-1] * edges[-1] / gamma)
    return _mean_cos_power(p) * mean - sum(terms), terms


def _far_tails(f: PiecewiseConstant1D, N: float, x_n: float, p: float, alpha: float) -> list[tuple[float, list]]:
    """_far_tail past x_n of f, then of x -> f(-x), the tail left of -x_n; none for f = 0."""
    if not f.breakpoints:
        return []
    bps, jumps = np.asarray(f.breakpoints), np.diff(f.values, prepend=0.0, append=0.0)
    return [_far_tail(b, c, N, x_n, p, alpha) for b, c in ((bps, jumps), (-bps[::-1], -jumps[::-1]))]


def _partial_sum_error(f: PiecewiseConstant1D, params: WeightParams, N: float) -> tuple[float, float, float]:
    """(int |S_N f - f|^p |x|^alpha dx, the near zone's end, the size of its tails' last terms).

    For alpha < p - 1 the integral is _partial_sum_integrals' on the near
    zone [-X_N, X_N], X_N = _near_zone_end(f, N), plus _far_tails.  For
    alpha >= p - 1 the tails do not converge, and it is the integral on
    [-_X_MAX, _X_MAX] alone, with last term size 0.
    """
    p, alpha = params.p, params.alpha
    if not alpha < p - 1:
        ((total,),) = _partial_sum_integrals([f], [(p, alpha)], N, _X_MAX, 1)
        return float(total), _X_MAX, 0.0
    x_n = _near_zone_end(f, N)
    ((total,),) = _partial_sum_integrals([f], [(p, alpha)], N, x_n, 1)
    total, last = float(total), 0.0
    for tail, terms in _far_tails(f, N, x_n, p, alpha):
        total += tail
        last += abs(terms[-1])
    return total, x_n, last


def partial_sum_error_norm(f: PiecewiseConstant1D, params: WeightParams, N: float) -> float:
    """e(N) = weighted norm of S_N f - f on the line.

    For alpha < p - 1, panels resolve both the oscillation (spacing 1/(4N))
    and the weight singularity at 0 (geometric grading to 2^-40), with
    _E_NODES Gauss-Legendre nodes each, on the near zone [-X_N, X_N], X_N
    the least multiple of 1/(4N) at or above max |b_j| + 16/N; the tails
    past it are in closed form (_far_tails).  The near zone's integral is
    _partial_sum_integrals' with sub = 1: the uniform panels that no grading
    edge or breakpoint splits are cells of the lattice Z/(4N) when 4N X_N is
    an integer in floating point, and take the exact-phase lattice kernel.
    A near zone of more than _NEAR_CELLS cells per side raises
    DomainEvaluationError.  For alpha >= p - 1 the norm is infinite unless
    S_N f - f cancels its C/|x| decay, and e(N) is the integral on
    [-256, 256] alone.
    """
    return _partial_sum_error(f, params, N)[0] ** (1.0 / params.p)


def _norm_convergence() -> VerificationReport:
    """e(N) = ||S_N f - f|| for N = 1, 2, ..., 2^10: eventually decreasing, small terminal ratio.

    f = indicator(1/4, 1/2) and (n, p, s, alpha) = (1, 1, 2, -1/2), inside the
    hypotheses -1 < alpha < p - 1, p <= s of the convergence claim.  Each
    e(N) integrates on its near zone [-X_N, X_N] and adds its two far tails
    in closed form (partial_sum_error_norm); the provenance gives each X_N
    and the summed size of the two tails' last terms, the first one left out.
    """
    f = PiecewiseConstant1D.indicator(0.25, 0.5)
    params = WeightParams(1, 1.0, 2.0, -0.5)
    sched = 2.0 ** np.arange(0, 11)
    parts = [_partial_sum_error(f, params, N) for N in sched]
    errs = np.array([total ** (1.0 / params.p) for total, _, _ in parts])
    terminal_ratio = float(errs[-1] / errs[0])
    note = f"e(N_max)/e(N_min) over N in [{sched[0]:g}, {sched[-1]:g}]"
    return VerificationReport(
        theorem="6.3",
        params=params.as_dict(),
        measurements={
            "e_of_N": _curve(sched, errs),
            "peak_index": int(np.argmax(errs)),
            "terminal_ratio": terminal_ratio,
        },
        verdicts=(
            _eventually_decreasing("eventually-decreasing", "peak_index", errs),
            _below("terminal-error-ratio", "terminal_ratio", 0.05, terminal_ratio, note),
        ),
        provenance=dict(
            f={"breakpoints": list(f.breakpoints), "values": list(f.values)},
            N_schedule=[float(N) for N in sched],
            near_zone_end=[x_n for _, x_n, _ in parts],
            far_tail_terms=_TAIL_TERMS,
            far_tail_last_term=[last for _, _, last in parts],
            quadrature=(
                f"on [-X_N, X_N]: panels at spacing 1/(4N), geometric grading to 2^-40 at 0, {_E_NODES}-node GL; "
                f"past X_N: M_p int h dx plus {_TAIL_TERMS} integration-by-parts terms"
            ),
        ),
    )


# ---------------------------------------------------------------------------
# pointwise convergence and the maximal partial-sum bound


def _pointwise_convergence() -> VerificationReport:
    """sup over a breakpoint-excluding grid of |S_N f - f| must fall below 1e-2 by N = 2^8.

    f = indicator(1, 2), sampled on 769 points of [0, 3] kept at distance
    >= 1/8 from its jumps.  Also measures the weighted norm (alpha = -1/2) of
    the maximal partial sum on a truncated domain against the block-cost
    upper bound of f, reporting the ratio as an empirical constant for the
    maximal inequality (no threshold: the constant is not pinned by theory).
    """
    f = PiecewiseConstant1D.indicator(1.0, 2.0)
    params = WeightParams(1, 1.0, 2.0, -0.5)
    sched = 2.0 ** np.arange(0, 9)
    pts = np.linspace(0.0, 3.0, 769)
    x = pts[nearest_breakpoint(pts, np.asarray(f.breakpoints))[1] >= 0.125]
    fx = f(x)
    sup_errs = np.array([float(np.max(np.abs(dirichlet_sn(f, N, x) - fx))) for N in sched])
    final = float(sup_errs[-1])
    xq, wq = shell_grid(-20, 6, 16)
    c_vals = carleson(f, geometric_schedule(0.25, 32.0), xq)
    c_norm = weighted_norm_from_samples(c_vals, xq, wq, params.p, params.alpha)
    ub = rl_norm_upper_bound(f, params)
    ratio = c_norm / ub
    return VerificationReport(
        theorem="6.1.pointwise",
        params=params.as_dict(),
        measurements={
            "sup_error": _curve(sched, sup_errs),
            "final_sup_error": final,
            "maximal_partial_sum_norm": c_norm,
            "quasinorm_upper_bound": ub,
            "empirical_maximal_constant": ratio,
        },
        verdicts=(
            _below("sup-error-final", "final_sup_error", 1e-2, final),
            _eventually_decreasing("sup-error-eventually-decreasing", "sup_error", sup_errs),
            _below(
                "maximal-partial-sum-norm-finite",
                "empirical_maximal_constant",
                math.inf,
                ratio,
                "empirical constant only; theory does not pin its value",
            ),
        ),
        provenance=dict(
            N_schedule=[float(N) for N in sched],
            grid_size=int(x.size),
            grid_exclusion=0.125,
            carleson_quadrature="shells [-20,6], 16 nodes",
        ),
    )


# ---------------------------------------------------------------------------
# inclusion constants across seeded functions


def _random_test_function(seed: int) -> PiecewiseConstant1D:
    """Seeded random 8-piece function supported in [-1, 1]."""
    rng = np.random.default_rng(seed)
    while True:
        inner = np.sort(rng.uniform(-1.0, 1.0, 7))
        bps = np.concatenate([[-1.0], inner, [1.0]])
        if np.min(np.diff(bps)) > 1e-6:
            break
    values = rng.standard_normal(8)
    return PiecewiseConstant1D(bps, values)


#: claim id -> the inclusion legs it measures
_INCLUSION_LEGS = {"2.1": ("ambient", "block-cost"), "2.2": ("ls-nonhomogeneous",)}
_INCLUSION_GRID = (
    WeightParams(1, 1.0, 2.0, -0.5),
    WeightParams(1, 0.5, 2.0, -0.75),
    WeightParams(1, 1.0, 2.0, -0.25),
)


def _inclusions(theorem: str) -> VerificationReport:
    """Stability of inclusion constants across the random functions of seeds 0-19.

    ambient: ||f||_{L^p_alpha} <= C * shell quasinorm (main range, p < s).
    block-cost: shell-decomposition cost <= C ||f||^pbar in the weighted L^s
    on the unit ball (needs p < s).
    ls-nonhomogeneous: restrict-type cost <= C ||f||_{L^s}^pbar (needs
    alpha <= n(p/s - 1)).  Each constant's max/min over seeds must stay
    below the seed-stability ratio 2 at each of (p, s, alpha) = (1, 2, -1/2),
    (1/2, 2, -3/4), (1, 2, -1/4).  theorem selects the legs, 2.1 or 2.2.
    """
    legs = _INCLUSION_LEGS[theorem]
    seeds = list(range(20))
    fs = {s: _random_test_function(s) for s in seeds}
    measurements: dict = {}
    verdicts: list[Verdict] = []
    for params in _INCLUSION_GRID:
        tag = f"p={params.p:g},s={params.s:g},alpha={params.alpha:g}"
        pbar = params.pbar
        for leg in legs:
            if leg == "ambient":
                # ambient norm against the shell quasinorm: coefficients on
                # distinct shells are forced, so the greedy cost IS the
                # quasinorm and the ratio is the per-function constant
                in_hyp = params.in_main_range and params.p < params.s
                get = lambda f: weighted_lp_norm(f, params.p, params.alpha) / (
                    homogeneous_total_cost(f, params) ** (1.0 / pbar)
                )
            elif leg == "block-cost":
                in_hyp = params.p < params.s and params.in_main_range
                get = lambda f: homogeneous_total_cost(f, params) / weighted_lp_norm(
                    f, params.s, params.alpha
                ) ** pbar
            else:
                # stretch the support to [-4, 4] so several shells engage;
                # in-ball inputs would collapse to one block and a constant ratio
                in_hyp = params.in_inclusion_range and params.p <= params.s
                get = lambda f: _nonhomogeneous_cost(f.dilate(4.0), params) / (
                    weighted_lp_norm(f.dilate(4.0), params.s, 0.0) ** pbar
                )
            ratios = [get(fs[s]) for s in seeds]
            measurements[f"constants|{leg}|{tag}"] = _curve(seeds, ratios)
            finite = [r for r in ratios if math.isfinite(r) and r > 0.0]
            spread = max(finite) / min(finite) if finite else math.inf
            measurements[f"stability|{leg}|{tag}"] = spread
            verdicts.append(
                _below(
                    f"seed-stability({leg})[{tag}]",
                    f"stability|{leg}|{tag}",
                    SEED_STABILITY_RATIO,
                    spread,
                    note="" if in_hyp else "outside this inclusion's hypotheses",
                    in_hypothesis=in_hyp,
                    holds=len(finite) == len(ratios),
                )
            )
    return VerificationReport(
        theorem=theorem,
        params={"grid": [q.as_dict() for q in _INCLUSION_GRID]},
        measurements=measurements,
        verdicts=tuple(verdicts),
        provenance=dict(seeds=seeds, legs=list(legs), pieces=8),
    )


# ---------------------------------------------------------------------------
# dispatch


#: claim id -> harness for one seed, in report order
_HARNESSES = dict(
    zip(
        THEOREM_IDS,
        (
            lambda seed: _inclusions("2.1"),
            lambda seed: _inclusions("2.2"),
            _uniform_block_bound,
            lambda seed: _maximal_sharpness(),
            lambda seed: _hilbert_sharpness(),
            _decomposition_independence,
            lambda seed: _pointwise_convergence(),
            lambda seed: _norm_convergence(),
        ),
        strict=True,
    )
)


def run_theorem(theorem: str, seed: int = 0) -> VerificationReport:
    """Run the harness registered for one claim id."""
    if theorem not in _HARNESSES:
        raise ValueError(f"unknown theorem id {theorem!r}; known: {', '.join(THEOREM_IDS)}")
    return _HARNESSES[theorem](seed)


def run_all(seed: int = 0) -> dict[str, VerificationReport]:
    """All registered harnesses, in a fixed order, deterministically."""
    return {tid: run_theorem(tid, seed) for tid in THEOREM_IDS}
