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

import math
from dataclasses import dataclass, field

import numpy as np

from ._version import __version__
from .blocks import (
    Decomposition,
    decompose_nonhomogeneous,
    decompose_split,
    homogeneous_total_cost,
    make_canonical_block,
    rl_norm_upper_bound,
)
from .norms import weighted_lp_norm
from .params import WeightParams
from .piecewise import PiecewiseConstant1D
from .quadrature import (
    oscillation_edges,
    panel_nodes,
    shell_grid,
    weighted_norm_from_samples,
    weighted_power_terms,
)
from .operators import (
    carleson,
    dirichlet_sn,
    geometric_schedule,
    hilbert,
    hilbert_maximal,
    maximal_1d_exact,
    nearest_breakpoint,
    pv_exclusion_radius,
)

EXACT_ROUTE_RATIO = 1.05
SEED_STABILITY_RATIO = 2.0

_RATIO_CONVENTIONS = {
    "exact-route": EXACT_ROUTE_RATIO,
    "seed-stability": SEED_STABILITY_RATIO,
}

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


def _provenance(**kwargs) -> dict:
    out = {"version": __version__, "ratio_conventions": dict(_RATIO_CONVENTIONS)}
    out.update(kwargs)
    return out


# ---------------------------------------------------------------------------
# scale-uniformity of operator norms on canonical blocks


_K_RANGE = (-6, 6)
#: dyadic shells (2^j_min, 2^(j_max+1)] of the grid the covariant operators are measured on
_BLOCK_SHELLS = (-40, 40)


def _block_values(op: str, f: PiecewiseConstant1D, k: int):
    """op applied to the block f at scale k, as (values, nodes, weights).

    hilbert, hilbert_maximal, carleson and hl_maximal (the exact maximal
    evaluator) are measured on quadrature grids and schedules scaled by 2^k,
    so their scale invariance is isolated from discretization choices;
    dirichlet_sn at N = 1 is measured on an absolute oscillation-resolving
    grid because no scaled grid is faithful to a fixed-frequency cutoff.
    """
    if op == "dirichlet_sn":
        edges = oscillation_edges(f.breakpoints, 1024.0, 1.0 / 8.0)
        x, w = panel_nodes(edges, 4)
        return dirichlet_sn(f, 1.0, x), x, w
    x, w = shell_grid(*_BLOCK_SHELLS, 24)
    x, w = np.ldexp(x, k), np.ldexp(w, k)  # scaled by 2^k, bit-exactly
    if op == "hilbert":
        vals = hilbert(f, x)
    elif op == "hilbert_maximal":
        eps_sched = np.ldexp(geometric_schedule(2.0 ** -6, 4.0), k)
        vals = hilbert_maximal(f, eps_sched, x)
    elif op == "carleson":
        n_sched = np.ldexp(geometric_schedule(2.0 ** -4, 2.0 ** 6), -k)
        vals = carleson(f, n_sched, x)
    elif op == "hl_maximal":
        vals = maximal_1d_exact(f, x)
    else:
        raise ValueError(f"unknown block-uniformity operator {op!r}")
    return vals, x, w


def _block_norm(op: str, params: WeightParams, k: int) -> float:
    """Weighted norm of op applied to the indicator block at scale k."""
    f = make_canonical_block(params, k).data
    return weighted_norm_from_samples(*_block_values(op, f, k), params.p, params.alpha)


_BLOCK_GRID = (WeightParams(1, 1.0, 2.0, -0.5), WeightParams(1, 0.5, 2.0, -0.75))
_BLOCK_OPS = ("hilbert", "hilbert_maximal", "carleson", "dirichlet_sn", "hl_maximal")


def _uniform_block_bound(seed: int) -> VerificationReport:
    """Max/min ratio of weighted operator norms of indicator blocks over scales k = -6..6.

    hilbert, hilbert_maximal, carleson and dirichlet_sn (at N = 1) are
    measured at (p, s, alpha) = (1, 2, -1/2) and (1/2, 2, -3/4), hl_maximal
    at the first point only.  At each scale an operator is applied once per
    distinct block and weighed at every point.  Parameters outside the main
    range give an out-of-hypothesis verdict; the seed is only echoed.
    """
    ks = list(range(_K_RANGE[0], _K_RANGE[1] + 1))
    sub, measurements, verdicts = [], {}, []
    for op in _BLOCK_OPS:
        # hl_maximal (the key still names the Hardy-Littlewood operator it
        # measures) keeps its one point: benchmark references compare each
        # claim's verdict list, so a new key or verdict would not match them
        grid = _BLOCK_GRID[:1] if op == "hl_maximal" else _BLOCK_GRID
        norms: list[list[float]] = [[] for _ in grid]
        for k in ks:
            values: dict = {}  # block -> its _block_values, at this scale only
            for params, row in zip(grid, norms):
                f = make_canonical_block(params, k).data
                if f not in values:
                    values[f] = _block_values(op, f, k)
                row.append(weighted_norm_from_samples(*values[f], params.p, params.alpha))
        for params, row in zip(grid, norms):
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
        provenance=_provenance(seed=seed),
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
        provenance=_provenance(
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
    hf = lambda x: hilbert(f, x)
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
        provenance=_provenance(
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
    terms = [t for d in decompose_split(f, params, cuts) for t in d.terms]
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

    x, w = shell_grid(-20, 5, 16)
    bps = set(f.breakpoints)
    for d in decomps.values():
        for t in d.terms:
            bps.update(t.block.data.breakpoints)
    sing = np.asarray(sorted(bps))
    r = max(pv_exclusion_radius(t.block.data) for d in decomps.values() for t in d.terms)
    keep = nearest_breakpoint(x, sing)[1] > r
    x, w = x[keep], w[keep]

    def apply_terms(d: Decomposition) -> np.ndarray:
        out = np.zeros_like(x)
        for t in d.terms:
            out += t.lam * hilbert(t.block.data, x)
        return out

    direct = hilbert(f, x)
    denom = weighted_norm_from_samples(direct, x, w, params.p, params.alpha)
    routed = {name: apply_terms(d) for name, d in decomps.items()}
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
        provenance=_provenance(
            op="hilbert", seeds=list(seeds), N=4.0, grid="shells [-20,5], 16 nodes"
        ),
    )


# ---------------------------------------------------------------------------
# norm convergence of partial sums


_X_MAX = 256.0

#: quadrature panels of e(N) evaluated at once, which bounds its working set
_E_PANELS = 1 << 14


def partial_sum_error_norm(f: PiecewiseConstant1D, params: WeightParams, N: float) -> float:
    """e(N) = weighted norm of S_N f - f on [-256, 256].

    Panels resolve both the oscillation (spacing 1/(4N)) and the weight
    singularity at 0 (geometric grading to 2^-40), with 4 Gauss-Legendre
    nodes each; the domain truncation is the one documented approximation.
    The panels are evaluated _E_PANELS at a time into one array of terms,
    summed once, so memory stays bounded as N grows.
    """
    if not N > 0:
        raise ValueError(f"N must be positive, got {N}")
    edges = oscillation_edges(f.breakpoints, _X_MAX, 1.0 / (4.0 * N))
    terms = np.empty(4 * (edges.size - 1))
    for i in range(0, edges.size - 1, _E_PANELS):
        x, w = panel_nodes(edges[i : i + _E_PANELS + 1], 4)
        diff = dirichlet_sn(f, N, x) - f(x)
        terms[4 * i : 4 * i + x.size] = weighted_power_terms(diff, x, w, params.p, params.alpha)
    return float(np.sum(terms)) ** (1.0 / params.p)


def _norm_convergence() -> VerificationReport:
    """e(N) = ||S_N f - f|| for N = 1, 2, ..., 2^10: eventually decreasing, small terminal ratio.

    f = indicator(1/4, 1/2) and (n, p, s, alpha) = (1, 1, 2, -1/2), inside the
    hypotheses -1 < alpha < p - 1, p <= s of the convergence claim.
    """
    f = PiecewiseConstant1D.indicator(0.25, 0.5)
    params = WeightParams(1, 1.0, 2.0, -0.5)
    sched = 2.0 ** np.arange(0, 11)
    errs = np.array([partial_sum_error_norm(f, params, N) for N in sched])
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
        provenance=_provenance(
            f={"breakpoints": list(f.breakpoints), "values": list(f.values)},
            N_schedule=[float(N) for N in sched],
            x_max=_X_MAX,
            quadrature="panels at spacing 1/(4N), geometric grading to 2^-40 at 0, 4-node GL",
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
        provenance=_provenance(
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
                get = lambda f: decompose_nonhomogeneous(f.dilate(4.0), params).coefficient_cost / (
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
        provenance=_provenance(seeds=seeds, legs=list(legs), pieces=8),
    )


# ---------------------------------------------------------------------------
# dispatch


#: claim id -> harness for one seed, in report order
_HARNESSES = {
    "2.1": lambda seed: _inclusions("2.1"),
    "2.2": lambda seed: _inclusions("2.2"),
    "3.1": _uniform_block_bound,
    "4.1": lambda seed: _maximal_sharpness(),
    "5.2": lambda seed: _hilbert_sharpness(),
    "5.3": _decomposition_independence,
    "6.1.pointwise": lambda seed: _pointwise_convergence(),
    "6.3": lambda seed: _norm_convergence(),
}

THEOREM_IDS = tuple(_HARNESSES)


def run_theorem(theorem: str, seed: int = 0) -> VerificationReport:
    """Run the harness registered for one claim id."""
    if theorem not in _HARNESSES:
        raise ValueError(f"unknown theorem id {theorem!r}; known: {', '.join(THEOREM_IDS)}")
    return _HARNESSES[theorem](seed)


def run_all(seed: int = 0) -> dict[str, VerificationReport]:
    """All registered harnesses, in a fixed order, deterministically."""
    return {tid: run_theorem(tid, seed) for tid in THEOREM_IDS}
