"""large-input workload: dense operator kernels and decompositions on ~1k pieces.

One interpreter builds a seeded random function with PIECES pieces whose
breakpoints spread log-uniformly over the dyadic shells 2^-6 < |x| < 2^8,
and seeded evaluation points over the same range.  Each pass runs two
stages:

* operators: EvalGrid.filtered and hilbert on HILBERT_POINTS points,
  hilbert_truncated, hilbert_maximal, dirichlet_sn at frequencies whose Si
  arguments all fall in the small branch (|t| <= 8, the branch verify-all
  uses least), carleson with refinement on a small grid, and
  maximal_1d_exact;
* decompositions: weighted_lp_norm, norm_profile, decompose_nonhomogeneous
  and rl_norm_upper_bound(strategy="greedy+perturbations").

The dense kernels build points x breakpoints matrices: HILBERT_POINTS x
(PIECES + 1) doubles is 403 MB, 3.8 times the 105 MB last-level cache of
the machine the sizes were chosen on; a pass peaks near 0.9 GB RSS.
Outputs of the first pass are checked against the oracles outside the timed
region; later passes must reproduce them bit for bit.
"""

from __future__ import annotations

import argparse
import contextlib
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import common
import oracles

PIECES = 1024
SHELLS = (-6, 8)
HILBERT_POINTS = 49152
TRUNCATED_POINTS = 4096
TRUNCATED_EPS = 2.0 ** -4
MAXIMAL_EPS = tuple(2.0 ** k for k in range(2, -7, -1))
MAXIMAL_POINTS = 512
# 2 pi N |x - b| <= 2 pi 2^-9 2^9 < 8: every Si argument in the small branch
SN_FREQUENCIES = (2.0 ** -10, 2.0 ** -9)
SN_POINTS = 2048
CARLESON_SCHEDULE = tuple(2.0 ** (k / 2.0) for k in range(-12, -7))
CARLESON_POINTS = 16
# below any change a refinement makes, so every seed refines to the cap
CARLESON_TOLERANCE = 1e-15
CARLESON_MAX_REFINEMENTS = 2
EXACT_MAXIMAL_POINTS = 24
PARAMS = (1, 1.0, 2.0, -0.5)  # (n, p, s, alpha)
# fixed, so the number of perturbation cuts (and the work) is the same for every seed
RL_SEED = 0
CHECK_POINTS = 24
# the first pass runs cold; with three or more the per-operation median is a warm pass
MIN_PASSES = 3


def piece_midpoints(bps: np.ndarray, count: int) -> np.ndarray:
    """Midpoints of `count` pieces at evenly spaced piece indices.

    The work of carleson and maximal_1d_exact at x grows with the breakpoints
    on each side of x; fixed piece ranks keep it the same for every seed.
    """
    idx = np.linspace(0, bps.size - 2, count).round().astype(int)
    return 0.5 * (bps[idx] + bps[idx + 1])


def make_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)

    def spread(count):
        mags = np.exp2(rng.uniform(SHELLS[0], SHELLS[1], size=count))
        return mags * rng.choice((-1.0, 1.0), size=count)

    bps = np.unique(spread(PIECES + 1))
    while bps.size < PIECES + 1:
        bps = np.unique(np.concatenate([bps, spread(PIECES + 1 - bps.size)]))
    vals = np.round(rng.standard_normal(PIECES), 6)
    return {
        "bps": bps,
        "vals": vals,
        "hilbert_x": spread(HILBERT_POINTS),
        "truncated_x": spread(TRUNCATED_POINTS),
        "maximal_x": spread(MAXIMAL_POINTS),
        "sn_x": spread(SN_POINTS),
        "carleson_x": piece_midpoints(bps, CARLESON_POINTS),
        "exact_x": piece_midpoints(bps, EXACT_MAXIMAL_POINTS),
    }


def _carleson(bs, f, inp, out):
    return bs.carleson(
        f,
        np.array(CARLESON_SCHEDULE),
        inp["carleson_x"],
        refine_tolerance=CARLESON_TOLERANCE,
        max_refinements=CARLESON_MAX_REFINEMENTS,
    )


def _params(bs):
    return bs.WeightParams(*PARAMS)


# (output name, stage, call): one pass runs them in order; each is one operation
OPERATIONS = (
    ("grid", "operators", lambda bs, f, inp, out: bs.EvalGrid.filtered(f, inp["hilbert_x"])),
    ("hilbert", "operators", lambda bs, f, inp, out: bs.hilbert(f, out["grid"])),
    ("hilbert_truncated", "operators",
     lambda bs, f, inp, out: bs.hilbert_truncated(f, TRUNCATED_EPS, inp["truncated_x"])),
    ("hilbert_maximal", "operators",
     lambda bs, f, inp, out: bs.hilbert_maximal(f, np.array(MAXIMAL_EPS), inp["maximal_x"])),
    *(
        (f"dirichlet_sn{i}", "operators", lambda bs, f, inp, out, N=N: bs.dirichlet_sn(f, N, inp["sn_x"]))
        for i, N in enumerate(SN_FREQUENCIES)
    ),
    ("carleson", "operators", _carleson),
    ("maximal_1d_exact", "operators", lambda bs, f, inp, out: bs.maximal_1d_exact(f, inp["exact_x"])),
    ("weighted_lp_norm", "decompositions",
     lambda bs, f, inp, out: bs.weighted_lp_norm(f, PARAMS[1], PARAMS[3])),
    ("norm_profile", "decompositions", lambda bs, f, inp, out: bs.norm_profile(f, _params(bs), SHELLS)),
    ("decompose_nonhomogeneous", "decompositions",
     lambda bs, f, inp, out: bs.decompose_nonhomogeneous(f, _params(bs))),
    ("rl_norm_upper_bound", "decompositions",
     lambda bs, f, inp, out: bs.rl_norm_upper_bound(
         f, _params(bs), strategy="greedy+perturbations", seed=RL_SEED)),
)
STAGES = ("operators", "decompositions")


def run_stages(bs, f, inp, tracer=None) -> tuple[dict, dict, dict]:
    """One pass: outputs, seconds and errors per operation.

    An operation that raises has output None and an error; operations that
    need its output then fail too.  Each stage is its own trace group.
    """
    out, seconds, errors = {}, {}, {}
    for stage in STAGES:
        span = tracer.span(f"stage.{stage}") if tracer is not None else contextlib.nullcontext()
        with span:
            for name, op_stage, call in OPERATIONS:
                if op_stage != stage:
                    continue
                t0 = time.perf_counter()
                try:
                    out[name] = call(bs, f, inp, out)
                except Exception as exc:  # a raising operation is a failed one
                    out[name] = None
                    errors[name] = f"{type(exc).__name__}: {exc}"
                seconds[name] = time.perf_counter() - t0
        if tracer is not None:
            tracer.group += 1
    return out, seconds, errors


def stage_seconds(passes: list[dict], stage: str | None = None) -> float:
    """Sum over operations of each one's median time across passes."""
    return sum(
        statistics.median(p[name] for p in passes)
        for name, op_stage, _ in OPERATIONS
        if stage in (None, op_stage)
    )


def pairs_per_pass(inp: dict, grid_points: int, carleson_sizes: list[int]) -> int:
    """Points x breakpoints (x pieces for the truncations) of one operator stage.

    carleson counts every S_N it evaluates under the refinement schedule of
    the seed algorithm, worked out by the oracle.
    """
    nb, npieces = inp["bps"].size, inp["vals"].size
    return (
        grid_points * nb
        + TRUNCATED_POINTS * npieces
        + len(MAXIMAL_EPS) * MAXIMAL_POINTS * npieces
        + len(SN_FREQUENCIES) * SN_POINTS * nb
        + sum(carleson_sizes) * CARLESON_POINTS * nb
    )


# -- checks ----------------------------------------------------------------------


def _subsample(n: int, rng) -> np.ndarray:
    return np.sort(rng.choice(n, size=min(CHECK_POINTS, n), replace=False))


def nearest_distance(bps: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Distance from each x to the nearest of the sorted bps, in O(len(x)) memory."""
    right = np.searchsorted(bps, x).clip(1, bps.size - 1)
    return np.minimum(np.abs(x - bps[right - 1]), np.abs(x - bps[right]))


def check(inp: dict, out: dict, seed: int) -> dict:
    """{operation: failure note} for the first pass's outputs that ran."""
    bps, vals = inp["bps"], inp["vals"]
    rng = np.random.default_rng(seed + 1)
    notes = {}

    def pointwise(name, xs, oracle):
        got = out[name]
        for i in _subsample(len(xs), rng):
            want, budget = oracle(float(xs[i]))
            if not abs(float(got[i]) - want) <= budget:
                notes[name] = f"{name} at x={xs[i]!r}: {got[i]!r} vs oracle {want!r} (budget {budget:.3g})"
                return

    def ran(*names):
        return all(out.get(name) is not None for name in names)

    if ran("grid"):
        grid = np.asarray(out["grid"].points)
        radius = 2.0 ** -20 * float(np.min(np.diff(bps)))
        dist = nearest_distance(bps, inp["hilbert_x"])
        if not np.array_equal(grid, inp["hilbert_x"][dist > radius]):
            notes["grid"] = "EvalGrid.filtered kept another point set than the exclusion radius allows"
        if ran("hilbert"):
            pointwise("hilbert", grid, lambda x: oracles.hilbert(bps, vals, x))
    if ran("hilbert_truncated"):
        pointwise(
            "hilbert_truncated", inp["truncated_x"],
            lambda x: oracles.hilbert_truncated(bps, vals, TRUNCATED_EPS, x),
        )
    if ran("hilbert_maximal"):
        pointwise(
            "hilbert_maximal", inp["maximal_x"],
            lambda x: oracles.hilbert_maximal(bps, vals, MAXIMAL_EPS, x),
        )
    for k, N in enumerate(SN_FREQUENCIES):
        name = f"dirichlet_sn{k}"
        idx = _subsample(SN_POINTS, rng)
        if ran(name):
            want, budget = oracles.partial_sum(bps, vals, N, inp["sn_x"][idx])
            bad = np.abs(out[name][idx] - want) > budget
            if bad.any():
                notes[name] = f"dirichlet_sn(N={N}) off its sici oracle at {int(bad.sum())} points"
    if ran("carleson"):
        lo, hi = oracles.carleson_bounds(
            bps, vals, CARLESON_SCHEDULE, CARLESON_MAX_REFINEMENTS, inp["carleson_x"]
        )
        if not (np.all(out["carleson"] >= lo) and np.all(out["carleson"] <= hi)):
            notes["carleson"] = "carleson outside the sici bounds of its initial and fully refined schedules"
    if ran("maximal_1d_exact"):
        for i in _subsample(EXACT_MAXIMAL_POINTS, rng):
            x, got = float(inp["exact_x"][i]), out["maximal_1d_exact"][i]
            want = oracles.maximal(bps, vals, x)
            if not abs(got - want) <= 1e-12 * want:
                notes["maximal_1d_exact"] = f"maximal_1d_exact at x={x!r}: {got!r} vs {want!r}"
                break

    _, p, _, alpha = PARAMS
    norm = oracles.weighted_norm(bps, vals, p, alpha)
    if ran("weighted_lp_norm") and not abs(out["weighted_lp_norm"] - norm) <= 1e-12 * norm:
        notes["weighted_lp_norm"] = f"weighted_lp_norm {out['weighted_lp_norm']!r} vs closed form {norm!r}"
    if ran("norm_profile"):
        prof = out["norm_profile"]
        shells_ok = all(
            abs(t.contribution - oracles.weighted_norm(bps, vals, p, alpha, 2.0 ** (t.k - 1), 2.0 ** t.k) ** p)
            <= 1e-12 * norm ** p
            for t in prof.terms
        )
        if not shells_ok or not abs(prof.total - norm ** p) <= 1e-12 * norm ** p:
            notes["norm_profile"] = "norm_profile shell contributions or total off the closed form"
    if ran("decompose_nonhomogeneous"):
        d = out["decompose_nonhomogeneous"]
        terms = [(t.lam, t.block.data.breakpoints, t.block.data.values) for t in d.terms]
        synth = d.synthesize()
        for label, parts in (("its terms", terms), ("synthesize()", [(1.0, synth.breakpoints, synth.values)])):
            err, budget = oracles.synthesis_error(parts, bps, vals)
            if not err <= budget:
                notes["decompose_nonhomogeneous"] = f"{label} differ from f by {err:.3g} > {budget:.3g}"
        if ran("rl_norm_upper_bound"):
            ceiling = d.coefficient_cost ** (1.0 / min(p, 1.0))
            bound = out["rl_norm_upper_bound"]
            if not 0.0 < bound <= ceiling * (1.0 + 1e-12):
                notes["rl_norm_upper_bound"] = f"rl_norm_upper_bound {bound!r} not in (0, {ceiling!r}]"
    return notes


def _fingerprint(value):
    if value is None:
        return None
    if isinstance(value, np.ndarray):
        return value.tobytes()
    if hasattr(value, "points"):
        return np.asarray(value.points).tobytes()
    return repr(value)


# -- worker -------------------------------------------------------------------------


def worker(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", default="")
    args = ap.parse_args(argv)

    start = time.perf_counter()
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.install()
    import blockspaces as bs

    ready = time.perf_counter()
    inp = make_inputs(args.seed)
    f = bs.PiecewiseConstant1D(inp["bps"], inp["vals"])
    passes, first, notes = [], None, []
    min_passes = 1 if args.trace else MIN_PASSES
    while len(passes) < min_passes or sum(sum(p.values()) for p in passes) < args.seconds:
        out, seconds, errors = run_stages(bs, f, inp, tracer)
        notes += [(False, f"pass {len(passes)}: {name} raised {msg}") for name, msg in errors.items()]
        passes.append(seconds)
        fingerprint = {k: _fingerprint(v) for k, v in out.items()}
        if first is None:
            first, first_print = out, fingerprint
        elif fingerprint != first_print:
            notes.append((True, f"pass {len(passes) - 1} did not reproduce the first pass bit for bit"))
    end = time.perf_counter()
    if tracer is not None:
        tracer.dump(Path(args.trace))

    carleson_sizes = oracles.refinement_schedule_sizes(
        inp["bps"], inp["vals"], CARLESON_SCHEDULE, CARLESON_TOLERANCE,
        CARLESON_MAX_REFINEMENTS, inp["carleson_x"],
    )
    notes += [(True, n) for n in check(inp, first, args.seed).values()]
    result = {
        "import_s": ready - start,
        "run_s": end - ready,
        "passes": passes,
        "attempted": len(passes) * len(OPERATIONS),
        "notes": notes,
        "pairs_per_pass": pairs_per_pass(inp, len(first["grid"].points if first["grid"] else ()), carleson_sizes),
        "carleson_schedule_sizes": carleson_sizes,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    common.write_json(Path(args.result), result)
    return 0


def run_worker(seed: int, seconds: float, tag: str, trace_path: Path | None = None):
    """Untraced: passes until `seconds`, at least MIN_PASSES; traced: one pass."""
    result_path = common.WORK / f"large-{tag}.json"
    argv = common.python_argv(
        str(common.BENCH_DIR / "large_input.py"),
        "--seed", str(seed), "--seconds", str(seconds), "--result", str(result_path),
    )
    if trace_path is not None:
        argv += ["--trace", str(trace_path)]
    run = common.spawn(argv, common.ROOT, f"large-{tag}")
    if run.code != 0:
        raise RuntimeError(f"large-input worker exited {run.code}:\n{run.stderr[-4000:]}")
    return run, common.read_json(result_path)


if __name__ == "__main__":
    sys.exit(worker())
