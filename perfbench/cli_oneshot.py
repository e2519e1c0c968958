"""cli-oneshot workload: a fixed script of short CLI runs, one interpreter each.

The package has no `__main__`, so each run is
`python -c "from blockspaces.cli import main; ..."` with the CLI arguments,
started after the previous one exits (closed loop, one client).  The script
is the README's CLI examples verbatim (bar the 38 s `verify --theorem all`,
which verify-all covers) plus small specs seeded from the benchmark seed.
Every run is checked after it exits, outside its timed span: exit code
against the documented contract, and values against closed forms or the
oracles.  The README's `apply --op sn ... --grid=-1:1:201` exits 4 at
commit ad40fe9, although S_N is entire; it stays in the script verbatim and
counts as a failed operation until the CLI is fixed.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import common
import oracles
import verify_all

RUN_CODE = "import sys; from blockspaces.cli import main; sys.exit(main(sys.argv[1:]))"
TRACED_CODE = (
    "import sys; sys.path.insert(0, {bench!r}); import tracer; t = tracer.install(); "
    "from blockspaces.cli import main\n"
    "with t.span('cli.' + sys.argv[2]): rc = main(sys.argv[2:])\n"
    "t.dump(__import__('pathlib').Path(sys.argv[1])); sys.exit(rc)"
)

BALL = {"type": "indicator", "a": -1.0, "b": 1.0}
STEP = {"type": "indicator", "a": 1.0, "b": 2.0}
QUARTER = {"type": "indicator", "a": -0.25, "b": 0.25}
#: carleson's default refinement cap, which the CLI keeps
CARLESON_REFINEMENT_CAP = 8
#: claim 3.1's tolerance for max/min block norms of a dilation-covariant operator
DILATION_RATIO = 1.05


@dataclass
class Invocation:
    name: str
    argv: list[str]
    expected_code: int
    check: Callable[[Path], str | None] | None = None


def _spec_arrays(spec: dict):
    if spec.get("type") == "indicator":
        return [spec["a"], spec["b"]], [spec.get("value", 1.0)]
    return spec["breakpoints"], spec["values"]


def _load(path: Path):
    return json.loads(path.read_text())


def _rows(path: Path) -> list[tuple[float, float]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return [(float(a), float(b)) for a, b in rows]


# -- checks -------------------------------------------------------------------------


def check_norm(spec, p, alpha, exact=None):
    bps, vals = _spec_arrays(spec)

    def check(d: Path):
        rep = _load(d / "norm.json")
        want = exact if exact is not None else oracles.weighted_norm(bps, vals, p, alpha)
        got = rep["norm"]
        if exact is not None and got != exact:
            return f"norm {got!r}, closed form {exact!r} exactly"
        if not abs(got - want) <= 1e-12 * want:
            return f"norm {got!r}, closed form {want!r}"
        if not abs(rep["profile"]["total"] - want ** p) <= 1e-12 * want ** p:
            return f"profile total {rep['profile']['total']!r} != norm^p {want ** p!r}"
        return None

    return check


def check_decompose(spec, route):
    bps, vals = _spec_arrays(spec)

    def check(d: Path):
        rep = _load(d / "decompose.json")
        terms = [(t["lambda"], t["block"]["breakpoints"], t["block"]["values"]) for t in rep["terms"]]
        if rep["residual"] is not None:
            terms.append((1.0, rep["residual"]["breakpoints"], rep["residual"]["values"]))
        err, budget = oracles.synthesis_error(terms, bps, vals)
        if not err <= budget:
            return f"{route}: terms synthesize f with error {err:.3g} > {budget:.3g}"
        pbar = min(rep["params"]["p"], 1.0)
        ceiling = rep["coefficient_cost"] ** (1.0 / pbar)
        bound = rep["quasinorm_upper_bound"]
        if route == "upper-bound" and not 0.0 < bound <= ceiling * (1.0 + 1e-12):
            return f"upper bound {bound!r} not in (0, {ceiling!r}]"
        return None

    return check


def check_apply(spec, op):
    bps, vals = _spec_arrays(spec)

    def check(d: Path):
        rep = _load(d / "apply.json")
        xs, got, sched = rep["grid"], np.asarray(rep["values"]), rep["schedule"]
        if op == "sn":
            want, budget = oracles.partial_sum(bps, vals, sched[0], xs)
            bad = np.abs(got - want) > budget
            return f"sn off sici at {int(bad.sum())} points" if bad.any() else None
        if op == "carleson":
            lo, hi = oracles.carleson_bounds(bps, vals, sched, CARLESON_REFINEMENT_CAP, xs)
            ok = np.all(got >= lo) and np.all(got <= hi)
            return None if ok else "carleson outside its sici bounds"
        for x, g in zip(xs, got):
            if op == "maximal":
                want, budget = oracles.maximal(bps, vals, x), 1e-12 * abs(g)
            elif op == "hilbert":
                want, budget = oracles.hilbert(bps, vals, x)
            elif op == "hilbert_truncated":
                want, budget = oracles.hilbert_truncated(bps, vals, sched[0], x)
            else:
                want, budget = oracles.hilbert_maximal(bps, vals, sched, x)
            if not abs(g - want) <= budget:
                return f"{op} at x={x!r}: {g!r} vs oracle {want!r}"
        return None

    return check


def check_verify(tid, vseed, out="verify"):
    ref = _load(verify_all.reference_dir(vseed) / f"claim.{tid}.json")

    def check(d: Path):
        rep = _load(d / f"{out}.json")
        if verify_all._verdicts(rep) != verify_all._verdicts(ref):
            return f"verify {tid} verdicts differ from the reference"
        return None

    return check


def check_e_of_n(schedule):
    def check(d: Path):
        rows = _rows(d / "sweep.csv")
        if [r[0] for r in rows] != list(schedule):
            return f"e-of-N rows {rows!r} do not follow the schedule {schedule}"
        if not all(math.isfinite(e) and e > 0.0 for _, e in rows):
            return f"e-of-N errors not finite and positive: {rows!r}"
        return None

    return check


def check_hilbert_sweep(d: Path):
    norms = [v for _, v in _rows(d / "sweep.csv")]
    # H commutes with dilation: block norms agree across scales (claim 3.1's exact-route ratio)
    ratio = max(norms) / min(norms)
    return None if ratio < DILATION_RATIO else f"hilbert block norms vary by {ratio}"


# -- the script ---------------------------------------------------------------------


def seeded_spec(rng) -> dict:
    while True:
        bps = np.unique(rng.integers(-64, 65, size=7)) / 64.0
        vals = rng.integers(-8, 9, size=bps.size - 1) / 4.0
        if bps.size >= 4 and np.any(vals != 0.0):
            return {"breakpoints": bps.tolist(), "values": vals.tolist()}


def _grid_arg(xs) -> str:
    return "--grid=" + ",".join(repr(float(x)) for x in xs)


def build_script(seed: int) -> tuple[list[Invocation], dict]:
    rng = np.random.default_rng(seed)
    rand = seeded_spec(rng)
    # half-steps of 1/64 never meet the spec's breakpoints, which sit on 1/64 steps
    grid = (rng.choice(np.arange(-160, 160), size=16, replace=False) + 0.5) / 64.0
    vseed = verify_all.verify_seed(seed)
    specs = {"ball.json": BALL, "step.json": STEP, "quarter.json": QUARTER, "rand.json": rand}
    g = _grid_arg(np.sort(grid))
    g4 = _grid_arg(np.sort(grid)[::4])
    script = [
        # README examples, verbatim
        Invocation("readme-norm", ["norm", "--input", "ball.json", "--params", "1,1,2,0"], 0,
                   check_norm(BALL, 1.0, 0.0, exact=2.0)),
        Invocation("readme-norm-frac", ["norm", "--input", "ball.json", "--params", "1,1/2,2,-3/4"], 0,
                   check_norm(BALL, 0.5, -0.75)),
        Invocation("readme-decompose", ["decompose", "--input", "ball.json", "--params", "1,1,2,0", "--op", "upper-bound"], 0,
                   check_decompose(BALL, "upper-bound")),
        # the grid meets the jumps at +-1, where the principal value is undefined: exit 4
        Invocation("readme-apply-hilbert", ["apply", "--input", "ball.json", "--op", "hilbert", "--grid=-4:4:33"], 4),
        Invocation("readme-apply-carleson", ["apply", "--input", "step.json", "--op", "carleson", "--grid", "3/2:3/2:1"], 0,
                   check_apply(STEP, "carleson")),
        # S_N is entire, so the jumps are admissible abscissae: exit 0 is correct
        Invocation("readme-apply-sn", ["apply", "--input", "ball.json", "--op", "sn", "--schedule", "16", "--grid=-1:1:201"], 0,
                   check_apply(BALL, "sn")),
        Invocation("readme-verify-4.1", ["verify", "--theorem", "4.1", "--out", "v41"], 0,
                   check_verify("4.1", 0, out="v41")),
        Invocation("readme-sweep-e", ["sweep", "--op", "e-of-N", "--input", "quarter.json", "--params", "1,1,2,-1/2", "--schedule", "1,4,16"], 0,
                   check_e_of_n((1.0, 4.0, 16.0))),
        Invocation("readme-sweep-hilbert", ["sweep", "--op", "hilbert", "--params", "1,1,2,-1/2", "--schedule=-2,0,2"], 0,
                   check_hilbert_sweep),
        # seeded specs
        Invocation("norm", ["norm", "--input", "rand.json", "--params", "1,1,2,-1/2"], 0,
                   check_norm(rand, 1.0, -0.5)),
    ]
    for route in ("nonhomogeneous", "homogeneous", "upper-bound"):
        script.append(Invocation(
            f"decompose-{route}",
            ["decompose", "--input", "rand.json", "--params", "1,1,2,-1/2", "--op", route], 0,
            check_decompose(rand, route),
        ))
    for op, extra, grid_arg in (
        ("hilbert", [], g),
        ("hilbert_truncated", [], g),
        ("hilbert_maximal", [], g),
        ("sn", ["--schedule", "4"], g),
        # a tolerance above any change one refinement can make: exactly one refinement
        ("carleson", ["--tolerance", "100"], g4),
        ("maximal", [], g),
    ):
        script.append(Invocation(
            f"apply-{op}", ["apply", "--input", "rand.json", "--op", op, *extra, grid_arg], 0,
            check_apply(rand, op),
        ))
    script += [
        Invocation("sweep-e", ["sweep", "--op", "e-of-N", "--input", "rand.json", "--params", "1,1,2,0", "--schedule", "1,8"], 0,
                   check_e_of_n((1.0, 8.0))),
        Invocation("verify-2.2", ["verify", "--theorem", "2.2"], 0, check_verify("2.2", 0)),
        Invocation("verify-5.2", ["verify", "--theorem", "5.2"], 0, check_verify("5.2", 0)),
        Invocation("verify-5.3", ["verify", "--theorem", "5.3", "--seed", str(vseed)], 0,
                   check_verify("5.3", vseed)),
    ]
    return script, specs


def run_invocation(inv: Invocation, index: int, specs: dict, tag: str, trace_path: Path | None):
    """Run one invocation in a fresh directory: (child run, failure or None).

    A failure is (wrong output?, description): an unexpected exit code is a
    failed run; exit 0 with values off their oracle is a wrong output.
    """
    d = common.WORK / "cli" / tag / f"{index:02d}-{inv.name}"
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    for name, spec in specs.items():
        (d / name).write_text(json.dumps(spec))
    if trace_path is None:
        argv = common.python_argv("-c", RUN_CODE, *inv.argv)
    else:
        code = TRACED_CODE.format(bench=str(common.BENCH_DIR))
        argv = common.python_argv("-c", code, str(trace_path), *inv.argv)
    run = common.spawn(argv, d, f"cli-{tag}")
    if run.code != inv.expected_code:
        return run, (False, f"{inv.name}: exit {run.code}, expected {inv.expected_code}: {run.stderr.strip()[-300:]}")
    if run.code == 0 and inv.check is not None:
        try:
            note = inv.check(d)
        except (OSError, KeyError, ValueError, TypeError) as exc:
            note = f"unreadable output: {type(exc).__name__}: {exc}"
        if note:
            return run, (True, f"{inv.name}: {note}")
    return run, None
