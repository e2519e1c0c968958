"""Command-line front end: norms, decompositions, operator runs, verification.

One binary, five subcommands (norm, decompose, apply, verify, sweep), JSON
reports plus CSV curves.  Exit codes are a stable contract:

    0  success (including divergent norms, which are data, not errors)
    2  input error: a malformed command line (argparse prints the usage line and
       names the flag), or a bad flag value or input file (`error: ...`)
    3  hypothesis violation (the named constraint is in the message)
    4  numerical-domain error (e.g. PV evaluation at a breakpoint, a norm out of float range)
    5  verification ran and an in-hypothesis check failed (report still written,
       each failed verdict named on stderr)

Every output embeds the subcommand, the flags given but --out, the version string
and the seed it read, so a report names everything needed to rerun it bit-identically.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from . import io as bsio
from ._version import __version__
from .params import _K_RANGE, THEOREM_IDS, DomainEvaluationError, HypothesisViolation, WeightParams

# each subcommand imports the modules it runs in its handler, so a run loads
# only those: norm adds norms, decompose blocks, apply operators, and only
# verify and sweep load the harnesses of verify


class InputError(ValueError):
    """Bad file or flag contents; mapped to exit code 2."""


@dataclass
class RunConfig:
    """Parsed invocation: each flag the command line gave, None for each it did not."""

    subcommand: str
    input: str | None = None
    params: WeightParams | None = None
    op: str | None = None
    theorem: str | None = None
    schedule: tuple[float, ...] | None = None
    grid: str | None = None
    seed: int | None = None
    out: str | None = None
    tolerance: float | None = None

    def provenance(self) -> dict:
        """The subcommand, the flags given but --out, the version, and the seed if one is read."""
        config = {
            k: v for k, v in vars(self).items() if v is not None and k not in ("subcommand", "out")
        }
        if self.params is not None:
            config["params"] = [1.0, self.params.p, self.params.s, self.params.alpha]
        sub = self.subcommand
        seed = {"seed": self.seed or 0} if "seed" in _SUBCOMMANDS[sub][2] else {}
        return {"subcommand": sub, "config": config, "version": __version__, **seed}


def _parse_number(text: str) -> float:
    # accepts "0.5" and "1/2" alike
    try:
        return float(Fraction(text.strip()))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise InputError(f"not a number: {text!r}") from exc


def parse_params(text: str) -> WeightParams:
    parts = text.split(",")
    if len(parts) != 4:
        raise InputError(f"--params wants n,p,s,alpha, got {text!r}")
    n, p, s, alpha = (_parse_number(t) for t in parts)
    if n != 1:
        raise InputError(
            f"--params n must be 1: every function here lives on the real line, got n={n:g}"
        )
    return WeightParams(1, p, s, alpha)


def parse_schedule(text: str) -> tuple[float, ...]:
    if text.strip() == "":
        raise InputError("--schedule wants at least one level")
    return tuple(_parse_number(t) for t in text.split(","))


def parse_grid(text: str) -> np.ndarray:
    """Either "a:b:count" (inclusive linspace) or a comma list of points."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise InputError(f"--grid wants a:b:count, got {text!r}")
        a, b = _parse_number(parts[0]), _parse_number(parts[1])
        try:
            count = int(parts[2])
        except ValueError as exc:
            raise InputError(f"grid count must be an integer, got {parts[2]!r}") from exc
        if count < 1:
            raise InputError(f"grid count must be >= 1, got {count}")
        try:
            return np.linspace(a, b, count)
        except MemoryError as exc:
            raise InputError(f"--grid count {count} is more points than memory holds") from exc
    return np.asarray([_parse_number(t) for t in text.split(",")], dtype=float)


def _load_input(cfg: RunConfig):
    try:
        return bsio.load_function(cfg.input)
    except OSError as exc:
        raise InputError(f"cannot read {cfg.input}: {exc}") from exc
    except (json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
        raise InputError(f"bad function spec in {cfg.input}: {exc}") from exc


def _out_base(cfg: RunConfig) -> str:
    base = cfg.out if cfg.out is not None else cfg.subcommand
    for ext in (".json", ".csv"):
        if base.endswith(ext):
            base = base[: -len(ext)]
    return base


def _write(cfg: RunConfig, report: dict, rows=None, header=("x", "value")) -> str:
    """Write report plus cfg's provenance to <base>.json, and rows (if any) to <base>.csv."""
    base = _out_base(cfg)
    bsio.write_json(base + ".json", {**report, "provenance": cfg.provenance()})
    if rows is not None:
        bsio.write_csv(base + ".csv", rows, header=header)
    return base


# -- subcommands --------------------------------------------------------------


def cmd_norm(cfg: RunConfig) -> int:
    """weighted norm and per-shell profile of a function spec"""
    from .norms import norm_profile, weight_integral, weighted_lp_norm

    f, alpha = _load_input(cfg), cfg.params.alpha
    norm = weighted_lp_norm(f, cfg.params.p, alpha)
    # a finite norm past the float range is "inf" too; the integral diverges
    # only where a nonzero piece has an infinite weight integral
    pieces = zip(f.breakpoints, f.breakpoints[1:], f.values)
    divergent = any(v != 0.0 and math.isinf(weight_integral(a, b, alpha)) for a, b, v in pieces)
    profile = norm_profile(f, cfg.params, _K_RANGE)
    report = bsio.jsonsafe(
        {
            "norm": norm,
            "divergent": divergent,
            "profile": {
                "terms": [asdict(t) for t in profile.terms],
                "remainder": profile.remainder,
                "total": profile.total,
            },
        }
    )
    print(f"norm {report['norm']} -> {_write(cfg, report)}.json")
    return 0


#: the innermost shell k of a homogeneous decomposition; f inside 2^(k - 1) is its residual
_HOMOGENEOUS_K_MIN = -12


def cmd_decompose(cfg: RunConfig) -> int:
    """split a function into scaled blocks and report the cost"""
    from .blocks import decompose_homogeneous, decompose_nonhomogeneous, rl_norm_upper_bound

    f, params = _load_input(cfg), cfg.params
    if cfg.op == "homogeneous":
        dec = decompose_homogeneous(f, params, _HOMOGENEOUS_K_MIN)
    else:
        dec = decompose_nonhomogeneous(f, params)
    report = bsio.decomposition_to_dict(dec)
    if cfg.op == "upper-bound":
        report["quasinorm_upper_bound"] = rl_norm_upper_bound(f, params)
    elif dec.residual_norm == 0.0:
        report["quasinorm_upper_bound"] = dec.coefficient_cost ** (1.0 / params.pbar)
    else:
        # a nonzero residual means the listed terms alone do not synthesize f
        report["quasinorm_upper_bound"] = None
    base = _write(cfg, report)
    print(f"{len(dec.terms)} terms, cost {dec.coefficient_cost} -> {base}.json")
    return 0


#: operator -> (default levels: none, one, or the (lo, hi) of a sup's geometric_schedule;
#: evaluation on (the operators module, f, levels, points, tolerance))
_APPLY_OPS = {
    "hilbert": ((), lambda op, f, s, x, t: op.hilbert(f, x)),
    "hilbert_truncated": ((0.25,), lambda op, f, s, x, t: op.hilbert_truncated(f, s[0], x)),
    "hilbert_maximal": ((2.0**-6, 4.0), lambda op, f, s, x, t: op.hilbert_maximal(f, s, x)),
    "sn": ((8.0,), lambda op, f, s, x, t: op.dirichlet_sn(f, s[0], x)),
    "carleson": (
        (0.25, 64.0),
        lambda op, f, s, x, t: op.carleson(f, s, x, refine_tolerance=1e-8 if t is None else t),
    ),
    "maximal": ((), lambda op, f, s, x, t: op.maximal_1d_exact(f, x)),
}


def cmd_apply(cfg: RunConfig) -> int:
    """evaluate an operator on a grid, emit CSV + JSON"""
    from . import operators

    f = _load_input(cfg)
    points = parse_grid(cfg.grid)
    default, evaluate = _APPLY_OPS[cfg.op]
    if len(default) == 2:
        default = tuple(operators.geometric_schedule(*default))
    schedule = cfg.schedule or default
    # an operator with a one-level default reads exactly one level
    if len(default) == 1 and len(schedule) != 1:
        raise InputError(f"{cfg.op} needs one level in --schedule, got {len(schedule)}")
    values = evaluate(operators, f, schedule, points, cfg.tolerance)
    report = {
        "operator": cfg.op,
        "schedule": list(schedule),
        "grid": [float(x) for x in points],
        "values": [float(v) for v in values],
    }
    base = _write(cfg, report, rows=zip(points, values))
    print(f"{cfg.op} on {len(points)} points -> {base}.csv")
    return 0


def _report_curves(report_dict: dict) -> list[tuple[str, list]]:
    """The measurements that are curves: nonempty lists of [x, y] pairs, by name."""
    return [
        (k, v)
        for k, v in sorted(report_dict["measurements"].items())
        if isinstance(v, list) and v and all(isinstance(r, list) and len(r) == 2 for r in v)
    ]


def cmd_verify(cfg: RunConfig) -> int:
    """run a verification harness by claim id (or 'all')"""
    from .verify import run_theorem

    ids = THEOREM_IDS if cfg.theorem == "all" else (cfg.theorem,)
    base = _out_base(cfg)
    all_passed = True
    for tid in ids:
        report = run_theorem(tid, seed=cfg.seed or 0)
        rd = bsio.report_to_dict(report)
        rd["provenance"] = {**rd["provenance"], **cfg.provenance()}
        path = f"{base}.{tid}.json" if len(ids) > 1 else base + ".json"
        bsio.write_json(path, rd)
        for name, curve in _report_curves(rd):
            safe = re.sub(r"[^A-Za-z0-9._=-]+", "_", name)
            bsio.write_csv(f"{path[:-5]}.{safe}.csv", curve)
        flags = "" if not report.out_of_hypothesis else " (has out-of-hypothesis legs)"
        print(f"{tid}: {'pass' if report.passed else 'FAIL'}{flags} -> {path}")
        for v in report.verdicts:
            if v.passed is False and not v.out_of_hypothesis:
                detail = f"{v.measurement} = {v.value!r}, tolerance {v.tolerance!r}"
                print(f"{tid}: failed {v.criterion}: {detail}", file=sys.stderr)
        all_passed = all_passed and report.passed
    return 0 if all_passed else 5


def cmd_sweep(cfg: RunConfig) -> int:
    """emit a curve: e-of-N or a block-scale operator sweep"""
    from .verify import _block_norms, _partial_sum_error

    report = {}
    if cfg.op == "e-of-N":
        f, params = _load_input(cfg), cfg.params
        schedule = cfg.schedule or tuple(2.0**j for j in range(11))
        parts = [_partial_sum_error(f, params, N) for N in schedule]
        rows = [(N, total ** (1.0 / params.p)) for N, (total, _, _) in zip(schedule, parts)]
        header = ("N", "error_norm")
        # for alpha < p - 1 each row integrates on its near zone [-X_N, X_N] and adds the
        # tails past X_N in closed form.  Otherwise the tails diverge unless |S_N f - f| ~ C/|x|
        # cancels in its leading term, and X_N is 256, where the integral is cut
        report = {
            "near_zone_end": [x_n for _, x_n, _ in parts],
            "far_tails": params.alpha < params.p - 1,
            "in_main_range": params.in_main_range,
        }
    else:
        op = "dirichlet_sn" if cfg.op == "sn" else cfg.op
        schedule = cfg.schedule or range(_K_RANGE[0], _K_RANGE[1] + 1)
        ks = [int(x) for x in schedule]
        if any(float(k) != x for k, x in zip(ks, schedule)):
            raise InputError("block-scale sweep wants integer scales in --schedule")
        (norms,) = _block_norms(op, (cfg.params,), ks)
        rows = list(zip(ks, norms))
        header = ("k", "norm")
    base = _write(cfg, {"rows": len(rows), **report}, rows, header)
    print(f"{len(rows)} rows -> {base}.csv")
    return 0


# -- dispatch -----------------------------------------------------------------


#: subcommand -> (handler, whose docstring is its help, the flags it needs, the flags it may take)
_SUBCOMMANDS = {
    "norm": (cmd_norm, ("input", "params"), ("out",)),
    "decompose": (cmd_decompose, ("input", "params"), ("op", "out")),
    "apply": (cmd_apply, ("input", "op", "grid"), ("schedule", "tolerance", "out")),
    "verify": (cmd_verify, ("theorem",), ("seed", "out")),
    "sweep": (cmd_sweep, ("op", "params"), ("input", "schedule", "out")),
}

#: subcommand -> its --op routes (the first is taken without --op) -> the flags
#: that only this route reads; every other route exits 2 on them
_ROUTES = {
    "decompose": {"nonhomogeneous": (), "homogeneous": (), "upper-bound": ()},
    # an operator reads --schedule when it has default levels; only carleson reads --tolerance
    "apply": {
        op: ("schedule",) * bool(levels) + ("tolerance",) * (op == "carleson")
        for op, (levels, _) in _APPLY_OPS.items()
    },
    "sweep": {"e-of-N": ("input",), "hilbert": (), "hilbert_maximal": (), "carleson": (), "sn": ()},
}


def _route(sub: str, op: str | None) -> str:
    """The --op route a run of sub takes: op, or sub's first route without --op."""
    return op or next(iter(_ROUTES[sub]))


#: (subcommand, route) -> the route-only flags that route cannot run without
_ROUTE_NEEDS = {("sweep", "e-of-N"): ("input",)}

_FLAGS = {
    "input": {"help": "path to a function spec (JSON)"},
    "params": {"help": "n,p,s,alpha (fractions like 1/2 accepted)"},
    "op": {"help": "operator or route name"},
    "theorem": {"choices": (*THEOREM_IDS, "all"), "help": "claim id for verify, or 'all'"},
    "schedule": {"help": "comma list of levels (N, eps, or scales)"},
    "grid": {"help": "evaluation grid, a:b:count or comma list"},
    "seed": {"type": int},
    "out": {"help": "output path base (default: subcommand name)"},
    "tolerance": {"type": float, "help": "override the default tolerance"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockspaces",
        description="Weighted block-space norms, decompositions, and operator checks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (handler, needs, takes) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=handler.__doc__)
        for flag in needs + takes:
            spec = dict(_FLAGS[flag], required=flag in needs)
            if flag == "op":
                spec["choices"] = tuple(_ROUTES[name])
            # an absent flag stays out of the namespace and keeps its RunConfig default
            p.add_argument(f"--{flag}", default=argparse.SUPPRESS, **spec)
    return parser


def _parse_argv(argv=None) -> dict:
    """The parsed flags; exits 2 with a usage line on any flag the command line cannot take."""
    parser = build_parser()
    opts = vars(parser.parse_args(argv))
    # numpy's generators take no negative seed
    if opts.get("seed", 0) < 0:
        parser.error(f"argument --seed: wants a non-negative integer, got {opts['seed']}")
    if not 0 < opts.get("tolerance", 1) < math.inf:
        parser.error(f"argument --tolerance: wants a finite number > 0, got {opts['tolerance']}")
    sub = opts["subcommand"]
    routes = _ROUTES.get(sub)
    if routes:
        route = _route(sub, opts.get("op"))
        route_only = {flag for flags in routes.values() for flag in flags}
        for flag in sorted(route_only.difference(routes[route]).intersection(opts)):
            parser.error(f"{sub} --op {route} does not read --{flag}")
        for flag in set(_ROUTE_NEEDS.get((sub, route), ())).difference(opts):
            parser.error(f"{sub} --op {route} needs --{flag}")
    return opts


def main(argv=None) -> int:
    opts = _parse_argv(argv)
    try:
        for flag, parse in (("params", parse_params), ("schedule", parse_schedule)):
            if flag in opts:
                opts[flag] = parse(opts[flag])
        cfg = RunConfig(**opts)
        return _SUBCOMMANDS[cfg.subcommand][0](cfg)
    except HypothesisViolation as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 3
    except DomainEvaluationError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 4
    except ArithmeticError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        # InputError, and flag values that fail module preconditions (WeightParams, schedules)
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
