"""Command-line front end: norms, decompositions, operator runs, verification.

One binary, five subcommands (norm, decompose, apply, verify, sweep), JSON
reports plus CSV curves.  Exit codes are a stable contract:

    0  success (including divergent norms, which are data, not errors)
    2  input error: unparsable file/flag, unknown operator or claim id
    3  hypothesis violation (the named constraint is in the message)
    4  numerical-domain error (e.g. PV evaluation at a breakpoint)
    5  verification ran and an in-hypothesis check failed (report still written,
       each failed verdict named on stderr)

Every output embeds the parsed config, the seed, and the version string, so a
report names everything needed to rerun it bit-identically.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from . import io as bsio
from ._version import __version__
from .blocks import decompose_homogeneous, decompose_nonhomogeneous, rl_norm_upper_bound
from .norms import norm_profile, weighted_lp_norm
from .operators import (
    carleson,
    dirichlet_sn,
    geometric_schedule,
    hilbert,
    hilbert_maximal,
    hilbert_truncated,
    maximal_1d_exact,
)
from .params import DomainEvaluationError, HypothesisViolation, WeightParams
from .verify import THEOREM_IDS, _block_norm, partial_sum_error_norm, run_theorem


class InputError(ValueError):
    """Bad file or flag contents; mapped to exit code 2."""


@dataclass
class RunConfig:
    """Parsed invocation, echoed verbatim into every report's provenance."""

    subcommand: str
    input: str | None = None
    params: WeightParams | None = None
    op: str | None = None
    theorem: str | None = None
    schedule: tuple[float, ...] | None = None
    grid: str | None = None
    seed: int = 0
    out: str | None = None
    tolerance: float | None = None
    k_min: int = -12
    k_range: tuple[int, int] = (-6, 6)
    defaults_used: list = field(default_factory=list)

    def provenance(self) -> dict:
        cfg = asdict(self)
        cfg["params"] = (
            [1.0, self.params.p, self.params.s, self.params.alpha] if self.params else None
        )
        cfg["schedule"] = list(self.schedule) if self.schedule is not None else None
        return {"config": cfg, "seed": self.seed, "version": __version__}


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
    try:
        return WeightParams(1, p, s, alpha)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def parse_schedule(text: str) -> tuple[float, ...]:
    if text.strip() == "":
        return ()
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
        return np.linspace(a, b, count)
    return np.asarray([_parse_number(t) for t in text.split(",")], dtype=float)


def _load_input(cfg: RunConfig):
    if cfg.input is None:
        raise InputError(f"{cfg.subcommand} needs --input FILE")
    try:
        return bsio.load_function(cfg.input)
    except OSError as exc:
        raise InputError(f"cannot read {cfg.input}: {exc}") from exc
    except (json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
        raise InputError(f"bad function spec in {cfg.input}: {exc}") from exc


def _require_params(cfg: RunConfig) -> WeightParams:
    if cfg.params is None:
        raise InputError(f"{cfg.subcommand} needs --params n,p,s,alpha")
    return cfg.params


def _out_base(cfg: RunConfig) -> str:
    base = cfg.out if cfg.out is not None else cfg.subcommand
    for ext in (".json", ".csv"):
        if base.endswith(ext):
            base = base[: -len(ext)]
    return base


# -- subcommands --------------------------------------------------------------


def cmd_norm(cfg: RunConfig) -> int:
    """weighted norm and per-shell profile of a function spec"""
    f = _load_input(cfg)
    params = _require_params(cfg)
    norm = weighted_lp_norm(f, params.p, params.alpha)
    profile = norm_profile(f, params, cfg.k_range)
    report = bsio.jsonsafe(
        {
            "norm": norm,
            "divergent": not math.isfinite(norm),
            "profile": {
                "terms": [
                    {"k": t.k, "contribution": t.contribution, "comparable": t.comparable}
                    for t in profile.terms
                ],
                "remainder": profile.remainder,
                "total": profile.total,
            },
        }
    )
    report["provenance"] = cfg.provenance()
    path = _out_base(cfg) + ".json"
    bsio.write_json(path, report)
    print(f"norm {report['norm']} -> {path}")
    return 0


def cmd_decompose(cfg: RunConfig) -> int:
    """split a function into scaled blocks and report the cost"""
    f = _load_input(cfg)
    params = _require_params(cfg)
    route = cfg.op or "nonhomogeneous"
    if route == "homogeneous":
        dec = decompose_homogeneous(f, params, cfg.k_min)
    elif route in ("nonhomogeneous", "upper-bound"):
        dec = decompose_nonhomogeneous(f, params)
    else:
        raise InputError(
            f"unknown route {route!r}; expected homogeneous, nonhomogeneous, or upper-bound"
        )
    report = bsio.decomposition_to_dict(dec)
    if route == "upper-bound":
        bound = rl_norm_upper_bound(f, params, strategy="greedy+perturbations", seed=cfg.seed)
        report["quasinorm_upper_bound"] = bound
    elif dec.residual_norm == 0.0:
        report["quasinorm_upper_bound"] = dec.coefficient_cost ** (1.0 / params.pbar)
    else:
        # a nonzero residual means the listed terms alone do not synthesize f
        report["quasinorm_upper_bound"] = None
    report["provenance"] = cfg.provenance()
    path = _out_base(cfg) + ".json"
    bsio.write_json(path, report)
    print(f"{len(dec.terms)} terms, cost {dec.coefficient_cost} -> {path}")
    return 0


#: block scales whose 2^k-scaled shell grid (2^-40 .. 2^41) keeps finite, normal nodes
_SWEEP_SCALES = range(-982, 983)

#: operator -> (default levels, evaluation on (f, levels, points, tolerance))
_APPLY_OPS = {
    "hilbert": ((), lambda f, s, x, t: hilbert(f, x)),
    "hilbert_truncated": ((0.25,), lambda f, s, x, t: hilbert_truncated(f, s[0], x)),
    "hilbert_maximal": (
        tuple(geometric_schedule(2.0**-6, 4.0)[::-1]), lambda f, s, x, t: hilbert_maximal(f, s, x)
    ),
    "sn": ((8.0,), lambda f, s, x, t: dirichlet_sn(f, s[0], x)),
    "carleson": (
        tuple(geometric_schedule(0.25, 64.0)),
        lambda f, s, x, t: carleson(f, s, x, refine_tolerance=1e-8 if t is None else t),
    ),
    "maximal": ((), lambda f, s, x, t: maximal_1d_exact(f, x)),
}


def cmd_apply(cfg: RunConfig) -> int:
    """evaluate an operator on a grid, emit CSV + JSON"""
    f = _load_input(cfg)
    if cfg.op is None:
        raise InputError("apply needs --op")
    if cfg.op not in _APPLY_OPS:
        raise InputError(f"unknown operator {cfg.op!r}; expected one of {sorted(_APPLY_OPS)}")
    if cfg.grid is None:
        raise InputError("apply needs --grid a:b:count")
    points = parse_grid(cfg.grid)
    default, evaluate = _APPLY_OPS[cfg.op]
    schedule = cfg.schedule if cfg.schedule is not None else default
    if cfg.schedule is None and schedule:
        cfg.defaults_used.append(f"schedule={list(schedule)}")
    # an operator with a one-level default reads exactly one level
    if len(default) == 1 and len(schedule) != 1:
        raise InputError(f"{cfg.op} needs one level in --schedule, got {len(schedule) or 'none'}")
    values = evaluate(f, schedule, points, cfg.tolerance)

    base = _out_base(cfg)
    bsio.write_csv(base + ".csv", zip(points, values))
    report = {
        "operator": cfg.op,
        "schedule": list(schedule),
        "grid": [float(x) for x in points],
        "values": [float(v) for v in values],
        "provenance": cfg.provenance(),
    }
    bsio.write_json(base + ".json", report)
    print(f"{cfg.op} on {len(points)} points -> {base}.csv")
    return 0


def _report_curves(report_dict: dict) -> list[tuple[str, list]]:
    def is_curve(v):
        return (
            isinstance(v, list)
            and len(v) > 0
            and all(isinstance(r, list) and len(r) == 2 for r in v)
        )

    return [(k, v) for k, v in sorted(report_dict["measurements"].items()) if is_curve(v)]


def cmd_verify(cfg: RunConfig) -> int:
    """run a verification harness by claim id (or 'all')"""
    if cfg.theorem is None:
        raise InputError("verify needs --theorem ID or --theorem all")
    ids = THEOREM_IDS if cfg.theorem == "all" else (cfg.theorem,)
    base = _out_base(cfg)
    all_passed = True
    for tid in ids:
        try:
            report = run_theorem(tid, seed=cfg.seed)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
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
    if cfg.op is None:
        raise InputError("sweep needs --op e-of-N or --op <operator> (block-scale sweep)")
    base = _out_base(cfg)
    if cfg.op == "e-of-N":
        f = _load_input(cfg)
        params = _require_params(cfg)
        schedule = cfg.schedule if cfg.schedule is not None else tuple(2.0**j for j in range(11))
        rows = [(N, partial_sum_error_norm(f, params, N)) for N in schedule]
        header = ("N", "error_norm")
    elif cfg.op in ("hilbert", "hilbert_maximal", "carleson", "sn"):
        params = _require_params(cfg)
        op = "dirichlet_sn" if cfg.op == "sn" else cfg.op
        schedule = (
            cfg.schedule
            if cfg.schedule is not None
            else tuple(float(k) for k in range(cfg.k_range[0], cfg.k_range[1] + 1))
        )
        ks = [int(x) for x in schedule]
        if any(float(k) != x for k, x in zip(ks, schedule)):
            raise InputError("block-scale sweep wants integer scales in --schedule")
        outside = [k for k in ks if k not in _SWEEP_SCALES]
        if outside:
            raise InputError(
                f"block-scale sweep wants scales {_SWEEP_SCALES[0]} <= k <= {_SWEEP_SCALES[-1]}, "
                "where the nodes of the 2^k-scaled quadrature grid stay finite and normal, "
                f"got k={outside[0]}"
            )
        rows = [(k, _block_norm(op, params, k)) for k in ks]
        header = ("k", "norm")
    else:
        raise InputError(f"unknown sweep kind {cfg.op!r}")
    bsio.write_csv(base + ".csv", rows, header=header)
    bsio.write_json(base + ".json", {"rows": len(rows), "provenance": cfg.provenance()})
    print(f"{len(rows)} rows -> {base}.csv")
    return 0


# -- dispatch -----------------------------------------------------------------


#: subcommand -> (handler, whose docstring is its help, the flags it reads)
_SUBCOMMANDS = {
    "norm": (cmd_norm, ("input", "params", "out")),
    "decompose": (cmd_decompose, ("input", "params", "op", "seed", "out")),
    "apply": (cmd_apply, ("input", "op", "schedule", "grid", "out", "tolerance")),
    "verify": (cmd_verify, ("theorem", "seed", "out")),
    "sweep": (cmd_sweep, ("input", "params", "op", "schedule", "out")),
}

_FLAGS = {
    "input": {"help": "path to a function spec (JSON)"},
    "params": {"help": "n,p,s,alpha (fractions like 1/2 accepted)"},
    "op": {"help": "operator or route name"},
    "theorem": {"help": "claim id for verify (e.g. 3.1, or 'all')"},
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
    for name, (handler, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=handler.__doc__)
        for flag in flags:
            # an absent flag stays out of the namespace and keeps its RunConfig default
            p.add_argument(f"--{flag}", default=argparse.SUPPRESS, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    opts = vars(build_parser().parse_args(argv))
    try:
        opts["params"] = parse_params(opts["params"]) if opts.get("params") else None
        if "schedule" in opts:
            opts["schedule"] = parse_schedule(opts["schedule"])
        cfg = RunConfig(**opts)
        return _SUBCOMMANDS[cfg.subcommand][0](cfg)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HypothesisViolation as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 3
    except DomainEvaluationError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        # schedules/grids that fail module preconditions are still input errors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
