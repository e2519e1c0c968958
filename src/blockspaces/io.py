"""JSON/CSV writers with lossless floats; readers for function specs and CSVs.

json writes floats with repr (shortest string that parses back to the same
double), so every written float parses back bit-identically; non-finite
norms are encoded as the string "inf" with a sibling "divergent" flag
because JSON has no Infinity literal.  All JSON is emitted with sorted keys
and a fixed indent so byte-identical inputs yield byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict
from typing import TYPE_CHECKING

from .piecewise import PiecewiseConstant1D

if TYPE_CHECKING:
    from .blocks import Decomposition
    from .verify import VerificationReport


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_json(path: str, obj) -> None:
    text = dumps(obj)  # before opening, so an object json cannot encode leaves no file
    with open(path, "w") as fh:
        fh.write(text)


def jsonsafe(obj):
    """Recursively encode non-finite floats as the strings inf/-inf/nan."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    if isinstance(obj, dict):
        return {k: jsonsafe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonsafe(v) for v in obj]
    return obj


# -- piecewise functions ------------------------------------------------------


def function_to_dict(f: PiecewiseConstant1D) -> dict:
    return {"breakpoints": list(f.breakpoints), "values": list(f.values)}


def function_from_dict(d: dict) -> PiecewiseConstant1D:
    """Accepts {"breakpoints", "values"} or the shorthand forms
    {"type": "indicator", "a", "b", "value"?} and {"type": "zero"}."""
    if not isinstance(d, dict):
        raise ValueError(f"a function spec must be a JSON object, got {type(d).__name__}")
    kind = d.get("type", "piecewise")
    if kind == "zero":
        return PiecewiseConstant1D.zero()
    if kind == "indicator":
        return PiecewiseConstant1D.indicator(
            float(d["a"]), float(d["b"]), float(d.get("value", 1.0))
        )
    if kind == "piecewise" or ("breakpoints" in d and "values" in d):
        return PiecewiseConstant1D(d["breakpoints"], d["values"])
    raise ValueError(f"unrecognized function spec {d!r}")


def load_function(path: str) -> PiecewiseConstant1D:
    with open(path) as fh:
        return function_from_dict(json.load(fh))


# -- decompositions -----------------------------------------------------------


def decomposition_to_dict(d: Decomposition) -> dict:
    return {
        "params": d.params.as_dict(),
        "homogeneous": d.homogeneous,
        "terms": [
            {
                "lambda": t.lam,
                "k": t.block.k,
                "restrict_type": t.block.restrict_type,
                "block": function_to_dict(t.block.data),
            }
            for t in d.terms
        ],
        "residual": None if d.residual is None else function_to_dict(d.residual),
        "residual_norm": jsonsafe(d.residual_norm),
        "coefficient_cost": d.coefficient_cost,
    }


# -- verification reports -----------------------------------------------------


def report_to_dict(r: VerificationReport) -> dict:
    return jsonsafe(
        {
            "theorem": r.theorem,
            "params": r.params,
            "measurements": r.measurements,
            "verdicts": [asdict(v) for v in r.verdicts],
            "passed": r.passed,
            "provenance": r.provenance,
        }
    )


# -- CSV curves ---------------------------------------------------------------


def write_csv(path: str, rows, header: tuple[str, str] = ("x", "value")) -> None:
    """(decimal, decimal) rows under a single header line, repr-exact."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for x, y in rows:
            writer.writerow([repr(float(x)), repr(float(y))])


def read_csv(path: str) -> list[tuple[float, float]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return [(float(a), float(b)) for a, b in reader]
