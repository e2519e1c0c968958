"""Weighted block spaces on dyadic shells: norms, decompositions, operators.

The package computes weighted Lebesgue norms with power weights |x|^alpha,
decomposes functions into scale-normalized blocks supported on dyadic shells,
applies exact singular/maximal/partial-sum operators to piecewise-constant
functions, and runs verification harnesses that measure the quantitative
claims (uniform block bounds, sharpness exponents, convergence of partial
sums) against analytically known targets.

`import blockspaces` loads no submodule but `_version`: each public name
imports its submodule on first access (PEP 562), so a run pays only for the
modules it uses.
"""

import importlib
import sys
import types

from ._version import __version__

#: submodule -> the public names it defines
_PUBLIC = {
    "blocks": (
        "Block",
        "BlockValidation",
        "Decomposition",
        "DecompositionTerm",
        "decompose_homogeneous",
        "decompose_nonhomogeneous",
        "homogeneous_total_cost",
        "make_canonical_block",
        "rl_norm_upper_bound",
        "validate_block",
    ),
    "lattice": ("LatticeFunction",),
    "norms": ("NormProfile", "norm_profile", "restrict_to_annulus", "weighted_lp_norm"),
    "operators": (
        "EvalGrid",
        "carleson",
        "dirichlet_sn",
        "dirichlet_sn_via_hilbert",
        "geometric_schedule",
        "hilbert",
        "hilbert_maximal",
        "hilbert_truncated",
        "hl_maximal",
        "maximal_1d_exact",
        "modulate",
        "pv_exclusion_radius",
        "refine_schedule",
    ),
    "params": ("DomainEvaluationError", "DyadicAnnulus", "HypothesisViolation", "WeightParams"),
    "piecewise": ("PiecewiseConstant1D",),
    "sine_integral": ("sine_integral",),
    # THEOREM_IDS is defined in params but resolves through verify, so that
    # `from blockspaces import THEOREM_IDS` has every harness module loaded
    "verify": (
        "THEOREM_IDS",
        "Verdict",
        "VerificationReport",
        "partial_sum_error_norm",
        "run_all",
        "run_theorem",
    ),
}

#: public name -> the submodule it is imported from
_SOURCE = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = ["__version__", *_SOURCE]


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return list(__all__)


class _Package(types.ModuleType):
    """The package module: a submodule never shadows a public name it shares."""

    def __setattr__(self, name: str, value) -> None:
        # importing blockspaces.sine_integral binds the submodule here, over
        # the function of that name; leave the name to __getattr__ instead
        if not (name in _SOURCE and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
