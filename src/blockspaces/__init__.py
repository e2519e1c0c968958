"""Weighted block spaces on dyadic shells: norms, decompositions, operators.

The package computes weighted Lebesgue norms with power weights |x|^alpha,
decomposes functions into scale-normalized blocks supported on dyadic shells,
applies exact singular/maximal/partial-sum operators to piecewise-constant
functions, and runs verification harnesses that measure the quantitative
claims (uniform block bounds, sharpness exponents, convergence of partial
sums) against analytically known targets.
"""

from ._version import __version__
from .blocks import (
    Block,
    BlockValidation,
    Decomposition,
    DecompositionTerm,
    decompose_homogeneous,
    decompose_nonhomogeneous,
    homogeneous_total_cost,
    make_canonical_block,
    rl_norm_upper_bound,
    validate_block,
)
from .lattice import LatticeFunction
from .norms import NormProfile, norm_profile, restrict_to_annulus, weighted_lp_norm
from .operators import (
    EvalGrid,
    carleson,
    dirichlet_sn,
    dirichlet_sn_via_hilbert,
    geometric_schedule,
    hilbert,
    hilbert_maximal,
    hilbert_truncated,
    hl_maximal,
    maximal_1d_exact,
    modulate,
    pv_exclusion_radius,
    refine_schedule,
)
from .params import (
    DomainEvaluationError,
    DyadicAnnulus,
    HypothesisViolation,
    WeightParams,
)
from .piecewise import PiecewiseConstant1D
from .sine_integral import sine_integral
from .verify import (
    THEOREM_IDS,
    Verdict,
    VerificationReport,
    partial_sum_error_norm,
    run_all,
    run_theorem,
)

__all__ = [
    "__version__",
    "Block",
    "BlockValidation",
    "Decomposition",
    "DecompositionTerm",
    "DomainEvaluationError",
    "DyadicAnnulus",
    "EvalGrid",
    "HypothesisViolation",
    "LatticeFunction",
    "NormProfile",
    "PiecewiseConstant1D",
    "THEOREM_IDS",
    "Verdict",
    "VerificationReport",
    "WeightParams",
    "carleson",
    "decompose_homogeneous",
    "decompose_nonhomogeneous",
    "dirichlet_sn",
    "dirichlet_sn_via_hilbert",
    "geometric_schedule",
    "hilbert",
    "hilbert_maximal",
    "hilbert_truncated",
    "hl_maximal",
    "homogeneous_total_cost",
    "make_canonical_block",
    "maximal_1d_exact",
    "modulate",
    "norm_profile",
    "partial_sum_error_norm",
    "pv_exclusion_radius",
    "refine_schedule",
    "restrict_to_annulus",
    "rl_norm_upper_bound",
    "run_all",
    "run_theorem",
    "sine_integral",
    "validate_block",
    "weighted_lp_norm",
]
