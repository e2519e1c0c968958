"""Exponent bookkeeping and dyadic geometry on the real line.

Everything downstream is parametrized by the tuple (n, p, s, alpha): the
dimension, the outer Lebesgue exponent, the inner block exponent, and the
power-weight exponent of the measure |x|^alpha dx.  Every function this
package evaluates lives on R, so n is always 1; it stays in the tuple only
because the paper's parameter format and the reports carry it.  This module
owns the derived quantities (pbar, admissible-range flags, block size
exponents) and the dyadic ball/annulus geometry, so no other module
hand-rolls an exponent formula.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass


class HypothesisViolation(ValueError):
    """A construction was requested outside its admissible parameter range."""


class DomainEvaluationError(ValueError):
    """An evaluator was asked for a value at a point where it is singular."""


@dataclass(frozen=True)
class WeightParams:
    """Parameter tuple (n, p, s, alpha) with derived exponents and range flags.

    Parameters
    ----------
    n : int
        Space dimension; must be 1, the dimension of every evaluated object.
    p : float
        Outer exponent, positive and finite.
    s : float
        Inner exponent.  The usual range is 1 < s < infinity; s = 1 and
        s = math.inf are accepted as documented edge modes (sup-normalized
        blocks for s = inf).
    alpha : float
        Weight exponent of the measure |x|^alpha dx.
    """

    n: int
    p: float
    s: float
    alpha: float

    def __post_init__(self) -> None:
        if self.n != 1:
            raise ValueError(f"only dimension n = 1 is supported, got n={self.n!r}")
        if not (self.p > 0) or math.isinf(self.p):
            raise ValueError(f"p must be positive and finite, got {self.p!r}")
        if not (self.s >= 1):
            raise ValueError(f"s must satisfy s >= 1, got {self.s!r}")
        if math.isnan(self.alpha):
            raise ValueError("alpha must be a real number")

    @property
    def pbar(self) -> float:
        """min(p, 1), the exponent of the coefficient cost."""
        return min(self.p, 1.0)

    @property
    def inv_s(self) -> float:
        """1/s, with the s = inf convention 1/s = 0."""
        return 0.0 if math.isinf(self.s) else 1.0 / self.s

    @property
    def in_main_range(self) -> bool:
        """Whether -1 < alpha < p-1, the open range of the main bounds."""
        return -1.0 < self.alpha < self.p - 1.0

    @property
    def in_inclusion_range(self) -> bool:
        """Whether -1 < alpha <= p/s - 1, the range of the L^s inclusion."""
        return -1.0 < self.alpha <= self.p * self.inv_s - 1.0

    @property
    def block_size_exponent(self) -> float:
        """Exponent e with ||a||_{L^s} <= |B_k|^e for an admissible block."""
        return -self.alpha / self.p - 1.0 / self.p + self.inv_s

    @property
    def block_coefficient_exponent(self) -> float:
        """Exponent of |B_k| in the canonical coefficient; minus the above."""
        return -self.block_size_exponent

    def require_p_le_s(self) -> None:
        """Main-range constructions need 0 < p <= s; never silently clamp."""
        if self.p > self.s:
            raise HypothesisViolation(
                f"construction requires p <= s, got p={self.p}, s={self.s}"
            )

    def as_dict(self) -> dict:
        return {"n": self.n, "p": self.p, "s": self.s, "alpha": self.alpha}


@dataclass(frozen=True)
class DyadicAnnulus:
    """The shell C_k = {2^(k-1) < |x| <= 2^k} of the real line, inside B_k = [-2^k, 2^k].

    The restrict-type variant replaces C_0 by the whole unit ball B_0 and is
    only defined for k >= 0.
    """

    k: int
    _: KW_ONLY
    restrict_type: bool = False

    def __post_init__(self) -> None:
        if self.restrict_type and self.k < 0:
            raise ValueError("restrict-type annuli are indexed by k >= 0")

    @property
    def outer_radius(self) -> float:
        return 2.0 ** self.k

    @property
    def inner_radius(self) -> float:
        # the k = 0 restrict-type shell is the full ball, inner radius 0
        if self.restrict_type and self.k == 0:
            return 0.0
        return 2.0 ** (self.k - 1)

    @property
    def ball_measure(self) -> float:
        """Lebesgue measure of the enclosing ball B_k, 2^(k+1)."""
        return 2.0 * 2.0 ** self.k

    @property
    def measure(self) -> float:
        """Lebesgue measure of the shell itself."""
        if self.restrict_type and self.k == 0:
            return self.ball_measure
        return 0.5 * self.ball_measure


#: the claim ids verify.run_theorem runs, in report order; they live here, apart
#: from the harnesses, so that the CLI parses --theorem without importing verify
THEOREM_IDS = ("2.1", "2.2", "3.1", "4.1", "5.2", "5.3", "6.1.pointwise", "6.3")

#: the block scales k claim 3.1 sweeps (and the CLI's default scales and norm profile shells)
_K_RANGE = (-6, 6)
