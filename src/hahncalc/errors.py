"""Exception and warning types shared across the package.

Numerical failure modes are deliberately loud: truncated series and products
either meet their stopping rule or raise, and vanishing factors next to poles
raise rather than returning quiet infinities.
"""

__all__ = [
    "HahnCalcError",
    "NonConvergentError",
    "PoleEncounteredError",
    "ZeroFactorError",
    "OutOfRadiusError",
    "ZeroFactorWarning",
]


class HahnCalcError(Exception):
    """Base class for numerical failures raised by this package."""


class NonConvergentError(HahnCalcError):
    """A truncated series or product hit max_terms before its stopping rule."""


class PoleEncounteredError(HahnCalcError):
    """Evaluation landed on (or within tolerance of) a pole of e_{q,w}."""


class ZeroFactorError(HahnCalcError):
    """A denominator factor of a finite product vanished within tolerance."""


class OutOfRadiusError(HahnCalcError):
    """Series argument lies outside the radius of convergence."""


class ZeroFactorWarning(UserWarning):
    """An infinite product contained a vanishing factor; its value is exactly 0."""
