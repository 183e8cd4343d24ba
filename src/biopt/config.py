"""The typed solver errors."""

from __future__ import annotations


class BioptError(Exception):
    """Base class for solver errors."""


class DomainViolation(BioptError):
    """Smooth-part oracle evaluated outside its domain."""


class NonFinitePoint(BioptError):
    """A point with a NaN or infinite entry reached the regularizer."""


class DegenerateCoefficient(BioptError):
    """Coefficient equation has no positive root (zero residual norm)."""


class SubproblemStall(BioptError):
    """Inner subproblem iteration cap exceeded."""

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


class OptimalityReached(BioptError):
    """Anchor of a prox subproblem is already optimal to numerical precision.

    Carried upward so drivers can terminate cleanly instead of certifying an
    accepted point whose residuals are pure roundoff.
    """

    def __init__(self, message: str, point=None):
        super().__init__(message)
        self.point = point


class AcceptanceFailure(BioptError):
    """Lower-level loop hit its cap before producing an acceptable point."""

    def __init__(self, message: str, residual_history=None):
        super().__init__(message)
        self.residual_history = residual_history or []


class RegionViolation(BioptError):
    """A point was evaluated outside the operating region on which the
    derivative bound that set H holds: a slack below slack_min."""


class BisectionStall(BioptError):
    """Segment-search bisection cap exceeded."""


class CertificateUndefined(BioptError):
    """Gap certificate requested before any model mass accumulated."""


class InvariantViolation(BioptError):
    """Invariant families failed, at driver iteration k (None elsewhere)."""

    def __init__(self, message: str, k: int | None = None, families=()):
        super().__init__(message)
        self.k = k
        self.families = list(families)
