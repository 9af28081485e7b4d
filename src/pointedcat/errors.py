"""Exception taxonomy and the CLI exit-code mapping.

Three families: validation errors (bad input / violated precondition,
exit 2), internal-consistency aborts (cross-checks that can only fail on
a bug, exit 3) and desk-scale bounds errors (exit 4).
"""

from __future__ import annotations


class PointedCatError(Exception):
    """Base for all errors raised by this package."""


class ValidationError(PointedCatError):
    """Bad input or violated precondition."""


class InconsistencyError(PointedCatError):
    """An internal cross-check failed: indicates a bug, never bad input."""


class BoundsError(PointedCatError):
    """Computation would exceed a configured desk-scale bound."""


# -- validation --------------------------------------------------------

class ParseError(ValidationError):
    pass


class ConductorMismatch(ValidationError):
    pass


class DivisionByZero(ValidationError, ZeroDivisionError):
    pass


class NotSquare(ValidationError):
    pass


class ShapeMismatch(ValidationError):
    pass


class NotSubgroup(ValidationError):
    pass


class NotACocycle(ValidationError):
    pass


class InvalidQuadraticForm(ValidationError):
    pass


class NotRealizable(ValidationError):
    pass


class NotAdmissible(ValidationError):
    pass


class NoMuFound(ValidationError):
    pass


# -- internal cross-checks (abort loudly) ------------------------------

class InternalInconsistency(InconsistencyError):
    pass


class ConventionError(InconsistencyError):
    pass


class WellDefinednessViolation(InconsistencyError):
    pass


class LiftNotFound(InconsistencyError):
    pass


# -- bounds ------------------------------------------------------------

class GroupTooLarge(BoundsError):
    pass


class OrderTooLarge(BoundsError):
    pass


class BoundsExceeded(BoundsError):
    pass


class ConductorCapExceeded(BoundsError):
    pass


def exit_code_for(exc: BaseException) -> int:
    """Map an exception to the CLI exit-code contract (2/3/4, else 1)."""
    if isinstance(exc, ValidationError):
        return 2
    if isinstance(exc, InconsistencyError):
        return 3
    if isinstance(exc, BoundsError):
        return 4
    return 1
