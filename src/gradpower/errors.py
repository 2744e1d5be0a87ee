"""Exception hierarchy shared by all gradpower modules, and their shared integer check."""

import numbers


class GradpowerError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(GradpowerError, ValueError):
    """An argument falls outside the mathematical domain of an operation."""


class EstimationError(GradpowerError, RuntimeError):
    """Maximum likelihood estimation failed (degenerate sample, lost bracket)."""


class ConvergenceError(GradpowerError, ArithmeticError):
    """A bounded numeric iteration reached its cap before converging."""


def _check_integer(name: str, value) -> None:
    # bool is an Integral too, but True is no count and False no seed
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
