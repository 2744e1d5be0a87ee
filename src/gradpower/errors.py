"""Exception hierarchy shared by all gradpower modules, and their shared integer checks."""

import math
import numbers
import sys

# the largest float; an integer above it has no float value
_FLOAT_MAX = sys.float_info.max


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


def _check_float_size(name: str, value) -> None:
    # an integer past the largest float would overflow its first float conversion
    if value > _FLOAT_MAX:
        raise DomainError(f"{name} must be at most {_FLOAT_MAX}, got {value}")


def _check_sample_size(value) -> None:
    # the n of every second-order evaluation: a positive integer up to the largest
    # float, whole float or inf; 50.5, NaN, True, 10**400, 0 and -inf do not pass
    if not (isinstance(value, float) and (value.is_integer() or math.isinf(value))):
        _check_integer("n", value)
        _check_float_size("n", value)
    if not (value > 0):
        raise DomainError(f"n must be positive, got {value}")
