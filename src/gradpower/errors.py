"""Exception hierarchy shared by all gradpower modules."""


class GradpowerError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(GradpowerError, ValueError):
    """An argument falls outside the mathematical domain of an operation."""


class EstimationError(GradpowerError, RuntimeError):
    """Maximum likelihood estimation failed (degenerate sample, lost bracket)."""


class ConvergenceError(GradpowerError, ArithmeticError):
    """A bounded numeric iteration reached its cap before converging."""
