"""Exception types shared across the package."""

__all__ = ["ParameterError", "NumericConsistencyError"]


class ParameterError(ValueError):
    """A physical or configuration parameter is outside its valid range."""


class NumericConsistencyError(ArithmeticError):
    """An internal numeric invariant failed (e.g. probability out of range)."""
