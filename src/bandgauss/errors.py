"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument is outside the mathematical domain of an operation."""


class UsageError(ValueError):
    """A configuration or option value is not recognised."""


class NumericError(RuntimeError):
    """A numerical routine failed to converge or produced an unphysical value."""
