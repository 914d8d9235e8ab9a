"""Exception types shared across the package."""


class ComptriError(Exception):
    """Base class for every error this package raises deliberately."""


class InvalidSeedError(ComptriError):
    """A seed definition is unusable (no terms, a negative entry, bad length)."""


class InsufficientSeedError(ComptriError):
    """An operation needs a longer seed prefix than the one supplied."""


class DimensionError(ComptriError):
    """Matrix operands have incompatible orders."""


class EnumerationBudgetError(ComptriError):
    """A brute-force enumeration would exceed the configured word budget."""


class OutputSizeError(ComptriError):
    """A computation's predicted output exceeds the output-size bound."""


class InternalConsistencyError(ComptriError):
    """An exactness assertion failed; this indicates a bug, never a valid state."""
