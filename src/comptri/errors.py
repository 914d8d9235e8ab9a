"""Exception types shared across the package, and its one integer rule, for an
argument or each entry of a sequence: an int, not a bool, and at least any floor."""


def check_integer(what: str, value, least: int | None = None) -> None:
    """Refuse a ``value`` that is a bool or not an int, or below ``least``
    when given, naming it ``what``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{what} must be >= {least}")


def check_integers(values, error: type[Exception], text: str, least: int | None = None) -> tuple:
    """``values`` as a tuple, once no entry is a bool or not an int, or below
    ``least`` when given; the first that is raises ``error(f"{text}, got {entry!r}")``."""
    values = tuple(values)
    # plain ints pass on their set of types and their minimum, in C; a scan names the first bad entry
    if set(map(type, values)) != {int} or least is not None and min(values) < least:
        for v in values:
            if isinstance(v, bool) or not isinstance(v, int) or least is not None and v < least:
                raise error(f"{text}, got {v!r}")
    return values


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
