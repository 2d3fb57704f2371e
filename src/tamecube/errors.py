"""Exception types shared across the package, and the number test its gates use."""


def _is_number(x, kind) -> bool:
    """``isinstance(x, kind)``, refusing a bool: it is an ``Integral``, but no count or size."""
    return isinstance(x, kind) and not isinstance(x, bool)


class TameCubeError(Exception):
    """Base class for all package errors."""


class DomainError(TameCubeError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DimensionError(TameCubeError, ValueError):
    """Dimensions of combinator-tree nodes or points do not line up."""


class ParseError(TameCubeError, ValueError):
    """Text could not be parsed into a map expression."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class TamenessError(TameCubeError, ValueError):
    """An input map failed a tameness/admissibility precondition."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class ReplacementError(TameCubeError, RuntimeError):
    """A skeleton-induction extension step could not be completed."""
