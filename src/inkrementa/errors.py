"""Exception types shared across the package."""


class InkrementaError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(InkrementaError, ValueError):
    """Operands have incompatible shapes or lengths."""


class NonFiniteError(InkrementaError, ValueError):
    """An array holds NaN or infinite entries."""


class ConfigError(InkrementaError, ValueError):
    """A configuration object or file is invalid."""


class PlanError(InkrementaError, ValueError):
    """A stage plan misses, duplicates, or invents class ids."""


class ParseError(InkrementaError, ValueError):
    """A data file could not be parsed; message cites the 1-based line."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DegenerateHeadError(InkrementaError, ValueError):
    """Weight aligning is undefined because every new head row is zero."""


class DivergenceError(InkrementaError):
    """Training produced non-finite values; message cites the epoch."""
