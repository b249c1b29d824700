"""Exception types shared across the package."""


class PadicIntError(Exception):
    """Base class for all package-specific errors."""


class BudgetExceeded(PadicIntError):
    """An enumeration would visit more points than the configured budget."""


class DivergentSum(PadicIntError):
    """A requested infinite sum does not converge."""


class EmptySet(PadicIntError):
    """A minimum was requested over an empty set."""


class DomainError(PadicIntError):
    """An argument lies outside the domain of a piecewise-defined function."""


class InfiniteMeasure(PadicIntError):
    """The measure of the requested set is not finite."""


class NotFiberReducible(PadicIntError):
    """The symbolic integrator cannot reduce the integrand on this domain."""


class UndefinedAtPoint(PadicIntError):
    """A valuation of zero appeared inside a term with nonzero coefficient."""


class ParseError(PadicIntError):
    """Syntax error in a polynomial or integrand expression."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        where = "" if line is None else f" (line {line}, column {column})"
        super().__init__(message + where)
        self.message = message
        self.line = line
        self.column = column


def json_fields(data, what: str, *keys: str) -> list:
    """The values of the given keys, or a ParseError naming the first missing one."""
    missing = [key for key in keys if not isinstance(data, dict) or key not in data]
    if missing:
        raise ParseError(f"{what} JSON is missing the field {missing[0]!r}")
    return [data[key] for key in keys]
