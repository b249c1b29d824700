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


NULL = type(None)

_JSON_TYPE_NAMES = {
    bool: "a boolean",
    int: "an integer",
    float: "a number",
    str: "a string",
    list: "an array",
    dict: "an object",
    NULL: "null",
}


def _json_type_name(t: type) -> str:
    return _JSON_TYPE_NAMES.get(t, t.__name__)


def json_fields(data, what: str, **expected) -> list:
    """The values of the given keys, in order, each checked against its
    expected type (a type or a tuple of types; NULL is JSON null, and a
    boolean is never an integer), or a ParseError naming the first missing
    or mistyped field."""
    if not isinstance(data, dict):
        raise ParseError(f"{what} JSON must be an object, not {_json_type_name(type(data))}")
    values = []
    for key, types in expected.items():
        if key not in data:
            raise ParseError(f"{what} JSON is missing the field {key!r}")
        value = data[key]
        types = types if isinstance(types, tuple) else (types,)
        if isinstance(value, bool) or not isinstance(value, types):
            wanted = " or ".join(_json_type_name(t) for t in types)
            raise ParseError(
                f"{what} JSON field {key!r} must be {wanted}, not {_json_type_name(type(value))}"
            )
        values.append(value)
    return values
