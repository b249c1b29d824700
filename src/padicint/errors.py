"""Exception types and the record base classes shared across the package."""

from operator import attrgetter


class PadicIntError(Exception):
    """Base class for all package-specific errors."""


class BudgetExceeded(PadicIntError):
    """An enumeration would visit more points or classes than the budget allows."""


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


class Record:
    """Base of the package's plain records: a subclass names its fields in
    __slots__ (a leading underscore marks private state) and takes them, in
    that order, in __init__.  Records of one class are equal when their
    fields but those in _uncompared are; repr is Class(field=value, ...)."""

    __slots__ = ()
    __hash__ = None
    _uncompared = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        compared = [name for name in cls._fields if name not in cls._uncompared]
        cls._key = staticmethod(attrgetter(*compared)) if compared else None  # none in FrozenRecord
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls._fields)  # for _freeze

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild a record through __init__
        return type(self), tuple(getattr(self, name) for name in self._fields)


class FrozenRecord(Record):
    """A record that refuses assignment once its __init__ has ended with
    _freeze(field values), which sets the fields and, once, the hash of
    their tuple: records are dict keys throughout integration."""

    __slots__ = ("_hash",)

    def _freeze(self, values: tuple):
        for set_field, value in zip(self._setters, values):
            set_field(self, value)
        object.__setattr__(self, "_hash", hash(values))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return self._hash
