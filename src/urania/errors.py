"""Exception types shared across the package.

The CLI maps each to an exit code: a ParseError (a malformed elements CSV or
table file), TableVersionError or TableNotFoundError to 3, a DomainError to
2 and a DegenerateGeometryError to 1.
"""


class UraniaError(Exception):
    """Base class for every error this package raises deliberately."""


class DomainError(UraniaError, ValueError):
    """An input violates a documented precondition or invariant."""


class DegenerateGeometryError(UraniaError):
    """Geometry has no defined direction (coincident bodies, zero vector)."""


class ParseError(UraniaError):
    """An input file is malformed.

    ``line`` is the 1-based line number of the offending line when known.
    """

    def __init__(self, message: str, path=None, line: int | None = None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where += f"{path}: "
        if line is not None:
            where += f"line {line}: "
        super().__init__(where + message)


class TableParseError(ParseError):
    """A compiled table file is malformed."""


class TableVersionError(UraniaError):
    """A table file declares a format version this build does not read."""


class TableNotFoundError(UraniaError, LookupError):
    """No compiled table is loaded for the requested body or body pair."""
