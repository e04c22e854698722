"""Exception types shared across the package."""

from __future__ import annotations


class SccError(Exception):
    """Base class for every error this package raises on purpose."""


class MalformedCsv(SccError):
    """CSV input is structurally broken (missing header, wrong arity, ...)."""


class BadTimestamp(SccError):
    """A timestamp field is neither epoch milliseconds nor ISO-8601."""


class KeyViolation(SccError):
    """A key candidate of the event-log relation is violated."""


class ParseError(SccError):
    """Query or pattern text failed to parse.

    Carries the 1-based source position and the token kinds that would
    have been accepted at that point.
    """

    def __init__(self, message: str, line: int, column: int, expected: tuple[str, ...] = ()):
        self.line = line
        self.column = column
        self.expected = tuple(expected)
        suffix = f" (expected one of: {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"{message} at line {line}, column {column}{suffix}")


class UnsupportedFeature(SccError):
    """A recognised construct outside the supported query fragment."""

    def __init__(self, construct: str, line: int = 0, column: int = 0):
        self.construct = construct
        self.line = line
        self.column = column
        at = f" at line {line}, column {column}" if line else ""
        super().__init__(f"unsupported construct: {construct}{at}")


class UnknownAttribute(SccError):
    """A pattern references an event attribute missing from the schema."""


class UnboundBehaviourName(SccError):
    """A pattern identifier is not bound by exactly one behaviour definition."""


class UnknownColumn(SccError):
    """A query references a column absent from the log."""


class UnknownSource(SccError):
    """The FROM clause names something other than the loaded log."""


class OracleBoundExceeded(SccError):
    """The brute-force oracle was asked to search beyond its event bound."""


class UnsafeRule(SccError):
    """A Datalog rule has a variable unbound by any positive body atom."""


class StratificationViolation(SccError):
    """A negated atom names a derived predicate: the program is not semi-positive."""
