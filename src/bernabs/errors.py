"""Exception hierarchy shared across the package."""


class BernabsError(Exception):
    """Base class for all package errors."""


class ParseError(BernabsError):
    def __init__(self, message, line=None, column=None):
        self.reason = message
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class UniverseError(BernabsError):
    """Variable/universe misuse: unknown variable, store mixing, a missing weight."""


class TheoryCapError(BernabsError):
    """Joint enumeration domain exceeds the configured cap."""


class EnumerationCapError(BernabsError):
    """Flip-site or state enumeration exceeds the configured cap."""


class RangeViolationError(BernabsError):
    """Arithmetic produced a value outside a variable's declared range."""


class ModeError(BernabsError):
    """Probabilistic construct in non-deterministic mode, or vice versa."""


class NestingError(BernabsError):
    """A program whose blocks nest deeper than the walkers allow."""


class LevelBoundError(BernabsError):
    """A program whose decision-diagram universe has more levels than the
    engine allows."""


class ProgramPointError(BernabsError):
    """A program point outside the program: before 0 or past its end."""


class ConditionOnImpossibleError(BernabsError):
    """A query conditioned on an event of probability zero."""


class PredicateBoundError(BernabsError):
    """Predicate list exceeds the configured minterm-enumeration bound."""
