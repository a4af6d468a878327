"""Exception hierarchy shared by the polygraph modules.

Every error raised on purpose by this package derives from PolygraphError,
so callers can catch one base class and turn it into a diagnostic instead of
a traceback.  ``exit_code`` is the command line's exit status for a class:
1 bad input (the default), 2 undecided (a limit fired), 3 failed verification.
"""

from __future__ import annotations

from dataclasses import dataclass


class PolygraphError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


@dataclass(frozen=True)
class SourceSpan:
    """Location of a token in an input text: 1-based line and column."""

    line: int
    column: int
    length: int = 1

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}"


class ParseError(PolygraphError):
    """Raised when a presentation, word, script or system text is malformed."""

    def __init__(self, message: str, span: SourceSpan | None = None):
        super().__init__(message)
        self.message = message
        self.span = span

    def __str__(self) -> str:
        if self.span is None:
            return self.message
        return f"{self.span}: {self.message}"


class EndpointMismatch(PolygraphError):
    """Two cells were glued along 0-cells that do not agree."""


class UnknownCell(PolygraphError):
    """A cell id was used that the polygraph does not contain."""


class UnknownGenerator(PolygraphError):
    """A word mentions a generator that the polygraph does not declare."""


class DuplicateName(PolygraphError):
    """A cell id was declared twice at the same level."""


class IllTyped(PolygraphError):
    """A derivation node does not compose: its pieces have wrong boundaries."""

    exit_code = 3


class MultiObjectUnsupported(PolygraphError):
    """String rewriting needs a single 0-cell; this polygraph has several."""


class StepLimitExceeded(PolygraphError):
    """normalize() hit its rewrite-step budget before reaching a normal form."""

    exit_code = 2


class SearchLimitExceeded(PolygraphError):
    """A breadth-first word search passed its bound on the letters it holds."""


class NotConvergent(PolygraphError):
    """An operation that needs unique normal forms was given an unproven system."""

    exit_code = 2


class InfiniteOrUnknown(PolygraphError):
    """An answer needs every element, but the group is infinite or past the cap."""

    exit_code = 2


class LawViolation(PolygraphError):
    """A multiplication table failed a group law (associativity, identity, inverses)."""

    exit_code = 3


class TietzeError(PolygraphError):
    """A Tietze step failed verification against the current polygraph."""

    exit_code = 3


class InternalError(PolygraphError):
    """An internal consistency check failed; indicates a bug, not bad input."""

    exit_code = 3
