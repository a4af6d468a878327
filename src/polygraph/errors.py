"""Exception hierarchy shared by the polygraph modules.

Every error raised on purpose by this package derives from PolygraphError,
so callers (and the command line driver) can catch one base class and turn
it into a diagnostic instead of a traceback.
"""

from __future__ import annotations

from dataclasses import dataclass


class PolygraphError(Exception):
    """Base class for all errors raised by this package."""


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


class MultiObjectUnsupported(PolygraphError):
    """String rewriting needs a single 0-cell; this polygraph has several."""


class StepLimitExceeded(PolygraphError):
    """normalize() hit its rewrite-step budget before reaching a normal form."""


class SearchLimitExceeded(PolygraphError):
    """A breadth-first word search passed its bound on the letters it holds."""


class NotConvergent(PolygraphError):
    """An operation that needs unique normal forms was given an unproven system."""


class InfiniteOrUnknown(PolygraphError):
    """A Cayley construction needs the full element list, but enumeration hit its cap."""


class LawViolation(PolygraphError):
    """A multiplication table failed a group law (associativity, identity, inverses)."""


class TietzeError(PolygraphError):
    """A Tietze step failed verification against the current polygraph."""


class InternalError(PolygraphError):
    """An internal consistency check failed; indicates a bug, not bad input."""
