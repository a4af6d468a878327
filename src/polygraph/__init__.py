"""Group presentations as 2-polygraphs: words, derivations, rewriting,
Tietze transformations, and Cayley constructions.

The package is organized as a pipeline:

- ``words`` / ``model``: zig-zag words over generators, presentations with
  named relations, and derivation trees certifying equalities, with their
  s-expression text.
- ``presentations``: the .plg text format (angle-bracket and block forms).
- ``rewriting``: shortlex string rewriting, Knuth-Bendix completion,
  normal-form enumeration.
- ``tietze``: verified presentation rewirings with word transport and the
  .tz script format.
- ``cayley`` / ``homology``: Cayley graphs and complexes, exact integer
  homology, DOT/JSON exports.
- ``oracle``: engine-independent breadth-first ground truth and finite
  multiplication tables.
- ``cli``: the ``polygraph`` command.
"""

from .errors import (
    DuplicateName,
    EndpointMismatch,
    IllTyped,
    InfiniteOrUnknown,
    InternalError,
    LawViolation,
    MultiObjectUnsupported,
    NotConvergent,
    ParseError,
    PolygraphError,
    SearchLimitExceeded,
    SourceSpan,
    StepLimitExceeded,
    TietzeError,
    UnknownCell,
    UnknownGenerator,
)
from .model import (
    DEFAULT_CELL,
    CancelLeft,
    CancelRight,
    Derivation,
    Gen,
    Horiz,
    Id,
    Inv,
    Polygraph,
    Sphere,
    ValidationIssue,
    Vert,
    boundary,
    chain,
    euler_data,
    step,
    validate,
)
from .presentations import parse, render
from .words import Letter, Word, format_word, parse_word

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "PolygraphError",
    "SourceSpan",
    "ParseError",
    "EndpointMismatch",
    "UnknownCell",
    "UnknownGenerator",
    "DuplicateName",
    "IllTyped",
    "MultiObjectUnsupported",
    "StepLimitExceeded",
    "SearchLimitExceeded",
    "NotConvergent",
    "InfiniteOrUnknown",
    "LawViolation",
    "TietzeError",
    "InternalError",
    # words
    "Letter",
    "Word",
    "parse_word",
    "format_word",
    # model
    "DEFAULT_CELL",
    "Polygraph",
    "Sphere",
    "ValidationIssue",
    "validate",
    "euler_data",
    "Derivation",
    "Gen",
    "Horiz",
    "Vert",
    "Id",
    "Inv",
    "CancelLeft",
    "CancelRight",
    "boundary",
    "step",
    "chain",
    # presentation text format
    "parse",
    "render",
]
