"""Batch command-line front-end.

Subcommands cover the pipeline end to end: parse/validate a presentation,
complete it into a rewriting system, normalize words, decide equality (by
normal forms when a convergent system is in reach, by breadth-first search
otherwise), enumerate elements, run Tietze scripts, and export Cayley graphs
and complexes.

Exit codes: 0 success, 1 usage, I/O or parse error, 2 undecided (a limit
hit), 3 verification failure.  A failure is a raised PolygraphError that
exits with its class's ``exit_code``; a stdout closed early exits 1 quietly.
Machine output goes to stdout and is byte-identical across identical
invocations; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import cayley, oracle, presentations, rewriting, tietze
from .errors import InfiniteOrUnknown, NotConvergent, PolygraphError, TietzeError
from .model import Polygraph, validate

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNDECIDED = 2


def _diag(message: str) -> None:
    print(message, file=sys.stderr)


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise PolygraphError(f"cannot read {path}: {exc}") from None


def _load(path: str) -> Polygraph:
    p = presentations.parse(_read(path))
    issues = validate(p)
    if issues:
        raise PolygraphError("\n".join(f"{path}: {issue}" for issue in issues))
    return p


def _count(text: str) -> int:
    """An argparse type for limits: an integer >= 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _completion_flags(sub: argparse.ArgumentParser, *, max_rules: int) -> None:
    sub.add_argument(
        "--precedence",
        help="comma-separated generator order for the encoding (default: declaration order)",
    )
    sub.add_argument(
        "--no-inverses",
        action="store_true",
        help="encode the positive monoid: no inverse letters, no cancellation rules",
    )
    sub.add_argument("--max-rules", type=_count, default=max_rules)
    sub.add_argument("--max-len", type=_count, default=rewriting.DEFAULT_MAX_LHS_LEN)
    sub.add_argument("--max-steps", type=_count, default=rewriting.DEFAULT_MAX_STEPS)


def _encode(p: Polygraph, args) -> rewriting.RewritingSystem:
    precedence = None
    if args.precedence:
        precedence = [g.strip() for g in args.precedence.split(",") if g.strip()]
    return rewriting.encode(p, precedence, inverses=not args.no_inverses)


def _complete(p: Polygraph, args):
    return rewriting.complete(
        _encode(p, args),
        max_rules=args.max_rules,
        max_lhs_len=args.max_len,
        max_steps=args.max_steps,
    )


def _require_converged(p: Polygraph, args) -> rewriting.RewritingSystem:
    outcome = _complete(p, args)
    if isinstance(outcome, rewriting.GaveUp):
        raise NotConvergent(
            f"completion gave up ({outcome.reason}) at {len(outcome.system.rules)} rules;"
            " raise the limits if the system might still converge"
        )
    return outcome.system


# ----------------------------------------------------------------- commands


def _cmd_parse(args) -> int:
    p = _load(args.file)
    _emit(presentations.render(p))
    return EXIT_OK


def _cmd_complete(args) -> int:
    p = _load(args.file)
    outcome = _complete(p, args)
    if isinstance(outcome, rewriting.GaveUp):
        _emit(f"gave-up reason={outcome.reason} rules={len(outcome.system.rules)}")
        return EXIT_UNDECIDED
    text = rewriting.format_system(outcome.system)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise PolygraphError(f"cannot write {args.output}: {exc}") from None
    else:
        _emit(text)
    return EXIT_OK


def _cmd_nf(args) -> int:
    p = _load(args.file)
    word = p.word(args.word)  # a bad word is a parse error, whatever completion does
    system = _require_converged(p, args)
    _emit(rewriting.normalize(system, word))
    return EXIT_OK


def _verdict(args, verdict: str, **detail) -> None:
    if args.json:
        _emit_json({"verdict": verdict, **detail})
    else:
        _emit(verdict)


def _cmd_eq(args) -> int:
    p = _load(args.file)
    left, right = p.word(args.left), p.word(args.right)
    outcome = _complete(p, args)
    if isinstance(outcome, rewriting.Converged):
        equal = rewriting.word_equal(outcome.system, left, right)
        _verdict(args, "equal" if equal else "unequal", method="normal-forms")
        return EXIT_OK
    _diag(
        f"completion gave up ({outcome.reason}); falling back to breadth-first search"
    )
    found = oracle.bfs_equal(p, left, right, args.radius)
    if isinstance(found, oracle.Equal):
        _verdict(args, "equal", method="search", steps=found.steps)
        return EXIT_OK
    if found.limit != "radius":
        _diag(f"search stopped at {found.limit}")
    _verdict(args, "undecided", method="search", radius=args.radius)
    return EXIT_UNDECIDED


def _cmd_enumerate(args) -> int:
    p = _load(args.file)
    system = _require_converged(p, args)
    outcome = rewriting.enumerate_normal_forms(system, cap=args.cap)
    if isinstance(outcome, rewriting.MoreThanCap):
        raise InfiniteOrUnknown(f"more than {args.cap} normal forms; the group may be infinite")
    if args.json:
        for i, word in enumerate(outcome.words):
            _emit_json({"index": i, "word": word})
    else:
        for word in outcome.words:
            _emit(word)
    return EXIT_OK


def _order_of(p: Polygraph, args) -> int | None:
    outcome = _complete(p, args)
    if isinstance(outcome, rewriting.GaveUp):
        return None
    counted = rewriting.enumerate_normal_forms(outcome.system, cap=args.cap)
    if isinstance(counted, rewriting.MoreThanCap):
        return None
    return len(counted.words)


def _cmd_tietze(args) -> int:
    p = _load(args.file)
    steps, after = tietze._elaborate(_read(args.script), p)
    if args.json:
        for i, step in enumerate(steps, start=1):
            _emit_json({"step": i, "kind": type(step).__name__, "ok": True})
    else:
        _emit(presentations.render(after))
    if args.check_order:
        before_order = _order_of(p, args)
        after_order = _order_of(after, args)
        if before_order is None or after_order is None:
            raise InfiniteOrUnknown(
                "group order could not be established on both sides "
                f"(before={before_order}, after={after_order})"
            )
        if args.json:
            _emit_json({"order_before": before_order, "order_after": after_order})
        else:
            _diag(f"order before={before_order} after={after_order}")
        if before_order != after_order:
            raise TietzeError("group order changed: the script is defective")
    return EXIT_OK


def _cmd_cayley_graph(args) -> int:
    p = _load(args.file)
    system = _require_converged(p, args)
    graph = cayley.build_graph(p, system, cap=args.cap)
    sys.stdout.buffer.write(cayley.export(graph, args.format))
    return EXIT_OK


def _cmd_cayley_complex(args) -> int:
    p = _load(args.file)
    system = _require_converged(p, args)
    complex_ = cayley.build_complex(p, system, cap=args.cap)
    data = cayley.to_jsonable(complex_)
    if args.homology:
        summary = cayley.homology(complex_)
        data["homology"] = {
            "h0_rank": summary.h0_rank,
            "h1_rank": summary.h1_rank,
            "h1_torsion": list(summary.h1_torsion),
            "euler": summary.euler,
        }
    sys.stdout.buffer.write(cayley.dump_json(data))
    return EXIT_OK


# ------------------------------------------------------------------- parser


@functools.cache  # one parser per process: parse_args leaves it as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polygraph",
        description="group presentations: rewriting, Tietze moves, Cayley exports",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("parse", help="validate a presentation, echo it back")
    sub.add_argument("file")
    sub.set_defaults(handler=_cmd_parse)

    sub = commands.add_parser("complete", help="run Knuth-Bendix completion")
    sub.add_argument("file")
    _completion_flags(sub, max_rules=rewriting.DEFAULT_MAX_RULES)
    sub.add_argument("-o", "--output", help="write the system here instead of stdout")
    sub.set_defaults(handler=_cmd_complete)

    sub = commands.add_parser("nf", help="normal form of a word")
    sub.add_argument("file")
    sub.add_argument("word")
    _completion_flags(sub, max_rules=rewriting.DEFAULT_MAX_RULES)
    sub.set_defaults(handler=_cmd_nf)

    sub = commands.add_parser("eq", help="decide whether two words are equal")
    sub.add_argument("file")
    sub.add_argument("left")
    sub.add_argument("right")
    # The completion attempt is opportunistic, so its default budget is small
    # enough to fail fast on divergent presentations.
    _completion_flags(sub, max_rules=512)
    sub.add_argument("--radius", type=_count, default=4,
                     help="search radius for the fallback (default 4)")
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(handler=_cmd_eq)

    sub = commands.add_parser("enumerate", help="list all elements if finite")
    sub.add_argument("file")
    _completion_flags(sub, max_rules=rewriting.DEFAULT_MAX_RULES)
    sub.add_argument("--cap", type=_count, default=10000)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(handler=_cmd_enumerate)

    sub = commands.add_parser("tietze", help="verify and apply a .tz script")
    sub.add_argument("file")
    sub.add_argument("script")
    sub.add_argument("--check-order", action="store_true",
                     help="re-enumerate the group order before and after")
    _completion_flags(sub, max_rules=rewriting.DEFAULT_MAX_RULES)
    sub.add_argument("--cap", type=_count, default=10000)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(handler=_cmd_tietze)

    sub = commands.add_parser("cayley", help="Cayley graph and complex exports")
    kinds = sub.add_subparsers(dest="kind", required=True)

    g = kinds.add_parser("graph", help="export the Cayley graph")
    g.add_argument("file")
    g.add_argument("--format", choices=("dot", "json"), required=True)
    g.add_argument("--cap", type=_count, default=10000)
    _completion_flags(g, max_rules=rewriting.DEFAULT_MAX_RULES)
    g.set_defaults(handler=_cmd_cayley_graph)

    c = kinds.add_parser("complex", help="export the Cayley complex")
    c.add_argument("file")
    c.add_argument("--format", choices=("json",), required=True)
    c.add_argument("--homology", action="store_true",
                   help="embed the homology summary in the export")
    c.add_argument("--cap", type=_count, default=10000)
    _completion_flags(c, max_rules=rewriting.DEFAULT_MAX_RULES)
    c.set_defaults(handler=_cmd_cayley_complex)

    return parser


def main(argv=None) -> int:
    try:
        try:
            args = _build_parser().parse_args(argv)
            code = args.handler(args)
        except SystemExit as exc:
            # argparse prints its own message; --help exits 0, usage errors exit 1.
            code = EXIT_OK if exc.code in (0, None) else EXIT_USAGE
        except PolygraphError as exc:
            _diag(str(exc))
            code = exc.exit_code
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone: send what is still buffered to devnull, so the
        # interpreter's own flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
