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


def _encode(p: Polygraph, args) -> rewriting.RewritingSystem:
    return rewriting.encode(p, args.precedence, inverses=not args.no_inverses)


def _complete(system: rewriting.RewritingSystem, args):
    return rewriting.complete(
        system,
        max_rules=args.max_rules,
        max_lhs_len=args.max_len,
        max_steps=args.max_steps,
    )


def _require_converged(system: rewriting.RewritingSystem, args) -> rewriting.RewritingSystem:
    outcome = _complete(system, args)
    if isinstance(outcome, rewriting.GaveUp):
        raise NotConvergent(
            f"completion gave up ({outcome.reason}) at {len(outcome.system.rules)} rules;"
            " raise the limits if the system might still converge"
        )
    return outcome.system


# ----------------------------------------------------------------- commands


def _cmd_parse(p: Polygraph, args) -> int:
    _emit(presentations.render(p))
    return EXIT_OK


def _cmd_complete(p: Polygraph, args) -> int:
    outcome = _complete(_encode(p, args), args)
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


def _cmd_nf(p: Polygraph, args) -> int:
    p.word(args.word)  # a bad word is a parse error, whatever completion does
    system = _encode(p, args)
    word = system.word_bytes(args.word)  # and so is a letter the encoding lacks
    _emit(rewriting.normalize(_require_converged(system, args), word))
    return EXIT_OK


def _verdict(args, verdict: str, **detail) -> None:
    if args.json:
        _emit_json({"verdict": verdict, **detail})
    else:
        _emit(verdict)


def _cmd_eq(p: Polygraph, args) -> int:
    left, right = p.word(args.left), p.word(args.right)
    system = _encode(p, args)
    u, v = system.word_bytes(args.left), system.word_bytes(args.right)
    outcome = _complete(system, args)
    if isinstance(outcome, rewriting.Converged):
        equal = rewriting.word_equal(outcome.system, u, v)
        _verdict(args, "equal" if equal else "unequal", method="normal-forms")
        return EXIT_OK
    fallback = ("the partial rules: the search decides the group, not the monoid"
                if args.no_inverses else "breadth-first search")
    _diag(f"completion gave up ({outcome.reason}); falling back to {fallback}")
    if args.no_inverses:
        # Completion adds only consequences of the relations, so equal normal
        # forms under the partial rules prove the words equal in the monoid.
        normal_form = functools.partial(rewriting.normalize_bytes, outcome.system)
        equal = normal_form(u) == normal_form(v)
        _verdict(args, "equal" if equal else "undecided", method="partial-rules")
        return EXIT_OK if equal else EXIT_UNDECIDED
    found = oracle.bfs_equal(p, left, right, args.radius)
    if isinstance(found, oracle.Equal):
        _verdict(args, "equal", method="search", steps=found.steps)
        return EXIT_OK
    if found.limit != "radius":
        _diag(f"search stopped at {found.limit}")
    _verdict(args, "undecided", method="search", radius=args.radius)
    return EXIT_UNDECIDED


def _cmd_enumerate(p: Polygraph, args) -> int:
    system = _require_converged(_encode(p, args), args)
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
    outcome = _complete(rewriting.encode(p), args)
    if isinstance(outcome, rewriting.GaveUp):
        return None
    counted = rewriting.enumerate_normal_forms(outcome.system, cap=args.cap)
    if isinstance(counted, rewriting.MoreThanCap):
        return None
    return len(counted.words)


def _cmd_tietze(p: Polygraph, args) -> int:
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


def _cmd_cayley_graph(p: Polygraph, args) -> int:
    system = _require_converged(_encode(p, args), args)
    graph = cayley.build_graph(p, system, cap=args.cap)
    sys.stdout.buffer.write(cayley.export(graph, args.format))
    return EXIT_OK


def _cmd_cayley_complex(p: Polygraph, args) -> int:
    system = _require_converged(_encode(p, args), args)
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


def _limits(max_rules: int = rewriting.DEFAULT_MAX_RULES) -> argparse.ArgumentParser:
    # Parents share their action objects, so a default set on one command
    # would reach every command: each command gets a limits group of its own.
    limits = argparse.ArgumentParser(add_help=False)
    limits.add_argument("--max-rules", type=_count, default=max_rules)
    limits.add_argument("--max-len", type=_count, default=rewriting.DEFAULT_MAX_LHS_LEN)
    limits.add_argument("--max-steps", type=_count, default=rewriting.DEFAULT_MAX_STEPS)
    return limits


@functools.cache  # one parser per process: parse_args leaves it as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polygraph",
        description="group presentations: rewriting, Tietze moves, Cayley exports",
    )
    encoding, cap, json_ = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    encoding.add_argument(
        "--precedence",
        type=lambda text: [g.strip() for g in text.split(",") if g.strip()] if text else None,
        help="comma-separated generator order for the encoding (default: declaration order)",
    )
    encoding.add_argument(
        "--no-inverses",
        action="store_true",
        help="encode the positive monoid: no inverse letters, no cancellation rules",
    )
    cap.add_argument("--cap", type=_count, default=10000)
    json_.add_argument("--json", action="store_true")
    commands = parser.add_subparsers(dest="command", required=True)

    def command(under, name: str, help: str, handler, groups=(), *positionals: str):
        sub = under.add_parser(name, help=help, parents=groups)
        for positional in ("file", *positionals):
            sub.add_argument(positional)
        sub.set_defaults(handler=handler)
        return sub

    command(commands, "parse", "validate a presentation, echo it back", _cmd_parse)

    sub = command(commands, "complete", "run Knuth-Bendix completion", _cmd_complete,
                  [encoding, _limits()])
    sub.add_argument("-o", "--output", help="write the system here instead of stdout")

    command(commands, "nf", "normal form of a word", _cmd_nf, [encoding, _limits()], "word")

    # The completion attempt is opportunistic, so its default budget is small
    # enough to fail fast on divergent presentations.
    sub = command(commands, "eq", "decide whether two words are equal", _cmd_eq,
                  [encoding, _limits(512), json_], "left", "right")
    sub.add_argument("--radius", type=_count, default=4,
                     help="search radius for the fallback (default 4)")

    command(commands, "enumerate", "list all elements if finite", _cmd_enumerate,
            [encoding, _limits(), cap, json_])

    # The order check compares group orders, so it encodes both sides itself.
    sub = command(commands, "tietze", "verify and apply a .tz script", _cmd_tietze,
                  [_limits(), cap, json_], "script")
    sub.add_argument("--check-order", action="store_true",
                     help="re-enumerate the group order before and after")

    sub = commands.add_parser("cayley", help="Cayley graph and complex exports")
    kinds = sub.add_subparsers(dest="kind", required=True)

    sub = command(kinds, "graph", "export the Cayley graph", _cmd_cayley_graph,
                  [encoding, _limits(), cap])
    sub.add_argument("--format", choices=("dot", "json"), required=True)

    sub = command(kinds, "complex", "export the Cayley complex", _cmd_cayley_complex,
                  [encoding, _limits(), cap])
    sub.add_argument("--format", choices=("json",), required=True)
    sub.add_argument("--homology", action="store_true",
                     help="embed the homology summary in the export")

    return parser


def main(argv=None) -> int:
    try:
        try:
            args = _build_parser().parse_args(argv)
            code = args.handler(_load(args.file), args)
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
