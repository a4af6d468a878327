"""Command-line interface: exit codes, byte-stable output, JSON modes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

from conftest import DATA
from polygraph import cli, errors, model, presentations, rewriting, tietze

Z5 = str(DATA / "z5.plg")
D5 = str(DATA / "d5.plg")
Q8 = str(DATA / "q8.plg")
B3 = str(DATA / "b3.plg")
B3_LITERAL = str(DATA / "b3_literal.plg")
BRAID3 = str(DATA / "braid3.tz")
Z5_ROUNDTRIP = str(DATA / "z5_roundtrip.tz")


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv, **kwargs):
    """``python -m polygraph`` on this checkout's ``src``, in a process of its own."""
    return subprocess.run(
        [sys.executable, "-m", "polygraph", *argv],
        stderr=subprocess.PIPE,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(DATA.parents[1] / "src")},
        **kwargs,
    )


class TestParse:
    def test_echoes_a_valid_presentation(self, capsys):
        code, out, err = run(capsys, ["parse", B3])
        assert code == 0
        assert out == "< a, b | a b a = b a b >\n"

    def test_missing_file_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, ["parse", str(DATA / "nope.plg")])
        assert code == 1
        assert out == ""
        assert "cannot read" in err

    def test_syntax_errors_exit_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.plg"
        bad.write_text("< a |")
        code, out, err = run(capsys, ["parse", str(bad)])
        assert code == 1
        assert out == ""
        assert err != ""

    def test_block_form_infers_the_cells_from_the_generators(self, capsys, tmp_path):
        path = tmp_path / "two.plg"
        path.write_text("polygraph\ngen a : x -> y\ngen b : y -> x\nrel r : a b = 1\n")
        code, out, err = run(capsys, ["parse", str(path)])
        assert code == 0
        assert out == (
            "polygraph\ncells: x y\ngen a : x -> y\ngen b : y -> x\nrel r : a b = 1\n"
        )
        path.write_text(out)
        assert run(capsys, ["parse", str(path)]) == (0, out, "")

    def test_each_validation_issue_is_one_line(self, capsys, tmp_path):
        # y is neither declared nor a generator endpoint: parse accepts the
        # basepoint, validate does not.
        path = tmp_path / "stray.plg"
        path.write_text("polygraph\ngen a : x -> x\nrel r : 1 = 1 @ y\n")
        code, out, err = run(capsys, ["parse", str(path)])
        assert (code, out) == (1, "")
        assert err == (
            f"{path}: r: lhs endpoints are not 0-cells\n"
            f"{path}: r: rhs endpoints are not 0-cells\n"
        )


class TestComplete:
    def test_prints_the_convergent_system(self, capsys):
        code, out, err = run(capsys, ["complete", Z5])
        assert code == 0
        assert out.startswith("order: a < a'\n")
        assert "a a' -> 1" in out

    def test_output_is_byte_identical_across_runs(self, capsys):
        first = run(capsys, ["complete", D5])
        second = run(capsys, ["complete", D5])
        assert first == second

    def test_divergence_reports_gave_up_and_exits_two(self, capsys):
        code, out, err = run(capsys, ["complete", B3, "--max-rules", "50"])
        assert code == 2
        assert out == "gave-up reason=max_rules rules=51\n"

    def test_failed_self_check_exits_three_without_a_traceback(
        self, capsys, monkeypatch
    ):
        monkeypatch.setattr(
            rewriting,
            "verify_convergent",
            lambda system: rewriting.Refuted("a", "a", "1"),
        )
        code, out, err = run(capsys, ["complete", Z5])
        assert code == 3
        assert out == ""
        assert "non-convergent" in err
        assert "Traceback" not in err

    def test_writes_to_a_file_on_request(self, capsys, tmp_path):
        target = tmp_path / "z5.system"
        code, out, err = run(capsys, ["complete", Z5, "-o", str(target)])
        assert code == 0
        assert out == ""
        assert "a a' -> 1" in target.read_text()

    def test_precedence_flag_reorders_the_alphabet(self, capsys):
        code, out, err = run(
            capsys, ["complete", D5, "--precedence", "s,r"]
        )
        assert code == 0
        assert out.startswith("order: s < r")


class TestNf:
    def test_normalizes_a_word(self, capsys):
        code, out, err = run(capsys, ["nf", Z5, "a^7"])
        assert code == 0
        assert out == "a a\n"

    def test_identity_prints_as_one(self, capsys):
        code, out, err = run(capsys, ["nf", Z5, "a^5"])
        assert (code, out) == (0, "1\n")

    def test_undecidable_presentations_exit_two(self, capsys):
        code, out, err = run(capsys, ["nf", B3, "a b a", "--max-rules", "50"])
        assert code == 2
        assert out == ""
        assert "gave up" in err


class TestEq:
    def test_decides_by_normal_forms(self, capsys):
        code, out, err = run(capsys, ["eq", Z5, "a^5", "1"])
        assert (code, out) == (0, "equal\n")
        code, out, err = run(capsys, ["eq", Z5, "a", "a a"])
        assert (code, out) == (0, "unequal\n")

    def test_json_reports_the_method(self, capsys):
        code, out, err = run(capsys, ["eq", Z5, "a^5", "1", "--json"])
        assert code == 0
        assert json.loads(out) == {"verdict": "equal", "method": "normal-forms"}

    def test_falls_back_to_search_when_completion_diverges(self, capsys):
        code, out, err = run(capsys, ["eq", B3_LITERAL, "a b a", "b a b"])
        assert (code, out) == (0, "equal\n")
        assert "falling back" in err

    def test_search_fallback_counts_steps_in_json(self, capsys):
        code, out, err = run(
            capsys,
            ["eq", B3_LITERAL, "a b a", "b a b", "--max-rules", "50", "--json"],
        )
        assert code == 0
        assert json.loads(out) == {
            "verdict": "equal",
            "method": "search",
            "steps": 1,
        }

    def test_inconclusive_search_is_undecided_exit_two(self, capsys):
        code, out, err = run(
            capsys,
            ["eq", B3, "a", "b", "--max-rules", "50", "--radius", "3", "--json"],
        )
        assert code == 2
        assert json.loads(out) == {
            "verdict": "undecided",
            "method": "search",
            "radius": 3,
        }

    def test_a_search_past_its_letter_bound_is_undecided(self, capsys):
        # Every insertion child of a^999999 has a million letters: the
        # search stops after about ten of them instead of building millions.
        start = time.perf_counter()
        code, out, err = run(capsys, ["eq", B3, "a^999999", "1", "--radius", "1"])
        assert (code, out) == (2, "undecided\n")
        assert "max_search_letters" in err
        assert time.perf_counter() - start < 60

    @pytest.mark.parametrize(
        "left, right, verdict, code",
        [("a", "b", "undecided", 2), ("a c", "b c", "undecided", 2), ("c a", "c b", "equal", 0)],
    )
    def test_a_monoid_give_up_compares_partial_normal_forms(
        self, capsys, tmp_path, left, right, verdict, code
    ):
        # a = b holds in the group (cancel c from c a = c b) but not in the
        # monoid, where no relation side is one letter long; the monoid
        # completion gives up at max_lhs_len, so the search must not answer.
        path = tmp_path / "cancel.plg"
        path.write_text("< a, b, c | a b a = b a b, c a = c b >\n")
        got = run(capsys, ["eq", str(path), left, right, "--no-inverses", "--json"])
        assert got[:2] == (code, json.dumps({"method": "partial-rules", "verdict": verdict},
                                            separators=(",", ":")) + "\n")
        assert got[2] == (
            "completion gave up (max_lhs_len); falling back to the partial rules:"
            " the search decides the group, not the monoid\n"
        )

    def test_a_monoid_give_up_still_proves_equal_words_equal(self, capsys):
        code, out, err = run(capsys, ["eq", B3, "1", "1", "--no-inverses"])
        assert (code, out) == (0, "equal\n")
        assert "partial rules" in err

    def test_both_methods_read_the_same_word_grammar(self, capsys):
        # z5 converges, so eq uses normal forms; b3 falls back to search.
        for path in (Z5, B3):
            code, out, err = run(capsys, ["eq", path, "a'^2", "a' a'", "--max-rules", "50"])
            assert (code, out) == (1, ""), path
            assert "bad word term \"a'^2\"" in err


class TestWordArguments:
    @pytest.mark.parametrize(
        "argv, message",
        [
            # b3 gives up after 4,097 rules: the word is read before that.
            (["nf", B3, "z"], "line 1, column 1: unknown generator 'z'"),
            (["eq", D5, "r z", "1"], "line 1, column 3: unknown generator 'z'"),
            (["eq", B3, "a", "z"], "line 1, column 1: unknown generator 'z'"),
            (["nf", D5, "r s^"], "line 1, column 3: bad word term 's^'"),
        ],
        ids=["nf-gave-up", "eq-converged", "eq-searched", "nf-bad-term"],
    )
    def test_a_bad_word_is_a_parse_error_before_completion(self, capsys, argv, message):
        assert run(capsys, argv) == (1, "", message + "\n")

    @pytest.mark.parametrize(
        "argv, letter",
        [
            # The b3 monoid gives up after 61 rules, d5's completes: the
            # inverse letter is refused before either.
            (["nf", B3, "a'", "--no-inverses"], "a'"),
            (["nf", D5, "r s'", "--no-inverses"], "s'"),
            (["eq", B3, "1", "b'", "--no-inverses"], "b'"),
        ],
        ids=["nf-gave-up", "nf-converged", "eq-gave-up"],
    )
    def test_a_letter_outside_the_encoding_is_refused_before_completion(
        self, capsys, argv, letter
    ):
        assert run(capsys, argv) == (1, "", f'letter "{letter}" is not in the alphabet\n')


class TestEnumerate:
    def test_lists_shortlex_normal_forms(self, capsys):
        code, out, err = run(capsys, ["enumerate", Z5])
        assert code == 0
        assert out == "1\na\na'\na a\na' a'\n"

    def test_json_lines_carry_indices(self, capsys):
        code, out, err = run(capsys, ["enumerate", Z5, "--json"])
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows[0] == {"index": 0, "word": "1"}
        assert [row["index"] for row in rows] == list(range(5))

    @pytest.mark.parametrize("cap", ["3", "0"])
    def test_exceeding_the_cap_exits_two(self, capsys, cap):
        code, out, err = run(capsys, ["enumerate", Z5, "--cap", cap])
        assert code == 2
        assert out == ""
        assert f"more than {cap} normal forms" in err


class TestTietze:
    def test_applies_a_script_and_prints_the_result(self, capsys):
        code, out, err = run(capsys, ["tietze", B3, BRAID3])
        assert code == 0
        assert "a c = c b" in out
        assert "a b a = b a b" not in out

    def test_json_mode_reports_each_step(self, capsys):
        code, out, err = run(capsys, ["tietze", B3, BRAID3, "--json"])
        rows = [json.loads(line) for line in out.splitlines()]
        assert [row["kind"] for row in rows] == ["T1", "T2", "InvT2"]
        assert all(row["ok"] for row in rows)

    def test_check_order_confirms_an_invariant_rewiring(self, capsys):
        code, out, err = run(
            capsys, ["tietze", Z5, Z5_ROUNDTRIP, "--check-order"]
        )
        assert code == 0
        assert "order before=5 after=5" in err

    def test_check_order_compares_group_orders(self, capsys, tmp_path):
        # In the group < a | a^2 = a >, a = 1 already holds: the T2 step that
        # adds it keeps the order 1.  The positive monoid has 2 elements.
        plg = tmp_path / "idempotent.plg"
        plg.write_text("< a | a^2 = a >\n")
        p = presentations.parse(plg.read_text())
        witness = tietze.synthesize_witness(p, p.word("a"), p.word("1"))
        assert witness is not None
        script = tmp_path / "collapse.tz"
        script.write_text(f"T2 r2 : a = 1 WITNESS {model.format_derivation(witness)}\n")
        code, out, err = run(capsys, ["tietze", str(plg), str(script), "--check-order"])
        assert (code, out, err) == (0, "< a | a^2 = a, a = 1 >\n", "order before=1 after=1\n")

    @pytest.mark.parametrize("flag", [["--no-inverses"], ["--precedence", "a"]])
    def test_the_order_check_takes_no_encoding_flags(self, capsys, flag):
        code, out, err = run(capsys, ["tietze", Z5, Z5_ROUNDTRIP, "--check-order", *flag])
        assert (code, out) == (1, "")
        assert f"unrecognized arguments: {' '.join(flag)}" in err

    def test_check_order_abstains_when_either_side_diverges(self, capsys, tmp_path):
        script = tmp_path / "extend.tz"
        script.write_text("T1 c := b a\n")
        code, out, err = run(
            capsys,
            ["tietze", B3, str(script), "--check-order", "--max-rules", "50"],
        )
        assert code == 2
        assert "could not be established" in err

    def test_defective_scripts_exit_three(self, capsys, tmp_path):
        script = tmp_path / "bad.tz"
        script.write_text("T1 a := b\n")
        code, out, err = run(capsys, ["tietze", B3, str(script)])
        assert code == 3
        assert out == ""
        assert "does not verify" in err

    def test_a_deeply_nested_witness_is_checked_without_a_traceback(self, tmp_path):
        witness = "(inv " * 3000 + "(gen r1 +)" + ")" * 3000
        script = tmp_path / "deep.tz"
        script.write_text(f"T2 r2 : a b a = b a b WITNESS {witness}\n")
        proc = run_process("tietze", B3, str(script), stdout=subprocess.PIPE)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "< a, b | a b a = b a b, a b a = b a b >\n"
        assert "Traceback" not in proc.stderr

    def test_missing_script_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, ["tietze", B3, str(DATA / "nope.tz")])
        assert code == 1
        assert "cannot read" in err


class TestCayley:
    def test_graph_dot_export(self, capsys):
        code, out, err = run(capsys, ["cayley", "graph", Z5, "--format", "dot"])
        assert code == 0
        assert out.startswith("digraph cayley {\n")
        assert out.count("->") == 5
        assert 'v0 [label="1"];' in out

    def test_graph_json_export(self, capsys):
        code, out, err = run(capsys, ["cayley", "graph", D5, "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert len(data["vertices"]) == 10
        assert len(data["edges"]) == 20

    def test_graph_output_is_deterministic(self, capsys):
        first = run(capsys, ["cayley", "graph", Q8, "--format", "json"])
        second = run(capsys, ["cayley", "graph", Q8, "--format", "json"])
        assert first == second

    def test_complex_embeds_the_homology_summary(self, capsys):
        code, out, err = run(
            capsys, ["cayley", "complex", Q8, "--format", "json", "--homology"]
        )
        assert code == 0
        data = json.loads(out)
        assert len(data["faces"]) == 16
        assert data["homology"] == {
            "h0_rank": 1,
            "h1_rank": 0,
            "h1_torsion": [],
            "euler": 8,
        }

    def test_divergent_presentations_exit_two(self, capsys):
        code, out, err = run(
            capsys,
            ["cayley", "graph", B3, "--format", "dot", "--max-rules", "50"],
        )
        assert code == 2
        assert out == ""


class TestWideAlphabets:
    @pytest.fixture
    def wide(self, tmp_path):
        # 130 generators need 260 letters with their inverses.
        path = tmp_path / "wide.plg"
        gens = ", ".join(f"g{i}" for i in range(130))
        path.write_text(f"< {gens} | g0^2 = 1 >\n")
        return str(path)

    @pytest.mark.parametrize(
        "argv",
        [
            ["complete", "FILE"],
            ["nf", "FILE", "g0 g1"],
            ["eq", "FILE", "g0 g1", "g1 g0"],
            ["enumerate", "FILE"],
            ["cayley", "graph", "FILE", "--format", "dot"],
            ["cayley", "complex", "FILE", "--format", "json", "--homology"],
            ["tietze", "FILE", "SCRIPT", "--check-order"],
        ],
        ids=["complete", "nf", "eq", "enumerate", "cayley-graph", "cayley-complex", "tietze"],
    )
    def test_too_many_letters_is_one_diagnostic_line(self, capsys, tmp_path, wide, argv):
        script = tmp_path / "name.tz"
        script.write_text("T1 h := g0 g1\n")
        argv = [{"FILE": wide, "SCRIPT": str(script)}.get(a, a) for a in argv]
        code, out, err = run(capsys, argv)
        assert code == 1
        assert err.count("\n") == 1
        assert "260 letters" in err and "255" in err
        assert "Traceback" not in err

    def test_a_wide_alphabet_still_parses_and_encodes_without_inverses(self, capsys, wide):
        assert run(capsys, ["parse", wide])[0] == 0
        code, out, err = run(capsys, ["complete", wide, "--no-inverses"])
        assert code == 0
        assert "g0 g0 -> 1" in out


class TestUsage:
    def test_no_arguments_is_a_usage_error(self, capsys):
        assert run(capsys, [])[0] == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["complete", Z5, "--max-rules", "-1"],
            ["nf", Z5, "a", "--max-len", "-2"],
            ["eq", Z5, "a", "a", "--radius", "-1"],
            ["enumerate", Z5, "--cap", "-3"],
            ["tietze", Z5, Z5_ROUNDTRIP, "--max-steps", "-5"],
            ["cayley", "graph", Z5, "--format", "dot", "--cap", "-1"],
        ],
        ids=["complete", "nf", "eq", "enumerate", "tietze", "cayley"],
    )
    def test_a_negative_limit_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert f"argument {argv[-2]}: expected an integer >= 0, got '{argv[-1]}'" in err

    def test_every_command_keeps_its_flags_and_defaults(self):
        # Parents share their actions, so a default set for eq alone would
        # reach every command: each command is parsed before and after all
        # the others.
        encoding = {"precedence": None, "no_inverses": False}
        limits = {"max_rules": 4096, "max_len": 64, "max_steps": 10**6}
        cases = [
            (["parse", "F"], {}),
            (["complete", "F"], {**encoding, **limits, "output": None}),
            (["nf", "F", "w"], {**encoding, **limits, "word": "w"}),
            (["eq", "F", "u", "v"], {**encoding, **limits, "max_rules": 512,
                                     "json": False, "radius": 4, "left": "u", "right": "v"}),
            (["enumerate", "F"], {**encoding, **limits, "cap": 10000, "json": False}),
            (["tietze", "F", "S"], {**limits, "cap": 10000, "json": False,
                                    "script": "S", "check_order": False}),
            (["cayley", "graph", "F", "--format", "dot"],
             {**encoding, **limits, "cap": 10000, "format": "dot", "kind": "graph"}),
            (["cayley", "complex", "F", "--format", "json"],
             {**encoding, **limits, "cap": 10000, "format": "json", "homology": False,
              "kind": "complex"}),
        ]
        parser = cli._build_parser()
        for argv, want in cases + cases[::-1]:
            got = vars(parser.parse_args(argv))
            handler = got.pop("handler")
            assert got == {"command": argv[0], "file": "F", **want}, argv
            assert handler.__name__ == "_cmd_" + "_".join(argv[: 2 if argv[0] == "cayley" else 1])
        assert vars(parser.parse_args(["eq", "F", "u", "v", "--max-rules", "9"]))["max_rules"] == 9
        assert vars(parser.parse_args(["nf", "F", "w"]))["max_rules"] == 4096
        # An empty --precedence keeps declaration order; a list of none is refused later.
        assert parser.parse_args(["nf", "F", "w", "--precedence", " b, a ,"]).precedence == ["b", "a"]
        assert parser.parse_args(["nf", "F", "w", "--precedence", ""]).precedence is None
        assert parser.parse_args(["nf", "F", "w", "--precedence", ","]).precedence == []

    def test_unknown_flags_are_usage_errors(self, capsys):
        assert run(capsys, ["parse", B3, "--wat"])[0] == 1

    def test_help_exits_zero(self, capsys):
        code, out, err = run(capsys, ["--help"])
        assert code == 0
        assert "polygraph" in out

    def test_repeated_calls_in_one_process_answer_alike(self, capsys):
        # The parser is built once per process and serves every call.
        commands = [["eq", D5, "r^5", "1"], ["enumerate", Z5], ["--help"], ["parse"]]
        first = [run(capsys, argv) for argv in commands]
        assert [code for code, _, _ in first] == [0, 0, 0, 1]
        for _ in range(3):
            for argv, (code, out, _) in zip(commands, first):
                assert run(capsys, argv)[:2] == (code, out)
        assert cli._build_parser() is cli._build_parser()


# The exit code of every error class, as README's exit-code table documents it.
EXIT_CODES = {
    errors.PolygraphError: 1,
    errors.ParseError: 1,
    errors.EndpointMismatch: 1,
    errors.UnknownCell: 1,
    errors.UnknownGenerator: 1,
    errors.DuplicateName: 1,
    errors.MultiObjectUnsupported: 1,
    errors.SearchLimitExceeded: 1,
    errors.StepLimitExceeded: 2,
    errors.NotConvergent: 2,
    errors.InfiniteOrUnknown: 2,
    errors.IllTyped: 3,
    errors.InternalError: 3,
    errors.LawViolation: 3,
    errors.TietzeError: 3,
}


class TestExitCodes:
    def test_every_error_class_has_a_documented_code(self):
        def descendants(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from descendants(sub)

        assert set(descendants(errors.PolygraphError)) | {errors.PolygraphError} == set(
            EXIT_CODES
        )

    @pytest.mark.parametrize(
        "error, code", EXIT_CODES.items(), ids=[cls.__name__ for cls in EXIT_CODES]
    )
    def test_an_error_exits_with_its_code_and_one_line(self, capsys, monkeypatch, error, code):
        def fail(path):
            raise error(f"{error.__name__} from {path}")

        monkeypatch.setattr(cli, "_load", fail)
        assert run(capsys, ["parse", Z5]) == (code, "", f"{error.__name__} from {Z5}\n")

    def test_a_file_that_is_not_utf8_cannot_be_read(self, tmp_path):
        plg = tmp_path / "latin1.plg"
        plg.write_bytes("< a | a^5 = 1 >  # \xe9\n".encode("latin-1"))
        script = tmp_path / "latin1.tz"
        script.write_bytes("T1 b := a a  # \xe9\n".encode("latin-1"))
        for argv, path in [(["parse", plg], plg), (["tietze", Z5, script], script)]:
            proc = run_process(*argv, stdout=subprocess.PIPE)
            assert (proc.returncode, proc.stdout) == (1, "")
            assert proc.stderr.startswith(f"cannot read {path}: 'utf-8' codec")
            assert "Traceback" not in proc.stderr

    def test_an_unwritable_output_path_cannot_be_written(self, tmp_path):
        target = tmp_path / "missing" / "x"
        proc = run_process("complete", Z5, "-o", str(target), stdout=subprocess.PIPE)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith(f"cannot write {target}: ")
        assert "Traceback" not in proc.stderr

    def test_a_closed_stdout_exits_one_quietly(self):
        # No process holds the read end, so the first flush fails with EPIPE.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_process("enumerate", D5, stdout=write_end)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, "")


# What the console-script wrapper that pip writes for a
# ``[project.scripts]`` entry does, with the entry point's value filled in.
_WRAPPER = """\
import sys
from importlib.metadata import EntryPoint
main = EntryPoint(name="polygraph", value={value!r}, group="console_scripts").load()
sys.argv[0] = "polygraph"
sys.exit(main())
"""


def test_installed_entry_point_round_trips(tmp_path):
    """The declared console script reaches ``cli.main`` in a process of its
    own and carries stdout and the exit code back out unchanged.

    Writing the wrapper and putting it on ``PATH`` is the installer's job,
    so the test runs the wrapper's code in a fresh interpreter against this
    checkout's ``src`` instead of trusting whatever ``polygraph`` is on
    ``PATH``.
    """
    tomllib = pytest.importorskip("tomllib")
    root = DATA.parents[1]
    with open(root / "pyproject.toml", "rb") as handle:
        value = tomllib.load(handle)["project"]["scripts"]["polygraph"]
    code = _WRAPPER.format(value=value)
    env = {**os.environ, "PYTHONPATH": str(root / "src")}

    def polygraph(*argv):
        return subprocess.run(
            [sys.executable, "-c", code, *argv],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
            cwd=tmp_path,
        )

    proc = polygraph("parse", B3)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "< a, b | a b a = b a b >\n"

    proc = polygraph("complete", B3, "--max-rules", "50")
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == "gave-up reason=max_rules rules=51\n"

    proc = polygraph("parse", str(DATA / "nope.plg"))
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
