"""Command-line interface: exit codes, byte-stable output, JSON modes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

from conftest import DATA
from polygraph import cli, rewriting

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

    def test_both_methods_read_the_same_word_grammar(self, capsys):
        # z5 converges, so eq uses normal forms; b3 falls back to search.
        for path in (Z5, B3):
            code, out, err = run(capsys, ["eq", path, "a'^2", "a' a'", "--max-rules", "50"])
            assert (code, out) == (1, ""), path
            assert "bad word term \"a'^2\"" in err


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

    def test_exceeding_the_cap_exits_two(self, capsys):
        code, out, err = run(capsys, ["enumerate", Z5, "--cap", "3"])
        assert code == 2
        assert out == ""
        assert "more than 3" in err


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
        root = DATA.parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "polygraph", "tietze", B3, str(script)],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
        )
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


class TestUsage:
    def test_no_arguments_is_a_usage_error(self, capsys):
        assert run(capsys, [])[0] == 1

    def test_unknown_flags_are_usage_errors(self, capsys):
        assert run(capsys, ["parse", B3, "--wat"])[0] == 1

    def test_help_exits_zero(self, capsys):
        code, out, err = run(capsys, ["--help"])
        assert code == 0
        assert "polygraph" in out


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
