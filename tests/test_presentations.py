"""The .plg presentation format: angle form, block form, and round-trips."""

import pytest

import props
from conftest import DATA, load
from polygraph import presentations
from polygraph.errors import ParseError
from polygraph.model import Polygraph
from polygraph.words import Letter, Word


class TestAngleForm:
    def test_single_relation(self):
        p = presentations.parse("< a, b | a b a = b a b >")
        assert p.cells0 == ("*",)
        assert p.gens == {"a": ("*", "*"), "b": ("*", "*")}
        assert list(p.rels) == ["r1"]
        assert p.rels["r1"] == (p.word("a b a"), p.word("b a b"))

    def test_relations_are_numbered_in_order(self):
        p = load("d5.plg")
        assert list(p.rels) == ["r1", "r2", "r3"]
        assert p.rels["r2"] == (p.word("s s"), p.word("1"))

    def test_identity_side(self):
        p = presentations.parse("< a | a^5 = 1 >")
        assert p.rels["r1"][1] == Word.identity("*")

    def test_no_relations(self):
        p = presentations.parse("< a, b | >")
        assert p.rels == {}
        assert len(p.gens) == 2

    def test_comments_and_blank_lines(self):
        text = "# leading note\n\n< a |  # inline trailer\n  a^2 = 1 >\n"
        p = presentations.parse(text)
        assert list(p.gens) == ["a"]
        assert p.rels["r1"][0] == p.word("a a")

    def test_duplicate_generator_rejected(self):
        with pytest.raises(ParseError, match="duplicate generator"):
            presentations.parse("< a, a | >")

    def test_unknown_letter_in_relation(self):
        with pytest.raises(ParseError):
            presentations.parse("< a | a b = 1 >")

    def test_error_position(self):
        with pytest.raises(ParseError) as err:
            presentations.parse("< a | a = = a >")
        assert err.value.span is not None
        assert err.value.span.line == 1


class TestBlockForm:
    TEXT = (
        "polygraph\n"
        "cells: x y\n"
        "gen f : x -> y\n"
        "gen g : y -> x\n"
        "rel loop : f g = 1\n"
    )

    def test_parse(self):
        p = presentations.parse(self.TEXT)
        assert p.cells0 == ("x", "y")
        assert p.gens == {"f": ("x", "y"), "g": ("y", "x")}
        lhs, rhs = p.rels["loop"]
        assert (lhs.src, lhs.tgt) == ("x", "x")
        assert rhs == Word.identity("x")

    def test_identity_pair_needs_cell_annotation(self):
        base = "polygraph\ncells: x y\ngen f : x -> y\n"
        with pytest.raises(ParseError):
            presentations.parse(base + "rel r : 1 = 1\n")
        p = presentations.parse(base + "rel r : 1 = 1 @ y\n")
        assert p.rels["r"] == (Word.identity("y"), Word.identity("y"))

    def test_unknown_cell_in_gen(self):
        with pytest.raises(ParseError):
            presentations.parse("polygraph\ncells: x\ngen f : x -> zz\n")

    def test_duplicate_relation_name(self):
        with pytest.raises(ParseError, match="duplicate relation"):
            presentations.parse(
                "polygraph\ncells: x\ngen a : x -> x\n"
                "rel r : a = a\nrel r : a = a\n"
            )


class TestRender:
    def test_angle_form_for_single_cell(self):
        p = load("b3.plg")
        assert presentations.render(p) == "< a, b | a b a = b a b >"

    def test_block_form_for_multiple_cells(self):
        p = presentations.parse(TestBlockForm.TEXT)
        assert presentations.render(p) == TestBlockForm.TEXT

    def test_golden_files_round_trip(self):
        for name in ("z5.plg", "d5.plg", "q8.plg", "b3.plg",
                     "b3_abc.plg", "b3_literal.plg"):
            p = load(name)
            assert presentations.parse(presentations.render(p)) == p

    def test_render_uses_run_notation(self):
        p = presentations.parse("< a | a a a a a = 1 >")
        assert presentations.render(p) == "< a | a^5 = 1 >"

    def test_named_relations_use_block_form(self):
        # angle form cannot carry relation names other than r1..rn
        gens = {"a": ("*", "*")}
        w = Word.from_letters([Letter("a", 1)], gens)
        p = Polygraph(("*",), gens, {"special": (w, w)})
        text = presentations.render(p)
        assert presentations.parse(text) == p


# Every reader error, pinned as the exact text a user sees: line, column
# and message.  Tabs, carriage returns and comments count as columns, and
# the end of input sits one past the last character, comment or not.
_TWO_CELLS = "polygraph\ncells: x y\ngen f : x -> y\ngen g : x -> x\n"
READER_ERRORS = [
    ("", "line 1, column 1: a presentation starts with '<' or 'polygraph'"),
    ("\n\n  \n", "line 4, column 1: a presentation starts with '<' or 'polygraph'"),
    ("# c", "line 1, column 4: a presentation starts with '<' or 'polygraph'"),
    ("hello", "line 1, column 1: a presentation starts with '<' or 'polygraph'"),
    # angle form
    ("< a | a = 1 # c", "line 1, column 16: expected ',' or '>', found ''"),
    ("< a |\t\r b = 1 >", "line 1, column 9: unknown generator 'b'"),
    ("< a-b | >", "line 1, column 3: expected a generator name, found 'a-b'"),
    ("< α | >", "line 1, column 3: expected a generator name, found 'α'"),
    ("< , | >", "line 1, column 3: expected a generator name, found ','"),
    ("< a b | >", "line 1, column 5: expected ',' or '|', found 'b'"),
    ("< a | a -> 1 >", "line 1, column 9: expected a word term, found '->'"),
    ("< a | a = 1 | >", "line 1, column 13: expected a word term, found '|'"),
    ("< a | a - = 1 >", "line 1, column 9: bad word term '-'"),
    ("< a | a^x = 1 >", "line 1, column 7: bad word term 'a^x'"),
    ("< a | = a >", "line 1, column 7: expected a word"),
    ("< a | a", "line 1, column 8: expected '=', found 'end of input'"),
    ("< a | a = 1", "line 1, column 12: expected ',' or '>', found ''"),
    ("< a | a = 1 > b", "line 1, column 15: unexpected trailing 'b'"),
    ("< a | > b", "line 1, column 9: unexpected trailing 'b'"),
    ("< a\n|\n\n a =\n  b >", "line 5, column 3: unknown generator 'b'"),
    # block form
    ("polygraph\n:", "line 2, column 1: expected 'cells:', 'gen' or 'rel', found ':'"),
    ("polygraph\nfoo", "line 2, column 1: expected 'cells:', 'gen' or 'rel', found 'foo'"),
    ("polygraph\ncells: x\ncells: y", "line 3, column 1: duplicate cells: line"),
    (
        "polygraph\ngen a : * -> *\ncells: x",
        "line 3, column 1: cells: must come before gen/rel lines",
    ),
    ("polygraph\ncells: x x", "line 2, column 10: duplicate 0-cell 'x'"),
    ("polygraph\ncells: x =", "line 2, column 10: expected a 0-cell name, found '='"),
    (
        "polygraph\ngen a : * -> *\ngen a : * -> *",
        "line 3, column 5: duplicate generator 'a'",
    ),
    ("polygraph\ngen a x -> y", "line 2, column 7: expected ':', found 'x'"),
    ("polygraph\ngen : x -> y", "line 2, column 5: expected a generator name, found ':'"),
    ("polygraph\ngen a : -> x", "line 2, column 9: expected a 0-cell name, found '->'"),
    ("polygraph\ngen a : x y", "line 2, column 11: expected '->', found 'y'"),
    (
        "polygraph\ncells: x\ngen a : x -> y",
        "line 3, column 14: endpoint 'y' is not a declared 0-cell",
    ),
    (
        "polygraph\ncells: x\ngen a : x -> x extra",
        "line 3, column 16: unexpected trailing 'extra'",
    ),
    (
        "polygraph\ncells: x\ngen a : x -> x\nrel 1 : a = a",
        "line 4, column 5: expected a relation name, found '1'",
    ),
    (
        "polygraph\ncells: x\ngen a : x -> x\nrel r : a = a\nrel r : a = a",
        "line 5, column 5: duplicate relation 'r'",
    ),
    ("polygraph\ncells: x\ngen a : x -> x\nrel r : a = ", "line 4, column 13: expected a word"),
    (
        "polygraph\ncells: x\ngen a : x -> x\nrel r : a -> a = 1",
        "line 4, column 11: expected a word term, found '->'",
    ),
    (
        "polygraph\ncells: x\ngen a : x -> x\nrel r : a = a @ y",
        "line 4, column 17: basepoint 'y' is not a declared 0-cell",
    ),
    (
        "polygraph\ncells: x\ngen a : x -> x\nrel r : a = a @ x y",
        "line 4, column 19: unexpected trailing 'y'",
    ),
    (_TWO_CELLS + "rel r : f = g", "line 5, column 9: relation sides are not parallel"),
    (
        _TWO_CELLS + "rel r : f f = 1",
        "line 5, column 9: letter f starts at 'x' but the word is at 'y'",
    ),
    (
        _TWO_CELLS + "rel r : 1 = 1",
        "line 5, column 5: 1 = 1 needs a basepoint: write 'rel r : 1 = 1 @ cell'",
    ),
    # blank lines and comments are skipped only between statements
    (
        _TWO_CELLS + "rel r : f = f\n\n\t# note\nrel s : g\n",
        "line 8, column 10: expected '=', found '\\n'",
    ),
    (
        "polygraph\ncells: x\ngen a : x -> x\n\n\n  # c\n  rel r : a = b",
        "line 7, column 15: unknown generator 'b'",
    ),
    (
        "polygraph\n\ncells: x\n gen",
        "line 4, column 5: expected a generator name, found 'end of input'",
    ),
    ("polygraph gen a : * -> * junk", "line 1, column 26: unexpected trailing 'junk'"),
]


@pytest.mark.parametrize("text, message", READER_ERRORS)
def test_reader_errors_are_exact(text, message):
    with pytest.raises(ParseError) as err:
        presentations.parse(text)
    assert str(err.value) == message


def test_parser_roundtrip_properties():
    assert props.run_parser_roundtrip_suite(seed=41, cases=1000) == 1000
