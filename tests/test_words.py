"""Letters, zig-zag words, free reduction, and the word text format."""

import pytest

import props
from polygraph.errors import EndpointMismatch, ParseError, UnknownGenerator
from polygraph.words import MAX_WORD_LETTERS, Letter, Word, format_word, parse_word, scan_word

GENS = {"a": ("*", "*"), "b": ("*", "*")}
TYPED = {"f": ("x", "y"), "g": ("y", "z")}


def wd(text, gens=GENS, at="*"):
    return parse_word(text, gens, at=at)


class TestLetter:
    def test_inverse_is_an_involution(self):
        letter = Letter("a", 1)
        assert letter.inverse() == Letter("a", -1)
        assert letter.inverse().inverse() == letter

    def test_endpoints_swap_under_inversion(self):
        assert Letter("f", 1).endpoints(TYPED) == ("x", "y")
        assert Letter("f", -1).endpoints(TYPED) == ("y", "x")

    def test_unknown_generator(self):
        with pytest.raises(UnknownGenerator):
            Letter("zz", 1).endpoints(TYPED)

    def test_str(self):
        assert str(Letter("a", 1)) == "a"
        assert str(Letter("a", -1)) == "a'"


class TestWordConstruction:
    def test_identity(self):
        w = Word.identity("x")
        assert (w.src, w.tgt, len(w)) == ("x", "x", 0)

    def test_from_letters_chains_endpoints(self):
        w = Word.from_letters([Letter("f", 1), Letter("g", 1)], TYPED)
        assert (w.src, w.tgt) == ("x", "z")

    def test_from_letters_rejects_broken_chain(self):
        with pytest.raises(EndpointMismatch):
            Word.from_letters([Letter("f", 1), Letter("f", 1)], TYPED)

    def test_empty_needs_basepoint(self):
        with pytest.raises(EndpointMismatch):
            Word.from_letters([], TYPED)

    def test_checked_keeps_only_the_endpoints_the_letters_run_between(self):
        f = Word.from_letters([Letter("f", 1)], TYPED)
        assert f.checked(TYPED) == f
        for bad in (Word(f.letters, "y", "y"), Word(f.letters, "x", "z"), Word((), "x", "y")):
            with pytest.raises(EndpointMismatch):
                bad.checked(TYPED)

    def test_zigzag_through_inverses(self):
        # f g g' f' is a loop at x
        letters = [Letter("f", 1), Letter("g", 1), Letter("g", -1), Letter("f", -1)]
        w = Word.from_letters(letters, TYPED)
        assert (w.src, w.tgt) == ("x", "x")
        assert w.reduce() == Word.identity("x")


class TestWordAlgebra:
    def test_concat_and_mul(self):
        u, v = wd("a b"), wd("b a")
        assert u.concat(v) == wd("a b b a")
        assert u * v == u.concat(v)

    def test_concat_endpoint_mismatch(self):
        f = Word.from_letters([Letter("f", 1)], TYPED)
        with pytest.raises(EndpointMismatch):
            f.concat(f)

    def test_invert_reverses_and_flips(self):
        assert ~wd("a b'") == wd("b a'")
        assert (~wd("a b'")).invert() == wd("a b'")

    def test_reduce_examples(self):
        assert wd("a a' b") .reduce() == wd("b")
        assert wd("a b b' a' b").reduce() == wd("b")
        assert wd("a' a").reduce() == Word.identity("*")

    def test_reduce_keeps_separated_pairs(self):
        w = wd("a b a'")
        assert w.reduce() == w


class TestWordText:
    def test_format_collapses_runs(self):
        assert format_word(wd("a a a")) == "a^3"
        assert format_word(wd("a' a'")) == "a^-2"
        assert format_word(wd("a b' b' a")) == "a b^-2 a"
        assert format_word(Word.identity("*")) == "1"

    def test_parse_exponents(self):
        assert wd("a^3") == wd("a a a")
        assert wd("a^-2") == wd("a' a'")
        assert wd("a^0") == Word.identity("*")

    def test_parse_identity_token(self):
        assert wd("1") == Word.identity("*")

    def test_parse_rejects_unknown_generator(self):
        with pytest.raises(ParseError, match="unknown generator"):
            wd("a q")

    def test_parse_rejects_garbage(self):
        with pytest.raises(ParseError):
            wd("a ^^ b")

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_word("a 3b", GENS, line=7, column=1)
        assert err.value.span is not None
        assert (err.value.span.line, err.value.span.column) == (7, 3)

    def test_scan_reads_runs_with_positions(self):
        assert scan_word("a b'  a^-3 b^0", line=2, column=5) == [
            ("a", 1, 1, 2, 5),
            ("b", -1, 1, 2, 7),
            ("a", -1, 3, 2, 11),
            ("b", 1, 0, 2, 16),
        ]
        assert scan_word("1") == scan_word("") == scan_word("   ") == []

    @pytest.mark.parametrize("text", ["a'^2", "a^+2", "a ^2", "a ' b", "a^", "1 a", "a 1", "1 1"])
    def test_scan_rejects_text_outside_the_grammar(self, text):
        with pytest.raises(ParseError):
            scan_word(text)


class TestWordLengthCap:
    def test_a_word_may_reach_the_cap(self):
        assert scan_word(f"a^{MAX_WORD_LETTERS}") == [("a", 1, MAX_WORD_LETTERS, 1, 1)]

    def test_one_term_past_the_cap_is_rejected_before_expansion(self):
        with pytest.raises(ParseError, match="MAX_WORD_LETTERS") as err:
            parse_word(f"a^-{MAX_WORD_LETTERS + 1}", GENS, at="*")
        assert (err.value.span.line, err.value.span.column) == (1, 1)

    def test_the_cap_counts_the_whole_word(self):
        with pytest.raises(ParseError, match="MAX_WORD_LETTERS") as err:
            scan_word(f"b a^{MAX_WORD_LETTERS - 1} b'")
        assert err.value.span.column == len(f"b a^{MAX_WORD_LETTERS - 1} ") + 1

    def test_an_exponent_too_long_to_convert_is_over_the_cap(self):
        # int() refuses strings of more than a few thousand digits.
        with pytest.raises(ParseError, match="MAX_WORD_LETTERS"):
            scan_word("a^" + "9" * 5000)
        assert scan_word("a^" + "0" * 5000 + "2") == [("a", 1, 2, 1, 1)]


def test_free_reduction_properties():
    assert props.run_free_reduction_suite(seed=11, cases=1200) == 1200


def test_every_word_reader_shares_one_grammar():
    assert props.run_word_grammar_suite(seed=71, cases=1000) == 1000


def test_word_bytes_reads_text_like_the_term_by_term_reader():
    assert props.run_text_encoding_suite(seed=72, cases=3000) == 3000
