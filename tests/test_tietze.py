"""Presentation rewiring: step checking, scripts, transport, witnesses."""

from __future__ import annotations

import copy
import pickle
import random
import tracemalloc

import pytest

import props
from conftest import DATA, load
from polygraph import oracle, tietze
from polygraph.errors import MultiObjectUnsupported, ParseError, TietzeError, UnknownGenerator
from polygraph.model import Gen, Horiz, Id, Inv, Vert, boundary, chain, euler_data
from polygraph.oracle import SearchSpace
from polygraph.presentations import parse
from polygraph.rewriting import (
    Converged,
    Finite,
    complete,
    encode,
    enumerate_normal_forms,
    word_equal,
)
from polygraph.tietze import (
    InvT0,
    InvT1,
    InvT2,
    T0,
    T1,
    T2,
    apply,
    apply_script,
    format_derivation,
    inverse,
    parse_derivation,
    parse_script,
    run_script,
    synthesize_witness,
    transport,
    verify,
)
from polygraph.words import Letter, Word, format_word

TYPED = """polygraph
cells: x y
gen f : x -> y
gen g : y -> x
rel loop : f g = 1
"""

WITNESS_AC_CB = (
    "(v (h (id a) (inv (gen def_c +)))"
    " (v (gen r1 +) (h (gen def_c +) (id b))))"
)
WITNESS_R1 = (
    "(v (v (h (id a) (gen def_c +)) (gen r2 +))"
    " (inv (h (gen def_c +) (id b))))"
)


@pytest.fixture()
def b3c(b3):
    """The braid presentation with c := b a adjoined."""
    return apply(b3, T1(word=b3.word("b a"), new_gen="c", new_rel="def_c"))


@pytest.fixture()
def b3full(b3c):
    witness = parse_derivation(WITNESS_AC_CB, b3c)
    return apply(b3c, T2(witness=witness, new_rel="r2"))


class TestT0:
    def test_adjoins_a_cell_and_a_bridge_generator(self, z5):
        step = T0(at="*", new_cell="y", new_gen="f")
        assert verify(z5, step)
        out = apply(z5, step)
        assert out.cells0 == ("*", "y")
        assert out.gens["f"] == ("*", "y")
        assert out.rels == z5.rels

    def test_rejects_unknown_base_cell(self, z5):
        check = verify(z5, T0(at="nope", new_cell="y", new_gen="f"))
        assert not check and "unknown 0-cell" in check.reason

    def test_rejects_colliding_names(self, z5):
        taken_cell = verify(z5, T0(at="*", new_cell="*", new_gen="f"))
        assert "already exists" in taken_cell.reason
        taken_gen = verify(z5, T0(at="*", new_cell="y", new_gen="a"))
        assert "already exists" in taken_gen.reason

    def test_rejects_whitespace_names(self, z5):
        check = verify(z5, T0(at="*", new_cell="y z", new_gen="f"))
        assert "whitespace-free" in check.reason


class TestT1:
    def test_adjoins_a_defined_generator(self, b3, b3c):
        assert b3c.gens["c"] == ("*", "*")
        lhs, rhs = b3c.rels["def_c"]
        assert format_word(lhs) == "b a"
        assert format_word(rhs) == "c"

    def test_rejects_existing_names(self, b3):
        gen_taken = verify(b3, T1(word=b3.word("b a"), new_gen="a", new_rel="x"))
        assert "generator 'a' already exists" in gen_taken.reason
        rel_taken = verify(b3, T1(word=b3.word("b a"), new_gen="c", new_rel="r1"))
        assert "relation 'r1' already exists" in rel_taken.reason

    def test_rejects_a_word_foreign_to_the_presentation(self, b3, q8):
        foreign = q8.word("i j")
        check = verify(b3, T1(word=foreign, new_gen="c", new_rel="x"))
        assert "defining word is not valid here" in check.reason

    def test_rejects_a_word_whose_letters_do_not_run_between_its_endpoints(self):
        # f runs from x to y; stated as a loop at y, it would give the new
        # generator and its relation endpoints that validate() refuses.
        p = parse(TYPED)
        bad = Word((Letter("f", 1),), "y", "y")
        with pytest.raises(TietzeError) as err:
            apply(p, T1(word=bad, new_gen="c", new_rel="d"))
        assert str(err.value) == (
            "defining word is not valid here: f runs from 'x' to 'y', not 'y' to 'y'"
        )


class TestT2:
    def test_adjoins_the_derived_relation(self, b3c, b3full):
        lhs, rhs = b3full.rels["r2"]
        assert (format_word(lhs), format_word(rhs)) == ("a c", "c b")

    def test_declared_sphere_must_match_the_witness(self, b3c):
        witness = parse_derivation(WITNESS_AC_CB, b3c)
        declared = (b3c.word("a c"), b3c.word("b c"))
        check = verify(b3c, T2(witness=witness, new_rel="r2", declared=declared))
        assert not check
        assert "boundary mismatch" in check.reason
        assert "witness proves a c = c b" in check.reason

    def test_an_undeclared_relation_is_derived_from_the_witness(
        self, b3c, monkeypatch
    ):
        witness = parse_derivation(WITNESS_AC_CB, b3c)
        calls = []

        def counting_boundary(p, d):
            calls.append(d)
            return boundary(p, d)

        monkeypatch.setattr(tietze, "boundary", counting_boundary)
        after = apply(b3c, T2(witness=witness, new_rel="r2"))
        # The one call that checks the witness also derives the relation.
        assert calls == [witness]
        assert after.rels["r2"] == boundary(b3c, witness)

    def test_rejects_a_witness_over_a_word_that_misstates_its_endpoints(self):
        # With f stated as a loop at y, the witness would prove f g = f g as
        # a relation from y to x.
        p = parse(TYPED)
        bad = Word((Letter("f", 1),), "y", "y")
        witness = Horiz(Id(bad), Id(p.word("g")))
        check = verify(p, T2(witness=witness, new_rel="bogus"))
        assert check.reason == (
            "witness does not check: f runs from 'x' to 'y', not 'y' to 'y'"
        )
        with pytest.raises(TietzeError):
            apply(p, T2(witness=witness, new_rel="bogus"))

    def test_broken_witnesses_are_reported(self, b3):
        check = verify(b3, T2(witness=Gen("nope", 1), new_rel="r2"))
        assert "witness does not check" in check.reason

    def test_rejects_existing_relation_names(self, b3):
        check = verify(b3, T2(witness=Gen("r1", 1), new_rel="r1"))
        assert "already exists" in check.reason


class TestInvT0:
    def test_removes_an_unused_dangling_cell(self, z5):
        extended = apply(z5, T0(at="*", new_cell="y", new_gen="f"))
        back = apply(extended, InvT0(cell="y", gen="f"))
        assert back == z5

    def test_generator_must_target_the_cell(self):
        p = parse(TYPED)
        check = verify(p, InvT0(cell="x", gen="f"))
        assert "does not target" in check.reason

    def test_loops_cannot_carry_a_cell_removal(self, z5):
        check = verify(z5, InvT0(cell="*", gen="a"))
        assert "is a loop" in check.reason

    def test_cell_must_not_touch_other_generators(self):
        p = parse(TYPED)
        check = verify(p, InvT0(cell="y", gen="f"))
        assert "still touches generator 'g'" in check.reason

    def test_cell_must_not_anchor_any_relation(self, z5):
        extended = apply(z5, T0(at="*", new_cell="z", new_gen="k"))
        anchored = extended.copy()
        k = Word.from_letters((Letter("k", 1),), anchored.gens)
        anchored.rels["e"] = (k, k)
        check = verify(anchored, InvT0(cell="z", gen="k"))
        assert "appears in relation 'e'" in check.reason

    def test_generator_must_not_appear_in_relations(self, z5):
        extended = apply(z5, T0(at="*", new_cell="z", new_gen="k"))
        used = extended.copy()
        loop = Word.from_letters((Letter("k", 1), Letter("k", -1)), used.gens)
        identity = Word((), "*", "*")
        used.rels["e"] = (loop, identity)
        check = verify(used, InvT0(cell="z", gen="k"))
        assert "generator 'k' appears in relation 'e'" in check.reason


class TestInvT1:
    def test_removes_a_defined_generator(self, b3, b3c):
        assert apply(b3c, InvT1(gen="c", rel="def_c")) == b3

    def test_defining_relation_may_hold_the_generator_on_either_side(self):
        p = parse("< a, b | b = a a >")
        assert verify(p, InvT1(gen="b", rel="r1"))

    def test_exact_phrase_when_the_generator_is_still_used(self, b3full):
        check = verify(b3full, InvT1(gen="c", rel="def_c"))
        assert not check
        assert check.reason == "generator still used: 'c' appears in relation 'r2'"

    def test_relation_must_have_defining_shape(self, b3):
        check = verify(b3, InvT1(gen="a", rel="r1"))
        assert "is not of shape" in check.reason

    def test_self_referential_definitions_are_rejected(self):
        p = parse("< a | a a = a >")
        check = verify(p, InvT1(gen="a", rel="r1"))
        assert "mentions 'a' itself" in check.reason


class TestInvT2:
    def test_removes_a_rederivable_relation(self, b3full):
        witness = parse_derivation(WITNESS_R1, b3full)
        after = apply(b3full, InvT2(rel="r1", witness=witness))
        assert set(after.rels) == {"def_c", "r2"}

    def test_witness_may_not_use_the_removed_relation(self, b3):
        check = verify(b3, InvT2(rel="r1", witness=Gen("r1", 1)))
        assert "witness does not check over the other relations" in check.reason

    def test_witness_must_prove_the_removed_sphere(self, b3full):
        # A correct derivation of the wrong equation is rejected.
        wrong = parse_derivation("(gen r2 +)", b3full)
        check = verify(b3full, InvT2(rel="r1", witness=wrong))
        assert "boundary mismatch" in check.reason


def _bridged(z5, lhs: str, rhs: str, at: str):
    """z5 with a bridge k : * -> z and a relation e : lhs = rhs at ``at``."""
    p = apply(z5, T0(at="*", new_cell="z", new_gen="k")).copy()
    p.rels["e"] = (p.word(lhs, at=at), p.word(rhs, at=at))
    return p


_STATES = {
    "typed": lambda request: parse(TYPED),
    "anchored": lambda request: _bridged(request.getfixturevalue("z5"), "k' k", "1", "z"),
    "used": lambda request: _bridged(request.getfixturevalue("z5"), "k k'", "1", "*"),
    "self": lambda request: parse("< a | a a = a >"),
}


class TestRefusals:
    """Every way a step can fail to verify, one row each, with its exact reason."""

    @pytest.mark.parametrize(
        "state, make, reason",
        [
            ("z5", lambda p: T0(at="nope", new_cell="y", new_gen="f"),
             "unknown 0-cell 'nope'"),
            ("z5", lambda p: T0(at="*", new_cell="y z", new_gen="f"),
             "new names must be nonempty and whitespace-free"),
            ("z5", lambda p: T0(at="*", new_cell="*", new_gen="f"),
             "0-cell '*' already exists"),
            ("z5", lambda p: T0(at="*", new_cell="y", new_gen="a"),
             "generator 'a' already exists"),
            ("b3", lambda p: T1(word=p.word("b a"), new_gen="", new_rel="x"),
             "new names must be nonempty and whitespace-free"),
            ("b3", lambda p: T1(word=p.word("b a"), new_gen="a", new_rel="x"),
             "generator 'a' already exists"),
            ("b3", lambda p: T1(word=p.word("b a"), new_gen="c", new_rel="r1"),
             "relation 'r1' already exists"),
            ("b3", lambda p: T1(word=load("q8.plg").word("i j"), new_gen="c", new_rel="x"),
             "defining word is not valid here: unknown generator 'i'"),
            ("b3", lambda p: T2(witness=Gen("r1", 1), new_rel=" "),
             "new names must be nonempty and whitespace-free"),
            ("b3", lambda p: T2(witness=Gen("r1", 1), new_rel="r1"),
             "relation 'r1' already exists"),
            ("b3", lambda p: T2(witness=Gen("nope", 1), new_rel="r2"),
             "witness does not check: unknown relation 'nope'"),
            ("b3c", lambda p: T2(
                witness=parse_derivation(WITNESS_AC_CB, p),
                new_rel="r2",
                declared=(p.word("a c"), p.word("b c")),
            ), "boundary mismatch: witness proves a c = c b, declared a c = b c"),
            ("z5", lambda p: InvT0(cell="nope", gen="a"), "unknown 0-cell 'nope'"),
            ("z5", lambda p: InvT0(cell="*", gen="zz"), "unknown generator 'zz'"),
            ("typed", lambda p: InvT0(cell="x", gen="f"), "generator 'f' does not target 'x'"),
            ("z5", lambda p: InvT0(cell="*", gen="a"), "generator 'a' is a loop at '*'"),
            ("typed", lambda p: InvT0(cell="y", gen="f"),
             "0-cell 'y' still touches generator 'g'"),
            ("anchored", lambda p: InvT0(cell="z", gen="k"), "0-cell 'z' appears in relation 'e'"),
            ("used", lambda p: InvT0(cell="z", gen="k"), "generator 'k' appears in relation 'e'"),
            ("b3", lambda p: InvT1(gen="zz", rel="r1"), "unknown generator 'zz'"),
            ("b3", lambda p: InvT1(gen="a", rel="zz"), "unknown relation 'zz'"),
            ("b3", lambda p: InvT1(gen="a", rel="r1"), "relation 'r1' is not of shape (word, a)"),
            ("self", lambda p: InvT1(gen="a", rel="r1"), "defining word mentions 'a' itself"),
            ("b3full", lambda p: InvT1(gen="c", rel="def_c"),
             "generator still used: 'c' appears in relation 'r2'"),
            ("b3", lambda p: InvT2(rel="zz", witness=Gen("r1", 1)), "unknown relation 'zz'"),
            ("b3", lambda p: InvT2(rel="r1", witness=Gen("r1", 1)),
             "witness does not check over the other relations: unknown relation 'r1'"),
            ("b3full", lambda p: InvT2(rel="r1", witness=parse_derivation("(gen r2 +)", p)),
             "boundary mismatch: witness proves a c = c b, removing a b a = b a b"),
            ("b3", lambda p: "junk", "not a Tietze step: 'junk'"),
        ],
    )
    def test_verify_gives_the_reason_apply_raises(self, request, state, make, reason):
        p = _STATES[state](request) if state in _STATES else request.getfixturevalue(state)
        step = make(p)
        check = verify(p, step)
        assert (check.ok, check.reason) == (False, reason)
        with pytest.raises(TietzeError) as err:
            apply(p, step)
        assert str(err.value) == reason


class TestInverse:
    def test_every_step_kind_round_trips(self, b3, b3c, b3full, z5):
        cases = [
            (z5, T0(at="*", new_cell="y", new_gen="f")),
            (b3, T1(word=b3.word("b a"), new_gen="c", new_rel="def_c")),
            (b3c, T2(witness=parse_derivation(WITNESS_AC_CB, b3c), new_rel="r2")),
        ]
        for start, step in cases:
            forward = apply(start, step)
            back = inverse(start, step)
            assert apply(forward, back) == start
            # Undoing the undo lands back on the forward state.
            again = inverse(forward, back)
            assert apply(start, again) == forward

    def test_removing_a_middle_relation_round_trips(self):
        p = parse("< a, b | a^5 = 1, b = a a >")
        removal = InvT1(gen="b", rel="r2")
        slim = apply(p, removal)
        assert list(slim.rels) == ["r1"]
        assert apply(slim, inverse(p, removal)) == p

    def test_inverse_needs_the_state_it_acts_on(self, b3):
        with pytest.raises(TietzeError, match="unknown relation"):
            inverse(b3, InvT1(gen="c", rel="def_c"))

    @pytest.mark.parametrize(
        "step, message",
        [
            (InvT0(cell="y", gen="zz"), "unknown generator 'zz'"),
            (InvT1(gen="c", rel="zz"), "unknown relation 'zz'"),
            (InvT1(gen="a", rel="r1"), "relation 'r1' does not define 'a'"),
            (InvT2(rel="zz", witness=Gen("r1", 1)), "unknown relation 'zz'"),
            ("junk", "not a Tietze step: 'junk'"),
        ],
    )
    def test_refusals_name_the_missing_part(self, b3, step, message):
        with pytest.raises(TietzeError) as err:
            inverse(b3, step)
        assert str(err.value) == message


class TestTransport:
    def test_additions_leave_letters_unchanged(self, b3):
        steps = parse_script((DATA / "braid3.tz").read_text(), b3)
        word = b3.word("a b a")
        out = transport(b3, steps, word)
        assert out.letters == word.letters
        assert (out.src, out.tgt) == ("*", "*")

    def test_generator_removal_substitutes_the_defining_word(self, b3c):
        removal = [InvT1(gen="c", rel="def_c")]
        assert format_word(transport(b3c, removal, b3c.word("c"))) == "b a"
        # Inverse letters substitute the inverted word, unreduced.
        out = transport(b3c, removal, b3c.word("a c' b"))
        assert format_word(out) == "a a' b' b"

    def test_cell_removal_rejects_words_using_the_bridge(self, z5):
        extended = apply(z5, T0(at="*", new_cell="y", new_gen="f"))
        word = extended.word("f", at="*")
        with pytest.raises(UnknownGenerator, match="removed by InvT0"):
            transport(extended, [InvT0(cell="y", gen="f")], word)

    @pytest.mark.parametrize(
        "step, message",
        [
            (InvT1(gen="a", rel="zz"), "unknown relation 'zz'"),
            (InvT1(gen="a", rel="r1"), "relation 'r1' does not define 'a'"),
        ],
    )
    def test_a_removal_that_does_not_fit_is_refused_as_inverse_refuses_it(
        self, b3, step, message
    ):
        with pytest.raises(TietzeError) as err:
            transport(b3, [step], b3.word("a"))
        assert str(err.value) == message

    def test_equality_is_invariant_under_definition_and_removal(self, z5):
        t1 = T1(word=z5.word("a a"), new_gen="t", new_rel="def_t")
        extended = apply(z5, t1)
        out = complete(encode(z5, None))
        ext_out = complete(encode(extended, None))
        assert isinstance(out, Converged) and isinstance(ext_out, Converged)
        base_system, ext_system = out.system, ext_out.system

        rng = random.Random(17)
        letters = ["a", "a'", "t", "t'"]

        def sample():
            n = rng.randrange(0, 6)
            text = " ".join(rng.choice(letters) for _ in range(n)) or "1"
            return extended.word(text)

        removal = [InvT1(gen="t", rel="def_t")]
        checked = 0
        for _ in range(100):
            u, v = sample(), sample()
            down_u = transport(extended, removal, u)
            down_v = transport(extended, removal, v)
            assert word_equal(ext_system, u, v) == word_equal(
                base_system, down_u, down_v
            )
            checked += 1
        assert checked == 100

    def test_element_count_is_invariant_along_a_round_trip(self, z5):
        script = (DATA / "z5_roundtrip.tz").read_text()
        steps = parse_script(script, z5)
        middle = apply(z5, steps[0])
        for p in (z5, middle, apply_script(z5, steps)):
            out = complete(encode(p, None))
            assert isinstance(out, Converged)
            forms = enumerate_normal_forms(out.system, cap=100)
            assert isinstance(forms, Finite)
            assert len(forms.words) == 5


class TestEulerData:
    def test_step_deltas(self, z5, b3, b3c):
        def delta(p, step):
            before = euler_data(p)
            after = euler_data(apply(p, step))
            return tuple(a - b for a, b in zip(after, before))

        assert delta(z5, T0(at="*", new_cell="y", new_gen="f")) == (1, 1, 0)
        assert delta(b3, T1(word=b3.word("b a"), new_gen="c", new_rel="def_c")) == (
            0,
            1,
            1,
        )
        witness = parse_derivation(WITNESS_AC_CB, b3c)
        assert delta(b3c, T2(witness=witness, new_rel="r2")) == (0, 0, 1)

    def test_characteristic_moves_only_under_t2(self, b3, b3c):
        def chi(p):
            n0, n1, n2 = euler_data(p)
            return n0 - n1 + n2

        assert chi(b3c) == chi(b3)
        witness = parse_derivation(WITNESS_AC_CB, b3c)
        assert chi(apply(b3c, T2(witness=witness, new_rel="r2"))) == chi(b3c) + 1


class TestDerivationText:
    def test_braid_witnesses_print_back_verbatim(self, b3c, b3full):
        for text, p in [(WITNESS_AC_CB, b3c), (WITNESS_R1, b3full)]:
            assert format_derivation(parse_derivation(text, p)) == text

    def test_all_node_heads_round_trip(self, z5):
        for text in [
            "(gen r1 +)",
            "(gen r1 -)",
            "(inv (gen r1 +))",
            "(id a^2)",
            "(id a a')",
            "(id 1)",
            "(lam a)",
            "(rho a)",
            "(v (gen r1 +) (gen r1 -))",
            "(h (id a) (id a))",
        ]:
            assert format_derivation(parse_derivation(text, z5)) == text

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "line 1, column 1: unexpected end of derivation"),
            ("(", "line 1, column 1: unexpected end of derivation"),
            (")", "line 1, column 1: expected '(', found ')'"),
            ("gen", "line 1, column 1: expected '(', found 'gen'"),
            ("(gen r1 +", "line 1, column 1: unexpected end of derivation"),
            ("(gen r1 *)", "line 1, column 9: relation sign must be + or -, found '*'"),
            ("(gen r1 + x)", "line 1, column 11: expected ')', found 'x'"),
            ("(lam a", "line 1, column 1: unexpected end of derivation"),
            ("(lam a b)", "line 1, column 8: expected ')', found 'b'"),
            ("(id a", "line 1, column 1: unexpected end of derivation"),
            ("(id zz)", "line 1, column 5: unknown generator 'zz'"),
            ("(id a ( b)", "line 1, column 7: bad word term '('"),
            ("(id 1 a)", "line 1, column 7: the identity word '1' stands alone"),
            (
                "(id a^99999999)",
                "line 1, column 5: word exceeds MAX_WORD_LETTERS (1000000 letters)",
            ),
            ("(h (id a))", "line 1, column 10: expected '(', found ')'"),
            ("(h (id a) (id a) (id a))", "line 1, column 18: expected ')', found '('"),
            ("(v (gen r1 +)", "line 1, column 1: unexpected end of derivation"),
            ("(inv (gen r1 +) (gen r1 +))", "line 1, column 17: expected ')', found '('"),
            ("(inv)", "line 1, column 5: expected '(', found ')'"),
            ("(foo)", "line 1, column 2: unknown derivation head 'foo'"),
            ("((gen r1 +))", "line 1, column 2: unknown derivation head '('"),
            ("(gen r1 +) )", "line 1, column 12: trailing ')' after derivation"),
            ("(id a) (id a)", "line 1, column 8: trailing '(' after derivation"),
            ("(id a)(id a)", "line 1, column 7: trailing '(' after derivation"),
        ],
    )
    def test_parse_errors_are_positioned(self, b3, text, message):
        with pytest.raises(ParseError) as err:
            parse_derivation(text, b3)
        assert str(err.value) == message

    def test_tokens_need_no_spaces_around_parentheses(self, b3):
        assert format_derivation(parse_derivation("(h(id a)(id\tb))", b3)) == "(h (id a) (id b))"
        # A relation or generator name is any token, a parenthesis included;
        # boundary() is what refuses it.
        assert parse_derivation("(gen ) +)", b3) == Gen(")", 1)


class TestParseScript:
    def test_braid_rewiring_script(self, b3):
        steps = parse_script((DATA / "braid3.tz").read_text(), b3)
        assert [type(s) for s in steps] == [T1, T2, InvT2]
        assert steps[0].new_rel == "def_c"
        after = apply_script(b3, steps)
        assert set(after.rels) == {"def_c", "r2"}

    def test_definition_names_get_bumped_on_collision(self, b3):
        crowded = b3.copy()
        crowded.rels["def_c"] = b3.rels["r1"]
        (step,) = parse_script("T1 c := b a", crowded)
        assert step.new_rel == "def_c_2"

    def test_t0_and_inverse_t0_lines(self, z5):
        steps = parse_script("T0 y f : *\nINV T0 y f\n", z5)
        assert steps == [T0(at="*", new_cell="y", new_gen="f"), InvT0(cell="y", gen="f")]
        assert apply_script(z5, steps) == z5

    def test_rejected_step_carries_line_and_state(self, b3):
        with pytest.raises(TietzeError) as err:
            parse_script("T1 a := b", b3)
        assert str(err.value).startswith("line 1: T1 does not verify:")
        assert err.value.state == b3

    def test_a_failing_script_step_keeps_the_state_before_it(self, b3):
        first = T1(word=b3.word("b a"), new_gen="c", new_rel="def_c")
        second = T0(at="*", new_cell="y", new_gen="f")
        clash = T1(word=b3.word("a"), new_gen="c", new_rel="d2")
        with pytest.raises(TietzeError) as err:
            apply_script(b3, [first, second, clash])
        assert str(err.value) == "step 3 (T1): generator 'c' already exists"
        assert err.value.state == apply(apply(b3, first), second)

    def test_each_t2_step_is_checked_once_per_application(self, b3, monkeypatch):
        calls = []

        def counting_boundary(p, d):
            calls.append(d)
            return boundary(p, d)

        monkeypatch.setattr(tietze, "boundary", counting_boundary)
        run_script(b3, f"T1 c := b a\nT2 r2 : a c = c b WITNESS {WITNESS_AC_CB}\n")
        # Reading the script applies each step once, and run_script keeps
        # the result; an application checks the witness against the declared
        # relation and records that relation without deriving it again.
        assert len(calls) == 1

    def test_failures_name_the_failing_line(self, b3):
        script = "# setup\nT1 c := b a\nINV T1 nosuch\n"
        with pytest.raises(ParseError, match="0 defining relations") as err:
            parse_script(script, b3)
        assert err.value.span.line == 3

    @pytest.mark.parametrize(
        "script, message",
        [
            ("T9 x", "line 1, column 1: unknown step 'T9'"),
            ("   T9 x", "line 1, column 4: unknown step 'T9'"),
            ("T1 c = b a", "line 1, column 1: T1 syntax: T1 GEN := WORD"),
            ("T2 r : a b a = b a b", "line 1, column 1: T2 needs a WITNESS derivation"),
            ("T0 y f *", "line 1, column 1: T0 syntax: T0 CELL GEN : AT"),
            ("T0 y f : * extra", "line 1, column 1: T0 syntax: T0 CELL GEN : AT"),
            ("T1 c := ", "line 1, column 1: T1 syntax: T1 GEN := WORD"),
            ("T1 c := a(b)", "line 1, column 10: bad word term '('"),
            ("T2 r = a", "line 1, column 1: T2 syntax: T2 REL : WORD = WORD WITNESS SEXPR"),
            ("T2 r : a b", "line 1, column 1: T2 relation needs an = between its sides"),
            (
                "T2 r : a b a b a b WITNESS (gen r1 +)",
                "line 1, column 28: bad word term '('",
            ),
            ("T2 r : a b a = b a b WITNESS", "line 1, column 1: unexpected end of derivation"),
            (
                "T2 r : a b a = b a b WITNESS (gen r1 +) x",
                "line 1, column 41: trailing 'x' after derivation",
            ),
            ("INV T1", "line 1, column 1: INV syntax: INV T0|T1|T2 ..."),
            ("INV T0 y f g", "line 1, column 1: INV T0 syntax: INV T0 CELL GEN"),
            ("INV T1 a b", "line 1, column 1: INV T1 syntax: INV T1 GEN"),
            (
                "INV T2 r1 (gen r1 +)",
                "line 1, column 1: INV T2 syntax: INV T2 REL WITNESS SEXPR",
            ),
            ("INV T3 x", "line 1, column 5: unknown inverse step 'T3'"),
            ("   # only\n\n  T5", "line 3, column 3: unknown step 'T5'"),
        ],
    )
    def test_syntax_errors(self, b3, script, message):
        with pytest.raises(ParseError) as err:
            parse_script(script, b3)
        assert str(err.value) == message

    def test_a_comment_ends_the_line(self, b3):
        assert parse_script("T1 c := a # b zz", b3) == [
            T1(word=b3.word("a"), new_gen="c", new_rel="def_c")
        ]

    @pytest.mark.parametrize(
        "line",
        [
            "T1 c := a    b zz",
            "   T1 c := a b zz",
            "T2 r : a b a =  b  zz WITNESS (gen r1 +)",
            "T2 r : a b a = b a b WITNESS (v (id a  b   zz) (gen r1 +))",
            "\tINV T2 r1 WITNESS (inv (h (id  zz) (gen r1 +)))",
        ],
    )
    def test_word_errors_point_at_the_term_in_the_line(self, b3, line):
        # Gaps of several spaces, an indent and a tab all count as columns.
        with pytest.raises(ParseError, match="unknown generator 'zz'") as err:
            parse_script(f"# header\n{line}\n", b3)
        assert (err.value.span.line, err.value.span.column) == (2, line.index("zz") + 1)

    def test_inverse_t1_resolves_the_unique_defining_relation(self, z5):
        steps = parse_script("T1 b := a a\nINV T1 b\n", z5)
        assert steps[1] == InvT1(gen="b", rel="def_b")
        assert run_script(z5, "T1 b := a a\nINV T1 b\n") == z5


class TestSynthesizeWitness:
    def test_finds_the_derived_braid_relation(self, b3c):
        source, target = b3c.word("a c"), b3c.word("c b")
        witness = synthesize_witness(b3c, source, target)
        assert witness is not None
        assert boundary(b3c, witness) == (source, target)

    def test_uses_insertions_when_needed(self):
        z2 = parse("< a | a a = 1 >")
        source, target = z2.word("a"), z2.word("a'")
        witness = synthesize_witness(z2, source, target)
        assert witness is not None
        assert boundary(z2, witness) == (source, target)

    def test_equal_words_get_an_identity_witness(self, z5):
        word = z5.word("a a")
        assert synthesize_witness(z5, word, word) == Id(word)

    def test_several_0_cells_are_refused_as_the_search_refuses_them(self):
        p = parse(TYPED)
        word = p.word("f g", "x")
        with pytest.raises(MultiObjectUnsupported) as err:
            synthesize_witness(p, word, word)
        assert str(err.value) == "word search needs exactly one 0-cell, got 2"

    def test_foreign_generators_are_unknown(self, b3):
        z = Word((Letter("z", 1),), "*", "*")
        with pytest.raises(UnknownGenerator, match="'z'"):
            synthesize_witness(b3, z, b3.word("a"))

    def test_gives_up_within_the_radius(self, b3, monkeypatch):
        assert synthesize_witness(b3, b3.word("a"), b3.word("b"), radius=3) is None
        # The search's letter bound ends it too, with the same None.
        monkeypatch.setattr(oracle, "MAX_SEARCH_LETTERS", 200)
        assert synthesize_witness(b3, b3.word("a"), b3.word("b"), radius=6) is None

    def test_a_long_search_stops_at_the_letter_bound(self, b3):
        # Two 200-letter ends: the search stops at MAX_SEARCH_LETTERS, not
        # at a count of words, and what it holds stays small.
        source, target = b3.word("a b " * 100), b3.word("b a " * 100)
        tracemalloc.start()
        try:
            witness = synthesize_witness(b3, source, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert witness is None
        assert peak < 32 * 2**20

    def test_synthesized_witnesses_power_relation_removal(self, b3full):
        # Search for the removal witness instead of writing it by hand.
        lhs, rhs = b3full.rels["r1"]
        trimmed = b3full.copy()
        del trimmed.rels["r1"]
        witness = synthesize_witness(trimmed, lhs, rhs)
        assert witness is not None
        assert verify(b3full, InvT2(rel="r1", witness=witness))


    def test_every_labelled_move_replays_as_its_own_witness(self):
        p = parse("< a, b | a b a = b a b, a a = 1 >")
        space = SearchSpace(p)
        state = space.encode("a a b b' a b a")
        moves = list(space.moves(state, length_cap=9))
        assert {kind for _, (kind, _, _) in moves} == {"cancel", "insert", "rel"}
        for child, _ in moves:
            source, target = space.decode(state), space.decode(child)
            witness = synthesize_witness(p, source, target, radius=1)
            assert boundary(p, witness) == (source, target)


class TestDeepDerivations:
    def test_format_and_parse_a_long_chain(self, b3):
        a = b3.word("a")
        text = format_derivation(chain([Id(a)] * 1600))
        assert text == "(v " * 1599 + "(id a)" + " (id a))" * 1599
        assert format_derivation(parse_derivation(text, b3)) == text

    def test_parse_a_deeply_nested_witness(self, b3):
        text = "(inv " * 3000 + "(gen r1 +)" + ")" * 3000
        deep = parse_derivation(text, b3)
        assert boundary(b3, deep) == b3.rels["r1"]
        for _ in range(3000):
            assert isinstance(deep, Inv)
            deep = deep.inner
        assert deep == Gen("r1", 1)

    def test_deep_witnesses_compare_and_hash_without_recursion(self, b3):
        text = "(inv " * 3000 + "(gen r1 +)" + ")" * 3000
        deep, again = parse_derivation(text, b3), parse_derivation(text, b3)
        assert deep is not again
        assert deep == again
        assert hash(deep) == hash(again)
        assert len({deep, again}) == 1
        other = parse_derivation(text.replace("(gen r1 +)", "(gen r1 -)"), b3)
        assert deep != other
        assert not deep == other

    def test_deep_witnesses_print_without_recursion(self, b3):
        text = "(inv " * 3000 + "(gen r1 +)" + ")" * 3000
        deep = parse_derivation(text, b3)
        assert repr(deep) == str(deep) == format_derivation(deep) == text
        assert repr(T2(deep, "r2")).startswith("T2(witness=(inv (inv ")

    def test_deep_witnesses_pickle_and_copy_without_recursion(self, b3):
        text = "(inv " * 3000 + "(gen r1 +)" + ")" * 3000
        deep = parse_derivation(text, b3)
        for again in (pickle.loads(pickle.dumps(deep)), copy.deepcopy(deep)):
            assert again is not deep
            assert again == deep
            assert format_derivation(again) == text

    def test_a_shared_subtree_stays_shared_when_copied(self, b3):
        shared = Inv(Gen("r1", 1))
        tree = Vert(shared, Horiz(Id(b3.word("a")), shared))
        for again in (pickle.loads(pickle.dumps(tree)), copy.deepcopy(tree)):
            assert again == tree
            assert again.first is again.second.right
            assert again.first is not shared

    def test_unbalanced_deep_text_is_a_parse_error(self, b3):
        with pytest.raises(ParseError, match="end of derivation"):
            parse_derivation("(inv " * 3000 + "(gen r1 +)" + ")" * 2999, b3)


def test_random_rewirings_cancel_exactly():
    assert props.run_tietze_cancellation_suite(seed=61, cases=1000) == 1000


def test_verify_accepts_exactly_what_apply_applies():
    assert props.run_verify_apply_suite(seed=67, cases=300) == 300
