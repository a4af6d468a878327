"""String rewriting: encoding, completion, verification, and normal forms."""

import dataclasses

import pytest

import props
from conftest import load
from polygraph import presentations, rewriting
from polygraph.cayley import build_graph
from polygraph.errors import (
    InternalError,
    MultiObjectUnsupported,
    NotConvergent,
    StepLimitExceeded,
    UnknownGenerator,
)
from polygraph.oracle import table_from_normal_forms
from polygraph.rewriting import (
    Alphabet,
    Converged,
    Finite,
    GaveUp,
    MoreThanCap,
    Proven,
    Refuted,
    Rule,
    RewritingSystem,
    certify,
    complete,
    critical_pairs,
    encode,
    enumerate_normal_forms,
    format_system,
    normalize,
    parse_system,
    verify_convergent,
    word_equal,
)


def ruleset(system):
    return {(system.word_text(r.lhs), system.word_text(r.rhs)) for r in system.rules}


class TestAlphabet:
    def test_precedence_is_positional(self):
        alpha = Alphabet(["a", "b", "a'", "b'"])
        assert alpha.index("a") == 0
        assert alpha.index("a'") == 2

    def test_duplicate_letters_rejected(self):
        with pytest.raises(ValueError):
            Alphabet(["a", "a"])

    def test_unknown_letter(self):
        with pytest.raises(UnknownGenerator):
            Alphabet(["a"]).index("b")


class TestRule:
    def test_must_decrease_shortlex(self):
        Rule(b"\x01", b"\x00")
        Rule(b"\x00\x00", b"\x01")
        with pytest.raises(ValueError):
            Rule(b"\x00", b"\x01")
        with pytest.raises(ValueError):
            Rule(b"\x00", b"\x00")


class TestEncode:
    def test_group_mode_adds_cancellation_rules(self):
        system = encode(load("b3.plg"))
        assert system.alphabet.letters == ("a", "b", "a'", "b'")
        assert ruleset(system) == {
            ("a a'", "1"), ("a' a", "1"),
            ("b b'", "1"), ("b' b", "1"),
            ("b a b", "a b a"),
        }

    def test_custom_precedence_controls_orientation(self):
        system = encode(load("b3.plg"), ["b", "a"])
        assert ("a b a", "b a b") in ruleset(system)

    def test_monoid_mode_positive_alphabet(self):
        system = encode(load("b3.plg"), inverses=False)
        assert system.alphabet.letters == ("a", "b")
        assert ruleset(system) == {("b a b", "a b a")}

    def test_monoid_mode_rejects_inverse_letters(self):
        p = presentations.parse("< a, b | a b' = 1 >")
        with pytest.raises(UnknownGenerator):
            encode(p, inverses=False)

    def test_freely_trivial_relation_dropped(self):
        p = presentations.parse("< a | a a' = 1 >")
        system = encode(p)
        assert ruleset(system) == {("a a'", "1"), ("a' a", "1")}

    def test_relation_sides_are_freely_reduced(self):
        p = presentations.parse("< a, b | a a' b a = b b >")
        assert ruleset(encode(p)) == {
            ("a a'", "1"), ("a' a", "1"),
            ("b b'", "1"), ("b' b", "1"),
            ("b b", "b a"),
        }

    def test_multiple_cells_unsupported(self):
        p = presentations.parse(
            "polygraph\ncells: x y\ngen f : x -> y\n"
        )
        with pytest.raises(MultiObjectUnsupported):
            encode(p)


class TestComplete:
    def test_cyclic_five(self, z5_system):
        # Completion replaces the length-five relator with the balanced
        # pair a^3 -> a^-2 and a^-3 -> a^2; five normal forms remain.
        assert z5_system.convergent == "proven"
        assert ruleset(z5_system) == {
            ("a a'", "1"), ("a' a", "1"),
            ("a a a", "a' a'"), ("a' a' a'", "a a"),
        }

    def test_gave_up_max_rules(self):
        out = complete(encode(load("b3.plg")), max_rules=200)
        assert isinstance(out, GaveUp)
        assert out.reason == "max_rules"
        assert len(out.system.rules) > 200

    def test_gave_up_max_lhs_len(self):
        out = complete(encode(load("b3.plg"), inverses=False), max_lhs_len=16)
        assert isinstance(out, GaveUp)
        assert out.reason == "max_lhs_len"

    def test_gave_up_max_steps(self):
        out = complete(encode(load("d5.plg")), max_steps=3)
        assert isinstance(out, GaveUp)
        assert out.reason == "max_steps"

    def test_step_limit_inside_normalization_gives_up(self):
        # Normalizing b^10 a^10 takes 100 rewrites, long before 50
        # equations have been processed.
        system = parse_system("order: a < b\nb a -> a b\nb^10 a^10 -> a^10 b^10\n")
        out = complete(system, max_steps=50)
        assert isinstance(out, GaveUp)
        assert out.reason == "max_steps"

    def test_step_limit_while_renormalizing_right_sides_gives_up(self):
        # The two d^11 rules derive b -> a as the third equation; the right
        # side b^9 then takes nine rewrites to renormalize.
        system = parse_system("order: a < b < c < d\nc^10 -> b^9\nd^11 -> b\nd^11 -> a\n")
        out = complete(system, max_steps=5)
        assert isinstance(out, GaveUp)
        assert out.reason == "max_steps"
        assert isinstance(complete(system), Converged)

    def test_failed_self_check_is_an_internal_error(self, monkeypatch):
        monkeypatch.setattr(
            rewriting, "verify_convergent", lambda system: Refuted("a", "a", "1")
        )
        with pytest.raises(InternalError, match="non-convergent"):
            complete(encode(load("z5.plg")))

    def test_gave_up_partial_system_is_unverified(self):
        out = complete(encode(load("b3.plg")), max_rules=50)
        assert out.system.convergent == "unknown"

    def test_monoid_completion_matches_mirrored_defining_relation(self):
        # c defined as b a completes to the mirror image of the c = a b
        # system; the two describe different congruences (see below).
        out = complete(encode(load("b3_literal.plg"), inverses=False))
        assert isinstance(out, Converged)
        assert ruleset(out.system) == {
            ("b a", "c"), ("c b", "a c"),
            ("a c a", "c c"), ("c c a", "b c c"),
        }

    def test_defining_orientation_changes_the_congruence(self, b3_monoid_system):
        # Under c = a b the product a b collapses to c; under c = b a it
        # does not.  The two extensions are genuinely different quotients,
        # which is why tests pin which defining relation they use.
        mirror = complete(encode(load("b3_literal.plg"), inverses=False)).system
        assert word_equal(b3_monoid_system, "a b", "c")
        assert not word_equal(mirror, "a b", "c")
        assert word_equal(mirror, "b a", "c")


class TestVerifyConvergent:
    def test_proven_on_completed_system(self, d5_system):
        assert isinstance(verify_convergent(d5_system), Proven)

    def test_refuted_with_witness(self):
        system = parse_system("order: a < b < c\nc -> a\nc -> b\n")
        check = verify_convergent(system)
        assert isinstance(check, Refuted)
        assert check.peak == "c"
        assert {check.left, check.right} == {"a", "b"}

    def test_refuted_peak_for_braid_rules_with_cancellation(self):
        from test_acceptance import SIX_RULES_WITH_CANCELLATION

        system = parse_system(SIX_RULES_WITH_CANCELLATION)
        check = verify_convergent(system)
        assert isinstance(check, Refuted)
        # the witness is genuine: two distinct normal forms out of one peak
        assert check.left != check.right
        # classic counterexample shape: a' (a b) joins to both b and a' c
        assert isinstance(
            verify_convergent(parse_system(
                "order: a < b < c < a' < b' < c'\na b -> c\na' a -> 1\n"
            )),
            Refuted,
        )

    def test_refuted_witness_words_are_irreducible(self):
        from test_acceptance import SIX_RULES_WITH_CANCELLATION

        system = parse_system(SIX_RULES_WITH_CANCELLATION)
        check = verify_convergent(system)
        assert isinstance(check, Refuted)
        for text in (check.left, check.right):
            word = system.word_bytes(text)
            assert all(
                word[i:i + len(rule.lhs)] != rule.lhs
                for rule in system.rules
                for i in range(len(word) - len(rule.lhs) + 1)
            )

    def test_certify_stamps_or_raises(self):
        good = parse_system("order: a\na a -> 1\n")
        assert certify(good).convergent == "proven"
        bad = parse_system("order: a < b < c\nc -> a\nc -> b\n")
        with pytest.raises(NotConvergent):
            certify(bad)

    def test_critical_pairs_cover_overlaps_and_inclusions(self):
        system = parse_system("order: a < b\nb b -> a\nb b b -> a a\n")
        pairs = list(critical_pairs(system))
        assert pairs  # self-overlap of bb inside bbb and the inclusion case
        peaks = {system.word_text(p.peak) for p in pairs}
        assert "b b b" in peaks


class TestEnumerate:
    def test_z5_shortlex_order(self, z5_system):
        found = enumerate_normal_forms(z5_system)
        assert isinstance(found, Finite)
        assert found.words == ["1", "a", "a'", "a a", "a' a'"]

    def test_more_than_cap(self, b3_monoid_system):
        found = enumerate_normal_forms(b3_monoid_system, cap=20)
        assert isinstance(found, MoreThanCap)
        assert found.found == 21

    def test_requires_certificate(self):
        system = encode(load("z5.plg"))
        with pytest.raises(NotConvergent):
            enumerate_normal_forms(system)

    def test_exact_cap_is_fine(self, q8_system):
        found = enumerate_normal_forms(q8_system, cap=8)
        assert isinstance(found, Finite)
        assert len(found.words) == 8


class TestNormalize:
    def test_group_arithmetic(self, z5_system):
        assert normalize(z5_system, "a^7") == "a a"
        assert normalize(z5_system, "a^-3") == "a a"
        assert normalize(z5_system, "a^5") == "1"
        assert normalize(z5_system, "a a' a a'") == "1"

    def test_word_equal(self, z5_system):
        assert word_equal(z5_system, "a^6", "a")
        assert not word_equal(z5_system, "a", "1")

    def test_word_equal_requires_certificate(self):
        system = encode(load("b3.plg"))
        with pytest.raises(NotConvergent):
            word_equal(system, "a", "b")

    def test_step_limit(self, d5_system):
        with pytest.raises(StepLimitExceeded):
            normalize(d5_system, "r^5 s^2 r s r s", max_steps=1)


class TestFrozenSystems:
    def test_proven_rules_cannot_change(self, z5_system):
        with pytest.raises(AttributeError):
            z5_system.rules.append(z5_system.rules[0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            z5_system.rules = ()

    def test_replacing_the_rules_drops_the_stamp(self):
        proven = complete(encode(presentations.parse("< a | a^5 = 1 >"))).system
        extra = Rule(proven.word_bytes("a a"), proven.word_bytes("a"))
        grown = dataclasses.replace(proven, rules=proven.rules + (extra,))
        assert grown.convergent == "unknown"
        with pytest.raises(NotConvergent):
            enumerate_normal_forms(grown)

    def test_the_constructor_cannot_stamp(self, z5_system):
        with pytest.raises(TypeError):
            RewritingSystem(z5_system.alphabet, z5_system.rules, "proven")

    def test_a_rule_list_is_copied_on_construction(self):
        rules = [Rule(b"\x00\x00", b"")]
        system = RewritingSystem(Alphabet(["a"]), rules)
        rules.append(Rule(b"\x00", b""))
        assert system.rules == (Rule(b"\x00\x00", b""),)

    def test_certify_returns_a_new_value(self):
        hand_built = parse_system("order: a\na a -> 1\n")
        proven = certify(hand_built)
        assert proven is not hand_built
        assert proven.rules == hand_built.rules
        assert (proven.convergent, hand_built.convergent) == ("proven", "unknown")

    def test_equal_values_hash_equal(self, d5):
        first, second = complete(encode(d5)), complete(encode(d5))
        assert first.system is not second.system
        assert hash(first.system) == hash(second.system)
        assert len({first.system, second.system}) == 1
        assert len({first, second}) == 1
        stopped = [complete(encode(load("b3.plg")), max_rules=20) for _ in range(2)]
        assert isinstance(stopped[0], GaveUp)
        assert len(set(stopped)) == 1

    def test_queries_share_one_matcher_per_system(self, monkeypatch, d5, d5_system):
        builds = []

        class CountingMatcher(rewriting._Matcher):
            def __init__(self, rules):
                builds.append(len(rules))
                super().__init__(rules)

        monkeypatch.setattr(rewriting, "_Matcher", CountingMatcher)
        system = certify(parse_system(format_system(d5_system)))
        build_graph(d5, system)
        table_from_normal_forms(system)
        for _ in range(50):
            assert word_equal(system, "r s", "s r'")
        assert len(builds) == 1


class TestSerialization:
    def test_round_trip(self, d5_system):
        text = format_system(d5_system)
        again = parse_system(text)
        assert again.alphabet == d5_system.alphabet
        assert again.rules == d5_system.rules
        assert again.convergent == "unknown"  # certificates never travel
        assert format_system(certify(again)) == text

    def test_parse_rejects_missing_order_header(self):
        from polygraph.errors import ParseError

        with pytest.raises(ParseError):
            parse_system("a a -> 1\n")

    def test_parse_rejects_bad_rule_line(self):
        from polygraph.errors import ParseError

        with pytest.raises(ParseError):
            parse_system("order: a\na a = 1\n")


def test_normal_form_uniqueness_properties():
    assert props.run_normal_form_suite(seed=51, cases=1000) == 1000
