"""String rewriting: encoding, completion, verification, and normal forms."""

import dataclasses
import hashlib
import random

import pytest

import props
from conftest import DATA, load
from polygraph import presentations, rewriting
from polygraph.cayley import build_graph
from polygraph.errors import (
    InternalError,
    MultiObjectUnsupported,
    NotConvergent,
    PolygraphError,
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

    def test_at_most_255_letters(self):
        assert len(Alphabet([f"x{i}" for i in range(255)])) == 255
        with pytest.raises(ValueError, match="255"):
            Alphabet([f"x{i}" for i in range(256)])

    def test_unknown_letter(self):
        with pytest.raises(UnknownGenerator):
            Alphabet(["a"]).index("b")

    def test_byte_words_outside_the_alphabet_are_rejected(self, z5_system):
        with pytest.raises(UnknownGenerator, match="letter index 9"):
            Alphabet(["a", "a'"]).word_bytes(b"\x00\x09\x01")
        with pytest.raises(UnknownGenerator):
            normalize(z5_system, bytes([9]))
        with pytest.raises(UnknownGenerator):
            word_equal(z5_system, b"\x09", b"\x09\x00\x01")
        assert word_equal(z5_system, b"\x01", b"\x00\x00\x00\x00")


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
        # Dropped before any relator is split in half.
        p = presentations.parse("< a, b | a a' = 1, a b b' a' = 1, a' b b' a = 1 >")
        system = encode(p)
        assert ruleset(system) == {("a a'", "1"), ("a' a", "1"), ("b b'", "1"), ("b' b", "1")}

    def test_relation_sides_are_freely_reduced(self):
        p = presentations.parse("< a, b | a a' b a = b b >")
        assert ruleset(encode(p)) == {
            ("a a'", "1"), ("a' a", "1"),
            ("b b'", "1"), ("b' b", "1"),
            ("b b", "b a"),
        }

    @pytest.mark.parametrize("text, rules", [
        # One letter: nothing to balance.
        ("< r | r = 1 >", {("r", "1")}),
        # Two letters: r = r', oriented by shortlex.
        ("< r | r^2 = 1 >", {("r'", "r")}),
        # Odd power: the longer half is the left side.
        ("< r | r^5 = 1 >", {("r r r", "r' r'")}),
        # Even power: equal halves, so the letter order orients them.
        ("< r | r^6 = 1 >", {("r' r' r'", "r r r")}),
        # Written 1 = w, the same relator.
        ("< r | 1 = r^5 >", {("r r r", "r' r'")}),
        # Sides are reduced before the relator is split: r s s' r r r = 1.
        ("< r, s | r s s' r^3 = 1 >", {("r' r'", "r r")}),
    ])
    def test_a_relator_is_split_in_half(self, text, rules):
        p = presentations.parse(text)
        cancel = {(f"{g} {g}'", "1") for g in p.gens} | {(f"{g}' {g}", "1") for g in p.gens}
        assert ruleset(encode(p)) == cancel | rules

    def test_a_mixed_relator_is_split_in_half(self):
        # d5: r^5 = 1, s^2 = 1 and r s r s = 1 become r^3 = r^-2, s = s'
        # and r s = s' r', each oriented by shortlex.
        system = encode(load("d5.plg"))
        assert system.alphabet.letters == ("r", "s", "r'", "s'")
        assert format_system(system).splitlines()[5:] == [
            "r r r -> r' r'", "s' -> s", "s' r' -> r s",
        ]

    def test_precedence_orients_the_halves(self):
        p = presentations.parse("< a, b | a b' = 1, a^4 = 1 >")
        assert {("b", "a"), ("a' a'", "a a")} < ruleset(encode(p))
        assert {("a", "b"), ("a' a'", "a a")} < ruleset(encode(p, ["b", "a"]))

    def test_two_sided_relations_are_not_balanced(self):
        p = presentations.parse("< a | a^3 = a' >")
        assert ruleset(encode(p)) == {("a a'", "1"), ("a' a", "1"), ("a a a", "a'")}

    def test_monoid_mode_keeps_relators_whole(self):
        system = encode(load("d5.plg"), inverses=False)
        assert ruleset(system) == {("r r r r r", "1"), ("s s", "1"), ("r s r s", "1")}

    def test_too_many_letters_is_a_polygraph_error(self):
        gens = ", ".join(f"g{i}" for i in range(128))
        p = presentations.parse(f"< {gens} | g0 g1 = g1 g0 >")
        with pytest.raises(PolygraphError, match="256 letters.*255"):
            encode(p)
        assert len(encode(p, inverses=False).alphabet) == 128

    def test_multiple_cells_unsupported(self):
        p = presentations.parse(
            "polygraph\ncells: x y\ngen f : x -> y\n"
        )
        with pytest.raises(MultiObjectUnsupported):
            encode(p)


class TestComplete:
    def test_cyclic_five(self, z5_system):
        # encode() writes the relator a^5 = 1 as a^3 -> a^-2, and completion
        # adds a^-3 -> a^2; five normal forms remain.
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

    def test_right_sides_renormalized_before_a_step_limit_stay_rewritten(self):
        # b -> a comes fourth; f g^8's right side then takes one rewrite and
        # c d^9's nine, past the limit.  The partial system keeps the first.
        system = parse_system(
            "order: a < b < c < d < e < f < g\n"
            "f g^8 -> b\nc d^9 -> b^9\ne f^10 -> b\ne f^10 -> a\n"
        )
        out = complete(system, max_steps=5)
        assert isinstance(out, GaveUp) and out.reason == "max_steps"
        assert format_system(out.system).splitlines()[1:] == [
            "f g g g g g g g g -> a",
            "c d d d d d d d d d -> b b b b b b b b b",
            "e f f f f f f f f f f -> b",
            "b -> a",
        ]

    def test_failed_self_check_is_an_internal_error(self, monkeypatch):
        monkeypatch.setattr(
            rewriting, "verify_convergent", lambda system: Refuted("a", "a", "1")
        )
        with pytest.raises(InternalError, match="non-convergent"):
            complete(encode(load("z5.plg")))

    def test_the_rule_index_is_rebuilt_only_when_the_rules_change(self, monkeypatch):
        # Completion builds one index and edits it in place as rules are
        # added, retired and rewritten: it is never rebuilt, and the final
        # check and the result's queries run on it too.
        builds = []

        class CountingMatcher(rewriting._Matcher):
            def __init__(self, rules, width):
                builds.append(tuple(rules))
                super().__init__(rules, width)

        monkeypatch.setattr(rewriting, "_Matcher", CountingMatcher)
        out = complete(encode(load("b3.plg")), max_rules=128)
        assert isinstance(out, GaveUp)
        assert builds == [()]  # 275 builds when every added rule built twice
        for name in ("z5", "d5", "q8"):
            builds.clear()
            out = complete(encode(load(f"{name}.plg")))
            assert isinstance(out, Converged)
            assert isinstance(enumerate_normal_forms(out.system), Finite)
            # [(), 4 rules], [(), 11 rules] and [(), 16 rules] when the
            # final check built an index of its own.
            assert builds == [()], name

    @pytest.mark.parametrize(
        "name, inverses, limits",
        [
            (name, inverses, limits)
            for name in ("z5", "d5", "q8", "b3", "b3_abc", "b3_literal")
            for inverses in (True, False)
            for limits in (
                {"max_rules": 128, "max_lhs_len": 16}, {"max_rules": 20},
                {"max_lhs_len": 4}, {"max_steps": 40},
            )
        ],
    )
    def test_no_left_side_lies_inside_another(self, name, inverses, limits):
        # Converged or GaveUp, every system completion returns is
        # inter-reduced: the stack normalizer's leftmost-lowest argument
        # rests on it.
        out = complete(encode(load(f"{name}.plg"), inverses=inverses), **limits)
        sides = [rule.lhs for rule in out.system.rules]
        assert len(set(sides)) == len(sides)
        assert not [(u, v) for u in sides for v in sides if u != v and u in v]

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

    def test_prime_pairs_decide_like_all_pairs(self):
        # Random hand-built systems, with left sides inside others and
        # repeated, and convergent ones padded with such rules.
        systems = props.random_rule_systems(seed=94, count=300)
        proven, refuted = props.run_prime_pair_suite(systems)
        assert proven >= 40 and refuted >= 200
        padded = props.padded_convergent_systems(seed=95, count=100)
        assert props.run_prime_pair_suite(padded) == (100, 0)

    @pytest.mark.parametrize(
        "text, pairs, composite",
        [
            ("< a, b | a^2 = 1, b^3 = 1, a b a b a b a b a b = 1 >", 184, 110),  # A5
            ("< r, s | r^27 = r^-27, s = s', r s = s' r' >", 963, 781),  # D54, balanced
        ],
        ids=["A5", "D54-balanced"],
    )
    def test_only_prime_pairs_are_joined(self, monkeypatch, text, pairs, composite):
        system = complete(encode(presentations.parse(text))).system
        overlaps, inside = props.reference_critical_pairs(system)
        sides = [rule.lhs for rule in system.rules]
        assert (len(overlaps), inside) == (pairs, [])
        assert sum(any(lhs in peak[1:-1] for lhs in sides) for peak, _, _ in overlaps) == composite
        assert len(critical_pairs(system)) == pairs
        normalized = []
        normalize = rewriting._Matcher.normalize

        def counting(index, word, max_steps):
            normalized.append(word)
            return normalize(index, word, max_steps)

        monkeypatch.setattr(rewriting._Matcher, "normalize", counting)
        assert isinstance(verify_convergent(system), Proven)
        # One call per distinct side word of the prime pairs.
        words = {
            word for peak, left, right in overlaps
            if not any(lhs in peak[1:-1] for lhs in sides) for word in (left, right)
        }
        assert sorted(normalized) == sorted(words)

    @pytest.mark.parametrize(
        "make",
        [
            *(lambda name=name: encode(load(f"{name}.plg")) for name in ("z5", "d5", "q8")),
            *(lambda name=name: encode(load(f"{name}.plg"), inverses=False)
              for name in ("z5", "d5", "q8", "b3_abc", "b3_literal")),
            lambda: encode(presentations.parse(
                "< a, b | a^2 = 1, b^3 = 1, a b a b a b a b a b = 1 >")),
            lambda: encode(dihedral(54, balanced=True)),
        ],
        ids=["z5", "d5", "q8", "z5-monoid", "d5-monoid", "q8-monoid", "b3_abc-monoid",
             "b3_literal-monoid", "A5", "D54-balanced"],
    )
    def test_the_handed_over_index_answers_like_a_cold_one(self, make):
        # complete() gives its result the index it edited while it ran; a
        # system read back from its text builds a fresh one.
        out = complete(make())
        assert isinstance(out, Converged)
        assert out.system.__dict__["_matcher"].memo == {}
        props.check_like_cold(out.system, random.Random(97))

    def test_random_completions_answer_like_cold_ones(self):
        assert props.run_completed_index_suite(seed=98, cases=150) == 119

    def test_the_final_check_reuses_completions_normal_forms(self, monkeypatch):
        # A5: the final check joins all 74 prime pairs, whose sides are 107
        # distinct words, but reads only the 90 not normalized since the
        # last rule edit.
        text = "< a, b | a^2 = 1, b^3 = 1, a b a b a b a b a b = 1 >"
        certified, normalized = [], []
        normalize, certify_ = rewriting._Matcher.normalize, rewriting.certify

        def counting(index, word, max_steps):
            if certified:  # from the final check on
                normalized.append(word)
            return normalize(index, word, max_steps)

        def certifying(system):
            certified.append(system)
            return certify_(system)

        monkeypatch.setattr(rewriting._Matcher, "normalize", counting)
        monkeypatch.setattr(rewriting, "certify", certifying)
        out = complete(encode(presentations.parse(text)))
        monkeypatch.undo()
        assert isinstance(out, Converged) and len(certified) == 1
        overlaps, _ = props.reference_critical_pairs(out.system)
        sides = [rule.lhs for rule in out.system.rules]
        words = {
            word for peak, left, right in overlaps
            if not any(lhs in peak[1:-1] for lhs in sides) for word in (left, right)
        }
        assert len(words) == 107
        assert len(normalized) == len(set(normalized)) == 90
        assert set(normalized) < words
        cold = certify(parse_system(format_system(out.system)))
        assert format_system(cold) == format_system(out.system)

    def test_critical_pairs_cover_overlaps_and_inclusions(self):
        system = parse_system("order: a < b\nb b -> a\nb b b -> a a\n")
        pairs = list(critical_pairs(system))
        assert pairs  # self-overlap of bb inside bbb and the inclusion case
        peaks = {system.word_text(p.peak) for p in pairs}
        assert "b b b" in peaks


def encode_whole(p):
    """encode(p) with every relator w = 1 kept whole as the rule w -> 1."""
    system = encode(p)
    rules = list(system.rules[: 2 * len(p.gens)])
    for lhs, rhs in p.rels.values():
        sides = {system.word_bytes(lhs.reduce()), system.word_bytes(rhs.reduce())}
        if len(sides) == 2:
            rules.append(Rule(*sorted(sides, key=lambda w: (len(w), w), reverse=True)))
    return RewritingSystem(system.alphabet, rules)


def coxeter(k):
    gens = [f"s{i}" for i in range(1, k)]
    rels = [f"{g}^2 = 1" for g in gens]
    rels += [
        f"{a} {b} {a} = {b} {a} {b}" if j == i + 1 else f"{a} {b} = {b} {a}"
        for i, a in enumerate(gens) for j, b in enumerate(gens) if i < j
    ]
    return f"< {', '.join(gens)} | {', '.join(rels)} >"


# Every family and size of the decide and structure benchmark decks that
# converges, with the benchmark's relations and fixed generator names, plus
# the tests/data files with a relator (b3 and q8 have none).
DECK = (
    [f"< r, s | r^{n} = 1, s^2 = 1, r s r s = 1 >"
     for n in (6, 8, 10, 12, 14, 18, 20, 24, 28, 30, 32)]
    + [f"< r, s | r^{(n + 1) // 2} = r^-{n // 2}, s = s', r s = s' r' >"
       for n in (4, 5, 6, 8, 9, 10, 12, 13, 14, 16, 17, 18, 20, 21, 22, 24, 25, 26,
                 28, 29, 30, 34, 40, 44, 50, 54)]
    + [f"< a, b | a^{m} = 1, b^{n} = 1, a b = b a >"
       for m, n in ((2, 3), (3, 4), (4, 6), (5, 5), (3, 8), (6, 10), (8, 8), (2, 5),
                    (2, 4), (3, 3), (2, 6), (4, 4), (5, 7), (6, 6), (4, 9), (6, 8),
                    (7, 7), (5, 10), (7, 8), (6, 9), (5, 11))]
    + [coxeter(3), coxeter(4)]
    + [
        "< a, b | a^2 = 1, b^3 = 1, a b a b a b a b a b = 1 >",  # A5
        "< i, j | i = j i j, j = i j i >",  # Q8
        "< a, A, b, B | A = a', B = b', a b = b a >",  # Z x Z
        "< a, b | a^2 = 1, b^3 = 1 >",  # Z2 * Z3
    ]
    + [(DATA / f"{name}.plg").read_text() for name in ("d5", "z5")]
)


class TestBalancedRelators:
    @pytest.mark.parametrize("text", DECK, ids=[text.splitlines()[-1] for text in DECK])
    def test_the_balanced_encoding_completes_to_the_same_rules(self, text):
        # The reduced convergent system of a congruence under one reduction
        # order is unique, so splitting a relator changes no completed rule.
        p = presentations.parse(text)
        balanced, whole = complete(encode(p)), complete(encode_whole(p))
        assert isinstance(balanced, Converged) and isinstance(whole, Converged)
        assert ruleset(balanced.system) == ruleset(whole.system)

    def test_a_power_relator_pops_a_quarter_of_the_pairs(self, monkeypatch):
        # r^32 = 1 written r^16 -> r^-16: 409 pops; as r^32 -> 1, 1,634.
        pops = []
        heappop = rewriting.heappop

        def counting(queue):
            pops.append(None)
            return heappop(queue)

        monkeypatch.setattr(rewriting, "heappop", counting)
        assert isinstance(complete(encode(dihedral(32, False))), Converged)
        assert len(pops) < 600


# Converged infinite systems: Z x Z with its inverses named and placed
# between the generators, as perfbench spells it, the modular group, and a
# free monoid (the braid monoid is a fixture).
INFINITE = {
    "ZxZ": lambda: complete(
        encode(presentations.parse("< a, A, b, B | A = a', B = b', a b = b a >"))
    ).system,
    "Z2*Z3": lambda: complete(encode(presentations.parse("< a, b | a^2 = 1, b^3 = 1 >"))).system,
    "free": lambda: certify(RewritingSystem(Alphabet("ab"), [])),
}


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

    @pytest.mark.parametrize("cap", [1, 20, 10**4])
    @pytest.mark.parametrize("name", ["ZxZ", "Z2*Z3", "b3-monoid", "free"])
    def test_an_infinite_system_is_more_than_any_cap(self, name, cap, b3_monoid_system):
        system = b3_monoid_system if name == "b3-monoid" else INFINITE[name]()
        found = enumerate_normal_forms(system, cap)
        assert found == MoreThanCap(cap + 1)
        assert found == props.reference_normal_forms(system, cap)

    def test_the_longest_normal_form_may_pass_every_state(self):
        # a^4 -> 1: the word a a a passes through all four states.
        system = certify(RewritingSystem(Alphabet("a"), [Rule(b"\0" * 4, b"")]))
        assert enumerate_normal_forms(system) == Finite(["1", "a", "a a", "a a a"])

    def test_a_word_as_long_as_the_state_count_ends_the_listing(self, monkeypatch):
        # Z x Z has 12 rules and 5 states an irreducible word can pass
        # through; listing every word of up to 4 letters proves the loop.
        # Listing 10^4 words would take about 40,000 moves.
        system = INFINITE["ZxZ"]()
        moves = []
        move = rewriting._Matcher.move

        def counting(matcher, state, letter):
            moves.append((state, letter))
            return move(matcher, state, letter)

        monkeypatch.setattr(rewriting._Matcher, "move", counting)
        assert enumerate_normal_forms(system, 10**4) == MoreThanCap(10**4 + 1)
        assert len(moves) <= 250


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

    def test_the_redex_that_ends_first_is_rewritten(self):
        # b ends before a b c does; leftmost rewriting would give x.  The
        # system is not convergent whichever strategy normalizes.
        system = parse_system("order: x < y < a < b < c\na b c -> x\nb -> y\n")
        assert normalize(system, "a b c") == "a y c"
        assert normalize(system, "a b c a b c") == "a y c a y c"
        assert verify_convergent(system) == Refuted("a b c", "x", "a y c")
        # Of left sides ending at the same letter, the lower rule index wins,
        # also between equal left sides.
        for rules, nf in (
            ("a b -> x\nb -> y\n", "x"), ("b -> y\na b -> x\n", "a y"),
            ("b -> x\nb -> y\n", "a x"), ("b -> y\nb -> x\n", "a y"),
        ):
            assert normalize(parse_system(f"order: x < y < a < b\n{rules}"), "a b") == nf

    def test_normal_forms_and_step_counts_match_leftmost_lowest(self):
        systems = [
            complete(encode(load(f"{name}.plg"), inverses=inverses)).system
            for name in ("z5", "d5", "q8")
            for inverses in (True, False)
        ]
        systems += [complete(encode(load(f"{name}.plg"), inverses=False)).system
                    for name in ("b3_abc", "b3_literal")]
        systems += [
            complete(encode(presentations.parse(text))).system
            for text in (
                "< a, b, c | a^2 = 1, b^2 = 1, c^2 = 1,"
                " a b a = b a b, b c b = c b c, a c = c a >",  # S4
                "< a, b | a^2 = 1, b^3 = 1, a b a b a b a b a b = 1 >",  # A5
                "< r, s | r^15 = r^-15, s = s', r s = s' r' >",  # D30, balanced
            )
        ]
        assert all(system.convergent == "proven" for system in systems)
        systems.append(complete(encode(load("b3.plg")), max_rules=128).system)
        assert props.run_reference_strategy_suite(systems, seed=81, cases=1000) == 12000


def dihedral(n: int, balanced: bool):
    """D_n as ``r^n = 1, s^2 = 1, r s r s = 1``, or with every relation
    balanced: ``r^h = r^-h, s = s', r s = s' r'`` for n = 2h."""
    if balanced:
        return presentations.parse(f"< r, s | r^{n // 2} = r^-{n // 2}, s = s', r s = s' r' >")
    return presentations.parse(f"< r, s | r^{n} = 1, s^2 = 1, r s r s = 1 >")


# SHA-1 of format_system for each completion, with its outcome, then the
# SHA-1 of its lines sorted.  The sorted digests are the rule sets the
# last-letter-bucket index produced from relators encoded as ``w -> 1``
# (D200-balanced as the automaton that joined every critical pair did):
# the automaton, the overlap finder, the skipping of composite critical
# pairs and the balanced relator encoding must leave every rule set
# unchanged.  The ordered digests pin the order of the rules as well;
# those of D10, D20, D30 and d5 are the balanced encoding's (a relator
# ``w = 1`` is added as ``w[:h] = w[h:]^-1``), the rest predate it.
COMPLETION_DIGESTS = [
    ("b3-20", lambda: complete(encode(load("b3.plg")), max_rules=20),
     "max_rules", "1c9afe3930af73616ba2aab7feaad4264974cfb6",
     "0cac8662f6b51779847f4ce72e7e83012337ed2f"),
    ("b3-64", lambda: complete(encode(load("b3.plg")), max_rules=64),
     "max_rules", "bf7471631571c8acce175557cbfd6c400cfbf7f2",
     "93c54d58c31f18eb76aaf0593e5f2526780dce97"),
    ("b3-128", lambda: complete(encode(load("b3.plg")), max_rules=128),
     "max_rules", "b5ef0162e44d28fd5da0b6d47c847dc7a02633b1",
     "d73d34ac9a16fb77829132b52a6dd532cacdc96d"),
    ("b3-256", lambda: complete(encode(load("b3.plg")), max_rules=256),
     "max_rules", "8174b191e0d1f2287c60592c7aa79006f57d1879",
     "8acae17d1104cce6e8585228c333adff71ca261b"),
    ("b3-512", lambda: complete(encode(load("b3.plg")), max_rules=512),
     "max_rules", "d01340e0dbde616dce8ad820684a34a443224c58",
     "878204bf468da9b26a4ad633c1963198e98b34f3"),
    ("D10", lambda: complete(encode(dihedral(10, False)), max_lhs_len=1000),
     None, "4500466789a8145b30565d3c6dbdc8dd0e40c9a5",
     "41f5e4c2e56598f07682c0408215f5809c996b03"),
    ("D20", lambda: complete(encode(dihedral(20, False)), max_lhs_len=1000),
     None, "562ce63ca2c63f41292d6e9465a02ffadda7cfbd",
     "1f228d5a8ff9de99eef1318ba5e0e119340235d6"),
    ("D30", lambda: complete(encode(dihedral(30, False)), max_lhs_len=1000),
     None, "c55f5708662bfa6d6ff4f6f5d59170a74b0b997a",
     "afb2b8528d8434db7fc1ca811b459f96313f603f"),
    ("D30-balanced", lambda: complete(encode(dihedral(30, True))),
     None, "c55f5708662bfa6d6ff4f6f5d59170a74b0b997a",
     "afb2b8528d8434db7fc1ca811b459f96313f603f"),
    ("D50-balanced", lambda: complete(encode(dihedral(50, True))),
     None, "dec0e4f2b93e69c17256aba9eee9b7e5d3e0afbb",
     "f441c7fc24aaf08f24c87822e973325702dadbbb"),
    # Order 400: most critical pairs queued here are composite.
    ("D200-balanced", lambda: complete(encode(dihedral(200, True)), max_lhs_len=200),
     None, "9924e22a0fe29f8ab208f46bb559f50043e9afe5",
     "6aaba77bbf915152ca1353a099fa7128bb7e5a04"),
    ("d5", lambda: complete(encode(load("d5.plg"))),
     None, "58602b637d697a1b86f915fb1f5b47625ce1e0e0",
     "146bbe9d64f612a17fc6ed1a5fda85326dccc212"),
    ("q8", lambda: complete(encode(load("q8.plg"))),
     None, "d96c961e493ae51a01766eb128460a8efa81c0dd",
     "f6018123584d27faf750266701b58b21559863ea"),
    ("z5", lambda: complete(encode(load("z5.plg"))),
     None, "72ce094ea3c4a2cd785af5d6add4b8a70b1dcb0b",
     "5d9d1032ce051cf973572f5bd6f0d317a1382dcc"),
]


class TestAutomaton:
    @pytest.mark.parametrize(
        "run, reason, digest, sorted_digest", [case[1:] for case in COMPLETION_DIGESTS],
        ids=[case[0] for case in COMPLETION_DIGESTS],
    )
    def test_completion_output_is_pinned(self, run, reason, digest, sorted_digest):
        out = run()
        assert isinstance(out, GaveUp if reason else Converged)
        assert getattr(out, "reason", None) == reason
        text = format_system(out.system)
        rule_set = "\n".join(sorted(text.splitlines()))
        assert hashlib.sha1(rule_set.encode()).hexdigest() == sorted_digest
        assert hashlib.sha1(text.encode()).hexdigest() == digest

    def test_a_new_rule_is_paired_only_with_the_rules_it_overlaps(self, monkeypatch):
        # complete() asks the rule index once for each new rule's overlaps
        # and numbers one critical pair per overlap it returns: 4,728 pairs
        # here, where pairing each new rule with every live rule would
        # examine 17,287 pairs of rules.
        added, asked, pushed = [], [], []
        matcher = rewriting._Matcher
        add, overlap_hits, heappush = matcher.add, matcher.overlap_hits, rewriting.heappush

        def adding(index, lhs, rhs):
            added.append(lhs)
            add(index, lhs, rhs)

        def asking(index, lhs):
            hits = overlap_hits(index, lhs)
            asked.append((lhs, len(hits)))
            return hits

        def pushing(queue, entry):
            pushed.append(entry)
            heappush(queue, entry)

        monkeypatch.setattr(matcher, "add", adding)
        monkeypatch.setattr(matcher, "overlap_hits", asking)
        monkeypatch.setattr(rewriting, "heappush", pushing)
        system = encode(load("b3.plg"))
        out = complete(system, max_rules=128)
        assert isinstance(out, GaveUp) and out.reason == "max_rules"
        # The rule that passes the limit is never paired.
        assert [lhs for lhs, _ in asked] == added[:-1]
        pairs = sum(hits for _, hits in asked)
        # Input and retired rules are queued with their left side as peak.
        equations = [entry for entry in pushed if entry[1] == entry[3]]
        assert len(equations) == len(system.rules) + len(added) - len(out.system.rules)
        assert pairs < 8000
        # A critical pair is built and queued only when the queue reaches its
        # peak length: at 512 rules, 4,604 entries of 32,826 found.
        pushed.clear()
        complete(system, max_rules=512)
        assert len(pushed) < 8000

    def test_critical_pairs_are_queued_in_the_sweep_order(self, monkeypatch):
        # Every queue entry (peak length, peak, serial, both sides), in pop
        # order, as building and queueing each pair when found popped them.
        heappop = rewriting.heappop

        def recording(queue):
            entry = heappop(queue)
            popped.update(repr(entry).encode())
            return entry

        monkeypatch.setattr(rewriting, "heappop", recording)
        digests = {}
        for name, run in (
            ("b3-128", lambda: complete(encode(load("b3.plg")), max_rules=128)),
            ("b3-512", lambda: complete(encode(load("b3.plg")), max_rules=512)),
            ("D200-balanced",
             lambda: complete(encode(dihedral(200, True)), max_lhs_len=200)),
        ):
            popped = hashlib.sha1()
            run()
            digests[name] = popped.hexdigest()
        assert digests == {
            "b3-128": "f0a17a8fd27fe1153c0c294e5c540f41ed9fe120",
            "b3-512": "a73c8521785023d45f046cd5a3bd9200dd044541",
            "D200-balanced": "a54107935d59fd93dd27586e0ccd1a8e245a68a7",
        }

    def test_hand_built_systems_rewrite_like_last_letter_buckets(self):
        # Left sides that contain one another or repeat: the redex that ends
        # first, the lower rule index first, with the same step counts.
        systems = props.random_rule_systems(seed=91, count=200)
        ran = props.run_reference_strategy_suite(
            systems, seed=92, cases=50, reference=props.bucket_normalize
        )
        assert ran == 10000

    def test_a_word_read_twice_fills_no_new_slot(self, monkeypatch):
        # The second reading runs on the rows the first one filled.
        system = complete(encode(dihedral(30, balanced=True))).system
        word = system.word_bytes(" ".join(["r s r'"] * 400 + ["s r^3"] * 200))
        index = system._matcher
        first = index.normalize(word, 10**6)
        rows = [list(row) for row in index.rows]
        assert any(slot is not None and slot < 0 for row in rows for slot in row)
        steps = []
        step = rewriting._Matcher.step

        def counting(matcher, state, letter):
            steps.append((state, letter))
            return step(matcher, state, letter)

        monkeypatch.setattr(rewriting._Matcher, "step", counting)
        assert index.normalize(word, 10**6) == first
        assert steps == []
        assert index.rows == rows

    @pytest.mark.parametrize(
        "run, most",
        [
            # 19,079 steps when every add() dropped the rows, and 3,990 when
            # every retire() still did.
            (lambda: complete(encode(load("b3.plg")), max_rules=512), 2500),
            # Order 108: 1,340 steps when every add() dropped the rows.
            (lambda: complete(encode(dihedral(54, True))), 700),
        ],
        ids=["b3-512", "D54-balanced"],
    )
    def test_an_added_rule_keeps_the_filled_slots(self, monkeypatch, run, most):
        steps = []
        step = rewriting._Matcher.step

        def counting(matcher, state, letter):
            steps.append((state, letter))
            return step(matcher, state, letter)

        monkeypatch.setattr(rewriting._Matcher, "step", counting)
        run()
        assert len(steps) < most

    def test_a_new_right_side_is_read_at_once(self):
        index = rewriting._Matcher([Rule(b"\x02\x02", b"\x00"), Rule(b"\x01\x01", b"")], 3)
        assert index.normalize(b"\x01\x02\x02\x01", 10) == b"\x01\x00\x01"
        index.set_rhs(b"\x02\x02", b"\x01")
        assert index.normalize(b"\x01\x02\x02\x01", 10) == b"\x01"

    def test_a_row_grows_to_any_byte_letter(self):
        index = rewriting._Matcher([Rule(b"\xff\xff", b"\x07")], 256)
        assert index.normalize(b"\x00\xff\x01\xff\xff", 10) == b"\x00\xff\x01\x07"
        assert len(index.rows[0]) == 256

    def test_an_edited_index_answers_like_a_fresh_one(self):
        assert props.run_index_edit_suite(seed=93, cases=300) == 300

    @pytest.mark.parametrize(
        "text, order",
        [
            ("< a | a^5 = 1 >", 5),
            ("< r, s | r^5 = 1, s^2 = 1, r s r s = 1 >", 10),
            ("< i, j | i = j i j, j = i j i >", 8),
            ("< a, b, c | a^2 = 1, b^2 = 1, c^2 = 1,"
             " a b a = b a b, b c b = c b c, a c = c a >", 24),
            ("< a, b | a^2 = 1, b^3 = 1, a b a b a b a b a b = 1 >", 60),
            ("< r, s | r^30 = 1, s^2 = 1, r s r s = 1 >", 60),
            ("< r, s | r^50 = r^-50, s = s', r s = s' r' >", 200),
        ],
        ids=["z5", "d5", "q8", "S4", "A5", "D30", "D100-balanced"],
    )
    def test_enumeration_lists_the_words_no_left_side_ends(self, text, order):
        system = complete(encode(presentations.parse(text))).system
        sides = [rule.lhs for rule in system.rules]
        expected = [b""]
        for stem in expected:
            for letter in range(len(system.alphabet)):
                word = stem + bytes((letter,))
                if not any(word.endswith(lhs) for lhs in sides):
                    expected.append(word)
        assert len(expected) == order
        found = enumerate_normal_forms(system)
        assert found == Finite([system.word_text(word) for word in expected])


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

    def test_rules_over_foreign_letters_are_refused(self, z5_system):
        with pytest.raises(UnknownGenerator, match="letter index 5"):
            RewritingSystem(Alphabet(["a"]), [Rule(b"\x05", b"")])
        rules = [Rule(b"\x00\x01", b"\x00"), Rule(b"\x01\x01", b"\x02")]
        with pytest.raises(UnknownGenerator, match="letter index 2"):
            RewritingSystem(Alphabet(["a", "b"]), rules)
        foreign = Rule(bytes([len(z5_system.alphabet)]) * 2, b"")
        with pytest.raises(UnknownGenerator):
            dataclasses.replace(z5_system, rules=z5_system.rules + (foreign,))

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
            def __init__(self, rules, width):
                builds.append(len(rules))
                super().__init__(rules, width)

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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "line 1, column 1: empty system text"),
            ("  # c\n\n", "line 1, column 1: empty system text"),
            ("a a -> 1\n", "line 1, column 1: a system file starts with 'order: a < b < ...'"),
            ("order: ", "line 1, column 1: empty letter order"),
            ("order: a <", "line 1, column 11: bad letter ''"),
            ("order: a < 1", "line 1, column 12: bad letter '1'"),
            ("order: a^2", "line 1, column 8: bad letter 'a^2'"),
            ("order: a b", "line 1, column 8: bad letter 'a b'"),
            ("order: a < a", "line 1, column 12: alphabet letters must be distinct"),
            ("order: a\na a = 1\n", "line 2, column 1: expected 'lhs -> rhs'"),
            ("order: a < b\na x -> b", "line 2, column 3: letter 'x' is not in the alphabet"),
            ("order: a < b\nb -> a x", "line 2, column 8: letter 'x' is not in the alphabet"),
            ("  order: a <b<  b", "line 1, column 17: alphabet letters must be distinct"),
            ("order: a\n  a -> b", "line 2, column 8: letter 'b' is not in the alphabet"),
            ("order: a < b\na -> a b", "line 2, column 1: rule must decrease the shortlex order"),
            ("order: a < b\nb -> b", "line 2, column 1: rule must decrease the shortlex order"),
        ],
    )
    def test_parse_rejects_malformed_text(self, text, message):
        from polygraph.errors import ParseError

        with pytest.raises(ParseError) as err:
            parse_system(text)
        assert str(err.value) == message


def test_normal_form_uniqueness_properties():
    assert props.run_normal_form_suite(seed=51, cases=1000) == 1000
