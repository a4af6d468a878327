"""Breadth-first word search and verified multiplication tables."""

from __future__ import annotations

import math
import random
import re
import tracemalloc

import pytest

import props
from conftest import completed, load, note
from polygraph import oracle, rewriting
from polygraph.errors import (
    InfiniteOrUnknown,
    InternalError,
    LawViolation,
    MultiObjectUnsupported,
    SearchLimitExceeded,
    UnknownGenerator,
)
from polygraph.model import Id, Vert, boundary
from polygraph.oracle import (
    Equal,
    MultiplicationTable,
    NotWithinRadius,
    SearchSpace,
    bfs_equal,
    bfs_reach,
    closure_generates,
    default_length_cap,
    table_from_normal_forms,
)
from polygraph.presentations import parse
from polygraph.rewriting import (
    Converged,
    certify,
    complete,
    encode,
    enumerate_normal_forms,
    normalize_bytes,
    word_equal,
)
from polygraph.tietze import synthesize_witness
from polygraph.words import Letter, Word, format_word

def _one_ball(space, u, v, radius):
    """bfs_equal grown from u alone, as _search reaches words."""
    u, v = space._word(u), space._word(v)
    goal = space.encode(v.reduce())
    length_cap = default_length_cap(len(u), len(v), radius)
    try:
        for state, depth in oracle._search(space, space.encode(u.reduce()), radius, length_cap):
            if state == goal:
                return Equal(depth)
    except SearchLimitExceeded:
        return NotWithinRadius("max_search_letters")
    return NotWithinRadius()


TYPED = """polygraph
cells: x y
gen f : x -> y
gen g : y -> x
rel loop : f g = 1
"""


class TestSearchSpace:
    def test_needs_a_single_object(self):
        with pytest.raises(MultiObjectUnsupported, match="one 0-cell"):
            SearchSpace(parse(TYPED))

    def test_encode_reduce_round_trip(self, b3):
        space = SearchSpace(b3)
        word = b3.word("a b a' a b'")
        assert space.encode(word.reduce()) == space.encode("a")

    def test_neighbors_cover_all_three_move_kinds(self, b3):
        space = SearchSpace(b3)
        state = space.encode("a a'")
        out = space.neighbors(state, length_cap=6)
        # One cancellation of the adjacent pair,
        assert space.encode("1") in out
        # insertions at three positions with four letters each,
        assert space.encode("b b' a a'") in out
        # and no relation occurrence here, so exactly 1 + 12 moves.
        assert len(out) == 13

    def test_length_cap_blocks_growth(self, b3):
        space = SearchSpace(b3)
        state = space.encode("a b a")
        capped = space.neighbors(state, length_cap=3)
        # Insertions would reach length 5; only the relation swap survives.
        assert capped == [space.encode("b a b")]


class TestBfs:
    def test_default_length_cap_formula(self):
        assert default_length_cap(1, 1, 6) == 14
        assert default_length_cap(2, 3, 4) == 14

    def test_braid_relation_is_one_move(self, b3):
        assert bfs_equal(b3, "a b a", "b a b", 1) == Equal(1)

    def test_freely_equal_words_cost_zero_moves(self, b3):
        assert bfs_equal(b3, "a a' b", "b", 3) == Equal(0)

    def test_distinct_braid_generators_stay_unconnected(self, b3):
        # a and b present distinct elements; radius 6 must abstain,
        # and abstention is all it may claim.
        assert bfs_equal(b3, "a", "b", 6) == NotWithinRadius()

    def test_a_search_stops_at_its_letter_bound(self, b3, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_SEARCH_LETTERS", 200)
        assert bfs_equal(b3, "a", "b", 6) == NotWithinRadius("max_search_letters")
        assert bfs_equal(b3, "a b a", "b a b", 1) == Equal(1)  # found before the bound
        with pytest.raises(SearchLimitExceeded):
            bfs_reach(b3, "a", 6, length_cap=14)

    def test_insertion_moves_are_needed_for_inverses(self):
        z2 = parse("< a | a a = 1 >")
        # a -> a' a a -> a' takes one insertion and one relation swap.
        assert bfs_equal(z2, "a", "a'", 3) == Equal(2)
        assert bfs_equal(z2, "a", "a'", 1) == NotWithinRadius()

    def test_reach_maps_states_to_distances(self):
        z5 = load("z5.plg")
        space = SearchSpace(z5)
        seen = bfs_reach(space, "1", 1, length_cap=14)
        expected = {
            space.encode("1"): 0,
            space.encode("a a'"): 1,
            space.encode("a' a"): 1,
            space.encode("a a a a a"): 1,
        }
        assert seen == expected

    def test_foreign_generators_are_unknown(self, b3):
        z = Word((Letter("z", 1),), "*", "*")
        with pytest.raises(UnknownGenerator, match="'z'"):
            bfs_equal(b3, z, "a", 2)
        with pytest.raises(UnknownGenerator, match="'z'"):
            bfs_reach(b3, z, 2, length_cap=6)

    def test_reach_respects_the_length_cap(self):
        z5 = load("z5.plg")
        space = SearchSpace(z5)
        seen = bfs_reach(space, "1", 1, length_cap=2)
        assert len(seen) == 3  # the five-letter relation side is blocked

    def test_search_agrees_with_the_normal_form_engine(self, z5, z5_system):
        space = SearchSpace(z5)
        rng = random.Random(9)
        letters = ["a", "a'"]

        def sample():
            n = rng.randrange(0, 7)
            return " ".join(rng.choice(letters) for _ in range(n)) or "1"

        confirmed = 0
        for _ in range(150):
            u, v = sample(), sample()
            verdict = word_equal(z5_system, u, v)
            if verdict:
                # Every provably equal pair must be reachable; escalate.
                for radius in range(1, 9):
                    found = bfs_equal(space, u, v, radius, length_cap=12)
                    if isinstance(found, Equal):
                        confirmed += 1
                        break
                else:
                    raise AssertionError(f"no chain found for {u!r} ~ {v!r}")
            else:
                # Unequal words must never be connected.
                found = bfs_equal(space, u, v, 4, length_cap=12)
                assert found == NotWithinRadius()
        assert confirmed >= 25

    def test_two_balls_answer_like_one(self):
        # Against a search from u alone (_search), on seeded pairs: v a
        # random word, or u after a few moves.  The same search builds the
        # witness of an equal pair, one whiskered rewrite per move.
        rng = random.Random(17)
        steps = set()
        for name in ("z5", "d5", "q8", "b3"):
            space = SearchSpace(load(f"{name}.plg"))
            letters = [str(letter) for letter in space._letters.values()]

            def sample():
                return " ".join(rng.choice(letters) for _ in range(rng.randint(0, 2))) or "1"

            for _ in range(130):
                radius = rng.randint(2, 4)
                u = sample()
                if rng.random() < 0.5:
                    v = sample()
                else:
                    state = space.encode(space._word(u).reduce())
                    for _ in range(rng.randint(1, radius + 1)):
                        state = rng.choice(space.neighbors(state, 10))
                    v = format_word(space.decode(state)) if state else "1"
                found = bfs_equal(space, u, v, radius)
                assert found == _one_ball(space, u, v, radius), (name, u, v, radius)
                if isinstance(found, Equal):
                    steps.add(found.steps)
                    p, uw, vw = space.polygraph, space._word(u), space._word(v)
                    ends = (uw.reduce(), vw.reduce())
                    cap = default_length_cap(len(uw), len(vw), radius)
                    witness = synthesize_witness(p, *ends, radius=radius, length_cap=cap)
                    assert boundary(p, witness) == ends, (name, u, v, radius)
                    moves = 0 if isinstance(witness, Id) else 1
                    while isinstance(witness, Vert):
                        moves, witness = moves + 1, witness.first
                    assert moves == found.steps, (name, u, v, radius)
        assert {0, 1, 2, 3} <= steps

    def test_an_unequal_search_holds_two_small_balls(self, b3):
        # From u alone the radius-4 ball holds about 7 MB; two radius-2
        # balls hold under 0.1 MB.
        space = SearchSpace(b3)
        tracemalloc.start()
        try:
            found = bfs_equal(space, "a b a b' a' b", "b a b a' b a", 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert found == NotWithinRadius()
        assert peak < 2 * 2**20

    def test_an_end_beyond_the_cap_is_searched_from_u(self, z5):
        # a^5 -> 1 leaves the cap behind, but 1 -> a^5 would pass it: grown
        # from u = 1 alone the search never reaches a^5, where a ball grown
        # from a^5 would meet 1 at once.
        assert bfs_equal(z5, "1", "a^5", 2, length_cap=4) == NotWithinRadius()
        assert bfs_equal(z5, "a^5", "1", 2, length_cap=4) == Equal(1)

    def test_provably_equal_words_are_connected_within_twelve_moves(
        self, d5, d5_system
    ):
        # Sampled on the dihedral golden: every pair the rewriting engine
        # proves equal must be reachable, and the witness radius is recorded.
        space = SearchSpace(d5)
        rng = random.Random(33)
        letters = ["r", "s", "r'", "s'"]

        def sample():
            n = rng.randrange(0, 5)
            return " ".join(rng.choice(letters) for _ in range(n)) or "1"

        confirmed, max_steps, tries = 0, 0, 0
        while confirmed < 12 and tries < 4000:
            tries += 1
            u, v = sample(), sample()
            if u == v or not word_equal(d5_system, u, v):
                continue
            found = bfs_equal(space, u, v, 12, length_cap=10)
            assert isinstance(found, Equal), (u, v)
            confirmed += 1
            max_steps = max(max_steps, found.steps)
        assert confirmed == 12
        assert max_steps <= 12
        note(f"d5 search witnesses: {confirmed} equal pairs connected, "
             f"longest chain {max_steps} moves")


class TestMultiplicationTable:
    def test_holding_an_instance_certifies_the_laws(self):
        z2 = MultiplicationTable(
            size=2, table=((0, 1), (1, 0)), identity=0, inverse=(0, 1)
        )
        assert z2.table[1][1] == 0

    def test_rejects_non_square_tables(self):
        with pytest.raises(LawViolation, match="not 2x2"):
            MultiplicationTable(
                size=2, table=((0,), (1, 0)), identity=0, inverse=(0, 1)
            )

    def test_rejects_entries_outside_the_carrier(self):
        with pytest.raises(LawViolation, match="not closed"):
            MultiplicationTable(
                size=2, table=((0, 5), (1, 0)), identity=0, inverse=(0, 1)
            )

    def test_rejects_a_fake_identity(self):
        with pytest.raises(LawViolation, match="identity"):
            MultiplicationTable(
                size=2, table=((1, 0), (0, 1)), identity=0, inverse=(0, 1)
            )

    def test_rejects_an_inverse_map_of_wrong_length(self):
        with pytest.raises(LawViolation, match="wrong length"):
            MultiplicationTable(
                size=2, table=((0, 1), (1, 0)), identity=0, inverse=(0,)
            )

    def test_rejects_a_wrong_inverse(self):
        with pytest.raises(LawViolation, match="not the inverse"):
            MultiplicationTable(
                size=2, table=((0, 1), (1, 0)), identity=0, inverse=(1, 0)
            )

    def test_rejects_a_non_associative_table(self):
        cyclic = [[(i + j) % 5 for j in range(5)] for i in range(5)]
        cyclic[1][1] = 3  # identity and inverse checks still pass
        with pytest.raises(LawViolation, match="associativity"):
            MultiplicationTable(
                size=5,
                table=tuple(tuple(row) for row in cyclic),
                identity=0,
                inverse=(0, 4, 3, 2, 1),
            )


def reduced_latin_squares(n: int):
    """Every n×n Latin square whose first row and column are 0, 1, ..., n-1."""
    square = [[j if i == 0 else i if j == 0 else -1 for j in range(n)] for i in range(n)]
    in_row = [set(square[i]) - {-1} for i in range(n)]
    in_col = [{square[i][j] for i in range(n)} - {-1} for j in range(n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            yield tuple(map(tuple, square))
            return
        i, j = cells[k]
        for x in range(n):
            if x not in in_row[i] and x not in in_col[j]:
                square[i][j] = x
                in_row[i].add(x)
                in_col[j].add(x)
                yield from fill(k + 1)
                in_row[i].discard(x)
                in_col[j].discard(x)

    return fill(0)


def cubic_verdict(table, inverse) -> str:
    """Which law a square with identity 0 breaks, by checking every triple."""
    n = len(table)
    if any(table[i][inverse[i]] != 0 or table[inverse[i]][i] != 0 for i in range(n)):
        return "inverse"
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    return "associativity"
    return "group"


class TestLightsAssociativityTest:
    def test_agrees_with_every_triple_on_all_small_loops(self):
        # The identity is 0 in a reduced Latin square, so only the inverse
        # and associativity checks can reject one; the right inverse is the
        # one zero in each row.
        counts = {}
        for n in range(1, 7):
            seen = {"inverse": 0, "associativity": 0, "group": 0}
            for square in reduced_latin_squares(n):
                inverse = tuple(row.index(0) for row in square)
                expected = cubic_verdict(square, inverse)
                try:
                    MultiplicationTable(n, square, 0, inverse)
                    found = "group"
                except LawViolation as exc:
                    found = "inverse" if "inverse" in str(exc) else "associativity"
                    if found == "associativity":
                        i, j, k = map(int, re.findall(r"\d+", str(exc)))
                        assert square[square[i][j]][k] != square[i][square[j][k]]
                assert found == expected, square
                seen[expected] += 1
            counts[n] = (sum(seen.values()), seen["associativity"], seen["group"])
        # 1, 1, 1, 4, 56 and 9,408 reduced Latin squares; of the 1,808 of
        # order 6 with two-sided inverses, 1,728 are not associative.
        assert counts == {
            1: (1, 0, 1),
            2: (1, 0, 1),
            3: (1, 0, 1),
            4: (4, 0, 4),
            5: (56, 2, 6),
            6: (9408, 1728, 80),
        }

    @pytest.mark.parametrize("name", ["q8", "S4", "A5", "Z7xZ8"])
    def test_a_group_needs_at_most_log2_order_generators(self, name):
        table = table_from_normal_forms(table_system(name))
        gens = oracle._right_generators(table.table, table.identity)
        assert 1 <= len(gens) <= math.log2(table.size)


def involutions(table: MultiplicationTable) -> list[int]:
    return [
        i
        for i in range(table.size)
        if i != table.identity and table.table[i][i] == table.identity
    ]


def reference_table(system) -> MultiplicationTable:
    """The table as every product of two normal forms, each normalized:
    n² normalizations, no Cayley graph."""
    words = [system.word_bytes(w) for w in enumerate_normal_forms(system).words]
    index = {w: i for i, w in enumerate(words)}
    table = tuple(
        tuple(index[normalize_bytes(system, u + v)] for v in words) for u in words
    )
    identity = index[b""]
    inverse = []
    for i, row in enumerate(table):
        matches = [j for j, x in enumerate(row) if x == identity]
        if len(matches) != 1:
            raise LawViolation(f"element {i} has {len(matches)} right inverses")
        inverse.append(matches[0])
    return MultiplicationTable(len(words), table, identity, tuple(inverse))


def table_or_violation(build, system):
    try:
        return build(system)
    except LawViolation as exc:
        return str(exc)


def table_system(name):
    if name in ("z5", "d5", "q8"):
        return completed(f"{name}.plg")
    texts = {
        "S4": "< a, b, c | a^2 = 1, b^2 = 1, c^2 = 1,"
        " a b a = b a b, b c b = c b c, a c = c a >",
        "A5": "< a, b | a^2 = 1, b^3 = 1, a b a b a b a b a b = 1 >",
        "Z7xZ8": "< a, b | a^7 = 1, b^8 = 1, a b = b a >",
        "trivial": "< a | a = 1 >",
    }
    if name == "idempotent":
        out = complete(encode(parse("< a | a a = a >"), ["a"], inverses=False))
    else:
        out = complete(encode(parse(texts[name])))
    assert isinstance(out, Converged)
    return out.system


class TestTableFromTheCayleyGraph:
    @pytest.mark.parametrize(
        "name", ["z5", "d5", "q8", "S4", "A5", "Z7xZ8", "trivial", "idempotent"]
    )
    def test_equals_the_table_of_normalized_products(self, name):
        system = table_system(name)
        found = table_or_violation(table_from_normal_forms, system)
        assert found == table_or_violation(reference_table, system)
        if name == "idempotent":
            assert found == "element 1 has 0 right inverses"

    def test_equals_the_table_of_normalized_products_on_the_structure_deck(self):
        for name, (_, system) in props.structure_systems().items():
            assert table_from_normal_forms(system) == reference_table(system), name

    def test_normalizes_at_most_one_product_per_element_and_letter(
        self, monkeypatch
    ):
        system = table_system("A5")
        calls = []
        normalize_word = rewriting._Matcher.normalize

        def counting(matcher, word, max_steps):
            calls.append(word)
            return normalize_word(matcher, word, max_steps)

        monkeypatch.setattr(rewriting._Matcher, "normalize", counting)
        t = table_from_normal_forms(system)
        assert 0 < len(calls) <= t.size * len(system.alphabet)

    def test_a_product_outside_the_normal_forms_is_an_internal_error(
        self, monkeypatch, z5_system
    ):
        z5_system = certify(z5_system)  # the fixture's action may be filled already
        monkeypatch.setattr(
            rewriting._Matcher, "normalize", lambda matcher, word, max_steps: word
        )
        with pytest.raises(InternalError, match="left the normal-form set"):
            table_from_normal_forms(z5_system)


class TestTableFromNormalForms:
    def test_cyclic_five_is_abelian_with_no_involutions(self, z5_system):
        t = table_from_normal_forms(z5_system)
        assert t.size == 5
        assert t.identity == 0  # the empty word is shortlex-first
        assert involutions(t) == []
        assert all(
            t.table[i][j] == t.table[j][i]
            for i in range(5)
            for j in range(5)
        )

    def test_dihedral_ten_has_five_reflections(self, d5_system):
        t = table_from_normal_forms(d5_system)
        assert t.size == 10
        assert len(involutions(t)) == 5
        assert any(
            t.table[i][j] != t.table[j][i] for i in range(10) for j in range(10)
        )

    def test_quaternions_have_a_unique_involution(self, q8_system):
        t = table_from_normal_forms(q8_system)
        assert t.size == 8
        assert len(involutions(t)) == 1
        # All other non-identity elements square to that central involution.
        (minus_one,) = involutions(t)
        others = [
            i for i in range(8) if i not in (t.identity, minus_one)
        ]
        assert all(t.table[i][i] == minus_one for i in others)

    def test_trivial_group_gets_the_one_element_table(self):
        collapsed = parse("< a | a = 1 >")
        out = complete(encode(collapsed, None))
        assert isinstance(out, Converged)
        t = table_from_normal_forms(out.system)
        assert (t.size, t.identity, t.inverse) == (1, 0, (0,))

    def test_monoid_without_inverses_is_refused(self):
        idempotent = parse("< a | a a = a >")
        out = complete(encode(idempotent, ["a"], inverses=False))
        assert isinstance(out, Converged)
        with pytest.raises(LawViolation, match="right inverses"):
            table_from_normal_forms(out.system)

    def test_infinite_monoid_is_refused(self, b3_monoid_system):
        with pytest.raises(InfiniteOrUnknown, match="more than 50"):
            table_from_normal_forms(b3_monoid_system, cap=50)


class TestClosureGenerates:
    def test_any_nontrivial_element_generates_a_prime_cycle(self, z5_system):
        t = table_from_normal_forms(z5_system)
        for i in range(1, 5):
            assert closure_generates(t, [i])
        assert not closure_generates(t, [t.identity])

    def test_a_rotation_alone_spans_half_the_dihedral_group(self, d5_system):
        from polygraph.rewriting import enumerate_normal_forms

        words = enumerate_normal_forms(d5_system, cap=100).words
        t = table_from_normal_forms(d5_system)
        assert not closure_generates(t, [words.index("r")])
        assert closure_generates(t, [words.index("r"), words.index("s")])
        assert closure_generates(t, list(range(t.size)))

    def test_quaternions_need_two_generators(self, q8_system):
        t = table_from_normal_forms(q8_system)
        assert not any(closure_generates(t, [i]) for i in range(t.size))
        assert any(
            closure_generates(t, [i, j])
            for i in range(t.size)
            for j in range(i + 1, t.size)
        )

    def test_agrees_with_the_closure_under_products_on_the_structure_deck(self):
        # The generators' normal forms generate each deck group; seeded
        # subsets of one to three elements often generate a proper subgroup.
        rng = random.Random(16)
        tables = []
        for p, system in props.structure_systems().values():
            t = table_from_normal_forms(system)
            words = enumerate_normal_forms(system).words
            gens = [words.index(rewriting.normalize(system, g)) for g in p.gens]
            assert closure_generates(t, gens)
            assert props.reference_closure_generates(t, gens)
            tables.append(t)
        proper = 0
        for _ in range(200):
            t = rng.choice(tables)
            subset = [rng.randrange(t.size) for _ in range(rng.randint(1, 3))]
            found = closure_generates(t, subset)
            assert found == props.reference_closure_generates(t, subset), subset
            proper += not found
        assert 50 < proper < 150

    def test_rejects_an_empty_subset(self, z5_system):
        t = table_from_normal_forms(z5_system)
        with pytest.raises(ValueError, match="nonempty"):
            closure_generates(t, [])

    def test_rejects_indices_outside_the_table(self, z5_system):
        t = table_from_normal_forms(z5_system)
        with pytest.raises(ValueError, match="outside"):
            closure_generates(t, [7])
