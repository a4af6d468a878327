"""Polygraph containers, validation, Euler data, and derivation boundaries."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import props
from conftest import load
from polygraph.errors import EndpointMismatch, IllTyped, UnknownCell
from polygraph.model import (
    CancelLeft,
    CancelRight,
    Gen,
    Horiz,
    Id,
    Inv,
    Polygraph,
    Vert,
    boundary,
    chain,
    euler_data,
    step,
    validate,
)
from polygraph.words import Letter, Word


@pytest.fixture()
def b3():
    return load("b3.plg")


@pytest.fixture()
def typed():
    """A two-0-cell polygraph with a parallel pair of typed words."""
    gens = {"f": ("x", "y"), "g": ("y", "x"), "h": ("x", "y")}
    p = Polygraph(cells0=("x", "y"), gens=gens, rels={})
    lhs = Word.from_letters([Letter("f", 1)], gens)
    rhs = Word.from_letters([Letter("h", 1)], gens)
    return Polygraph(cells0=("x", "y"), gens=gens, rels={"e": (lhs, rhs)})


class TestValidate:
    def test_examples_are_valid(self):
        for name in ("z5.plg", "d5.plg", "q8.plg", "b3.plg", "b3_abc.plg"):
            assert validate(load(name)) == []

    def test_generator_with_unknown_endpoint(self):
        p = Polygraph(cells0=("*",), gens={"a": ("*", "nowhere")}, rels={})
        issues = validate(p)
        assert issues and issues[0].cell == "a"

    def test_relation_sides_must_be_parallel(self, typed):
        gens = typed.gens
        lhs = Word.from_letters([Letter("f", 1)], gens)           # x -> y
        rhs = Word.from_letters([Letter("g", 1)], gens)           # y -> x
        broken = Polygraph(typed.cells0, gens, {"e": (lhs, rhs)})
        issues = validate(broken)
        assert any(issue.cell == "e" for issue in issues)

    def test_relation_over_missing_generator(self):
        ghost = {"a": ("*", "*")}
        lhs = Word.from_letters([Letter("a", 1)], ghost)
        p = Polygraph(("*",), {}, {"r": (lhs, lhs)})
        issues = validate(p)
        assert any(issue.cell == "r" for issue in issues)


class TestEulerData:
    def test_counts(self, b3, typed):
        assert euler_data(b3) == (1, 2, 1)
        assert euler_data(load("q8.plg")) == (1, 2, 2)
        assert euler_data(typed) == (2, 3, 1)


class TestBoundary:
    def test_gen_forward_and_backward(self, b3):
        lhs, rhs = b3.rels["r1"]
        assert boundary(b3, Gen("r1", 1)) == (lhs, rhs)
        assert boundary(b3, Gen("r1", -1)) == (rhs, lhs)

    def test_unknown_relation(self, b3):
        with pytest.raises(UnknownCell):
            boundary(b3, Gen("r99", 1))

    def test_id_and_inv(self, b3):
        w = b3.word("a b a")
        assert boundary(b3, Id(w)) == (w, w)
        assert boundary(b3, Inv(Gen("r1", 1))) == boundary(b3, Gen("r1", -1))

    def test_an_identity_runs_only_between_the_endpoints_of_its_letters(self, typed):
        # f runs from x to y, so a word of f stated as a loop at y bounds no
        # identity, alone or composed with g into a false f g from y to x.
        bad = Word((Letter("f", 1),), "y", "y")
        with pytest.raises(EndpointMismatch, match="f runs from 'x' to 'y', not 'y' to 'y'"):
            boundary(typed, Id(bad))
        with pytest.raises(EndpointMismatch):
            boundary(typed, Horiz(Id(bad), Id(typed.word("g"))))
        good = Word((Letter("f", 1),), "x", "y")
        assert boundary(typed, Id(good)) == (good, good)

    def test_cancellation_units(self, typed):
        lam = boundary(typed, CancelLeft("f"))
        assert lam[0] == Word.from_letters(
            [Letter("f", -1), Letter("f", 1)], typed.gens
        )
        assert lam[1] == Word.identity("y")
        rho = boundary(typed, CancelRight("f"))
        assert rho[0] == Word.from_letters(
            [Letter("f", 1), Letter("f", -1)], typed.gens
        )
        assert rho[1] == Word.identity("x")

    def test_horiz_concatenates(self, b3):
        u = b3.word("b")
        d = Horiz(Id(u), Gen("r1", 1))
        lhs, rhs = b3.rels["r1"]
        assert boundary(b3, d) == (u * lhs, u * rhs)

    def test_horiz_endpoint_mismatch(self, typed):
        # f ends at y, but the relation e starts at x
        with pytest.raises(IllTyped):
            boundary(typed, Horiz(Id(typed.word("f", at="x")), Gen("e", 1)))

    def test_vert_needs_literal_middle_match(self, b3):
        # aba -> bab cannot be followed by a move out of aba again
        with pytest.raises(IllTyped):
            boundary(b3, Vert(Gen("r1", 1), Gen("r1", 1)))

    def test_vert_middle_match_is_not_up_to_reduction(self, b3):
        # "a a'" and "1" are freely equal but not literally the same word,
        # so gluing their identity derivations is rejected.
        with pytest.raises(IllTyped):
            boundary(b3, Vert(Id(b3.word("a a'")), Id(b3.word("1"))))

    def test_vert_chains(self, b3):
        roundtrip = Vert(Gen("r1", 1), Gen("r1", -1))
        lhs, _ = b3.rels["r1"]
        assert boundary(b3, roundtrip) == (lhs, lhs)


class TestStepAndChain:
    def test_step_whiskers(self, b3):
        pre, suf = b3.word("b b"), b3.word("a'")
        lhs, rhs = b3.rels["r1"]
        d = step(b3, pre, Gen("r1", 1), suf)
        assert boundary(b3, d) == (pre * lhs * suf, pre * rhs * suf)

    def test_chain_folds_vertically(self, b3):
        first = step(b3, b3.word("1"), Gen("r1", 1), b3.word("b"))
        # aba b -> bab b; then rewrite the trailing "ab b" part? keep simple:
        second = Inv(first)
        d = chain([first, second])
        src = b3.word("a b a b")
        assert boundary(b3, d) == (src, src)

    def test_chain_rejects_empty(self):
        with pytest.raises(IllTyped):
            chain([])

    def test_chain_of_one_is_that_move(self, b3):
        d = Gen("r1", 1)
        assert chain([d]) == d


def test_boundary_law_properties():
    assert props.run_boundary_laws_suite(seed=31, cases=1000) == 1000


def test_boundary_of_a_deep_chain_needs_no_recursion():
    b3 = load("b3.plg")
    a = b3.word("a")
    assert boundary(b3, chain([Id(a)] * 1600)) == (a, a)
    deep = Gen("r1", 1)
    for _ in range(3000):
        deep = Inv(deep)
    assert boundary(b3, deep) == b3.rels["r1"]


def test_derivation_equality_is_structural():
    b3 = load("b3.plg")
    a, b = b3.word("a"), b3.word("b")
    assert Horiz(Id(a), Gen("r1", 1)) == Horiz(Id(b3.word("a")), Gen("r1", 1))
    assert Horiz(Id(a), Id(b)) != Horiz(Id(b), Id(a))
    assert Horiz(Id(a), Id(b)) != Vert(Id(a), Id(b))
    assert CancelLeft("a") != CancelRight("a")
    assert Gen("r1", 1) != Gen("r1", -1)
    assert Gen("r1", 1) != ("r1", 1)
    assert len({Inv(Gen("r1", 1)), Inv(Gen("r1", 1)), Gen("r1", 1)}) == 2


def test_shared_subtrees_are_compared_and_hashed_once():
    # 2^60 leaves by path, 61 distinct nodes by reference.
    b3 = load("b3.plg")
    d, e, f = Id(b3.word("a")), Id(b3.word("a")), Id(b3.word("b"))
    for _ in range(60):
        d, e, f = Vert(d, d), Vert(e, e), Vert(f, f)
    assert d == e
    assert hash(d) == hash(e)
    assert d != f


def test_boundary_checks_a_shared_subtree_once(b3):
    # 2^40 leaves by path, 41 distinct nodes by reference: a walk that
    # followed every path would not finish.
    a = b3.word("a")
    d = Id(a)
    for _ in range(40):
        d = Vert(d, d)
    assert boundary(b3, d) == (a, a)
    bad = Vert(Gen("r1", 1), Gen("r1", 1))  # middle words a b a and b a b
    for _ in range(40):
        bad = Horiz(bad, bad)
    with pytest.raises(IllTyped, match="middle words differ"):
        boundary(b3, bad)


def test_boundary_raises_for_the_left_subtree_first(b3):
    missing, bad_sign = Gen("nope", 1), Gen("r1", 2)
    with pytest.raises(UnknownCell):
        boundary(b3, Horiz(missing, bad_sign))
    with pytest.raises(IllTyped, match="sign"):
        boundary(b3, Vert(bad_sign, missing))


@pytest.mark.parametrize("junk", ["junk", 3, None])
def test_a_part_that_is_not_a_derivation_is_ill_typed(b3, junk):
    a = Id(b3.word("a"))
    for d in (junk, Inv(junk), Horiz(a, junk), Vert(junk, a), Vert(a, Inv(junk))):
        with pytest.raises(IllTyped, match="not a derivation node"):
            boundary(b3, d)


@pytest.mark.parametrize("junk", ["junk", 3])
def test_printing_a_part_that_is_not_a_derivation_is_ill_typed(junk):
    with pytest.raises(IllTyped) as err:
        repr(Inv(junk))
    assert str(err.value) == f"not a derivation node: {junk!r}"


# Reads and prints a witness in a fresh interpreter, then names every
# engine module the import loaded: a proof checker needs none of them.
_CHECKER = """
import sys
from polygraph.model import Polygraph, boundary, format_derivation, parse_derivation
from polygraph.presentations import parse
p = parse("< a, b | a b a = b a b >")
text = "(v (h (id a) (gen r1 +)) (inv (h (id a) (gen r1 +))))"
d = parse_derivation(text, p)
assert format_derivation(d) == text, format_derivation(d)
assert boundary(p, d) == (p.word("a a b a"), p.word("a a b a"))
engines = ("rewriting", "oracle", "tietze", "cayley")
print(" ".join(name for name in engines if "polygraph." + name in sys.modules))
"""


def test_derivation_text_loads_no_engine_module():
    src = Path(__file__).parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _CHECKER],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"
