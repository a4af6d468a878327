"""Randomized property suites shared by module tests and the acceptance suite.

Each ``run_*_suite`` function executes ``cases`` independent trials driven by
a seeded random generator and returns the number of trials that ran; any
violated property raises AssertionError on the spot.  The generators build
arbitrary well-formed inputs (presentations, zig-zag words, rewrite
derivations, presentation-editing steps), so the suites probe the engine far
from the hand-picked examples.
"""

from __future__ import annotations

import random

from polygraph import presentations, tietze
from polygraph.errors import ParseError, StepLimitExceeded
from polygraph.model import (
    CancelLeft,
    CancelRight,
    Gen,
    Id,
    Inv,
    Polygraph,
    Vert,
    boundary,
    chain,
    step,
)
from polygraph.rewriting import (
    Alphabet,
    Converged,
    Rule,
    RewritingSystem,
    _Matcher,
    complete,
    encode,
    normalize_bytes,
    parse_system,
)
from polygraph.words import MAX_WORD_LETTERS, Letter, Word, format_word, parse_word

# --------------------------------------------------------------- generators

_NAME_POOL = [
    "a", "b", "c", "d", "e", "f", "g", "h",
    "p", "q", "r", "s", "t", "u", "v", "w", "x", "y", "z",
]


def _fresh_names(rng: random.Random, count: int, taken=()) -> list[str]:
    pool = [n for n in _NAME_POOL if n not in taken]
    rng.shuffle(pool)
    names = pool[:count]
    serial = 0
    while len(names) < count:
        candidate = f"n{serial}"
        serial += 1
        if candidate not in taken:
            names.append(candidate)
    return names


def random_polygraph(
    rng: random.Random,
    max_cells: int = 2,
    max_gens: int = 5,
    max_rels: int = 3,
    min_rels: int = 0,
) -> Polygraph:
    """An arbitrary well-formed presentation with parallel relation sides."""
    n_cells = rng.randint(1, max_cells)
    cells = ("*",) if n_cells == 1 else tuple(f"c{i}" for i in range(n_cells))
    n_gens = rng.randint(1, max_gens)
    names = _fresh_names(rng, n_gens + max_rels)
    gens: dict[str, tuple[str, str]] = {}
    for name in names[:n_gens]:
        gens[name] = (rng.choice(cells), rng.choice(cells))
    p = Polygraph(cells0=cells, gens=gens, rels={})
    rels: dict[str, tuple[Word, Word]] = {}
    n_rels = rng.randint(min_rels, max_rels)
    for i, name in enumerate(names[n_gens:n_gens + n_rels]):
        lhs = random_walk(p, rng, max_len=5)
        rhs = _parallel_walk(p, rng, lhs, max_len=5)
        rels[f"{name}{i}"] = (lhs, rhs)
    return Polygraph(cells0=cells, gens=gens, rels=rels)


def random_walk(
    p: Polygraph,
    rng: random.Random,
    max_len: int = 8,
    start: str | None = None,
) -> Word:
    """A random zig-zag word: each letter leaves the cell the previous one hit."""
    moves: dict[str, list[Letter]] = {}
    for name, (src, tgt) in p.gens.items():
        moves.setdefault(src, []).append(Letter(name, 1))
        moves.setdefault(tgt, []).append(Letter(name, -1))
    cur = start if start is not None else rng.choice(p.cells0)
    origin = cur
    letters: list[Letter] = []
    for _ in range(rng.randint(0, max_len)):
        options = moves.get(cur)
        if not options:
            break
        letter = rng.choice(options)
        letters.append(letter)
        cur = letter.endpoints(p.gens)[1]
    return Word.from_letters(letters, p.gens, at=origin)


def _parallel_walk(
    p: Polygraph, rng: random.Random, model: Word, max_len: int, tries: int = 30
) -> Word:
    """A word parallel to ``model`` (same endpoints), by bounded rejection."""
    for _ in range(tries):
        w = random_walk(p, rng, max_len=max_len, start=model.src)
        if w.tgt == model.tgt:
            return w
    return model


def _subword(p: Polygraph, letters, at: str) -> Word:
    return Word.from_letters(letters, p.gens, at=at)


def random_rewrite(
    p: Polygraph, rng: random.Random, max_moves: int = 4
) -> tuple:
    """A derivation rewriting a random start word by whiskered relation moves.

    Returns (derivation, start_word, end_word); the derivation is a vertical
    chain of single-occurrence replacements, or an identity when no relation
    side occurs in the start word.
    """
    start = random_walk(p, rng, max_len=8)
    cur = start
    moves = []
    for _ in range(rng.randint(0, max_moves)):
        options = []
        letters = cur.letters
        for name, (lhs, rhs) in p.rels.items():
            for side, sign, repl in ((lhs, 1, rhs), (rhs, -1, lhs)):
                k = len(side.letters)
                for i in range(len(letters) - k + 1):
                    if letters[i:i + k] == side.letters:
                        if k == 0 and side.src != _cell_at(p, cur, i):
                            continue
                        options.append((i, k, name, sign, repl))
        if not options:
            break
        i, k, name, sign, repl = rng.choice(options)
        prefix = _subword(p, letters[:i], cur.src)
        suffix = _subword(p, letters[i + k:], repl.tgt)
        moves.append(step(p, prefix, Gen(name, sign), suffix))
        cur = prefix * repl * suffix
    return (chain(moves) if moves else Id(start)), start, cur


def _cell_at(p: Polygraph, word: Word, i: int) -> str:
    """The 0-cell reached after the first ``i`` letters of ``word``."""
    if i == 0:
        return word.src
    return word.letters[i - 1].endpoints(p.gens)[1]


def random_tietze_case(
    p: Polygraph, rng: random.Random
) -> tuple[Polygraph, object] | None:
    """A (state, verified-step) pair, covering all six step kinds.

    Removal steps are produced by inverting a fresh addition, which keeps
    the exact-round-trip property meaningful (removing the newest cell and
    re-adding it restores declaration order as well as content).
    """
    kind = rng.choice(["t0", "t1", "t2", "inv_t0", "inv_t1", "inv_t2"])
    taken = set(p.gens) | set(p.rels) | set(p.cells0)
    fresh = _fresh_names(rng, 3, taken)
    if kind.endswith("t0"):
        fwd = tietze.T0(
            at=rng.choice(p.cells0), new_cell=f"cell_{fresh[0]}", new_gen=fresh[1]
        )
    elif kind.endswith("t1"):
        fwd = tietze.T1(
            word=random_walk(p, rng, max_len=5),
            new_gen=fresh[0],
            new_rel=fresh[1],
            gen_on_left=rng.random() < 0.5,
        )
    else:
        if not p.rels:
            return None
        witness, start, end = random_rewrite(p, rng)
        declared = (start, end) if rng.random() < 0.5 else None
        fwd = tietze.T2(witness=witness, new_rel=fresh[0], declared=declared)
    if not kind.startswith("inv"):
        return p, fwd
    return tietze.apply(p, fwd), tietze.inverse(p, fwd)


# ------------------------------------------------------------------- suites


def run_free_reduction_suite(seed: int = 0, cases: int = 1000) -> int:
    """Free reduction is idempotent, endpoint-preserving, and confluent:
    cancelling adjacent inverse pairs in any order reaches the same word."""
    rng = random.Random(seed)
    ran = 0
    for _ in range(cases):
        p = random_polygraph(rng, max_cells=3, max_gens=4, max_rels=0)
        w = random_walk(p, rng, max_len=30)
        r = w.reduce()
        assert r.reduce() == r
        assert (r.src, r.tgt) == (w.src, w.tgt)
        assert _random_order_reduce(p, w, rng) == r
        assert w.invert().reduce() == r.invert()
        ran += 1
    return ran


def _random_order_reduce(p: Polygraph, w: Word, rng: random.Random) -> Word:
    letters = list(w.letters)
    while True:
        sites = [
            i
            for i in range(len(letters) - 1)
            if letters[i] == letters[i + 1].inverse()
        ]
        if not sites:
            return Word.from_letters(letters, p.gens, at=w.src)
        i = rng.choice(sites)
        del letters[i:i + 2]


def run_parser_roundtrip_suite(seed: int = 0, cases: int = 1000) -> int:
    """render -> parse is the identity on presentations (content and order),
    and format -> parse is the identity on words."""
    rng = random.Random(seed)
    ran = 0
    for _ in range(cases):
        p = random_polygraph(rng, max_cells=3, max_gens=5, max_rels=3)
        text = presentations.render(p)
        q = presentations.parse(text)
        assert q == p
        assert q.cells0 == p.cells0
        assert list(q.gens) == list(p.gens)
        assert list(q.rels) == list(p.rels)
        assert presentations.render(q) == text
        w = random_walk(p, rng, max_len=12)
        again = parse_word(format_word(w), p.gens, at=w.src if len(w) == 0 else None)
        assert again == w
        ran += 1
    return ran


def run_boundary_laws_suite(seed: int = 0, cases: int = 1000) -> int:
    """Structural laws of derivation boundaries: identities are idle,
    inversion swaps endpoints, gluings concatenate or chain them, and the
    cancellation units have their declared boundaries."""
    rng = random.Random(seed)
    ran = 0
    while ran < cases:
        p = random_polygraph(rng, max_cells=1, max_gens=4, max_rels=3, min_rels=1)
        d, start, end = random_rewrite(p, rng)
        b = boundary(p, d)
        assert b == (start, end)
        assert boundary(p, Inv(d)) == (end, start)
        assert boundary(p, Vert(d, Inv(d))) == (start, start)
        w = random_walk(p, rng, max_len=6)
        assert boundary(p, Id(w)) == (w, w)
        assert boundary(p, tietze.parse_derivation(tietze.format_derivation(d), p)) == b
        pre = random_walk(p, rng, max_len=4)
        suf = random_walk(p, rng, max_len=4)
        assert boundary(p, step(p, pre, d, suf)) == (pre * start * suf, pre * end * suf)
        g = rng.choice(list(p.gens))
        src, tgt = p.gens[g]
        left_pair = Word.from_letters([Letter(g, -1), Letter(g, 1)], p.gens)
        right_pair = Word.from_letters([Letter(g, 1), Letter(g, -1)], p.gens)
        assert boundary(p, CancelLeft(g)) == (left_pair, Word.identity(tgt))
        assert boundary(p, CancelRight(g)) == (right_pair, Word.identity(src))
        ran += 1
    return ran


def run_tietze_cancellation_suite(seed: int = 0, cases: int = 1000) -> int:
    """Every presentation-editing step verifies, applies, and is undone
    exactly by its computed inverse; inverting twice recovers the step."""
    rng = random.Random(seed)
    ran = 0
    while ran < cases:
        p = random_polygraph(rng, max_cells=2, max_gens=4, max_rels=3)
        case = random_tietze_case(p, rng)
        if case is None:
            continue
        state, s = case
        check = tietze.verify(state, s)
        assert check.ok, check.reason
        after = tietze.apply(state, s)
        back = tietze.inverse(state, s)
        assert tietze.verify(after, back).ok
        assert tietze.apply(after, back) == state
        again = tietze.inverse(after, back)
        assert tietze.apply(state, again) == after
        ran += 1
    return ran


_NF_SYSTEM_SPECS = [
    ("< a | a^5 = 1 >", None, True),
    ("< r, s | r^5 = 1, s^2 = 1, r s r s = 1 >", None, True),
    ("< i, j | i = j i j, j = i j i >", None, True),
    ("< a, b, c | a b a = b a b, c a = b c, a b = c >", ["a", "b", "c"], False),
]
_NF_SYSTEMS: list[RewritingSystem] | None = None


def _nf_systems() -> list[RewritingSystem]:
    global _NF_SYSTEMS
    if _NF_SYSTEMS is None:
        systems = []
        for text, precedence, with_inverses in _NF_SYSTEM_SPECS:
            p = presentations.parse(text)
            out = complete(encode(p, precedence, inverses=with_inverses))
            assert isinstance(out, Converged), text
            systems.append(out.system)
        _NF_SYSTEMS = systems
    return _NF_SYSTEMS


def run_normal_form_suite(seed: int = 0, cases: int = 1000) -> int:
    """In a convergent system the normal form is strategy-independent:
    rewriting random occurrences in random order reaches the same word the
    leftmost strategy does, normal forms are fixed points, and normalizing
    a concatenation of normal forms matches normalizing the original words."""
    rng = random.Random(seed)
    systems = _nf_systems()
    ran = 0
    for _ in range(cases):
        system = rng.choice(systems)
        n = len(system.alphabet)
        w = bytes(rng.randrange(n) for _ in range(rng.randint(0, 12)))
        u = bytes(rng.randrange(n) for _ in range(rng.randint(0, 6)))
        nf = normalize_bytes(system, w)
        assert normalize_bytes(system, nf) == nf
        assert _random_strategy_normalize(system, w, rng) == nf
        direct = normalize_bytes(system, w + u)
        stitched = normalize_bytes(system, nf + normalize_bytes(system, u))
        assert direct == stitched
        ran += 1
    return ran


def _random_strategy_normalize(
    system: RewritingSystem, word: bytes, rng: random.Random
) -> bytes:
    cur = word
    while True:
        sites = [
            (i, rule)
            for rule in system.rules
            for i in range(len(cur) - len(rule.lhs) + 1)
            if cur[i:i + len(rule.lhs)] == rule.lhs
        ]
        if not sites:
            return cur
        i, rule = rng.choice(sites)
        cur = cur[:i] + rule.rhs + cur[i + len(rule.lhs):]


def reference_normalize(system: RewritingSystem, word: bytes) -> tuple[bytes, int]:
    """Leftmost-lowest rewriting by a scan over first-letter buckets, which
    backs up the longest left side after each rewrite: the normal form and
    the number of rewrite steps.  A reference for the stack normalizer."""
    buckets: dict[int, list] = {}
    for rule in system.rules:
        buckets.setdefault(rule.lhs[0], []).append(rule)
    max_lhs = max((len(rule.lhs) for rule in system.rules), default=1)
    steps = pos = 0
    while pos < len(word):
        for rule in buckets.get(word[pos], ()):
            if word.startswith(rule.lhs, pos):
                steps += 1
                word = word[:pos] + rule.rhs + word[pos + len(rule.lhs):]
                pos = max(0, pos - max_lhs + 1)
                break
        else:
            pos += 1
    return word, steps


def bucket_normalize(system: RewritingSystem, word: bytes) -> tuple[bytes, int]:
    """The stack normalizer over left sides bucketed by their last letter:
    after each letter read, the first left side in that letter's bucket (in
    rule order) that ends the stack is cut off, and its right side is pushed
    back onto the letters to read.  The normal form and the number of
    rewrite steps; a reference for the automaton, which must rewrite the
    same redex, also when left sides contain one another or repeat."""
    rules: dict[bytes, bytes] = {}
    by_last: dict[int, list[bytes]] = {}
    for rule in system.rules:
        if rule.lhs not in rules:
            rules[rule.lhs] = rule.rhs
            by_last.setdefault(rule.lhs[-1], []).append(rule.lhs)
    stack, todo, steps = bytearray(), bytearray(word[::-1]), 0
    while todo:
        stack.append(todo.pop())
        for lhs in by_last.get(stack[-1], ()):
            if stack.endswith(lhs):
                steps += 1
                del stack[len(stack) - len(lhs):]
                todo += rules[lhs][::-1]
                break
    return bytes(stack), steps


def random_rules(rng: random.Random, letters: int, count: int, max_len: int = 5) -> list[Rule]:
    """Shortlex-decreasing rules over ``letters`` letters, with some left
    sides inside others and some repeated with another right side."""
    rules: list[Rule] = []
    while len(rules) < count:
        roll = rng.random()
        if rules and roll < 0.2:
            lhs = rng.choice(rules).lhs  # a repeated left side
        elif rules and roll < 0.4:
            outer = rng.choice(rules).lhs  # a left side inside another
            start = rng.randrange(len(outer))
            lhs = outer[start:rng.randint(start + 1, len(outer))]
        else:
            lhs = bytes(rng.randrange(letters) for _ in range(rng.randint(1, max_len)))
        rhs = bytes(rng.randrange(letters) for _ in range(rng.randint(0, len(lhs))))
        if (len(lhs), lhs) > (len(rhs), rhs):
            rules.append(Rule(lhs, rhs))
    return rules


def random_rule_systems(seed: int, count: int) -> list[RewritingSystem]:
    """Hand-built systems of random_rules over 2 to 4 letters."""
    rng = random.Random(seed)
    systems = []
    for _ in range(count):
        letters = rng.randint(2, 4)
        alphabet = Alphabet("abcd"[:letters])
        systems.append(RewritingSystem(alphabet, random_rules(rng, letters, rng.randint(1, 8))))
    return systems


def run_index_edit_suite(seed: int = 0, cases: int = 200) -> int:
    """An index driven through random add() and retire() calls, normalizing
    words between them so its memo fills, answers like a fresh _Matcher
    built from its final rules: the same normal forms and step counts, the
    same irreducible one-letter extensions, and the same overlaps."""
    rng = random.Random(seed)
    ran = 0
    for _ in range(cases):
        letters = rng.randint(2, 4)
        index = _Matcher(())
        for _ in range(rng.randint(1, 30)):
            if index.rules and rng.random() < 0.4:
                index.retire(rng.choice(list(index.rules)))
            else:
                for rule in random_rules(rng, letters, 1):
                    if rule.lhs not in index.rules:
                        index.add(rule.lhs, rule.rhs)
            for _ in range(3):
                word = bytes(rng.randrange(letters) for _ in range(rng.randint(0, 12)))
                index.normalize(word, 10**6)
        fresh = _Matcher([Rule(lhs, rhs) for lhs, rhs in index.rules.items()])
        assert list(index.rules.items()) == list(fresh.rules.items())
        for _ in range(20):
            word = bytes(rng.randrange(letters) for _ in range(rng.randint(0, 12)))
            assert _steps_and_normal_form(index, word) == _steps_and_normal_form(fresh, word)
            state, fresh_state = b"", b""
            for letter in word:
                state, lhs = index.step(state, letter)
                fresh_state, fresh_lhs = fresh.step(fresh_state, letter)
                assert (state, lhs) == (fresh_state, fresh_lhs)
                if lhs is not None:
                    break
        for lhs in index.rules:
            assert index.overlaps(lhs) == fresh.overlaps(lhs)
        ran += 1
    return ran


def _steps_and_normal_form(index: _Matcher, word: bytes) -> tuple[int, bytes]:
    """The fewest ``max_steps`` that normalize needs, and the normal form."""
    steps = 0
    while True:
        try:
            return steps, index.normalize(word, steps)
        except StepLimitExceeded:
            steps += 1


def run_reference_strategy_suite(
    systems: list[RewritingSystem],
    seed: int = 0,
    cases: int = 1000,
    reference=reference_normalize,
) -> int:
    """On ``cases`` random words per system, normalize_bytes gives the
    reference's normal form, and the fewest ``max_steps`` it needs is the
    reference's step count (it raises StepLimitExceeded with one fewer)."""
    rng = random.Random(seed)
    ran = 0
    for system in systems:
        n = len(system.alphabet)
        for _ in range(cases):
            w = bytes(rng.randrange(n) for _ in range(rng.randint(0, 40)))
            nf, steps = reference(system, w)
            assert normalize_bytes(system, w, steps) == nf
            if steps:
                try:
                    normalize_bytes(system, w, steps - 1)
                except StepLimitExceeded:
                    pass
                else:
                    raise AssertionError(f"{w!r} normalized in fewer than {steps} steps")
            ran += 1
    return ran


# ------------------------------------------------------------ word grammar
#
# Four entry points read word text: parse_word, a .plg relation side,
# RewritingSystem.word_bytes, and a parse_system rule line.  Each reader
# below embeds the text where that entry point meets it and returns the
# letters it read, as bytes over the group encoding of _GRAMMAR_P; next to
# it is where the text starts in that embedding, as (line, column).

_GRAMMAR_P = presentations.parse("< a, b, c1 | >")
_GRAMMAR_MAX_LEN = 12  # the most letters a random word in the suite has
_PLG_HEAD = "< a, b, c1 | "
# One letter longer than any word read here, so the rule always decreases
# shortlex whatever its right side reads as.
_SYSTEM_HEAD = f"a^{_GRAMMAR_MAX_LEN + 1} -> "


def _read_word(text: str) -> bytes:
    return encode(_GRAMMAR_P).word_bytes(parse_word(text, _GRAMMAR_P.gens, at="*"))


def _read_plg(text: str) -> bytes:
    q = presentations.parse(f"{_PLG_HEAD}{text} = 1 >")
    return encode(_GRAMMAR_P).word_bytes(q.rels["r1"][0])


def _read_bytes(text: str) -> bytes:
    return encode(_GRAMMAR_P).word_bytes(text)


def _read_system(text: str) -> bytes:
    order = " < ".join(encode(_GRAMMAR_P).alphabet.letters)
    return parse_system(f"order: {order}\n{_SYSTEM_HEAD}{text}\n").rules[0].rhs


WORD_READERS = {
    "parse_word": (_read_word, (1, 1)),
    "plg": (_read_plg, (1, len(_PLG_HEAD) + 1)),
    "word_bytes": (_read_bytes, (1, 1)),
    "parse_system": (_read_system, (2, len(_SYSTEM_HEAD) + 1)),
}


# Spellings outside the grammar, with the term each error must point at.
BAD_SPELLINGS = [
    ("a'^2", "a'^2"),
    ("a^+2", "a^+2"),
    ("a ^2", "^2"),
    ("a ' b", "'"),
    ("a^", "a^"),
    ("1 a", "a"),
    (f"b a^{MAX_WORD_LETTERS}", f"a^{MAX_WORD_LETTERS}"),
]


def spellings(w: Word, rng: random.Random) -> list[str]:
    """Ways to write w: format_word's powers, letter by letter with primes,
    letter by letter with ^1/^-1, and runs cut into random powers with
    an occasional ^0 term in between."""
    if not w.letters:
        return ["1", "", "b^0", "a^-0 b^0"]
    primes = " ".join(str(letter) for letter in w.letters)
    powers = " ".join(f"{lt.gen}^{lt.sign}" for lt in w.letters)
    runs: list[list] = []
    for letter in w.letters:
        if runs and runs[-1][0] == letter:
            runs[-1][1] += 1
        else:
            runs.append([letter, 1])
    terms: list[str] = []
    for letter, count in runs:
        while count:
            k = rng.randint(1, count)
            count -= k
            if k == 1 and rng.random() < 0.5:
                terms.append(str(letter))
            else:
                terms.append(f"{letter.gen}^{k * letter.sign}")
            if rng.random() < 0.2:
                terms.append(f"{rng.choice(['a', 'b'])}^0")
    return [format_word(w), primes, powers, "  ".join(terms)]


def run_word_grammar_suite(seed: int = 0, cases: int = 300) -> int:
    """Every spelling of a random word reads as the same letters through
    all four entry points, and every bad spelling is a ParseError located
    at its offending term in each of them."""
    rng = random.Random(seed)
    ran = 0
    for _ in range(cases):
        w = random_walk(_GRAMMAR_P, rng, max_len=rng.choice([0, 3, _GRAMMAR_MAX_LEN]))
        expected = encode(_GRAMMAR_P).word_bytes(w)
        for text in spellings(w, rng):
            for name, (read, _) in WORD_READERS.items():
                if name == "plg" and not text:
                    continue  # a .plg relation side is never blank
                got = read(text)
                assert got == expected, (name, text, got, expected)
        ran += 1
    for text, culprit in BAD_SPELLINGS:
        for name, (read, (line, column)) in WORD_READERS.items():
            try:
                read(text)
            except ParseError as exc:
                span = exc.span
            else:
                raise AssertionError(f"{name} accepted {text!r}")
            assert span is not None, (name, text)
            assert (span.line, span.column) == (line, column + text.index(culprit)), (
                name, text, span,
            )
    return ran
