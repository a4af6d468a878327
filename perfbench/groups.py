"""Group families with answers known from group theory.

Every family builds a presentation as .plg text together with what is known
about the group it presents: its order (or that it is infinite) and, where
one exists, a faithful representation that evaluates any word to a canonical
element.  The benchmark checks the program's verdicts against these, so no
expected answer ever comes from the engine being measured.

Words are lists of letters ``(generator index, sign)``.  Generator names are
drawn from the job's seed, so two jobs never share presentation text even
when they share a family and a size.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, field

Letter = tuple[int, int]
Word = list[Letter]


# ------------------------------------------------------------ representations


class Rep:
    """A homomorphism from the free group: generator images plus a product."""

    def __init__(self, images, identity, mul, inv):
        self.images = list(images)
        self.identity = identity
        self.mul = mul
        self.inv = inv

    def eval(self, word: Word):
        x = self.identity
        for gen, sign in word:
            image = self.images[gen]
            x = self.mul(x, image if sign > 0 else self.inv(image))
        return x


def _dihedral_rep(n: int) -> Rep:
    # x -> a*x + b over Z_n with a = +-1: r is (1, 1), s is (-1, 0).
    def mul(x, y):
        return (x[0] * y[0], (x[0] * y[1] + x[1]) % n)

    def inv(x):
        return (x[0], (-x[0] * x[1]) % n)

    return Rep([(1, 1), (-1, 0)], (1, 0), mul, inv)


def _abelian_rep(images, moduli) -> Rep:
    def mul(x, y):
        return tuple((a + b) % m if m else a + b for a, b, m in zip(x, y, moduli))

    def inv(x):
        return tuple((-a) % m if m else -a for a, m in zip(x, moduli))

    return Rep(images, tuple(0 for _ in moduli), mul, inv)


def _perm_rep(images) -> Rep:
    def mul(p, q):  # p first, then q
        return tuple(q[i] for i in p)

    def inv(p):
        out = [0] * len(p)
        for i, j in enumerate(p):
            out[j] = i
        return tuple(out)

    return Rep(images, tuple(range(len(images[0]))), mul, inv)


def _cycles(n: int, *cycles) -> tuple[int, ...]:
    p = list(range(n))
    for c in cycles:
        for i, x in enumerate(c):
            p[x] = c[(i + 1) % len(c)]
    return tuple(p)


def _quaternion_rep() -> Rep:
    def mul(x, y):
        a1, b1, c1, d1 = x
        a2, b2, c2, d2 = y
        return (
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )

    def inv(x):  # unit quaternions: the conjugate
        return (x[0], -x[1], -x[2], -x[3])

    return Rep([(0, 1, 0, 0), (0, 0, 1, 0)], (1, 0, 0, 0), mul, inv)


def _free_product_rep(orders) -> Rep:
    # Reduced words of a free product of cyclic groups: alternating syllables
    # (factor, exponent) with exponent nonzero modulo the factor's order.
    def mul(x, y):
        out = list(x)
        for factor, exp in y:
            if out and out[-1][0] == factor:
                merged = (out.pop()[1] + exp) % orders[factor]
                if merged:
                    out.append((factor, merged))
            else:
                out.append((factor, exp))
        return tuple(out)

    def inv(x):
        return tuple((f, (-e) % orders[f]) for f, e in reversed(x))

    return Rep([((f, 1),) for f in range(len(orders))], (), mul, inv)


# ------------------------------------------------------------------ groups


@dataclass
class Group:
    """A presentation with its known answers.

    ``order`` is None for an infinite group.  ``rep`` is faithful whenever it
    is set (see audit); where it is not, ``abelianization`` gives each
    generator's image in Z, which is enough to tell the unequal pairs apart.
    """

    family: str
    param: str
    gens: list[str]
    rels: list[tuple[Word, Word]]
    order: int | None
    rep: Rep | None
    row: str
    abelianization: list[int] = field(default_factory=list)

    def text(self) -> str:
        rels = ", ".join(
            f"{self.side_text(lhs)} = {self.side_text(rhs)}" for lhs, rhs in self.rels
        )
        return f"< {', '.join(self.gens)} | {rels} >\n"

    def side_text(self, word: Word) -> str:
        """Relation side text with runs written as powers (``r^5``, ``r^-5``)."""
        if not word:
            return "1"
        parts, i = [], 0
        while i < len(word):
            j = i
            while j < len(word) and word[j] == word[i]:
                j += 1
            gen, sign = word[i]
            name, run = self.gens[gen], j - i
            if run == 1:
                parts.append(name if sign > 0 else name + "'")
            else:
                parts.append(f"{name}^{run * sign}")
            i = j
        return " ".join(parts)

    def word_text(self, word: Word) -> str:
        """Plain word text, one letter per token, accepted by every parser."""
        if not word:
            return "1"
        return " ".join(self.gens[g] if s > 0 else self.gens[g] + "'" for g, s in word)

    def relators(self) -> list[Word]:
        return [lhs + inverse(rhs) for lhs, rhs in self.rels]

    def element(self, word: Word):
        return self.rep.eval(word)

    def exponent_sums(self, word: Word) -> int:
        return sum(self.abelianization[g] * s for g, s in word)


def inverse(word: Word) -> Word:
    return [(g, -s) for g, s in reversed(word)]


def fresh_names(rng: random.Random, count: int) -> list[str]:
    """Distinct two-letter generator names from the seed."""
    names: list[str] = []
    while len(names) < count:
        name = rng.choice(string.ascii_lowercase) + rng.choice(
            string.ascii_lowercase + string.digits
        )
        if name not in names:
            names.append(name)
    return names


def _pow(gen: int, k: int) -> Word:
    return [(gen, 1 if k > 0 else -1)] * abs(k)


def dihedral_power(n: int, names) -> Group:
    """D_n of order 2n written ``r^n = 1, s^2 = 1, r s r s = 1``."""
    r, s = (0, 1), (1, 1)
    rels = [(_pow(0, n), []), (_pow(1, 2), []), ([r, s, r, s], [])]
    return Group("dihedral-power", str(n), names, rels, 2 * n, _dihedral_rep(n), "dn-power")


def dihedral_balanced(n: int, names) -> Group:
    """D_n written balanced: ``r^ceil(n/2) = r^-floor(n/2), s = s', r s = s' r'``."""
    rels = [
        (_pow(0, (n + 1) // 2), _pow(0, -(n // 2))),
        ([(1, 1)], [(1, -1)]),
        ([(0, 1), (1, 1)], [(1, -1), (0, -1)]),
    ]
    return Group(
        "dihedral-balanced", str(n), names, rels, 2 * n, _dihedral_rep(n), "dn-balanced"
    )


def abelian(m: int, n: int, names) -> Group:
    """Z_m x Z_n written ``a^m = 1, b^n = 1, a b = b a``."""
    rels = [(_pow(0, m), []), (_pow(1, n), []), ([(0, 1), (1, 1)], [(1, 1), (0, 1)])]
    rep = _abelian_rep([(1, 0), (0, 1)], (m, n))
    return Group("abelian", f"{m}x{n}", names, rels, m * n, rep, "small-end-to-end")


def coxeter_symmetric(k: int, names) -> Group:
    """S_k as the Coxeter group of type A_(k-1) on adjacent transpositions."""
    gens = k - 1
    rels: list[tuple[Word, Word]] = [(_pow(i, 2), []) for i in range(gens)]
    for i in range(gens):
        for j in range(i + 1, gens):
            if j == i + 1:  # braid relation: (s_i s_j)^3 = 1 written s_i s_j s_i = s_j s_i s_j
                rels.append(([(i, 1), (j, 1), (i, 1)], [(j, 1), (i, 1), (j, 1)]))
            else:
                rels.append(([(i, 1), (j, 1)], [(j, 1), (i, 1)]))
    images = [_cycles(k, (i, i + 1)) for i in range(gens)]
    order = 1
    for i in range(2, k + 1):
        order *= i
    return Group(f"coxeter-S{k}", str(k), names, rels, order, _perm_rep(images), "small-end-to-end")


def alternating5(names) -> Group:
    """A5 as the (2,3,5) triangle group ``a^2 = 1, b^3 = 1, (a b)^5 = 1``."""
    rels = [(_pow(0, 2), []), (_pow(1, 3), []), ([(0, 1), (1, 1)] * 5, [])]
    images = [_cycles(5, (0, 1), (2, 3)), _cycles(5, (0, 2, 4))]
    return Group("A5", "60", names, rels, 60, _perm_rep(images), "small-end-to-end")


def quaternion(names) -> Group:
    """Q8 written ``i = j i j, j = i j i``."""
    rels = [([(0, 1)], [(1, 1), (0, 1), (1, 1)]), ([(1, 1)], [(0, 1), (1, 1), (0, 1)])]
    return Group("Q8", "8", names, rels, 8, _quaternion_rep(), "small-end-to-end")


def free_abelian2(names) -> Group:
    """Z x Z with named inverses: ``A = a', B = b', a b = b a``.

    The inverse generators sit between a and b in the precedence; with the
    plain two-generator form, shortlex completion diverges.
    """
    rels = [([(1, 1)], [(0, -1)]), ([(3, 1)], [(2, -1)]), ([(0, 1), (2, 1)], [(2, 1), (0, 1)])]
    rep = _abelian_rep([(1, 0), (-1, 0), (0, 1), (0, -1)], (0, 0))
    return Group("ZxZ", "inf", names, rels, None, rep, "infinite-at-cap")


def modular(names) -> Group:
    """Z2 * Z3 written ``a^2 = 1, b^3 = 1``."""
    rels = [(_pow(0, 2), []), (_pow(1, 3), [])]
    return Group("Z2*Z3", "inf", names, rels, None, _free_product_rep((2, 3)), "infinite-at-cap")


def braid3(names) -> Group:
    """The braid group on three strands, ``a b a = b a b``; no faithful rep is kept."""
    rels = [([(0, 1), (1, 1), (0, 1)], [(1, 1), (0, 1), (1, 1)])]
    return Group(
        "b3", "inf", names, rels, None, None, "b3-completion",
        abelianization=[1, 1],
    )


def build(family: str, param, rng: random.Random) -> Group:
    """The group of ``family`` at size ``param`` with seeded generator names,
    its representation audited."""
    if family == "dihedral-power":
        group = dihedral_power(param, fresh_names(rng, 2))
    elif family == "dihedral-balanced":
        group = dihedral_balanced(param, fresh_names(rng, 2))
    elif family == "abelian":
        group = abelian(*param, fresh_names(rng, 2))
    elif family == "coxeter":
        group = coxeter_symmetric(param, fresh_names(rng, param - 1))
    elif family == "A5":
        group = alternating5(fresh_names(rng, 2))
    elif family == "Q8":
        group = quaternion(fresh_names(rng, 2))
    elif family == "ZxZ":
        group = free_abelian2(fresh_names(rng, 4))
    elif family == "Z2*Z3":
        group = modular(fresh_names(rng, 2))
    elif family == "b3":
        group = braid3(fresh_names(rng, 2))
    else:
        raise ValueError(f"unknown family {family!r}")
    audit(group)
    return group


def audit(group: Group) -> None:
    """Check that the representation is faithful, from group theory alone.

    Every relation must hold in the representation, so it factors through
    the group; for a finite group the image must then have exactly the known
    order, which makes the map injective.  (For Z x Z and Z2 * Z3 the
    representations are the standard isomorphisms.)  A failure here is a
    defect of the benchmark, not of the program.
    """
    if group.rep is None:
        return
    for lhs, rhs in group.rels:
        if group.element(lhs) != group.element(rhs):
            raise RuntimeError(f"{group.family} {group.param}: relation fails in its representation")
    if group.order is None:
        return
    rep = group.rep
    seen = {rep.identity}
    frontier = [rep.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for image in rep.images:
                y = rep.mul(x, image)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    if len(seen) != group.order:
        raise RuntimeError(
            f"{group.family} {group.param}: representation has {len(seen)} elements,"
            f" the group has {group.order}"
        )


# ------------------------------------------------------------------ words


def random_word(rng: random.Random, group: Group, length: int, positive: bool = False) -> Word:
    """A freely reduced random word of the given length."""
    word: Word = []
    while len(word) < length:
        letter = (rng.randrange(len(group.gens)), 1 if positive else rng.choice((1, -1)))
        if word and word[-1] == (letter[0], -letter[1]):
            continue
        word.append(letter)
    return word


def equal_by_insertion(rng: random.Random, group: Group, u: Word, grow: int) -> Word:
    """Insert conjugated relators and cancelling pairs into u: same element.

    Inserts alternate between the two kinds, at least one of each, until the
    word has grown by ``grow`` letters; a length target rather than a count
    keeps the work of a query steady when relators differ in length.
    """
    v = list(u)
    relators = group.relators()
    k = 0
    while k < 2 or len(v) - len(u) < grow:
        if k % 2 == 0:
            w = random_word(rng, group, rng.randrange(0, 3))
            relator = rng.choice(relators)
            if rng.random() < 0.5:
                relator = inverse(relator)
            piece = w + relator + inverse(w)
        else:
            letter = (rng.randrange(len(group.gens)), rng.choice((1, -1)))
            piece = [letter, (letter[0], -letter[1])]
        pos = rng.randrange(len(v) + 1)
        v[pos:pos] = piece
        k += 1
    return v


def equal_by_replacement(rng: random.Random, group: Group, length: int, moves: int):
    """A positive word and a copy with ``moves`` relation sides swapped in place.

    Every swap is one relation application, so the two words are equal and
    a search of radius ``moves`` connects them.
    """
    while True:
        u = random_word(rng, group, length, positive=True)
        v = list(u)
        done = 0
        for _ in range(moves):
            spots = []
            for lhs, rhs in group.rels:
                for side, other in ((lhs, rhs), (rhs, lhs)):
                    for i in range(len(v) - len(side) + 1):
                        if v[i : i + len(side)] == side:
                            spots.append((i, side, other))
            if not spots:
                break
            i, side, other = rng.choice(spots)
            v[i : i + len(side)] = other
            done += 1
        if done == moves and v != u:
            return u, v


def equation(rng: random.Random, group: Group, length: int, grow: int, equal: bool):
    """A word pair that is equal or unequal by construction.

    u has ``length`` letters; an equal v grows from it by about ``grow``
    letters (for b3, which has no representation here, by two relation swaps
    instead).  An unequal pair appends one generator, which is a nontrivial
    element in every family here.  Where a faithful representation exists the
    pair is re-checked through it; for b3 the abelianization tells the pair
    apart.
    """
    if group.rep is None:
        u, v = equal_by_replacement(rng, group, length, 2)
    else:
        u = random_word(rng, group, length)
        v = equal_by_insertion(rng, group, u, grow)
    if not equal:
        v = v + [(rng.randrange(len(group.gens)), 1)]
    if group.rep is not None:
        wrong = (group.element(u) == group.element(v)) != equal
    else:  # equal by construction; unequal only when the abelianization says so
        wrong = (group.exponent_sums(u) != group.exponent_sums(v)) == equal
    if wrong:
        raise RuntimeError(f"{group.family} {group.param}: equation construction is wrong")
    return u, v
