"""Words over a presentation, and rewrites as first-class proof trees.

A presentation is a labeled 2-polygraph: a set of 0-cells (objects), named
generators between them, and named relations between parallel words.  Words
are zig-zags — each letter carries a sign, so ``a b' a`` means a . b⁻¹ . a —
and rewrites between words are explicit trees that can be checked, inverted,
and composed.
"""

from polygraph import presentations
from polygraph.model import (
    CancelLeft,
    Gen,
    Horiz,
    Id,
    Inv,
    Vert,
    boundary,
    chain,
    step,
    validate,
)
from polygraph.words import format_word

# The 3-strand braid group on two generators.
b3 = presentations.parse("< a, b | a b a = b a b >")
print("presentation:", presentations.render(b3))
print("well-formed:", validate(b3) == [])

# Words are whitespace-separated terms: a generator, a generator with ' for
# its inverse, or a generator with an integer power (a^3, a^-2, a^0).  The
# word 1 is the identity.  Every reader in the package shares this grammar.
w = b3.word("a b b' a^2")
print("\nword:", format_word(w), "  reduces to:", format_word(w.reduce()))
print("inverse:", format_word(w.invert()))

# The relation itself is a one-step proof between its two sides.
move = Gen("r1", 1)
lhs, rhs = boundary(b3, move)
print("\nrelation r1 proves:", format_word(lhs), "=", format_word(rhs))

# Proofs compose.  Horizontally: place proofs side by side.  Vertically:
# run one after another when the middle words match on the nose.
padded = step(b3, b3.word("b"), move, b3.word("1"))  # b·(aba ⇒ bab)
print("whiskered:", " = ".join(format_word(side) for side in boundary(b3, padded)))

flipped = Inv(move)  # every proof runs backwards
roundtrip = Vert(move, flipped)  # aba ⇒ bab ⇒ aba
print("round trip:", " = ".join(format_word(s) for s in boundary(b3, roundtrip)))

# Free cancellation is also a proof, not a silent convention: lam/rho are
# the unit moves a'a ⇒ 1 and aa' ⇒ 1.
cancel = CancelLeft("a")
print("cancellation:", " = ".join(format_word(s) for s in boundary(b3, cancel)))

# chain() folds a list of moves into one vertical composite.
two_steps = chain([move, Inv(move)])
print("chained:", " = ".join(format_word(s) for s in boundary(b3, two_steps)))

# Identities are the do-nothing proofs used for padding.
idle = Horiz(Id(b3.word("a")), Id(b3.word("b")))
print("idle:", " = ".join(format_word(s) for s in boundary(b3, idle)))
