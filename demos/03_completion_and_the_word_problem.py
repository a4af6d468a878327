"""Deciding word equality by Knuth-Bendix completion.

encode() turns a presentation into string rewriting rules over the
generators and their formal inverses, oriented by shortlex.  A relator
w = 1 goes in split in half, as w[:h] = w[h:]^-1 with h = ceil(|w|/2):
a^5 = 1 becomes a a a -> a' a', which leaves completion less to cut down
and converges to the same rules as a^5 -> 1 would.  complete()
saturates the rules until every critical pair joins — when that ends, each
group element owns exactly one irreducible word, and equality becomes a
string comparison.  When it doesn't end, the engine says so instead of
pretending.
"""

from polygraph import presentations
from polygraph.rewriting import (
    Converged,
    Finite,
    GaveUp,
    complete,
    encode,
    enumerate_normal_forms,
    format_system,
    normalize,
    word_equal,
)

# --- a cyclic group: tiny and instantly convergent --------------------------
z5 = presentations.parse("< a | a^5 = 1 >")
out = complete(encode(z5, None))
assert isinstance(out, Converged)
print("Z5 rewriting system:")
print(format_system(out.system))
print("a^7  ->", normalize(out.system, "a^7"))
print("a^-3 ->", normalize(out.system, "a^-3"))
print("a^5 = 1?", word_equal(out.system, "a^5", "1"))

# The five elements, in shortlex order.
forms = enumerate_normal_forms(out.system, cap=100)
assert isinstance(forms, Finite)
print("elements:", ", ".join(forms.words))

# --- the dihedral group of the pentagon --------------------------------------
d5 = presentations.parse("< r, s | r^5 = 1, s^2 = 1, r s r s = 1 >")
d5_out = complete(encode(d5, None))
assert isinstance(d5_out, Converged)
d5_forms = enumerate_normal_forms(d5_out.system, cap=100)
print("\nD5 has", len(d5_forms.words), "elements;",
      "s r = r' s?", word_equal(d5_out.system, "s r", "r' s"))

# --- honesty on a divergent input --------------------------------------------
# The braid group B3 is infinite and this encoding never converges; the
# engine reports which budget it exhausted rather than looping or guessing.
b3 = presentations.parse("< a, b | a b a = b a b >")
b3_out = complete(encode(b3, None), max_rules=200)
assert isinstance(b3_out, GaveUp)
print(f"\nB3 completion: gave up ({b3_out.reason}) "
      f"holding {len(b3_out.system.rules)} rules")

# --- the positive braid monoid DOES converge ---------------------------------
# Dropping inverse letters (encode(..., inverses=False)) rewrites only
# positive words; for braids this is enough to settle equality of positive
# words, and completion finishes with four rules.
b3c = presentations.parse("< a, b, c | a b a = b a b, c a = b c, a b = c >")
monoid = complete(encode(b3c, ["a", "b", "c"], inverses=False))
assert isinstance(monoid, Converged)
print("\npositive braid monoid rules:")
print(format_system(monoid.system))
print("aba = bab?", word_equal(monoid.system, "a b a", "b a b"))
print("normal form of aba:", normalize(monoid.system, "a b a"))
