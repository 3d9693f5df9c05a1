#!/usr/bin/env python3
"""Normal forms for HNN extensions and amalgams, checked against
independent matrix pictures.

Run:  python3 demos/01_normal_forms.py
"""

from pathlib import Path

from hightrans.normal_forms import parse_word, syllable_length
from hightrans.problem import parse_problem

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

# ---------------------------------------------------------------------------
# Britton reduction in BS(1,2) = <a, t | t a t^-1 = a^2>

bs = parse_problem(PROBLEMS / "bs12.json").build_group()[0]
print("== BS(1,2) ==")
for text in ["t t^-1", "t a t^-1", "t^-1 a t", "t^-1 a^2 t", "t a^3 t^-1 a"]:
    w = parse_word(bs, text)
    print(f"  {text:16s} ->  {w}   (syllables: {syllable_length(w)})")

# The conjugation relation seen as arithmetic: t^k a t^-k = a^(2^k).
for k in range(1, 5):
    lhs = parse_word(bs, f"t^{k} a t^-{k}")
    rhs = parse_word(bs, f"a^{2 ** k}")
    assert lhs == rhs
print("  t^k a t^-k = a^(2^k) for k = 1..4")

# ---------------------------------------------------------------------------
# The genus-2 surface group as an amalgam of two free groups over the
# cyclic subgroup generated by the commutators.

surface = parse_problem(PROBLEMS / "pi1-sigma2.json").build_group()[0]
print("\n== genus-2 surface group ==")
relation = parse_word(surface, "a1 b1 a1^-1 b1^-1 b2 a2 b2^-1 a2^-1")
print(f"  [a1,b1][a2,b2]^-1 -> {relation}  (identity: {relation.is_identity})")
w = parse_word(surface, "a1 a2 b1^-1")
print(f"  a1 a2 b1^-1 has {syllable_length(w)} syllables: {w}")

# Words that wander through the edge subgroup get absorbed on the left.
w = parse_word(surface, "a1 b1 a1^-1 b1^-1 a2")
print(f"  [a1,b1] a2 -> {w}  ({syllable_length(w)} syllables)")

# ---------------------------------------------------------------------------
# Z2 * Z3: torsion factors, free product behaviour.

m = parse_problem(PROBLEMS / "z2-z3.json").build_group()[0]
print("\n== Z2 * Z3 ==")
xy3 = parse_word(m, "x y x y x y")
print(f"  (xy)^3 -> {xy3}  ({syllable_length(xy3)} syllables, nontrivial)")
print(f"  x^2 -> {parse_word(m, 'x^2')},  y^3 -> {parse_word(m, 'y^3')}")
