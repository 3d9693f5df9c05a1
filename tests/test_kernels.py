"""The free-group, cyclic-coset and conjugacy-ball kernels against their
slow paths.

* ``FreeGroup.multiply`` splices two reduced words at the junction; it is
  checked against ``element_from_word`` of the concatenated words, and
  that free reduction, through ``word()``, against a letter-by-letter
  cancellation.  A free payload is a string of alphabet ranks, so its
  ``len`` and code-point order give the shortlex key and a long word
  costs one byte per letter; both are checked here.
* ``CyclicFreeStrategy.decompose`` picks the coset representative by
  (len, payload) and spells nothing; it is checked against
  ``oracles.cyclic_decompose_by_sort_key``, which spells every mate,
  return value and cache entries alike.
* ``AmalgamGroup.include`` is one fold step on the normal form; it is
  checked against the fold and against the two-phase token oracle.  Its
  owner check is ``test_groups.py::test_include_refuses_an_element_outside_the_factor``.
* ``Group.conjugates`` is one conjugacy ball per (element, radius), cached
  on the target; it is checked against the ordered conjugates over the
  balls of radius r and r - 1, and every embedding into one target reads
  the same ball.
* ``CyclicFreeStrategy.contains`` rejects g by its first letter, then
  reads the letter length off the payload; it is checked against
  ``oracles.cyclic_contains_by_spelling``, which does neither.
"""

import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hightrans.embeddings import CyclicFreeStrategy, Embedding
from hightrans import hcf
from hightrans.groups import Element, FreeGroup, OwnerMismatch
from hightrans.normal_forms import MAX_EXPONENT, parse_word, reduce_amalgam_tokens

import oracles
from conftest import PROBLEMS, zoo

F3 = FreeGroup("F3", ("a", "b", "c"))

raw_words = st.lists(st.tuples(st.sampled_from(F3.labels), st.integers(-3, 3)), max_size=8)


def _by_letters(word):
    """Free reduction one letter at a time, +-(i + 1) for generator i, as
    (label, exponent) syllables."""
    stack = []
    for lab, exp in word:
        letter = F3.labels.index(lab) + 1
        for _ in range(abs(exp)):
            step = letter if exp > 0 else -letter
            if stack and stack[-1] == -step:
                stack.pop()
            else:
                stack.append(step)
    out = []
    for step in stack:
        gen, sign = abs(step) - 1, 1 if step > 0 else -1
        if out and out[-1][0] == F3.labels[gen]:
            out[-1] = (F3.labels[gen], out[-1][1] + sign)
        else:
            out.append((F3.labels[gen], sign))
    return out


@settings(max_examples=300, deadline=None)
@given(raw_words)
def test_free_reduction_matches_letter_cancellation(word):
    assert F3.element_from_word(word).word() == _by_letters(word)


@settings(max_examples=400, deadline=None)
@given(raw_words, st.integers(0, 8), st.integers(-2, 2), raw_words)
def test_junction_splice_matches_reduction_of_the_concatenation(left, cancel, nudge, tail):
    """q starts with the inverse of p's last ``cancel`` syllables, the
    innermost one nudged, so the junction cancels fully, merges or stops."""
    p = F3.element_from_word(left)
    back = [(lab, -exp) for lab, exp in reversed(p.word()[len(p.word()) - cancel:])]
    if back and nudge:
        back[-1] = (back[-1][0], back[-1][1] + nudge)
    q = F3.element_from_word(back + tail)
    assert (p * q).payload == F3.element_from_word(p.word() + q.word()).payload


@pytest.mark.parametrize("p, q, want", [
    ("a b^2", "b^-2 a^-1", ""),              # full cancellation
    ("a b^2", "b^-2 a^-1 c", "c"),           # full cancellation of p only
    ("a b^2", "b^-1 c", "a b c"),            # partial merge
    ("a b^2", "b^-1", "a b"),                # partial merge, q used up
    ("a b c^-1", "c a", "a b a"),            # cancel one syllable, stop at b, a
    ("a b", "a^-1", "a b a^-1"),             # nothing cancels
    ("", "a b", "a b"),                      # empty sides
    ("a b", "", "a b"),
    ("", "", ""),
])
def test_junction_splice_cases(p, q, want):
    p, q, want = (parse_word(F3, text).payload for text in (p, q, want))
    assert F3.multiply(p, q) == want


def test_a_zero_exponent_is_dropped_but_its_label_still_checked():
    assert F3.element_from_word([("a", 1), ("b", 0), ("a", -1)]).is_identity
    with pytest.raises(ValueError, match="unknown generator"):
        F3.element_from_word([("z", 0)])


def test_a_long_free_word_costs_one_byte_per_letter():
    """A word of ``MAX_EXPONENT`` letters over 128 generators, whose ranks
    run to 255, is a one-byte-per-code-point string plus a fixed header,
    and spelling it allocates nothing: the payload is its spelling."""
    group = FreeGroup("F128", tuple(f"g{i}" for i in range(128)))
    word = [(group.labels[i % 128], (-1) ** i) for i in range(MAX_EXPONENT)]
    x = group.element_from_word(word)
    p = x.payload
    assert len(p) == MAX_EXPONENT and max(map(ord, p)) == 255
    assert sys.getsizeof(p) <= len(p) + sys.getsizeof(chr(255))
    tracemalloc.start()
    try:
        spelling = x.spelling()
        assert tracemalloc.get_traced_memory()[0] == 0
    finally:
        tracemalloc.stop()
    assert spelling is p


def test_payload_order_is_the_shortlex_order():
    """Code points are alphabet ranks, so (len, payload) sorts as the
    spelled shortlex key does."""
    ball = F3.ball(4)
    assert sorted(reversed(ball), key=lambda x: (len(x.payload), x.payload)) == ball
    assert sorted(reversed(ball), key=Element.sort_key) == ball


# -- cyclic coset representative ---------------------------------------------


def _cyclic_cases():
    """(id, problem name, embedding name) for every embedding of the
    problem files with a CyclicFreeStrategy."""
    return [(f"{path.stem}:{name}", path.stem, name)
            for path in sorted(PROBLEMS.glob("*.json"))
            for name, emb in sorted(zoo(path.stem).embeddings.items())
            if isinstance(emb.strategy, CyclicFreeStrategy)]


CYCLIC = _cyclic_cases()

# Subgroups <c> of F(a, b) whose tied mates differ first in the exponent
# of one generator, as a and a^-1 for c = a^2, so a tie broken by
# (generator, exponent) syllable order picks a^-1 where shortlex picks a;
# on the problem files the tied mates differ first in their generators,
# where both orders agree.  Then two shapes for the first-letter rejection
# in membership: in a^2 b a^-1 = u (a b) u^-1 the first syllable of c
# merges u with the core, and in a b a the core starts and ends on one
# generator, so c and c^-1 begin with a and a^-1.
BUILT = ("a^2", "b a^2 b^-1", "a b^-1", "a^2 b a^-1", "a b a")


def _cyclic_embedding(problem, name):
    if problem is None:
        target = FreeGroup("F", ("a", "b"))
        return Embedding(name, FreeGroup("C", ("c",)), target, [parse_word(target, name)])
    return zoo(problem).embeddings[name]


def test_cyclic_cases_cover_the_problems():
    assert {problem for _, problem, _ in CYCLIC} >= {"pi1-sigma2", "theta", "free2-hnn"}
    assert all(isinstance(_cyclic_embedding(None, c).strategy, CyclicFreeStrategy) for c in BUILT)


@pytest.mark.parametrize("problem, name", [c[1:] for c in CYCLIC] + [(None, c) for c in BUILT],
                         ids=[c[0] for c in CYCLIC] + [f"F:<{c}>" for c in BUILT])
def test_cyclic_representative_matches_the_sort_key_oracle(problem, name):
    emb = _cyclic_embedding(problem, name)
    for g in emb.target.ball(4):
        emb._decompose_cache.clear()
        got = emb.strategy.decompose(g)
        got_cache = dict(emb._decompose_cache)
        want_cache = {}
        want = oracles.cyclic_decompose_by_sort_key(emb.strategy, g, want_cache)
        assert got == want, g
        assert got_cache == want_cache, g


def test_pi1_sigma2_ball_has_the_documented_ties():
    """54 of the 485 elements of F(a1, b1)'s ball of radius 5 leave two
    mates tied at the least letter length."""
    emb = _cyclic_embedding("pi1-sigma2", "cL")
    ball = emb.target.ball(5)
    tied = 0
    for g in ball:
        mates = oracles.cyclic_mates_by_spelling(emb.strategy, g)
        least, second = sorted(m.length() for m, _ in mates)[:2]
        tied += least == second
    assert (tied, len(ball)) == (54, 485)


# -- include as one fold step ------------------------------------------------


@pytest.mark.parametrize("problem", ["pi1-sigma2", "z-star-z"])
def test_include_matches_the_fold_and_the_two_phase_oracle(problem):
    gamma = zoo(problem).build_group()[0]
    # a normal form with a nontrivial lead is longer than 3 letters
    leads = [gamma.sigma_embedding().apply(s) * y
             for s in gamma.edge_source.ball(2) for y in gamma.ball(1)]
    seen = set()
    for onto in gamma.ball(3) + leads:
        lead, syls = onto.payload
        for side in (0, 1):
            for x in gamma.factor(side).ball(2):
                got = gamma.include(side, x, onto)
                assert got.payload == reduce_amalgam_tokens(gamma, [(side, x)], onto.payload)
                assert got.payload == oracles.reduce_amalgam_tokens(
                    gamma, [(side, x)] + gamma.tokens(onto.payload))
                seen.add("identity x" if x.is_identity else
                         "identity onto" if onto.is_identity else
                         "identity lead" if lead.is_identity else "lead")
                if syls and syls[0][0] == side and not x.is_identity:
                    seen.add("same-side head")
    # z-star-z amalgamates over the trivial group, so every lead is trivial
    assert seen - {"lead"} == {"identity x", "identity onto", "identity lead", "same-side head"}
    assert ("lead" in seen) == (problem == "pi1-sigma2")
    x = gamma.factor(0).generators()[0]
    assert gamma.include(0, x) == Element(gamma, reduce_amalgam_tokens(gamma, [(0, x)]))


# -- conjugacy balls -----------------------------------------------------------


def _targets():
    """(id, problem name, embedding names) for every target group of the
    problem files, with the embeddings into it."""
    out = []
    for path in sorted(PROBLEMS.glob("*.json")):
        into = {}
        for name, emb in sorted(zoo(path.stem).embeddings.items()):
            into.setdefault(emb.target.name, []).append(name)
        out.extend((f"{path.stem}:{t}", path.stem, names) for t, names in sorted(into.items()))
    return out


TARGETS = _targets()


@pytest.mark.parametrize("problem, names", [t[1:] for t in TARGETS], ids=[t[0] for t in TARGETS])
def test_conjugates_match_the_ordered_conjugates_over_the_balls(problem, names):
    """Radii rise on one handle, so a cache that forgets the radius fails."""
    tgt = zoo(problem).embeddings[names[0]].target
    for x in tgt.ball(2):
        for r in range(1, 5):
            got = tgt.conjugates(x, r)
            want = {}
            for h in tgt.ball(r):
                want.setdefault(h * x * h.inverse(), h.length())
            assert list(got.items()) == list(want.items()), (x, r)
            assert [c for c, d in got.items() if d < r] == list(
                dict.fromkeys(h * x * h.inverse() for h in tgt.ball(r - 1)))


def test_conjugate_balls_are_shared_by_the_embeddings_into_one_target():
    problem = zoo("theta")
    e1s, e2s = problem.embeddings["e1s"], problem.embeddings["e2s"]
    tgt = e1s.target
    assert e2s.target is tgt
    bounds = hcf.AuditBounds()
    hcf.certify_structural(e1s, bounds)
    rows, balls = dict(tgt._conjugators), dict(tgt._conjugates)
    assert rows and balls
    hcf.certify_structural(e2s, bounds)
    assert tgt._conjugators == rows
    assert tgt._conjugates == balls


def test_conjugates_refuse_an_element_of_another_group():
    problem = zoo("theta")
    t1, t2 = problem.embeddings["e1s"].target, problem.embeddings["e1r"].target
    assert t1 is not t2
    with pytest.raises(OwnerMismatch):
        t1.conjugates(t2.generators()[0], 2)
    with pytest.raises(OwnerMismatch):
        t1.conjugates(t2.identity(), 1)


# -- cyclic membership -------------------------------------------------------


@pytest.mark.parametrize("problem, name", [c[1:] for c in CYCLIC] + [(None, c) for c in BUILT],
                         ids=[c[0] for c in CYCLIC] + [f"F:<{c}>" for c in BUILT])
def test_cyclic_membership_matches_the_spelling_oracle(problem, name):
    emb = _cyclic_embedding(problem, name)
    members = 0
    for g in emb.target.ball(6):
        want = oracles.cyclic_contains_by_spelling(emb.strategy, g)
        assert emb.strategy.contains(g) == want, g
        members += want
    assert members >= 3     # 1, c and c^-1 at least
