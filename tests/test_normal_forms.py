import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hightrans.normal_forms import (
    parse_word,
    reduce_amalgam_tokens,
    reduce_hnn_tokens,
    syllable_length,
)

import oracles
from conftest import zoo
from oracles import affine_bs12, all_words, psl2z_key, stable_letter_count


def nf_key(group, word):
    return group.element_from_word(list(word))


def test_britton_pinch_examples(bs12):
    assert bs12.element_from_word([("t", 1), ("t", -1)]).is_identity
    squared = bs12.element_from_word([("t", 1), ("a", 1), ("t", -1)])
    assert squared == bs12.element_from_word([("a", 2)])
    stuck = bs12.element_from_word([("t", -1), ("a", 1), ("t", 1)])
    assert stable_letter_count(stuck) == 2


def test_britton_parity_oracle(bs12, rng):
    # t^-1 a^k t pinches exactly when k is even
    for k in range(-6, 7):
        w = bs12.element_from_word([("t", -1), ("a", k), ("t", 1)])
        if k % 2 == 0:
            assert stable_letter_count(w) == 0
        else:
            assert stable_letter_count(w) == 2


def test_surface_relation(surface):
    rel = surface.element_from_word(
        [("a1", 1), ("b1", 1), ("a1", -1), ("b1", -1),
         ("b2", 1), ("a2", 1), ("b2", -1), ("a2", -1)])
    assert rel.is_identity


def test_amalgam_single_factor_word(surface):
    w = surface.element_from_word([("a1", 2), ("b1", -1)])
    assert syllable_length(w) == 1


def test_modular_torsion_word(modular):
    w = modular.element_from_word([("x", 1), ("y", 1)] * 3)
    assert not w.is_identity
    assert syllable_length(w) == 6
    assert modular.element_from_word([("x", 2)]).is_identity
    assert modular.element_from_word([("y", 3)]).is_identity


def test_syllable_length_examples(bs12, surface):
    assert syllable_length(bs12.identity()) == 0
    assert syllable_length(bs12.element_from_word([("t", 1), ("a", 1), ("t", -1)])) == 1
    assert syllable_length(surface.element_from_word([("a1", 1), ("a2", 1)])) == 2
    assert syllable_length(surface.identity()) == 0


def test_syllable_length_zero_only_identity(bs12, surface, rng):
    from conftest import random_element
    for group in (bs12, surface):
        for _ in range(300):
            g = random_element(group, rng, 5)
            assert (syllable_length(g) == 0) == g.is_identity


def test_word_problem_bs12_matrix_oracle(bs12):
    words = all_words(("a", "t"), 5)
    nf_to_oracle = {}
    oracle_to_nf = {}
    for w in words:
        nf = nf_key(bs12, w)
        key = affine_bs12(w)
        assert nf_to_oracle.setdefault(nf, key) == key
        assert oracle_to_nf.setdefault(key, nf) == nf


def test_word_problem_modular_matrix_oracle(modular):
    words = all_words(("x", "y"), 5)
    nf_to_oracle = {}
    oracle_to_nf = {}
    for w in words:
        nf = nf_key(modular, w)
        key = psl2z_key(w)
        assert nf_to_oracle.setdefault(nf, key) == key
        assert oracle_to_nf.setdefault(key, nf) == nf


@pytest.mark.parametrize("name", ["bs12", "pi1-sigma2", "z2-z3", "gaussian-hnn"],
                         ids=["bs12", "surface", "modular", "gauss"])
def test_reduction_idempotent_fuzz(name):
    group = zoo(name).build_group()[0]
    rng = random.Random(1234)
    labels = group.labels
    for _ in range(10_000):
        word = [(rng.choice(labels), rng.choice((-1, 1))) for _ in range(rng.randrange(7))]
        elt = group.element_from_word(word)
        again = group.element_from_word(elt.word())
        assert again == elt


def test_pinch_free_words_stay_irreducible(bs12, rng):
    # Britton: a stable-letter word with no pinch subword never reduces
    # to a base element.  In BS(1,2) a subword t^e a^m t^-e pinches iff
    # e = +1 (the whole base is the subgroup) or e = -1 and m is even.
    for _ in range(500):
        count = rng.randrange(1, 5)
        eps = [rng.choice((-1, 1)) for _ in range(count)]
        mids = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(count - 1)]
        word = []
        for i in range(count):
            word.append(("t", eps[i]))
            if i < count - 1:
                word.append(("a", mids[i]))
        has_pinch = any(
            eps[i] == -eps[i + 1] and (eps[i] == 1 or mids[i] % 2 == 0)
            for i in range(count - 1))
        w = bs12.element_from_word(word)
        if not has_pinch:
            assert stable_letter_count(w) == count


word_strategy = st.lists(
    st.tuples(st.sampled_from(["a1", "b1", "a2", "b2"]), st.sampled_from([-1, 1])),
    max_size=8)


@settings(max_examples=200, deadline=None)
@given(word_strategy)
def test_surface_reduce_is_idempotent_hypothesis(word):
    surface = zoo("pi1-sigma2").build_group()[0]
    elt = surface.element_from_word(word)
    assert surface.element_from_word(elt.word()) == elt


@settings(max_examples=200, deadline=None)
@given(word_strategy, word_strategy)
def test_surface_concat_matches_product_hypothesis(w1, w2):
    surface = zoo("pi1-sigma2").build_group()[0]
    lhs = surface.element_from_word(w1 + w2)
    rhs = surface.element_from_word(w1) * surface.element_from_word(w2)
    assert lhs == rhs


def test_parse_word_round_trip(surface, bs12):
    for group, text in ((surface, "a1 b2^-2 a1^3"), (bs12, "t a t^-1 a^-2"),
                        (surface, "1")):
        elt = parse_word(group, text)
        assert parse_word(group, str(elt)) == elt


def test_gaussian_hnn_conjugation():
    g = zoo("gaussian-hnn").build_group()[0]
    lhs = parse_word(g, "e0 i e0^-1")
    rhs = parse_word(g, "u i u^-1")
    assert lhs == rhs
    assert stable_letter_count(parse_word(g, "e0 u e0^-1")) == 2


# -- the one-syllable fold against the two-phase reducers -----------------

FOLD_GROUPS = {
    "surface": "pi1-sigma2",
    "bs12": "bs12",
    "gaussian-hnn": "gaussian-hnn",
    "z2-z3": "z2-z3",
    "theta": "theta",
}


@functools.lru_cache(maxsize=None)
def fold_case(name):
    """The group, the fold, its oracle, good tokens and malformed tokens.

    Good tokens are short factor (base) elements and edge-subgroup
    elements, which merge, absorb or pinch; malformed ones live in the
    wrong group or carry a bad stable exponent."""
    group = zoo(FOLD_GROUPS[name]).build_group()[0]
    edge_ball = group.edge_source.ball(2)
    if group.kind == "amalgam":
        good = [(side, x) for side in (0, 1)
                for x in group.factor(side).ball(2)
                + [group.edge(side).apply(s) for s in edge_ball]]
        bad = [(0, group.right.generators()[0]), (1, group.left.generators()[0]),
               (0, group.identity())]
        return group, reduce_amalgam_tokens, oracles.reduce_amalgam_tokens, good, bad
    good = [("b", x) for x in group.base.ball(2)
            + [group.sigma_edge(eps).apply(s) for eps in (1, -1) for s in edge_ball]]
    good += [("t", 1), ("t", -1)] * max(1, len(good) // 4)
    bad = [("t", 2), ("t", 0), ("b", group.identity())]
    return group, reduce_hnn_tokens, oracles.reduce_hnn_tokens, good, bad


def _outcome(reduce, group, tokens, *payload):
    try:
        return ("ok", reduce(group, tokens, *payload))
    except Exception as exc:  # the exception type is the outcome compared
        return ("raised", type(exc))


@pytest.mark.parametrize("name", sorted(FOLD_GROUPS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fold_matches_two_phase_oracle(name, data):
    group, fold, oracle, good, bad = fold_case(name)
    tokens = data.draw(st.lists(st.sampled_from(good), max_size=10))
    if data.draw(st.integers(0, 7)) == 0:
        tokens.insert(data.draw(st.integers(0, len(tokens))), data.draw(st.sampled_from(bad)))
    assert _outcome(fold, group, tokens) == _outcome(oracle, group, tokens)


@pytest.mark.parametrize("name", sorted(FOLD_GROUPS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_product_folds_only_the_left_factor(name, data):
    group, fold, oracle, good, _ = fold_case(name)
    p, q = (oracle(group, data.draw(st.lists(st.sampled_from(good), max_size=8)))
            for _ in range(2))
    want = oracle(group, group.tokens(p) + group.tokens(q))
    assert group.multiply(p, q) == want
    assert fold(group, group.tokens(p), q) == want
