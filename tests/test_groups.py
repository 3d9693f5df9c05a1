import random

import pytest

from hightrans import fixtures
from hightrans.groups import (
    FreeAbelianGroup,
    OwnerMismatch,
    cyclic_group,
    symmetric_group,
    trivial_group,
)

import oracles
from conftest import PROBLEMS, random_element, zoo


def fixture_groups():
    """Test-bed groups by label; the label also seeds each fuzz."""
    return {
        "F2": fixtures.free2(),
        "Z": fixtures.integers(),
        "Z6": cyclic_group("Z6", 6, "g"),
        "GaussAff": zoo("gaussian-hnn").groups["H"],
        "BS12": zoo("bs12").build_group()[0],
        "Surface2": zoo("pi1-sigma2").build_group()[0],
        "Z2*Z3": zoo("z2-z3").build_group()[0],
    }


def fixture_group_params():
    return [pytest.param(label, g, id=label) for label, g in fixture_groups().items()]


@pytest.mark.parametrize("label, group", fixture_group_params())
def test_group_axioms_fuzz(label, group):
    rng = random.Random(sum(map(ord, label)))
    ident = group.identity()
    for _ in range(10_000):
        a = random_element(group, rng, 4)
        b = random_element(group, rng, 4)
        c = random_element(group, rng, 4)
        assert (a * b) * c == a * (b * c)
        assert a * ident == a and ident * a == a
        assert a * a.inverse() == ident
        assert a.inverse() * a == ident


def test_compose_inverse_examples(free2):
    a, b = free2.generator("a"), free2.generator("b")
    assert (a * a.inverse()).is_identity
    assert a * b * b.inverse() == a
    assert a * b != b * a


def test_free_abelian_inverse():
    z2 = FreeAbelianGroup("Z2v", ("p", "q"))
    x = z2.element_from_word([("p", 1), ("q", 3)])
    assert x.inverse().payload == (-1, -3)


def test_hnn_inverse_roundtrip(bs12):
    ta = bs12.element_from_word([("t", 1), ("a", 1)])
    assert (ta * ta.inverse()).is_identity
    assert (ta.inverse() * ta).is_identity


def test_ball_radius_zero():
    for g in fixture_groups().values():
        assert g.ball(0) == [g.identity()]


def test_ball_free2_radius_one(free2):
    words = [str(e) for e in free2.ball(1)]
    assert words == ["1", "a", "a^-1", "b", "b^-1"]


def test_ball_integers_shortlex():
    z = fixtures.integers()
    assert [e.payload for e in z.ball(2)] == [(0,), (1,), (-1,), (2,), (-2,)]


@pytest.mark.parametrize("label, group", fixture_group_params())
def test_ball_nesting_and_lengths(label, group):
    small = group.ball(2)
    big = group.ball(3)
    assert big[: len(small)] == small
    for e in big:
        assert e.length() <= 3
    assert len(set(big)) == len(big)


def test_ball_deterministic(surface):
    twice = zoo("pi1-sigma2").build_group()[0]
    assert [str(e) for e in surface.ball(3)] == [str(e) for e in twice.ball(3)]


def test_owner_mismatch():
    a = fixtures.free2().generator("a")
    b = fixtures.free2().generator("a")
    with pytest.raises(OwnerMismatch):
        a * b


def test_finite_table_validation():
    from hightrans.groups import FiniteGroup
    with pytest.raises(ValueError, match="inverse"):
        FiniteGroup("bad", [[0, 1], [1, 1]], ("x",), (1,))
    loop5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
             [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    with pytest.raises(ValueError, match="associative"):
        FiniteGroup("bad5", loop5, ("x",), (1,))
    with pytest.raises(ValueError, match="generate"):
        table = [[(i + j) % 4 for j in range(4)] for i in range(4)]
        FiniteGroup("bad2", table, ("x",), (2,))


def test_semidirect_action_validation():
    u4 = cyclic_group("U4x", 4, "i")
    from hightrans.groups import SemidirectGroup
    ident = ((1, 0), (0, 1))
    rot = ((0, -1), (1, 0))
    with pytest.raises(ValueError, match="action"):
        SemidirectGroup("badsemi", u4, ("u", "v"), [ident, rot, ident, ident])
    with pytest.raises(ValueError, match="invertible"):
        SemidirectGroup("badsemi2", u4, ("u", "v"),
                        [ident, ((2, 0), (0, 1)), ident, ident])


def test_semidirect_conjugation_matches_matrix(gauss_aff):
    i = gauss_aff.generator("i")
    u = gauss_aff.generator("u")
    v = gauss_aff.generator("v")
    # i u i^-1 should be the 90-degree rotation of the first basis vector
    assert i * u * i.inverse() == v
    assert i * v * i.inverse() == u.inverse()


def test_symmetric_group_order():
    s4 = symmetric_group("S4t", 4)
    assert s4.order == 24
    assert len(s4.ball(12)) == 24


def test_trivial_group():
    e = trivial_group()
    assert e.order == 1
    assert e.ball(5) == [e.identity()]


def test_pow_matches_repeated_product(free2, rng):
    for _ in range(50):
        x = random_element(free2, rng, 3)
        n = rng.randrange(-6, 7)
        expected = free2.identity()
        step = x if n >= 0 else x.inverse()
        for _ in range(abs(n)):
            expected = expected * step
        assert x ** n == expected


# -- one word path: element_from_word against the letter-by-letter product --


def _zoo_groups(name):
    """Every group of a problem file, its acting group, and the factors,
    bases and edge groups below them, each once."""
    problem = zoo(name)
    stack = [*problem.groups.values(), problem.build_group()[0]]
    seen = {}
    while stack:
        group = stack.pop()
        if id(group) in seen:
            continue
        seen[id(group)] = group
        if group.kind == "amalgam":
            stack += [group.left, group.right, group.edge_source]
        elif group.kind == "hnn":
            stack += [group.base, group.edge_source]
    return list(seen.values())


@pytest.mark.parametrize("name", sorted(p.stem for p in PROBLEMS.glob("*.json")))
def test_element_from_word_matches_the_letter_product(name):
    """Zero exponents, cancelling powers and random words give the normal
    form of the product taken one letter at a time, in every group of the
    zoo; an unknown label raises whatever its exponent.  Every element of
    the ball of radius 3 is the element of its word, so distinct elements
    have distinct spellings and distinct shortlex keys."""
    rng = random.Random(name)
    for group in _zoo_groups(name):
        words = [[(rng.choice(group.labels), rng.randint(-3, 3))
                  for _ in range(rng.randrange(7))] for _ in range(40)] if group.labels else []
        for a in group.labels:
            words += [[(a, 0)], [(a, 2), (a, -2)], [(a, 1), (a, 0), (a, -1)]]
        for word in words:
            assert group.element_from_word(word) == oracles.word_by_letters(group, word), \
                (group.name, word)
        for bad in ([("nope", 1)], [("nope", 0)], [(lab, 1) for lab in group.labels[:1]]
                    + [("nope", -2)]):
            with pytest.raises(ValueError, match="unknown generator"):
                group.element_from_word(bad)
        ball = group.ball(3)
        for g in ball:
            assert group.element_from_word(g.word()) == g, (group.name, g.word())
        assert len({g.sort_key() for g in ball}) == len(ball), group.name
