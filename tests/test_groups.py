import gc
import random
import tracemalloc
import weakref
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hightrans.groups import (
    FreeAbelianGroup,
    FreeGroup,
    OwnerMismatch,
    SemidirectGroup,
    _det,
    cyclic_group,
    symmetric_group,
    trivial_group,
)

import oracles
from conftest import PROBLEMS, random_element, zoo


def fixture_groups():
    """Test-bed groups by label; the label also seeds each fuzz."""
    return {
        "F2": oracles.free2(),
        "Z": oracles.integers(),
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
    z = oracles.integers()
    assert [e.payload for e in z.ball(2)] == [(0,), (1,), (-1,), (2,), (-2,)]


def test_ball_of_integers_takes_memory_linear_in_the_radius():
    # the ball of radius r in Z has 2r + 1 elements; a spelling cached on
    # each while its layer is sorted would hold about r^2 ranks in all
    def peak(radius):
        tracemalloc.start()
        try:
            oracles.integers().ball(radius)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4000) <= 6 * peak(1000)


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
    a = oracles.free2().generator("a")
    b = oracles.free2().generator("a")
    with pytest.raises(OwnerMismatch):
        a * b


def test_include_refuses_an_element_outside_the_factor(surface, bs12):
    """The amalgam fold and the HNN base product check the owner, so an
    include of a foreign element raises even when it is the identity."""
    with pytest.raises(OwnerMismatch):
        surface.include(0, surface.right.generator(surface.right.labels[0]))
    with pytest.raises(OwnerMismatch):
        surface.include(1, surface.left.identity(), surface.identity())
    with pytest.raises(OwnerMismatch):
        bs12.include(bs12.stable())
    with pytest.raises(OwnerMismatch):
        bs12.include(oracles.free2().identity(), bs12.identity())


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


# -- the semidirect kernel against the product by matrices --


@pytest.fixture(scope="module")
def semidirect_groups():
    """gaussian-hnn's H, where U4 twists by the identity and by rotations,
    and S3 permuting the coordinates of Z^3: Q is non-abelian, rank 3."""
    s3 = symmetric_group("S3p", 3)
    perm_matrices = [tuple(tuple(int(i == p[j]) for j in range(3)) for i in range(3))
                     for p in oracles.lexicographic_permutations(3)]
    return {"GaussAff": zoo("gaussian-hnn").groups["H"],
            "S3xZ3": SemidirectGroup("S3xZ3", s3, ("x", "y", "z"), perm_matrices)}


SEMIDIRECT_LABELS = ["GaussAff", "S3xZ3"]


@pytest.mark.parametrize("label", SEMIDIRECT_LABELS)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_semidirect_kernel_matches_the_product_by_matrices(semidirect_groups, label, data):
    group = semidirect_groups[label]
    payloads = st.tuples(st.integers(0, group.q_group.order - 1),
                         st.tuples(*[st.integers(-50, 50)] * group.rank))
    p, q = data.draw(payloads), data.draw(payloads)
    assert group.multiply(p, q) == oracles.semidirect_multiply_by_matrices(group, p, q)
    inv = group.inverse_payload(p)
    assert oracles.semidirect_multiply_by_matrices(group, p, inv) == group.identity_payload
    assert oracles.semidirect_multiply_by_matrices(group, inv, p) == group.identity_payload


@pytest.mark.parametrize("label", SEMIDIRECT_LABELS)
def test_semidirect_axioms_over_the_ball(semidirect_groups, label):
    group = semidirect_groups[label]
    ident = group.identity()
    ball = group.ball(3)
    letters = group.ball(1)
    for a in ball:
        assert a * a.inverse() == ident and a.inverse() * a == ident
        for b in ball:
            ab = a * b
            for c in letters:
                assert ab * c == a * (b * c)


def test_semidirect_accepts_exactly_the_actions_of_q():
    """The constructor multiplies each generator of Q against every
    element, not every pair.  Over every assignment of signed permutation
    matrices it accepts exactly the actions: the two of S3 on Z and the
    eight of Z/4 on Z^2."""
    signed = {1: [((1,),), ((-1,),)],
              2: [m for a, b in product((1, -1), repeat=2)
                  for m in (((a, 0), (0, b)), ((0, a), (b, 0)))]}
    for q_group, rank, actions in ((symmetric_group("S3a", 3), 1, 2),
                                   (cyclic_group("C4a", 4, "g"), 2, 8)):
        ident = signed[rank][0]
        accepted = 0
        for rest in product(signed[rank], repeat=q_group.order - 1):
            mats = list(rest)
            mats.insert(q_group.identity_payload, ident)
            try:
                SemidirectGroup("H", q_group, ("x", "y")[:rank], mats)
            except ValueError:
                assert not oracles.is_action_by_all_pairs(q_group, mats)
            else:
                assert oracles.is_action_by_all_pairs(q_group, mats)
                accepted += 1
        assert accepted == actions


def _singular(rows):
    """``rows`` with its last row replaced by a combination of the others."""
    *head, _ = rows
    return head + [[sum(r[j] for r in head) for j in range(len(rows))]]


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_det_matches_cofactor_expansion(data):
    n = data.draw(st.integers(1, 6))
    rows = data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                              min_size=n, max_size=n))
    if n > 1 and data.draw(st.booleans()):
        rows = _singular(rows)
    assert _det(rows) == oracles.det_by_cofactors(rows)


def test_symmetric_group_order():
    s4 = symmetric_group("S4t", 4)
    assert s4.order == 24
    assert len(s4.ball(12)) == 24


def test_trivial_group():
    e = trivial_group()
    assert e.order == 1
    assert e.ball(5) == [e.identity()]


def test_an_unwalked_handle_is_freed_without_the_collector():
    """Only a walk ties a handle into a reference cycle: one never walked
    goes when its last reference does, with the cyclic collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        group = FreeGroup("F", ("a", "b"))
        handle = weakref.ref(group)
        del group
        assert handle() is None
    finally:
        if enabled:
            gc.enable()


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


# -- one shortlex order: each kind's layer generator against the BFS --


LAYER_CAP = 1000   # elements compared per group, layer by whole layer


@pytest.mark.parametrize("name", sorted(p.stem for p in PROBLEMS.glob("*.json")))
def test_each_kind_walks_the_layers_of_the_bfs(name):
    """Every group of the zoo, its acting group and the handles below it
    yield the BFS's layers, payload for payload and in order, until
    ``LAYER_CAP`` elements have been compared or a finite group's layers
    end; a finite group's end where its last nonempty layer does.  The
    spelling a generator gives an element is the one its payload spells,
    a string, and a free element's is its payload itself."""
    for group in _zoo_groups(name):
        mine, bfs = group._shortlex_layers(), oracles.bfs_layers(group)
        compared = 0
        for _ in range(LAYER_CAP):
            layer, expected = next(mine, None), next(bfs, [])
            if layer is None:
                assert group.is_finite() and not expected and not any(bfs), group.name
                break
            assert [x.payload for x in layer] == [x.payload for x in expected], \
                (group.name, len(layer[0].spelling()) if layer else None)
            assert all(x.spelling() == group.spell(x.payload) for x in layer), group.name
            assert all(type(x.spelling()) is str for x in layer), group.name
            if group.kind == "free":
                assert all(x.spelling() is x.payload for x in layer), group.name
            compared += len(layer)
            if compared >= LAYER_CAP:
                break
        else:   # so a finite group's layers that never end fail, not hang
            pytest.fail(f"{group.name}: {LAYER_CAP} layers hold fewer than {LAYER_CAP} elements")
