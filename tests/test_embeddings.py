import pytest

from hightrans.embeddings import (
    CyclicFreeStrategy,
    Embedding,
    FactorStrategy,
    FiniteImageStrategy,
    LatticeStrategy,
    TrivialStrategy,
)
from hightrans.groups import AmalgamGroup, FreeAbelianGroup, FreeGroup

from conftest import random_element, zoo
import oracles
from oracles import cyclic_power_membership


def test_strategy_selection(commutator_emb, gauss_aff):
    assert isinstance(commutator_emb.strategy, CyclicFreeStrategy)
    assert isinstance(oracles.even_integers_embedding().strategy, LatticeStrategy)
    assert isinstance(oracles.trivial_subgroup_embedding().strategy, TrivialStrategy)
    assert isinstance(zoo("gaussian-hnn").embeddings["units"].strategy, FiniteImageStrategy)
    surf = zoo("pi1-sigma2").build_group()[0]
    assert isinstance(surf.sigma_embedding().strategy, FactorStrategy)


def test_membership_powers_against_enumeration(commutator_emb, rng):
    c = commutator_emb.apply(commutator_emb.source.generator("c"))
    f = commutator_emb.target
    for _ in range(300):
        g = random_element(f, rng, 8)
        expected = cyclic_power_membership(c, g, max_power=g.length() + 2)
        assert commutator_emb.contains(g) == expected


def test_membership_examples(commutator_emb):
    c = commutator_emb.apply(commutator_emb.source.generator("c"))
    assert commutator_emb.contains(c ** 2)
    assert not commutator_emb.contains(commutator_emb.target.generator("a"))
    assert commutator_emb.contains(commutator_emb.target.identity())


def test_lattice_membership_and_decompose():
    even = oracles.even_integers_embedding()
    z = even.target
    five = z.generator("a") ** 5
    s, r = even.decompose(five)
    assert r == z.generator("a")
    assert even.apply(s) * r == five
    assert even.contains(z.generator("a") ** -4)
    assert not even.contains(z.generator("a") ** 7)


def test_lattice_rank_two():
    z2 = FreeAbelianGroup("L2", ("p", "q"))
    c2 = FreeAbelianGroup("Lc", ("u", "v"))
    emb = Embedding("lat", c2, z2,
                    [z2.element_from_word([("p", 2)]),
                     z2.element_from_word([("q", 3)])])
    assert emb.contains(z2.element_from_word([("p", 4), ("q", -3)]))
    assert not emb.contains(z2.element_from_word([("p", 1)]))
    g = z2.element_from_word([("p", 5), ("q", 4)])
    s, r = emb.decompose(g)
    assert emb.apply(s) * r == g
    assert r.payload == (1, 1)


def test_cyclic_prefix_strip_example():
    f = FreeGroup("Fp", ("a", "b"))
    c = FreeAbelianGroup("Cp2", ("c",))
    emb = Embedding("onA", c, f, [f.generator("a")])
    g = f.element_from_word([("a", 3), ("b", 1)])
    s, r = emb.decompose(g)
    assert emb.apply(s) == f.generator("a") ** 3
    assert r == f.generator("b")


def test_decompose_recompose_fuzz(commutator_emb, rng):
    f = commutator_emb.target
    for _ in range(200):
        g = random_element(f, rng, 7)
        s, r = commutator_emb.decompose(g)
        assert commutator_emb.apply(s) * r == g
        s2, r2 = commutator_emb.decompose(r)
        assert r2 == r and s2.is_identity


def test_rep_constant_on_cosets(commutator_emb, rng):
    c = commutator_emb.apply(commutator_emb.source.generator("c"))
    f = commutator_emb.target
    for _ in range(100):
        g = random_element(f, rng, 6)
        assert commutator_emb.rep(c * g) == commutator_emb.rep(g)
        assert commutator_emb.rep(c.inverse() * g) == commutator_emb.rep(g)


def test_preimage(commutator_emb):
    c_src = commutator_emb.source.generator("c")
    img = commutator_emb.apply(c_src ** -3)
    assert commutator_emb.decompose(img) == (c_src ** -3, commutator_emb.target.identity())
    a = commutator_emb.target.generator("a")
    assert commutator_emb.decompose(a) == (commutator_emb.source.identity(), a)


def test_injectivity_rejected():
    f = oracles.free2()
    c2 = FreeAbelianGroup("C2d", ("u", "v"))
    a = f.generator("a")
    with pytest.raises(ValueError, match="injective"):
        Embedding("noninj", c2, f, [a, a])


def test_homomorphism_rejected():
    from hightrans.groups import cyclic_group
    z2 = cyclic_group("Z2h", 2, "x")
    f = oracles.free2()
    with pytest.raises(ValueError, match="table"):
        Embedding("ordermix", z2, f, [f.generator("a")])


def test_factor_strategy_on_hnn_base():
    hnn = zoo("free2-hnn").build_group()[0]
    pos = hnn.sigma_embedding(1)
    a = hnn.include(hnn.base.generator("a"))
    t = hnn.stable()
    assert pos.contains(a ** 5)
    assert not pos.contains(hnn.include(hnn.base.generator("b")))
    assert not pos.contains(t * a * t.inverse())
    s, r = pos.decompose(a ** 3 * hnn.include(hnn.base.generator("b")))
    assert pos.apply(s) * r == a ** 3 * hnn.include(hnn.base.generator("b"))


def test_an_embedding_no_exact_procedure_decides_is_refused():
    """<a^2, b^2> in F(a, b) is neither cyclic nor a lattice: no exact
    membership procedure decides it, so it is refused when it is built,
    and so it is inside one factor of an amalgam."""
    f1, s = FreeGroup("B1", ("a", "b")), FreeGroup("B2", ("u", "v"))
    squares = [f1.generator("a") ** 2, f1.generator("b") ** 2]
    with pytest.raises(ValueError, match="^squares: no exact membership procedure decides "
                                         "the image of B2 in B1$"):
        Embedding("squares", s, f1, squares)
    z, g = FreeGroup("B3", ("w",)), FreeGroup("B4", ("c",))
    amalgam = AmalgamGroup("B5", f1, g, Embedding("wa", z, f1, [f1.generator("a")]),
                           Embedding("wc", z, g, [g.generator("c")]))
    with pytest.raises(ValueError, match="^squares: no exact membership procedure decides "
                                         "the image of B2 in B1$"):
        Embedding("squares", s, amalgam, [amalgam.include(0, x) for x in squares])
