"""Standard test-bed groups used across the suite and the demos.

Each factory builds fresh handles so callers can mutate caches freely;
module-level memoization is left to the callers (pytest fixtures do it).
"""

from __future__ import annotations

from .embeddings import Embedding
from .groups import (
    AmalgamGroup,
    FreeAbelianGroup,
    FreeGroup,
    HnnGroup,
    SemidirectGroup,
    cyclic_group,
    symmetric_group,
    trivial_group,
)


def free2(name="F2", labels=("a", "b")):
    return FreeGroup(name, labels)


def integers(name="Z", label="a"):
    return FreeAbelianGroup(name, (label,))


def bs12():
    """Baumslag-Solitar group BS(1,2) = HNN(Z, Z, a -> a^2)."""
    z = integers("Zbase", "a")
    c = integers("Zedge", "c")
    e_r = Embedding("bs12.r", c, z, [z.generator("a")])
    e_s = Embedding("bs12.s", c, z, [z.generator("a") ** 2])
    return HnnGroup("BS12", z, e_r, e_s, "t")


def z2_star_z3():
    """The free product Z2 * Z3 (isomorphic to the modular group)."""
    z2 = cyclic_group("Z2", 2, "x")
    z3 = cyclic_group("Z3", 3, "y")
    triv = trivial_group("E")
    e_l = Embedding("z2z3.l", triv, z2, [])
    e_r = Embedding("z2z3.r", triv, z3, [])
    return AmalgamGroup("Z2*Z3", z2, z3, e_l, e_r)


def surface_group():
    """Genus-2 surface group as an amalgam of two free groups over a
    cyclic subgroup generated by the commutators."""
    f1 = FreeGroup("F1", ("a1", "b1"))
    f2 = FreeGroup("F2", ("a2", "b2"))
    c = FreeAbelianGroup("C", ("c",))
    e1 = Embedding("surf.l", c, f1, [commutator(f1, "a1", "b1")])
    e2 = Embedding("surf.r", c, f2, [commutator(f2, "a2", "b2")])
    return AmalgamGroup("Surface2", f1, f2, e1, e2)


def commutator(group, lab_a, lab_b):
    a, b = group.generator(lab_a), group.generator(lab_b)
    return a * b * a.inverse() * b.inverse()


def z_star_z():
    """Free product of two infinite cyclic groups over the trivial group."""
    za = FreeAbelianGroup("Za", ("a",))
    zb = FreeAbelianGroup("Zb", ("b",))
    triv = trivial_group("E")
    e_l = Embedding("zz.l", triv, za, [])
    e_r = Embedding("zz.r", triv, zb, [])
    return AmalgamGroup("Z*Z", za, zb, e_l, e_r)


def free2_hnn():
    """HNN(F2, <a>, a -> b): the cyclic subgroup on a carried to b."""
    f = FreeGroup("F", ("a", "b"))
    c = FreeAbelianGroup("C", ("c",))
    e_r = Embedding("f2hnn.r", c, f, [f.generator("a")])
    e_s = Embedding("f2hnn.s", c, f, [f.generator("b")])
    return HnnGroup("F2HNN", f, e_r, e_s, "t")


def gaussian_units_semidirect():
    """Z4 |x Z^2, the unit group of the Gaussian integers acting by i."""
    u4 = cyclic_group("U4", 4, "i")
    rot = ((0, -1), (1, 0))
    mats = {0: ((1, 0), (0, 1))}
    cur = ((1, 0), (0, 1))
    for k in range(1, 4):
        cur = tuple(tuple(sum(rot[i][m] * cur[m][j] for m in range(2)) for j in range(2))
                    for i in range(2))
        mats[k] = cur
    return SemidirectGroup("GaussAff", u4, ("u", "v"), mats)


def gaussian_unit_embeddings(h=None):
    """The unit subgroup of GaussAff and one of its conjugates.

    Returns (H, e_plain, e_conj) where e_conj carries the generator to its
    conjugate by the translation (1, 0).
    """
    if h is None:
        h = gaussian_units_semidirect()
    u4 = cyclic_group("U4e", 4, "i")
    gen_i = h.generator("i")
    g = h.generator("u")
    e_plain = Embedding("gauss.r", u4, h, [gen_i])
    e_conj = Embedding("gauss.s", u4, h, [g * gen_i * g.inverse()])
    return h, e_plain, e_conj


def gaussian_hnn():
    """HNN(Z4 |x Z^2, Z4, theta onto a conjugate of the units)."""
    h, e_plain, e_conj = gaussian_unit_embeddings()
    return HnnGroup("GaussHNN", h, e_plain, e_conj, "t")


def commutator_subgroup_embedding(f=None):
    """<[a,b]> inside the free group on a, b."""
    if f is None:
        f = free2()
    c = FreeAbelianGroup("C", ("c",))
    return Embedding("comm", c, f, [commutator(f, *f.labels[:2])])


def even_integers_embedding():
    """2Z inside Z, the standard finite-index failure case."""
    z = integers()
    c = FreeAbelianGroup("C2", ("c",))
    return Embedding("even", c, z, [z.generator("a") ** 2])


def trivial_subgroup_embedding(target=None):
    if target is None:
        target = integers()
    triv = trivial_group("E")
    return Embedding("triv", triv, target, [])


def improper_embedding():
    """Z inside itself, failing the infinite-index premise."""
    z = integers()
    c = FreeAbelianGroup("Ci", ("c",))
    return Embedding("improper", c, z, [z.generator("a")])


def gaussian_units_subgroup_embedding():
    """The finite malnormal unit subgroup Z4 < Z4 |x Z^2."""
    _, e_plain, _ = gaussian_unit_embeddings()
    return e_plain


def primitive_cyclic_embedding():
    """<a b a^-1 b^-1> spelled out syllable by syllable (same subgroup as
    the commutator fixture, built from a raw word)."""
    f = free2()
    c = FreeAbelianGroup("Cp", ("c",))
    w = f.element_from_word([("a", 1), ("b", 1), ("a", -1), ("b", -1)])
    return Embedding("prim", c, f, [w])


def finitely_supported_permutations(degree=4):
    """S_degree acting on the naturals, fixing everything >= degree.

    Stands in for the finitely supported permutations of N with a bounded
    generated zone."""
    return symmetric_group(f"S{degree}", degree)


def surface_graph():
    """Two free vertex groups joined along the commutator subgroup."""
    from .graphs import GraphEdge, GraphOfGroups

    f1 = FreeGroup("F1", ("a1", "b1"))
    f2 = FreeGroup("F2", ("a2", "b2"))
    c = FreeAbelianGroup("C", ("c",))
    e_s = Embedding("sg.s", c, f1, [commutator(f1, "a1", "b1")])
    e_r = Embedding("sg.r", c, f2, [commutator(f2, "a2", "b2")])
    edge = GraphEdge("e0", "p", "q", c, e_s, e_r)
    return GraphOfGroups("surface", {"p": f1, "q": f2}, [edge], "p")


def gaussian_loop_graph():
    """One vertex with a loop carrying the unit subgroup onto a conjugate."""
    from .graphs import GraphEdge, GraphOfGroups

    h, e_plain, e_conj = gaussian_unit_embeddings()
    edge = GraphEdge("e0", "p", "p", e_plain.source, e_conj, e_plain)
    return GraphOfGroups("gaussian-loop", {"p": h}, [edge], "p")


def theta_graph():
    """Two vertices, two geometric edges; one reduction gives an HNN
    extension over an amalgam base."""
    from .graphs import GraphEdge, GraphOfGroups

    f1, f2, (c_comm, e1_s, e1_r), (c_gen, e2_s, e2_r) = theta_graph_groups()
    edges = [GraphEdge("e1", "p", "q", c_comm, e1_s, e1_r),
             GraphEdge("e2", "p", "q", c_gen, e2_s, e2_r)]
    return GraphOfGroups("theta", {"p": f1, "q": f2}, edges, "p")


def z_star_z_graph():
    from .graphs import GraphEdge, GraphOfGroups

    za = FreeAbelianGroup("Za", ("a",))
    zb = FreeAbelianGroup("Zb", ("b",))
    triv = trivial_group("E")
    e_s = Embedding("zzg.s", triv, za, [])
    e_r = Embedding("zzg.r", triv, zb, [])
    edge = GraphEdge("e0", "p", "q", triv, e_s, e_r)
    return GraphOfGroups("z-star-z", {"p": za, "q": zb}, [edge], "p")


def planted_finite_vertex_graph():
    """A finite vertex group, which the hypothesis validator must flag."""
    from .graphs import GraphEdge, GraphOfGroups

    z4 = cyclic_group("V4", 4, "x")
    z = FreeAbelianGroup("W", ("w",))
    triv = trivial_group("E")
    e_s = Embedding("pfv.s", triv, z4, [])
    e_r = Embedding("pfv.r", triv, z, [])
    edge = GraphEdge("e0", "p", "q", triv, e_s, e_r)
    return GraphOfGroups("planted-finite-vertex", {"p": z4, "q": z}, [edge], "p")


def planted_finite_index_edge_graph():
    """An index-two edge subgroup, the classic core-freeness failure."""
    from .graphs import GraphEdge, GraphOfGroups

    za = FreeAbelianGroup("Za", ("a",))
    zb = FreeAbelianGroup("Zb", ("b",))
    c = FreeAbelianGroup("Ce", ("c",))
    e_s = Embedding("pfi.s", c, za, [za.generator("a") ** 2])
    e_r = Embedding("pfi.r", c, zb, [zb.generator("b") ** 2])
    edge = GraphEdge("e0", "p", "q", c, e_s, e_r)
    return GraphOfGroups("planted-finite-index", {"p": za, "q": zb}, [edge], "p")


def theta_graph_groups():
    """Vertex and edge data for a two-vertex, two-geometric-edge graph."""
    f1 = FreeGroup("T1", ("a1", "b1"))
    f2 = FreeGroup("T2", ("a2", "b2"))
    c_comm = FreeAbelianGroup("Cc", ("c",))
    c_gen = FreeAbelianGroup("Cd", ("d",))
    e1_s = Embedding("th.e1s", c_comm, f1, [commutator(f1, "a1", "b1")])
    e1_r = Embedding("th.e1r", c_comm, f2, [commutator(f2, "a2", "b2")])
    e2_s = Embedding("th.e2s", c_gen, f1, [f1.generator("a1")])
    e2_r = Embedding("th.e2r", c_gen, f2, [f2.generator("a2")])
    return f1, f2, (c_comm, e1_s, e1_r), (c_gen, e2_s, e2_r)
