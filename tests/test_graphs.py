import itertools
from types import SimpleNamespace

import pytest

import oracles
from hightrans.graphs import (
    GraphEdge,
    GraphOfGroups,
    _reach,
    choose_reduction_edge,
    reduce_edge,
    spanning_tree,
    validate_main_hypotheses,
)
from hightrans.groups import (AmalgamGroup, Element, FreeAbelianGroup, HnnGroup, cyclic_group,
                              symmetric_group, trivial_group)
from hightrans.embeddings import Embedding
from hightrans.normal_forms import parse_word

from conftest import zoo
from oracles import fundamental_group


def test_spanning_tree_single_edge():
    sg = zoo("pi1-sigma2").graph
    assert spanning_tree(sg) == ["e0"]


def test_spanning_tree_loop_is_empty():
    gl = zoo("gaussian-hnn").graph
    assert spanning_tree(gl) == []


def test_spanning_tree_theta_first_declared():
    th = zoo("theta").graph
    assert spanning_tree(th) == ["e1"]


def _random_graph(rng):
    """Up to five vertices and six edges, loops and parallel edges allowed,
    all groups trivial: (graph or None if disconnected, bare edge list)."""
    n = rng.randint(1, 5)
    vertices = {f"v{i}": trivial_group(f"V{i}") for i in range(n)}
    edges = []
    for k in range(rng.randint(0, 6)):
        s, r = f"v{rng.randrange(n)}", f"v{rng.randrange(n)}"
        eg = trivial_group(f"E{k}")
        edges.append(GraphEdge(f"e{k}", s, r, eg, Embedding(f"e{k}.s", eg, vertices[s], []),
                               Embedding(f"e{k}.r", eg, vertices[r], [])))
    base = f"v{rng.randrange(n)}"
    bare = SimpleNamespace(edges=edges, base=base)
    if len(oracles.reach_by_rescan(bare, base)) < n:
        with pytest.raises(ValueError, match="connected"):
            GraphOfGroups("random", vertices, edges, base)
        return None, bare
    return GraphOfGroups("random", vertices, edges, base), bare


def test_graph_walk_matches_rescanning_oracle(rng):
    connected = 0
    for _ in range(300):
        graph, bare = _random_graph(rng)
        if graph is None:
            continue
        connected += 1
        assert spanning_tree(graph) == oracles.spanning_tree_by_rescan(bare)
        for e in graph.edges:
            assert set(_reach(graph, e.source, skip=e.id)) == \
                oracles.reach_by_rescan(bare, e.source, skip=e.id)
    assert connected >= 50


def test_connectivity_required():
    za = FreeAbelianGroup("Xa", ("a",))
    zb = FreeAbelianGroup("Xb", ("b",))
    with pytest.raises(ValueError, match="connected"):
        GraphOfGroups("disc", {"p": za, "q": zb}, [], "p")


def test_reduce_surface_is_amalgam():
    gamma, _ = reduce_edge(zoo("pi1-sigma2").graph, "e0")
    assert isinstance(gamma, AmalgamGroup)
    rel = parse_word(gamma, "a1 b1 a1^-1 b1^-1 b2 a2 b2^-1 a2^-1")
    assert rel.is_identity


def test_reduce_gaussian_loop_is_hnn():
    gamma, _ = reduce_edge(zoo("gaussian-hnn").graph, "e0")
    assert isinstance(gamma, HnnGroup)
    assert parse_word(gamma, "e0 i e0^-1") == parse_word(gamma, "u i u^-1")


def test_reduce_theta_is_hnn_over_amalgam():
    gamma, _ = reduce_edge(zoo("theta").graph, "e2")
    assert isinstance(gamma, HnnGroup)
    assert gamma.base.kind == "amalgam"
    assert parse_word(gamma, "e2 a2 e2^-1") == parse_word(gamma, "a1")


def test_reduce_bad_edge_id():
    with pytest.raises(ValueError, match="no edge"):
        reduce_edge(zoo("pi1-sigma2").graph, "nope")


def test_choose_reduction_edge_prefers_disconnecting():
    assert choose_reduction_edge(zoo("pi1-sigma2").graph) == "e0"
    assert choose_reduction_edge(zoo("theta").graph) == "e1"
    assert choose_reduction_edge(zoo("gaussian-hnn").graph) == "e0"


def test_fundamental_group_simple_cases():
    za = FreeAbelianGroup("Solo", ("a",))
    g = GraphOfGroups("solo", {"p": za}, [], "p")
    assert fundamental_group(g) is za
    fz = fundamental_group(zoo("z-star-z").graph)
    assert fz.kind == "amalgam"
    assert fz.edge_source.is_finite() and fz.edge_source.order == 1


def test_fundamental_group_surface_relation():
    fg = fundamental_group(zoo("pi1-sigma2").graph)
    assert fg.kind == "amalgam"
    rel = parse_word(fg, "a1 b1 a1^-1 b1^-1 b2 a2 b2^-1 a2^-1")
    assert rel.is_identity


def test_tree_edges_collapse_theta():
    # the spanning-tree edge is e1, so only e2 survives as a stable letter
    fg = fundamental_group(zoo("theta").graph)
    assert fg.kind == "hnn"
    assert fg.stable_label == "e2"


def test_theta_presentations_relate_through_tree_change():
    """Removing either edge of the theta graph presents the same group up
    to the tree-change isomorphism: one vertex group gets conjugated by
    the surviving stable letter and the collapsed letters swap roles.
    Trivial words must map to trivial words, and the untouched vertex
    group keeps its free word problem in both presentations."""
    g_a = reduce_edge(zoo("theta").graph, "e2")[0]
    g_b = reduce_edge(zoo("theta").graph, "e1")[0]
    e1 = parse_word(g_b, "e1")
    images = {
        "a1": parse_word(g_b, "a1"),
        "b1": parse_word(g_b, "b1"),
        "a2": e1 * parse_word(g_b, "a2") * e1.inverse(),
        "b2": e1 * parse_word(g_b, "b2") * e1.inverse(),
        "e2": e1.inverse(),
    }

    def phi(word):
        out = g_b.identity()
        for lab, exp in word:
            out = out * images[lab] ** exp
        return out

    labels = list(images)
    alphabet = [(lab, 1) for lab in labels] + [(lab, -1) for lab in labels]
    words = [()]
    for n in range(1, 4):
        words.extend(itertools.product(alphabet, repeat=n))
    trivial_a = 0
    for w in words:
        text = " ".join(f"{l}^{e}" if e != 1 else l for l, e in w) or "1"
        if parse_word(g_a, text).is_identity:
            trivial_a += 1
            assert phi(w).is_identity
    assert trivial_a >= 11  # identity plus every two-letter cancellation

    free_alphabet = [("a1", 1), ("a1", -1), ("b1", 1), ("b1", -1)]
    free_words = [()]
    for n in range(1, 5):
        free_words.extend(itertools.product(free_alphabet, repeat=n))
    f2 = oracles.free2(); label_map = {"a1": "a", "b1": "b"}
    for w in free_words:
        text = " ".join(f"{l}^{e}" if e != 1 else l for l, e in w) or "1"
        free_text = " ".join(f"{label_map[l]}^{e}" if e != 1 else label_map[l]
                             for l, e in w) or "1"
        expected = parse_word(f2, free_text).is_identity
        assert parse_word(g_a, text).is_identity == expected
        assert parse_word(g_b, text).is_identity == expected


def test_reduced_problem_matches_fundamental_group_word_problem():
    whole = fundamental_group(zoo("pi1-sigma2").graph)
    piece = reduce_edge(zoo("pi1-sigma2").graph, "e0")[0]
    labels = ["a1", "b1", "a2", "b2"]
    alphabet = [(lab, 1) for lab in labels] + [(lab, -1) for lab in labels]
    words = [()]
    for n in range(1, 4):
        words.extend(itertools.product(alphabet, repeat=n))
    for w in words:
        text = " ".join(f"{l}^{e}" if e != 1 else l for l, e in w) or "1"
        assert parse_word(whole, text).is_identity == parse_word(piece, text).is_identity


def test_validate_surface_passes():
    report = validate_main_hypotheses(zoo("pi1-sigma2").graph)
    assert report["overall"] == "pass"
    for entry in report["vertices"].values():
        assert entry["infinite"]
    edge = report["edges"]["e0"]
    assert edge["source"]["hcf"].status == "pass" and edge["range"]["hcf"].status == "pass"
    assert edge["source"]["structural"].status == "pass"


def test_validate_flags_finite_vertex():
    report = validate_main_hypotheses(zoo("planted-finite-vertex").graph)
    assert report["overall"] == "fail"
    assert report["vertices"]["p"]["status"] == "fail"
    assert report["vertices"]["q"]["status"] == "pass"


def test_validate_flags_finite_index_edge():
    report = validate_main_hypotheses(zoo("planted-finite-index-edge").graph)
    assert report["overall"] == "fail"
    edge = report["edges"]["e0"]
    assert edge["source"]["hcf"].failed
    cov = edge["source"]["hcf"].evidence["covering"]
    assert cov["pieces"] == [{"members": ["1"]}]


def test_validate_gaussian_loop_passes():
    report = validate_main_hypotheses(zoo("gaussian-hnn").graph)
    assert report["overall"] == "pass"


def _improper():
    """Y2 amalgamated with Y2b over Y2, onto both factors: a group of order 2."""
    z2 = cyclic_group("Y2", 2, "x")
    z2b = cyclic_group("Y2b", 2, "y")
    return AmalgamGroup("Imp", z2, z2b, Embedding("fl", z2, z2, [z2.generator("x")]),
                        Embedding("fr", z2, z2b, [z2b.generator("y")]))


def _nest():
    """A finite amalgam as a factor, with the edge onto it: Z4."""
    improper = _improper()
    z2c = cyclic_group("Y2c", 2, "z")
    z4 = cyclic_group("Y4", 4, "w")
    onto = Embedding("on", z2c, improper, [improper.generator("y")])
    into = Embedding("in", z2c, z4, [z4.element_from_word([("w", 2)])])
    return AmalgamGroup("Nest", improper, z4, onto, into)


def _long_spellings():
    """Z8 amalgamated with Z2 onto its a^4: Z8, whose canonical spellings
    (a^4 a^-1 for a^3) run to length 6 past a BFS depth of 2, with layer 3
    empty."""
    z8, z2, c = cyclic_group("Z8", 8, "a"), cyclic_group("Z2", 2, "b"), cyclic_group("C2", 2, "c")
    return AmalgamGroup("Long", z8, z2, Embedding("l", c, z8, [z8.element_from_word([("a", 4)])]),
                        Embedding("r", c, z2, [z2.generator("b")]))


def test_infiniteness_rules():
    assert not oracles.free2().is_finite()
    assert not oracles.integers().is_finite()
    assert not zoo("gaussian-hnn").groups["H"].is_finite()
    assert not zoo("bs12").build_group()[0].is_finite()
    assert not zoo("pi1-sigma2").build_group()[0].is_finite()
    assert not zoo("z2-z3").build_group()[0].is_finite()
    assert not zoo("theta").build_group()[0].is_finite()
    assert trivial_group().is_finite()
    # improper amalgam of finite groups collapses to a finite group
    improper = _improper()
    assert improper.is_finite()
    assert len(list(improper.iter_shortlex())) == 2
    # nested: a finite amalgam as a factor.  An edge onto it on one side
    # makes the whole finite (_nest); over the trivial group it is the
    # infinite dihedral group, and an HNN extension is never finite
    assert _nest().is_finite()
    z2c = cyclic_group("Y2c", 2, "z")
    one = trivial_group("One")
    dihedral = AmalgamGroup("Dih", improper, z2c, Embedding("t0", one, improper, []),
                            Embedding("t1", one, z2c, []))
    assert not dihedral.is_finite()
    loop = Embedding("loop", z2c, improper, [improper.generator("x")])
    assert not HnnGroup("Loop", improper, loop, loop, stable_label="s").is_finite()


@pytest.mark.parametrize("make, order", [
    (trivial_group, 1),
    (lambda: cyclic_group("C5", 5, "c"), 5),
    (lambda: symmetric_group("S3", 3), 6),
    (_improper, 2),
    (_nest, 4),
    (_long_spellings, 8),
], ids=["trivial", "cyclic", "S3", "Imp", "Nest", "Long"])
def test_finite_walks_end_by_themselves(make, order):
    """A finite group's layers are the BFS oracle's, payload for payload,
    and end by themselves with the last that is not empty; the BFS may file
    empty layers past it, as it ends only once its geodesic depth passes
    the last layer too.  Every walk stops after the last element, from any
    position, on a fresh handle or a walked one, and leaves exactly the
    generator's layers cached."""
    group = make()
    layers = [[x.payload for x in layer]
              for layer in itertools.islice(group._shortlex_layers(), 64)]
    bfs = [[x.payload for x in layer] for layer in oracles.bfs_layers(group)]
    assert layers[-1] and layers == bfs[:len(layers)] and not any(bfs[len(layers):])
    walk = [(d, i, str(x)) for d, i, x in group.walk_shortlex()]
    elements = [x for _, _, x in group.walk_shortlex()]
    assert len(set(elements)) == order
    assert sorted(elements, key=Element.sort_key) == elements
    past = (walk[-1][0] + 1, 0)
    for k, (d, i, _) in enumerate(walk):
        for handle in (group, make()):
            assert [(e, j, str(x)) for e, j, x in handle.walk_shortlex((d, i))] == walk[k:]
    for handle in (group, make()):
        assert list(handle.walk_shortlex(past)) == []
        assert [str(x) for x in handle.ball(past[0] + 2)] == [x for _, _, x in walk]
    assert len(group._layers) == len(layers)
