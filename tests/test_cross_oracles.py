"""Dual-route checks: independent re-implementations validate the clever
code paths (anchor-based evaluation, lattice arithmetic, representative
minimality) on small samples where brute force is affordable."""

import itertools
import random

import pytest

from hightrans.action import evaluate_pi
from hightrans.embeddings import Embedding
from hightrans.engine import Budget, EngineProblem, run_schedule
from hightrans.groups import FreeAbelianGroup
from hightrans.normal_forms import parse_word

from conftest import zoo
import oracles
from oracles import replay_steps, untwist


# ---------------------------------------------------------------------------
# an independent evaluator for the induced homomorphism


def naive_w(state, x, inverse=False):
    """The committed table plus the default, written without the anchor
    shortcut or the orbit maps: scan every anchor's orbit directly."""
    if not inverse:
        for x0, y0 in state.anchors.values():
            s = x * x0.inverse()
            if state.sigma_src.contains(s):
                return state.twist(s) * y0
        return state.default_image(x)
    for x0, y0 in state.dst_index.values():
        s = x * y0.inverse()
        if state.sigma_dst.contains(s):
            return untwist(state, s) * x0
    return state.default_preimage(x)


@pytest.mark.parametrize("name", ["pi1-sigma2", "free2-hnn"], ids=["surface", "hnn"])
def test_engine_against_naive_evaluator(name):
    gamma = zoo(name).build_group()[0]
    problem = EngineProblem(gamma)
    cert = run_schedule(problem, Budget(steps=16), "naive")
    state = problem.new_state()
    # rebuild quickly through the official path
    for _, (ok, reason) in replay_steps(problem, state, cert):
        assert ok, reason
    rng = random.Random(7)
    letters = [el for _, el in gamma.letters()]
    sample = [gamma.identity()]
    for _ in range(120):
        g = gamma.identity()
        for _ in range(rng.randrange(4)):
            g = g * rng.choice(letters)
        sample.append(g)
    # the oracle reads the state before any of these evaluations pins an
    # orbit, so off the committed orbits it gives the default map
    expected = [naive_w(state, p) for p in sample]
    assert [state.evaluate(p) for p in sample] == expected
    images = [state.evaluate(p) for p in set(sample)]
    assert len(set(images)) == len(set(sample))
    for step in cert["steps"]:
        if step["kind"] != "transitivity":
            continue
        mover = parse_word(gamma, step["mover"])
        for xj, yj in zip(step["xs"], step["ys"]):
            x = parse_word(gamma, xj)
            y = parse_word(gamma, yj)
            assert oracles.pi_by_formula(state, mover, x, naive_w) == y
            assert evaluate_pi(state, mover, x) == y


# ---------------------------------------------------------------------------
# lattice membership and representatives against brute force


def brute_lattice_points(cols, box):
    pts = set()
    ranges = [range(-box, box + 1)] * len(cols)
    for coeffs in itertools.product(*ranges):
        v = tuple(sum(c * col[i] for c, col in zip(coeffs, cols))
                  for i in range(len(cols[0])))
        pts.add(v)
    return pts


@pytest.mark.parametrize("cols", [
    [(2, 0), (0, 3)],
    [(2, 1), (0, 5)],
    [(1, 2), (3, 4)],
    [(4, 2), (2, 4)],
    [(6, 0), (3, 3)],
], ids=["2x3", "shear", "unimodular-ish", "sym", "index18"])
def test_lattice_strategy_against_brute_force(cols):
    z2 = FreeAbelianGroup("ZZ", ("p", "q"))
    src = FreeAbelianGroup("SS", ("u", "v"))
    emb = Embedding("lat", src, z2, [z2.element_from_word([("p", c[0]), ("q", c[1])])
                                     for c in cols])
    # skewed bases need large coefficients to reach small vectors
    lattice = brute_lattice_points(cols, 40)
    for x in range(-5, 6):
        for y in range(-5, 6):
            g = z2.element_from_word([("p", x), ("q", y)])
            assert emb.contains(g) == ((x, y) in lattice), (x, y)
            s, r = emb.decompose(g)
            assert emb.apply(s) * r == g
            # the representative is the shortlex-least coset element
            coset = sorted(
                (z2.element_from_word([("p", x - l[0]), ("q", y - l[1])])
                 for l in lattice if abs(x - l[0]) + abs(y - l[1]) <= abs(x) + abs(y) + 1),
                key=lambda e: e.sort_key())
            assert r == coset[0], (x, y)


def test_lattice_rank_one_inside_rank_two():
    z2 = FreeAbelianGroup("ZZ2", ("p", "q"))
    src = FreeAbelianGroup("S1", ("u",))
    emb = Embedding("diag", src, z2, [z2.element_from_word([("p", 2), ("q", -2)])])
    assert emb.contains(z2.element_from_word([("p", -6), ("q", 6)]))
    assert not emb.contains(z2.element_from_word([("p", 2), ("q", 2)]))
    g = z2.element_from_word([("p", 5), ("q", -3)])
    s, r = emb.decompose(g)
    assert emb.apply(s) * r == g


# ---------------------------------------------------------------------------
# cyclic subgroup representatives against windowed brute force


def test_cyclic_rep_minimality_brute_force(rng):
    emb = oracles.commutator_subgroup_embedding()
    f = emb.target
    c = emb.apply(emb.source.generator("c"))
    letters = [el for _, el in f.letters()]
    for _ in range(150):
        g = f.identity()
        for _ in range(rng.randrange(6)):
            g = g * rng.choice(letters)
        _, rep = emb.decompose(g)
        best = min((c ** k * g for k in range(-8, 9)), key=lambda e: e.sort_key())
        assert rep == best


def test_prove_finite_index_units():
    from hightrans.hcf import prove_finite_index
    assert prove_finite_index(oracles.commutator_subgroup_embedding(), 4) is None
    assert prove_finite_index(zoo("gaussian-hnn").embeddings["units"], 4) is None
    t = prove_finite_index(oracles.even_integers_embedding(), 4)
    assert t is not None and len(t) == 2
    t2 = prove_finite_index(oracles.improper_embedding(), 4)
    assert t2 is not None and len(t2) == 1
