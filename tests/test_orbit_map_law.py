"""The orbit-map law, the property the per-step equivariance check tests.

With (sigma, rep) = decompose(x) for an embedding e, x = e(sigma) rep, and
moving x by a generator a of the source, or its inverse, moves only the
first coordinate: decompose(e(a) x) = (a sigma, rep).  Checked over the
ball of radius 3 of the target for every embedding of the problem files
and every Sigma-embedding of their acting groups, both through
``Embedding.decompose`` and through ``action.orbit_map``, which reads the
amalgam and HNN splits off the normal form.
"""

import pytest

from hightrans.action import orbit_map
from hightrans.embeddings import Embedding

from conftest import PROBLEMS, zoo

RADIUS = 3


def _cases():
    """(id, embedding) for every embedding of every problem file and every
    Sigma-embedding of its acting group, parsed afresh."""
    out = []
    for path in sorted(PROBLEMS.glob("*.json")):
        problem = zoo(path.stem)
        out += [(f"{path.stem}:{name}", emb) for name, emb in sorted(problem.embeddings.items())]
        gamma, _ = problem.build_group()
        if gamma.kind == "amalgam":
            out.append((f"{path.stem}:sigma", gamma.sigma_embedding()))
        else:
            out += [(f"{path.stem}:sigma{eps:+d}", gamma.sigma_embedding(eps)) for eps in (1, -1)]
    return out


CASES = _cases()


def _violations(split, emb):
    """(checks made, points at which the law fails) over the ball."""
    moves = [(a, emb.apply(a)) for g in emb.source.generators() for a in (g, g.inverse())]
    checks, bad = 0, []
    for x in emb.target.ball(RADIUS):
        sigma, rep = split(x)
        ok = emb.apply(sigma) * rep == x
        for a, image in moves:
            ok = ok and split(image * x) == (a * sigma, rep)
        checks += 1 + len(moves)
        if not ok:
            bad.append(x)
    return checks, bad


@pytest.mark.parametrize("emb", [emb for _, emb in CASES], ids=[i for i, _ in CASES])
@pytest.mark.parametrize("via", ["decompose", "orbit_map"])
def test_orbit_map_law_over_the_ball(emb, via):
    split = emb.decompose if via == "decompose" else orbit_map(emb)
    checks, bad = _violations(split, emb)
    assert checks > 0 and bad == [], bad[:5]


def test_the_cases_cover_every_strategy_and_both_splits():
    kinds = {type(emb.strategy).__name__ for _, emb in CASES}
    assert {"TrivialStrategy", "FiniteImageStrategy", "LatticeStrategy",
            "CyclicFreeStrategy", "FactorStrategy"} <= kinds
    assert {emb.target.kind for i, emb in CASES if ":sigma" in i} >= {"amalgam", "hnn"}


def _wrong_sigma(decompose):
    def mutant(self, g):
        sigma, rep = decompose(self, g)
        return sigma * self.source.generators()[0], rep
    return mutant


def _non_canonical_rep(decompose):
    """Off the orbit's canonical point, moved by e(a) for a first
    generator a, exactly where sigma is the identity: still x = e(sigma)
    rep, but rep now depends on where x lies in its orbit."""
    def mutant(self, g):
        sigma, rep = decompose(self, g)
        if not sigma.is_identity:
            return sigma, rep
        a = self.source.generators()[0]
        return a.inverse(), self.apply(a) * rep
    return mutant


@pytest.mark.parametrize("mutate", [_wrong_sigma, _non_canonical_rep])
def test_the_law_catches_a_mutated_decompose(monkeypatch, mutate):
    # fresh handles: a mutant must not leave wrong entries in shared caches
    cases = [(i, emb) for i, emb in _cases() if emb.source.labels]
    monkeypatch.setattr(Embedding, "decompose", mutate(Embedding.decompose))
    missed = [i for i, emb in cases if not _violations(emb.decompose, emb)[1]]
    assert cases and missed == []
