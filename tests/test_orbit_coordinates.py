"""Evaluation from orbit coordinates, the per-step equivariance check in
orbit coordinates, the closed-form cyclic coset decomposition and the
one-token parse of factor and base runs, each checked against the slow
path it replaced in ``oracles``: the equivariance formula, the law with
both sides evaluated, the power walk and the letter-by-letter parse."""

from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hightrans import graphs, normal_forms
from hightrans.action import IntertwinerState, orbit_map
from hightrans.embeddings import CyclicFreeStrategy, Embedding
from hightrans.engine import Budget, EngineProblem, run_schedule, verify_certificate_report
from hightrans.groups import AmalgamGroup, FreeAbelianGroup, FreeGroup, cyclic_group
from hightrans.normal_forms import _raw_tokens, reduce_amalgam_tokens, reduce_hnn_tokens

import oracles
from conftest import PROBLEMS, zoo


# ---------------------------------------------------------------------------
# CyclicFreeStrategy.decompose against the power walk

F3 = FreeGroup("F3", ("a", "b", "c"))
Z = FreeAbelianGroup("Z", ("z",))

letters = st.sampled_from([letter for _, letter in F3.letters()])


def words(min_size, max_size):
    return st.lists(letters, min_size=min_size, max_size=max_size).map(_product)


def _product(ls):
    out = F3.identity()
    for letter in ls:
        out = out * letter
    return out


@st.composite
def cyclic_generators(draw):
    """c of length 1-9: a random word, a conjugate u d u^-1, a proper
    power d^2 or d^3, or a single letter."""
    kind = draw(st.sampled_from(["word", "conjugate", "power", "letter"]))
    if kind == "word":
        c = draw(words(1, 9))
    elif kind == "conjugate":
        u, d = draw(words(1, 3)), draw(words(1, 3))
        c = u * d * u.inverse()
    elif kind == "power":
        c = draw(words(1, 3)) ** draw(st.sampled_from([2, 3]))
    else:
        c = draw(letters)
    if c.is_identity:
        c = F3.generator("a")
    return c


@settings(max_examples=400, deadline=None)
@given(cyclic_generators(), words(0, 24), st.integers(-3, 3), words(0, 12), st.booleans())
def test_closed_form_cyclic_decomposition_matches_the_power_walk(c, g, j, h, near_c):
    """The three-candidate decomposition and the walk over every power in
    reach pick the same (source element, rep), also for g = c^j h."""
    emb = Embedding("cyc", Z, F3, [c], check=False)
    assert isinstance(emb.strategy, CyclicFreeStrategy)
    if near_c:
        g = c ** j * h
    assert emb.strategy.decompose(g) == oracles.cyclic_decompose_by_power_walk(emb.strategy, g)


# ---------------------------------------------------------------------------
# parse: one token per factor or base run against one per syllable


def _modular():
    """SL(2, Z) = Z4 *_Z2 Z6."""
    z4, z6, z2 = cyclic_group("Z4", 4, "x"), cyclic_group("Z6", 6, "y"), cyclic_group("Z2", 2, "e")
    return AmalgamGroup("SL2Z", z4, z6,
                        Embedding("sl.l", z2, z4, [z4.generator("x") ** 2]),
                        Embedding("sl.r", z2, z6, [z6.generator("y") ** 3]))


def _problem_group(name):
    return zoo(name).build_group()[0]


GROUPS = {
    "surface": _problem_group("pi1-sigma2"),
    "theta-base": graphs.reduce_edge(zoo("theta").graph, "e2")[0].base,
    "z2-z3": _problem_group("z2-z3"),
    "modular": _modular(),
    "theta": _problem_group("theta"),
    "free2-hnn": _problem_group("free2-hnn"),
    "bs12": _problem_group("bs12"),
}


def _fold(handle, toks):
    reduce = reduce_amalgam_tokens if handle.kind == "amalgam" else reduce_hnn_tokens
    return reduce(handle, toks)


@pytest.mark.parametrize("name", sorted(GROUPS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_factor_runs_fold_like_single_letters(name, data):
    """A run of one factor's (or the base's) letters parses to one token,
    and the fold lands on the letter-by-letter normal form."""
    handle = GROUPS[name]
    word = data.draw(st.lists(st.tuples(st.sampled_from(handle.labels),
                                        st.sampled_from([-3, -2, -1, 1, 2, 3])), max_size=16))
    toks = _raw_tokens(handle, word)
    assert all(a[0] != b[0] or a[0] == "t" for a, b in zip(toks, toks[1:]))
    assert _fold(handle, toks) == _fold(handle, oracles.tokens_by_letter(handle, word))


# ---------------------------------------------------------------------------
# evaluation off the anchors


def _build(name, steps):
    """The problem's acting group, its certificate at ``steps`` and the
    state the build left."""
    prob = zoo(name)
    problem = EngineProblem(prob.build_group()[0])
    states = []
    new_state = problem.new_state
    problem.new_state = lambda: states.append(new_state()) or states[-1]
    cert = run_schedule(problem, Budget(steps, prob.budget.witness_radius), prob.digest())
    return prob, cert, states[0]


@pytest.mark.parametrize("name", ["pi1-sigma2", "theta", "free2-hnn", "gaussian-hnn", "bs12"])
def test_evaluation_matches_the_formula_off_the_anchors(name):
    """After 200 steps, at s x0 for every anchor and every s in Sigma's
    ball of radius 3, and at s y0 for the inverse, the orbit-coordinate
    evaluation equals twist(x x0^-1) y0; off the committed orbits both
    give the default map."""
    _, _, state = _build(name, 200)
    ball = state.sigma_src.source.ball(3)
    assert state.anchors
    for x0, y0 in state.anchors.values():
        for s in ball:
            x = state.sigma_src.apply(s) * x0
            assert state.evaluate(x) == oracles.evaluate_by_formula(state, x)
            y = state.sigma_dst.apply(s) * y0
            assert (state.evaluate(y, inverse=True)
                    == oracles.evaluate_by_formula(state, y, inverse=True))
    points = state.gamma.iter_shortlex(8)
    fresh = list(islice((p for p in points if state.src_orbit(p) not in state.anchors), 30))
    points = state.gamma.iter_shortlex(8)
    fresh_dst = list(islice((p for p in points if state.dst_orbit(p) not in state.dst_index), 30))
    assert len(fresh) == len(fresh_dst) == 30
    for p in fresh:
        assert state.evaluate(p) == oracles.evaluate_by_formula(state, p)
    for p in fresh_dst:
        assert state.evaluate(p, inverse=True) == oracles.evaluate_by_formula(state, p,
                                                                              inverse=True)


def test_verify_does_not_conjugate_by_the_stable_letter(monkeypatch):
    """Replaying theta at 150 steps evaluates by orbit coordinates only: no
    ``twist`` call, one equivariance check per transitivity
    step (the conjugating formula made 456 twist calls)."""
    prob, cert, _ = _build("theta", 150)
    calls = {"twist": 0, "check_equivariance": 0}
    for attr in calls:
        original = getattr(IntertwinerState, attr)

        def counting(self, *args, _attr=attr, _original=original):
            calls[_attr] += 1
            return _original(self, *args)
        monkeypatch.setattr(IntertwinerState, attr, counting)
    assert verify_certificate_report(prob.build_group()[0], cert) == (True, "ok")
    transitivity = sum(step["kind"] == "transitivity" for step in cert["steps"])
    assert calls == {"twist": 0, "check_equivariance": transitivity}
    assert transitivity == 75


# ---------------------------------------------------------------------------
# the per-step equivariance check in orbit coordinates


def _verify_with(name, steps, monkeypatch, around):
    """Build ``name`` at ``steps`` and verify the certificate on a fresh
    group, with ``around(state, pairs, check)`` in place of every
    ``check_equivariance(pairs)`` call, ``check`` being the method itself."""
    prob, cert, _ = _build(name, steps)
    check = IntertwinerState.check_equivariance
    monkeypatch.setattr(IntertwinerState, "check_equivariance",
                        lambda self, pairs: around(self, pairs, check))
    assert verify_certificate_report(prob.build_group()[0], cert) == (True, "ok")
    return cert


@pytest.mark.parametrize("name, steps", [(p.stem, 200) for p in sorted(PROBLEMS.glob("*.json"))]
                         + [("pi1-sigma2", 300)])
def test_orbit_coordinate_check_agrees_with_evaluating_both_sides(name, steps, monkeypatch):
    """At every pair a transitivity step commits in a verify, the
    orbit-coordinate check and the check that evaluates both sides of the
    law both hold; after the last step the evaluating sweep holds at every
    anchor."""
    checked, states = [], []

    def both(state, pairs, check):
        for pair in pairs:
            assert check(state, [pair])
            assert oracles.equivariance_by_evaluation(state, [pair])
        checked.extend(pairs)
        states.append(state)
        return check(state, pairs)

    cert = _verify_with(name, steps, monkeypatch, both)
    transitivity = sum(step["kind"] == "transitivity" for step in cert["steps"])
    assert len(states) == transitivity and len(checked) >= transitivity
    if states:
        assert oracles.equivariance_by_evaluation(states[-1])


@pytest.mark.parametrize("name", ["pi1-sigma2", "theta"])
@pytest.mark.parametrize("mutation", ["sigma", "rep"])
def test_a_wrong_split_of_the_moved_point_fails_the_check(name, mutation):
    """With the split of every point but the anchor's x0 off by one extra
    generator of Sigma, or naming another committed orbit, the check fails
    at each of the first 20 anchors."""
    _, _, state = _build(name, 40)
    split = state.src_split
    extra = state.sigma_src.source.generators()[0]
    for x0, y0 in list(state.anchors.values())[:20]:
        assert state.check_equivariance([(x0, y0)])
        rep0 = split(x0)[1]
        other = next(rep for rep in state.anchors if rep != rep0)

        def wrong(x, x0=x0, other=other):
            sigma, rep = split(x)
            if x == x0:
                return sigma, rep
            return (sigma * extra, rep) if mutation == "sigma" else (sigma, other)
        state.src_split = wrong
        assert not state.check_equivariance([(x0, y0)])
        state.src_split = split


@pytest.mark.parametrize("name, steps", [("theta", 150), ("pi1-sigma2", 300)])
def test_the_check_makes_one_product_in_gamma_per_generator(name, steps, monkeypatch):
    """In a verify, ``check_equivariance`` runs the reducers on the acting
    group at most once per committed pair and generator of Sigma; evaluating
    both sides of the law at the same pairs takes at least three times as
    many."""
    counts = {"check": 0, "oracle": 0, "bound": 0}
    charge = [None, None]   # the acting group and the counter its reductions go to
    for reducer in ("reduce_amalgam_tokens", "reduce_hnn_tokens"):
        def counting(handle, *args, _original=getattr(normal_forms, reducer)):
            if handle is charge[0]:
                counts[charge[1]] += 1
            return _original(handle, *args)
        monkeypatch.setattr(normal_forms, reducer, counting)

    def counted(state, pairs, check):
        counts["bound"] += len(pairs) * len(state.sigma_src.source.labels)
        charge[:] = state.gamma, "check"
        ok = check(state, pairs)
        charge[1] = "oracle"
        assert oracles.equivariance_by_evaluation(state, pairs)
        charge[0] = None
        return ok

    _verify_with(name, steps, monkeypatch, counted)
    assert 0 < counts["check"] <= counts["bound"] and counts["oracle"] >= 3 * counts["bound"]


# ---------------------------------------------------------------------------
# HNN orbit coordinates from the normal form


HNN_PROBLEMS = sorted(p.stem for p in PROBLEMS.glob("*.json")
                      if _problem_group(p.stem).kind == "hnn")


@pytest.mark.parametrize("name", HNN_PROBLEMS)
@pytest.mark.parametrize("eps", [1, -1])
def test_hnn_orbit_coordinates_match_the_decomposition(name, eps):
    """Splitting the head of (head, tail) in the base gives the
    coordinates that ``Embedding.decompose`` finds in the whole group."""
    gamma = _problem_group(name)
    sigma = gamma.sigma_embedding(eps)
    split = orbit_map(sigma)
    assert split != sigma.decompose
    for x in gamma.ball(4):
        assert split(x) == sigma.decompose(x)
