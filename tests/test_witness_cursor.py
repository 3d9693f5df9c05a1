"""The wrap-around witness rule and the engine's incremental bookkeeping,
checked against the slow paths in ``oracles``: shortlex-first searches,
allocation by a scan from scratch, and evaluation by the formula."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hightrans import engine, hcf
from hightrans.action import LevelAction, allocate_fresh_orbits
from hightrans.embeddings import Embedding
from hightrans.engine import Budget, EngineProblem, run_schedule, verify_certificate_report
from hightrans.groups import cyclic_group, symmetric_group
from hightrans.problem import canonical_text

from conftest import PROBLEMS, zoo
import oracles
from oracles import (allocate_by_rescan, evaluate_by_formula, plain_level_action,
                     shortlex_first_search)

NAMES = sorted(p.stem for p in PROBLEMS.glob("*.json"))


def _z6_sub():
    z6 = cyclic_group("Z6", 6, "a")
    return Embedding("z6sub", cyclic_group("C2", 2, "c"), z6, [z6.generator("a") ** 3])


# finite groups, Z and F2, each with a trivial and a nontrivial subgroup
ACTIONS = [plain_level_action(emb) for emb in (
    _z6_sub(), oracles.trivial_subgroup_embedding(symmetric_group("S3", 3)),
    oracles.trivial_subgroup_embedding(), oracles.even_integers_embedding(),
    oracles.trivial_subgroup_embedding(oracles.free2()),
    oracles.commutator_subgroup_embedding())]


def _wrapped_ball(group, radius, start):
    """The ball of ``radius`` as (position, element), rotated to begin at
    ``start``: the order a cursor search must follow."""
    ball = [((d, i), x) for d in range(radius + 1)
            for i, x in enumerate(group.shortlex_layer(d))]
    return [p for p in ball if p[0] >= start] + [p for p in ball if p[0] < start]


def _e_set_ok(action, h, xs, F, protected):
    taken = {action.orbit_rep(f) for f in F} | set(protected)
    reps = [action.orbit_rep(action.act(h, x)) for x in xs]
    return not taken.intersection(reps) and len(set(reps)) == len(reps)


@st.composite
def searches(draw):
    action = draw(st.sampled_from(ACTIONS))
    points = st.sampled_from(action.group.ball(2))
    xs = draw(st.lists(points, min_size=1, max_size=3, unique=True))
    F = draw(st.lists(points, max_size=4))
    protected = {action.orbit_rep(p) for p in draw(st.lists(points, max_size=12))}
    radius = draw(st.integers(0, 3))
    start = (draw(st.integers(0, radius + 1)), draw(st.integers(0, 40)))
    return action, xs, F, protected, radius, start


@settings(max_examples=300, deadline=None)
@given(searches())
def test_cursor_search_agrees_with_the_shortlex_oracle(case):
    action, xs, F, protected, radius, start = case
    cursor = hcf.SearchCursor()
    cursor.position = start
    got = hcf.search_E_set(action, xs, F, radius, protected, cursor=cursor)
    oracle = shortlex_first_search(action, xs, F, radius, protected)
    assert (got is None) == (oracle is None)
    expected = next(((pos, h) for pos, h in _wrapped_ball(action.group, radius, start)
                     if _e_set_ok(action, h, xs, F, protected)), None)
    if got is None:
        assert expected is None and cursor.position == start
        return
    assert _e_set_ok(action, got, xs, F, protected)
    (d, i), h = expected
    assert got == h and cursor.position == (d, i + 1)


@st.composite
def search_runs(draw):
    """Searches on one action and radius, as the engine makes them: the
    tuples and F vary, and the protected orbits only grow."""
    action = draw(st.sampled_from(ACTIONS))
    points = st.sampled_from(action.group.ball(2))
    runs = [(draw(st.lists(points, min_size=1, max_size=3, unique=True)),
             draw(st.lists(points, max_size=4)),
             {action.orbit_rep(p) for p in draw(st.lists(points, max_size=4))})
            for _ in range(draw(st.integers(2, 6)))]
    return action, draw(st.integers(0, 3)), runs


@settings(max_examples=300, deadline=None)
@given(search_runs())
def test_one_cursor_across_searches_agrees_with_the_wrapped_ball(case):
    """The memo of blocked points that one cursor carries from search to
    search skips no candidate that the current tuple would accept."""
    action, radius, runs = case
    cursor, protected = hcf.SearchCursor(), set()
    for xs, F, grown in runs:
        protected |= grown
        start = cursor.position
        got = hcf.search_E_set(action, xs, F, radius, protected, cursor)
        expected = next(((pos, h) for pos, h in _wrapped_ball(action.group, radius, start)
                         if _e_set_ok(action, h, xs, F, protected)), None)
        if expected is None:
            assert got is None and cursor.position == start
        else:
            (d, i), h = expected
            assert got == h and cursor.position == (d, i + 1)


def test_a_fresh_cursor_gives_the_shortlex_first_witness():
    action = ACTIONS[-1]
    xs = [action.group.identity()]
    taken = []
    for _ in range(6):
        h = hcf.search_E_set(action, xs, taken, 3, (), hcf.SearchCursor())
        first = next(g for g in action.group.ball(3) if _e_set_ok(action, g, xs, taken, ()))
        assert h == first
        taken.append(action.act(h, xs[0]))


def test_two_runs_of_one_engine_problem_give_equal_bytes():
    gamma = zoo("pi1-sigma2").build_group()[0]
    problem = EngineProblem(gamma)
    first = canonical_text(run_schedule(problem, Budget(steps=120), "k"))
    second = canonical_text(run_schedule(problem, Budget(steps=120), "k"))
    fresh = canonical_text(run_schedule(EngineProblem(gamma), Budget(steps=120), "k"))
    assert first == second == fresh


@pytest.mark.parametrize("name", NAMES)
def test_incremental_bookkeeping_matches_the_scans(name, monkeypatch):
    """After every step of a 200-step build the allocator's cursor gives
    what a rescan from the identity gives, and rests on the first fresh
    orbit it found; in the final state the
    evaluation fast path equals the formula at every anchor, forward and
    inverse."""
    gamma = zoo(name).build_group()[0]
    problem = EngineProblem(gamma)
    states = []

    def check(state):
        zs = allocate_fresh_orbits(state, 2)
        assert zs == allocate_by_rescan(state, 2)
        # the cursor has moved up to the first fresh orbit
        d, i = state.fresh_from
        assert gamma.shortlex_layer(d)[i] == zs[0]
        states.append(state)

    def checked(fn):
        def run(problem, state, *args):
            try:
                return fn(problem, state, *args)
            finally:
                check(state)
        return run

    monkeypatch.setattr(engine, "extend_transitivity", checked(engine.extend_transitivity))
    monkeypatch.setattr(engine, "ensure_faithful", checked(engine.ensure_faithful))
    cert = run_schedule(problem, Budget(steps=200), name)
    assert len(states) == 200
    state = states[-1]
    for x0, y0 in state.anchors.values():
        assert state.evaluate(x0) == evaluate_by_formula(state, x0) == y0
        assert state.evaluate(y0, inverse=True) == evaluate_by_formula(state, y0, True) == x0
    monkeypatch.undo()
    ok, reason = verify_certificate_report(gamma, cert)
    assert ok, reason


def test_searches_stay_short():
    """Acts per search, per tuple entry, on a long surface-group build: the
    shortlex-first rule needed about 90 at 300 steps, and more each step."""
    gamma = zoo("pi1-sigma2").build_group()[0]
    acts, per_search = [0], []
    act, search = LevelAction.act, engine.search_E_set

    def counting_act(self, h, x):
        acts[0] += 1
        return act(self, h, x)

    def counting_search(action, xs, *args, **kw):
        before = acts[0]
        try:
            return search(action, xs, *args, **kw)
        finally:
            per_search.append((acts[0] - before) / len(xs))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LevelAction, "act", counting_act)
        mp.setattr(engine, "search_E_set", counting_search)
        cert = run_schedule(EngineProblem(gamma), Budget(steps=800), "k")
    assert cert["deferred"] == [] and len(per_search) == 3 * 400
    assert sum(per_search) / len(per_search) <= 3
