import json
from collections import Counter

import pytest

from hightrans import action, engine, fixtures
from hightrans.action import Point, evaluate_pi
from hightrans.engine import (
    Budget,
    EngineProblem,
    ensure_faithful,
    extend_transitivity,
    run_schedule,
    verify_certificate,
    verify_certificate_report,
)
from hightrans.problem import parse_problem

from conftest import PROBLEMS
from oracles import amalgam_protect_list, hnn_protect_lists, shortlex_first_rule


def canon(cert):
    return json.dumps(cert, sort_keys=True)


@pytest.fixture
def surface_problem():
    return EngineProblem(fixtures.surface_group())


@pytest.fixture
def hnn_problem():
    return EngineProblem(fixtures.free2_hnn())


def test_extend_identity_pair(surface_problem):
    state = surface_problem.new_state()
    x = Point(surface_problem.gamma.identity(), 0)
    mover, _, _, _, _ = extend_transitivity(surface_problem, state, [x], [x])
    assert evaluate_pi(state, mover, x) == x


def test_extend_moves_point_hnn(hnn_problem):
    state = hnn_problem.new_state()
    gamma = hnn_problem.gamma
    x = Point(gamma.identity(), 0)
    y = Point(gamma.include(gamma.base.generator("b")), 0)
    mover, _, _, _, _ = extend_transitivity(hnn_problem, state, [x], [y])
    assert evaluate_pi(state, mover, x) == y


def test_extend_pair_surface(surface_problem):
    state = surface_problem.new_state()
    gamma = surface_problem.gamma
    xs = [Point(gamma.identity(), 0), Point(gamma.generator("a1"), 0)]
    ys = [Point(gamma.generator("b2"), 0), Point(gamma.generator("b1"), 0)]
    before = len(state.anchors)
    mover, witnesses, zs, batch, _ = extend_transitivity(surface_problem, state, xs, ys)
    assert len(zs) == 2
    assert len(batch) == 8
    assert len(state.anchors) >= before + 8
    for x, y in zip(xs, ys):
        assert evaluate_pi(state, mover, x) == y


def test_extend_rejects_bad_tuples(surface_problem):
    state = surface_problem.new_state()
    gamma = surface_problem.gamma
    p = Point(gamma.identity(), 0)
    q = Point(gamma.generator("a1"), 0)
    r1 = Point(gamma.generator("b1"), 1)
    with pytest.raises(ValueError, match="distinct"):
        extend_transitivity(surface_problem, state, [p, p], [q, r1])
    with pytest.raises(ValueError, match="length"):
        extend_transitivity(surface_problem, state, [p], [q, r1])
    with pytest.raises(ValueError, match="level"):
        extend_transitivity(surface_problem, state, [p], [r1])


def test_prior_postconditions_survive(surface_problem, rng):
    state = surface_problem.new_state()
    gamma = surface_problem.gamma
    discharged = []
    pts = [Point(g, 0) for g in gamma.ball(1)]
    pairs = [([pts[0]], [pts[1]]), ([pts[2]], [pts[3]]),
             ([pts[1], pts[4]], [pts[5], pts[0]]), ([pts[6]], [pts[6]])]
    for xs, ys in pairs:
        mover, _, _, _, _ = extend_transitivity(surface_problem, state, xs, ys)
        discharged.append((mover, xs, ys))
        for m, mxs, mys in discharged:
            for x, y in zip(mxs, mys):
                assert evaluate_pi(state, m, x) == y
        assert state.check_equivariance()


def test_ensure_faithful(surface_problem):
    state = surface_problem.new_state()
    gamma = surface_problem.gamma
    g = gamma.generator("a1")
    witness, image = ensure_faithful(surface_problem, state, g)
    assert witness.level == 1 and witness.level in state.frozen
    assert image == Point(g, witness.level)
    assert image != witness
    # next one lands on the next level
    w2, _ = ensure_faithful(surface_problem, state, gamma.generator("b2"))
    assert w2.level == 2
    with pytest.raises(ValueError):
        ensure_faithful(surface_problem, state, gamma.identity())


def test_ensure_faithful_syllable_word(hnn_problem):
    state = hnn_problem.new_state()
    gamma = hnn_problem.gamma
    g = gamma.stable() * gamma.include(gamma.base.generator("a")) * gamma.stable()
    witness, image = ensure_faithful(hnn_problem, state, g)
    assert image == Point(g, witness.level)


def test_budget_zero_is_empty():
    cert = run_schedule(fixtures.z_star_z(), Budget(steps=0), "empty")
    assert cert["steps"] == [] and cert["deferred"] == []
    assert cert["final_state"]["anchors"] == []
    assert verify_certificate(fixtures.z_star_z(), cert)


@pytest.mark.parametrize("factory", [fixtures.z_star_z, fixtures.surface_group,
                                     fixtures.free2_hnn, fixtures.gaussian_hnn],
                         ids=["z*z", "surface", "f2hnn", "gauss"])
def test_run_schedule_fifty_steps(factory):
    cert = run_schedule(factory(), Budget(steps=50), factory.__name__)
    assert len(cert["steps"]) == 50
    assert cert["deferred"] == []
    ok, reason = verify_certificate_report(factory(), cert)
    assert ok, reason


def test_run_schedule_deterministic():
    a = run_schedule(fixtures.surface_group(), Budget(steps=30), "k")
    b = run_schedule(fixtures.surface_group(), Budget(steps=30), "k")
    assert canon(a) == canon(b)


def test_schedule_covers_both_kinds():
    cert = run_schedule(fixtures.z_star_z(), Budget(steps=20), "k")
    kinds = {s["kind"] for s in cert["steps"]}
    assert kinds == {"transitivity", "faithfulness"}
    sizes = {s["n"] for s in cert["steps"] if s["kind"] == "transitivity"}
    assert 1 in sizes


def test_schedule_eventually_multi_point():
    cert = run_schedule(fixtures.z_star_z(), Budget(steps=120, witness_radius=512), "k")
    sizes = {s["n"] for s in cert["steps"] if s["kind"] == "transitivity"}
    assert 2 in sizes
    assert cert["deferred"] == []


def test_verify_rejects_tampered_anchor():
    cert = run_schedule(fixtures.surface_group(), Budget(steps=12), "k")
    tampered = json.loads(canon(cert))
    for step in tampered["steps"]:
        if step["kind"] == "transitivity":
            step["batch"][0][1][0] = "b2^3"
            break
    ok, reason = verify_certificate_report(fixtures.surface_group(), tampered)
    assert not ok


def test_verify_rejects_tampered_mover():
    cert = run_schedule(fixtures.surface_group(), Budget(steps=12), "k")
    tampered = json.loads(canon(cert))
    for step in tampered["steps"]:
        if step["kind"] == "transitivity":
            step["mover"] = "a1"
            break
    ok, reason = verify_certificate_report(fixtures.surface_group(), tampered)
    assert not ok and "mover" in reason


def test_verify_rejects_faithfulness_level_collision():
    cert = run_schedule(fixtures.surface_group(), Budget(steps=12), "k")
    tampered = json.loads(canon(cert))
    levels = [s for s in tampered["steps"] if s["kind"] == "faithfulness"]
    assert levels
    levels[0]["level"] = 0
    levels[0]["witness"][1] = 0
    levels[0]["image"][1] = 0
    ok, reason = verify_certificate_report(fixtures.surface_group(), tampered)
    assert not ok


def test_verify_rejects_dropped_step():
    cert = run_schedule(fixtures.surface_group(), Budget(steps=12), "k")
    tampered = json.loads(canon(cert))
    tampered["steps"] = tampered["steps"][:-1]
    ok, reason = verify_certificate_report(fixtures.surface_group(), tampered)
    assert not ok and "snapshot" in reason


def test_monotone_invariant_suite():
    """Rebuild certificates step by step; after every step all previously
    discharged postconditions, equivariance and level preservation hold."""
    for factory in (fixtures.surface_group, fixtures.free2_hnn):
        gamma = factory()
        cert = run_schedule(gamma, Budget(steps=40), "k")
        assert cert["deferred"] == []
        replay_gamma = factory()
        problem = EngineProblem(replay_gamma)
        state = problem.new_state()
        history = []
        from hightrans.engine import _parse_point, _verify_faithfulness_step, _verify_transitivity_step
        for step in cert["steps"]:
            if step["kind"] == "transitivity":
                ok, reason = _verify_transitivity_step(problem, state, step)
            else:
                ok, reason = _verify_faithfulness_step(problem, state, step)
            assert ok, reason
            history.append(step)
            assert state.check_equivariance()
            for rep, (x0, y0) in state.anchors.items():
                assert x0.level == y0.level == rep.level
            for past in history:
                if past["kind"] == "transitivity":
                    from hightrans.normal_forms import parse_word
                    mover = parse_word(replay_gamma, past["mover"])
                    for xj, yj in zip(past["xs"], past["ys"]):
                        x = _parse_point(replay_gamma, xj)
                        y = _parse_point(replay_gamma, yj)
                        assert evaluate_pi(state, mover, x) == y
                else:
                    from hightrans.normal_forms import parse_word
                    g = parse_word(replay_gamma, past["element"])
                    w = _parse_point(replay_gamma, past["witness"])
                    img = _parse_point(replay_gamma, past["image"])
                    assert evaluate_pi(state, g, w) == img != w


def test_extend_triple_tuple(surface_problem):
    state = surface_problem.new_state()
    gamma = surface_problem.gamma
    pts = [Point(g, 0) for g in gamma.ball(1)]
    xs = [pts[0], pts[1], pts[3]]
    ys = [pts[5], pts[2], pts[0]]
    mover, _, zs, batch, _ = extend_transitivity(surface_problem, state, xs, ys)
    assert len(zs) == 3 and len(batch) == 12
    for x, y in zip(xs, ys):
        assert evaluate_pi(state, mover, x) == y
    assert state.check_equivariance()


def test_non_core_free_edge_defers():
    # an improper edge subgroup (the whole base) starves the witness
    # searches: a whole level is one subgroup orbit, so every transitivity
    # requirement defers with a diagnostic while faithfulness still works
    bs = fixtures.bs12()
    cert = run_schedule(bs, Budget(steps=12, witness_radius=6), "bs12")
    trans_done = [s for s in cert["steps"] if s["kind"] == "transitivity"]
    assert trans_done == []
    assert all(s["kind"] == "faithfulness" for s in cert["steps"])
    assert cert["deferred"]
    assert all("radius" in d["diagnostic"] for d in cert["deferred"])
    ok, reason = verify_certificate_report(fixtures.bs12(), cert)
    assert ok, reason


def test_deferral_reported_not_fatal():
    cert = run_schedule(fixtures.z_star_z(), Budget(steps=50, witness_radius=3), "k")
    assert cert["deferred"]
    for item in cert["deferred"]:
        assert "diagnostic" in item
    ok, reason = verify_certificate_report(fixtures.z_star_z(), cert)
    assert ok, reason


@pytest.mark.parametrize("path", sorted(PROBLEMS.glob("*.json")), ids=lambda p: p.stem)
def test_committed_orbits_are_the_old_protect_lists(path, monkeypatch):
    """The searches test committed orbits in place; their orbit reps are
    exactly those of the anchor points once listed on every step."""
    problem = EngineProblem(parse_problem(str(path)).build_group()[0])
    checked = []

    def check(state):
        if problem.mode == "amalgam":
            protect = amalgam_protect_list(state)
            assert {problem.action_left.orbit_rep(p) for p in protect} == set(state.anchors)
            assert {problem.action_right.orbit_rep(p) for p in protect} == set(state.anchors)
        else:
            dst, src = hnn_protect_lists(state)
            assert {problem.action_neg.orbit_rep(p) for p in dst} == set(state.dst_index)
            assert {problem.action_pos.orbit_rep(p) for p in src} == set(state.anchors)
        checked.append(len(state.anchors))

    def extend_and_check(problem, state, *args):
        try:
            return extend(problem, state, *args)
        finally:
            check(state)

    extend = engine.extend_transitivity
    monkeypatch.setattr(engine, "extend_transitivity", extend_and_check)
    run_schedule(problem, Budget(steps=200), path.stem)
    assert len(checked) == 100


@pytest.mark.parametrize("name", ["pi1-sigma2", "theta"])
def test_orbit_reps_match_the_embedding(name, monkeypatch):
    """Every orbit rep a 200-step build asks for, the amalgam edge
    subgroup's read off the normal form included, is ``Embedding.rep``'s.
    The build runs under the shortlex-first rule, whose searches ask for
    far more reps than the wrap-around cursor's."""
    queried = Counter()
    rep_map = action.orbit_rep_map

    def checked_rep_map(embedding):
        rep = rep_map(embedding)

        def checked(point):
            out = rep(point)
            assert out == action.orbit_rep(embedding, point)
            queried[embedding.target.kind] += 1
            return out
        return checked

    monkeypatch.setattr(action, "orbit_rep_map", checked_rep_map)
    gamma = parse_problem(str(PROBLEMS / f"{name}.json")).build_group()[0]
    with shortlex_first_rule():
        run_schedule(gamma, Budget(steps=200), name)
    assert set(queried) == {gamma.kind} and queried[gamma.kind] > 10_000
