import copy
import inspect
import json
from collections import Counter

import pytest

from hightrans import action, engine
from hightrans.action import evaluate_pi
from hightrans.engine import (
    Budget,
    EngineProblem,
    ensure_faithful,
    extend_transitivity,
    run_schedule,
    verify_certificate_report,
)
from hightrans.groups import Element
from hightrans.normal_forms import parse_word

from conftest import PROBLEMS, zoo
from oracles import (amalgam_protect_list, distinct_tuples_by_list, equivariance_by_evaluation,
                     hnn_protect_lists, replay_steps, schedule_by_two_walks, shortlex_first_rule)


# the builder's witness radius, for the tests that call a step directly
RADIUS = Budget(steps=0).witness_radius


def canon(cert):
    return json.dumps(cert, sort_keys=True)


def rewired(state):
    """The committed anchor pairs that are not default pins."""
    return [(x0, y0) for x0, y0 in state.anchors.values() if y0 != state.default_image(x0)]


def pins_of(state, before):
    """The anchor pairs committed since ``before``, a copy of the anchors."""
    return [pair for rep, pair in state.anchors.items() if rep not in before]


@pytest.fixture
def surface_problem():
    return EngineProblem(zoo("pi1-sigma2").build_group()[0])


@pytest.fixture
def hnn_problem():
    return EngineProblem(zoo("free2-hnn").build_group()[0])


def test_extend_identity_pair(surface_problem):
    state = surface_problem.new_state()
    x = surface_problem.gamma.identity()
    mover, _, _ = extend_transitivity(surface_problem, state, [x], [x], RADIUS)
    assert evaluate_pi(state, mover, x) == x


def test_extend_moves_point_hnn(hnn_problem):
    state = hnn_problem.new_state()
    gamma = hnn_problem.gamma
    x = gamma.identity()
    y = gamma.include(gamma.base.generator("b"))
    mover, _, _ = extend_transitivity(hnn_problem, state, [x], [y], RADIUS)
    assert evaluate_pi(state, mover, x) == y


def test_extend_pair_surface(surface_problem):
    state = surface_problem.new_state()
    gamma = surface_problem.gamma
    xs = [gamma.identity(), gamma.generator("a1")]
    ys = [gamma.generator("b2"), gamma.generator("b1")]
    before = len(state.anchors)
    mover, witnesses, zs = extend_transitivity(surface_problem, state, xs, ys, RADIUS)
    assert len(zs) == 2
    assert len(rewired(state)) == 8
    assert len(state.anchors) >= before + 8
    for x, y in zip(xs, ys):
        assert evaluate_pi(state, mover, x) == y


def test_extend_rejects_bad_tuples(surface_problem):
    state = surface_problem.new_state()
    gamma = surface_problem.gamma
    p = gamma.identity()
    q = gamma.generator("a1")
    r = gamma.generator("b1")
    with pytest.raises(ValueError, match="distinct"):
        extend_transitivity(surface_problem, state, [p, p], [q, r], RADIUS)
    with pytest.raises(ValueError, match="length"):
        extend_transitivity(surface_problem, state, [p], [q, r], RADIUS)
    with pytest.raises(ValueError, match="non-empty"):
        extend_transitivity(surface_problem, state, [], [], RADIUS)


def test_prior_postconditions_survive(surface_problem, rng):
    state = surface_problem.new_state()
    gamma = surface_problem.gamma
    discharged = []
    pts = gamma.ball(1)
    pairs = [([pts[0]], [pts[1]]), ([pts[2]], [pts[3]]),
             ([pts[1], pts[4]], [pts[5], pts[0]]), ([pts[6]], [pts[6]])]
    for xs, ys in pairs:
        mover, _, _ = extend_transitivity(surface_problem, state, xs, ys, RADIUS)
        discharged.append((mover, xs, ys))
        for m, mxs, mys in discharged:
            for x, y in zip(mxs, mys):
                assert evaluate_pi(state, m, x) == y
        assert equivariance_by_evaluation(state)


def test_ensure_faithful(surface_problem):
    state = surface_problem.new_state()
    gamma = surface_problem.gamma
    g = gamma.generator("a1")
    # on an empty state pi(g) is left multiplication: the identity moves
    witness, image = ensure_faithful(surface_problem, state, g, RADIUS)
    assert witness == gamma.identity() and image == g
    assert not state.anchors
    # a transitivity step commits orbits; the witness is the first point
    # in shortlex order that pi(g) moves, and the pins keep it moved
    xs, ys = [gamma.identity()], [gamma.generator("b2")]
    mover, *_ = extend_transitivity(surface_problem, state, xs, ys, RADIUS)
    g = gamma.generator("b1")
    first = next(x for x in gamma.iter_shortlex() if evaluate_pi(state, g, x) != x)
    before = dict(state.anchors)
    witness, image = ensure_faithful(surface_problem, state, g, RADIUS)
    assert witness == first and image == evaluate_pi(state, g, witness) != witness
    assert all(y0 == state.default_image(x0) for x0, y0 in pins_of(state, before))
    assert evaluate_pi(state, mover, xs[0]) == ys[0]
    with pytest.raises(ValueError):
        ensure_faithful(surface_problem, state, gamma.identity(), RADIUS)


def test_ensure_faithful_syllable_word(hnn_problem):
    state = hnn_problem.new_state()
    gamma = hnn_problem.gamma
    g = gamma.stable() * gamma.include(gamma.base.generator("a")) * gamma.stable()
    witness, image = ensure_faithful(hnn_problem, state, g, RADIUS)
    assert witness == gamma.identity() and image == g
    # the stable letters pinned the orbits they passed through
    pins = pins_of(state, {})
    assert pins and all(y0 == state.default_image(x0) for x0, y0 in pins)
    assert evaluate_pi(state, g, witness) == image


def test_ensure_faithful_raises_when_the_ball_is_fixed(surface_problem, monkeypatch):
    """No deferral path: a ball in which pi(g) fixes every point is an
    engine fault."""
    state = surface_problem.new_state()
    monkeypatch.setattr(engine, "evaluate_pi", lambda state, g, x, **kw: x)
    with pytest.raises(engine.EngineError, match="radius 2"):
        ensure_faithful(surface_problem, state, surface_problem.gamma.generator("a1"), 2)


def views(state):
    """Both views of the committed anchors, item for item and in order."""
    return list(state.anchors.items()), list(state.dst_index.items())


def test_ensure_faithful_undoes_the_pins_of_a_fixed_candidate(surface_problem, monkeypatch):
    """A first candidate that pins orbits, a fresh one among them, and is
    then found fixed leaves no pin behind: the state ends as a copy on
    which only ``faithfulness_step`` at the witness ran."""
    gamma = surface_problem.gamma
    g = gamma.generator("a2")
    far = gamma.element_from_word([("b1", 3), ("a2", 2)])
    state, copy_ = surface_problem.new_state(), surface_problem.new_state()
    for s in (state, copy_):
        extend_transitivity(surface_problem, s, [gamma.identity()], [gamma.generator("b2")],
                            RADIUS)
    step, tried = engine.faithfulness_step, []

    def pin_then_fix(state, g, x):
        tried.append(x)
        if len(tried) > 1:
            return step(state, g, x)
        size = len(state.anchors)
        state.evaluate(far, commit=True)
        step(state, g, x)
        assert len(state.anchors) > size + 1
        raise engine.EngineError("the element fixes the witness point")

    monkeypatch.setattr(engine, "faithfulness_step", pin_then_fix)
    witness, image = ensure_faithful(surface_problem, state, g, RADIUS)
    assert len(tried) == 2 and witness == tried[1]
    assert step(copy_, g, witness) == image
    assert state.src_orbit(far) not in copy_.anchors
    assert views(state) == views(copy_)


@pytest.mark.parametrize("name", ["z-star-z", "z2-z3", "planted-finite-vertex"])
def test_a_ball_that_pi_fixes_leaves_the_state_unchanged(name, monkeypatch):
    """In a 200-step build, wherever pi(g) fixes the identity, every point
    of the ball below its first moved point is a candidate that pi(g)
    fixes: ensure_faithful over that ball raises and leaves both views as
    they were.  The witness is the first moved point found by evaluating
    without pinning."""
    problem = EngineProblem(zoo(name).build_group()[0])
    real, fixed_balls = engine.ensure_faithful, []

    def checked(problem, state, g, radius):
        first = next(x for x in problem.gamma.iter_shortlex() if evaluate_pi(state, g, x) != x)
        if not first.is_identity:
            before = views(state)
            with pytest.raises(engine.EngineError, match="fixes every point"):
                real(problem, state, g, first.length() - 1)
            assert views(state) == before
            fixed_balls.append(first.length())
        witness, image = real(problem, state, g, radius)
        assert witness == first
        return witness, image

    monkeypatch.setattr(engine, "ensure_faithful", checked)
    run_schedule(problem, Budget(steps=200), name)
    assert fixed_balls


@pytest.mark.parametrize("name", ["z-star-z", "z2-z3", "planted-finite-vertex"])
def test_ensure_faithful_evaluates_each_candidate_once(name, monkeypatch):
    """Inside ensure_faithful, pi is evaluated once per candidate tried,
    the witness's own pinned evaluation included, in a 200-step build:
    as many calls as the witnesses' shortlex positions, counted from 1."""
    problem = EngineProblem(zoo(name).build_group()[0])
    gamma = problem.gamma
    real_faithful, real_evaluate = engine.ensure_faithful, engine.evaluate_pi
    inside, calls, witnesses = [False], [0], []

    def counting_evaluate(*args, **kw):
        calls[0] += inside[0]
        return real_evaluate(*args, **kw)

    def counting_faithful(*args):
        inside[0] = True
        try:
            witness, image = real_faithful(*args)
        finally:
            inside[0] = False
        witnesses.append(witness)
        return witness, image

    monkeypatch.setattr(engine, "evaluate_pi", counting_evaluate)
    monkeypatch.setattr(engine, "ensure_faithful", counting_faithful)
    run_schedule(problem, Budget(steps=200), name)
    positions = [next(k for k, x in enumerate(gamma.iter_shortlex(), 1) if x == w)
                 for w in witnesses]
    assert len(witnesses) == 100 and sum(positions) > len(witnesses)
    assert calls[0] == sum(positions)


def test_budget_zero_is_empty():
    cert = run_schedule(EngineProblem(zoo("z-star-z").build_group()[0]), Budget(steps=0), "empty")
    assert cert["steps"] == [] and cert["deferred"] == []
    assert set(cert) == {"format", "problem", "group", "mode", "budget", "steps", "deferred"}
    assert verify_certificate_report(zoo("z-star-z").build_group()[0], cert) == (True, "ok")


@pytest.mark.parametrize("name", ["z-star-z", "pi1-sigma2", "free2-hnn", "gaussian-hnn"],
                         ids=["z*z", "surface", "f2hnn", "gauss"])
def test_run_schedule_fifty_steps(name):
    cert = run_schedule(EngineProblem(zoo(name).build_group()[0]), Budget(steps=50), name)
    assert len(cert["steps"]) == 50
    assert cert["deferred"] == []
    ok, reason = verify_certificate_report(zoo(name).build_group()[0], cert)
    assert ok, reason


def test_run_schedule_deterministic():
    a = run_schedule(EngineProblem(zoo("pi1-sigma2").build_group()[0]), Budget(steps=30), "k")
    b = run_schedule(EngineProblem(zoo("pi1-sigma2").build_group()[0]), Budget(steps=30), "k")
    assert canon(a) == canon(b)


def test_schedule_covers_both_kinds():
    cert = run_schedule(EngineProblem(zoo("z-star-z").build_group()[0]), Budget(steps=20), "k")
    kinds = {s["kind"] for s in cert["steps"]}
    assert kinds == {"transitivity", "faithfulness"}
    sizes = {s["n"] for s in cert["steps"] if s["kind"] == "transitivity"}
    assert 1 in sizes


def test_schedule_formats_each_point_once(monkeypatch):
    """The schedule keeps each element of Gamma beside its text: at 300
    steps on pi1-sigma2 the transitivity requirements name 510 points, 9 of
    them distinct, the faithfulness requirements 150 elements, and each
    distinct element, point or faithfulness element, is formatted once."""
    problem = EngineProblem(zoo("pi1-sigma2").build_group()[0])
    formatted = Counter()
    to_text = Element.__str__
    monkeypatch.setattr(Element, "__str__", lambda x: formatted.update([x]) or to_text(x))
    heads = [head for head, _ in engine._schedule(problem, 300)]
    points = {p for h in heads if h["kind"] == "transitivity" for p in h["xs"] + h["ys"]}
    elements = {h["element"] for h in heads if h["kind"] == "faithfulness"}
    named = sum(len(h["xs"]) + len(h["ys"]) for h in heads if h["kind"] == "transitivity")
    assert (named, len(points), len(elements)) == (510, 9, 150)
    assert set(formatted.values()) == {1}
    assert len(formatted) == len(points | elements) == 151


@pytest.mark.parametrize("n", range(1, 7))
def test_distinct_tuples_match_the_list_oracle(n):
    for total in range(30):
        assert list(engine._distinct_tuples(n, total)) == distinct_tuples_by_list(n, total)


def test_distinct_tuples_yield_before_listing():
    """At n = 9 and sum 47 the list holds 725,760 tuples; the first comes at once."""
    assert inspect.isgeneratorfunction(engine._distinct_tuples)
    assert next(engine._distinct_tuples(9, 47)) == (1, 2, 3, 4, 5, 6, 7, 8, 11)


@pytest.mark.parametrize("name", ["pi1-sigma2", "theta"])
def test_schedule_matches_the_two_walk_oracle(name):
    """One walk of Gamma serves points and faithfulness elements alike: the
    first 2,000 heads and payloads are the old schedule's, and no
    transitivity requirement repeats."""
    problem = EngineProblem(zoo(name).build_group()[0])
    schedule = list(engine._schedule(problem, 2000))
    assert schedule == list(schedule_by_two_walks(problem, 2000))
    pairs = [(tuple(h["xs"]), tuple(h["ys"])) for h, _ in schedule if h["kind"] == "transitivity"]
    assert len(set(pairs)) == len(pairs) == 1000


def test_schedule_eventually_multi_point():
    cert = run_schedule(EngineProblem(zoo("z-star-z").build_group()[0]),
                        Budget(steps=120, witness_radius=512), "k")
    sizes = {s["n"] for s in cert["steps"] if s["kind"] == "transitivity"}
    assert 2 in sizes
    assert cert["deferred"] == []


def test_verify_rejects_tampered_anchor():
    """A fresh class in the orbit of another batch point, a missing fresh
    class, a changed witness or a wrong tuple length is rejected at its own
    step.  (Another fresh class would give another valid rewiring.)"""
    cert = run_schedule(EngineProblem(zoo("pi1-sigma2").build_group()[0]), Budget(steps=12), "k")
    for field, value in [("zs", ["a1"]), ("zs", []), ("n", 2),
                         ("witnesses", {"g1": "a1", "g2": "a1", "h": "a2^2"})]:
        tampered = json.loads(canon(cert))
        step = tampered["steps"][0]
        assert step["kind"] == "transitivity" and step[field] != value
        step[field] = value
        ok, reason = verify_certificate_report(zoo("pi1-sigma2").build_group()[0], tampered)
        assert not ok and reason.startswith("step 0: "), (field, value)


def test_verify_rejects_tampered_mover():
    cert = run_schedule(EngineProblem(zoo("pi1-sigma2").build_group()[0]), Budget(steps=12), "k")
    tampered = json.loads(canon(cert))
    for step in tampered["steps"]:
        if step["kind"] == "transitivity":
            step["mover"] = "a1"
            break
    ok, reason = verify_certificate_report(zoo("pi1-sigma2").build_group()[0], tampered)
    assert not ok and "mover" in reason


@pytest.mark.parametrize("updates, message", [
    ({"witness": "b a"}, "image does not match"),
    ({"image": "b a"}, "image does not match"),
    ({"element": "b a", "image": "b a"}, "not the requirement scheduled"),
    ({"witness": "e0"}, "image does not match"),
], ids=["witness", "image", "element", "witness-is-the-image"])
def test_verify_rejects_tampered_faithfulness_step(updates, message):
    """The step for the stable letter e0, whose witness's evaluation pins an
    orbit.  Another element with its true image replays, but is not the
    element the schedule has at that index."""
    cert = run_schedule(EngineProblem(zoo("free2-hnn").build_group()[0]), Budget(steps=12), "k")
    tampered = json.loads(canon(cert))
    step = next(s for s in tampered["steps"] if s.get("element") == "e0")
    assert step["image"] == "e0" and all(step[k] != v for k, v in updates.items())
    step.update(updates)
    ok, reason = verify_certificate_report(zoo("free2-hnn").build_group()[0], tampered)
    assert not ok and reason.startswith(f"step {step['index']}: {message}")


def test_verify_pins_what_a_faithfulness_witness_touches():
    """The replay of a faithfulness witness pins the default orbits its
    evaluation touches, as the build does: a later batch that rewires one
    of them is rejected at its own step."""
    cert = run_schedule(EngineProblem(zoo("pi1-sigma2").build_group()[0]), Budget(steps=40), "k")
    problem = EngineProblem(zoo("pi1-sigma2").build_group()[0])
    state = problem.new_state()
    before = dict(state.anchors)
    for k, (step, result) in enumerate(replay_steps(problem, state, cert)):
        assert result == (True, "ok")
        if step["kind"] == "faithfulness":
            pins = pins_of(state, before)
            if pins:
                break
        before = dict(state.anchors)
    later = next(s for s in cert["steps"][k + 1:] if s["kind"] == "transitivity")
    tampered = json.loads(canon(cert))
    tampered["steps"][cert["steps"].index(later)]["zs"][0] = str(pins[0][0])
    ok, reason = verify_certificate_report(zoo("pi1-sigma2").build_group()[0], tampered)
    assert not ok and reason.startswith(f"step {later['index']}: batch rejected: ")
    assert "already committed" in reason


def test_verify_rejects_a_fixed_faithfulness_witness():
    """In z-star-z, pi(a b^-1) fixes the point a when step 13 schedules
    that element: recorded as its witness, with the true image, the point
    is rejected."""
    cert = run_schedule(EngineProblem(zoo("z-star-z").build_group()[0]), Budget(steps=14), "k")
    problem = EngineProblem(zoo("z-star-z").build_group()[0])
    state = problem.new_state()
    for step, result in replay_steps(problem, state, cert):
        assert result == (True, "ok")
    gamma = problem.gamma
    assert (step["index"], step["element"]) == (13, "a b^-1")
    a = gamma.generator("a")
    assert evaluate_pi(state, parse_word(gamma, step["element"]), a) == a
    tampered = json.loads(canon(cert))
    tampered["steps"][-1].update(witness="a", image="a")
    ok, reason = verify_certificate_report(zoo("z-star-z").build_group()[0], tampered)
    assert (ok, reason) == (False, "step 13: the element fixes the witness point")


def test_verify_rejects_other_certificate_formats():
    cert = run_schedule(EngineProblem(zoo("pi1-sigma2").build_group()[0]), Budget(steps=12), "k")
    for fmt in (1, None, "3", 2):
        tampered = json.loads(canon(cert))
        tampered["format"] = fmt
        ok, reason = verify_certificate_report(zoo("pi1-sigma2").build_group()[0], tampered)
        assert not ok and reason.startswith("unsupported certificate format")


def test_verify_rejects_dropped_step():
    cert = run_schedule(EngineProblem(zoo("pi1-sigma2").build_group()[0]), Budget(steps=12), "k")
    tampered = json.loads(canon(cert))
    tampered["steps"] = tampered["steps"][:-1]
    ok, reason = verify_certificate_report(zoo("pi1-sigma2").build_group()[0], tampered)
    assert (ok, reason) == (False, "schedule: 11 steps and 0 deferrals for a budget of 12 steps")


def test_monotone_invariant_suite():
    """Rebuild certificates step by step; after every step all previously
    discharged postconditions and equivariance hold."""
    for name in ("pi1-sigma2", "free2-hnn"):
        gamma = zoo(name).build_group()[0]
        cert = run_schedule(EngineProblem(gamma), Budget(steps=40), "k")
        assert cert["deferred"] == []
        replay_gamma = zoo(name).build_group()[0]
        problem = EngineProblem(replay_gamma)
        state = problem.new_state()
        history = []
        for step, (ok, reason) in replay_steps(problem, state, cert):
            assert ok, reason
            history.append(step)
            assert equivariance_by_evaluation(state)
            for past in history:
                if past["kind"] == "transitivity":
                    mover = parse_word(replay_gamma, past["mover"])
                    for xj, yj in zip(past["xs"], past["ys"]):
                        x = parse_word(replay_gamma, xj)
                        y = parse_word(replay_gamma, yj)
                        assert evaluate_pi(state, mover, x) == y
                else:
                    g = parse_word(replay_gamma, past["element"])
                    w = parse_word(replay_gamma, past["witness"])
                    img = parse_word(replay_gamma, past["image"])
                    assert evaluate_pi(state, g, w) == img != w


def test_extend_triple_tuple(surface_problem):
    state = surface_problem.new_state()
    gamma = surface_problem.gamma
    pts = gamma.ball(1)
    xs = [pts[0], pts[1], pts[3]]
    ys = [pts[5], pts[2], pts[0]]
    mover, _, zs = extend_transitivity(surface_problem, state, xs, ys, RADIUS)
    assert len(zs) == 3 and len(rewired(state)) == 12
    for x, y in zip(xs, ys):
        assert evaluate_pi(state, mover, x) == y
    assert equivariance_by_evaluation(state)


def test_non_core_free_edge_defers():
    # an improper edge subgroup (the whole base) starves the witness
    # searches: the base moves no point off its own subgroup orbit, so every
    # transitivity requirement defers with a diagnostic while faithfulness
    # still works
    bs = zoo("bs12").build_group()[0]
    cert = run_schedule(EngineProblem(bs), Budget(steps=12, witness_radius=6), "bs12")
    trans_done = [s for s in cert["steps"] if s["kind"] == "transitivity"]
    assert trans_done == []
    assert all(s["kind"] == "faithfulness" for s in cert["steps"])
    assert cert["deferred"]
    assert all("radius" in d["diagnostic"] for d in cert["deferred"])
    ok, reason = verify_certificate_report(zoo("bs12").build_group()[0], cert)
    assert ok, reason


def test_deferral_reported_not_fatal():
    cert = run_schedule(EngineProblem(zoo("z-star-z").build_group()[0]),
                        Budget(steps=50, witness_radius=3), "k")
    assert cert["deferred"]
    for item in cert["deferred"]:
        assert "diagnostic" in item
    ok, reason = verify_certificate_report(zoo("z-star-z").build_group()[0], cert)
    assert ok, reason


@pytest.mark.parametrize("path", sorted(PROBLEMS.glob("*.json")), ids=lambda p: p.stem)
def test_committed_orbits_are_the_old_protect_lists(path, monkeypatch):
    """The searches test committed orbits in place; their orbit reps are
    exactly those of the anchor points once listed on every step."""
    problem = EngineProblem(zoo(path.stem).build_group()[0])
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
            assert out == embedding.rep(point)
            queried[embedding.target.kind] += 1
            return out
        return checked

    monkeypatch.setattr(action, "orbit_rep_map", checked_rep_map)
    gamma = zoo(name).build_group()[0]
    with shortlex_first_rule():
        run_schedule(EngineProblem(gamma), Budget(steps=200), name)
    assert set(queried) == {gamma.kind} and queried[gamma.kind] > 10_000


def _detached(state):
    """A copy of ``state`` whose commits leave the original as it was."""
    twin = copy.copy(state)
    twin.anchors, twin.dst_index = dict(state.anchors), dict(state.dst_index)
    return twin


@pytest.mark.parametrize("name", ["pi1-sigma2", "theta", "free2-hnn"])
def test_a_committed_batch_carries_its_tuple(name):
    """Witnesses off the search's path: with each witness of each
    transitivity step of a 40-step build replaced by each other element of
    its factor's ball(1), the step either rejects its batch or carries xs
    to ys, and the certificate cut after that step, recording the rebuilt
    mover, verifies.  On these trials a committed batch implies the mover
    check of ``transitivity_step``, which stays as the builder's fault
    detector."""
    problem = EngineProblem(zoo(name).build_group()[0])
    gamma, steps = problem.gamma, 40
    cert = run_schedule(problem, Budget(steps=steps), name)
    payloads = {head["index"]: payload for head, payload in engine._schedule(problem, steps)}
    state = problem.new_state()
    outcomes = Counter()
    before = _detached(state)
    for step, result in replay_steps(problem, state, cert):
        assert result == (True, "ok")
        if step["kind"] == "transitivity":
            _, xs, ys = payloads[step["index"]]
            zs = [parse_word(gamma, z) for z in step["zs"]]
            chosen = {key: parse_word(getattr(gamma, factor), step["witnesses"][key])
                      for key, factor in engine._WITNESS_FACTORS[problem.mode]}
            for key, factor in engine._WITNESS_FACTORS[problem.mode]:
                for w in getattr(gamma, factor).ball(1):
                    if w == chosen[key]:
                        continue
                    trial = _detached(before)
                    try:
                        mover, _ = engine.transitivity_step(
                            problem, trial, xs, ys, {**chosen, key: w}, zs)
                    except engine.EngineError as exc:
                        assert str(exc).startswith("batch rejected: ")
                        outcomes["rejected"] += 1
                        continue
                    assert all(evaluate_pi(trial, mover, x) == y for x, y in zip(xs, ys))
                    entry = {**step, "witnesses": {**step["witnesses"], key: str(w)},
                             "mover": str(mover)}
                    cut = {**cert, "budget": {**cert["budget"], "steps": step["index"] + 1},
                           "steps": [s for s in cert["steps"] if s["index"] < step["index"]]
                           + [entry],
                           "deferred": [d for d in cert["deferred"] if d["index"] < step["index"]]}
                    assert verify_certificate_report(gamma, cut) == (True, "ok")
                    outcomes["committed"] += 1
        before = _detached(state)
    assert outcomes["rejected"] and outcomes["committed"], outcomes
