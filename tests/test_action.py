import pytest

from hightrans import fixtures
from hightrans.action import (
    IntertwinerState,
    Point,
    StateError,
    allocate_fresh_orbits,
    default_image,
    evaluate_pi,
    evaluate_w,
    orbit_rep,
)

from conftest import random_element


@pytest.fixture
def amalgam_state(surface):
    return IntertwinerState.for_group(surface)


@pytest.fixture
def hnn_state():
    return IntertwinerState.for_group(fixtures.free2_hnn())


def random_point(gamma, rng, max_level=2):
    return Point(random_element(gamma, rng, 4), rng.randrange(max_level + 1))


def test_point_free_action(surface, rng):
    for _ in range(100):
        p = random_point(surface, rng)
        g = random_element(surface, rng, 3)
        moved = p.translate(g)
        assert moved.level == p.level
        if not g.is_identity:
            assert moved != p


def test_default_images(amalgam_state, hnn_state):
    surface = amalgam_state.gamma
    p = Point(surface.generator("a1"), 7)
    assert default_image(amalgam_state, p) == p
    hnn = hnn_state.gamma
    q = Point(hnn.include(hnn.base.generator("a")), 3)
    assert default_image(hnn_state, q) == Point(hnn.stable() * q.g, 3)


def test_default_equivariance_hnn(hnn_state, rng):
    # t sigma = theta(sigma) t makes the default intertwine the two actions
    state = hnn_state
    gamma = state.gamma
    sig = state.sigma_src
    for gen in sig.source.generators():
        s = sig.apply(gen)
        for _ in range(20):
            p = random_point(gamma, rng)
            lhs = state.default_image(p.translate(s))
            rhs = state.default_image(p).translate(state.twist(s))
            assert lhs == rhs


def test_orbit_rep_examples(amalgam_state):
    surface = amalgam_state.gamma
    sig = amalgam_state.sigma_src
    c = sig.apply(sig.source.generator("c"))
    g = surface.generator("a1")
    assert orbit_rep(sig, Point(c * g, 2)) == orbit_rep(sig, Point(g, 2))
    assert orbit_rep(sig, Point(g, 2)) != orbit_rep(sig, Point(g, 3))
    rep = orbit_rep(sig, Point(g, 2))
    assert orbit_rep(sig, rep) == rep


def test_empty_state_is_identity(amalgam_state, rng):
    for _ in range(50):
        p = random_point(amalgam_state.gamma, rng)
        assert evaluate_w(amalgam_state, p) == p
        assert evaluate_w(amalgam_state, p, inverse=True) == p


def test_committed_orbit_equivariance(amalgam_state):
    surface = amalgam_state.gamma
    sig = amalgam_state.sigma_src
    c = sig.apply(sig.source.generator("c"))
    a1 = Point(surface.generator("a1"), 0)
    b1 = Point(surface.generator("b1"), 1)
    amalgam_state.commit_batch([(a1, a1), (b1, b1)])
    moved = Point(c ** 3 * a1.g, 0)
    assert evaluate_w(amalgam_state, moved) == moved
    assert amalgam_state.check_equivariance()


def test_check_equivariance_at_given_anchors(amalgam_state):
    surface = amalgam_state.gamma
    x = Point(surface.generator("a1"), 0)
    y = Point(surface.generator("b1"), 0)
    amalgam_state.commit_batch([(x, y), (y, x)])
    assert amalgam_state.check_equivariance([(x, y)])
    assert amalgam_state.check_equivariance([])
    assert not amalgam_state.check_equivariance([(x, x)])


def test_swap_batch_and_inverse(amalgam_state, rng):
    surface = amalgam_state.gamma
    x = Point(surface.generator("a1"), 0)
    y = Point(surface.generator("b1"), 0)
    amalgam_state.commit_batch([(x, y), (y, x)])
    assert evaluate_w(amalgam_state, x) == y
    assert evaluate_w(amalgam_state, y) == x
    assert evaluate_w(amalgam_state, y, inverse=True) == x
    for _ in range(200):
        p = random_point(surface, rng)
        fwd = evaluate_w(amalgam_state, p)
        assert evaluate_w(amalgam_state, fwd, inverse=True) == p
        assert fwd.level == p.level


def test_hnn_bijectivity_fuzz(hnn_state, rng):
    gamma = hnn_state.gamma
    a = gamma.include(gamma.base.generator("a"))
    b = gamma.include(gamma.base.generator("b"))
    hx = Point(b * a, 0)
    target = hnn_state.dst_orbit(hnn_state.default_image(Point(b, 0)))
    hnn_state.commit_batch([
        (hx, hnn_state.default_image(Point(b, 0))),
        (Point(b, 0), hnn_state.default_image(hx)),
    ])
    for _ in range(300):
        p = random_point(gamma, rng)
        fwd = evaluate_w(hnn_state, p)
        assert evaluate_w(hnn_state, fwd, inverse=True) == p
        bwd = evaluate_w(hnn_state, p, inverse=True)
        assert evaluate_w(hnn_state, bwd) == p


def test_commit_batch_rejects_broken_closure(amalgam_state):
    surface = amalgam_state.gamma
    x = Point(surface.generator("a1"), 0)
    z = Point(surface.generator("b1"), 0)
    with pytest.raises(StateError, match="permute"):
        amalgam_state.commit_batch([(x, z)])


def test_commit_batch_rejects_recommit(amalgam_state):
    surface = amalgam_state.gamma
    x = Point(surface.generator("a1"), 0)
    amalgam_state.commit_batch([(x, x)])
    with pytest.raises(StateError, match="already committed"):
        amalgam_state.commit_batch([(x, x)])


def test_frozen_levels_block_commits(amalgam_state):
    surface = amalgam_state.gamma
    amalgam_state.freeze_level(1)
    x = Point(surface.generator("a1"), 1)
    with pytest.raises(StateError, match="frozen"):
        amalgam_state.commit_batch([(x, x)])


def test_evaluate_pi_identity_and_untouched(amalgam_state, rng):
    surface = amalgam_state.gamma
    for _ in range(50):
        p = random_point(surface, rng)
        assert evaluate_pi(amalgam_state, surface.identity(), p) == p
    g = random_element(surface, rng, 4)
    p = Point(surface.identity(), 5)
    assert evaluate_pi(amalgam_state, g, p) == Point(g, 5)


def test_evaluate_pi_homomorphism(amalgam_state, rng):
    surface = amalgam_state.gamma
    x = Point(surface.generator("a1"), 0)
    y = Point(surface.generator("b1"), 0)
    amalgam_state.commit_batch([(x, y), (y, x)])
    for _ in range(150):
        g = random_element(surface, rng, 3)
        h = random_element(surface, rng, 3)
        p = random_point(surface, rng, 1)
        assert (evaluate_pi(amalgam_state, g * h, p)
                == evaluate_pi(amalgam_state, g, evaluate_pi(amalgam_state, h, p)))


def test_evaluate_pi_homomorphism_hnn(hnn_state, rng):
    gamma = hnn_state.gamma
    for _ in range(150):
        g = random_element(gamma, rng, 3)
        h = random_element(gamma, rng, 3)
        p = random_point(gamma, rng, 1)
        assert (evaluate_pi(hnn_state, g * h, p)
                == evaluate_pi(hnn_state, g, evaluate_pi(hnn_state, h, p)))


def test_commit_mode_pins_defaults(amalgam_state, rng):
    surface = amalgam_state.gamma
    g = surface.generator("a2") * surface.generator("b1")
    p = Point(surface.generator("a1"), 0)
    log = []
    before = evaluate_pi(amalgam_state, g, p)
    after = evaluate_pi(amalgam_state, g, p, commit=True, log=log)
    assert before == after
    assert log, "right-factor syllables must pin the orbits they touch"
    for rep, img in log:
        assert rep in amalgam_state.anchors
        assert amalgam_state.anchors[rep] == (rep, img)


def test_allocate_fresh_orbits_policy(amalgam_state):
    surface = amalgam_state.gamma
    got = allocate_fresh_orbits(amalgam_state, 2)
    assert [p.level for p in got] == [0, 0]
    assert got[0] == Point(surface.identity(), 0)
    assert not got[1].g.is_identity


def test_allocate_skips_frozen_level(amalgam_state):
    amalgam_state.freeze_level(0)
    got = allocate_fresh_orbits(amalgam_state, 1)
    assert got[0].level == 1


def test_allocate_avoids(amalgam_state):
    first = allocate_fresh_orbits(amalgam_state, 3)
    again = allocate_fresh_orbits(amalgam_state, 1, avoid=first)
    assert again[0] not in first
    recomputed = allocate_fresh_orbits(amalgam_state, 4)
    assert recomputed[:3] == first and recomputed[3] == again[0]
