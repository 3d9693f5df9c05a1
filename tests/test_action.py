import pytest

from hightrans.action import StateError, allocate_fresh_orbits, evaluate_pi
from hightrans.engine import EngineProblem

from conftest import random_element, zoo
from oracles import equivariance_by_evaluation


@pytest.fixture
def amalgam_state(surface):
    return EngineProblem(surface).new_state()


@pytest.fixture
def hnn_state():
    return EngineProblem(zoo("free2-hnn").build_group()[0]).new_state()


def random_point(gamma, rng):
    return random_element(gamma, rng, 4)


def test_point_free_action(surface, rng):
    for _ in range(100):
        p = random_point(surface, rng)
        g = random_element(surface, rng, 3)
        if not g.is_identity:
            assert g * p != p


def test_default_images(amalgam_state, hnn_state):
    surface = amalgam_state.gamma
    p = surface.generator("a1")
    assert amalgam_state.default_image(p) == p
    hnn = hnn_state.gamma
    q = hnn.include(hnn.base.generator("a"))
    assert hnn_state.default_image(q) == hnn.stable() * q


def test_default_equivariance_hnn(hnn_state, rng):
    # t sigma = theta(sigma) t makes the default intertwine the two actions
    state = hnn_state
    gamma = state.gamma
    sig = state.sigma_src
    for gen in sig.source.generators():
        s = sig.apply(gen)
        for _ in range(20):
            p = random_point(gamma, rng)
            lhs = state.default_image(s * p)
            rhs = state.twist(s) * state.default_image(p)
            assert lhs == rhs


def test_orbit_rep_examples(amalgam_state):
    surface = amalgam_state.gamma
    sig = amalgam_state.sigma_src
    c = sig.apply(sig.source.generator("c"))
    g = surface.generator("a1")
    assert sig.rep(c * g) == sig.rep(g)
    assert sig.rep(g) != sig.rep(surface.generator("b1") * g)
    rep = sig.rep(g)
    assert sig.rep(rep) == rep
    assert amalgam_state.src_orbit(c * g) == rep


def test_empty_state_is_identity(amalgam_state, rng):
    for _ in range(50):
        p = random_point(amalgam_state.gamma, rng)
        assert amalgam_state.evaluate(p) == p
        assert amalgam_state.evaluate(p, inverse=True) == p


def test_committed_orbit_equivariance(amalgam_state):
    surface = amalgam_state.gamma
    sig = amalgam_state.sigma_src
    c = sig.apply(sig.source.generator("c"))
    a1 = surface.generator("a1")
    b1 = surface.generator("b1")
    amalgam_state.commit_batch([(a1, a1), (b1, b1)])
    moved = c ** 3 * a1
    assert amalgam_state.evaluate(moved) == moved
    assert equivariance_by_evaluation(amalgam_state)


def test_check_equivariance_at_given_anchors(amalgam_state):
    surface = amalgam_state.gamma
    x = surface.generator("a1")
    y = surface.generator("b1")
    amalgam_state.commit_batch([(x, y), (y, x)])
    assert amalgam_state.check_equivariance([(x, y)])
    assert amalgam_state.check_equivariance([])
    assert not amalgam_state.check_equivariance([(x, x)])


def test_swap_batch_and_inverse(amalgam_state, rng):
    surface = amalgam_state.gamma
    x = surface.generator("a1")
    y = surface.generator("b1")
    amalgam_state.commit_batch([(x, y), (y, x)])
    assert amalgam_state.evaluate(x) == y
    assert amalgam_state.evaluate(y) == x
    assert amalgam_state.evaluate(y, inverse=True) == x
    for _ in range(200):
        p = random_point(surface, rng)
        fwd = amalgam_state.evaluate(p)
        assert amalgam_state.evaluate(fwd, inverse=True) == p


def test_hnn_bijectivity_fuzz(hnn_state, rng):
    gamma = hnn_state.gamma
    a = gamma.include(gamma.base.generator("a"))
    b = gamma.include(gamma.base.generator("b"))
    hx = b * a
    hnn_state.commit_batch([
        (hx, hnn_state.default_image(b)),
        (b, hnn_state.default_image(hx)),
    ])
    for _ in range(300):
        p = random_point(gamma, rng)
        fwd = hnn_state.evaluate(p)
        assert hnn_state.evaluate(fwd, inverse=True) == p
        bwd = hnn_state.evaluate(p, inverse=True)
        assert hnn_state.evaluate(bwd) == p


def test_commit_batch_rejects_broken_closure(amalgam_state):
    surface = amalgam_state.gamma
    x = surface.generator("a1")
    z = surface.generator("b1")
    with pytest.raises(StateError, match="permute"):
        amalgam_state.commit_batch([(x, z)])


def test_commit_batch_rejects_recommit(amalgam_state):
    surface = amalgam_state.gamma
    x = surface.generator("a1")
    amalgam_state.commit_batch([(x, x)])
    with pytest.raises(StateError, match="already committed"):
        amalgam_state.commit_batch([(x, x)])


@pytest.fixture(params=["amalgam_state", "hnn_state"])
def any_state(request):
    return request.getfixturevalue(request.param)


def _hostile_points(state):
    """x and y in distinct source orbits, and x2 != x in the orbit of x."""
    gamma = state.gamma
    x = gamma.element_from_word([(gamma.labels[0], 1)])
    y = gamma.element_from_word([(gamma.labels[1], 1)])
    x2 = state.sigma_src.apply(state.sigma_src.source.generators()[0]) * x
    assert state.src_orbit(x) != state.src_orbit(y)
    assert x2 != x and state.src_orbit(x2) == state.src_orbit(x)
    return x, y, x2


def test_commit_batch_rejects_a_committed_target_orbit(any_state):
    """The target orbit of a committed pair is the default image of a
    committed source, so no fresh source has it as its default image."""
    x, y, _ = _hostile_points(any_state)
    any_state.commit_batch([(x, any_state.default_image(x))])
    before = dict(any_state.anchors)
    with pytest.raises(StateError, match="permute"):
        any_state.commit_batch([(y, any_state.default_image(x))])
    assert any_state.anchors == before


def test_commit_batch_rejects_one_source_orbit_twice(any_state):
    """Two sources in one orbit have one default image between them: only
    the distinct-sources check sees the batch."""
    x, _, x2 = _hostile_points(any_state)
    with pytest.raises(StateError, match="source orbits must be pairwise distinct"):
        any_state.commit_batch([(x, any_state.default_image(x)),
                                (x2, any_state.default_image(x))])
    assert not any_state.anchors


def test_commit_batch_rejects_one_target_orbit_twice(any_state):
    """Distinct sources have distinct default images, so two targets in one
    orbit cannot be them as a set."""
    x, y, _ = _hostile_points(any_state)
    with pytest.raises(StateError, match="permute"):
        any_state.commit_batch([(x, any_state.default_image(x)),
                                (y, any_state.default_image(x))])
    assert not any_state.anchors


def test_undo_pops_the_pins_since_a_size_in_both_views(any_state):
    """The pins of a commit-mode evaluation go, newest first, and what was
    committed before stays, item for item and in order, in both views."""
    gamma = any_state.gamma
    x, y, _ = _hostile_points(any_state)
    any_state.commit_batch([(x, any_state.default_image(x))])
    snapshot = list(any_state.anchors.items()), list(any_state.dst_index.items())
    g = gamma.element_from_word([(label, 1) for label in gamma.labels] * 2)
    evaluate_pi(any_state, g, y, commit=True)
    assert len(any_state.anchors) >= len(snapshot[0]) + 2
    any_state.undo(len(snapshot[0]))
    assert (list(any_state.anchors.items()), list(any_state.dst_index.items())) == snapshot


def test_evaluate_pi_identity_and_untouched(amalgam_state, rng):
    surface = amalgam_state.gamma
    for _ in range(50):
        p = random_point(surface, rng)
        assert evaluate_pi(amalgam_state, surface.identity(), p) == p
    g = random_element(surface, rng, 4)
    assert evaluate_pi(amalgam_state, g, surface.identity()) == g


def test_evaluate_pi_homomorphism(amalgam_state, rng):
    surface = amalgam_state.gamma
    x = surface.generator("a1")
    y = surface.generator("b1")
    amalgam_state.commit_batch([(x, y), (y, x)])
    for _ in range(150):
        g = random_element(surface, rng, 3)
        h = random_element(surface, rng, 3)
        p = random_point(surface, rng)
        assert (evaluate_pi(amalgam_state, g * h, p)
                == evaluate_pi(amalgam_state, g, evaluate_pi(amalgam_state, h, p)))


def test_evaluate_pi_homomorphism_hnn(hnn_state, rng):
    gamma = hnn_state.gamma
    for _ in range(150):
        g = random_element(gamma, rng, 3)
        h = random_element(gamma, rng, 3)
        p = random_point(gamma, rng)
        assert (evaluate_pi(hnn_state, g * h, p)
                == evaluate_pi(hnn_state, g, evaluate_pi(hnn_state, h, p)))


def test_commit_mode_pins_defaults(amalgam_state, rng):
    surface = amalgam_state.gamma
    g = surface.generator("a2") * surface.generator("b1")
    p = surface.generator("a1")
    anchors = dict(amalgam_state.anchors)
    before = evaluate_pi(amalgam_state, g, p)
    after = evaluate_pi(amalgam_state, g, p, commit=True)
    assert before == after
    pins = {rep: pair for rep, pair in amalgam_state.anchors.items() if rep not in anchors}
    assert pins, "right-factor syllables must pin the orbits they touch"
    for rep, pair in pins.items():
        assert pair == (rep, amalgam_state.default_image(rep))


def test_allocate_fresh_orbits_policy(amalgam_state):
    surface = amalgam_state.gamma
    got = allocate_fresh_orbits(amalgam_state, 2)
    assert got[0] == surface.identity()
    assert not got[1].is_identity
    assert all(amalgam_state.src_orbit(p) == p for p in got)


def test_allocate_avoids(amalgam_state):
    first = allocate_fresh_orbits(amalgam_state, 3)
    again = allocate_fresh_orbits(amalgam_state, 1, avoid=first)
    assert again[0] not in first
    recomputed = allocate_fresh_orbits(amalgam_state, 4)
    assert recomputed[:3] == first and recomputed[3] == again[0]
