"""Deterministic construction of a faithful, highly transitive action.

The engine discharges two kinds of requirements against an intertwiner
state over X = Gamma, on the one set that the action is both faithful and
highly transitive on:

  * transitivity(xs, ys): find witnesses in the factor/base groups, commit
    a fresh orbit batch that swaps default images, and return a mover g
    with pi(g) xs = ys pointwise;
  * faithfulness(g): walk Gamma in shortlex order from the identity to the
    first point x with pi(g) x != x, pinning the default orbits its
    evaluation touches so that pi(g) x stays put forever.  A point whose
    syllable path meets no committed orbit has pi(g) x = g x != x, and
    such points exist because Gamma is no finite union of cosets of
    infinite-index subgroups (B. H. Neumann's lemma).

Requirements are dovetailed in a fixed diagonal order, so every tuple and
every group element is eventually scheduled.  A witness search walks the
shortlex ball of the budget's radius from just past the run's last witness
in the same group, wrapping round to the identity; only when the whole
ball is exhausted does it defer the requirement, with a diagnostic instead
of failing the run, which is exactly the observable trace of a misjudged
core-freeness hypothesis.

States only ever extend.  Postcondition replays pin every default orbit
they touch, so once a requirement is discharged it holds in all later
states.  A certificate records only the choices of each step: the
witnesses and fresh classes of a transitivity step, the witness point of a
faithfulness step, and the mover or image that the step claims.  The
verifier re-derives the schedule, every batch, every pin and the final
state from them without re-running any search.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .action import (IntertwinerState, LevelAction, StateError, allocate_fresh_orbits,
                     evaluate_pi)
from .groups import UndecidedError
from .hcf import SearchCursor, search_E_set
from .normal_forms import parse_word


logger = logging.getLogger(__name__)


class EngineError(RuntimeError):
    """An internal engine invariant failed; indicates a bug, not an input."""


class DeferredRequirement(Exception):
    """A witness search exhausted its ball; the message is the diagnostic."""


# the certificate layout: points are words of Gamma, steps record choices only
CERTIFICATE_FORMAT = 3


@dataclass(frozen=True)
class Budget:
    steps: int
    witness_radius: int = 64

    def __post_init__(self):
        if type(self.steps) is not int or self.steps < 0:
            raise ValueError(f"steps must be a non-negative integer, got {self.steps!r}")
        if type(self.witness_radius) is not int or self.witness_radius < 1:
            raise ValueError(f"witness_radius must be a positive integer, "
                             f"got {self.witness_radius!r}")

    def as_dict(self):
        return {"steps": self.steps, "witness_radius": self.witness_radius}


class EngineProblem:
    """An infinite amalgam or HNN group wired up for the engine.

    A finite one fixes a vertex of its tree, and its points run out, so
    it is refused rather than searched for ever.
    """

    def __init__(self, gamma):
        if gamma.kind not in ("amalgam", "hnn"):
            raise ValueError(f"group {gamma.name!r} is neither an amalgam nor an HNN extension")
        if gamma.is_finite():
            raise ValueError(f"{gamma.name!r} is finite, so it fixes a vertex of its tree")
        self.gamma = gamma
        self.mode = gamma.kind
        if self.mode == "amalgam":
            sigma = gamma.sigma_embedding()
            self.action_left = LevelAction(gamma.left, lambda h, g: gamma.include(0, h, g),
                                           sigma, gamma.edge_left)
            self.action_right = LevelAction(gamma.right, lambda h, g: gamma.include(1, h, g),
                                            sigma, gamma.edge_right)
            self._sigmas = (sigma, sigma)
        else:
            self.action_pos = LevelAction(gamma.base, gamma.include, gamma.sigma_embedding(1),
                                          gamma.edge_r)
            self.action_neg = LevelAction(gamma.base, gamma.include, gamma.sigma_embedding(-1),
                                          gamma.edge_s)
            self._sigmas = (self.action_pos.sigma, self.action_neg.sigma)

    def new_state(self):
        """A fresh intertwiner over the embeddings of Sigma chosen above."""
        return IntertwinerState(self.gamma, *self._sigmas)


def _check_tuples(xs, ys):
    if len(xs) != len(ys):
        raise ValueError("transitivity tuples must have the same length")
    if not xs:
        raise ValueError("transitivity tuples must be non-empty")
    if len(set(xs)) != len(xs) or len(set(ys)) != len(ys):
        raise ValueError("tuple entries must be pairwise distinct")


def transitivity_batch(problem, state, xs, ys, witnesses, zs):
    """The swap batch and the mover of one transitivity step; pure.

    Amalgam mode, witnesses g1, g2 in the left factor and h in the right
    one, fresh classes zs: the four-way swap of g1 xs, zs, g2^-1 ys and
    h zs, mover g2 h g1.  HNN mode, witnesses g, h in the base: the
    two-way swap of h xs with g^-1 ys, mover g t h.  The builder and the
    verifier both take the batch and the mover from here.
    """
    gamma = problem.gamma
    if problem.mode == "amalgam":
        g1, g2, h = witnesses["g1"], witnesses["g2"], witnesses["h"]
        g1x = [problem.action_left.act(g1, x) for x in xs]
        g2y = [problem.action_left.act(g2.inverse(), y) for y in ys]
        hz = [problem.action_right.act(h, z) for z in zs]
        batch = [*zip(g1x, zs), *zip(g2y, hz), *zip(zs, g1x), *zip(hz, g2y)]
        return batch, gamma.include(0, g2) * gamma.include(1, h) * gamma.include(0, g1)
    g, h = witnesses["g"], witnesses["h"]
    ginv_y = [problem.action_neg.act(g.inverse(), y) for y in ys]
    hx = [problem.action_pos.act(h, x) for x in xs]
    batch = [*zip(hx, ginv_y),
             *((state.default_preimage(b), state.default_image(a)) for a, b in zip(hx, ginv_y))]
    return batch, gamma.include(g) * gamma.stable() * gamma.include(h)


def _pin_mover(state, mover, xs, ys):
    """Evaluate the mover on xs, pinning every default orbit it touches;
    returns the pinned pairs and the first entry not carried to its
    target (None when every entry is)."""
    auto = []
    for k, (x, y) in enumerate(zip(xs, ys)):
        if evaluate_pi(state, mover, x, commit=True, log=auto) != y:
            return auto, k
    return auto, None


def _cursor(state, action):
    """The run's search cursor for one LevelAction.  It lives on the state,
    not on the action, because one EngineProblem can serve several runs."""
    cursor = state.cursors.get(action)
    if cursor is None:
        cursor = state.cursors[action] = SearchCursor()
    return cursor


def _discharge(problem, state, xs, ys, witnesses, zs):
    batch, mover = transitivity_batch(problem, state, xs, ys, witnesses, zs)
    state.commit_batch(batch)
    _, lost = _pin_mover(state, mover, xs, ys)
    if lost is not None:
        raise EngineError(f"postcondition failed at entry {lost}")
    return mover, {key: str(w) for key, w in witnesses.items()}, zs


def extend_transitivity_amalgam(problem, state, xs, ys, witness_radius=64):
    """One extension step in amalgam mode.

    Searches g1, g2 in the left factor and h in the right factor so that
    the four families of orbits are fresh and pairwise disjoint, commits the
    four-way swap batch, and returns the mover g2 h g1.
    """
    _check_tuples(xs, ys)
    # the default is the identity and a batch permutes the default images of
    # its sources, so the committed target orbits are the committed source
    # orbits: state.anchors protects both
    left = _cursor(state, problem.action_left)
    f1 = list(xs) + list(ys)
    g1 = search_E_set(problem.action_left, xs, f1, witness_radius, state.anchors, cursor=left)
    if g1 is None:
        raise DeferredRequirement(
            f"no left-factor witness for the source tuple within radius {witness_radius}")
    f2 = f1 + [problem.action_left.act(g1, x) for x in xs]
    g2inv = search_E_set(problem.action_left, ys, f2, witness_radius, state.anchors,
                         cursor=left)
    if g2inv is None:
        raise DeferredRequirement(
            f"no left-factor witness for the target tuple within radius {witness_radius}")
    f3 = f2 + [problem.action_left.act(g2inv, y) for y in ys]
    zs = allocate_fresh_orbits(state, len(xs), avoid=f3)
    h = search_E_set(problem.action_right, zs, f3 + list(zs), witness_radius, state.anchors,
                     cursor=_cursor(state, problem.action_right))
    if h is None:
        raise DeferredRequirement(
            f"no right-factor witness for the fresh classes within radius {witness_radius}")
    return _discharge(problem, state, xs, ys, {"g1": g1, "g2": g2inv.inverse(), "h": h}, zs)


def extend_transitivity_hnn(problem, state, xs, ys, witness_radius=64):
    """One extension step in HNN mode: mover g t h with a two-way swap batch."""
    _check_tuples(xs, ys)
    # a batch permutes the default images t x0 of its sources, so the target
    # orbits of y0 and t x0 are state.dst_index, and the source orbits of x0
    # and t^-1 y0 are state.anchors
    ginv = search_E_set(problem.action_neg, ys, list(ys) + list(xs), witness_radius,
                        state.dst_index, cursor=_cursor(state, problem.action_neg))
    if ginv is None:
        raise DeferredRequirement(
            f"no witness for the target tuple within radius {witness_radius}")
    f_src = (list(xs) + list(ys)
             + [state.default_preimage(problem.action_neg.act(ginv, y)) for y in ys])
    h = search_E_set(problem.action_pos, xs, f_src, witness_radius, state.anchors,
                     cursor=_cursor(state, problem.action_pos))
    if h is None:
        raise DeferredRequirement(
            f"no witness for the source tuple within radius {witness_radius}")
    return _discharge(problem, state, xs, ys, {"g": ginv.inverse(), "h": h}, [])


def extend_transitivity(problem, state, xs, ys, witness_radius=64):
    if problem.mode == "amalgam":
        return extend_transitivity_amalgam(problem, state, xs, ys, witness_radius)
    return extend_transitivity_hnn(problem, state, xs, ys, witness_radius)


def ensure_faithful(problem, state, g, witness_radius=64):
    """The shortlex-first point x of the ball with pi(g) x != x, and its
    image, which the witness's evaluation makes permanent by pinning the
    default orbits it touches.

    Candidates are evaluated without pinning, so only the witness's own
    evaluation commits anything and a replay of the witness alone rebuilds
    the same state.
    """
    if g.owner is not problem.gamma:
        raise ValueError("the element must live in the acting group")
    if g.is_identity:
        raise ValueError("faithfulness witnesses exist only for nontrivial elements")
    for x in problem.gamma.iter_shortlex(witness_radius):
        if evaluate_pi(state, g, x) != x:
            return x, evaluate_pi(state, g, x, commit=True)
    raise EngineError(f"pi({g}) fixes every point within radius {witness_radius}")


# ---------------------------------------------------------------------------
# scheduling


def _distinct_tuples(n, total):
    """Ordered n-tuples of pairwise distinct positive integers with the
    given sum, lexicographically."""
    out = []
    cur = []
    used = set()

    def rec(slots, remaining):
        if slots == 0:
            if remaining == 0:
                out.append(tuple(cur))
            return
        for v in range(1, remaining - (slots - 1) + 1):
            if v in used:
                continue
            used.add(v)
            cur.append(v)
            rec(slots - 1, remaining - v)
            cur.pop()
            used.remove(v)

    rec(n, total)
    return out


def transitivity_descriptors():
    """All (n, source indices, target indices) descriptors, diagonally by
    total index weight; every tuple pair appears exactly once."""
    weight = 2
    while True:
        n = 1
        while n * (n + 1) <= weight:
            min_side = n * (n + 1) // 2
            for s in range(min_side, weight - min_side + 1):
                for it in _distinct_tuples(n, s):
                    for jt in _distinct_tuples(n, weight - s):
                        yield (n, it, jt)
            n += 1
        weight += 1


def requirement_stream(problem):
    """Alternate transitivity and faithfulness requirements forever, as
    (kind, payload)."""
    trans = transitivity_descriptors()
    faith = (g for g in problem.gamma.iter_shortlex() if not g.is_identity)
    while True:
        yield "transitivity", next(trans)
        yield "faithfulness", (next(faith),)


class _PointTable:
    """Lazily materialized points in shortlex order, 1-indexed."""

    def __init__(self, gamma):
        self._iter = gamma.iter_shortlex()
        self._points = []

    def get(self, index):
        while len(self._points) < index:
            self._points.append(next(self._iter))
        return self._points[index - 1]


def _schedule(problem, steps):
    """The first ``steps`` requirements as (head, payload).  The head holds
    the index, the kind and the xs/ys or element strings that a step or a
    deferral records; the payload is (n, xs, ys) or (g,) with the points
    resolved.  The builder and the verifier both take the schedule from
    here."""
    points = _PointTable(problem.gamma)
    stream = requirement_stream(problem)
    for index in range(steps):
        kind, payload = next(stream)
        head = {"index": index, "kind": kind}
        if kind == "transitivity":
            n, it, jt = payload
            xs = [points.get(i) for i in it]
            ys = [points.get(j) for j in jt]
            head.update(xs=[str(p) for p in xs], ys=[str(p) for p in ys])
            yield head, (n, xs, ys)
        else:
            head["element"] = str(payload[0])
            yield head, payload


def run_schedule(problem, budget, problem_key=""):
    """Dovetail requirements within the step budget and emit a certificate.

    The certificate lists every discharged requirement with the choices
    that discharge it (witnesses and fresh classes, or a witness point)
    and the mover or image it claims, and every deferred one with a
    diagnostic; equal runs produce equal certificates byte for byte.
    """
    if not isinstance(problem, EngineProblem):
        problem = EngineProblem(problem)
    state = problem.new_state()
    steps, deferred = [], []
    for head, payload in _schedule(problem, budget.steps):
        if head["kind"] == "transitivity":
            n, xs, ys = payload
            try:
                mover, witnesses, zs = extend_transitivity(
                    problem, state, xs, ys, budget.witness_radius)
            except DeferredRequirement as exc:
                deferred.append({**head, "diagnostic": str(exc)})
                continue
            except UndecidedError as exc:
                deferred.append({**head, "diagnostic": f"membership oracle gave up: {exc}"})
                continue
            steps.append({**head, "n": n, "witnesses": witnesses,
                          "zs": [str(p) for p in zs], "mover": str(mover)})
            logger.info("step %d: transitivity n=%d discharged, mover %s",
                        head["index"], n, mover)
        else:
            (g,) = payload
            witness, image = ensure_faithful(problem, state, g, budget.witness_radius)
            steps.append({**head, "witness": str(witness), "image": str(image)})
            logger.info("step %d: faithfulness of %s witnessed at %s", head["index"], g, witness)
    return {
        "format": CERTIFICATE_FORMAT,
        "problem": problem_key,
        "group": problem.gamma.name,
        "mode": problem.mode,
        "budget": budget.as_dict(),
        "steps": steps,
        "deferred": deferred,
    }


# ---------------------------------------------------------------------------
# verification


def _same(recorded, expected):
    """Equality that tells JSON ``true`` and ``1.0`` from ``1``."""
    return type(recorded) is type(expected) and recorded == expected


def verify_certificate_report(gamma, cert):
    """Check that the steps and deferrals are the schedule's first
    budget.steps requirements, each once and in order; rebuild the state
    from the recorded choices and re-check every postcondition.  Returns
    (ok, reason of the first failure).

    The schedule is the only source of a scheduled point: an entry must
    repeat its head (index, kind and the xs/ys or element text) before
    anything is replayed, and the replay takes the points from the
    scheduled payload.  Only the choices are parsed; a claimed mover or
    image must be the canonical text of the value the replay computes,
    which is exact because normal forms are unique.  Each object holds
    only the keys the builder writes, and group and mode are the acting
    group's."""
    if not _same(cert.get("format"), CERTIFICATE_FORMAT):
        return False, f"unsupported certificate format {cert.get('format')!r}"
    unknown = _unknown_key(cert, _CERTIFICATE_KEYS)
    if unknown is not None:
        return False, f"unknown top-level key {unknown!r}"
    budget, steps, deferred = cert.get("budget"), cert.get("steps"), cert.get("deferred")
    total = budget.get("steps") if isinstance(budget, dict) else None
    if type(total) is not int or total < 0:
        return False, f"budget.steps must be a non-negative integer, got {total!r}"
    unknown = _unknown_key(budget, _BUDGET_KEYS)
    if unknown is not None:
        return False, f"budget: unknown key {unknown!r}"
    if not isinstance(steps, list) or not isinstance(deferred, list):
        return False, "steps and deferred must be lists"
    if len(steps) + len(deferred) != total:
        return False, (f"schedule: {len(steps)} steps and {len(deferred)} deferrals "
                       f"for a budget of {total} steps")
    try:
        problem = EngineProblem(gamma)
    except ValueError as exc:
        return False, str(exc)
    for key, value in (("group", gamma.name), ("mode", problem.mode)):
        if not _same(cert.get(key), value):
            return False, f"{key} is {cert.get(key)!r}, not {value!r}"
    state = problem.new_state()
    # (step index, failure message, [(g, x, y) with pi(g) x = y]) per step,
    # taken from the replay and re-evaluated in the final state
    postconditions = []
    i = j = 0
    try:
        # each index takes the next step or the next deferral, so the
        # entries cover range(total) once, each list in increasing order
        for head, payload in _schedule(problem, total):
            index = head["index"]
            if i < len(steps) and _same(steps[i]["index"], index):
                entry, i = steps[i], i + 1
                verify_step = (_verify_transitivity_step if head["kind"] == "transitivity"
                               else _verify_faithfulness_step)
            elif j < len(deferred) and _same(deferred[j]["index"], index):
                entry, j, verify_step = deferred[j], j + 1, None
                # ensure_faithful has no deferral path: a witness always exists
                if head["kind"] != "transitivity":
                    return False, f"schedule: faithfulness step {index} is deferred"
            else:
                return False, f"schedule: no step or deferral has index {index}"
            if not all(_same(entry.get(key), value) for key, value in head.items()):
                return False, f"step {index}: not the requirement scheduled at this index"
            unknown = _unknown_key(entry, _ENTRY_KEYS[head["kind"], verify_step is None])
            if unknown is not None:
                return False, f"step {index}: unknown key {unknown!r}"
            if verify_step is not None:
                ok, reason = verify_step(problem, state, payload, entry, postconditions)
                if not ok:
                    return False, f"step {index}: {reason}"
        for index, message, triples in postconditions:
            for g, x, y in triples:
                if evaluate_pi(state, g, x) != y:
                    return False, f"persistence of step {index}: {message}"
    except (UndecidedError, ValueError, KeyError, TypeError) as exc:
        return False, f"replay error: {exc}"
    return True, "ok"


# the keys run_schedule writes, and the verifier reads: of a certificate
# (``source`` is the CLI's), its budget, and a step or deferral of each kind
_CERTIFICATE_KEYS = {"format", "problem", "group", "mode", "budget", "steps", "deferred",
                     "source"}
_BUDGET_KEYS = {"steps", "witness_radius"}
_ENTRY_KEYS = {
    ("transitivity", False): {"index", "kind", "xs", "ys", "n", "witnesses", "zs", "mover"},
    ("transitivity", True): {"index", "kind", "xs", "ys", "diagnostic"},
    ("faithfulness", False): {"index", "kind", "element", "witness", "image"},
}


def _unknown_key(obj, allowed):
    """The first key of the object that is not allowed, or None."""
    return next((key for key in obj if key not in allowed), None)


# the factor each recorded witness is parsed in, per mode
_WITNESS_FACTORS = {"amalgam": (("g1", "left"), ("g2", "left"), ("h", "right")),
                    "hnn": (("g", "base"), ("h", "base"))}


def _verify_transitivity_step(problem, state, payload, step, postconditions=None):
    """Replay one transitivity step of the scheduled payload (n, xs, ys)
    from its recorded witnesses and fresh classes; when it holds, its
    postcondition goes to ``postconditions`` for the persistence pass."""
    gamma = problem.gamma
    n, xs, ys = payload
    if not _same(step["n"], n):
        return False, "n is not the scheduled tuple length"
    zs = [parse_word(gamma, p) for p in step["zs"]]
    if len(zs) != (n if problem.mode == "amalgam" else 0):
        return False, "an amalgam step needs one fresh class per entry, an HNN step none"
    unknown = _unknown_key(step["witnesses"], dict(_WITNESS_FACTORS[problem.mode]))
    if unknown is not None:
        return False, f"witnesses: unknown key {unknown!r}"
    witnesses = {key: parse_word(getattr(gamma, factor), step["witnesses"][key])
                 for key, factor in _WITNESS_FACTORS[problem.mode]}
    batch, mover = transitivity_batch(problem, state, xs, ys, witnesses, zs)
    try:
        state.commit_batch(batch)
    except StateError as exc:
        return False, f"batch rejected: {exc}"
    if str(mover) != step["mover"]:
        return False, "mover does not match the recorded witnesses"
    auto, lost = _pin_mover(state, mover, xs, ys)
    if lost is not None:
        return False, f"mover does not carry entry {lost} to its target"
    # anchors are committed only here, and never change afterwards, so the
    # law needs checking once per anchor: at the pairs this step committed
    if not state.check_equivariance(batch + auto):
        return False, "equivariance fails at a committed anchor"
    if postconditions is not None:
        postconditions.append((step.get("index"), "mover postcondition lost",
                               [(mover, x, y) for x, y in zip(xs, ys)]))
    return True, "ok"


def _verify_faithfulness_step(problem, state, payload, step, postconditions=None):
    """Replay one faithfulness step of the scheduled payload (g,) from its
    witness point, pinning the default orbits its evaluation touches; see
    ``_verify_transitivity_step``.

    Default pins are equivariant by construction, so unlike a transitivity
    batch they need no equivariance check."""
    (g,) = payload
    witness = parse_word(problem.gamma, step["witness"])
    image = evaluate_pi(state, g, witness, commit=True)
    if str(image) != step["image"]:
        return False, "recorded image is not the evaluated image"
    if image == witness:
        return False, "the element fixes the witness point"
    if postconditions is not None:
        # image != witness is settled, so the witness persists while
        # pi(g) still carries it to the image
        postconditions.append((step.get("index"), "faithfulness witness lost",
                               [(g, witness, image)]))
    return True, "ok"
