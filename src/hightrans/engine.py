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
faithfulness step, and the mover or image that the step claims.  One step
function per kind applies the choices to the state, and one function per
kind writes the entry.  The builder searches for the choices and calls
both; the verifier parses the recorded choices, calls the same two and
compares the rebuilt certificate with the recorded one as canonical text.
"""

from __future__ import annotations

import json

from .action import (IntertwinerState, LevelAction, StateError, allocate_fresh_orbits,
                     evaluate_pi)
from .hcf import SearchCursor, search_E_set
from .normal_forms import parse_word
from .problem import Budget


class EngineError(RuntimeError):
    """A step's choices do not discharge it, or another engine invariant
    failed: a bug in the builder, a FAIL in the verifier."""


class DeferredRequirement(Exception):
    """A witness search exhausted its ball; the message is the diagnostic."""


# the certificate layout: points are words of Gamma, steps record choices only
CERTIFICATE_FORMAT = 3


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


def transitivity_batch(problem, state, xs, ys, witnesses, zs):
    """The swap batch and the mover of one transitivity step; pure.

    Amalgam mode, witnesses g1, g2 in the left factor and h in the right
    one, fresh classes zs: the four-way swap of g1 xs, zs, g2^-1 ys and
    h zs, mover g2 h g1.  HNN mode, witnesses g, h in the base: the
    two-way swap of h xs with g^-1 ys, mover g t h.  ``transitivity_step``
    takes the batch and the mover from here.
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


def transitivity_step(problem, state, xs, ys, witnesses, zs):
    """Apply the choices of one transitivity step: commit the swap batch of
    its witnesses and fresh classes, then evaluate the mover on xs, pinning
    every default orbit it touches.  Returns the mover and the batch;
    EngineError when the choices do not carry xs to ys.  The builder and
    the verifier both apply a step through here."""
    if len(zs) != (len(xs) if problem.mode == "amalgam" else 0):
        raise EngineError("an amalgam step needs one fresh class per entry, an HNN step none")
    batch, mover = transitivity_batch(problem, state, xs, ys, witnesses, zs)
    try:
        state.commit_batch(batch)
    except StateError as exc:
        raise EngineError(f"batch rejected: {exc}") from None
    for k, (x, y) in enumerate(zip(xs, ys)):
        if evaluate_pi(state, mover, x, commit=True) != y:
            raise EngineError(f"mover does not carry entry {k} to its target")
    return mover, batch


def faithfulness_step(state, g, witness):
    """Apply the choice of one faithfulness step: evaluate pi(g) at the
    witness point, pinning the default orbits the evaluation touches, so
    the image stays put forever.  Returns the image; EngineError when it is
    the witness itself."""
    image = evaluate_pi(state, g, witness, commit=True)
    if image == witness:
        raise EngineError("the element fixes the witness point")
    return image


# the certificate entries, each written only here: the scheduled head, then
# the choices and the claim as canonical text
def _transitivity_entry(head, mover, witnesses, zs):
    return {**head, "n": len(head["xs"]), "witnesses": {k: str(w) for k, w in witnesses.items()},
            "zs": [str(z) for z in zs], "mover": str(mover)}


def _faithfulness_entry(head, witness, image):
    return {**head, "witness": str(witness), "image": str(image)}


def _deferral_entry(head, diagnostic):
    return {**head, "diagnostic": diagnostic}


def _witness(state, action, xs, F, protected, radius, what):
    """``search_E_set`` from the run's cursor for this LevelAction, which
    lives on the state because one EngineProblem can serve several runs;
    DeferredRequirement naming ``what`` when the ball holds no witness."""
    cursor = state.cursors.setdefault(action, SearchCursor())
    witness = search_E_set(action, xs, F, radius, protected, cursor)
    if witness is None:
        raise DeferredRequirement(f"no {what} within radius {radius}")
    return witness


def _search_amalgam(problem, state, xs, ys, witness_radius):
    """Witnesses g1, g2 in the left factor and h in the right one, and fresh
    classes, so that the four families of orbits of the batch are fresh
    and pairwise disjoint."""
    # the default is the identity and a batch permutes the default images of
    # its sources, so the committed target orbits are the committed source
    # orbits: state.anchors protects both
    left = problem.action_left
    f1 = list(xs) + list(ys)
    g1 = _witness(state, left, xs, f1, state.anchors, witness_radius,
                  "left-factor witness for the source tuple")
    f2 = f1 + [left.act(g1, x) for x in xs]
    g2inv = _witness(state, left, ys, f2, state.anchors, witness_radius,
                     "left-factor witness for the target tuple")
    f3 = f2 + [left.act(g2inv, y) for y in ys]
    zs = allocate_fresh_orbits(state, len(xs), avoid=f3)
    h = _witness(state, problem.action_right, zs, f3 + list(zs), state.anchors, witness_radius,
                 "right-factor witness for the fresh classes")
    return {"g1": g1, "g2": g2inv.inverse(), "h": h}, zs


def _search_hnn(problem, state, xs, ys, witness_radius):
    """Witnesses g, h in the base; an HNN step takes no fresh classes."""
    # a batch permutes the default images t x0 of its sources, so the target
    # orbits of y0 and t x0 are state.dst_index, and the source orbits of x0
    # and t^-1 y0 are state.anchors
    neg = problem.action_neg
    ginv = _witness(state, neg, ys, list(ys) + list(xs), state.dst_index, witness_radius,
                    "witness for the target tuple")
    f_src = list(xs) + list(ys) + [state.default_preimage(neg.act(ginv, y)) for y in ys]
    h = _witness(state, problem.action_pos, xs, f_src, state.anchors, witness_radius,
                 "witness for the source tuple")
    return {"g": ginv.inverse(), "h": h}, []


def extend_transitivity(problem, state, xs, ys, witness_radius):
    """One extension step: search the witnesses (and, in amalgam mode, the
    fresh classes) that move xs to ys, and apply them.  Returns the mover,
    the witnesses and the fresh classes; DeferredRequirement when a search
    exhausts its ball."""
    if len(xs) != len(ys):
        raise ValueError("transitivity tuples must have the same length")
    if not xs:
        raise ValueError("transitivity tuples must be non-empty")
    if len(set(xs)) != len(xs) or len(set(ys)) != len(ys):
        raise ValueError("tuple entries must be pairwise distinct")
    search = _search_amalgam if problem.mode == "amalgam" else _search_hnn
    witnesses, zs = search(problem, state, xs, ys, witness_radius)
    mover, _ = transitivity_step(problem, state, xs, ys, witnesses, zs)
    return mover, witnesses, zs


def ensure_faithful(problem, state, g, witness_radius):
    """The shortlex-first point x of the ball with pi(g) x != x, and its
    image, which ``faithfulness_step`` makes permanent.  Candidates are
    evaluated without pinning, so only the witness's own evaluation commits
    anything and a replay of the witness alone rebuilds the same state."""
    if g.owner is not problem.gamma:
        raise ValueError("the element must live in the acting group")
    if g.is_identity:
        raise ValueError("faithfulness witnesses exist only for nontrivial elements")
    for x in problem.gamma.iter_shortlex(witness_radius):
        if evaluate_pi(state, g, x) != x:
            return x, faithfulness_step(state, g, x)
    raise EngineError(f"pi({g}) fixes every point within radius {witness_radius}")


# ---------------------------------------------------------------------------
# scheduling


def _distinct_tuples(n, total, used=frozenset()):
    """Ordered n-tuples of pairwise distinct positive integers, none in
    ``used``, with the given sum, lexicographically and one at a time.  A
    prefix is cut once the least sum of the parts still to come, 1 + ... + k
    for k parts, is more than what is left."""
    if n == 1:
        if total > 0 and total not in used:
            yield (total,)
        return
    for v in range(1, total - n * (n - 1) // 2 + 1):
        if v not in used:
            for rest in _distinct_tuples(n - 1, total - v, used | {v}):
                yield (v, *rest)


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


def _schedule(problem, steps):
    """The first ``steps`` requirements as (head, payload): transitivity at
    even indices, faithfulness at odd ones.  The head holds the index, the
    kind and the xs/ys or element strings that a step or a deferral
    records; the payload is (n, xs, ys) or (g,) with the points resolved.

    Points and faithfulness elements come from one list of Gamma in
    shortlex order, grown as far as a step needs, each element beside its
    text: point i is entry i, from 1 at the identity, and the k-th
    faithfulness element, from 0, is entry k + 2, the nonidentity elements
    in order.  The builder and the verifier both take the schedule from
    here."""
    shortlex = problem.gamma.iter_shortlex()
    entries = []

    def entry(i):
        while len(entries) < i:
            g = next(shortlex)
            entries.append((g, str(g)))
        return entries[i - 1]

    descriptors = transitivity_descriptors()
    for index in range(steps):
        if index % 2:
            g, text = entry(index // 2 + 2)
            yield {"index": index, "kind": "faithfulness", "element": text}, (g,)
            continue
        n, it, jt = next(descriptors)
        xs, ys = [entry(i) for i in it], [entry(j) for j in jt]
        head = {"index": index, "kind": "transitivity",
                "xs": [text for _, text in xs], "ys": [text for _, text in ys]}
        yield head, (n, [p for p, _ in xs], [p for p, _ in ys])


def _header(problem, budget, problem_key):
    """The top level of a certificate, but for its steps and deferrals."""
    return {"format": CERTIFICATE_FORMAT, "problem": problem_key, "group": problem.gamma.name,
            "mode": problem.mode, "budget": budget.as_dict()}


def run_schedule(problem, budget, problem_key="", on_step=None):
    """Dovetail requirements within the step budget and emit a certificate.

    The certificate lists every discharged requirement with the choices
    that discharge it (witnesses and fresh classes, or a witness point)
    and the mover or image it claims, and every deferred one with a
    diagnostic; equal runs produce equal certificates byte for byte.
    ``on_step``, when given, is called with one line of text per
    discharged step; the certificate does not depend on it.
    """
    state = problem.new_state()
    steps, deferred = [], []
    for head, payload in _schedule(problem, budget.steps):
        if head["kind"] == "transitivity":
            n, xs, ys = payload
            try:
                mover, witnesses, zs = extend_transitivity(
                    problem, state, xs, ys, budget.witness_radius)
            except DeferredRequirement as exc:
                deferred.append(_deferral_entry(head, str(exc)))
                continue
            steps.append(_transitivity_entry(head, mover, witnesses, zs))
            if on_step is not None:
                on_step(f"step {head['index']}: transitivity n={n} discharged, mover {mover}")
        else:
            (g,) = payload
            witness, image = ensure_faithful(problem, state, g, budget.witness_radius)
            steps.append(_faithfulness_entry(head, witness, image))
            if on_step is not None:
                on_step(f"step {head['index']}: faithfulness of {g} witnessed at {witness}")
    return {**_header(problem, budget, problem_key), "steps": steps, "deferred": deferred}


# ---------------------------------------------------------------------------
# verification


# the canonical text of a JSON value, which tells true and 1.0 from 1; left
# unescaped, which changes no comparison and saves a third of the time
_text = json.JSONEncoder(sort_keys=True, ensure_ascii=False).encode


def _difference(recorded, rebuilt):
    """None when two JSON objects have the same canonical text; else the
    first key, in sorted order, at which they differ, as a reason."""
    if _text(recorded) == _text(rebuilt):
        return None
    for key in sorted(recorded.keys() | rebuilt.keys()):
        if key not in rebuilt:
            return f"unknown key {key!r}"
        if key not in recorded:
            return f"missing key {key!r}"
        mine, theirs = recorded[key], rebuilt[key]
        if _text(mine) != _text(theirs):
            if isinstance(mine, dict) and isinstance(theirs, dict):
                return f"{key}: {_difference(mine, theirs)}"
            return f"{key} does not match the rebuilt value {theirs!r}"


def _records(entries, k, index):
    """Whether entries[k] is an object that records this index, an integer."""
    return (k < len(entries) and isinstance(entries[k], dict)
            and type(entries[k].get("index")) is int and entries[k]["index"] == index)


# the factor each recorded witness is parsed in, per mode
_WITNESS_FACTORS = {"amalgam": (("g1", "left"), ("g2", "left"), ("h", "right")),
                    "hnn": (("g", "base"), ("h", "base"))}


def _rebuild(problem, state, head, payload, entry, postconditions):
    """Apply the choices an entry records through the builder's step
    function and return the entry the builder writes for them; the step's
    postcondition goes to ``postconditions`` for the persistence pass."""
    gamma = problem.gamma
    if head["kind"] == "faithfulness":
        (g,) = payload
        witness = parse_word(gamma, entry["witness"])
        image = faithfulness_step(state, g, witness)
        # image != witness is settled, so the witness persists while pi(g)
        # still carries it to the image
        postconditions.append((head["index"], "faithfulness witness lost", [(g, witness, image)]))
        return _faithfulness_entry(head, witness, image)
    _, xs, ys = payload
    witnesses = {key: parse_word(getattr(gamma, factor), entry["witnesses"][key])
                 for key, factor in _WITNESS_FACTORS[problem.mode]}
    zs = [parse_word(gamma, p) for p in entry["zs"]]
    mover, batch = transitivity_step(problem, state, xs, ys, witnesses, zs)
    # anchors are committed only by a step and never change afterwards, so the
    # law needs checking once per anchor; default pins keep it by construction
    if not state.check_equivariance(batch):
        raise EngineError("equivariance fails at a committed anchor")
    postconditions.append((head["index"], "mover postcondition lost",
                           [(mover, x, y) for x, y in zip(xs, ys)]))
    return _transitivity_entry(head, mover, witnesses, zs)


def verify_certificate_report(gamma, cert):
    """Rebuild the certificate from its recorded choices and compare the
    two as canonical text; returns (ok, reason of the first failure).

    The steps and deferrals must be the schedule's first budget.steps
    requirements, each once and in order, and each entry must repeat its
    scheduled head (index, kind and the xs/ys or element text) before any
    of it is parsed or replayed.  Only the choices are parsed; the builder's
    step function applies them, and the entry is written as the builder
    writes it.  So an entry passes only as its own canonical text: any
    non-canonical spelling, or a missing, extra or retyped key, FAILs with
    the step and the first key that differs.  A deferral is its head and a
    diagnostic string, the top level a valid budget and the acting group's
    name and mode.  Each committed pair passes the orbit-map law and two
    lookups, which imply equivariance (``apply`` is a homomorphism) and read
    no certificate field; postconditions are checked again at the end."""
    if _text(cert.get("format")) != _text(CERTIFICATE_FORMAT):
        return False, f"unsupported certificate format {cert.get('format')!r}"
    recorded = cert.get("budget") if isinstance(cert.get("budget"), dict) else {}
    try:
        budget = Budget(recorded.get("steps"), recorded.get("witness_radius"))
    except ValueError as exc:  # its message starts with the field's name
        return False, f"budget.{exc}"
    steps, deferred = cert.get("steps"), cert.get("deferred")
    if not isinstance(steps, list) or not isinstance(deferred, list):
        return False, "steps and deferred must be lists"
    if len(steps) + len(deferred) != budget.steps:
        return False, (f"schedule: {len(steps)} steps and {len(deferred)} deferrals "
                       f"for a budget of {budget.steps} steps")
    try:
        problem = EngineProblem(gamma)
    except ValueError as exc:
        return False, str(exc)
    state = problem.new_state()
    # (step index, failure message, [(g, x, y) with pi(g) x = y]) per step,
    # taken from the replay and re-evaluated in the final state
    postconditions = []
    i, j, where = 0, 0, ""
    try:
        # the CLI checks the problem digest and the source tag; here the
        # digest need only be a string
        top = {key: value for key, value in cert.items()
               if key not in ("steps", "deferred", "source")}
        reason = _difference(top, _header(problem, budget, str(cert.get("problem"))))
        if reason is not None:
            return False, reason
        # each index takes the next step or the next deferral, so the
        # entries cover range(budget.steps) once, each list in increasing order
        for head, payload in _schedule(problem, budget.steps):
            index = head["index"]
            where = f"step {index}: "
            if _records(steps, i, index):
                entry, i, rebuilt = steps[i], i + 1, None
            elif _records(deferred, j, index):
                entry, j = deferred[j], j + 1
                # ensure_faithful has no deferral path: a witness always exists
                if head["kind"] != "transitivity":
                    return False, f"schedule: faithfulness step {index} is deferred"
                rebuilt = _deferral_entry(head, str(entry.get("diagnostic")))
            else:
                return False, f"schedule: no step or deferral has index {index}"
            # the index is the head's only number, and it matched as an integer
            if any(entry.get(key) != value for key, value in head.items()):
                return False, f"step {index}: not the requirement scheduled at this index"
            if rebuilt is None:
                rebuilt = _rebuild(problem, state, head, payload, entry, postconditions)
            reason = _difference(entry, rebuilt)
            if reason is not None:
                return False, f"step {index}: {reason}"
        where = ""
        for index, message, triples in postconditions:
            for g, x, y in triples:
                if evaluate_pi(state, g, x) != y:
                    return False, f"persistence of step {index}: {message}"
    except EngineError as exc:
        return False, f"{where}{exc}"
    except (ValueError, KeyError, TypeError) as exc:
        return False, f"{where}replay error: {exc}"
    return True, "ok"
