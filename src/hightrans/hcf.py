"""Bounded, certificate-producing audits of the highly core-free condition.

The definition quantifies over every finite set and every covering, so a
terminating audit fixes bounds: tuple entries and protected sets come from
a ball of ``point_radius``, witnesses are searched in shortlex order up to
``witness_radius``, and tuples have at most ``tuple_size_max`` entries.
Verdicts therefore come in three flavours:

  * ``pass``   -- every witness search succeeded at the bounds (for the
                  trivial subgroup: unconditionally, all cores are trivial);
  * ``fail``   -- an explicit covering counterexample was found and proved,
                  e.g. the finite-index pattern with a complete transversal
                  and the single piece {1};
  * ``undecided`` -- a search ran out of radius, or a cofinite fixer is
                  only bounded; the evidence gives the reason, with the
                  tuple an exhausted search failed on or the coverings found.

All evidence re-verifies by direct evaluation; the test suite's oracles
replay it, and no command does.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import defaultdict

from .problem import AuditBounds

PASS = "pass"
FAIL = "fail"
UNDECIDED = "undecided"


def worst(statuses):
    """fail if any status fails, else undecided if any is undecided, else
    pass (so also for none at all)."""
    statuses = set(statuses)
    return FAIL if FAIL in statuses else UNDECIDED if UNDECIDED in statuses else PASS


# the radius to which CosetDomain tries to prove a finite index, and so an
# exact (finite) coset space
COSET_PROBE_RADIUS = 6


class AuditVerdict:
    def __init__(self, status, bounds, evidence=None):
        self.status = status
        self.bounds = bounds
        self.evidence = {} if evidence is None else evidence

    @property
    def failed(self):
        return self.status == FAIL

    def __str__(self):
        return f"{self.status}({self.bounds.tuple_size_max},{self.bounds.point_radius},{self.bounds.witness_radius})"


# ---------------------------------------------------------------------------
# witness-set searches


# positions per word of HSetMemo's bitsets: marking a position rebuilds one
# word, not a bitset as long as the walked ball
HSET_WORD = 1024


class HSetMemo:
    """What H-set searches over one protected set F share: F's representatives;
    the target's ball, walked a layer at a time, as (h, h^-1) by shortlex position,
    ``ends[d]`` of them to layer d; and per point x the positions tested and failed
    on x, as bitsets split into words of HSET_WORD positions."""

    def __init__(self, emb, F):
        self.f_reps = {emb.rep(f) for f in F}
        self.walked, self.ends = [], []
        self.tested = defaultdict(lambda: defaultdict(int))
        self.failed = defaultdict(lambda: defaultdict(int))


def search_H_set(emb, xs, radius, memo):
    """First shortlex h with h x_i outside Sigma F and h x_i h^-1 outside
    Sigma, for every i; None when the ball at ``radius`` is exhausted.  The
    candidate is the lowest position no x_i has failed in ``memo``, an HSetMemo
    of F that searches may share, and only its untested pairs are tested; a
    layer is walked only when every walked position has failed."""
    if any(x.is_identity for x in xs):
        raise ValueError("H-set entries must be nontrivial")
    marks = [(x, memo.tested[x], memo.failed[x]) for x in xs]
    pos = 0
    while True:
        word, off = divmod(pos, HSET_WORD)
        union = 0
        for _, _, failed in marks:
            union |= failed[word] >> off
        pos += (~union & (union + 1)).bit_length() - 1
        if pos >= (word + 1) * HSET_WORD:   # the rest of this word failed
            continue
        while pos >= len(memo.walked) and len(memo.ends) <= radius:
            memo.walked += [(h, h.inverse()) for h in emb.target.shortlex_layer(len(memo.ends))]
            memo.ends.append(len(memo.walked))
        if len(memo.ends) > radius and pos >= memo.ends[radius]:
            return None
        h, hinv = memo.walked[pos]
        bit = 1 << pos % HSET_WORD
        for x, tested, failed in marks:
            if not tested[word] & bit:
                tested[word] |= bit
                hx = h * x
                if emb.rep(hx) in memo.f_reps or emb.contains(hx * hinv):
                    failed[word] |= bit
                    break
        else:
            return h


class SearchCursor:
    """Where a run's next witness search over one group starts: a
    (layer, index) position in the group's cached shortlex layers; and
    ``blocked``, keyed by candidate h, the set of points x whose orbit of
    h x a search found in the protected container.

    A cursor serves one protected container, which may only grow, so a
    pair once blocked stays blocked and later searches fail it without
    acting."""

    __slots__ = ("position", "blocked")

    def __init__(self):
        self.position = (0, 0)
        self.blocked = defaultdict(set)


def search_E_set(action, xs, F, radius, protected, cursor):
    """An h moving the points off the protected orbits with pairwise
    disjoint subgroup orbits; None when the ball of ``radius`` holds none.

    ``action`` is a LevelAction; points must be pairwise distinct.  The
    protected orbits are those of the points of F, plus ``protected``: a
    container of orbit representatives (as ``action.orbit_rep`` gives
    them) that is tested in place, so orbits committed once need not be
    listed again on every search.

    The walk starts at the position of ``cursor`` (a SearchCursor), wraps
    to the identity, and moves the cursor just past the h returned, so a
    fresh cursor gives the first such h in shortlex order.  None comes only
    after every element of the ball has been covered.

    The verdict on h depends only on its coset Sigma h in the acting group
    (``action.edge``): s h x_i and h x_i share a Sigma-orbit.  So once a
    candidate fails, a later one in its coset is skipped untested, and each
    element of the ball is either tested itself or covered by a tested,
    failed element of its coset.  Coset keys are computed only after the
    first failure, and once every coset of a finite-index edge has failed
    the walk stops.  A candidate fails at its first point that fails, and
    without acting when the cursor has one of the points blocked under h:
    one memo probe per candidate.
    """
    if len(set(xs)) != len(xs):
        raise ValueError("E-set tuples live off the large diagonal")
    f_reps = {action.orbit_rep(f) for f in F}
    start, blocked = cursor.position, cursor.blocked
    walk = action.group.walk_shortlex
    coset_rep = action.edge.rep
    index = action.edge.index()
    failed = set()
    for d, i, h in itertools.chain(walk(start, max_radius=radius),
                                   walk(stop=start, max_radius=radius)):
        if failed:
            key = coset_rep(h)
            if key in failed:
                continue
        stuck = blocked.get(h)
        if stuck is None or stuck.isdisjoint(xs):
            reps = set()
            for x in xs:
                r = action.orbit_rep(action.act(h, x))
                if r in protected:
                    blocked[h].add(x)
                    break
                if r in f_reps or r in reps:
                    break
                reps.add(r)
            else:
                cursor.position = (d, i + 1)
                return h
        failed.add(key if failed else coset_rep(h))
        if len(failed) == index:
            return None
    return None


# ---------------------------------------------------------------------------
# finite-index prover (the covering counterexample generator)


def prove_finite_index(emb, max_radius):
    """A complete right transversal of the image, or None.

    None at once when the membership strategy proves infinite index.
    Otherwise collects coset representatives layer by layer; once the set
    is closed under right multiplication by every letter it is a full
    transversal (induction on word length), which proves finite index
    exactly.
    """
    if emb.index() == math.inf:
        return None
    tgt = emb.target
    reps = []
    seen = set()
    for d in range(max_radius + 1):
        for x in tgt.shortlex_layer(d):
            r = emb.rep(x)
            if r not in seen:
                seen.add(r)
                reps.append(r)
        if all(emb.rep(t * letter) in seen for t in reps for _, letter in tgt.letters()):
            return reps
    return None


def _nontrivial_image_element(emb):
    for g in emb.source.generators():
        img = emb.apply(g)
        if not img.is_identity:
            return img
    raise ValueError("the subgroup is trivial")


# ---------------------------------------------------------------------------
# the main audits


def audit_hcf(emb, bounds=None):
    """Bounded audit of the highly core-free condition for an embedding.

    The trivial subgroup passes outright (every core of it is trivial).
    Otherwise a proven finite index yields the covering counterexample
    F = transversal, S_1 = {1}; failing that, one maximal-F H-set search
    per tuple decides pass at the bounds, since shrinking F or the tuple
    only enlarges the witness set.
    """
    bounds = bounds or AuditBounds()
    if emb.is_trivial():
        return AuditVerdict(PASS, bounds, {"reason": "trivial subgroup: every core is trivial"})
    transversal = prove_finite_index(emb, bounds.witness_radius)
    if transversal is not None:
        core = _nontrivial_image_element(emb)
        return AuditVerdict(FAIL, bounds, {
            "reason": f"finite index {len(transversal)} proven",
            "covering": {
                "F": [str(t) for t in transversal],
                "pieces": [{"members": ["1"]}],
                "cores": [str(core)],
            },
        })
    ball = emb.target.ball(bounds.point_radius)
    names = {x: str(x) for x in ball if not x.is_identity}
    size = min(bounds.tuple_size_max, len(names))
    witnesses = []
    # every search protects the same ball, so they share one memo
    memo = HSetMemo(emb, ball)
    for combo in itertools.combinations(names, size) if size else ():
        h = search_H_set(emb, combo, bounds.witness_radius, memo)
        if h is None:
            return AuditVerdict(UNDECIDED, bounds, {
                "reason": "H-set witness search exhausted",
                "failed_tuple": [names[x] for x in combo],
            })
        witnesses.append({"tuple": [names[x] for x in combo], "witness": str(h)})
    return AuditVerdict(PASS, bounds, {
        "protected_radius": bounds.point_radius,
        "witnesses": witnesses,
    })


def audit_highly_faithful(emb, bounds=None):
    """Bounded audit of high faithfulness for the target acting on the
    right cosets of the embedded subgroup (a CosetDomain at ``bounds``).

    Coverings are searched in the shapes the counterexamples take: the
    whole space as one cofinite piece, or a finite piece P from the zone
    plus its complement.  A verdict of fail requires the coset space to be
    exact (a transversal is proven), so that the cofinite piece's fixer is
    checked on every coset; otherwise coverings found downgrade to
    undecided.
    """
    bounds = bounds or AuditBounds()
    domain = CosetDomain(emb, bounds)
    candidates = []
    for P in [(), *_finite_piece_candidates(domain.zone)]:
        cof = domain.cofinite_fixer(P)
        if cof is None:
            continue
        covering = {"F": [], "pieces": [{"complement_of": [str(p) for p in P]}],
                    "fixers": [str(cof)]}
        if P:
            fin = domain.nontrivial_fixer_of(P)
            if fin is None:
                continue
            covering["pieces"].insert(0, {"members": [str(p) for p in P]})
            covering["fixers"].insert(0, str(fin))
        verdict = {"covering": covering}
        if domain.transversal is not None:
            return AuditVerdict(FAIL, bounds, verdict)
        candidates.append(verdict)
    if candidates:
        return AuditVerdict(UNDECIDED, bounds, {
            "reason": "covering candidates found but cofinite fixers are only bounded",
            "candidates": candidates})
    return AuditVerdict(PASS, bounds, {
        "zone": [str(p) for p in domain.zone],
        "reason": "no covering in the audited shapes admits nontrivial fixers on every piece",
    })


def _finite_piece_candidates(zone):
    """Finite pieces worth probing: prefixes of the sample zone plus all
    singletons and pairs, in a fixed deterministic order.

    The known counterexample shapes are initial segments; the full power
    set is exponential and adds nothing the audit could verify anyway.
    """
    prefixes = (tuple(zone[:k]) for k in range(1, len(zone)))
    small = (c for size in (1, 2) if size < len(zone) for c in itertools.combinations(zone, size))
    return list(dict.fromkeys(itertools.chain(prefixes, small)))


def certify_structural(emb, bounds=None):
    """Bounded evidence for the structural sufficient condition.

    Three premises: infinite index (transversal keeps growing), relative
    icc (conjugacy classes of subgroup elements keep growing), and
    stabilizing intersections of the subgroup with ambient conjugacy
    classes.  A pass is consistency at the bounds, never a proof.
    """
    bounds = bounds or AuditBounds()
    tgt = emb.target
    premises = {}
    transversal = prove_finite_index(emb, bounds.witness_radius)
    if transversal is not None:
        premises["infinite_index"] = {
            "status": FAIL,
            "transversal": [str(t) for t in transversal]}
    else:
        counts = []
        seen = set()
        for d in range(bounds.witness_radius + 1):
            for x in tgt.shortlex_layer(d):
                seen.add(emb.rep(x))
            counts.append(len(seen))
        growing = all(counts[i] < counts[i + 1] for i in range(len(counts) - 1))
        premises["infinite_index"] = {
            "status": PASS if growing else UNDECIDED,
            "transversal_counts": counts}

    ball_small = [g for g in tgt.ball(bounds.point_radius) if not g.is_identity]
    member = {g: emb.contains(g) for g in ball_small}
    # one conjugacy ball per pair {g, g^-1}, shared by both premises:
    # h g^-1 h^-1 = (h g h^-1)^-1 and Sigma holds c exactly when it holds
    # c^-1, so g^-1 has every count and flag of g.  The ball is target-only
    # work, cached on the target for every embedding into it, and ordered;
    # the early exit below reads it from the longest first conjugators, the
    # likeliest to leave it.  Shortlex balls nest, so the conjugates over
    # the radius r-1 ball are those whose first conjugator is shorter than r
    r = bounds.witness_radius
    facts = {}
    for g in ball_small:
        twin = facts.get(g.inverse())
        if twin is not None:
            facts[g] = twin
            continue
        cur = tgt.conjugates(g, r)
        closed = member[g] and all((letter * c * letter.inverse()) in cur
                                   for c in reversed(cur) for _, letter in tgt.letters())
        inside = [d for c, d in cur.items() if emb.contains(c)]
        facts[g] = (len(cur), sum(d < r for d in cur.values()), closed,
                    len(inside), all(d < r for d in inside))

    icc = []
    for s in (g for g in ball_small if member[g]):
        n_cur, n_before, closed, _, _ = facts[s]
        if closed:
            status = FAIL
        elif n_cur > n_before:
            status = PASS
        else:
            status = UNDECIDED
        icc.append({"element": str(s), "conjugates": n_cur, "status": status})
    premises["relative_icc"] = {"status": worst(e["status"] for e in icc),
                                "per_element": icc}

    stab = []
    for h in ball_small:
        _, _, _, n_in, stable = facts[h]
        status = PASS if stable else UNDECIDED
        stab.append({"element": str(h), "intersection": n_in, "status": status})
    premises["class_intersections"] = {"status": worst(e["status"] for e in stab),
                                       "per_element": stab}

    overall = worst(p["status"] for p in premises.values())
    return AuditVerdict(overall, bounds, {"premises": premises})


# ---------------------------------------------------------------------------
# the coset action the high-faithfulness audit runs on


class CosetDomain:
    """The target acting on the right-coset space of the embedded subgroup,
    set up for one audit's bounds.

    h . (Sigma r) = Sigma r h^-1, so h fixes the coset Sigma r exactly when
    r h^-1 r^-1 lies in Sigma: fixing is one membership test, for any
    representative r of the coset.  Cosets are canonical representatives
    in shortlex order.  When a complete ``transversal`` is provable the
    space is finite, ``zone`` and ``sample`` both hold every coset, and
    cofinite fixers are exact; otherwise ``zone`` holds the cosets the ball
    of ``point_radius`` meets and ``sample`` those of ``point_radius + 2``,
    on which cofinite fixers are checked, so the audit can pass or stay
    undecided but not fail.  Fixers are searched in the witness ball, the
    ball of ``witness_radius``.

    The audit asks for a cofinite fixer of many pieces, so each nontrivial
    h of the witness ball is filed once, under the last sample coset it
    moves (found by scanning the sample from its longest representatives),
    or under None when it fixes the whole sample.  h fixes every sample
    coset outside a piece P only if its filed coset is None or lies in P:
    the filed coset is moved, and every later one is fixed.  So a query
    reads only the h filed under None and under P's cosets, and confirms
    each of the latter with the full check.  The first h to pass, in
    shortlex order, is the first a walk over the whole ball would find, so
    the answer does not change.
    """

    def __init__(self, emb, bounds):
        self.emb = emb
        self.transversal = prove_finite_index(emb, COSET_PROBE_RADIUS)
        self.zone = self._cosets(bounds.point_radius)
        self.sample = self._cosets(bounds.point_radius + 2)
        self.witnesses = emb.target.ball(bounds.witness_radius)
        self._movers = {}
        backwards = [(r, r.inverse()) for r in self.sample[::-1]]
        fixes = self._fixes_inv
        for pos, h in enumerate(self.witnesses):
            if not h.is_identity:
                hinv = h.inverse()
                last = next((r for r, rinv in backwards if not fixes(hinv, r, rinv)), None)
                self._movers.setdefault(last, []).append((pos, h, last))

    def _cosets(self, radius):
        if self.transversal is not None:
            reps = set(self.transversal)
        else:
            reps = {self.emb.rep(g) for g in self.emb.target.ball(radius)}
        return sorted(reps, key=lambda r: r.sort_key())

    def fixes(self, h, rep):
        return self._fixes_inv(h.inverse(), rep, rep.inverse())

    def _fixes_inv(self, hinv, rep, rep_inv):
        return self.emb.contains(rep * hinv * rep_inv)

    def nontrivial_fixer_of(self, points):
        """The first nontrivial h of the witness ball fixing every coset
        in ``points``, or None."""
        for h in self.witnesses:
            if not h.is_identity and all(self.fixes(h, r) for r in points):
                return h
        return None

    def cofinite_fixer(self, excluded):
        """The first nontrivial h of the witness ball fixing every sample
        coset outside ``excluded``, or None."""
        excluded = set(excluded)
        candidates = heapq.merge(*(self._movers.get(r, ()) for r in (None, *excluded)))
        for _, h, last in candidates:
            if last is None or all(self.fixes(h, r) for r in self.sample if r not in excluded):
                return h
        return None
