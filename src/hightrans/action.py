"""The countable set X = Gamma, its free action, and the partially built
intertwiner.

Points are group elements; every group element acts freely by left
multiplication, so orbits and their canonical representatives reduce to
coset decompositions in Gamma.  An edge subgroup of infinite index, as
the hypotheses require, splits X into infinitely many orbits.

The intertwiner is a bijection of X held as a finite equivariant rewiring
over a total default (left multiplication by the stable letter in HNN
mode, the identity in amalgam mode).  Each committed orbit stores one
anchor pair; the equivariance law reconstructs the rest of the orbit, so
the map is exact and O(1) per orbit.  A point is read in orbit
coordinates, x = e(sigma) rep, and since the stable letter carries the
source embedding to the target one (t r(a) t^-1 = s(a)), the image of x
in the orbit of an anchor (x0, y0) is e_dst(sigma sigma0^-1) y0: one fold
step onto y0, whatever the length of x.  Rewirings only ever extend: a batch
permutes the default images of its source orbits, which keeps the total
map a bijection at every instant, and an evaluation with ``commit=True``
pins the default orbits it touches, so its value holds in every later
state.
"""

from __future__ import annotations

from .groups import Element, OwnerMismatch


def orbit_map(embedding):
    """The orbit coordinates of a point: x -> (sigma, rep) with
    x = e(sigma) rep and rep the canonical representative of the orbit
    (image subgroup) . x, where e is the embedding.

    For the edge subgroup Sigma of an amalgam or HNN group the coordinates
    are read off the normal form.  An amalgam payload (sigma, syls) carries
    its Sigma part in front and its leading syllable is already a canonical
    coset representative, so (sigma, syls) = e(sigma) (1, syls).  Sigma
    moves only the head of an HNN payload (head, tail), and the least mate
    keeps the tail, so with head = edge(s) r in the base,
    (head, tail) = e(s) (r, tail).  Any other embedding splits the point by
    ``Embedding.decompose``.
    """
    gamma = embedding.target
    if gamma.kind == "amalgam" and embedding is gamma.sigma_embedding():
        one = gamma.identity_payload[0]

        def split(x):
            sigma, syls = x.payload
            if sigma.is_identity:
                return sigma, x
            return sigma, Element(gamma, (one, syls))
        return split
    if gamma.kind == "hnn":
        for eps in (1, -1):
            if embedding is gamma.sigma_embedding(eps):
                decompose = gamma.sigma_edge(eps).decompose

                def split(x):
                    head, tail = x.payload
                    s, r = decompose(head)
                    if s.is_identity:
                        return s, x
                    return s, Element(gamma, (r, tail))
                return split
    return embedding.decompose


def orbit_rep_map(embedding):
    """The canonical orbit representative, as a function of the point: the
    rep coordinate of ``orbit_map``."""
    split = orbit_map(embedding)
    return lambda x: split(x)[1]


class LevelAction:
    """A group acting on X = Gamma by left multiplication, given as
    ``left_multiply(h, g) = h g`` in Gamma, together with the subgroup whose
    orbits the searches reason about: ``sigma`` embeds it in Gamma, ``edge``
    in the acting group, so that s h x and h x share a Sigma-orbit for every
    s in Sigma and ``edge.rep(h)`` names what a witness search learns about
    h."""

    def __init__(self, group, left_multiply, sigma, edge):
        self.group = group
        self.left_multiply = left_multiply
        self.sigma = sigma
        self.edge = edge
        self.orbit_rep = orbit_rep_map(sigma)

    def act(self, h, x):
        return self.left_multiply(h, x)


class StateError(ValueError):
    """A rewiring request violated a state invariant."""


class IntertwinerState:
    """The partially built intertwiner w.

    ``anchors`` maps a committed source-orbit representative to its anchor
    pair (x0, y0); ``dst_index`` is the inverse view keyed by target-orbit
    representatives.  Equivariance law: w(e_src(a) x0) = e_dst(a) y0 for
    every a in Sigma and every anchor pair, with e_src and e_dst the
    embeddings ``sigma_src`` and ``sigma_dst`` (the same one in amalgam
    mode; r and s, with t r(a) t^-1 = s(a), in HNN mode).
    """

    def __init__(self, gamma, sigma_src, sigma_dst):
        self.gamma = gamma
        self.mode = gamma.kind
        self.sigma_src = sigma_src
        self.sigma_dst = sigma_dst
        self.stable = gamma.stable() if self.mode == "hnn" else None
        self.stable_inv = self.stable.inverse() if self.mode == "hnn" else None
        self.src_split = orbit_map(sigma_src)
        self.dst_split = orbit_map(sigma_dst)
        self.src_orbit = orbit_rep_map(sigma_src)
        self.dst_orbit = orbit_rep_map(sigma_dst)
        self.anchors = {}
        self.dst_index = {}
        # a shortlex position of Gamma before which every point is a
        # non-representative or a committed orbit (anchors only grow between steps)
        self.fresh_from = (0, 0)
        # the builder's witness-search cursors, one per LevelAction
        self.cursors = {}

    # -- structure ----------------------------------------------------------

    def twist(self, s):
        if self.mode == "amalgam":
            return s
        return self.stable * s * self.stable_inv

    def default_image(self, x):
        """t . x in hnn mode, x itself in amalgam mode."""
        if self.mode == "amalgam":
            return x
        return self.stable * x

    def default_preimage(self, x):
        if self.mode == "amalgam":
            return x
        return self.stable_inv * x

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, x, inverse=False, commit=False):
        """w(x) (or its inverse image); a bijection of X for every state.

        With ``commit=True`` an untouched orbit is pinned to its default
        image before evaluating, so the value can never change in a later
        state.  In the orbit of an anchor (x0, y0), x = e_src(sigma) r and
        x0 = e_src(sigma0) r give w(x) = e_dst(sigma sigma0^-1) y0, and
        symmetrically for the inverse.
        """
        if not inverse:
            sigma, rep = self.src_split(x)
            pair = self.anchors.get(rep)
            if pair is None:
                if not commit:
                    return self.default_image(x)
                pair = (rep, self.default_image(rep))
                self.commit_batch([pair])
            x0, y0 = pair
            return self._carry(self.sigma_dst, sigma, self.src_split(x0)[0], y0)
        sigma, rep = self.dst_split(x)
        pair = self.dst_index.get(rep)
        if pair is None:
            pre = self.default_preimage(x)
            if not commit:
                return pre
            srep = self.src_orbit(pre)
            pair = (srep, self.default_image(srep))
            self.commit_batch([pair])
        x0, y0 = pair
        return self._carry(self.sigma_src, sigma, self.dst_split(y0)[0], x0)

    @staticmethod
    def _carry(embedding, sigma, sigma0, point):
        """e(sigma sigma0^-1) point: the anchor's image moved along its orbit."""
        if sigma == sigma0:
            return point
        return embedding.apply(sigma * sigma0.inverse()) * point

    # -- mutation -------------------------------------------------------------

    def commit_batch(self, pairs):
        """Extend the rewiring by a batch of anchor pairs.

        The batch must consist of fresh source orbits whose default images
        are exactly the target orbits (as a set), so the total map stays a
        bijection.  Three checks guard that: no source orbit is committed,
        the sources are pairwise distinct, and the targets are their
        default images.  Fresh and distinct targets follow: the default map
        is a bijection on orbits, and the committed targets are the default
        images of the committed sources, as every batch permutes them.
        """
        src_reps, dst_reps, default_reps = [], [], []
        for x0, y0 in pairs:
            if x0.owner is not self.gamma or y0.owner is not self.gamma:
                raise OwnerMismatch("anchor points must live in the acting group")
            srep = self.src_orbit(x0)
            if srep in self.anchors:
                raise StateError(f"source orbit of {x0!r} is already committed")
            src_reps.append(srep)
            dst_reps.append(self.dst_orbit(y0))
            default_reps.append(self.dst_orbit(self.default_image(x0)))
        if len(set(src_reps)) != len(src_reps):
            raise StateError("batch source orbits must be pairwise distinct")
        if set(dst_reps) != set(default_reps):
            raise StateError("batch must permute the default images of its sources")
        for (x0, y0), srep, drep in zip(pairs, src_reps, dst_reps):
            self.anchors[srep] = (x0, y0)
            self.dst_index[drep] = (x0, y0)

    def undo(self, size):
        """Pop both views back to ``size`` anchors, newest first."""
        while len(self.anchors) > size:
            self.anchors.popitem()
            self.dst_index.popitem()

    def check_equivariance(self, pairs):
        """The equivariance law at the given anchor pairs; exact.  With x0 =
        e_src(sigma0) rep0, each generator a of Sigma must move x0 to the split
        (a sigma0, rep0), and w(x0) = y0 and w^-1(y0) = x0 must hold.  As
        ``apply`` is a homomorphism, w(e_src(a) x0) = e_dst(a) y0 follows, so
        this is at least as strict as evaluating both sides, at one Gamma
        product per a.  No certificate field reaches it: it is a law of the
        orbit map and two lookups."""
        for x0, y0 in pairs:
            sigma0, rep0 = self.src_split(x0)
            moved = (self.src_split(self.sigma_src.apply(a) * x0) == (a * sigma0, rep0)
                     for a in self.sigma_src.source.generators())
            if not all(moved) or self.evaluate(x0) != y0 or self.evaluate(y0, inverse=True) != x0:
                return False
        return True


def evaluate_pi(state, g, x, commit=False):
    """Evaluate the induced homomorphism at g on the point x.

    Amalgam mode: left-factor syllables act by left multiplication, right-
    factor syllables act conjugated through w.  HNN mode: stable letters
    act by w, base syllables by left multiplication.  Syllables are applied
    right to left, each left multiplication as one fold step onto the
    point's normal form.
    """
    gamma = state.gamma
    if g.owner is not gamma:
        raise OwnerMismatch(f"{g!r} does not live in {gamma.name!r}")
    cur = x
    if state.mode == "amalgam":
        sigma, syls = g.payload
        for side, r in reversed(syls):
            if side == 0:
                cur = gamma.include(0, r, cur)
            else:
                cur = state.evaluate(cur, commit=commit)
                cur = gamma.include(1, r, cur)
                cur = state.evaluate(cur, inverse=True, commit=commit)
        if not sigma.is_identity:
            cur = gamma.include(0, gamma.edge_left.apply(sigma), cur)
        return cur
    head, tail = g.payload
    for eps, r in reversed(tail):
        if not r.is_identity:
            cur = gamma.include(r, cur)
        cur = state.evaluate(cur, inverse=(eps == -1), commit=commit)
    if not head.is_identity:
        cur = gamma.include(head, cur)
    return cur


def allocate_fresh_orbits(state, count, avoid=()):
    """Deterministically pick fresh, pairwise distinct source orbits.

    Representatives are scanned in shortlex order, skipping committed
    orbits and the orbits of the avoid set.  The scan starts at the state's
    ``fresh_from`` position and moves it up to the first orbit it meets
    that is not committed, so no position is passed twice.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    avoid_reps = {state.src_orbit(p) for p in avoid}
    out = []
    settled = True
    for d, i, g in state.gamma.walk_shortlex(state.fresh_from):
        rep = state.src_orbit(g)
        if rep != g or rep in state.anchors:
            continue
        if settled:
            state.fresh_from = (d, i)
            settled = False
        if rep in avoid_reps:
            continue
        avoid_reps.add(rep)
        out.append(rep)
        if len(out) == count:
            break
    return out
