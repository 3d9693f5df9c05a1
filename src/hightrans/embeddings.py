"""Subgroup embeddings with membership tests and transversal oracles.

An Embedding carries a monomorphism source -> target given by generator
images.  Membership and coset decomposition are dispatched to a decision
procedure chosen from the (source, target) kinds:

  * trivial source: everything is exact and immediate;
  * finite source: the image is enumerated once and cached;
  * free-abelian target: integer lattice arithmetic (column echelon form);
  * infinite-cyclic source in a free target: an exact letter-length
    formula for membership, and the least coset element among three
    powers read off the free reduction;
  * subgroup of one factor of a composite target: peel the normal form and
    recurse into the factor.

An embedding that none of these decides is refused when it is built, with
a ValueError naming it: every answer is exact.  Coset representatives are
canonical (shortlex-minimal for the base procedures) and cached per
embedding, so orbit representatives downstream are stable across a whole
run.
"""

from __future__ import annotations

import math

from . import groups
from .groups import Element


# A checked embedding must be injective on the source ball of this radius.
INJECTIVITY_BOUND = 4


def _is_infinite_cyclic(g):
    return (g.kind == "free_abelian" or g.kind == "free") and g.rank == 1


class TrivialStrategy:
    """Image is the trivial subgroup."""

    def __init__(self, emb):
        self.emb = emb

    def contains(self, g):
        return g.is_identity

    def decompose(self, g):
        return (self.emb.source.identity(), g)


class FiniteImageStrategy:
    """Finite source: enumerate the whole image once."""

    def __init__(self, emb):
        self.emb = emb
        self._map = None

    def _image_map(self):
        """The table e(s) -> s, each image mapped to its first preimage in
        the source's shortlex order; built on first use."""
        if self._map is None:
            self._map = {}
            for s in self.emb.source.iter_shortlex():
                self._map.setdefault(self.emb.apply(s), s)
        return self._map

    def contains(self, g):
        return g in self._image_map()

    def decompose(self, g):
        """The least of the coset mates e(s) g; each mate e(s) g is cached as
        (s s_best^-1, best), g itself being the mate of s = 1."""
        mates = [(img * g, s) for img, s in self._image_map().items()]
        best, s_best = min(mates, key=lambda m: m[0].sort_key())
        inv = s_best.inverse()
        cache = self.emb._decompose_cache
        for m, s in mates:
            cache[m.payload] = (s * inv, best)
        return (inv, best)


class LatticeStrategy:
    """Free-abelian target: the image is an integer lattice.

    Kept in column echelon form with a unimodular transform so membership,
    preimages and canonical (shortlex-minimal) coset representatives are all
    exact.
    """

    def __init__(self, emb):
        self.emb = emb
        cols = [list(img.payload) for img in emb.images]
        k = len(cols)
        u_cols = [[1 if i == j else 0 for i in range(k)] for j in range(k)]
        rank_t = emb.target.rank
        pivots = []
        lead = 0
        for row in range(rank_t):
            while True:
                nz = [j for j in range(lead, k) if cols[j][row] != 0]
                if len(nz) <= 1:
                    break
                nz.sort(key=lambda j: abs(cols[j][row]))
                j0, j1 = nz[0], nz[1]
                q = cols[j1][row] // cols[j0][row]
                cols[j1] = [a - q * b for a, b in zip(cols[j1], cols[j0])]
                u_cols[j1] = [a - q * b for a, b in zip(u_cols[j1], u_cols[j0])]
            if nz:
                j = nz[0]
                cols[lead], cols[j] = cols[j], cols[lead]
                u_cols[lead], u_cols[j] = u_cols[j], u_cols[lead]
                if cols[lead][row] < 0:
                    cols[lead] = [-a for a in cols[lead]]
                    u_cols[lead] = [-a for a in u_cols[lead]]
                pivots.append((row, lead))
                lead += 1
        self.basis = [tuple(cols[j]) for _, j in pivots]
        self.pivot_rows = [row for row, _ in pivots]
        self.transform = [tuple(u_cols[j]) for _, j in pivots]
        self.dim = rank_t

    def _reduce(self, vec):
        """(pivot coefficients, residue) of vec over the basis, by floor
        division at each pivot row in turn.  The echelon basis is zero above
        each pivot row and its pivots are positive, so the residue is zero
        exactly when vec lies in the lattice, and the coefficients then
        express vec."""
        w = list(vec)
        coeffs = []
        for (prow, col) in zip(self.pivot_rows, self.basis):
            c = w[prow] // col[prow]
            coeffs.append(c)
            w = [a - c * b for a, b in zip(w, col)]
        return coeffs, w

    def _lattice_points(self, bound):
        """All lattice vectors of l1 norm <= bound."""
        out = []
        m = len(self.basis)

        def rec(i, partial):
            if i == m:
                if sum(abs(a) for a in partial) <= bound:
                    out.append(tuple(partial))
                return
            prow = self.pivot_rows[i]
            col = self.basis[i]
            p = col[prow]
            base = partial[prow]
            lo = -((bound + base) // p)
            hi = (bound - base) // p
            for c in range(lo, hi + 1):
                rec(i + 1, [a + c * b for a, b in zip(partial, col)])

        rec(0, [0] * self.dim)
        return out

    def contains(self, g):
        return not any(self._reduce(g.payload)[1])

    def decompose(self, g):
        tgt = self.emb.target
        vec = g.payload
        _, res = self._reduce(vec)
        m = sum(abs(a) for a in res)
        # the zero lattice vector keeps the residue itself among the candidates
        best = min((Element(tgt, tuple(a - b for a, b in zip(res, l)))
                    for l in self._lattice_points(2 * m)), key=Element.sort_key)
        diff = tuple(a - b for a, b in zip(vec, best.payload))
        coeffs, _ = self._reduce(diff)
        coords = [0] * len(self.emb.images)
        for c, ucol in zip(coeffs, self.transform):
            for j in range(len(coords)):
                coords[j] += c * ucol[j]
        src = self.emb.source
        return (src.element_from_word(zip(src.labels, coords)), best)


def _leading_periods(spelling, period):
    """How many whole copies of ``period`` the spelling begins with."""
    n, m = len(period), 0
    while spelling[m * n:(m + 1) * n] == period:
        m += 1
    return m


class CyclicFreeStrategy:
    """Infinite cyclic subgroup of a free group, via c = u d u^-1.

    After cyclic reduction the letter length of c^k is exactly
    2|u| + |k||d|, which makes membership a length check and one
    comparison.  The length of c^k g is V-shaped in k: it is |u| plus the
    distance from g's projection onto the axis of c to the orbit point of
    c^-k, plus the distance from g to that axis (Serre, *Trees*, I.6), so
    the shortlex-minimal coset element is one of three powers, read off
    the free reduction of u^-1 g.
    """

    def __init__(self, emb):
        self.emb = emb
        sp = emb.images[0].spelling()
        lo, hi = 0, len(sp) - 1
        while lo < hi and sp[lo] == sp[hi] ^ 1:
            lo, hi = lo + 1, hi - 1
        tgt = emb.target
        self.u = tgt.element_from_word(groups.syllables(sp[:lo], tgt.labels))
        self.core = tgt.element_from_word(groups.syllables(sp[lo:hi + 1], tgt.labels))
        self.len_u, self.len_core = lo, hi + 1 - lo
        self._u_inv = self.u.inverse()
        self._core_spell = self.core.spelling()
        self._core_inv_spell = self.core.inverse().spelling()
        self._powers = {}

    def _power(self, k):
        """(c^k, the source generator to the power k), each built once."""
        out = self._powers.get(k)
        if out is None:
            src = self.emb.source
            out = self._powers[k] = (self.u * (self.core ** k) * self._u_inv,
                                     src.element_from_word([(src.labels[0], k)]))
        return out

    def contains(self, g):
        """A letter length is the sum of |exponent| over the payload."""
        p = g.payload
        if not p:
            return True
        rem = sum(abs(exp) for _, exp in p) - 2 * self.len_u
        if rem <= 0 or rem % self.len_core:
            return False
        k = rem // self.len_core
        return p == self._power(k)[0].payload or p == self._power(-k)[0].payload

    def decompose(self, g):
        """The least of c^k g for k in {k0 - 1, k0, k0 + 1}, with k0 = +m
        when u^-1 g begins with m whole periods of d^-1 and -m when it
        begins with m of d: c^k0 g = u h' with h' beginning with neither
        d nor d^-1, so g's projection onto the axis lies within one period
        of the orbit point of c^-k0.  A mate's letter length is its sum of
        |exponent|; only mates tied at the least are spelled, so the order
        stays shortlex.  The others are cached as (gen^(k - best_k), best)."""
        tgt = self.emb.target
        h = tgt.spell(tgt.multiply(self._u_inv.payload, g.payload) if self.len_u else g.payload)
        k0 = _leading_periods(h, self._core_inv_spell) or -_leading_periods(h, self._core_spell)
        mates = [(tgt.multiply(self._power(k)[0].payload, g.payload), k)
                 for k in (k0 - 1, k0, k0 + 1)]
        lengths = [sum(abs(exp) for _, exp in m) for m, _ in mates]
        tied = [mate for mate, n in zip(mates, lengths) if n == min(lengths)]
        spelling, (best_p, best_k) = None, tied[0]
        if len(tied) > 1:
            spelling, best_p, best_k = min((tgt.spell(m), m, k) for m, k in tied)
        best = Element(tgt, best_p)
        best._spell = spelling
        cache = self.emb._decompose_cache
        for m, k in mates:
            cache[m] = (self._power(k - best_k)[1], best)
        return (self._power(-best_k)[1], best)


class FactorStrategy:
    """Subgroup of one factor of a composite group.

    Normal forms make the factor part of any element explicit, so
    membership peels the composite layer and recurses exactly.
    """

    def __init__(self, outer, side, inner):
        self.outer = outer
        self.side = side
        self.inner = inner

    def _split(self, g):
        """g = include(u) * rest with u the maximal factor-side left part."""
        if self.outer.kind == "hnn":
            head, tail = g.payload
            return head, tail
        sigma, syls = g.payload
        u = self.outer.edge(self.side).apply(sigma)
        rest = syls
        if syls and syls[0][0] == self.side:
            u = u * syls[0][1]
            rest = syls[1:]
        return u, rest

    def _extract(self, g):
        u, rest = self._split(g)
        return u if not rest else None

    def contains(self, g):
        part = self._extract(g)
        return part is not None and self.inner.contains(part)

    def decompose(self, g):
        u, rest = self._split(g)
        s, r_in = self.inner.decompose(u)
        outer = self.outer
        if outer.kind == "hnn":
            rep = Element(outer, (r_in, rest))
        else:
            sig2, x2 = outer.edge(self.side).decompose(r_in)
            syls = ((self.side, x2),) + rest if not x2.is_identity else rest
            rep = Element(outer, (sig2, syls))
        return (s, rep)


class BoundedStrategy:
    """Empty and unreachable: ``_choose_strategy`` refuses an embedding that
    no exact procedure decides, so nothing builds this class.  It stays
    only because ``bench/tracer.py`` hooks these two methods, until the
    benchmark drops them (ROADMAP item 8)."""

    def contains(self, g):
        """Never called."""

    def decompose(self, g):
        """Never called."""


def _factor_route(emb):
    tgt = emb.target
    sides = (0, 1) if tgt.kind == "amalgam" else ("base",)
    for side in sides:
        probe = FactorStrategy(tgt, side, None)
        parts = [probe._extract(img) for img in emb.images]
        if all(p is not None for p in parts):
            factor = tgt.base if tgt.kind == "hnn" else tgt.factor(side)
            inner = Embedding(f"{emb.name}|factor", emb.source, factor, parts, check=False)
            probe.inner = inner
            return probe
    return None


def _choose_strategy(emb):
    src, tgt = emb.source, emb.target
    if all(img.is_identity for img in emb.images):
        return TrivialStrategy(emb)
    if src.is_finite():
        return FiniteImageStrategy(emb)
    if tgt.kind == "free_abelian" and (src.kind == "free_abelian" or _is_infinite_cyclic(src)):
        return LatticeStrategy(emb)
    if _is_infinite_cyclic(src) and tgt.kind == "free":
        return CyclicFreeStrategy(emb)
    if tgt.kind in ("amalgam", "hnn"):
        routed = _factor_route(emb)
        if routed is not None:
            return routed
    raise ValueError(f"{emb.name}: no exact membership procedure decides the image of "
                     f"{src.name} in {tgt.name}")


class Embedding:
    """A monomorphism source -> target given by generator images."""

    def __init__(self, name, source, target, images, check=True):
        self.name = name
        self.source = source
        self.target = target
        images = tuple(images)
        if len(images) != len(source.labels):
            raise ValueError(f"{name}: one image per source generator required")
        for img in images:
            if img.owner is not target:
                raise ValueError(f"{name}: image {img!r} does not live in {target.name!r}")
        self.images = images
        self._apply_cache = {source.identity_payload: target.identity()}
        self._decompose_cache = {}
        if check:
            self._check_homomorphism()
            self._check_injectivity()
        self.strategy = _choose_strategy(self)

    def __repr__(self):
        return f"<Embedding {self.name}: {self.source.name} -> {self.target.name}>"

    def apply(self, s):
        if s.owner is not self.source:
            raise groups.OwnerMismatch(f"{s!r} is not in the source of {self.name!r}")
        cached = self._apply_cache.get(s.payload)
        if cached is None:
            out = self.target.identity()
            for img, exp in groups.syllables(s.spelling(), self.images):
                out = out * (img ** exp)
            self._apply_cache[s.payload] = out
            cached = out
        return cached

    def contains(self, g):
        """Whether g lies in the image subgroup."""
        if g.owner is not self.target:
            raise groups.OwnerMismatch(f"{g!r} is not in the target of {self.name!r}")
        if g.is_identity:
            return True
        return self.strategy.contains(g)

    def decompose(self, g):
        """g = apply(s) * r with r the canonical right-coset representative."""
        if g.owner is not self.target:
            raise groups.OwnerMismatch(f"{g!r} is not in the target of {self.name!r}")
        cached = self._decompose_cache.get(g.payload)
        if cached is None:
            cached = self.strategy.decompose(g)
            self._decompose_cache[g.payload] = cached
        return cached

    def rep(self, g):
        """Canonical representative of the coset image*g."""
        return self.decompose(g)[1]

    def is_trivial(self):
        return isinstance(self.strategy, TrivialStrategy)

    def infinite_index(self):
        """True only when the membership strategy proves infinite index.

        A finite image in an infinite group, a nontrivial cyclic subgroup of a
        free group of rank >= 2 (Lyndon-Schupp, ch. I), and a lattice of
        rank below the target's rank all have infinite index.  False means
        only "not proved here".
        """
        s, tgt = self.strategy, self.target
        if isinstance(s, (TrivialStrategy, FiniteImageStrategy)):
            return not tgt.is_finite()
        if isinstance(s, CyclicFreeStrategy):
            return tgt.rank >= 2
        if isinstance(s, LatticeStrategy):
            return len(s.basis) < tgt.rank
        return False

    def finite_index(self):
        """The index of the image when the membership strategy knows it
        exactly, else None: a full-rank lattice has index the product of
        its pivots (the determinant of its echelon basis)."""
        s = self.strategy
        if isinstance(s, LatticeStrategy) and len(s.basis) == self.target.rank:
            return math.prod(col[row] for row, col in zip(s.pivot_rows, s.basis))
        return None

    # -- construction-time sanity -------------------------------------------

    def _check_homomorphism(self):
        src = self.source
        if src.kind == "finite":
            elems = src.elements()
            for a in elems:
                for b in elems:
                    if self.apply(a * b) != self.apply(a) * self.apply(b):
                        raise ValueError(f"{self.name}: images do not respect the table")
        elif src.kind == "free_abelian":
            for i in range(len(self.images)):
                for j in range(i):
                    x, y = self.images[i], self.images[j]
                    if x * y != y * x:
                        raise ValueError(f"{self.name}: images of commuting generators must commute")
        elif src.kind == "free":
            pass
        else:
            for a in src.ball(2):
                for b in src.ball(2):
                    if self.apply(a * b) != self.apply(a) * self.apply(b):
                        raise ValueError(f"{self.name}: images do not respect relations at bound 2")

    def _check_injectivity(self):
        seen = {}
        for s in self.source.ball(INJECTIVITY_BOUND):
            img = self.apply(s)
            if img in seen and seen[img] != s:
                raise ValueError(
                    f"{self.name}: not injective at bound {INJECTIVITY_BOUND} "
                    f"({seen[img]!r} and {s!r} share an image)")
            seen[img] = s
