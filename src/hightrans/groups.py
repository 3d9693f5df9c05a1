"""Concrete group oracles.

Groups are immutable handles; an element is a word stored in the owner's
canonical normal form, so equality is payload comparison and the word
problem reduces to normal-form computation.

Determinism contract: every search in this package enumerates elements in
shortlex order over the declared generator alphabet, with letters ordered
``g0 < g0^-1 < g1 < g1^-1 < ...``.  Ball enumeration, coset representatives
and witness searches all derive from this single order.

Each kind yields its shortlex layers from its normal form, one generator
per handle: free and finite groups extend the layer before by a letter,
free-abelian and semidirect groups enumerate l1-spheres, and amalgams and
HNN extensions put a syllable before the shorter layers (Serre, *Trees*,
I.1; Lyndon-Schupp, ch. IV).  Handles cache those layers and the
conjugacy balls of ``Group.conjugates``, which every embedding into one
target shares; elements cache their spelling.  Caches are append-only
maps keyed by immutable payloads, so repeated queries are cheap.  A free
payload is its spelling already, as a string of rank code points, so its
length, shortlex order and hash need no spelling.
"""

from __future__ import annotations

import math
from itertools import count, islice, permutations
from operator import add, mul, neg


# The largest order of a table group.  A table of order n has n^2 entries
# and its check of associativity takes n^3 steps, and S_d has order d!, so
# the cap keeps a declared order or degree from costing more than its text.
MAX_FINITE_ORDER = 120


class OwnerMismatch(ValueError):
    pass


def _check_labels(labels):
    labels = tuple(labels)
    for lab in labels:
        if not lab or not isinstance(lab, str) or any(ch.isspace() for ch in lab) or "^" in lab:
            raise ValueError(f"invalid generator label: {lab!r}")
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate generator labels in {labels}")
    return labels


class Element:
    """A group element, always held in canonical normal form."""

    __slots__ = ("owner", "payload", "_hash", "_spell")

    def __init__(self, owner, payload, spelling=None):
        self.owner = owner
        self.payload = payload
        self._hash = None
        self._spell = spelling

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.owner is other.owner and self.payload == other.payload

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((id(self.owner), self.payload))
        return self._hash

    def __mul__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        if other.owner is not self.owner:
            raise OwnerMismatch(
                f"elements of {self.owner.name!r} and {other.owner.name!r} cannot be composed")
        return Element(self.owner, self.owner.multiply(self.payload, other.payload))

    def inverse(self):
        return Element(self.owner, self.owner.inverse_payload(self.payload))

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.owner.identity()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    @property
    def is_identity(self):
        return self.payload == self.owner.identity_payload

    def spelling(self):
        """Canonical letter spelling as a tuple of alphabet ranks."""
        if self._spell is None:
            self._spell = self.owner.spell(self.payload)
        return self._spell

    def length(self):
        return len(self.spelling())

    def sort_key(self):
        """The shortlex key (length, spelling); a spelling is a word for its
        element, so distinct elements of one group have distinct keys."""
        sp = self.spelling()
        return (len(sp), sp)

    def word(self):
        """The spelling as a list of (label, exponent) syllables."""
        return syllables(self.spelling(), self.owner.labels)

    def __repr__(self):
        return f"<{self.owner.name}: {format_word(self.word())}>"

    def __str__(self):
        return format_word(self.word())


def ranks(syls, offset=0):
    """The spelling of (i, exponent) syllables as a tuple of alphabet ranks,
    offset by ``offset``: |exponent| copies of rank 2i, or of 2i + 1 for a
    negative exponent; ``syllables`` merges ranks back into syllables.  The
    free-abelian and semidirect kinds spell through it; a free payload
    holds its ranks as code points."""
    out = []
    for i, exp in syls:
        out.extend([offset + 2 * i if exp > 0 else offset + 2 * i + 1] * abs(exp))
    return tuple(out)


def syllables(spelling, names):
    """Alphabet ranks merged into (names[i], exponent) syllables, one per run
    of equal ranks; rank 2i is generator i and rank 2i + 1 its inverse."""
    out = []
    last = None
    for rank in spelling:
        if rank == last:
            name, exp = out[-1]
            out[-1] = (name, exp - 1 if rank & 1 else exp + 1)
        else:
            out.append((names[rank >> 1], -1 if rank & 1 else 1))
            last = rank
    return out


def format_word(word):
    if not word:
        return "1"
    parts = []
    for lab, exp in word:
        parts.append(lab if exp == 1 else f"{lab}^{exp}")
    return " ".join(parts)


class Group:
    """Base class for group handles.

    Subclass contract: on payloads, ``multiply`` and ``inverse_payload``
    keep results in canonical normal form, and ``spell`` returns a word for
    the element as a tuple of alphabet ranks, which fixes its shortlex key.
    The constructor sets ``identity_payload`` once.  Payloads are ints,
    strings or tuples of canonical parts, so ``==`` on payloads is equality
    in the group.  Each kind states whether it is finite, once, in
    ``is_finite``, and yields its shortlex layers in ``_shortlex_layers``,
    each sorted; a finite group's end with the last that is not empty.
    Shortlex and conjugacy balls, which handles cache, need nothing beyond
    that protocol.
    """

    kind = "abstract"
    _finite = False

    def __init__(self, name, labels):
        self.name = name
        self.labels = _check_labels(labels)
        self._indices = {lab: i for i, lab in enumerate(self.labels)}
        self._letters = None
        self._layers = []         # finalized shortlex layers by canonical length
        self._layer_source = None  # _shortlex_layers(), made on first use
        self._conjugators = {}    # radius -> [(length of h, h, h^-1) over ball(radius)]
        self._conjugates = {}     # (x, radius) -> the conjugates of x, see conjugates

    # -- payload protocol ---------------------------------------------------

    def multiply(self, p, q):
        raise NotImplementedError

    def inverse_payload(self, p):
        raise NotImplementedError

    def spell(self, p):
        raise NotImplementedError

    def _shortlex_layers(self):
        """Yield the shortlex layers by canonical length, each sorted."""
        raise NotImplementedError

    def is_finite(self):
        return self._finite

    # -- elements -----------------------------------------------------------

    def identity(self):
        return Element(self, self.identity_payload)

    def generators(self):
        return [self.generator(lab) for lab in self.labels]

    def generator(self, label):
        raise NotImplementedError

    def _index(self, label):
        """The position of a generator label among ``labels``."""
        try:
            return self._indices[label]
        except KeyError:
            raise ValueError(f"unknown generator {label!r} in group {self.name!r}") from None

    def element_from_word(self, word):
        """The normal form of a list of (label, exponent) syllables."""
        x = self.identity()
        for lab, exp in word:
            x = x * (self.generator(lab) ** exp)
        return x

    def letters(self):
        """Alphabet of the shortlex order: [(rank, element), ...]."""
        if self._letters is None:
            letters = []
            for i, lab in enumerate(self.labels):
                g = self.generator(lab)
                letters.append((2 * i, g))
                letters.append((2 * i + 1, g.inverse()))
            self._letters = letters
        return self._letters

    # -- shortlex enumeration -----------------------------------------------

    def shortlex_layer(self, length):
        """Layer ``length`` in shortlex order; [] past a finite group's last."""
        layers = self._layers
        if length >= len(layers):
            if self._layer_source is None:  # not in __init__: it ties its handle into a cycle
                self._layer_source = self._shortlex_layers()
            layers.extend(islice(self._layer_source, length + 1 - len(layers)))
        return layers[length] if length < len(layers) else []

    def ball(self, radius):
        """All elements of normal-form length <= radius, shortlex ordered."""
        if radius < 0:
            raise ValueError("radius must be >= 0")
        return [x for d in range(radius + 1) for x in self.shortlex_layer(d)]

    def conjugates(self, x, radius):
        """The distinct conjugates h x h^-1 over ``ball(radius)`` in order of
        first appearance, each mapped to the length of its first conjugator
        h; balls nest, so those mapped below ``radius`` are the conjugates
        over ``ball(radius - 1)``.  Products run on payloads with one inverse
        per conjugator, and only distinct conjugates become elements."""
        if x.owner is not self:
            raise OwnerMismatch(f"{x!r} is not in {self.name!r}")
        key = (x.payload, radius)
        if key not in self._conjugates:
            if radius not in self._conjugators:
                self._conjugators[radius] = [
                    (d, h.payload, self.inverse_payload(h.payload))
                    for d in range(radius + 1) for h in self.shortlex_layer(d)]
            first, mul = {}, self.multiply
            for d, h, hinv in self._conjugators[radius]:
                first.setdefault(mul(mul(h, x.payload), hinv), d)
            self._conjugates[key] = {Element(self, c): d for c, d in first.items()}
        return self._conjugates[key]

    def iter_shortlex(self, max_radius=None):
        """Yield elements in shortlex order, layer by layer."""
        for _, _, x in self.walk_shortlex(max_radius=max_radius):
            yield x

    def walk_shortlex(self, start=(0, 0), stop=None, max_radius=None):
        """Yield (layer, index, element) in shortlex order from the position
        ``start`` up to, not including, the position ``stop``, through
        layer ``max_radius`` at most; a position indexes the cached layers."""
        d, i = start
        while (max_radius is None or d <= max_radius) and (stop is None or (d, i) < stop):
            layer = self.shortlex_layer(d)
            if d >= len(self._layers):
                return
            end = len(layer) if stop is None or d < stop[0] else min(stop[1], len(layer))
            for k in range(i, end):
                yield d, k, layer[k]
            d, i = d + 1, 0


def _prefix_closed_layers(group):
    """The shortlex layers of a kind whose canonical spellings are closed
    under prefixes: layer d is layer d - 1 extended by each letter, kept
    where the spelling grows by exactly that letter.  Layer d - 1 is
    sorted, so its children come out sorted, and the layers end with the
    last that is not empty."""
    layer, d = [group.identity()], 0
    while layer:
        yield layer
        d, children = d + 1, []
        for x in layer:
            for rank, letter in group.letters():
                y = x * letter
                spelling = y.spelling()
                if len(spelling) == d and spelling[-1] == rank:
                    children.append(y)
        layer = children


# ---------------------------------------------------------------------------
# finite groups by multiplication table


class FiniteGroup(Group):
    """A finite group given by a full multiplication table.

    ``table[i][j]`` is the index of the product of elements i and j.
    Associativity, identity and inverses are checked at construction, and
    the declared generators must generate the whole table.
    """

    kind = "finite"
    _finite = True

    def __init__(self, name, table, generator_labels, generator_indices):
        super().__init__(name, generator_labels)
        table = tuple(tuple(row) for row in table)
        n = len(table)
        if n > MAX_FINITE_ORDER:
            raise ValueError(f"{name}: order {n} exceeds {MAX_FINITE_ORDER}")
        if any(len(row) != n for row in table):
            raise ValueError(f"{name}: multiplication table must be square")
        if any(type(v) is not int or not 0 <= v < n for row in table for v in row):
            raise ValueError(f"{name}: table entries must be integers from 0 to {n - 1}")
        ident = None
        for e in range(n):
            if all(table[e][j] == j and table[j][e] == j for j in range(n)):
                ident = e
                break
        if ident is None:
            raise ValueError(f"{name}: table has no identity")
        inv = [None] * n
        for i in range(n):
            for j in range(n):
                if table[i][j] == ident and table[j][i] == ident:
                    inv[i] = j
                    break
            if inv[i] is None:
                raise ValueError(f"{name}: element {i} has no inverse")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if table[table[a][b]][c] != table[a][table[b][c]]:
                        raise ValueError(f"{name}: table is not associative at ({a},{b},{c})")
        self.table = table
        self.order = n
        self.identity_payload = ident
        self.inv_table = tuple(inv)
        gen_idx = tuple(generator_indices)
        if len(gen_idx) != len(self.labels):
            raise ValueError(f"{name}: one index per generator label required")
        if any(type(i) is not int or not 0 <= i < n for i in gen_idx):
            raise ValueError(f"{name}: generator indices must be integers from 0 to {n - 1}")
        self.gen_indices = gen_idx
        self._bfs_words = None
        if len(self._words()) != n:
            raise ValueError(f"{name}: declared generators do not generate the group")

    def _words(self):
        """Shortlex-least word (tuple of letter ranks) for every element."""
        if self._bfs_words is None:
            words = {self.identity_payload: ()}
            frontier = [self.identity_payload]
            while frontier:
                nxt = []
                for x in frontier:
                    for rank, g in self.letters():
                        y = self.table[x][g.payload]
                        if y not in words:
                            words[y] = words[x] + (rank,)
                            nxt.append(y)
                frontier = nxt
            self._bfs_words = words
        return self._bfs_words

    _shortlex_layers = _prefix_closed_layers

    def multiply(self, p, q):
        return self.table[p][q]

    def inverse_payload(self, p):
        return self.inv_table[p]

    def spell(self, p):
        return self._words()[p]

    def generator(self, label):
        i = self._index(label)
        return Element(self, self.gen_indices[i])

    def elements(self):
        return [Element(self, i) for i in range(self.order)]


def cyclic_group(name, order, label):
    """The cyclic group of the given order with one declared generator."""
    if not 1 <= order <= MAX_FINITE_ORDER:
        raise ValueError(f"{name}: order {order} is not between 1 and {MAX_FINITE_ORDER}")
    table = [[(i + j) % order for j in range(order)] for i in range(order)]
    return FiniteGroup(name, table, (label,), (1 % order,))


def trivial_group(name="1"):
    return FiniteGroup(name, [[0]], (), ())


def symmetric_group(name, degree, labels=None):
    """S_n as a table group generated by adjacent transpositions; element i
    is the i-th permutation in lexicographic order, so index 0 is the
    identity."""
    # min(): S_d with d > MAX_FINITE_ORDER is larger still, and d! is not computed
    if degree < 0 or math.factorial(min(degree, MAX_FINITE_ORDER)) > MAX_FINITE_ORDER:
        raise ValueError(
            f"{name}: S_{degree} is not a group of at most {MAX_FINITE_ORDER} elements")
    perms = sorted(permutations(range(degree)))
    index = {p: i for i, p in enumerate(perms)}

    def after(p, q):
        # apply q first, then p
        return tuple(p[q[k]] for k in range(degree))

    table = [[index[after(p, q)] for q in perms] for p in perms]
    gens = []
    for k in range(degree - 1):
        t = list(range(degree))
        t[k], t[k + 1] = t[k + 1], t[k]
        gens.append(index[tuple(t)])
    if labels is None:
        labels = tuple(f"s{k}" for k in range(degree - 1))
    return FiniteGroup(name, table, labels, tuple(gens))


# ---------------------------------------------------------------------------
# free abelian groups


def _l1_sphere(rank, radius):
    """The integer vectors with ``rank`` entries and l1 norm ``radius``."""
    if rank == 1:
        return [(radius,), (-radius,)] if radius else [(0,)]
    return [(c,) + rest for c in range(-radius, radius + 1)
            for rest in _l1_sphere(rank - 1, radius - abs(c))]


class FreeAbelianGroup(Group):
    """Z^rank; payloads are integer vectors."""

    kind = "free_abelian"

    def __init__(self, name, labels):
        super().__init__(name, labels)
        self.rank = len(self.labels)
        if self.rank < 1:
            raise ValueError(f"{name}: rank must be positive")
        self.identity_payload = (0,) * self.rank

    def multiply(self, p, q):
        return tuple(a + b for a, b in zip(p, q))

    def inverse_payload(self, p):
        return tuple(-a for a in p)

    def spell(self, p):
        return ranks(enumerate(p))

    def _shortlex_layers(self):
        """Layer d is the l1-sphere of radius d, sorted by spellings that are
        not cached: a cached one holds d ranks per element."""
        for d in count():
            yield sorted((Element(self, v) for v in _l1_sphere(self.rank, d)),
                         key=lambda x: self.spell(x.payload))

    def generator(self, label):
        i = self._index(label)
        vec = [0] * self.rank
        vec[i] = 1
        return Element(self, tuple(vec))

    def element_from_word(self, word):
        """The vector of each generator's exponent sum."""
        vec = [0] * self.rank
        for lab, exp in word:
            vec[self._index(lab)] += exp
        return Element(self, tuple(vec))


# ---------------------------------------------------------------------------
# free groups


class FreeGroup(Group):
    """Free group on the given generators.  A payload is a reduced word as
    a string with one code point per letter, its alphabet rank: chr(2i)
    for generator i and chr(2i + 1) for its inverse.  So ``len`` is the
    letter length, code-point order is rank order, (len(p), p) is the
    shortlex key, and products, lengths, comparisons and hashes run in C."""

    kind = "free"

    def __init__(self, name, labels):
        super().__init__(name, labels)
        self.rank = len(self.labels)
        if self.rank < 1:
            raise ValueError(f"{name}: rank must be positive")
        self.identity_payload = ""
        self._flip = {r: r ^ 1 for r in range(2 * self.rank)}

    _shortlex_layers = _prefix_closed_layers

    def multiply(self, p, q):
        """Only p's last and q's first letters of reduced p and q cancel:
        walk the junction while ranks 2i and 2i + 1 meet, then splice once."""
        if not p or not q or ord(p[-1]) ^ ord(q[0]) != 1:
            return p + q
        k, n, m = 1, len(p), min(len(p), len(q))
        while k < m and ord(p[n - 1 - k]) ^ ord(q[k]) == 1:
            k += 1
        return p[:n - k] + q[k:]

    def inverse_payload(self, p):
        return p[::-1].translate(self._flip)

    def spell(self, p):
        return tuple(map(ord, p))

    def generator(self, label):
        return Element(self, chr(2 * self._index(label)))

    def element_from_word(self, word):
        """Free reduction of raw syllables, each a run of one letter spliced
        onto the stack of letters; a zero exponent is dropped once its label
        is checked."""
        out = ""
        for lab, exp in word:
            out = self.multiply(out, chr(2 * self._index(lab) + (exp < 0)) * abs(exp))
        return Element(self, out)


# ---------------------------------------------------------------------------
# semidirect products Q |x Z^rank, Q finite acting by integer matrices


def _matmul(a, b):
    return tuple(tuple(sum(map(mul, row, col)) for col in zip(*b)) for row in a)


def _det(m):
    """Fraction-free (Bareiss) elimination: exact, in n^3 steps where cofactors take n!."""
    a = [list(row) for row in m]
    sign, pivot = 1, 1
    for k in range(len(a) - 1):
        swap = next((i for i in range(k, len(a)) if a[i][k]), None)
        if swap is None:
            return 0
        a[k], a[swap] = a[swap], a[k]
        sign = sign if swap == k else -sign
        for row in a[k + 1:]:
            row[k + 1:] = [(x * a[k][k] - row[k] * y) // pivot
                           for x, y in zip(row[k + 1:], a[k][k + 1:])]
        pivot = a[k][k]
    return sign * a[-1][-1]


class SemidirectGroup(Group):
    """Q |x Z^rank with Q finite; payloads are (q index, translation vector).

    The action map ``matrices[q]`` satisfies q v q^-1 = A_q v, so
    (q1, v1)(q2, v2) = (q1 q2, A_{q2^-1} v1 + v2).  The twist table holds,
    at q2, the rows of A_{q2^-1}, or None where that is the identity, which
    products and inverses then skip.
    """

    kind = "semidirect"

    def __init__(self, name, q_group, translation_labels, matrices):
        """``matrices`` holds A_q for each table index q of Q: a sequence,
        or an object keyed by the indices' decimal text, as in a problem
        file."""
        if not isinstance(q_group, FiniteGroup):
            raise ValueError(f"{name}: the acting group must be a finite table group")
        if isinstance(matrices, dict):
            keys = [str(i) for i in range(q_group.order)]
            if set(matrices) != set(keys):
                raise ValueError(f"semidirect matrices must be keyed by exactly the indices "
                                 f"0 to {q_group.order - 1}")
            matrices = [matrices[k] for k in keys]
        labels = q_group.labels + tuple(translation_labels)
        super().__init__(name, labels)
        self.q_group = q_group
        self.rank = len(tuple(translation_labels))
        if self.rank < 1:
            raise ValueError(f"{name}: translation rank must be positive")
        mats = tuple(tuple(tuple(row) for row in matrices[i]) for i in range(q_group.order))
        if any(len(m) != self.rank or any(len(row) != self.rank for row in m) for m in mats) \
                or any(type(a) is not int for m in mats for row in m for a in row):
            raise ValueError(f"{name}: action matrices must be {self.rank} x {self.rank} integers")
        ident = tuple(tuple(int(i == j) for j in range(self.rank)) for i in range(self.rank))
        if mats[q_group.identity_payload] != ident:
            raise ValueError(f"{name}: identity of Q must act trivially")
        for m in mats:
            if _det(m) not in (1, -1):
                raise ValueError(f"{name}: action matrix is not invertible over Z")
        for a in q_group.gen_indices:
            for b in range(q_group.order):
                if _matmul(mats[a], mats[b]) != mats[q_group.table[a][b]]:
                    raise ValueError(f"{name}: matrices do not define an action of Q")
        self.matrices = mats
        self._twists = tuple(None if mats[i] == ident else mats[i] for i in q_group.inv_table)
        self.identity_payload = (q_group.identity_payload, (0,) * self.rank)

    def _act(self, q2, v):
        """A_{q2^-1} v."""
        rows = self._twists[q2]
        return v if rows is None else tuple(sum(map(mul, row, v)) for row in rows)

    def multiply(self, p, q):
        q1, v1 = p
        q2, v2 = q
        return (self.q_group.table[q1][q2], tuple(map(add, self._act(q2, v1), v2)))

    def inverse_payload(self, p):
        q_inv = self.q_group.inv_table[p[0]]
        return (q_inv, tuple(map(neg, self._act(q_inv, p[1]))))

    def spell(self, p):
        q, v = p
        return self.q_group.spell(q) + ranks(enumerate(v), 2 * len(self.q_group.labels))

    def _shortlex_layers(self):
        """(q, v) has length |word(q)| + |v|_1, so layer d holds, for each q
        of Q, the l1-sphere of radius d - |word(q)|, sorted."""
        heads = [(q.payload, q.length()) for q in self.q_group.iter_shortlex()]
        for d in count():
            yield sorted((Element(self, (q, v)) for q, n in heads if n <= d
                          for v in _l1_sphere(self.rank, d - n)),
                         key=lambda x: self.spell(x.payload))

    def generator(self, label):
        nq = len(self.q_group.labels)
        i = self._index(label)
        if i < nq:
            return Element(self, (self.q_group.gen_indices[i], (0,) * self.rank))
        vec = [0] * self.rank
        vec[i - nq] = 1
        return Element(self, (self.q_group.identity_payload, tuple(vec)))


# ---------------------------------------------------------------------------
# composite kinds; the token folds live in normal_forms


def _sequence_layers(group, pieces, fits):
    """The shortlex layers of a composite kind, whose payloads are a lead
    (sigma, or an HNN head) and then a sequence of syllables.  The elements
    of a layer with lead 1 are its sequences, so layer d puts each syllable
    of length k before the sequences of layer d - k that it ``fits``, and
    each lead of length k before all of them.  ``pieces(k)`` lists the
    leads and the syllables of length k, each with its spelling."""
    one, layers, leads, syllables = group.identity_payload[0], [[group.identity()]], [], []

    for d in count(1):
        yield layers[-1]
        more_leads, more_syllables = pieces(d)
        leads.append(more_leads)
        syllables.append(more_syllables)
        layer = []
        for j in range(d):
            seqs = [y for y in layers[j] if y.payload[0] == one]
            for syl, spelling in syllables[d - 1 - j]:
                layer.extend(Element(group, (one, (syl,) + y.payload[1]), spelling + y.spelling())
                             for y in seqs if fits(syl, y.payload[1]))
            for lead, spelling in leads[d - 1 - j]:
                layer.extend(Element(group, (lead, y.payload[1]), spelling + y.spelling())
                             for y in seqs)
        layer.sort(key=Element.spelling)
        layers.append(layer)


class AmalgamGroup(Group):
    """Amalgamated product of two factors over a shared edge subgroup.

    Payloads are ``(sigma, syllables)``: an edge-group element pushed
    maximally to the left, then alternating non-identity right-coset
    representatives tagged 0 (left factor) or 1 (right factor).

    The amalgam is finite exactly when both factors are and one edge
    embedding is onto its factor: it is then the other factor.  Otherwise
    a factor is infinite, or elements a and b of the two factors outside
    the edge group make a b of infinite order.  Finite factors have a
    finite edge group, whose membership test is exact.
    """

    kind = "amalgam"

    def __init__(self, name, left, right, edge_left, edge_right):
        if edge_left.source is not edge_right.source:
            raise ValueError(f"{name}: edge embeddings must share their source group")
        if edge_left.target is not left or edge_right.target is not right:
            raise ValueError(f"{name}: edge embeddings must land in the two factors")
        if set(left.labels) & set(right.labels):
            raise ValueError(f"{name}: factor generator labels must be disjoint")
        super().__init__(name, left.labels + right.labels)
        self.left = left
        self.right = right
        self.edge_left = edge_left
        self.edge_right = edge_right
        self.edge_source = edge_left.source
        self.identity_payload = (self.edge_source.identity(), ())
        self._finite = left.is_finite() and right.is_finite() and any(
            all(edge.contains(g) for g in edge.target.generators())
            for edge in (edge_left, edge_right))

    def factor(self, side):
        return self.left if side == 0 else self.right

    def edge(self, side):
        return self.edge_left if side == 0 else self.edge_right

    def tokens(self, p):
        sigma, syls = p
        toks = []
        if not sigma.is_identity:
            toks.append((0, self.edge_left.apply(sigma)))
        toks.extend(syls)
        return toks

    def multiply(self, p, q):
        return normal_forms.reduce_amalgam_tokens(self, self.tokens(p), q)

    def inverse_payload(self, p):
        toks = [(side, x.inverse()) for side, x in reversed(self.tokens(p))]
        return normal_forms.reduce_amalgam_tokens(self, toks)

    def spell(self, p):
        sigma, syls = p
        off_right = 2 * len(self.left.labels)
        out = list(self.edge_left.apply(sigma).spelling())
        for side, x in syls:
            if side == 0:
                out.extend(x.spelling())
            else:
                out.extend(r + off_right for r in x.spelling())
        return tuple(out)

    def _shortlex_layers(self):
        """Layers by the normal-form theorem: a lead e_left(sigma) from the
        left factor's layers, then alternating nontrivial canonical
        representatives (x with ``edge.rep(x) == x``).  A finite amalgam has
        an edge onto its factor, so at most one syllable: it ends with its
        longest lead and its longest representative."""
        offset = (0, 2 * len(self.left.labels))

        def pieces(k):
            return ([(self.edge_left.decompose(x)[0], x.spelling())
                     for x in self.left.shortlex_layer(k) if self.edge_left.contains(x)],
                    [((side, x), tuple(r + offset[side] for r in x.spelling()))
                     for side in (0, 1) for x in self.factor(side).shortlex_layer(k)
                     if self.edge(side).rep(x) == x])

        layers = _sequence_layers(self, pieces, lambda syl, seq: not seq or seq[0][0] != syl[0])
        if not self._finite:
            return layers
        lead = max(x.length() for x in self.left.iter_shortlex() if self.edge_left.contains(x))
        rep = max(x.length() for side in (0, 1) for x in self.factor(side).iter_shortlex()
                  if self.edge(side).rep(x) == x)
        return islice(layers, lead + rep + 1)

    def generator(self, label):
        if label in self.left.labels:
            return self.include(0, self.left.generator(label))
        return self.include(1, self.right.generator(label))

    def element_from_word(self, word):
        """One fold of the word's factor runs, each reduced in its factor."""
        return Element(self, normal_forms.reduce_amalgam_tokens(
            self, normal_forms._raw_tokens(self, word)))

    def include(self, side, x, onto=None):
        """The canonical injection of a factor element; x * onto when an
        element ``onto`` is given, by one fold step onto its normal form.
        The step raises OwnerMismatch for an x outside the factor."""
        if onto is not None and onto.owner is not self:
            raise OwnerMismatch(f"{onto!r} is not in {self.name!r}")
        lead, syls = self.identity_payload if onto is None else onto.payload
        lead, r, consumed = normal_forms.amalgam_step(self, side, x, lead,
                                                      syls[0] if syls else None)
        syls = syls[1:] if consumed else syls
        return Element(self, (lead, syls if r.is_identity else ((side, r),) + syls))

    def sigma_embedding(self):
        """The edge subgroup included into the amalgam itself."""
        if not hasattr(self, "_sigma_emb"):
            images = [self.include(0, self.edge_left.apply(g))
                      for g in self.edge_source.generators()]
            self._sigma_emb = embeddings.Embedding(f"{self.name}.edge", self.edge_source, self,
                                                   images)
        return self._sigma_emb


class HnnGroup(Group):
    """HNN extension of a base group along an isomorphism of two subgroups.

    ``edge_r`` embeds the abstract edge group as the subgroup conjugated by
    the stable letter, ``edge_s`` as its image, so t r(x) t^-1 = s(x).
    Payloads are Britton-reduced ``(head, tail)`` with the head an arbitrary
    base element and the tail a sequence of (epsilon, representative) pairs:
    after t^eps the base part is the canonical right-coset representative of
    image(edge_r) for eps = +1 and of image(edge_s) for eps = -1.
    """

    kind = "hnn"

    def __init__(self, name, base, edge_r, edge_s, stable_label="t"):
        if edge_r.source is not edge_s.source:
            raise ValueError(f"{name}: edge embeddings must share their source group")
        if edge_r.target is not base or edge_s.target is not base:
            raise ValueError(f"{name}: edge embeddings must land in the base group")
        if stable_label in base.labels:
            raise ValueError(f"{name}: stable letter clashes with a base generator")
        super().__init__(name, base.labels + (stable_label,))
        self.base = base
        self.edge_r = edge_r
        self.edge_s = edge_s
        self.stable_label = stable_label
        self.edge_source = edge_r.source
        self.identity_payload = (base.identity(), ())

    def sigma_edge(self, eps):
        return self.edge_r if eps == 1 else self.edge_s

    def tokens(self, p):
        head, tail = p
        toks = []
        if not head.is_identity:
            toks.append(("b", head))
        for eps, r in tail:
            toks.append(("t", eps))
            if not r.is_identity:
                toks.append(("b", r))
        return toks

    def multiply(self, p, q):
        return normal_forms.reduce_hnn_tokens(self, self.tokens(p), q)

    def inverse_payload(self, p):
        toks = []
        for kind, val in reversed(self.tokens(p)):
            if kind == "b":
                toks.append(("b", val.inverse()))
            else:
                toks.append(("t", -val))
        return normal_forms.reduce_hnn_tokens(self, toks)

    def spell(self, p):
        head, tail = p
        t_rank = 2 * len(self.base.labels)
        out = list(head.spelling())
        for eps, r in tail:
            out.append(t_rank if eps == 1 else t_rank + 1)
            out.extend(r.spelling())
        return tuple(out)

    def _shortlex_layers(self):
        """Layers by Britton's lemma: any base head, then entries (eps, r)
        costing 1 + |r|, and no (eps, 1) before -eps (the pinch of
        ``reduce_hnn_tokens``)."""
        letter = {1: 2 * len(self.base.labels), -1: 2 * len(self.base.labels) + 1}

        def pieces(k):
            return ([(x, x.spelling()) for x in self.base.shortlex_layer(k)],
                    [((eps, r), (letter[eps],) + r.spelling()) for eps in (1, -1)
                     for r in self.base.shortlex_layer(k - 1) if self.sigma_edge(eps).rep(r) == r])

        return _sequence_layers(self, pieces, lambda entry, tail: not (
            entry[1].is_identity and tail and tail[0][0] == -entry[0]))

    def generator(self, label):
        if label == self.stable_label:
            return self.stable()
        return self.include(self.base.generator(label))

    def stable(self):
        return Element(self, (self.base.identity(), ((1, self.base.identity()),)))

    def element_from_word(self, word):
        """One Britton fold of the word's base runs, each reduced in the
        base, and its stable letters."""
        return Element(self, normal_forms.reduce_hnn_tokens(
            self, normal_forms._raw_tokens(self, word)))

    def include(self, x, onto=None):
        """The canonical injection of a base element; x * onto when an
        element ``onto`` is given, which rewrites only its head.  The
        product x * head raises OwnerMismatch for an x outside the base."""
        if onto is not None and onto.owner is not self:
            raise OwnerMismatch(f"{onto!r} is not in {self.name!r}")
        head, tail = self.identity_payload if onto is None else onto.payload
        return Element(self, (x * head, tail))

    def sigma_embedding(self, eps):
        """Sigma (eps=+1) or its stable-letter image (eps=-1) inside the HNN group."""
        attr = "_sigma_emb_pos" if eps == 1 else "_sigma_emb_neg"
        if not hasattr(self, attr):
            edge = self.sigma_edge(eps)
            images = [self.include(edge.apply(g)) for g in self.edge_source.generators()]
            setattr(self, attr, embeddings.Embedding(
                f"{self.name}.edge{'+' if eps == 1 else '-'}", self.edge_source, self, images))
        return getattr(self, attr)


# The composite kinds reduce through normal_forms and include their edge
# subgroups through embeddings; both modules import this one, so they are
# bound here, once every name above exists.
from . import embeddings, normal_forms  # noqa: E402
