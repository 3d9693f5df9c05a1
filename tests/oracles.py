"""Independent oracles the test suite checks normal forms against.

Most never touch the normal-form machinery: words are evaluated directly
in faithful matrix or affine representations, so agreement is a genuine
cross-check and disagreement localizes a reduction bug.  The product of
a word one letter at a time is the slow path of
``Group.element_from_word``; the semidirect product by its matrices,
twist or no twist, the action law over every pair of Q and the
determinant by cofactors are the slow paths of
``SemidirectGroup.multiply`` and of its checks.  The walk over
every power of a cyclic coset in reach, the three candidate powers
compared by their whole shortlex keys, and the parse with one token per
syllable are the slow paths of the closed-form cyclic decomposition, of
its pick by letter length and of the one-token-per-run parse.  The BFS
over letter products is the slow path of every kind's shortlex layer
generator.  The two-phase token reducers below are
the slow path the one-syllable fold replaced; they reduce a whole token
list from scratch.  The engine oracles are the
shortlex-first witness rule, a witness search that tests every element
instead of skipping failed Sigma-cosets, allocation by a scan from
scratch, intertwiner evaluation by the equivariance formula alone (with
``untwist``, the inverse of ``IntertwinerState.twist``), the equivariance
law with both sides evaluated at every anchor, H acting on
itself by left multiplication, the schedule as it was (the tuples of a sum
as one whole list, and Gamma walked once for the points and again for the
faithfulness elements), and the step-by-step replay of a certificate
against its schedule.
Then come test beds that no command runs: the embeddings no problem file
defines (<[a,b]> in F2, 2Z, Z and the trivial group in Z, the point
stabilizers C2 in S3 and S3 in S4, and Z as a factor of Z^2); the
stable-letter count
of an HNN normal form; and the fundamental group of a whole graph.
The audit oracles are the slow paths the exact audit shortcuts
replaced: a finite-index walk that always walks, the coset action with
fixers by coset decomposition, and structural certificates that build
every conjugacy ball twice.  Last come the H-set search as a walk over
the ball for each tuple with a dict of pair verdicts, the slow path of
the bitset search; the G-set search and the transports between the
H-, G- and E-set instances, which the program never runs but the
equivalence cross-checks do, and the replays of audit evidence.
"""

from contextlib import contextmanager
from fractions import Fraction
from itertools import chain, permutations, product

from hightrans import embeddings, engine, groups
from hightrans.action import LevelAction
from hightrans.graphs import _fundamental_group
from hightrans.hcf import (COSET_PROBE_RADIUS, FAIL, PASS, UNDECIDED, AuditBounds, AuditVerdict,
                           SearchCursor, search_E_set)
from hightrans.normal_forms import parse_word


def word_by_letters(group, word):
    """The product of (label, exponent) syllables, one generator or
    inverse generator at a time."""
    x = group.identity()
    for lab, exp in word:
        if lab not in group.labels:
            raise ValueError(f"unknown generator {lab!r} in group {group.name!r}")
        g = group.generator(lab)
        letter = g if exp > 0 else g.inverse()
        for _ in range(abs(exp)):
            x = x * letter
    return x


def affine_bs12(word):
    """BS(1,2) embeds in the affine maps x -> s x + b over the dyadic
    rationals: a is x+1, t is 2x.  Returns the (s, b) pair."""
    table = {
        ("a", 1): (Fraction(1), Fraction(1)),
        ("a", -1): (Fraction(1), Fraction(-1)),
        ("t", 1): (Fraction(2), Fraction(0)),
        ("t", -1): (Fraction(1, 2), Fraction(0)),
    }
    s, b = Fraction(1), Fraction(0)
    for lab, exp in word:
        step = 1 if exp > 0 else -1
        for _ in range(abs(exp)):
            s2, b2 = table[(lab, step)]
            s, b = s * s2, s * b2 + b
    return (s, b)


_S = ((0, -1), (1, 0))
_Y = ((0, -1), (1, -1))
_YINV = ((-1, 1), (-1, 0))


def _mat_mul(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def psl2z_key(word):
    """Z2 * Z3 is the modular group: x -> S, y -> the order-3 matrix.
    Returns a sign-normalized matrix, i.e. an element of PSL(2, Z)."""
    table = {
        ("x", 1): _S,
        ("x", -1): _S,
        ("y", 1): _Y,
        ("y", -1): _YINV,
    }
    m = ((1, 0), (0, 1))
    for lab, exp in word:
        step = 1 if exp > 0 else -1
        for _ in range(abs(exp)):
            m = _mat_mul(m, table[(lab, step)])
    flat = (m[0][0], m[0][1], m[1][0], m[1][1])
    for entry in flat:
        if entry:
            if entry < 0:
                flat = tuple(-v for v in flat)
            break
    return flat


def semidirect_multiply_by_matrices(group, p, q):
    """(q1, v1)(q2, v2) = (q1 q2, A_{q2^-1} v1 + v2) in a semidirect
    product, with A read from ``group.matrices`` and a matrix-vector
    product taken entry by entry, whatever the matrix."""
    (q1, v1), (q2, v2) = p, q
    m = group.matrices[group.q_group.inv_table[q2]]
    twisted = tuple(sum(m[i][j] * v1[j] for j in range(len(v1))) for i in range(len(m)))
    return (group.q_group.table[q1][q2], tuple(a + b for a, b in zip(twisted, v2)))


def is_action_by_all_pairs(q_group, matrices):
    """Whether A_a A_b = A_{ab} for every pair (a, b) of a table group,
    with each product taken entry by entry."""
    n = len(matrices[0])
    return all(tuple(tuple(sum(ma[i][k] * mb[k][j] for k in range(n)) for j in range(n))
                     for i in range(n)) == tuple(map(tuple, matrices[q_group.table[a][b]]))
               for a, ma in enumerate(matrices) for b, mb in enumerate(matrices))


def det_by_cofactors(m):
    """The determinant by cofactor expansion along the first row."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * det_by_cofactors([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def bfs_layers(group):
    """Yield the shortlex layers by canonical length, each once final: the
    slow path of every kind's layer generator.

    BFS over letter products; an element first reached at geodesic depth
    d has canonical length >= d, so layer d is complete once depth d has
    been expanded.  A finite group's layers end when nothing is left to
    expand or to file, which can be after empty layers past its last.
    """
    ident = group.identity()
    frontier, seen, pending = [ident], {ident}, {}
    yield [ident]
    d = 0
    while frontier or pending:
        d += 1
        new = []
        for x in frontier:
            for _, letter in group.letters():
                y = x * letter
                if y not in seen:
                    seen.add(y)
                    new.append(y)
                    pending.setdefault(y.length(), []).append(y)
        frontier = new
        yield sorted(pending.pop(d, []), key=groups.Element.sort_key)


def all_words(labels, max_len):
    """Every word of length <= max_len over the signed alphabet."""
    alphabet = [(lab, 1) for lab in labels] + [(lab, -1) for lab in labels]
    out = [()]
    for n in range(1, max_len + 1):
        out.extend(product(alphabet, repeat=n))
    return out


def cyclic_power_membership(c, g, max_power):
    """Brute-force membership of g in <c> by enumerating powers."""
    acc = c.owner.identity()
    if g == acc:
        return True
    pos = neg = acc
    for _ in range(max_power):
        pos = pos * c
        neg = neg * c.inverse()
        if g == pos or g == neg:
            return True
    return False


def cyclic_contains_by_spelling(strategy, g):
    """``CyclicFreeStrategy.contains`` on elements: g's letter length is
    read off its spelling, then g is compared with c^k and c^-k."""
    if g.is_identity:
        return True
    rem = g.length() - 2 * strategy.len_u
    if rem <= 0 or rem % strategy.len_core:
        return False
    k = rem // strategy.len_core
    return g == strategy._power(k)[0] or g == strategy._power(-k)[0]


def cyclic_decompose_by_power_walk(strategy, g):
    """``CyclicFreeStrategy.decompose`` as the walk over the powers c^k g
    that the length formula leaves in reach, both ways from k = 0, keeping
    the shortlex-least: the rule before the three-candidate closed form.
    Returns (source element, rep) and writes no cache."""
    c = strategy.emb.images[0]
    best, best_k = g, 0
    best_key = g.sort_key()
    for sign in (1, -1):
        step = c if sign == 1 else c.inverse()
        cand = g
        k = 1
        while 2 * strategy.len_u + k * strategy.len_core - g.length() <= best_key[0]:
            cand = step * cand
            if cand.length() <= best_key[0]:
                key = cand.sort_key()
                if key < best_key:
                    best, best_k, best_key = cand, sign * k, key
            k += 1
    return (strategy.emb.source.generators()[0] ** -best_k, best)


def _leading_periods(spelling, period):
    """How many whole copies of the tuple ``period`` the spelling begins with."""
    n, m = len(period), 0
    while spelling[m * n:(m + 1) * n] == period:
        m += 1
    return m


def cyclic_mates_by_spelling(strategy, g):
    """The three candidate powers (c^k g, k) of ``CyclicFreeStrategy.decompose``
    as elements, k0 read off the spelling of u^-1 g by the periods of the
    spellings of the core d and of d^-1."""
    h = (strategy._u_inv * g).spelling()
    core = strategy.core
    k0 = (_leading_periods(h, core.inverse().spelling())
          or -_leading_periods(h, core.spelling()))
    return [(strategy._power(k)[0] * g, k) for k in (k0 - 1, k0, k0 + 1)]


def cyclic_decompose_by_sort_key(strategy, g, cache):
    """``CyclicFreeStrategy.decompose`` on elements: the three candidate
    powers c^k g are built as elements and the least is taken by the
    whole shortlex key, spelling every candidate.  Writes the same
    coset-mate entries into ``cache``."""
    mates = cyclic_mates_by_spelling(strategy, g)
    best, best_k = min(mates, key=lambda m: m[0].sort_key())
    src = strategy.emb.source
    gen = src.labels[0]
    for m, k in mates:
        cache[m.payload] = (src.element_from_word([(gen, k - best_k)]), best)
    return (src.element_from_word([(gen, -best_k)]), best)


def spanning_tree_by_rescan(graph):
    """Edge ids of the breadth-first spanning tree from ``graph.base``,
    found level by level by rescanning every edge for every vertex."""
    seen = {graph.base}
    tree = []
    frontier = [graph.base]
    while frontier:
        nxt = []
        for v in frontier:
            for e in graph.edges:
                for a, b in ((e.source, e.range), (e.range, e.source)):
                    if a == v and b not in seen:
                        seen.add(b)
                        tree.append(e.id)
                        nxt.append(b)
        frontier = nxt
    return tree


def reach_by_rescan(graph, start, skip=None):
    """Vertices joined to ``start`` without edge ``skip``, by a stack walk
    that rescans every edge for every vertex."""
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for e in graph.edges:
            if e.id == skip:
                continue
            for a, b in ((e.source, e.range), (e.range, e.source)):
                if a == v and b not in seen:
                    seen.add(b)
                    stack.append(b)
    return seen


# ---------------------------------------------------------------------------
# two-phase token reducers: a stack pass, then a right-to-left carry pass


def preimage(embedding, x):
    """The s with embedding(s) = x, for an x known to lie in the image."""
    s, r = embedding.decompose(x)
    assert r.is_identity, f"{x!r} is not in the image of {embedding.name!r}"
    return s


def twist_base(handle, x, eps):
    """Carry a subgroup element through t^eps: t r(s) = s(s) t."""
    src = handle.sigma_edge(eps)
    dst = handle.sigma_edge(-eps)
    return dst.apply(preimage(src, x))


def reduce_amalgam_tokens(handle, tokens):
    """Reduce (side, factor element) tokens to a canonical amalgam payload."""
    edge_src = handle.edge_source
    lead = edge_src.identity()
    stack = []

    def absorb(sigma):
        # a subgroup element surfacing between stack top and the cursor
        nonlocal lead
        while True:
            if not stack:
                lead = lead * sigma
                return
            side, h = stack[-1]
            h = h * handle.edge(side).apply(sigma)
            if handle.edge(side).contains(h):
                stack.pop()
                sigma = preimage(handle.edge(side), h)
                continue
            stack[-1] = (side, h)
            return

    for side, x in tokens:
        if x.owner is not handle.factor(side):
            raise groups.OwnerMismatch(
                f"token {x!r} does not live in factor {side} of {handle.name!r}")
        if x.is_identity:
            continue
        if stack and stack[-1][0] == side:
            merged = stack[-1][1] * x
            stack.pop()
            if merged.is_identity:
                continue
            if handle.edge(side).contains(merged):
                absorb(preimage(handle.edge(side), merged))
            else:
                stack.append((side, merged))
        elif handle.edge(side).contains(x):
            absorb(preimage(handle.edge(side), x))
        else:
            stack.append((side, x))

    syls = [None] * len(stack)
    carry = None
    for i in range(len(stack) - 1, -1, -1):
        side, h = stack[i]
        if carry is not None:
            h = h * handle.edge(side).apply(carry)
        s, r = handle.edge(side).decompose(h)
        syls[i] = (side, r)
        carry = s
    if carry is not None:
        lead = lead * carry
    return (lead, tuple(syls))


def tokens_by_letter(handle, word):
    """Reducer tokens, one per (label, exponent) syllable of a factor or
    the base and one per stable letter: the parse before a run of one
    group's letters became one token."""
    if handle.kind == "amalgam":
        toks = []
        for lab, exp in word:
            if lab in handle.left.labels:
                toks.append((0, handle.left.generator(lab) ** exp))
            elif lab in handle.right.labels:
                toks.append((1, handle.right.generator(lab) ** exp))
            else:
                raise ValueError(f"unknown generator {lab!r} in {handle.name!r}")
        return toks
    toks = []
    for lab, exp in word:
        if lab == handle.stable_label:
            step = 1 if exp > 0 else -1
            toks.extend([("t", step)] * abs(exp))
        elif lab in handle.base.labels:
            toks.append(("b", handle.base.generator(lab) ** exp))
        else:
            raise ValueError(f"unknown generator {lab!r} in {handle.name!r}")
    return toks


def reduce_hnn_tokens(handle, tokens):
    """Reduce ("b", element) / ("t", eps) tokens to a Britton-reduced payload."""
    base = handle.base
    head = base.identity()
    stack = []

    def push_base(b):
        nonlocal head
        if stack:
            eps, h = stack[-1]
            stack[-1] = (eps, h * b)
        else:
            head = head * b

    for kind, val in tokens:
        if kind == "b":
            if val.owner is not base:
                raise groups.OwnerMismatch(
                    f"token {val!r} does not live in the base of {handle.name!r}")
            push_base(val)
        else:
            delta = val
            if delta not in (1, -1):
                raise ValueError(f"stable letter exponent must be +-1, got {delta}")
            if stack and stack[-1][0] == -delta and handle.sigma_edge(stack[-1][0]).contains(stack[-1][1]):
                eps, h = stack.pop()
                push_base(twist_base(handle, h, eps))
            else:
                stack.append((delta, base.identity()))

    tail = [None] * len(stack)
    carry = None
    for i in range(len(stack) - 1, -1, -1):
        eps, h = stack[i]
        if carry is not None:
            h = h * carry
        edge = handle.sigma_edge(eps)
        s, r = edge.decompose(h)
        tail[i] = (eps, r)
        carry = handle.sigma_edge(-eps).apply(s)
    if carry is not None:
        head = head * carry
    return (head, tuple(tail))


# ---------------------------------------------------------------------------
# protected points as the transitivity searches once listed them: every
# anchor point again on every step


def amalgam_protect_list(state):
    """Both points of every anchor pair, in anchor order."""
    return [p for srep in sorted(state.anchors, key=lambda r: r.sort_key())
            for p in state.anchors[srep]]


def hnn_protect_lists(state):
    """(target-side, source-side) points of every anchor: y0 and t x0 for
    the target search, x0 and t^-1 y0 for the source search."""
    dst_protect, src_protect = [], []
    for srep in sorted(state.anchors, key=lambda r: r.sort_key()):
        x0, y0 = state.anchors[srep]
        dst_protect.extend([y0, state.default_image(x0)])
        src_protect.extend([x0, state.default_preimage(y0)])
    return dst_protect, src_protect


# ---------------------------------------------------------------------------
# the engine's slow paths: shortlex-first witnesses, allocation by a scan
# from scratch, and evaluation by the equivariance formula alone


def shortlex_first_search(action, xs, F, radius, protected=(), cursor=None):
    """``search_E_set`` with its cursor dropped: the first witness in
    shortlex order, the rule the engine followed before wrap-around
    cursors.  Patched in as ``engine.search_E_set`` it rebuilds the old
    certificates."""
    return search_E_set(action, xs, F, radius, protected, SearchCursor())


def per_element_search(action, xs, F, radius, protected=(), cursor=None):
    """``search_E_set`` testing every element of the wrapped ball itself:
    the rule before a failed candidate's Sigma-coset was skipped."""
    if len(set(xs)) != len(xs):
        raise ValueError("E-set tuples live off the large diagonal")
    f_reps = {action.orbit_rep(f) for f in F}
    start = (0, 0) if cursor is None else cursor.position
    walk = action.group.walk_shortlex
    for d, i, h in chain(walk(start, max_radius=radius), walk(stop=start, max_radius=radius)):
        reps = [action.orbit_rep(action.act(h, x)) for x in xs]
        if any(r in f_reps or r in protected for r in reps) or len(set(reps)) != len(reps):
            continue
        if cursor is not None:
            cursor.position = (d, i + 1)
        return h
    return None


@contextmanager
def shortlex_first_rule():
    """Run the engine under ``shortlex_first_search``."""
    saved = engine.search_E_set
    engine.search_E_set = shortlex_first_search
    try:
        yield
    finally:
        engine.search_E_set = saved


def distinct_tuples_by_list(n, total):
    """Ordered n-tuples of pairwise distinct positive integers with the
    given sum, lexicographically, as one list built whole: the slow path
    of ``engine._distinct_tuples``, which yields them one at a time."""
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


def descriptors_by_lists():
    """``engine.transitivity_descriptors`` over ``distinct_tuples_by_list``."""
    weight = 2
    while True:
        n = 1
        while n * (n + 1) <= weight:
            min_side = n * (n + 1) // 2
            for s in range(min_side, weight - min_side + 1):
                for it in distinct_tuples_by_list(n, s):
                    for jt in distinct_tuples_by_list(n, weight - s):
                        yield (n, it, jt)
            n += 1
        weight += 1


def schedule_by_two_walks(problem, steps):
    """``engine._schedule`` as it was: the descriptors over whole lists, an
    alternating stream of the two kinds, and two walks of Gamma's shortlex
    order, one for the points (1-indexed) and one for the nonidentity
    elements that faithfulness steps name."""
    gamma = problem.gamma
    points, walk = [], gamma.iter_shortlex()
    faith = (g for g in gamma.iter_shortlex() if not g.is_identity)
    descriptors = descriptors_by_lists()
    for index in range(steps):
        if index % 2:
            g = next(faith)
            yield {"index": index, "kind": "faithfulness", "element": str(g)}, (g,)
            continue
        n, it, jt = next(descriptors)
        while len(points) < max(it + jt):
            points.append(next(walk))
        xs, ys = [points[i - 1] for i in it], [points[j - 1] for j in jt]
        yield ({"index": index, "kind": "transitivity", "xs": [str(x) for x in xs],
                "ys": [str(y) for y in ys]}, (n, xs, ys))


def replay_steps(problem, state, cert):
    """Replay the recorded steps of ``cert`` on ``state`` through the
    engine's step functions, each with the payload that ``engine._schedule``
    has at its index; yields (step, (ok, reason)) after each replay, ok when
    the claimed mover or image is the replayed one and every pair a
    transitivity step committed keeps the equivariance law.  Choices that do
    not discharge their step raise ``engine.EngineError``.  Deferrals are
    skipped, and nothing checks that a step repeats its head."""
    gamma = problem.gamma
    steps = iter(cert["steps"])
    step = next(steps, None)
    for head, payload in engine._schedule(problem, cert["budget"]["steps"]):
        if step is None:
            return
        if head["index"] != step["index"]:
            continue
        if head["kind"] == "transitivity":
            _, xs, ys = payload
            witnesses = {key: parse_word(getattr(gamma, factor), step["witnesses"][key])
                         for key, factor in engine._WITNESS_FACTORS[problem.mode]}
            zs = [parse_word(gamma, z) for z in step["zs"]]
            mover, committed = engine.transitivity_step(problem, state, xs, ys, witnesses, zs)
            ok = str(mover) == step["mover"] and state.check_equivariance(committed)
        else:
            witness = parse_word(gamma, step["witness"])
            ok = str(engine.faithfulness_step(state, *payload, witness)) == step["image"]
        yield step, ((True, "ok") if ok else (False, "the claim is not the replayed one"))
        step = next(steps, None)


def allocate_by_rescan(state, count):
    """The first ``count`` uncommitted source-orbit representatives,
    scanning Gamma in shortlex order from the identity."""
    out = []
    for g in state.gamma.iter_shortlex():
        if state.src_orbit(g) == g and g not in state.anchors:
            out.append(g)
            if len(out) == count:
                return out


def evaluate_by_formula(state, x, inverse=False):
    """w(x) (or its inverse image) from the anchor by the equivariance law,
    even at the anchor itself; the default map off committed orbits."""
    if not inverse:
        pair = state.anchors.get(state.src_orbit(x))
        if pair is None:
            return state.default_image(x)
        x0, y0 = pair
        return state.twist(x * x0.inverse()) * y0
    pair = state.dst_index.get(state.dst_orbit(x))
    if pair is None:
        return state.default_preimage(x)
    x0, y0 = pair
    return untwist(state, x * y0.inverse()) * x0


def equivariance_by_evaluation(state, pairs=None):
    """The equivariance law with both sides evaluated: w(e_src(a) x0) =
    e_dst(a) y0 for every generator a of Sigma, w(x0) = y0 and
    w^-1(y0) = x0, at the given anchor pairs or by default at every anchor;
    the slow path of ``IntertwinerState.check_equivariance``."""
    for x0, y0 in state.anchors.values() if pairs is None else pairs:
        for a in state.sigma_src.source.generators():
            if state.evaluate(state.sigma_src.apply(a) * x0) != state.sigma_dst.apply(a) * y0:
                return False
        if state.evaluate(x0) != y0 or state.evaluate(y0, inverse=True) != x0:
            return False
    return True


def untwist(state, s):
    """t^-1 s t in HNN mode, s itself in amalgam mode."""
    if state.mode == "amalgam":
        return s
    return state.stable.inverse() * s * state.stable


def plain_level_action(sigma_embedding):
    """H acting on itself, with Sigma-orbits from the given embedding."""
    return LevelAction(sigma_embedding.target, lambda h, g: h * g, sigma_embedding,
                       sigma_embedding)


# ---------------------------------------------------------------------------
# test beds no command runs: embeddings that no problem file defines, the
# stable letters of an HNN normal form and the fundamental group of a whole
# graph.  Each factory builds fresh handles, so callers may fill caches freely.


def free2(name="F2", labels=("a", "b")):
    return groups.FreeGroup(name, labels)


def integers(name="Z", label="a"):
    return groups.FreeAbelianGroup(name, (label,))


def commutator(group, lab_a, lab_b):
    a, b = group.generator(lab_a), group.generator(lab_b)
    return a * b * a.inverse() * b.inverse()


def commutator_subgroup_embedding(f=None):
    """<[a,b]> inside the free group on a, b."""
    if f is None:
        f = free2()
    c = groups.FreeAbelianGroup("C", ("c",))
    return embeddings.Embedding("comm", c, f, [commutator(f, *f.labels[:2])])


def even_integers_embedding():
    """2Z inside Z, the standard finite-index failure case."""
    z = integers()
    c = groups.FreeAbelianGroup("C2", ("c",))
    return embeddings.Embedding("even", c, z, [z.generator("a") ** 2])


def trivial_subgroup_embedding(target=None):
    if target is None:
        target = integers()
    return embeddings.Embedding("triv", groups.trivial_group("E"), target, [])


def improper_embedding():
    """Z inside itself, failing the infinite-index premise."""
    z = integers()
    c = groups.FreeAbelianGroup("Ci", ("c",))
    return embeddings.Embedding("improper", c, z, [z.generator("a")])


def primitive_cyclic_embedding():
    """<a b a^-1 b^-1> spelled out syllable by syllable (same subgroup as
    the commutator test bed, built from a raw word)."""
    f = free2()
    c = groups.FreeAbelianGroup("Cp", ("c",))
    w = f.element_from_word([("a", 1), ("b", 1), ("a", -1), ("b", -1)])
    return embeddings.Embedding("prim", c, f, [w])


def point_stabilizer_embedding():
    """S3 onto the stabilizer <s0, s1> of a point in S4: index four, and the
    coset action is S4 permuting four points."""
    s4 = groups.symmetric_group("S4", 4)
    s3 = groups.symmetric_group("S3", 3)
    return embeddings.Embedding("stab", s3, s4, [s4.generator("s0"), s4.generator("s1")])


def transposition_embedding():
    """C2 onto <s0> in S3, whose ball ends at radius 3: index three, and the
    coset action is S3 permuting three points."""
    s3 = groups.symmetric_group("S3", 3)
    return embeddings.Embedding("s0", groups.cyclic_group("C2", 2, "c"), s3, [s3.generator("s0")])


def first_factor_embedding():
    """Z as the first factor of Z^2: normal, of infinite index."""
    z2 = groups.FreeAbelianGroup("Z2", ("a", "b"))
    z = groups.FreeAbelianGroup("Zf", ("c",))
    return embeddings.Embedding("factor", z, z2, [z2.generator("a")])


def lexicographic_permutations(degree):
    """The permutations of range(degree) in lexicographic order: element i
    of ``groups.symmetric_group`` is the i-th of them."""
    return sorted(permutations(range(degree)))


def stable_letter_count(g):
    if g.owner.kind != "hnn":
        raise ValueError("stable letters only exist in HNN groups")
    return len(g.payload[1])


def fundamental_group(graph):
    """The fundamental group of the whole graph as nested amalgam / HNN
    handles."""
    return _fundamental_group(graph)[0]


# ---------------------------------------------------------------------------
# audits by walking: no infinite-index shortcut, fixers by decomposition


def prove_finite_index_by_walk(emb, max_radius):
    """A complete right transversal of the image, or None, by collecting
    coset representatives layer by layer whatever the strategy knows."""
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


class ActCosetDomain:
    """The coset action at one audit's bounds, in the shape of
    ``hcf.CosetDomain``: h . (Sigma g) computed as the canonical
    representative of Sigma g h^-1, fixing tested by comparing it, and
    each fixer found by a walk over the whole witness ball."""

    def __init__(self, emb, bounds):
        self.emb = emb
        self._act_cache = {}
        self.transversal = prove_finite_index_by_walk(emb, COSET_PROBE_RADIUS)
        self.zone = self._cosets(bounds.point_radius)
        self.sample = self._cosets(bounds.point_radius + 2)
        self.radius = bounds.witness_radius

    def _cosets(self, radius):
        if self.transversal is not None:
            reps = set(self.transversal)
        else:
            reps = {self.emb.rep(g) for g in self.emb.target.ball(radius)}
        return sorted(reps, key=lambda r: r.sort_key())

    def act(self, h, rep):
        key = (h, rep)
        out = self._act_cache.get(key)
        if out is None:
            out = self.emb.rep(rep * h.inverse())
            self._act_cache[key] = out
        return out

    def nontrivial_fixer_of(self, points):
        for h in self.emb.target.iter_shortlex(self.radius):
            if not h.is_identity and all(self.act(h, r) == r for r in points):
                return h
        return None

    def cofinite_fixer(self, excluded):
        excluded = set(excluded)
        return self.nontrivial_fixer_of([r for r in self.sample if r not in excluded])


def certify_structural_two_balls(emb, bounds=None):
    """The structural certificate with the walking finite-index prover and
    two conjugacy balls (radius r-1 and r) per element."""
    bounds = bounds or AuditBounds()
    tgt = emb.target
    premises = {}
    transversal = prove_finite_index_by_walk(emb, bounds.witness_radius)
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

    ball_small = tgt.ball(bounds.point_radius)
    sigma_members = [g for g in ball_small if not g.is_identity and emb.contains(g)]
    icc = {"status": PASS, "per_element": []}
    for s in sigma_members:
        prev = {h * s * h.inverse() for h in tgt.ball(bounds.witness_radius - 1)}
        cur = dict.fromkeys(h * s * h.inverse() for h in tgt.ball(bounds.witness_radius))
        closed = all((letter * c * letter.inverse()) in cur
                     for c in cur for _, letter in tgt.letters())
        if closed:
            status = FAIL
        elif len(cur) > len(prev):
            status = PASS
        else:
            status = UNDECIDED
        icc["per_element"].append({"element": str(s), "conjugates": len(cur),
                                   "status": status})
        if status == FAIL or (status == UNDECIDED and icc["status"] == PASS):
            icc["status"] = status
    premises["relative_icc"] = icc

    stab = {"status": PASS, "per_element": []}
    for h in ball_small:
        if h.is_identity:
            continue
        prev = {g * h * g.inverse() for g in tgt.ball(bounds.witness_radius - 1)}
        cur = {g * h * g.inverse() for g in tgt.ball(bounds.witness_radius)}
        prev_in = {c for c in prev if emb.contains(c)}
        cur_in = {c for c in cur if emb.contains(c)}
        status = PASS if prev_in == cur_in else UNDECIDED
        stab["per_element"].append({"element": str(h),
                                    "intersection": len(cur_in),
                                    "status": status})
        if status == UNDECIDED and stab["status"] == PASS:
            stab["status"] = status
    premises["class_intersections"] = stab

    statuses = [p["status"] for p in premises.values()]
    overall = FAIL if FAIL in statuses else (UNDECIDED if UNDECIDED in statuses else PASS)
    return AuditVerdict(overall, bounds, {"premises": premises})


# ---------------------------------------------------------------------------
# the H-set search by walk, the G-set search, the transports between the
# witness sets (the paper's equivalence constructions) and the replays of
# audit evidence


class HSetWalkMemo:
    """``hcf.HSetMemo`` as a dict: the representatives of F, and for each
    pair (h, x) whether h x lies outside Sigma F with h x h^-1 outside
    Sigma."""

    def __init__(self, emb, F):
        self.f_reps = {emb.rep(f) for f in F}
        self.clear = {}


def h_set_search_by_walk(emb, xs, radius, memo):
    """``hcf.search_H_set`` as a walk over the ball from the identity for
    each tuple, with the verdicts of the pairs in an HSetWalkMemo."""
    for x in xs:
        if x.is_identity:
            raise ValueError("H-set entries must be nontrivial")
    f_reps, clear = memo.f_reps, memo.clear
    for h in emb.target.iter_shortlex(radius):
        for x in xs:
            ok = clear.get((h, x))
            if ok is None:
                ok = clear[h, x] = not (emb.rep(h * x) in f_reps
                                        or emb.contains(h * x * h.inverse()))
            if not ok:
                break
        else:
            return h
    return None


def search_G_set(emb, xs, F, radius):
    """First shortlex h with h x_i outside Sigma F and all pairwise
    h x_i x_j^-1 h^-1 outside Sigma; entries must be pairwise distinct."""
    if len(set(xs)) != len(xs):
        raise ValueError("G-set tuples live off the large diagonal")
    f_reps = {emb.rep(f) for f in F}
    diffs = [xs[i] * xs[j].inverse() for i in range(len(xs))
             for j in range(len(xs)) if i != j]
    for h in emb.target.iter_shortlex(radius):
        if any(emb.rep(h * x) in f_reps for x in xs):
            continue
        hinv = h.inverse()
        if any(emb.contains(h * d * hinv) for d in diffs):
            continue
        return h
    return None


def hset_instance_for_gset(xs, F):
    """Shrink a G-set instance to the H-set instance whose witnesses are
    also G-set witnesses: y_ij = x_i x_j^-1, F' = the union of F x_i^-1."""
    ys, seen = [], set()
    for i, xi in enumerate(xs):
        for j, xj in enumerate(xs):
            if i != j:
                y = xi * xj.inverse()
                if y not in seen:
                    seen.add(y)
                    ys.append(y)
    f2, fseen = [], set()
    for f in F:
        for xi in xs:
            c = f * xi.inverse()
            if c not in fseen:
                fseen.add(c)
                f2.append(c)
    return ys, f2


def gset_instance_for_eset(action, xs, F):
    """Shrink an E-set instance over H to a G-set instance in H whose
    witnesses transport: F' collects the protected orbit representatives,
    ybar is the tuple, padded to two entries when it has one."""
    f2, fseen = [], set()
    for f in F:
        t = action.orbit_rep(f)
        if t not in fseen:
            fseen.add(t)
            f2.append(t)
    if len(xs) >= 2:
        return list(xs), f2
    y = xs[0]
    for cand in action.group.iter_shortlex():
        if cand != y:
            return [y, cand], f2
    raise RuntimeError("unreachable: the group has at least two elements")


def replay_hcf_verdict(emb, verdict):
    """Re-derive a verdict's evidence by direct evaluation."""
    ev = verdict.evidence
    if verdict.status == PASS:
        if "witnesses" not in ev:
            return emb.is_trivial()
        ball = emb.target.ball(verdict.bounds.point_radius)
        f_reps = {emb.rep(f) for f in ball}
        for item in ev["witnesses"]:
            xs = [parse_word(emb.target, w) for w in item["tuple"]]
            h = parse_word(emb.target, item["witness"])
            for x in xs:
                if emb.rep(h * x) in f_reps or emb.contains(h * x * h.inverse()):
                    return False
        return True
    if verdict.status == FAIL:
        cov = ev["covering"]
        transversal = [parse_word(emb.target, w) for w in cov["F"]]
        cores = [parse_word(emb.target, w) for w in cov["cores"]]
        if any(c.is_identity for c in cores):
            return False
        for piece, core in zip(cov["pieces"], cores):
            for member in piece["members"]:
                h = parse_word(emb.target, member)
                if not emb.contains(h * core * h.inverse()):
                    return False
        t_reps = {emb.rep(t) for t in transversal}
        return all(emb.rep(g) in t_reps
                   for g in emb.target.ball(verdict.bounds.witness_radius))
    return True


def replay_highly_faithful_verdict(emb, verdict):
    """A fail verdict's covering re-verified on the coset action of ``emb``
    by decomposition: the coset space must be finite by a transversal found
    by walking, each fixer nontrivial and fixing every coset of its piece
    (a finite piece lists cosets as words of the target, a cofinite one
    the cosets it leaves out), and the pieces must cover every coset."""
    if verdict.status != FAIL:
        return True
    tgt = emb.target
    cov = verdict.evidence["covering"]
    fixers = [parse_word(tgt, w) for w in cov["fixers"]]
    transversal = prove_finite_index_by_walk(emb, COSET_PROBE_RADIUS)
    if transversal is None or len(fixers) != len(cov["pieces"]) or \
            any(f.is_identity for f in fixers):
        return False
    whole = set(transversal)
    covered = set()
    for piece, fixer in zip(cov["pieces"], fixers):
        if "members" in piece:
            pts = {emb.rep(parse_word(tgt, w)) for w in piece["members"]}
        else:
            pts = whole - {emb.rep(parse_word(tgt, w)) for w in piece["complement_of"]}
        if any(emb.rep(r * fixer.inverse()) != r for r in pts):
            return False
        covered |= pts
    return covered == whole
