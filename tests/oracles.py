"""Independent oracles the test suite checks normal forms against.

Most never touch the normal-form machinery: words are evaluated directly
in faithful matrix or affine representations, so agreement is a genuine
cross-check and disagreement localizes a reduction bug.  The two-phase
token reducers below are the slow path the one-syllable fold replaced;
they reduce a whole token list from scratch.
"""

from fractions import Fraction
from itertools import product

from hightrans import groups


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


def twist_base(handle, x, eps):
    """Carry a subgroup element through t^eps: t r(s) = s(s) t."""
    src = handle.sigma_edge(eps)
    dst = handle.sigma_edge(-eps)
    return dst.apply(src.preimage(x))


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
                sigma = handle.edge(side).preimage(h)
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
                absorb(handle.edge(side).preimage(merged))
            else:
                stack.append((side, merged))
        elif handle.edge(side).contains(x):
            absorb(handle.edge(side).preimage(x))
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
