"""Independent oracles the test suite checks normal forms against.

These never touch the normal-form machinery: words are evaluated directly
in faithful matrix or affine representations, so agreement is a genuine
cross-check and disagreement localizes a reduction bug.
"""

from fractions import Fraction
from itertools import product


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
