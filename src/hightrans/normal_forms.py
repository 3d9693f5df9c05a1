"""Canonical forms and the word problem for composite groups.

Two reducers, each a right-to-left fold of tokens onto a payload that is
already canonical.  By the normal-form theorem for amalgams and Britton's
lemma (Lyndon-Schupp, ch. IV), left-multiplying a normal form by one
factor or base element rewrites only its leading syllable:

  * amalgam (``amalgam_step``), token x on side s: m = x e_s(lead), just
    x for lead = 1, times the first syllable when it is on side s too (it
    is then consumed); m = e_s(lead') r gives the new lead, and (s, r) is
    prepended unless r = 1.  ``AmalgamGroup.include`` is this one step.
  * HNN, base token b: head = b head.  Stable letter t^d: decompose
    head = e_d(s) r and carry s through the letter, head = e_-d(s); when
    r = 1 and the tail starts with t^-d the two letters pinch and that
    entry's base part joins the head, otherwise (d, r) is prepended.

A product p q folds only the tokens of p onto q's payload, so its cost
follows the length of p, not of q, and a composite group's
``element_from_word`` is one fold of the word's tokens.

Every coset decomposition the reducers call is exact: an edge embedding
that no exact procedure decides is refused when the problem loads.
"""

from __future__ import annotations

from itertools import groupby

from . import groups


# The most letters a parsed word may carry, a^N counting as N.  A
# stable-letter power t^N becomes N reducer tokens, a spelling spells out
# every letter, and tokens a^N a^N ... merge into one syllable, so the bound
# on the whole word keeps its cost in proportion to its text; certificates
# of the bundled problems carry words far below it.
MAX_EXPONENT = 10_000


def amalgam_step(handle, side, x, lead, head):
    """x on side ``side`` times a normal form with edge part ``lead`` and
    leading syllable ``head`` (or None): the new lead, the representative r
    that leads unless r = 1, and whether ``head`` was consumed."""
    if x.owner is not handle.factor(side):
        raise groups.OwnerMismatch(
            f"token {x!r} does not live in factor {side} of {handle.name!r}")
    if x.is_identity:
        return lead, x, False
    edge = handle.edge(side)
    m = x if lead.is_identity else x * edge.apply(lead)
    consumed = head is not None and head[0] == side
    lead, r = edge.decompose(m * head[1] if consumed else m)
    return lead, r, consumed


def reduce_amalgam_tokens(handle, tokens, payload=None):
    """Fold (side, factor element) tokens, right to left, onto a canonical
    amalgam payload (the identity by default)."""
    lead, syls = handle.identity_payload if payload is None else payload
    stack = list(reversed(syls))   # the leading syllable is on top
    for side, x in reversed(tokens):
        lead, r, consumed = amalgam_step(handle, side, x, lead, stack[-1] if stack else None)
        if consumed:
            stack.pop()
        if not r.is_identity:
            stack.append((side, r))
    return (lead, tuple(reversed(stack)))


def reduce_hnn_tokens(handle, tokens, payload=None):
    """Fold ("b", element) / ("t", eps) tokens, right to left, onto a
    Britton-reduced payload (the identity by default)."""
    base = handle.base
    head, tail = handle.identity_payload if payload is None else payload
    stack = list(reversed(tail))   # the leading stable letter is on top
    for kind, val in reversed(tokens):
        if kind == "b":
            if val.owner is not base:
                raise groups.OwnerMismatch(
                    f"token {val!r} does not live in the base of {handle.name!r}")
            head = val * head
            continue
        delta = val
        if delta not in (1, -1):
            raise ValueError(f"stable letter exponent must be +-1, got {delta}")
        # t^delta e_delta(s) = e_-delta(s) t^delta, leaving the coset rep r
        s, r = handle.sigma_edge(delta).decompose(head)
        head = handle.sigma_edge(-delta).apply(s)
        if r.is_identity and stack and stack[-1][0] == -delta:
            head = head * stack.pop()[1]   # a pinch t^delta t^-delta
        else:
            stack.append((delta, r))
    return (head, tuple(reversed(stack)))


def _raw_tokens(handle, word):
    """Parse (label, exponent) syllables into reducer tokens.  A run of
    letters from one amalgam factor, or from the base of an HNN group, is
    reduced in that group and folds as one token."""
    if handle.kind == "amalgam":
        part_of = {lab: side for side in (0, 1) for lab in handle.factor(side).labels}
    else:
        part_of = dict.fromkeys(handle.base.labels, "b")
        part_of[handle.stable_label] = "t"
    toks = []
    for part, run in groupby(word, key=lambda syl: part_of.get(syl[0])):
        if part is None:
            raise ValueError(f"unknown generator {next(run)[0]!r} in group {handle.name!r}")
        if part == "t":
            for _, exp in run:
                toks.extend([("t", 1 if exp > 0 else -1)] * abs(exp))
        else:
            factor = handle.base if part == "b" else handle.factor(part)
            toks.append((part, factor.element_from_word(run)))
    return toks


def syllable_length(g):
    """Number of syllables in the normal form; 0 only for the identity.

    For HNN elements every stable letter counts, plus every non-identity
    base part (head or in-tail representative).  For amalgam elements every
    alternating-factor representative counts, plus a leading edge-subgroup
    part when present.
    """
    handle = g.owner
    if handle.kind == "hnn":
        head, tail = g.payload
        n = 0 if head.is_identity else 1
        for eps, r in tail:
            n += 1
            if not r.is_identity:
                n += 1
        return n
    if handle.kind == "amalgam":
        sigma, syls = g.payload
        n = 0 if sigma.is_identity else 1
        return n + len(syls)
    raise ValueError(f"{handle.name!r} is not a composite group")


def parse_word(handle, text):
    """Parse a word string like ``a b^-2 t`` into a normal-form element.

    Tokens are whitespace-separated generator labels with an optional
    ``^exponent``, whose absolute values sum to at most ``MAX_EXPONENT``;
    ``1`` or the empty string is the identity.
    """
    if not isinstance(text, str):
        raise ValueError(f"a word must be a string, got {text!r}")
    text = text.strip()
    if text in ("", "1"):
        return handle.identity()
    word, letters = [], 0
    for tok in text.split():
        if "^" in tok:
            lab, _, e = tok.partition("^")
            try:
                exp = int(e)
            except ValueError:
                raise ValueError(f"bad exponent in token {tok!r}")
            if abs(exp) > MAX_EXPONENT:
                raise ValueError(f"exponent in token {tok!r} exceeds {MAX_EXPONENT}")
        else:
            lab, exp = tok, 1
        letters += abs(exp)
        if letters > MAX_EXPONENT:
            raise ValueError(f"word exceeds {MAX_EXPONENT} letters at token {tok!r}")
        word.append((lab, exp))
    return handle.element_from_word(word)
