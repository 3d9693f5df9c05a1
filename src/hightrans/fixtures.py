"""Test-bed embeddings that no problem file defines.

The zoo of groups and graphs is ``problems/*.json``; load it with
:func:`hightrans.problem.parse_problem`.  Each factory here builds fresh
handles so callers can mutate caches freely; module-level memoization is
left to the callers (pytest fixtures do it).
"""

from __future__ import annotations

from .embeddings import Embedding
from .groups import FreeAbelianGroup, FreeGroup, trivial_group


def free2(name="F2", labels=("a", "b")):
    return FreeGroup(name, labels)


def integers(name="Z", label="a"):
    return FreeAbelianGroup(name, (label,))


def commutator(group, lab_a, lab_b):
    a, b = group.generator(lab_a), group.generator(lab_b)
    return a * b * a.inverse() * b.inverse()


def commutator_subgroup_embedding(f=None):
    """<[a,b]> inside the free group on a, b."""
    if f is None:
        f = free2()
    c = FreeAbelianGroup("C", ("c",))
    return Embedding("comm", c, f, [commutator(f, *f.labels[:2])])


def even_integers_embedding():
    """2Z inside Z, the standard finite-index failure case."""
    z = integers()
    c = FreeAbelianGroup("C2", ("c",))
    return Embedding("even", c, z, [z.generator("a") ** 2])


def trivial_subgroup_embedding(target=None):
    if target is None:
        target = integers()
    triv = trivial_group("E")
    return Embedding("triv", triv, target, [])


def improper_embedding():
    """Z inside itself, failing the infinite-index premise."""
    z = integers()
    c = FreeAbelianGroup("Ci", ("c",))
    return Embedding("improper", c, z, [z.generator("a")])


def primitive_cyclic_embedding():
    """<a b a^-1 b^-1> spelled out syllable by syllable (same subgroup as
    the commutator fixture, built from a raw word)."""
    f = free2()
    c = FreeAbelianGroup("Cp", ("c",))
    w = f.element_from_word([("a", 1), ("b", 1), ("a", -1), ("b", -1)])
    return Embedding("prim", c, f, [w])
