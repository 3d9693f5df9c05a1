#!/usr/bin/env python3
"""Bounded audits of the highly core-free condition, with both a passing
and a failing cast, plus the highly-faithful action audit.

Run:  python3 demos/02_subgroup_audits.py
"""

from pathlib import Path

from hightrans import fixtures, hcf, parse_problem, symmetric_group

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

bounds = hcf.AuditBounds(tuple_size_max=2, point_radius=2, witness_radius=4)

print("== core-freeness audits ==")
cases = [
    ("<[a,b]> inside F2", fixtures.commutator_subgroup_embedding()),
    ("trivial subgroup of Z", fixtures.trivial_subgroup_embedding()),
    ("unit subgroup of Z4 |x Z^2",
     parse_problem(PROBLEMS / "gaussian-hnn.json").embeddings["units"]),
    ("2Z inside Z", fixtures.even_integers_embedding()),
]
for label, emb in cases:
    verdict = hcf.audit_hcf(emb, bounds)
    print(f"  {label:30s} {verdict}")
    if verdict.failed:
        cov = verdict.evidence["covering"]
        print(f"      counterexample covering: F = {cov['F']}, "
              f"pieces = {cov['pieces']}, cores = {cov['cores']}")

print("\n== structural certificates (infinite index / relative icc / "
      "stable class intersections) ==")
for label, emb in cases:
    verdict = hcf.certify_structural(emb, bounds)
    premises = {k: v["status"] for k, v in verdict.evidence["premises"].items()} \
        if "premises" in verdict.evidence else {}
    print(f"  {label:30s} {verdict}  {premises}")

print("\n== highly faithful actions ==")
# Translations never fix a point, so every covering piece is fine.
dom = hcf.TranslationDomain(fixtures.integers())
print(f"  Z translating Z:          {hcf.audit_highly_faithful(dom, bounds)}")

# Finitely supported permutations: split N as {0,1} and the rest; each
# piece has a nontrivial fixer, so the action is not highly faithful.
perm = hcf.PermutationDomain(symmetric_group("S4", 4))
verdict = hcf.audit_highly_faithful(perm, bounds)
print(f"  finitely supported perms: {verdict}")
print(f"      covering: {verdict.evidence['covering']}")

# The coset action mirrors the core audit (the fifth equivalent condition).
print(f"  cosets of <[a,b]>:        "
      f"{hcf.audit_highly_faithful(hcf.CosetDomain(cases[0][1]), bounds)}")
print(f"  cosets of 2Z:             "
      f"{hcf.audit_highly_faithful(hcf.CosetDomain(cases[3][1]), bounds)}")
