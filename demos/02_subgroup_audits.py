#!/usr/bin/env python3
"""Bounded audits of the highly core-free condition on embeddings from the
problem files, with both a passing and a failing cast, plus the
highly-faithful audit of each coset action.

Run:  python3 demos/02_subgroup_audits.py
"""

from pathlib import Path

from hightrans import hcf
from hightrans.problem import parse_problem

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

bounds = hcf.AuditBounds(tuple_size_max=2, point_radius=2, witness_radius=4)

print("== core-freeness audits ==")
cases = [(label, parse_problem(PROBLEMS / f"{stem}.json").embeddings[name])
         for label, stem, name in [
             ("<[a,b]> inside F2", "pi1-sigma2", "cL"),
             ("trivial subgroup of Z", "z-star-z", "tL"),
             ("unit subgroup of Z4 |x Z^2", "gaussian-hnn", "units"),
             ("2Z inside Z", "planted-finite-index-edge", "qL")]]
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

# The coset action mirrors the core audit (the fifth equivalent condition);
# audit_highly_faithful builds the action on the cosets of each embedding:
# the cosets of the trivial subgroup of Z are Z translating itself, which
# fixes no point; 2Z is normal of index two, so a^2 fixes both of its cosets
# and the covering by the one piece "every coset" has a nontrivial fixer.
print("\n== highly faithful coset actions ==")
for label, emb in cases:
    verdict = hcf.audit_highly_faithful(emb, bounds)
    print(f"  cosets of {label:30s} coset-action={verdict}")
    if verdict.failed:
        print(f"      covering: {verdict.evidence['covering']}")
