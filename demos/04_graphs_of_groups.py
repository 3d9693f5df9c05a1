#!/usr/bin/env python3
"""Graphs of groups: spanning trees, edge reduction, the acting group of a
problem file and hypothesis validation.

Run:  python3 demos/04_graphs_of_groups.py
"""

from pathlib import Path

from hightrans import graphs
from hightrans.normal_forms import parse_word
from hightrans.problem import parse_problem

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

print("== one geometric edge: the surface graph ==")
sg = parse_problem(PROBLEMS / "pi1-sigma2.json").graph
print(f"  spanning tree: {graphs.spanning_tree(sg)}")
gamma, _ = graphs.reduce_edge(sg, "e0")
print(f"  removing e0 disconnects -> {gamma.kind} of "
      f"{gamma.left.name} and {gamma.right.name}")

print("\n== a loop: the Gaussian-integer affine group ==")
gl = parse_problem(PROBLEMS / "gaussian-hnn.json").graph
gamma, _ = graphs.reduce_edge(gl, "e0")
print(f"  removing the loop keeps one vertex -> {gamma.kind}, "
      f"stable letter {gamma.stable_label!r}")
lhs = parse_word(gamma, "e0 i e0^-1")
print(f"  e0 i e0^-1 = {lhs}  (the conjugated unit)")

print("\n== theta graph: two vertices, two geometric edges ==")
th = parse_problem(PROBLEMS / "theta.json").graph
print(f"  spanning tree: {graphs.spanning_tree(th)}")
gamma, _ = graphs.reduce_edge(th, "e2")
print(f"  removing e2 -> {gamma.kind} over a base of kind "
      f"{gamma.base.kind}")
print(f"  e2 a2 e2^-1 = {parse_word(gamma, 'e2 a2 e2^-1')}")
fg, source = parse_problem(PROBLEMS / "theta.json").build_group()
print(f"  acting group handle: {fg.name} ({fg.kind}), reduced at edge {source['edge']}")

print("\n== hypothesis validation ==")
for name, stem in [("surface", "pi1-sigma2"), ("gaussian loop", "gaussian-hnn"),
                   ("planted finite vertex", "planted-finite-vertex"),
                   ("planted finite-index edge", "planted-finite-index-edge")]:
    graph = parse_problem(PROBLEMS / f"{stem}.json").graph
    report = graphs.validate_main_hypotheses(graph)
    print(f"  {name:26s} -> {report['overall']}")
    for vid, entry in sorted(report["vertices"].items()):
        if not entry["infinite"]:
            print(f"      finite vertex group flagged: {vid} ({entry['group']})")
    for eid, entry in sorted(report["edges"].items()):
        for tag in ("source", "range"):
            verdict = entry[tag]["hcf"]
            if verdict.failed:
                print(f"      edge {eid}.{tag} fails the core-freeness audit")
