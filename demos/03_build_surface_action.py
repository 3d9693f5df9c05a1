#!/usr/bin/env python3
"""Build a certified fragment of a faithful, highly transitive action of
the genus-2 surface group on the group itself and replay its certificate.

Run:  python3 demos/03_build_surface_action.py
"""

import json
from pathlib import Path

from hightrans.engine import (Budget, EngineProblem, faithfulness_step, run_schedule,
                              transitivity_step, verify_certificate_report)
from hightrans.normal_forms import parse_word
from hightrans.problem import parse_problem

SURFACE = Path(__file__).resolve().parent.parent / "problems" / "pi1-sigma2.json"

surface = parse_problem(SURFACE).build_group()[0]
cert = run_schedule(EngineProblem(surface), Budget(steps=50), problem_key="demo")

print(f"discharged {len(cert['steps'])} requirements, "
      f"{len(cert['deferred'])} deferred")

trans = [s for s in cert["steps"] if s["kind"] == "transitivity"]
faith = [s for s in cert["steps"] if s["kind"] == "faithfulness"]
print(f"  {len(trans)} transitivity steps, {len(faith)} faithfulness steps")

example = trans[2]
print("\na discharged transitivity requirement:")
print(f"  move {example['xs']} to {example['ys']}")
print(f"  witnesses: {example['witnesses']}, fresh classes: {example['zs']}")
print(f"  mover: {example['mover']}")

example = faith[0]
print("\na faithfulness witness, on the same set as the transitivity tuples:")
print(f"  element {example['element']} moves {example['witness']} to {example['image']}")

# the certificate records choices only: the builder's own step functions,
# fed those choices, derive every batch, every pin and the final state
problem = EngineProblem(parse_problem(SURFACE).build_group()[0])
gamma, state = problem.gamma, problem.new_state()
for step in cert["steps"]:
    if step["kind"] == "transitivity":
        xs, ys, zs = ([parse_word(gamma, w) for w in step[key]] for key in ("xs", "ys", "zs"))
        witnesses = {key: parse_word(gamma.right if key == "h" else gamma.left, word)
                     for key, word in step["witnesses"].items()}
        transitivity_step(problem, state, xs, ys, witnesses, zs)
    else:
        faithfulness_step(state, parse_word(gamma, step["element"]),
                          parse_word(gamma, step["witness"]))
print(f"\nreplayed final state: {len(state.anchors)} committed orbits")

ok, reason = verify_certificate_report(parse_problem(SURFACE).build_group()[0], cert)
print(f"\nindependent replay: {'OK' if ok else 'FAIL'} ({reason})")

# determinism: the run is a pure function of the problem and the budget
again = run_schedule(EngineProblem(parse_problem(SURFACE).build_group()[0]), Budget(steps=50),
                     problem_key="demo")
identical = json.dumps(cert, sort_keys=True) == json.dumps(again, sort_keys=True)
print(f"double run byte-identical: {identical}")

# tampering is caught
tampered = json.loads(json.dumps(cert))
tampered["steps"][0]["mover"] = "a1"
ok, reason = verify_certificate_report(parse_problem(SURFACE).build_group()[0], tampered)
print(f"tampered mover rejected: {not ok} ({reason})")
