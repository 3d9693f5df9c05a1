#!/usr/bin/env python3
"""Build a certified fragment of a faithful, highly transitive action of
the genus-2 surface group on the group itself and replay its certificate.

Run:  python3 demos/03_build_surface_action.py
"""

import json

from hightrans import fixtures
from hightrans.engine import Budget, run_schedule, verify_certificate_report

surface = fixtures.surface_group()
cert = run_schedule(surface, Budget(steps=50), problem_key="demo")

print(f"discharged {len(cert['steps'])} requirements, "
      f"{len(cert['deferred'])} deferred")

trans = [s for s in cert["steps"] if s["kind"] == "transitivity"]
faith = [s for s in cert["steps"] if s["kind"] == "faithfulness"]
print(f"  {len(trans)} transitivity steps, {len(faith)} faithfulness steps")

example = trans[2]
print("\na discharged transitivity requirement:")
print(f"  move {example['xs']} to {example['ys']}")
print(f"  witnesses: {example['witnesses']}")
print(f"  mover: {example['mover']}")
print(f"  committed {len(example['batch'])} orbit pairs, "
      f"pinned {len(example['auto'])} defaults")

example = faith[0]
print("\na faithfulness witness, on the same set as the transitivity tuples:")
print(f"  element {example['element']} moves {example['witness']} "
      f"to {example['image']}, pinning {len(example['auto'])} defaults")

state = cert["final_state"]
print(f"\nfinal state: {len(state['anchors'])} committed orbits")

ok, reason = verify_certificate_report(fixtures.surface_group(), cert)
print(f"\nindependent replay: {'OK' if ok else 'FAIL'} ({reason})")

# determinism: the run is a pure function of the problem and the budget
again = run_schedule(fixtures.surface_group(), Budget(steps=50), problem_key="demo")
identical = json.dumps(cert, sort_keys=True) == json.dumps(again, sort_keys=True)
print(f"double run byte-identical: {identical}")

# tampering is caught
tampered = json.loads(json.dumps(cert))
tampered["steps"][0]["mover"] = "a1"
ok, reason = verify_certificate_report(fixtures.surface_group(), tampered)
print(f"tampered mover rejected: {not ok} ({reason})")
