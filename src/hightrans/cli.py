"""Command-line interface: audit, nf, reduce, build, verify.

Exit codes: 0 all verdicts pass / run complete, 1 usage, argument or
schema error, 2 a fail verdict, 3 undecided verdicts or deferred
requirements.
"""

from __future__ import annotations

import argparse
import sys

from . import graphs, hcf
from .engine import EngineProblem, run_schedule, verify_certificate_report
from .normal_forms import parse_word, syllable_length
from .problem import (AuditBounds, Budget, ProblemError, canonical_text, emit_certificate,
                      load_certificate, parse_problem)

EXIT_PASS = 0
EXIT_USAGE = 1
EXIT_FAIL = 2
EXIT_UNDECIDED = 3
STATUS_EXIT = {hcf.PASS: EXIT_PASS, hcf.FAIL: EXIT_FAIL, hcf.UNDECIDED: EXIT_UNDECIDED}


def _parse_bounds(text):
    try:
        parts = [int(p) for p in text.split(",")]
        if len(parts) != 3:
            raise ValueError("bounds are n,rho,r")
        return AuditBounds(*parts)
    except ValueError as exc:
        # argparse shows the message of an ArgumentTypeError only
        raise argparse.ArgumentTypeError(str(exc))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hightrans",
        description="normal forms, core-freeness audits and certified "
                    "construction of highly transitive actions")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("audit", help="core-freeness and faithfulness audits")
    p.set_defaults(run=cmd_audit)
    p.add_argument("problem")
    p.add_argument("--bounds", type=_parse_bounds, default=None)

    p = sub.add_parser("nf", help="normal-form a word")
    p.set_defaults(run=cmd_nf)
    p.add_argument("problem")
    p.add_argument("group")
    p.add_argument("word")

    p = sub.add_parser("reduce", help="reduce a graph of groups to one edge")
    p.set_defaults(run=cmd_reduce)
    p.add_argument("problem")
    p.add_argument("--edge", default=None)
    p.add_argument("--bounds", type=_parse_bounds, default=None)

    p = sub.add_parser("build", help="run the engine and emit a certificate")
    p.set_defaults(run=cmd_build)
    p.add_argument("problem")
    p.add_argument("--budget", type=int, default=None, help="number of schedule steps")
    p.add_argument("--edge", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--seedless", action="store_true",
                   help="assert determinism by running twice and comparing bytes")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="log each discharged step to standard error")

    p = sub.add_parser("verify", help="re-check a certificate file")
    p.set_defaults(run=cmd_verify)
    p.add_argument("problem")
    p.add_argument("certificate")
    return parser


def cmd_audit(args):
    problem = parse_problem(args.problem)
    bounds = args.bounds or problem.bounds
    statuses = []
    for name in sorted(problem.embeddings):
        emb = problem.embeddings[name]
        hv = hcf.audit_hcf(emb, bounds)
        sv = hcf.certify_structural(emb, bounds)
        cv = hcf.audit_highly_faithful(hcf.CosetDomain(emb), bounds)
        statuses.extend([hv.status, sv.status, cv.status])
        print(f"audit {name}: hcf={hv.status} structural={sv.status} coset-action={cv.status}")
        for verdict, tag in ((hv, "hcf"), (cv, "coset-action")):
            if verdict.failed and "covering" in verdict.evidence:
                print(f"  {tag} counterexample: {verdict.evidence['covering']}")
    return STATUS_EXIT[hcf.worst(statuses)]


def cmd_nf(args):
    problem = parse_problem(args.problem)
    if args.group not in problem.groups:
        raise ProblemError([f"unknown group {args.group!r}"])
    handle = problem.groups[args.group]
    try:
        elt = parse_word(handle, args.word)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(str(elt))
    if handle.kind in ("amalgam", "hnn"):
        print(f"syllables: {syllable_length(elt)}")
    return EXIT_PASS


def cmd_reduce(args):
    problem = parse_problem(args.problem)
    if problem.graph is None:
        raise ProblemError(["the problem file has no graph section"])
    graph = problem.graph
    gamma, source = problem.build_group(None if args.edge is None else {"edge": args.edge})
    print(f"reduce {graph.name} at edge {source['edge']}: {gamma.kind} problem, "
          f"group {gamma.name}")
    if gamma.kind == "hnn":
        print(f"  base: {gamma.base.name} ({gamma.base.kind})")
    else:
        print(f"  left: {gamma.left.name}, right: {gamma.right.name}")
    bounds = args.bounds or problem.bounds
    report = graphs.validate_main_hypotheses(graph, bounds)
    for vid, entry in sorted(report["vertices"].items()):
        print(f"  vertex {vid} ({entry['group']}): "
              f"{'infinite' if entry['infinite'] else 'FINITE'} -> {entry['status']}")
    for eid, entry in sorted(report["edges"].items()):
        for tag in ("source", "range"):
            e = entry[tag]
            print(f"  edge {eid}.{tag} ({e['embedding']}): hcf={e['hcf'].status} "
                  f"structural={e['structural'].status}")
    print(f"hypotheses: {report['overall']}")
    return STATUS_EXIT[report["overall"]]


def _to_stderr(line):
    print(line, file=sys.stderr)


def cmd_build(args):
    problem = parse_problem(args.problem)
    gamma, source = problem.build_group(None if args.edge is None else {"edge": args.edge})
    steps = args.budget if args.budget is not None else problem.budget.steps
    try:
        acting = EngineProblem(gamma)
        budget = Budget(steps=steps, witness_radius=problem.budget.witness_radius)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    on_step = _to_stderr if args.verbose else None
    cert = run_schedule(acting, budget, problem.digest(), on_step)
    cert["source"] = source
    if args.seedless:
        gamma2, _ = problem.build_group(source)
        cert2 = run_schedule(EngineProblem(gamma2), budget, problem.digest(), on_step)
        cert2["source"] = source
        if canonical_text(cert) != canonical_text(cert2):
            print("error: double run produced different certificates", file=sys.stderr)
            return EXIT_FAIL
        print("determinism: double run byte-identical")
    print(f"build {gamma.name}: {len(cert['steps'])} discharged, "
          f"{len(cert['deferred'])} deferred")
    for item in cert["deferred"]:
        print(f"  deferred #{item['index']}: {item['diagnostic']}")
    if args.out:
        emit_certificate(cert, args.out)
        print(f"certificate written to {args.out}")
    return EXIT_PASS if not cert["deferred"] else EXIT_UNDECIDED


def cmd_verify(args):
    problem = parse_problem(args.problem)
    try:
        cert = load_certificate(args.certificate)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load certificate: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if cert.get("problem") != problem.digest():
        print("verify: FAIL (certificate was issued for a different problem)")
        return EXIT_FAIL
    try:
        gamma, _ = problem.build_group(cert.get("source"))
    except ProblemError as exc:
        print(f"verify: FAIL ({exc})")
        return EXIT_FAIL
    ok, reason = verify_certificate_report(gamma, cert)
    print(f"verify: {'OK' if ok else 'FAIL'} ({reason})")
    return EXIT_PASS if ok else EXIT_FAIL


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a bad argument, a usage error
        return EXIT_USAGE if exc.code else EXIT_PASS
    try:
        return args.run(args)
    except ProblemError as exc:
        # a problem, group or edge that does not resolve; verify FAILs a bad source tag
        for err in exc.errors:
            print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
