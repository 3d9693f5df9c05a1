"""Statement census: the lines of ``src/hightrans`` that the commands never run.

Runs ``audit`` and ``reduce`` (at the file's bounds and at ``--bounds``),
``build --budget 200``, ``verify`` (of the certificate just built) and
``nf`` (of one word per declared group) on every problem file under
``problems/``, and one ``build --seedless -v`` of free2-hnn, in one
process under the stdlib ``trace`` module, and lists each executable line
of the package (a line that starts bytecode, as ``dis`` finds them) that
no run reached, file by file.  Lines that start with ``raise`` are listed
apart: they are the error paths that a hostile input reaches and the
bundled problems do not.  A mutant on any other listed line survives
every run here by construction.

Usage, from the repository root:

    PYTHONPATH=src python tests/census.py

The name does not start with ``test_``, so pytest does not collect it.
"""

import contextlib
import dis
import io
import sys
import tempfile
import trace
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = sorted((ROOT / "problems").glob("*.json"))
BUDGET = "200"
BOUNDS = "1,1,1"


def _run_commands(outdir):
    # imported here, so the trace counts the modules' import-time lines too
    from hightrans import cli
    from hightrans.problem import parse_problem

    for path in PROBLEMS:
        cert = str(Path(outdir) / f"{path.stem}.json")
        for argv in (["audit", str(path)], ["reduce", str(path)],
                     ["audit", str(path), "--bounds", BOUNDS],
                     ["reduce", str(path), "--bounds", BOUNDS],
                     ["build", str(path), "--budget", BUDGET, "--out", cert],
                     ["verify", str(path), cert]):
            cli.main(argv)
        # the word of a group's generators in order, "1" for none
        for name, handle in sorted(parse_problem(str(path)).groups.items()):
            cli.main(["nf", str(path), name, " ".join(handle.labels) or "1"])
    cli.main(["build", str(ROOT / "problems" / "free2-hnn.json"), "--budget", "50",
              "--seedless", "-v"])


def _executable_lines(path):
    """The line numbers that start a statement's bytecode, in every code
    object of the module."""
    stack, lines = [compile(path.read_text(), str(path), "exec")], set()
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main():
    # no ignoredirs: trace caches its verdict per module basename, so an
    # ignored stdlib __init__ would hide the package's own __init__
    tracer = trace.Trace(count=1, trace=0)
    with tempfile.TemporaryDirectory() as outdir, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        tracer.runfunc(_run_commands, outdir)
    package = Path(sys.modules["hightrans"].__file__).resolve().parent
    ran = {(str(Path(name).resolve()), line) for name, line in tracer.results().counts}
    totals = [0, 0, 0]
    for path in sorted(package.glob("*.py")):
        source = path.read_text().splitlines()
        executable = _executable_lines(path)
        missed = [line for line in sorted(executable)
                  if (str(path), line) not in ran]
        raises = [line for line in missed if source[line - 1].lstrip().startswith("raise")]
        others = [line for line in missed if line not in raises]
        rel = path.relative_to(ROOT)
        print(f"{rel}: {len(others)} never run, {len(raises)} never-run raise")
        for line in others:
            print(f"  {rel}:{line}: {source[line - 1].strip()}")
        for line in raises:
            print(f"  raise {rel}:{line}: {source[line - 1].strip()}")
        totals = [t + n for t, n in zip(totals, (len(executable), len(others), len(raises)))]
    print(f"total: {totals[0]} executable lines, {totals[1]} never run, "
          f"{totals[2]} never-run raise")


if __name__ == "__main__":
    main()
