"""One fresh interpreter of the benchmark: set-up samples or a workload's
CLI pipeline.

``run.py`` starts this script once per sample and reads the JSON object on
the last line of its standard output.  Two modes:

``setup PROBLEM...``
    time the import of hightrans plus ``parse_problem`` and acting-group
    resolution of the given problem files;
``pipeline --workload NAME --seed N --seconds T --out DIR [--trace]``
    drive ``audit``, ``reduce``, ``build --budget N --out`` and ``verify``
    through ``hightrans.cli.main``, one command at a time, and check every
    outcome against the known-answer table in ``workloads.json``.

The hightrans package is imported from ``src/`` of the checkout that holds
this directory, never from anywhere else.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import layers
from tracer import Tracer, snapshot

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PROBLEMS = ROOT / "problems"

# A phase repeats its pass (audit, build or verify over the whole workload)
# until it has run this long, so short passes still get a window of several
# seconds that averages out short bursts of host noise.
PHASE_WINDOW_S = 4.0

# On a shared host the speed of the same code drifts by a third within
# minutes, in CPU time as much as in wall time, so raw seconds of one run
# mostly measure the neighbours.  A SpeedProbe measures that speed while the
# commands run, and run.py rescales each pass's seconds by
# PROBE_NOMINAL_S / (median probe time during that pass): seconds on a
# host where the probe takes PROBE_NOMINAL_S.  The probe calls no hightrans
# code, so the program under test can move it only through the host.
PROBE_NOMINAL_S = 0.0035
PROBE_INTERVAL_S = 0.2
# probe units timed after each set-up sample
SETUP_PROBES = 10


class SpeedProbe:
    """Times a fixed unit of interpreter work before every command and, by
    SIGALRM every PROBE_INTERVAL_S, during it.  The unit hashes fresh small
    tuples (core-bound) and walks a table of about a megabyte (cache-bound),
    because contention slows the two kinds of work by different factors and
    the program does both.  Time spent in the probe is tracked so commands
    can subtract it."""

    def __init__(self):
        self.table = {(i, i * 7 % 1013): i for i in range(12000)}
        keys = list(self.table)
        self.walk = [keys[(i * 7919) % len(keys)] for i in range(1500)]
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def unit(self):
        acc = 0
        scratch = {}
        for i in range(2000):
            key = (i % 211, (i * 7) % 101, i & 3)
            scratch[key] = scratch.get(key, 0) + i
            acc ^= hash(key)
        acc ^= len(sorted(scratch.items(), key=lambda kv: (kv[1] % 17, kv[0])))
        table = self.table
        for key in self.walk:
            acc ^= table[key]
        return acc

    def sample(self, *_):
        """One timed unit, with the cyclic collector paused so the program's
        heap does not leak into the probe."""
        t0 = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            t1 = time.perf_counter()
            self.unit()
            self.samples.append(time.perf_counter() - t1)
        finally:
            if enabled:
                gc.enable()
            self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def load_spec():
    with open(BENCH / "workloads.json", encoding="utf-8") as fh:
        return json.load(fh)


def plan(spec, workload, seed):
    """The workload's problem names in the order this seed runs them, and
    its step budget.  The seed permutes the order and nothing else."""
    entry = spec["workloads"][workload]
    names = list(entry["problems"])
    random.Random(seed).shuffle(names)
    return names, entry["budget"]


def import_hightrans():
    sys.path.insert(0, str(SRC))
    import hightrans
    if Path(hightrans.__file__).resolve().parent != SRC / "hightrans":
        raise ImportError(f"hightrans was imported from {hightrans.__file__}, not {SRC}")
    return hightrans


def setup_sample(paths):
    """Seconds to import hightrans and resolve the problems' acting groups,
    then the median probe time measured right after."""
    t0 = time.perf_counter()
    import_hightrans()
    from hightrans.problem import parse_problem
    for path in paths:
        parse_problem(path).build_group()
    elapsed = time.perf_counter() - t0
    probe = SpeedProbe()
    for _ in range(SETUP_PROBES):
        probe.sample()
    return {"setup_s": elapsed, "probe_s": statistics.median(probe.samples)}


# ---------------------------------------------------------------------------
# the pipeline


class Pipeline:
    """Runs CLI commands for one workload and checks them against the table."""

    def __init__(self, spec, names, budget, outdir, probe=None):
        from hightrans import cli
        self.main = cli.main
        self.spec = spec
        self.names = names
        self.budget = budget
        self.outdir = Path(outdir)
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failures = []
        self.probe = probe       # a SpeedProbe, or None when tracing
        self.probed = []         # probe seconds since the current pass began
        self.certs = {}          # problem name -> summary of its certificate
        self.cert_bytes = {}     # problem name -> bytes of the first build
        self.on_command = None   # optional context factory(command, problem)

    def problem_path(self, name):
        return str(PROBLEMS / f"{name}.json")

    def cert_path(self, name):
        return str(self.outdir / f"{name}.cert.json")

    def run(self, command, name, argv):
        """One CLI command; returns (exit code or None on a traceback, seconds, output).

        Garbage of earlier commands is collected first, as a fresh CLI
        process would not carry it; probe time inside the command is not
        counted in its seconds."""
        gc.collect()
        probe = self.probe
        if probe is not None:
            first = len(probe.samples)
            probe.sample()
            spent = probe.spent
        buf = io.StringIO()
        wrap = self.on_command(command, name) if self.on_command else contextlib.nullcontext()
        code = None
        t0 = time.perf_counter()
        try:
            with wrap, contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                code = self.main(argv)
        except Exception:
            buf.write(traceback.format_exc())
        elapsed = time.perf_counter() - t0
        if probe is not None:
            elapsed -= probe.spent - spent
            self.probed += probe.samples[first:]
        self.attempted += 1
        return code, elapsed, buf.getvalue()

    def fail(self, name, command, why):
        self.failures.append(f"{name} {command}: {why}")

    def expected(self, name, command):
        return self.spec["known_answers"][name][command][0]

    def audit_pass(self):
        total = 0.0
        for name in self.names:
            for command in ("audit", "reduce"):
                code, dt, out = self.run(command, name, [command, self.problem_path(name)])
                total += dt
                if code != self.expected(name, command):
                    self.fail(name, command, f"exit {code}, expected "
                              f"{self.expected(name, command)}: {out.strip()[-300:]}")
        return total

    def build_pass(self):
        total = 0.0
        for name in self.names:
            argv = ["build", self.problem_path(name), "--budget", str(self.budget),
                    "--out", self.cert_path(name)]
            Path(self.cert_path(name)).unlink(missing_ok=True)
            code, dt, out = self.run("build", name, argv)
            total += dt
            self.check_build(name, code, out)
        return total

    def check_build(self, name, code, out):
        try:
            with open(self.cert_path(name), "rb") as fh:
                data = fh.read()
        except OSError as exc:
            self.fail(name, "build", f"exit {code}, no certificate ({exc}): {out.strip()[-300:]}")
            return
        first = self.cert_bytes.setdefault(name, data)
        if data != first:
            self.fail(name, "build", "certificate bytes differ between builds of one run")
            return
        if name not in self.certs:
            try:
                self.certs[name] = summarize_certificate(data)
            except ValueError as exc:
                self.fail(name, "build", f"certificate is not JSON: {exc}")
                return
        summary = self.certs[name]
        holds = self.spec["known_answers"][name]["hypotheses"] == "hold"
        deferred = summary["deferred"]
        # on a problem whose hypotheses hold, a deferral is a false deferral:
        # it is counted in false_deferrals and is not a failure
        want = (3 if deferred else 0) if holds else self.expected(name, "build")
        if code != want or (code == 3) != bool(deferred):
            self.fail(name, "build", f"exit {code} with {deferred} deferred, expected "
                      f"{want}: {out.strip()[-300:]}")

    def verify_pass(self):
        total = 0.0
        for name in self.names:
            argv = ["verify", self.problem_path(name), self.cert_path(name)]
            code, dt, out = self.run("verify", name, argv)
            total += dt
            if code != self.expected(name, "verify") or "verify: OK" not in out:
                self.fail(name, "verify", f"exit {code}: {out.strip()[-300:]}")
        return total

    def deferral_counts(self):
        false = genuine = sound = 0
        for name, summary in self.certs.items():
            if self.spec["known_answers"][name]["hypotheses"] == "hold":
                false += summary["deferred"]
                sound += summary["steps"]
            else:
                genuine += summary["deferred"]
        return {"false_deferrals": false, "genuine_deferrals": genuine,
                "sound_discharged": sound}


def summarize_certificate(data):
    cert = json.loads(data)
    steps = cert.get("steps", [])
    deferred = cert.get("deferred", [])
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
        "bytes": len(data),
        "steps": len(steps),
        "deferred": len(deferred),
        "transitivity": sum(1 for s in steps if s.get("kind") == "transitivity"),
        "faithfulness": sum(1 for s in steps if s.get("kind") == "faithfulness"),
        "deferred_transitivity": sum(1 for d in deferred if d.get("kind") == "transitivity"),
        "anchors": len(cert.get("final_state", {}).get("anchors", [])),
    }


def repeat_phase(pipe, phase):
    """Run a phase until it has taken PHASE_WINDOW_S seconds.  Returns one
    ``[seconds, median probe seconds]`` pair per pass."""
    passes = []
    while not passes or sum(t for t, _ in passes) < PHASE_WINDOW_S:
        pipe.probed = []
        seconds = phase()
        passes.append([seconds, statistics.median(pipe.probed)])
    return passes


def timed_pipeline(pipe, seconds):
    """Cycle the audit, build and verify phases for about ``seconds``.

    The first cycle always runs in full.  After it, the next phase starts
    only if its whole last length still fits before the deadline, so a run
    does not outlast ``seconds`` unless a phase runs slower than it did
    last time, and the time left over by a long verify phase goes to more
    audit and build samples.
    """
    phases = (("audit", pipe.audit_pass), ("build", pipe.build_pass),
              ("verify", pipe.verify_pass))
    samples = {name: [] for name, _ in phases}
    length = {}
    start = time.perf_counter()
    turns = 0
    while True:
        name, phase = phases[turns % len(phases)]
        if turns >= len(phases) and time.perf_counter() - start + length[name] > seconds:
            return samples, turns
        t0 = time.perf_counter()
        samples[name] += repeat_phase(pipe, phase)
        length[name] = time.perf_counter() - t0
        turns += 1


def one_pass(pipe):
    return pipe.audit_pass() + pipe.build_pass() + pipe.verify_pass()


def traced_pipeline(pipe_untraced, pipe_traced, workload):
    """One untraced pass, then one traced pass; per-layer metrics and checks."""
    untraced_s = one_pass(pipe_untraced)
    before = snapshot()
    tracer = Tracer(run_id=workload)
    pipe_traced.on_command = lambda command, name: tracer.span(
        f"cli.{command}", command=command, problem=name)
    with tracer.installed():
        traced_s = one_pass(pipe_traced)
    after = snapshot()
    pipe_traced.on_command = None
    problems = []
    if before.keys() != after.keys() or any(after[k] is not v for k, v in before.items()):
        problems.append("tracer left a wrapped hightrans binding behind")
    for name in pipe_untraced.names:
        if pipe_traced.cert_bytes.get(name) != pipe_untraced.cert_bytes.get(name):
            problems.append(f"{name}: traced certificate differs from the untraced one")
    problems += layers.reconcile(tracer, pipe_traced.certs)
    metrics = layers.per_layer(tracer, pipe_traced, load_spec()["seed_certificates"])
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return metrics, problems, tracer


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pipeline_main(args):
    import_hightrans()
    spec = load_spec()
    names, budget = plan(spec, args.workload, args.seed)
    out = Path(args.out)
    result = {"problems": names, "budget": budget}
    if args.trace:
        plain = Pipeline(spec, names, budget, out / "untraced")
        traced = Pipeline(spec, names, budget, out / "traced")
        metrics, problems, _ = traced_pipeline(plain, traced, args.workload)
        pipes = (plain, traced)
        result.update(metrics=metrics, checks=problems)
    else:
        with SpeedProbe() as probe:
            pipe = Pipeline(spec, names, budget, out, probe)
            samples, turns = timed_pipeline(pipe, args.seconds)
        pipes = (pipe,)
        result.update(samples=samples, phases_run=turns, peak_rss_mb=peak_rss_mb())
    first = pipes[0]
    result.update(
        attempted=sum(p.attempted for p in pipes),
        failures=[f for p in pipes for f in p.failures],
        certs=first.certs,
        **first.deferral_counts(),
    )
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("problems", nargs="+")
    p = sub.add_parser("pipeline")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        print(json.dumps(setup_sample(args.problems)))
    else:
        pipeline_main(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
