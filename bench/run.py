"""Benchmark of the hightrans CLI pipeline: audit, reduce, build, verify.

    python3 bench/run.py --workload surface-300 --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; see bench/README.md.  A run starts fresh
interpreters one at a time: several set-up samples, then one pipeline
process that drives ``hightrans.cli.main`` in a closed loop (one command
at a time, no threads) and checks every outcome against the known-answer
table in ``bench/workloads.json``.

``--trace 0`` measures for about ``--seconds`` and reports the end-to-end
metrics.  ``--trace 1`` runs one untraced and one traced pass, whatever
``--seconds`` says, and reports the per-layer metrics (``bench/layers.py``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
repeat the numbers for people.  Certificates go to ``.bench_build/hightrans/``
inside the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from worker import BENCH, PROBLEMS, PROBE_NOMINAL_S, ROOT, SRC, load_spec, plan  # noqa: E402

WORKER = BENCH / "worker.py"
OUT = ROOT / ".bench_build" / "hightrans"
SETUP_SAMPLES = 5
CHILD_DEADLINE_S = 170     # a whole run must end well within 180 s


class BenchError(RuntimeError):
    """The benchmark could not measure (missing sources, a crashed child)."""


def child(args, deadline):
    """Run one worker interpreter; returns the JSON object it printed last."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("no time left for another child process")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                              capture_output=True, text=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[0]} did not finish within {left:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args[0]} exited with {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def preflight(paths):
    missing = [str(p.relative_to(ROOT)) for p in [SRC / "hightrans" / "cli.py", *paths]
               if not p.is_file()]
    if missing:
        raise BenchError("not a hightrans checkout; missing " + ", ".join(missing))


def rescale(seconds, probe_s):
    """Seconds on a host where the speed probe takes PROBE_NOMINAL_S."""
    return seconds * PROBE_NOMINAL_S / probe_s


def end_to_end(args, names, deadline):
    paths = [str(PROBLEMS / f"{n}.json") for n in names]
    t0 = time.monotonic()
    setups = [child(["setup", *paths], deadline) for _ in range(SETUP_SAMPLES)]
    seconds = max(1.0, args.seconds - (time.monotonic() - t0))
    out = OUT / f"{args.workload}-seed{args.seed}"
    res = child(["pipeline", "--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(seconds), "--out", str(out)], deadline)
    passes = dict(res["samples"], setup=[[s["setup_s"], s["probe_s"]] for s in setups])
    value = {}
    print(f"  {'phase':<8} {'n':>3} {'raw median s':>13} {'probe median ms':>16}")
    for key in ("setup", "audit", "build", "verify"):
        value[key] = statistics.median(rescale(t, probe) for t, probe in passes[key])
        print(f"  {key:<8} {len(passes[key]):>3} "
              f"{statistics.median(t for t, _ in passes[key]):>13.4f} "
              f"{statistics.median(p for _, p in passes[key]) * 1e3:>16.3f}")
    print(f"  phases run {res['phases_run']}; each pass is rescaled by the probe "
          f"median during it to a probe of {PROBE_NOMINAL_S * 1e3:g} ms")
    metrics = {
        "setup_s": (value["setup"], "s"),
        "audit_s": (value["audit"], "s"),
        "build_s": (value["build"], "s"),
        "verify_s": (value["verify"], "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "sound_discharged": (res["sound_discharged"], "count"),
    }
    return res, metrics, len(setups)


def per_layer(args, names, deadline):
    out = OUT / f"{args.workload}-seed{args.seed}-trace"
    res = child(["pipeline", "--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--out", str(out), "--trace"], deadline)
    for problem in res["checks"]:
        print(f"  reconciliation: {problem}")
    res["failures"] += res["checks"]
    units = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
    missing = sorted(set(units) - set(res["metrics"]))
    if missing:
        raise BenchError(f"per-layer metrics not produced: {missing}")
    metrics = {name: (res["metrics"][name], units[name]) for name in units}
    return res, metrics, 0


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + CHILD_DEADLINE_S
    try:
        spec = load_spec()
        if args.workload not in spec["workloads"]:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"choose from {sorted(spec['workloads'])}")
        names, budget = plan(spec, args.workload, args.seed)
        preflight([PROBLEMS / f"{n}.json" for n in names])
        print(f"{args.workload}: {', '.join(names)} at {budget} steps, seed {args.seed}")
        measure = per_layer if args.trace else end_to_end
        res, metrics, extra = measure(args, names, deadline)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    attempted = res["attempted"] + extra
    failed = len(res["failures"])
    seed_shas = spec["seed_certificates"]
    for name, cert in sorted(res["certs"].items()):
        seed = seed_shas.get(f"{name}@{budget}")
        note = "seed" if seed == cert["sha256"] else "differs from seed" if seed else "no seed hash"
        print(f"  certificate {name}: {cert['bytes']} bytes, {cert['steps']} steps, "
              f"{cert['deferred']} deferred, sha256 {cert['sha256'][:16]}... ({note})")
    for failure in res["failures"]:
        print(f"  FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {unit}")
    print(f"  {'false_deferrals':<48} {res['false_deferrals']:>14} count "
          f"(genuine deferrals: {res['genuine_deferrals']})")
    print(f"  {'failed_frac':<48} {failed / attempted:>14.6g} share "
          f"({failed} failed of {attempted} CLI commands and set-up samples)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
