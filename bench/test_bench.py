"""Tests of the benchmark itself (not of hightrans).

    python3 -m pytest -q bench/test_bench.py

They run the traced pipeline at 20 steps and take under half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402
from tracer import AGGREGATES, SPANS, Tracer, snapshot  # noqa: E402

worker.import_hightrans()

import hightrans  # noqa: E402
from hightrans import cli, engine, graphs, hcf  # noqa: E402

SMALL_BUDGET = 20
TIMED = ("_s", "ms_first10", "ms_last10", "ms_last", "verify_ms_per_step",
         "share_of_extend", "share_of_verify", "overhead_frac")


def counts(metrics):
    """The per-layer metrics that are counts, not times, except the group
    multiply counts: inside ``audit`` and ``reduce`` those vary by about 0.1%
    from process to process, because ``hcf.certify_structural`` leaves
    ``any(...)`` loops early over sets whose order follows id()-based element
    hashes.  ``outside_audits`` checks them exactly for the other commands."""
    return {k: v for k, v in metrics.items()
            if not k.endswith(TIMED) and not k.startswith("groups.")}


def outside_audits(tracer):
    """Calls of every wrapped name, less those made directly inside an audit
    or reduce command (audits open no nested span)."""
    audits = [sp.id for sp in tracer.spans if sp.name in ("cli.audit", "cli.reduce")]
    return {name: st.calls - sum(tracer.calls_under(name, i) for i in audits)
            for name, st in tracer.stats.items()}


def traced(tmp_path, names, tag):
    spec = worker.load_spec()
    plain = worker.Pipeline(spec, names, SMALL_BUDGET, tmp_path / tag / "untraced")
    traced = worker.Pipeline(spec, names, SMALL_BUDGET, tmp_path / tag / "traced")
    metrics, problems, tracer = worker.traced_pipeline(plain, traced, tag)
    assert plain.failures == [] and traced.failures == []
    assert problems == []
    return metrics, tracer


@pytest.fixture(scope="module")
def zoo_runs(tmp_path_factory):
    spec = worker.load_spec()
    tmp = tmp_path_factory.mktemp("zoo")
    order1, _ = worker.plan(spec, "zoo-200", 1)
    order2, _ = worker.plan(spec, "zoo-200", 2)
    assert order1 != order2 and sorted(order1) == sorted(order2)
    return traced(tmp, order1, "a"), traced(tmp, order1, "b"), traced(tmp, order2, "c")


def test_traced_run_restores_every_wrapped_name(tmp_path):
    before = snapshot()
    originals = {"search_E_set": hcf.search_E_set,
                 "evaluate_pi": engine.evaluate_pi,
                 "audit_hcf": hcf.audit_hcf,
                 "certify_structural": hcf.certify_structural}
    tracer = Tracer()
    problem = str(worker.PROBLEMS / "pi1-sigma2.json")
    cert = str(tmp_path / "cert.json")
    with tracer.installed():
        # the from-import bindings are wrapped along with the defining module
        for module, name in ((engine, "search_E_set"), (engine, "evaluate_pi"),
                             (graphs, "audit_hcf"), (graphs, "certify_structural"),
                             (hightrans, "search_E_set")):
            bound = getattr(module, name)
            assert bound is not originals[name] and bound.__wrapped__ is originals[name]
        assert cli.run_schedule is not engine.run_schedule.__wrapped__
        with tracer.span("cli.build", problem="pi1-sigma2"):
            assert cli.main(["build", problem, "--budget", str(SMALL_BUDGET),
                             "--out", cert]) == 0
        with tracer.span("cli.verify", problem="pi1-sigma2"):
            assert cli.main(["verify", problem, cert]) == 0
    after = snapshot()
    assert before.keys() == after.keys()
    changed = [k for k, v in before.items() if after[k] is not v]
    assert changed == []
    assert tracer.calls("engine.extend_transitivity") == SMALL_BUDGET // 2
    assert tracer.calls("action.check_equivariance") == SMALL_BUDGET // 2
    assert len(tracer.originals) == len(SPANS) + len(AGGREGATES)


def test_counts_repeat_exactly_across_traced_runs(zoo_runs):
    (a, ta), (b, tb), _ = zoo_runs
    assert counts(a) == counts(b)
    assert outside_audits(ta) == outside_audits(tb)
    assert a["engine.extend_transitivity.calls"] > 0
    assert a["embeddings.decompose.calls"] > 0


def test_seed_only_permutes_the_order(zoo_runs):
    (a, ta), _, (c, tc) = zoo_runs
    assert counts(a) == counts(c)
    assert outside_audits(ta) == outside_audits(tc)


def test_every_per_layer_metric_is_produced_and_mapped(zoo_runs):
    (a, _), _, _ = zoo_runs
    with open(BENCH.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        names = {m["name"] for m in json.load(fh)["per_layer"]}
    with open(BENCH / "interactions.json", encoding="utf-8") as fh:
        interactions = json.load(fh)
    assert names == set(a)
    assert names == set(interactions)
    workloads = set(worker.load_spec()["workloads"])
    for entry in interactions.values():
        assert set(entry["on"]) <= workloads and set(entry["flat_on"]) <= workloads


def test_known_answer_table_covers_every_workload():
    spec = worker.load_spec()
    for entry in spec["workloads"].values():
        for name in entry["problems"]:
            answers = spec["known_answers"][name]
            assert answers["hypotheses"] in ("hold", "fail")
            for command in ("audit", "reduce", "build", "verify"):
                code, reason = answers[command][:2]
                assert code in (0, 1, 2, 3) and reason


def test_refuses_to_run_without_the_sources(tmp_path):
    root = BENCH.parent
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "zoo-200",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
