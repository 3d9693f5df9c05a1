"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import json
import time

from hightrans import graphs, hcf
from hightrans.engine import Budget, EngineProblem, run_schedule, verify_certificate_report
from hightrans.normal_forms import parse_word

from conftest import problem_path, zoo
import oracles
from oracles import (affine_bs12, all_words, equivariance_by_evaluation,
                     gset_instance_for_eset, hset_instance_for_gset, plain_level_action, psl2z_key,
                     replay_hcf_verdict, replay_highly_faithful_verdict, replay_steps,
                     search_G_set)


def report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def partitions_agree(group, labels, oracle, max_len):
    """All pairs of words of length <= max_len agree between the normal
    form and the oracle iff the two induced partitions coincide."""
    nf_to_key, key_to_nf = {}, {}
    count = 0
    for w in all_words(labels, max_len):
        nf = group.element_from_word(list(w))
        key = oracle(w)
        assert nf_to_key.setdefault(nf, key) == key, f"equal words split by oracle: {w}"
        assert key_to_nf.setdefault(key, nf) == nf, f"distinct words merged: {w}"
        count += 1
    return count


def test_criterion_1_word_problem_soundness():
    start = time.monotonic()
    n1 = partitions_agree(zoo("bs12").build_group()[0], ("a", "t"), affine_bs12, 6)
    n2 = partitions_agree(zoo("z2-z3").build_group()[0], ("x", "y"), psl2z_key, 6)
    elapsed = time.monotonic() - start
    assert elapsed < 30
    report(1, f"normal forms match the matrix oracles on all pairs of "
              f"{n1} + {n2} words of length <= 6 in {elapsed:.1f}s")


def test_criterion_2_surface_relation():
    surface = zoo("pi1-sigma2").build_group()[0]
    rel = parse_word(surface, "a1 b1 a1^-1 b1^-1 b2 a2 b2^-1 a2^-1")
    assert rel.is_identity
    report(2, "the genus-2 relation word reduces to the identity")


def test_criterion_3_hcf_positive_fixtures():
    bounds = hcf.AuditBounds(tuple_size_max=2, point_radius=2, witness_radius=4)
    start = time.monotonic()
    cases = [
        ("commutator subgroup of F2", oracles.commutator_subgroup_embedding()),
        ("trivial subgroup of Z", oracles.trivial_subgroup_embedding()),
        ("unit subgroup of the Gaussian affine group",
         zoo("gaussian-hnn").embeddings["units"]),
    ]
    for label, emb in cases:
        audit = hcf.audit_hcf(emb, bounds)
        assert audit.status == "pass", f"{label}: {audit}"
        assert replay_hcf_verdict(emb, audit), label
        structural = hcf.certify_structural(emb, bounds)
        assert structural.status == "pass", f"{label}: structural {structural}"
    elapsed = time.monotonic() - start
    assert elapsed < 60
    report(3, f"three positive fixtures pass at bounds (2,2,4) with "
              f"structural corroboration in {elapsed:.1f}s")


def test_criterion_4_negative_fixtures():
    even = oracles.even_integers_embedding()
    v = hcf.audit_hcf(even)
    assert v.failed
    assert v.evidence["covering"]["pieces"] == [{"members": ["1"]}]
    assert sorted(v.evidence["covering"]["F"]) == ["1", "a"]
    assert replay_hcf_verdict(even, v)

    stab = oracles.point_stabilizer_embedding()
    w = hcf.audit_highly_faithful(stab)
    assert w.failed
    assert w.evidence["covering"]["pieces"] == [{"members": ["1", "s2"]},
                                                {"complement_of": ["1", "s2"]}]
    assert replay_highly_faithful_verdict(stab, w)
    report(4, "index-two subgroup fails with the single-piece covering and "
              "S4 on the cosets of a point stabilizer fails with two cosets | "
              "the other two; both counterexamples re-verify")


def test_criterion_5_equivalence_cross_checks():
    emb = oracles.commutator_subgroup_embedding()
    f = emb.target
    ball2 = f.ball(2)
    nontrivial = [x for x in ball2 if not x.is_identity]
    F = f.ball(1)
    f_reps = {emb.rep(x) for x in F}
    total = transported = 0
    for xs in itertools.combinations(nontrivial, 2):
        ys, f2 = hset_instance_for_gset(list(xs), F)
        h = hcf.search_H_set(emb, ys, 6, hcf.HSetMemo(emb, f2))
        assert h is not None
        assert all(emb.rep(h * x) not in f_reps for x in xs)
        hinv = h.inverse()
        assert all(not emb.contains(h * xs[i] * xs[j].inverse() * hinv)
                   for i in range(2) for j in range(2) if i != j)
        total += 1
        transported += 1

    action = plain_level_action(emb)
    fpts = f.ball(1)
    fp_reps = {action.orbit_rep(p) for p in fpts}
    for xs in itertools.combinations(fpts, 2):
        ys, f2 = gset_instance_for_eset(action, list(xs), fpts)
        h = search_G_set(emb, ys, f2, 6)
        assert h is not None
        imgs = [action.act(h, x) for x in xs]
        reps = [action.orbit_rep(p) for p in imgs]
        assert all(r not in fp_reps for r in reps)
        assert len(set(reps)) == len(reps)
        total += 1
        transported += 1
    assert transported == total
    report(5, f"{transported}/{total} sampled instances transport between "
              "the three witness sets")


def _engine_criterion(names, label):
    certs = {}
    for name in names:
        start = time.monotonic()
        cert = run_schedule(EngineProblem(zoo(name).build_group()[0]), Budget(steps=50), name)
        elapsed = time.monotonic() - start
        assert elapsed < 120, f"{name}: {elapsed:.1f}s"
        assert len(cert["steps"]) == 50
        assert cert["deferred"] == []
        ok, reason = verify_certificate_report(zoo(name).build_group()[0], cert)
        assert ok, f"{name}: {reason}"
        cert2 = run_schedule(EngineProblem(zoo(name).build_group()[0]), Budget(steps=50), name)
        assert (json.dumps(cert, sort_keys=True)
                == json.dumps(cert2, sort_keys=True)), f"{name}: runs differ"
        certs[name] = cert
    return certs


AMALGAM_RUNS = ["z-star-z", "pi1-sigma2"]
HNN_RUNS = ["free2-hnn", "gaussian-hnn"]
_cert_cache = {}


def _cli_build_cycle(problem_file, tmp_path):
    from hightrans import cli
    out = str(tmp_path / (problem_file + ".cert.json"))
    rc = cli.main(["build", problem_path(problem_file), "--budget", "50",
                   "--out", out, "--seedless"])
    assert rc == 0, f"{problem_file}: build exit {rc}"
    rc = cli.main(["verify", problem_path(problem_file), out])
    assert rc == 0, f"{problem_file}: verify exit {rc}"


def test_criterion_6_engine_amalgams(tmp_path, capsys):
    _cert_cache.update(_engine_criterion(AMALGAM_RUNS, "amalgam"))
    for name in ("z-star-z.json", "pi1-sigma2.json"):
        _cli_build_cycle(name, tmp_path)
    capsys.readouterr()
    report(6, "50-step builds on the two amalgams (library and cli): zero "
              "deferred, verified replay, byte-identical double runs")


def test_criterion_7_engine_hnn(tmp_path, capsys):
    _cert_cache.update(_engine_criterion(HNN_RUNS, "hnn"))
    for name in ("free2-hnn.json", "gaussian-hnn.json"):
        _cli_build_cycle(name, tmp_path)
    capsys.readouterr()
    report(7, "50-step builds on the two HNN fixtures (library and cli): "
              "zero deferred, verified replay, byte-identical double runs")


def test_criterion_8_monotone_invariants():
    if not _cert_cache:
        _cert_cache.update(_engine_criterion(AMALGAM_RUNS + HNN_RUNS, "all"))
    violations = 0
    steps_checked = 0
    for name, cert in _cert_cache.items():
        gamma = zoo(name).build_group()[0]
        problem = EngineProblem(gamma)
        state = problem.new_state()
        history = []
        for step, (ok, reason) in replay_steps(problem, state, cert):
            assert ok, f"{name} step {step['index']}: {reason}"
            history.append(step)
            steps_checked += 1
            assert equivariance_by_evaluation(state), f"{name}: equivariance"
            violations += len(oracles.lost_postconditions(state, history))
    assert violations == 0
    report(8, f"equivariance, batch closure and "
              f"persistence hold across all {steps_checked} replayed steps "
              "with zero violations")


def test_criterion_9_graph_reduction():
    surf = graphs.reduce_edge(zoo("pi1-sigma2").graph, "e0")[0]
    assert surf.kind == "amalgam"
    gauss = graphs.reduce_edge(zoo("gaussian-hnn").graph, "e0")[0]
    assert gauss.kind == "hnn"
    theta = graphs.reduce_edge(zoo("theta").graph, "e2")[0]
    assert theta.kind == "hnn" and theta.base.kind == "amalgam"

    rep_v = graphs.validate_main_hypotheses(zoo("planted-finite-vertex").graph)
    assert rep_v["overall"] == "fail"
    assert rep_v["vertices"]["p"]["status"] == "fail"
    rep_e = graphs.validate_main_hypotheses(zoo("planted-finite-index-edge").graph)
    assert rep_e["overall"] == "fail"
    assert rep_e["edges"]["e0"]["source"]["hcf"].failed
    report(9, "reductions take the expected shapes and the planted finite "
              "vertex and finite-index edge are both flagged")
