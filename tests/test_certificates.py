"""Certificate bytes as the behaviour contract, the replay invariants that
let the verifier check each anchor only when it is committed, and the one
set X = Gamma that carries both transitivity and faithfulness."""

import copy
import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hightrans import cli, engine
from hightrans.action import evaluate_pi
from hightrans.engine import (Budget, EngineProblem, _verify_faithfulness_step,
                              _verify_transitivity_step, run_schedule, verify_certificate_report)
from hightrans.normal_forms import parse_word
from hightrans.problem import canonical_text, load_certificate, parse_problem

from conftest import problem_path
from oracles import shortlex_first_rule


PINNED_BUDGET = 40

# SHA-256 of canonical_text of `hightrans build problems/<name>.json --budget 40`
# under the shortlex-first witness rule (oracles.shortlex_first_rule)
PINNED = {
    "pi1-sigma2": "f7d1377b1d328a5cd92b62d96104162a04a1148634f6d114a4263cbc44acdbe1",
    "gaussian-hnn": "1c9f936e87710efa934ad424b4588fc4f15e034f6c7870306af463b62b34ef15",
    "free2-hnn": "fcee6c9fa8add34f136878cc3fb688a8cab02586af6b5fca9ef0dc6992f6d0ac",
    "z-star-z": "eec632c8e81ae1e0fdaaad601b97b52249d65945858fb3aab8bf8dd87bad7c31",
    "bs12": "57245ad33d11a62ed35b224cfbf9ac919f2ec993bb2e7dd4436a2687c7b916de",
    "z2-z3": "0636e54783abaf37da943765f1e8ebb71dd9b3224d93f5cdd0ec69a8989b37c7",
    "theta": "7d4e6937ff877f381127cd2a3eb07574bc555e86c96303109ffd1707ff9aa8c9",
    "planted-finite-vertex": "a2ebddc04e2145f76d2e1236e8c73e7fbb6d2367d46966179533f90c19263e04",
    "planted-finite-index-edge": "b3d82f351a321d102b6054645c0d93a9778ebd1ed551831b78699f82e33be31d",
}

# the same builds under the wrap-around witness rule the engine ships
PINNED_CURSOR = {
    "pi1-sigma2": "cb89a6929472a7ea4b0c8fa7206fb83efa3f0240bb9c8f9cbec7e706620455fe",
    "gaussian-hnn": "a18ce387f39f687b61f460701a50e9a3f02b10ac681a66771dac30269b1415b0",
    "free2-hnn": "41e52a6cdca076521a315a5ed7fcd56d0e06ff01f8f490f2d0558b14fe7f58a9",
    "z-star-z": "9f0b04e43940370e05350b9dfbed588590b7124048b33e9d9b104b4bb0b56ace",
    "bs12": "57245ad33d11a62ed35b224cfbf9ac919f2ec993bb2e7dd4436a2687c7b916de",
    "z2-z3": "0636e54783abaf37da943765f1e8ebb71dd9b3224d93f5cdd0ec69a8989b37c7",
    "theta": "5c5558367dafdb22b224ee7ff5ccf1e0945a881eb17aaf5fa4991e38c0dfa1ae",
    "planted-finite-vertex": "b573ae97a4b3fd4a08deb5c97ff7884e0de2923a9ccb6c3032c931004c942c74",
    "planted-finite-index-edge": "b3d82f351a321d102b6054645c0d93a9778ebd1ed551831b78699f82e33be31d",
}


# SHA-256 of every benchmark certificate, "<problem>@<budget>", at its full budget,
# under the shortlex-first witness rule
BENCHMARK_CERTIFICATES = {
    "bs12@200": "edee19b74f5d839299c6ec662ad488606ed79594ed8734d9f2e9c3204cc5774f",
    "free2-hnn@200": "110e98a893aa18bb64de585646a171d1da48baba6e3bcf3ce27cd96307762e92",
    "gaussian-hnn@200": "b65ce63e194e947ab020791ae6f90a4afc2addf4b305764a35f929a4235e2c24",
    "pi1-sigma2@300": "2809882af44c4e4546db141c6f7949fd530fe92576d6c5a377c4b30aae3fb9d4",
    "planted-finite-index-edge@200": "3564c49e84535c255159d034f95860b69db6fc1cc2cacce9ec18fa7a5099e600",
    "planted-finite-vertex@200": "2ebb793a9ba849fc20625d98e828f322d0f937403d514a7188a01591a0909c5b",
    "theta@150": "7fbf9604f14c92e00400e28c0e08b65f4232eb550b29214d35f06cb1c62f5049",
    "z-star-z@200": "96f06255ae2fa8483eaf29c976cf51981837cea94965d9b0926337bf6b6cdf1e",
    "z2-z3@200": "492b1064acb1d85a919d8f1a493b5d7f20b593dd2603753a8a3b4c748509a87d",
}


def _build_all(out):
    paths = {}
    for name in PINNED:
        path = str(out / f"{name}.json")
        rc = cli.main(["build", problem_path(f"{name}.json"),
                       "--budget", str(PINNED_BUDGET), "--out", path])
        assert rc in (cli.EXIT_PASS, cli.EXIT_UNDECIDED)
        paths[name] = path
    return paths


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """Certificate path of every bundled problem at the pinned budget, built
    under the shortlex-first witness rule."""
    with shortlex_first_rule():
        return _build_all(tmp_path_factory.mktemp("certs"))


@pytest.fixture(scope="module")
def built_cursor(tmp_path_factory):
    """The same builds under the witness rule the engine ships."""
    return _build_all(tmp_path_factory.mktemp("cursor_certs"))


@pytest.fixture(scope="module")
def long_surface():
    """pi1-sigma2 at 200 steps and a fresh group to replay it in."""
    problem = parse_problem(problem_path("pi1-sigma2.json"))
    cert = run_schedule(problem.build_group()[0], Budget(steps=200), "k")
    assert cert["deferred"] == []
    return cert, lambda: problem.build_group()[0]


def _pairs(entries):
    return [tuple(pair) for pair in entries]


def _committed_pairs(cert):
    out = []
    for step in cert["steps"]:
        out += _pairs(step.get("batch", [])) + _pairs(step["auto"])
    return out


@pytest.mark.parametrize("name", sorted(PINNED))
def test_certificate_bytes_pinned(name, built):
    text = canonical_text(load_certificate(built[name]))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED[name]
    rc = cli.main(["verify", problem_path(f"{name}.json"), built[name]])
    assert rc == cli.EXIT_PASS


@pytest.mark.parametrize("name", sorted(PINNED_CURSOR))
def test_certificate_bytes_pinned_cursor(name, built_cursor):
    text = canonical_text(load_certificate(built_cursor[name]))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_CURSOR[name]
    rc = cli.main(["verify", problem_path(f"{name}.json"), built_cursor[name]])
    assert rc == cli.EXIT_PASS


def test_benchmark_table_has_the_benchmark_keys():
    workloads = json.loads(
        (Path(__file__).resolve().parent.parent / "bench" / "workloads.json").read_text())
    assert sorted(BENCHMARK_CERTIFICATES) == sorted(workloads["seed_certificates"])


@pytest.mark.parametrize("key", sorted(BENCHMARK_CERTIFICATES))
def test_certificate_bytes_at_benchmark_budget(key, tmp_path):
    name, budget = key.split("@")
    path = str(tmp_path / f"{name}.json")
    with shortlex_first_rule():
        rc = cli.main(["build", problem_path(f"{name}.json"), "--budget", budget,
                       "--out", path])
    assert rc in (cli.EXIT_PASS, cli.EXIT_UNDECIDED)
    text = canonical_text(load_certificate(path))
    assert hashlib.sha256(text.encode()).hexdigest() == BENCHMARK_CERTIFICATES[key]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_transitivity_steps_commit_every_anchor_once(name, built):
    """Transitivity batches and the default pins of both step kinds are
    the anchors of the final state, each recorded once."""
    cert = load_certificate(built[name])
    committed = _committed_pairs(cert)
    assert sorted(committed) == sorted(_pairs(cert["final_state"]["anchors"]))


def test_long_certificate_commits_every_anchor_once(long_surface):
    cert, factory = long_surface
    committed = _committed_pairs(cert)
    assert len(committed) > 500
    assert sorted(committed) == sorted(_pairs(cert["final_state"]["anchors"]))
    ok, reason = verify_certificate_report(factory(), cert)
    assert ok, reason


def test_verify_names_early_tampered_step(long_surface):
    cert, factory = long_surface
    tampered = copy.deepcopy(cert)
    trans = [s for s in tampered["steps"] if s["kind"] == "transitivity"]
    step = trans[1]
    step["batch"][0][1] = "b2^3"
    ok, reason = verify_certificate_report(factory(), tampered)
    assert not ok
    assert reason.startswith(f"step {step['index']}: ")


# ---------------------------------------------------------------------------
# a total verifier: mutated real certificates give OK or FAIL, never raise


MUTATED_BUDGET = 30


@pytest.fixture(scope="module", params=["pi1-sigma2", "free2-hnn"])
def real_certificate(request):
    problem = parse_problem(problem_path(f"{request.param}.json"))
    gamma = problem.build_group()[0]
    return gamma, run_schedule(gamma, Budget(steps=MUTATED_BUDGET), "k")


def _paths(obj, path=()):
    """Paths of every node under obj, parents first."""
    if path:
        yield path
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _values(obj, keep):
    return [v for p in _paths(obj) if keep(v := _get(obj, p))]


def _get(obj, path):
    for key in path:
        obj = obj[key]
    return obj


ODD_VALUES = [None, True, 1.5, -1, "", "1", "x^y", [], {}, [["1"]], ["1"], ["1", "0"]]

mutations = st.lists(st.tuples(st.sampled_from(["drop", "duplicate", "swap", "word",
                                                "integer", "odd", "transplant"]),
                               st.integers(0, 10**6), st.integers(0, 10**6)),
                     min_size=1, max_size=3)

tampers = st.tuples(st.sampled_from(["witness", "image", "auto", "format"]),
                    st.integers(0, 10**6), st.integers(0, 10**6))


def _mutate(cert, ops):
    """Drop, duplicate or permute steps; put a recorded word, a recorded
    integer, a value of the wrong type or another recorded node anywhere."""
    cert = copy.deepcopy(cert)
    words = _values(cert["steps"], lambda v: isinstance(v, str))
    integers = _values(cert["steps"], lambda v: type(v) is int)
    nodes = _values(cert["steps"], lambda v: True)
    for op, a, b in ops:
        steps = cert["steps"]
        if op in ("drop", "duplicate", "swap"):
            if not steps:
                continue
            i, j = a % len(steps), b % len(steps)
            if op == "drop":
                del steps[i]
            elif op == "duplicate":
                steps.insert(i, copy.deepcopy(steps[i]))
            else:
                steps[i], steps[j] = steps[j], steps[i]
            continue
        paths = list(_paths(steps))
        if not paths:
            continue
        *parent, key = paths[a % len(paths)]
        pool = {"word": words, "integer": integers, "odd": ODD_VALUES, "transplant": nodes}[op]
        _get(steps, parent)[key] = copy.deepcopy(pool[b % len(pool)])
    return cert


def _tamper(cert, tamper):
    """Give one faithfulness step another recorded witness, image or auto
    list, or the certificate another format; the value always changes."""
    field, a, b = tamper
    cert = copy.deepcopy(cert)
    if field == "format":
        cert["format"] = [1, 3, 0, None, "2", [2]][b % 6]
        return cert
    faith = [s for s in cert["steps"] if s["kind"] == "faithfulness"]
    step = faith[a % len(faith)]
    # canonical words of Gamma, so another word is another point (a factor
    # witness may spell a point of Gamma differently)
    words = _values([{k: v for k, v in s.items() if k != "witnesses"} for s in cert["steps"]],
                    lambda v: isinstance(v, str))
    if field == "auto":
        pool = [s["auto"] for s in cert["steps"]] + [[pair] for pair in step["auto"]]
        pool += [[[w, w]] for w in words]
    else:
        pool = words
    pool = [v for v in pool if v != step[field]]
    step[field] = copy.deepcopy(pool[b % len(pool)])
    return cert


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(ops=mutations, tamper=tampers)
def test_verify_of_mutated_certificate_never_raises(real_certificate, ops, tamper):
    """Any mutation gives OK or FAIL; a changed faithfulness witness, image
    or auto list, or another certificate format, gives FAIL."""
    gamma, cert = real_certificate
    ok, reason = verify_certificate_report(gamma, _mutate(cert, ops))
    assert isinstance(ok, bool) and isinstance(reason, str)
    ok, reason = verify_certificate_report(gamma, _tamper(cert, tamper))
    assert ok is False, (tamper, reason)
    if tamper[0] == "format":
        assert reason.startswith("unsupported certificate format")


def test_verify_parses_each_word_once(real_certificate, monkeypatch):
    gamma, cert = real_certificate
    parsed = []
    parse = engine.parse_word

    def counting(handle, text):
        parsed.append(text)
        return parse(handle, text)

    monkeypatch.setattr(engine, "parse_word", counting)
    assert verify_certificate_report(gamma, cert) == (True, "ok")
    words = [v for step in cert["steps"] for v in _values(step, lambda v: isinstance(v, str))
             if v not in ("transitivity", "faithfulness")]
    assert sorted(parsed) == sorted(words)


def test_verify_rechecks_every_postcondition_at_the_end(real_certificate, monkeypatch):
    """The persistence pass re-evaluates each recorded postcondition, in
    step order, in the final state: a wrong value at its first evaluation
    fails the first step."""
    gamma, cert = real_certificate
    calls = []
    evaluate = engine.evaluate_pi
    monkeypatch.setattr(engine, "evaluate_pi",
                        lambda *args, **kw: calls.append(1) or evaluate(*args, **kw))
    assert verify_certificate_report(gamma, cert) == (True, "ok")
    rechecks = sum(len(s["xs"]) if s["kind"] == "transitivity" else 1 for s in cert["steps"])
    first_recheck = len(calls) - rechecks
    calls.clear()

    def broken_after_replay(state, g, x, **kw):
        calls.append(1)
        point = evaluate(state, g, x, **kw)
        return g * point if len(calls) > first_recheck else point

    monkeypatch.setattr(engine, "evaluate_pi", broken_after_replay)
    ok, reason = verify_certificate_report(gamma, cert)
    assert not ok
    assert reason == f"persistence of step {cert['steps'][0]['index']}: mover postcondition lost"


# ---------------------------------------------------------------------------
# one set: every postcondition and every faithfulness witness lie in X = Gamma


def _keys(obj):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield key
            yield from _keys(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _keys(value)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_one_set_carries_transitivity_and_faithfulness(name):
    """At 200 steps, the replayed final state moves every transitivity
    tuple to its target and every faithfulness witness to its recorded
    image, which differs from it; all of these points are elements of the
    acting group, and no certificate node carries a level."""
    problem_file = parse_problem(problem_path(f"{name}.json"))
    cert = run_schedule(problem_file.build_group()[0], Budget(steps=200), name)
    assert not {"level", "frozen", "ceiling"} & set(_keys(cert))
    gamma = problem_file.build_group()[0]
    problem = EngineProblem(gamma)
    state = problem.new_state()
    for step in cert["steps"]:
        verify_step = (_verify_transitivity_step if step["kind"] == "transitivity"
                       else _verify_faithfulness_step)
        assert verify_step(problem, state, step) == (True, "ok")
    faithful = transitive = 0
    for step in cert["steps"]:
        if step["kind"] == "transitivity":
            mover = parse_word(gamma, step["mover"])
            for xw, yw in zip(step["xs"], step["ys"]):
                x, y = parse_word(gamma, xw), parse_word(gamma, yw)
                assert x.owner is y.owner is gamma
                assert evaluate_pi(state, mover, x) == y
            transitive += 1
        else:
            g = parse_word(gamma, step["element"])
            witness, image = parse_word(gamma, step["witness"]), parse_word(gamma, step["image"])
            assert witness.owner is image.owner is gamma
            assert evaluate_pi(state, g, witness) == image != witness
            faithful += 1
    assert faithful == 100 and transitive + len(cert["deferred"]) == 100
