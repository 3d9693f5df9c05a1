"""Certificate bytes as the behaviour contract, and the replay invariants
that let the verifier check each anchor only when it is committed."""

import copy
import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hightrans import cli, engine
from hightrans.engine import Budget, run_schedule, verify_certificate_report
from hightrans.problem import canonical_text, load_certificate, parse_problem

from conftest import problem_path
from oracles import shortlex_first_rule


PINNED_BUDGET = 40

# SHA-256 of canonical_text of `hightrans build problems/<name>.json --budget 40`
# under the shortlex-first witness rule (oracles.shortlex_first_rule)
PINNED = {
    "pi1-sigma2": "4e5740add9963ccef76e1db5e3a2bee85f0a634caa406465f59412955f05155a",
    "gaussian-hnn": "8383b17280fb0759ee2e6bbdb21a7821c266ccf673c1b5ec261b0eefa4bf7fc1",
    "free2-hnn": "d1d08f35a6ab25888238f69f47961aca2b64fa4958aa67fd7fb7e961c8bce246",
    "z-star-z": "ed17f7318ea8a69860f799248fd98ed29c99854128843274280cc7e24f716330",
    "bs12": "46eea18d9941458a4cfd1b826c5b61a5ace20c050ec4cf18f8805e1567548e84",
    "z2-z3": "46d99695a390a012c8638cecc06b73736e9b3ed6ae6145a5633cd2fb488fbd39",
    "theta": "64a27410e0dcca6ac1e178a709eade408a98595bc30fc8ed58a881701bc66758",
    "planted-finite-vertex": "8877d972ea616c390e70e245edf7a5a1c9a6228005ef41ba7c18a9321dede05c",
    "planted-finite-index-edge": "5654a00e1620959e4951ea2da2fe52832c1058905b5c6147aacbe05cf682d75e",
}

# the same builds under the wrap-around witness rule the engine ships
PINNED_CURSOR = {
    "pi1-sigma2": "498cd50ca769fe6c5be4ebaa0a41a638c0250e964cf8d6209774c648ee7eb939",
    "gaussian-hnn": "511a3956089e2503dd60a3bd030e1b32fa613188c4bb81c10395323c798911a7",
    "free2-hnn": "2f334645758e5d20f9866d8a9ad875665e6bb3776739488b309a167c7b8334ad",
    "z-star-z": "faa1e6d6e4891e0d19f7a670422f1d357a7c836472d118b1c6e32f8e13e83f0a",
    "bs12": "46eea18d9941458a4cfd1b826c5b61a5ace20c050ec4cf18f8805e1567548e84",
    "z2-z3": "46d99695a390a012c8638cecc06b73736e9b3ed6ae6145a5633cd2fb488fbd39",
    "theta": "d8e4c6a0211abb9776b4539ff7195b3e5d3d3eebad1717e87f3012f572818993",
    "planted-finite-vertex": "8877d972ea616c390e70e245edf7a5a1c9a6228005ef41ba7c18a9321dede05c",
    "planted-finite-index-edge": "5654a00e1620959e4951ea2da2fe52832c1058905b5c6147aacbe05cf682d75e",
}


# SHA-256 of every benchmark certificate, "<problem>@<budget>", at its full budget,
# under the shortlex-first witness rule
SEED_CERTIFICATES = json.loads(
    (Path(__file__).resolve().parent.parent / "bench" / "workloads.json").read_text()
)["seed_certificates"]


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
    return [tuple(map(tuple, pair)) for pair in entries]


def _committed_pairs(cert):
    out = []
    for step in cert["steps"]:
        if step["kind"] == "transitivity":
            out += _pairs(step["batch"]) + _pairs(step["auto"])
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


@pytest.mark.parametrize("key", sorted(SEED_CERTIFICATES))
def test_certificate_bytes_at_benchmark_budget(key, tmp_path):
    name, budget = key.split("@")
    path = str(tmp_path / f"{name}.json")
    with shortlex_first_rule():
        rc = cli.main(["build", problem_path(f"{name}.json"), "--budget", budget,
                       "--out", path])
    assert rc in (cli.EXIT_PASS, cli.EXIT_UNDECIDED)
    text = canonical_text(load_certificate(path))
    assert hashlib.sha256(text.encode()).hexdigest() == SEED_CERTIFICATES[key]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_transitivity_steps_commit_every_anchor_once(name, built):
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
    step["batch"][0][1][0] = "b2^3"
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
                                                "level", "odd", "transplant"]),
                               st.integers(0, 10**6), st.integers(0, 10**6)),
                     min_size=1, max_size=3)


def _mutate(cert, ops):
    """Drop, duplicate or permute steps; put a recorded word, a recorded
    level, a value of the wrong type or another recorded node anywhere."""
    cert = copy.deepcopy(cert)
    words = _values(cert["steps"], lambda v: isinstance(v, str))
    levels = _values(cert["steps"], lambda v: type(v) is int)
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
        pool = {"word": words, "level": levels, "odd": ODD_VALUES, "transplant": nodes}[op]
        _get(steps, parent)[key] = copy.deepcopy(pool[b % len(pool)])
    return cert


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(ops=mutations)
def test_verify_of_mutated_certificate_never_raises(real_certificate, ops):
    gamma, cert = real_certificate
    ok, reason = verify_certificate_report(gamma, _mutate(cert, ops))
    assert isinstance(ok, bool) and isinstance(reason, str)


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
        return point.translate(g) if len(calls) > first_recheck else point

    monkeypatch.setattr(engine, "evaluate_pi", broken_after_replay)
    ok, reason = verify_certificate_report(gamma, cert)
    assert not ok
    assert reason == f"persistence of step {cert['steps'][0]['index']}: mover postcondition lost"
