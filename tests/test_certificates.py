"""Certificate bytes as the behaviour contract, the replay invariants that
let the verifier check each anchor only when it is committed, and the one
set X = Gamma that carries both transitivity and faithfulness."""

import copy
import hashlib
import json
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hightrans import cli, engine
from hightrans.action import evaluate_pi
from hightrans.engine import Budget, EngineProblem, run_schedule, verify_certificate_report
from hightrans.normal_forms import parse_word
from hightrans.problem import canonical_text, load_certificate, parse_problem

from conftest import problem_path
from oracles import replay_steps, shortlex_first_rule


PINNED_BUDGET = 40

# SHA-256 of canonical_text of `hightrans build problems/<name>.json --budget 40`
# under the shortlex-first witness rule (oracles.shortlex_first_rule)
PINNED = {
    "pi1-sigma2": "5ff3a282f3b8b3872332d432aca9bcee0012791c8e188af787815d8780777a65",
    "gaussian-hnn": "f28d7d6cecc7469f4ea16d62d2eb0b5b6b39e62b7446ba9d7c55fddf1a13cbf1",
    "free2-hnn": "410ace69c794813c34e8dd0846fc02c143889cc048952b909c382c6207c3679c",
    "z-star-z": "b0af3915f46ccf63908a7fdb32f967230b48f16853fba726319f67e00c32147c",
    "bs12": "93d7430115417e06e51c58ce52ccaa0de807258d7817d3f73566d10593c0a6b2",
    "z2-z3": "93756231885c63795b2b9925919f6f35d319d143108314012779dc8edbb7292b",
    "theta": "2e8783a354fbe375f8581ec2141bd4907e16ac494808393f757bff04e4acb438",
    "planted-finite-vertex": "e8060798c0abdf9703e0204355a73f78e424c55e1decb835725bec2bf5d975e4",
    "planted-finite-index-edge": "7206b32f19013c532893b0e69cb496bc1cc24bc29ed0de43b661f49c3a024751",
}

# the same builds under the wrap-around witness rule the engine ships
PINNED_CURSOR = {
    "pi1-sigma2": "04868d2e164bb43cf2cce5972e49e397b3c666f99507e6eb82124ff02e670512",
    "gaussian-hnn": "21af8a60628b1b34b15bef021934ee0898e1c2d232bb1154fd301f6b1c75dd0c",
    "free2-hnn": "3a47cfbd25ed71dc43338c63b27354ae939dfee3dd060effbf7ddb4960c4bfd1",
    "z-star-z": "dd1569bdf404821c4e1cbd1ae87fae77aafeb1a747853d2f5e1164c687301094",
    "bs12": "93d7430115417e06e51c58ce52ccaa0de807258d7817d3f73566d10593c0a6b2",
    "z2-z3": "93756231885c63795b2b9925919f6f35d319d143108314012779dc8edbb7292b",
    "theta": "4a17f1386a6699d8e578761e9de3ad54b238ff3d18592d890cf906d965c44bf4",
    "planted-finite-vertex": "dcfd4a5e69a75c90bcfd4d3c581ae51ddfa934dc8ae56a284e9ddba911ff3fe6",
    "planted-finite-index-edge": "7206b32f19013c532893b0e69cb496bc1cc24bc29ed0de43b661f49c3a024751",
}


# SHA-256 of every benchmark certificate, "<problem>@<budget>", at its full budget,
# under the shortlex-first witness rule
BENCHMARK_CERTIFICATES = {
    "bs12@200": "0002a2f30036c431a5976d9e96e0bf043bdb4908025da99839891b2fb0acf8ef",
    "free2-hnn@200": "6f43c18a2a54d6d6450dac45ff768319780631a57149b0edf1dc4194637da65b",
    "gaussian-hnn@200": "c4eb56dae4fc3d8f28ba021473b33cbc9ed2e5670c682260d431e5ad37e50561",
    "pi1-sigma2@300": "648ba73434596029a16833c5a45ff9000b7ae0add19b97c6a56c953c6011fc4f",
    "planted-finite-index-edge@200": "a7a146b78764db75462bd802030ce757ee96fd29c149782794d1057eab631d52",
    "planted-finite-vertex@200": "fa820c7be0baf223179e4df91ca24c86971a6762789972476e08b1d89330525d",
    "theta@150": "65c45f666dd167382707a4790e169de34f14235bace61932a4f408c92c0b8b63",
    "z-star-z@200": "daaf550044b7050be3ac3d5d48da589d710bbd8053383cca895baaa9999384f2",
    "z2-z3@200": "455b26e1822b48c10e881944f4cc8be8dc7f1a7c65150f7e561cd9da786181fe",
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
    cert = run_schedule(EngineProblem(problem.build_group()[0]), Budget(steps=200), "k")
    assert cert["deferred"] == []
    return cert, lambda: problem.build_group()[0]


def _replay(gamma, cert):
    """Replay every step on a fresh state; returns the final state and
    every anchor pair committed, batches and pins alike, in order."""
    problem = EngineProblem(gamma)
    state = problem.new_state()
    committed = []
    commit = state.commit_batch

    def recording_commit(pairs):
        commit(pairs)
        committed.extend(pairs)

    state.commit_batch = recording_commit
    for _, result in replay_steps(problem, state, cert):
        assert result == (True, "ok")
    return state, committed


def _committed_once(state, committed):
    """Every anchor of the state was committed, and committed once."""
    return (len(committed) == len(state.anchors)
            and set(committed) == set(state.anchors.values()))


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
    """Transitivity batches and the default pins of both step kinds, as the
    replay commits them, are the anchors of the final state, each
    committed once."""
    gamma = parse_problem(problem_path(f"{name}.json")).build_group()[0]
    state, committed = _replay(gamma, load_certificate(built[name]))
    assert _committed_once(state, committed)


def test_long_certificate_commits_every_anchor_once(long_surface):
    cert, factory = long_surface
    state, committed = _replay(factory(), cert)
    assert len(committed) > 500
    assert _committed_once(state, committed)
    ok, reason = verify_certificate_report(factory(), cert)
    assert ok, reason


def test_verify_names_early_tampered_step(long_surface):
    cert, factory = long_surface
    tampered = copy.deepcopy(cert)
    trans = [s for s in tampered["steps"] if s["kind"] == "transitivity"]
    step = trans[1]
    # a fresh class that the step before committed
    step["zs"] = trans[0]["zs"]
    ok, reason = verify_certificate_report(factory(), tampered)
    assert not ok
    assert reason.startswith(f"step {step['index']}: ")


def _reordered(cert):
    """Every single-step drop, duplicate and adjacent swap of the steps."""
    steps = cert["steps"]
    for i in range(len(steps)):
        yield dict(cert, steps=steps[:i] + steps[i + 1:])
        yield dict(cert, steps=steps[:i + 1] + steps[i:])
        if i + 1 < len(steps):
            yield dict(cert, steps=steps[:i] + [steps[i + 1], steps[i]] + steps[i + 2:])


@pytest.mark.parametrize("name", ["pi1-sigma2", "free2-hnn", "theta", "z-star-z"])
def test_verify_rejects_every_reordered_step(name, built_cursor):
    """The steps and deferrals must be the schedule's requirements, each
    once and in order: every single-step drop, duplicate and adjacent swap
    of a 40-step certificate fails that check."""
    cert = load_certificate(built_cursor[name])
    gamma = parse_problem(problem_path(f"{name}.json")).build_group()[0]
    tampered = list(_reordered(cert))
    assert len(tampered) == 3 * len(cert["steps"]) - 1
    for i, other in enumerate(tampered):
        ok, reason = verify_certificate_report(gamma, other)
        assert not ok and reason.startswith("schedule: "), (i, reason)


def test_verify_rejects_an_entry_off_the_schedule(built_cursor):
    """A transitivity step whose xs is another valid tuple, a faithfulness
    step recorded as a deferral, or a deferral moved to another index,
    fails."""
    cert = load_certificate(built_cursor["pi1-sigma2"])
    gamma = parse_problem(problem_path("pi1-sigma2.json")).build_group()[0]
    trans = [s for s in cert["steps"] if s["kind"] == "transitivity"]
    moved = 0
    for step in trans:
        for other in trans:
            if len(other["ys"]) == len(step["xs"]) and other["ys"] != step["xs"]:
                tampered = copy.deepcopy(cert)
                tampered["steps"][cert["steps"].index(step)]["xs"] = other["ys"]
                ok, reason = verify_certificate_report(gamma, tampered)
                assert not ok and reason.startswith(f"step {step['index']}: "), reason
                moved += 1
                break
    assert moved == len(trans)
    for step in cert["steps"]:
        if step["kind"] == "faithfulness":
            tampered = copy.deepcopy(cert)
            tampered["steps"].remove(step)
            tampered["deferred"] = [{"index": step["index"], "kind": "faithfulness",
                                     "element": step["element"], "diagnostic": "none"}]
            ok, reason = verify_certificate_report(gamma, tampered)
            assert (ok, reason) == (False, f"schedule: faithfulness step {step['index']} "
                                           "is deferred")
    cert = load_certificate(built_cursor["bs12"])
    gamma = parse_problem(problem_path("bs12.json")).build_group()[0]
    assert len(cert["deferred"]) == 20
    for k, entry in enumerate(cert["deferred"]):
        for index in (entry["index"] - 1, entry["index"] + 1, cert["deferred"][-1 - k]["index"]):
            if index == entry["index"]:
                continue
            tampered = copy.deepcopy(cert)
            tampered["deferred"][k]["index"] = index
            ok, reason = verify_certificate_report(gamma, tampered)
            assert not ok and reason.startswith("schedule: "), (k, index, reason)


@pytest.mark.parametrize("path, value, reason", [
    (("steps", 1, "index"), True, "schedule: no step or deferral has index 1"),
    (("steps", 2, "index"), 2.0, "schedule: no step or deferral has index 2"),
    (("steps", 0, "n"), 1.0, "step 0: n does not match the rebuilt value 1"),
    (("format",), 3.0, "unsupported certificate format 3.0"),
], ids=["index-true", "index-float", "n-float", "format-float"])
def test_verify_compares_the_head_by_type(built_cursor, path, value, reason):
    """JSON ``true`` and ``1.0`` equal ``1`` under ``==``; in a recorded
    index, tuple length or format they are not the scheduled value."""
    cert = load_certificate(built_cursor["z-star-z"])
    gamma = parse_problem(problem_path("z-star-z.json")).build_group()[0]
    *parent, key = path
    assert _get(cert, path) == value
    _get(cert, parent)[key] = value
    assert verify_certificate_report(gamma, cert) == (False, reason)


@pytest.mark.parametrize("name, path, key, value, reason", [
    ("theta", (), "note", "anything", "unknown key 'note'"),
    ("theta", ("budget",), "junk", 1, "budget: unknown key 'junk'"),
    ("theta", ("steps", 2), "junk", [1, 2], "step 2: unknown key 'junk'"),
    ("theta", ("steps", 3), "junk", [1, 2], "step 3: unknown key 'junk'"),
    ("theta", ("steps", 2, "witnesses"), "g1", "1", "step 2: witnesses: unknown key 'g1'"),
    ("bs12", ("deferred", 0), "junk", None, "step 0: unknown key 'junk'"),
    ("theta", ("steps", 4), "", 0, "step 4: unknown key ''"),
    ("theta", (), "group", "G", "group does not match the rebuilt value 'hnn[theta:e1]'"),
    ("theta", (), "mode", "amalgam", "mode does not match the rebuilt value 'hnn'"),
], ids=["top-level", "budget", "transitivity", "faithfulness", "witnesses", "deferral",
        "empty-key", "group", "mode"])
def test_verify_rejects_a_key_it_does_not_read(built_cursor, tmp_path, capsys,
                                               name, path, key, value, reason):
    """Two files that differ in a key the verifier ignores would verify
    as one certificate; so every key is one it reads, and group and mode
    must be the problem's."""
    cert = load_certificate(built_cursor[name])
    _get(cert, path)[key] = value
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(cert))
    capsys.readouterr()
    assert cli.main(["verify", problem_path(f"{name}.json"), str(tampered)]) == cli.EXIT_FAIL
    assert capsys.readouterr().out == f"verify: FAIL ({reason})\n"


MISSING = object()


@pytest.mark.parametrize("name, path, key, value, reason", [
    ("theta", ("budget",), "witness_radius", -3,
     "budget.witness_radius must be a positive integer, got -3"),
    ("theta", ("budget",), "witness_radius", "x",
     "budget.witness_radius must be a positive integer, got 'x'"),
    ("theta", ("budget",), "witness_radius", MISSING,
     "budget.witness_radius must be a positive integer, got None"),
    ("bs12", ("deferred", 0), "diagnostic", MISSING, "step 0: missing key 'diagnostic'"),
    ("bs12", ("deferred", 0), "diagnostic", [1],
     "step 0: diagnostic does not match the rebuilt value '[1]'"),
], ids=["radius-negative", "radius-string", "radius-missing", "diagnostic-missing",
        "diagnostic-list"])
def test_verify_rejects_a_value_the_builder_does_not_write(built_cursor, tmp_path, capsys,
                                                           name, path, key, value, reason):
    """The replay reads neither the budget's witness_radius nor a
    deferral's diagnostic, but the rebuilt certificate holds both: the
    radius of a valid ``Budget`` and a diagnostic string."""
    cert = load_certificate(built_cursor[name])
    if value is MISSING:
        del _get(cert, path)[key]
    else:
        _get(cert, path)[key] = value
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(cert))
    capsys.readouterr()
    assert cli.main(["verify", problem_path(f"{name}.json"), str(tampered)]) == cli.EXIT_FAIL
    assert capsys.readouterr().out == f"verify: FAIL ({reason})\n"


# ---------------------------------------------------------------------------
# a total verifier: mutated real certificates give OK or FAIL, never raise


MUTATED_BUDGET = 30


@pytest.fixture(scope="module", params=["pi1-sigma2", "free2-hnn"])
def real_certificate(request):
    problem = parse_problem(problem_path(f"{request.param}.json"))
    gamma = problem.build_group()[0]
    return gamma, run_schedule(EngineProblem(gamma), Budget(steps=MUTATED_BUDGET), "k")


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

tampers = st.tuples(st.sampled_from(["witness", "image", "zs", "format"]),
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
    """Give one faithfulness step another recorded witness or image, one
    transitivity step fresh classes that an earlier step committed or a
    list of the wrong length, or the certificate another format; the value
    always changes.  (Other fresh classes may be another valid choice.)"""
    field, a, b = tamper
    cert = copy.deepcopy(cert)
    if field == "format":
        cert["format"] = [1, 2, 0, None, "3", [3]][b % 6]
        return cert
    # canonical words of Gamma, so another word is another point (a factor
    # witness may spell a point of Gamma differently)
    words = _values([{k: v for k, v in s.items() if k != "witnesses"} for s in cert["steps"]],
                    lambda v: isinstance(v, str))
    if field == "zs":
        trans = [s for s in cert["steps"] if s["kind"] == "transitivity"]
        k = a % len(trans)
        step = trans[k]
        pool = [s["zs"] for s in trans[:k]] + [step["zs"][:-1]]
        pool += [step["zs"] + [w] for w in words]
    else:
        faith = [s for s in cert["steps"] if s["kind"] == "faithfulness"]
        step = faith[a % len(faith)]
        pool = words
    pool = [v for v in pool if v != step[field]]
    step[field] = copy.deepcopy(pool[b % len(pool)])
    return cert


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(ops=mutations, tamper=tampers)
def test_verify_of_mutated_certificate_never_raises(real_certificate, ops, tamper):
    """Any mutation gives OK or FAIL; a changed faithfulness witness or
    image, a committed or miscounted list of fresh classes, or another
    certificate format, gives FAIL."""
    gamma, cert = real_certificate
    ok, reason = verify_certificate_report(gamma, _mutate(cert, ops))
    assert isinstance(ok, bool) and isinstance(reason, str)
    ok, reason = verify_certificate_report(gamma, _tamper(cert, tamper))
    assert ok is False, (tamper, reason)
    if tamper[0] == "format":
        assert reason.startswith("unsupported certificate format")


SWEEP_BUDGET = 20


@pytest.fixture(scope="module", params=["pi1-sigma2", "theta", "bs12"])
def sweep_certificate(request):
    """An amalgam, an HNN and a deferring certificate of 20 steps."""
    gamma = parse_problem(problem_path(f"{request.param}.json")).build_group()[0]
    return gamma, run_schedule(EngineProblem(gamma), Budget(steps=SWEEP_BUDGET), "k")


def _single_mutations(cert):
    """(path, certificate) for each single mutation at each JSON path: an
    unknown key added to an object, a key or list entry deleted, an
    integer turned into a float or a bool.  The path is the changed one."""
    for path in [(), *_paths(cert)]:
        node = _get(cert, path)
        if isinstance(node, dict):
            mutated = copy.deepcopy(cert)
            _get(mutated, path)["unknown"] = 0
            yield path + ("unknown",), mutated
        if path:
            mutated = copy.deepcopy(cert)
            del _get(mutated, path[:-1])[path[-1]]
            yield path, mutated
        if type(node) is int:
            for value in (float(node), bool(node)):
                mutated = copy.deepcopy(cert)
                _get(mutated, path[:-1])[path[-1]] = value
                yield path, mutated


def test_verify_rejects_every_single_mutation(sweep_certificate):
    """Every single mutation FAILs without raising; one inside a step or
    deferral names its index."""
    gamma, cert = sweep_certificate
    assert verify_certificate_report(gamma, cert) == (True, "ok")
    kinds = {s["kind"] for s in cert["steps"]} | {d["kind"] for d in cert["deferred"]}
    assert kinds == {"transitivity", "faithfulness"}
    swept = 0
    for path, mutated in _single_mutations(cert):
        ok, reason = verify_certificate_report(gamma, mutated)
        assert ok is False and isinstance(reason, str), (path, reason)
        if path[0] in ("steps", "deferred") and len(path) > 2:
            index = _get(cert, path[:2])["index"]
            assert re.search(rf"\b(step|index) {index}\b", reason), (path, reason)
        swept += 1
    assert swept > 10 * SWEEP_BUDGET


def _choices(step):
    """The words a step records as choices: the witnesses and fresh classes
    of a transitivity step, the witness point of a faithfulness step."""
    if step["kind"] == "transitivity":
        return [*step["witnesses"].values(), *step["zs"]]
    return [step["witness"]]


def _counting(monkeypatch, name):
    """Record the calls of ``engine.<name>`` in a list."""
    calls = []
    original = getattr(engine, name)

    def counting(*args, **kw):
        calls.append(args)
        return original(*args, **kw)

    monkeypatch.setattr(engine, name, counting)
    return calls


def test_verify_parses_each_word_once(real_certificate, monkeypatch):
    """Verify parses exactly the recorded choices, each once: the schedule
    gives every xs, ys and element, and the claimed mover or image is
    compared as text."""
    gamma, cert = real_certificate
    parsed = _counting(monkeypatch, "parse_word")
    assert verify_certificate_report(gamma, cert) == (True, "ok")
    assert sorted(text for _, text in parsed) == sorted(
        word for step in cert["steps"] for word in _choices(step))


def _words(gamma, step, field):
    """(node, key, group) of each word a step records at ``field``, with
    the group the verifier parses it in."""
    value = step.get(field)
    if isinstance(value, dict):
        factors = dict(engine._WITNESS_FACTORS[gamma.kind])
        return [(value, key, getattr(gamma, factors[key])) for key in value]
    if isinstance(value, list):
        return [(value, k, gamma) for k in range(len(value))]
    return [] if value is None else [(step, field, gamma)]


# an HNN step records no fresh classes
@pytest.mark.parametrize("real_certificate, field", [
    *(("pi1-sigma2", field) for field in ("mover", "image", "witnesses", "zs", "witness")),
    *(("free2-hnn", field) for field in ("mover", "image", "witnesses", "witness")),
], indirect=["real_certificate"])
def test_verify_rejects_a_non_canonical_spelling_of_the_claim(real_certificate, field):
    """A claimed mover or image, and every recorded choice (a witness, a
    fresh class, a faithfulness witness point), must be its own canonical
    text: the right element spelled with a cancelling pair in front (the
    pair alone for the identity) fails, naming the step and the field."""
    gamma, cert = real_certificate
    tampered = copy.deepcopy(cert)
    step, node, key, group = next((s, *word) for s in tampered["steps"]
                                  for word in _words(gamma, s, field))
    lab = group.labels[0]
    spelled = f"{lab} {lab}^-1" + ("" if node[key] == "1" else f" {node[key]}")
    assert parse_word(group, spelled) == parse_word(group, node[key])
    node[key] = spelled
    ok, reason = verify_certificate_report(gamma, tampered)
    assert not ok and reason.startswith(f"step {step['index']}: {field}"), reason


@pytest.mark.parametrize("field, value", [("xs", None), ("element", None), ("element", "1")],
                         ids=["xs", "element", "identity"])
def test_verify_checks_the_head_before_any_replay(real_certificate, monkeypatch, field, value):
    """An entry whose xs or element is not the scheduled one, another
    step's or the identity (which the schedule never has), fails at the
    head check, before any batch or parse is made for it."""
    gamma, cert = real_certificate
    tampered = copy.deepcopy(cert)
    kind = "transitivity" if field == "xs" else "faithfulness"
    k = next(k for k, s in enumerate(cert["steps"]) if s["kind"] == kind and s["index"] >= 10)
    step = tampered["steps"][k]
    if value is None:
        value = next(s[field] for s in cert["steps"]
                     if s["kind"] == kind and s[field] != step[field])
    step[field] = value
    parsed = _counting(monkeypatch, "parse_word")
    batches = _counting(monkeypatch, "transitivity_batch")
    ok, reason = verify_certificate_report(gamma, tampered)
    assert (ok, reason) == (False, f"step {step['index']}: "
                                   "not the requirement scheduled at this index")
    before = cert["steps"][:k]
    assert len(batches) == sum(s["kind"] == "transitivity" for s in before)
    assert sorted(text for _, text in parsed) == sorted(
        word for s in before for word in _choices(s))


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
    cert = run_schedule(EngineProblem(problem_file.build_group()[0]), Budget(steps=200), name)
    assert not {"level", "frozen", "ceiling"} & set(_keys(cert))
    gamma = problem_file.build_group()[0]
    problem = EngineProblem(gamma)
    state = problem.new_state()
    for _, result in replay_steps(problem, state, cert):
        assert result == (True, "ok")
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
