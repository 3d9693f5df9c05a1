import copy
import json
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hightrans import cli, engine, hcf
from hightrans.groups import MAX_FINITE_ORDER
from hightrans.problem import (
    ProblemError,
    build_problem,
    canonical_text,
    emit_certificate,
    load_certificate,
    parse_problem,
    problem_hash,
)

from conftest import problem_path, run_cli, zoo


ALL_PROBLEMS = ["pi1-sigma2.json", "gaussian-hnn.json", "free2-hnn.json",
                "z-star-z.json", "bs12.json", "z2-z3.json", "theta.json",
                "planted-finite-vertex.json", "planted-finite-index-edge.json"]


def test_empty_document_rejected(tmp_path):
    p = tmp_path / "empty.json"
    p.write_text("{}")
    with pytest.raises(ProblemError, match="missing groups"):
        parse_problem(str(p))


def test_syntax_error_reports_position(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"groups": }')
    with pytest.raises(ProblemError, match="line 1"):
        parse_problem(str(p))


def test_unresolved_reference():
    with pytest.raises(ProblemError, match="unresolved"):
        build_problem({
            "groups": {"G": {"kind": "amalgam", "left": "A", "right": "B",
                             "edge": ["x", "y"]}},
        })


def test_bad_embedding_image():
    with pytest.raises(ProblemError, match="embeddings.e"):
        build_problem({
            "groups": {"F": {"kind": "free", "generators": ["a"]},
                       "C": {"kind": "free_abelian", "generators": ["c"]}},
            "embeddings": {"e": {"source": "C", "target": "F", "images": ["zz"]}},
        })


def test_loader_reports_errors_by_pass_then_unresolved_by_section():
    """Each pass resolves the groups, then the embeddings, in sorted order,
    and reports a bad spec as it meets it; G waits one pass for its edge
    maps.  What is still pending at the end is unresolved, groups first."""
    doc = {
        "groups": {
            "A": {"kind": "free", "generators": ["a"]},
            "B": {"kind": "free", "generators": ["b"]},
            "Bad": {"kind": "nope"},
            "C": {"kind": "trivial"},
            "G": {"kind": "amalgam", "left": "A", "right": "B", "edge": ["eA", "eB"]},
            "U": {"kind": "amalgam", "left": "A", "right": "Nowhere", "edge": ["eA", "eB"]},
        },
        "embeddings": {
            "bad": {"source": "A", "target": "B", "images": ["zz"]},
            "dangling": {"source": "C", "target": "Nowhere", "images": []},
            "eA": {"source": "C", "target": "A", "images": []},
            "eB": {"source": "C", "target": "B", "images": []},
        },
    }
    with pytest.raises(ProblemError) as info:
        build_problem(doc)
    assert info.value.errors == [
        "groups.Bad: unknown group kind 'nope'",
        "embeddings.bad: unknown generator 'zz' in group 'B'",
        "groups.U: unresolved references",
        "embeddings.dangling: unresolved references",
    ]


@pytest.mark.parametrize("name", ALL_PROBLEMS)
def test_bundled_problems_parse(name):
    parse_problem(problem_path(name))


# ---------------------------------------------------------------------------
# hostile problem files: a ProblemError with a reason, never a traceback


def _document(name):
    return json.loads(Path(problem_path(name)).read_text())


def _nodes(obj, path=()):
    """Paths of every node under obj, parents first."""
    yield path
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _node(obj, path):
    for key in path:
        obj = obj[key]
    return obj


@pytest.mark.parametrize("name, path, value, reason", [
    ("z2-z3.json", ("groups", "Z2", "order"), 0, "order 0 is not between 1 and 120"),
    ("z2-z3.json", ("groups", "Z2", "order"), 10**9, "order 1000000000 is not between"),
    ("z2-z3.json", ("groups", "Z2", "order"), "2", "order must be an integer"),
    ("z2-z3.json", ("groups", "Z2"), {"kind": "symmetric", "degree": 10**9},
     "S_1000000000 is not a group of at most 120 elements"),
    ("pi1-sigma2.json", ("graph", "vertices"), ["p", "q"], "a vertices object"),
    ("bs12.json", ("target",), {"BS12": 1}, "target: unknown group"),
    ("gaussian-hnn.json", ("groups", "H", "matrices", "1"), [[0, -1]], "2 x 2 integers"),
    ("gaussian-hnn.json", ("groups", "H", "matrices"), "rot", "matrices must be an object"),
    ("gaussian-hnn.json", ("groups", "H", "matrices", "7"), "junk",
     "keyed by exactly the indices 0 to 3"),
    ("gaussian-hnn.json", ("groups", "H", "translations"), "uv",
     "translations must be a list of strings"),
    ("gaussian-hnn.json", ("groups", "U4"), {"kind": "free_abelian", "generators": ["w"]},
     "groups.H: the acting group must be a finite table group"),
    ("pi1-sigma2.json", ("groups", "F1", "generators"), "ab", "generators must be a list of strings"),
    ("pi1-sigma2.json", ("groups", "F1", "generators"), {"a1": 0, "b1": 1},
     "generators must be a list of strings"),
    ("bs12.json", ("groups", "Z", "generators"), "a", "generators must be a list of strings"),
    ("bs12.json", ("groups", "BS12", "edge"), "rs", "edge must be a list of strings"),
    ("pi1-sigma2.json", ("graph", "name"), 5, "name must be a string, got 5"),
    ("pi1-sigma2.json", ("graph", "edges", 0, "id"), 5, "id must be a string, got 5"),
    ("pi1-sigma2.json", ("graph", "edges", 0, "source"), 5, "source must be a string, got 5"),
    ("pi1-sigma2.json", ("graph", "edges", 0, "range"), ["q"], "range must be a string"),
    ("bs12.json", ("budget", "witness_radius"), -1, "witness_radius must be a positive integer"),
    ("bs12.json", ("budget", "witness_radius"), [1, 2], "witness_radius must be a positive"),
    ("bs12.json", ("budget", "witness_radius"), 0, "witness_radius must be a positive integer"),
    ("bs12.json", ("budget", "steps"), "x", "steps must be a non-negative integer"),
    ("bs12.json", ("budget", "steps"), True, "steps must be a non-negative integer"),
    ("bs12.json", ("budget",), [["steps", 5]], "budget must be an object"),
    ("bs12.json", ("bounds", "point_radius"), 2.5, "point_radius must be an integer, got 2.5"),
    ("bs12.json", ("bounds", "point_radius"), True, "point_radius must be an integer, got True"),
    ("bs12.json", ("embeddings", "s", "images"), "a", "images must be a list of strings"),
    ("bs12.json", ("embeddings", "s", "images"), {"a": 1}, "images must be a list of strings"),
    ("z2-z3.json", ("groups", "Z2"),
     {"kind": "finite", "table": [[0, 1], [1, 0]], "generators": {"x": True}},
     "generator indices must be integers from 0 to 1"),
    ("z2-z3.json", ("groups", "Z2"),
     {"kind": "finite", "table": [[0, 1], [1, 0]], "generators": {"x": -1}},
     "generator indices must be integers from 0 to 1"),
    ("z2-z3.json", ("groups", "Z2"),
     {"kind": "finite", "table": [[0, 1], [1, 0]], "generators": {"x": 2}},
     "generator indices must be integers from 0 to 1"),
    ("z2-z3.json", ("groups", "Z2"),
     {"kind": "finite", "table": [[0, True], [True, 0]], "generators": {"x": 1}},
     "table entries must be integers from 0 to 1"),
    ("theta.json", ("note",), "anything", "unknown top-level key 'note'"),
    ("theta.json", ("groups", "T1", "junk"), 1, "groups.T1: unknown key 'junk'"),
    ("theta.json", ("embeddings", "e1s", "junk"), 1, "embeddings.e1s: unknown key 'junk'"),
    ("theta.json", ("graph", "junk"), 1, "graph: unknown key 'junk'"),
    ("theta.json", ("graph", "edges", 0, "junk"), 1, r"graph: edges\[0\]: unknown key 'junk'"),
], ids=["order-0", "order-huge", "order-string", "degree-huge", "vertices-list",
        "target-object", "short-matrix", "matrices-string", "matrices-junk-key",
        "translations-string", "acting-not-a-table-group", "generators-string",
        "generators-object", "free-abelian-generators-string", "edge-string", "graph-name-number",
        "edge-id-number", "edge-source-number", "edge-range-list",
        "witness-radius-negative", "witness-radius-list", "witness-radius-0",
        "steps-string", "steps-bool", "budget-pairs", "bounds-float", "bounds-bool",
        "images-string", "images-object", "finite-index-bool", "finite-index-negative",
        "finite-index-too-large", "finite-table-bool", "unknown-top-level-key",
        "unknown-group-key", "unknown-embedding-key", "unknown-graph-key", "unknown-edge-key"])
def test_hostile_problem_field_is_a_problem_error(name, path, value, reason):
    doc = _document(name)
    *parent, key = path
    _node(doc, parent)[key] = value
    with pytest.raises(ProblemError, match=reason):
        build_problem(doc)


@pytest.mark.parametrize("content, reason", [
    (b"[" * 100_000 + b"]" * 100_000, "JSON nested too deeply"),
    (b"\xff{}", "'utf-8' codec can't decode byte 0xff"),
], ids=["nested", "not-utf-8"])
def test_unreadable_problem_json_is_a_usage_error(tmp_path, capsys, content, reason):
    path = tmp_path / "p.json"
    path.write_bytes(content)
    assert cli.main(["audit", str(path)]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and reason in captured.err


def test_deeply_nested_certificate_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert cli.main(["verify", problem_path("theta.json"), str(path)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == "error: cannot load certificate: JSON nested too deeply\n"


def test_cli_build_negative_budget_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "c.json"
    rc = cli.main(["build", problem_path("z-star-z.json"), "--budget", "-1", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_USAGE and captured.out == ""
    assert captured.err.startswith("error: ") and "non-negative integer" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("argv, reason", [
    (["build", "{p}", "--budget", "abc"], "invalid int value: 'abc'"),
    (["audit", "{p}", "--bounds", "2,0,4"], "all audit bounds must be positive"),
    (["audit", "{p}", "--bounds", "2,2,4,4"], "bounds are n,rho,r"),
    (["verify", "{p}"], "the following arguments are required: certificate"),
], ids=["budget-not-a-number", "bounds-out-of-range", "bounds-four-fields", "missing-argument"])
def test_cli_argument_error_returns_usage_exit(argv, reason, capsys):
    argv = [a.format(p=problem_path("z-star-z.json")) for a in argv]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert reason in capsys.readouterr().err


def test_cli_a_covering_piece_bound_in_the_file_is_a_usage_error(tmp_path, capsys):
    doc = _document("z-star-z.json")
    doc.setdefault("bounds", {})["covering_piece_max"] = 4
    path = tmp_path / "pieces.json"
    path.write_text(json.dumps(doc))
    rc = cli.main(["audit", str(path)])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_USAGE and captured.out == ""
    assert captured.err.startswith("error: bounds: ") and "covering_piece_max" in captured.err


def test_cli_help_exits_zero(capsys):
    assert cli.main(["build", "--help"]) == cli.EXIT_PASS
    assert "--budget" in capsys.readouterr().out


def test_cli_audit_of_a_zero_order_is_a_usage_error(tmp_path, capsys):
    doc = _document("z2-z3.json")
    doc["groups"]["Z2"]["order"] = 0
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    rc = cli.main(["audit", str(path)])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_USAGE and err.startswith("error: ") and "order 0" in err


ODD_FIELDS = [None, True, 0, -1, 2, 1.5, 10**9, "", "x", "a^-1", [], {}, [[]], [[0]],
              [1, 2], {"x": 1}, ["a"], ["a", "a"]]

# an integer leaf also gets the values just past its bounds; a uniform
# draw over every node and every odd field seldom puts 0 on an order
INTEGER_EXTREMES = [0, -1, MAX_FINITE_ORDER + 1, 10**9]

problem_mutations = st.lists(st.tuples(st.sampled_from(["odd", "extreme", "transplant", "delete"]),
                                       st.integers(0, 10**6), st.integers(0, 10**6)),
                             min_size=1, max_size=3)


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(ALL_PROBLEMS), ops=problem_mutations)
def test_mutated_problem_file_builds_or_is_a_problem_error(name, ops):
    """Put a value of the wrong type or size, an integer extreme in place
    of an integer, or another node of the same document, anywhere in a
    bundled problem, or delete a node: building the problem returns it or
    raises ProblemError, and nothing else."""
    doc = _document(name)
    for op, a, b in ops:
        paths = list(_nodes(doc))[1:]
        if op == "extreme":
            paths = [path for path in paths if type(_node(doc, path)) is int]
        if not paths:
            continue
        *parent, key = paths[a % len(paths)]
        if op == "delete":
            del _node(doc, parent)[key]
        elif op == "extreme":
            _node(doc, parent)[key] = INTEGER_EXTREMES[b % len(INTEGER_EXTREMES)]
        else:
            value = ODD_FIELDS[b % len(ODD_FIELDS)] if op == "odd" else \
                _node(doc, paths[b % len(paths)])
            _node(doc, parent)[key] = copy.deepcopy(value)
    try:
        build_problem(doc)
    except ProblemError:
        pass


def test_surface_problem_shape():
    prob = zoo("pi1-sigma2")
    assert prob.graph is not None
    assert len(prob.graph.vertices) == 2
    assert len(prob.graph.edges) == 1


def test_gaussian_problem_shape():
    prob = zoo("gaussian-hnn")
    assert len(prob.graph.vertices) == 1
    e = prob.graph.edges[0]
    assert e.source == e.range


def test_parse_print_parse_idempotent():
    for name in ALL_PROBLEMS:
        with open(problem_path(name)) as fh:
            data = json.load(fh)
        text = canonical_text(data)
        again = canonical_text(json.loads(text))
        assert text == again
        assert problem_hash(data) == problem_hash(json.loads(text))


def test_certificate_roundtrip(tmp_path):
    cert = engine.run_schedule(engine.EngineProblem(zoo("z-star-z").build_group()[0]),
                               engine.Budget(steps=10), "key")
    path = tmp_path / "cert.json"
    emit_certificate(cert, str(path))
    loaded = load_certificate(str(path))
    assert loaded == cert
    emit_certificate(loaded, str(tmp_path / "cert2.json"))
    assert (tmp_path / "cert.json").read_bytes() == (tmp_path / "cert2.json").read_bytes()


# ---------------------------------------------------------------------------
# CLI surface


def test_cli_nf(capsys):
    rc = cli.main(["nf", problem_path("bs12.json"), "BS12", "t a t^-1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[0] == "a^2"


def test_cli_nf_unknown_group(capsys):
    rc = cli.main(["nf", problem_path("bs12.json"), "NOPE", "t"])
    assert rc == 1


def test_cli_nf_surface_relation(capsys):
    rc = cli.main(["nf", problem_path("pi1-sigma2.json"), "F1", "a1 a1^-1"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[0] == "1"


def test_cli_nf_exponent_above_the_bound_is_a_usage_error(capsys):
    """A stable-letter power is never expanded past the exponent bound."""
    rc = cli.main(["nf", problem_path("bs12.json"), "BS12", "t^1000000000"])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_USAGE and captured.out == ""
    assert captured.err.startswith("error: ") and "exceeds" in captured.err


def test_cli_nf_word_above_the_letter_bound_is_a_usage_error(capsys):
    """Tokens below the bound that merge into one longer power are bounded
    as a whole word."""
    rc = cli.main(["nf", problem_path("bs12.json"), "BS12", "t^6000 t^6000"])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_USAGE and captured.out == ""
    assert captured.err == "error: word exceeds 10000 letters at token 't^6000'\n"


def test_cli_verify_exponent_above_the_bound_fails_fast(tmp_path, capsys):
    cert_path = tmp_path / "out.json"
    rc = cli.main(["build", problem_path("free2-hnn.json"), "--budget", "6",
                   "--out", str(cert_path)])
    assert rc == 0
    capsys.readouterr()
    cert = json.loads(cert_path.read_text())
    step = next(s for s in cert["steps"] if s["kind"] == "transitivity")
    step["witnesses"]["g"] = "a^1000000000"
    cert_path.write_text(json.dumps(cert))
    start = time.monotonic()
    rc = cli.main(["verify", problem_path("free2-hnn.json"), str(cert_path)])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    assert rc == cli.EXIT_FAIL
    assert out.startswith(f"verify: FAIL (step {step['index']}: replay error: ")
    assert "exceeds" in out and elapsed < 1.0


def test_cli_audit_passes(capsys):
    rc = cli.main(["audit", problem_path("pi1-sigma2.json")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "hcf=pass" in out


def test_cli_audit_flags_finite_index(capsys):
    rc = cli.main(["audit", problem_path("planted-finite-index-edge.json")])
    out = capsys.readouterr().out
    assert rc == 2
    assert "hcf=fail" in out


@pytest.mark.parametrize("command", ["audit", "reduce", "build", "nf", "verify"])
def test_cli_embedding_no_exact_procedure_decides_is_a_usage_error(tmp_path, capsys, command):
    """<a^2, b^2> in F(a, b) has no exact membership procedure: the file
    does not load, so every command exits 1 with the reason, and none
    raises."""
    path = tmp_path / "squares.json"
    path.write_text(json.dumps({
        "groups": {"F": {"kind": "free", "generators": ["a", "b"]},
                   "S": {"kind": "free", "generators": ["u", "v"]}},
        "embeddings": {"sq": {"source": "S", "target": "F", "images": ["a^2", "b^2"]}},
        "target": "F"}))
    extra = {"nf": ["F", "a"], "verify": [str(tmp_path / "c.json")]}.get(command, [])
    assert cli.main([command, str(path), *extra]) == cli.EXIT_USAGE
    assert capsys.readouterr() == ("", "error: embeddings.sq: no exact membership "
                                       "procedure decides the image of S in F\n")



def test_a_refusal_inside_one_factor_names_the_outer_embedding(capsys):
    """<a^2, b^2> inside the left factor F of an amalgam routes to F, where
    no exact procedure decides it: the load error names the embedding of
    the file once, as the loader does every object."""
    doc = {"groups": {"F": {"kind": "free", "generators": ["a", "b"]},
                      "G": {"kind": "free", "generators": ["c"]},
                      "Z": {"kind": "free", "generators": ["w"]},
                      "S": {"kind": "free", "generators": ["u", "v"]},
                      "A": {"kind": "amalgam", "left": "F", "right": "G", "edge": ["wa", "wc"]}},
           "embeddings": {"wa": {"source": "Z", "target": "F", "images": ["a"]},
                          "wc": {"source": "Z", "target": "G", "images": ["c"]},
                          "sq": {"source": "S", "target": "A", "images": ["a^2", "b^2"]}},
           "target": "A"}
    with pytest.raises(ProblemError) as info:
        build_problem(doc)
    assert info.value.errors == ["embeddings.sq: no exact membership procedure decides "
                                 "the image of S in F"]

def test_cli_audit_undecided_exit_code(tmp_path, capsys):
    """<a> in F(a, b) at bounds (2, 1, 1): no h of the witness ball clears
    the tuple (b, b^-1), so the H-set search exhausts and the audit exits
    3.  A brute force over the ball confirms it: for each h, some h x lies
    in Sigma F or some h x h^-1 in Sigma, with F the ball of radius 1 and
    Sigma read as a^k for |k| <= 3, all that an element of length <= 3 can be."""
    path = tmp_path / "ax.json"
    path.write_text(json.dumps({
        "groups": {"F": {"kind": "free", "generators": ["a", "b"]},
                   "Z": {"kind": "free", "generators": ["u"]}},
        "embeddings": {"ax": {"source": "Z", "target": "F", "images": ["a"]}},
        "target": "F",
        "bounds": {"tuple_size_max": 2, "point_radius": 1, "witness_radius": 1}}))
    assert cli.main(["audit", str(path)]) == cli.EXIT_UNDECIDED
    assert capsys.readouterr().out == \
        "audit ax: hcf=undecided structural=pass coset-action=pass\n"
    problem = parse_problem(str(path))
    verdict = hcf.audit_hcf(problem.embeddings["ax"], problem.bounds)
    assert verdict.evidence["reason"] == "H-set witness search exhausted"
    assert verdict.evidence["failed_tuple"] == ["b", "b^-1"]
    f = problem.groups["F"]
    a, b = f.generator("a"), f.generator("b")
    sigma = {a ** k for k in range(-3, 4)}
    ball = [f.identity(), a, a.inverse(), b, b.inverse()]
    assert f.ball(1) == ball
    assert all(any(any(h * x * p.inverse() in sigma for p in ball)
                   or h * x * h.inverse() in sigma for x in (b, b.inverse()))
               for h in ball)


def test_cli_reduce_surface(capsys):
    rc = cli.main(["reduce", problem_path("pi1-sigma2.json")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "amalgam problem" in out
    assert "hypotheses: pass" in out


def test_cli_reduce_gaussian(capsys):
    rc = cli.main(["reduce", problem_path("gaussian-hnn.json")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "hnn problem" in out


def test_cli_reduce_theta_is_hnn_over_amalgam(capsys):
    rc = cli.main(["reduce", problem_path("theta.json"), "--edge", "e2"])
    out = capsys.readouterr().out
    assert "hnn problem" in out
    assert "(amalgam)" in out


def test_cli_reduce_flags_planted_vertex(capsys):
    rc = cli.main(["reduce", problem_path("planted-finite-vertex.json")])
    out = capsys.readouterr().out
    assert rc == 2
    assert "FINITE" in out


def test_cli_build_verify_cycle(tmp_path, capsys):
    cert_path = str(tmp_path / "out.json")
    rc = cli.main(["build", problem_path("z-star-z.json"), "--budget", "20",
                   "--out", cert_path, "--seedless"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "byte-identical" in out
    rc = cli.main(["verify", problem_path("z-star-z.json"), cert_path])
    out = capsys.readouterr().out
    assert rc == 0 and "OK" in out


@pytest.mark.parametrize("name", ["z-star-z", "bs12"])
def test_cli_seedless_build_with_deferrals_is_byte_identical(name, capsys):
    """Exhausted searches lean on the cursor's memo of protected pairs;
    a second run on fresh handles writes the same bytes."""
    rc = cli.main(["build", problem_path(f"{name}.json"), "--budget", "200", "--seedless"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_UNDECIDED
    assert "determinism: double run byte-identical" in out


def test_cli_seedless_build_gives_both_runs_an_engine_problem(monkeypatch, capsys):
    """The second run goes through the same acting-group gate as the first."""
    seen = []

    def recording(problem, *args):
        seen.append(type(problem))
        return run_schedule(problem, *args)

    run_schedule = cli.run_schedule
    monkeypatch.setattr(cli, "run_schedule", recording)
    assert cli.main(["build", problem_path("pi1-sigma2.json"), "--budget", "6", "--seedless"]) == 0
    assert "byte-identical" in capsys.readouterr().out
    assert seen == [engine.EngineProblem, engine.EngineProblem]


def test_cli_build_verbose_logs_steps_and_keeps_certificate_bytes(tmp_path, capsys):
    """``build -v`` logs each step to standard error; the certificate is
    byte-identical to a quiet build's."""
    quiet, loud = tmp_path / "quiet.json", tmp_path / "loud.json"
    argv = ["build", problem_path("theta.json"), "--budget", "12", "--out"]
    assert cli.main(argv + [str(quiet)]) == 0
    assert capsys.readouterr().err == ""
    assert cli.main(argv + [str(loud), "-v"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 12 and err[0].startswith("step 0: transitivity n=1 discharged")
    assert err[1].startswith("step 1: faithfulness of ")
    assert quiet.read_bytes() == loud.read_bytes()
    assert cli.main(argv + [str(quiet)]) == 0
    assert capsys.readouterr().err == ""


def test_cli_verify_rejects_wrong_problem(tmp_path, capsys):
    cert_path = str(tmp_path / "out.json")
    rc = cli.main(["build", problem_path("z-star-z.json"), "--budget", "5",
                   "--out", cert_path])
    assert rc == 0
    capsys.readouterr()
    rc = cli.main(["verify", problem_path("pi1-sigma2.json"), cert_path])
    out = capsys.readouterr().out
    assert rc == 2 and "different problem" in out


def test_cli_verify_rejects_tampered(tmp_path, capsys):
    cert_path = tmp_path / "out.json"
    rc = cli.main(["build", problem_path("z-star-z.json"), "--budget", "8",
                   "--out", str(cert_path)])
    assert rc == 0
    capsys.readouterr()
    cert = json.loads(cert_path.read_text())
    for step in cert["steps"]:
        if step["kind"] == "transitivity":
            step["mover"] = "a"
            break
    cert_path.write_text(json.dumps(cert))
    rc = cli.main(["verify", problem_path("z-star-z.json"), str(cert_path)])
    out = capsys.readouterr().out
    assert rc == 2 and "FAIL" in out


def test_cli_verify_rejects_non_object_certificate(tmp_path, capsys):
    cert_path = tmp_path / "list.json"
    cert_path.write_text("[]")
    rc = cli.main(["verify", problem_path("z-star-z.json"), str(cert_path)])
    err = capsys.readouterr().err
    assert rc == 1 and "cannot load certificate" in err
    with pytest.raises(ValueError, match="JSON object"):
        load_certificate(str(cert_path))


def test_cli_verify_rejects_unknown_edge(tmp_path, capsys):
    """An unknown edge, and any malformed or unresolvable source tag, is a
    FAIL with the reason."""
    cert_path = tmp_path / "out.json"
    rc = cli.main(["build", problem_path("theta.json"), "--budget", "4",
                   "--out", str(cert_path)])
    assert rc == 0
    capsys.readouterr()
    cert = json.loads(cert_path.read_text())
    for source, reason in [
        ({"edge": "nope"}, "no edge 'nope'"),
        ({"target": ["x"]}, "source tag"),
        ("edge", "source tag"),
        ({}, "source tag"),
        ({"edge": "e1", "target": "T1"}, "source tag"),
        ({"target": "T1"}, "not the problem's target"),
    ]:
        cert["source"] = source
        cert_path.write_text(json.dumps(cert))
        rc = cli.main(["verify", problem_path("theta.json"), str(cert_path)])
        out = capsys.readouterr().out
        assert rc == 2 and out.startswith("verify: FAIL (") and reason in out, source


@pytest.mark.parametrize("field, value, reason", [
    ("mover", None, "mover does not match the rebuilt value"),
    ("xs", [["1"]], "not the requirement scheduled at this index"),
    ("zs", [["1", 0]], "a word must be a string"),
    ("ys", ["a1^10001"], "not the requirement scheduled at this index"),
    ("witnesses", {"g1": "a1^10001", "g2": "1", "h": "1"}, "exceeds 10000"),
    ("witnesses", {"g1": "a1^6000 a1^6000", "g2": "1", "h": "1"}, "exceeds 10000"),
], ids=["mover", "xs", "zs", "ys", "witnesses", "witness-letters"])
def test_cli_verify_malformed_step_is_a_fail(tmp_path, capsys, field, value, reason):
    """Words of the wrong shape, and words with an exponent or a letter
    count above the bound, are FAILs with a reason, not tracebacks: a
    scheduled point that is not the schedule's fails the head check, a
    claim that is not the replay's canonical text fails its comparison, and
    a recorded choice that does not parse is a replay error."""
    cert_path = tmp_path / "out.json"
    rc = cli.main(["build", problem_path("pi1-sigma2.json"), "--budget", "6",
                   "--out", str(cert_path)])
    assert rc == 0
    capsys.readouterr()
    cert = json.loads(cert_path.read_text())
    step = next(s for s in cert["steps"] if s["kind"] == "transitivity")
    step[field] = value
    cert_path.write_text(json.dumps(cert))
    rc = cli.main(["verify", problem_path("pi1-sigma2.json"), str(cert_path)])
    out = capsys.readouterr().out
    assert rc == 2 and out.startswith("verify: FAIL (") and reason in out


@pytest.mark.parametrize("steps, reason", [
    (10**12, "schedule: 4 steps and 0 deferrals for a budget of 1000000000000 steps"),
    (-1, "budget.steps must be a non-negative integer, got -1"),
    ("3", "budget.steps must be a non-negative integer, got '3'"),
    (True, "budget.steps must be a non-negative integer, got True"),
], ids=["huge", "negative", "string", "bool"])
def test_cli_verify_hostile_budget_steps_is_a_fail(tmp_path, capsys, monkeypatch, steps, reason):
    """A budget.steps that is not a non-negative integer, or not the number
    of recorded steps and deferrals, fails before any replay."""
    cert_path = tmp_path / "out.json"
    rc = cli.main(["build", problem_path("z-star-z.json"), "--budget", "4",
                   "--out", str(cert_path)])
    assert rc == 0
    capsys.readouterr()
    cert = json.loads(cert_path.read_text())
    cert["budget"]["steps"] = steps
    cert_path.write_text(json.dumps(cert))
    monkeypatch.setattr(engine, "_schedule", lambda *args: pytest.fail("replay started"))
    rc = cli.main(["verify", problem_path("z-star-z.json"), str(cert_path)])
    out = capsys.readouterr().out
    assert (rc, out) == (2, f"verify: FAIL ({reason})\n")


PLAIN_TARGET = {"groups": {"Z": {"kind": "free_abelian", "generators": ["a"]}},
                "target": "Z"}
EDGELESS_GRAPH = {"groups": {"Z": {"kind": "free_abelian", "generators": ["a"]}},
                  "graph": {"vertices": {"p": "Z"}, "edges": []}}


@pytest.mark.parametrize("problem, edge, reason", [
    ("pi1-sigma2.json", "nope", "no edge 'nope'"),
    ("bs12.json", "e0", "the problem has no graph"),
    (PLAIN_TARGET, None, "neither an amalgam nor an HNN extension"),
    (EDGELESS_GRAPH, None, "no edges to reduce"),
])
def test_cli_build_unresolvable_group_is_usage_error(tmp_path, capsys, problem, edge, reason):
    if isinstance(problem, dict):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
    else:
        path = problem_path(problem)
    argv = ["build", str(path), "--budget", "2"] + (["--edge", edge] if edge else [])
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and reason in captured.err


def test_cli_build_deferred_exit_code(tmp_path, capsys):
    bad = {
        "groups": {
            "Za": {"kind": "free_abelian", "generators": ["a"]},
            "Zb": {"kind": "free_abelian", "generators": ["b"]},
            "E": {"kind": "trivial"},
            "G": {"kind": "amalgam", "left": "Za", "right": "Zb",
                  "edge": ["tL", "tR"]},
        },
        "embeddings": {
            "tL": {"source": "E", "target": "Za", "images": []},
            "tR": {"source": "E", "target": "Zb", "images": []},
        },
        "target": "G",
        "budget": {"steps": 40, "witness_radius": 3},
    }
    p = tmp_path / "tight.json"
    p.write_text(json.dumps(bad))
    rc = cli.main(["build", str(p)])
    out = capsys.readouterr().out
    assert rc == 3
    assert "deferred" in out


def test_cli_usage_error_exit_code(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{}")
    assert cli.main(["audit", str(p)]) == 1


def test_parse_word_bad_exponent():
    import oracles
    from hightrans.normal_forms import parse_word
    with pytest.raises(ValueError, match="exponent"):
        parse_word(oracles.free2(), "a^x")
    with pytest.raises(ValueError, match="unknown generator"):
        parse_word(oracles.free2(), "q")


# ---------------------------------------------------------------------------
# a finite acting group: a clean error, not an endless shortlex walk

_CYCLIC_TWOS = {
    "A": {"kind": "cyclic", "order": 2, "generator": "x"},
    "B": {"kind": "cyclic", "order": 2, "generator": "y"},
    "E": {"kind": "cyclic", "order": 2, "generator": "e"},
}
# Z2 *_{Z2} Z2 with both edge maps onto: the group Z2
FINITE_AMALGAM = {
    "groups": {**_CYCLIC_TWOS,
               "G": {"kind": "amalgam", "left": "A", "right": "B", "edge": ["ex", "ey"]}},
    "embeddings": {"ex": {"source": "E", "target": "A", "images": ["x"]},
                   "ey": {"source": "E", "target": "B", "images": ["y"]}},
    "target": "G",
    "budget": {"steps": 4},
}
# Z2 *_{Z2} Z4 as a graph: onto the left vertex group only, and still Z4
FINITE_GRAPH = {
    "groups": {**_CYCLIC_TWOS, "B": {"kind": "cyclic", "order": 4, "generator": "y"}},
    "embeddings": {"ex": {"source": "E", "target": "A", "images": ["x"]},
                   "ey": {"source": "E", "target": "B", "images": ["y^2"]}},
    "graph": {"name": "onto", "vertices": {"p": "A", "q": "B"},
              "edges": [{"id": "e0", "source": "p", "range": "q", "group": "E",
                         "source_map": "ex", "range_map": "ey"}]},
}


def test_cli_build_of_a_finite_amalgam_is_a_usage_error(tmp_path):
    path = tmp_path / "finite.json"
    path.write_text(json.dumps(FINITE_AMALGAM))
    proc = run_cli("build", path)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "'G' is finite" in proc.stderr


def test_cli_verify_of_a_finite_amalgam_fails(tmp_path):
    """A forged certificate whose entries match the schedule's head for
    the two points 1 and x: the replay would need a third point."""
    path = tmp_path / "finite.json"
    path.write_text(json.dumps(FINITE_AMALGAM))
    faithful = {"kind": "faithfulness", "element": "x", "witness": "1", "image": "x"}
    cert = {"format": 3, "problem": problem_hash(FINITE_AMALGAM), "group": "G",
            "mode": "amalgam", "source": {"target": "G"},
            "budget": {"steps": 4, "witness_radius": 64},
            "steps": [{"index": 1, **faithful}, {"index": 3, **faithful}],
            "deferred": [{"index": 0, "kind": "transitivity", "xs": ["1"], "ys": ["1"],
                          "diagnostic": "forged"},
                         {"index": 2, "kind": "transitivity", "xs": ["1"], "ys": ["x"],
                          "diagnostic": "forged"}]}
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(cert))
    proc = run_cli("verify", path, cert_path)
    assert proc.returncode == 2
    assert proc.stdout.startswith("verify: FAIL (") and "'G' is finite" in proc.stdout


def test_cli_finite_graph_reduces_but_does_not_build(tmp_path):
    path = tmp_path / "onto.json"
    path.write_text(json.dumps(FINITE_GRAPH))
    proc = run_cli("build", path)
    assert proc.returncode == 1 and proc.stderr.startswith("error: ")
    assert "'amalgam[onto:e0]' is finite" in proc.stderr
    proc = run_cli("reduce", path)
    assert proc.returncode == 2
    assert "vertex p (A): FINITE -> fail" in proc.stdout


def test_cli_a_high_rank_semidirect_group_parses_in_polynomial_time(tmp_path):
    """z-star-z with one more declared group, Z^13 as a semidirect product
    over the trivial group: 1.3 KB of text.  Every command validates every
    declared group, and a determinant by cofactor expansion takes 13!
    steps; at rank 10 that took 5 s."""
    rank = 13
    doc = json.loads(Path(problem_path("z-star-z.json")).read_text())
    doc["groups"]["H"] = {
        "kind": "semidirect", "acting": "E", "translations": [f"x{i}" for i in range(rank)],
        "matrices": {"0": [[int(i == j) for j in range(rank)] for i in range(rank)]}}
    path = tmp_path / "rank13.json"
    path.write_text(json.dumps(doc))
    for command in ("reduce", "audit"):
        proc = run_cli(command, path, timeout=20)
        assert proc.returncode == 0, (command, proc.stderr)


def test_cli_a_large_exponent_surface_costs_work_in_letters(tmp_path):
    """pi1-sigma2 with edge images of 9,999 letters each, one short of the
    word limit: a free payload holds one code point per letter, so every
    product, length and decomposition works in letters, not syllables.
    Each command still finishes inside the ``run_cli`` timeout, with the
    exit codes of the bundled file."""
    doc = json.loads(Path(problem_path("pi1-sigma2.json")).read_text())
    doc["embeddings"]["cL"]["images"] = ["a1^5000 b1^4999"]
    doc["embeddings"]["cR"]["images"] = ["a2^5000 b2^4999"]
    path, cert = tmp_path / "long.json", tmp_path / "long-cert.json"
    path.write_text(json.dumps(doc))
    for args in (["audit", path], ["reduce", path],
                 ["build", path, "--budget", "200", "--out", cert], ["verify", path, cert]):
        proc = run_cli(*args)
        assert proc.returncode == 0, (args[0], proc.stderr)
    assert proc.stdout == "verify: OK (ok)\n"


def test_cli_build_bytes_do_not_follow_the_hash_seed(tmp_path, monkeypatch):
    """Free payloads are strings, whose hashes the interpreter seeds (tuples
    of ints hash alike in every process), so two fresh builds under
    different seeds must still write the same bytes."""
    runs = []
    for seed in ("0", "1"):
        monkeypatch.setenv("PYTHONHASHSEED", seed)
        cert = tmp_path / f"seed{seed}.json"
        proc = run_cli("build", problem_path("pi1-sigma2.json"), "--budget", "200", "--out", cert)
        assert proc.returncode == 0, proc.stderr
        runs.append((proc.stdout.replace(str(cert), "CERT"), cert.read_bytes()))
    assert runs[0] == runs[1]
