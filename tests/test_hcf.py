import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hightrans import hcf
from hightrans.hcf import HSetMemo, SearchCursor
from hightrans.normal_forms import parse_word

from conftest import zoo
import oracles
from oracles import (gset_instance_for_eset, hset_instance_for_gset, plain_level_action,
                     replay_hcf_verdict, replay_highly_faithful_verdict, search_G_set)


@pytest.fixture(scope="module")
def comm():
    return oracles.commutator_subgroup_embedding()


@pytest.fixture(scope="module")
def even():
    return oracles.even_integers_embedding()


def h_set_conditions(emb, h, xs, F):
    f_reps = {emb.rep(f) for f in F}
    return all(emb.rep(h * x) not in f_reps
               and not emb.contains(h * x * h.inverse()) for x in xs)


def g_set_conditions(emb, h, xs, F):
    f_reps = {emb.rep(f) for f in F}
    if any(emb.rep(h * x) in f_reps for x in xs):
        return False
    return all(not emb.contains(h * xs[i] * xs[j].inverse() * h.inverse())
               for i in range(len(xs)) for j in range(len(xs)) if i != j)


def e_set_conditions(action, h, xs, F):
    f_reps = {action.orbit_rep(f) for f in F}
    imgs = [action.act(h, x) for x in xs]
    reps = [action.orbit_rep(p) for p in imgs]
    return all(r not in f_reps for r in reps) and len(set(reps)) == len(reps)


def test_search_h_trivial_subgroup():
    triv = oracles.trivial_subgroup_embedding()
    z = triv.target
    F = [z.identity()]
    h = hcf.search_H_set(triv, [z.generator("a")], 2, HSetMemo(triv, F))
    assert h is not None and h.is_identity


def test_search_h_commutator(comm):
    f = comm.target
    h = hcf.search_H_set(comm, [f.generator("a")], 2, HSetMemo(comm, [f.identity()]))
    assert h is not None
    assert h_set_conditions(comm, h, [f.generator("a")], [f.identity()])


def test_search_h_finite_index_always_empty(even):
    z = even.target
    two = z.generator("a") ** 2
    F = [z.identity(), z.generator("a")]
    for radius in (2, 4, 8):
        assert hcf.search_H_set(even, [two], radius, HSetMemo(even, F)) is None


def test_search_h_rejects_identity_entries(comm):
    with pytest.raises(ValueError):
        hcf.search_H_set(comm, [comm.target.identity()], 2, HSetMemo(comm, []))


def test_a_raised_witness_radius_walks_no_layer_past_the_deepest_witness():
    """theta's e1r passes at its file's radius 4; at radius 12 it finds
    the same witnesses and leaves its target, F2, holding no layer past the
    deepest of them.  F2's layer 12 alone has 708,588 elements, so a search
    that builds the whole ball up front fails the last assertion."""
    at_file = hcf.audit_hcf(zoo("theta").embeddings["e1r"], hcf.AuditBounds(2, 2, 4))
    emb = zoo("theta").embeddings["e1r"]
    raised = hcf.audit_hcf(emb, hcf.AuditBounds(2, 2, 12))
    assert raised.status == at_file.status == "pass"
    assert raised.evidence["witnesses"] == at_file.evidence["witnesses"]
    deepest = max(parse_word(emb.target, w["witness"]).length()
                  for w in raised.evidence["witnesses"])
    assert len(emb.target._layers) == deepest + 1


def test_search_g_example(comm):
    f = comm.target
    xs = [f.identity(), f.generator("a")]
    h = search_G_set(comm, xs, [f.identity()], 4)
    assert h is not None
    assert g_set_conditions(comm, h, xs, [f.identity()])
    # the worked example witness is valid too
    assert g_set_conditions(comm, f.generator("b"), xs, [f.identity()])


def test_search_g_rejects_diagonal(comm):
    a = comm.target.generator("a")
    with pytest.raises(ValueError):
        search_G_set(comm, [a, a], [], 2)


def test_search_e_basic(comm):
    action = plain_level_action(comm)
    f = comm.target
    xs = [f.identity(), f.generator("a")]
    F = [f.identity()]
    h = hcf.search_E_set(action, xs, F, 2, (), SearchCursor())
    assert h is not None
    assert e_set_conditions(action, h, xs, F)


def test_search_e_protected_reps_act_like_protected_points(comm):
    action = plain_level_action(comm)
    f = comm.target
    xs = [f.identity(), f.generator("a")]
    first = hcf.search_E_set(action, xs, [], 3, (), SearchCursor())
    taken = [action.act(first, x) for x in xs]
    reps = {action.orbit_rep(p) for p in taken}
    h = hcf.search_E_set(action, xs, [], 3, reps, SearchCursor())
    assert h is not None and h != first
    assert h == hcf.search_E_set(action, xs, taken, 3, (), SearchCursor())
    assert e_set_conditions(action, h, xs, taken)


def test_search_e_same_orbit_normal_subgroup(even):
    # with 2Z < Z every translate keeps the two points in one orbit, so the
    # disjointness condition can never hold
    action = plain_level_action(even)
    z = even.target
    xs = [z.identity(), z.generator("a") ** 2]
    assert hcf.search_E_set(action, xs, [], 6, (), SearchCursor()) is None


# ---------------------------------------------------------------------------
# audits


def test_audit_trivial_passes():
    v = hcf.audit_hcf(oracles.trivial_subgroup_embedding())
    assert v.status == "pass"
    assert replay_hcf_verdict(oracles.trivial_subgroup_embedding(), v)


def test_audit_commutator_passes(comm):
    v = hcf.audit_hcf(comm, hcf.AuditBounds(2, 2, 4))
    assert v.status == "pass"
    assert replay_hcf_verdict(comm, v)


def test_audit_gaussian_units_passes():
    emb = zoo("gaussian-hnn").embeddings["units"]
    v = hcf.audit_hcf(emb, hcf.AuditBounds(2, 2, 4))
    assert v.status == "pass"
    assert replay_hcf_verdict(emb, v)


def test_audit_even_fails_with_covering(even):
    v = hcf.audit_hcf(even)
    assert v.failed
    cov = v.evidence["covering"]
    assert cov["pieces"] == [{"members": ["1"]}]
    assert len(cov["F"]) == 2
    assert replay_hcf_verdict(even, v)


def test_audit_finite_group_subgroup_fails():
    from hightrans.embeddings import Embedding
    from hightrans.groups import cyclic_group
    z6 = cyclic_group("Z6a", 6, "g")
    z2 = cyclic_group("Z2a", 2, "x")
    emb = Embedding("z2inz6", z2, z6, [z6.generator("g") ** 3])
    v = hcf.audit_hcf(emb)
    assert v.failed


def test_tampered_fail_evidence_rejected(even):
    v = hcf.audit_hcf(even)
    v.evidence["covering"]["cores"] = ["1"]
    assert not replay_hcf_verdict(even, v)


def test_pass_implies_core_free_at_bounds(comm):
    # a pass leaves no nontrivial small element inside every conjugate of
    # the subgroup over the witness ball
    bounds = hcf.AuditBounds(2, 2, 4)
    assert hcf.audit_hcf(comm, bounds).status == "pass"
    ball_r = comm.target.ball(bounds.witness_radius)
    for g in comm.target.ball(bounds.point_radius):
        if g.is_identity:
            continue
        assert any(not comm.contains(h * g * h.inverse()) for h in ball_r)


def test_structural_certificates():
    assert hcf.certify_structural(oracles.commutator_subgroup_embedding()).status == "pass"
    assert hcf.certify_structural(oracles.primitive_cyclic_embedding()).status == "pass"
    assert hcf.certify_structural(zoo("gaussian-hnn").embeddings["units"]).status == "pass"
    improper = hcf.certify_structural(oracles.improper_embedding())
    assert improper.failed
    assert improper.evidence["premises"]["infinite_index"]["status"] == "fail"


MULTIPLY_COUNT = """
import contextlib, io, sys
from hightrans import cli, groups
calls = 0
def counting(multiply):
    def wrapped(self, p, q):
        global calls
        calls += 1
        return multiply(self, p, q)
    return wrapped
for cls in (groups.FiniteGroup, groups.FreeAbelianGroup, groups.FreeGroup,
            groups.SemidirectGroup, groups.AmalgamGroup, groups.HnnGroup):
    cls.multiply = counting(cls.multiply)
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(sys.argv[1:])
print(calls)
"""


def test_audit_multiply_count_is_the_same_in_every_process():
    # element hashes follow id(owner), so set order differs between
    # processes; no audit loop may leave early in set order
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    counts = [subprocess.run([sys.executable, "-c", MULTIPLY_COUNT, "audit",
                              str(root / "problems" / "theta.json")],
                             cwd=root, env=env, capture_output=True, text=True,
                             timeout=120, check=True).stdout
              for _ in range(2)]
    assert counts[0] == counts[1] and int(counts[0]) > 0


def test_structural_flags_finite_index(even):
    v = hcf.certify_structural(even)
    assert v.failed
    assert v.evidence["premises"]["infinite_index"]["status"] == "fail"


# ---------------------------------------------------------------------------
# highly faithful audits


def test_highly_faithful_translation_passes():
    # the cosets of the trivial subgroup of Z are Z translating itself
    v = hcf.audit_highly_faithful(oracles.trivial_subgroup_embedding())
    assert v.status == "pass"
    assert v.evidence["zone"] == ["1", "a", "a^-1", "a^2", "a^-2"]


def test_highly_faithful_normal_infinite_index_undecided():
    # a fixes every coset of the first factor of Z^2, which has no transversal
    v = hcf.audit_highly_faithful(oracles.first_factor_embedding())
    assert v.status == "undecided"
    assert v.evidence["candidates"][0]["covering"]["fixers"] == ["a"]


def test_highly_faithful_three_points_pass():
    # S3 on three points: the transposition of a pair of points fixes the
    # third, but nothing nontrivial fixes the pair, so no covering counts
    v = hcf.audit_highly_faithful(oracles.transposition_embedding())
    assert v.status == "pass"
    assert v.evidence["zone"] == ["1", "s1", "s1 s0"]


def test_highly_faithful_perm_domain_fails():
    # S4 permuting the four cosets of a point stabilizer
    emb = oracles.point_stabilizer_embedding()
    v = hcf.audit_highly_faithful(emb)
    assert v.failed
    cov = v.evidence["covering"]
    assert cov["pieces"] == [{"members": ["1", "s2"]}, {"complement_of": ["1", "s2"]}]
    assert cov["fixers"] == ["s0", "s2"]
    assert replay_highly_faithful_verdict(emb, v)


def test_highly_faithful_perm_tamper_rejected():
    emb = oracles.point_stabilizer_embedding()
    v = hcf.audit_highly_faithful(emb)
    v.evidence["covering"]["fixers"][0] = "1"
    assert not replay_highly_faithful_verdict(emb, v)
    # s0 moves the coset of s2 s1; s1 names the coset of 1, which s0 fixes,
    # but then no piece holds the coset of s2
    for member in ("s2 s1", "s1"):
        v = hcf.audit_highly_faithful(emb)
        v.evidence["covering"]["pieces"][0]["members"][1] = member
        assert not replay_highly_faithful_verdict(emb, v)


def test_highly_faithful_coset_cross_checks(comm, even):
    # condition-5 cross-check: the coset action mirrors the core audit
    assert hcf.audit_highly_faithful(comm).status == "pass"
    v = hcf.audit_highly_faithful(even)
    assert v.failed
    assert replay_highly_faithful_verdict(even, v)


# ---------------------------------------------------------------------------
# transports between the witness sets


def test_hset_transports_into_gset(comm):
    f = comm.target
    ball = f.ball(2)
    nontrivial = [x for x in ball if not x.is_identity]
    F = f.ball(1)
    checked = 0
    for xs in itertools.combinations(nontrivial, 2):
        ys, f2 = hset_instance_for_gset(list(xs), F)
        h = hcf.search_H_set(comm, ys, 6, HSetMemo(comm, f2))
        assert h is not None
        assert g_set_conditions(comm, h, list(xs), F)
        checked += 1
    assert checked == len(list(itertools.combinations(nontrivial, 2)))


def test_gset_transports_into_eset(comm):
    action = plain_level_action(comm)
    f = comm.target
    F = f.ball(1)
    checked = 0
    for xs in itertools.combinations(F, 2):
        ys, f2 = gset_instance_for_eset(action, list(xs), F)
        h = search_G_set(comm, ys, f2, 6)
        assert h is not None
        assert e_set_conditions(action, h, list(xs), F)
        checked += 1
    assert checked > 0


def test_gset_transport_single_group_part(comm):
    action = plain_level_action(comm)
    f = comm.target
    # a one-point tuple is padded to a G-set pair
    xs = [f.generator("a")]
    ys, f2 = gset_instance_for_eset(action, xs, [f.identity()])
    assert len(ys) == 2 and ys[0] == xs[0] != ys[1]
    h = search_G_set(comm, ys, f2, 6)
    assert h is not None
    assert e_set_conditions(action, h, xs, [f.identity()])


def test_worst_status_folds_fail_over_undecided_over_pass():
    assert hcf.worst([]) == "pass"
    assert hcf.worst(["pass", "pass"]) == "pass"
    assert hcf.worst(["pass", "undecided", "pass"]) == "undecided"
    assert hcf.worst(["undecided", "fail", "pass"]) == "fail"
    assert hcf.worst(s for s in ["pass", "fail"]) == "fail"
