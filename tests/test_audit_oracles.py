"""The audit shortcuts against the slow paths they replaced.

Exact infinite index, coset fixers by membership, one conjugacy ball per
element and the H-set search over bitsets must give the verdicts and the
evidence of the walking prover, the decomposing coset action, the
two-ball certificate and the H-set search by walk in ``oracles.py``.
"""

from math import gcd, inf
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles
from hightrans import hcf
from hightrans.embeddings import Embedding, LatticeStrategy
from hightrans.groups import Element, FreeAbelianGroup, FreeGroup, cyclic_group

from conftest import PROBLEMS, zoo


def _problem_embeddings():
    out = []
    for path in sorted(PROBLEMS.glob("*.json")):
        out += [(path.stem, name) for name in sorted(zoo(path.stem).embeddings)]
    return out


EMBEDDINGS = _problem_embeddings()


def _load(problem, name):
    parsed = zoo(problem)
    return parsed.embeddings[name], parsed.bounds


def _same_verdict(a, b):
    assert (a.status, a.bounds, a.evidence) == (b.status, b.bounds, b.evidence)


def test_every_problem_embedding_is_covered():
    assert len(EMBEDDINGS) == 20


@pytest.mark.parametrize("problem, name", EMBEDDINGS)
def test_finite_index_prover_matches_the_walk(problem, name):
    emb, bounds = _load(problem, name)
    for radius in (bounds.witness_radius, 6):
        assert hcf.prove_finite_index(emb, radius) == \
            oracles.prove_finite_index_by_walk(emb, radius)


# test beds whose coset-action audits take the covering branch (test_hcf.py
# checks their verdicts): S4 on four points fails, Z^2 on the cosets of a
# normal factor stays undecided, and S3 on three points and Z translating
# itself pass
COVERING_FIXTURES = ["point_stabilizer_embedding", "first_factor_embedding",
                     "transposition_embedding", "trivial_subgroup_embedding"]


def _load_any(problem, name):
    if problem == "fixtures":
        return getattr(oracles, name)(), hcf.AuditBounds()
    return _load(problem, name)


@pytest.mark.parametrize("problem, name",
                         EMBEDDINGS + [("fixtures", n) for n in COVERING_FIXTURES])
def test_coset_action_audit_matches_decomposing_fixers(problem, name, monkeypatch):
    """The whole verdict, at the file bounds and at (2,2,5), as an audit
    on the decomposing coset action finds it."""
    emb, file_bounds = _load_any(problem, name)
    for bounds in (file_bounds, hcf.AuditBounds(2, 2, 5)):
        fast = hcf.audit_highly_faithful(emb, bounds)
        with monkeypatch.context() as m:
            m.setattr(hcf, "CosetDomain", oracles.ActCosetDomain)
            _same_verdict(fast, hcf.audit_highly_faithful(_load_any(problem, name)[0], bounds))


@pytest.mark.parametrize("problem, name", EMBEDDINGS)
def test_structural_certificate_matches_two_balls(problem, name):
    emb, bounds = _load(problem, name)
    _same_verdict(hcf.certify_structural(emb, bounds),
                  oracles.certify_structural_two_balls(emb, bounds))


def test_coset_fixers_agree_with_decomposition_pointwise():
    # the audits above probe only what their searches reach; here every
    # h of the radius-3 ball meets every coset of the radius-3 zone
    bounds = hcf.AuditBounds(1, 3, 3)
    for emb in (oracles.commutator_subgroup_embedding(), oracles.even_integers_embedding(),
                zoo("gaussian-hnn").embeddings["units"]):
        fast, slow = hcf.CosetDomain(emb, bounds), oracles.ActCosetDomain(emb, bounds)
        assert (fast.zone, fast.sample) == (slow.zone, slow.sample)
        for h in emb.target.ball(3):
            for r in fast.zone:
                assert fast.fixes(h, r) == (slow.act(h, r) == r)


FIXTURE_EMBEDDINGS = ["commutator_subgroup_embedding", "even_integers_embedding",
                      "improper_embedding", "primitive_cyclic_embedding"]


@pytest.mark.parametrize("problem, name", EMBEDDINGS + [
    ("fixtures", n) for n in FIXTURE_EMBEDDINGS + COVERING_FIXTURES])
def test_coset_fixers_match_decomposing_fixers_on_every_piece(problem, name):
    # one domain answers every query the audit could make, in audit order,
    # so the table of moved cosets is read back many times
    emb, bounds = _load_any(problem, name)
    fast, slow = hcf.CosetDomain(emb, bounds), oracles.ActCosetDomain(emb, bounds)
    pieces = [()] + hcf._finite_piece_candidates(fast.zone)
    for piece in pieces:
        assert fast.cofinite_fixer(piece) == slow.cofinite_fixer(piece)
        assert fast.nontrivial_fixer_of(piece) == slow.nontrivial_fixer_of(piece)


@pytest.mark.parametrize("bounds", ["file", (2, 2, 5)])
@pytest.mark.parametrize("problem, name", EMBEDDINGS)
def test_h_set_audit_matches_the_walk(problem, name, bounds, monkeypatch):
    """Each tuple's witness, or the failed tuple, its reason and covering
    shape, as an audit whose H-set searches walk the ball from the
    identity finds them."""
    emb, file_bounds = _load(problem, name)
    bounds = file_bounds if bounds == "file" else hcf.AuditBounds(*bounds)
    fast = hcf.audit_hcf(emb, bounds)
    monkeypatch.setattr(hcf, "HSetMemo", oracles.HSetWalkMemo)
    monkeypatch.setattr(hcf, "search_H_set", oracles.h_set_search_by_walk)
    _same_verdict(fast, hcf.audit_hcf(_load(problem, name)[0], bounds))


H_SET_FIXTURES = {name: getattr(oracles, name)()
                  for name in FIXTURE_EMBEDDINGS + ["trivial_subgroup_embedding"]}
H_SET_FIXTURES["s3_transposition"] = oracles.transposition_embedding()


_h_set_searches = st.lists(st.tuples(st.lists(st.integers(1, 30), min_size=1, max_size=3),
                                     st.integers(0, 5)), min_size=1, max_size=5)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(H_SET_FIXTURES)), st.lists(st.integers(0, 30), max_size=8),
       _h_set_searches, st.integers(1, 7) | st.just(hcf.HSET_WORD))
@example("s3_transposition", list(range(6)), [([1], 5), ([2, 3], 4), ([5], 5)], 2)
def test_h_set_search_matches_the_walk_with_one_shared_memo(fixture, f_picks, searches, word):
    """Several searches over one protected F, at radii that rise and fall,
    share one memo on each side.  An entry is a nontrivial element of the
    ball of radius 2 by index.  The memo's bitsets are split into words of
    ``word`` positions, so small words make searches cross word ends.  In
    the example F is S3's ball of radius 2, whose Sigma-cosets cover S3, so
    every search fails at every h and walks past S3's last layer, 3, to its
    radius."""
    emb = H_SET_FIXTURES[fixture]
    ball = emb.target.ball(2)
    F = [ball[i % len(ball)] for i in f_picks]
    memo, walk_memo = hcf.HSetMemo(emb, F), oracles.HSetWalkMemo(emb, F)
    covered = emb.target.is_finite() and all(
        emb.rep(g) in memo.f_reps for g in emb.target.iter_shortlex())
    with mock.patch.object(hcf, "HSET_WORD", word):
        for picks, radius in searches:
            xs = list(dict.fromkeys(ball[1 + i % (len(ball) - 1)] for i in picks))
            want = oracles.h_set_search_by_walk(emb, xs, radius, walk_memo)
            assert hcf.search_H_set(emb, xs, radius, memo) == want
            if covered:
                assert want is None and memo.ends[radius] == len(emb.target.ball(radius))

    def bitset(words):
        assert all(0 <= v < 1 << word for v in words.values())
        return sum(v << i * word for i, v in words.items())

    # every bit the memo holds is a verdict of the walk's
    for x, words in memo.tested.items():
        tested, failed = bitset(words), bitset(memo.failed[x])
        assert failed & ~tested == 0
        for pos, (h, hinv) in enumerate(memo.walked):
            if tested >> pos & 1:
                clear = not (emb.rep(h * x) in walk_memo.f_reps or emb.contains(h * x * hinv))
                assert clear == (not failed >> pos & 1)


def test_coset_action_audit_asks_each_h_about_few_cosets(monkeypatch):
    # the mover index asks about each nontrivial h until it finds the last
    # zone coset h moves; scanning from the longest representatives finds
    # it at once here, and no piece's query needs a confirming check.  Both
    # paths ask through _fixes_inv, so the count covers each of them
    calls = []
    fixes = hcf.CosetDomain._fixes_inv

    def counted(self, hinv, rep, rep_inv):
        calls.append(hinv)
        return fixes(self, hinv, rep, rep_inv)

    monkeypatch.setattr(hcf.CosetDomain, "_fixes_inv", counted)
    parsed = zoo("theta")
    bounds = parsed.bounds
    for name, emb in sorted(parsed.embeddings.items()):
        calls.clear()
        hcf.audit_highly_faithful(emb, bounds)
        nontrivial = len(emb.target.ball(bounds.witness_radius)) - 1
        assert len(calls) <= 2 * nontrivial, name


def test_infinite_index_examples():
    assert oracles.commutator_subgroup_embedding().index() == inf
    assert oracles.primitive_cyclic_embedding().index() == inf
    assert zoo("gaussian-hnn").embeddings["units"].index() == inf
    assert oracles.trivial_subgroup_embedding().index() == inf
    assert oracles.even_integers_embedding().index() == 2
    assert oracles.improper_embedding().index() == 1


# ---------------------------------------------------------------------------
# random embeddings: a transversal found by walking refutes an infinite index()


_WALK_RADIUS = 4


def _cyclic_in_free(rank, letters):
    f = FreeGroup(f"F{rank}", tuple("abc"[:rank]))
    c = f.identity()
    for gen, sign in letters:
        c = c * f.generator("abc"[gen % rank]) ** sign
    if c.is_identity:
        c = f.generator("a")
    z = FreeAbelianGroup("Z", ("z",))
    return Embedding("cyclic", z, f, [c])


def _lattice(rank, columns):
    tgt = FreeAbelianGroup(f"Z{rank}", tuple(f"x{i}" for i in range(rank)))
    cols = [tuple(col[:rank]) for col in columns if any(col[:rank])]
    if not cols:
        cols = [(1,) + (0,) * (rank - 1)]
    src = FreeAbelianGroup(f"L{len(cols)}", tuple(f"s{i}" for i in range(len(cols))))
    images = [Element(tgt, col) for col in cols]
    return Embedding("lattice", src, tgt, images, check=False)


def _finite_in_cyclic(order, divisor_index, unit_index):
    """C_m into C_n for a divisor m of n, generator to a generator of the
    order-m subgroup."""
    divisors = [d for d in range(1, order + 1) if order % d == 0]
    m = divisors[divisor_index % len(divisors)]
    units = [u for u in range(1, m + 1) if gcd(u, m) == 1]
    tgt = cyclic_group("Cn", order, "g")
    src = cyclic_group("Cm", m, "s")
    image = tgt.generator("g") ** (order // m * units[unit_index % len(units)])
    return Embedding("finite", src, tgt, [image])


_letters = st.lists(st.tuples(st.integers(0, 2), st.sampled_from([1, -1])),
                    min_size=1, max_size=4)

embeddings = st.one_of(
    st.builds(_cyclic_in_free, st.integers(1, 2), _letters),
    st.builds(_lattice, st.integers(1, 3),
              st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                       min_size=1, max_size=3)),
    st.builds(_finite_in_cyclic, st.integers(1, 8), st.integers(0, 7), st.integers(1, 7)),
    st.just(zoo("gaussian-hnn").embeddings["units"]),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(embeddings)
def test_found_transversal_refutes_infinite_index(emb):
    transversal = oracles.prove_finite_index_by_walk(emb, _WALK_RADIUS)
    if transversal is not None:
        assert emb.index() in (None, len(transversal))
    if isinstance(emb.strategy, LatticeStrategy) and len(emb.strategy.basis) == emb.target.rank:
        assert type(emb.index()) is int
    assert hcf.prove_finite_index(emb, _WALK_RADIUS) == transversal


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(embeddings, st.integers(1, 2), st.integers(0, 1))
def test_structural_certificate_matches_two_balls_on_random_embeddings(emb, rho, extra):
    bounds = hcf.AuditBounds(1, rho, rho + extra)
    _same_verdict(hcf.certify_structural(emb, bounds),
                  oracles.certify_structural_two_balls(emb, bounds))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(embeddings, st.integers(1, 2), st.integers(0, 1), st.data())
def test_cofinite_fixer_matches_decomposing_fixers_on_any_excluded_set(emb, rho, extra, data):
    # any subset of the sample zone and its complement, not only the
    # audit's pieces: so the last coset an h moves often lies inside the
    # excluded set, where the mover index must confirm h by the full check
    bounds = hcf.AuditBounds(1, rho, rho + extra)
    fast, slow = hcf.CosetDomain(emb, bounds), oracles.ActCosetDomain(emb, bounds)
    sample = fast.sample
    assert sample == slow.sample
    mask = data.draw(st.lists(st.booleans(), min_size=len(sample), max_size=len(sample)))
    kept = data.draw(st.sets(st.sampled_from(sample), max_size=2))
    for excluded in ([r for r, out in zip(sample, mask) if out],
                     [r for r, out in zip(sample, mask) if not out],
                     [r for r in sample if r not in kept]):
        assert fast.cofinite_fixer(excluded) == slow.cofinite_fixer(excluded)
