"""Per-layer metrics and reconciliation checks from one traced pass.

Span names are the trace names in ``tracer.py``; the command spans are
``cli.audit``, ``cli.reduce``, ``cli.build`` and ``cli.verify``, each with
a ``problem`` attribute.
"""

from __future__ import annotations

import statistics

from tracer import GROUP_KINDS, STRATEGIES


def _duration(span):
    return span.end - span.start


def _tenths(items):
    """The first and the last tenth (at least one item each) of a list."""
    k = max(1, len(items) // 10)
    return items[:k], items[-k:]


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def reconcile(tracer, certs):
    """Engine call counts per command against the certificates; returns the
    list of mismatches (empty when everything reconciles)."""
    out = []
    for cmd in tracer.spans:
        if cmd.name not in ("cli.build", "cli.verify"):
            continue
        cert = certs.get(cmd.attrs["problem"])
        if cert is None:
            out.append(f"{cmd.attrs['problem']}: no certificate to reconcile against")
            continue
        counted = {}
        for sp in tracer.spans:
            if sp.parent == cmd.id:
                counted[sp.name] = counted.get(sp.name, 0) + 1
        if cmd.name == "cli.build":
            pairs = (("engine.extend_transitivity",
                      cert["transitivity"] + cert["deferred_transitivity"]),
                     ("engine.ensure_faithful", cert["faithfulness"]))
        else:
            pairs = (("action.check_equivariance", cert["transitivity"]),)
        for name, want in pairs:
            got = counted.get(name, 0)
            if got != want:
                out.append(f"{cmd.attrs['problem']}: {name} ran {got} times, "
                           f"the certificate implies {want}")
    return out


def per_layer(tracer, pipe, seed_shas):
    """Every per-layer metric of BENCHMARK.json except trace.overhead_frac."""
    st = tracer.stats
    spans = tracer.spans
    by_id = {sp.id: sp for sp in spans}
    m = {}

    def calls(name):
        return st[name].calls if name in st else 0

    def total(name):
        return st[name].total_s if name in st else 0.0

    def self_s(name):
        return st[name].self_s if name in st else 0.0

    # engine
    ext = tracer.spans_named("engine.extend_transitivity")
    m["engine.extend_transitivity.calls"] = calls("engine.extend_transitivity")
    m["engine.extend_transitivity.total_s"] = total("engine.extend_transitivity")
    first, last = [], []
    for cmd in tracer.spans_named("cli.build"):
        steps = [sp for sp in ext if sp.parent == cmd.id]
        if steps:
            a, b = _tenths(steps)
            first += a
            last += b
    m["engine.extend_transitivity.ms_first10"] = 1e3 * _mean([_duration(s) for s in first])
    m["engine.extend_transitivity.ms_last10"] = 1e3 * _mean([_duration(s) for s in last])
    m["engine.ensure_faithful.calls"] = calls("engine.ensure_faithful")
    m["engine.ensure_faithful.total_s"] = total("engine.ensure_faithful")
    verify_s = total("engine.verify_certificate_report")
    replayed = sum(c["steps"] for c in pipe.certs.values())
    m["engine.verify_certificate_report.total_s"] = verify_s
    m["engine.verify_ms_per_step"] = 1e3 * verify_s / replayed if replayed else 0.0
    counts = pipe.deferral_counts()
    m["engine.false_deferrals"] = counts["false_deferrals"]
    m["engine.genuine_deferrals"] = counts["genuine_deferrals"]

    # hcf
    searches = tracer.spans_named("hcf.search_E_set")
    cands = [tracer.calls_under("action.LevelAction.act", sp.id) / sp.attrs["n"]
             for sp in searches]
    last_cands = []
    for cmd in tracer.spans_named("cli.build"):
        mine = [c for sp, c in zip(searches, cands) if by_id[sp.parent].parent == cmd.id]
        if mine:
            last_cands += _tenths(mine)[1]
    found = sum(1 for sp in searches if sp.attrs.get("found"))
    m["hcf.search_E_set.calls"] = len(searches)
    m["hcf.search_E_set.total_s"] = total("hcf.search_E_set")
    m["hcf.search_E_set.self_s"] = self_s("hcf.search_E_set")
    m["hcf.search_E_set.candidates_total"] = sum(cands)
    m["hcf.search_E_set.candidates_p50"] = statistics.median(cands) if cands else 0
    m["hcf.search_E_set.candidates_max"] = max(cands, default=0)
    m["hcf.search_E_set.candidates_last10"] = _mean(last_cands)
    m["hcf.search_E_set.protected_max"] = max((sp.attrs["protected"] for sp in searches),
                                              default=0)
    m["hcf.search_E_set.exhausted"] = sum(
        1 for sp in searches if not sp.attrs.get("found") and "raised" not in sp.attrs)
    m["hcf.search_E_set.hit_ratio"] = found / sum(cands) if cands and sum(cands) else 0.0
    in_steps = sum(_duration(sp) for sp in searches
                   if by_id[sp.parent].name == "engine.extend_transitivity")
    ext_s = total("engine.extend_transitivity")
    m["hcf.search_E_set.share_of_extend"] = in_steps / ext_s if ext_s else 0.0
    for name in ("audit_hcf", "certify_structural", "audit_highly_faithful"):
        m[f"hcf.{name}.total_s"] = total(f"hcf.{name}")

    # action
    checks = tracer.spans_named("action.check_equivariance")
    m["action.check_equivariance.calls"] = len(checks)
    m["action.check_equivariance.total_s"] = total("action.check_equivariance")
    lasts = []
    for cmd in tracer.spans_named("cli.verify"):
        mine = [sp for sp in checks if sp.parent == cmd.id]
        if mine:
            lasts.append(_duration(mine[-1]))
    m["action.check_equivariance.ms_last"] = 1e3 * _mean(lasts)
    m["action.check_equivariance.share_of_verify"] = (
        total("action.check_equivariance") / verify_s if verify_s else 0.0)
    for name in ("twist", "evaluate_pi"):
        m[f"action.{name}.calls"] = calls(f"action.{name}")
        m[f"action.{name}.total_s"] = total(f"action.{name}")
    m["action.allocate_fresh_orbits.total_s"] = total("action.allocate_fresh_orbits")
    m["action.commit_batch.calls"] = calls("action.commit_batch")
    m["action.LevelAction.act.calls"] = calls("action.LevelAction.act")
    m["action.anchors_final"] = sum(c["anchors"] for c in pipe.certs.values())

    # embeddings
    strategy_decompose = 0
    undecided = 0
    for s in STRATEGIES:
        for meth in ("contains", "decompose"):
            name = f"embeddings.{s}.{meth}"
            m[f"{name}.calls"] = calls(name)
            m[f"{name}.total_s"] = total(name)
            if name in st:
                undecided += st[name].errors.get("UndecidedError", 0)
        strategy_decompose += calls(f"embeddings.{s}.decompose")
    decompose = calls("embeddings.decompose")
    m["embeddings.decompose.calls"] = decompose
    m["embeddings.decompose.hit_ratio"] = 1 - strategy_decompose / decompose if decompose else 0.0
    m["embeddings.undecided"] = undecided

    # normal_forms
    for kind in ("amalgam", "hnn"):
        name = f"normal_forms.reduce_{kind}_tokens"
        n = calls(name)
        m[f"{name}.calls"] = n
        m[f"{name}.self_s"] = self_s(name)
        m[f"{name}.tokens_mean"] = st[name].size / n if n else 0.0
    m["normal_forms.parse_word.calls"] = calls("normal_forms.parse_word")
    m["normal_forms.parse_word.total_s"] = total("normal_forms.parse_word")

    # groups
    for kind, _ in GROUP_KINDS:
        m[f"groups.{kind}.multiply.calls"] = calls(f"groups.{kind}.multiply")
    for kind in ("amalgam", "hnn"):
        m[f"groups.{kind}.multiply.self_s"] = self_s(f"groups.{kind}.multiply")

    # graphs and problem
    m["graphs.reduce_edge.total_s"] = total("graphs.reduce_edge")
    m["graphs.validate_main_hypotheses.total_s"] = total("graphs.validate_main_hypotheses")
    for name in ("parse_problem", "emit_certificate", "load_certificate"):
        m[f"problem.{name}.total_s"] = total(f"problem.{name}")
    m["problem.cert_bytes"] = sum(c["bytes"] for c in pipe.certs.values())
    m["problem.cert_sha256_seed_matches"] = sum(
        1 for name, c in pipe.certs.items()
        if seed_shas.get(f"{name}@{pipe.budget}") == c["sha256"])
    return m
