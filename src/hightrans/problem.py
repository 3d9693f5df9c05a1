"""Problem-file parsing and canonical serialization.

A problem file is a single JSON document with sections ``groups``,
``embeddings``, optional ``graph`` or ``target``, ``bounds`` and
``budget``.  Group kinds are tagged by a ``kind`` field; words are the
human-writable strings accepted by ``parse_word`` ("a b^-2", "1").
The two records the loader validates, ``AuditBounds`` and ``Budget``, are
defined here, so loading a problem imports neither the audits nor the
engine.

Serialization is canonical: key-sorted, two-space indented, trailing
newline.  Equal inputs produce byte-identical documents, which is what
makes certificate comparison and the problem hash meaningful.
"""

from __future__ import annotations

import json

from .embeddings import Embedding
from .graphs import GraphEdge, GraphOfGroups, choose_reduction_edge, reduce_edge
from .groups import (
    AmalgamGroup,
    FiniteGroup,
    FreeAbelianGroup,
    FreeGroup,
    HnnGroup,
    SemidirectGroup,
    cyclic_group,
    symmetric_group,
    trivial_group,
)
from .normal_forms import parse_word


class ProblemError(ValueError):
    """Schema or resolution failures, one message per offence."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class AuditBounds:
    """The bounds of an audit: tuples of at most ``tuple_size_max``
    entries, points and protected sets from the ball of ``point_radius``,
    witnesses from the ball of ``witness_radius``."""

    def __init__(self, tuple_size_max=2, point_radius=2, witness_radius=4):
        self.tuple_size_max = tuple_size_max
        self.point_radius = point_radius
        self.witness_radius = witness_radius
        for name, value in vars(self).items():
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if min(vars(self).values()) < 1:
            raise ValueError("all audit bounds must be positive")
        if self.witness_radius < self.point_radius:
            raise ValueError("witness_radius must be >= point_radius")


class Budget:
    """The schedule steps a build runs, and the radius of its witness searches."""

    def __init__(self, steps, witness_radius=64):
        if type(steps) is not int or steps < 0:
            raise ValueError(f"steps must be a non-negative integer, got {steps!r}")
        if type(witness_radius) is not int or witness_radius < 1:
            raise ValueError(f"witness_radius must be a positive integer, "
                             f"got {witness_radius!r}")
        self.steps = steps
        self.witness_radius = witness_radius

    def as_dict(self):
        return {"steps": self.steps, "witness_radius": self.witness_radius}


class ProblemFile:
    """A validated problem: its document, its groups and embeddings by
    name, its graph or target group (either may be None), and its audit
    bounds and step budget."""

    def __init__(self, raw, groups, embeddings, graph, target, bounds, budget):
        self.raw = raw
        self.groups = groups
        self.embeddings = embeddings
        self.graph = graph
        self.target = target
        self.bounds = bounds
        self.budget = budget

    def digest(self):
        return problem_hash(self.raw)

    def build_group(self, source=None):
        """The composite group the engine acts for, and the ``source`` tag
        that names it in a certificate: ``{"edge": id}`` for the graph
        reduced at that edge, ``{"target": name}`` for the target group.

        With no tag, a graph is reduced at ``choose_reduction_edge``, else
        the target is taken.  A tag that names nothing raises ProblemError;
        whether the engine takes the group is EngineProblem's to decide.
        """
        kind, name = _source_tag(self._default_source() if source is None else source)
        if kind == "edge":
            if self.graph is None:
                raise ProblemError([f"source edge {name!r}: the problem has no graph"])
            try:
                gamma, _ = reduce_edge(self.graph, name)
            except ValueError as exc:
                raise ProblemError([str(exc)])
        else:
            if name != self.target:
                raise ProblemError([f"source target {name!r} is not the problem's target"])
            gamma = self.groups[name]
        return gamma, {kind: name}

    def _default_source(self):
        if self.graph is not None:
            try:
                return {"edge": choose_reduction_edge(self.graph)}
            except ValueError as exc:
                raise ProblemError([str(exc)])
        if self.target is not None:
            return {"target": self.target}
        raise ProblemError(["problem declares neither a graph nor a target group"])


def _source_tag(source):
    """(kind, name) of a well-formed source tag, else ProblemError."""
    if isinstance(source, dict) and len(source) == 1:
        (kind, name), = source.items()
        if kind in ("edge", "target") and isinstance(name, str):
            return kind, name
    raise ProblemError([f"source tag {source!r} is neither {{'edge': id}} nor {{'target': name}}"])


def canonical_text(data):
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def problem_hash(data):
    # hashlib loads OpenSSL here, so loading a problem file does not
    import hashlib

    return hashlib.sha256(canonical_text(data).encode("utf-8")).hexdigest()


def _read_json(path):
    """The JSON document in a file; ValueError if it is not UTF-8 JSON or nests too deeply."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None


def parse_problem(path):
    """Load and validate a problem file; raises ProblemError with one
    message per schema violation."""
    try:
        data = _read_json(path)
    except OSError as exc:
        raise ProblemError([f"cannot read {path}: {exc}"])
    except json.JSONDecodeError as exc:
        raise ProblemError([f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"])
    except ValueError as exc:
        raise ProblemError([f"{path}: {exc}"])
    return build_problem(data)


def build_problem(data):
    errors = []
    if not isinstance(data, dict):
        raise ProblemError(["problem document must be a JSON object"])
    errors += [f"unknown top-level key {key!r}" for key in sorted(set(data) - _PROBLEM_KEYS)]
    group_specs = data.get("groups")
    if not isinstance(group_specs, dict) or not group_specs:
        raise ProblemError(["missing groups"])
    emb_specs = data.get("embeddings", {})
    if not isinstance(emb_specs, dict):
        raise ProblemError(["embeddings must be an object"])

    groups, embeddings = {}, {}
    # each section: its resolved handles, its pending specs and its builder;
    # a pass resolves what it can, until a pass resolves nothing
    sections = [("groups", groups, dict(group_specs),
                 lambda name, spec: _try_build_group(name, spec, groups, embeddings)),
                ("embeddings", embeddings, dict(emb_specs),
                 lambda name, spec: _try_build_embedding(name, spec, groups))]
    progress = True
    while progress:
        progress = False
        for section, built, pending, build in sections:
            for name in sorted(pending):
                try:
                    built[name] = build(name, pending[name])
                except _NotReady:
                    continue
                except (ValueError, KeyError, TypeError) as exc:
                    errors.append(f"{section}.{name}: {exc}")
                del pending[name]
                progress = True
    for section, _, pending, _ in sections:
        errors += [f"{section}.{name}: unresolved references" for name in sorted(pending)]

    graph = None
    if "graph" in data and not errors:
        try:
            graph = _build_graph(data["graph"], groups, embeddings)
        except (ValueError, KeyError, TypeError) as exc:
            errors.append(f"graph: {exc}")

    target = data.get("target")
    if target is not None and (not isinstance(target, str) or target not in groups):
        errors.append(f"target: unknown group {target!r}")

    try:
        bounds = AuditBounds(**data.get("bounds", {}))
    except (TypeError, ValueError) as exc:
        errors.append(f"bounds: {exc}")
        bounds = AuditBounds()
    budget_spec = data.get("budget", {})
    try:
        if not isinstance(budget_spec, dict):
            raise ValueError(f"budget must be an object, got {budget_spec!r}")
        budget = Budget(**{"steps": 50, **budget_spec})
    except (TypeError, ValueError) as exc:
        errors.append(f"budget: {exc}")
        budget = Budget(steps=50)

    if errors:
        raise ProblemError(errors)
    return ProblemFile(raw=data, groups=groups, embeddings=embeddings,
                       graph=graph, target=target, bounds=bounds, budget=budget)


class _NotReady(Exception):
    pass


# the keys each part of a problem file may carry: exactly those the loader reads
_PROBLEM_KEYS = {"groups", "embeddings", "graph", "target", "bounds", "budget"}
_GROUP_KEYS = {
    "free": {"generators"},
    "free_abelian": {"generators"},
    "trivial": set(),
    "cyclic": {"order", "generator"},
    "symmetric": {"degree"},
    "finite": {"generators", "table"},
    "semidirect": {"acting", "matrices", "translations"},
    "amalgam": {"edge", "left", "right"},
    "hnn": {"edge", "base", "stable"},
}
_EMBEDDING_KEYS = {"source", "target", "images"}
_GRAPH_KEYS = {"name", "vertices", "edges", "base"}
_EDGE_KEYS = {"id", "source", "range", "group", "source_map", "range_map"}


def _known_keys(spec, allowed, where=""):
    """ValueError naming the first key of ``spec`` outside ``allowed``."""
    unknown = sorted(set(spec) - allowed)
    if unknown:
        raise ValueError(f"{where}unknown key {unknown[0]!r}")


def _need_group(groups, name):
    if name not in groups:
        raise _NotReady
    return groups[name]


def _try_build_group(name, spec, groups, embeddings):
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("group spec needs a kind")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _GROUP_KEYS:
        raise ValueError(f"unknown group kind {kind!r}")
    _known_keys(spec, {"kind"} | _GROUP_KEYS[kind])
    if kind == "free":
        return FreeGroup(name, _labels(spec, "generators"))
    if kind == "free_abelian":
        return FreeAbelianGroup(name, _labels(spec, "generators"))
    if kind == "trivial":
        return trivial_group(name)
    if kind == "cyclic":
        return cyclic_group(name, _integer(spec, "order"), spec["generator"])
    if kind == "symmetric":
        return symmetric_group(name, _integer(spec, "degree"))
    if kind == "finite":
        gens = spec["generators"]
        if not isinstance(gens, dict):
            raise ValueError("finite groups declare generators as a label-to-index object")
        labels = tuple(sorted(gens))
        return FiniteGroup(name, spec["table"], labels, tuple(gens[l] for l in labels))
    if kind == "semidirect":
        acting = _need_group(groups, spec["acting"])
        mats = spec["matrices"]
        if not isinstance(mats, dict):
            raise ValueError("semidirect matrices must be an object from index to matrix")
        return SemidirectGroup(name, acting, _labels(spec, "translations"), mats)
    if kind == "amalgam":
        e_left, e_right = _labels(spec, "edge")
        if e_left not in embeddings or e_right not in embeddings:
            raise _NotReady
        left = _need_group(groups, spec["left"])
        right = _need_group(groups, spec["right"])
        return AmalgamGroup(name, left, right, embeddings[e_left], embeddings[e_right])
    if kind == "hnn":
        e_r, e_s = _labels(spec, "edge")
        if e_r not in embeddings or e_s not in embeddings:
            raise _NotReady
        base = _need_group(groups, spec["base"])
        return HnnGroup(name, base, embeddings[e_r], embeddings[e_s],
                        stable_label=spec.get("stable", "t"))


def _labels(spec, key):
    value = spec[key]
    if not isinstance(value, list) or not all(isinstance(label, str) for label in value):
        raise ValueError(f"{key} must be a list of strings, got {value!r}")
    return tuple(value)


def _integer(spec, key):
    value = spec[key]
    if type(value) is not int:
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def _try_build_embedding(name, spec, groups):
    if not isinstance(spec, dict):
        raise ValueError("embedding spec must be an object")
    _known_keys(spec, _EMBEDDING_KEYS)
    source = _need_group(groups, spec["source"])
    target = _need_group(groups, spec["target"])
    images = [parse_word(target, w) for w in _labels(spec, "images")]
    return Embedding(name, source, target, images)


def _build_graph(spec, groups, embeddings):
    if not isinstance(spec, dict) or not isinstance(spec.get("vertices"), dict) \
            or not isinstance(spec.get("edges"), list):
        raise ValueError("a graph is an object with a vertices object and an edges list")
    _known_keys(spec, _GRAPH_KEYS)
    vertices = {vid: groups[gname] for vid, gname in spec["vertices"].items()}
    edges = []
    for i, e in enumerate(spec["edges"]):
        if not isinstance(e, dict):
            raise ValueError(f"edges[{i}] must be an object")
        _known_keys(e, _EDGE_KEYS, f"edges[{i}]: ")
        edges.append(GraphEdge(
            id=_string(e, "id"),
            source=_string(e, "source"),
            range=_string(e, "range"),
            group=groups[e["group"]],
            source_map=embeddings[e["source_map"]],
            range_map=embeddings[e["range_map"]],
        ))
    return GraphOfGroups(_string(spec, "name", "graph"), vertices, edges, spec.get("base"))


def _string(spec, key, default=None):
    value = spec[key] if default is None else spec.get(key, default)
    if not isinstance(value, str):
        raise ValueError(f"{key} must be a string, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# certificates on disk


def emit_certificate(cert, path):
    """Write the canonical serialization; equal certificates are
    byte-identical on disk."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_text(cert))


def load_certificate(path):
    cert = _read_json(path)
    if not isinstance(cert, dict):
        raise ValueError("a certificate must be a JSON object")
    return cert
