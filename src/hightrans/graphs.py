"""Finite graphs of groups: hypothesis validation and edge reduction.

A graph of groups carries one group per vertex and, per geometric edge, an
edge group with a monomorphism into each endpoint group (the inverse edge
is implicit and shares the edge group).  Removing one geometric edge
either keeps the graph connected, in which case the fundamental group is
an HNN extension of the smaller graph's fundamental group with the edge as
stable letter, or splits it in two, giving an amalgam of the two sides
over the edge group.  Iterating over non-tree edges first and tree edges
last realizes the fundamental group as nested composite handles whose
normal forms are exactly the relations of the presentation (tree edges
collapse, non-tree edges conjugate).
"""

from __future__ import annotations

from .embeddings import Embedding
from .groups import AmalgamGroup, HnnGroup


class GraphEdge:
    """A geometric edge: its id, the ids of its source and range vertices,
    its edge group, and the embeddings of that group into the two vertex
    groups."""

    def __init__(self, id, source, range, group, source_map, range_map):
        self.id = id
        self.source = source
        self.range = range
        self.group = group
        self.source_map = source_map
        self.range_map = range_map


class GraphOfGroups:
    def __init__(self, name, vertices, edges, base=None):
        self.name = name
        self.vertices = dict(vertices)
        self.edges = list(edges)
        if not self.vertices:
            raise ValueError(f"{name}: a graph of groups needs at least one vertex")
        self.base = base if base is not None else next(iter(self.vertices))
        if self.base not in self.vertices:
            raise ValueError(f"{name}: base vertex {self.base!r} is not a vertex")
        ids = [e.id for e in self.edges]
        if len(set(ids)) != len(ids):
            raise ValueError(f"{name}: duplicate edge ids")
        for e in self.edges:
            if e.source not in self.vertices or e.range not in self.vertices:
                raise ValueError(f"{name}: edge {e.id!r} touches unknown vertices")
            if e.source_map.source is not e.group or e.range_map.source is not e.group:
                raise ValueError(f"{name}: edge {e.id!r} maps must start at the edge group")
            if e.source_map.target is not self.vertices[e.source]:
                raise ValueError(f"{name}: edge {e.id!r} source map lands in the wrong group")
            if e.range_map.target is not self.vertices[e.range]:
                raise ValueError(f"{name}: edge {e.id!r} range map lands in the wrong group")
        if len(_reach(self, self.base)) != len(self.vertices):
            raise ValueError(f"{name}: the underlying graph must be connected")

    def edge(self, edge_id):
        for e in self.edges:
            if e.id == edge_id:
                return e
        raise ValueError(f"{self.name}: no edge {edge_id!r}")


def _reach(graph, start, skip=None):
    """Breadth-first walk from ``start``, leaving out edge ``skip``: each
    reached vertex, in the order reached, mapped to the id of the edge that
    first reached it (``None`` for ``start``).  Each vertex tries its edges
    in declaration order."""
    adjacent = {v: [] for v in graph.vertices}
    for e in graph.edges:
        if e.id != skip:
            adjacent[e.source].append((e.id, e.range))
            adjacent[e.range].append((e.id, e.source))
    reached = {start: None}
    queue = [start]
    for v in queue:
        for edge_id, w in adjacent[v]:
            if w not in reached:
                reached[w] = edge_id
                queue.append(w)
    return reached


def spanning_tree(graph):
    """Edge ids of the breadth-first spanning tree from the base vertex,
    edges considered in declaration order."""
    return list(_reach(graph, graph.base).values())[1:]


def _subgraph(graph, vertices, skip_edge, base):
    vs = {v: graph.vertices[v] for v in vertices}
    es = [e for e in graph.edges
          if e.id != skip_edge and e.source in vs and e.range in vs]
    return GraphOfGroups(f"{graph.name}|{base}", vs, es, base)


def _compose_into(inner, include, name, target):
    images = [include(inner.apply(g)) for g in inner.source.generators()]
    return Embedding(name, inner.source, target, images, check=False)


def reduce_edge(graph, edge_id):
    """Remove one geometric edge and present the fundamental group: its
    handle, and the inclusion of each vertex group into it.

    Connected remainder: HNN over the remainder's fundamental group, with
    the range map giving the conjugated subgroup and the source map its
    image.  Disconnected remainder: amalgam of the two components over the
    edge group.
    """
    e = graph.edge(edge_id)
    comp = _reach(graph, e.source, skip=edge_id)
    if e.range in comp:
        sub = _subgraph(graph, graph.vertices, edge_id, graph.base)
        base_handle, incl = _fundamental_group(sub)
        e_r = _compose_into(e.range_map, incl[e.range], f"{edge_id}.r", base_handle)
        e_s = _compose_into(e.source_map, incl[e.source], f"{edge_id}.s", base_handle)
        gamma = HnnGroup(f"hnn[{graph.name}:{edge_id}]", base_handle, e_r, e_s,
                         stable_label=edge_id)
        inclusions = {v: _chain(incl[v], gamma.include) for v in graph.vertices}
        return gamma, inclusions
    left_vs = sorted(comp)
    right_vs = sorted(set(graph.vertices).difference(comp))
    left_sub = _subgraph(graph, left_vs, edge_id, e.source)
    right_sub = _subgraph(graph, right_vs, edge_id, e.range)
    left_handle, incl_l = _fundamental_group(left_sub)
    right_handle, incl_r = _fundamental_group(right_sub)
    e_left = _compose_into(e.source_map, incl_l[e.source], f"{edge_id}.l", left_handle)
    e_right = _compose_into(e.range_map, incl_r[e.range], f"{edge_id}.rr", right_handle)
    gamma = AmalgamGroup(f"amalgam[{graph.name}:{edge_id}]",
                         left_handle, right_handle, e_left, e_right)
    inclusions = {}
    for v in left_vs:
        inclusions[v] = _chain(incl_l[v], lambda x: gamma.include(0, x))
    for v in right_vs:
        inclusions[v] = _chain(incl_r[v], lambda x: gamma.include(1, x))
    return gamma, inclusions


def _chain(first, second):
    return lambda x: second(first(x))


def _fundamental_group(graph):
    """(handle, inclusion map per vertex) by iterated edge reduction:
    non-tree edges first (HNN layers), then tree edges (amalgams)."""
    if not graph.edges:
        (vid, handle), = graph.vertices.items()
        return handle, {vid: lambda x: x}
    tree = set(spanning_tree(graph))
    non_tree = [e for e in graph.edges if e.id not in tree]
    target = non_tree[0] if non_tree else graph.edges[0]
    return reduce_edge(graph, target.id)


def choose_reduction_edge(graph):
    """First geometric edge whose removal disconnects (the amalgam form is
    cheaper downstream), else the first edge."""
    if not graph.edges:
        raise ValueError(f"{graph.name}: no edges to reduce")
    for e in graph.edges:
        if e.range not in _reach(graph, e.source, skip=e.id):
            return e.id
    return graph.edges[0].id


def validate_main_hypotheses(graph, bounds=None):
    """Per-vertex infiniteness and per-edge core-freeness diagnostics.

    Vertex infiniteness is the group's own ``is_finite``; each edge map
    gets the bounded core-freeness audit plus the structural certificate
    as corroboration.
    The overall status is the worst of the vertex and hcf statuses.
    Audits run at ``bounds``, or at the audits' defaults when it is None.
    """
    # the audits load here, so parsing a problem file does not load them
    from . import hcf

    report = {"vertices": {}, "edges": {}}
    statuses = []
    for vid, handle in sorted(graph.vertices.items()):
        infinite = not handle.is_finite()
        report["vertices"][vid] = {
            "group": handle.name,
            "infinite": infinite,
            "status": "pass" if infinite else "fail",
        }
        statuses.append(report["vertices"][vid]["status"])
    for e in graph.edges:
        entry = {}
        for tag, emb in (("source", e.source_map), ("range", e.range_map)):
            hcf_verdict = hcf.audit_hcf(emb, bounds)
            structural = hcf.certify_structural(emb, bounds)
            entry[tag] = {
                "embedding": emb.name,
                "hcf": hcf_verdict,
                "structural": structural,
            }
            statuses.append(hcf_verdict.status)
        report["edges"][e.id] = entry
    report["overall"] = hcf.worst(statuses)
    return report


def __getattr__(name):
    # graphs.audit_hcf and graphs.certify_structural name the audits that
    # validate_main_hypotheses runs; bench/test_bench.py reads them.  They
    # resolve from hcf when read, so loading this module does not load hcf.
    if name in ("audit_hcf", "certify_structural"):
        from . import hcf
        return getattr(hcf, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
