"""Minimum vertex cuts, 3-vertex-connected components, and the generic
k-vertex-connected-component recursion.

Vertex connectivity is computed by max-flow on the vertex-split network
(each vertex becomes an in-node -> out-node arc of unit capacity).  A
single sweep source does not suffice for directed graphs, so sources
0..kappa are swept; any minimum cut misses at least one of them, which
makes the sweep complete.  Complete bidirected graphs have no cut and get
connectivity n-1 by convention.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._flow import FlowNetwork
from .connectivity import _group_components, _scc_ids, is_strongly_connected
from .errors import InvalidK, NoCutExists, NotStronglyConnected
from .graph import DiGraph, induced_subgraph, strip_labels
from .twovcc import ComponentList, two_vccs_domtree


@dataclass(frozen=True)
class VertexCut:
    """A vertex set whose removal destroys strong connectivity."""

    vertices: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.vertices)


def _is_complete_bidirected(g: DiGraph) -> bool:
    return g.m == g.n * (g.n - 1)


def _min_st_vertex_cut(g: DiGraph, s: int, t: int) -> tuple[int, tuple[int, ...]]:
    """Fewest vertices (excluding s, t) meeting every s->t path.

    Requires (s, t) not an edge.  Vertex v splits into nodes 2v (in) and
    2v+1 (out) joined by a unit arc; graph edges get effectively infinite
    capacity.
    """
    n = g.n
    big = n + 1
    net = FlowNetwork(2 * n)
    for v in range(n):
        net.add_edge(2 * v, 2 * v + 1, big if v in (s, t) else 1)
    for u in range(n):
        for w in g.out_adj[u]:
            net.add_edge(2 * u + 1, 2 * w, big)
    value = net.max_flow(2 * s + 1, 2 * t)
    side = net.reachable_in_residual(2 * s + 1)
    cut = tuple(v for v in range(n) if side[2 * v] and not side[2 * v + 1])
    return value, cut


def _global_min_cut(g: DiGraph) -> tuple[int, tuple[int, ...]]:
    """Global minimum vertex cut of a strongly connected, non-complete graph.

    Sweeps flow computations from sources 0, 1, ... until more sources
    than the best cut size have been tried; every cut misses one of those
    sources, so the minimum found is the true minimum.  Among minimum cuts
    encountered, the lexicographically smallest is returned.
    """
    n = g.n
    best: int | None = None
    found: list[tuple[int, ...]] = []
    out_sets = [set(row) for row in g.out_adj]
    s = 0
    while s < n and (best is None or s <= best):
        for t in range(n):
            if t == s:
                continue
            if t not in out_sets[s]:
                value, cut = _min_st_vertex_cut(g, s, t)
                if best is None or value < best:
                    best, found = value, [cut]
                elif value == best:
                    found.append(cut)
            if s not in out_sets[t]:
                value, cut = _min_st_vertex_cut(g, t, s)
                if best is None or value < best:
                    best, found = value, [cut]
                elif value == best:
                    found.append(cut)
        s += 1
    assert best is not None  # unreachable: non-complete graphs have a cut
    return best, min(found)


def vertex_connectivity(g: DiGraph) -> int:
    """Minimum number of vertices whose removal destroys strong
    connectivity; n-1 for complete bidirected graphs by convention."""
    if not is_strongly_connected(g):
        raise NotStronglyConnected(f"{g!r} is not strongly connected")
    if _is_complete_bidirected(g):
        return g.n - 1
    kappa, _ = _global_min_cut(g)
    return kappa


def min_vertex_cut(g: DiGraph) -> VertexCut:
    """A minimum vertex cut; deterministic (lexicographically smallest
    among the minimum cuts produced by the fixed sweep order)."""
    if not is_strongly_connected(g):
        raise NotStronglyConnected(f"{g!r} is not strongly connected")
    if _is_complete_bidirected(g):
        raise NoCutExists("complete bidirected graphs have no vertex cut")
    _, cut = _global_min_cut(g)
    return VertexCut(cut)


def is_k_vertex_connected(g: DiGraph, k: int) -> bool:
    """True iff g has >= k+1 vertices and stays strongly connected under
    removal of any fewer than k vertices."""
    if k < 1:
        raise InvalidK(f"k must be >= 1, got {k}")
    if g.n < k + 1 or not is_strongly_connected(g):
        return False
    return vertex_connectivity(g) >= k


def k_vccs(g: DiGraph, k: int) -> ComponentList:
    """Vertex sets of the maximal k-vertex-connected subgraphs of g.

    k = 2 delegates to the dominator-tree engine ``two_vccs_domtree``.
    For k > 2: a k-connected graph is itself a component; a
    (k-1)-connected one is split along a minimum cut X (of size exactly
    k-1) into the SCCs of G minus X, each rejoined with X; anything else
    recurses into its (k-1)-vertex-connected components first.
    """
    if k < 2:
        raise InvalidK(f"k must be >= 2, got {k}")
    if k == 2:
        return two_vccs_domtree(g)
    out: list[tuple[int, ...]] = []
    work = [strip_labels(g)]
    while work:
        h = work.pop()
        if h.n < k + 1:
            continue
        if not is_strongly_connected(h):
            comp, _ = _scc_ids(h.n, h.out_adj)
            for c in _group_components(h.n, comp):
                if len(c) >= k + 1:
                    work.append(induced_subgraph(h, c))
            continue
        if _is_complete_bidirected(h):
            out.append(h.origin_labels)  # kappa = n-1 >= k since n >= k+1
            continue
        kappa, cut = _global_min_cut(h)
        if kappa >= k:
            out.append(h.origin_labels)
        elif kappa == k - 1:
            drop = set(cut)
            keep = [v for v in range(h.n) if v not in drop]
            rest = induced_subgraph(h, keep)
            comp, _ = _scc_ids(rest.n, rest.out_adj)
            for c in _group_components(rest.n, comp):
                part = sorted({keep[i] for i in c} | drop)
                work.append(induced_subgraph(h, part))
        else:
            for c in k_vccs(h, k - 1):
                work.append(induced_subgraph(h, c))
    comps = sorted({tuple(sorted(c)) for c in out})
    return _drop_non_maximal(comps)


def _drop_non_maximal(comps: ComponentList) -> ComponentList:
    """Defensive maximality filter; a no-op on all known inputs."""
    keep: list[tuple[int, ...]] = []
    sets = [set(c) for c in comps]
    for i, c in enumerate(comps):
        ci = sets[i]
        if any(i != j and ci < sets[j] for j in range(len(comps))):
            continue
        keep.append(c)
    return keep


def three_vccs(g: DiGraph) -> ComponentList:
    """Vertex sets of the maximal 3-vertex-connected subgraphs of g."""
    return k_vccs(g, 3)
