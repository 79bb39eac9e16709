"""Approximately-minimum edge sets preserving 2-vertex-connected structure.

Three nested problems are solved:

1. keep the 2-vertex-connected components intact,
2. additionally keep the whole graph strongly connected,
3. additionally keep the components of the coarsened graph (overlapping
   components contracted to super-vertices) intact.

Edges outside the components are irrelevant for problem 1, so it splits
into independent per-component subproblems: a minimum subgraph with in-
and out-degree >= 2 everywhere (computed exactly by a deletion flow),
re-augmented to 2-vertex-connectivity by deletion-minimalisation.  The
strong-connectivity part of problem 2 is handled on the coarsened graph by
a union of two arborescences pruned to deletion-minimality, which is at
most twice the optimum (weaker than the best published ratio, but simple
and certifiable).

Both prunings are one loop, ``_prune``, and each deletion is tested
locally by one lemma, for k = 2 and k = 1.  If D is k-vertex-connected
(strongly connected for k = 1) and e = (u, v) is an edge of D, then D - e
is k-vertex-connected iff D - e has k internally vertex-disjoint u->v
paths.  A set X of fewer than k vertices that disconnects D - e contains
neither u nor v (else D - e - X = D - X, which is strongly connected), so
D - X - e has no u->v path (else adding e back could not make it strongly
connected), and X meets every u->v path of D - e; the converse is
Menger's theorem.  So one Menger flow capped at k
(``_flow._min_st_vertex_cut``) decides each deletion, provided the graph
before it is k-vertex-connected, which every accepted deletion preserves.
The flow runs on the current edge set's own adjacency: the loop keeps one
mutable copy of the rows, scans the candidates in descending (u, v)
order, removes each from its tail's row for the test and puts it back in
place on a reject, so the flow sees exactly D - e.

Every result carries a recomputed certificate so that validity never
rests on the construction being right: the components are built with
``two_vccs_domtree`` once per graph and the certificates are recomputed
once each with ``two_vccs_split``, a different engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._flow import FlowNetwork, _min_st_vertex_cut
from .articulation import is_2vertex_connected
from .connectivity import is_strongly_connected, strongly_connected_components
from .errors import NotStronglyConnected, NotTwoVertexConnected
from .graph import DiGraph, Edge, induced_subgraph, strip_labels
from .twovcc import ComponentList, two_vccs_domtree, two_vccs_split


@dataclass(frozen=True)
class CoarsenedGraph:
    """Quotient of a graph under contraction of overlapping components.

    ``classes[i]`` is the sorted set of original vertices merged into
    super-vertex i (classes are ordered by their smallest member);
    ``edge_origins`` maps each quotient edge to the lexicographically
    smallest original edge realising it.
    """

    graph: DiGraph
    classes: tuple[tuple[int, ...], ...]
    edge_origins: dict[Edge, Edge]


@dataclass(frozen=True)
class SparsifyResult:
    """Retained edge set plus the data needed to certify it."""

    problem: int
    edges: tuple[Edge, ...]
    components: tuple[tuple[int, ...], ...]
    per_component_edges: tuple[tuple[Edge, ...], ...]
    recomputed_components: tuple[tuple[int, ...], ...]
    strongly_connected: bool | None = None
    coarse_components: tuple[tuple[int, ...], ...] | None = None
    recomputed_coarse_components: tuple[tuple[int, ...], ...] | None = None

    @property
    def size(self) -> int:
        return len(self.edges)

    @property
    def certificate_ok(self) -> bool:
        if self.components != self.recomputed_components:
            return False
        if self.strongly_connected is False:
            return False
        if self.coarse_components != self.recomputed_coarse_components:
            return False
        return True


def coarsen(g: DiGraph) -> CoarsenedGraph:
    """Contract each union of overlapping components to a super-vertex."""
    g = strip_labels(g)
    return _quotient(g, two_vccs_domtree(g))


def _quotient(g: DiGraph, comps: ComponentList) -> CoarsenedGraph:
    """``coarsen`` for a label-free g whose components are already known.

    The classes are the SCCs of the star graph that joins each
    component's first vertex to its other vertices in both directions:
    overlapping components share a vertex, so their stars share an SCC.
    ``strongly_connected_components`` orders them by smallest member.
    """
    star = [(c[0], v) for c in comps for v in c[1:]]
    scc = strongly_connected_components(DiGraph(g.n, star + [(v, u) for u, v in star]))
    classes, cls_of = scc.components, scc.component_id
    edge_origins: dict[Edge, Edge] = {}
    for u, v in g.edges:
        cu, cv = cls_of[u], cls_of[v]
        if cu != cv and (cu, cv) not in edge_origins:
            edge_origins[(cu, cv)] = (u, v)
    quotient = DiGraph(len(classes), edge_origins.keys())
    return CoarsenedGraph(quotient, classes, edge_origins)


def min_degree2_subgraph(g: DiGraph) -> tuple[Edge, ...]:
    """Minimum edge subset keeping out- and in-degree >= 2 at every vertex.

    Solved exactly: deleting an edge (u, v) spends one unit of u's
    out-budget (outdeg-2) and one of v's in-budget (indeg-2), so the
    maximum number of deletable edges is a bipartite flow.

    The flow is seeded greedily and finished by Edmonds-Karp, and the kept
    edges are exactly those of plain Edmonds-Karp on the same network.
    Call (u, v) available while u has out-budget, the edge is unused and v
    has in-budget; the source->sink paths of length 3 are the s->u->v'->t
    of the available (u, v).  The network adds the source arcs by
    ascending u, then the edge arcs in the (sorted) order of ``g.edges``,
    then the sink arcs.  So a breadth-first search from s labels every u
    with out-budget before any v', labels each v' from the least such u
    with an unused edge to it, and labels t from the first v' with
    in-budget: while a length-3 path is left, Edmonds-Karp pushes along
    the one of the lexicographically smallest available (u, v).  The
    greedy pass scans ``g.edges`` in that order and pushes every pair
    available when it is reached.  Availability only shrinks, so a pair
    passed over never becomes available again; the pass makes the same
    pushes in the same order as Edmonds-Karp's length-3 phase, and both
    end with no length-3 path.  From that identical residual network
    Edmonds-Karp makes the same remaining augmentations, so the same edge
    arcs end saturated.
    """
    if not is_2vertex_connected(g):
        raise NotTwoVertexConnected(f"{g!r} is not 2-vertex-connected")
    n = g.n
    edges = g.edges
    source, sink = 0, 1
    net = FlowNetwork(2 + 2 * n)
    cap = net.cap
    source_arcs = [-1] * n
    for v in range(n):
        out_budget = len(g.out_adj[v]) - 2
        if out_budget > 0:
            source_arcs[v] = net.add_edge(source, 2 + v, out_budget)
    edge_arcs = [net.add_edge(2 + u, 2 + n + v, 1) for u, v in edges]
    sink_arcs = [-1] * n
    for v in range(n):
        in_budget = len(g.in_adj[v]) - 2
        if in_budget > 0:
            sink_arcs[v] = net.add_edge(2 + n + v, sink, in_budget)
    for (u, v), arc in zip(edges, edge_arcs):
        a, b = source_arcs[u], sink_arcs[v]
        if a >= 0 and b >= 0 and cap[a] > 0 and cap[b] > 0:
            cap[a] -= 1
            cap[a ^ 1] += 1
            cap[arc] = 0
            cap[arc ^ 1] = 1
            cap[b] -= 1
            cap[b ^ 1] += 1
    # len(edges) bounds the flow: each unit saturates one unit edge arc.
    net.max_flow(source, sink, len(edges))
    return tuple(e for e, arc in zip(edges, edge_arcs) if cap[arc] > 0)


def _prune(rows: list[list[int]], edges, still_ok, keep=()) -> tuple[Edge, ...]:
    """Delete from the graph with out-adjacency ``rows`` every edge of
    ``edges`` outside ``keep`` whose removal ``still_ok(rows, u, v)``
    accepts; returns the kept edges in ascending order.

    ``edges`` is ascending and the scan runs it backwards, in descending
    (u, v) order.  Each candidate leaves its tail's row for the test and
    goes back to the same place on a reject, so the test sees exactly the
    current edge set minus (u, v).
    """
    for u, v in reversed(edges):
        if (u, v) in keep:
            continue
        row = rows[u]
        i = row.index(v)
        del row[i]
        if not still_ok(rows, u, v):
            row.insert(i, v)
    return tuple((u, v) for u, row in enumerate(rows) for v in row)


def _edge_set_is_2vc(out_adj: list[list[int]], u: int, v: int) -> bool:
    """Whether a 2-vertex-connected graph stays so without its edge (u, v).

    ``out_adj`` holds the graph's rows with v already removed from row u;
    by the lemma in the module docstring (k = 2) the answer is whether two
    internally vertex-disjoint u->v paths remain.
    """
    return _min_st_vertex_cut(out_adj, u, v, 2)[0] == 2


def _edge_set_is_strongly_connected(out_adj: list[list[int]], u: int, v: int) -> bool:
    """Whether a strongly connected graph stays so without its edge (u, v).

    ``out_adj`` holds the graph's rows with v already removed from row u;
    by the lemma in the module docstring (k = 1) the answer is whether a
    u->v path remains.
    """
    return _min_st_vertex_cut(out_adj, u, v, 1)[0] == 1


def approx_2vcss(g: DiGraph) -> tuple[Edge, ...]:
    """2-vertex-connected spanning edge set within 1.5x of the minimum.

    Starts from the exact minimum degree-2 core and removes every other
    edge whose deletion keeps the graph 2-vertex-connected, scanning in
    descending (u, v) order.  Deletions only get harder as edges go, so a
    single pass reaches a deletion-minimal superset of the core.

    g must be 2-vertex-connected (``min_degree2_subgraph`` checks it), and
    each accepted deletion keeps it so; that is the precondition under
    which one capped flow on the kept edges decides each deletion exactly
    (see the module docstring).
    """
    core = set(min_degree2_subgraph(g))
    return _prune([list(row) for row in g.out_adj], g.edges, _edge_set_is_2vc, core)


def _dfs_tree(adj) -> list[Edge]:
    """(parent, child) pairs of the DFS tree from vertex 0 along ``adj``;
    each row is pushed in order, so its last entry is explored first."""
    seen = [False] * len(adj)
    stack = [(0, -1)]
    tree: list[Edge] = []
    while stack:
        u, p = stack.pop()
        if seen[u]:
            continue
        seen[u] = True
        if p >= 0:
            tree.append((p, u))
        for w in adj[u]:
            if not seen[w]:
                stack.append((w, u))
    return tree


def approx_mscss(g: DiGraph) -> tuple[Edge, ...]:
    """Strongly connected spanning edge set within 2x of the minimum.

    Union of an out-arborescence and an in-arborescence rooted at vertex 0
    (at most 2n-2 edges; any strongly connected subgraph needs n), pruned
    to deletion-minimality in descending (u, v) order.  The union is
    strongly connected and each accepted deletion keeps it so, so by the
    lemma in the module docstring (k = 1) an edge (u, v) goes exactly when
    a u->v path remains without it: one flow capped at 1 on the kept
    edges' rows.
    """
    if not is_strongly_connected(g):
        raise NotStronglyConnected(f"{g!r} is not strongly connected")
    # The out-arborescence explores ascending neighbours first and the
    # in-arborescence, along reversed edges, descending ones: the opposite
    # orientation lets the two trees share cycle edges instead of doubling
    # them.
    union = set(_dfs_tree([row[::-1] for row in g.out_adj]))
    union.update((u, p) for p, u in _dfs_tree(g.in_adj))
    edges = sorted(union)
    rows: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in edges:
        rows[u].append(v)
    return _prune(rows, edges, _edge_set_is_strongly_connected)


def _retain_components(
    g: DiGraph, comps: ComponentList
) -> tuple[tuple[tuple[Edge, ...], ...], set[Edge]]:
    """Problem 1's edges: an approximate 2-VCSS of every component of g,
    per component and united."""
    per_component: list[tuple[Edge, ...]] = []
    retained: set[Edge] = set()
    for comp in comps:
        sub = induced_subgraph(g, comp)
        labels = sub.origin_labels
        kept = tuple(sorted((labels[u], labels[v]) for u, v in approx_2vcss(sub)))
        per_component.append(kept)
        retained.update(kept)
    return tuple(per_component), retained


def sparsify_problem1(g: DiGraph) -> SparsifyResult:
    """Fewest edges (approximately) whose graph has the same components."""
    g = strip_labels(g)
    comps = two_vccs_domtree(g)
    per_component, retained = _retain_components(g, comps)
    edges = tuple(sorted(retained))
    return SparsifyResult(
        problem=1,
        edges=edges,
        components=tuple(comps),
        per_component_edges=per_component,
        recomputed_components=tuple(two_vccs_split(DiGraph(g.n, edges))),
    )


def sparsify_problem2(g: DiGraph) -> SparsifyResult:
    """Problem 1 plus strong connectivity of the retained graph."""
    g = strip_labels(g)
    if not is_strongly_connected(g):
        raise NotStronglyConnected(f"{g!r} is not strongly connected")
    comps = two_vccs_domtree(g)
    per_component, retained = _retain_components(g, comps)
    coarse = _quotient(g, comps)
    for ce in approx_mscss(coarse.graph):
        retained.add(coarse.edge_origins[ce])
    edges = tuple(sorted(retained))
    sparse = DiGraph(g.n, edges)
    return SparsifyResult(
        problem=2,
        edges=edges,
        components=tuple(comps),
        per_component_edges=per_component,
        recomputed_components=tuple(two_vccs_split(sparse)),
        strongly_connected=is_strongly_connected(sparse),
    )


def sparsify_problem3(g: DiGraph) -> SparsifyResult:
    """Problem 1 on the graph and on its coarsened graph simultaneously."""
    g = strip_labels(g)
    comps = two_vccs_domtree(g)
    per_component, retained = _retain_components(g, comps)
    coarse = _quotient(g, comps)
    coarse_comps = two_vccs_domtree(coarse.graph)
    for ce in _retain_components(coarse.graph, coarse_comps)[1]:
        retained.add(coarse.edge_origins[ce])
    edges = tuple(sorted(retained))
    sparse = DiGraph(g.n, edges)
    recomputed = two_vccs_split(sparse)
    recoarse = _quotient(sparse, recomputed)
    return SparsifyResult(
        problem=3,
        edges=edges,
        components=tuple(comps),
        per_component_edges=per_component,
        recomputed_components=tuple(recomputed),
        coarse_components=tuple(coarse_comps),
        recomputed_coarse_components=tuple(two_vccs_split(recoarse.graph)),
    )
