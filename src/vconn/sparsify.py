"""Approximately-minimum edge sets preserving 2-vertex-connected structure.

Three nested problems are solved:

1. keep the 2-vertex-connected components intact,
2. additionally keep the whole graph strongly connected,
3. additionally keep the components of the coarsened graph (overlapping
   components contracted to super-vertices) intact.

Edges outside the components are irrelevant for problem 1, so it splits
into independent per-component subproblems: a minimum subgraph with in-
and out-degree >= 2 everywhere (computed exactly by a deletion flow),
re-augmented to 2-vertex-connectivity by deletion-minimalisation.  That
core is a lower bound on any 2-vertex-connected spanning subgraph, and
each component gets only the work it needs: the flow network is built
only when the greedy seed is not already a maximum flow, and the
deletion loop runs only when the core itself is not 2-vertex-connected
(otherwise the result is the core).  The strong-connectivity part of
problem 2 is handled on the coarsened graph by a union of two
arborescences pruned to deletion-minimality, which is at most twice the
optimum (weaker than the best published ratio, but simple and
certifiable).

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
order, removes each from its tail's row for the test and appends it back
on a reject, so the flow sees exactly D - e.  Row order is free: a flow
value does not depend on the order in which a row lists its edges.

Problem 1 is one function, ``_problem1``; problem 2 adds one step on
the coarsened graph, and problem 3 runs ``_problem1`` again on it.  It
sparsifies each component on the subgraph the engine built for it
(``twovcc._domtree_pieces``).  Each vertex set's 2-vertex-connectivity is
decided once; the only graph the sparsifiers test is a component's core,
which has fewer edges than the component.  The public
``min_degree2_subgraph`` and ``approx_2vcss`` check their input, which
comes from outside; the sparsifiers take it from the engine, as
``_problem1`` says.

Every result carries a certificate recomputed by a different engine: the
components are built with the ``domtree`` engine once per graph and the
certificate's components are recomputed once each with
``two_vccs_split``.  It proves that the retained graph's components are
exactly the claimed list.  So it catches a claimed set that is not
2-vertex-connected, such as a merge of two components: ``split`` could
not return it for the retained graph either (a set 2-vertex-connected
there is so in g, which only has more edges).  It also catches a
deletion that breaks a component.  It does not prove that the claimed
list is g's: a component or a vertex that the engine leaves out keeps no
edges, so the retained graph lacks it too and the two lists agree.  A
failed certificate makes ``certificate_ok`` False, and ``vconn sparsify``
exits 1 on it.  ``split`` starts from the blocks of
the undirected shadow, so on a bare chain of q cliques a certificate
costs q articulation tests, one per clique.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._flow import FlowNetwork, _min_st_vertex_cut
from .articulation import _points_and_trees, is_2vertex_connected
from .connectivity import is_strongly_connected, strongly_connected_components
from .dominators import _preorder
from .errors import NotStronglyConnected, NotTwoVertexConnected
from .graph import DiGraph, Edge
from .twovcc import ComponentList, _canonical, _domtree_pieces, two_vccs_domtree, two_vccs_split


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
    """Retained edge set plus the data needed to certify it.

    ``certificate_ok`` holds when ``two_vccs_split`` finds exactly the
    claimed ``components`` in the retained graph, the retained graph is
    strongly connected where problem 2 asks it, and for problem 3 ``split``
    finds exactly the claimed ``coarse_components`` in the retained graph's
    coarsened graph.  It is False for a claimed set that is not
    2-vertex-connected, such as a merge, and for a deletion that breaks a
    component.  It cannot see a component or a vertex that the engine left
    out of the claimed list, because the retained graph lacks it too.
    """

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
    return _quotient(g, two_vccs_domtree(g))


def _quotient(g: DiGraph, comps: ComponentList) -> CoarsenedGraph:
    """``coarsen`` for a g whose components are already known; like
    every result here, it is in g's own ids, whatever g's labels are.

    The classes are the SCCs of the star graph that joins each
    component's first vertex to its other vertices in both directions:
    overlapping components share a vertex, so their stars share an SCC.
    ``strongly_connected_components`` orders them by smallest member.
    The star is symmetric, so one set of sorted rows serves as its out-
    and in-adjacency, and the rows are canonical without ``DiGraph``'s
    pass: no loop, since v != c[0], and no repeat, since two components
    share at most one vertex.
    """
    star = [(c[0], v) for c in comps for v in c[1:]]
    rows: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in star + [(v, u) for u, v in star]:
        rows[u].append(v)
    adj = tuple(tuple(sorted(row)) for row in rows)
    scc = strongly_connected_components(DiGraph._from_adj(g.n, adj, adj, g.origin_labels))
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
    maximum number of deletable edges is a bipartite flow.  Every vertex
    gets a source arc and a sink arc with its budgets as capacities; g is
    2-vertex-connected, so no budget is negative, and a vertex of degree 2
    gets arcs of capacity 0, which neither the seed nor a search crosses.
    So the paths below are those of a network without such arcs.

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

    The seed runs on plain budget arrays, and the network is built, in
    the seeded state, only when the seed leaves budget on both sides.  If
    no out-budget is left, every source arc is saturated, so the seed's
    flow equals the capacity of the cut around s and is maximum (likewise
    for the in-budgets and t); Edmonds-Karp would find no augmenting path,
    and the kept edges are the ones the seed left unused.

    Every vertex keeps in- and out-degree >= 2, so on n <= 4 vertices the
    kept edges are 2-vertex-connected by ``connectivity._dense``'s bound
    for k = 2 (2 * 2 >= n), and ``approx_2vcss`` returns them unchanged.

    g must be 2-vertex-connected, which this public entry point checks;
    ``_problem1`` calls ``_min_degree2_edges`` without the check, and its
    docstring says why.
    """
    if not is_2vertex_connected(g):
        raise NotTwoVertexConnected(f"{g!r} is not 2-vertex-connected")
    return _min_degree2_edges(g)


def _min_degree2_edges(g: DiGraph) -> tuple[Edge, ...]:
    """``min_degree2_subgraph`` of a g known to be 2-vertex-connected,
    without the check."""
    n, edges = g.n, g.edges
    out_left = [len(row) - 2 for row in g.out_adj]
    in_left = [len(row) - 2 for row in g.in_adj]
    used = [0] * len(edges)
    for i, (u, v) in enumerate(edges):
        if out_left[u] > 0 and in_left[v] > 0:
            out_left[u] -= 1
            in_left[v] -= 1
            used[i] = 1
    if any(out_left) and any(in_left):
        source, sink = 0, 1
        net = FlowNetwork(2 + 2 * n)
        for v, left in enumerate(out_left):
            budget = len(g.out_adj[v]) - 2
            net.add_edge(source, 2 + v, budget, budget - left)
        edge_arcs = [net.add_edge(2 + u, 2 + n + v, 1, x) for (u, v), x in zip(edges, used)]
        for v, left in enumerate(in_left):
            budget = len(g.in_adj[v]) - 2
            net.add_edge(2 + n + v, sink, budget, budget - left)
        # len(edges) bounds the flow: each unit saturates one unit edge arc.
        net.max_flow(source, sink, len(edges))
        used = [1 - net.cap[arc] for arc in edge_arcs]
    return tuple(e for e, x in zip(edges, used) if not x)


def _prune(rows: list[list[int]], candidates, still_ok) -> tuple[Edge, ...]:
    """Delete from the graph with out-adjacency ``rows`` every edge of
    ``candidates`` whose removal ``still_ok(rows, u, v)`` accepts; returns
    the kept edges in ascending order.

    ``candidates`` is ascending and the scan runs it backwards, in
    descending (u, v) order.  Each candidate leaves its tail's row for the
    test and is appended back on a reject, so the test sees exactly the
    current edge set minus (u, v), in some row order.
    """
    for u, v in reversed(candidates):
        rows[u].remove(v)
        if not still_ok(rows, u, v):
            rows[u].append(v)
    return tuple(sorted((u, v) for u, row in enumerate(rows) for v in row))


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
    single pass reaches a deletion-minimal superset of the core.  When the
    core alone is 2-vertex-connected the result is the core, found with no
    deletion test: on its size when it has at most 4 vertices, since its
    degrees are all >= 2, and otherwise by one articulation test (see
    ``_prune_to_2vcss``).

    g must be 2-vertex-connected: this public entry point checks it
    through ``min_degree2_subgraph``; ``_problem1`` calls
    ``_prune_to_2vcss`` without the check, and its docstring says why.
    """
    return _prune_to_2vcss(g, min_degree2_subgraph(g))


def _prune_to_2vcss(g: DiGraph, core: tuple[Edge, ...]) -> tuple[Edge, ...]:
    """``approx_2vcss`` of a 2-vertex-connected g from its degree-2 core,
    given ascending.

    Each accepted deletion keeps g 2-vertex-connected; that is the
    precondition under which one capped flow on the kept edges decides
    each deletion exactly (see the module docstring).

    Every edge set the loop tests contains the core, and a superset of a
    2-vertex-connected spanning set is 2-vertex-connected.  So when the
    core itself is 2-vertex-connected every deletion is accepted, and the
    result is the core: the loop is skipped.  A core of at most 4 vertices
    is so on its size alone.  Every in- and out-degree of the core is at
    least 2, and g, being 2-vertex-connected, has n >= 3; so for n <= 4
    the core meets ``connectivity._dense``'s bound for k = 2 (n > 2 and
    2 * delta >= 4 >= n), which proves it 2-vertex-connected.  A larger
    core is decided by one SCC pass and one articulation test on its
    graph.
    """
    if g.n <= 4:
        return core
    h = DiGraph(g.n, core)
    if is_strongly_connected(h) and not _points_and_trees(h)[0]:
        return core
    kept = set(core)
    candidates = [e for e in g.edges if e not in kept]
    return _prune([list(row) for row in g.out_adj], candidates, _edge_set_is_2vc)


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
    # Both arborescences are depth-first trees from vertex 0: the out-tree
    # explores ascending neighbours first and the in-tree, along reversed
    # edges, descending ones; the opposite orientation lets the two trees
    # share cycle edges instead of doubling them.
    _, pre, parent = _preorder(g.out_adj, 0)
    union = {(pre[parent[d]], pre[d]) for d in range(1, g.n)}
    _, pre, parent = _preorder([row[::-1] for row in g.in_adj], 0)
    union.update((pre[d], pre[parent[d]]) for d in range(1, g.n))
    edges = sorted(union)
    rows: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in edges:
        rows[u].append(v)
    return _prune(rows, edges, _edge_set_is_strongly_connected)


def _problem1(g: DiGraph) -> tuple[ComponentList, tuple[tuple[Edge, ...], ...], set[Edge]]:
    """Problem 1 on g: its components, and an approximate 2-VCSS of each,
    per component and united, all in g's own ids whatever g's labels are.

    The components and their induced subgraphs come from one
    ``_domtree_pieces`` call, which outputs a piece only once its
    articulation test finds no strong articulation point or its degrees
    prove it (``connectivity._dense``), so each piece is 2-vertex-connected
    and is not tested again.  ``_canonical`` of their labels gives the
    component list, with the engine's dedup and size-sum guard, and each
    component is sparsified on its own piece, with no subgraph rebuilt.
    The certificate's ``split`` has no degree shortcut and re-tests those
    components.
    """
    pieces = {h.origin_labels: h for h in _domtree_pieces(g)}
    comps = _canonical(pieces, g.n)
    per_component: list[tuple[Edge, ...]] = []
    for comp in comps:
        sub = pieces[comp]
        kept = _prune_to_2vcss(sub, _min_degree2_edges(sub))
        # sub's local ids are comp's ascending members, so the kept edges
        # map through comp and stay ascending.
        per_component.append(tuple((comp[u], comp[v]) for u, v in kept))
    return comps, tuple(per_component), set().union(*per_component)


def sparsify_problem1(g: DiGraph) -> SparsifyResult:
    """Fewest edges (approximately) whose graph has the same components."""
    comps, per_component, retained = _problem1(g)
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
    if not is_strongly_connected(g):
        raise NotStronglyConnected(f"{g!r} is not strongly connected")
    comps, per_component, retained = _problem1(g)
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
    comps, per_component, retained = _problem1(g)
    coarse = _quotient(g, comps)
    coarse_comps, _, coarse_retained = _problem1(coarse.graph)
    for ce in coarse_retained:
        retained.add(coarse.edge_origins[ce])
    edges = tuple(sorted(retained))
    sparse = DiGraph(g.n, edges)
    recomputed = two_vccs_split(sparse)
    # Coarsen the retained graph itself, not the coarse edges kept, so that
    # a coarse edge lifted wrongly or not at all fails the certificate.
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
