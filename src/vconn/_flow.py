"""Max-flow (Edmonds-Karp) and the vertex-split network on which every
vertex-disjoint-path question of the package is answered.

This module alone knows the split network's layout: ``split_network``
builds it, ``edge_arc`` names an edge's arc in it, and
``_min_st_vertex_cut`` counts internally vertex-disjoint s->t paths on it
with one flow capped at a limit (Menger).  The k-VCC split and the
sparsifier's deletion test both ask that one function.  A flow that stops
below its limit ends with a failed search, and that search has labelled
exactly the nodes reachable from the source in the residual network.
``max_flow`` returns the labels of its last search with the flow, so the
separator is read from them without another pass.

Each search of ``max_flow`` stops as soon as it labels t.  An arc into a
node is recorded once, at the node's first label, so stopping there
changes no augmenting path; only a successful search is cut short, and a
successful search is never read for a separator.  The labelled set of the
failed search is the set of nodes reachable from the source in the
residual network of a maximum flow, and that set is the same for every
maximum flow (it is the source side of the unique minimal minimum cut).
So a faster kernel, such as Dinic's or a greedily seeded flow, returns the
same separators as long as it ends with a full residual search.

``max_flow`` pushes exactly one unit along each augmenting path.  That
yields a maximum flow on any network with integral capacities.  On the
networks of this package every augmenting path has bottleneck 1 anyway, so
a bottleneck walk would find nothing more to push:

* split network: ``_min_st_vertex_cut`` forbids an s->t arc of positive
  base capacity, so a path leaves s's out-node into the in-node of some
  x != t.  Its next arc is x's vertex arc, of capacity 1, or the residual
  of an edge arc into x, which is at most 1 because x's in-node passes on
  at most one unit.
* ``sparsify.min_degree2_subgraph`` builds its own bipartite network on
  ``FlowNetwork``: every source->sink path crosses an edge arc of capacity
  1 or the residual of one.  It seeds the flow greedily before calling
  ``max_flow``, but a seeded unit is one length-3 path s->u->v'->t, so
  each edge arc still carries 0 or 1 and bottleneck 1 still holds.
"""

from __future__ import annotations

from .graph import DiGraph


class FlowNetwork:
    def __init__(self, size: int):
        self.adj: list[list[int]] = [[] for _ in range(size)]
        # Parallel arrays: to[i], cap[i]; arc i^1 is the reverse of arc i.
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, capacity: int) -> int:
        idx = len(self.to)
        self.adj[u].append(idx)
        self.to.append(v)
        self.cap.append(capacity)
        self.adj[v].append(idx + 1)
        self.to.append(u)
        self.cap.append(0)
        return idx

    def max_flow(self, s: int, t: int, limit: int) -> tuple[int, list[int]]:
        """Push one unit per augmenting path from s to t until the flow
        reaches ``limit`` or no augmenting path is left.

        Returns the flow and the labels of the last breadth-first search:
        the arc into each node, -1 for a node it did not reach, -2 for s.
        Each search stops when it labels t; only the last, failed one
        labels everything the source reaches."""
        adj, to, cap, size = self.adj, self.to, self.cap, len(self.adj)
        flow, prev_arc = 0, []
        while flow < limit:
            prev_arc = [-1] * size
            prev_arc[s] = -2
            queue = [s]
            for u in queue:
                for idx in adj[u]:
                    w = to[idx]
                    if cap[idx] > 0 and prev_arc[w] == -1:
                        prev_arc[w] = idx
                        queue.append(w)
                        if w == t:
                            break
                if prev_arc[t] != -1:
                    break
            else:  # the queue ran dry without labelling t
                break
            u = t
            while u != s:
                idx = prev_arc[u]
                cap[idx] -= 1
                cap[idx ^ 1] += 1
                u = to[idx ^ 1]
            flow += 1
        return flow, prev_arc


def split_network(g: DiGraph) -> tuple[FlowNetwork, list[int]]:
    """The vertex-split network of g and its base capacities.

    Vertex v splits into nodes 2v (in) and 2v+1 (out) joined by arc 2v of
    unit capacity; edge i of ``g.edges`` becomes arc ``edge_arc(g.n, i)``,
    from its tail's out-node to its head's in-node, of effectively
    infinite capacity n+1.  A flow from u's out-node to v's in-node counts
    internally vertex-disjoint u->v paths.
    """
    n = g.n
    net = FlowNetwork(2 * n)
    for v in range(n):
        net.add_edge(2 * v, 2 * v + 1, 1)
    for u in range(n):
        for w in g.out_adj[u]:
            net.add_edge(2 * u + 1, 2 * w, n + 1)
    return net, list(net.cap)


def edge_arc(n: int, i: int) -> int:
    """The arc of edge i of ``g.edges`` in the split network of a graph g
    with n vertices: ``split_network`` adds the edges in that order, after
    the n vertex arcs."""
    return 2 * (n + i)


def _min_st_vertex_cut(
    net: FlowNetwork, base: list[int], s: int, t: int, limit: int
) -> tuple[int, tuple[int, ...] | None]:
    """Fewest vertices (excluding s, t) meeting every s->t path in the
    split network ``net`` with capacities ``base``, counted up to ``limit``.

    Returns the count and, when it is below ``limit``, those vertices in
    ascending order.  Requires no s->t arc of positive base capacity.  The
    flow runs from s's out-node to t's in-node, so no augmenting path uses
    the arc of s or of t, and neither is ever in the cut.  A flow below
    ``limit`` ended with a failed search, whose labelled nodes are the
    source side of a minimum cut; the cut is the vertices whose in-node
    that search reached and whose out-node it did not.
    """
    net.cap[:] = base
    value, label = net.max_flow(2 * s + 1, 2 * t, limit)
    if value >= limit:
        return value, None
    return value, tuple(
        v for v, (a, b) in enumerate(zip(label[0::2], label[1::2])) if a != -1 and b == -1
    )
