"""Menger flows on a graph's own adjacency, and the Edmonds-Karp flow of
the degree-2 core's budget network.

Every vertex-disjoint-path question of the package is answered by
``_min_st_vertex_cut``: it counts internally vertex-disjoint s->t paths up
to a limit (Menger) and, below the limit, returns the separator closest
to s.  The k-VCC split and the sparsifier's deletion test both ask that
one function.

It runs Edmonds-Karp on Even's vertex-split network ("An algorithm for
determining whether the connectivity of a graph is at least k", SIAM J.
Comput. 1975) without building it.  Vertex v splits into an in-node and
an out-node joined by a vertex arc of capacity 1; edge u->v becomes an
edge arc from u's out-node to v's in-node of capacity n+1; the flow runs
from s's out-node to t's in-node.  Each search walks the residual network
over (vertex, in/out) states, and the whole flow is one array:
``into[v]`` is the tail of the flow edge entering an interior vertex v on
a path, or -1 when no path uses v.  That array determines every residual
capacity:

* an edge arc carries at most one unit (its head's in-node passes on at
  most one), so it always has residual capacity: every out-edge of v is
  a residual arc of v's out-node;
* v's in-node passes at most one unit, so its only residual arc is the
  vertex arc when v is unused, or else the reverse of the one flow edge,
  into v's out-node of ``into[v]``;
* v's out-node also has the reverse of its vertex arc, into v's in-node,
  when v is used; it comes first, as it did in the built network, whose
  out-node listed its vertex arc's reverse before its edge arcs.

So each search reaches every residual arc the network would offer, in the
same order, and skips only arcs of capacity 0.  It never scans the
in-degree's worth of dead reverse edge arcs an in-node has in the built
network, and no network is built, reset or zeroed per call.  Since every
in-node has exactly one residual arc, a search follows it as soon as it
labels the in-node; the out-nodes then enter the queue in the order the
node-by-node search would enqueue them.

Every augmenting path has bottleneck 1: it leaves s's out-node into the
in-node of some x != t (the caller guarantees no edge s->t), and its next
arc is x's vertex arc or the reverse of the one flow edge into x, each of
residual capacity 1.  So one unit per path is a maximum flow.

A search stops as soon as it labels t.  A node's predecessor is recorded
once, at its first label, so stopping there changes no augmenting path;
only a successful search is cut short, and a successful search is never
read for a separator.  A flow below its limit ends with a failed search,
and that search has labelled exactly the nodes reachable from the source
in the residual network of a maximum flow.  That set is the same for
every maximum flow (it is the source side of the unique minimal minimum
cut), so the count and the separator depend on the graph alone: a faster
kernel returns the same answers as long as it ends with a full residual
search.

``FlowNetwork`` is a general capacitated network with Edmonds-Karp
``max_flow``, pushing one unit per augmenting path and returning the
labels of its last search with the flow (the kernel's tests read a built
split network's separators from them).  Only
``sparsify._min_degree2_edges`` builds one, for its bipartite budget
network: every source->sink path there crosses an edge arc of capacity 1
or the residual of one.  It seeds the flow greedily and builds the network
only when the seed is not already maximum, with each arc carrying its
seeded flow (``add_edge``'s ``flow``), but a seeded unit is one length-3
path s->u->v'->t, so each edge arc still carries 0 or 1 and bottleneck 1
still holds.
"""

from __future__ import annotations

from collections.abc import Sequence


class FlowNetwork:
    def __init__(self, size: int):
        self.adj: list[list[int]] = [[] for _ in range(size)]
        # Parallel arrays: to[i], cap[i]; arc i^1 is the reverse of arc i.
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, capacity: int, flow: int = 0) -> int:
        """Add an arc u->v of ``capacity`` that already carries ``flow``,
        and its reverse; returns the arc's index (the reverse's is index ^ 1)."""
        idx = len(self.to)
        self.adj[u].append(idx)
        self.to.append(v)
        self.cap.append(capacity - flow)
        self.adj[v].append(idx + 1)
        self.to.append(u)
        self.cap.append(flow)
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


def _min_st_vertex_cut(
    out_adj: Sequence[Sequence[int]], s: int, t: int, limit: int
) -> tuple[int, tuple[int, ...] | None]:
    """Fewest vertices (excluding s, t) meeting every s->t path of the
    graph with out-adjacency ``out_adj``, counted up to ``limit``.

    Returns the count and, when it is below ``limit``, those vertices in
    ascending order.  Requires s != t and no edge s->t.  The flow runs
    from s's out-node to t's in-node (see the module docstring), so no
    augmenting path uses s or t as an interior vertex, and neither is ever
    in the cut.  A flow below ``limit`` ended with a failed search, whose
    labelled nodes are the source side of a minimum cut; the cut is the
    vertices whose in-node that search reached and whose out-node it did
    not.
    """
    n = len(out_adj)
    into = [-1] * n
    flow = 0
    while flow < limit:
        # via_in[v]: the out-node's vertex whose arc labelled v's in-node,
        # v itself for v's reversed vertex arc.  via_out[v]: the in-node's
        # vertex whose one residual arc labelled v's out-node.
        via_in = [-1] * n
        via_out = [-1] * n
        via_out[s] = s
        queue = [s]
        for u in queue:
            x = into[u]
            if x >= 0 and via_in[u] < 0:
                via_in[u] = u
                if via_out[x] < 0:
                    via_out[x] = u
                    queue.append(x)
            for w in out_adj[u]:
                if via_in[w] < 0:
                    via_in[w] = u
                    if w == t:
                        break
                    x = into[w]
                    if x < 0:
                        x = w
                    if via_out[x] < 0:
                        via_out[x] = w
                        queue.append(x)
            else:
                continue
            break  # t is labelled
        else:  # the queue ran dry without labelling t
            return flow, tuple(
                v for v, (a, b) in enumerate(zip(via_in, via_out)) if a >= 0 and b < 0
            )
        # Walk the path back from t, out-node u to the in-node w before it.
        u = via_in[t]
        while u != s:
            w = via_out[u]
            u = via_in[w]
            into[w] = -1 if u == w else u
        flow += 1
    return flow, None
