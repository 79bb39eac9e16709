"""Minimal max-flow network (Edmonds-Karp) used for vertex cuts, edge
deletion tests and degree-constrained edge deletion.  Capacities are small
integers, so BFS augmentation is plenty."""

from __future__ import annotations

from collections import deque

from .graph import DiGraph


class FlowNetwork:
    def __init__(self, size: int):
        self.size = size
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

    def max_flow(self, s: int, t: int, limit: int | None = None) -> int:
        flow = 0
        while limit is None or flow < limit:
            prev_arc = [-1] * self.size
            prev_arc[s] = -2
            queue = deque([s])
            while queue:
                u = queue.popleft()
                if u == t:
                    break
                for idx in self.adj[u]:
                    w = self.to[idx]
                    if self.cap[idx] > 0 and prev_arc[w] == -1:
                        prev_arc[w] = idx
                        queue.append(w)
            if prev_arc[t] == -1:
                break
            bottleneck = None
            u = t
            while u != s:
                idx = prev_arc[u]
                if bottleneck is None or self.cap[idx] < bottleneck:
                    bottleneck = self.cap[idx]
                u = self.to[idx ^ 1]
            u = t
            while u != s:
                idx = prev_arc[u]
                self.cap[idx] -= bottleneck
                self.cap[idx ^ 1] += bottleneck
                u = self.to[idx ^ 1]
            flow += bottleneck
        return flow

    def reachable_in_residual(self, s: int) -> list[bool]:
        seen = [False] * self.size
        seen[s] = True
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for idx in self.adj[u]:
                w = self.to[idx]
                if self.cap[idx] > 0 and not seen[w]:
                    seen[w] = True
                    queue.append(w)
        return seen

    def saturated(self, idx: int) -> bool:
        return self.cap[idx] == 0


def split_network(g: DiGraph) -> tuple[FlowNetwork, list[int]]:
    """The vertex-split network of g and its base capacities.

    Vertex v splits into nodes 2v (in) and 2v+1 (out) joined by arc 2v of
    unit capacity; edge i of ``g.edges`` becomes arc 2(n+i), from its
    tail's out-node to its head's in-node, of effectively infinite
    capacity n+1.  A flow from u's out-node to v's in-node counts
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
