import random

from vconn import induced_subgraph, is_strongly_connected, min_degree2_subgraph, two_vccs
from vconn._flow import FlowNetwork, _min_st_vertex_cut
from vconn.sparsify import approx_2vcss
from vconn.testkit import GenSpec, gen_random


class SplitNetworkCut:
    """Reference: the vertex-split network of ``out_adj`` built on
    ``FlowNetwork`` and answered by Edmonds-Karp, arc for arc in the layout
    that the kernel searches implicitly.

    Vertex v splits into nodes 2v (in) and 2v+1 (out) joined by a vertex
    arc of capacity 1; edge u->w becomes an arc from 2u+1 to 2w of
    capacity n+1.  Each call resets the capacities and runs one flow from
    s's out-node to t's in-node."""

    def __init__(self, out_adj):
        n = len(out_adj)
        self.n = n
        self.net = FlowNetwork(2 * n)
        for v in range(n):
            self.net.add_edge(2 * v, 2 * v + 1, 1)
        for u in range(n):
            for w in out_adj[u]:
                self.net.add_edge(2 * u + 1, 2 * w, n + 1)
        self.base = list(self.net.cap)

    def __call__(self, s, t, limit):
        self.net.cap[:] = self.base
        value, label = self.net.max_flow(2 * s + 1, 2 * t, limit)
        if value >= limit:
            return value, None
        return value, tuple(
            v for v in range(self.n) if label[2 * v] != -1 and label[2 * v + 1] == -1
        )


def _graphs():
    rng = random.Random(180_000)
    graphs = []
    for i in range(6):
        n = rng.randint(6, 20)
        graphs.append(gen_random(GenSpec(n=n, m=rng.randint(2 * n, 4 * n), seed=180_100 + i,
                                         strongly_connected=True)))
    for i in range(6):
        n = rng.randint(8, 18)
        p = 0.25 + 0.14 * i  # 25% to 95% of all ordered pairs
        graphs.append(gen_random(GenSpec(n=n, m=int(p * n * (n - 1)), seed=180_200 + i,
                                         strongly_connected=True)))
    for i, (clique, count) in enumerate([(4, 4), (4, 5), (6, 3), (3, 6)]):
        n = count * (clique - 1) + 1
        graphs.append(gen_random(GenSpec(n=n, m=n + 2 * i, model="planted", seed=180_300 + i,
                                         sizes=(clique,) * count, strongly_connected=True)))
    for i in range(4):
        n = rng.randint(6, 14)
        graphs.append(gen_random(GenSpec(n=n, m=rng.randint(n, 2 * n), seed=180_400 + i)))
    return graphs


def test_kernel_matches_the_built_split_network():
    # Count and separator, for every non-adjacent ordered pair and every
    # limit 1..n; uniform, dense, clique-chain and not strongly connected
    # graphs.
    graphs = _graphs()
    assert sum(not is_strongly_connected(g) for g in graphs) >= 2
    checked = 0
    for g in graphs:
        reference = SplitNetworkCut(g.out_adj)
        for s in range(g.n):
            for t in range(g.n):
                if s == t or t in g.out_adj[s]:
                    continue
                for limit in range(1, g.n + 1):
                    assert _min_st_vertex_cut(g.out_adj, s, t, limit) == reference(s, t, limit), (
                        g.edges, s, t, limit)
                    checked += 1
    assert checked > 20_000


def test_kernel_matches_the_built_split_network_as_edges_are_deleted():
    # The sparsifier's deletion loop: rows of a mutable copy lose each
    # candidate edge (u, v) in descending order, and it goes back in place
    # unless two vertex-disjoint u->v paths remain.
    pieces = []
    for i in range(3):
        g = gen_random(GenSpec(n=31, m=31, model="planted", seed=181_000 + i,
                               sizes=(6,) * 6, strongly_connected=True))
        pieces += [induced_subgraph(g, c) for c in two_vccs(g)]
        g = gen_random(GenSpec(n=30, m=120, seed=181_100 + i, strongly_connected=True))
        pieces += [induced_subgraph(g, c) for c in two_vccs(g)]
    deletions = 0
    for piece in pieces:
        core = set(min_degree2_subgraph(piece))
        rows = [list(row) for row in piece.out_adj]
        for u, v in reversed(piece.edges):
            if (u, v) in core:
                continue
            i = rows[u].index(v)
            del rows[u][i]
            reference = SplitNetworkCut(rows)
            for limit in (1, 2, 3, piece.n):
                assert _min_st_vertex_cut(rows, u, v, limit) == reference(u, v, limit)
            if reference(u, v, 2)[0] == 2:
                deletions += 1
            else:
                rows[u].insert(i, v)
        kept = tuple((u, v) for u in range(piece.n) for v in rows[u])
        assert kept == approx_2vcss(piece)
    assert deletions > 500
