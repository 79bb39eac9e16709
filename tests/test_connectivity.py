import random
import sys
from itertools import combinations

from vconn import (
    dominator_tree,
    from_edge_list,
    is_strongly_connected,
    k_vccs,
    remove_vertices,
    root_children,
    strong_articulation_points,
    strongly_connected_components,
    two_vccs,
    two_vccs_containing,
)
from vconn.connectivity import _blocks, _degree_core, _strong_pieces
from vconn.graph import strip_labels
from vconn.testkit import brute_k_vccs
from vconn.twovcc import es_fixpoint

from conftest import bidirected, mixed_corpus


def mutual_reachability_classes(g):
    """Independent SCC oracle: equivalence classes of mutual reachability."""
    reach = []
    for s in range(g.n):
        seen = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            for w in g.out_adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        reach.append(seen)
    classes = []
    assigned = set()
    for v in range(g.n):
        if v in assigned:
            continue
        cls = {u for u in range(g.n) if u in reach[v] and v in reach[u]}
        assigned |= cls
        classes.append(tuple(sorted(cls)))
    return sorted(classes)


def test_scc_fig1_single_component(fig1):
    assert strongly_connected_components(fig1).components == (tuple(range(8)),)


def test_scc_fig1_after_removing_zero(fig1):
    # The appendage cycle 1->2->3->5->4->1 keeps {1,2,3,4,5} strongly
    # connected once vertex 0 is gone; checked against the reachability
    # oracle below.
    trimmed = remove_vertices(fig1, {0})
    parts = strongly_connected_components(trimmed)
    relabeled = sorted(
        tuple(sorted(v + 1 for v in comp)) for comp in parts.components
    )
    assert relabeled == [(1, 2, 3, 4, 5), (6, 7)]
    assert list(parts.components) == mutual_reachability_classes(trimmed)


def test_scc_edgeless():
    g = from_edge_list(3, [])
    assert strongly_connected_components(g).components == ((0,), (1,), (2,))


def test_scc_component_id_matches_components(fig1):
    parts = strongly_connected_components(remove_vertices(fig1, {0}))
    for v in range(7):
        assert v in parts.components[parts.component_id[v]]


def test_is_strongly_connected(c3, fig1):
    assert is_strongly_connected(c3)
    assert is_strongly_connected(fig1)
    assert not is_strongly_connected(from_edge_list(2, [(0, 1)]))
    assert not is_strongly_connected(from_edge_list(0, []))
    assert is_strongly_connected(from_edge_list(1, []))


def test_scc_matches_reachability_oracle():
    for g in mixed_corpus(150, base_seed=300):
        assert list(strongly_connected_components(g).components) == mutual_reachability_classes(g)


def test_strong_pieces_at_a_cut_hold_every_k_vcc():
    # Removing fewer than k vertices leaves a k-VCC strongly connected, so
    # it lies within one piece of the split at that vertex set.  A cut is
    # only given to a strongly connected graph, so the cuts are drawn
    # inside the strong pieces of each graph.
    rng = random.Random(5)
    splits = wholes = 0
    for g in mixed_corpus(150, base_seed=91_000, max_n=9):
        for h in map(strip_labels, _strong_pieces(g)):
            for k in (2, 3):
                comps = brute_k_vccs(h, k)
                # Cuts drawn from inside a component test the rejoining most.
                pool = rng.choice(comps) if comps and rng.random() < 0.5 else range(h.n)
                cut = tuple(rng.sample(pool, rng.randint(0, min(k - 1, len(pool)))))
                pieces = _strong_pieces(h, cut)
                for p in pieces:
                    assert p.n >= 3 and is_strongly_connected(p)
                labels = [set(p.origin_labels) for p in pieces]
                for c in comps:
                    assert any(set(c) <= s for s in labels), (c, cut)
                if cut:
                    whole = len(pieces) == 1 and pieces[0] is h
                    wholes += whole
                    splits += not whole
    # Both kinds of cut occur: one that splits h, and one that leaves it
    # one SCC (40 and 82 of them).
    assert splits > 20 and wholes > 40


def test_a_cut_that_splits_nothing_returns_its_piece(monkeypatch, k4b):
    # h is strongly connected, so a cut that leaves one SCC rejoins it into
    # h itself: one SCC pass, with the cut skipped, settles it.
    import vconn.connectivity as connectivity

    passes = []
    scc_ids = connectivity._scc_ids

    def spy(n, out_adj, skip=()):
        passes.append(tuple(skip))
        return scc_ids(n, out_adj, skip)

    monkeypatch.setattr(connectivity, "_scc_ids", spy)
    cycle = from_edge_list(5, bidirected([(i, (i + 1) % 5) for i in range(5)]))
    for h, cut in ((k4b, (0,)), (k4b, (1, 3)), (cycle, (2,))):
        passes.clear()
        pieces = _strong_pieces(h, cut)
        assert len(pieces) == 1 and pieces[0] is h
        assert passes == [cut]


def test_every_engine_gives_a_cut_only_with_a_strongly_connected_piece(monkeypatch):
    # _strong_pieces returns h itself when h minus the cut is one SCC, which
    # is right only for a strongly connected h: every caller must hold one.
    import vconn.kvcc
    import vconn.twovcc

    cuts = 0

    def spy(h, cut=()):
        nonlocal cuts
        if cut:
            cuts += 1
            assert is_strongly_connected(h), (h, cut)
        return _strong_pieces(h, cut)

    for module in (vconn.kvcc, vconn.twovcc):
        monkeypatch.setattr(module, "_strong_pieces", spy)
    for g in mixed_corpus(150, base_seed=92_000, max_n=9):
        for algo in ("split", "domtree", "per-vertex"):
            two_vccs(g, algo)
        two_vccs_containing(g, 0)
        for k in (2, 3, 4):
            k_vccs(g, k)
    assert cuts > 100


def _core_by_repeated_deletion(g, k):
    alive = set(range(g.n))
    while True:
        low = [
            v
            for v in sorted(alive)
            if sum(w in alive for w in g.out_adj[v]) < k
            or sum(w in alive for w in g.in_adj[v]) < k
        ]
        if not low:
            return sorted(alive)
        alive.remove(low[0])


def test_degree_core_matches_repeated_deletion():
    for g in mixed_corpus(200, base_seed=93_000, max_n=10):
        for k in (1, 2, 3):
            expected = _core_by_repeated_deletion(g, k)
            core = _degree_core(g, k)
            if core is None:
                assert expected == list(range(g.n)), (k, g.edges)
            else:
                assert core == expected and len(core) < g.n, (k, g.edges)


def test_blocks_triangle():
    assert _blocks(from_edge_list(3, [(0, 1), (1, 2), (2, 0)])) == [(0, 1, 2)]


def test_blocks_path_bridges():
    # A directed path has no block of three or more vertices: its
    # shadow's blocks are all bridges.
    assert _blocks(from_edge_list(3, [(0, 1), (1, 2)])) == []


def test_blocks_of_pruned_fig1(fig1):
    blocks = _blocks(es_fixpoint(fig1))
    assert (0, 3, 4, 5) in blocks
    assert (0, 6, 7) in blocks


def test_blocks_share_at_most_one_vertex():
    for g in mixed_corpus(80, base_seed=42):
        blocks = _blocks(g)
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                assert len(set(blocks[i]) & set(blocks[j])) <= 1


def _brute_blocks(g):
    """Maximal vertex sets S, |S| >= 2, whose induced subgraph of g's
    undirected shadow is connected and, for |S| >= 3, stays connected
    without any one vertex; those of >= 3 vertices."""
    shadow = [set(o) | set(i) for o, i in zip(g.out_adj, g.in_adj)]

    def connected(members):
        members = set(members)
        start = next(iter(members))
        seen = {start}
        stack = [start]
        while stack:
            for w in shadow[stack.pop()]:
                if w in members and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen == members

    def biconnected(s):
        if not connected(s):
            return False
        return len(s) < 3 or all(connected(set(s) - {v}) for v in s)

    found = [
        set(s)
        for size in range(2, g.n + 1)
        for s in combinations(range(g.n), size)
        if biconnected(s)
    ]
    return sorted(
        tuple(sorted(s)) for s in found if len(s) >= 3 and not any(s < t for t in found)
    )


def test_blocks_match_their_definition():
    # The out- plus in-rows of g list a bidirected pair's neighbour twice.
    for g in mixed_corpus(300, max_n=8):
        assert _blocks(g) == _brute_blocks(g), g.edges


def test_blocks_deterministic():
    for g in mixed_corpus(20, base_seed=77):
        assert _blocks(g) == _blocks(g)
        assert (
            strongly_connected_components(g).components
            == strongly_connected_components(g).components
        )


def test_searches_deeper_than_the_recursion_limit():
    n = 20_000
    assert n > sys.getrecursionlimit()
    cycle = [(v, (v + 1) % n) for v in range(n)]
    directed = from_edge_list(n, cycle)
    bidirected = from_edge_list(n, cycle + [(w, v) for v, w in cycle])
    assert len(strongly_connected_components(directed).components) == 1
    assert dominator_tree(directed, 0).idom[n - 1] == n - 2
    assert len(root_children(dominator_tree(bidirected, 0))) == n - 1
    assert _blocks(bidirected) == [tuple(range(n))]
    assert two_vccs(bidirected) == [tuple(range(n))]
    assert strong_articulation_points(directed) == set(range(n))
