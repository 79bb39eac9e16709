import random
from dataclasses import replace
from itertools import combinations, permutations

import pytest

from vconn import (
    approx_2vcss,
    approx_mscss,
    coarsen,
    from_edge_list,
    induced_subgraph,
    is_2vertex_connected,
    is_strongly_connected,
    min_degree2_subgraph,
    sparsify_problem1,
    sparsify_problem2,
    sparsify_problem3,
    strong_articulation_points,
    two_vccs,
)
from vconn._flow import FlowNetwork
from vconn.errors import GraphError, NotStronglyConnected, NotTwoVertexConnected
from vconn.graph import strip_labels
from vconn.testkit import GenSpec, _quotient, brute_mscss, brute_opt_sparsifier, gen_random

from conftest import KVCC_DENSE_SET, UNIFORM_CUT_SET, bidirected, mixed_corpus


def clique_cycle(seed):
    """Ten bidirected 6-cliques chained on a random spanning cycle, n = 51."""
    return gen_random(GenSpec(n=51, m=51, model="planted", seed=seed,
                              sizes=(6,) * 10, strongly_connected=True))


def two_triangles_with_bridge():
    edges = bidirected([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    return from_edge_list(6, edges)


def test_coarsen_fig1(fig1):
    cg = coarsen(fig1)
    assert cg.classes == ((0, 3, 4, 5, 6, 7), (1,), (2,))
    assert set(cg.graph.edges) == {(0, 1), (1, 2), (2, 0)}
    assert cg.edge_origins == {(0, 1): (4, 1), (1, 2): (1, 2), (2, 0): (2, 3)}


def test_coarsen_bowtie_and_c3(bowtie, c3):
    cg = coarsen(bowtie)
    assert cg.graph.n == 1 and cg.graph.m == 0
    assert cg.classes == ((0, 1, 2, 3, 4),)
    cg3 = coarsen(c3)
    assert cg3.graph == c3
    assert cg3.classes == ((0,), (1,), (2,))


def test_coarsen_representatives_are_lex_smallest():
    g = from_edge_list(6, bidirected([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]) + [(2, 3), (1, 4)])
    cg = coarsen(g)
    assert cg.classes == ((0, 1, 2), (3, 4, 5))
    assert cg.edge_origins == {(0, 1): (1, 4)}


def test_coarsen_matches_the_union_find_oracle():
    # testkit's ``_quotient`` contracts the brute-force components with a
    # union-find of its own, apart from the SCC code that ``coarsen`` uses.
    # Chains of cliques glued at one vertex overlap; vertices past the
    # chain are isolated when no noise edge reaches them.
    graphs = mixed_corpus(80, base_seed=131_000, max_n=12)
    for i in range(40):
        n, size = 7 + i % 6, 3 + i % 2
        count = (n - 3) // (size - 1)
        m = count * size * (size - 1) + (0 if i % 3 == 0 else i % 5)
        graphs.append(gen_random(GenSpec(n=n, m=m, model="planted", seed=131_100 + i,
                                         sizes=(size,) * count)))
    merged = isolated = 0
    for g in graphs:
        quotient, classes, origins = _quotient(g)
        cg = coarsen(g)
        assert (cg.graph, cg.classes, cg.edge_origins) == (quotient, tuple(classes), origins)
        merged += any(len(c) > 1 and c not in two_vccs(g) for c in classes)
        isolated += any(not g.out_adj[v] and not g.in_adj[v] for v in range(g.n))
    assert merged >= 20 and isolated >= 10


def test_min_degree2_subgraph(tri, k4b, fig1):
    assert set(min_degree2_subgraph(tri)) == set(tri.edges)
    assert len(min_degree2_subgraph(k4b)) == 8
    sub = induced_subgraph(fig1, {0, 3, 4, 5})
    assert set(min_degree2_subgraph(sub)) == set(sub.edges)
    with pytest.raises(NotTwoVertexConnected):
        min_degree2_subgraph(from_edge_list(3, [(0, 1), (1, 2), (2, 0)]))


def plain_edmonds_karp_core(g):
    """Reference: the degree-2 core from unseeded Edmonds-Karp on the same
    bipartite budget network, one augmenting search per unit of flow."""
    n, edges = g.n, g.edges
    net = FlowNetwork(2 + 2 * n)
    for v in range(n):
        if len(g.out_adj[v]) > 2:
            net.add_edge(0, 2 + v, len(g.out_adj[v]) - 2)
    edge_arcs = [net.add_edge(2 + u, 2 + n + v, 1) for u, v in edges]
    for v in range(n):
        if len(g.in_adj[v]) > 2:
            net.add_edge(2 + n + v, 1, len(g.in_adj[v]) - 2)
    net.max_flow(0, 1, len(edges))
    return tuple(e for e, arc in zip(edges, edge_arcs) if net.cap[arc] > 0)


def _budget_flow_graphs():
    graphs = [clique_cycle(174_000 + i) for i in range(4)]
    graphs += [gen_random(GenSpec(n=250, m=250, model="planted", seed=174_100 + i,
                                  sizes=(4,) * 83, strongly_connected=True))
               for i in range(2)]
    graphs += [gen_random(GenSpec(n=60, m=300, seed=174_200 + i, strongly_connected=True))
               for i in range(4)]
    for i, (n, p) in enumerate([(30, 0.5), (34, 0.7), (37, 0.8), (40, 0.9)]):
        graphs.append(gen_random(GenSpec(n=n, m=int(p * n * (n - 1)), seed=174_300 + i,
                                         strongly_connected=True)))
    return graphs


def _has_a_zero_budget(piece):
    return any(len(row) == 2 for row in piece.out_adj + piece.in_adj)


def test_seeded_core_matches_plain_edmonds_karp():
    graphs = _budget_flow_graphs()
    pieces = zero_budget = 0
    for g in graphs:
        for comp in two_vccs(g):
            piece = induced_subgraph(g, comp)
            assert min_degree2_subgraph(piece) == plain_edmonds_karp_core(piece)
            pieces += 1
            zero_budget += _has_a_zero_budget(piece)
    assert pieces >= len(graphs)
    # The reference network leaves out the budget arcs of a degree-2
    # vertex, which the library's network gives capacity 0.
    assert zero_budget >= 3


def test_budget_network_has_both_budget_arcs_of_every_vertex(monkeypatch):
    # 2n budget arcs (those of a degree-2 vertex with capacity 0) and one
    # arc per edge, counted without their reverse arcs.
    arcs = []
    max_flow = FlowNetwork.max_flow

    def spy(self, s, t, limit):
        arcs.append(len(self.to) // 2)
        return max_flow(self, s, t, limit)

    monkeypatch.setattr(FlowNetwork, "max_flow", spy)
    zero_budget = 0
    for g in _budget_flow_graphs():
        for comp in two_vccs(g):
            piece = induced_subgraph(g, comp)
            arcs.clear()
            min_degree2_subgraph(piece)
            assert arcs == [2 * piece.n + piece.m]
            zero_budget += _has_a_zero_budget(piece)
    assert zero_budget >= 3


def test_min_degree2_subgraph_is_minimum():
    def degrees_ok(n, edges):
        outs, ins = [0] * n, [0] * n
        for u, v in edges:
            outs[u] += 1
            ins[v] += 1
        return min(outs) >= 2 and min(ins) >= 2

    checked = trimmed = 0
    for g in mixed_corpus(800, base_seed=175_000):
        if g.m > 16 or not is_2vertex_connected(g):
            continue
        core = min_degree2_subgraph(g)
        assert degrees_ok(g.n, core)
        # Any superset of a valid edge set is valid, so a valid set smaller
        # than the core would extend to one of exactly len(core) - 1 edges.
        assert not any(degrees_ok(g.n, sub) for sub in combinations(g.edges, len(core) - 1))
        checked += 1
        trimmed += len(core) < g.m
    assert checked > 30 and trimmed > 20


def test_budget_flow_augmentations_are_pinned(monkeypatch):
    # Exact counts, free of timing noise: the augmentations left to
    # Edmonds-Karp after the greedy seed.
    flows = []
    max_flow = FlowNetwork.max_flow

    def spy(self, s, t, limit):
        result = max_flow(self, s, t, limit)
        flows.append(result[0])
        return result

    monkeypatch.setattr(FlowNetwork, "max_flow", spy)
    # Ten bidirected 4-cliques glued in a chain and nothing else: the seed
    # saturates every budget of every piece, so it is a maximum flow and
    # no network is built.
    chain = gen_random(GenSpec(n=31, m=120, model="planted", seed=176_000, sizes=(4,) * 10))
    comps = two_vccs(chain)
    assert len(comps) == 10
    for comp in comps:
        min_degree2_subgraph(induced_subgraph(chain, comp))
    assert flows == []
    flows.clear()
    g = clique_cycle(174_000)
    (comp,) = two_vccs(g)
    min_degree2_subgraph(induced_subgraph(g, comp))
    assert flows == [20]


def test_approx_2vcss(tri, k4b):
    assert set(approx_2vcss(tri)) == set(tri.edges)
    assert len(approx_2vcss(k4b)) == 8
    c4b = from_edge_list(4, bidirected([(0, 1), (1, 2), (2, 3), (3, 0)]))
    assert set(approx_2vcss(c4b)) == set(c4b.edges)
    with pytest.raises(NotTwoVertexConnected):
        approx_2vcss(from_edge_list(2, [(0, 1), (1, 0)]))


def test_a_core_of_at_most_4_vertices_is_returned_on_its_size(monkeypatch):
    # Every in- and out-degree of the degree-2 core is at least 2, which on
    # 3 or 4 vertices meets ``connectivity._dense``'s bound: the core is
    # 2-vertex-connected, and ``approx_2vcss`` returns it with no
    # articulation test.  Checked on every edge set of 3 and 4 vertices.
    import vconn.sparsify as sp

    tested = []
    real = sp._points_and_trees

    def spy(h, *args):
        tested.append(h.n)
        return real(h, *args)

    monkeypatch.setattr(sp, "_points_and_trees", spy)
    found = []
    for n in (3, 4):
        pairs = list(permutations(range(n), 2))
        found.append(0)
        for mask in range(1 << len(pairs)):
            g = from_edge_list(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
            if is_2vertex_connected(g):
                found[-1] += 1
                assert approx_2vcss(g) == min_degree2_subgraph(g), g.edges
    assert found == [1, 108]
    assert tested == []
    # On 5 vertices the degrees no longer decide: this graph is
    # 2-vertex-connected, but vertex 2 cuts its core, so the core must be
    # tested and the deletion loop keeps one more edge.
    g = from_edge_list(5, [(0, 1), (0, 2), (0, 3), (1, 0), (1, 3), (1, 4),
                           (2, 1), (2, 4), (3, 0), (3, 2), (4, 0), (4, 1)])
    core = min_degree2_subgraph(g)
    assert is_2vertex_connected(g)
    assert strong_articulation_points(from_edge_list(5, core)) == {2}
    kept = approx_2vcss(g)
    assert tested == [5]
    assert len(kept) == len(core) + 1 and is_2vertex_connected(from_edge_list(5, kept))


def test_approx_2vcss_keeps_degrees_and_connectivity():
    count = 0
    for g in mixed_corpus(300, base_seed=130_000, max_n=7):
        if not is_2vertex_connected(g):
            continue
        kept = approx_2vcss(g)
        sparse = from_edge_list(g.n, kept)
        assert is_2vertex_connected(sparse)
        for v in range(g.n):
            assert len(sparse.out_adj[v]) >= 2 and len(sparse.in_adj[v]) >= 2
        count += 1
    assert count > 20


def test_approx_mscss(tri, c3, fig1):
    assert approx_mscss(tri) == ((0, 1), (1, 2), (2, 0))
    assert approx_mscss(c3) == ((0, 1), (1, 2), (2, 0))
    assert len(approx_mscss(coarsen(fig1).graph)) == 3
    with pytest.raises(NotStronglyConnected):
        approx_mscss(from_edge_list(2, [(0, 1)]))


def test_approx_mscss_bound_and_validity():
    count = 0
    for g in mixed_corpus(200, base_seed=140_000, max_n=7):
        if not is_strongly_connected(g) or g.n < 2:
            continue
        kept = approx_mscss(g)
        assert len(kept) <= 2 * g.n - 2
        assert is_strongly_connected(from_edge_list(g.n, kept))
        count += 1
    assert count > 40


def _dfs_tree(adj):
    """(parent, child) pairs of the DFS tree from vertex 0 along ``adj``,
    by a stack search that shares no code with the library's: each row is
    pushed in order, so its last entry is explored first."""
    seen = [False] * len(adj)
    stack = [(0, -1)]
    tree = []
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


def _arborescence_union(g):
    union = set(_dfs_tree([row[::-1] for row in g.out_adj]))
    union.update((u, p) for p, u in _dfs_tree(g.in_adj))
    return union


def _set_and_tarjan_mscss(g):
    """Reference pruning: the arborescence union as a set, and one full
    Tarjan pass over a freshly built adjacency per deletion."""
    from vconn.connectivity import _scc_ids

    if g.n == 1:
        return ()
    kept = _arborescence_union(g)
    for e in sorted(kept, reverse=True):
        kept.discard(e)
        adj = [[] for _ in range(g.n)]
        for u, v in kept:
            adj[u].append(v)
        if _scc_ids(g.n, adj)[1] != 1:
            kept.add(e)
    return tuple(sorted(kept))


def _strongly_connected_corpus():
    graphs = [from_edge_list(1, []), from_edge_list(2, [(0, 1), (1, 0)])]
    for i in range(60):
        n = 10 + i % 30
        m = n * (2 + i % 3)
        graphs.append(gen_random(GenSpec(n=n, m=m, seed=174_000 + i, strongly_connected=True)))
    for i in range(40):
        n = 6 + i % 8
        m = n * (n - 1) * 3 // 4
        graphs.append(gen_random(GenSpec(n=n, m=m, seed=175_000 + i, strongly_connected=True)))
    for i in range(40):
        size = 3 + i % 3
        count = 3 + i % 5
        n = count * (size - 1) + 1
        graphs.append(gen_random(GenSpec(n=n, m=n * (size - 1) + 5 + i % 7, model="planted",
                                         seed=176_000 + i, sizes=(size,) * count,
                                         strongly_connected=True)))
    for i in range(60):
        n = 20 + i % 40
        m = (3 + i % 2) * n  # m = 3n rarely merges components, m = 4n mostly does
        g = gen_random(GenSpec(n=n, m=m, seed=177_000 + i, strongly_connected=True))
        graphs.append(coarsen(g).graph)
    return graphs


def test_approx_mscss_matches_the_set_and_tarjan_loop():
    graphs = _strongly_connected_corpus()
    assert len(graphs) >= 200
    pruned = 0
    for g in graphs:
        kept = approx_mscss(g)
        assert kept == _set_and_tarjan_mscss(g)
        pruned += len(kept) < len(_arborescence_union(g))
    assert {g.n for g in graphs} >= {1, 2}
    coarse_sizes = [coarse.n for coarse in graphs[-60:]]
    assert sum(n <= 10 for n in coarse_sizes) > 20 and sum(n > 20 for n in coarse_sizes) > 20
    assert pruned > 100


def test_approx_mscss_runs_one_scc_pass(monkeypatch):
    import sys

    from vconn.connectivity import _scc_ids

    calls = []

    def spy(*args, **kwargs):
        calls.append(args[0])
        return _scc_ids(*args, **kwargs)

    # Every module that imported the SCC pass calls it through its own binding.
    for name, module in list(sys.modules.items()):
        if name.startswith("vconn.") and getattr(module, "_scc_ids", None) is _scc_ids:
            monkeypatch.setattr(module, "_scc_ids", spy)
    for g in _strongly_connected_corpus()[::10]:
        calls.clear()
        kept = approx_mscss(g)
        # The strong-connectivity guard; every deletion is one capped flow.
        assert calls == [g.n], (g, kept)


def test_problem1_examples(fig1, c3, bowtie):
    assert sparsify_problem1(fig1).size == 14
    assert sparsify_problem1(c3).size == 0
    assert sparsify_problem1(bowtie).size == 12


def test_problem2_examples(fig1, tri, c3):
    result = sparsify_problem2(fig1)
    assert result.size == 17
    extra = set(result.edges) - set(sparsify_problem1(fig1).edges)
    assert extra == {(4, 1), (1, 2), (2, 3)}
    assert result.certificate_ok
    assert replace(result, strongly_connected=False).certificate_ok is False
    assert sparsify_problem2(tri).size == 6
    assert sparsify_problem2(c3).size == 3
    with pytest.raises(NotStronglyConnected):
        sparsify_problem2(from_edge_list(2, [(0, 1)]))


def test_problem3_examples(fig1, bowtie):
    result = sparsify_problem3(fig1)
    assert result.size == 14
    assert result.certificate_ok
    changed = ((0,),) + result.recomputed_coarse_components
    assert replace(result, recomputed_coarse_components=changed).certificate_ok is False
    assert sparsify_problem3(bowtie).size == 12
    assert sparsify_problem3(two_triangles_with_bridge()).size == 12


def test_certificates_and_decomposition():
    for g in mixed_corpus(120, base_seed=150_000):
        r1 = sparsify_problem1(g)
        assert r1.certificate_ok
        assert sum(len(e) for e in r1.per_component_edges) == r1.size
        seen = set()
        for edges in r1.per_component_edges:
            assert not (set(edges) & seen)
            seen |= set(edges)
        r3 = sparsify_problem3(g)
        assert r3.certificate_ok
        # Problems 2 and 3 are problem 1 plus one step on the coarsened
        # graph, whose edges map back through their origins.
        coarse = coarsen(g)
        lifted = {coarse.edge_origins[e] for e in sparsify_problem1(coarse.graph).edges}
        assert set(r3.edges) == set(r1.edges) | lifted
        if is_strongly_connected(g):
            r2 = sparsify_problem2(g)
            assert r2.certificate_ok
            assert r2.strongly_connected
            lifted = {coarse.edge_origins[e] for e in approx_mscss(coarse.graph)}
            assert set(r2.edges) == set(r1.edges) | lifted
        else:
            with pytest.raises(NotStronglyConnected):
                sparsify_problem2(g)


def _outcome(call, g):
    try:
        return call(g)
    except GraphError as exc:
        return type(exc).__name__, str(exc)


def test_sparsifiers_answer_in_the_graphs_own_ids_whatever_its_labels():
    # A subgraph carries its parent's ids as labels; every result is in the
    # subgraph's own ids, so it equals the result on a label-free copy.
    graphs = mixed_corpus(200, base_seed=178_000, max_n=12)
    graphs += [gen_random(GenSpec(n=3 * count + 1, m=12 * count + i % 4, model="planted",
                                  seed=178_500 + i, sizes=(4,) * count,
                                  strongly_connected=i % 2 == 0))
               for i, count in enumerate([2, 3, 4, 5, 6] * 4)]
    calls = (sparsify_problem1, sparsify_problem2, sparsify_problem3, coarsen)
    labelled = 0
    for g in graphs:
        h = induced_subgraph(g, [v for v in range(g.n) if v % 5 != 4])
        for call in calls:
            assert _outcome(call, h) == _outcome(call, strip_labels(h))
        if h.origin_labels != tuple(range(h.n)) and two_vccs(h):
            labelled += 1
    assert labelled >= 20


def test_ratios_against_brute_force():
    checked_2vc = 0
    checked_sc = 0
    for g in mixed_corpus(250, base_seed=160_000, max_n=7):
        if is_2vertex_connected(g) and g.m <= 20:
            assert 2 * len(approx_2vcss(g)) <= 3 * len(brute_opt_sparsifier(g, 1))
            checked_2vc += 1
        if is_strongly_connected(g) and 2 <= g.n and g.m <= 14:
            assert len(approx_mscss(g)) <= 2 * len(brute_mscss(g))
            checked_sc += 1
    assert checked_2vc > 10 and checked_sc > 10


def test_fig1_brute_optimum_matches(fig1, tri):
    assert len(brute_opt_sparsifier(fig1, 1)) == 14
    assert len(brute_opt_sparsifier(fig1, 2)) == 17
    assert set(brute_opt_sparsifier(tri, 1)) == set(tri.edges)


def test_components_built_once_and_certified_by_split(monkeypatch):
    import vconn.sparsify as sp

    def spy(name, func):
        def wrapper(h):
            calls[name].append(h)
            return func(h)
        return wrapper

    g = two_triangles_with_bridge()
    for solver, coarse_graphs in ((sparsify_problem2, 0), (sparsify_problem3, 1)):
        calls = {"domtree": [], "split": []}
        monkeypatch.setattr(sp, "_domtree_pieces", spy("domtree", sp._domtree_pieces))
        monkeypatch.setattr(sp, "two_vccs_split", spy("split", sp.two_vccs_split))
        result = solver(g)
        monkeypatch.undo()
        assert result.certificate_ok
        # domtree builds the result: once on g, and for problem 3 once on
        # the coarse graph; split recomputes each certificate once.
        assert calls["domtree"][0] == g
        assert len(calls["domtree"]) == 1 + coarse_graphs
        assert calls["split"][0] == from_edge_list(g.n, result.edges)
        assert len(calls["split"]) == 1 + coarse_graphs


def _triangles_on_a_random_graph(seed):
    """A bidirected triangle per vertex of a random graph on 3-6 vertices,
    each of its edges realised between random corners: the triangles are
    the components, and the coarsened graph can have its own."""
    rng = random.Random(seed)
    q = rng.randint(3, 6)
    edges = [(3 * a + i, 3 * a + j) for a in range(q) for i, j in permutations(range(3), 2)]
    for a in range(q):
        for b in range(q):
            if a != b and rng.random() < 0.5:
                edges.append((3 * a + rng.randrange(3), 3 * b + rng.randrange(3)))
    return from_edge_list(3 * q, edges)


@pytest.mark.parametrize("dropped", ["every", "first"])
def test_problem3_certificate_catches_a_coarse_edge_left_unlifted(monkeypatch, dropped):
    # Problem 3's coarse level is checked on the retained graph's own
    # coarsened graph, so a coarse edge kept but not lifted back into the
    # retained graph fails the certificate while the components still agree.
    import vconn.sparsify as sp

    graphs = [_triangles_on_a_random_graph(190_700 + i) for i in range(60)]
    results = [sparsify_problem3(g) for g in graphs]
    assert all(r.certificate_ok for r in results)
    graphs = [g for g, r in zip(graphs, results) if r.coarse_components]
    assert len(graphs) >= 10

    class Retained(set):
        lifts = 0

        def add(self, edge):
            self.lifts += 1
            if dropped == "first" and self.lifts > 1:
                super().add(edge)

    problem1 = sp._problem1

    def unlifted(g):
        comps, per_component, retained = problem1(g)
        return comps, per_component, Retained(retained)

    monkeypatch.setattr(sp, "_problem1", unlifted)
    for g in graphs:
        r = sparsify_problem3(g)
        assert r.recomputed_components == r.components
        assert r.certificate_ok is False


def test_problem3_certificate_fails_an_accept_everything_deletion_test(monkeypatch):
    # It fails on the graph where problem 1's does (the merge test covers
    # all three problems already).
    import vconn.sparsify as sp

    monkeypatch.setattr(sp, "_edge_set_is_2vc", lambda *args: True)
    assert sparsify_problem3(clique_cycle(173_000)).certificate_ok is False


# The sparsify2_s and sparsify3_s workloads build these sets with seed 1
# (with the kvcc3_s and cut_s sets in conftest).
PLANTED_CHAIN_SPARSIFY_SET = [
    GenSpec(n=1000, m=4000, model="planted", seed=1000 + i, sizes=(4,) * 333) for i in range(5)
]
BENCHMARK_SETS = {
    "uniform-4n": UNIFORM_CUT_SET,
    "planted-chain": PLANTED_CHAIN_SPARSIFY_SET,
    "kvcc-dense": KVCC_DENSE_SET,
}

# (``_quotient`` calls, SCC passes) summed over each set: exact work
# baselines, free of timing noise.  Problem 3 coarsens g and, for its
# certificate, the retained graph, with one SCC pass each.  A certificate
# split at a vertex that leaves one SCC makes one SCC pass; before it did,
# uniform-4n sparsify2 read 540 passes.  The engine outputs a piece that
# meets the degree bound of ``connectivity._dense`` with no articulation
# test, so with no SCC pass; before it did, planted-chain read 6,700
# passes for sparsify2 and 6,695 for sparsify3.  It also outputs a
# sibling set that meets the bound with no SCC pass, which took planted-
# chain from 5,035 and 5,030 passes.  The sparsifier tests a degree-2
# core of more than 4 vertices with one SCC pass and one articulation
# test, two passes in all: 28 cores per problem on
# uniform-4n, which read 439 and 246 passes before, and 16 on
# kvcc-dense, which read 128 and 112.
BENCHMARK_WORK = {
    ("uniform-4n", "sparsify3"): (56, 302),
    ("uniform-4n", "sparsify2"): (28, 495),
    ("planted-chain", "sparsify3"): (10, 3_365),
    ("planted-chain", "sparsify2"): (5, 3_370),
    ("kvcc-dense", "sparsify3"): (32, 144),
    ("kvcc-dense", "sparsify2"): (16, 160),
}
BENCHMARK_CALLS = {"sparsify3": sparsify_problem3, "sparsify2": sparsify_problem2}


@pytest.mark.parametrize("case", sorted(BENCHMARK_WORK), ids="-".join)
def test_work_on_the_benchmark_sets(monkeypatch, case):
    import vconn.articulation
    import vconn.connectivity
    import vconn.sparsify as sp
    import vconn.twovcc

    work = {"quotients": 0, "scc passes": 0}

    def spy(key, func):
        def wrapper(*args, **kwargs):
            work[key] += 1
            return func(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(sp, "_quotient", spy("quotients", sp._quotient))
    scc_ids = spy("scc passes", vconn.connectivity._scc_ids)
    for module in (vconn.connectivity, vconn.articulation, vconn.twovcc):
        monkeypatch.setattr(module, "_scc_ids", scc_ids)
    family, call = case
    for spec in BENCHMARK_SETS[family]:
        BENCHMARK_CALLS[call](gen_random(spec))
    assert (work["quotients"], work["scc passes"]) == BENCHMARK_WORK[case]


def test_flow_deletion_test_matches_full_check():
    def full_check_loop(g):
        # Reference: one full 2-vertex-connectivity test per deletion.
        core = set(min_degree2_subgraph(g))
        kept = set(g.edges)
        for e in sorted(kept - core, reverse=True):
            kept.discard(e)
            if not is_2vertex_connected(from_edge_list(g.n, kept)):
                kept.add(e)
        return tuple(sorted(kept))

    graphs = [clique_cycle(170_000 + i) for i in range(6)]
    graphs += [gen_random(GenSpec(n=60, m=300, seed=171_000 + i, strongly_connected=True))
               for i in range(6)]
    deletions = 0
    for g in graphs:
        for comp in two_vccs(g):
            piece = induced_subgraph(g, comp)
            kept = approx_2vcss(piece)
            assert kept == full_check_loop(piece)
            deletions += piece.m - len(kept)
    assert deletions > 1000


def test_core_shortcuts_keep_the_deletion_loops_edges(monkeypatch):
    # ``_prune_to_2vcss`` returns the degree-2 core, with no deletion test,
    # when the core has at most 4 vertices (the size rule) or one
    # articulation test proves it 2-vertex-connected; the loop then could
    # only accept every deletion.  Spies tell which path each piece took,
    # and every path must keep the edges that the loop alone keeps.
    import vconn.sparsify as sp
    from vconn.sparsify import _edge_set_is_2vc, _prune

    def loop_without_shortcut(g):
        core = set(min_degree2_subgraph(g))
        candidates = [e for e in g.edges if e not in core]
        return _prune([list(row) for row in g.out_adj], candidates, _edge_set_is_2vc)

    ran = []

    def spy(name, func):
        def wrapper(*args):
            ran.append(name)
            return func(*args)
        return wrapper

    graphs = [clique_cycle(170_000 + i) for i in range(6)]
    graphs += [gen_random(GenSpec(n=60, m=300, seed=171_000 + i, strongly_connected=True))
               for i in range(6)]
    graphs += mixed_corpus(200, base_seed=178_000, max_n=10)
    paths = {"size": 0, "articulation": 0, "loop": 0}
    for g in graphs:
        for comp in two_vccs(g):
            piece = induced_subgraph(g, comp)
            ran.clear()
            monkeypatch.setattr(sp, "_points_and_trees", spy("articulation", sp._points_and_trees))
            monkeypatch.setattr(sp, "_prune", spy("loop", sp._prune))
            kept = approx_2vcss(piece)
            monkeypatch.undo()
            assert kept == loop_without_shortcut(piece)
            paths[ran[-1] if ran else "size"] += 1
    # 5 of the first 12 graphs' pieces still run the loop.
    assert paths["size"] >= 20 and paths["articulation"] >= 40 and paths["loop"] >= 20, paths


def test_sparsifier_work_on_the_benchmark_sets(monkeypatch):
    # Seed-1 sparsify2 sets.  Deletion flows before the core shortcut:
    # 6,660 on planted-chain, 1,302 on uniform-4n and 3,894 on kvcc-dense.
    # Before the seed shortcut planted-chain built a budget network for
    # each of its 1,665 components; the other sets build one per graph.
    import sys

    import vconn.graph
    import vconn.sparsify as sp

    work = {"deletion flows": 0, "budget networks": 0}
    callers = set()
    is_2vc, max_flow = sp._edge_set_is_2vc, FlowNetwork.max_flow
    induced = vconn.graph.induced_subgraph

    def spy_is_2vc(*args):
        work["deletion flows"] += 1
        return is_2vc(*args)

    def spy_max_flow(*args):
        work["budget networks"] += 1
        return max_flow(*args)

    def spy_induced(*args):
        callers.add(sys._getframe(1).f_globals["__name__"])
        return induced(*args)

    monkeypatch.setattr(sp, "_edge_set_is_2vc", spy_is_2vc)
    monkeypatch.setattr(FlowNetwork, "max_flow", spy_max_flow)
    for name, module in list(sys.modules.items()):
        if name.startswith("vconn") and getattr(module, "induced_subgraph", None) is induced:
            monkeypatch.setattr(module, "induced_subgraph", spy_induced)
    found = {}
    for family, specs in BENCHMARK_SETS.items():
        work.update(dict.fromkeys(work, 0))
        for spec in specs:
            assert sparsify_problem2(gen_random(spec)).certificate_ok
        found[family] = dict(work)
    assert found == {
        "planted-chain": {"deletion flows": 0, "budget networks": 0},
        "uniform-4n": {"deletion flows": 46, "budget networks": 28},
        "kvcc-dense": {"deletion flows": 3_411, "budget networks": 16},
    }
    assert "vconn.twovcc" in callers and "vconn.sparsify" not in callers


def _shuffled_rows(rows, rng):
    rows = [list(row) for row in rows]
    for row in rows:
        rng.shuffle(row)
    return rows


def test_pruning_keeps_the_same_edges_from_shuffled_rows():
    # A rejected candidate goes back to the end of its row, so the rows
    # lose their order; each deletion test reads a flow value, which no
    # row order changes.  So rows shuffled first keep the same edges, at
    # k = 2 (approx_2vcss) and at k = 1 (approx_mscss).
    from vconn.sparsify import _edge_set_is_2vc, _edge_set_is_strongly_connected, _prune

    rng = random.Random(179_000)
    graphs = [clique_cycle(179_000 + i) for i in range(4)]
    graphs += [gen_random(GenSpec(n=40, m=200, seed=179_100 + i, strongly_connected=True))
               for i in range(4)]
    deletions = {1: 0, 2: 0}
    for g in graphs:
        for comp in two_vccs(g):
            piece = induced_subgraph(g, comp)
            core = set(min_degree2_subgraph(piece))
            candidates = [e for e in piece.edges if e not in core]
            kept = _prune(_shuffled_rows(piece.out_adj, rng), candidates, _edge_set_is_2vc)
            assert kept == approx_2vcss(piece)
            deletions[2] += piece.m - len(kept)
        union = sorted(_arborescence_union(g))
        rows = [[] for _ in range(g.n)]
        for u, v in union:
            rows[u].append(v)
        kept = _prune(_shuffled_rows(rows, rng), union, _edge_set_is_strongly_connected)
        assert kept == approx_mscss(g)
        deletions[1] += len(union) - len(kept)
    assert deletions[1] > 100 and deletions[2] > 1000


def test_deletion_loop_builds_one_split_network(monkeypatch):
    import vconn._flow as flow
    import vconn.sparsify as sp

    g = clique_cycle(172_000)
    g = induced_subgraph(g, two_vccs(g)[0])
    assert g.n > 40
    calls = {"is_2vc": 0, "networks": 0}
    is_2vc, init = sp.is_2vertex_connected, flow.FlowNetwork.__init__

    def spy_is_2vc(h):
        calls["is_2vc"] += 1
        return is_2vc(h)

    def spy_init(self, size):
        calls["networks"] += 1
        init(self, size)

    monkeypatch.setattr(sp, "is_2vertex_connected", spy_is_2vc)
    monkeypatch.setattr(flow.FlowNetwork, "__init__", spy_init)
    kept = approx_2vcss(g)
    monkeypatch.undo()
    assert len(kept) < g.m
    # The guard of min_degree2_subgraph; then the degree-2 core's network.
    # The deletion tests build none: they search the kept edges' rows.
    assert calls["is_2vc"] == 1
    assert calls["networks"] == 1


def test_certificate_catches_a_deletion_test_that_accepts_everything(monkeypatch):
    import vconn.sparsify as sp

    g = clique_cycle(173_000)
    assert sparsify_problem1(g).certificate_ok
    monkeypatch.setattr(sp, "_edge_set_is_2vc", lambda *args: True)
    assert sparsify_problem1(g).certificate_ok is False


def _count_is_2vc_calls(monkeypatch, call):
    """The number of ``is_2vertex_connected`` calls that sparsify makes
    while ``call()`` runs, and call's result."""
    import vconn.sparsify as sp

    calls = []
    is_2vc = sp.is_2vertex_connected

    def spy(h):
        calls.append(h)
        return is_2vc(h)

    monkeypatch.setattr(sp, "is_2vertex_connected", spy)
    try:
        result = call()
        return len(calls), result
    finally:
        monkeypatch.undo()


def test_sparsifiers_take_2_vertex_connectivity_from_the_engine(monkeypatch):
    # Every component comes from the engine, which proved it
    # 2-vertex-connected; the sparsifiers do not test it again.  The one
    # articulation test they make is on a component's degree-2 core, a
    # graph on its vertices with fewer edges.
    import vconn.sparsify as sp

    components, tested = [], []
    prune_to_2vcss, points_and_trees = sp._prune_to_2vcss, sp._points_and_trees

    def spy_prune(g, core):
        components.append(g)
        return prune_to_2vcss(g, core)

    def spy_points(h):
        comp = components[-1]
        tested.append((h.n == comp.n, h.m < comp.m))
        return points_and_trees(h)

    graphs = [clique_cycle(180_000 + i) for i in range(3)]
    graphs += [gen_random(GenSpec(n=40, m=60, model="planted", seed=180_050 + i,
                                  sizes=(4,) * 13)) for i in range(3)]
    graphs += [gen_random(GenSpec(n=60, m=240, seed=180_100 + i, strongly_connected=True))
               for i in range(3)]
    pieces = 0
    for g in graphs:
        for solver in (sparsify_problem1, sparsify_problem2, sparsify_problem3):
            monkeypatch.setattr(sp, "_prune_to_2vcss", spy_prune)
            monkeypatch.setattr(sp, "_points_and_trees", spy_points)
            calls, result = _count_is_2vc_calls(monkeypatch, lambda: solver(g))
            assert calls == 0
            assert result.certificate_ok
            pieces += len(result.components)
    assert pieces > 50
    assert len(tested) >= 15 and set(tested) == {(True, True)}


def test_public_entry_points_check_their_input_once(monkeypatch, tri, k4b):
    c3 = from_edge_list(3, [(0, 1), (1, 2), (2, 0)])
    two_cycle = from_edge_list(2, [(0, 1), (1, 0)])
    for func in (min_degree2_subgraph, approx_2vcss):
        chain = clique_cycle(181_000)
        for good in (tri, k4b, induced_subgraph(chain, two_vccs(chain)[0])):
            calls, kept = _count_is_2vc_calls(monkeypatch, lambda: func(good))
            assert calls == 1 and len(kept) <= good.m
        for bad in (c3, two_cycle):
            with pytest.raises(NotTwoVertexConnected):
                _count_is_2vc_calls(monkeypatch, lambda: func(bad))


def _by_labels(pieces):
    return sorted(pieces, key=lambda h: h.origin_labels)


def test_certificate_catches_an_engine_that_merges_two_components(monkeypatch):
    # Two adjacent 4-cliques of a bare chain share one vertex, a strong
    # articulation point, so their union is not 2-vertex-connected.  No
    # guard re-tests the merged piece; the split engine's certificate
    # rejects it, in all three problems, without raising.
    import vconn.sparsify as sp

    domtree_pieces = sp._domtree_pieces

    def merging(h):
        pieces = _by_labels(domtree_pieces(h))
        if len(pieces) < 2:
            return pieces
        merged = {*pieces[0].origin_labels, *pieces[1].origin_labels}
        return [induced_subgraph(h, merged), *pieces[2:]]

    failed = 0
    for seed in range(182_000, 182_005):
        g = gen_random(GenSpec(n=40, m=40, model="planted", seed=seed, sizes=(4,) * 13))
        for solver in (sparsify_problem1, sparsify_problem2, sparsify_problem3):
            assert solver(g).certificate_ok
            monkeypatch.setattr(sp, "_domtree_pieces", merging)
            result = solver(g)
            monkeypatch.undo()
            assert not is_2vertex_connected(induced_subgraph(g, result.components[0]))
            failed += result.certificate_ok is False
    assert failed == 15


def _drop_last_component(g, pieces):
    return _by_labels(pieces)[:-1]


def _drop_last_vertex_of_first_component(g, pieces):
    # A 3-set of a bidirected 4-clique is still 2-vertex-connected.
    if not pieces:
        return pieces
    first, *rest = _by_labels(pieces)
    return [induced_subgraph(g, first.origin_labels[:-1]), *rest]


class CertificateMissedTheDrop(Exception):
    pass


@pytest.mark.xfail(strict=True, raises=CertificateMissedTheDrop, reason="ROADMAP item 1")
@pytest.mark.parametrize(
    "drop", [_drop_last_component, _drop_last_vertex_of_first_component],
    ids=["component", "vertex"],
)
def test_certificate_catches_an_engine_that_drops_a_component_or_a_vertex(monkeypatch, drop):
    # The certificate recomputes the retained graph's components.  An
    # engine that leaves a component, or a vertex of one, out of its list
    # keeps no edge of it, so the retained graph lacks it too and the two
    # lists agree: only a check against g itself would see the drop.  The
    # expected failure is only that one; a mutant that changed nothing
    # fails the test outright.
    import vconn.sparsify as sp

    domtree_pieces = sp._domtree_pieces
    failed = 0
    for seed in range(182_000, 182_005):
        g = gen_random(GenSpec(n=40, m=40, model="planted", seed=seed, sizes=(4,) * 13))
        for solver in (sparsify_problem1, sparsify_problem2, sparsify_problem3):
            assert solver(g).certificate_ok
            monkeypatch.setattr(sp, "_domtree_pieces", lambda h: drop(h, domtree_pieces(h)))
            result = solver(g)
            monkeypatch.undo()
            assert list(result.components) != two_vccs(g)
            failed += result.certificate_ok is False
    if failed != 15:
        raise CertificateMissedTheDrop(f"{failed} of 15 certificates failed")
