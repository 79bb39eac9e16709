from dataclasses import replace
from itertools import combinations

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
    two_vccs,
)
from vconn._flow import FlowNetwork
from vconn.errors import NotStronglyConnected, NotTwoVertexConnected
from vconn.testkit import GenSpec, _quotient, brute_mscss, brute_opt_sparsifier, gen_random

from conftest import bidirected, mixed_corpus


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


def test_seeded_core_matches_plain_edmonds_karp():
    graphs = [clique_cycle(174_000 + i) for i in range(4)]
    graphs += [gen_random(GenSpec(n=250, m=250, model="planted", seed=174_100 + i,
                                  sizes=(4,) * 83, strongly_connected=True))
               for i in range(2)]
    graphs += [gen_random(GenSpec(n=60, m=300, seed=174_200 + i, strongly_connected=True))
               for i in range(4)]
    for i, (n, p) in enumerate([(30, 0.5), (34, 0.7), (37, 0.8), (40, 0.9)]):
        graphs.append(gen_random(GenSpec(n=n, m=int(p * n * (n - 1)), seed=174_300 + i,
                                         strongly_connected=True)))
    pieces = 0
    for g in graphs:
        for comp in two_vccs(g):
            piece = induced_subgraph(g, comp)
            assert min_degree2_subgraph(piece) == plain_edmonds_karp_core(piece)
            pieces += 1
    assert pieces >= len(graphs)


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
    # saturates every budget of every piece.
    chain = gen_random(GenSpec(n=31, m=120, model="planted", seed=176_000, sizes=(4,) * 10))
    comps = two_vccs(chain)
    assert len(comps) == 10
    for comp in comps:
        min_degree2_subgraph(induced_subgraph(chain, comp))
    assert flows == [0] * 10
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


def _arborescence_union(g):
    from vconn.sparsify import _dfs_tree

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
        if is_strongly_connected(g):
            r2 = sparsify_problem2(g)
            assert r2.certificate_ok
            assert r2.strongly_connected
        else:
            with pytest.raises(NotStronglyConnected):
                sparsify_problem2(g)


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
        monkeypatch.setattr(sp, "two_vccs_domtree", spy("domtree", sp.two_vccs_domtree))
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
