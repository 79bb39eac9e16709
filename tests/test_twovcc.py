import random

import pytest

from vconn import (
    from_edge_list,
    induced_subgraph,
    is_2vertex_connected,
    is_strongly_connected,
    reverse,
    sparsify_problem2,
    strongly_connected_components,
    two_vccs,
    two_vccs_containing,
    two_vccs_domtree,
    two_vccs_es,
    two_vccs_split,
)
from vconn import articulation, twovcc
from vconn.connectivity import _degree_core, _scc_ids, _strong_pieces
from vconn.errors import UnknownVariant, VertexOutOfRange
from vconn.testkit import GenSpec, brute_two_vccs, check_domtree_structure, gen_random
from vconn.twovcc import VARIANTS, _canonical, es_fixpoint

from conftest import FIG1_COMPONENTS, bidirected, dense_accepts, dense_corpus, mixed_corpus

ALL = [two_vccs_es, two_vccs_split, two_vccs_domtree]


def test_es_examples(fig1, c3, bowtie):
    assert two_vccs_es(fig1) == FIG1_COMPONENTS
    assert two_vccs_es(c3) == []
    assert two_vccs_es(bowtie) == [(0, 1, 2), (0, 3, 4)]


def test_split_examples(fig1, k4b):
    assert two_vccs_split(fig1) == FIG1_COMPONENTS
    assert two_vccs_split(k4b) == [(0, 1, 2, 3)]
    assert two_vccs_split(from_edge_list(2, [(0, 1), (1, 0)])) == []


def test_domtree_examples(fig1, tri, bowtie):
    assert two_vccs_domtree(fig1) == FIG1_COMPONENTS
    assert two_vccs_domtree(tri) == [(0, 1, 2)]
    assert two_vccs_domtree(bowtie) == [(0, 1, 2), (0, 3, 4)]


def test_containing_examples(fig1, bowtie):
    assert two_vccs_containing(fig1, 0) == FIG1_COMPONENTS
    assert two_vccs_containing(fig1, 1) == []
    assert two_vccs_containing(bowtie, 3) == [(0, 3, 4)]
    with pytest.raises(VertexOutOfRange):
        two_vccs_containing(fig1, 8)


def test_facade(fig1):
    assert two_vccs(fig1) == two_vccs_domtree(fig1)
    assert two_vccs(fig1, "split") == two_vccs_split(fig1)
    assert two_vccs(fig1, "per-vertex") == FIG1_COMPONENTS
    empty = from_edge_list(0, [])
    for algo in VARIANTS:
        assert two_vccs(empty, algo) == []
    with pytest.raises(UnknownVariant):
        two_vccs(fig1, "bogus")


def test_vertices_1_2_in_no_component(fig1):
    for algo in VARIANTS:
        for comp in two_vccs(fig1, algo):
            assert 1 not in comp and 2 not in comp


def test_variants_agree_and_match_oracle():
    for g in mixed_corpus(250, base_seed=20_000):
        expected = brute_two_vccs(g)
        for algo in VARIANTS:
            assert two_vccs(g, algo) == expected, (algo, g.edges)


def test_component_invariants():
    for g in mixed_corpus(150, base_seed=31_000):
        comps = two_vccs_split(g)
        # Fact: two distinct components share at most one vertex.
        for i in range(len(comps)):
            for j in range(i + 1, len(comps)):
                assert len(set(comps[i]) & set(comps[j])) <= 1
        # Size-sum bound.
        assert not comps or sum(len(c) for c in comps) < 3 * g.n
        # Each component induces a 2-vertex-connected subgraph, maximal
        # under single-vertex extension.
        for comp in comps:
            assert is_2vertex_connected(induced_subgraph(g, comp))
            for v in range(g.n):
                if v not in comp:
                    assert not is_2vertex_connected(induced_subgraph(g, set(comp) | {v}))


def test_es_fixpoint_is_in_class_l():
    for g in mixed_corpus(60, base_seed=47_000):
        pruned = es_fixpoint(g)
        parts = strongly_connected_components(pruned)
        for u, v in pruned.edges:
            assert parts.component_id[u] == parts.component_id[v]
        # Condition (2): single-vertex deletions leave no inter-SCC edges
        # either (checked for every vertex, a superset of the articulation
        # points).
        for x in range(pruned.n):
            comp, _ = _scc_ids(pruned.n, pruned.out_adj, skip=(x,))
            for u, v in pruned.edges:
                if x not in (u, v):
                    assert comp[u] == comp[v]


def test_domtree_structure_theorem(fig1, tri):
    comps = two_vccs_domtree(fig1)
    assert check_domtree_structure(fig1, 0, comps)
    assert check_domtree_structure(tri, 0, [(0, 1, 2)])
    assert not check_domtree_structure(fig1, 0, [(1, 2, 3)])


def test_per_vertex_union_matches_split():
    for g in mixed_corpus(80, base_seed=52_000):
        assert two_vccs(g, "per-vertex") == two_vccs_split(g)


def test_canonical_rejects_oversize_lists():
    # Duplicates collapse before the size sum is taken; all four triangles
    # of 4 vertices sum to 12 = 3n, which no component list can reach.
    assert _canonical([(2, 1, 0), (0, 1, 2)], 3) == [(0, 1, 2)]
    with pytest.raises(RuntimeError, match="3n"):
        _canonical([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)], 4)


def _large_graphs():
    # Uniform graphs with one giant component, and chains of 100 4-cliques
    # whose 15-45 noise edges leave between 14 and 100 components.
    for seed in range(3):
        yield gen_random(GenSpec(n=300, m=1200, model="uniform", seed=60_000 + seed,
                                 strongly_connected=True))
        yield gen_random(GenSpec(n=301, m=1215 + 15 * seed, model="planted",
                                 seed=61_000 + seed, sizes=(4,) * 100))


def test_domtree_matches_split_above_oracle_size():
    for g in _large_graphs():
        comps = two_vccs_domtree(g)
        assert comps, g
        assert comps == two_vccs_split(g), g.edges
        assert two_vccs(reverse(g)) == comps, g.edges


def _blocks_on_a_fringe_ring(seed):
    # Three seeded blocks (uniform m=4n graphs and 4-clique chains with
    # noise) joined in a ring by fringe vertices of in- and out-degree 1:
    # the graph is strongly connected, and its (2,2)-core, which drops the
    # fringe, falls apart into the blocks.
    rng = random.Random(seed)
    edges, blocks, offset = [], [], 0
    for b in range(3):
        if (seed + b) % 2:
            n = rng.randint(90, 130)
            spec = GenSpec(n=n, m=4 * n, seed=seed + b, strongly_connected=True)
        else:
            spec = GenSpec(n=121, m=520, model="planted", seed=seed + b, sizes=(4,) * 40)
        part = gen_random(spec)
        edges += [(u + offset, v + offset) for u, v in part.edges]
        blocks.append(range(offset, offset + part.n))
        offset += part.n
    for b in range(3):
        x = offset + b
        edges += [(rng.choice(blocks[b]), x), (x, rng.choice(blocks[(b + 1) % 3]))]
    return from_edge_list(offset + 3, edges)


def test_domtree_matches_split_where_pruning_leaves_several_pieces():
    for seed in (170_000, 170_001, 170_010):
        g = _blocks_on_a_fringe_ring(seed)
        assert is_strongly_connected(g)
        assert len(_strong_pieces(induced_subgraph(g, _degree_core(g, 2)))) == 3
        comps = two_vccs_domtree(g)
        assert comps == two_vccs_split(g), seed
        assert two_vccs(reverse(g)) == comps, seed


def test_domtree_runs_one_round_on_uniform_graphs(monkeypatch):
    # A dominator round on the giant piece removes only its outer layer of
    # degree-1 vertices, which took 11-17 rounds on these graphs; the
    # (2,2)-core drops every layer at once.
    rounds = []
    real = twovcc._points_and_trees

    def spy(h):
        rounds.append(h.n)
        return real(h)

    monkeypatch.setattr(twovcc, "_points_and_trees", spy)
    for seed in (1, 2, 3):
        g = gen_random(GenSpec(n=2000, m=8000, seed=seed, strongly_connected=True))
        rounds.clear()
        assert len(two_vccs_domtree(g)) == 1
        assert len(rounds) == 1, seed


def _spy_on_tests(monkeypatch):
    # (piece size, number of points) of every articulation test in twovcc.
    tests = []
    real = twovcc._points_and_trees

    def spy(h):
        result = real(h)
        tests.append((h.n, len(result[0])))
        return result

    monkeypatch.setattr(twovcc, "_points_and_trees", spy)
    return tests


def test_split_tests_each_block_of_a_chain_once(monkeypatch):
    # The cliques of a chain are the blocks of its undirected shadow, so
    # each is one piece before any test, and takes one test: q in all.
    tests = _spy_on_tests(monkeypatch)
    for q in (2, 3, 10, 40):
        g = gen_random(GenSpec(n=3 * q + 1, m=0, model="planted", sizes=(4,) * q))
        tests.clear()
        assert len(two_vccs_split(g)) == q
        assert len(tests) == q, q
    # The sparsifier's certificate on the benchmark's first planted chain:
    # 333 cliques of 4, tested once each.
    g = gen_random(GenSpec(n=1000, m=4000, model="planted", sizes=(4,) * 333, seed=1000))
    sparse = from_edge_list(g.n, sparsify_problem2(g).edges)
    tests.clear()
    cuts = _spy_on_cut_splits(monkeypatch)
    comps = two_vccs_split(sparse)
    assert len(tests) == 333
    assert sum(n for n, _ in tests) == 1332
    assert cuts == []
    monkeypatch.undo()
    assert comps == two_vccs_domtree(sparse)
    # Its noise edges join some cliques into one block, which then splits.
    assert two_vccs_split(g) == two_vccs_domtree(g)


def _spy_on_cut_splits(monkeypatch):
    # The size of every piece that twovcc splits at a cut.
    cuts = []
    real = twovcc._strong_pieces

    def spy(h, cut=()):
        if cut:
            cuts.append(h.n)
        return real(h, cut)

    monkeypatch.setattr(twovcc, "_strong_pieces", spy)
    return cuts


def _blocks_in_a_random_tree(q, ring, seed):
    # q bidirected blocks of ``ring`` + 1 vertices, each sharing one
    # seeded vertex with the blocks before it: 4-cliques at ring=3 and
    # 5-cycles (a cactus) at ring=4.
    rng = random.Random(seed)
    edges, n = [], 1
    for _ in range(q):
        block = [rng.randrange(n), *range(n, n + ring)]
        n += ring
        if ring == 3:
            pairs = [(u, v) for u in block for v in block if u < v]
        else:
            pairs = list(zip(block, block[1:] + block[:1]))
        edges += pairs + [(v, u) for u, v in pairs]
    return from_edge_list(n, edges)


def test_split_works_block_by_block(monkeypatch):
    # Blocks in a random tree take one test each and no split at a vertex.
    tests = _spy_on_tests(monkeypatch)
    cuts = _spy_on_cut_splits(monkeypatch)
    for q in (10, 200):
        for ring in (3, 4):
            g = _blocks_in_a_random_tree(q, ring, seed=7)
            tests.clear()
            assert len(two_vccs_split(g)) == q
            assert (len(tests), cuts) == (q, []), (q, ring)
    # One edge closing a bare chain of 333 cliques makes it one block with
    # 332 points.  Each piece is tested, split at its median point and
    # tested again: 332 splits in two make 665 tests at any pick, but the
    # median keeps the tested pieces at 10,118 vertices in all, where the
    # first or last point, which peels one clique a split, gives 168,494.
    chain = gen_random(GenSpec(n=1000, m=0, model="planted", sizes=(4,) * 333))
    g = from_edge_list(1000, (*chain.edges, (999, 0)))
    tests.clear()
    comps = two_vccs_split(g)
    assert len(tests) == 665
    assert sum(n for n, _ in tests) == 10_118
    assert len(cuts) == 332
    monkeypatch.undo()
    assert comps == two_vccs_domtree(g)


def _growth_from_n_to_4n(tests, engine, family):
    # How much ``engine``'s articulation tests and tested vertices grow from
    # ``family(1000)`` to ``family(4000)``; ``tests`` is the spy's list.
    work = []
    for n in (1000, 4000):
        g = family(n)
        tests.clear()
        engine(g)
        work.append((len(tests), sum(size for size, _ in tests)))
    (tests_n, vertices_n), (tests_4n, vertices_4n) = work
    return tests_4n / tests_n, vertices_4n / vertices_n


def test_domtree_work_grows_linearly_on_clique_chains(monkeypatch):
    # A chain of 4-cliques over all n vertices plus a few noise edges
    # (m = 4n): the degree bound accepts each clique untested, so a chain
    # takes 2-3 tests at either size, the first on the whole chain.  The
    # tested vertices still grow as n: 3.99-4.00 over 4x n at seeds 1-3.
    tests = _spy_on_tests(monkeypatch)
    for seed in (1, 2, 3):

        def chain(n):
            sizes = (4,) * ((n - 1) // 3)
            return gen_random(GenSpec(n=n, m=4 * n, model="planted", sizes=sizes, seed=seed))

        growth = _growth_from_n_to_4n(tests, two_vccs_domtree, chain)
        assert max(growth) <= 4.5, (seed, growth)


def test_domtree_matches_the_oracles_on_dense_graphs(monkeypatch):
    # Edge probabilities 0.4-0.9 give pieces on both sides of the degree
    # bound, so the untested accepts are checked against engines that test
    # every piece.
    accepted = dense_accepts(monkeypatch, twovcc)
    for i, g in enumerate(dense_corpus(400, base_seed=185_000, max_n=9)):
        assert two_vccs_domtree(g) == brute_two_vccs(g), i
    for i, g in enumerate(dense_corpus(600, base_seed=186_000, max_n=11)):
        assert two_vccs_domtree(g) == two_vccs_split(g), i
    assert len(accepted) > 250


def test_two_cliques_sharing_a_vertex_miss_the_degree_bound(monkeypatch):
    # Two bidirected q-cliques sharing one vertex have n = 2q - 1 and
    # 2 * delta = 2q - 2 = n - 1, one short of the bound, and that vertex
    # cuts them: the bound is tight, and each clique alone meets it.  With
    # a (q + 1)-clique as the second and an edge from each other vertex of
    # the first to each other vertex of the second, every out-degree meets
    # the bound, but the first clique's in-degrees do not, and the shared
    # vertex still cuts them.
    accepted = dense_accepts(monkeypatch, twovcc)
    for q in range(3, 7):
        for size, one_way in ((q, False), (q + 1, True)):
            first, second = range(q), range(q - 1, q + size - 1)
            pairs = bidirected(
                [(u, v) for clique in (first, second) for u in clique for v in clique if u < v]
            )
            if one_way:
                pairs += [(u, v) for u in first[:-1] for v in second[1:]]
            g = from_edge_list(q + size - 1, pairs)
            accepted.clear()
            assert two_vccs_domtree(g) == [tuple(first), tuple(second)], (q, size)
            assert sorted(accepted) == [q, size], (q, size)


def test_domtree_tests_few_pieces_of_a_planted_chain(monkeypatch):
    # The benchmark's first planted chain: 333 bidirected 4-cliques plus
    # noise edges, 335 articulation tests without the degree bound.
    tests = _spy_on_tests(monkeypatch)
    g = gen_random(GenSpec(n=1000, m=4000, model="planted", sizes=(4,) * 333, seed=1000))
    comps = two_vccs_domtree(g)
    assert len(tests) <= 5, tests
    monkeypatch.undo()
    assert comps == two_vccs_split(g)


def test_split_work_on_a_closed_chain_grows_as_n_log_n(monkeypatch):
    # A closed bare chain is one block whose points ``split`` halves at the
    # median: about two tests per clique, and each level of halving tests
    # every vertex once, so the tested vertices grow as n log n (4.79 over
    # 4x n, where 4 log 4000 / log 1000 = 4.8).  A first-point pick peels
    # one clique a split and grows them as n^2, about 16.
    tests = _spy_on_tests(monkeypatch)

    def closed_chain(n):
        chain = gen_random(GenSpec(n=n, m=0, model="planted", sizes=(4,) * ((n - 1) // 3)))
        return from_edge_list(n, (*chain.edges, (n - 1, 0)))

    test_growth, vertex_growth = _growth_from_n_to_4n(tests, two_vccs_split, closed_chain)
    assert test_growth <= 4.5, test_growth
    assert vertex_growth <= 6, vertex_growth


def test_split_matches_the_oracle_on_small_strongly_connected_graphs():
    for i in range(200):
        n = 6 + i % 7
        g = gen_random(GenSpec(n=n, m=2 * n, seed=3_000 + i, strongly_connected=True))
        assert two_vccs_split(g) == brute_two_vccs(g), i


def test_domtree_builds_trees_only_in_the_articulation_test(monkeypatch, bowtie):
    # Directed cycles have every vertex as an articulation point, and in
    # the bowtie vertex 0 is one in the first round: both must still take
    # the engine's own rule, with no call into ``split`` and no dominator
    # trees beyond the two that each articulation test builds.
    cycles = [from_edge_list(n, [(i, (i + 1) % n) for i in range(n)]) for n in range(3, 9)]
    graphs = [*cycles, bowtie]
    expected = [brute_two_vccs(g) for g in graphs]
    calls = {"split": 0, "tests": 0, "trees": 0}
    real_points, real_tree = twovcc._points_and_trees, articulation.dominator_tree

    def points(h):
        calls["tests"] += 1
        return real_points(h)

    def tree(h, v):
        calls["trees"] += 1
        return real_tree(h, v)

    def split(h):
        calls["split"] += 1
        return two_vccs_split(h)

    monkeypatch.setattr(twovcc, "_points_and_trees", points)
    monkeypatch.setattr(twovcc, "two_vccs_split", split)
    # A tree builder bound in ``twovcc`` itself would be counted as well.
    for module in (articulation, twovcc):
        monkeypatch.setattr(module, "dominator_tree", tree, raising=False)
    assert [two_vccs_domtree(g) for g in graphs] == expected
    assert calls["split"] == 0
    assert calls["trees"] == 2 * calls["tests"] > 0


def test_domtree_recurses_on_the_tree_with_more_nontrivial_dominators(monkeypatch):
    # A dominator tree with no non-trivial dominators has every vertex as a
    # child of vertex 0, so its one sibling set is the whole piece, and a
    # round that recursed on it would push the same piece forever.  The
    # engine takes the tree with more non-trivial dominators; fixing it to
    # either tree repeats a piece on one of these seeds.  ``split`` builds
    # its blocks with the same function, and one block can be all of g, so
    # its answers are read before the spy goes in.
    graphs = [
        gen_random(GenSpec(n=13, m=0, model="planted", seed=seed, sizes=(4,) * 4,
                           strongly_connected=True))
        for seed in (27, 233)
    ]
    expected = [two_vccs_split(g) for g in graphs]
    real = twovcc.induced_subgraph

    def spy(h, s):
        s = set(s)
        assert len(s) < h.n, "a round asked for all of its piece's vertices"
        return real(h, s)

    monkeypatch.setattr(twovcc, "induced_subgraph", spy)
    assert [two_vccs_domtree(g) for g in graphs] == expected


def _metamorphic_graphs():
    # Uniform m=4n graphs (one giant component), chains of 4-cliques with a
    # few noise edges (many small components) and one chain closed by a
    # spanning cycle (one giant component), above oracle size.
    for i, n in enumerate((200, 300, 400)):
        yield gen_random(GenSpec(n=n, m=4 * n, seed=182_000 + i, strongly_connected=True))
    for i, count in enumerate((70, 100, 130)):
        n = 3 * count + 1
        yield gen_random(GenSpec(n=n, m=4 * count * 3 + 5 * (i + 1), model="planted",
                                 seed=182_100 + i, sizes=(4,) * count,
                                 strongly_connected=i == 2))


def test_two_vccs_metamorphic_above_oracle_size():
    rng = random.Random(182_200)
    grown = 0
    for g in _metamorphic_graphs():
        comps = two_vccs(g)
        assert comps, g
        # Relabelling commutes with two_vccs.
        perm = list(range(g.n))
        rng.shuffle(perm)
        relabelled = from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        assert two_vccs(relabelled) == sorted(tuple(sorted(perm[v] for v in c)) for c in comps)
        # Each component is 2-vertex-connected on its own.
        for c in comps:
            assert is_2vertex_connected(induced_subgraph(g, c)), c
        # Adding an edge never splits a component: each old one lies inside
        # a new one.  Edges go in both ways, one at a time, so some merge
        # components.
        h, before = g, comps
        for _ in range(4):
            u, v = rng.sample(range(g.n), 2)
            for e in ((u, v), (v, u)):
                h = from_edge_list(g.n, [*h.edges, e])
                after = two_vccs(h)
                grown += after != before
                holding = {}
                for d in after:
                    for x in d:
                        holding.setdefault(x, []).append(set(d))
                for c in before:
                    assert any(set(c) <= d for d in holding[c[0]]), (e, c)
                before = after
    assert grown >= 10  # some added edges do change the components
