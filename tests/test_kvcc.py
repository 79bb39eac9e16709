import random
from itertools import combinations

import pytest

import vconn.kvcc
import vconn.twovcc
from vconn import (
    from_edge_list,
    induced_subgraph,
    is_2vertex_connected,
    is_k_vertex_connected,
    is_strongly_connected,
    k_vccs,
    min_vertex_cut,
    remove_vertices,
    reverse,
    three_vccs,
    two_vccs_domtree,
    two_vccs_split,
    vertex_connectivity,
)
from vconn._flow import _min_st_vertex_cut
from vconn.errors import InvalidK, NoCutExists, NotStronglyConnected
from vconn.testkit import (
    GenSpec,
    _maximal_only,
    brute_k_vccs,
    brute_min_vertex_cut,
    gen_random,
)

from conftest import bidirected, mixed_corpus


@pytest.fixture
def c4b():
    return from_edge_list(4, bidirected([(0, 1), (1, 2), (2, 3), (3, 0)]))


def test_vertex_connectivity_examples(bowtie, k4b, c4b):
    assert vertex_connectivity(bowtie) == 1
    assert vertex_connectivity(k4b) == 3  # complete graph convention n-1
    assert vertex_connectivity(c4b) == 2
    # No pair is non-adjacent, so the one-source search runs no flow.
    assert vertex_connectivity(from_edge_list(1, [])) == 0
    for n in (2, 5):
        assert vertex_connectivity(from_edge_list(n, bidirected(combinations(range(n), 2)))) == n - 1


def test_vertex_connectivity_requires_strong(fig1):
    with pytest.raises(NotStronglyConnected):
        vertex_connectivity(from_edge_list(2, [(0, 1)]))
    assert vertex_connectivity(fig1) == 1


def test_min_vertex_cut_examples(bowtie, k4b, c4b):
    assert min_vertex_cut(bowtie).vertices == (0,)
    assert min_vertex_cut(c4b).vertices == (1, 3)
    with pytest.raises(NoCutExists, match="complete bidirected"):
        min_vertex_cut(k4b)
    with pytest.raises(NoCutExists, match="single vertex"):
        min_vertex_cut(from_edge_list(1, []))
    with pytest.raises(NoCutExists, match="no vertices"):
        min_vertex_cut(from_edge_list(0, []))
    for n in range(1, 7):
        g = from_edge_list(n, [(u, v) for u in range(n) for v in range(n) if u != v])
        with pytest.raises(NoCutExists) as caught:
            min_vertex_cut(g)
        assert str(caught.value) == (
            "a single vertex has no vertex cut" if n == 1
            else "complete bidirected graphs have no vertex cut"
        )


def test_min_vertex_cut_is_minimum_and_disconnecting():
    for g in mixed_corpus(200, base_seed=61_000):
        if not is_strongly_connected(g) or g.n < 3:
            continue
        if g.m == g.n * (g.n - 1):
            with pytest.raises(NoCutExists):
                min_vertex_cut(g)
            continue
        cut = min_vertex_cut(g)
        expected = brute_min_vertex_cut(g)
        assert cut.size == len(expected)
        remaining = [v for v in range(g.n) if v not in set(cut.vertices)]
        assert not is_strongly_connected(induced_subgraph(g, remaining))


def _reaches(g, s, t, removed):
    seen, stack = {s}, [s]
    while stack:
        for w in g.out_adj[stack.pop()]:
            if w not in seen and w not in removed:
                seen.add(w)
                stack.append(w)
    return t in seen


def _brute_st_separator_size(g, s, t):
    others = [v for v in range(g.n) if v not in (s, t)]
    for size in range(len(others) + 1):
        if any(not _reaches(g, s, t, set(x)) for x in combinations(others, size)):
            return size
    raise AssertionError(f"no separator of {s}->{t}")


def test_st_separator_from_the_last_search_matches_brute_force():
    # The separator is read from the labels of the flow's last, failed
    # search; check it pair by pair against subsets in increasing size.
    checked = 0
    for g in mixed_corpus(150, base_seed=62_000, max_n=9):
        if not is_strongly_connected(g):
            continue
        for s in range(g.n):
            for t in range(g.n):
                if s == t or t in g.out_adj[s]:
                    continue
                size = _brute_st_separator_size(g, s, t)
                count, cut = _min_st_vertex_cut(g.out_adj, s, t, g.n)
                assert count == size == len(cut)
                assert s not in cut and t not in cut
                assert not _reaches(g, s, t, set(cut))
                assert _min_st_vertex_cut(g.out_adj, s, t, size) == (size, None)
                checked += 1
    assert checked > 500


def test_connectivity_matches_brute_force():
    checked = 0
    for g in mixed_corpus(200, base_seed=61_000, max_n=9):
        if not is_strongly_connected(g):
            assert not any(is_k_vertex_connected(g, k) for k in range(1, 5))
            continue
        if g.m == g.n * (g.n - 1):
            continue
        kappa = vertex_connectivity(g)
        assert kappa == len(brute_min_vertex_cut(g)), g.edges
        for k in range(1, 5):
            assert is_k_vertex_connected(g, k) == (g.n >= k + 1 and kappa >= k), (k, g.edges)
        checked += 1
    assert checked > 50


def test_cut_through_the_least_degree_vertex():
    # Two bidirected 5-cliques joined only through vertex 0, which has the
    # least in-degree x out-degree (16, tied with 3-5 and 8-10; the lowest
    # id wins) and is the only minimum cut, so only the one-source
    # search's neighbour pairs (x, y) are separated by one vertex.
    def clique(vs):
        return [(u, w) for u in vs for w in vs if u != w]

    g = from_edge_list(
        11, clique(range(1, 6)) + clique(range(6, 11)) + bidirected([(0, 1), (0, 2), (0, 6), (0, 7)])
    )
    assert vertex_connectivity(g) == 1
    assert not is_k_vertex_connected(g, 2)
    assert min_vertex_cut(g).vertices == (0,)


def test_is_k_vertex_connected(fig1, k4b, tri):
    assert is_k_vertex_connected(k4b, 3)
    assert not is_k_vertex_connected(induced_subgraph(fig1, {0, 3, 4, 5}), 3)
    assert is_k_vertex_connected(tri, 2)
    assert not is_k_vertex_connected(from_edge_list(2, [(0, 1)]), 1)
    with pytest.raises(InvalidK):
        is_k_vertex_connected(tri, 0)


def test_three_vccs_examples(fig1, k4b):
    assert three_vccs(k4b) == [(0, 1, 2, 3)]
    assert three_vccs(fig1) == []
    two_blocks = from_edge_list(
        6,
        [(u, v) for u in (0, 1, 2, 3) for v in (0, 1, 2, 3) if u != v]
        + [(u, v) for u in (0, 1, 4, 5) for v in (0, 1, 4, 5) if u != v],
    )
    assert three_vccs(two_blocks) == [(0, 1, 2, 3), (0, 1, 4, 5)]


def test_k_vccs_examples(fig1, k4b):
    assert k_vccs(k4b, 2) == [(0, 1, 2, 3)]
    assert k_vccs(fig1, 2) == [(0, 3, 4, 5), (0, 6, 7)]
    assert k_vccs(k4b, 4) == []
    with pytest.raises(InvalidK):
        k_vccs(k4b, 1)


def test_k_far_above_n_returns_empty_without_recursing(fig1):
    # Fewer than k+1 vertices have in- and out-degree >= k in any 2-VCC,
    # so no k-VCC exists; the degree filter drops every piece before any
    # flow network is built.
    assert k_vccs(fig1, 5000) == []


def test_three_vccs_match_brute_force():
    for g in mixed_corpus(120, base_seed=72_000, max_n=9):
        assert three_vccs(g) == brute_k_vccs(g, 3)


def test_four_and_five_vccs_match_brute_force():
    for g in mixed_corpus(120, base_seed=72_000, max_n=9):
        for k in (4, 5):
            assert k_vccs(g, k) == brute_k_vccs(g, k), (k, g.edges)


def test_two_vcc_engine_runs_once_per_call(monkeypatch):
    calls = []

    def spy(g):
        calls.append(g.n)
        return two_vccs_domtree(g)

    monkeypatch.setattr(vconn.kvcc, "two_vccs_domtree", spy)
    g = gen_random(GenSpec(n=51, m=330, model="planted", seed=127_300, sizes=(6,) * 10))
    for k in (3, 4):
        calls.clear()
        k_vccs(g, k)
        assert calls == [g.n]


def test_k_far_above_the_degrees_skips_the_2vcc_engine(monkeypatch):
    rounds = []
    real = vconn.twovcc._points_and_trees

    def spy(h):
        rounds.append(h.n)
        return real(h)

    monkeypatch.setattr(vconn.twovcc, "_points_and_trees", spy)
    g = gen_random(GenSpec(n=2000, m=8000, seed=3, strongly_connected=True))
    assert k_vccs(g, 3000) == []
    assert rounds == []


def test_k2_delegates_to_split():
    for g in mixed_corpus(60, base_seed=83_000):
        assert k_vccs(g, 2) == two_vccs_split(g)


def test_outputs_share_at_most_k_minus_1():
    for g in mixed_corpus(80, base_seed=94_000, max_n=9):
        for k in (2, 3):
            comps = k_vccs(g, k)
            for i in range(len(comps)):
                for j in range(i + 1, len(comps)):
                    assert len(set(comps[i]) & set(comps[j])) <= k - 1


def test_components_are_k_connected_and_maximal():
    for g in mixed_corpus(60, base_seed=105_000, max_n=9):
        comps = three_vccs(g)
        for comp in comps:
            assert is_k_vertex_connected(induced_subgraph(g, comp), 3)
            for v in range(g.n):
                if v not in comp:
                    assert not is_k_vertex_connected(
                        induced_subgraph(g, set(comp) | {v}), 3
                    )


def test_no_output_contains_another():
    for g in mixed_corpus(40, base_seed=116_000, max_n=9):
        comps = k_vccs(g, 3)
        assert _maximal_only(comps) == comps


def test_outputs_are_distinct_without_deduplication():
    # k_vccs returns its outputs sorted but not deduplicated: pieces of
    # different branches share fewer than k vertices, and each output has
    # more than k.
    graphs = mixed_corpus(60, base_seed=116_100, max_n=9)
    graphs += [gen_random(spec) for spec in ABOVE_ORACLE_SPECS]
    outputs = 0
    for g in graphs:
        for k in (3, 4):
            comps = k_vccs(g, k)
            assert len(set(comps)) == len(comps)
            assert all(len(c) > k for c in comps)
            outputs += len(comps)
    assert outputs > 40


def test_the_cut_walk_stops_at_an_empty_separator():
    # Two bidirected triangles: no pair of them is joined, so the first
    # flowed pair across them has the empty separator, which ends the walk
    # (a threshold of 0 admits no smaller cut).
    g = from_edge_list(6, bidirected([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]))
    assert not is_strongly_connected(g)
    assert list(vconn.kvcc._cuts_below(g, 3)) == [()]
    assert not is_k_vertex_connected(g, 3)


def _k_connected_by_dominators(h, k):
    # h minus any k-2 vertices stays 2-vertex-connected, tested with the
    # dominator-based articulation points rather than the flow code.
    return all(
        is_2vertex_connected(remove_vertices(h, x))
        for x in combinations(range(h.n), k - 2)
    )


def _relabelled(g, perm):
    return from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges])


# The benchmark's shapes (uniform m=4n, which has no 3-VCC, and 6-cliques
# on a spanning cycle, whose 3- and 4-VCC is the whole graph), plus a
# denser uniform graph and a bare 6-clique chain, whose k-VCCs are proper,
# overlapping subsets.
ABOVE_ORACLE_SPECS = [
    spec
    for i in range(2)
    for spec in (
        GenSpec(n=30, m=120, seed=127_000 + i, strongly_connected=True),
        GenSpec(n=51, m=51, model="planted", seed=127_100 + i, sizes=(6,) * 10,
                strongly_connected=True),
        GenSpec(n=40, m=300, seed=127_200 + i, strongly_connected=True),
        GenSpec(n=51, m=330, model="planted", seed=127_300 + i, sizes=(6,) * 10),
    )
]


@pytest.mark.parametrize("spec", ABOVE_ORACLE_SPECS, ids=lambda s: f"{s.model}-{s.seed}")
def test_k_vccs_metamorphic_above_oracle_size(spec):
    g = gen_random(spec)
    rng = random.Random(spec.seed)
    for k in (3, 4):
        comps = k_vccs(g, k)
        assert k_vccs(reverse(g), k) == comps
        perm = list(range(g.n))
        rng.shuffle(perm)
        expected = sorted(tuple(sorted(perm[v] for v in c)) for c in comps)
        assert k_vccs(_relabelled(g, perm), k) == expected
        for a, b in combinations(comps, 2):
            assert len(set(a) & set(b)) <= k - 1
        for c in comps:
            assert _k_connected_by_dominators(induced_subgraph(g, c), k)


# The two strongly connected 6-clique chains above: one 51-vertex 4-VCC.
CHAIN_SPECS = [s for s in ABOVE_ORACLE_SPECS if s.model == "planted" and s.strongly_connected]


# Flows per call on the two chains, exact and free of timing noise: they
# guard the one-source pair order.
PINNED_FLOWS = {127_100: 90, 127_101: 94}


@pytest.mark.parametrize("spec", CHAIN_SPECS, ids=lambda s: str(s.seed))
def test_one_source_search_bounds_the_flows(monkeypatch, spec):
    # Esfahanian-Hakimi: the vertex v of least in-degree x out-degree needs
    # at most 2(n-1) + d-(v)d+(v) flows; Even's sweep ran 264-444 here.
    g = gen_random(spec)
    pairs = []
    real = vconn.kvcc._min_st_vertex_cut

    def spy(out_adj, s, t, limit):
        pairs.append((s, t))
        return real(out_adj, s, t, limit)

    monkeypatch.setattr(vconn.kvcc, "_min_st_vertex_cut", spy)
    v = min(range(g.n), key=lambda u: (len(g.in_adj[u]) * len(g.out_adj[u]), u))
    bound = 2 * (g.n - 1) + len(g.in_adj[v]) * len(g.out_adj[v])
    calls = (
        lambda: is_k_vertex_connected(g, 3),
        lambda: vertex_connectivity(g),
        lambda: min_vertex_cut(g),
    )
    for call in calls:
        pairs.clear()
        call()
        assert 0 < len(pairs) <= bound
        assert len(pairs) == PINNED_FLOWS[spec.seed]
        assert all(s != t and t not in g.out_adj[s] for s, t in pairs)


def _two_step_paths(g, a, b):
    """The vertices z with edges a -> z -> b."""
    return set(g.out_adj[a]) & set(g.in_adj[b])


# Flows of is_k_vertex_connected(g, 3) on the d-circulants below, exact and
# free of timing noise: they guard the two-step rule on dense pieces.
CIRCULANT_FLOWS = {12: 17, 10: 25}


def test_dense_pieces_flow_only_pairs_with_few_two_step_paths(monkeypatch):
    # Circulant i -> i+1..i+d (mod 30) is d-connected, and most of its
    # one-source pairs (a, b) have 3 or more vertices z with a -> z -> b,
    # which settle the pair at k = 3 without a flow.
    pairs = []
    real = vconn.kvcc._min_st_vertex_cut

    def spy(out_adj, s, t, limit):
        pairs.append((s, t))
        return real(out_adj, s, t, limit)

    monkeypatch.setattr(vconn.kvcc, "_min_st_vertex_cut", spy)
    for d, flows in CIRCULANT_FLOWS.items():
        g = from_edge_list(30, [(i, (i + j) % 30) for i in range(30) for j in range(1, d + 1)])
        pairs.clear()
        assert is_k_vertex_connected(g, 3)
        assert len(pairs) == flows
        assert all(t not in g.out_adj[s] and len(_two_step_paths(g, s, t)) < 3 for s, t in pairs)
        assert k_vccs(g, 3) == [tuple(range(30))]
        assert not is_k_vertex_connected(g, d + 1)
        assert vertex_connectivity(g) == d
        assert min_vertex_cut(g).size == d


DENSITY_SPECS = [
    GenSpec(n=n, m=int(p * n * (n - 1)), seed=128_000 + i, strongly_connected=True)
    for i, (n, p) in enumerate(
        [(30, 0.1), (37, 0.15), (44, 0.2), (50, 0.3), (30, 0.4), (37, 0.5), (30, 0.6), (40, 0.7)]
    )
]


def test_pairs_skipped_for_two_step_paths_are_k_connected(monkeypatch):
    # The walk gives no flow to a pair (a, b) with k vertices z on paths
    # a -> z -> b, since fewer than k vertices cannot meet them all.  So the
    # flow capped at k reaches k on every pair it skips before it stops.
    # For the minimum cut k starts at n - 1 and falls to each new
    # separator's size, so a pair skipped at the running best has a flow
    # capped there that reaches it.
    flowed = []
    real = vconn.kvcc._min_st_vertex_cut

    def spy(out_adj, s, t, limit):
        result = real(out_adj, s, t, limit)
        flowed.append((s, t, limit, result[1]))
        return result

    monkeypatch.setattr(vconn.kvcc, "_min_st_vertex_cut", spy)
    skipped = 0
    for spec in DENSITY_SPECS:
        g = gen_random(spec)
        pairs = [(a, b) for a, b, _ in vconn.kvcc._one_source_pairs(g)]
        for k in (1, 2, 3, 4, 5, 8):
            flowed.clear()
            cut = next(vconn.kvcc._cuts_below(g, k), None)
            flows = [(s, t) for s, t, _, _ in flowed]
            walked = pairs if cut is None else pairs[: pairs.index(flows[-1]) + 1]
            assert flows == [(a, b) for a, b in walked if len(_two_step_paths(g, a, b)) < k]
            for a, b in set(walked) - set(flows):
                assert _min_st_vertex_cut(g.out_adj, a, b, k)[0] == k, (spec, k, a, b)
                skipped += 1
        flowed.clear()
        cut = vconn.kvcc._global_min_cut(g)
        best, runs = g.n - 1, iter(flowed)
        for a, b in pairs:
            if len(_two_step_paths(g, a, b)) >= best:
                assert _min_st_vertex_cut(g.out_adj, a, b, best)[0] == best, (spec, a, b)
                skipped += 1
                continue
            s, t, limit, sep = next(runs)
            assert (s, t, limit) == (a, b, best)
            if sep is not None:
                best = len(sep)
        assert next(runs, None) is None
        assert len(cut) == best == vertex_connectivity(g)
    assert skipped > 1000


# Flows of vertex_connectivity and of min_vertex_cut on uniform m = 4n
# graphs, with their kappa and cut, exact and free of timing noise: they
# guard the falling threshold of the minimum-cut walk.
MIN_CUT_FLOWS = {1100: (47, 1, (15,)), 1101: (39, 1, (6,)), 1102: (53, 2, (9, 17))}


@pytest.mark.parametrize("seed", sorted(MIN_CUT_FLOWS))
def test_minimum_cut_flows_only_pairs_below_the_running_best(monkeypatch, seed):
    flows = []
    real = vconn.kvcc._min_st_vertex_cut

    def spy(out_adj, s, t, limit):
        flows.append((s, t))
        return real(out_adj, s, t, limit)

    monkeypatch.setattr(vconn.kvcc, "_min_st_vertex_cut", spy)
    g = gen_random(GenSpec(n=30, m=120, seed=seed, strongly_connected=True))
    count, kappa, cut = MIN_CUT_FLOWS[seed]
    assert vertex_connectivity(g) == kappa
    assert len(flows) == count
    flows.clear()
    assert min_vertex_cut(g).vertices == cut
    assert len(flows) == count


def test_one_source_cuts_agree_with_the_sweep_above_oracle_size():
    # All three skip the one-source pairs that two-step paths settle:
    # min_vertex_cut and vertex_connectivity at the running best,
    # is_k_vertex_connected at k.
    # ``swept`` counts the dense cases, d-(v)d+(v) > 2(k-1)(n-1).
    swept = 0
    for spec in DENSITY_SPECS:
        g = gen_random(spec)
        kappa = vertex_connectivity(g)
        cut = min_vertex_cut(g)
        assert cut.size == kappa, spec
        assert not is_strongly_connected(remove_vertices(g, cut.vertices)), spec
        v = min(range(g.n), key=lambda u: len(g.in_adj[u]) * len(g.out_adj[u]))
        for k in sorted({2, 3, kappa, kappa + 1}):
            assert is_k_vertex_connected(g, k) == (k <= kappa), (spec, k)
            swept += k > 1 and len(g.in_adj[v]) * len(g.out_adj[v]) > 2 * (k - 1) * (g.n - 1)
    assert swept >= 4


# min_vertex_cut returns the minimum a-b separator closest to a, for the
# first one-source pair (a, b) that kappa vertices separate.
ONE_SOURCE_CUTS = {127_100: (1, 2, 3, 5), 127_101: (22, 29, 35, 40)}


@pytest.mark.parametrize("spec", CHAIN_SPECS, ids=lambda s: str(s.seed))
def test_min_vertex_cut_keeps_the_one_source_choice_above_oracle_size(spec):
    g = gen_random(spec)
    cut = min_vertex_cut(g)
    assert cut.vertices == ONE_SOURCE_CUTS[spec.seed]
    assert vertex_connectivity(g) == cut.size
