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

from conftest import (
    KVCC_DENSE_SET,
    UNIFORM_CUT_SET,
    bidirected,
    dense_accepts,
    dense_corpus,
    mixed_corpus,
)


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


def test_three_vccs_match_flow_confirmed_pieces_on_dense_graphs(monkeypatch):
    # ``is_k_vertex_connected`` always walks its flows, so it checks the
    # pieces the loop output on the degree bound alone: each output is
    # 3-vertex-connected and no other vertex can join it.  Brute force
    # settles the graphs of at most 9 vertices.
    accepted = dense_accepts(monkeypatch, vconn.kvcc)
    for i, g in enumerate(dense_corpus(150, base_seed=187_000, max_n=9)):
        assert k_vccs(g, 3) == brute_k_vccs(g, 3), i
    for i, g in enumerate(dense_corpus(200, base_seed=188_000, max_n=14)):
        for comp in k_vccs(g, 3):
            assert is_k_vertex_connected(induced_subgraph(g, comp), 3), (i, comp)
            for v in set(range(g.n)) - set(comp):
                assert not is_k_vertex_connected(induced_subgraph(g, {*comp, v}), 3), (i, v)
    assert len(accepted) > 40


def test_two_cliques_sharing_k_minus_1_vertices_miss_the_degree_bound(monkeypatch):
    # Two bidirected q-cliques sharing 2 vertices have n = 2q - 2 and
    # 2 * delta = 2q - 2 = n + 3 - 3, one short of the bound at k = 3, and
    # the shared pair cuts them; each clique alone meets the bound.
    accepted = dense_accepts(monkeypatch, vconn.kvcc)
    for q in range(4, 8):
        first, second = range(q), range(q - 2, 2 * q - 2)
        g = from_edge_list(2 * q - 2, bidirected(
            [(u, v) for clique in (first, second) for u in clique for v in clique if u < v]
        ))
        accepted.clear()
        assert k_vccs(g, 3) == [tuple(first), tuple(second)], q
        assert accepted == [q, q], q


def test_two_vcc_engine_runs_once_per_call(monkeypatch):
    calls = []

    domtree_pieces = vconn.kvcc._domtree_pieces

    def spy(g):
        calls.append(g.n)
        return domtree_pieces(g)

    monkeypatch.setattr(vconn.kvcc, "_domtree_pieces", spy)
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


# Flows of is_k_vertex_connected(g, 3), vertex_connectivity and
# min_vertex_cut on the two chains, exact and free of timing noise: they
# guard the one-source pair order and the settled rule.
PINNED_FLOWS = {127_100: (26, 45, 45), 127_101: (33, 62, 62)}


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
    for call, flows in zip(calls, PINNED_FLOWS[spec.seed]):
        pairs.clear()
        call()
        assert 0 < len(pairs) <= bound
        assert len(pairs) == flows
        assert all(s != t and t not in g.out_adj[s] for s, t in pairs)


def _two_step_paths(g, a, b):
    """The vertices z with edges a -> z -> b."""
    return set(g.out_adj[a]) & set(g.in_adj[b])


# Flows of is_k_vertex_connected(g, 3) on the d-circulants below, exact and
# free of timing noise: they guard the settled rule on dense pieces.
CIRCULANT_FLOWS = {12: 10, 10: 14}


def test_dense_pieces_flow_only_pairs_with_few_two_step_paths(monkeypatch):
    # Circulant i -> i+1..i+d (mod 30) is d-connected, and most of its
    # one-source pairs are settled at k = 3 without a flow.  The settled
    # rule contains the two-step rule, so a flowed pair (a, b) has fewer
    # than 3 vertices z with a -> z -> b.
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


def _source(g):
    """The walk's v: least in-degree x out-degree, lowest id on ties."""
    return min(range(g.n), key=lambda u: (len(g.in_adj[u]) * len(g.out_adj[u]), u))


def _one_source_pairs(g):
    """The walk's pairs in order: (v, w) unless v->w and (w, v) unless w->v
    for w = 0, 1, ..., then (x, y) for x -> v -> y with x != y and no edge
    x->y."""
    v = _source(g)
    for w in range(g.n):
        if w != v:
            if w not in g.out_adj[v]:
                yield v, w
            if w not in g.in_adj[v]:
                yield w, v
    for x in g.in_adj[v]:
        for y in g.out_adj[v]:
            if y != x and y not in g.out_adj[x]:
                yield x, y


def _settlers(g, v, passed, a, b):
    """The vertices that settle the pair (a, b) once the walk has passed
    the pairs in ``passed``: for (v, w), the in-neighbours x of w with
    x = v, v -> x or (v, x) passed; for (w, v), the mirror image; for a
    neighbour pair (x, y), the z with x -> z -> y."""
    if a == v:
        return [x for x in g.in_adj[b] if x == v or x in g.out_adj[v] or (v, x) in passed]
    if b == v:
        return [y for y in g.out_adj[a] if y == v or v in g.out_adj[y] or (y, v) in passed]
    return _two_step_paths(g, a, b)


def _replay_the_walk(g, k, flowed, first_cut_only):
    """Replays ``_cuts_below(g, k)`` pair by pair against the flows it ran,
    given as (s, t, limit, separator) in order.  The walk must flow
    exactly the pairs with fewer than k settlers, capped at the k in
    force, and every pair it skips must reach that k by an independent
    capped flow.  Returns the number of pairs skipped and the final k."""
    v, passed, runs, skipped = _source(g), set(), iter(flowed), 0
    for a, b in _one_source_pairs(g):
        if len(_settlers(g, v, passed, a, b)) >= k:
            assert _min_st_vertex_cut(g.out_adj, a, b, k)[0] == k, (a, b, k)
            skipped += 1
        else:
            s, t, limit, sep = next(runs)
            assert (s, t, limit) == (a, b, k)
            if sep is not None:
                if first_cut_only or not sep:
                    break
                k = len(sep)
        passed.add((a, b))
    assert next(runs, None) is None
    return skipped, k


def test_pairs_skipped_by_the_settled_rule_are_k_connected(monkeypatch):
    # The walk gives no flow to a pair (v, w) when k in-neighbours x of w
    # are settled: x = v, v -> x, or the walk has passed (v, x).  A set of
    # fewer than k vertices misses one such x, and v still reaches x and
    # then w.  (w, v) is the mirror image, and a neighbour pair (x, y) is
    # settled by k vertices z on paths x -> z -> y.  So the flow capped at
    # k reaches k on every pair the walk skips.  For the minimum cut k
    # starts at n - 1 and falls to each new separator's size, so a pair
    # skipped at the running best has a flow capped there that reaches it.
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
        for k in (1, 2, 3, 4, 5, 8):
            flowed.clear()
            next(vconn.kvcc._cuts_below(g, k), None)
            skipped += _replay_the_walk(g, k, flowed, first_cut_only=True)[0]
        flowed.clear()
        cut = vconn.kvcc._global_min_cut(g)
        count, best = _replay_the_walk(g, g.n - 1, flowed, first_cut_only=False)
        skipped += count
        assert len(cut) == best == vertex_connectivity(g)
    assert skipped > 1000


# Flows of vertex_connectivity and of min_vertex_cut on uniform m = 4n
# graphs, with their kappa and cut, exact and free of timing noise: they
# guard the falling threshold of the minimum-cut walk.
MIN_CUT_FLOWS = {1100: (23, 1, (15,)), 1101: (9, 1, (6,)), 1102: (25, 2, (9, 17))}


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
    # All three skip the one-source pairs that the walk has settled:
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


def _rule_free_cuts_below(g, k):
    """``_cuts_below`` without the settled and two-step rules: every
    one-source pair gets a flow capped at the current k."""
    for a, b in _one_source_pairs(g):
        _, cut = _min_st_vertex_cut(g.out_adj, a, b, k)
        if cut is not None:
            yield cut
            if not cut:
                return
            k = len(cut)


def _outcome(call, *args):
    try:
        return call(*args)
    except (NoCutExists, NotStronglyConnected) as exc:
        return type(exc), str(exc)


def _answers(g):
    return (
        _outcome(min_vertex_cut, g),
        _outcome(vertex_connectivity, g),
        [is_k_vertex_connected(g, k) for k in range(1, 6)],
        k_vccs(g, 3),
    )


# The benchmark's shapes: 6-clique chains on a spanning cycle (n = 51),
# 4-clique chains with noise edges (n = 100, m = 400, not always strongly
# connected) and uniform graphs with m = 4n (n = 30).
BENCHMARK_SHAPED_SPECS = [
    spec
    for i in range(4)
    for spec in (
        GenSpec(n=51, m=51, model="planted", seed=129_000 + i, sizes=(6,) * 10,
                strongly_connected=True),
        GenSpec(n=100, m=400, model="planted", seed=129_100 + i, sizes=(4,) * 33),
        GenSpec(n=30, m=120, seed=129_200 + i, strongly_connected=True),
    )
]


def test_rules_leave_every_answer_as_the_rule_free_walk_gives_it(monkeypatch):
    # A pair is skipped only when its capped flow would reach the k in
    # force, so every cut the walk yields, and the last one, are those of
    # the walk that flows every pair.
    graphs = [gen_random(spec) for spec in DENSITY_SPECS + BENCHMARK_SHAPED_SPECS]
    with_rules = [_answers(g) for g in graphs]
    monkeypatch.setattr(vconn.kvcc, "_cuts_below", _rule_free_cuts_below)
    assert [_answers(g) for g in graphs] == with_rules
    assert len({kappa for _, kappa, _, _ in with_rules}) >= 5


def _flows_of(monkeypatch, call, specs):
    flows = 0
    real = vconn.kvcc._min_st_vertex_cut

    def spy(out_adj, s, t, limit):
        nonlocal flows
        flows += 1
        return real(out_adj, s, t, limit)

    monkeypatch.setattr(vconn.kvcc, "_min_st_vertex_cut", spy)
    for spec in specs:
        call(gen_random(spec))
    return flows


# The kvcc3_s and cut_s workloads build this set with seed 1 (with the
# kvcc-dense and uniform-4n sets in conftest).
PLANTED_CHAIN_CUT_SET = [
    GenSpec(n=100, m=400, model="planted", seed=1100 + i, sizes=(4,) * 33) for i in range(8)
]

# Flows summed over each set, exact and free of timing noise: a work
# baseline for the benchmark's kvcc3_s and cut_s.  Without the settled
# rule the first four read 1,489, 1,494, 1,499 and 1,160.
# kvcc3_s runs the same flows with and without the rule on the last two.
BENCHMARK_FLOWS = {
    "kvcc-dense-kvcc3": (lambda g: k_vccs(g, 3), KVCC_DENSE_SET, 487),
    "kvcc-dense-cut": (min_vertex_cut, KVCC_DENSE_SET, 960),
    "planted-chain-cut": (min_vertex_cut, PLANTED_CHAIN_CUT_SET, 29),
    "uniform-4n-cut": (min_vertex_cut, UNIFORM_CUT_SET, 335),
    "uniform-4n-kvcc3": (lambda g: k_vccs(g, 3), UNIFORM_CUT_SET, 435),
    "planted-chain-kvcc3": (lambda g: k_vccs(g, 3), PLANTED_CHAIN_CUT_SET, 0),
}


@pytest.mark.parametrize("case", sorted(BENCHMARK_FLOWS))
def test_flows_on_the_benchmark_sets(monkeypatch, case):
    call, specs, flows = BENCHMARK_FLOWS[case]
    assert _flows_of(monkeypatch, call, specs) == flows
