import random

import pytest

from vconn import (
    from_edge_list,
    induced_subgraph,
    is_2vertex_connected,
    is_strongly_connected,
    reverse,
    strong_articulation_points,
)
from vconn.articulation import _points_and_trees
from vconn.testkit import GenSpec, _masks, _scc_count_in, brute_sap, gen_random

from conftest import mixed_corpus


def test_fig1_points(fig1):
    assert strong_articulation_points(fig1) == {0, 1, 2, 3, 4}


def test_tri_has_none(tri):
    assert strong_articulation_points(tri) == set()


def test_c3_all(c3):
    assert strong_articulation_points(c3) == {0, 1, 2}


def test_any_graph_takes_the_union_over_its_sccs():
    # Removing v changes only the SCC that holds v, so the points of a graph
    # that is not strongly connected are those of its SCCs.
    assert strong_articulation_points(from_edge_list(0, [])) == set()
    assert strong_articulation_points(from_edge_list(2, [(0, 1)])) == set()
    # Two directed triangles joined one way, fed from vertex 0; 4 is isolated.
    g = from_edge_list(8, [(1, 2), (2, 3), (3, 1), (5, 6), (6, 7), (7, 5), (3, 5), (0, 1)])
    assert strong_articulation_points(g) == {1, 2, 3, 5, 6, 7}
    # A subgraph answers in its own ids, not in those of the graph it came from.
    sub = induced_subgraph(g, range(1, 8))
    assert sub.origin_labels == (1, 2, 3, 4, 5, 6, 7)
    assert strong_articulation_points(sub) == {0, 1, 2, 4, 5, 6}


def test_small_graphs():
    single = from_edge_list(1, [])
    assert strong_articulation_points(single) == set()
    pair = from_edge_list(2, [(0, 1), (1, 0)])
    assert strong_articulation_points(pair) == set()
    assert not is_2vertex_connected(single)
    assert not is_2vertex_connected(pair)


def test_is_2vertex_connected(tri, fig1):
    assert is_2vertex_connected(tri)
    assert not is_2vertex_connected(from_edge_list(2, [(0, 1), (1, 0)]))
    assert is_2vertex_connected(induced_subgraph(fig1, {0, 3, 4, 5}))
    assert not is_2vertex_connected(fig1)
    assert not is_2vertex_connected(from_edge_list(3, [(0, 1)]))  # never raises


def test_matches_definitional_oracle():
    strong = 0
    for g in mixed_corpus(1000, base_seed=1234):
        assert strong_articulation_points(g) == brute_sap(g)
        strong += is_strongly_connected(g)
    assert 80 < strong < 900


def test_pivot_independence_and_reverse_symmetry():
    rng = random.Random(7)
    for g in mixed_corpus(200, base_seed=4321):
        base = strong_articulation_points(g)
        assert strong_articulation_points(reverse(g)) == base
        if g.n >= 3 and is_strongly_connected(g):
            assert _points_and_trees(g, rng.randrange(g.n))[0] == base


# Above the oracle's size: uniform graphs, strongly connected and not, a bare
# 100-vertex chain of 4-cliques (its glue vertices are the points) and ten
# 6-cliques on a random spanning cycle.
ABOVE_ORACLE_SPECS = [
    GenSpec(n=60, m=240, seed=21_000, strongly_connected=True),
    GenSpec(n=150, m=300, seed=21_001, strongly_connected=True),
    GenSpec(n=120, m=360, seed=21_002),
    GenSpec(n=300, m=900, seed=21_003),
    GenSpec(n=100, m=0, model="planted", seed=21_004, sizes=(4,) * 33),
    GenSpec(n=51, m=51, model="planted", seed=21_005, sizes=(6,) * 10, strongly_connected=True),
]


@pytest.mark.parametrize("spec", ABOVE_ORACLE_SPECS, ids=lambda s: f"{s.model}-{s.n}-{s.seed}")
def test_definition_reversal_and_relabelling_above_oracle_size(spec):
    g = gen_random(spec)
    points = strong_articulation_points(g)
    # The definition, vertex by vertex, on bit sets rather than the SCC code
    # the library uses.
    out, inn = _masks(g)
    everyone = (1 << g.n) - 1
    base = _scc_count_in(out, inn, everyone)
    assert points == {
        v for v in range(g.n) if _scc_count_in(out, inn, everyone & ~(1 << v)) > base
    }
    assert strong_articulation_points(reverse(g)) == points
    perm = list(range(g.n))
    random.Random(spec.seed).shuffle(perm)
    relabelled = from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    assert strong_articulation_points(relabelled) == {perm[v] for v in points}
