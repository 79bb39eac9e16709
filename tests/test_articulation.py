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
from vconn.errors import NotStronglyConnected, VertexOutOfRange
from vconn.testkit import brute_sap

from conftest import mixed_corpus


def test_fig1_points(fig1):
    assert strong_articulation_points(fig1) == {0, 1, 2, 3, 4}


def test_tri_has_none(tri):
    assert strong_articulation_points(tri) == set()


def test_c3_all(c3):
    assert strong_articulation_points(c3) == {0, 1, 2}


def test_requires_strong_connectivity():
    with pytest.raises(NotStronglyConnected):
        strong_articulation_points(from_edge_list(2, [(0, 1)]))


def test_pivot_out_of_range():
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    for pivot in (4, -1, -5):
        with pytest.raises(VertexOutOfRange):
            strong_articulation_points(g, pivot)
    with pytest.raises(VertexOutOfRange):
        strong_articulation_points(from_edge_list(1, []), 1)
    # Strong connectivity is checked first.
    with pytest.raises(NotStronglyConnected):
        strong_articulation_points(from_edge_list(0, []), 0)


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
    checked = 0
    for g in mixed_corpus(400, base_seed=1234):
        if not is_strongly_connected(g):
            continue
        assert strong_articulation_points(g) == brute_sap(g)
        checked += 1
    assert checked > 80


def test_pivot_independence_and_reverse_symmetry():
    rng = random.Random(7)
    for g in mixed_corpus(200, base_seed=4321):
        if not is_strongly_connected(g) or g.n < 2:
            continue
        base = strong_articulation_points(g)
        assert strong_articulation_points(g, pivot=rng.randrange(g.n)) == base
        assert strong_articulation_points(reverse(g)) == base
