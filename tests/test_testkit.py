import pytest

from vconn import from_edge_list
from vconn.errors import InvalidSpec, NoCutExists, NotAFlowgraph, TooLarge
from vconn.testkit import (
    GenSpec,
    brute_dominators,
    brute_min_vertex_cut,
    brute_sap,
    brute_two_vccs,
    check_domtree_structure,
    gen_random,
)

from conftest import FIG1_COMPONENTS


def test_brute_two_vccs(fig1, c3, k4b):
    assert brute_two_vccs(fig1) == FIG1_COMPONENTS
    assert brute_two_vccs(c3) == []
    assert brute_two_vccs(k4b) == [(0, 1, 2, 3)]


def test_brute_sap(fig1, tri, c3):
    assert brute_sap(fig1) == {0, 1, 2, 3, 4}
    assert brute_sap(tri) == set()
    assert brute_sap(c3) == {0, 1, 2}


def test_brute_dominators(fig1, c3, tri):
    assert brute_dominators(fig1, 0)[2] == frozenset({0, 1, 2, 4})
    assert brute_dominators(c3, 0)[2] == frozenset({0, 1, 2})
    assert brute_dominators(tri, 0)[1] == frozenset({0, 1})
    with pytest.raises(NotAFlowgraph):
        brute_dominators(from_edge_list(2, []), 0)


def test_brute_min_vertex_cut(fig1, bowtie, k4b):
    assert brute_min_vertex_cut(bowtie) == (0,)
    c4b = from_edge_list(4, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2), (3, 0), (0, 3)])
    assert brute_min_vertex_cut(c4b) == (0, 2)
    assert brute_min_vertex_cut(fig1) == (0,)
    with pytest.raises(NoCutExists):
        brute_min_vertex_cut(k4b)


def test_check_domtree_structure(fig1, tri):
    assert check_domtree_structure(fig1, 0, FIG1_COMPONENTS)
    assert check_domtree_structure(tri, 0, [(0, 1, 2)])
    assert not check_domtree_structure(fig1, 0, [(1, 2, 3)])


def test_size_guards():
    big = from_edge_list(13, [])
    with pytest.raises(TooLarge):
        brute_two_vccs(big)
    with pytest.raises(TooLarge):
        brute_sap(big)


def test_gen_deterministic():
    spec = GenSpec(n=5, m=20, model="uniform", seed=1)
    assert gen_random(spec) == gen_random(spec)
    other = gen_random(GenSpec(n=5, m=20, model="uniform", seed=2))
    assert other == gen_random(GenSpec(n=5, m=20, model="uniform", seed=2))


def test_gen_planted_recovers_components():
    spec = GenSpec(n=5, m=0, model="planted", seed=3, sizes=(3, 3))
    g = gen_random(spec)
    assert g.m == 12
    assert brute_two_vccs(g) == [(0, 1, 2), (2, 3, 4)]


def test_gen_single_vertex_and_errors():
    assert gen_random(GenSpec(n=1, m=0)).n == 1
    with pytest.raises(InvalidSpec):
        gen_random(GenSpec(n=0, m=0))
    with pytest.raises(InvalidSpec):
        gen_random(GenSpec(n=3, m=7))
    with pytest.raises(InvalidSpec):
        gen_random(GenSpec(n=3, m=0, model="planted"))
    with pytest.raises(InvalidSpec):
        gen_random(GenSpec(n=4, m=0, model="planted", sizes=(3, 3)))
    with pytest.raises(InvalidSpec):
        gen_random(GenSpec(n=3, m=0, model="nope"))
    with pytest.raises(InvalidSpec, match="uniform model takes no component sizes"):
        gen_random(GenSpec(n=5, m=3, sizes=(2, 2)))


def test_gen_sizes_are_capped(monkeypatch):
    import vconn.graph
    import vconn.testkit

    monkeypatch.setattr(vconn.graph, "MAX_VERTICES", 5)
    monkeypatch.setattr(vconn.testkit, "MAX_GEN_EDGES", 8)
    assert gen_random(GenSpec(n=5, m=8)).m == 8
    # The caps are checked before the generator allocates anything.
    monkeypatch.setattr(vconn.testkit.random, "Random", None)
    with pytest.raises(InvalidSpec, match="n=6 is above the cap of 5 vertices"):
        gen_random(GenSpec(n=6, m=0))
    with pytest.raises(InvalidSpec, match="m=9 is above the cap of 8 edges"):
        gen_random(GenSpec(n=5, m=9))


def test_gen_strongly_connected_flag():
    from vconn import is_strongly_connected

    g = gen_random(GenSpec(n=30, m=35, model="uniform", seed=9, strongly_connected=True))
    assert is_strongly_connected(g)
