"""Each output check accepts a correct result and rejects a corrupted one."""

import dataclasses
import random

import pytest

import checks
import vconn
from vconn.testkit import GenSpec, brute_sap, gen_random


def planted(seed, n=31, clique=4, strong=False, m=None):
    sizes = (clique,) * ((n - 1) // (clique - 1))
    spec = GenSpec(n=n, m=m if m is not None else 4 * n, model="planted", seed=seed,
                   sizes=sizes, strongly_connected=strong)
    return gen_random(spec)


def dense(seed):
    return planted(seed, n=26, clique=6, strong=True, m=26)


def test_expected_saps_matches_brute_force():
    rng = random.Random(5)
    for seed in range(40):
        n = rng.randint(3, 10)
        g = gen_random(GenSpec(n=n, m=rng.randint(n, min(3 * n, n * (n - 1))), seed=seed))
        assert checks.expected_saps(g) == brute_sap(g)


def test_sap_check_rejects_missing_and_extra_points():
    g = planted(1)
    points = vconn.strong_articulation_points(g)
    assert points and checks.check_saps(g, points) == []
    assert checks.check_saps(g, points - {min(points)})
    assert checks.check_saps(g, points | {next(v for v in range(g.n) if v not in points)})


def test_two_vcc_check_rejects_dropped_vertex_and_overlap():
    g = planted(2)
    ref = vconn.two_vccs_domtree(g)
    assert checks.check_two_vccs(g, vconn.two_vccs_split(g), ref) == []
    dropped = [ref[0][1:], *ref[1:]]
    assert checks.check_two_vccs(g, dropped, ref)
    merged = [tuple(sorted(set(ref[0]) | set(ref[1]))), *ref[2:]]
    assert checks.check_two_vccs(g, merged, ref)
    assert checks.check_two_vccs(g, checks.parse_components("0 1 2\n"), ref)


def test_sparsifier_check_rejects_extra_and_missing_edges():
    g = planted(3)
    ref = vconn.two_vccs_domtree(g)
    for problem, solve in ((2, vconn.sparsify_problem2), (3, vconn.sparsify_problem3)):
        result = solve(g)
        assert checks.check_sparsifier(g, problem, result, ref) == []
        extra = next((u, v) for u in range(g.n) for v in range(g.n)
                     if u != v and (u, v) not in set(g.edges))
        bad = dataclasses.replace(result, edges=tuple(sorted((*result.edges, extra))))
        assert checks.check_sparsifier(g, problem, bad, ref)
        bad = dataclasses.replace(result, edges=result.edges[1:])
        assert checks.check_sparsifier(g, problem, bad, ref)


def test_sparsifier_check_needs_strong_connectivity_only_for_problem_2():
    for seed in range(50):
        g = gen_random(GenSpec(n=40, m=160, seed=seed, strongly_connected=True))
        result = vconn.sparsify_problem3(g)
        if not vconn.is_strongly_connected(vconn.DiGraph(g.n, result.edges)):
            break
    else:
        pytest.fail("no problem-3 result without strong connectivity found")
    ref = vconn.two_vccs_domtree(g)
    assert checks.check_sparsifier(g, 3, result, ref) == []
    assert checks.check_sparsifier(g, 2, result, ref)


def test_three_vcc_check_rejects_dropped_and_added_vertices():
    g = planted(6, n=21, clique=5)
    comps = vconn.k_vccs(g, 3)
    assert comps and checks.check_three_vccs(g, comps) == []
    big = max(comps, key=len)
    others = [c for c in comps if c != big]
    assert checks.check_three_vccs(g, [big[1:], *others])
    outside = next(v for v in range(g.n) if v not in big)
    assert checks.check_three_vccs(g, [tuple(sorted((*big, outside))), *others])


@pytest.mark.parametrize("seed", [7, 8])
def test_cut_check_rejects_non_separating_and_non_minimum_cuts(seed):
    g = dense(seed)
    cut = vconn.min_vertex_cut(g)
    assert checks.check_cut(g, cut) == []
    points = vconn.strong_articulation_points(g)
    harmless = next(v for v in range(g.n) if v not in points)
    assert checks.check_cut(g, vconn.VertexCut((harmless,)))
    h = vconn.from_edge_list(4, [(u, v) for u in range(4) for v in range(4) if u != v and {u, v} != {0, 1}])
    assert checks.check_cut(h, vconn.VertexCut((2, 3))) == []
    path = vconn.from_edge_list(4, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)])
    assert checks.check_cut(path, vconn.VertexCut((1, 2)))
