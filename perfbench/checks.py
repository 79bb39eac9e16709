"""Output checks for the benchmark, run outside the timed region.

Each check returns a list of problems (empty when the output is valid).
The checks avoid the code they check: 2-VCC lists are compared with the
``domtree`` engine, strong articulation points are recomputed with the
benchmark's own SCC and iterative-dominator code, and sparsifiers, 3-VCCs
and cuts are verified through ``two_vccs_domtree`` and
``is_2vertex_connected`` rather than through ``split`` or the flow code.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

import vconn
from reference import nontrivial_dominators, scc_count


def expected_saps(g) -> set[int]:
    """Strong articulation points of every SCC of g (Italiano, Laura and
    Santaroni: the pivot if its removal disconnects, plus the non-trivial
    dominators of the pivot's forward and reverse flowgraphs)."""
    _, comp = scc_count(g.n, g.out_adj, g.in_adj)
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(comp[v], []).append(v)
    points: set[int] = set()
    for members in groups.values():
        if len(members) < 3:
            continue
        index = {v: i for i, v in enumerate(members)}
        succ = [[index[w] for w in g.out_adj[v] if w in index] for v in members]
        pred = [[index[w] for w in g.in_adj[v] if w in index] for v in members]
        k = len(members)
        alive = [True] * k
        alive[0] = False
        local = set()
        if scc_count(k, succ, pred, alive)[0] != 1:
            local.add(0)
        local |= nontrivial_dominators(k, succ, pred, 0)
        local |= nontrivial_dominators(k, pred, succ, 0)
        points.update(members[i] for i in local)
    return points


def check_saps(g, points) -> list[str]:
    expected = expected_saps(g)
    if set(points) != expected:
        extra = sorted(set(points) - expected)[:5]
        lost = sorted(expected - set(points))[:5]
        return [f"articulation points differ: extra {extra}, missing {lost}"]
    return []


def _vertex_sets_ok(n: int, comps, min_size: int, max_shared: int) -> list[str]:
    problems = []
    for c in comps:
        if list(c) != sorted(set(c)) or len(c) < min_size or not all(0 <= v < n for v in c):
            problems.append(f"malformed component {tuple(c)[:8]}")
    pairs: Counter = Counter()
    owners: dict[int, list[int]] = {}
    for i, c in enumerate(comps):
        for v in c:
            owners.setdefault(v, []).append(i)
    for ids in owners.values():
        pairs.update(combinations(ids, 2))
    shared = [p for p, k in pairs.items() if k > max_shared]
    if shared:
        problems.append(f"{len(shared)} component pairs share more than {max_shared} vertices")
    return problems


def check_two_vccs(g, comps, reference) -> list[str]:
    """``reference`` is ``two_vccs_domtree(g)``."""
    comps = [tuple(c) for c in comps]
    problems = _vertex_sets_ok(g.n, comps, 3, 1)
    if comps and sum(len(c) for c in comps) >= 3 * g.n:
        problems.append("component sizes sum to 3n or more")
    if comps != [tuple(c) for c in reference]:
        problems.append(f"{len(comps)} components differ from the {len(reference)} of domtree")
    for c in comps:
        if not vconn.is_2vertex_connected(vconn.induced_subgraph(g, c)):
            problems.append(f"component {c[:8]} is not 2-vertex-connected")
            break
    return problems


def _three_connected(h) -> bool:
    """No set of fewer than 3 vertices disconnects h (h has >= 4 vertices)."""
    if not vconn.is_2vertex_connected(h):
        return False
    return all(vconn.is_2vertex_connected(vconn.remove_vertices(h, [v])) for v in range(h.n))


def check_three_vccs(g, comps) -> list[str]:
    """Each component is 3-vertex-connected, shares at most 2 vertices with
    any other, and gains no single outside vertex (a necessary condition
    for maximality)."""
    comps = [tuple(c) for c in comps]
    problems = _vertex_sets_ok(g.n, comps, 4, 2)
    if problems:
        return problems
    for c in comps:
        if not _three_connected(vconn.induced_subgraph(g, c)):
            problems.append(f"component {c[:8]} is not 3-vertex-connected")
            continue
        inside = set(c)
        for x in range(g.n):
            if x in inside:
                continue
            if sum(w in inside for w in g.out_adj[x]) < 3 or sum(w in inside for w in g.in_adj[x]) < 3:
                continue
            if _three_connected(vconn.induced_subgraph(g, [*c, x])):
                problems.append(f"component {c[:8]} is not maximal: vertex {x} extends it")
                break
    return problems


def check_cut(g, cut) -> list[str]:
    """Removing the cut breaks strong connectivity; sizes 1 to 3 are also
    checked to be minimum with the dominator-based 2-connectivity test."""
    vertices = tuple(cut.vertices)
    if not vertices or list(vertices) != sorted(set(vertices)) or not all(0 <= v < g.n for v in vertices):
        return [f"malformed cut {vertices[:8]}"]
    if vconn.is_strongly_connected(vconn.remove_vertices(g, vertices)):
        return [f"cut {vertices[:8]} does not separate the graph"]
    size = len(vertices)
    if size == 2 and not vconn.is_2vertex_connected(g):
        return ["a single vertex separates the graph, so the 2-vertex cut is not minimum"]
    if size == 3 and not _three_connected(g):
        return ["fewer than 3 vertices separate the graph, so the 3-vertex cut is not minimum"]
    return []


def quotient_edges(g, comps) -> tuple[int, set[tuple[int, int]]]:
    """Classes of overlapping components, ordered by smallest member, and
    the edges between classes."""
    parent = list(range(g.n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for c in comps:
        for v in c[1:]:
            parent[find(v)] = find(c[0])
    label: dict[int, int] = {}
    cls = [label.setdefault(find(v), len(label)) for v in range(g.n)]
    edges = {(cls[u], cls[v]) for u, v in g.edges if cls[u] != cls[v]}
    return len(label), edges


def check_sparsifier(g, problem: int, result, reference) -> list[str]:
    """Recompute what the retained edges preserve with ``two_vccs_domtree``
    and ``is_strongly_connected``; ``reference`` is ``two_vccs_domtree(g)``.
    The result's own certificate is not consulted."""
    edges = list(result.edges)
    if edges != sorted(set(edges)) or not set(edges) <= set(g.edges):
        return ["retained edges are not a sorted subset of the graph's edges"]
    sparse = vconn.DiGraph(g.n, edges)
    if vconn.two_vccs_domtree(sparse) != reference:
        return ["retained edges change the 2-vertex-connected components"]
    if problem == 2 and not vconn.is_strongly_connected(sparse):
        return ["retained edges are not strongly connected"]
    if problem == 3:
        k, full = quotient_edges(g, reference)
        _, kept = quotient_edges(sparse, reference)
        coarse = vconn.two_vccs_domtree(vconn.DiGraph(k, full))
        if vconn.two_vccs_domtree(vconn.DiGraph(k, kept)) != coarse:
            return ["retained edges change the components of the coarsened graph"]
    return []


def parse_components(text: str) -> list[tuple[int, ...]]:
    """Components as printed by ``vconn 2vcc``: one line of ids each."""
    return [tuple(int(tok) for tok in line.split()) for line in text.splitlines() if line.strip()]
