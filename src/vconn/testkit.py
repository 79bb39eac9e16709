"""Brute-force oracles, seeded random-graph generators, and structural
checkers.

Every oracle here is a direct transcription of a definition: reachability
is plain BFS over vertex bitmasks, components come from subset
enumeration, cuts and sparsifiers from exhaustive search.  None of it
shares code with the fast implementations it validates.  Size guards keep
runtimes in seconds and raise TooLarge beyond, never silently degrading.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

from . import graph
from .dominators import dominator_tree
from .errors import (
    InvalidSpec,
    NoCutExists,
    NotAFlowgraph,
    NotStronglyConnected,
    TooLarge,
)
from .graph import DiGraph, Edge, from_edge_list

MAX_ORACLE_VERTICES = 12
MAX_ORACLE_EDGES = 20

# ``gen_random`` rejects an edge target above this, and a vertex count
# above ``graph.MAX_VERTICES`` (``check_vertex_count``), before allocating
# anything.
MAX_GEN_EDGES = 10_000_000


def check_vertex_count(n: int) -> None:
    """Reject a generator vertex count outside 1..``graph.MAX_VERTICES``."""
    if n < 1:
        raise InvalidSpec(f"n must be >= 1, got {n}")
    if n > graph.MAX_VERTICES:
        raise InvalidSpec(f"n={n} is above the cap of {graph.MAX_VERTICES} vertices")


def _guard_n(g: DiGraph) -> None:
    if g.n > MAX_ORACLE_VERTICES:
        raise TooLarge(f"oracle limited to n <= {MAX_ORACLE_VERTICES}, got {g.n}")


def _masks(g: DiGraph) -> tuple[list[int], list[int]]:
    out = [0] * g.n
    inn = [0] * g.n
    for u, v in g.edges:
        out[u] |= 1 << v
        inn[v] |= 1 << u
    return out, inn


def _reach(adj: list[int], start: int, allowed: int) -> int:
    """Bit set of vertices reachable from start inside ``allowed``."""
    if not (allowed >> start) & 1:
        return 0
    seen = 1 << start
    frontier = seen
    while frontier:
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            nxt |= adj[low.bit_length() - 1]
            f ^= low
        nxt &= allowed & ~seen
        seen |= nxt
        frontier = nxt
    return seen


def _subset_strongly_connected(out: list[int], inn: list[int], members: int) -> bool:
    if members == 0:
        return False
    start = (members & -members).bit_length() - 1
    return (
        _reach(out, start, members) == members
        and _reach(inn, start, members) == members
    )


def _scc_count_in(out: list[int], inn: list[int], members: int) -> int:
    count = 0
    remaining = members
    while remaining:
        start = (remaining & -remaining).bit_length() - 1
        mutual = _reach(out, start, remaining) & _reach(inn, start, remaining)
        remaining &= ~mutual
        count += 1
    return count


def _is_kvc_subset(out: list[int], inn: list[int], members: int, k: int) -> bool:
    """k-vertex-connectivity by definition on a vertex bit set."""
    size = bin(members).count("1")
    if size < k + 1:
        return False
    vertices = [i for i in range(members.bit_length()) if (members >> i) & 1]
    for cut_size in range(k):
        for cut in combinations(vertices, cut_size):
            rest = members
            for c in cut:
                rest &= ~(1 << c)
            if not _subset_strongly_connected(out, inn, rest):
                return False
    return True


def _maximal_only(found: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    sets = [set(c) for c in found]
    return sorted(
        c
        for i, c in enumerate(found)
        if not any(i != j and sets[i] < sets[j] for j in range(len(found)))
    )


def brute_two_vccs(g: DiGraph) -> list[tuple[int, ...]]:
    """All maximal 2-vertex-connected vertex sets, by subset enumeration."""
    return brute_k_vccs(g, 2)


def brute_k_vccs(g: DiGraph, k: int) -> list[tuple[int, ...]]:
    """All maximal k-vertex-connected vertex sets, by subset enumeration."""
    _guard_n(g)
    out, inn = _masks(g)
    found: list[tuple[int, ...]] = []
    for size in range(k + 1, g.n + 1):
        for subset in combinations(range(g.n), size):
            members = 0
            for v in subset:
                members |= 1 << v
            if _is_kvc_subset(out, inn, members, k):
                found.append(subset)
    return _maximal_only(found)


def brute_sap(g: DiGraph) -> set[int]:
    """Vertices whose removal increases the strongly-connected-component
    count; evaluated directly from the definition."""
    _guard_n(g)
    out, inn = _masks(g)
    everyone = (1 << g.n) - 1
    base = _scc_count_in(out, inn, everyone)
    return {
        v
        for v in range(g.n)
        if _scc_count_in(out, inn, everyone & ~(1 << v)) > base
    }


def brute_dominators(g: DiGraph, v: int) -> dict[int, frozenset[int]]:
    """Full dominator sets: w dominates u iff u is unreachable from v
    once w is removed (u and v dominate themselves trivially)."""
    _guard_n(g)
    out, _ = _masks(g)
    everyone = (1 << g.n) - 1
    if _reach(out, v, everyone) != everyone:
        raise NotAFlowgraph(f"not all vertices reachable from {v}")
    reach_without = [_reach(out, v, everyone & ~(1 << w)) if w != v else 0 for w in range(g.n)]
    dom: dict[int, frozenset[int]] = {}
    for u in range(g.n):
        dom[u] = frozenset(w for w in range(g.n) if not (reach_without[w] >> u) & 1)
    return dom


def brute_min_vertex_cut(g: DiGraph) -> tuple[int, ...]:
    """Lexicographically smallest minimum vertex cut, by enumeration in
    increasing size."""
    _guard_n(g)
    out, inn = _masks(g)
    everyone = (1 << g.n) - 1
    if not _subset_strongly_connected(out, inn, everyone):
        raise NotStronglyConnected("oracle input must be strongly connected")
    if g.m == g.n * (g.n - 1):
        raise NoCutExists("complete bidirected graphs have no vertex cut")
    for size in range(1, g.n - 1):
        for cut in combinations(range(g.n), size):
            rest = everyone
            for c in cut:
                rest &= ~(1 << c)
            if not _subset_strongly_connected(out, inn, rest):
                return cut
    raise NoCutExists("no cut found")  # unreachable for non-complete inputs


def _fewest_edges(
    n: int, edges: Sequence[Edge], first: int, holds: Callable[[list[int], list[int]], bool]
) -> tuple[Edge, ...]:
    """The first subset of ``edges``, by size from ``first`` up and then in
    ``combinations`` order, whose out/in masks satisfy ``holds``; all of
    ``edges`` when no subset does."""
    for size in range(first, len(edges) + 1):
        for subset in combinations(edges, size):
            out = [0] * n
            inn = [0] * n
            for u, w in subset:
                out[u] |= 1 << w
                inn[w] |= 1 << u
            if holds(out, inn):
                return subset
    return tuple(edges)


def brute_mscss(g: DiGraph) -> tuple[Edge, ...]:
    """Minimum strongly connected spanning edge set, by enumeration."""
    if g.m > MAX_ORACLE_EDGES:
        raise TooLarge(f"oracle limited to m <= {MAX_ORACLE_EDGES}, got {g.m}")
    out, inn = _masks(g)
    everyone = (1 << g.n) - 1
    if not _subset_strongly_connected(out, inn, everyone):
        raise NotStronglyConnected("oracle input must be strongly connected")
    if g.n <= 1:
        return ()
    return _fewest_edges(g.n, g.edges, g.n, lambda o, i: _subset_strongly_connected(o, i, everyone))


def _brute_min_2vc_edges(n: int, edges: list[Edge]) -> tuple[Edge, ...]:
    """Minimum edge subset keeping an n-vertex graph 2-vertex-connected."""
    if len(edges) > MAX_ORACLE_EDGES:
        raise TooLarge(f"oracle limited to m <= {MAX_ORACLE_EDGES}, got {len(edges)}")
    everyone = (1 << n) - 1

    def holds(out: list[int], inn: list[int]) -> bool:
        return all(
            bin(out[v]).count("1") >= 2 and bin(inn[v]).count("1") >= 2 for v in range(n)
        ) and _is_kvc_subset(out, inn, everyone, 2)

    return _fewest_edges(n, edges, 2 * n, holds)


def _quotient(g: DiGraph) -> tuple[DiGraph, list[tuple[int, ...]], dict[Edge, Edge]]:
    """Coarsened graph built from the oracle's own component list."""
    comps = brute_two_vccs(g)
    parent = list(range(g.n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for comp in comps:
        for v in comp[1:]:
            parent[find(v)] = find(comp[0])
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(find(v), []).append(v)
    classes = sorted((tuple(sorted(grp)) for grp in groups.values()), key=lambda c: c[0])
    cls_of = [0] * g.n
    for i, cls in enumerate(classes):
        for v in cls:
            cls_of[v] = i
    origins: dict[Edge, Edge] = {}
    for u, v in g.edges:
        cu, cv = cls_of[u], cls_of[v]
        if cu != cv and (cu, cv) not in origins:
            origins[(cu, cv)] = (u, v)
    return from_edge_list(len(classes), origins.keys()), classes, origins


def brute_opt_sparsifier(g: DiGraph, problem: int) -> tuple[Edge, ...]:
    """A minimum witness edge set for sparsification problem 1, 2, or 3.

    Problem 1 decomposes exactly into independent per-component minima
    (edges outside components are irrelevant and components share no
    edges).  Problems 2 and 3 add the minimum strongly-connected spanning
    edge set, respectively the problem-1 minimum, of the coarsened graph,
    realised by one original edge per quotient edge.
    """
    if problem not in (1, 2, 3):
        raise InvalidSpec(f"problem must be 1, 2, or 3, got {problem}")
    _guard_n(g)
    comps = brute_two_vccs(g)
    retained: set[Edge] = set()
    for comp in comps:
        inside = set(comp)
        local = [e for e in g.edges if e[0] in inside and e[1] in inside]
        index = {v: i for i, v in enumerate(comp)}
        packed = [(index[u], index[v]) for u, v in local]
        chosen = _brute_min_2vc_edges(len(comp), packed)
        retained.update((comp[u], comp[v]) for u, v in chosen)
    if problem == 1:
        return tuple(sorted(retained))
    quotient, _, origins = _quotient(g)
    if problem == 2:
        for ce in brute_mscss(quotient):
            retained.add(origins[ce])
        return tuple(sorted(retained))
    for ce in brute_opt_sparsifier(quotient, 1):
        retained.add(origins[ce])
    return tuple(sorted(retained))


def check_domtree_structure(g: DiGraph, v: int, comps) -> bool:
    """Verify the sibling-set structure of components in a dominator tree.

    Every component C must either consist entirely of children of one
    vertex outside C, or consist of one vertex w plus children of w.
    """
    tree = dominator_tree(g, v)
    child_sets = [set(c) for c in tree.children]
    for comp in comps:
        members = set(comp)
        ok = any(members <= child_sets[w] for w in range(g.n) if w not in members)
        if not ok:
            ok = any(members - {w} <= child_sets[w] for w in members)
        if not ok:
            return False
    return True


@dataclass(frozen=True)
class GenSpec:
    """Deterministic random-graph request; the seed fixes the output."""

    n: int
    m: int
    model: str = "uniform"
    seed: int = 0
    sizes: tuple[int, ...] | None = None
    strongly_connected: bool = False


def _random_cycle(rng: random.Random, n: int) -> list[Edge]:
    order = list(range(n))
    rng.shuffle(order)
    return [(order[i], order[(i + 1) % n]) for i in range(n)]


def gen_random(spec: GenSpec) -> DiGraph:
    """Generate the graph requested by ``spec``.

    ``uniform`` samples distinct ordered pairs until the edge target is
    met, first laying down a random spanning cycle when strong
    connectivity is requested; it takes no ``sizes``.  ``planted`` chains
    bidirected cliques of the requested sizes, consecutive cliques glued
    at one shared vertex, then tops up with noise edges.
    """
    check_vertex_count(spec.n)
    if spec.m > MAX_GEN_EDGES:
        raise InvalidSpec(f"m={spec.m} is above the cap of {MAX_GEN_EDGES} edges")
    if not 0 <= spec.m <= spec.n * (spec.n - 1):
        raise InvalidSpec(f"m={spec.m} impossible for n={spec.n}")
    rng = random.Random(spec.seed)
    edges: set[Edge] = set()
    if spec.model == "uniform":
        if spec.sizes is not None:
            raise InvalidSpec("uniform model takes no component sizes")
    elif spec.model == "planted":
        if not spec.sizes:
            raise InvalidSpec("planted model needs component sizes")
        if any(s < 2 for s in spec.sizes):
            raise InvalidSpec("planted sizes must be >= 2")
        start = 0
        for size in spec.sizes:
            if start + size > spec.n:
                raise InvalidSpec(f"planted sizes need {start + size} vertices, n={spec.n}")
            block = range(start, start + size)
            edges.update((u, v) for u in block for v in block if u != v)
            start += size - 1
    else:
        raise InvalidSpec(f"unknown model {spec.model!r}")
    if spec.strongly_connected and spec.n > 1:
        edges.update(_random_cycle(rng, spec.n))
    full = spec.n * (spec.n - 1)
    if spec.m > full * 3 // 5:
        pool = [(u, v) for u in range(spec.n) for v in range(spec.n) if u != v]
        rng.shuffle(pool)
        for pair in pool:
            if len(edges) >= spec.m:
                break
            edges.add(pair)
    else:
        while len(edges) < spec.m:
            u = rng.randrange(spec.n)
            v = rng.randrange(spec.n)
            if u != v:
                edges.add((u, v))
    return from_edge_list(spec.n, edges)
