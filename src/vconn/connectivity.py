"""Strongly connected components, the strongly connected piece splitter,
and the biconnected blocks of a digraph's undirected shadow.

The shadow has an edge u-v wherever u->v or v->u is an edge; ``_blocks``
is the one place in the package that forms it.

Every component recursion in the package (the 2-VCC engines, the
per-vertex search, the k-VCC split and ``vconn sap``) turns an SCC
partition into pieces through ``_strong_pieces`` alone: remove a vertex
set X, take the SCCs of what is left, and rejoin each with X.

Both depth-first searches are iterative: recursion depth can reach n on
path-like graphs and the benchmark harness runs n in the thousands.  A
frame holds its vertex and an iterator over that vertex's remaining
neighbours; ``for w in neighbours: ... break`` descends into w, and the
loop's ``else`` finishes the vertex, so the visit order is the recursive
one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Sequence

from .graph import DiGraph, induced_subgraph


@dataclass(frozen=True)
class SccPartition:
    """Partition of the vertex set into strongly connected components.

    ``components`` holds each component sorted ascending, with the list
    itself in lexicographic order; ``component_id[v]`` is the index of v's
    component in that list.
    """

    component_id: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]


def _scc_ids(
    n: int, out_adj: Sequence[Sequence[int]], skip: Collection[int] = ()
) -> tuple[list[int], int]:
    """Tarjan's algorithm on raw adjacency, iterative.

    Returns (component id per vertex, component count).  ``skip`` names
    vertices treated as deleted; their ids stay -1.
    """
    index = [-1] * n
    for x in skip:
        # Marked visited but never on the stack: the search passes over it.
        index[x] = -2
    low = [0] * n
    comp = [-1] * n
    scc_stack: list[int] = []
    ncomp = 0
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        scc_stack.append(root)
        work = [(root, iter(out_adj[root]))]
        while work:
            v, neighbours = work[-1]
            for w in neighbours:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    scc_stack.append(w)
                    work.append((w, iter(out_adj[w])))
                    break
                # w is on the stack iff it is visited (skip vertices are
                # -2) and not yet in a component.
                if comp[w] == -1 and 0 <= index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    while True:
                        w = scc_stack.pop()
                        comp[w] = ncomp
                        if w == v:
                            break
                    ncomp += 1
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
    return comp, ncomp


def _group_components(n: int, comp: Sequence[int]) -> list[list[int]]:
    """Group vertices by component id, skipping deleted vertices (-1).

    Each group is in ascending order, as the scan fills it by ascending v,
    and the groups come out ordered by smallest member, as a group is
    created at its smallest member; ``strongly_connected_components``
    relies on that order.
    """
    buckets: dict[int, list[int]] = {}
    for v in range(n):
        c = comp[v]
        if c >= 0:
            buckets.setdefault(c, []).append(v)
    return list(buckets.values())


def _strong_pieces(h: DiGraph, cut: Collection[int] = ()) -> list[DiGraph]:
    """Strongly connected induced subgraphs of h, each of >= 3 vertices.

    Without ``cut`` these are the SCCs of h.  With a vertex set ``cut``
    they come from the SCCs of h minus cut, each rejoined with cut and
    split again.  Each strongly connected S of >= 3 vertices in h, with S
    minus cut non-empty and strongly connected, lies within one piece:
    every 2-VCC of h when cut is one vertex, and every k-VCC of h when cut
    has fewer than k vertices.

    A cut may be given only when h is strongly connected, as every caller's
    piece is.  Then a cut that leaves one SCC rejoins it into h itself, so
    h is the one piece, with no second pass over it.
    """
    comp, ncomp = _scc_ids(h.n, h.out_adj, skip=cut)
    if ncomp == 1:
        return [h] if h.n >= 3 else []
    if cut:
        return [
            piece
            for c in _group_components(h.n, comp)
            if len(c) + len(cut) >= 3
            for piece in _strong_pieces(induced_subgraph(h, (*c, *cut)))
        ]
    return [induced_subgraph(h, c) for c in _group_components(h.n, comp) if len(c) >= 3]


def _degree_core(h: DiGraph, k: int) -> list[int] | None:
    """Vertices of the (k,k)-core of h, or None when that core is all of h.

    The (k,k)-core is what remains after repeatedly deleting a vertex of
    in- or out-degree below k; it is unique, since a deleted vertex never
    regains degree.  Each vertex is deleted once and each edge lowers one
    degree once, so the peel is O(n + m); a graph whose degrees are all at
    least k already pays only the two minimum scans.
    """
    if min(map(len, h.out_adj), default=k) >= k and min(map(len, h.in_adj), default=k) >= k:
        return None
    out_deg = [len(row) for row in h.out_adj]
    in_deg = [len(row) for row in h.in_adj]
    stack = [v for v in range(h.n) if out_deg[v] < k or in_deg[v] < k]
    alive = bytearray(b"\x01") * h.n
    for v in stack:
        alive[v] = 0
    while stack:
        v = stack.pop()
        for w in h.out_adj[v]:
            if alive[w]:
                in_deg[w] -= 1
                if in_deg[w] < k:
                    alive[w] = 0
                    stack.append(w)
        for w in h.in_adj[v]:
            if alive[w]:
                out_deg[w] -= 1
                if out_deg[w] < k:
                    alive[w] = 0
                    stack.append(w)
    return [v for v in range(h.n) if alive[v]]


def strongly_connected_components(g: DiGraph) -> SccPartition:
    """Maximal strongly connected vertex sets, canonically ordered."""
    comp, _ = _scc_ids(g.n, g.out_adj)
    groups = _group_components(g.n, comp)
    component_id = [0] * g.n
    for i, grp in enumerate(groups):
        for v in grp:
            component_id[v] = i
    return SccPartition(tuple(component_id), tuple(tuple(grp) for grp in groups))


def is_strongly_connected(g: DiGraph) -> bool:
    """True iff g has exactly one SCC (and at least one vertex)."""
    _, ncomp = _scc_ids(g.n, g.out_adj)
    return ncomp == 1


def _blocks(g: DiGraph) -> list[tuple[int, ...]]:
    """Biconnected blocks of >= 3 vertices of g's undirected shadow.

    A 2-vertex-connected component stays connected without any one of its
    vertices, so it lies within one such block; bridges, the blocks of two
    vertices, hold none and are dropped.  Output is canonical: each block
    sorted ascending, the list sorted lexicographically.

    The shadow's rows are g's out- plus in-rows, which list a bidirected
    pair's neighbour twice.  The search keeps its open vertices, not its
    edges (Hopcroft-Tarjan in vertex-stack form): each non-root vertex is
    pushed when discovered, and when a tree child v of p has
    low[v] >= disc[p], the block is p with every vertex popped down to v.
    """
    rows = [o + i for o, i in zip(g.out_adj, g.in_adj)]
    disc = [-1] * g.n
    low = [0] * g.n
    open_vertices: list[int] = []
    blocks: list[tuple[int, ...]] = []
    counter = 0
    for root in range(g.n):
        if disc[root] != -1 or not rows[root]:
            continue
        disc[root] = low[root] = counter
        counter += 1
        # Frames are (vertex, its unscanned neighbours).
        stack = [(root, iter(rows[root]))]
        while stack:
            v, neighbours = stack[-1]
            for w in neighbours:
                if disc[w] == -1:
                    disc[w] = low[w] = counter
                    counter += 1
                    open_vertices.append(w)
                    stack.append((w, iter(rows[w])))
                    break
                # The tree parent p, listed once or twice, lowers low[v] to
                # disc[p] at most, which leaves low[p] and the block test
                # below as they were.
                if disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    if low[v] < low[p]:
                        low[p] = low[v]
                    if low[v] >= disc[p]:
                        block = [p]
                        while block[-1] != v:
                            block.append(open_vertices.pop())
                        if len(block) >= 3:
                            blocks.append(tuple(sorted(block)))
    return sorted(blocks)
