"""Dominator trees of flowgraphs.

The tree is computed with the simple Lengauer-Tarjan variant:
semidominators plus path-compressed EVAL/LINK, which is near-linear and
much easier to validate than the true linear-time algorithms.  Everything
is iterative; recursion depth would otherwise reach n on path-like inputs.
The depth-first search, ``_preorder``, keeps frames of a dfs number and
an iterator over that vertex's remaining neighbours, as the searches in
``connectivity`` do, so its preorder and tree are the recursive ones.
``sparsify.approx_mscss`` takes its two arborescences from the same
search.

Derived sets used by the connectivity algorithms:

* non-trivial dominators: non-root vertices that dominate something other
  than themselves (exactly the internal non-root tree vertices),
* root children: vertices reachable by an edge from the root or by two
  vertex-disjoint paths,
* children of an arbitrary tree vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotAFlowgraph, VertexOutOfRange
from .graph import DiGraph


@dataclass(frozen=True)
class DominatorTree:
    """Immediate-dominator tree rooted at ``root``.

    ``idom`` maps every non-root vertex to its immediate dominator;
    ``children[v]`` is the sorted tuple of v's tree children.
    """

    root: int
    idom: dict[int, int]
    children: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.children)


def _preorder(adj, v: int) -> tuple[list[int], list[int], list[int]]:
    """Depth-first search from v along the rows ``adj``, each scanned in
    order: ``dfnum[w]`` is w's preorder number (-1 if unreached), ``pre``
    lists the reached vertices in preorder, and ``parent[d]`` is the dfs
    number of the tree parent of the vertex numbered d (-1 for v).
    The preorder and the tree are those of the recursive search.
    """
    dfnum = [-1] * len(adj)
    dfnum[v] = 0
    pre = [v]
    parent = [-1]
    stack = [(0, iter(adj[v]))]
    while stack:
        x, neighbours = stack[-1]
        for w in neighbours:
            if dfnum[w] == -1:
                dfnum[w] = d = len(pre)
                pre.append(w)
                parent.append(x)
                stack.append((d, iter(adj[w])))
                break
        else:
            stack.pop()
    return dfnum, pre, parent


def dominator_tree(g: DiGraph, v: int) -> DominatorTree:
    """Dominator tree of the flowgraph (g, v).

    Raises NotAFlowgraph if some vertex of g is not reachable from v; the
    algorithms in this package only call it on strongly connected graphs,
    so unreachability signals a caller bug.
    """
    n = g.n
    if not 0 <= v < n:
        raise VertexOutOfRange(f"start vertex {v} outside [0, {n})")
    in_adj = g.in_adj
    dfnum, pre, parent = _preorder(g.out_adj, v)
    if len(pre) != n:
        noun = "vertex" if len(pre) == n - 1 else "vertices"
        raise NotAFlowgraph(f"{n - len(pre)} {noun} unreachable from {v}")

    # Lengauer-Tarjan in dfs-number space.
    semi = list(range(n))
    ancestor = [-1] * n
    label = list(range(n))
    idom_num = [0] * n
    buckets: list[list[int]] = [[] for _ in range(n)]

    def evaluate(x: int) -> int:
        path: list[int] = []
        y = x
        while ancestor[ancestor[y]] != -1:
            path.append(y)
            y = ancestor[y]
        while path:
            z = path.pop()
            a = ancestor[z]
            if semi[label[a]] < semi[label[z]]:
                label[z] = label[a]
            ancestor[z] = ancestor[a]
        return label[x]

    for w in range(n - 1, 0, -1):
        p = parent[w]
        s = w
        for u_vertex in in_adj[pre[w]]:
            u = dfnum[u_vertex]
            cand = u if u <= w else semi[evaluate(u)]
            if cand < s:
                s = cand
        semi[w] = s
        buckets[s].append(w)
        ancestor[w] = p
        if buckets[p]:
            for x in buckets[p]:
                y = evaluate(x)
                idom_num[x] = y if semi[y] < semi[x] else p
            buckets[p].clear()

    for w in range(1, n):
        if idom_num[w] != semi[w]:
            idom_num[w] = idom_num[idom_num[w]]

    # Filled in vertex order, so each children list comes out sorted.
    idom: dict[int, int] = {}
    children: list[list[int]] = [[] for _ in range(n)]
    for w in range(n):
        if w != v:
            iw = idom[w] = pre[idom_num[dfnum[w]]]
            children[iw].append(w)
    return DominatorTree(v, idom, tuple(map(tuple, children)))


def nontrivial_dominators(t: DominatorTree) -> set[int]:
    """Vertices that dominate some vertex besides themselves and the root.

    These are exactly the non-root vertices with at least one tree child.
    """
    return {w for w in range(t.n) if w != t.root and t.children[w]}


def root_children(t: DominatorTree) -> set[int]:
    """Direct successors of the root in the dominator tree."""
    return set(t.children[t.root])


def tree_children(t: DominatorTree, w: int) -> set[int]:
    """Direct successors of vertex w in the dominator tree."""
    if not 0 <= w < t.n:
        raise VertexOutOfRange(f"vertex {w} outside [0, {t.n})")
    return set(t.children[w])
