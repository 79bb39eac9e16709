"""Strong articulation points and the 2-vertex-connectivity test.

A strong articulation point is a vertex whose removal increases the number
of strongly connected components.  For a strongly connected graph they are
found in near-linear time from one pivot vertex: the pivot itself if its
removal disconnects the graph, plus the non-trivial dominators of the
flowgraphs rooted at the pivot in the graph and in its reversal.
"""

from __future__ import annotations

from .connectivity import _scc_ids, is_strongly_connected
from .dominators import DominatorTree, dominator_tree, nontrivial_dominators
from .errors import NotStronglyConnected, VertexOutOfRange
from .graph import DiGraph, reverse


def strong_articulation_points(g: DiGraph, pivot: int = 0) -> set[int]:
    """All strong articulation points of a strongly connected graph.

    ``pivot`` is fixed to vertex 0 for determinism; the result is
    independent of the choice (the test suite re-checks with random
    pivots), but a pivot outside [0, n) raises VertexOutOfRange.  For a
    general graph, union the results over its strongly connected
    components.
    """
    if not is_strongly_connected(g):
        raise NotStronglyConnected(f"{g!r} is not strongly connected")
    if not 0 <= pivot < g.n:
        raise VertexOutOfRange(f"pivot {pivot} outside [0, {g.n})")
    if g.n <= 2:
        return set()
    return _points_and_trees(g, pivot)[0]


def _points_and_trees(
    g: DiGraph, pivot: int = 0
) -> tuple[set[int], DominatorTree, DominatorTree]:
    """Strong articulation points of g, with the dominator trees of (g,
    pivot) and (reverse(g), pivot) they were read from.

    The caller guarantees that g is strongly connected with n >= 3, so
    callers that go on to need those two trees need not build them again.
    """
    _, ncomp = _scc_ids(g.n, g.out_adj, skip=(pivot,))
    t_fwd = dominator_tree(g, pivot)
    t_rev = dominator_tree(reverse(g), pivot)
    points = nontrivial_dominators(t_fwd) | nontrivial_dominators(t_rev)
    if ncomp != 1:
        points.add(pivot)
    return points, t_fwd, t_rev


def is_2vertex_connected(g: DiGraph) -> bool:
    """True iff g has >= 3 vertices, is strongly connected, and has no
    strong articulation points.  Never raises; small graphs are simply not
    2-vertex-connected."""
    if g.n < 3 or not is_strongly_connected(g):
        return False
    return not _points_and_trees(g)[0]
