"""Strong articulation points and the 2-vertex-connectivity test.

A strong articulation point (SAP) is a vertex whose removal increases the
number of strongly connected components.  Removing v changes only the SCC
C that holds v, so v is a SAP of g exactly when it is a SAP of C, and the
SAPs of g are the union of those of its SCCs.  An SCC of one or two
vertices has none.  For a strongly connected graph of at least three
vertices they are found in near-linear time from one pivot vertex: the
pivot itself if its removal disconnects the graph, plus the non-trivial
dominators of the flowgraphs rooted at the pivot in the graph and in its
reversal.
"""

from __future__ import annotations

from .connectivity import _scc_ids, _strong_pieces, is_strongly_connected
from .dominators import DominatorTree, dominator_tree, nontrivial_dominators
from .graph import DiGraph, reverse, strip_labels


def strong_articulation_points(g: DiGraph) -> set[int]:
    """All strong articulation points of any graph g, in g's own ids.

    They are the union of the SAPs of g's SCCs of at least three vertices
    (see the module docstring), each found from pivot vertex 0; the
    answer does not depend on the pivot.
    """
    pieces = _strong_pieces(strip_labels(g))
    return {h.origin_labels[i] for h in pieces for i in _points_and_trees(h)[0]}


def _points_and_trees(g: DiGraph, pivot: int = 0) -> tuple[set[int], DominatorTree, DominatorTree]:
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
