"""The four 2-vertex-connected-component algorithms behind one contract.

A component is the vertex set of a maximal 2-vertex-connected subgraph
(size >= 3); distinct components share at most one vertex.  All variants
return the same canonical list: each component a sorted tuple of the input
graph's vertex ids, the list sorted lexicographically and deduplicated.

``domtree`` is the production engine: ``two_vccs`` by default, the CLI,
``k_vccs`` and the sparsifiers all use it.  The other three are reference
variants, kept to cross-check it; ``domtree`` never calls them.  ``split``
also recomputes the sparsifier certificates, so that no certificate comes
from the engine that built the result.  ``split``, ``domtree`` and
``per-vertex`` take their strongly connected pieces from
``connectivity._strong_pieces``, at one vertex when they split.

Variants:

* ``es``        - edge-pruning fixpoint: repeatedly delete edges running
                  between SCCs of the graph and of every single-vertex
                  deletion, then read the components off the biconnected
                  blocks of the undirected shadow.  O(n * m^2).
* ``per-vertex``- union over all v of the components containing v: only
                  the pieces holding v are kept, each shrunk to the
                  root-children intersection of the two dominator trees
                  at v, or split at v.  O(n^2 * m).
* ``split``     - cut G into the biconnected blocks of its undirected
                  shadow, which hold whole components, then test each
                  strongly connected piece and split one with points at
                  its median point w into the SCCs of the piece minus w
                  (each rejoined with w), testing those again.  O(n * m).
* ``domtree``   - first shrink each piece to its (2,2)-core and re-split
                  that into SCCs; only a piece whose in- and out-degrees
                  are all >= 2 gets a round.  Then one rule per round, from
                  the articulation test at vertex 0: output a piece with no
                  points; split it like ``split`` when vertex 0 is a point;
                  otherwise recurse on the children sets of one of the two
                  dominator trees at vertex 0, exploiting that every
                  component is a set of siblings (plus possibly the common
                  parent).  O(n * m).

The core step is exact because every vertex of a component C has in- and
out-degree >= 2 inside C (with one in-neighbour u in C, removing u would
cut it off), so C survives every deletion of the peel and, being strongly
connected, lies within one SCC of the core.  It costs O(n + m) per piece,
against the two dominator trees of a round that would peel only the
degree-1 fringe of that piece.  Only ``domtree`` prunes: the references
keep sharing no step with it beyond ``_strong_pieces``.
"""

from __future__ import annotations

from .articulation import _points_and_trees, is_2vertex_connected
from .connectivity import _blocks, _degree_core, _scc_ids, _strong_pieces
from .dominators import nontrivial_dominators, root_children
from .errors import UnknownVariant, VertexOutOfRange
from .graph import DiGraph, induced_subgraph, strip_labels

Component = tuple[int, ...]
ComponentList = list[Component]

VARIANTS = ("es", "split", "domtree", "per-vertex")


def _canonical(comps, n: int) -> ComponentList:
    out = sorted({tuple(sorted(c)) for c in comps})
    # The sizes of a graph's components sum to less than 3n; a larger sum
    # means an engine bug, so this check must survive ``python -O``.
    total = sum(len(c) for c in out)
    if out and total >= 3 * n:
        raise RuntimeError(f"component size sum {total} >= 3n = {3 * n}")
    return out


def es_fixpoint(g: DiGraph) -> DiGraph:
    """Delete inter-SCC edges of g and of g minus each vertex, to fixpoint.

    The result has no edges between its SCCs, and keeps that property
    under deletion of any single vertex; its 2-vertex-connected components
    are unchanged from g.
    """
    n = g.n
    out_adj: list[list[int]] = [list(row) for row in g.out_adj]
    while True:
        comp, _ = _scc_ids(n, out_adj)
        for v in range(n):
            row = out_adj[v]
            kept = [w for w in row if comp[w] == comp[v]]
            if len(kept) != len(row):
                out_adj[v] = kept
        removed = False
        for x in range(n):
            comp, _ = _scc_ids(n, out_adj, skip=(x,))
            for v in range(n):
                if v == x:
                    continue
                row = out_adj[v]
                kept = [w for w in row if w == x or comp[w] == comp[v]]
                if len(kept) != len(row):
                    out_adj[v] = kept
                    removed = True
        if not removed:
            break
    return DiGraph(n, ((u, w) for u in range(n) for w in out_adj[u]))


def two_vccs_es(g: DiGraph) -> ComponentList:
    """Components via the edge-pruning fixpoint and undirected blocks."""
    pruned = es_fixpoint(g)
    comps = _blocks(pruned)
    for c in comps:
        if not is_2vertex_connected(induced_subgraph(pruned, c)):
            raise RuntimeError(f"block {c} is not 2-vertex-connected in the directed sense")
    return _canonical(comps, g.n)


def two_vccs_split(g: DiGraph) -> ComponentList:
    """Components by recursive splitting at strong articulation points.

    The graph is first cut into the biconnected blocks of its undirected
    shadow.  A component stays strongly connected, so connected, without
    any one of its vertices; its shadow is biconnected, and it lies within
    one block.  So the strongly connected pieces of the blocks of >= 3
    vertices hold every component, and on a tree of blocks one linear pass
    does what would otherwise take one split per joint.  Each piece then
    runs one articulation test: with no points it is a component,
    otherwise it is split at the median of its points and each resulting
    piece is tested again.  A split at a point yields pieces smaller than
    their parent, so the loop ends.  A chain of q cliques takes q tests,
    one per clique, and no split.
    """
    base = strip_labels(g)
    work = [h for b in _blocks(base) for h in _strong_pieces(induced_subgraph(base, b))]
    out: list[tuple[int, ...]] = []
    while work:
        h = work.pop()  # strongly connected, n >= 3
        points = sorted(_points_and_trees(h)[0])
        if not points:
            out.append(h.origin_labels)
            continue
        # The median keeps the recursion balanced on chain-like inputs.
        work.extend(_strong_pieces(h, (points[len(points) // 2],)))
    return _canonical(out, g.n)


def two_vccs_domtree(g: DiGraph) -> ComponentList:
    """Components via dominator-tree sibling sets (the production engine).

    Each round reads the strong articulation points of a strongly
    connected piece h, and the dominator trees of h and of its reversal
    rooted at vertex 0, from one articulation test.  With no points, h is
    a component.  If vertex 0 is a point, h splits at it as in ``split``;
    vertex 0 is then no point of the resulting pieces, since removing it
    leaves one SCC.  Otherwise every component appears inside some
    children set M(w) of the chosen tree (together with w itself), so the
    round recurses on the subgraphs induced by M(w) + {w} with |M(w)| >= 2.

    The chosen tree is the one with more non-trivial dominators, and that
    choice is what makes progress.  Some vertex other than 0 is a point,
    so it dominates in one of the two trees; a tree with no non-trivial
    dominator has every vertex as a child of vertex 0, its one sibling set
    M(0) + {0} is all of h, and recursing on it would push h again
    forever.  In a tree with one, a vertex below it is no child of 0, so
    every sibling set is smaller than h.  Fixed to either tree, the engine loops on chains of
    cliques: always taking the forward tree, it did not finish in 30 s on
    a planted 1000-vertex chain of 4-cliques that it takes 0.05 s on as
    written (2 vCPUs, Python 3.11).

    Before its round, a piece with a vertex of in- or out-degree below 2
    is replaced by the SCCs of its (2,2)-core, which is exact since each
    vertex of a component has two in- and two out-neighbours inside it.
    The peel costs O(n + m) and drops at once the degree-1 fringe that a
    round would remove one layer at a time; on uniform graphs with m = 4n
    this leaves one round per call where 10-20 were needed without it.
    """
    out: list[tuple[int, ...]] = []
    work = _strong_pieces(strip_labels(g))
    while work:
        h = work.pop()  # strongly connected, n >= 3
        core = _degree_core(h, 2)
        if core is not None:
            work.extend(_strong_pieces(induced_subgraph(h, core)))
            continue
        points, t_fwd, t_rev = _points_and_trees(h)
        if not points:
            out.append(h.origin_labels)
            continue
        if 0 in points:
            work.extend(_strong_pieces(h, (0,)))
            continue
        chosen = t_fwd
        if len(nontrivial_dominators(t_rev)) > len(nontrivial_dominators(t_fwd)):
            chosen = t_rev
        for w in range(h.n):
            m_set = chosen.children[w]
            if len(m_set) >= 2:
                work.extend(_strong_pieces(induced_subgraph(h, (*m_set, w))))
    return _canonical(out, g.n)


def two_vccs_containing(g: DiGraph, v: int) -> ComponentList:
    """Exactly the components of g that contain vertex v.

    Each strong piece holding v (pieces without v are dropped) is tested
    at v: with no articulation points it is an answer; if v is not one of
    them the search shrinks to the intersection of the root-children sets
    of the dominator trees at v, plus v (no component can contain v when
    that intersection has fewer than two vertices); otherwise the piece
    splits at v like the ``split`` variant.
    """
    if not 0 <= v < g.n:
        raise VertexOutOfRange(f"vertex {v} outside [0, {g.n})")
    out: list[tuple[int, ...]] = []
    work = _strong_pieces(strip_labels(g))
    while work:
        h = work.pop()  # strongly connected, n >= 3
        if v not in h.origin_labels:
            continue
        x = h.origin_labels.index(v)
        points, t_fwd, t_rev = _points_and_trees(h, x)
        if not points:
            out.append(h.origin_labels)
        elif x in points:
            work.extend(_strong_pieces(h, (x,)))
        else:
            candidates = root_children(t_fwd) & root_children(t_rev)
            if len(candidates) >= 2:
                work.extend(_strong_pieces(induced_subgraph(h, candidates | {x})))
    return _canonical(out, g.n)


def two_vccs(g: DiGraph, algo: str = "domtree") -> ComponentList:
    """Dispatch to one of the four variants; identical output contract.

    The default ``domtree`` is the production engine; ``es``, ``split``
    and ``per-vertex`` are reference variants for cross-checking.
    """
    if algo == "es":
        return two_vccs_es(g)
    if algo == "split":
        return two_vccs_split(g)
    if algo == "domtree":
        return two_vccs_domtree(g)
    if algo == "per-vertex":
        comps: list[Component] = []
        for v in range(g.n):
            comps.extend(two_vccs_containing(g, v))
        return _canonical(comps, g.n)
    raise UnknownVariant(f"unknown 2-vcc variant {algo!r}; expected one of {VARIANTS}")
