"""The four 2-vertex-connected-component algorithms behind one contract.

A component is the vertex set of a maximal 2-vertex-connected subgraph
(size >= 3); distinct components share at most one vertex.  All variants
return the same canonical list: each component a sorted tuple of the input
graph's vertex ids, the list sorted lexicographically and deduplicated.

``domtree`` is the production engine: ``two_vccs`` by default, the CLI,
``k_vccs`` and the sparsifiers all use it, the last two taking the
subgraphs it built (``_domtree_pieces``).  The other three are reference
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
                  are all >= 2 gets a round.  Output a piece whose degrees
                  prove it 2-vertex-connected (``connectivity._dense``)
                  untested.  Otherwise one rule per round, from the
                  articulation test at vertex 0: output a piece with no
                  points; split it at vertex 0 like ``split`` when vertex 0
                  is its only point; otherwise recurse on the children
                  sets of one of the two dominator trees at vertex 0,
                  since every component is a set of siblings (plus
                  possibly their parent) in the dominator tree from any
                  root, a point or not.  O(n * m).

The core step is exact because every vertex of a component C has in- and
out-degree >= 2 inside C (with one in-neighbour u in C, removing u would
cut it off), so C survives every deletion of the peel and, being strongly
connected, lies within one SCC of the core.  It costs O(n + m) per piece,
against the two dominator trees of a round that would peel only the
degree-1 fringe of that piece.  Only ``domtree`` prunes, and only it
accepts a piece on its degrees: the references keep sharing no step with
it beyond ``_strong_pieces``, so ``split`` still tests every piece that
``domtree`` output untested.
"""

from __future__ import annotations

from .articulation import _points_and_trees, is_2vertex_connected
from .connectivity import _blocks, _degree_core, _dense, _scc_ids, _strong_pieces
from .dominators import nontrivial_dominators, root_children
from .errors import UnknownVariant, VertexOutOfRange
from .graph import DiGraph, induced_subgraph, strip_labels

ComponentList = list[tuple[int, ...]]

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
    """Components via dominator-tree sibling sets (the production engine):
    the canonical list of ``_domtree_pieces``' vertex sets."""
    return _canonical([h.origin_labels for h in _domtree_pieces(g)], g.n)


def _domtree_pieces(g: DiGraph) -> list[DiGraph]:
    """The components of g as induced subgraphs, labelled in g's ids.

    Each piece is the subgraph of g induced by one component, its
    ``origin_labels`` the component's ascending members.  Every split
    below yields pieces that share at most one vertex, so no component
    appears twice.  The sparsifiers and the k-VCC loop take the pieces
    themselves, so no caller rebuilds a subgraph the engine built.

    Each round reads the strong articulation points of a strongly
    connected piece h, and the dominator trees of h and of its reversal
    rooted at vertex 0, from one articulation test.  With no points, h is
    a component.  Otherwise the round rests on the paper's lemma: in the
    dominator tree of h from any root, a point or not, each component C
    lies in one children set M(w) together with w.  Let d be the
    immediate dominator of a vertex v of C.  C - d is strongly connected,
    so a path from the root to another vertex of C that missed d would go
    on to v inside C - d: d dominates all of C but itself.  So at most one
    vertex c of C is the immediate dominator of another (two would
    dominate each other).  For v, v' of C other than c, the immediate
    dominator of each dominates the other, so each is the other or above
    it: they are one vertex w, which is c when c exists.  The round
    recurses on the subgraphs induced by M(w) + {w} with |M(w)| >= 2 in
    the tree with more non-trivial dominators.

    That recursion makes progress exactly when the chosen tree has a
    non-trivial dominator: a vertex below one is no child of vertex 0, so
    every sibling set is smaller than h.  A tree with none has every
    vertex as a child of vertex 0, and its one sibling set M(0) + {0} is
    all of h.  The points other than vertex 0 are the non-trivial
    dominators of the two trees, so only when vertex 0 is the only point
    does neither tree have one.  Then h splits at vertex 0 as in
    ``split``: the pieces of h - 0, each rejoined with 0.

    Before its round, a piece with a vertex of in- or out-degree below 2
    is replaced by the SCCs of its (2,2)-core, which is exact since each
    vertex of a component has two in- and two out-neighbours inside it.
    The peel costs O(n + m) and drops at once the degree-1 fringe that
    rounds would remove one layer at a time.  A piece that is its own
    (2,2)-core is then output with no round when ``_dense(h, 2)`` holds,
    2 * delta >= n for its least degree delta: the degrees alone prove it
    2-vertex-connected.  A sibling set whose subgraph meets the bound is
    output at once: being 2-vertex-connected, it is strongly connected and
    its own (2,2)-core, so its SCC pass and its next pop would only output
    it again.
    """
    out: list[DiGraph] = []
    work = _strong_pieces(strip_labels(g))
    while work:
        h = work.pop()  # strongly connected, n >= 3
        core = _degree_core(h, 2)
        if core is not None:
            work.extend(_strong_pieces(induced_subgraph(h, core)))
            continue
        if _dense(h, 2):
            out.append(h)
            continue
        points, t_fwd, t_rev = _points_and_trees(h)
        if not points:
            out.append(h)
            continue
        if points == {0}:
            work.extend(_strong_pieces(h, (0,)))
            continue
        chosen = t_fwd
        if len(nontrivial_dominators(t_rev)) > len(nontrivial_dominators(t_fwd)):
            chosen = t_rev
        for w in range(h.n):
            m_set = chosen.children[w]
            if len(m_set) >= 2:
                sub = induced_subgraph(h, (*m_set, w))
                if _dense(sub, 2):
                    out.append(sub)
                else:
                    work.extend(_strong_pieces(sub))
    return out


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


def _two_vccs_per_vertex(g: DiGraph) -> ComponentList:
    """Components as the union over all v of ``two_vccs_containing(g, v)``."""
    return _canonical([c for v in range(g.n) for c in two_vccs_containing(g, v)], g.n)


# The variants by name, in the order that ``UnknownVariant`` and the CLI list.
VARIANTS = {"es": two_vccs_es, "split": two_vccs_split, "domtree": two_vccs_domtree,
            "per-vertex": _two_vccs_per_vertex}


def two_vccs(g: DiGraph, algo: str = "domtree") -> ComponentList:
    """Dispatch to one of the four variants; identical output contract.

    The default ``domtree`` is the production engine; ``es``, ``split``
    and ``per-vertex`` are reference variants for cross-checking.
    """
    names = tuple(VARIANTS)
    # A tuple is searched by ==, so an unhashable algo is rejected here too.
    if algo not in names:
        raise UnknownVariant(f"unknown 2-vcc variant {algo!r}; expected one of {names}")
    return VARIANTS[algo](g)
