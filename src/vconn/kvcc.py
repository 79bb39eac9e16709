"""Minimum vertex cuts, vertex connectivity, 3-vertex-connected
components, and the k-vertex-connected-component split loop.

Vertex cuts come from ``_flow._min_st_vertex_cut``: a Menger flow capped
at a limit, run on the piece's own ``out_adj`` (Even's vertex-split
network searched implicitly, with no network built per piece or reset per
pair), which returns the separator closest to the source of a pair that
has one below the limit.  Its count and separator depend on the graph and
the pair alone (see the ``_flow`` docstring), so this module never looks
inside the flow.  Which pairs are tried is the whole question: the
one-source pairs, less those that pairs already passed settle where a
flow need only reach k.

*One source* (Esfahanian and Hakimi, "On computing the connectivity of
graphs and digraphs", Networks 1984).  Lemma: let X be a minimum set
whose removal leaves g not strongly connected, and let A, B split g - X
with no edge from A to B.  Each x in X has an in-neighbour in A and an
out-neighbour in B, since g - (X - x) is strongly connected.  So for any
vertex v one of these pairs is non-adjacent and separated by X: (v, w)
with w in B, if v is in A; (w, v) with w in A, if v is in B; (x, y) with
x an in-neighbour of v in A and y an out-neighbour of v in B, if v is in
X.  If g is not strongly connected, X is empty and v lies in A or B.
``_cuts_below`` walks exactly these pair shapes for the v of least
in-degree x out-degree: at most 2(n-1) + d-(v)d+(v) flows.
``_global_min_cut`` takes the least flow over all the pairs: every non-adjacent pair needs at
least kappa vertices to separate it, and the lemma gives one that needs
exactly kappa.  ``vertex_connectivity`` and ``min_vertex_cut`` both call
it, so the documented cut is the minimum a-b separator closest to a, for
the first pair (a, b) in the one-source order that kappa vertices
separate.  Even's sweep ("An algorithm for determining whether the
connectivity of a graph is at least k", SIAM J. Comput. 1975) would
instead need sources 0..kappa, up to delta+1 of them for the least
degree delta, while d-(v)d+(v) <= delta(n-1); on uniform graphs with
n = 100 and edge probability 0.5 it ran 2810-3122 flows against
863-976, and the one-source search also won where kappa is far below
delta (two dense blobs joined through 2 or 3 vertices).

*Settled pairs* (the neighbour bound of Wen, Qin, Zhang, Chang and Chen,
"Enumerating k-vertex connected components in large graphs", ICDE 2019,
and of Chang et al., "Efficiently computing k-edge connected components
via graph decomposition", SIGMOD 2013, in directed vertex form).  Fix the
walk's source v and its threshold k, and call w forward-settled when
w = v, v -> w is an edge, or the walk has already passed the pair (v, w)
by a flow, a skip or a cut.  Lemma: if w has k forward-settled
in-neighbours, then kappa(v, w) >= k.  A set S of fewer than k vertices
other than v and w misses one settled in-neighbour x of w; since x = v,
v -> x, or kappa(v, x) >= k, v still reaches x and then w in g - S.  The
backward rule mirrors this for (w, v) with out-neighbours, and the
neighbour pairs (x, y) keep the two-step form: k vertices z with
x -> z -> y settle the pair.  The settled rule contains the two-step
rule, since each z with v -> z is settled.  ``_cuts_below`` gives no flow
to a settled pair, and yields the separator of each pair whose flow,
stopped at value k, stays below k; k then falls to that separator's size.
A pair passed by a flow or a skip has kappa >= k for the k in force,
and a pair that yields a cut has kappa equal to the new k, so every
passed pair stays settled as k falls.  A skipped pair's flow would have
reached k, so each pair below k and its cut are those of the walk that
flows every pair.  The k-VCC split and ``is_k_vertex_connected`` take the
first separator from k; ``_global_min_cut`` takes the last from k = n - 1,
the running best.

The rule pays most where k is small against the degrees: once the walk
has passed a few pairs, most later vertices have k settled neighbours.
For the minimum cut that holds once the running best has fallen near
kappa.  Flows summed over the benchmark's seed-1 graph sets
(``tests/test_kvcc.py`` pins the last column):

    set, call                                no rule   two-step   settled
    16 6-clique chains, ``k_vccs(g, 3)``       1,494      1,489       487
    16 6-clique chains, ``min_vertex_cut``     1,494      1,494       960
    8 4-clique chains, ``min_vertex_cut``      1,536      1,499        29
    28 uniform m = 4n, ``min_vertex_cut``      1,586      1,160       335
    28 uniform m = 4n, ``k_vccs(g, 3)``          437        435       435

The 6-clique chains close a spanning cycle (n = 51), the 4-clique chains
carry noise edges (n = 100, m = 400) and the uniform graphs have n = 30.

Complete bidirected graphs have no cut and get connectivity n-1 by
convention: they have no non-adjacent pair, so the walk yields nothing
and ``_global_min_cut`` returns None.

k-VCCs for k > 2 come from one split loop: the 2-VCC engine runs once,
and every piece is then split at any cut X of fewer than k vertices with
``connectivity._strong_pieces``, the splitter the 2-VCC engines use at
one vertex, until no piece has such a cut.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from ._flow import _min_st_vertex_cut
from .connectivity import _dense, _strong_pieces, is_strongly_connected
from .errors import InvalidK, NoCutExists, NotStronglyConnected
from .graph import DiGraph, induced_subgraph, strip_labels
from .twovcc import ComponentList, two_vccs_domtree


@dataclass(frozen=True)
class VertexCut:
    """A vertex set whose removal destroys strong connectivity."""

    vertices: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.vertices)


def _cuts_below(g: DiGraph, k: int) -> Iterator[tuple[int, ...]]:
    """Separators of fewer than k vertices, each smaller than the last.

    The walk takes the Esfahanian-Hakimi pairs (see the module docstring)
    for the vertex v of least in-degree x out-degree, lowest id on ties:
    (v, w) unless v->w is an edge and (w, v) unless w->v is one, for
    w = 0, 1, ... in turn, then every (x, y) with x -> v -> y, x != y and
    no edge x->y.  It flows each pair that the settled rule or the
    two-step rule does not settle, stopped at value k; it yields the
    separator of a pair that stays below k and lowers k to that
    separator's size.  The last one yielded is a minimum cut of a
    strongly connected g."""
    out_adj, in_adj = g.out_adj, g.in_adj
    v = min(range(g.n), key=lambda u: len(out_adj[u]) * len(in_adj[u]))
    # fwd[w]: w = v, v->w is an edge, or the walk has passed (v, w), so
    # kappa(v, w) >= k for every k the walk will hold; bwd[w] likewise
    # for (w, v).
    fwd, bwd = bytearray(g.n), bytearray(g.n)
    fwd[v] = bwd[v] = 1
    for w in out_adj[v]:
        fwd[w] = 1
    for w in in_adj[v]:
        bwd[w] = 1

    def unsettled() -> Iterator[tuple[int, int]]:
        # Reads the walk's k as it falls; a pair is marked passed once the
        # walk resumes this generator after its flow.
        for w in range(g.n):
            if not fwd[w]:
                if sum(map(fwd.__getitem__, in_adj[w])) < k:
                    yield v, w
                fwd[w] = 1
            if not bwd[w]:
                if sum(map(bwd.__getitem__, out_adj[w])) < k:
                    yield w, v
                bwd[w] = 1
        for x in in_adj[v]:
            x_outs = set(out_adj[x])
            for y in out_adj[v]:
                if y != x and y not in x_outs and sum(map(x_outs.__contains__, in_adj[y])) < k:
                    yield x, y

    for a, b in unsettled():
        _, cut = _min_st_vertex_cut(out_adj, a, b, k)
        if cut is not None:
            yield cut
            if not cut:
                return
            k = len(cut)


def _global_min_cut(g: DiGraph) -> tuple[int, ...] | None:
    """A minimum cut of a strongly connected graph: the last separator of
    the walk from k = n - 1; None when every pair is adjacent."""
    cut = None
    for cut in _cuts_below(g, g.n - 1):
        pass
    return cut


def vertex_connectivity(g: DiGraph) -> int:
    """Minimum number of vertices whose removal destroys strong
    connectivity; n-1 for complete bidirected graphs by convention."""
    if not is_strongly_connected(g):
        raise NotStronglyConnected(f"{g!r} is not strongly connected")
    cut = _global_min_cut(g)
    return g.n - 1 if cut is None else len(cut)


def min_vertex_cut(g: DiGraph) -> VertexCut:
    """A minimum vertex cut: the minimum a-b separator closest to a, for
    the first pair (a, b) of the one-source order (see the module
    docstring) that a minimum cut separates."""
    if g.n == 0:
        raise NoCutExists("a graph with no vertices has no vertex cut")
    if not is_strongly_connected(g):
        raise NotStronglyConnected(f"{g!r} is not strongly connected")
    if g.n == 1:
        raise NoCutExists("a single vertex has no vertex cut")
    cut = _global_min_cut(g)
    if cut is None:
        raise NoCutExists("complete bidirected graphs have no vertex cut")
    return VertexCut(cut)


def is_k_vertex_connected(g: DiGraph, k: int) -> bool:
    """True iff g has >= k+1 vertices and stays strongly connected under
    removal of any fewer than k vertices."""
    if k < 1:
        raise InvalidK(f"k must be >= 1, got {k}")
    return g.n >= k + 1 and next(_cuts_below(g, k), None) is None


def _too_few_of_degree(h: DiGraph, k: int) -> bool:
    """True when at most k vertices of h have in- and out-degree >= k, so
    h holds no k-VCC: each of a k-VCC's k+1 or more vertices has k in- and
    k out-neighbours inside it."""
    return sum(len(o) >= k and len(i) >= k for o, i in zip(h.out_adj, h.in_adj)) <= k


def k_vccs(g: DiGraph, k: int) -> ComponentList:
    """Vertex sets of the maximal k-vertex-connected subgraphs of g.

    The dominator-tree engine ``two_vccs_domtree`` runs once, and k = 2
    returns its components.  For k > 2 each component becomes a piece, and
    one loop applies to every piece: output it if no set X of fewer than k
    vertices separates it; otherwise its strong pieces at X (the SCCs of it
    minus X, each rejoined with X and split again) become new pieces.
    This is exact without first computing the (k-1)-VCCs, as the paper's
    level-by-level recursion does:

    * a k-VCC (k >= 3) is 2-vertex-connected, so it lies inside one 2-VCC;
    * a k-VCC minus fewer than k vertices stays strongly connected, so it
      lies inside one new piece at every split, whatever X is;
    * pieces from different branches meet only inside a cut of fewer than
      k vertices, while every k-VCC has more than k, so each k-VCC follows
      one branch down to the piece it equals, and no output contains
      another.

    A piece in which at most k vertices have in- and out-degree >= k is
    dropped before its flows, since a k-VCC has k+1 such vertices.  The
    loop needs this for every piece of at most k vertices, which has no
    cut of fewer than k vertices yet is no k-VCC; on larger pieces the
    same test skips the cut search where no k-VCC can lie.  The same test
    on g itself returns [] before the 2-VCC engine runs, so a k far above
    the degrees costs O(n + m).  A piece that passes it and whose degrees
    prove it k-vertex-connected (``connectivity._dense``: n > k and
    2 * delta >= n + k - 2 for its least degree delta) is output with no
    cut walk.  ``is_k_vertex_connected`` keeps walking its flows, so it can
    check those outputs independently.
    """
    if k < 2:
        raise InvalidK(f"k must be >= 2, got {k}")
    if _too_few_of_degree(g, k):
        return []
    comps = two_vccs_domtree(g)
    if k == 2:
        return comps
    base = strip_labels(g)
    out: list[tuple[int, ...]] = []
    work = [induced_subgraph(base, c) for c in comps]
    while work:
        h = work.pop()
        if _too_few_of_degree(h, k):
            continue
        cut = None if _dense(h, k) else next(_cuts_below(h, k), None)
        if cut is None:
            out.append(h.origin_labels)
        else:
            work.extend(_strong_pieces(h, cut))
    # No piece is output twice: see the third point above.
    return sorted(out)


def three_vccs(g: DiGraph) -> ComponentList:
    """Vertex sets of the maximal 3-vertex-connected subgraphs of g."""
    return k_vccs(g, 3)
