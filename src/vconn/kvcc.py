"""Minimum vertex cuts, vertex connectivity, 3-vertex-connected
components, and the k-vertex-connected-component split loop.

Vertex cuts come from ``_flow._min_st_vertex_cut``: a Menger flow capped
at a limit, run on the piece's own ``out_adj`` (Even's vertex-split
network searched implicitly, with no network built per piece or reset per
pair), which returns the separator closest to the source of a pair that
has one below the limit.  Its count and separator depend on the graph and
the pair alone (see the ``_flow`` docstring), so this module never looks
inside the flow.  Which pairs are tried is the whole question: the
one-source pairs, less those that two-step paths settle where a flow
need only reach k.

*One source* (Esfahanian and Hakimi, "On computing the connectivity of
graphs and digraphs", Networks 1984).  Lemma: let X be a minimum set
whose removal leaves g not strongly connected, and let A, B split g - X
with no edge from A to B.  Each x in X has an in-neighbour in A and an
out-neighbour in B, since g - (X - x) is strongly connected.  So for any
vertex v one of these pairs is non-adjacent and separated by X: (v, w)
with w in B, if v is in A; (w, v) with w in A, if v is in B; (x, y) with
x an in-neighbour of v in A and y an out-neighbour of v in B, if v is in
X.  If g is not strongly connected, X is empty and v lies in A or B.
``_one_source_pairs`` yields exactly these pair shapes for the v of least
in-degree x out-degree: at most 2(n-1) + d-(v)d+(v) flows.
``_cuts_below`` is the one walk over them.  ``_global_min_cut`` takes
the least flow over all the pairs: every non-adjacent pair needs at
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

*Two-step paths* (the neighbour bound of Wen, Qin, Zhang, Chang and
Chen, "Enumerating k-vertex connected components in large graphs", ICDE
2019, in directed form).  Lemma: if k vertices z have edges a -> z -> b,
then kappa(a, b) >= k, since a set of fewer than k vertices other than a
and b misses one such z, and a -> z -> b survives its removal.
``_cuts_below`` walks the one-source pairs, gives no flow to a pair with
k such z (the count stops at k, read from the set the pair was tested
with), and yields the separator of each pair whose flow, stopped at value
k, stays below k; k then falls to that separator's size.  A skipped
pair's flow would have reached k, so each pair below k and its cut are
those of the walk without the rule.  The k-VCC split and
``is_k_vertex_connected`` take the first separator from k;
``_global_min_cut`` takes the last from k = n - 1, the running best.
Dense pieces gain most.  On 31 graphs (uniform with n = 100 and
200 and edge probability 0.05-0.8, two seeds each; two 60-vertex blobs
of edge probability 0.5 joined through 2 or 3 vertices, two seeds each;
the 60-vertex circulants i -> i+1..i+d with d = 10, 12 and 20),
``is_k_vertex_connected`` ran, summed over the graphs, best of 3 on 2
vCPUs with Python 3.11.7:

    k    flows without / with the rule    seconds without / with
    1           36,969 / 1,658                  0.725 / 0.077
    2           36,578 / 2,348                  1.499 / 0.164
    3           36,447 / 3,010                  2.379 / 0.277
    4           35,504 / 2,684                  3.285 / 0.288
    5           35,098 / 2,711                  4.275 / 0.398
    8           33,727 / 2,361                  7.462 / 0.615

On sparse pieces it settles little: over ``k_vccs(g, 3)`` on 16 seeded
chains of 6-cliques closed by a spanning cycle (n = 51), it skips 5 of
1494 flows.  For the minimum cut the threshold is the running best,
which starts at n - 1 and settles little before kappa is found; after
that kappa lies near the least degree, so few pairs have kappa two-step
paths.  One call of ``min_vertex_cut`` per graph of the benchmark's
seed-0 cut sets ran, without / with the rule, 1,593 / 1,241 flows on 28
uniform graphs (n = 30, m = 120), 1,536 / 1,500 on 8 chains of 4-cliques
(n = 100, m = 400) and 1,474 / 1,474 on the 16 chains of 6-cliques above;
on 27 uniform graphs with n = 40, 60 and 80 and edge probability 0.3,
0.5 and 0.7 (three seeds each), 9,258 / 8,053.

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
from itertools import islice

from ._flow import _min_st_vertex_cut
from .connectivity import _strong_pieces, is_strongly_connected
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


def _one_source_pairs(g: DiGraph) -> Iterator[tuple[int, int, Iterator[int]]]:
    """The Esfahanian-Hakimi pairs of g (see the module docstring) for the
    vertex v of least in-degree x out-degree, lowest id on ties: every
    (v, w) with no edge v->w and every (w, v) with no edge w->v, for
    w = 0, 1, ... in turn, then every (x, y) with x -> v -> y, x != y and
    no edge x->y.  Each pair (a, b) comes with a lazy iterator over the z
    with a -> z -> b."""
    v = min(range(g.n), key=lambda u: len(g.out_adj[u]) * len(g.in_adj[u]))
    outs, ins = set(g.out_adj[v]), set(g.in_adj[v])
    for w in range(g.n):
        if w != v:
            if w not in outs:
                yield v, w, filter(outs.__contains__, g.in_adj[w])
            if w not in ins:
                yield w, v, filter(ins.__contains__, g.out_adj[w])
    for x in g.in_adj[v]:
        x_outs = set(g.out_adj[x])
        for y in g.out_adj[v]:
            if y != x and y not in x_outs:
                yield x, y, filter(x_outs.__contains__, g.in_adj[y])


def _cuts_below(g: DiGraph, k: int) -> Iterator[tuple[int, ...]]:
    """Separators of fewer than k vertices, each smaller than the last:
    the walk over the one-source pairs flows every pair with fewer than k
    two-step paths, stopped at value k; it yields the separator of a pair
    that stays below k and lowers k to that separator's size.  The last
    one yielded is a minimum cut of a strongly connected g."""
    for a, b, two_step in _one_source_pairs(g):
        if next(islice(two_step, k - 1, None), None) is None:
            _, cut = _min_st_vertex_cut(g.out_adj, a, b, k)
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
    the degrees costs O(n + m).
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
        cut = next(_cuts_below(h, k), None)
        if cut is None:
            out.append(h.origin_labels)
        else:
            work.extend(_strong_pieces(h, cut))
    return sorted(set(out))


def three_vccs(g: DiGraph) -> ComponentList:
    """Vertex sets of the maximal 3-vertex-connected subgraphs of g."""
    return k_vccs(g, 3)
