"""The immutable directed graph type and the subgraph constructions used by
every algorithm in the package.

Vertices are dense integers 0..n-1.  Construction canonicalises the edge
set: self-loops are dropped, duplicate ordered pairs are collapsed, and
adjacency lists are kept sorted, so equal inputs always produce identical
graphs.  Subgraphs are compact re-indexed copies carrying ``origin_labels``
that map each local id back to an id of the graph the chain started from;
a subgraph of every vertex is the graph itself.
"""

from __future__ import annotations

from typing import Iterable, TextIO

from .errors import EdgeListFormatError, VertexOutOfRange

Edge = tuple[int, int]


class DiGraph:
    """Immutable directed graph with sorted out/in adjacency."""

    __slots__ = ("n", "out_adj", "in_adj", "origin_labels", "_edges")

    def __init__(self, n: int, pairs: Iterable[Edge]):
        if n < 0:
            raise VertexOutOfRange(f"vertex count must be non-negative, got {n}")
        self.n = n
        out: list[set[int]] = [set() for _ in range(n)]
        for u, v in pairs:
            if not (0 <= u < n and 0 <= v < n):
                raise VertexOutOfRange(f"edge ({u}, {v}) outside [0, {n})")
            if u != v:
                out[u].add(v)
        inn: list[list[int]] = [[] for _ in range(n)]
        out_sorted: list[tuple[int, ...]] = []
        for u in range(n):
            row = tuple(sorted(out[u]))
            out_sorted.append(row)
            for v in row:
                inn[v].append(u)
        self.out_adj: tuple[tuple[int, ...], ...] = tuple(out_sorted)
        self.in_adj: tuple[tuple[int, ...], ...] = tuple(tuple(row) for row in inn)
        self.origin_labels: tuple[int, ...] = tuple(range(n))
        self._edges: tuple[Edge, ...] | None = None

    @classmethod
    def _from_adj(
        cls,
        n: int,
        out_adj: tuple[tuple[int, ...], ...],
        in_adj: tuple[tuple[int, ...], ...],
        origin_labels: tuple[int, ...],
    ) -> "DiGraph":
        # Fast path for internal constructions whose adjacency is already
        # canonical (sorted, deduplicated, loop-free).
        g = cls.__new__(cls)
        g.n = n
        g.out_adj = out_adj
        g.in_adj = in_adj
        g.origin_labels = origin_labels
        g._edges = None
        return g

    @property
    def m(self) -> int:
        return sum(len(row) for row in self.out_adj)

    @property
    def edges(self) -> tuple[Edge, ...]:
        if self._edges is None:
            self._edges = tuple((u, v) for u in range(self.n) for v in self.out_adj[u])
        return self._edges

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        return self.n == other.n and self.out_adj == other.out_adj

    def __hash__(self) -> int:
        return hash((self.n, self.out_adj))

    def __repr__(self) -> str:
        return f"DiGraph(n={self.n}, m={self.m})"


def from_edge_list(n: int, pairs: Iterable[Edge]) -> DiGraph:
    """Build a canonical DiGraph from an edge list with identity labels."""
    return DiGraph(n, pairs)


def reverse(g: DiGraph) -> DiGraph:
    """Reversal graph: (u, v) present iff (v, u) is an edge of g."""
    return DiGraph._from_adj(g.n, g.in_adj, g.out_adj, g.origin_labels)


def induced_subgraph(g: DiGraph, s: Iterable[int]) -> DiGraph:
    """Compact copy of the subgraph induced by vertex set ``s``.

    Local ids 0..|s|-1 are assigned in ascending order of the ids in g, and
    origin_labels compose through g's labels.  A set of every vertex of g
    returns g itself: the copy would have g's rows and labels, and a
    DiGraph is immutable, so no caller needs to avoid that case.
    """
    keep = sorted(set(s))
    if keep and not (0 <= keep[0] and keep[-1] < g.n):
        raise VertexOutOfRange(f"vertex set not within [0, {g.n})")
    if len(keep) == g.n:
        return g
    index = {v: i for i, v in enumerate(keep)}
    out_adj = tuple(
        tuple(index[w] for w in g.out_adj[v] if w in index) for v in keep
    )
    in_adj = tuple(
        tuple(index[w] for w in g.in_adj[v] if w in index) for v in keep
    )
    labels = tuple(g.origin_labels[v] for v in keep)
    return DiGraph._from_adj(len(keep), out_adj, in_adj, labels)


def remove_vertices(g: DiGraph, x: Iterable[int]) -> DiGraph:
    """Subgraph obtained by deleting the vertices in ``x`` and their edges."""
    drop = set(x)
    for v in drop:
        if not (0 <= v < g.n):
            raise VertexOutOfRange(f"vertex {v} outside [0, {g.n})")
    return induced_subgraph(g, (v for v in range(g.n) if v not in drop))


def strip_labels(g: DiGraph) -> DiGraph:
    """Copy of g with identity origin_labels (rebases a subgraph chain)."""
    return DiGraph._from_adj(g.n, g.out_adj, g.in_adj, tuple(range(g.n)))


# --- edge-list text format -------------------------------------------------
#
# ASCII text.  A line ends at "\n" alone; the other characters that
# str.splitlines() breaks at (\r, \v, \f, \x1c-\x1e) are whitespace inside
# their line.  The CLI reads in text mode, so "\r\n" and "\r" arrive as "\n".
# First non-comment line is "n m", followed by m lines "u v" (0-based
# decimal: ASCII digits only).  Lines starting with '#' are
# comments.  Writers emit edges sorted by (u, v).  A header n above
# MAX_VERTICES is rejected before anything of size n is allocated.

MAX_VERTICES = 1_000_000


def _int_pair(row: list[str], name: str, shape: str) -> tuple[int, int]:
    """The two decimal integers of the tokens ``row`` of a header or edge
    line; ``name`` and ``shape`` word its errors."""
    if len(row) != 2:
        raise EdgeListFormatError(f"{name} must be {shape}, got {' '.join(row)!r}")
    try:
        pair = int(row[0]), int(row[1])
    except ValueError as exc:
        raise EdgeListFormatError(f"non-integer {name}: {' '.join(row)!r}") from exc
    # On ASCII text, isdigit() accepts exactly 0-9, where int() also takes
    # a sign and underscores.
    if not (row[0].isdigit() and row[1].isdigit()):
        raise EdgeListFormatError(f"non-decimal {name}: {' '.join(row)!r}")
    return pair


def read_edge_list(source: str | TextIO) -> DiGraph:
    """Parse the canonical edge-list interchange format."""
    text = source if isinstance(source, str) else source.read()
    lines = text.split("\n")
    if not text.isascii():
        number = next(i for i, line in enumerate(lines) if not line.isascii())
        raise EdgeListFormatError(f"line {number + 1} is not ASCII text: {lines[number]!a}")
    rows: list[list[str]] = []
    for line in lines:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        rows.append(stripped.split())
    if not rows:
        raise EdgeListFormatError("missing 'n m' header line")
    n, m = _int_pair(rows[0], "header", "'n m'")
    if n > MAX_VERTICES:
        raise EdgeListFormatError(
            f"header {' '.join(rows[0])!r} asks for more than {MAX_VERTICES} vertices"
        )
    if len(rows) - 1 != m:
        raise EdgeListFormatError(f"expected {m} edge lines, found {len(rows) - 1}")
    pairs: set[Edge] = set()
    for row in rows[1:]:
        pair = _int_pair(row, "edge line", "'u v'")
        # The header's m must be the graph's edge count, so no line may be
        # merged away by the DiGraph canonicalisation.
        if pair[0] == pair[1]:
            raise EdgeListFormatError(f"self-loop edge line: {' '.join(row)!r}")
        if pair in pairs:
            raise EdgeListFormatError(f"repeated edge line: {' '.join(row)!r}")
        pairs.add(pair)
    return from_edge_list(n, pairs)


def format_edge_list(g: DiGraph) -> str:
    """Serialise g in the edge-list interchange format."""
    lines = [f"{g.n} {g.m}"]
    # g.edges is sorted: every DiGraph keeps its rows sorted.
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
