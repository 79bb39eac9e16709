import io
import random

import pytest

from vconn import (
    DiGraph,
    format_edge_list,
    from_edge_list,
    induced_subgraph,
    read_edge_list,
    remove_vertices,
    reverse,
)
from vconn.connectivity import _blocks
from vconn.errors import EdgeListFormatError, VertexOutOfRange

from conftest import FIG1_EDGES, mixed_corpus


def test_from_edge_list_c3(c3):
    assert c3.n == 3
    assert c3.m == 3
    assert c3.edges == ((0, 1), (1, 2), (2, 0))


def test_from_edge_list_fig1(fig1):
    assert fig1.n == 8
    assert fig1.m == 18
    assert set(fig1.edges) == set(FIG1_EDGES)


def test_from_edge_list_drops_loops_and_duplicates():
    g = from_edge_list(2, [(0, 1), (0, 1), (1, 1)])
    assert g.edges == ((0, 1),)


def test_from_edge_list_rejects_out_of_range():
    with pytest.raises(VertexOutOfRange):
        from_edge_list(2, [(0, 2)])
    with pytest.raises(VertexOutOfRange):
        from_edge_list(1, [(-1, 0)])
    with pytest.raises(VertexOutOfRange, match="vertex count must be non-negative"):
        DiGraph(-1, [])


def test_adjacency_is_transpose(fig1):
    pairs_out = {(u, v) for u in range(fig1.n) for v in fig1.out_adj[u]}
    pairs_in = {(u, v) for v in range(fig1.n) for u in fig1.in_adj[v]}
    assert pairs_out == pairs_in


def test_reverse_c3(c3):
    assert reverse(c3).edges == ((0, 2), (1, 0), (2, 1))


def test_reverse_bidirected_is_identity(tri):
    assert reverse(tri) == tri


def test_reverse_is_involution(fig1):
    assert reverse(reverse(fig1)) == fig1


def test_induced_subgraph_triangle(fig1):
    sub = induced_subgraph(fig1, {0, 6, 7})
    assert sub.n == 3
    assert sub.m == 6
    assert sub.origin_labels == (0, 6, 7)


def test_induced_subgraph_four_cycle(fig1):
    sub = induced_subgraph(fig1, {0, 3, 4, 5})
    # 0<->3, 3<->5, 4<->5, 0<->4 in original ids.
    relabel = dict(enumerate(sub.origin_labels))
    edges = {(relabel[u], relabel[v]) for u, v in sub.edges}
    expected = {(0, 3), (3, 0), (3, 5), (5, 3), (4, 5), (5, 4), (0, 4), (4, 0)}
    assert edges == expected


def test_induced_subgraph_full_set_is_identity(fig1):
    sub = induced_subgraph(fig1, range(fig1.n))
    assert sub == fig1
    assert sub.origin_labels == tuple(range(8))


def test_a_subgraph_of_every_vertex_is_the_graph_itself(fig1):
    # A DiGraph is immutable and the copy would carry g's rows and composed
    # labels, so the constructor returns its input instead of a copy.
    piece = induced_subgraph(fig1, {0, 3, 4, 5})
    assert piece.origin_labels == (0, 3, 4, 5)
    for g in (fig1, piece):
        labels = g.origin_labels
        assert induced_subgraph(g, range(g.n)) is g
        assert induced_subgraph(g, reversed(range(g.n))) is g
        assert remove_vertices(g, ()) is g
        assert g.origin_labels == labels


def test_induced_subgraph_rejects_bad_vertex(fig1):
    with pytest.raises(VertexOutOfRange):
        induced_subgraph(fig1, {0, 9})
    with pytest.raises(VertexOutOfRange, match=r"vertex 8 outside \[0, 8\)"):
        remove_vertices(fig1, [fig1.n])


def test_remove_vertices_complement_equivalence(fig1):
    assert remove_vertices(fig1, {0}) == induced_subgraph(fig1, {1, 2, 3, 4, 5, 6, 7})
    assert remove_vertices(fig1, {0}).n == 7


def test_remove_vertices_nothing(c3):
    assert remove_vertices(c3, set()) == c3


def test_remove_vertices_tri(tri):
    g = remove_vertices(tri, {2})
    assert g.n == 2
    assert set(g.edges) == {(0, 1), (1, 0)}


def test_label_composition(fig1):
    sub = induced_subgraph(fig1, {0, 3, 4, 5})
    subsub = induced_subgraph(sub, {0, 2})  # local ids for original 0 and 4
    assert subsub.origin_labels == (0, 4)


def test_random_invariants():
    for g in mixed_corpus(40, base_seed=900):
        rng = random.Random(g.n * 1000 + g.m)
        s = {v for v in range(g.n) if rng.random() < 0.5}
        sub = induced_subgraph(g, s)
        outside = sum(1 for u, v in g.edges if u not in s or v not in s)
        assert sub.m + outside == g.m
        assert set(sub.origin_labels) == s
        r = reverse(g)
        assert (r.n, r.m) == (g.n, g.m)
        # g and its reversal have one undirected shadow.
        assert _blocks(g) == _blocks(r)


def test_edge_list_roundtrip(fig1):
    text = format_edge_list(fig1)
    assert text.splitlines()[0] == "8 18"
    assert read_edge_list(text) == fig1


def test_edge_list_comments_and_errors():
    g = read_edge_list("# a comment\n2 1\n# another\n0 1\n# trailing\n")
    assert g.edges == ((0, 1),)
    with pytest.raises(EdgeListFormatError):
        read_edge_list("")
    with pytest.raises(EdgeListFormatError):
        read_edge_list("2 2\n0 1\n")
    with pytest.raises(EdgeListFormatError):
        read_edge_list("2\n")
    with pytest.raises(EdgeListFormatError):
        read_edge_list("2 1\n0 x\n")
    with pytest.raises(EdgeListFormatError, match="edge line must be 'u v', got '0 1 2'"):
        read_edge_list("3 1\n0 1 2\n")
    with pytest.raises(EdgeListFormatError, match="repeated edge line: '0 1'"):
        read_edge_list("3 4\n0 1\n0 1\n1 2\n2 0\n")
    with pytest.raises(EdgeListFormatError, match="self-loop edge line: '1 1'"):
        read_edge_list("3 4\n0 1\n1 1\n1 2\n2 0\n")
    # int() would read these as 3, 2, 0, 10 and -1.
    with pytest.raises(EdgeListFormatError, match="line 1 is not ASCII text"):
        read_edge_list("\u0663 \u0660\n")
    with pytest.raises(EdgeListFormatError, match="line 2 is not ASCII text"):
        read_edge_list("3 1\n0 \uff12\n")
    with pytest.raises(EdgeListFormatError, match="non-decimal header: '\\+0 0'"):
        read_edge_list("+0 0\n")
    with pytest.raises(EdgeListFormatError, match="non-decimal edge line: '1_0 0'"):
        read_edge_list("11 1\n1_0 0\n")
    with pytest.raises(EdgeListFormatError, match="non-decimal edge line: '-1 0'"):
        read_edge_list("3 1\n-1 0\n")
    # Longer than int()'s digit limit.
    with pytest.raises(EdgeListFormatError, match="non-integer header"):
        read_edge_list("1" * 5000 + " 0\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("2\n", "header must be 'n m', got '2'"),
        ("2 1 0\n0 1\n", "header must be 'n m', got '2 1 0'"),
        ("2 one\n0 1\n", "non-integer header: '2 one'"),
        ("2 -1\n", "non-decimal header: '2 -1'"),
        ("2 1\n0\n", "edge line must be 'u v', got '0'"),
        ("3 1\n0  1\t2\n", "edge line must be 'u v', got '0 1 2'"),
        ("3 1\n0 1.0\n", "non-integer edge line: '0 1.0'"),
        ("3 1\n0 +1\n", "non-decimal edge line: '0 +1'"),
    ],
)
def test_each_line_fault_has_its_own_message(text, message):
    with pytest.raises(EdgeListFormatError) as info:
        read_edge_list(text)
    assert str(info.value) == message
    # Only int()'s own failure is chained.
    is_chained = message.startswith("non-integer")
    assert isinstance(info.value.__cause__, ValueError) is is_chained


@pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
def test_only_a_newline_ends_an_edge_list_line(separator):
    # str.splitlines() also breaks at these; the parser reads them as
    # whitespace inside one line, as the non-ASCII error counts lines by
    # "\n" alone.
    with pytest.raises(EdgeListFormatError, match="expected 2 edge lines, found 1"):
        read_edge_list(f"3 2\n0 1{separator}1 2\n")
    with pytest.raises(EdgeListFormatError, match="edge line must be 'u v', got '0 1 1 2'"):
        read_edge_list(f"3 1\n0 1{separator}1 2\n")
    assert read_edge_list(f"3 1\n0{separator}1{separator}\n").edges == ((0, 1),)


def test_edge_list_reads_a_stream_as_its_text(fig1):
    for text in [format_edge_list(fig1), "# c\n3 2\n\n 0 1 \n2 1\n", "0 0\n"]:
        assert read_edge_list(io.StringIO(text)) == read_edge_list(text)
    with pytest.raises(EdgeListFormatError, match="repeated edge line: '0 1'"):
        read_edge_list(io.StringIO("2 2\n0 1\n0 1\n"))


def test_equal_graphs_hash_equal(fig1):
    copy = read_edge_list(format_edge_list(fig1))
    assert copy is not fig1 and copy == fig1
    assert hash(copy) == hash(fig1)
    assert len({fig1, copy, reverse(reverse(fig1))}) == 1
    assert len({fig1, reverse(fig1)}) == 2


def test_header_vertex_count_is_capped(monkeypatch):
    import vconn.graph

    monkeypatch.setattr(vconn.graph, "MAX_VERTICES", 5)
    assert read_edge_list("5 0\n").n == 5
    with pytest.raises(EdgeListFormatError, match="header '6 0' asks for more than 5 vertices"):
        read_edge_list("6 0\n")


def test_edges_sorted_in_output():
    g = DiGraph(3, [(2, 0), (0, 2), (1, 0)])
    lines = format_edge_list(g).splitlines()
    assert lines[1:] == ["0 2", "1 0", "2 0"]
