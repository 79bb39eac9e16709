import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vconn.articulation
from vconn import from_edge_list, format_edge_list
from vconn.cli import bench, run
from vconn.errors import InvalidSpec, MismatchedOutputs
from vconn.testkit import GenSpec, gen_random

from conftest import FIG1_EDGES


@pytest.fixture
def fig1_file(tmp_path):
    g = from_edge_list(8, FIG1_EDGES)
    path = tmp_path / "fig1.txt"
    path.write_text(format_edge_list(g))
    return str(path)


def test_2vcc_split(fig1_file, capsys):
    assert run(["2vcc", "--algo", "split", fig1_file]) == 0
    assert capsys.readouterr().out.splitlines() == ["0 3 4 5", "0 6 7"]


def test_2vcc_all_variants_and_json(fig1_file, capsys):
    for algo in ("es", "domtree", "per-vertex"):
        assert run(["2vcc", "--algo", algo, fig1_file]) == 0
        assert capsys.readouterr().out.splitlines() == ["0 3 4 5", "0 6 7"]
    assert run(["2vcc", "--json", fig1_file]) == 0
    assert json.loads(capsys.readouterr().out) == [[0, 3, 4, 5], [0, 6, 7]]


def test_sap(fig1_file, capsys):
    assert run(["sap", fig1_file]) == 0
    assert capsys.readouterr().out.splitlines() == ["0", "1", "2", "3", "4"]
    assert run(["sap", "--json", fig1_file]) == 0
    assert capsys.readouterr().out == "[0, 1, 2, 3, 4]\n"


def test_sap_unions_over_sccs(tmp_path, capsys):
    # Two disjoint directed triangles with a one-way bridge: articulation
    # points of the whole graph are the union over its two SCCs.
    g = from_edge_list(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)])
    path = tmp_path / "two_tri.txt"
    path.write_text(format_edge_list(g))
    assert run(["sap", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["0", "1", "2", "3", "4", "5"]


def test_sap_takes_strong_connectivity_from_the_splitter(fig1_file, tmp_path, monkeypatch, capsys):
    # Every piece from the splitter is strongly connected, so the command
    # never asks for that to be proved again.
    chain = gen_random(GenSpec(n=200, m=800, model="planted", seed=5, sizes=(4,) * 66))
    chain_file = tmp_path / "chain.txt"
    chain_file.write_text(format_edge_list(chain))
    expected = {}
    for path in (fig1_file, str(chain_file)):
        assert run(["sap", path]) == 0
        expected[path] = capsys.readouterr().out

    def forbidden(g):
        raise AssertionError("strong connectivity checked again")

    monkeypatch.setattr(vconn.articulation, "is_strongly_connected", forbidden)
    for path, out in expected.items():
        assert run(["sap", path]) == 0
        assert capsys.readouterr().out == out


def test_usage_error_exit_2(fig1_file, capsys):
    assert run(["2vcc", "--algo", "bogus", fig1_file]) == 2
    capsys.readouterr()


def test_domain_error_exit_1(tmp_path, capsys):
    path = tmp_path / "weak.txt"
    path.write_text("2 1\n0 1\n")
    assert run(["cut", str(path)]) == 1
    err = capsys.readouterr().err
    assert "NotStronglyConnected" in err


def test_domtree_output(fig1_file, capsys):
    assert run(["domtree", fig1_file]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "0 -"
    assert lines[1] == "1 4"
    assert lines[2] == "2 1"
    assert len(lines) == 8
    assert run(["domtree", "--json", fig1_file]) == 0
    assert capsys.readouterr().out == (
        '{"root": 0, "idom": [[0, null], [1, 4], [2, 1], [3, 0], [4, 0], [5, 0], [6, 0], [7, 0]]}\n'
    )


def test_scc_and_cut(fig1_file, capsys):
    assert run(["scc", fig1_file]) == 0
    assert capsys.readouterr().out.strip() == "0 1 2 3 4 5 6 7"
    assert run(["cut", fig1_file]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert run(["cut", "--json", fig1_file]) == 0
    assert capsys.readouterr().out == "[2]\n"


def test_kvcc(fig1_file, capsys):
    assert run(["kvcc", "-k", "2", fig1_file]) == 0
    assert capsys.readouterr().out.splitlines() == ["0 3 4 5", "0 6 7"]
    assert run(["kvcc", "-k", "3", fig1_file]) == 0
    assert capsys.readouterr().out == ""


def test_kvcc_with_k_far_above_n(tmp_path, capsys):
    path = tmp_path / "k4.txt"
    k4 = from_edge_list(4, [(u, v) for u in range(4) for v in range(4)])
    path.write_text(format_edge_list(k4))
    assert run(["kvcc", "-k", "3000", str(path)]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--model", "planted", "-n", "5", "-m", "0", "--sizes", "a,b"],
        ["bench", "--sizes", "abc"],
        ["bench", "--sizes", "20", "--clique", "1", "--reps", "1"],
        ["bench", "--sizes", "20", "--density", "nan", "--reps", "1"],
        ["bench", "--sizes", "20", "--density", "inf", "--reps", "1"],
        ["bench", "--sizes", "20", "--reps", "0"],
        ["bench", "--sizes", "20", "--reps", "-1"],
        ["bench", "--sizes", "20", "--reps", "1", "--algos", "split,split"],
    ],
)
def test_bad_arguments_exit_nonzero_without_traceback(argv, capsys):
    assert run(argv) in (1, 2)
    assert capsys.readouterr().out == ""


def test_gen_uniform_rejects_sizes(capsys):
    assert run(["gen", "-n", "5", "-m", "3", "--sizes", "2,2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: InvalidSpec: uniform model takes no component sizes\n"


def test_bench_rejects_a_density_whose_edge_count_overflows():
    with pytest.raises(InvalidSpec, match="no finite edge count"):
        bench([20], ["split"], 1, density=1e308)


def test_bench_rejects_a_size_above_the_vertex_cap(capsys):
    # Every size is checked before the first graph, and before the planted
    # family's tuple of about n / 3 clique sizes is built.
    with pytest.raises(InvalidSpec, match="above the cap"):
        bench([20, 100_000_000_000], ["split"], 1)
    assert run(["bench", "--sizes", "100000000000", "--reps", "1"]) == 1
    assert capsys.readouterr().err == (
        "error: InvalidSpec: n=100000000000 is above the cap of 10000000 vertices\n"
    )


def test_sparsify_output(fig1_file, capsys):
    assert run(["sparsify", "--problem", "1", fig1_file]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "8 14"
    assert lines[-1] == "# retained 14 of 18 edges"
    assert len(lines) == 16
    assert run(["sparsify", "--problem", "2", "--json", fig1_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["retained"] == 17 and payload["certificate_ok"]


def test_gen_pipes_into_analysis(tmp_path, capsys):
    assert run(["gen", "--model", "planted", "-n", "5", "-m", "0",
                "--sizes", "3,3", "--seed", "4"]) == 0
    text = capsys.readouterr().out
    path = tmp_path / "gen.txt"
    path.write_text(text)
    assert run(["2vcc", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["0 1 2", "2 3 4"]


def test_gen_deterministic(capsys):
    assert run(["gen", "-n", "6", "-m", "12", "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert run(["gen", "-n", "6", "-m", "12", "--seed", "5"]) == 0
    assert capsys.readouterr().out == first


def test_stdin_dash(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("3 3\n0 1\n1 2\n2 0\n"))
    assert run(["sap", "-"]) == 0
    assert capsys.readouterr().out.splitlines() == ["0", "1", "2"]


def test_stdin_non_ascii_exit_1(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("# caf\xe9\n3 3\n0 1\n1 2\n2 0\n"))
    assert run(["scc", "-"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: EdgeListFormatError: ")
    # A strict decoder raises while stdin is read, before any parsing.
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"\xff"), encoding="utf-8"))
    assert run(["scc", "-"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: EdgeListFormatError: -: not ASCII text (")


def test_cut_of_empty_graph_exit_1(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("0 0\n"))
    assert run(["cut", "-"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: NoCutExists: a graph with no vertices has no vertex cut\n"


def test_bench_clique_default_is_shared():
    import inspect

    from vconn.cli import BENCH_CLIQUE, build_parser

    assert build_parser().parse_args(["bench"]).clique == BENCH_CLIQUE
    assert inspect.signature(bench).parameters["clique"].default == BENCH_CLIQUE


def test_bench_csv_shape(capsys):
    assert run(["bench", "--sizes", "20,30", "--algos", "es,split",
                "--reps", "2", "--seed", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "algo,n,m,nanos,components,seed"
    assert len(lines) == 1 + 2 * 2 * 2
    for line in lines[1:]:
        algo, n, m, nanos, comps, seed = line.split(",")
        assert algo in ("es", "split")
        assert int(n) in (20, 30)
        assert int(nanos) > 0


def test_bench_counts_match_across_algos():
    records = bench([24], ["es", "split", "domtree", "per-vertex"], 1, seed=11)
    counts = {r.components for r in records}
    assert len(counts) == 1


def test_bench_rejects_unknown_algo(capsys):
    assert run(["bench", "--sizes", "10", "--algos", "nope"]) == 2
    capsys.readouterr()


def test_bench_csv_deterministic_except_nanos(capsys):
    args = ["bench", "--sizes", "16,24", "--algos", "split,domtree",
            "--reps", "2", "--seed", "9"]

    def strip_nanos(text):
        rows = []
        for line in text.splitlines():
            cols = line.split(",")
            rows.append(",".join(cols[:3] + cols[4:]) if len(cols) == 6 else line)
        return rows

    assert run(args) == 0
    first = strip_nanos(capsys.readouterr().out)
    assert run(args) == 0
    assert strip_nanos(capsys.readouterr().out) == first


def test_bench_mismatch_aborts(monkeypatch):
    import vconn.cli as cli_mod

    def broken(g, algo):
        return [(0, 1, 2)] if algo == "es" else []

    monkeypatch.setattr(cli_mod, "two_vccs", broken)
    with pytest.raises(MismatchedOutputs):
        bench([12], ["es", "split"], 1, seed=2)


def test_bench_keeps_each_timing_of_a_repeated_variant(monkeypatch):
    import types

    import vconn.cli as cli_mod

    ticks = iter([0, 5, 100, 107])
    clock = types.SimpleNamespace(perf_counter_ns=lambda: next(ticks))
    monkeypatch.setattr(cli_mod, "time", clock)
    records = bench([12], ["split", "split"], 1)
    assert [(r.algo, r.nanos) for r in records] == [("split", 5), ("split", 7)]


def test_non_ascii_file_exit_1(tmp_path, capsys):
    path = tmp_path / "cafe.txt"
    path.write_bytes("# café\n3 3\n0 1\n1 2\n2 0\n".encode("utf-8"))
    assert run(["scc", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: EdgeListFormatError: ")


def test_non_ascii_file_names_the_line(tmp_path, capsys):
    path = tmp_path / "graph.txt"
    path.write_bytes(b"3 3\n# caf\xc3\xa9\n0 1\n1 2\n2 0\n")
    assert run(["scc", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: EdgeListFormatError: line 2 is not ASCII text")


def test_missing_file_exit_1(capsys):
    assert run(["scc", "/nonexistent/graph.txt"]) == 1
    capsys.readouterr()


def test_importing_the_cli_loads_neither_testkit_nor_json():
    # Only ``gen``, ``bench`` and ``--json`` need them, so the other
    # commands start without loading them.
    src = str(Path(vconn.articulation.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    probe = "import sys, vconn.cli; print(sorted({'vconn.testkit', 'json'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
