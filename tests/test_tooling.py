"""Checks on the library's source tree itself."""

import ast
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "vconn"


def test_no_assert_statements_in_library():
    # ``python -O`` strips assert statements, so a check that guards a
    # result must raise instead.
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_only_connectivity_turns_scc_partitions_into_pieces():
    # ``_strong_pieces`` is the one place an SCC partition becomes pieces;
    # every other module goes through it instead of grouping SCC ids.
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "connectivity.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if (isinstance(node, ast.Name) and node.id == "_group_components")
        or (isinstance(node, ast.Attribute) and node.attr == "_group_components")
        or (isinstance(node, ast.alias) and node.name == "_group_components")
    ]
    assert found == []


def test_the_cli_reaches_the_library_only_through_public_names():
    # A private helper is free to change its contract, so the command line
    # must not build its own answer from one.  Checked: every name cli.py
    # imports from a vconn module, and every attribute it reads from a
    # vconn module it imports whole.
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    imports = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("vconn"))
    ]
    # ``from . import testkit`` binds a whole module.
    modules = {
        alias.asname or alias.name
        for node in imports
        if node.module in (None, "vconn")
        for alias in node.names
    }
    found = [
        f"cli.py:{node.lineno} {alias.name}"
        for node in imports
        for alias in node.names
        if alias.name.startswith("_")
    ] + [
        f"cli.py:{node.lineno} {node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
        and node.attr.startswith("_")
    ]
    assert imports
    assert found == []


def test_reference_engines_do_not_prune_to_the_degree_core():
    # ``split`` recomputes the sparsifier certificates, so the reference
    # engines share no pruning step or degree shortcut with the production
    # engine they check.
    tree = ast.parse((SRC / "twovcc.py").read_text(encoding="utf-8"))
    functions = {
        node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    references = ("es_fixpoint", "two_vccs_es", "two_vccs_split", "two_vccs_containing")
    shortcuts = {"_degree_core", "_dense"}
    found = [
        f"{name}:{node.lineno}"
        for name in references
        for node in ast.walk(functions[name])
        if (isinstance(node, ast.Name) and node.id in shortcuts)
        or (isinstance(node, ast.Attribute) and node.attr in shortcuts)
    ]
    assert found == []
    # ``split`` shares only the articulation test, the piece splitter and
    # the subgraph builder with the production engine, and adds the shadow's
    # blocks: it may read no dominator tree and prune nothing.
    module_names = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    } | set(functions)
    split_names = {
        node.id if isinstance(node, ast.Name) else node.attr
        for stmt in functions["two_vccs_split"].body
        for node in ast.walk(stmt)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    assert "_points_and_trees" in split_names
    assert split_names & module_names <= {
        "_points_and_trees", "_strong_pieces", "strip_labels", "_canonical", "_blocks",
        "induced_subgraph",
    }
    forbidden = {"nontrivial_dominators", "root_children", "_degree_core", "_dense"}
    assert split_names & forbidden == set()


def test_only_the_flow_module_runs_split_network_flows():
    # ``FlowNetwork.max_flow`` runs only the degree-2 core's budget
    # network, which ``_min_degree2_edges`` builds; every
    # vertex-disjoint-path question goes through ``_flow._min_st_vertex_cut``
    # on the graph's own adjacency, so no other module runs a flow of its
    # own.
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        allowed: set[ast.AST] = set()
        if path.name == "sparsify.py":
            allowed = {
                node
                for fn in tree.body
                if isinstance(fn, ast.FunctionDef) and fn.name == "_min_degree2_edges"
                for node in ast.walk(fn)
            }
        found += [
            f"{path.relative_to(SRC)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "max_flow"
            and path.name != "_flow.py"
            and node not in allowed
        ]
    assert found == []


def test_one_pair_loop_per_question():
    # ``_cuts_below`` is the one walk over the one-source pairs, for the
    # minimum cut and for a cut below k: it owns the pair order, the
    # settled flags and the falling k, so it is the only generator in
    # ``kvcc.py``, and every question reaches the pairs through it.
    tree = ast.parse((SRC / "kvcc.py").read_text(encoding="utf-8"))
    generators = {
        fn.name
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
        and any(isinstance(node, (ast.Yield, ast.YieldFrom)) for node in ast.walk(fn))
    }
    assert generators == {"_cuts_below"}
    assert set(_calls_by_function("_cuts_below")) == {
        ("kvcc.py", "_global_min_cut"),
        ("kvcc.py", "is_k_vertex_connected"),
        ("kvcc.py", "k_vccs"),
    }


def _calls_by_function(name):
    """(module file, enclosing top-level function) of every call of ``name``
    in the library, as a plain or attribute call."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        inside = {
            node: fn.name
            for fn in tree.body
            if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
        }
        found += [
            (path.name, inside.get(node))
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and (
                (isinstance(node.func, ast.Name) and node.func.id == name)
                or (isinstance(node.func, ast.Attribute) and node.func.attr == name)
            )
        ]
    return found


def test_one_vertex_cut_kernel_and_one_flow_network():
    # Every vertex cut comes from one Menger flow on the graph's own
    # adjacency; a second vertex-cut kernel, or a split network built on
    # ``FlowNetwork``, would duplicate it.
    assert set(_calls_by_function("FlowNetwork")) == {("sparsify.py", "_min_degree2_edges")}
    assert set(_calls_by_function("_min_st_vertex_cut")) == {
        ("kvcc.py", "_cuts_below"),
        ("sparsify.py", "_edge_set_is_2vc"),
        ("sparsify.py", "_edge_set_is_strongly_connected"),
    }


def test_one_depth_first_search_and_no_label_stripping_in_the_sparsifier():
    # The dominator tree and the sparsifier's two arborescences come from
    # one search, and every sparsifier answers in its input's own ids, so
    # it strips no labels.
    assert set(_calls_by_function("_preorder")) == {
        ("dominators.py", "dominator_tree"),
        ("sparsify.py", "approx_mscss"),
    }
    assert [
        path.name for path in sorted(SRC.rglob("*.py")) if "_dfs_tree" in path.read_text(encoding="utf-8")
    ] == []
    tree = ast.parse((SRC / "sparsify.py").read_text(encoding="utf-8"))
    assert not any(
        (isinstance(node, ast.Name) and node.id == "strip_labels")
        or (isinstance(node, ast.Attribute) and node.attr == "strip_labels")
        or (isinstance(node, ast.alias) and node.name == "strip_labels")
        for node in ast.walk(tree)
    )


def test_problem1_is_built_in_one_place():
    # Problems 2 and 3 are problem 1 plus one step on the coarsened graph,
    # so every sparsifier reaches the engine and the degree-2 core through
    # ``_problem1``; only ``coarsen`` runs the engine for itself.
    def in_sparsify(name):
        return {fn for path, fn in _calls_by_function(name) if path == "sparsify.py"}

    assert in_sparsify("two_vccs_domtree") == {"coarsen", "_problem1"}
    assert in_sparsify("_min_degree2_edges") == {"min_degree2_subgraph", "_problem1"}
    assert in_sparsify("_problem1") == {f"sparsify_problem{i}" for i in (1, 2, 3)}


def test_only_the_public_degree2_entry_point_tests_2_vertex_connectivity():
    # The sparsifiers take each component's 2-vertex-connectivity from the
    # engine that built it; only ``min_degree2_subgraph`` (and through it
    # ``approx_2vcss``) tests input that comes from outside.
    tree = ast.parse((SRC / "sparsify.py").read_text(encoding="utf-8"))
    inside = {
        node: fn.name
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
    }
    found = {
        inside.get(node)
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "is_2vertex_connected")
        or (isinstance(node, ast.Attribute) and node.attr == "is_2vertex_connected")
    }
    assert found == {"min_degree2_subgraph"}


def test_every_traced_layer_resolves_and_only_the_cli_prints():
    # The benchmark's tracer wraps layers by (module, qualified name) and
    # drops the metrics of a name that no longer resolves; the benchmark
    # reads its result from the last stdout line, which a library print
    # would displace.  Its target list is read without importing it.
    tracer = SRC.parents[1] / "perfbench" / "tracer.py"
    targets = next(
        ast.literal_eval(node.value)
        for node in ast.parse(tracer.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    )
    assert len(targets) >= 17
    unresolved = []
    for prefix, module_name, qualname in targets:
        obj = importlib.import_module(module_name)
        for attr in qualname.split("."):
            obj = getattr(obj, attr, None)
        if not (module_name.startswith("vconn.") and callable(obj)):
            unresolved.append(prefix)
    assert unresolved == []
    printing = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "cli.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "print"
    ]
    assert printing == []


def _function(module, qualname):
    """The AST of a top-level function or method of a library module."""
    node = ast.parse((SRC / module).read_text(encoding="utf-8"))
    for name in qualname.split("."):
        node = next(
            child
            for child in node.body
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)) and child.name == name
        )
    return node


def test_only_digraph_init_raises_the_edge_range_message():
    # Every graph is a ``DiGraph``, and one place checks its edges' range.
    tree = ast.parse((SRC / "graph.py").read_text(encoding="utf-8"))
    edge_range = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and getattr(node.exc.func, "id", None) == "VertexOutOfRange"
        and isinstance(node.exc.args[0], ast.JoinedStr)
        and isinstance(node.exc.args[0].values[0], ast.Constant)
        and node.exc.args[0].values[0].value.startswith("edge (")
    ]
    assert len(edge_range) == 1
    init = _function("graph.py", "DiGraph.__init__")
    assert init.lineno < edge_range[0] < init.end_lineno


def test_only_connectivity_forms_the_undirected_shadow():
    # ``es`` and ``split`` read the shadow only through ``_blocks``, which
    # alone joins a vertex's out-row to its in-row.  A join is a ``+`` or
    # ``|`` over rows zipped from out_adj and in_adj, or of an out_adj and
    # an in_adj expression; a zip that only reads degrees is no join.
    assert set(_calls_by_function("_blocks")) == {
        ("twovcc.py", "two_vccs_es"),
        ("twovcc.py", "two_vccs_split"),
    }

    def reads(node, attr):
        return any(isinstance(n, ast.Attribute) and n.attr == attr for n in ast.walk(node))

    def joins(node):
        return isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.BitOr))

    def zips_rows(comp):
        return any(
            isinstance(gen.iter, ast.Call)
            and getattr(gen.iter.func, "id", None) == "zip"
            and reads(gen.iter, "out_adj")
            and reads(gen.iter, "in_adj")
            for gen in comp.generators
        )

    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if (
            isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp))
            and zips_rows(node)
            and any(joins(n) for n in ast.walk(node.elt))
        )
        or (
            joins(node)
            and {reads(node.left, "out_adj"), reads(node.right, "out_adj")} == {True, False}
            and {reads(node.left, "in_adj"), reads(node.right, "in_adj")} == {True, False}
        )
    ]
    assert [site.split(":")[0] for site in found] == ["connectivity.py"], found


def test_the_deletion_loop_takes_only_its_candidates():
    # ``_prune`` scans exactly the candidates it is given; a caller drops
    # the edges it must keep before the call.
    args = _function("sparsify.py", "_prune").args
    assert [a.arg for a in args.args] == ["rows", "candidates", "still_ok"]
    assert not (args.defaults or args.kwonlyargs or args.vararg or args.kwarg)


def test_no_resort_of_a_graphs_sorted_edges():
    # A DiGraph keeps its rows sorted, so its edges already come in
    # (u, v) order and ``sorted(g.edges)`` only copies them.
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "sorted"
        and node.args
        and isinstance(node.args[0], ast.Attribute)
        and node.args[0].attr == "edges"
    ]
    assert found == []
