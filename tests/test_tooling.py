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


def test_reference_engines_do_not_prune_to_the_degree_core():
    # ``split`` recomputes the sparsifier certificates, so the reference
    # engines share no pruning step with the production engine they check.
    tree = ast.parse((SRC / "twovcc.py").read_text(encoding="utf-8"))
    functions = {
        node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    references = ("es_fixpoint", "two_vccs_es", "two_vccs_split", "two_vccs_containing")
    found = [
        f"{name}:{node.lineno}"
        for name in references
        for node in ast.walk(functions[name])
        if (isinstance(node, ast.Name) and node.id == "_degree_core")
        or (isinstance(node, ast.Attribute) and node.attr == "_degree_core")
    ]
    assert found == []


def test_only_the_flow_module_runs_split_network_flows():
    # ``FlowNetwork.max_flow`` runs only the degree-2 core's budget
    # network, which ``min_degree2_subgraph`` builds; every
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
                if isinstance(fn, ast.FunctionDef) and fn.name == "min_degree2_subgraph"
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
    # minimum cut and for a cut below k; no other function walks a pair
    # list of its own.
    allowed = {
        "_one_source_pairs": {"_cuts_below"},
    }
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
            f"{path.relative_to(SRC)}:{node.lineno}"
            for node in ast.walk(tree)
            for name in (
                node.id if isinstance(node, ast.Name) else None,
                node.attr if isinstance(node, ast.Attribute) else None,
                node.name if isinstance(node, ast.alias) else None,
            )
            if name in allowed
            and not (path.name == "kvcc.py" and inside.get(node) in allowed[name])
        ]
    assert found == []


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
    assert set(_calls_by_function("FlowNetwork")) == {("sparsify.py", "min_degree2_subgraph")}
    assert set(_calls_by_function("_min_st_vertex_cut")) == {
        ("kvcc.py", "_cuts_below"),
        ("sparsify.py", "_edge_set_is_2vc"),
        ("sparsify.py", "_edge_set_is_strongly_connected"),
    }


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
