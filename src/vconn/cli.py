"""Command-line front end and the empirical-scaling benchmark harness.

Exit codes: 0 success, 1 domain errors (message names the error class on
stderr; a failed sparsifier certificate is ``MismatchedOutputs``), 2 usage
errors.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass

from .articulation import strong_articulation_points
from .connectivity import strongly_connected_components
from .dominators import dominator_tree
from .errors import EdgeListFormatError, GraphError, InvalidSpec, MismatchedOutputs
from .graph import DiGraph, format_edge_list, read_edge_list
from .kvcc import k_vccs, min_vertex_cut
from .sparsify import sparsify_problem1, sparsify_problem2, sparsify_problem3
from .twovcc import VARIANTS, two_vccs


# Planted clique size of the bench family, for the library call and the CLI.
BENCH_CLIQUE = 4


@dataclass(frozen=True)
class BenchRecord:
    algo: str
    n: int
    m: int
    nanos: int
    components: int
    seed: int

    def csv_row(self) -> str:
        return f"{self.algo},{self.n},{self.m},{self.nanos},{self.components},{self.seed}"


def _load_graph(path: str) -> DiGraph:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            # Undecodable bytes pass through as surrogates, so that
            # read_edge_list names the line for a file as for stdin.
            with open(path, "r", encoding="ascii", errors="surrogateescape") as handle:
                text = handle.read()
    except UnicodeError as exc:
        raise EdgeListFormatError(
            f"{path}: not ASCII text ({exc.reason} at position {exc.start})"
        ) from exc
    return read_edge_list(text)


def _cmd_graph(args) -> int:
    """The one path of every graph subcommand: load, compute, then print.

    ``args.compute(g, args)`` returns one JSON-serialisable value (tuples
    print as lists).  ``--json`` prints it as JSON; otherwise
    ``args.render`` turns that same value into the text lines.  Nothing is
    printed before the value is complete, so a domain error leaves stdout
    empty.
    """
    g = _load_graph(args.graph)
    value = args.compute(g, args)
    if args.json:
        # json is imported here, so that the text outputs do not load it.
        import json

        print(json.dumps(value))
    else:
        for line in args.render(value):
            print(line)
    return 0


def _rows(rows) -> list[str]:
    """Text lines of rows of ints, one row per line, joined by spaces."""
    return [" ".join(map(str, row)) for row in rows]


def _domtree(g: DiGraph, args) -> dict:
    tree = dominator_tree(g, args.root)
    return {"root": tree.root, "idom": [[w, tree.idom.get(w)] for w in range(g.n)]}


def _domtree_text(value: dict) -> list[str]:
    # Only the root has no immediate dominator.
    return [f"{w} -" if d is None else f"{w} {d}" for w, d in value["idom"]]


def _sparsify(g: DiGraph, args) -> dict:
    result = {1: sparsify_problem1, 2: sparsify_problem2, 3: sparsify_problem3}[args.problem](g)
    # The certificate is the split engine's recomputation of the retained
    # graph's components; a disagreement with what the domtree engine built
    # is an engine fault.  A component the engine left out cannot show:
    # the retained graph lacks it too.
    if not result.certificate_ok:
        raise MismatchedOutputs(f"problem {args.problem}'s certificate failed on {g!r}")
    return {"n": g.n, "edges": result.edges, "retained": result.size, "of": g.m,
            "certificate_ok": result.certificate_ok}


def _sparsify_text(value: dict) -> list[str]:
    # The edge-list format, written directly: a result's edges are already
    # sorted and distinct.
    edges = value["edges"]
    return [f"{value['n']} {len(edges)}", *(f"{u} {v}" for u, v in edges),
            f"# retained {value['retained']} of {value['of']} edges"]


def _int_list(text: str) -> tuple[int, ...]:
    """argparse type for a comma-separated list of integers."""
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        message = f"expected comma-separated integers, got {text!r}"
        raise argparse.ArgumentTypeError(message) from None


def _positive_int(text: str) -> int:
    """argparse type for an integer of at least 1."""
    message = f"expected a positive integer, got {text!r}"
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(message) from None
    if value < 1:
        raise argparse.ArgumentTypeError(message)
    return value


def _variant_list(text: str) -> list[str]:
    """argparse type for a comma-separated list of distinct 2-VCC variants."""
    algos = [tok.strip() for tok in text.split(",")]
    if any(a not in VARIANTS for a in algos) or len(set(algos)) != len(algos):
        message = f"expected distinct variants among {', '.join(VARIANTS)}, got {text!r}"
        raise argparse.ArgumentTypeError(message)
    return algos


def _cmd_gen(args) -> int:
    from . import testkit

    spec = testkit.GenSpec(
        n=args.n,
        m=args.m,
        model=args.model,
        seed=args.seed,
        sizes=args.sizes,
        strongly_connected=args.strong,
    )
    print(format_edge_list(testkit.gen_random(spec)), end="")
    return 0


def bench(
    sizes: list[int],
    algos: list[str],
    repetitions: int,
    seed: int = 0,
    density: float = 4.0,
    clique: int = BENCH_CLIQUE,
) -> list[BenchRecord]:
    """Time each algorithm on identical planted graphs.

    The family is a chain of bidirected cliques tiling all n vertices
    (strongly connected by construction, one component per clique), topped
    up with noise edges to the density target.  Component lists are
    compared before any timing row is emitted; a disagreement is an
    implementation bug and aborts the run.
    """
    from . import testkit

    if clique < 2:
        raise InvalidSpec(f"planted clique size must be >= 2, got {clique}")
    if not all(math.isfinite(density * n) for n in sizes):
        raise InvalidSpec(f"density {density} gives no finite edge count for sizes {sizes}")
    for n in sizes:
        # Before ``(clique,) * count`` below allocates a tuple of size ~n.
        testkit.check_vertex_count(n)
    records: list[BenchRecord] = []
    for idx, n in enumerate(sizes):
        m = int(density * n)
        for rep in range(repetitions):
            point_seed = seed + 1_000_003 * idx + rep
            count = max(1, (n - 1) // (clique - 1))
            spec = testkit.GenSpec(
                n=n,
                m=m,
                model="planted",
                seed=point_seed,
                sizes=(clique,) * count,
            )
            g = testkit.gen_random(spec)
            runs = []
            for algo in algos:
                start = time.perf_counter_ns()
                comps = two_vccs(g, algo)
                runs.append((algo, time.perf_counter_ns() - start, comps))
            reference = runs[0][2]
            for algo, _, comps in runs[1:]:
                if comps != reference:
                    raise MismatchedOutputs(
                        f"{algo} disagrees with {algos[0]} on n={n} seed={point_seed}"
                    )
            for algo, nanos, _ in runs:
                records.append(BenchRecord(algo, g.n, g.m, nanos, len(reference), point_seed))
    return records


def _cmd_bench(args) -> int:
    records = bench(list(args.sizes), args.algos, args.reps, args.seed, args.density, args.clique)
    print("algo,n,m,nanos,components,seed")
    for record in records:
        print(record.csv_row())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vconn",
        description="Directed-graph vertex-connectivity toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_cmd(name: str, help_text: str, compute, render=_rows):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("graph", nargs="?", default="-", help="edge-list file ('-' = stdin)")
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        p.set_defaults(func=_cmd_graph, compute=compute, render=render)
        return p

    add_graph_cmd("scc", "strongly connected components",
                  lambda g, args: strongly_connected_components(g).components)
    p = add_graph_cmd("domtree", "dominator tree (one 'w idom' line per vertex)",
                      _domtree, _domtree_text)
    p.add_argument("--root", type=int, default=0, help="start vertex (default 0)")
    add_graph_cmd("sap", "strong articulation points, one id per line",
                  lambda g, args: sorted(strong_articulation_points(g)),
                  lambda points: map(str, points))
    p = add_graph_cmd("2vcc", "2-vertex-connected components",
                      lambda g, args: two_vccs(g, args.algo))
    p.add_argument("--algo", choices=VARIANTS, default="domtree")
    p = add_graph_cmd("kvcc", "k-vertex-connected components", lambda g, args: k_vccs(g, args.k))
    p.add_argument("-k", type=int, required=True)
    add_graph_cmd("cut", "a minimum vertex cut",
                  lambda g, args: min_vertex_cut(g).vertices, lambda cut: _rows([cut]))
    p = add_graph_cmd("sparsify", "connectivity-preserving edge sparsifier",
                      _sparsify, _sparsify_text)
    p.add_argument("--problem", type=int, choices=(1, 2, 3), default=1)

    p = sub.add_parser("gen", help="write a seeded random graph as an edge list")
    p.add_argument("--model", choices=("uniform", "planted"), default="uniform")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sizes", type=_int_list, help="comma-separated planted clique sizes")
    p.add_argument("--strong", action="store_true", help="weave in a random spanning cycle")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="time 2-vcc variants on planted graph families (CSV)")
    p.add_argument(
        "--sizes", type=_int_list, default="100,200,400", help="comma-separated vertex counts"
    )
    p.add_argument(
        "--algos", type=_variant_list, default="es,split", help="comma-separated variant names"
    )
    p.add_argument("--reps", type=_positive_int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--density", type=float, default=4.0, help="edges per vertex")
    p.add_argument("--clique", type=int, default=BENCH_CLIQUE, help="planted clique size")
    p.set_defaults(func=_cmd_bench)
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except GraphError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
