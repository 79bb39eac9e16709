"""The benchmark's workloads and the user-facing calls it times.

A workload is one graph family.  Every workload makes every call kind, so
every run reports every end-to-end metric; the calls that are too slow at
the family's main size run on smaller graphs of the same family.  Graphs
come only from ``vconn.testkit.gen_random`` and the workload seed: graph i
of set j gets generator seed ``seed * 1000 + 100 * j + i``.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass

ENGINE_KINDS = ("twovcc_s", "sap_s", "cli_2vcc_s")
KINDS = ("twovcc_s", "sap_s", "cli_2vcc_s", "sparsify2_s", "sparsify3_s", "kvcc3_s", "cut_s")


@dataclass(frozen=True)
class GraphSet:
    """``count`` graphs of one shape, on which ``kinds`` are called."""

    kinds: tuple[str, ...]
    model: str
    n: int
    m: int
    count: int
    clique: int = 0
    strong: bool = False

    def specs(self, vconn, seed: int, index: int):
        sizes = None
        if self.model == "planted":
            sizes = (self.clique,) * ((self.n - 1) // (self.clique - 1))
        return [
            vconn.testkit.GenSpec(
                n=self.n,
                m=self.m,
                model=self.model,
                seed=seed * 1000 + 100 * index + i,
                sizes=sizes,
                strongly_connected=self.strong,
            )
            for i in range(self.count)
        ]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sets: tuple[GraphSet, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "uniform-4n",
            "uniform strongly connected graphs with m=4n: one giant component that "
            "split peels a few vertices per round, so articulation, dominator and SCC "
            "layers do the work",
            (
                GraphSet(ENGINE_KINDS, "uniform", n=500, m=2000, count=7, strong=True),
                GraphSet(KINDS[3:], "uniform", n=30, m=120, count=28, strong=True),
            ),
        ),
        Workload(
            "planted-chain",
            "a strongly connected chain of 4-cliques with a few noise edges: hundreds "
            "of tiny components, so per-piece subgraph builds, sparsifier recomputation "
            "and CLI parsing dominate",
            (
                GraphSet(KINDS[:5], "planted", n=1000, m=4000, count=5, clique=4),
                GraphSet(KINDS[5:], "planted", n=100, m=400, count=8, clique=4),
            ),
        ),
        Workload(
            "kvcc-dense",
            "6-cliques on a random spanning cycle with no noise edges: one giant 2-VCC, "
            "so flows, k-VCC recursion and the sparsifier deletion loop do the work",
            # The m target is below the planted edge count, so no noise is added.
            (GraphSet(KINDS, "planted", n=51, m=51, count=16, clique=6, strong=True),),
        ),
    )
}


def articulation_points(vconn, g) -> set[int]:
    """All strong articulation points, per SCC, as ``vconn sap`` finds them."""
    points: set[int] = set()
    for comp in vconn.strongly_connected_components(g).components:
        if len(comp) >= 2:
            sub = vconn.induced_subgraph(g, comp)
            points.update(comp[i] for i in vconn.strong_articulation_points(sub))
    return points


def run_cli_in_process(vconn, path: str) -> str:
    """``vconn 2vcc PATH`` through ``cli.run``, returning what it prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = vconn.cli.run(["2vcc", path])
    if code != 0:
        raise RuntimeError(f"vconn 2vcc exited with {code}")
    return out.getvalue()


LIBRARY_CALLS = {
    "twovcc_s": lambda vconn, g: vconn.two_vccs(g),
    "sap_s": articulation_points,
    "sparsify2_s": lambda vconn, g: vconn.sparsify_problem2(g),
    "sparsify3_s": lambda vconn, g: vconn.sparsify_problem3(g),
    "kvcc3_s": lambda vconn, g: vconn.k_vccs(g, 3),
    "cut_s": lambda vconn, g: vconn.min_vertex_cut(g),
}
