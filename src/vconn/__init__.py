"""vconn: vertex-connectivity toolkit for directed graphs.

Strong articulation points, dominator trees, 2-/3-/k-vertex-connected
components (a dominator-tree 2-vcc engine plus three reference variants
with the same output), and approximately minimum sparsifiers that preserve
2-vertex-connected structure, plus the brute-force oracles and generators
used to validate all of it.
"""

from .articulation import is_2vertex_connected, strong_articulation_points
from .connectivity import (
    SccPartition,
    is_strongly_connected,
    strongly_connected_components,
)
from .dominators import (
    DominatorTree,
    dominator_tree,
    nontrivial_dominators,
    root_children,
    tree_children,
)
from .graph import (
    DiGraph,
    format_edge_list,
    from_edge_list,
    induced_subgraph,
    read_edge_list,
    remove_vertices,
    reverse,
)
from .kvcc import (
    VertexCut,
    is_k_vertex_connected,
    k_vccs,
    min_vertex_cut,
    three_vccs,
    vertex_connectivity,
)
from .sparsify import (
    CoarsenedGraph,
    SparsifyResult,
    approx_2vcss,
    approx_mscss,
    coarsen,
    min_degree2_subgraph,
    sparsify_problem1,
    sparsify_problem2,
    sparsify_problem3,
)
from .twovcc import (
    two_vccs,
    two_vccs_containing,
    two_vccs_domtree,
    two_vccs_es,
    two_vccs_split,
)

__version__ = "0.1.0"

__all__ = [
    "DiGraph",
    "SccPartition",
    "DominatorTree",
    "VertexCut",
    "SparsifyResult",
    "CoarsenedGraph",
    "from_edge_list",
    "reverse",
    "induced_subgraph",
    "remove_vertices",
    "read_edge_list",
    "format_edge_list",
    "strongly_connected_components",
    "is_strongly_connected",
    "dominator_tree",
    "nontrivial_dominators",
    "root_children",
    "tree_children",
    "strong_articulation_points",
    "is_2vertex_connected",
    "two_vccs",
    "two_vccs_es",
    "two_vccs_split",
    "two_vccs_domtree",
    "two_vccs_containing",
    "vertex_connectivity",
    "min_vertex_cut",
    "is_k_vertex_connected",
    "three_vccs",
    "k_vccs",
    "coarsen",
    "min_degree2_subgraph",
    "approx_2vcss",
    "approx_mscss",
    "sparsify_problem1",
    "sparsify_problem2",
    "sparsify_problem3",
]
