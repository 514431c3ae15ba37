"""Spanning-tree lifts of graphs over {0,1}^S, their cut embeddings into l1,
exact distortion measurement, and structural verification sweeps."""

from .embedding import (
    DistortionReport,
    EmbeddingTable,
    distortion,
    embed,
    distortion_bound,
)
from .families import FamilySpec, GenerationError, girth_diam_ratio, load_named, make, random_regular
from .graph import (
    BridgeDecomposition,
    Graph,
    GraphError,
    TreeDecomposition,
    bfs_distances,
    bridges_and_2ecc,
    build_graph,
    diameter,
    girth,
    load_edge_list,
    parse_edge_list,
    save_edge_list,
    spanning_tree,
)
from .lift import (
    DEFAULT_MAX_VERTICES,
    LiftedGraph,
    LiftTooLargeError,
    build_lift,
    lift_walk,
    lifted_diameter,
    lifted_distance,
    lifted_girth,
    representative_tables,
)
from .walks import (
    PathRebuildError,
    Verdict,
    WalkAnalysis,
    analyze,
    forensic_text,
    shortest_lifted_path,
    verify_all,
)

__version__ = "0.1.0"
