"""Similarity-driven, neighborhood-preserving Voronoi treemaps."""

from .datasets import gen_synthetic
from .geometry import (
    Cell,
    ConvexPolygon,
    Diagram,
    adapt_weights,
    cell_neighbors,
    lloyd_step,
    power_diagram,
)
from .layout_init import (
    build_cvt,
    match_assignment,
    mds_project,
    proj_scale_init,
    random_assignment,
    swap_improve,
)
from .metrics import MetricsReport, area_and_aspect, constraint_path_stats, preserved_constraints
from .optimizer import LevelState, OptimizerConfig, build_level_queue, optimize_level
from .pipeline import RunConfig, RunResult, compare, run
from .render import RenderOptions, assign_colors, render_svg
from .similarity import (
    Constraint,
    SimilarityMatrix,
    bin_and_filter,
    compute_similarity,
    extract_level_constraints,
    pairwise_matrix,
)
from .tree_model import Tree, TreeNode, parse_tree, propagate_attributes, uniform_depth

__version__ = "0.1.0"
