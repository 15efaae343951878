"""DAG substrate: containers, traversal, binarization, validation, IO."""

from .binarize import BinarizeResult, binarization_overhead, binarize
from .dag import DAG, DAGBuilder
from .io import (
    from_edge_list,
    from_json,
    from_networkx,
    load_json,
    relabel_topological,
    save_json,
    to_edge_list,
    to_json,
    to_networkx,
)
from .node import NodeRecord, OpType
from .stats import DagStats, dag_stats, fan_in_histogram, fan_out_histogram
from .traversal import (
    ancestors_within,
    arithmetic_longest_path,
    descendants_within,
    dfs_order,
    level_sets,
    longest_path_length,
    node_levels,
    reachable_from,
    topological_order,
    width_profile,
)
from .validate import check_acyclic, check_arities, validate

__all__ = [
    "DAG",
    "DAGBuilder",
    "NodeRecord",
    "OpType",
    "BinarizeResult",
    "binarize",
    "binarization_overhead",
    "DagStats",
    "dag_stats",
    "fan_in_histogram",
    "fan_out_histogram",
    "topological_order",
    "node_levels",
    "level_sets",
    "longest_path_length",
    "arithmetic_longest_path",
    "dfs_order",
    "ancestors_within",
    "descendants_within",
    "reachable_from",
    "width_profile",
    "validate",
    "check_acyclic",
    "check_arities",
    "to_networkx",
    "from_networkx",
    "to_json",
    "from_json",
    "save_json",
    "load_json",
    "to_edge_list",
    "from_edge_list",
    "relabel_topological",
]
