"""Design-space exploration (§V of the paper)."""

from .pareto import ParetoSummary, constant_edp_curve, pareto_front, summarize
from .sweep import (
    DsePoint,
    DseResult,
    evaluate_config,
    resolve_workloads,
    run_sweep,
)

__all__ = [
    "DsePoint",
    "DseResult",
    "evaluate_config",
    "resolve_workloads",
    "run_sweep",
    "ParetoSummary",
    "summarize",
    "pareto_front",
    "constant_edp_curve",
]
