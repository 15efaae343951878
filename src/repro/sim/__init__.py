"""Simulation: golden model, two-phase execution engine, perf/energy/area.

Execution is two-phase: :mod:`repro.sim.plan` lowers a compiled
program once (running all verification at lowering time) and
:mod:`repro.sim.batch` executes ``(B, num_inputs)`` batches through
the plan's fused op table (:mod:`repro.sim.fused`).  The scalar
:class:`Simulator` in :mod:`repro.sim.functional` remains the
fully-checked reference path.
"""

from .activity import batch_counters, count_activity
from .batch import BatchResult, BatchSimulator, run_batch
from .fused import FusedPlan, bind_sweep, fuse_plan
from .area import AreaBreakdown, area_of, paper_area_breakdown_mm2
from .energy import (
    EnergyBreakdown,
    EnergyReport,
    energy_of_batch,
    energy_of_run,
    paper_power_breakdown_mw,
)
from .functional import ActivityCounters, SimResult, Simulator, run_program
from .performance import (
    BatchPerfReport,
    PerfReport,
    batch_perf_report,
    estimate_cycles_from_program,
    perf_from_sim,
    perf_report,
)
from .plan import ExecutionPlan, lower_program
from .reference import evaluate_dag, evaluate_outputs

__all__ = [
    "count_activity",
    "batch_counters",
    "ExecutionPlan",
    "lower_program",
    "BatchSimulator",
    "BatchResult",
    "run_batch",
    "FusedPlan",
    "bind_sweep",
    "fuse_plan",
    "BatchPerfReport",
    "batch_perf_report",
    "energy_of_batch",
    "evaluate_dag",
    "evaluate_outputs",
    "Simulator",
    "SimResult",
    "ActivityCounters",
    "run_program",
    "PerfReport",
    "perf_report",
    "perf_from_sim",
    "estimate_cycles_from_program",
    "EnergyReport",
    "EnergyBreakdown",
    "energy_of_run",
    "paper_power_breakdown_mw",
    "AreaBreakdown",
    "area_of",
    "paper_area_breakdown_mm2",
]
