"""repro — a full reproduction of DPU-v2 (MICRO 2022).

DPU-v2 is a processor template for energy-efficient execution of
irregular directed acyclic graphs (probabilistic circuits, sparse
triangular solves), co-designed with a DAG-specific compiler.  This
package implements the whole system in Python:

* :mod:`repro.graphs`    — the DAG substrate;
* :mod:`repro.workloads` — PC and SpTRSV workload generators;
* :mod:`repro.arch`      — the architecture template (ISA, register
  file with automatic write addressing, interconnects, encoding);
* :mod:`repro.compiler`  — the four-step targeted compiler (§IV);
* :mod:`repro.sim`       — golden model, the two-phase execution
  engine (verified plan lowering + vectorized batch simulator) plus
  the scalar reference simulator, energy/area models calibrated to
  the paper's Table II;
* :mod:`repro.baselines` — analytic CPU/GPU/DPU-v1/SPU models;
* :mod:`repro.dse`       — the 48-point design-space exploration;
* :mod:`repro.experiments` — one driver per table/figure;
* :mod:`repro.runner`    — fan-out on a durable work queue with a
  content-addressed artifact cache (``repro sweep/all --jobs N``);
* :mod:`repro.verify`    — differential verification: synthetic
  scenario generators (:mod:`repro.workloads.synth`) fuzzed through a
  registry of executor cross-checks (``repro fuzz --budget N``).

Quick start::

    from repro import ArchConfig, compile_dag, run_program
    from repro.workloads import build_workload

    dag = build_workload("tretail")
    result = compile_dag(dag, ArchConfig(depth=3, banks=64,
                                         regs_per_bank=32))
    inputs = [0.5] * dag.num_inputs
    sim = run_program(result.program, inputs)

Batched serving (plan once, sweep many input rows)::

    import numpy as np
    from repro import run_batch

    plan = result.plan()            # verified lowering, runs once
    matrix = np.random.uniform(0.9, 1.1, (256, dag.num_inputs))
    batch = run_batch(plan, matrix)  # vectorized over all 256 rows
"""

from .arch import (
    ArchConfig,
    Interconnect,
    LARGE_CORE_CONFIG,
    MIN_EDP_CONFIG,
    MIN_ENERGY_CONFIG,
    MIN_LATENCY_CONFIG,
    Program,
    Topology,
    dse_grid,
)
from .compiler import CompileResult, CompileStats, compile_dag
from .errors import (
    CompileError,
    ConfigError,
    EncodingError,
    GraphError,
    MappingError,
    ReproError,
    ScheduleError,
    SimulationError,
    SpillError,
    WorkloadError,
)
from .graphs import DAG, DAGBuilder, OpType, binarize
from .sim import (
    BatchSimulator,
    ExecutionPlan,
    Simulator,
    evaluate_dag,
    lower_program,
    run_batch,
    run_program,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ArchConfig",
    "Topology",
    "Interconnect",
    "Program",
    "dse_grid",
    "MIN_EDP_CONFIG",
    "MIN_ENERGY_CONFIG",
    "MIN_LATENCY_CONFIG",
    "LARGE_CORE_CONFIG",
    "DAG",
    "DAGBuilder",
    "OpType",
    "binarize",
    "compile_dag",
    "CompileResult",
    "CompileStats",
    "Simulator",
    "run_program",
    "ExecutionPlan",
    "lower_program",
    "BatchSimulator",
    "run_batch",
    "evaluate_dag",
    "ReproError",
    "GraphError",
    "ConfigError",
    "CompileError",
    "MappingError",
    "ScheduleError",
    "SpillError",
    "EncodingError",
    "SimulationError",
    "WorkloadError",
]
