"""Shared plumbing for the per-figure experiment drivers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..arch import ArchConfig, Interconnect, Topology
from ..compiler import CompileResult
from ..graphs import DAG
from ..runner.cache import cached_compile, cached_fused_plan
from ..sim.activity import count_activity
from ..sim.batch import BatchResult, BatchSimulator
from ..sim.energy import EnergyReport, energy_of_run
from ..sim.functional import ActivityCounters
from ..sim.performance import PerfReport, perf_report


@dataclass(frozen=True)
class Measurement:
    """Everything the evaluation needs from one (workload, config) run."""

    compile_result: CompileResult
    counters: ActivityCounters
    perf: PerfReport
    energy: EnergyReport
    batch_result: BatchResult | None = None

    @property
    def throughput_gops(self) -> float:
        return self.perf.throughput_gops

    @property
    def host_rows_per_second(self) -> float:
        """Batched-engine sweep rate (0.0 when measured statically)."""
        if self.batch_result is None:
            return 0.0
        return self.batch_result.host_rows_per_second


def measure(
    dag: DAG,
    config: ArchConfig,
    topology: Topology = Topology.OUTPUT_PER_LAYER,
    seed: int = 0,
    batch: int = 0,
) -> Measurement:
    """Compile a workload and derive perf/energy from static activity.

    Static activity is exact for this architecture (execution is fully
    data-independent), so the per-inference perf/energy numbers never
    require value-level simulation.  With ``batch > 0`` the compiled
    program's :class:`~repro.sim.fused.FusedPlan` (lowered, verified
    and fused, or loaded from the artifact cache) executes a ``(batch,
    inputs)`` random matrix on the batch engine, attaching
    the :class:`~repro.sim.batch.BatchResult` — this is how the
    throughput experiments actually exercise the production path.  The
    matrix runs twice and the second, steady run is reported: the
    first binds the batch width's state and sweep, one-time set-up
    that is not part of the sweep rate.
    """
    result = cached_compile(
        dag, config, topology=topology, seed=seed, validate_input=False
    )
    interconnect = Interconnect(result.program.config, topology)
    counters = count_activity(result.program, interconnect)
    ops = result.stats.num_operations
    perf = perf_report(dag.name, result.program.config, ops, counters.cycles)
    energy = energy_of_run(
        result.program.config, counters, ops, interconnect
    )
    batch_result = None
    if batch > 0:
        rng = np.random.default_rng(seed)
        matrix = rng.uniform(0.9, 1.1, size=(batch, dag.num_inputs))
        sim = BatchSimulator(cached_fused_plan(result, interconnect))
        sim.run(matrix)
        batch_result = sim.run(matrix)
    return Measurement(
        compile_result=result,
        counters=counters,
        perf=perf,
        energy=energy,
        batch_result=batch_result,
    )
