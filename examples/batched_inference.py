#!/usr/bin/env python3
"""Batched inference through the two-phase execution engine.

The paper's serving scenario: one static program (the compiled DAG),
a stream of input vectors (new evidence per tick for a probabilistic
circuit, new right-hand sides for a triangular solve).  Instead of
interpreting the program per input, we lower it once to a verified
ExecutionPlan and sweep whole batches through the fused batch engine:
one level-major op table, run by a native C loop (or by numpy where no
C compiler works), over a state whose cells are reused by liveness.

Run:  python examples/batched_inference.py
"""

import time

import numpy as np

from repro import MIN_EDP_CONFIG, compile_dag, run_program
from repro.sim import BatchSimulator, batch_perf_report, energy_of_batch
from repro.workloads import build_workload

BATCH = 256


def main() -> None:
    dag = build_workload("tretail", scale=0.05)
    result = compile_dag(dag, MIN_EDP_CONFIG, validate_input=False)
    print(f"workload: {dag.name} ({dag.num_nodes} nodes) -> "
          f"{len(result.program.instructions)} instructions")

    # Phase 1 — lower once.  Hazards, interconnect legality and the
    # compiler's address predictions are all verified here, not per run.
    plan = result.plan()
    print(f"plan: {len(plan.steps)} steps, {plan.cycles_per_row} "
          f"cycles/row, {plan.state_size} state cells")

    # Phase 2 — sweep a whole batch at once.
    rng = np.random.default_rng(0)
    matrix = rng.uniform(0.9, 1.1, size=(BATCH, dag.num_inputs))
    batch = BatchSimulator(plan).run(matrix)
    print(f"batch {batch.batch}: {batch.host_seconds * 1e3:.1f}ms "
          f"({batch.host_rows_per_second:,.0f} rows/s simulated)")

    # Compare against the scalar reference on a few rows — outputs are
    # bitwise identical, the scalar path just re-verifies everything.
    t0 = time.perf_counter()
    for row in range(4):
        scalar = run_program(result.program, list(matrix[row]))
        for var, column in batch.outputs.items():
            assert column[row] == scalar.outputs[var]
    scalar_row_s = (time.perf_counter() - t0) / 4
    print(f"scalar reference: {scalar_row_s * 1e3:.1f}ms/row -> "
          f"batched speedup ~{scalar_row_s * BATCH / batch.host_seconds:,.0f}x")

    # Device-model metrics scale exactly with B (execution is static).
    ops = result.stats.num_operations
    perf = batch_perf_report(
        dag.name, plan.config, ops, plan.cycles_per_row, BATCH,
        host_seconds=batch.host_seconds,
    )
    energy = energy_of_batch(plan.config, plan.counters, ops, BATCH)
    print(f"device: {perf.throughput_gops:.2f} GOPS, "
          f"{perf.rows_per_second:,.0f} rows/s, "
          f"{energy.energy_per_op_pj:.1f} pJ/op")


if __name__ == "__main__":
    main()
