"""Bench: scalar interpreter vs the two-phase batched engine.

Measures rows/sec for both execution paths on fig. 14 workloads and
records the speedup, so the batched engine's gain lands in the bench
trajectory.  The acceptance bar is >= 10x at batch 256; in practice
the vectorized sweep lands orders of magnitude above it.

Run: ``PYTHONPATH=src python benchmarks/bench_batch_throughput.py``
(writes ``results/bench_batch_throughput.txt``).
"""

import pathlib
import time

import numpy as np

from repro.arch import MIN_EDP_CONFIG
from repro.compiler import compile_dag
from repro.sim import BatchSimulator, run_program
from repro.workloads import build_workload

BATCH = 256
SCALAR_ROWS = 4  # scalar rows timed (each is ~interpreter-slow)
WORKLOADS = ("tretail", "bp_200")


def _format_rows(rows):
    from repro.analysis import format_table

    return format_table(
        ["workload", "batch", "scalar rows/s", "batched rows/s", "speedup"],
        rows,
        title=f"scalar vs batched engine @ batch {BATCH}",
    )


def _measure_workload(name: str):
    dag = build_workload(name, scale=0.05)
    result = compile_dag(dag, MIN_EDP_CONFIG, validate_input=False)
    plan = result.plan()
    rng = np.random.default_rng(0)
    matrix = rng.uniform(0.9, 1.1, size=(BATCH, dag.num_inputs))

    engine = BatchSimulator(plan)
    batch = engine.run(matrix)  # warm
    batch = engine.run(matrix)

    t0 = time.perf_counter()
    for row in range(SCALAR_ROWS):
        run_program(result.program, list(matrix[row]))
    scalar_seconds_per_row = (time.perf_counter() - t0) / SCALAR_ROWS

    scalar_rows_s = 1.0 / scalar_seconds_per_row
    batched_rows_s = batch.host_rows_per_second
    return (
        name,
        BATCH,
        round(scalar_rows_s, 1),
        round(batched_rows_s, 1),
        round(batched_rows_s / scalar_rows_s, 1),
    )


if __name__ == "__main__":
    rows = [_measure_workload(name) for name in WORKLOADS]
    table = _format_rows(rows)
    results = pathlib.Path(__file__).resolve().parent.parent / "results"
    results.mkdir(exist_ok=True)
    (results / "bench_batch_throughput.txt").write_text(table + "\n")
    print(table)
    for row in rows:
        assert row[-1] >= 10.0, f"{row[0]}: speedup {row[-1]}x < 10x"
