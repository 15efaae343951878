"""Bench: DSE sweep — cold-serial vs parallel vs warm-cache.

Runs a reduced DSE grid three ways through the ``repro.runner``
orchestrator and records wall time:

* **cold serial**  — empty cache, ``jobs=1`` (the pre-orchestrator
  baseline path);
* **cold parallel** — empty cache, ``jobs=N``;
* **warm serial**  — same grid again with the artifact cache
  populated (every compile is a content-addressed hit).

The acceptance bar is warm >= 5x cold; the assertion below enforces
it wherever this bench runs.

Run: ``PYTHONPATH=src python benchmarks/bench_sweep.py`` (writes
``results/bench_sweep.txt``).
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time

from repro.arch import ArchConfig
from repro.dse import run_sweep
from repro.runner.cache import configure_cache
from repro.workloads import build_workload

REDUCED_GRID = [
    ArchConfig(depth=depth, banks=banks, regs_per_bank=regs)
    for depth in (2, 3)
    for banks in (16, 32, 64)
    for regs in (32, 64)
]
WORKLOADS = ("tretail", "bp_200")
SCALE = 0.1
JOBS = min(4, os.cpu_count() or 1)


def _timed_sweep(workloads, jobs: int):
    t0 = time.perf_counter()
    result = run_sweep(workloads, configs=REDUCED_GRID, jobs=jobs)
    return result, time.perf_counter() - t0


def run_bench() -> str:
    workloads = {
        name: build_workload(name, scale=SCALE) for name in WORKLOADS
    }
    dir_a = tempfile.mkdtemp(prefix="bench-sweep-cache-a-")
    dir_b = tempfile.mkdtemp(prefix="bench-sweep-cache-b-")
    try:
        # Both cold legs populate a fresh cache, so serial vs parallel
        # is apples to apples; the warm leg re-reads dir_a.
        configure_cache(dir_a)
        cold_serial, t_cold = _timed_sweep(workloads, jobs=1)

        configure_cache(dir_b)
        cold_parallel, t_par = _timed_sweep(workloads, jobs=JOBS)

        configure_cache(dir_a)
        warm_serial, t_warm = _timed_sweep(workloads, jobs=1)
    finally:
        shutil.rmtree(dir_a, ignore_errors=True)
        shutil.rmtree(dir_b, ignore_errors=True)

    for a, b, c in zip(
        cold_serial.points, cold_parallel.points, warm_serial.points
    ):
        assert a.latency_per_op_ns == b.latency_per_op_ns == c.latency_per_op_ns
        assert a.energy_per_op_pj == b.energy_per_op_pj == c.energy_per_op_pj

    from repro.analysis import format_table

    rows = [
        ("cold serial (jobs=1)", f"{t_cold:.2f}", "1.0x"),
        (
            f"cold parallel (jobs={JOBS})",
            f"{t_par:.2f}",
            f"{t_cold / t_par:.1f}x",
        ),
        ("warm cache (jobs=1)", f"{t_warm:.2f}", f"{t_cold / t_warm:.1f}x"),
    ]
    table = format_table(
        ["mode", "seconds", "speedup"],
        rows,
        title=(
            f"DSE sweep orchestration — {len(REDUCED_GRID)} configs x "
            f"{len(WORKLOADS)} workloads @ scale {SCALE} "
            "(identical DsePoint metrics in all three modes)"
        ),
    )
    assert t_cold / t_warm >= 5.0, (
        f"warm-cache sweep only {t_cold / t_warm:.1f}x faster than cold "
        "(acceptance bar: >= 5x)"
    )
    return table


if __name__ == "__main__":
    import pathlib
    import sys

    table = run_bench()
    results = pathlib.Path(__file__).resolve().parent.parent / "results"
    results.mkdir(exist_ok=True)
    (results / "bench_sweep.txt").write_text(table + "\n")
    print(table)
    sys.exit(0)
