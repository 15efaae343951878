"""Benchmark entry point: one workload, one fresh process, one result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload compile_cold --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
same workload with the benchmark's own spans on and prints every
per-layer metric.  Each run checks its outputs and prints, as the last
line of standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it is the
run record: host fingerprint, CPU probe and sample counts.  The
program under test is imported from ``src/`` of the same checkout; a
directory without it is refused with a non-zero exit.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import harness  # noqa: E402 - needs HERE on the path; imports no repro

WORKLOADS = ("compile_cold", "batch_sweep", "serve_mix")

#: (name, unit) of every end-to-end metric, printed with --trace 0.
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "ratio"),
    ("sim.cycles", "cycles"),
    ("sim.energy_nj", "nJ"),
    ("sim.instructions", "count"),
)

_SWEEPS = ("tretail", "bp_200", "deep2000", "near_chain2000",
           "synth_xl_layered_50k")

#: (name, unit) of every per-layer metric, printed with --trace 1.  A
#: workload that does not run a layer reports 0 for it.
PER_LAYER = (
    ("host.probe_ms", "ms"),
    ("trace.overhead_share", "ratio"),
    ("trace.op_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("compiler.compile_ms", "ms"),
    *((f"compiler.pass.{p}_ms", "ms") for p in harness.PASSES),
    ("compiler.other_ms", "ms"),
    ("compiler.synth_xl_ms", "ms"),
    ("sim.plan.lower_ms", "ms"),
    ("sim.fused.fuse_ms", "ms"),
    ("compiler.bank_conflicts", "count"),
    ("compiler.spills", "count"),
    ("compiler.nops", "count"),
    ("fused.levels", "count"),
    ("fused.cells", "count"),
    *((f"sweep.{s}.rows_per_s", "1/s") for s in _SWEEPS),
    *((f"sweep.{s}.state_mb", "MB") for s in _SWEEPS),
    *((f"sweep.{s}.fused", "flag") for s in _SWEEPS),
    ("sim.batch.construct_ms", "ms"),
    ("sim.batch.sweep_ms", "ms"),
    ("serve.dispatch_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("serve.service_ms", "ms"),
    ("serve.exec_ms", "ms"),
    ("serve.mean_batch", "rows"),
    ("serve.mean_batch_closed", "rows"),
    ("serve.register_ms", "ms"),
    ("serve.rejected", "count"),
    ("serve.timeouts", "count"),
    ("serve.late_ms", "ms"),
)


def _pin_environment(workdir: Path) -> None:
    """Fresh, explicit state: nothing is inherited from the caller."""
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "cache")
    os.environ["REPRO_JOBS"] = str(len(os.sched_getaffinity(0)))


def _import_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro
    from repro.obs import trace

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}")
    # The program's own tracing stays off in timed and traced runs.
    trace.disable()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    _pin_environment(workdir)
    _import_program()
    module = importlib.import_module(args.workload)
    fingerprint = harness.host_fingerprint()
    probe_start = harness.probe_ms()
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        outcome = module.run(
            args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    probe_end = harness.probe_ms()

    p50, tail_ms, percentile, samples = harness.latency_summary(
        outcome.latency_phases_ms
    )
    if args.trace:
        values = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
        values.update(outcome.layers)
        values["host.probe_ms"] = harness.median(probe_start + probe_end)
        units = PER_LAYER
    else:
        values = {
            "setup_s": outcome.setup_s,
            "throughput_per_s": outcome.throughput_per_s,
            "p50_ms": p50,
            "tail_ms": tail_ms,
            "peak_rss_mb": harness.peak_rss_mb(),
            "ok_share": 1.0 - outcome.failed / outcome.attempted,
            "sim.cycles": outcome.cycles,
            "sim.energy_nj": outcome.energy_nj,
            "sim.instructions": outcome.instructions,
        }
        units = END_TO_END
    unknown = set(values) - {name for name, _ in units}
    if unknown:
        raise RuntimeError(f"metrics missing from the list: {sorted(unknown)}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": fingerprint,
        "probe_ms": {"start": probe_start, "end": probe_end},
        "latency_phases": len(outcome.latency_phases_ms),
        "latency_samples": samples,
        "tail_percentile": percentile,
        **outcome.notes,
    }
    print(json.dumps({"record": record}))
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
