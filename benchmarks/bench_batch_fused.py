"""Bench: fused execution plans vs the oracle's plan interpreter.

Measures host rows/s of two execution paths on the canonical
workloads at batch 256:

* **pr1** — :func:`repro.verify.differential.interpret_plan`, the
  differential oracle's plan reference: the plan's step tape run as
  it stands (per-step fancy-indexed assignment, no ``out=`` reuse,
  fresh zeroed state).  On today's uncoalesced lowering this is the
  original PR-1 batch loop, the historical baseline the fused
  engine's acceptance bar is measured against;
* **fused** — the batch engine: the fused plan's level-major op
  table, its input loads included, swept by a bound kernel over a
  liveness-compacted state.

Each record also carries the per-row state of each layout in bytes
at the bench's batch width: the interpreter's machine image, the
uncompacted fused layout (pinned zero cells plus one cell per load
and per op) and
the compacted fused layout the engine runs.

The fused outputs and counters are checked bitwise against the
interpreter's before timing — a perf number for a wrong answer is
worthless.

Acceptance bars, on the deep-tape gate workloads (deep2000,
near_chain2000), where per-step dispatch overhead dominates — the
regime the fused lowering exists to eliminate:

* full profile: fused >= ``--min-speedup`` (default 10x) the
  interpreter's rows/s;
* smoke profile (CI): fused >= ``--smoke-speedup`` (default 4.4x),
  sized for noisy shared runners.  This gate used to read "fused >=
  4x the step engine", and the step engine ran at up to 1.07x the
  interpreter's rows/s (median of 7 alternating runs on the gate
  workloads), so 4.4x keeps the old bar's strength.

Wide/shallow workloads (tretail, bp_200) and the 50k-node
``synth_xl_layered_50k`` plan (always at scale 1.0) are reported but
not gated: wide sweeps are memory-bandwidth-bound, so the fused win
saturates near 4-6x regardless of dispatch cost.

Writes ``results/bench_batch_fused.txt`` and appends the
machine-readable run to ``BENCH_batch.json`` (schema repro-bench-v1).

Usage::

    python benchmarks/bench_batch_fused.py                  # full run
    python benchmarks/bench_batch_fused.py --profile smoke  # CI-sized
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tools"))

from repro.arch import MIN_EDP_CONFIG  # noqa: E402
from repro.compiler import compile_dag  # noqa: E402
from repro.sim import BatchSimulator  # noqa: E402
from repro.verify.differential import interpret_plan  # noqa: E402
from repro.workloads import build_workload  # noqa: E402
from repro.workloads.synth import generate_synth  # noqa: E402

#: (label, builder, gated) — gated workloads carry the acceptance bar.
WORKLOADS = (
    ("tretail", lambda s: build_workload("tretail", scale=s), False),
    ("bp_200", lambda s: build_workload("bp_200", scale=s), False),
    ("deep2000", lambda s: generate_synth("deep", 2000, seed=1), True),
    (
        "near_chain2000",
        lambda s: generate_synth("near_chain", 2000, seed=1),
        True,
    ),
    (
        "synth_xl_layered_50k",
        lambda s: build_workload("synth_xl_layered_50k", scale=1.0),
        False,
    ),
)


def _best_of(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _check_parity(fused: BatchSimulator, plan, matrix, label) -> None:
    got = fused.run(matrix)
    want = interpret_plan(plan, matrix)
    assert sorted(got.outputs) == sorted(want.outputs), label
    for var in want.outputs:
        a = got.outputs[var].view(np.uint64)
        b = want.outputs[var].view(np.uint64)
        if not np.array_equal(a, b):
            raise SystemExit(
                f"parity failure: {label} var {var} diverges from the "
                "plan interpreter"
            )
    assert got.counters == want.counters, label


def bench_workload(label, build, args) -> dict:
    dag = build(args.scale)
    result = compile_dag(dag, MIN_EDP_CONFIG, validate_input=False)
    plan = result.plan()
    rng = np.random.default_rng(args.seed)
    matrix = rng.uniform(0.9, 1.1, size=(args.batch, dag.num_inputs))

    sim = BatchSimulator(plan)
    fused = sim.plan
    _check_parity(sim, plan, matrix, label)

    record: dict = {
        "workload": label,
        "nodes": dag.num_nodes,
        "batch": args.batch,
        "cycles_per_row": plan.cycles_per_row,
        "tape_steps": len(plan.steps),
        "fused_levels": fused.num_levels,
        # Rows of the op table (loads, ops and folded op pairs) and
        # cells of the state the engine runs.
        "fused_rows": len(fused.ops),
        "fused_cells": fused.state_size,
        # Per-batch state buffers, f64 cells x batch rows; the
        # uncompacted layout is the pinned zero cells plus one cell per
        # row of the op table (its loads and its ops).
        "pr1_state_bytes": plan.state_size * args.batch * 8,
        "uncompacted_fused_state_bytes": (
            fused.zero_pos.size + len(fused.ops)
        ) * args.batch * 8,
        "fused_state_bytes": fused.state_size * args.batch * 8,
    }
    timings = {
        "pr1": _best_of(lambda: interpret_plan(plan, matrix), args.reps),
        "fused": _best_of(lambda: sim.run(matrix), args.reps),
    }
    for name, seconds in timings.items():
        record[f"{name}_rows_per_s"] = round(args.batch / seconds, 1)
    record["fused_vs_pr1"] = round(timings["pr1"] / timings["fused"], 2)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--batch", type=int, default=256)
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--reps", type=int, default=12,
        help="best-of-N timing repetitions per path",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=10.0,
        help="full profile: fused-vs-interpreter bar on the gate workloads",
    )
    parser.add_argument(
        "--smoke-speedup", type=float, default=4.4,
        help="smoke profile: fused-vs-interpreter bar on the gate workloads",
    )
    parser.add_argument(
        "--profile", choices=("full", "smoke"), default="full",
        help="smoke gates at --smoke-speedup and trims repetitions",
    )
    parser.add_argument(
        "--json", default=str(ROOT / "BENCH_batch.json"),
        help="trajectory file to append to ('' disables)",
    )
    parser.add_argument(
        "--out", default=str(ROOT / "results" / "bench_batch_fused.txt"),
        help="text report destination ('' disables)",
    )
    parser.add_argument("--label", default=None)
    args = parser.parse_args(argv)
    if args.profile == "smoke":
        args.reps = min(args.reps, 5)

    records = [
        bench_workload(label, build, args)
        for label, build, _ in WORKLOADS
    ]
    gated = {
        label for label, _, gate_flag in WORKLOADS if gate_flag
    }

    header = (
        f"{'workload':20s} {'nodes':>6s} {'pr1':>10s} "
        f"{'fused':>10s} {'vs pr1':>7s} "
        f"{'state MB pr1/uncompacted/fused':>32s}"
    )
    lines = [
        f"batch engine bench: batch {args.batch}, "
        f"config {MIN_EDP_CONFIG}, best of {args.reps} "
        f"(rows/s, host sweep)",
        "",
        header,
    ]
    for r in records:
        mb = "/".join(
            f"{r[k] / 1e6:.2f}"
            for k in (
                "pr1_state_bytes",
                "uncompacted_fused_state_bytes",
                "fused_state_bytes",
            )
        )
        lines.append(
            f"{r['workload']:20s} {r['nodes']:6d} "
            f"{r['pr1_rows_per_s']:10,.0f} "
            f"{r['fused_rows_per_s']:10,.0f} "
            f"{r['fused_vs_pr1']:6.1f}x "
            f"{mb:>32s}"
            + ("  <- gate" if r["workload"] in gated else "")
        )

    bar = args.min_speedup if args.profile == "full" else args.smoke_speedup
    failures = [
        f"{r['workload']}: fused {r['fused_vs_pr1']:.1f}x PR-1, bar {bar:g}x"
        for r in records
        if r["workload"] in gated and r["fused_vs_pr1"] < bar
    ]
    lines += ["", f"gate ({', '.join(sorted(gated))}): "
              f">= {bar:g}x vs PR-1 — "
              + ("FAILED" if failures else "passed")]
    text = "\n".join(lines)
    print(text)

    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text + "\n")
    if args.json:
        from bench_to_json import append_run

        append_run(
            args.json, "batch_fused", records,
            label=args.label or f"bench-batch-fused-{args.profile}",
        )
        print(f"\nappended {len(records)} records to {args.json}")

    if failures:
        print("\nFAILED: " + "; ".join(failures))
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
