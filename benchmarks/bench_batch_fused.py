"""Bench: fused execution plans vs the step interpreter (and PR-1).

Measures host rows/s of three execution paths on the canonical
workloads at batch 256:

* **pr1** — a faithful replica of the original PR-1 step interpreter
  (uncoalesced move tape, no ``out=`` reuse, fresh zeroed state) run
  on an uncoalesced lowering: the historical baseline the tentpole's
  acceptance bar is measured against;
* **step** — today's step interpreter (coalesced moves, slice fast
  paths, ``out=`` compute);
* **fused** — level-grouped super-op kernels with bound sweeps over a
  liveness-compacted state.

Each record also carries the per-row state of each layout in bytes
at the bench's batch width: the step engine's machine image, the
uncompacted fused layout (used base cells plus one cell per op) and
the compacted fused layout the engine runs.

Every engine's outputs are checked bitwise against the step
interpreter before timing — a perf number for a wrong answer is
worthless.

Acceptance bars:

* full profile: fused >= ``--min-speedup`` (default 10x) the PR-1
  interpreter's rows/s on the deep-tape gate workloads (deep2000,
  near_chain2000), where per-step dispatch overhead dominates —
  the regime the fused lowering exists to eliminate;
* smoke profile (CI): fused >= ``--smoke-speedup`` (default 4x) the
  *current* step interpreter on the deep gate workloads — a much
  tighter baseline than PR-1, sized for noisy shared runners.

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
from repro.sim.plan import ComputeStep, MoveStep, lower_program  # noqa: E402
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


def pr1_run(plan, matrix: np.ndarray) -> np.ndarray:
    """The original PR-1 batch loop, verbatim semantics: per-step
    fancy-indexed assignment, no ``out=``, fresh zeroed state.  Run on
    an *uncoalesced* lowering so the tape shape matches history too."""
    state = np.zeros((plan.state_size, matrix.shape[0]))
    with np.errstate(over="ignore", invalid="ignore"):
        state[plan.input_cells] = matrix[:, plan.input_slots].T
        for step in plan.steps:
            if type(step) is MoveStep:
                state[step.dst] = state[step.src]
            else:
                if step.mov_out.size:
                    state[step.mov_out] = state[step.mov_src]
                if step.add_out.size:
                    state[step.add_out] = state[step.add_a] + state[step.add_b]
                if step.mul_out.size:
                    state[step.mul_out] = state[step.mul_a] * state[step.mul_b]
    return state[plan.output_cells]


def _best_of(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _check_parity(engines: dict[str, BatchSimulator], matrix) -> None:
    base = engines["step"].run(matrix)
    for name, sim in engines.items():
        if name == "step":
            continue
        got = sim.run(matrix)
        assert sorted(got.outputs) == sorted(base.outputs), name
        for var in base.outputs:
            a = got.outputs[var].view(np.uint64)
            b = base.outputs[var].view(np.uint64)
            if not np.array_equal(a, b):
                raise SystemExit(
                    f"parity failure: engine {name}, workload var {var} "
                    "diverges from the step interpreter"
                )
        assert got.counters == base.counters, name


def bench_workload(label, build, args) -> dict:
    dag = build(args.scale)
    result = compile_dag(dag, MIN_EDP_CONFIG, validate_input=False)
    plan = result.plan()
    raw_plan = lower_program(result.program, coalesce=False)
    rng = np.random.default_rng(args.seed)
    matrix = rng.uniform(0.9, 1.1, size=(args.batch, dag.num_inputs))

    engines = {
        name: BatchSimulator(plan, engine=name) for name in ("step", "fused")
    }
    fused = engines["fused"]._fused
    _check_parity(engines, matrix)
    pr1_out = pr1_run(raw_plan, matrix)
    step_out = engines["step"].run(matrix)
    for var, col in zip(raw_plan.output_vars, pr1_out):
        a = np.ascontiguousarray(col).view(np.uint64)
        b = step_out.outputs[int(var)].view(np.uint64)
        if not np.array_equal(a, b):
            raise SystemExit(
                f"parity failure: PR-1 replica diverges on {label}"
            )

    record: dict = {
        "workload": label,
        "nodes": dag.num_nodes,
        "batch": args.batch,
        "cycles_per_row": plan.cycles_per_row,
        "tape_steps": len(plan.steps),
        "fused_levels": sum(len(lv.kernels) for lv in fused.levels),
        # Per-batch state buffers, f64 cells x batch rows.
        "step_state_bytes": plan.state_size * args.batch * 8,
        "uncompacted_fused_state_bytes": (
            fused.base_cells.size + fused.num_ops
        ) * args.batch * 8,
        "fused_state_bytes": fused.state_size * args.batch * 8,
    }
    timings = {"pr1": _best_of(lambda: pr1_run(raw_plan, matrix), args.reps)}
    for name, sim in engines.items():
        timings[name] = _best_of(lambda s=sim: s.run(matrix), args.reps)
    for name, seconds in timings.items():
        record[f"{name}_rows_per_s"] = round(args.batch / seconds, 1)
    record["fused_vs_pr1"] = round(timings["pr1"] / timings["fused"], 2)
    record["fused_vs_step"] = round(timings["step"] / timings["fused"], 2)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--batch", type=int, default=256)
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--reps", type=int, default=12,
        help="best-of-N timing repetitions per engine",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=10.0,
        help="full profile: fused-vs-PR-1 bar on the gate workloads",
    )
    parser.add_argument(
        "--smoke-speedup", type=float, default=4.0,
        help="smoke profile: fused-vs-step bar on the gate workloads",
    )
    parser.add_argument(
        "--profile", choices=("full", "smoke"), default="full",
        help="smoke gates fused-vs-step only and trims repetitions",
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
        f"{'workload':20s} {'nodes':>6s} {'pr1':>10s} {'step':>10s} "
        f"{'fused':>10s} {'vs pr1':>7s} {'vs step':>8s} "
        f"{'state MB step/uncompacted/fused':>32s}"
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
                "step_state_bytes",
                "uncompacted_fused_state_bytes",
                "fused_state_bytes",
            )
        )
        lines.append(
            f"{r['workload']:20s} {r['nodes']:6d} "
            f"{r['pr1_rows_per_s']:10,.0f} {r['step_rows_per_s']:10,.0f} "
            f"{r['fused_rows_per_s']:10,.0f} "
            f"{r['fused_vs_pr1']:6.1f}x {r['fused_vs_step']:7.1f}x "
            f"{mb:>32s}"
            + ("  <- gate" if r["workload"] in gated else "")
        )

    failures = []
    for r in records:
        if r["workload"] not in gated:
            continue
        if args.profile == "full" and r["fused_vs_pr1"] < args.min_speedup:
            failures.append(
                f"{r['workload']}: fused {r['fused_vs_pr1']:.1f}x PR-1, "
                f"bar {args.min_speedup:g}x"
            )
        if r["fused_vs_step"] < args.smoke_speedup:
            failures.append(
                f"{r['workload']}: fused {r['fused_vs_step']:.1f}x step, "
                f"bar {args.smoke_speedup:g}x"
            )
    bar = (
        f">= {args.min_speedup:g}x vs PR-1 and "
        f">= {args.smoke_speedup:g}x vs step"
        if args.profile == "full"
        else f">= {args.smoke_speedup:g}x vs step"
    )
    lines += ["", f"gate ({', '.join(sorted(gated))}): {bar} — "
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
