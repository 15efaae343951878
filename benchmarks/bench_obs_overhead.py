"""Bench: cost of the observability seams with tracing disabled.

The ``repro.obs`` instrumentation is compiled into every hot path —
the batch engine's sweep, the serve request lifecycle, the campaign
queue — and must be effectively free when tracing is off.  This bench
proves it by comparing three modes on the same work:

* **stripped** — every ``repro.obs.trace`` seam monkeypatched to a
  bare no-op (``is_on`` returns False without touching globals, span
  factories return the null span directly): the closest reachable
  stand-in for uninstrumented code;
* **disabled** — the shipping default: real seams, tracing off.  The
  gate: throughput within ``--tol`` percent (default 2) of stripped;
* **enabled** — full tracing with default sampling, reported but not
  gated (it quantifies what turning tracing on actually costs).

Two scenarios, matching the repo's standing perf gates:

1. **batch** — deep2000 (the bench_batch_fused gate workload) on the
   fused engine at batch 256, interleaved best-of-N sweeps;
2. **serve** — a closed-loop run through the real asyncio service on
   the fast synth_layered fixture, best-of-N rows/s.

Writes ``results/bench_obs_overhead.txt`` and appends the run to
``BENCH_batch.json`` (bench ``batch_fused``, records tagged
``measurement: obs_overhead_*``).

Usage::

    python benchmarks/bench_obs_overhead.py                  # full run
    python benchmarks/bench_obs_overhead.py --profile smoke  # CI-sized
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tools"))

from repro.arch import MIN_EDP_CONFIG  # noqa: E402
from repro.compiler import compile_dag  # noqa: E402
from repro.obs import trace  # noqa: E402
from repro.serve import (  # noqa: E402
    BatchPolicy,
    InferenceService,
    ProgramSpec,
    run_closed_loop,
)
from repro.sim import BatchSimulator  # noqa: E402
from repro.workloads.synth import generate_synth  # noqa: E402

MODES = ("stripped", "disabled", "enabled")

#: Seams patched out in stripped mode — every trace entry point the
#: hot paths call.  Metrics counters stay live in all modes: they are
#: unconditional by design, so their cost is part of every baseline.
_SEAMS = ("is_on", "should_sample", "span", "sampled_span", "begin")


@contextlib.contextmanager
def stripped_trace():
    """Replace the trace seams with bare no-ops, restore on exit."""
    null = trace._NULL_SPAN
    saved = {name: getattr(trace, name) for name in _SEAMS}
    trace.is_on = lambda: False
    trace.should_sample = lambda: False
    trace.span = lambda *a, **k: null
    trace.sampled_span = lambda *a, **k: null
    trace.begin = lambda *a, **k: null
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(trace, name, fn)


@contextlib.contextmanager
def mode_context(mode: str):
    """Enter one measurement mode; always leaves tracing disabled."""
    if mode == "stripped":
        with stripped_trace():
            yield
    elif mode == "enabled":
        trace.enable(process_token="bench")
        try:
            yield
        finally:
            trace.disable()
    else:
        yield


def bench_batch(args) -> dict[str, list[float]]:
    """Interleaved fused-sweep seconds per mode, one entry per rep."""
    dag = generate_synth("deep", args.nodes, seed=1)
    plan = compile_dag(dag, MIN_EDP_CONFIG, validate_input=False).plan()
    sim = BatchSimulator(plan)
    rng = np.random.default_rng(args.seed)
    matrix = rng.uniform(0.9, 1.1, size=(args.batch, dag.num_inputs))
    sim.run(matrix)  # warm the bound-sweep cache outside the timing

    times: dict[str, list[float]] = {mode: [] for mode in MODES}
    # Interleave modes within each repetition: the overhead gate is
    # computed from per-rep paired ratios, so clock drift and CPU
    # frequency excursions cancel instead of biasing one mode.
    for _ in range(args.reps):
        for mode in MODES:
            with mode_context(mode):
                t0 = time.perf_counter()
                sim.run(matrix)
                times[mode].append(time.perf_counter() - t0)
    return times


def bench_serve(args) -> dict[str, list[float]]:
    """Interleaved closed-loop wall seconds through the real service."""

    async def one_run() -> float:
        service = InferenceService(
            policy=BatchPolicy(
                max_batch=32,
                max_wait_s=1e-3,
                max_queue=args.serve_requests + 1,
            )
        )
        service.register(ProgramSpec(
            name="synth_layered", config_label="D2-B8-R16", scale=0.01,
        ))
        async with service:
            report = await run_closed_loop(
                service, "synth_layered",
                requests=args.serve_requests, concurrency=32,
            )
        return args.serve_requests / report.rows_per_second

    asyncio.run(one_run())  # warm compile caches and the event loop
    times: dict[str, list[float]] = {mode: [] for mode in MODES}
    for _ in range(args.serve_reps):
        for mode in MODES:
            with mode_context(mode):
                times[mode].append(asyncio.run(one_run()))
    return times


def paired_overhead_pct(
    times: dict[str, list[float]], mode: str
) -> float:
    """Median of per-rep ``mode``/stripped time ratios, as percent.

    Pairing each rep's measurements before aggregating makes the gate
    robust to the noise epochs of shared runners, where a best-of or
    mean comparison can swing several percent either way.
    """
    ratios = sorted(
        t / s for t, s in zip(times[mode], times["stripped"])
    )
    n = len(ratios)
    median = (
        ratios[n // 2]
        if n % 2
        else (ratios[n // 2 - 1] + ratios[n // 2]) / 2.0
    )
    return (median - 1.0) * 100.0


def median_rate(times: dict[str, list[float]], mode: str, rows: int) -> float:
    ordered = sorted(times[mode])
    n = len(ordered)
    med = (
        ordered[n // 2]
        if n % 2
        else (ordered[n // 2 - 1] + ordered[n // 2]) / 2.0
    )
    return rows / med


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--batch", type=int, default=256)
    parser.add_argument("--nodes", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--reps", type=int, default=30,
        help="best-of-N sweep repetitions per mode (batch scenario)",
    )
    parser.add_argument(
        "--serve-requests", type=int, default=256,
        help="closed-loop requests per serve measurement",
    )
    parser.add_argument(
        "--serve-reps", type=int, default=15,
        help="paired closed-loop reps per mode (serve scenario)",
    )
    parser.add_argument(
        "--tol", type=float, default=2.0,
        help="max disabled-vs-stripped throughput loss, percent",
    )
    parser.add_argument(
        "--profile", choices=("full", "smoke"), default="full",
        help="smoke trims repetitions for CI",
    )
    parser.add_argument(
        "--json", default=str(ROOT / "BENCH_batch.json"),
        help="trajectory file to append to ('' disables)",
    )
    parser.add_argument(
        "--out", default=str(ROOT / "results" / "bench_obs_overhead.txt"),
        help="text report destination ('' disables)",
    )
    parser.add_argument("--label", default=None)
    args = parser.parse_args(argv)
    if args.profile == "smoke":
        # Sweeps are ~1ms each, so smoke keeps the full rep count for
        # the batch scenario and trims only the serve loops.
        args.serve_reps = min(args.serve_reps, 9)
        args.serve_requests = min(args.serve_requests, 192)

    scenarios = {
        "batch": (bench_batch(args), args.batch),
        "serve": (bench_serve(args), args.serve_requests),
    }

    lines = [
        f"obs overhead bench: deep{args.nodes} fused batch {args.batch} "
        f"({args.reps} paired reps) + synth_layered closed loop "
        f"({args.serve_requests} requests, {args.serve_reps} paired reps)",
        "",
        f"{'scenario':8s} {'stripped':>12s} {'disabled':>12s} "
        f"{'enabled':>12s} {'disabled %':>11s} {'enabled %':>10s}",
    ]
    records, failures = [], []
    for name, (times, rows) in scenarios.items():
        disabled = paired_overhead_pct(times, "disabled")
        enabled = paired_overhead_pct(times, "enabled")
        rates = {m: median_rate(times, m, rows) for m in MODES}
        lines.append(
            f"{name:8s} {rates['stripped']:12,.0f} "
            f"{rates['disabled']:12,.0f} {rates['enabled']:12,.0f} "
            f"{disabled:10.2f}% {enabled:9.2f}%"
        )
        records.append({
            "measurement": f"obs_overhead_{name}",
            **{f"{m}_rows_per_s": round(r, 1) for m, r in rates.items()},
            "disabled_overhead_pct": round(disabled, 3),
            "enabled_overhead_pct": round(enabled, 3),
            "tol_pct": args.tol,
        })
        if disabled > args.tol:
            failures.append(
                f"{name}: disabled tracing costs {disabled:.2f}% "
                f"(bar {args.tol:g}%)"
            )

    lines += [
        "",
        f"gate: disabled-tracing overhead <= {args.tol:g}% of the "
        "stripped baseline (median of paired per-rep ratios) — "
        + ("FAILED" if failures else "passed"),
        "(rows/s at the median rep; 'enabled' is full tracing at "
        "default sampling, reported only)",
    ]
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
            label=args.label or f"bench-obs-overhead-{args.profile}",
        )
        print(f"\nappended {len(records)} records to {args.json}")

    if failures:
        print("\nFAILED: " + "; ".join(failures))
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
