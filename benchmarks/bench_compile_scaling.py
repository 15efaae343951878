"""Cold-compile scaling benchmark (Table-I suite + large synth DAGs).

Measures wall-clock of ``compile_dag`` with the cache out of the
picture (cold compile is what dominates sweeps, ``repro fuzz``
campaigns and any new-DAG workflow), per pass and end to end, plus
the cold ``result.plan()`` lowering after each monolithic compile
(timed separately, recorded as ``lower``), across:

* the Table-I ``pc`` + ``sptrsv`` workloads at the default test scale;
* the ``synth_xl`` group (50k-200k node synthetic DAGs).

Results go three places:

* a text report (``results/bench_compile_scaling.txt``) with each
  record's seconds, its ``decompose``, ``map`` and ``spill`` pass
  times and its ``lower`` time,
* the machine-readable perf trajectory ``BENCH_compile.json``
  (appended per run, see ``tools/bench_to_json.py``),
* optionally a baseline file for later comparison
  (``--save-baseline``), which ``--baseline`` consumes to print
  per-workload and aggregate speedups.

The CI perf-smoke job runs ``--profile smoke --check-envelope
benchmarks/ref_compile_envelope.json`` and fails when the cold
compile total regresses more than ``--max-regression`` (default 2x)
against the checked-in reference envelope.

Run from the repo root::

    PYTHONPATH=src:tools python benchmarks/bench_compile_scaling.py \
        --profile suite
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
for entry in (os.path.join(_ROOT, "src"), os.path.join(_ROOT, "tools")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from bench_to_json import append_run, latest_records  # noqa: E402

from repro.arch import MIN_EDP_CONFIG  # noqa: E402
from repro.compiler import compile_dag  # noqa: E402
from repro.workloads import DEFAULT_SCALE, build_workload, workload_names  # noqa: E402

BENCH_NAME = "compile_scaling"


def _profile_workloads(profile: str) -> list[tuple[str, float]]:
    """(workload name, scale) pairs per profile."""
    suite = [(n, DEFAULT_SCALE) for n in workload_names(("pc", "sptrsv"))]
    xl = [(n, 1.0) for n in workload_names(("synth_xl",))]
    if profile == "smoke":
        # Small, CI-friendly fixture: two Table-I shapes plus one
        # mid-size synth DAG.
        return [
            ("tretail", DEFAULT_SCALE),
            ("dw2048", DEFAULT_SCALE),
            ("synth_xl_layered_50k", 0.2),  # ~10k nodes
        ]
    if profile == "suite":
        return suite
    if profile == "xl":
        return xl
    if profile == "full":
        return suite + xl
    raise SystemExit(f"unknown profile {profile!r}")


def _time_compile(make_dag, repeat: int) -> tuple[float, object]:
    """Min-of-``repeat`` cold compile time, with that compile's result
    (so a record's per-pass times come from its timed compile).

    The DAG is rebuilt for every iteration (outside the timed
    region): the compiler memoizes per-DAG-object derived data (CSR
    adjacency, topo order, DagArrays), so re-compiling the same
    object would measure a warm compile and hide regressions in
    exactly the array-build paths this benchmark guards.
    """
    best = None
    for _ in range(repeat):
        dag = make_dag()
        t0 = time.perf_counter()
        result = compile_dag(dag, MIN_EDP_CONFIG, validate_input=False)
        dt = time.perf_counter() - t0
        if best is None or dt < best[0]:
            best = (dt, result)
    return best


def _time_lower(result) -> float:
    """Cold ``result.plan()`` time (lowering is cached per result, so
    only the first call per compile lowers)."""
    t0 = time.perf_counter()
    result.plan()
    return time.perf_counter() - t0


def _record(name, dag, seconds, result, lower) -> dict:
    return {
        "workload": name,
        "nodes": dag.num_nodes,
        "mode": "monolithic",
        "seconds": round(seconds, 4),
        "lower": round(lower, 4),
        "instructions": result.total_instructions,
        "passes": {
            k: round(v, 4) for k, v in result.stats.step_seconds.items()
        },
    }


def run_bench(args: argparse.Namespace) -> list[dict]:
    records: list[dict] = []
    for name, scale in _profile_workloads(args.profile):
        def make_dag(name=name, scale=scale):
            return build_workload(name, scale=scale)

        dag = make_dag()
        seconds, result = _time_compile(make_dag, args.repeat)
        lower = _time_lower(result)
        records.append(_record(name, dag, seconds, result, lower))
        print(
            f"  {name:<24} {dag.num_nodes:>8} nodes  "
            f"{seconds:8.3f}s  lower {lower:7.3f}s",
            flush=True,
        )
    return records


def workload_seconds(records: list[dict]) -> dict[str, float]:
    """Per-workload compile seconds.  Older trajectories also hold
    ``partitioned-jN`` records of the removed partition-parallel
    compiler; only ``monolithic`` records are compared."""
    return {
        rec["workload"]: rec["seconds"]
        for rec in records
        if rec["mode"] == "monolithic"
    }


def record_seconds(records: list[dict]) -> dict[str, float]:
    """Every measured (workload, mode) entry, keyed ``workload|mode``."""
    return {
        f"{rec['workload']}|{rec['mode']}": rec["seconds"]
        for rec in records
    }


def render_report(
    records: list[dict],
    args: argparse.Namespace,
    baseline: list[dict] | None,
) -> str:
    lines = [
        "cold compile scaling "
        f"(profile={args.profile}, repeat={args.repeat})",
        "",
        f"{'workload':<26}{'nodes':>9}  {'seconds':>9}"
        f"{'decompose':>10}{'map':>9}{'spill':>9}{'lower':>9}",
        "-" * 81,
    ]

    def cell(value, width=9):
        return f"{value:>{width}.3f}"

    for rec in records:
        passes = rec["passes"]
        lines.append(
            f"{rec['workload']:<26}{rec['nodes']:>9}  "
            f"{rec['seconds']:>9.3f}"
            + cell(passes.get("decompose", 0.0), 10)
            + cell(passes.get("map", 0.0))
            + cell(passes.get("spill", 0.0))
            + cell(rec["lower"])
        )
    cur = workload_seconds(records)
    decompose_total, map_total, spill_total = (
        sum(rec["passes"].get(name, 0.0) for rec in records)
        for name in ("decompose", "map", "spill")
    )
    lower_total = sum(rec["lower"] for rec in records)
    lines += [
        "-" * 81,
        f"{'total':<37}{sum(cur.values()):>9.3f}"
        + cell(decompose_total, 10)
        + "".join(cell(t) for t in (map_total, spill_total, lower_total)),
    ]
    if baseline:
        base = workload_seconds(baseline)
        shared = sorted(set(cur) & set(base))
        if shared:
            lines += ["", "speedup vs baseline (baseline_s / current_s):"]
            for name in shared:
                lines.append(
                    f"  {name:<26}{base[name]:>9.3f} /{cur[name]:>9.3f}"
                    f"  = {base[name] / cur[name]:6.2f}x"
                )
            bt = sum(base[n] for n in shared)
            ct = sum(cur[n] for n in shared)
            lines += [
                f"  {'TOTAL':<26}{bt:>9.3f} /{ct:>9.3f}"
                f"  = {bt / ct:6.2f}x",
            ]
    return "\n".join(lines) + "\n"


def check_envelope(
    records: list[dict], envelope_path: str, max_regression: float
) -> int:
    """CI gate: fail when the cold-compile total regresses too far.

    Gates on the sum over every ``workload|mode`` record shared with
    the reference, so single-workload jitter does not flake it.
    """
    with open(envelope_path, encoding="utf-8") as fh:
        envelope = json.load(fh)
    ref = envelope["record_seconds"]
    cur = record_seconds(records)
    shared = sorted(set(cur) & set(ref))
    if not shared:
        print("envelope check: no overlapping records", file=sys.stderr)
        return 2
    ref_total = sum(ref[n] for n in shared)
    cur_total = sum(cur[n] for n in shared)
    ratio = cur_total / ref_total
    print(
        f"envelope check: current {cur_total:.3f}s vs reference "
        f"{ref_total:.3f}s over {len(shared)} records "
        f"-> {ratio:.2f}x (limit {max_regression:.2f}x)"
    )
    if ratio > max_regression:
        print(
            "PERF REGRESSION: cold compile exceeded the reference "
            "envelope; investigate before merging (or re-baseline "
            "benchmarks/ref_compile_envelope.json with a justification).",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--profile", default="suite",
        choices=("smoke", "suite", "xl", "full"),
    )
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument(
        "--out", default=os.path.join(_ROOT, "results", "bench_compile_scaling.txt")
    )
    parser.add_argument(
        "--json", default=os.path.join(_ROOT, "BENCH_compile.json"),
        help="perf-trajectory file to append to ('' disables)",
    )
    parser.add_argument("--label", default=None)
    parser.add_argument(
        "--baseline", default=None,
        help="trajectory file to compute speedups against",
    )
    parser.add_argument(
        "--save-baseline", default=None,
        help="also append this run to the given baseline trajectory",
    )
    parser.add_argument("--check-envelope", default=None)
    parser.add_argument("--max-regression", type=float, default=2.0)
    args = parser.parse_args(argv)

    print(f"profile={args.profile} repeat={args.repeat}")
    records = run_bench(args)

    baseline = None
    if args.baseline:
        baseline = latest_records(args.baseline, bench=BENCH_NAME)
    report = render_report(records, args, baseline)
    print()
    print(report, end="")
    if args.out:
        os.makedirs(os.path.dirname(args.out), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report)
    extra = {"profile": args.profile}
    if args.json:
        append_run(
            args.json, BENCH_NAME, records, label=args.label, extra=extra
        )
    if args.save_baseline:
        append_run(
            args.save_baseline, BENCH_NAME, records,
            label=args.label or "baseline", extra=extra,
        )
    if args.check_envelope:
        return check_envelope(
            records, args.check_envelope, args.max_regression
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
