"""compile_cold: cold ``compile_dag`` -> ``.plan()`` -> ``fuse_plan``.

One op compiles one DAG at ``MIN_EDP_CONFIG`` (D3-B64-R32), lowers the
program to a verified execution plan and fuses it.  A pass runs the 12
Table-I ``pc``+``sptrsv`` DAGs at scale 0.05 and
``synth_xl_layered_50k`` at scale 0.5.  Every op compiles a fresh DAG
object unpickled from copies made in set-up, so per-DAG memos never
carry over from one op to the next.  Op times are quoted at the
reference host speed, from the probe taken between ops.
"""

from __future__ import annotations

import pickle
import random
import time

from harness import PASSES, HostSpeed, Outcome, Tracer, median, settle
from programs import Counts, golden_check

from repro import MIN_EDP_CONFIG, ReproError, compile_dag
from repro.sim import fuse_plan
from repro.workloads import build_workload, workload_names

SYNTH_XL = "synth_xl_layered_50k"
SETUP_REPEATS = 3
#: Whole passes always complete, so a run may measure longer than
#: ``--seconds``.
MIN_PASSES = 2


def _suite() -> list[tuple[str, float]]:
    return [(name, 0.05) for name in workload_names(("pc", "sptrsv"))] + [
        (SYNTH_XL, 0.5)
    ]


def _setup() -> list[bytes]:
    """Build every DAG and keep a pickled copy to thaw per op."""
    blobs = [
        pickle.dumps(build_workload(name, scale=scale), protocol=5)
        for name, scale in _suite()
    ]
    # The process's first compile pays one-off lazy initialisation; a
    # user pays it once per process, so it belongs to set-up.
    compile_dag(pickle.loads(blobs[0]), MIN_EDP_CONFIG).plan()
    return blobs


def _op(dag, tracer: Tracer):
    """One timed op; returns (seconds, compile result, plan, fused)."""
    op = tracer.begin("op")
    t0 = time.perf_counter()
    result = compile_dag(dag, MIN_EDP_CONFIG, validate_input=True)
    t1 = time.perf_counter()
    plan = result.plan()
    t2 = time.perf_counter()
    fused = fuse_plan(plan)
    t3 = time.perf_counter()
    tracer.end(op, t3)
    if tracer.enabled:
        compile_span = tracer.record("compiler.compile", t0, t1, op)
        # compile_dag times its passes itself; lay them end to end
        # inside the compile span so self time = compile - passes.
        at = t0
        for name in PASSES:
            seconds = result.stats.step_seconds.get(name, 0.0)
            tracer.record(f"compiler.pass.{name}", at, at + seconds,
                          compile_span)
            at += seconds
        tracer.record("sim.plan.lower", t1, t2, op)
        tracer.record("sim.fused.fuse", t2, t3, op)
    return t3 - t0, result, plan, fused


def run(seed: int, seconds: float, traced: bool, workdir) -> Outcome:
    setups = []
    for _ in range(SETUP_REPEATS):
        blobs = None
        settle()
        t0 = time.perf_counter()
        blobs = _setup()
        setups.append(time.perf_counter() - t0)

    suite = _suite()
    nodes = [pickle.loads(blob).num_nodes for blob in blobs]
    op_times: list[list[float]] = [[] for _ in suite]
    traced_times: list[list[float]] = [[] for _ in suite]
    lengths: list[set[int]] = [set() for _ in suite]
    latest: list = [None] * len(suite)
    tracer = Tracer(traced)
    off = Tracer(False)
    attempted = failed = 0
    speed = HostSpeed()
    start = time.perf_counter()
    passes = 0
    pass_walls = []
    pass_times = []
    while True:
        pass_start = time.perf_counter()
        pass_times.append(0.0)
        for i, blob in enumerate(blobs):
            # The traced run traces every other op, swapping halves each
            # pass, so overhead is measured against interleaved ops.
            on = traced and (i + passes) % 2 == 1
            latest[i] = None
            dag = pickle.loads(blob)
            settle()
            attempted += 1
            try:
                secs, result, plan, fused = _op(dag, tracer if on else off)
            except ReproError:
                secs = None
            factor = speed.scale()
            if secs is None:
                failed += 1
                continue
            (traced_times if on else op_times)[i].append(secs * factor)
            pass_times[-1] += secs * factor
            lengths[i].add(len(result.program.instructions))
            latest[i] = (dag, result, plan, fused)
        passes += 1
        now = time.perf_counter()
        pass_walls.append(now - pass_start)
        if passes >= MIN_PASSES and (
            now - start + 0.5 * (now - pass_start) > seconds
        ):
            break

    # ---- correctness, outside the timed region ----------------------
    rng = random.Random(seed)
    counts = Counts()
    for i, entry in enumerate(latest):
        if entry is None:
            continue
        dag, result, plan, fused = entry
        inputs = [rng.uniform(0.9, 1.1) for _ in range(dag.num_inputs)]
        # A program whose length changed between passes is also wrong:
        # cold compiles of one DAG must be deterministic.
        if not golden_check(dag, result, inputs) or len(lengths[i]) != 1:
            failed += 1
        counts.add(result, plan, fused)

    # A DAG that never compiled has no time; it is already a failure.
    medians = [median(t) if t else 0.0 for t in op_times]
    throughput = sum(n for n, t in zip(nodes, op_times) if t) / sum(medians)
    layers = dict(counts.layers)
    layers["compiler.synth_xl_ms"] = medians[-1] * 1e3
    if traced:
        selfs, wall, ops = tracer.self_times()
        per_op = 1e3 / ops
        for name in PASSES:
            layers[f"compiler.pass.{name}_ms"] = (
                selfs[f"compiler.pass.{name}"] * per_op
            )
        layers["compiler.other_ms"] = selfs["compiler.compile"] * per_op
        layers["compiler.compile_ms"] = per_op * sum(
            selfs[k] for k in selfs
            if k == "compiler.compile" or k.startswith("compiler.pass.")
        )
        layers["sim.plan.lower_ms"] = selfs["sim.plan.lower"] * per_op
        layers["sim.fused.fuse_ms"] = selfs["sim.fused.fuse"] * per_op
        layers["unattributed_ms"] = selfs["op"] * per_op
        layers["trace.op_ms"] = wall * per_op
        plain = sum(median(t) for t in op_times)
        with_trace = sum(median(t) for t in traced_times)
        layers["trace.overhead_share"] = with_trace / plain - 1.0
    return Outcome(
        attempted=attempted,
        failed=failed,
        setup_s=median(setups),
        throughput_per_s=throughput,
        # One latency per pass: the time to compile the whole suite.
        # Over single ops, the median would jump between DAGs of
        # similar op time, and one DAG's few ops swing by 10-20%.
        latency_phases_ms=[[t * 1e3 for t in pass_times]],
        cycles=counts.cycles,
        energy_nj=counts.energy_nj,
        instructions=counts.instructions,
        layers=layers,
        notes={"pass_walls_s": pass_walls, "nodes": sum(nodes),
               **speed.notes()},
    )
