"""batch_sweep: steady batch-256 ``BatchSimulator(engine="auto").run``.

Five plans: the four ``BENCH_batch.json`` plans (``tretail`` and
``bp_200`` wide, ``deep2000`` and ``near_chain2000`` deep) and
``synth_xl_layered_50k`` at scale 1.0, whose fused state is over
``AUTO_FUSED_CELL_CAP`` so ``auto`` runs it on the step engine.
Compile, lowering and simulator construction happen in set-up; an op
is one 256-row sweep.  Rounds visit the plans in turn, each for about
the same time, so drift of the host's speed hits every plan alike, and
each round's sweep times are quoted at the reference host speed from
the probes taken around it.
"""

from __future__ import annotations

import math
import time

import numpy as np

from harness import HostSpeed, Outcome, Tracer, median, settle
from programs import CompileTimes, Counts, bits_equal

from repro import (
    MIN_EDP_CONFIG,
    BatchSimulator,
    binarize,
    compile_dag,
    evaluate_dag,
)
from repro.sim import fuse_plan
from repro.workloads import build_workload
from repro.workloads.synth import generate_synth

BATCH = 256
MATRICES = 4
CHECK_ROWS = 1
#: One set-up compiles a 50k-node DAG (10-15 s on a shared 2-CPU VM):
#: repeating it would cost more than the timed region.
SETUP_REPEATS = 1

PLANS = (
    ("tretail", lambda: build_workload("tretail", scale=0.05)),
    ("bp_200", lambda: build_workload("bp_200", scale=0.05)),
    ("deep2000", lambda: generate_synth("deep", 2000, seed=1)),
    ("near_chain2000", lambda: generate_synth("near_chain", 2000, seed=1)),
    ("synth_xl_layered_50k",
     lambda: build_workload("synth_xl_layered_50k", scale=1.0)),
)
#: Sweeps per plan per round: about 0.1 s of work each, fixed so every
#: run times the same mix of ops.
REPS = (40, 32, 12, 12, 1)


def _setup(rng_seed: int, compiles: CompileTimes) -> tuple[list, float]:
    """Compile, lower and construct every plan; build its inputs.

    Returns the plan entries and the seconds spent constructing
    simulators (fuse + bind), the ``sim.batch.construct`` layer.
    """
    rng = np.random.default_rng(rng_seed)
    entries = []
    construct = 0.0
    for name, build in PLANS:
        dag = build()
        t0 = time.perf_counter()
        result = compile_dag(dag, MIN_EDP_CONFIG)
        t1 = time.perf_counter()
        plan = result.plan()
        t2 = time.perf_counter()
        sim = BatchSimulator(plan, engine="auto")
        t3 = time.perf_counter()
        construct += t3 - t2
        compiles.add(result, t1 - t0, t2 - t1)
        matrices = [
            rng.uniform(0.9, 1.1, size=(BATCH, dag.num_inputs))
            for _ in range(MATRICES)
        ]
        entries.append((name, dag, result, plan, sim, matrices))
    return entries, construct


def run(seed: int, seconds: float, traced: bool, workdir) -> Outcome:
    compiles = CompileTimes()
    setups = []
    constructs = []
    entries = None
    for _ in range(SETUP_REPEATS):
        entries = None
        settle()
        t0 = time.perf_counter()
        entries, construct = _setup(seed, compiles)
        setups.append(time.perf_counter() - t0)
        constructs.append(construct)
    settle()

    # Warm every plan's bound sweep once before timing.
    for _, _, _, _, sim, matrices in entries:
        sim.run(matrices[0])

    times: list[list[float]] = [[] for _ in entries]
    traced_times: list[list[float]] = [[] for _ in entries]
    tracer = Tracer(traced)
    off = Tracer(False)
    attempted = 0
    speed = HostSpeed()
    start = time.perf_counter()
    rounds = 0
    while time.perf_counter() - start < seconds or rounds < 2:
        on = traced and rounds % 2 == 1
        spans = tracer if on else off
        swept = []
        for i, (_, _, _, _, sim, matrices) in enumerate(entries):
            for r in range(REPS[i]):
                matrix = matrices[(rounds + r) % MATRICES]
                op = spans.begin("op")
                t0 = time.perf_counter()
                sweep = spans.begin("sim.batch.sweep", t0)
                sim.run(matrix)
                t1 = time.perf_counter()
                spans.end(sweep, t1)
                spans.end(op)
                swept.append((i, t1 - t0))
                attempted += 1
        factor = speed.scale()
        for i, secs in swept:
            (traced_times if on else times)[i].append(secs * factor)
        rounds += 1

    # ---- correctness, outside the timed region ----------------------
    failed = 0
    counts = Counts()
    layers: dict[str, float] = {}
    rows_per_s = []
    for i, (name, dag, result, plan, sim, matrices) in enumerate(entries):
        bdag = binarize(dag).dag
        for m, matrix in enumerate(matrices):
            out = sim.run(matrix)
            for row in range(CHECK_ROWS):
                r = (seed + m * CHECK_ROWS + row) % BATCH
                want = evaluate_dag(bdag, list(matrix[r]))
                vars_ = sorted(out.outputs)
                got = np.array([out.outputs[v][r] for v in vars_])
                if not bits_equal(got, want[vars_]):
                    failed += 1
        fused = fuse_plan(plan) if sim.engine == "fused" else None
        counts.add(result, plan, fused)
        rate = BATCH / median(times[i])
        rows_per_s.append(rate)
        cells = fused.state_size if fused is not None else plan.state_size
        layers[f"sweep.{name}.rows_per_s"] = rate
        layers[f"sweep.{name}.state_mb"] = cells * BATCH * 8 / 1e6
        layers[f"sweep.{name}.fused"] = 1.0 if fused is not None else 0.0
    attempted += len(entries) * MATRICES
    layers.update(counts.layers)
    layers["sim.batch.construct_ms"] = median(constructs) * 1e3
    layers.update(compiles.layers_ms())
    if traced:
        selfs, wall, ops = tracer.self_times()
        layers["sim.batch.sweep_ms"] = selfs["sim.batch.sweep"] * 1e3 / ops
        layers["unattributed_ms"] = selfs["op"] * 1e3 / ops
        layers["trace.op_ms"] = wall * 1e3 / ops
        plain = sum(median(t) for t in times)
        with_trace = sum(median(t) for t in traced_times)
        layers["trace.overhead_share"] = with_trace / plain - 1.0
    geomean = math.exp(sum(math.log(r) for r in rows_per_s) / len(rows_per_s))
    return Outcome(
        attempted=attempted,
        failed=failed,
        setup_s=median(setups),
        throughput_per_s=geomean,
        # One latency per plan, its median sweep: over all sweeps the
        # tail would sit on the one over-cap plan's few samples.
        latency_phases_ms=[[median(ts) * 1e3 for ts in times]],
        cycles=counts.cycles,
        energy_nj=counts.energy_nj,
        instructions=counts.instructions,
        layers=layers,
        notes={"rounds": rounds, **speed.notes()},
    )
