"""serve_mix: an in-process ``InferenceService`` under seeded traffic.

The service (default ``BatchPolicy``, ``workers=0``) serves
``tretail``, ``bp_200`` and ``msnbc`` (20 / 425 / 48 inputs) to a
seeded ``multi_tenant`` schedule in six rounds of two phases:

* an open loop of 480 requests at a fixed 250 req/s.  One generator
  coroutine fires each request at its due time; latency is timed from
  the due time, so a stall also charges the requests queued behind it;
* a closed loop of 64 coroutine lanes, each sending its next request
  when the previous one returns; the rounds' closed loops share half
  of ``--seconds``.

Every request row is built in set-up.  Every served output is then
compared bit for bit with a direct ``run_batch`` of the same rows.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time

import numpy as np

from harness import Outcome, Tracer, latency_summary, median, settle
from programs import CompileTimes, Counts, bits_equal

from repro import MIN_EDP_CONFIG, compile_dag, run_batch
from repro.runner.cache import configure_cache
from repro.serve import InferenceService, ProgramSpec
from repro.serve.loadtest import request_inputs
from repro.sim import fuse_plan
from repro.workloads import build_workload
from repro.workloads.traffic import multi_tenant

PROGRAMS = ("tretail", "bp_200", "msnbc")
SCALE = 0.05
RATE = 250.0  # open-loop requests per second
#: Open-loop requests per round: under 1000, so the tail is reported at
#: p90, the highest percentile with at least 10 samples beyond it.  p99
#: tracked host stalls, swinging 5-15 ms between identical runs on a
#: shared 2-CPU VM.
OPEN_REQUESTS = 480
#: Rounds of (open loop, closed loop); latency and rows/s are the
#: medians of the rounds' figures.  Six short rounds, not three long
#: ones: with three, a host stall over a few seconds moved the median
#: round's p90 from 4.5 to 6-9.5 ms in three of ten runs.
PHASES = 6
LANES = 64
SETUP_REPEATS = 3


@dataclasses.dataclass
class Request:
    due: float  # seconds after the open loop starts
    program: str
    tenant: str
    row: np.ndarray


def _setup(seed: int, cache_dir) -> tuple:
    configure_cache(cache_dir)
    service = InferenceService()
    register = []
    widths = {}
    for name in PROGRAMS:
        t0 = time.perf_counter()
        served = service.register(ProgramSpec(name, scale=SCALE))
        widths[name] = served.num_inputs
        register.append(time.perf_counter() - t0)
    schedule = multi_tenant(
        OPEN_REQUESTS, rate=RATE, seed=seed, programs=PROGRAMS
    )
    requests = [
        Request(a.time_s, a.program, a.tenant,
                request_inputs(widths[a.program], a.value_seed))
        for a in schedule.arrivals
    ]
    return service, requests, register


def _traced_copy(served, execs: dict[int, tuple[float, float]]):
    """The served program with its executor timed per micro-batch; the
    span is filed under every row the batch carried."""
    inner = served.execute_rows

    def timed(rows):
        t0 = time.monotonic()
        columns = inner(rows)
        t1 = time.monotonic()
        for row in rows:
            execs[id(row)] = (t0, t1)
        return columns

    return dataclasses.replace(served, _executor=timed)


async def _open_loop(service, requests, traced, execs):
    """Fire each request at its due time from one generator coroutine."""
    loop = asyncio.get_running_loop()
    n = len(requests)
    fire = [0.0] * n
    done = [0.0] * n
    responses = [None] * n

    async def one(i: int, req: Request) -> None:
        responses[i] = await service.submit(req.program, req.row,
                                            tenant=req.tenant)
        done[i] = loop.time()

    tasks = []
    plain = {name: service.pool.get(name) for name in PROGRAMS}
    if traced:
        for served in plain.values():
            service.install(_traced_copy(served, execs))
    t0 = loop.time() + 0.05
    for i, req in enumerate(requests):
        delay = t0 + req.due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        fire[i] = loop.time()
        tasks.append(loop.create_task(one(i, req)))
    await asyncio.gather(*tasks)
    for served in plain.values():
        service.install(served)
    due = [t0 + req.due for req in requests]
    return due, fire, done, responses


async def _closed_loop(service, requests, seconds):
    loop = asyncio.get_running_loop()
    served: list[tuple[int, object]] = []
    next_index = 0
    end = loop.time() + seconds

    async def lane() -> None:
        nonlocal next_index
        while loop.time() < end:
            i = next_index % len(requests)
            next_index += 1
            req = requests[i]
            response = await service.submit(req.program, req.row,
                                            tenant=req.tenant)
            served.append((i, response))

    start = loop.time()
    await asyncio.gather(*(lane() for _ in range(LANES)))
    return served, loop.time() - start


def _batch_stats(service) -> tuple[int, int]:
    doc = service.stats_dict()
    return doc["rows_executed"], doc["batches"]


async def _phases(service, requests, seconds, traced, execs):
    """PHASES rounds of (open loop, closed loop); the traced run traces
    the open loop of odd rounds, each into its own ``execs`` entry (rows
    repeat from round to round)."""
    opened, closed, mean_open, mean_closed = [], [], [], []
    await service.start()
    try:
        for k in range(PHASES):
            rows0, batches0 = _batch_stats(service)
            execs.append({})
            opened.append(await _open_loop(
                service, requests, traced and k % 2 == 1, execs[-1]
            ))
            await service.drain()
            rows1, batches1 = _batch_stats(service)
            closed.append(await _closed_loop(
                service, requests, seconds / PHASES / 2
            ))
            await service.drain()
            rows2, batches2 = _batch_stats(service)
            mean_open.append((rows1 - rows0) / (batches1 - batches0))
            mean_closed.append((rows2 - rows1) / (batches2 - batches1))
        stats = service.stats_dict()
    finally:
        await service.stop()
    return opened, closed, stats, median(mean_open), median(mean_closed)


def _expected(requests, counts: Counts, compiles: CompileTimes) -> dict:
    """Direct ``run_batch`` outputs per request index: sink -> value."""
    expected: dict[int, dict[int, float]] = {}
    for name in PROGRAMS:
        dag = build_workload(name, scale=SCALE)
        t0 = time.perf_counter()
        result = compile_dag(dag, MIN_EDP_CONFIG)
        t1 = time.perf_counter()
        plan = result.plan()
        compiles.add(result, t1 - t0, time.perf_counter() - t1)
        counts.add(result, plan, fuse_plan(plan))
        index = [i for i, r in enumerate(requests) if r.program == name]
        matrix = np.stack([requests[i].row for i in index])
        batch = run_batch(plan, matrix)
        sinks = sorted(dag.sinks())
        columns = {s: batch.outputs[result.node_map[s]] for s in sinks}
        for j, i in enumerate(index):
            expected[i] = {s: columns[s][j] for s in sinks}
    return expected


def _mismatches(pairs, expected) -> int:
    """Count ok responses whose outputs differ from direct execution."""
    bad = 0
    for i, response in pairs:
        if not response.ok:
            continue
        want = expected[i]
        if sorted(response.outputs) != sorted(want):
            bad += 1
            continue
        got = np.array([response.outputs[s] for s in want])
        if not bits_equal(got, np.array(list(want.values()))):
            bad += 1
    return bad


def _self_times(requests, opened, execs) -> dict[str, float]:
    """Per-request self times of the traced open-loop phases."""
    tracer = Tracer(True)
    for k in range(1, len(opened), 2):
        due, _, done, responses = opened[k]
        for i, response in enumerate(responses):
            if not response.ok or id(requests[i].row) not in execs[k]:
                continue
            e0, e1 = execs[k][id(requests[i].row)]
            # Rebuilt from the response's loop-clock stamps, clamped
            # so children stay inside the request's own interval.
            submitted = min(max(due[i], e0 - response.queue_s), e0)
            served_at = min(max(submitted + response.total_s, e1), done[i])
            root = tracer.record("op", due[i], done[i], None)
            tracer.record("serve.dispatch", due[i], submitted, root)
            tracer.record("serve.queue", submitted, e0, root)
            service = tracer.record("serve.service", e0, served_at, root)
            tracer.record("serve.exec", e0, e1, service)
    selfs, wall, ops = tracer.self_times()
    layers = {
        f"serve.{name}_ms": selfs[f"serve.{name}"] * 1e3 / ops
        for name in ("dispatch", "queue", "service", "exec")
    }
    layers["unattributed_ms"] = selfs["op"] * 1e3 / ops
    layers["trace.op_ms"] = wall * 1e3 / ops
    return layers


def run(seed: int, seconds: float, traced: bool, workdir) -> Outcome:
    setups = []
    registers = []
    service = requests = None
    for k in range(SETUP_REPEATS):
        service = requests = None
        settle()
        t0 = time.perf_counter()
        service, requests, register = _setup(seed, workdir / f"cache{k}")
        setups.append(time.perf_counter() - t0)
        registers.extend(register)
    settle()

    execs: list[dict[int, tuple[float, float]]] = []
    opened, closed, stats, mean_open, mean_closed = asyncio.run(
        _phases(service, requests, seconds, traced, execs)
    )

    # ---- correctness, outside the timed region ----------------------
    counts = Counts()
    compiles = CompileTimes()
    expected = _expected(requests, counts, compiles)
    pairs = [p for _, _, _, responses in opened for p in enumerate(responses)]
    pairs += [p for served, _ in closed for p in served]
    attempted = len(pairs)
    failed = sum(1 for _, r in pairs if not r.ok)
    failed += _mismatches(pairs, expected)

    # A failed request misses any latency limit: it counts as infinite.
    latencies = [
        [
            (done[i] - due[i]) * 1e3 if responses[i].ok else float("inf")
            for i in range(len(requests))
        ]
        for due, _, done, responses in opened
    ]
    late = [
        [(fire[i] - due[i]) * 1e3 for i in range(len(requests))]
        for due, fire, _, _ in opened
    ]
    layers = dict(counts.layers)
    layers.update({
        "serve.mean_batch": mean_open,
        "serve.mean_batch_closed": mean_closed,
        "serve.register_ms": median(registers) * 1e3,
        "serve.rejected": float(stats["rejected"]),
        "serve.timeouts": float(stats["timed_out"]),
        "serve.late_ms": latency_summary(late)[1],
    })
    layers.update(compiles.layers_ms())
    if traced:
        layers.update(_self_times(requests, opened, execs))
        plain = median(
            median(lat) for k, lat in enumerate(latencies) if k % 2 == 0
        )
        with_trace = median(
            median(lat) for k, lat in enumerate(latencies) if k % 2 == 1
        )
        layers["trace.overhead_share"] = with_trace / plain - 1.0
        latencies = latencies[::2]
    rates = [
        sum(r.rows for _, r in served if r.ok) / secs
        for served, secs in closed
    ]
    return Outcome(
        attempted=attempted,
        failed=failed,
        setup_s=median(setups),
        throughput_per_s=median(rates),
        latency_phases_ms=latencies,
        cycles=counts.cycles,
        energy_nj=counts.energy_nj,
        instructions=counts.instructions,
        layers=layers,
        notes={"closed_requests": sum(len(served) for served, _ in closed)},
    )
