"""The asyncio inference service: queues -> micro-batches -> plans.

:class:`InferenceService` ties the serving layer together:

* requests (program key + input row + optional relative deadline)
  enter through :meth:`InferenceService.submit` and land in the
  per-program :class:`~repro.serve.batcher.MicroBatcher` queue;
* the batcher coalesces them under the max-batch/max-wait policy and
  hands each micro-batch to the program's fused-plan sweep, inline on
  the event-loop thread (a batch sweeps in microseconds, far less than
  a process hop costs; multi-process serving is the shard router's
  job, :mod:`repro.serve.router`);
* responses scatter back to per-request futures bitwise identical to
  a direct :class:`~repro.sim.fused.FusedPlan` execution of the same
  rows (asserted continuously by the ``served-vs-direct`` oracle
  stage and the serving test suite).

Admission control is the batcher's bounded per-program depth: beyond
``max_queue`` queued + in-flight requests a submission is *rejected*
immediately (``status="rejected"``) rather than queued without bound.
Requests whose deadline has already passed when their batch forms are
answered ``status="timeout"`` without being executed.
"""

from __future__ import annotations

import asyncio
import os
import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..errors import ServeError
from ..obs import trace
from ..obs.metrics import (
    MetricsRegistry,
    get_registry,
    render_registries,
)
from .batcher import BatchPolicy, MicroBatcher
from .planpool import PlanPool, ProgramSpec, ServedProgram


@dataclass(frozen=True)
class InferenceRequest:
    """One inference call as the batcher carries it.

    ``inputs`` is a 1-D row (the common case) or a 2-D ``(R, W)``
    matrix: a *multi-row* request whose R rows all ride the same
    micro-batch and come back together in one response.
    """

    id: int
    program: str
    inputs: np.ndarray
    tenant: str = "default"
    deadline_s: float | None = None  # relative to submission
    submitted_at: float = 0.0  # loop clock
    #: Correlation id carried over HTTP (``X-Repro-Request-Id``) and
    #: across router hops; generated at submission when absent.
    request_id: str = ""

    @property
    def rows(self) -> int:
        return self.inputs.shape[0] if self.inputs.ndim == 2 else 1


@dataclass(frozen=True)
class InferenceResponse:
    """What a request resolves to.

    ``outputs`` is ``sink node -> float`` (the program's stable output
    vocabulary) for an ``"ok"`` single-row request, ``sink node ->
    [R floats]`` for a multi-row one; ``None`` otherwise.  ``batch``
    is the total *row* count of the micro-batch the request rode in —
    0 when it never reached an executor (rejected/timeout) — and
    ``rows`` is how many of those rows were this request's own (1 for
    plain requests): the quantity throughput accounting must sum.
    """

    id: int
    program: str
    tenant: str
    status: str  # "ok" | "rejected" | "timeout" | "error"
    outputs: dict[int, float] | dict[int, list[float]] | None
    batch: int
    queue_s: float
    total_s: float
    rows: int = 1
    error: str | None = None
    request_id: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class ServiceStats:
    """Service-lifetime totals (snapshot via :meth:`as_dict`).

    The integer fields are properties over obs counters in a
    per-instance :class:`~repro.obs.metrics.MetricsRegistry`, so
    ``GET /metrics`` renders the same numbers Prometheus-style while
    ``as_dict`` (and ``stats.submitted += 1`` call sites) keep their
    exact legacy shape.  Per-instance, not the global registry: two
    services in one process must not alias each other's counts.
    """

    _COUNTERS = (
        ("submitted", "Requests entering submit()"),
        ("completed", "Requests resolved ok"),
        ("rejected", "Requests refused by admission control"),
        ("timed_out", "Requests whose deadline passed before execution"),
        ("errors", "Requests resolved with an error"),
        ("rows_executed", "Input rows executed across all micro-batches"),
    )

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self._counters = {
            name: self.registry.counter(f"repro_serve_{name}_total", help_)
            for name, help_ in self._COUNTERS
        }
        self.queue_wait = self.registry.histogram(
            "repro_serve_queue_wait_seconds",
            "Time a request waited for its micro-batch to form",
        )
        self.latency = self.registry.histogram(
            "repro_serve_request_seconds",
            "Submit-to-response latency",
        )
        # Monotonic, not wall-clock: an NTP step must not warp uptime
        # or any stats derived from it.
        self.started_at: float = time.monotonic()

    def as_dict(self, batcher_stats=None) -> dict:
        doc = {
            "submitted": self.submitted,
            "completed": self.completed,
            "rejected": self.rejected,
            "timed_out": self.timed_out,
            "errors": self.errors,
            "rows_executed": self.rows_executed,
            "uptime_s": round(time.monotonic() - self.started_at, 3),
        }
        if batcher_stats is not None:
            doc["batches"] = batcher_stats.batches
            doc["mean_batch"] = round(batcher_stats.mean_batch, 3)
            doc["batch_sizes"] = {
                str(k): v
                for k, v in sorted(batcher_stats.batch_sizes.items())
            }
        return doc


def _stat_property(name: str) -> property:
    def _get(self) -> int:
        return int(self._counters[name].value())

    def _set(self, value: int) -> None:
        self._counters[name].set_total(value)

    return property(_get, _set)


for _name, _help in ServiceStats._COUNTERS:
    setattr(ServiceStats, _name, _stat_property(_name))
del _name, _help


class InferenceService:
    """Dynamic micro-batching server over the vectorized engine.

    Args:
        pool: Warm plan pool (a private one is created if omitted).
        policy: Micro-batching bounds.

    Every micro-batch executes inline on the event-loop thread, so a
    service is one process; scale out with shards behind a
    :class:`~repro.serve.router.ShardRouter`.

    Use as an async context manager, or call :meth:`start` /
    :meth:`stop` explicitly.  Programs must be registered (or
    installed) before requests reference them.
    """

    def __init__(
        self,
        pool: PlanPool | None = None,
        policy: BatchPolicy | None = None,
    ) -> None:
        self.pool = pool if pool is not None else PlanPool()
        self.policy = policy if policy is not None else BatchPolicy()
        self.stats = ServiceStats()
        self._batcher: MicroBatcher | None = None
        self._next_id = 0
        self._rid_prefix = f"{os.getpid():x}"

    # -- program management -------------------------------------------
    def register(self, spec: ProgramSpec) -> ServedProgram:
        """Compile/lower (or warm-hit) a program into the pool."""
        return self.pool.register(spec)

    def install(self, program: ServedProgram) -> None:
        """Install a pre-built program (differential hook, tests)."""
        self.pool.install(program)

    def programs(self) -> list[str]:
        return self.pool.keys()

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        if self._batcher is not None:
            raise ServeError("service already started")
        self._batcher = MicroBatcher(self.policy, self._on_batch)
        self.stats.started_at = time.monotonic()

    async def stop(self) -> None:
        if self._batcher is not None:
            await self._batcher.close()
            self._batcher = None

    async def drain(self) -> None:
        """Wait for every accepted request to resolve."""
        if self._batcher is not None:
            await self._batcher.drain()

    async def __aenter__(self) -> "InferenceService":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    @property
    def batcher(self) -> MicroBatcher:
        if self._batcher is None:
            raise ServeError("service is not started")
        return self._batcher

    # -- request path --------------------------------------------------
    async def submit(
        self,
        program: str,
        inputs: Sequence[float] | np.ndarray,
        tenant: str = "default",
        deadline_s: float | None = None,
        max_wait_s: float | None = None,
        request_id: str | None = None,
    ) -> InferenceResponse:
        """Submit one request and await its response.

        ``inputs`` is one row, or an ``(R, num_inputs)`` matrix for a
        multi-row request (all R rows execute in the same micro-batch
        and resolve together).  ``max_wait_s`` tightens the batcher's
        ``max_wait`` bound for this request only — the per-tenant SLO
        override the shard router applies for latency-class tenants.
        ``request_id`` is the end-to-end correlation id (generated
        here when the client did not send one); it rides every
        response — including rejections and timeouts — so failures
        in chaos runs stay attributable.

        Never raises for per-request problems — unknown programs,
        malformed rows, backpressure and deadline misses all come back
        as non-``ok`` responses, so one bad client cannot break the
        batch its neighbors ride in.
        """
        batcher = self.batcher
        loop = asyncio.get_running_loop()
        now = loop.time()
        self.stats.submitted += 1
        self._next_id += 1
        try:
            row = np.asarray(inputs, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            row = np.empty(0)
            bad_inputs = str(exc)
        else:
            bad_inputs = None
        request = InferenceRequest(
            id=self._next_id,
            program=program,
            inputs=row,
            tenant=tenant,
            deadline_s=deadline_s,
            submitted_at=now,
            request_id=(
                request_id
                if request_id
                else f"req-{self._rid_prefix}-{self._next_id:x}"
            ),
        )
        if bad_inputs is not None:
            self.stats.errors += 1
            return self._finish(
                request, "error", None, 0, now,
                f"inputs are not numeric: {bad_inputs}",
            )
        try:
            served = self.pool.get(program)
        except ServeError as exc:
            self.stats.errors += 1
            return self._finish(request, "error", None, 0, now, str(exc))
        if (
            request.inputs.ndim not in (1, 2)
            or request.inputs.shape[-1] < served.num_inputs
            or (request.inputs.ndim == 2 and request.inputs.shape[0] < 1)
        ):
            self.stats.errors += 1
            return self._finish(
                request, "error", None, 0, now,
                f"inputs must be a vector (or non-empty matrix of rows) "
                f"of >= {served.num_inputs} values",
            )
        future: asyncio.Future = loop.create_future()
        if not batcher.submit_nowait(
            program, (request, future), wait_s=max_wait_s
        ):
            self.stats.rejected += 1
            return self._finish(request, "rejected", None, 0, now, None)
        return await future

    def _finish(
        self,
        request: InferenceRequest,
        status: str,
        outputs: dict[int, float] | None,
        batch: int,
        dequeued_at: float,
        error: str | None,
    ) -> InferenceResponse:
        loop = asyncio.get_running_loop()
        now = loop.time()
        response = InferenceResponse(
            id=request.id,
            program=request.program,
            tenant=request.tenant,
            status=status,
            outputs=outputs,
            batch=batch,
            queue_s=max(dequeued_at - request.submitted_at, 0.0),
            total_s=max(now - request.submitted_at, 0.0),
            rows=request.rows,
            error=error,
            request_id=request.request_id,
        )
        self._observe(request, response)
        return response

    def _observe(
        self, request: InferenceRequest, response: InferenceResponse
    ) -> None:
        """Per-response accounting: latency histogram + request span.

        The span is stamped with the request's recorded submission
        instant, so the trace shows the full submit-to-response
        lifetime even though it is recorded only at resolution — the
        safe way to span an ``await``-interleaved lifecycle without
        misparenting concurrent requests.
        """
        self.stats.latency.observe(response.total_s)
        if trace.is_on():
            trace.begin(
                "serve.request",
                "serve",
                parent=None,
                start_ns=int(request.submitted_at * 1e9),
                request_id=request.request_id,
                program=request.program,
                tenant=request.tenant,
                status=response.status,
                rows=response.rows,
            ).finish()

    # -- batch execution ----------------------------------------------
    async def _on_batch(self, key: str, items: list) -> None:
        """Execute one micro-batch and scatter per-request responses."""
        loop = asyncio.get_running_loop()
        now = loop.time()
        live: list[tuple[InferenceRequest, asyncio.Future]] = []
        for request, future in items:
            if (
                request.deadline_s is not None
                and now - request.submitted_at > request.deadline_s
            ):
                self.stats.timed_out += 1
                self._resolve(
                    future,
                    self._finish(request, "timeout", None, 0, now, None),
                )
            else:
                live.append((request, future))
        if not live:
            return
        # Flatten every request's row(s) into one sweep; multi-row
        # requests contribute a contiguous slice they scatter back
        # from.  ``spans`` records each request's (start, rows).
        rows: list[np.ndarray] = []
        spans: list[tuple[int, int]] = []
        for request, _ in live:
            start = len(rows)
            if request.inputs.ndim == 2:
                rows.extend(request.inputs)
            else:
                rows.append(request.inputs)
            spans.append((start, len(rows) - start))
        size = len(rows)
        for request, _ in live:
            self.stats.queue_wait.observe(
                max(now - request.submitted_at, 0.0)
            )
        batch_span = trace.begin(
            "serve.batch",
            "serve",
            parent=None,
            program=key,
            requests=len(live),
            rows=size,
            request_ids=[request.request_id for request, _ in live],
        ) if trace.is_on() else None
        exec_span = (
            trace.begin(
                "serve.execute", "serve", parent=batch_span.span_id
            )
            if batch_span is not None
            else None
        )
        try:
            columns = self.pool.get(key).execute_rows(rows)
        except Exception as exc:
            # Not just ReproError: any exception mid-batch (an OSError,
            # a bug in the sweep, ...) must still resolve every future
            # — an accepted request never hangs.
            if exec_span is not None:
                exec_span.set(error=type(exc).__name__).finish()
                batch_span.finish()
            self.stats.errors += len(live)
            for request, future in live:
                self._resolve(
                    future,
                    self._finish(
                        request, "error", None, size, now,
                        f"{type(exc).__name__}: {exc}",
                    ),
                )
            return
        if exec_span is not None:
            exec_span.finish()
        scatter_span = (
            trace.begin(
                "serve.scatter", "serve", parent=batch_span.span_id
            )
            if batch_span is not None
            else None
        )
        self.stats.completed += len(live)
        self.stats.rows_executed += size
        # Scatter inline (no per-request _finish) — this loop is the
        # per-request serving overhead, so it stays lean.
        done = loop.time()
        for (request, future), (start, count) in zip(live, spans):
            if request.inputs.ndim == 2:
                outputs = {
                    node: [float(v) for v in col[start:start + count]]
                    for node, col in columns.items()
                }
            else:
                outputs = {
                    node: float(col[start]) for node, col in columns.items()
                }
            response = InferenceResponse(
                id=request.id,
                program=request.program,
                tenant=request.tenant,
                status="ok",
                outputs=outputs,
                batch=size,
                queue_s=max(now - request.submitted_at, 0.0),
                total_s=max(done - request.submitted_at, 0.0),
                rows=count,
                request_id=request.request_id,
            )
            self._observe(request, response)
            self._resolve(future, response)
        if scatter_span is not None:
            scatter_span.finish()
            batch_span.finish()

    @staticmethod
    def _resolve(future: asyncio.Future, response: InferenceResponse) -> None:
        if not future.done():
            future.set_result(response)

    # -- observability -------------------------------------------------
    def metrics_text(self) -> str:
        """Prometheus exposition for ``GET /metrics``: this service's
        registry, the batcher's, and the process-wide one (compiler,
        engines, plan pool), plus point-in-time gauges."""
        gauges = self.stats.registry
        gauges.gauge(
            "repro_serve_uptime_seconds", "Seconds since service start"
        ).set(time.monotonic() - self.stats.started_at)
        gauges.gauge(
            "repro_serve_queue_depth",
            "Queued + in-flight requests across all programs",
        ).set(self._batcher.depth if self._batcher is not None else 0)
        gauges.gauge(
            "repro_serve_programs", "Programs in the plan pool"
        ).set(len(self.pool))
        registries = [self.stats.registry]
        if self._batcher is not None:
            registries.append(self._batcher.stats.registry)
        registries.append(get_registry())
        return render_registries(*registries)

    def stats_dict(self) -> dict:
        batcher_stats = (
            self._batcher.stats if self._batcher is not None else None
        )
        doc = self.stats.as_dict(batcher_stats)
        doc["programs"] = self.pool.keys()
        doc["policy"] = {
            "max_batch": self.policy.max_batch,
            "max_wait_s": self.policy.max_wait_s,
            "max_queue": self.policy.max_queue,
        }
        return doc


def program_from_plan(key: str, plan) -> ServedProgram:
    """Wrap a :class:`~repro.sim.fused.FusedPlan` (or an
    :class:`~repro.sim.plan.ExecutionPlan`, fused here) as a served
    program whose outputs are keyed by the plan's own output
    *variables* (not DAG sinks) — the vocabulary the differential
    oracle compares in."""
    from .planpool import _plan_executor

    sink_vars = tuple((var, var) for var in plan.output_vars)
    return ServedProgram(
        key=key,
        spec=ProgramSpec(name=key),
        fingerprint=f"installed:{key}",
        num_inputs=plan.num_inputs,
        num_nodes=0,
        cycles_per_row=plan.cycles_per_row,
        sink_vars=sink_vars,
        _executor=_plan_executor(plan, sink_vars),
    )


def serve_rows(
    plan,
    matrix: np.ndarray,
    max_batch: int,
    max_wait_s: float = 0.0,
    tenant: str = "oracle",
) -> dict[int, np.ndarray]:
    """Push a (B, num_inputs) matrix through the live micro-batcher.

    The differential oracle's entry point: every row becomes one
    request, the batcher coalesces them under ``max_batch`` (forcing
    scatter/gather across several micro-batches when
    ``max_batch < B``), and the per-request responses are reassembled
    into ``output var -> (B,)`` columns in row order — which must be
    bitwise identical to executing the matrix directly.

    Runs its own event loop; call from synchronous code only.

    Raises:
        ServeError: If any request resolves non-ok.
    """
    matrix = np.asarray(matrix, dtype=np.float64)

    async def _run() -> list[InferenceResponse]:
        policy = BatchPolicy(
            max_batch=max_batch,
            max_wait_s=max_wait_s,
            max_queue=max(len(matrix) + 1, 1),
        )
        service = InferenceService(policy=policy)
        service.install(program_from_plan("scenario", plan))
        async with service:
            tasks = [
                asyncio.ensure_future(
                    service.submit("scenario", row, tenant=tenant)
                )
                for row in matrix
            ]
            return await asyncio.gather(*tasks)

    responses = asyncio.run(_run())
    for response in responses:
        if not response.ok:
            raise ServeError(
                f"served request {response.id} resolved "
                f"{response.status}: {response.error}"
            )
    columns: dict[int, np.ndarray] = {}
    for var in plan.output_vars:
        columns[var] = np.array(
            [response.outputs[var] for response in responses],
            dtype=np.float64,
        )
    return columns
