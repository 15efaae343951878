"""Online inference serving over the two-phase execution engine.

The batch engine (PR 1) made one process execute a ``(B, num_inputs)``
matrix 650-1300x faster than row-at-a-time simulation; this package
turns that into *served* throughput for a stream of independent
requests:

* :mod:`repro.serve.batcher` — per-program queues + the dynamic
  micro-batching policy (``max_batch`` / ``max_wait`` / bounded-queue
  admission control), both as a live asyncio engine and as a pure
  coalescing law for tests and offline analysis;
* :mod:`repro.serve.planpool` — the warm pool of compiled + fused
  programs, keyed by content fingerprint and fed through the
  content-addressed artifact cache (a warm disk cache makes process
  start instant; a miss compiles the whole DAG once);
* :mod:`repro.serve.service` — the asyncio
  :class:`~repro.serve.service.InferenceService`: submit -> coalesce
  -> execute inline on the event loop -> scatter, with responses
  bitwise identical to direct plan execution;
* :mod:`repro.serve.http` — a minimal stdlib HTTP/1.1 front end
  (``POST /infer``, ``GET /stats``, ``GET /healthz``) plus the tiny
  keep-alive client the load generator uses;
* :mod:`repro.serve.loadtest` — open/closed-loop load harness over
  :mod:`repro.workloads.traffic` schedules: p50/p95/p99 latency,
  rows/s, and bitwise served-vs-direct verification;
* :mod:`repro.serve.router` — the sharding tier: a consistent-hash
  :class:`~repro.serve.router.ShardRouter` fanning requests by
  program content fingerprint across N service shards over one
  shared artifact cache, with per-tenant admission/SLO overrides,
  graceful drain/restart, and health-checked failover — the one way
  to serve from more than one process.

CLI entry points: ``repro serve`` (``--shards N`` for the routed
topology) and ``repro loadgen`` (``--router N`` for client-side
routing over spawned shards).
"""

from .batcher import BatcherStats, BatchPolicy, MicroBatcher, plan_batches
from .loadtest import (
    LoadReport,
    ParityChecker,
    RequestOutcome,
    request_inputs,
    run_closed_loop,
    run_open_loop,
    run_open_loop_http,
)
from .planpool import (
    DEFAULT_CONFIG_LABEL,
    PlanPool,
    ProgramSpec,
    ServedProgram,
    build_served_program,
)
from .router import (
    HashRing,
    LocalShard,
    ProcessShard,
    RouterStats,
    RouterSubmitter,
    ShardRouter,
    TenantSLO,
    route_rows,
    router_dispatch,
    slos_from_schedule,
)
from .service import (
    InferenceRequest,
    InferenceResponse,
    InferenceService,
    ServiceStats,
    program_from_plan,
    serve_rows,
)

__all__ = [
    "BatchPolicy",
    "BatcherStats",
    "MicroBatcher",
    "plan_batches",
    "PlanPool",
    "ProgramSpec",
    "ServedProgram",
    "build_served_program",
    "DEFAULT_CONFIG_LABEL",
    "InferenceRequest",
    "InferenceResponse",
    "InferenceService",
    "ServiceStats",
    "program_from_plan",
    "serve_rows",
    "LoadReport",
    "RequestOutcome",
    "ParityChecker",
    "request_inputs",
    "run_open_loop",
    "run_open_loop_http",
    "run_closed_loop",
    "HashRing",
    "LocalShard",
    "ProcessShard",
    "RouterStats",
    "RouterSubmitter",
    "ShardRouter",
    "TenantSLO",
    "route_rows",
    "router_dispatch",
    "slos_from_schedule",
]
