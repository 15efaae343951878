"""Shard router: consistent-hash fan-out over N inference shards.

One asyncio :class:`~repro.serve.service.InferenceService` saturates a
single process; the layer above fans requests across N *shards* —
separate service processes sharing one content-addressed artifact
cache — while keeping every property the single-process stack already
guarantees (bitwise served-vs-direct parity, per-program FIFO,
bounded queues).

Design:

* **Routing** is by *program content fingerprint* over a consistent
  hash ring (:class:`HashRing`): all traffic for one program lands on
  one shard, so micro-batches still coalesce and every shard's plan
  pool stays hot for exactly the programs it owns.  Two program names
  aliasing the same DAG content hash to the same shard.
* **Every shard registers every program.**  Registration goes through
  the shared artifact cache, so N shards pay one compile machine-wide
  — and any shard can take over any key instantly, which is what
  makes drain/restart/failover a routing change rather than a
  recompile.
* **Admission + SLO** are per-tenant (:class:`TenantSLO`): a bounded
  in-flight count per tenant (admission control), and optional
  deadline / max-wait defaults the router injects into requests —
  the max-wait override rides the batcher's per-item wait hint, so a
  latency-class tenant tightens only the batches *its* requests open.
  :func:`slos_from_schedule` derives the classes from a traffic
  schedule's tenant shares (heavy tenants → throughput class, tail
  tenants → latency class).
* **Drain/restart** (:meth:`ShardRouter.drain` /
  :meth:`ShardRouter.restart`): a draining shard stops receiving new
  keys (they re-route to the ring successor), in-flight requests
  finish where they are, and a restarted shard re-registers its
  programs through the warm cache and passes a health check before
  the ring re-admits it.
* **Failover**: a transport error marks the shard down and retries
  the request on the ring successor.  Execution is pure, so a retry
  after a mid-response connection loss is safe.

Shards come in two transports: :class:`LocalShard` (an in-process
service — tests and the differential oracle) and :class:`ProcessShard`
(a spawned ``repro serve`` subprocess driven over HTTP — the CLI and
benchmarks).  The router itself is transport-agnostic and can serve
its own HTTP front end via :func:`router_dispatch`.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import os
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..errors import ServeError
from ..obs import trace
from ..obs.metrics import MetricsRegistry, get_registry, render_registries
from .batcher import BatchPolicy
from .planpool import PlanPool, ProgramSpec, ServedProgram
from .service import InferenceService

#: Transport failures the router treats as "this shard is down".
_TRANSPORT_ERRORS = (ConnectionError, OSError, asyncio.IncompleteReadError)


# ---------------------------------------------------------------------
# Consistent hash ring
# ---------------------------------------------------------------------
def _hash64(text: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(text.encode(), digest_size=8).digest(), "big"
    )


class HashRing:
    """Consistent hashing with virtual nodes.

    Each shard owns ``replicas`` pseudo-random points on a 64-bit
    ring; a key maps to the shard owning the first point at or after
    the key's hash (wrapping).  Adding or removing one shard moves
    only the keys whose owning arc changed — every other key keeps
    its shard, which is the property that makes shard membership
    churn (drain, restart, failover) cheap.
    """

    def __init__(self, replicas: int = 64) -> None:
        if replicas < 1:
            raise ServeError(f"replicas must be >= 1, got {replicas}")
        self.replicas = replicas
        self._shards: set[str] = set()
        self._points: list[tuple[int, str]] = []

    def _rebuild(self) -> None:
        self._points = sorted(
            (_hash64(f"{shard}#{r}"), shard)
            for shard in self._shards
            for r in range(self.replicas)
        )

    def add(self, shard_id: str) -> None:
        if shard_id not in self._shards:
            self._shards.add(shard_id)
            self._rebuild()

    def remove(self, shard_id: str) -> None:
        if shard_id in self._shards:
            self._shards.discard(shard_id)
            self._rebuild()

    def shards(self) -> frozenset[str]:
        return frozenset(self._shards)

    def lookup(self, key: str, exclude: frozenset[str] | set[str] = frozenset()) -> str:
        """The shard owning ``key``, skipping excluded shards.

        Walks the ring clockwise from the key's point, so with the
        owner excluded (draining/down) every key lands deterministically
        on its successor — and returns home when the owner is back.

        Raises:
            ServeError: No non-excluded shard exists.
        """
        if not self._points:
            raise ServeError("hash ring is empty")
        if not (self._shards - set(exclude)):
            raise ServeError("no shard available: all excluded")
        h = _hash64(key)
        i = bisect.bisect_right(self._points, (h, "￿"))
        n = len(self._points)
        for step in range(n):
            _, shard = self._points[(i + step) % n]
            if shard not in exclude:
                return shard
        raise ServeError("no shard available: all excluded")


# ---------------------------------------------------------------------
# Tenant SLOs
# ---------------------------------------------------------------------
@dataclass(frozen=True)
class TenantSLO:
    """Per-tenant admission + batching policy overrides.

    ``max_inflight`` bounds the tenant's concurrent in-router
    requests (admission control: excess submissions are rejected, not
    queued).  ``deadline_ms`` / ``max_wait_ms`` are injected into the
    tenant's requests when the request itself does not set them —
    ``max_wait_ms`` becomes the batcher's per-item wait hint, the
    SLO-aware batch-policy override.
    """

    max_inflight: int | None = None
    deadline_ms: float | None = None
    max_wait_ms: float | None = None

    def __post_init__(self) -> None:
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ServeError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )


def slos_from_schedule(
    schedule,
    max_inflight: int = 256,
    latency_wait_ms: float = 0.25,
    latency_deadline_ms: float | None = None,
) -> dict[str, TenantSLO]:
    """Derive per-tenant SLO classes from a traffic schedule.

    The ``multi_tenant`` generator's Zipf-ish weights split tenants
    into a heavy head and a long tail; the split here mirrors that:
    tenants at or above the *uniform* share (``1/num_tenants``) are
    throughput-class (policy-default batching, admission bound only),
    tenants below it are latency-class (tight ``max_wait`` so their
    lone requests never sit out a full batching window, plus an
    optional deadline).  Deterministic given the schedule.
    """
    shares = schedule.tenant_shares()
    if not shares:
        return {}
    uniform = 1.0 / len(shares)
    slos: dict[str, TenantSLO] = {}
    for tenant, share in shares.items():
        if share >= uniform:
            slos[tenant] = TenantSLO(max_inflight=max_inflight)
        else:
            slos[tenant] = TenantSLO(
                max_inflight=max_inflight,
                deadline_ms=latency_deadline_ms,
                max_wait_ms=latency_wait_ms,
            )
    return slos


# ---------------------------------------------------------------------
# Shards
# ---------------------------------------------------------------------
class LocalShard:
    """An in-process shard: one :class:`InferenceService` behind the
    router's shard interface.  Tests and the differential oracle use
    these — same routing/drain/restart machinery, no subprocesses.

    The plan pool survives restarts (that is the point: a restart is
    a *service* bounce over a warm pool, exactly like a process
    restart over a warm artifact cache).
    """

    def __init__(
        self,
        shard_id: str,
        policy: BatchPolicy | None = None,
        pool: PlanPool | None = None,
    ) -> None:
        self.shard_id = shard_id
        self.policy = policy if policy is not None else BatchPolicy()
        self.pool = pool if pool is not None else PlanPool()
        self.service: InferenceService | None = None
        self._specs: list[ProgramSpec] = []
        self._programs: list[ServedProgram] = []
        self.restarts = 0

    # -- program management -------------------------------------------
    def register(self, spec: ProgramSpec) -> None:
        """Record a spec; (re)starts register it into the service."""
        self._specs.append(spec)
        if self.service is not None:
            self.service.register(spec)

    def install(self, program: ServedProgram) -> None:
        self._programs.append(program)
        if self.service is not None:
            self.service.install(program)

    def programs(self) -> list[str]:
        return self.pool.keys()

    def fingerprints(self) -> dict[str, str]:
        return {key: self.pool.get(key).fingerprint for key in self.pool.keys()}

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        if self.service is not None:
            raise ServeError(f"shard {self.shard_id} already started")
        service = InferenceService(pool=self.pool, policy=self.policy)
        for spec in self._specs:
            service.register(spec)
        for program in self._programs:
            service.install(program)
        await service.start()
        self.service = service

    async def stop(self) -> None:
        if self.service is not None:
            await self.service.stop()
            self.service = None

    async def restart(self) -> None:
        await self.stop()
        await self.start()
        self.restarts += 1

    async def drain(self) -> None:
        if self.service is not None:
            await self.service.drain()

    async def healthy(self) -> bool:
        return self.service is not None

    # -- request path --------------------------------------------------
    async def submit(
        self,
        program: str,
        inputs,
        tenant: str = "default",
        deadline_s: float | None = None,
        max_wait_s: float | None = None,
        request_id: str | None = None,
    ) -> dict:
        if self.service is None:
            raise ConnectionError(f"shard {self.shard_id} is down")
        response = await self.service.submit(
            program, inputs, tenant=tenant,
            deadline_s=deadline_s, max_wait_s=max_wait_s,
            request_id=request_id,
        )
        return {
            "status": response.status,
            "outputs": response.outputs,
            "batch": response.batch,
            "rows": response.rows,
            "error": response.error,
            "request_id": response.request_id,
        }

    async def stats(self) -> dict:
        if self.service is None:
            return {}
        return self.service.stats_dict()


class ProcessShard:
    """A spawned ``repro serve`` subprocess driven over HTTP.

    ``argv`` is the full serve command *without* ``--host``/``--port``
    (the shard probes a free port per start).  All shards share one
    ``REPRO_CACHE_DIR`` via the argv's ``--cache-dir``, so the first
    shard's registration compiles and every later one (and every
    restart) warm-loads — the plan-pool warmup that gates ring
    re-admission is a health-checked cache load, not a compile.
    """

    def __init__(
        self,
        shard_id: str,
        argv: Sequence[str],
        host: str = "127.0.0.1",
        ready_timeout_s: float = 300.0,
    ) -> None:
        self.shard_id = shard_id
        self.argv = list(argv)
        self.host = host
        self.port: int | None = None
        self.ready_timeout_s = ready_timeout_s
        self.proc = None
        self.restarts = 0
        self._idle_clients: list = []
        self._all_clients: list = []
        self._programs: list[str] = []

    def programs(self) -> list[str]:
        return list(self._programs)

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        import socket
        import subprocess

        if self.proc is not None:
            raise ServeError(f"shard {self.shard_id} already started")
        with socket.socket() as probe:
            probe.bind((self.host, 0))
            self.port = probe.getsockname()[1]
        self.proc = subprocess.Popen(
            self.argv + ["--host", self.host, "--port", str(self.port)]
        )
        deadline = asyncio.get_running_loop().time() + self.ready_timeout_s
        while True:
            if await self.healthy():
                return
            if self.proc.poll() is not None:
                raise ServeError(
                    f"shard {self.shard_id} exited with "
                    f"{self.proc.returncode} before becoming healthy"
                )
            if asyncio.get_running_loop().time() > deadline:
                raise ServeError(
                    f"shard {self.shard_id} not healthy after "
                    f"{self.ready_timeout_s:.0f}s"
                )
            await asyncio.sleep(0.2)

    async def stop(self) -> None:
        for client in self._all_clients:
            await client.close()
        self._idle_clients.clear()
        self._all_clients.clear()
        if self.proc is not None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except Exception:
                self.proc.kill()
                self.proc.wait(timeout=30)
            self.proc = None

    async def restart(self) -> None:
        await self.stop()
        await self.start()
        self.restarts += 1

    def kill(self) -> None:
        """Hard-kill the process (failover testing); the router
        discovers the death through transport errors."""
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait(timeout=30)
            self.proc = None

    async def drain(self) -> None:
        return None  # the router's own in-flight accounting drains us

    async def healthy(self) -> bool:
        from .http import HttpClient

        if self.port is None:
            return False
        client = HttpClient(self.host, self.port)
        try:
            status, doc = await client.request("GET", "/healthz")
        except _TRANSPORT_ERRORS:
            return False
        finally:
            await client.close()
        if status == 200 and doc.get("ok"):
            self._programs = list(doc.get("programs", []))
            return True
        return False

    # -- request path --------------------------------------------------
    async def submit(
        self,
        program: str,
        inputs,
        tenant: str = "default",
        deadline_s: float | None = None,
        max_wait_s: float | None = None,
        request_id: str | None = None,
    ) -> dict:
        from .http import HttpClient

        if self.proc is None or self.port is None:
            raise ConnectionError(f"shard {self.shard_id} is down")
        matrix = np.asarray(inputs, dtype=np.float64)
        wire = (
            [[float(v) for v in row] for row in matrix]
            if matrix.ndim == 2
            else [float(v) for v in matrix]
        )
        client = (
            self._idle_clients.pop()
            if self._idle_clients
            else HttpClient(self.host, self.port)
        )
        if client not in self._all_clients:
            self._all_clients.append(client)
        try:
            doc = await client.infer(
                program, wire, tenant=tenant,
                deadline_ms=None if deadline_s is None else deadline_s * 1e3,
                max_wait_ms=None if max_wait_s is None else max_wait_s * 1e3,
                request_id=request_id,
            )
        finally:
            self._idle_clients.append(client)
        outputs = doc.get("outputs")
        return {
            "status": doc.get("status", "error"),
            "outputs": (
                None if outputs is None
                else {int(node): value for node, value in outputs.items()}
            ),
            "batch": doc.get("batch", 0),
            "rows": doc.get("rows", 1),
            "error": doc.get("error"),
            "request_id": doc.get("request_id", ""),
        }

    async def stats(self) -> dict:
        from .http import HttpClient

        if self.port is None:
            return {}
        client = HttpClient(self.host, self.port)
        try:
            _status, doc = await client.request("GET", "/stats")
            return doc
        except _TRANSPORT_ERRORS:
            return {}
        finally:
            await client.close()


# ---------------------------------------------------------------------
# The router
# ---------------------------------------------------------------------
@dataclass
class RouterStats:
    routed: int = 0
    rejected: int = 0
    failed: int = 0
    failovers: int = 0
    drains: int = 0
    restarts: int = 0
    per_shard: dict[str, int] = field(default_factory=dict)
    rejected_by_tenant: dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "routed": self.routed,
            "rejected": self.rejected,
            "failed": self.failed,
            "failovers": self.failovers,
            "drains": self.drains,
            "restarts": self.restarts,
            "per_shard": dict(sorted(self.per_shard.items())),
            "rejected_by_tenant": dict(
                sorted(self.rejected_by_tenant.items())
            ),
        }


class ShardRouter:
    """Consistent-hash request router over N shards.

    Args:
        shards: The shard set (:class:`LocalShard` /
            :class:`ProcessShard`, or anything with the same surface).
        slos: Per-tenant :class:`TenantSLO` overrides.
        default_slo: Applied to tenants absent from ``slos``.
        fingerprints: ``program key -> content fingerprint`` — the
            routing identity.  Missing keys route by name (aliases of
            the same content then still co-locate when the map is
            provided, which the CLI does from its client-side
            programs).
        replicas: Virtual nodes per shard on the ring.
    """

    def __init__(
        self,
        shards: Sequence,
        slos: dict[str, TenantSLO] | None = None,
        default_slo: TenantSLO | None = None,
        fingerprints: dict[str, str] | None = None,
        replicas: int = 64,
    ) -> None:
        if not shards:
            raise ServeError("router needs at least one shard")
        self.shards = {shard.shard_id: shard for shard in shards}
        if len(self.shards) != len(shards):
            raise ServeError("duplicate shard ids")
        self.ring = HashRing(replicas)
        for shard_id in self.shards:
            self.ring.add(shard_id)
        self.slos = dict(slos or {})
        self.default_slo = default_slo if default_slo is not None else TenantSLO()
        self.fingerprints = dict(fingerprints or {})
        self.stats = RouterStats()
        self._draining: set[str] = set()
        self._down: set[str] = set()
        self._tenant_inflight: dict[str, int] = {}
        self._shard_inflight: dict[str, int] = {}
        self._shard_idle: dict[str, asyncio.Event] = {}
        self._next_rid = 0
        self._rid_prefix = f"r{os.getpid():x}"

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        await asyncio.gather(
            *(shard.start() for shard in self.shards.values())
        )

    async def stop(self) -> None:
        await asyncio.gather(
            *(shard.stop() for shard in self.shards.values())
        )

    async def __aenter__(self) -> "ShardRouter":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- routing -------------------------------------------------------
    def route_key(self, program: str) -> str:
        return self.fingerprints.get(program, program)

    @property
    def excluded(self) -> set[str]:
        return self._draining | self._down

    def shard_for(self, program: str) -> str:
        """The shard currently owning a program's traffic."""
        return self.ring.lookup(self.route_key(program), exclude=self.excluded)

    def _track(self, shard_id: str, delta: int) -> None:
        count = self._shard_inflight.get(shard_id, 0) + delta
        self._shard_inflight[shard_id] = count
        event = self._shard_idle.get(shard_id)
        if event is None:
            event = self._shard_idle[shard_id] = asyncio.Event()
        if count == 0:
            event.set()
        else:
            event.clear()

    @staticmethod
    def _local_response(
        status: str, error: str | None, request_id: str | None = None
    ) -> dict:
        return {
            "status": status,
            "outputs": None,
            "batch": 0,
            "rows": 0,
            "error": error,
            "shard": None,
            "request_id": request_id or "",
        }

    async def submit(
        self,
        program: str,
        inputs,
        tenant: str = "default",
        deadline_s: float | None = None,
        max_wait_s: float | None = None,
        request_id: str | None = None,
    ) -> dict:
        """Route one request; returns the shard's wire-shape response
        plus ``"shard"``, the shard that served it.

        Applies tenant admission first (bounded in-flight, rejected
        beyond), injects the tenant SLO's deadline / max-wait defaults,
        then routes by content fingerprint with failover: a transport
        error marks the shard down and retries on the ring successor
        (safe — execution is pure).  ``request_id`` is minted here when
        the client didn't send one and forwarded unchanged across the
        hop, so one correlation id spans router, shard, and batcher —
        rejections and failover retries carry it too.
        """
        if not request_id:
            self._next_rid += 1
            request_id = f"req-{self._rid_prefix}-{self._next_rid:x}"
        slo = self.slos.get(tenant, self.default_slo)
        inflight = self._tenant_inflight.get(tenant, 0)
        if slo.max_inflight is not None and inflight >= slo.max_inflight:
            self.stats.rejected += 1
            self.stats.rejected_by_tenant[tenant] = (
                self.stats.rejected_by_tenant.get(tenant, 0) + 1
            )
            return self._local_response(
                "rejected",
                f"tenant {tenant!r} at admission bound "
                f"({slo.max_inflight} in flight)",
                request_id,
            )
        if deadline_s is None and slo.deadline_ms is not None:
            deadline_s = slo.deadline_ms / 1e3
        if max_wait_s is None and slo.max_wait_ms is not None:
            max_wait_s = slo.max_wait_ms / 1e3
        self._tenant_inflight[tenant] = inflight + 1
        try:
            tried: set[str] = set()
            while True:
                try:
                    shard_id = self.ring.lookup(
                        self.route_key(program),
                        exclude=self.excluded | tried,
                    )
                except ServeError:
                    self.stats.failed += 1
                    return self._local_response(
                        "error", "no healthy shard available", request_id
                    )
                shard = self.shards[shard_id]
                self._track(shard_id, +1)
                hop = (
                    trace.begin(
                        "router.hop", "serve",
                        shard=shard_id, program=program, tenant=tenant,
                        request_id=request_id or "",
                    )
                    if trace.is_on() else None
                )
                try:
                    doc = await shard.submit(
                        program, inputs, tenant=tenant,
                        deadline_s=deadline_s, max_wait_s=max_wait_s,
                        request_id=request_id,
                    )
                except _TRANSPORT_ERRORS as exc:
                    if hop is not None:
                        hop.set(error=type(exc).__name__).finish()
                    self._down.add(shard_id)
                    tried.add(shard_id)
                    self.stats.failovers += 1
                    continue
                finally:
                    self._track(shard_id, -1)
                if hop is not None:
                    hop.set(status=doc.get("status", "error")).finish()
                self.stats.routed += 1
                self.stats.per_shard[shard_id] = (
                    self.stats.per_shard.get(shard_id, 0) + 1
                )
                return dict(doc, shard=shard_id)
        finally:
            self._tenant_inflight[tenant] -= 1

    # -- drain / restart / health -------------------------------------
    async def drain(self, shard_id: str) -> None:
        """Gracefully take a shard out of rotation.

        Marks the shard draining *synchronously* (new requests for its
        keys re-route to the ring successor immediately), then waits
        for its in-flight requests to complete where they are.
        """
        if shard_id not in self.shards:
            raise ServeError(f"unknown shard {shard_id!r}")
        if not (self.ring.shards() - self.excluded - {shard_id}):
            raise ServeError(
                f"cannot drain {shard_id!r}: no other shard available"
            )
        self._draining.add(shard_id)
        self.stats.drains += 1
        if self._shard_inflight.get(shard_id, 0):
            await self._shard_idle[shard_id].wait()
        await self.shards[shard_id].drain()

    def readmit(self, shard_id: str) -> None:
        """Put a drained shard back in rotation (its keys come home)."""
        if shard_id not in self.shards:
            raise ServeError(f"unknown shard {shard_id!r}")
        self._draining.discard(shard_id)
        self._down.discard(shard_id)

    async def restart(self, shard_id: str) -> None:
        """Drain, restart over the warm cache, health-gate, re-admit."""
        await self.drain(shard_id)
        shard = self.shards[shard_id]
        await shard.restart()
        if not await shard.healthy():
            raise ServeError(
                f"shard {shard_id!r} failed its post-restart health check"
            )
        self.readmit(shard_id)
        self.stats.restarts += 1

    async def check_health(self) -> dict[str, bool]:
        """Probe every shard; re-admit recovered ones, exclude dead
        ones.  Draining shards stay excluded regardless."""
        health: dict[str, bool] = {}
        for shard_id, shard in self.shards.items():
            ok = await shard.healthy()
            health[shard_id] = ok
            if ok:
                self._down.discard(shard_id)
            else:
                self._down.add(shard_id)
        return health

    # -- observability -------------------------------------------------
    def programs(self) -> list[str]:
        names: dict[str, None] = {}
        for key in self.fingerprints:
            names.setdefault(key, None)
        for shard in self.shards.values():
            for key in shard.programs():
                names.setdefault(key, None)
        return sorted(names)

    def topology(self) -> dict:
        """Current ring assignment: shard states + key ownership."""
        owners: dict[str, str | None] = {}
        for program in self.programs():
            try:
                owners[program] = self.shard_for(program)
            except ServeError:
                owners[program] = None
        return {
            "replicas": self.ring.replicas,
            "shards": {
                shard_id: {
                    "state": (
                        "draining" if shard_id in self._draining
                        else "down" if shard_id in self._down
                        else "active"
                    ),
                    "inflight": self._shard_inflight.get(shard_id, 0),
                    "programs": sorted(
                        p for p, owner in owners.items() if owner == shard_id
                    ),
                }
                for shard_id in sorted(self.shards)
            },
            "programs": owners,
        }

    def stats_dict(self) -> dict:
        return {
            "router": self.stats.as_dict(),
            "shards": sorted(self.shards),
            "draining": sorted(self._draining),
            "down": sorted(self._down),
            "tenants_inflight": {
                t: n for t, n in sorted(self._tenant_inflight.items()) if n
            },
        }

    async def fleet_stats(self) -> dict:
        """Fleet rollup: aggregate throughput, per-tenant rejects, and
        per-shard health — the operator's one-glance view, served
        under ``"fleet"`` in the router's ``GET /stats``."""
        shard_stats: dict[str, dict] = {}
        for shard_id, shard in self.shards.items():
            try:
                shard_stats[shard_id] = await shard.stats()
            except _TRANSPORT_ERRORS:
                shard_stats[shard_id] = {}
        total_rows = sum(
            s.get("rows_executed", 0) for s in shard_stats.values()
        )
        rows_per_s = sum(
            s["rows_executed"] / s["uptime_s"]
            for s in shard_stats.values()
            if s.get("uptime_s")
        )
        return {
            "rows_executed": total_rows,
            "rows_per_s": round(rows_per_s, 3),
            "rejected_by_tenant": dict(
                sorted(self.stats.rejected_by_tenant.items())
            ),
            "shards": {
                shard_id: {
                    "state": (
                        "draining" if shard_id in self._draining
                        else "down" if shard_id in self._down
                        else "active"
                    ),
                    "healthy": bool(shard_stats[shard_id]),
                    "inflight": self._shard_inflight.get(shard_id, 0),
                    "requests": self.stats.per_shard.get(shard_id, 0),
                    "rows_executed": shard_stats[shard_id].get(
                        "rows_executed", 0
                    ),
                }
                for shard_id in sorted(self.shards)
            },
        }

    def metrics_text(self) -> str:
        """Prometheus exposition for the router front end's ``GET
        /metrics``: router totals, per-shard routing + health, and the
        process-wide registry.  Built fresh per scrape from the same
        counters ``/stats`` reports — one source of truth."""
        reg = MetricsRegistry()
        for name, help_, value in (
            ("routed", "Requests routed to a shard", self.stats.routed),
            ("rejected", "Requests refused by tenant admission",
             self.stats.rejected),
            ("failed", "Requests failed with no shard available",
             self.stats.failed),
            ("failovers", "Transport errors retried on a ring successor",
             self.stats.failovers),
            ("drains", "Shard drains", self.stats.drains),
            ("restarts", "Shard restarts", self.stats.restarts),
        ):
            reg.counter(f"repro_router_{name}_total", help_).set_total(value)
        shard_req = reg.counter(
            "repro_router_shard_requests_total",
            "Requests served, by shard",
            label_names=("shard",),
        )
        for shard_id, n in self.stats.per_shard.items():
            shard_req.set_total(n, shard=shard_id)
        tenant_rej = reg.counter(
            "repro_router_tenant_rejected_total",
            "Admission rejections, by tenant",
            label_names=("tenant",),
        )
        for tenant, n in self.stats.rejected_by_tenant.items():
            tenant_rej.set_total(n, tenant=tenant)
        up = reg.gauge(
            "repro_router_shard_up",
            "1 when the shard is in rotation, 0 when draining or down",
            label_names=("shard",),
        )
        for shard_id in self.shards:
            up.set(
                0.0 if shard_id in self.excluded else 1.0, shard=shard_id
            )
        reg.gauge(
            "repro_router_inflight",
            "Requests currently in flight across all shards",
        ).set(sum(self._shard_inflight.values()))
        return render_registries(reg, get_registry())


# ---------------------------------------------------------------------
# HTTP front end + oracle hook
# ---------------------------------------------------------------------
def router_dispatch(router: ShardRouter):
    """The router as an HTTP dispatch for
    :func:`repro.serve.http.start_http_server` — the service's routes
    plus ``/admin`` (topology, drain, restart)."""
    import json

    from .http import _BadRequest, header_request_id, parse_infer_body

    def _admin_shard(body: bytes) -> str:
        try:
            doc = json.loads(body.decode())
            shard_id = doc["shard"]
        except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
            raise _BadRequest(f"admin body must be {{\"shard\": id}}: {exc}")
        if not isinstance(shard_id, str):
            raise _BadRequest("shard must be a string")
        return shard_id

    async def dispatch(
        method: str,
        target: str,
        body: bytes,
        headers: dict[str, str] | None = None,
    ):
        if method == "POST" and target == "/infer":
            kwargs = parse_infer_body(body)
            # Header wins over the body field, same as the shard's own
            # front end — the id then rides the forwarded hop intact.
            kwargs["request_id"] = (
                header_request_id(headers) or kwargs["request_id"]
            )
            doc = await router.submit(**kwargs)
            outputs = doc.get("outputs")
            if outputs is not None:
                doc = dict(
                    doc,
                    outputs={str(node): v for node, v in outputs.items()},
                )
            return 200, doc
        if method == "GET" and target == "/stats":
            return 200, dict(
                router.stats_dict(), fleet=await router.fleet_stats()
            )
        if method == "GET" and target == "/metrics":
            return 200, router.metrics_text()
        if method == "GET" and target == "/healthz":
            health = await router.check_health()
            return 200, {
                "ok": any(
                    health.get(s) and s not in router._draining
                    for s in router.shards
                ),
                "programs": router.programs(),
                "shards": health,
            }
        if method == "GET" and target == "/admin/topology":
            return 200, router.topology()
        if method == "POST" and target == "/admin/drain":
            await router.drain(_admin_shard(body))
            return 200, {"ok": True, "draining": sorted(router._draining)}
        if method == "POST" and target == "/admin/restart":
            await router.restart(_admin_shard(body))
            return 200, {"ok": True}
        if target in ("/infer", "/stats", "/healthz", "/metrics",
                      "/admin/topology", "/admin/drain", "/admin/restart"):
            return 405, {"error": "method not allowed"}
        return 404, {"error": f"no route {target}"}

    return dispatch


class RouterSubmitter:
    """Load-harness submitter driving a :class:`ShardRouter`
    in-process — client-side routing with no extra proxy hop, what
    ``repro loadgen --router`` and the router benchmark use."""

    def __init__(self, router: ShardRouter) -> None:
        self.router = router

    async def submit(self, arrival, row) -> dict:
        return await self.router.submit(
            arrival.program, row, tenant=arrival.tenant
        )

    async def close(self) -> None:
        return None


def route_rows(
    plan,
    matrix: np.ndarray,
    max_batch: int,
    max_wait_s: float = 0.0,
    tenant: str = "oracle",
    num_shards: int = 2,
) -> dict[int, np.ndarray]:
    """Push a matrix through a live multi-shard router, bouncing the
    owning shard mid-stream.

    The differential oracle's routed entry point: every row becomes
    one request through a :class:`ShardRouter` over ``num_shards``
    :class:`LocalShard` services (all serving the plan), and midway
    the shard owning the program is drained and restarted — so the
    second half of the stream re-routes to the ring successor and the
    reassembled columns must *still* be bitwise identical to direct
    execution.  Runs its own event loop; call from synchronous code.

    Raises:
        ServeError: If any request resolves non-ok.
    """
    from .service import program_from_plan

    matrix = np.asarray(matrix, dtype=np.float64)
    if num_shards < 2:
        raise ServeError("route_rows needs >= 2 shards to exercise drain")

    async def _run() -> list[dict]:
        policy = BatchPolicy(
            max_batch=max_batch,
            max_wait_s=max_wait_s,
            max_queue=max(len(matrix) + 1, 1),
        )
        program = program_from_plan("scenario", plan)
        shards = []
        for i in range(num_shards):
            shard = LocalShard(f"shard{i}", policy=policy)
            shard.install(program)
            shards.append(shard)
        router = ShardRouter(
            shards, fingerprints={"scenario": program.fingerprint}
        )
        async with router:
            half = max(len(matrix) // 2, 1)
            docs = list(await asyncio.gather(*(
                router.submit("scenario", row, tenant=tenant)
                for row in matrix[:half]
            )))
            owner = router.shard_for("scenario")
            restart = asyncio.ensure_future(router.restart(owner))
            # One tick: restart() marks the owner draining before its
            # first await, so the second wave routes to the successor
            # while the owner bounces.
            await asyncio.sleep(0)
            second = [
                asyncio.ensure_future(
                    router.submit("scenario", row, tenant=tenant)
                )
                for row in matrix[half:]
            ]
            await restart
            if second:
                docs.extend(await asyncio.gather(*second))
            if router.stats.restarts != 1:
                raise ServeError(
                    "routed oracle did not restart the owning shard"
                )
            return docs

    docs = asyncio.run(_run())
    for i, doc in enumerate(docs):
        if doc["status"] != "ok":
            raise ServeError(
                f"routed request {i} resolved {doc['status']}: "
                f"{doc['error']}"
            )
    columns: dict[int, np.ndarray] = {}
    for var in plan.output_vars:
        columns[var] = np.array(
            [doc["outputs"][var] for doc in docs], dtype=np.float64
        )
    return columns
