"""Dynamic micro-batching: per-program queues + coalescing policy.

The batcher is the heart of the serving layer: requests for one
program land in a FIFO queue, and a per-program collector task
coalesces them into micro-batches under a two-bound policy —

* **max_batch** — a batch dispatches as soon as it holds this many
  requests (the throughput bound: one vectorized sweep amortizes the
  per-step Python cost over the whole batch);
* **max_wait** — a batch dispatches at the latest ``max_wait`` seconds
  after its *first* request arrived (the latency bound: a lone request
  never waits longer than the knob, full batch or not).

Two entry points share the policy logic:

* :func:`plan_batches` — the *pure* coalescing law: given a sorted
  arrival-time schedule, return the exact batch partition an unloaded
  server would form.  Deterministic, loop-free, used by the property
  tests and for offline what-if analysis of traffic traces;
* :class:`MicroBatcher` — the live asyncio engine: per-key queues,
  greedy drain, a ``max_wait`` timer, bounded-depth admission control
  (backpressure) and strictly FIFO dispatch per key, delivering each
  batch to an async callback.

The batcher is generic over the item type: the service enqueues
request/future pairs, the tests enqueue integers.
"""

from __future__ import annotations

import asyncio
from collections.abc import Awaitable, Callable, Sequence
from dataclasses import dataclass, field

from ..errors import ServeError
from ..obs import trace


@dataclass(frozen=True)
class BatchPolicy:
    """The micro-batching knobs.

    Attributes:
        max_batch: Dispatch a batch at this size (>= 1).  1 disables
            coalescing entirely — the batch-1 serving baseline.
        max_wait_s: Dispatch at the latest this many seconds after the
            batch's first request arrived (>= 0; 0 means "whatever is
            already queued", never an artificial wait).
        max_queue: Per-program admission bound — counting queued *and*
            in-flight requests; beyond it, new submissions are
            rejected (backpressure) instead of growing the queue
            without bound.
    """

    max_batch: int = 64
    max_wait_s: float = 0.002
    max_queue: int = 1024

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ServeError(
                f"max_batch must be >= 1, got {self.max_batch}"
            )
        if self.max_wait_s < 0:
            raise ServeError(
                f"max_wait_s must be >= 0, got {self.max_wait_s}"
            )
        if self.max_queue < 1:
            raise ServeError(
                f"max_queue must be >= 1, got {self.max_queue}"
            )


def plan_batches(
    arrival_times: Sequence[float],
    policy: BatchPolicy,
    wait_hints: Sequence[float | None] | None = None,
) -> list[list[int]]:
    """The coalescing law as a pure function.

    Given the sorted arrival times of one program's requests, return
    the batch partition (lists of request indices) an unloaded server
    would form under ``policy``: each batch opens at its first
    member's arrival, admits arrivals until ``max_wait_s`` later, and
    closes early at ``max_batch`` members.

    ``wait_hints`` optionally carries a per-request max-wait override
    (``None`` = the policy default) — the SLO mechanism the shard
    router uses for latency-class tenants.  A batch's closing time is
    the *minimum* over its members of ``arrival + wait``: no request
    ever waits longer than its own bound, and with no hints the
    minimum sits at the first member's arrival — the policy law.

    This is exactly what :class:`MicroBatcher` converges to when the
    executor is never the bottleneck (both anchor every batch's
    ``max_wait`` clock to its first member's *arrival*, not to when a
    collector got around to it), and the reference model the property
    tests check invariants against (no index lost, none duplicated,
    order preserved, both bounds respected).

    Raises:
        ServeError: If ``arrival_times`` is not sorted, or
            ``wait_hints`` has a different length.
    """
    if wait_hints is not None and len(wait_hints) != len(arrival_times):
        raise ServeError(
            f"wait_hints must match arrival_times: "
            f"{len(wait_hints)} != {len(arrival_times)}"
        )

    def wait_of(i: int) -> float:
        hint = wait_hints[i] if wait_hints is not None else None
        return policy.max_wait_s if hint is None else max(hint, 0.0)

    batches: list[list[int]] = []
    current: list[int] = []
    close_at = 0.0
    last = float("-inf")
    for i, t in enumerate(arrival_times):
        if t < last:
            raise ServeError(
                f"arrival_times must be sorted, saw {t} after {last}"
            )
        last = t
        if current and t > close_at:
            batches.append(current)
            current = []
        if not current:
            close_at = t + wait_of(i)
        else:
            close_at = min(close_at, t + wait_of(i))
        current.append(i)
        if len(current) >= policy.max_batch:
            batches.append(current)
            current = []
    if current:
        batches.append(current)
    return batches


@dataclass
class BatcherStats:
    """Dispatch totals, observable while the batcher runs.

    Plain counts, rendered as counters only when the service's ``GET
    /metrics`` is scraped (:meth:`~repro.serve.service.
    InferenceService.metrics_text`).  ``batch_sizes`` (exact size ->
    batches dispatched at that size) is the one per-batch record:
    ``batches``, ``dispatched``, ``mean_batch`` and the
    ``repro_batcher_batch_size`` histogram are all derived from it.
    """

    submitted: int = 0
    rejected: int = 0
    batch_sizes: dict[int, int] = field(default_factory=dict)

    @property
    def batches(self) -> int:
        return sum(self.batch_sizes.values())

    @property
    def dispatched(self) -> int:
        return sum(size * n for size, n in self.batch_sizes.items())

    @property
    def mean_batch(self) -> float:
        batches = self.batches
        return self.dispatched / batches if batches else 0.0

    def record_batch(self, size: int) -> None:
        self.batch_sizes[size] = self.batch_sizes.get(size, 0) + 1


class MicroBatcher:
    """Live per-key micro-batching over asyncio queues.

    Args:
        policy: The coalescing bounds.
        on_batch: ``async (key, items) -> None`` invoked with each
            dispatched batch.  Per key, invocations are strictly
            sequential and FIFO — a program's batch N+1 is not formed
            until batch N's callback returned, so within-program
            response order equals submission order by construction.
    """

    def __init__(
        self,
        policy: BatchPolicy,
        on_batch: Callable[[str, list], Awaitable[None]],
    ) -> None:
        self.policy = policy
        self.on_batch = on_batch
        self.stats = BatcherStats()
        self._queues: dict[str, asyncio.Queue] = {}
        self._collectors: dict[str, asyncio.Task] = {}
        self._depth: dict[str, int] = {}
        self._idle = asyncio.Event()
        self._idle.set()
        self._closed = False
        #: Last exception an ``on_batch`` callback leaked (diagnostic).
        self.last_error: Exception | None = None

    # -- submission ----------------------------------------------------
    def submit_nowait(self, key: str, item, wait_s: float | None = None) -> bool:
        """Enqueue one item; returns False when backpressure rejects it.

        ``wait_s`` optionally overrides the policy's ``max_wait_s``
        for this item (the router's per-tenant SLO hook): the batch it
        lands in dispatches no later than this item's arrival plus
        ``wait_s``.  Rejection is immediate and leaves no trace in the
        queue — the caller owns telling the requester.
        """
        if self._closed:
            raise ServeError("batcher is closed")
        self.stats.submitted += 1
        if self._depth.get(key, 0) >= self.policy.max_queue:
            self.stats.rejected += 1
            return False
        queue = self._queues.get(key)
        if queue is None:
            queue = self._queues[key] = asyncio.Queue()
            self._collectors[key] = asyncio.get_running_loop().create_task(
                self._collect(key, queue)
            )
        self._depth[key] = self._depth.get(key, 0) + 1
        self._idle.clear()
        # The enqueue timestamp rides along so the collector can
        # anchor the batch's max_wait clock to the first member's
        # *arrival* — matching plan_batches — even when it dequeues
        # late because the previous batch was still executing.
        queue.put_nowait(
            (item, asyncio.get_running_loop().time(), wait_s)
        )
        return True

    @property
    def depth(self) -> int:
        """Queued + in-flight items across all keys."""
        return sum(self._depth.values())

    def key_depth(self, key: str) -> int:
        return self._depth.get(key, 0)

    # -- collection ----------------------------------------------------
    async def _collect(self, key: str, queue: asyncio.Queue) -> None:
        loop = asyncio.get_running_loop()
        policy = self.policy

        def deadline(entry) -> float:
            _, enqueued_at, wait_s = entry
            wait = policy.max_wait_s if wait_s is None else max(wait_s, 0.0)
            return enqueued_at + wait

        while True:
            first = await queue.get()
            batch = [first]
            # Anchored at the first member's enqueue time (the same
            # event plan_batches anchors to), tightened by any
            # member's own wait hint — never at collector wake-up.
            close_at = deadline(first)
            while len(batch) < policy.max_batch:
                # Greedy drain first: anything already queued joins
                # without touching the clock.
                try:
                    entry = queue.get_nowait()
                except asyncio.QueueEmpty:
                    pass
                else:
                    batch.append(entry)
                    close_at = min(close_at, deadline(entry))
                    continue
                timeout = close_at - loop.time()
                if timeout <= 0:
                    break
                try:
                    entry = await asyncio.wait_for(queue.get(), timeout)
                except asyncio.TimeoutError:
                    break
                batch.append(entry)
                close_at = min(close_at, deadline(entry))
            self.stats.record_batch(len(batch))
            if trace.is_on():
                # Batch-assembly span, back-dated to the first
                # member's enqueue (the instant the batch opened).
                trace.begin(
                    "serve.assemble",
                    "serve",
                    parent=None,
                    start_ns=int(batch[0][1] * 1e9),
                    program=key,
                    size=len(batch),
                ).finish()
            items = [item for item, _, _ in batch]
            try:
                await self.on_batch(key, items)
            except Exception as exc:  # keep the collector alive: one
                # failed dispatch must not wedge every later request
                # for the key.  The service's callback resolves its
                # futures before raising; anything else lands here.
                self.last_error = exc
            finally:
                self._depth[key] -= len(batch)
                if self.depth == 0:
                    self._idle.set()

    # -- lifecycle -----------------------------------------------------
    async def drain(self) -> None:
        """Wait until every queued item has been dispatched and its
        ``on_batch`` callback completed."""
        await self._idle.wait()

    async def close(self) -> None:
        """Drain, then stop all collector tasks."""
        self._closed = True
        await self.drain()
        for task in self._collectors.values():
            task.cancel()
        for task in self._collectors.values():
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._collectors.clear()
        self._queues.clear()
