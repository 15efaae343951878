"""Zero-dependency observability layer: traces, metrics, profiling.

Two small modules, stdlib-only, wired through every subsystem:

* :mod:`repro.obs.trace` — structured spans (context manager,
  decorator, or explicit begin/finish), recorded into lock-free
  per-thread ring buffers and exported to Chrome trace-event JSON
  (Perfetto-viewable) or to the durable campaign-ledger format.
  Span context propagates to the durable queue's worker processes
  (every ``parallel_map`` with ``jobs > 1``), whose spans are merged
  parent-linked on the coordinator.
* :mod:`repro.obs.metrics` — counters / gauges / fixed-bucket
  histograms in process-local registries with Prometheus text
  exposition, scraped via ``GET /metrics`` on the serve and router
  front ends.

The null path is near-free: with tracing disabled every
instrumentation site costs one module-global boolean check (gated
≤ 2 % on the fused-batch and serve benchmarks by
``benchmarks/bench_obs_overhead.py``).
"""

from . import metrics, trace

__all__ = ["metrics", "trace"]
