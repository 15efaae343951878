"""Shared pieces of the benchmark: spans, statistics, host facts.

Nothing here imports :mod:`repro`; the workload modules do, after
``run.py`` has pinned the environment the package reads at import.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import resource
import socket
import statistics
import time
from dataclasses import dataclass, field

#: Compiler passes ``compile_dag`` times in ``CompileStats.step_seconds``.
PASSES = ("binarize", "decompose", "map", "schedule", "reorder", "spill",
          "regalloc")
#: Minimum number of samples beyond the reported tail percentile.
TAIL_BEYOND = 10
#: Percentiles a tail is reported at; the highest one that still has
#: TAIL_BEYOND samples beyond it wins.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans


class Tracer:
    """In-memory span recorder for the traced run.

    Spans carry a name, start, end and the index of their parent; they
    stay in memory until :meth:`self_times` folds them.  A disabled
    tracer records nothing, so untraced runs pay one attribute check.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def begin(self, name: str, start: float | None = None) -> int:
        if not self.enabled:
            return -1
        parent = self._stack[-1] if self._stack else None
        now = time.perf_counter() if start is None else start
        self.spans.append(Span(name, now, now, parent))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int, end: float | None = None) -> None:
        if index < 0:
            return
        self.spans[index].end = time.perf_counter() if end is None else end
        popped = self._stack.pop()
        assert popped == index, "spans must close innermost first"

    def record(
        self, name: str, start: float, end: float, parent: int | None
    ) -> int:
        """Add an already-closed span (e.g. rebuilt from timestamps)."""
        if not self.enabled:
            return -1
        self.spans.append(Span(name, start, end, parent))
        return len(self.spans) - 1

    def self_times(self) -> tuple[dict[str, float], float, int]:
        """``(self seconds per span name, root wall seconds, roots)``.

        A span's self time is its duration minus the part of it its
        children cover (overlapping children are merged first).  Root
        spans are the ops; their self time is what no layer claimed.
        """
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        selfs: dict[str, float] = {}
        wall = 0.0
        roots = 0
        for i, span in enumerate(self.spans):
            covered = 0.0
            lo = hi = None
            for child in sorted(children.get(i, ()), key=lambda s: s.start):
                a, b = max(child.start, span.start), min(child.end, span.end)
                if b <= a:
                    continue
                if hi is None or a > hi:
                    if hi is not None:
                        covered += hi - lo
                    lo, hi = a, b
                else:
                    hi = max(hi, b)
            if hi is not None:
                covered += hi - lo
            duration = span.end - span.start
            selfs[span.name] = selfs.get(span.name, 0.0) + duration - covered
            if span.parent is None:
                wall += duration
                roots += 1
        return selfs, wall, roots


def median(values) -> float:
    return float(statistics.median(values))


def quantile(values, q: float) -> float:
    """Nearest-rank quantile, ``0 < q <= 1``."""
    ordered = sorted(values)
    return float(ordered[max(math.ceil(q * len(ordered)) - 1, 0)])


def tail(values) -> tuple[float, float, int]:
    """``(value, percentile, samples)`` at the highest percentile of
    :data:`PERCENTILES` that has :data:`TAIL_BEYOND` samples beyond it
    (nearest rank; the median when no listed percentile qualifies)."""
    ordered = sorted(values)
    n = len(ordered)
    chosen = PERCENTILES[0]
    for pct in PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= TAIL_BEYOND:
            chosen = pct
    return quantile(ordered, chosen / 100.0), chosen, n


def latency_summary(phases) -> tuple[float, float, float, int]:
    """``(p50, tail, tail percentile, samples per phase)``: medians over
    the phases of each phase's nearest-rank p50 and tail."""
    tails = [tail(phase) for phase in phases]
    return (
        median(quantile(phase, 0.5) for phase in phases),
        median(t[0] for t in tails),
        tails[0][1],
        tails[0][2],
    )


def _probe_once_ms() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i
    return (time.perf_counter() - t0) * 1e3


def probe_ms(reps: int = 5) -> list[float]:
    """Times of a fixed pure-Python loop: tracks the host's CPU speed."""
    return [_probe_once_ms() for _ in range(reps)]


#: Probe time the CPU-bound workloads quote their op times at: a scaled
#: time is what the op would have taken on a host whose probe reads
#: this many ms.
REFERENCE_PROBE_MS = 8.0


class HostSpeed:
    """The probe, interleaved with a CPU-bound workload's ops.

    A shared host's speed drifts by tens of percent within minutes.
    Each :meth:`scale` call closes a stretch of ops and returns the
    factor that quotes their times at :data:`REFERENCE_PROBE_MS`, from
    the probes taken just before and just after them.  The probes run
    outside the timed ops.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.factors: list[float] = []
        self._last = self._sample()

    def _sample(self) -> float:
        # The median of three resists a burst that hits one probe.
        ms = median(probe_ms(3))
        self.samples.append(ms)
        return ms

    def scale(self) -> float:
        before, self._last = self._last, self._sample()
        factor = REFERENCE_PROBE_MS / ((before + self._last) / 2.0)
        self.factors.append(factor)
        return factor

    def notes(self) -> dict:
        return {
            "probe_during_ms": median(self.samples),
            "host_scale": median(self.factors),
        }


def host_fingerprint() -> dict:
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "hostname": socket.gethostname(),
    }


def peak_rss_mb() -> float:
    """Largest of this process's and its biggest child's resident set."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def settle() -> None:
    """Between ops, outside timing: drop garbage from the last op."""
    gc.collect()


@dataclass
class Outcome:
    """What a workload hands back to ``run.py``."""

    attempted: int
    failed: int
    setup_s: float
    throughput_per_s: float
    #: Op latencies, one list per measuring phase; p50 and tail are the
    #: medians of the phases' figures.
    latency_phases_ms: list[list[float]]
    #: Exact simulated counts, summed over the workload's programs.
    cycles: int
    energy_nj: float
    instructions: int
    #: Per-layer metrics this workload measures (name -> value).
    layers: dict[str, float] = field(default_factory=dict)
    #: Extra facts for the run record (sample counts, percentiles...).
    notes: dict = field(default_factory=dict)

