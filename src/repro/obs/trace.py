"""Structured tracing: spans, ring buffers, Chrome/ledger exporters.

Design constraints, in order:

* **The disabled path is near-free.**  Every instrumentation site in
  hot code is guarded by :func:`is_on` (one module-global boolean
  read); :func:`span` returns a shared no-op context manager without
  allocating.  The ≤ 2 % overhead gate in
  ``benchmarks/bench_obs_overhead.py`` holds the layer to that.
* **Lock-free recording.**  Each thread owns a private ring buffer
  (fixed capacity, oldest-overwritten) registered once under a lock;
  recording a span afterwards touches only thread-local state.
* **Explicit, deterministic ids.**  Span ids are
  ``"<process-token>.<thread-seq>:<n>"`` — monotonic counters
  qualified by a process token (the pid by default, settable for
  resumable campaigns) so merged multi-process traces never collide
  and a resumed run re-derives the same ids from the same work.
* **Cross-process propagation.**  A campaign worker
  (:mod:`repro.runner.queue`) enables tracing under its own token,
  parents its spans to the coordinator's ``campaign.run`` span and
  ships them back through a span file; the coordinator adopts them
  with :func:`ingest`.

Timestamps are ``time.monotonic_ns`` (CLOCK_MONOTONIC is system-wide
on Linux, so coordinator and worker spans share one timeline).
"""

from __future__ import annotations

import gc
import json
import os
import threading
import time
from collections.abc import Callable
from functools import wraps
from pathlib import Path
from typing import Any

__all__ = [
    "Span",
    "begin",
    "current_span_id",
    "disable",
    "drain",
    "enable",
    "export_chrome",
    "export_ledger",
    "finish",
    "ingest",
    "ingest_chrome",
    "is_on",
    "sampled_span",
    "set_sample_every",
    "should_sample",
    "snapshot",
    "span",
    "traced",
    "validate_trace_events",
]

#: Default ring-buffer capacity (spans per thread).
DEFAULT_CAPACITY = 65536

_enabled = False
_process_token = ""
_capacity = DEFAULT_CAPACITY
_owner_pid = os.getpid()

_registry_lock = threading.Lock()
_rings: list["_Ring"] = []
_thread_seq = 0

_local = threading.local()

# Sampling support for per-call hot paths (fused kernel levels): a
# site records only every Nth hit even when tracing is on.
_sample_every = 16
_sample_counter = 0


class _Ring:
    """One thread's span buffer: fixed list, oldest overwritten."""

    __slots__ = ("buf", "capacity", "dropped", "n")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.buf: list[dict | None] = [None] * capacity
        self.n = 0  # total spans ever written
        self.dropped = 0

    def push(self, event: dict) -> None:
        i = self.n % self.capacity
        if self.buf[i] is not None:
            self.dropped += 1
        self.buf[i] = event
        self.n += 1

    def take(self) -> list[dict]:
        # Swap first, so a GC span pushed mid-take is never lost.
        old, self.buf = self.buf, [None] * self.capacity
        return [e for e in old if e is not None]


def _thread_state() -> tuple[_Ring, list[str]]:
    """This thread's (ring, span-id stack), creating on first use."""
    global _thread_seq
    ring = getattr(_local, "ring", None)
    if ring is None:
        with _registry_lock:
            _thread_seq += 1
            _local.seq = _thread_seq
            ring = _Ring(_capacity)
            _rings.append(ring)
        _local.stack = []
        _local.counter = 0
        _local.ring = ring  # last: _gc_hook records only once it is set
    return ring, _local.stack


def _next_id() -> str:
    if getattr(_local, "ring", None) is None:
        _thread_state()  # begin() with an explicit parent gets here
    _local.counter += 1
    return f"{_process_token}.{_local.seq}:{_local.counter}"


# ---------------------------------------------------------------------
# Lifecycle
# ---------------------------------------------------------------------
def _ensure_own_process() -> None:
    """Discard state inherited across a ``fork``.

    A forked worker starts with the parent's rings, id counters and
    process token: minting ids there would collide with the parent's
    future ids, and draining would re-ship spans the parent already
    buffered.  Reset once per new pid (spawned processes import fresh
    and never trigger this).
    """
    global _owner_pid, _rings, _thread_seq, _process_token
    pid = os.getpid()
    if pid == _owner_pid:
        return
    with _registry_lock:
        _owner_pid = pid
        _rings = []
        _thread_seq = 0
    _process_token = ""
    for attr in ("ring", "stack", "counter", "seq"):
        if hasattr(_local, attr):
            delattr(_local, attr)


def enable(
    process_token: str | None = None, capacity: int | None = None
) -> None:
    """Turn tracing on (idempotent).

    ``process_token`` qualifies every span id minted by this process;
    it defaults to the pid, which is unique among the live processes
    of one trace.  Pass an explicit token (e.g. a task id) when ids
    must be reproducible across a resume.
    """
    global _enabled, _process_token, _capacity
    _ensure_own_process()
    if process_token is not None:
        _process_token = str(process_token)
    elif not _process_token:
        _process_token = str(os.getpid())
    if capacity is not None:
        _capacity = max(16, int(capacity))
    _enabled = True
    if _gc_hook not in gc.callbacks:
        gc.callbacks.append(_gc_hook)


def disable() -> None:
    """Turn tracing off; buffered spans stay until :func:`drain`."""
    global _enabled
    _enabled = False
    if _gc_hook in gc.callbacks:
        gc.callbacks.remove(_gc_hook)


def _gc_hook(phase: str, info: dict) -> None:
    """Record each generation >= 1 collection as a ``gc.collect`` span
    under the current span (generation 0 would crowd the ring)."""
    if info["generation"] == 0 or getattr(_local, "ring", None) is None:
        return  # a thread without a ring may hold _registry_lock now
    if phase == "start":
        _local.gc_start_ns = time.monotonic_ns()
    elif hasattr(_local, "gc_start_ns"):
        begin(
            "gc.collect", "runtime", start_ns=_local.gc_start_ns,
            generation=info["generation"], collected=info["collected"],
        ).finish()


def is_on() -> bool:
    """The one check every instrumentation site makes first."""
    return _enabled


def set_sample_every(n: int) -> None:
    """Record one in ``n`` hits at sampled sites (default 16)."""
    global _sample_every
    _sample_every = max(1, int(n))


def should_sample() -> bool:
    """True when a sampled site should record this hit.

    Callers check :func:`is_on` first; this only spins the sampling
    counter (benign race under threads — sampling needs no precision).
    """
    global _sample_counter
    _sample_counter += 1
    return _sample_counter % _sample_every == 0


# ---------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------
class Span:
    """One in-flight span; finished via ``finish()`` or ``with``."""

    __slots__ = ("args", "cat", "name", "parent_id", "span_id", "start_ns")

    def __init__(
        self,
        name: str,
        cat: str,
        parent_id: str | None,
        args: dict | None,
        start_ns: int | None = None,
    ) -> None:
        self.name = name
        self.cat = cat
        self.span_id = _next_id()
        self.parent_id = parent_id
        self.args = dict(args) if args else {}
        self.start_ns = (
            time.monotonic_ns() if start_ns is None else int(start_ns)
        )

    def set(self, **args: Any) -> "Span":
        """Attach arguments after the fact (counts discovered late)."""
        self.args.update(args)
        return self

    def finish(self) -> None:
        end_ns = time.monotonic_ns()
        ring, _stack = _thread_state()
        ring.push(
            {
                "name": self.name,
                "cat": self.cat,
                "id": self.span_id,
                "parent": self.parent_id,
                "ts": self.start_ns // 1000,  # µs, Chrome's unit
                "dur": max(0, (end_ns - self.start_ns) // 1000),
                "pid": os.getpid(),
                "tid": getattr(_local, "seq", 0),
                "args": self.args,
            }
        )

    # Context-manager form maintains the per-thread parent stack.
    def __enter__(self) -> "Span":
        _ring, stack = _thread_state()
        stack.append(self.span_id)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _ring, stack = _thread_state()
        if stack and stack[-1] == self.span_id:
            stack.pop()
        if exc_type is not None:
            self.args.setdefault("error", exc_type.__name__)
        self.finish()
        return False


class _NullSpan:
    """Shared no-op stand-in when tracing is disabled."""

    __slots__ = ()
    span_id = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, **args: Any) -> "_NullSpan":
        return self

    def finish(self) -> None:
        return None


_NULL_SPAN = _NullSpan()


def span(name: str, cat: str = "app", **args: Any):
    """Context manager recording one span (no-op when disabled).

    Parentage follows the per-thread stack of open ``with`` spans —
    right for synchronous call trees.  Code that interleaves work
    across ``await`` points should use :func:`begin`/:func:`finish`
    with an explicit parent instead.
    """
    if not _enabled:
        return _NULL_SPAN
    _ring, stack = _thread_state()
    parent = stack[-1] if stack else None
    return Span(name, cat, parent, args)


def sampled_span(name: str, cat: str = "app", **args: Any):
    """Like :func:`span`, but records only one in
    :func:`set_sample_every` hits — for per-batch hot paths."""
    if not _enabled or not should_sample():
        return _NULL_SPAN
    _ring, stack = _thread_state()
    parent = stack[-1] if stack else None
    return Span(name, cat, parent, args)


def begin(
    name: str,
    cat: str = "app",
    parent: str | None = None,
    start_ns: int | None = None,
    **args: Any,
):
    """Open a span with an explicit parent (async lifecycles).

    ``start_ns`` back-dates the span to an earlier monotonic instant
    — how the serve layer stamps a request span from its recorded
    submission time when the response resolves.
    """
    if not _enabled:
        return _NULL_SPAN
    if parent is None:
        _ring, stack = _thread_state()
        parent = stack[-1] if stack else None
    return Span(name, cat, parent, args, start_ns=start_ns)


def finish(sp) -> None:
    """Finish a span returned by :func:`begin`."""
    sp.finish()


def current_span_id() -> str | None:
    """Id of the innermost open ``with`` span on this thread."""
    if not _enabled:
        return None
    _ring, stack = _thread_state()
    return stack[-1] if stack else None


def traced(name: str | None = None, cat: str = "app"):
    """Decorator form: ``@traced()`` wraps the call in a span."""

    def decorate(fn: Callable) -> Callable:
        label = name or fn.__qualname__

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if not _enabled:
                return fn(*args, **kwargs)
            with span(label, cat):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


# ---------------------------------------------------------------------
# Draining & export
# ---------------------------------------------------------------------
def snapshot() -> list[dict]:
    """Copy of every buffered span (all threads), timestamp-ordered."""
    with _registry_lock:
        rings = list(_rings)
    events: list[dict] = []
    for ring in rings:
        events.extend(e for e in ring.buf if e is not None)
    events.sort(key=lambda e: (e["ts"], e["id"]))
    return events


def drain() -> list[dict]:
    """Remove and return every buffered span, timestamp-ordered."""
    with _registry_lock:
        rings = list(_rings)
    events: list[dict] = []
    for ring in rings:
        events.extend(ring.take())
    events.sort(key=lambda e: (e["ts"], e["id"]))
    return events


def self_times(events: list[dict]) -> dict[str, int]:
    """Self time (µs) of every span, keyed by span id: its duration
    minus the part of it its children cover (merged, clipped to it)."""
    children: dict[str | None, list[dict]] = {}
    for e in events:
        children.setdefault(e.get("parent"), []).append(e)
    out: dict[str, int] = {}
    for e in events:
        end, reach, covered = e["ts"] + e["dur"], e["ts"], 0
        for child in sorted(children.get(e["id"], ()), key=lambda c: c["ts"]):
            lo = max(child["ts"], reach)
            hi = min(child["ts"] + child["dur"], end)
            if hi > lo:
                covered, reach = covered + hi - lo, hi
        out[e["id"]] = e["dur"] - covered
    return out


def ingest(events: list[dict]) -> None:
    """Adopt spans recorded elsewhere (a worker process) verbatim."""
    if not events:
        return
    ring, _stack = _thread_state()
    for event in events:
        ring.push(event)


def to_chrome_events(events: list[dict]) -> list[dict]:
    """Map internal span dicts to Chrome trace-event ``ph="X"`` form."""
    out = []
    for e in events:
        args = dict(e.get("args") or {})
        args["span_id"] = e["id"]
        if e.get("parent"):
            args["parent_id"] = e["parent"]
        out.append(
            {
                "name": e["name"],
                "cat": e["cat"],
                "ph": "X",
                "ts": e["ts"],
                "dur": e["dur"],
                "pid": e["pid"],
                "tid": e["tid"],
                "args": args,
            }
        )
    return out


def export_chrome(
    path: str | os.PathLike, events: list[dict] | None = None
) -> int:
    """Write spans as Chrome trace-event JSON; returns span count.

    Load the file at https://ui.perfetto.dev (or chrome://tracing).
    Defaults to draining the buffers so a process exports exactly
    once.
    """
    if events is None:
        events = drain()
    doc = {
        "traceEvents": to_chrome_events(events),
        "displayTimeUnit": "ms",
    }
    Path(path).write_text(json.dumps(doc) + "\n")
    return len(events)


def export_ledger(
    path: str | os.PathLike, events: list[dict] | None = None
) -> int:
    """Append spans as ``type="span"`` records to a campaign ledger
    (checksummed, torn-write-safe) for durable post-mortem."""
    from ..runner.ledger import CampaignLedger

    if events is None:
        events = drain()
    with CampaignLedger(path) as ledger:
        for e in events:
            ledger.append({"type": "span", **e})
    return len(events)


def ingest_chrome(doc: dict) -> int:
    """Adopt spans from a Chrome trace-event document (the inverse of
    :func:`export_chrome`) — how a coordinator merges the trace files
    its shard subprocesses exported into one timeline.  Span ids stay
    process-qualified, so merged ids never collide; CLOCK_MONOTONIC is
    system-wide, so the timestamps already share one clock."""
    events: list[dict] = []
    for e in doc.get("traceEvents", []):
        if e.get("ph") != "X":
            continue
        args = dict(e.get("args") or {})
        events.append(
            {
                "name": e.get("name", "?"),
                "cat": e.get("cat", "app"),
                "id": args.pop("span_id", None),
                "parent": args.pop("parent_id", None),
                "ts": e.get("ts", 0),
                "dur": e.get("dur", 0),
                "pid": e.get("pid", 0),
                "tid": e.get("tid", 0),
                "args": args,
            }
        )
    ingest(events)
    return len(events)


def validate_trace_events(doc: dict) -> list[dict]:
    """Check a Chrome trace-event document is well-formed.

    Returns the event list; raises ``ValueError`` naming the first
    malformed event otherwise.  Used by the CI obs-smoke job and the
    span-tree tests.
    """
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError("not a trace-event document (no traceEvents)")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("traceEvents is not a list")
    seen_ids: set[str] = set()
    for i, e in enumerate(events):
        for key in ("name", "ph", "ts", "pid", "tid"):
            if key not in e:
                raise ValueError(f"event {i} missing {key!r}: {e!r}")
        if e["ph"] == "X" and "dur" not in e:
            raise ValueError(f"complete event {i} missing dur: {e!r}")
        sid = (e.get("args") or {}).get("span_id")
        if sid is not None:
            if sid in seen_ids:
                raise ValueError(f"duplicate span_id {sid!r}")
            seen_ids.add(sid)
    return events
