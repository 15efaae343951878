"""Process-local metrics: counters, gauges, histograms, Prometheus text.

A :class:`MetricsRegistry` is a named collection of metrics rendered
to Prometheus text-exposition format 0.0.4 (`# HELP` / `# TYPE`
comments, cumulative ``_bucket{le=...}`` histograms ending at
``+Inf``).  Components own private registries so two service
instances in one process never alias each other's counts; the
module-level :func:`get_registry` singleton holds process-wide
metrics (compiler, fused engine, campaign queue) and scrape
endpoints concatenate with :func:`render_registries`.

Increments are plain in-place adds — metrics are process-local and
written from one thread (or under the GIL where not); this layer
buys exposition and structure, not cross-thread precision.

:func:`parse_prometheus` is the inverse of rendering — used by the
grammar round-trip tests and by the router's fleet rollup to fold
shard scrapes together.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Any

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "parse_prometheus",
    "render_registries",
]

#: Default histogram buckets: latency-flavored seconds, 100 µs – 10 s.
DEFAULT_BUCKETS = (
    0.0001,
    0.0005,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _label_str(names: tuple[str, ...], values: tuple[str, ...]) -> str:
    if not names:
        return ""
    inner = ",".join(
        f'{n}="{_escape_label(v)}"' for n, v in zip(names, values)
    )
    return "{" + inner + "}"


class _Metric:
    """Shared base: a name, help text, and fixed label names."""

    kind = "untyped"

    def __init__(
        self, name: str, help: str, label_names: tuple[str, ...] = ()
    ) -> None:
        self.name = _check_name(name)
        self.help = help
        self.label_names = tuple(label_names)
        for label in self.label_names:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")

    def _key(self, labels: dict[str, Any]) -> tuple[str, ...]:
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name}: expected labels {self.label_names}, "
                f"got {tuple(labels)}"
            )
        return tuple(str(labels[n]) for n in self.label_names)

    def samples(self) -> list[tuple[str, str, float]]:
        """``(name, label-string, value)`` rows for exposition."""
        raise NotImplementedError

    def render(self) -> str:
        lines = [
            f"# HELP {self.name} {_escape_help(self.help)}",
            f"# TYPE {self.name} {self.kind}",
        ]
        lines.extend(
            f"{name}{labels} {_format_value(value)}"
            for name, labels, value in self.samples()
        )
        return "\n".join(lines)


class Counter(_Metric):
    """Monotonically increasing count (per label set)."""

    kind = "counter"

    def __init__(
        self, name: str, help: str, label_names: tuple[str, ...] = ()
    ) -> None:
        super().__init__(name, help, label_names)
        self._values: dict[tuple[str, ...], float] = {}
        if not self.label_names:
            self._values[()] = 0.0

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def set_total(self, value: float, **labels: Any) -> None:
        """Overwrite the running total: the render path for a count
        kept as a plain integer elsewhere, copied into a registry
        built per scrape (``InferenceService.metrics_text``,
        ``ShardRouter.metrics_text``)."""
        self._values[self._key(labels)] = float(value)

    def value(self, **labels: Any) -> float:
        return self._values.get(self._key(labels), 0.0)

    def samples(self) -> list[tuple[str, str, float]]:
        return [
            (self.name, _label_str(self.label_names, key), value)
            for key, value in sorted(self._values.items())
        ]


class Gauge(_Metric):
    """A value that can go up and down (queue depth, shard count)."""

    kind = "gauge"

    def __init__(
        self, name: str, help: str, label_names: tuple[str, ...] = ()
    ) -> None:
        super().__init__(name, help, label_names)
        self._values: dict[tuple[str, ...], float] = {}
        if not self.label_names:
            self._values[()] = 0.0

    def set(self, value: float, **labels: Any) -> None:
        self._values[self._key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: Any) -> float:
        return self._values.get(self._key(labels), 0.0)

    def samples(self) -> list[tuple[str, str, float]]:
        return [
            (self.name, _label_str(self.label_names, key), value)
            for key, value in sorted(self._values.items())
        ]


class Histogram(_Metric):
    """Fixed-bucket histogram with cumulative Prometheus exposition.

    Buckets are upper bounds (``le``); the implicit ``+Inf`` bucket
    always equals the observation count.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        label_names: tuple[str, ...] = (),
    ) -> None:
        super().__init__(name, help, label_names)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket")
        if len(set(bounds)) != len(bounds):
            raise ValueError("duplicate histogram buckets")
        if bounds and bounds[-1] == math.inf:
            bounds = bounds[:-1]  # +Inf is implicit
        self.buckets = bounds
        # per label set: ([per-bucket counts], sum, count)
        self._series: dict[tuple[str, ...], list] = {}
        if not self.label_names:
            self._series[()] = [[0] * len(self.buckets), 0.0, 0]

    def observe(self, value: float, count: int = 1, **labels: Any) -> None:
        """Record ``value`` ``count`` times (a histogram rendered at
        scrape time from an exact ``value -> count`` record)."""
        key = self._key(labels)
        series = self._series.get(key)
        if series is None:
            series = [[0] * len(self.buckets), 0.0, 0]
            self._series[key] = series
        counts, _total, _n = series
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                counts[i] += count
                break
        series[1] += value * count
        series[2] += count

    def count(self, **labels: Any) -> int:
        series = self._series.get(self._key(labels))
        return series[2] if series else 0

    def sum(self, **labels: Any) -> float:
        series = self._series.get(self._key(labels))
        return series[1] if series else 0.0

    def cumulative(self, **labels: Any) -> list[int]:
        """Cumulative counts per bucket, ending with the +Inf total."""
        series = self._series.get(self._key(labels))
        if series is None:
            return [0] * (len(self.buckets) + 1)
        out, running = [], 0
        for c in series[0]:
            running += c
            out.append(running)
        out.append(series[2])
        return out

    def samples(self) -> list[tuple[str, str, float]]:
        rows: list[tuple[str, str, float]] = []
        for key, (counts, total, n) in sorted(self._series.items()):
            running = 0
            for bound, c in zip(self.buckets, counts):
                running += c
                labels = _label_str(
                    self.label_names + ("le",),
                    key + (_format_value(bound),),
                )
                rows.append((self.name + "_bucket", labels, running))
            inf_labels = _label_str(
                self.label_names + ("le",), key + ("+Inf",)
            )
            rows.append((self.name + "_bucket", inf_labels, n))
            plain = _label_str(self.label_names, key)
            rows.append((self.name + "_sum", plain, total))
            rows.append((self.name + "_count", plain, n))
        return rows


class MetricsRegistry:
    """Named get-or-create collection of metrics."""

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, args: tuple, kwargs: dict):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"{name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}"
                    )
                return existing
            metric = cls(name, *args, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help: str, label_names: tuple[str, ...] = ()
    ) -> Counter:
        return self._get_or_create(
            Counter, name, (help,), {"label_names": label_names}
        )

    def gauge(
        self, name: str, help: str, label_names: tuple[str, ...] = ()
    ) -> Gauge:
        return self._get_or_create(
            Gauge, name, (help,), {"label_names": label_names}
        )

    def histogram(
        self,
        name: str,
        help: str,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        label_names: tuple[str, ...] = (),
    ) -> Histogram:
        return self._get_or_create(
            Histogram,
            name,
            (help,),
            {"buckets": buckets, "label_names": label_names},
        )

    def metrics(self) -> list[_Metric]:
        with self._lock:
            return [self._metrics[k] for k in sorted(self._metrics)]

    def render(self) -> str:
        """Prometheus text exposition (trailing newline included)."""
        parts = [m.render() for m in self.metrics()]
        return "\n".join(parts) + "\n" if parts else ""


_global_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry (compiler, engines, campaign queue)."""
    return _global_registry


def render_registries(*registries: MetricsRegistry) -> str:
    """Concatenate several registries into one exposition document.

    Metric names must be disjoint across registries (they are by
    construction: per-component registries use per-component
    prefixes); on a clash the first registration wins.
    """
    seen: set[str] = set()
    parts: list[str] = []
    for registry in registries:
        for metric in registry.metrics():
            if metric.name in seen:
                continue
            seen.add(metric.name)
            parts.append(metric.render())
    return "\n".join(parts) + "\n" if parts else ""


# ---------------------------------------------------------------------
# Parsing (round-trip tests, fleet rollup over shard scrapes)
# ---------------------------------------------------------------------
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)\s*$"
)
_LABEL_PAIR_RE = re.compile(
    r'\s*(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)\s*=\s*"(?P<value>(?:[^"\\]|\\.)*)"\s*,?'
)


def _unescape_label(value: str) -> str:
    out, i = [], 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append({"n": "\n", "\\": "\\", '"': '"'}.get(nxt, nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    return float(text)


def parse_prometheus(text: str) -> dict:
    """Parse exposition text into ``{"types": {...}, "samples": [...]}``.

    Each sample is ``(name, labels-dict, value)``.  Raises
    ``ValueError`` on any line that is neither a comment, blank, nor
    a valid sample — strict on purpose, it doubles as the grammar
    check in CI.
    """
    types: dict[str, str] = {}
    helps: dict[str, str] = {}
    samples: list[tuple[str, dict[str, str], float]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split(None, 3)
            if len(parts) < 4:
                raise ValueError(f"line {lineno}: malformed TYPE")
            types[parts[2]] = parts[3]
            continue
        if line.startswith("# HELP "):
            parts = line.split(None, 3)
            if len(parts) < 3:
                raise ValueError(f"line {lineno}: malformed HELP")
            helps[parts[2]] = parts[3] if len(parts) > 3 else ""
            continue
        if line.startswith("#"):
            continue
        m = _SAMPLE_RE.match(line)
        if not m:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        labels: dict[str, str] = {}
        raw = m.group("labels")
        if raw:
            pos = 0
            while pos < len(raw):
                pair = _LABEL_PAIR_RE.match(raw, pos)
                if not pair:
                    raise ValueError(
                        f"line {lineno}: malformed labels {raw!r}"
                    )
                labels[pair.group("name")] = _unescape_label(
                    pair.group("value")
                )
                pos = pair.end()
        try:
            value = _parse_value(m.group("value"))
        except ValueError as exc:
            raise ValueError(
                f"line {lineno}: bad value {m.group('value')!r}"
            ) from exc
        samples.append((m.group("name"), labels, value))
    return {"types": types, "helps": helps, "samples": samples}
