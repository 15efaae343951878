"""The observability layer: metrics invariants, trace well-formedness.

Three property groups (hypothesis) plus integration checks:

* histogram bucketing — cumulative bucket counts are monotone and the
  implicit ``+Inf`` bucket always equals the observation count;
* Prometheus text exposition — everything the registry renders parses
  back with :func:`parse_prometheus` to the exact same samples (the
  grammar round-trip CI relies on);
* span trees — every drained trace is a forest: unique ids, parents
  exist, children nest inside their parent's interval — identical
  guarantees under ``parallel_map`` ``jobs=1`` (inline) and ``jobs=N``
  (durable-queue workers shipping their spans back);
* request-id threading — the correlation id survives service,
  router-hop, and rejection paths unchanged.
"""

from __future__ import annotations

import asyncio
import gc
import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import trace
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    parse_prometheus,
    render_registries,
)
from repro.runner import parallel_map
from repro.serve import (
    BatchPolicy,
    LocalShard,
    ProgramSpec,
    ShardRouter,
    build_served_program,
    router_dispatch,
)

SPEC = ProgramSpec(
    name="synth_layered", config_label="D2-B8-R16", scale=0.01
)


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(autouse=True)
def _clean_trace():
    """Leave no trace state behind, whatever a test does."""
    trace.disable()
    trace.drain()
    yield
    trace.disable()
    trace.drain()


# ---------------------------------------------------------------------
# Histogram bucketing invariants (hypothesis)
# ---------------------------------------------------------------------
finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


class TestHistogramInvariants:
    @given(
        bounds=st.lists(finite, min_size=1, max_size=12, unique=True),
        values=st.lists(finite, max_size=200),
    )
    @settings(max_examples=200, deadline=None)
    def test_cumulative_counts(self, bounds, values):
        h = Histogram("h_test", "test histogram", buckets=tuple(bounds))
        for v in values:
            h.observe(v)
        cum = h.cumulative()
        assert len(cum) == len(h.buckets) + 1
        assert all(a <= b for a, b in zip(cum, cum[1:]))
        assert cum[-1] == h.count() == len(values)
        # Cumulative count at bound b is exactly |{v : v <= b}|.
        for bound, c in zip(h.buckets, cum):
            assert c == sum(1 for v in values if v <= bound)
        assert h.sum() == sum(values, 0.0)

    @given(
        bounds=st.lists(finite, min_size=1, max_size=8, unique=True),
        values=st.lists(st.floats(-1e9, 1e9), max_size=100),
    )
    @settings(max_examples=100, deadline=None)
    def test_rendered_buckets_match_cumulative(self, bounds, values):
        h = Histogram("h_render", "test histogram", buckets=tuple(bounds))
        for v in values:
            h.observe(v)
        doc = parse_prometheus(
            h.render() + "\n"
        )
        buckets = {
            labels["le"]: value
            for name, labels, value in doc["samples"]
            if name == "h_render_bucket"
        }
        assert buckets["+Inf"] == len(values)
        for bound, c in zip(h.buckets, h.cumulative()):
            rendered = [
                v for le, v in buckets.items()
                if le != "+Inf" and float(le) == bound
            ]
            assert rendered == [c]


# ---------------------------------------------------------------------
# Prometheus exposition round-trip (hypothesis)
# ---------------------------------------------------------------------
# Raw \r (or the other splitlines() separators) in a label value would
# break line framing — the renderer escapes only \\, ", and \n, per
# the exposition spec — so the generator stays off those code points.
label_text = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cs",),
        blacklist_characters="\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029",
    ),
    max_size=20,
)


class TestPrometheusRoundTrip:
    @given(
        counter_vals=st.dictionaries(
            label_text,
            st.floats(min_value=0, max_value=1e12, allow_nan=False),
            max_size=5,
        ),
        gauge_val=finite,
        observations=st.lists(st.floats(-1e6, 1e6), max_size=50),
    )
    @settings(max_examples=150, deadline=None)
    def test_render_parse_round_trip(
        self, counter_vals, gauge_val, observations
    ):
        reg = MetricsRegistry()
        c = reg.counter(
            "rt_requests_total", "requests", label_names=("tenant",)
        )
        for tenant, v in counter_vals.items():
            c.inc(v, tenant=tenant)
        reg.gauge("rt_depth", "queue depth").set(gauge_val)
        h = reg.histogram("rt_latency_seconds", "latency")
        for v in observations:
            h.observe(v)

        doc = parse_prometheus(reg.render())
        assert doc["types"] == {
            "rt_requests_total": "counter",
            "rt_depth": "gauge",
            "rt_latency_seconds": "histogram",
        }
        samples = {
            (name, tuple(sorted(labels.items()))): value
            for name, labels, value in doc["samples"]
        }
        for tenant in counter_vals:
            got = samples[("rt_requests_total", (("tenant", tenant),))]
            assert got == c.value(tenant=tenant)
        assert samples[("rt_depth", ())] == gauge_val
        assert samples[("rt_latency_seconds_count", ())] == len(
            observations
        )
        assert samples[("rt_latency_seconds_sum", ())] == h.sum()
        inf_key = ("rt_latency_seconds_bucket", (("le", "+Inf"),))
        assert samples[inf_key] == len(observations)

    def test_render_registries_dedups_first_wins(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("dup_total", "from a").inc(1)
        b.counter("dup_total", "from b").inc(7)
        b.counter("only_b_total", "b only").inc(2)
        doc = parse_prometheus(render_registries(a, b))
        samples = {name: value for name, _labels, value in doc["samples"]}
        assert samples == {"dup_total": 1, "only_b_total": 2}

    @pytest.mark.parametrize(
        "bad",
        [
            "not a sample line",
            'metric{unterminated="x} 1',
            "metric 1 2 3 extra",
            "metric notanumber",
        ],
    )
    def test_parser_is_strict(self, bad):
        with pytest.raises(ValueError):
            parse_prometheus(bad + "\n")

    def test_parses_special_values(self):
        doc = parse_prometheus("m_bucket{le=\"+Inf\"} 3\nm2 -Inf\n")
        values = {n: v for n, _l, v in doc["samples"]}
        assert values["m_bucket"] == 3
        assert values["m2"] == -math.inf


# ---------------------------------------------------------------------
# Span-tree well-formedness under parallel_map
# ---------------------------------------------------------------------
def _traced_square(x: int) -> int:
    with trace.span("work.outer", "test", item=x):
        with trace.span("work.inner", "test"):
            return x * x


def _assert_well_formed(events: list[dict]) -> dict:
    """Unique ids, resolvable parents, children inside parents."""
    by_id: dict[str, dict] = {}
    for e in events:
        assert e["id"] not in by_id, f"duplicate span id {e['id']}"
        by_id[e["id"]] = e
    for e in events:
        parent_id = e.get("parent")
        if parent_id is None:
            continue
        assert parent_id in by_id, f"dangling parent {parent_id}"
        parent = by_id[parent_id]
        assert parent["ts"] <= e["ts"]
        # µs truncation of start/duration can shave the bounds by one
        # tick each; allow that much and no more.
        assert (
            e["ts"] + e["dur"] <= parent["ts"] + parent["dur"] + 2
        ), f"{e['name']} escapes its parent {parent['name']}"
    return by_id


class TestSpanTrees:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_parallel_map_trees(self, jobs):
        trace.enable(process_token=f"coord-j{jobs}")
        with trace.span("fanout", "runner", jobs=jobs):
            results = parallel_map(
                _traced_square, [1, 2, 3, 4], jobs=jobs
            )
        assert results == [1, 4, 9, 16]
        events = trace.drain()
        by_id = _assert_well_formed(events)

        (root,) = [e for e in events if e["name"] == "fanout"]
        outers = [e for e in events if e["name"] == "work.outer"]
        inners = [e for e in events if e["name"] == "work.inner"]
        assert len(outers) == len(inners) == 4
        # Every task span's ancestry terminates at the coordinator's
        # fanout span — jobs=1 directly, jobs=N via the spans the
        # workers shipped back.
        for e in outers + inners:
            cur = e
            while cur.get("parent"):
                cur = by_id[cur["parent"]]
            assert cur["id"] == root["id"]
        if jobs > 1:
            # Each task's three campaign layers, recorded by workers
            # under the coordinator's campaign.run span.
            (run,) = [e for e in events if e["name"] == "campaign.run"]
            assert run["parent"] == root["id"]
            assert run["pid"] == os.getpid()
            for name in ("campaign.lease", "campaign.task",
                         "campaign.checkpoint"):
                layer = [e for e in events if e["name"] == name]
                assert len(layer) == 4, name
                assert all(e["parent"] == run["id"] for e in layer)
                assert all(e["pid"] != os.getpid() for e in layer)
            tasks = {e["id"] for e in events if e["name"] == "campaign.task"}
            assert {e["parent"] for e in outers} == tasks

    def test_chrome_export_round_trip(self, tmp_path):
        import json

        trace.enable(process_token="rt")
        gc.disable()  # a collection here would add a third span
        try:
            with trace.span("outer", "test", k="v"):
                with trace.span("inner", "test"):
                    pass
        finally:
            gc.enable()
        events = trace.drain()
        path = tmp_path / "trace.json"
        assert trace.export_chrome(path, events) == 2
        doc = json.loads(path.read_text())
        trace.validate_trace_events(doc)
        assert trace.ingest_chrome(doc) == 2
        merged = trace.drain()
        assert sorted(e["id"] for e in merged) == sorted(
            e["id"] for e in events
        )
        assert _assert_well_formed(merged)

    def test_self_times_merge_and_clip_children(self):
        def ev(id_, parent, ts, dur):
            return {"id": id_, "parent": parent, "ts": ts, "dur": dur}

        events = [
            ev("root", None, 0, 100),
            ev("a", "root", 10, 30),
            ev("b", "root", 30, 20),  # overlaps a: [30, 40) counts once
            ev("c", "root", 90, 20),  # runs past the root: clipped
            ev("a1", "a", 15, 5),
        ]
        selfs = trace.self_times(events)
        assert selfs == {"root": 50, "a": 25, "b": 20, "c": 20, "a1": 5}


class TestGcSpans:
    def test_collection_recorded_under_current_span(self):
        trace.enable(process_token="gc")
        with trace.span("outer", "test"):
            cycle = []
            cycle.append(cycle)
            del cycle
            gc.collect()
        events = trace.drain()
        by_id = _assert_well_formed(events)
        (outer,) = [e for e in events if e["name"] == "outer"]
        collects = [e for e in events if e["name"] == "gc.collect"]
        assert all(e["cat"] == "runtime" for e in collects)
        assert all(
            set(e["args"]) == {"generation", "collected"} for e in collects
        )
        full = [e for e in collects if e["args"]["generation"] == 2]
        assert full and by_id[full[-1]["parent"]] is outer
        assert full[-1]["args"]["collected"] >= 1  # the list cycle

    def test_young_collections_not_recorded(self):
        trace.enable(process_token="gc0")
        with trace.span("outer", "test"):
            for _ in range(3):
                gc.collect(0)
            gc.collect(1)
        events = trace.drain()
        generations = [
            e["args"]["generation"] for e in events
            if e["name"] == "gc.collect"
        ]
        assert 1 in generations and 0 not in generations

    def test_hook_never_takes_the_registry_lock(self, monkeypatch):
        # A collection can run while this thread holds the registry
        # lock (registering its ring, or a ring-less thread's drain);
        # the hook must then return, not wait on the lock.  The lock
        # stand-in times out instead of hanging the suite.
        import threading

        class TimedLock:
            def __init__(self):
                self._lock = threading.Lock()

            def __enter__(self):
                if not self._lock.acquire(timeout=10):
                    raise TimeoutError("registry lock taken twice")

            def __exit__(self, *exc_info):
                self._lock.release()

        monkeypatch.setattr(trace, "_registry_lock", TimedLock())
        trace.enable(process_token="gcdl")
        info = {"generation": 2, "collected": 0}
        errors = []

        def collect_under_lock():
            try:
                with trace._registry_lock:
                    trace._gc_hook("start", info)
                    trace._gc_hook("stop", info)
            except TimeoutError as exc:
                errors.append(exc)

        def first_span_with_threshold_one():
            threshold = gc.get_threshold()
            gc.set_threshold(1)
            try:
                trace.drain()
                with trace.span("first", "test"):
                    pass
            finally:
                gc.set_threshold(*threshold)

        for target in (collect_under_lock, first_span_with_threshold_one):
            t = threading.Thread(target=target)
            t.start()
            t.join()
        assert errors == []
        assert [e["name"] for e in trace.drain() if e["name"] == "first"] == [
            "first"
        ]

    def test_hook_installed_once_and_removed_by_disable(self):
        trace.enable()
        trace.enable()
        assert gc.callbacks.count(trace._gc_hook) == 1
        trace.disable()
        assert trace._gc_hook not in gc.callbacks
        gc.collect()
        assert trace.drain() == []


# ---------------------------------------------------------------------
# Request-id threading through service and router
# ---------------------------------------------------------------------
@pytest.fixture(scope="module")
def served_program():
    return build_served_program(SPEC)


def _make_router(program, **kwargs) -> ShardRouter:
    shards = []
    for i in range(2):
        shard = LocalShard(
            f"shard{i}",
            policy=BatchPolicy(max_batch=8, max_wait_s=0.0, max_queue=64),
        )
        shard.install(program)
        shards.append(shard)
    kwargs.setdefault("fingerprints", {SPEC.name: program.fingerprint})
    return ShardRouter(shards, **kwargs)


class TestRequestIdThreading:
    def test_router_passes_id_end_to_end(self, served_program):
        router = _make_router(served_program)
        row = [0.5] * served_program.num_inputs

        async def go():
            async with router:
                doc = await router.submit(
                    SPEC.name, row, request_id="rid-42"
                )
                generated = await router.submit(SPEC.name, row)
            return doc, generated

        doc, generated = run(go())
        assert doc["status"] == "ok"
        assert doc["request_id"] == "rid-42"
        # No client id -> the service mints one and it still rides back.
        assert generated["status"] == "ok"
        assert generated["request_id"].startswith("req-")

    def test_header_wins_and_errors_carry_id(self, served_program):
        router = _make_router(served_program)
        row = [0.5] * served_program.num_inputs

        async def go():
            import json

            dispatch = router_dispatch(router)
            async with router:
                body = {
                    "program": SPEC.name,
                    "inputs": row,
                    "request_id": "body-id",
                }
                status, ok_doc = await dispatch(
                    "POST",
                    "/infer",
                    json.dumps(body).encode(),
                    {"x-repro-request-id": "header-id"},
                )
                _status, err_doc = await dispatch(
                    "POST",
                    "/infer",
                    json.dumps(
                        {
                            "program": "no_such_program",
                            "inputs": [1.0],
                            "request_id": "err-id",
                        }
                    ).encode(),
                )
            return status, ok_doc, err_doc

        status, ok_doc, err_doc = run(go())
        assert status == 200
        assert ok_doc["request_id"] == "header-id"
        assert err_doc["status"] != "ok"
        assert err_doc["request_id"] == "err-id"

    def test_router_metrics_parse(self, served_program):
        router = _make_router(served_program)
        row = [0.5] * served_program.num_inputs

        async def go():
            async with router:
                await router.submit(SPEC.name, row)
                return router.metrics_text()

        doc = parse_prometheus(run(go()))
        names = {name for name, _labels, _v in doc["samples"]}
        assert "repro_router_routed_total" in names
        assert "repro_router_shard_up" in names
