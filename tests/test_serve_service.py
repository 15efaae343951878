"""The inference service end to end: parity, policy, pool, wire.

The load-bearing assertion is *served-vs-direct bitwise equivalence*:
whatever path a request takes — queue, coalescing, micro-batch
execution, scatter, (optionally) JSON over a socket — its outputs
must be the exact bits direct :class:`FusedPlan` execution produces
for the same row.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.errors import ServeError
from repro.serve import (
    BatchPolicy,
    InferenceService,
    PlanPool,
    ProgramSpec,
    build_served_program,
    program_from_plan,
    request_inputs,
    run_closed_loop,
    run_open_loop,
    run_open_loop_http,
    serve_rows,
)
from repro.serve.http import HttpClient, start_http_server
from repro.serve.loadtest import ParityChecker
from repro.sim import BatchSimulator
from repro.workloads.traffic import make_traffic

SPEC = ProgramSpec(
    name="synth_layered", config_label="D2-B8-R16", scale=0.01
)
SPEC_B = ProgramSpec(
    name="synth_wide", config_label="D2-B8-R16", scale=0.01
)


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(scope="module")
def programs():
    """Compiled once per module (tests only read them)."""
    return {
        spec.name: build_served_program(spec) for spec in (SPEC, SPEC_B)
    }


def make_service(programs, **kwargs) -> InferenceService:
    kwargs.setdefault(
        "policy", BatchPolicy(max_batch=8, max_wait_s=0.001)
    )
    service = InferenceService(**kwargs)
    for program in programs.values():
        service.install(program)
    return service


class TestServedVsDirect:
    def test_bitwise_equivalence_across_batch(self, programs):
        """The acceptance-criterion test: responses scattered from
        micro-batches equal direct plan execution bitwise."""
        program = programs[SPEC.name]
        rows = [
            request_inputs(program.num_inputs, seed) for seed in range(17)
        ]
        direct = program.execute_rows(rows)

        async def main():
            service = make_service(
                programs, policy=BatchPolicy(max_batch=4, max_wait_s=0.0)
            )
            async with service:
                tasks = [
                    asyncio.ensure_future(
                        service.submit(SPEC.name, row, tenant="t")
                    )
                    for row in rows
                ]
                return await asyncio.gather(*tasks)

        responses = run(main())
        assert all(r.ok for r in responses)
        assert any(r.batch > 1 for r in responses)  # coalescing happened
        for j, response in enumerate(responses):
            for node, col in direct.items():
                want = float(col[j])
                got = response.outputs[node]
                assert got == want or (
                    np.isnan(got) and np.isnan(want)
                ), (j, node)

    def test_serve_rows_matches_batch_simulator(self, programs):
        from repro.runner.cache import cached_compile, cached_fused_plan
        from repro.workloads import build_workload

        dag = build_workload(SPEC.name, scale=SPEC.scale)
        result = cached_compile(dag, SPEC.config())
        plan = cached_fused_plan(result)
        matrix = np.vstack([
            request_inputs(plan.num_inputs, seed) for seed in range(9)
        ])
        direct = BatchSimulator(plan).run(matrix)
        served = serve_rows(plan, matrix, max_batch=4)
        assert sorted(served) == sorted(direct.outputs)
        for var in served:
            assert np.array_equal(
                served[var], direct.outputs[var], equal_nan=True
            )

    def test_run_rows_equals_stacked_run(self, programs):
        """The no-copy rows path is bitwise the matrix path."""
        program = programs[SPEC_B.name]
        wide = np.concatenate([
            request_inputs(program.num_inputs + 7, seed)
            for seed in range(5)
        ]).reshape(5, -1)
        # Fortran order makes each row a strided, non-contiguous view
        # of a wider tenant buffer — the serving assembly shape.
        wide = np.asfortranarray(wide)
        rows = [wide[j] for j in range(5)]
        assert not rows[0].flags["C_CONTIGUOUS"]
        by_rows = program.execute_rows(rows)
        stacked = program.execute_rows(
            [np.ascontiguousarray(r[: program.num_inputs]) for r in rows]
        )
        for node in by_rows:
            assert np.array_equal(
                by_rows[node], stacked[node], equal_nan=True
            )


class TestServicePolicy:
    def test_unknown_program_is_an_error_response(self, programs):
        async def main():
            async with make_service(programs) as service:
                return await service.submit("nope", [1.0])

        response = run(main())
        assert response.status == "error"
        assert "unknown program" in response.error

    def test_narrow_row_is_an_error_response(self, programs):
        async def main():
            async with make_service(programs) as service:
                return await service.submit(SPEC.name, [1.0])

        response = run(main())
        assert response.status == "error"
        assert "vector" in response.error

    def test_backpressure_rejection(self, programs):
        program = programs[SPEC.name]

        async def main():
            service = make_service(
                programs,
                policy=BatchPolicy(
                    max_batch=1, max_wait_s=0.0, max_queue=1
                ),
            )
            async with service:
                row = request_inputs(program.num_inputs, 0)
                tasks = [
                    asyncio.ensure_future(service.submit(SPEC.name, row))
                    for _ in range(12)
                ]
                return await asyncio.gather(*tasks)

        responses = run(main())
        statuses = {r.status for r in responses}
        assert statuses <= {"ok", "rejected"}
        assert any(r.status == "rejected" for r in responses)
        assert any(r.ok for r in responses)

    def test_expired_deadline_times_out_without_execution(self, programs):
        program = programs[SPEC.name]

        async def main():
            service = make_service(
                programs,
                policy=BatchPolicy(max_batch=4, max_wait_s=0.02),
            )
            async with service:
                row = request_inputs(program.num_inputs, 1)
                return await service.submit(
                    SPEC.name, row, deadline_s=0.0
                )

        response = run(main())
        assert response.status == "timeout"
        assert response.outputs is None

    def test_non_numeric_inputs_are_an_error_response(self, programs):
        async def main():
            async with make_service(programs) as service:
                return await service.submit(SPEC.name, ["abc", "def"])

        response = run(main())
        assert response.status == "error"
        assert "not numeric" in response.error

    def test_executor_failure_resolves_futures(self, programs):
        """A non-ReproError during batch execution (an OS error, a
        kernel bug, ...) must error the requests, never hang them."""

        import dataclasses

        def explode(rows):
            raise OSError("sweep buffer unavailable")

        # A private copy whose executor explodes — installed into this
        # service's own pool so the shared fixture stays intact.
        boom = dataclasses.replace(
            programs[SPEC.name], _executor=explode
        )

        async def main():
            service = make_service(
                programs, policy=BatchPolicy(max_batch=4, max_wait_s=0.0)
            )
            service.install(boom)
            async with service:
                row = request_inputs(boom.num_inputs, 0)
                return await asyncio.wait_for(
                    service.submit(SPEC.name, row), timeout=5
                )

        response = run(main())
        assert response.status == "error"
        assert "sweep buffer unavailable" in response.error

    def test_stats_snapshot(self, programs):
        async def main():
            service = make_service(programs)
            async with service:
                row = request_inputs(
                    programs[SPEC.name].num_inputs, 2
                )
                await service.submit(SPEC.name, row)
                return service.stats_dict()

        doc = run(main())
        assert doc["completed"] == 1
        assert doc["batches"] == 1
        assert SPEC.name in doc["programs"]
        assert doc["policy"]["max_batch"] == 8


class TestPlanPool:
    def test_register_warm_hits(self):
        pool = PlanPool()
        first = pool.register(SPEC)
        again = pool.register(SPEC)
        assert again is first
        assert pool.hits >= 1

    def test_structural_aliasing_shares_one_plan(self):
        """Two names, same content fingerprint -> one pool entry."""
        pool = PlanPool()
        a = pool.register(SPEC)
        alias = ProgramSpec(
            name=SPEC.name,
            config_label=SPEC.config_label,
            scale=SPEC.scale,
        )
        b = pool.register(alias)
        assert b is a
        assert len(pool) == 1

    def test_lru_eviction_bounds_the_pool(self):
        pool = PlanPool(max_programs=1)
        pool.register(SPEC)
        pool.register(SPEC_B)
        assert len(pool) == 1
        with pytest.raises(ServeError, match="unknown program"):
            pool.get(SPEC.name)
        assert pool.get(SPEC_B.name).key == SPEC_B.name

    def test_reregistered_key_with_new_recipe_rebuilds(self):
        """Rebinding a name to different content must not serve the
        old program (the worker pools rely on this too)."""
        pool = PlanPool()
        old = pool.register(SPEC)
        new_spec = ProgramSpec(
            name=SPEC.name,
            config_label=SPEC.config_label,
            scale=SPEC.scale,
            seed=SPEC.seed + 1,  # different mapper seed = new recipe
        )
        new = pool.register(new_spec)
        assert new is not old
        assert pool.get(SPEC.name) is new

    def test_unknown_key_raises(self):
        with pytest.raises(ServeError, match="unknown program"):
            PlanPool().get("nope")

    def test_unknown_workload_name_raises(self):
        with pytest.raises(ServeError, match="unknown workload"):
            build_served_program(ProgramSpec(name="not-a-workload"))


class TestTrafficGenerators:
    @pytest.mark.parametrize(
        "pattern", ["poisson", "bursty", "diurnal", "multi_tenant"]
    )
    def test_deterministic_and_sorted(self, pattern):
        a = make_traffic(pattern, 60, rate=500, seed=11)
        b = make_traffic(pattern, 60, rate=500, seed=11)
        assert a == b
        assert a != make_traffic(pattern, 60, rate=500, seed=12)
        times = [arr.time_s for arr in a.arrivals]
        assert times == sorted(times)
        assert a.num_requests == 60

    def test_multi_tenant_program_affinity(self):
        sched = make_traffic(
            "multi_tenant", 80, rate=500, seed=3,
            programs=("p0", "p1"),
        )
        by_tenant = {}
        for arr in sched.arrivals:
            by_tenant.setdefault(arr.tenant, set()).add(arr.program)
        assert len(sched.tenants()) > 1
        for progs in by_tenant.values():
            assert len(progs) == 1  # a tenant sticks to one program

    def test_bad_arguments_rejected(self):
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError, match="unknown traffic"):
            make_traffic("nope", 10)
        with pytest.raises(WorkloadError, match="requests"):
            make_traffic("poisson", 0)
        with pytest.raises(WorkloadError, match="rate"):
            make_traffic("poisson", 10, rate=0)


class TestLoadHarness:
    def test_open_loop_with_parity(self, programs):
        sched = make_traffic(
            "multi_tenant", 40, rate=4000, seed=5,
            programs=(SPEC.name, SPEC_B.name),
        )

        async def main():
            async with make_service(programs) as service:
                return await run_open_loop(
                    service, sched, time_scale=0.5, check=True
                )

        report = run(main())
        assert report.clean, report.render()
        assert report.requests == 40
        assert report.percentile(95) >= report.percentile(50) > 0
        assert report.records()[0]["parity_mismatches"] == 0

    def test_closed_loop_reports_throughput(self, programs):
        async def main():
            async with make_service(programs) as service:
                return await run_closed_loop(
                    service, SPEC.name, requests=40, concurrency=8,
                    check=True,
                )

        report = run(main())
        assert report.clean, report.render()
        assert report.rows_per_second > 0
        assert report.mean_batch > 1  # closed loop saturates batches
        assert "throughput" in report.render()


class TestHttpLayer:
    def test_wire_round_trip_preserves_bits(self, programs):
        program = programs[SPEC.name]
        row = request_inputs(program.num_inputs, 9)
        direct = program.execute_rows([row])

        async def main():
            async with make_service(programs) as service:
                server = await start_http_server(service, port=0)
                port = server.sockets[0].getsockname()[1]
                client = HttpClient("127.0.0.1", port)
                try:
                    health = await client.request("GET", "/healthz")
                    doc = await client.infer(
                        SPEC.name, [float(v) for v in row]
                    )
                    stats = await client.request("GET", "/stats")
                    missing = await client.request("GET", "/nope")
                    bad = await client.request("PUT", "/infer")
                finally:
                    await client.close()
                    server.close()
                    await server.wait_closed()
                return health, doc, stats, missing, bad

        health, doc, stats, missing, bad = run(main())
        assert health[0] == 200 and health[1]["ok"]
        assert doc["status"] == "ok"
        for node, col in direct.items():
            got = doc["outputs"][str(node)]
            want = float(col[0])
            assert got == want or (np.isnan(got) and np.isnan(want))
        assert stats[0] == 200 and stats[1]["completed"] == 1
        assert missing[0] == 404
        assert bad[0] == 405

    def test_http_open_loop_with_parity(self, programs):
        sched = make_traffic(
            "poisson", 25, rate=4000, seed=8, programs=(SPEC.name,)
        )
        checker = ParityChecker(lambda key: programs[key])

        async def main():
            async with make_service(programs) as service:
                server = await start_http_server(service, port=0)
                port = server.sockets[0].getsockname()[1]
                try:
                    return await run_open_loop_http(
                        "127.0.0.1", port, sched,
                        lambda key: programs[key].num_inputs,
                        time_scale=0.5,
                        checker=checker,
                    )
                finally:
                    server.close()
                    await server.wait_closed()

        report = run(main())
        assert report.clean, report.render()


class TestServeRowsHelper:
    def test_non_ok_response_raises(self, programs):
        program = programs[SPEC.name]
        plan_program = program_from_plan("p", _plan_for(SPEC))
        assert plan_program.num_inputs == program.num_inputs
        matrix = np.zeros((2, 1))  # too narrow -> error responses
        with pytest.raises(ServeError, match="resolved error"):
            serve_rows(_plan_for(SPEC), matrix, max_batch=2)


def _plan_for(spec: ProgramSpec):
    from repro.runner.cache import cached_compile, cached_fused_plan
    from repro.workloads import build_workload

    dag = build_workload(spec.name, scale=spec.scale)
    return cached_fused_plan(cached_compile(dag, spec.config()))


class TestHttpRobustness:
    async def _raw(self, port: int, payload: bytes) -> bytes:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(payload)
        await writer.drain()
        writer.write_eof()
        data = await reader.read()
        writer.close()
        await writer.wait_closed()
        return data

    def test_malformed_requests_get_400_not_a_crash(self, programs):
        async def main():
            async with make_service(programs) as service:
                server = await start_http_server(service, port=0)
                port = server.sockets[0].getsockname()[1]
                try:
                    garbage = await self._raw(port, b"garbage\r\n\r\n")
                    bad_len = await self._raw(
                        port,
                        b"POST /infer HTTP/1.1\r\n"
                        b"Content-Length: banana\r\n\r\n",
                    )
                    bad_json = await self._raw(
                        port,
                        b"POST /infer HTTP/1.1\r\n"
                        b"Content-Length: 3\r\n\r\nnot",
                    )
                    not_list = await self._raw(
                        port,
                        b"POST /infer HTTP/1.1\r\nContent-Length: 33\r\n"
                        b"\r\n"
                        b'{"program": "x", "inputs": "oops"}'[:33],
                    )
                    # The server survived all of that:
                    client = HttpClient("127.0.0.1", port)
                    health = await client.request("GET", "/healthz")
                    await client.close()
                finally:
                    server.close()
                    await server.wait_closed()
                return garbage, bad_len, bad_json, not_list, health

        garbage, bad_len, bad_json, not_list, health = run(main())
        for raw in (garbage, bad_len, bad_json, not_list):
            assert b"400" in raw.split(b"\r\n", 1)[0], raw[:60]
        assert health[0] == 200

    def test_connection_close_honored(self, programs):
        async def main():
            async with make_service(programs) as service:
                server = await start_http_server(service, port=0)
                port = server.sockets[0].getsockname()[1]
                try:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", port
                    )
                    writer.write(
                        b"GET /healthz HTTP/1.1\r\n"
                        b"Connection: close\r\n\r\n"
                    )
                    await writer.drain()
                    data = await reader.read()  # server closes for us
                    writer.close()
                    await writer.wait_closed()
                finally:
                    server.close()
                    await server.wait_closed()
                return data

        data = run(main())
        assert b"Connection: close" in data
        assert b'"ok": true' in data


class TestProgramSpecSources:
    def test_synth_params_source(self):
        from repro.workloads import SynthParams

        spec = ProgramSpec(
            name="fuzzy",
            config_label="D2-B8-R16",
            synth=SynthParams("diamond", 24, seed=3),
        )
        program = build_served_program(spec)
        assert program.key == "fuzzy"
        rows = [request_inputs(program.num_inputs, 1)]
        assert program.execute_rows(rows)

    def test_dag_json_source(self):
        from repro.graphs import to_json
        from repro.workloads import generate_synth

        dag = generate_synth("wide", 20, seed=5)
        spec = ProgramSpec(
            name="from-json",
            config_label="D2-B8-R16",
            dag_json=to_json(dag),
        )
        program = build_served_program(spec)
        assert program.num_nodes == dag.num_nodes
        from repro.graphs import OpType
        from repro.runner.cache import cached_compile

        result = cached_compile(dag, spec.config())
        row = request_inputs(program.num_inputs, 2)
        served = program.execute_rows([row])
        direct = BatchSimulator(result.plan()).run_rows([row])
        for node in served:
            assert dag.op(node) is not OpType.INPUT
            want = direct.outputs[result.node_map[node]]
            assert np.array_equal(served[node], want, equal_nan=True)

    def test_bad_config_label_rejected(self):
        with pytest.raises(ServeError, match="invalid config"):
            build_served_program(
                ProgramSpec(name="synth_layered", config_label="banana")
            )


class TestServeCli:
    def test_serve_forever_round_trip(self, capsys):
        """The `repro serve` core loop: register, bind, answer, stop."""
        from repro.cli import serve_forever

        async def main():
            stop = asyncio.Event()
            ready: dict = {}

            def on_ready(host, port):
                ready["addr"] = (host, port)

            task = asyncio.ensure_future(serve_forever(
                [SPEC],
                BatchPolicy(max_batch=8, max_wait_s=0.001),
                port=0,
                stop=stop,
                on_ready=on_ready,
            ))
            while "addr" not in ready:
                await asyncio.sleep(0.01)
            host, port = ready["addr"]
            client = HttpClient(host, port)
            row = request_inputs(
                build_served_program(SPEC).num_inputs, 3
            )
            doc = await client.infer(SPEC.name, [float(v) for v in row])
            await client.close()
            stop.set()
            return doc, await task

        doc, rc = run(main())
        assert rc == 0
        assert doc["status"] == "ok"
        out = capsys.readouterr().out
        assert "registered synth_layered" in out
        assert "serving 1 program(s)" in out

    def test_unservable_program_exits_nonzero(self, capsys):
        from repro.cli import serve_forever

        async def main():
            return await serve_forever(
                [ProgramSpec(name="not-a-workload")],
                BatchPolicy(),
                port=0,
            )

        assert run(main()) == 1
        assert "cannot serve" in capsys.readouterr().err


class TestLoadgenCli:
    def test_in_process_loadgen_exit_zero(self, capsys, tmp_path):
        from repro.cli import main

        bench = tmp_path / "BENCH_serve.json"
        rc = main([
            "loadgen",
            "--programs", "synth_layered",
            "--patterns", "poisson,bursty",
            "--requests", "30",
            "--rate", "2000",
            "--scale", "0.01",
            "--config", "D2-B8-R16",
            "--check",
            "--bench-json", str(bench),
        ])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "0 parity mismatches" in out
        assert bench.exists()
        import json

        doc = json.loads(bench.read_text())
        assert doc["schema"] == "repro-bench-v1"
        assert len(doc["runs"][-1]["records"]) == 2


    def test_spawned_server_loadgen_exit_zero(self, capsys, monkeypatch):
        """``loadgen --spawn`` starts ``repro serve`` as a subprocess,
        drives it over HTTP with parity checks and stops it."""
        from pathlib import Path

        from repro.cli import main

        monkeypatch.setenv(
            "PYTHONPATH", str(Path(__file__).resolve().parent.parent / "src")
        )
        rc = main([
            "loadgen", "--spawn",
            "--programs", "synth_layered",
            "--patterns", "poisson",
            "--requests", "20",
            "--rate", "2000",
            "--scale", "0.01",
            "--config", "D2-B8-R16",
            "--check",
        ])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "20 ok" in out
        assert "0 parity mismatches" in out


class TestMetricsExposition:
    """``GET /metrics`` renders the counts ``/stats`` reports."""

    #: ``(family, type, label names)`` of every series the service
    #: owns; a renamed, retyped or relabelled series is a broken
    #: dashboard.
    FAMILIES = {
        ("repro_batcher_batch_size", "histogram", ()),
        ("repro_batcher_batches_total", "counter", ()),
        ("repro_batcher_dispatched_total", "counter", ()),
        ("repro_batcher_rejected_total", "counter", ()),
        ("repro_batcher_submitted_total", "counter", ()),
        ("repro_planpool_lookups_total", "counter", ("outcome",)),
        ("repro_serve_completed_total", "counter", ()),
        ("repro_serve_errors_total", "counter", ()),
        ("repro_serve_programs", "gauge", ()),
        ("repro_serve_queue_depth", "gauge", ()),
        ("repro_serve_queue_wait_seconds", "histogram", ()),
        ("repro_serve_rejected_total", "counter", ()),
        ("repro_serve_request_seconds", "histogram", ()),
        ("repro_serve_rows_executed_total", "counter", ()),
        ("repro_serve_submitted_total", "counter", ()),
        ("repro_serve_timed_out_total", "counter", ()),
        ("repro_serve_uptime_seconds", "gauge", ()),
    }
    OWNED = ("repro_serve_", "repro_batcher_", "repro_planpool_")

    @staticmethod
    def _mixed_traffic(programs):
        """ok (single- and multi-row), rejected, timeout and error
        responses through one service; returns its exposition, its
        ``/stats`` document and the service."""
        import dataclasses

        program = programs[SPEC.name]

        def explode(rows):
            raise OSError("sweep buffer unavailable")

        async def main():
            service = make_service(
                programs,
                policy=BatchPolicy(
                    max_batch=4, max_wait_s=0.005, max_queue=3
                ),
            )
            service.install(dataclasses.replace(
                program, key="boom", spec=ProgramSpec(name="boom"),
                _executor=explode,
            ))
            row = request_inputs(program.num_inputs, 0)
            async with service:
                burst = await asyncio.gather(*(
                    service.submit(SPEC.name, row) for _ in range(6)
                ))
                rest = [
                    await service.submit(SPEC.name, [row, row]),
                    await service.submit(SPEC.name, row, deadline_s=0.0),
                    await service.submit("nope", row),
                    await service.submit(SPEC.name, [1.0]),
                    await service.submit("boom", row),
                ]
                statuses = sorted(r.status for r in burst + rest)
                return (
                    service.metrics_text(), service.stats_dict(),
                    service, statuses,
                )

        return run(main())

    def test_counters_equal_stats(self, programs):
        from repro.obs.metrics import parse_prometheus

        text, stats, service, statuses = self._mixed_traffic(programs)
        assert statuses == sorted(
            ["ok"] * 4 + ["rejected"] * 3 + ["timeout"] + ["error"] * 3
        )
        samples = {
            (name, tuple(sorted(labels.items()))): value
            for name, labels, value in parse_prometheus(text)["samples"]
        }

        def value(name, **labels):
            return samples[(name, tuple(sorted(labels.items())))]

        for name in (
            "submitted", "completed", "rejected", "timed_out", "errors",
            "rows_executed",
        ):
            assert value(f"repro_serve_{name}_total") == stats[name], name
        sizes = {int(k): n for k, n in stats["batch_sizes"].items()}
        dispatched = sum(k * n for k, n in sizes.items())
        assert value("repro_batcher_batches_total") == stats["batches"]
        assert value("repro_batcher_dispatched_total") == dispatched
        assert dispatched / stats["batches"] == stats["mean_batch"]
        assert value("repro_batcher_rejected_total") == stats["rejected"]
        # Two requests erred before reaching the batcher.
        assert value("repro_batcher_submitted_total") == (
            stats["submitted"] - 2
        )
        assert value("repro_batcher_batch_size_count") == stats["batches"]
        assert value("repro_batcher_batch_size_sum") == dispatched
        for bound in (1, 2, 4, 8):
            assert value(
                "repro_batcher_batch_size_bucket", le=str(bound)
            ) == sum(n for k, n in sizes.items() if k <= bound)
        assert value("repro_serve_request_seconds_count") == (
            stats["submitted"]
        )
        assert value("repro_planpool_lookups_total", outcome="hit") == (
            service.pool.hits
        )
        assert value("repro_serve_programs") == len(stats["programs"])

    def test_series_names_types_and_labels_are_pinned(self, programs):
        from repro.obs.metrics import parse_prometheus

        doc = parse_prometheus(self._mixed_traffic(programs)[0])
        labels: dict[str, set] = {}
        for name, sample_labels, _ in doc["samples"]:
            family = name
            for suffix in ("_bucket", "_sum", "_count"):
                if name.removesuffix(suffix) in doc["types"]:
                    family = name.removesuffix(suffix)
            labels.setdefault(family, set()).update(
                k for k in sample_labels if k != "le"
            )
        families = {
            (family, kind, tuple(sorted(labels.get(family, ()))))
            for family, kind in doc["types"].items()
            if family.startswith(self.OWNED)
        }
        assert families == self.FAMILIES


class TestPlanPoolCache:
    """A served program runs from one cached artifact, its fused plan:
    a fresh pool on a warm disk cache serves bitwise the same
    responses as a cold compile, and registration stores nothing
    else."""

    def test_warm_pool_serves_bitwise_from_cached_fused_plans(
        self, tmp_path
    ):
        from repro.runner import cache as cache_mod
        from repro.runner.cache import configure_cache
        from repro.serve.planpool import PlanPool

        previous = cache_mod._default_cache
        cache = configure_cache(tmp_path / "cache")
        try:
            spec = ProgramSpec(
                name="synth_layered",
                config_label="D2-B8-R16",
                scale=0.02,
            )
            cold_pool = PlanPool()
            cold = cold_pool.register(spec)
            # A fresh pool on the warm cache loads the compile result
            # and the fused plan — responses must match bitwise.
            hits = cache.hits
            warm_pool = PlanPool()
            warm = warm_pool.register(spec)
            assert cache.hits == hits + 2
            assert warm.cycles_per_row == cold.cycles_per_row
            rng = np.random.default_rng(7)
            rows = [
                rng.uniform(0.9, 1.1, size=cold.num_inputs)
                for _ in range(3)
            ]
            a = cold.execute_rows(rows)
            b = warm.execute_rows(rows)
            assert sorted(a) == sorted(b)
            for node in a:
                np.testing.assert_array_equal(a[node], b[node])
        finally:
            cache_mod._default_cache = previous

    def test_registration_stores_one_compile_result_and_one_fused_plan(
        self, tmp_path
    ):
        """Registering the serve benchmark's three programs in a fresh
        cache leaves exactly one compile result and one fused plan per
        program: no binary image, no pickled execution plan."""
        import pickle

        from repro.runner import cache as cache_mod
        from repro.runner.cache import configure_cache
        from repro.sim import ExecutionPlan, FusedPlan

        previous = cache_mod._default_cache
        cache = configure_cache(tmp_path / "cache")
        names = ("tretail", "bp_200", "msnbc")
        try:
            service = InferenceService()
            for name in names:
                service.register(ProgramSpec(name, scale=0.05))
        finally:
            cache_mod._default_cache = previous
        assert not list(cache.directory.rglob("*.img"))
        entries = cache.entries()
        assert all(path.suffix == ".pkl" for path in entries)
        payloads = [pickle.loads(path.read_bytes()) for path in entries]
        assert not any(isinstance(p, ExecutionPlan) for p in payloads)
        fused = [p for p in payloads if isinstance(p, FusedPlan)]
        compiled = [p for p in payloads if isinstance(p, dict)]
        assert len(entries) == 2 * len(names)
        assert sorted(f.source_name for f in fused) == sorted(names)
        assert len(compiled) == len(names)
        assert all("result" in p for p in compiled)


class TestServiceClock:
    """Uptime accounting must use the monotonic clock: an NTP step or
    DST jump of the wall clock must not warp ``uptime_s`` (negative
    uptimes broke dashboard rate maths)."""

    def test_uptime_immune_to_wall_clock_warp(self, monkeypatch):
        import time as time_mod

        from repro.serve.service import ServiceStats

        stats = ServiceStats()
        # Warp the wall clock a day backwards; uptime must not care.
        real_time = time_mod.time
        monkeypatch.setattr(
            time_mod, "time", lambda: real_time() - 86400.0
        )
        uptime = stats.as_dict()["uptime_s"]
        assert 0.0 <= uptime < 60.0

    def test_started_at_is_monotonic_based(self):
        import time as time_mod

        from repro.serve.service import ServiceStats

        before = time_mod.monotonic()
        stats = ServiceStats()
        after = time_mod.monotonic()
        assert before <= stats.started_at <= after
