"""Shard-router invariants: ring stability, admission, SLO classes,
drain/restart, failover, and routed-vs-direct bitwise parity.

The load-bearing assertions mirror the single-process serving tests
one level up: whatever the *topology* does — consistent-hash fan-out,
a shard draining, a restart over the warm pool, a mid-request
failover — every ok response must carry the exact bits direct plan
execution produces for its row, and no request may be lost,
duplicated, or cross-wired to another request's payload.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServeError
from repro.serve import (
    BatchPolicy,
    HashRing,
    LocalShard,
    ProgramSpec,
    ShardRouter,
    TenantSLO,
    build_served_program,
    request_inputs,
    route_rows,
    router_dispatch,
    slos_from_schedule,
)
from repro.serve.http import _BadRequest
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


def make_router(programs, num_shards=2, **kwargs) -> ShardRouter:
    """A router over ``num_shards`` local shards, every shard serving
    every program (the production registration discipline)."""
    policy = kwargs.pop(
        "policy", BatchPolicy(max_batch=8, max_wait_s=0.0, max_queue=512)
    )
    shards = []
    for i in range(num_shards):
        shard = LocalShard(f"shard{i}", policy=policy)
        for program in programs.values():
            shard.install(program)
        shards.append(shard)
    kwargs.setdefault(
        "fingerprints",
        {name: p.fingerprint for name, p in programs.items()},
    )
    return ShardRouter(shards, **kwargs)


# ---------------------------------------------------------------------
# Consistent hash ring (hypothesis)
# ---------------------------------------------------------------------
shard_sets = st.sets(
    st.text(
        alphabet="abcdefghij0123456789", min_size=1, max_size=8
    ),
    min_size=1, max_size=6,
)
key_lists = st.lists(
    st.text(min_size=0, max_size=16), min_size=0, max_size=40
)


class TestHashRing:
    @given(shards=shard_sets, keys=key_lists)
    @settings(max_examples=150, deadline=None)
    def test_lookup_total_and_deterministic(self, shards, keys):
        ring = HashRing(replicas=16)
        for s in shards:
            ring.add(s)
        for key in keys:
            owner = ring.lookup(key)
            assert owner in shards
            assert ring.lookup(key) == owner

    @given(shards=shard_sets, keys=key_lists, data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_removal_moves_only_the_removed_shards_keys(
        self, shards, keys, data
    ):
        """THE consistent-hashing property — what makes drain /
        restart / failover cheap: membership churn never reshuffles
        keys between surviving shards."""
        victim = data.draw(st.sampled_from(sorted(shards)))
        ring = HashRing(replicas=16)
        for s in shards:
            ring.add(s)
        before = {k: ring.lookup(k) for k in keys}
        ring.remove(victim)
        if len(shards) == 1:
            for k in keys:
                with pytest.raises(ServeError, match="empty"):
                    ring.lookup(k)
            return
        for k in keys:
            if before[k] != victim:
                assert ring.lookup(k) == before[k]
        # Re-adding restores the exact original assignment.
        ring.add(victim)
        assert {k: ring.lookup(k) for k in keys} == before

    @given(shards=shard_sets, keys=key_lists)
    @settings(max_examples=100, deadline=None)
    def test_exclusion_equals_removal(self, shards, keys):
        """lookup(exclude={x}) must route exactly like a ring that
        never contained x — drain-time routing is pure ring math."""
        ring = HashRing(replicas=16)
        for s in shards:
            ring.add(s)
        victim = sorted(shards)[0]
        without = HashRing(replicas=16)
        for s in shards - {victim}:
            without.add(s)
        for k in keys:
            if len(shards) == 1:
                with pytest.raises(ServeError):
                    ring.lookup(k, exclude={victim})
            else:
                assert ring.lookup(k, exclude={victim}) == without.lookup(k)

    def test_empty_ring_and_bad_replicas(self):
        with pytest.raises(ServeError, match="empty"):
            HashRing().lookup("k")
        with pytest.raises(ServeError, match="replicas"):
            HashRing(replicas=0)

    def test_all_excluded_raises(self):
        ring = HashRing()
        ring.add("a")
        with pytest.raises(ServeError, match="excluded"):
            ring.lookup("k", exclude={"a"})


# ---------------------------------------------------------------------
# Tenant SLOs
# ---------------------------------------------------------------------
class TestTenantSLO:
    def test_bad_inflight_rejected(self):
        with pytest.raises(ServeError, match="max_inflight"):
            TenantSLO(max_inflight=0)

    def test_slos_from_schedule_splits_head_and_tail(self):
        """multi_tenant's Zipf-ish weights: heavy tenants get the
        throughput class, tail tenants the latency class."""
        sched = make_traffic(
            "multi_tenant", 400, seed=5,
            programs=("synth_layered", "synth_wide"),
        )
        slos = slos_from_schedule(sched, latency_wait_ms=0.5)
        shares = sched.tenant_shares()
        assert set(slos) == set(shares)
        uniform = 1.0 / len(shares)
        assert any(s >= uniform for s in shares.values())
        assert any(s < uniform for s in shares.values())
        for tenant, share in shares.items():
            if share >= uniform:
                assert slos[tenant].max_wait_ms is None
            else:
                assert slos[tenant].max_wait_ms == 0.5

    def test_empty_schedule_yields_no_slos(self):
        class Empty:
            def tenant_shares(self):
                return {}

        assert slos_from_schedule(Empty()) == {}


# ---------------------------------------------------------------------
# Routing end to end (local shards)
# ---------------------------------------------------------------------
class TestRouterEndToEnd:
    def test_no_request_lost_duplicated_or_cross_wired(self, programs):
        """A multi-tenant campaign through 2 shards: every arrival
        gets exactly one ok response carrying the bits direct
        execution produces for *its own* payload."""
        sched = make_traffic(
            "multi_tenant", 60, seed=3,
            programs=("synth_layered", "synth_wide"),
        )
        rows = {
            a.value_seed: request_inputs(
                programs[a.program].num_inputs, a.value_seed
            )
            for a in sched.arrivals
        }

        async def main():
            router = make_router(programs)
            async with router:
                docs = await asyncio.gather(*(
                    router.submit(
                        a.program, rows[a.value_seed], tenant=a.tenant
                    )
                    for a in sched.arrivals
                ))
            return docs

        docs = run(main())
        assert len(docs) == 60
        for arrival, doc in zip(sched.arrivals, docs):
            assert doc["status"] == "ok", doc["error"]
            direct = programs[arrival.program].execute_rows(
                [rows[arrival.value_seed]]
            )
            for node, value in doc["outputs"].items():
                want = float(direct[node][0])
                assert value == want or (
                    np.isnan(value) and np.isnan(want)
                )

    def test_one_program_one_shard(self, programs):
        """All traffic for a program lands on the ring owner — the
        property that keeps micro-batches coalescing after sharding."""

        async def main():
            router = make_router(programs)
            async with router:
                docs = await asyncio.gather(*(
                    router.submit(
                        name, request_inputs(p.num_inputs, seed)
                    )
                    for name, p in programs.items()
                    for seed in range(8)
                ))
                owners = {
                    name: router.shard_for(name) for name in programs
                }
            served_by = {name: set() for name in programs}
            for (name, _), doc in zip(
                ((n, s) for n in programs for s in range(8)), docs
            ):
                served_by[name].add(doc["shard"])
            return owners, served_by

        owners, served_by = run(main())
        for name in programs:
            assert served_by[name] == {owners[name]}

    def test_alias_programs_co_locate(self, programs):
        """Two keys with the same content fingerprint route to the
        same shard regardless of their names."""

        async def main():
            program = programs[SPEC.name]
            shards = [
                LocalShard(f"s{i}", policy=BatchPolicy(max_wait_s=0.0))
                for i in range(4)
            ]
            for shard in shards:
                shard.install(program)
            router = ShardRouter(
                shards,
                fingerprints={
                    "alias_one": program.fingerprint,
                    "alias_two": program.fingerprint,
                },
            )
            return (
                router.shard_for("alias_one"),
                router.shard_for("alias_two"),
            )

        a, b = run(main())
        assert a == b

    def test_multi_row_request_rides_one_batch(self, programs):
        async def main():
            router = make_router(programs)
            async with router:
                program = programs[SPEC.name]
                matrix = np.vstack([
                    request_inputs(program.num_inputs, s)
                    for s in range(5)
                ])
                return await router.submit(SPEC.name, matrix), program

        doc, program = run(main())
        assert doc["status"] == "ok"
        assert doc["rows"] == 5
        direct = program.execute_rows(
            [request_inputs(program.num_inputs, s) for s in range(5)]
        )
        for node, col in doc["outputs"].items():
            assert list(col) == [float(v) for v in direct[node]]


class TestAdmissionAndSLO:
    def test_tenant_admission_bound_rejects_excess(self, programs):
        """A tenant at its in-flight bound gets 'rejected' responses;
        other tenants are unaffected."""

        async def main():
            router = make_router(
                programs,
                # A batching window holds requests in flight long
                # enough for the burst to pile up.
                policy=BatchPolicy(max_batch=64, max_wait_s=0.05),
                slos={"bounded": TenantSLO(max_inflight=3)},
            )
            async with router:
                row = request_inputs(
                    programs[SPEC.name].num_inputs, 0
                )
                bounded = asyncio.gather(*(
                    router.submit(SPEC.name, row, tenant="bounded")
                    for _ in range(10)
                ))
                free = asyncio.gather(*(
                    router.submit(SPEC.name, row, tenant="free")
                    for _ in range(10)
                ))
                return await bounded, await free, router.stats.rejected

        bounded, free, rejected = run(main())
        statuses = [d["status"] for d in bounded]
        assert statuses.count("rejected") == 7
        assert statuses.count("ok") == 3
        assert all(d["status"] == "ok" for d in free)
        assert rejected == 7
        for doc in bounded:
            if doc["status"] == "rejected":
                assert "admission bound" in doc["error"]
                assert doc["shard"] is None

    def test_latency_class_wait_override_cuts_the_window(self, programs):
        """A latency-class tenant's max_wait_ms rides the batcher's
        per-item hint: its lone request dispatches immediately instead
        of sitting out the policy's full window."""

        async def main():
            router = make_router(
                programs,
                policy=BatchPolicy(max_batch=64, max_wait_s=0.4),
                slos={"latency": TenantSLO(max_wait_ms=0.0)},
            )
            async with router:
                loop = asyncio.get_running_loop()
                row = request_inputs(
                    programs[SPEC.name].num_inputs, 1
                )
                t0 = loop.time()
                doc = await router.submit(
                    SPEC.name, row, tenant="latency"
                )
                return doc, loop.time() - t0

        doc, elapsed = run(main())
        assert doc["status"] == "ok"
        assert elapsed < 0.2  # nowhere near the 0.4s policy window

    def test_deadline_injection_times_out(self, programs):
        """A tenant SLO deadline is injected when the request does not
        set one — an absurdly tight deadline resolves 'timeout'."""

        async def main():
            router = make_router(
                programs,
                policy=BatchPolicy(max_batch=4, max_wait_s=0.02),
                slos={"doomed": TenantSLO(deadline_ms=1e-6)},
            )
            async with router:
                row = request_inputs(
                    programs[SPEC.name].num_inputs, 2
                )
                return await router.submit(
                    SPEC.name, row, tenant="doomed"
                )

        doc = run(main())
        assert doc["status"] == "timeout"


class TestDrainRestartFailover:
    def test_drain_reroutes_then_readmit_returns_home(self, programs):
        async def main():
            router = make_router(programs, num_shards=3)
            async with router:
                owner = router.shard_for(SPEC.name)
                await router.drain(owner)
                stand_in = router.shard_for(SPEC.name)
                row = request_inputs(
                    programs[SPEC.name].num_inputs, 3
                )
                doc = await router.submit(SPEC.name, row)
                router.readmit(owner)
                home = router.shard_for(SPEC.name)
                return owner, stand_in, doc, home, router

        owner, stand_in, doc, home, router = run(main())
        assert stand_in != owner
        assert doc["status"] == "ok"
        assert doc["shard"] == stand_in
        assert home == owner
        assert router.stats.drains == 1

    def test_drain_waits_for_inflight_requests(self, programs):
        """drain() resolves only after the shard's in-flight work
        finished where it was — no request is abandoned."""

        async def main():
            router = make_router(
                programs,
                policy=BatchPolicy(max_batch=1, max_wait_s=0.05),
            )
            async with router:
                owner = router.shard_for(SPEC.name)
                row = request_inputs(
                    programs[SPEC.name].num_inputs, 4
                )
                inflight = asyncio.ensure_future(
                    router.submit(SPEC.name, row)
                )
                await asyncio.sleep(0)  # let it reach the shard
                await router.drain(owner)
                assert inflight.done()  # drain outlived the request
                doc = await inflight
                return doc, owner

        doc, owner = run(main())
        assert doc["status"] == "ok"
        assert doc["shard"] == owner

    def test_cannot_drain_the_last_shard(self, programs):
        async def main():
            router = make_router(programs, num_shards=1)
            async with router:
                with pytest.raises(ServeError, match="no other shard"):
                    await router.drain("shard0")
                # With a second shard draining, the survivor is pinned.
            router2 = make_router(programs, num_shards=2)
            async with router2:
                await router2.drain("shard0")
                with pytest.raises(ServeError, match="no other shard"):
                    await router2.drain("shard1")

        run(main())

    def test_restart_bounces_the_service_over_a_warm_pool(
        self, programs
    ):
        async def main():
            router = make_router(programs)
            async with router:
                owner = router.shard_for(SPEC.name)
                service_before = router.shards[owner].service
                await router.restart(owner)
                service_after = router.shards[owner].service
                row = request_inputs(
                    programs[SPEC.name].num_inputs, 5
                )
                doc = await router.submit(SPEC.name, row)
                return (
                    service_before is service_after,
                    router.shards[owner].restarts,
                    router.stats.restarts,
                    doc,
                    owner,
                )

        same, shard_restarts, stats_restarts, doc, owner = run(main())
        assert not same  # a genuinely new service instance
        assert shard_restarts == 1 and stats_restarts == 1
        assert doc["status"] == "ok"
        assert doc["shard"] == owner  # the key came home

    def test_transport_failure_fails_over_to_successor(self, programs):
        """A shard dying under the router (stop() without telling it)
        is discovered through the transport error and the request is
        retried on the ring successor."""

        async def main():
            router = make_router(programs)
            async with router:
                owner = router.shard_for(SPEC.name)
                # Simulate a crash the router has not noticed.
                await router.shards[owner].stop()
                row = request_inputs(
                    programs[SPEC.name].num_inputs, 6
                )
                doc = await router.submit(SPEC.name, row)
                health = await router.check_health()
                return doc, owner, health, router

        doc, owner, health, router = run(main())
        assert doc["status"] == "ok"
        assert doc["shard"] != owner
        assert router.stats.failovers == 1
        assert health[owner] is False
        assert owner in router._down

    def test_all_shards_down_is_an_error_response(self, programs):
        async def main():
            router = make_router(programs)
            async with router:
                for shard in router.shards.values():
                    await shard.stop()
                row = request_inputs(
                    programs[SPEC.name].num_inputs, 7
                )
                return await router.submit(SPEC.name, row)

        doc = run(main())
        assert doc["status"] == "error"
        assert "no healthy shard" in doc["error"]

    def test_health_check_readmits_a_recovered_shard(self, programs):
        async def main():
            router = make_router(programs)
            async with router:
                owner = router.shard_for(SPEC.name)
                await router.shards[owner].stop()
                await router.check_health()
                assert owner in router._down
                await router.shards[owner].start()
                await router.check_health()
                return owner, router.shard_for(SPEC.name), router

        owner, now_owner, router = run(main())
        assert owner not in router._down
        assert now_owner == owner


# ---------------------------------------------------------------------
# The routed oracle + HTTP dispatch surface
# ---------------------------------------------------------------------
class TestRouteRowsOracle:
    def test_bitwise_parity_through_drain_and_restart(self, programs):
        """The acceptance-criterion test: a matrix streamed through a
        live 2-shard router — with the owning shard drained and
        restarted mid-stream — reassembles bitwise identical to the
        batch simulator."""
        from repro.runner.cache import cached_compile, cached_fused_plan
        from repro.workloads import build_workload

        dag = build_workload(SPEC.name, scale=SPEC.scale)
        plan = cached_fused_plan(cached_compile(dag, SPEC.config()))
        matrix = np.vstack([
            request_inputs(plan.num_inputs, seed) for seed in range(13)
        ])
        direct = BatchSimulator(plan).run(matrix)
        routed = route_rows(plan, matrix, max_batch=4)
        assert sorted(routed) == sorted(direct.outputs)
        for var in routed:
            assert np.array_equal(
                routed[var], direct.outputs[var], equal_nan=True
            )

    def test_single_shard_rejected(self, programs):
        with pytest.raises(ServeError, match=">= 2 shards"):
            route_rows(None, np.zeros((2, 2)), max_batch=2, num_shards=1)


class TestRouterDispatch:
    def _call(self, programs, *calls):
        """Run dispatch calls against a live router; returns results
        plus the router for post-mortem assertions."""

        async def main():
            router = make_router(programs)
            dispatch = router_dispatch(router)
            async with router:
                return [
                    await dispatch(*call) for call in calls
                ], router

        return run(main())

    def test_healthz_topology_and_stats(self, programs):
        (health, topo, stats), _router = self._call(
            programs,
            ("GET", "/healthz", b""),
            ("GET", "/admin/topology", b""),
            ("GET", "/stats", b""),
        )
        assert health[0] == 200 and health[1]["ok"] is True
        assert set(health[1]["shards"]) == {"shard0", "shard1"}
        status, doc = topo
        assert status == 200
        assert all(
            s["state"] == "active" for s in doc["shards"].values()
        )
        owners = set(doc["programs"].values())
        assert owners <= {"shard0", "shard1"}
        assert sorted(doc["programs"]) == sorted(programs)
        assert stats[0] == 200 and stats[1]["router"]["routed"] == 0

    def test_infer_route_serves_with_string_keys(self, programs):
        import json

        row = request_inputs(programs[SPEC.name].num_inputs, 8)
        body = json.dumps(
            {"program": SPEC.name, "inputs": [float(v) for v in row]}
        ).encode()
        (result,), _router = self._call(
            programs, ("POST", "/infer", body)
        )
        status, doc = result
        assert status == 200 and doc["status"] == "ok"
        assert all(isinstance(k, str) for k in doc["outputs"])

    def test_admin_drain_and_restart(self, programs):
        import json

        body = json.dumps({"shard": "shard0"}).encode()
        (drained, topo, restarted), router = self._call(
            programs,
            ("POST", "/admin/drain", body),
            ("GET", "/admin/topology", b""),
            ("POST", "/admin/restart", body),
        )
        assert drained == (200, {"ok": True, "draining": ["shard0"]})
        assert topo[1]["shards"]["shard0"]["state"] == "draining"
        assert restarted == (200, {"ok": True})
        assert router.stats.drains == 2  # restart drains again
        assert router.stats.restarts == 1

    def test_bad_admin_body_and_unknown_routes(self, programs):
        async def main():
            router = make_router(programs)
            dispatch = router_dispatch(router)
            async with router:
                with pytest.raises(_BadRequest):
                    await dispatch("POST", "/admin/drain", b"{}")
                with pytest.raises(_BadRequest):
                    await dispatch(
                        "POST", "/admin/drain", b'{"shard": 3}'
                    )
                return (
                    await dispatch("GET", "/nope", b""),
                    await dispatch("DELETE", "/infer", b""),
                )

        missing, wrong_method = run(main())
        assert missing[0] == 404
        assert wrong_method[0] == 405
